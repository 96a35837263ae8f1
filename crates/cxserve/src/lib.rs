//! # cxserve — the network service tier
//!
//! Everything below this crate is a library you link; this crate makes
//! it a **service you dial**: a versioned wire protocol for the store's
//! operations, a server that speaks it over a [`cxcluster::Cluster`],
//! and a client library that makes the remote store feel local without
//! lying about the network.
//!
//! ```text
//!   Client ──┐                    ┌─► ClusterServer ─► Cluster (all shards)
//!   Client ──┼── cxq1 frames ─────┤
//!   RouterClient ── per-shard ────┴─► ClusterServer::bind_shard (one per shard)
//! ```
//!
//! Three layers:
//!
//! * [`proto`] — the `cxq1` protocol: one request/response per
//!   length-prefixed [`cxwire`] frame, answered in order, every failure
//!   a *typed* error frame ([`WireError`]);
//! * [`server`] — [`ClusterServer`]: bounded handler pool, per-request
//!   deadlines, panic containment, a `serve.request` fault site, and
//!   `cx_server_*` metrics on the cluster's own [`cxobs`] registry;
//! * [`client`] — [`Client`]: connection pooling, reconnect-on-error,
//!   pipelined CAS-guarded edit batches with exactly-once retry
//!   semantics; and [`RouterClient`]: the cluster's residue-class +
//!   override routing evaluated *client-side*, so per-document requests
//!   go straight to the owning shard's server.
//!
//! The retry story is the load-bearing part. A transport failure leaves
//! a request's fate unknown, so the client never blindly replays a
//! write; instead every retryable edit carries a compare-and-set epoch
//! guard ([`cxcluster::Cluster::edit_guarded`]), and after a reconnect
//! the client probes the document's epoch to learn whether its edit
//! landed — applied-exactly-once either way.
//!
//! The whole tier is traced end to end with [`cxobs::trace`]: request frames
//! carry an optional trace-context token, the server adopts it into its
//! handler span, and the `trace` verb serves the flight recorder's
//! retained traces — summaries or one rendered tree — over the wire.

#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod proto;
pub mod server;

pub use client::{Client, ClientOptions, RouterClient};
pub use error::{Result, ServeError, WireError, WireErrorKind};
pub use proto::{Request, Response, TraceQuery, TraceSummaryWire, Verb, VERSION};
pub use server::{ClusterServer, ServerOptions};
