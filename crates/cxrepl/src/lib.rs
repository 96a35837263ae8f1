//! # cxrepl — WAL log-shipping replication for concurrent-XML stores
//!
//! `cxpersist` gave one process durability: every mutation reaches a
//! CRC'd, LSN-ordered write-ahead log before it touches the store. This
//! crate turns that log into a replication stream — the first
//! multi-process layer of the system:
//!
//! * **[`Primary`]** — wraps a [`cxpersist::DurableStore`] and serves its
//!   WAL to any number of followers: LSN-contiguous record batches sliced
//!   straight out of the log file, or a full [`cxpersist::StoreSnapshot`]
//!   bootstrap when a checkpoint already retired the records a follower
//!   needs. Shipping never blocks the edit path.
//! * **[`ReplicaStore`]** — a live, read-only [`cxstore::Store`] that
//!   continuously applies shipped records while serving `query` /
//!   `query_all` / stand-off export concurrently. The apply path skips
//!   the prevalidation gate (the primary already gated every logged op)
//!   but verifies each record's **edit epoch** against the live document,
//!   exactly like crash recovery — divergence refuses to apply rather
//!   than serve wrong data. Torn batches lose only their tail: the WAL
//!   codec's per-record framing and CRCs let the replica apply the valid
//!   prefix and re-request from its last applied LSN.
//! * **[`LogTransport`]** — the one-verb shipping abstraction ("what
//!   follows LSN n?"), with two implementations: [`InProcessTransport`]
//!   (a function call, for replicas inside the server process and for
//!   tests/benches) and [`TcpTransport`]/[`TcpReplServer`]
//!   (length-prefixed frames over std TCP, no extra dependencies).
//! * **[`Follower`]** — the tailing loop: catch up, poll, absorb primary
//!   outages while the replica keeps serving reads.
//! * **Promotion** — [`ReplicaStore::promote`] turns a follower into a
//!   writable [`cxpersist::DurableStore`] on its own WAL: the applied
//!   state is snapshotted durably at the follower's last applied LSN and
//!   new gated edits log from there. Kill the primary, promote the
//!   freshest follower, repoint the others.
//!
//! ```no_run
//! use cxrepl::{Follower, InProcessTransport, Primary, ReplicaStore};
//! use std::sync::Arc;
//!
//! let primary = Arc::new(Primary::new(Arc::new(
//!     cxpersist::DurableStore::open("/var/lib/cxml/primary")?,
//! )));
//! let replica = Arc::new(ReplicaStore::new());
//! let mut follower =
//!     Follower::new(Arc::clone(&replica), InProcessTransport::new(Arc::clone(&primary)));
//! follower.catch_up()?;
//! // Read fan-out: the replica answers queries while it keeps applying.
//! let hits = replica.store().query_all("//dmg/overlapping::ling:w")?;
//! # let _ = hits;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod error;
mod fault;
mod follower;
mod primary;
mod replica;
mod tcp;
mod transport;

pub use error::{ReplError, Result};
pub use fault::FaultTransport;
pub use follower::{Follower, FollowerError, FollowerHandle, RetryPolicy, SyncProgress};
pub use primary::Primary;
pub use replica::{BatchApply, ReplicaStore};
pub use tcp::{TcpReplServer, TcpTransport, MAX_FRAME};
pub use transport::{FetchResponse, InProcessTransport, LogTransport};
