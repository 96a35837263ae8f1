//! # cxml — a framework for processing complex document-centric XML with
//! overlapping structures
//!
//! A Rust implementation of Iacob & Dekhtyar's SIGMOD 2005 framework for
//! *concurrent XML*: documents whose content carries markup from several
//! independent hierarchies that may overlap each other.
//!
//! The facade re-exports the whole stack:
//!
//! | crate | role |
//! |-------|------|
//! | [`xmlcore`] | XML substrate: pull parser, writer, DOM, DTD engine |
//! | [`goddag`] | the GODDAG data model (shared root, shared leaves, one tree per hierarchy) |
//! | [`sacx`] | SACX parser + representation drivers (distributed / fragmentation / milestones / stand-off) |
//! | [`expath`] | Extended XPath with the `overlapping`, `containing`, `contained`, `co-extensive` axes |
//! | [`prevalid`] | potential-validity checking (prevalidation) |
//! | [`xtagger`] | editing sessions: suggestions, prevalidation gate, undo/redo, filtering |
//! | [`cxobs`] | dependency-free diagnostics: lock-free counters/gauges/latency histograms, event rings, Prometheus-style text exposition; deterministic failpoints ([`cxobs::fault`]); end-to-end request tracing with a bounded flight recorder ([`cxobs::trace`]) |
//! | [`cxstore`] | concurrent multi-document repository: cached overlap indexes, compiled-query cache, batch/parallel queries, gated edits |
//! | [`cxpersist`] | durable stores: `EditOp` write-ahead log, stand-off snapshots, warm restart |
//! | [`cxrepl`] | WAL log-shipping replication: read replicas, catch-up, follower promotion |
//! | [`cxcluster`] | multi-primary write sharding: name routing, fan-out queries, live rebalancing |
//! | [`cxwire`] | length-prefixed TCP framing shared by the replication and service tiers |
//! | [`cxserve`] | network service tier: versioned wire protocol, cluster server, pooling/pipelining client, shard-aware router |
//! | [`corpus`] | synthetic manuscript workloads + the paper's Figure 1 reconstruction |
//!
//! ## Quickstart
//!
//! ```
//! // Four conflicting encodings of the same text (the paper's Figure 1):
//! let g = corpus::figure1::goddag();
//!
//! // One query language over all of them — including questions XPath
//! // cannot ask, like "which words does the damage overlap?":
//! let ev = expath::Evaluator::with_index(&g);
//! let damaged = ev.select("//dmg/overlapping::ling:w").unwrap();
//! assert!(!damaged.is_empty());
//! ```
//!
//! ## Serving many documents
//!
//! ```
//! // A thread-safe repository that amortizes index builds and query
//! // compilation across requests:
//! let store = cxstore::Store::new();
//! store.insert(corpus::figure1::goddag());
//! store.insert(corpus::figure1::goddag());
//! let per_doc = store.query_all("//dmg/overlapping::ling:w").unwrap();
//! assert_eq!(per_doc.len(), 2);
//! ```

pub use corpus;
pub use cxcluster;
pub use cxobs;
pub use cxpersist;
pub use cxrepl;
pub use cxserve;
pub use cxstore;
pub use cxwire;
pub use expath;
pub use goddag;
pub use prevalid;
pub use sacx;
pub use xmlcore;
pub use xtagger;
