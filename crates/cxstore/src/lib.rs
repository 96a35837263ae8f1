//! # cxstore — a concurrent multi-document repository for concurrent XML
//!
//! The paper's framework (GODDAG + SACX + Extended XPath + prevalidation)
//! operates on one document at a time. This crate is the collection layer a
//! serving system needs on top of it: a thread-safe [`Store`] of GODDAG
//! documents behind stable [`DocId`] handles, designed so that *repeated*
//! query traffic stops paying per-request costs:
//!
//! * **Cached overlap indexes** — `expath`'s `OverlapIndex` makes the
//!   extended axes (`overlapping::`, `containing::`, …) `O(log n + k)`, but
//!   building it is `O(n log n)`. The store builds it at most once per
//!   document *edit epoch* ([`goddag::Goddag::edit_epoch`]): every mutation
//!   bumps the epoch, every query compares epochs, and an unmodified
//!   document serves any number of queries from the cached index.
//! * **A compiled-query cache** — ExPath source strings are parsed once and
//!   the AST is shared (`Arc`) across all evaluations and threads.
//! * **A batch query service** — [`Store::query_all`] fans one expression
//!   out across all documents on scoped threads and returns per-document
//!   node sets, keyed and ordered by handle.
//! * **One document table** — a single id-ordered map under one lock, so
//!   [`Store::doc_ids`] and the batch path see an atomic snapshot in
//!   insertion order; document locks are only taken after it is released.
//! * **Gated edits** — [`EditOp`] is the only way a stored document
//!   changes. [`Store::edit`] applies one under the document's write lock;
//!   markup insertions into a hierarchy with a DTD are checked through
//!   `prevalid` first, so a store full of valid documents stays
//!   potentially valid.
//! * **Observability** — every store owns a [`cxobs::Registry`] holding
//!   its event counters (cache hits/misses, edits) and latency histograms
//!   for the query, batch, and gated-edit paths; the layers stacked on
//!   top count on the same registry. [`Store::stats`] aggregates
//!   `goddag::GoddagStats` over the collection and reads every counter
//!   back from the registry ([`StoreStats::from_registry`]); the store
//!   implements [`cxobs::Observable`] so the whole stack renders as one
//!   Prometheus-style text exposition, each series once.
//!
//! ```
//! use cxstore::Store;
//!
//! let store = Store::new();
//! let id = store.insert(corpus::figure1::goddag());
//!
//! // First query builds the overlap index; the second reuses it.
//! let q = "//dmg/overlapping::ling:w";
//! let a = store.query(id, q).unwrap();
//! let b = store.query(id, q).unwrap();
//! assert_eq!(a, b);
//! let stats = store.stats();
//! assert_eq!(stats.index_builds, 1);
//! assert_eq!(stats.index_hits, 1);
//! assert_eq!(stats.query_cache_hits, 1);
//! ```

mod edit;
mod entry;
mod error;
mod stats;
mod store;

pub use edit::{EditOp, EditOutcome};
pub use error::{Result, StoreError};
pub use stats::StoreStats;
pub use store::{DocId, Store};
