//! # cxcluster — multi-primary write sharding for concurrent-XML stores
//!
//! `cxrepl` scaled *reads*: any number of replicas tailing one primary's
//! WAL. This crate scales *writes* by partitioning the document space
//! across **N primaries** — the classic partitioned-ownership design
//! (tablet assignment, not conflict resolution): every document has
//! exactly one owning [`cxpersist::DurableStore`], so the prevalidation
//! gate and the WAL epoch chain keep the exact strength they have on a
//! single primary.
//!
//! * **[`Router`]** — deterministic `DocId → shard`. Cluster inserts mint
//!   ids from per-shard residue classes (shard `i` of `n` allocates only
//!   ids `≡ i (mod n)`), so the hash default `raw % n` routes every
//!   unmoved document with no table at all; moved documents carry an
//!   explicit override. The table is *derived* from where documents live —
//!   there is no separate routing artifact to keep crash-consistent.
//! * **[`Cluster`]** — the store-shaped façade: one insert entry
//!   ([`Cluster::admit`]: round-robin or a chosen shard, optionally named,
//!   taking a [`cxpersist::LoggedDoc`] so a received blob is logged
//!   without being captured again), routed gated edits, a cluster-level
//!   name directory (`id_by_name` / `remove_named` find a document
//!   wherever it lives), fan-out `query_all` with a deterministic
//!   id-sorted merge, aggregated stats.
//! * **Rebalancing** — [`Cluster::move_doc`] migrates a document between
//!   primaries with the existing [`cxpersist::DocBlob`] + epoch machinery:
//!   capture on the source, durable hand-off to the target under the
//!   document's own id ([`cxpersist::DurableStore::admit`] with
//!   [`cxpersist::Claim::Exact`] — the commit point), route swap,
//!   tombstone. Readers stay live throughout and see the document on
//!   exactly one side; a crash at any step recovers to exactly one owner
//!   with byte-identical stand-off, and a live move that fails part-way
//!   still lists the document once ([`Cluster::query_shard`]).
//!   [`Cluster::drain_shard`] decommissions a primary.
//! * **Per-shard replication** — [`Cluster::primary`] exposes each shard
//!   as a [`cxrepl::Primary`], so every primary can front its own replica
//!   set (reads scale per shard, writes scale across shards).
//!
//! ```no_run
//! use cxcluster::{Cluster, ShardId};
//! use cxpersist::Options;
//! use cxstore::EditOp;
//!
//! let cluster = Cluster::open(
//!     ["/var/lib/cxml/shard-0", "/var/lib/cxml/shard-1", "/var/lib/cxml/shard-2"],
//!     Options::default(),
//! )?;
//! let id = cluster.insert_named("ms", corpus::figure1::goddag())?;
//! cluster.edit(id, EditOp::InsertText { offset: 0, text: "swa ".into() })?;
//! let hits = cluster.query_all("//dmg/overlapping::ling:w")?;
//! cluster.move_doc(id, ShardId(2))?; // readers keep reading throughout
//! # let _ = hits;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// No panics outside tests unless an `#[expect(.., reason = "invariant: ..")]` says why.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::allow_attributes_without_reason
    )
)]

mod cluster;
mod error;
mod router;

pub use cluster::{Cluster, PartialResults, ShardError, ShardHealth};
pub use error::{ClusterError, Result};
pub use router::{Router, ShardId};
