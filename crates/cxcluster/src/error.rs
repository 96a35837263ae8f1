//! Cluster-layer errors.

use std::fmt;

/// Shorthand result type.
pub type Result<T> = std::result::Result<T, ClusterError>;

/// Anything that can go wrong routing, editing or rebalancing across
/// shards.
#[derive(Debug)]
pub enum ClusterError {
    /// A shard's store refused an operation — the same error a plain
    /// [`cxstore::Store`] would return, surfaced transparently so callers
    /// can treat a cluster as a store (a prevalidation rejection is a
    /// rejection, wherever the document lives).
    Store(cxstore::StoreError),
    /// A shard's persistence layer failed (WAL append, checkpoint,
    /// blob hand-off).
    Persist(cxpersist::PersistError),
    /// An operation named a shard index the cluster does not have.
    NoSuchShard(usize),
    /// The cluster's shards are inconsistent with each other in a way
    /// assembly cannot heal, or the topology request makes no sense.
    Config(String),
    /// The operation routed to (or fanned out over) a shard an operator
    /// (or the health check) has marked **down**: it was refused before
    /// touching the shard, so nothing was logged or read and nothing
    /// needs undoing.
    ShardDown(usize),
    /// A shard failed to answer a fan-out request for a reason that is
    /// not a per-document store error — an injected outage, a worker
    /// failure — and the rest of the cluster carried on without it.
    ShardUnavailable {
        /// Which shard.
        shard: usize,
        /// What happened, for the error chain / logs.
        detail: String,
    },
    /// A shard did not answer a fan-out request within its per-shard
    /// budget; the partial result set excludes it.
    Timeout {
        /// Which shard.
        shard: usize,
        /// The budget it missed, in milliseconds.
        ms: u64,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Store(e) => write!(f, "shard store error: {e}"),
            ClusterError::Persist(e) => write!(f, "shard persistence error: {e}"),
            ClusterError::NoSuchShard(i) => write!(f, "no shard {i}"),
            ClusterError::Config(detail) => write!(f, "cluster configuration error: {detail}"),
            ClusterError::ShardDown(i) => write!(f, "shard {i} is marked down"),
            ClusterError::ShardUnavailable { shard, detail } => {
                write!(f, "shard {shard} unavailable: {detail}")
            }
            ClusterError::Timeout { shard, ms } => {
                write!(f, "shard {shard} did not answer within {ms} ms")
            }
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Store(e) => Some(e),
            ClusterError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<cxstore::StoreError> for ClusterError {
    fn from(e: cxstore::StoreError) -> ClusterError {
        ClusterError::Store(e)
    }
}

impl From<cxpersist::PersistError> for ClusterError {
    fn from(e: cxpersist::PersistError) -> ClusterError {
        // Unwrap the store layer so a gate rejection (or NoSuchDoc, …)
        // reads identically whether it came from a plain store, a durable
        // store, or a shard across the cluster.
        match e {
            cxpersist::PersistError::Store(s) => ClusterError::Store(s),
            other => ClusterError::Persist(other),
        }
    }
}
