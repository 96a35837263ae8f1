//! Deterministic `DocId → shard` routing: hash partitioning with an
//! explicit assignment table on top so documents can move.

use cxobs::sync::{Level, RwLock};
use cxstore::DocId;
use std::collections::HashMap;

/// Index of one primary within a [`crate::Cluster`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub usize);

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard#{}", self.0)
    }
}

/// The routing function. Every unmoved document routes to its **home
/// shard** `raw % shards` — and because cluster inserts mint ids from
/// per-shard residue classes (shard `i` allocates only ids `≡ i (mod n)`,
/// see [`cxstore::Store::allocate_doc_raw_aligned`]), the home shard *is*
/// the shard that created the document: the common case needs no table at
/// all. Rebalancing installs an explicit override per moved document; the
/// table is **derived state** — it records where documents actually live,
/// and [`crate::Cluster`] assembly rebuilds it by scanning the shards, so
/// there is no separate routing artifact to keep crash-consistent.
pub struct Router {
    shards: usize,
    overrides: RwLock<HashMap<u64, usize>>,
}

impl Router {
    /// A router over `shards` primaries (at least one).
    pub fn new(shards: usize) -> Router {
        assert!(shards > 0, "a cluster has at least one shard");
        Router { shards, overrides: RwLock::new(Level::RouterOverrides, HashMap::new()) }
    }

    /// Number of shards routed across.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The hash-default shard for a document: where it lives unless it was
    /// explicitly moved.
    pub fn home_shard(&self, id: DocId) -> ShardId {
        ShardId((id.raw() % self.shards as u64) as usize)
    }

    /// Where the document lives right now.
    pub fn shard_of(&self, id: DocId) -> ShardId {
        let overrides = self.overrides.read();
        match overrides.get(&id.raw()) {
            Some(&s) => ShardId(s),
            None => self.home_shard(id),
        }
    }

    /// Point the document at `shard` (the route-swap step of a
    /// migration). Routing a document back to its home shard drops the
    /// override instead of storing a redundant entry.
    pub fn route(&self, id: DocId, shard: ShardId) {
        let mut overrides = self.overrides.write();
        if shard == self.home_shard(id) {
            overrides.remove(&id.raw());
        } else {
            overrides.insert(id.raw(), shard.0);
        }
    }

    /// Replace the whole assignment table — how a client-side router adopts
    /// a routing view fetched from the cluster. Entries naming a
    /// document's home shard are dropped, as [`Router::route`] does.
    pub fn replace_overrides(&self, overrides: impl IntoIterator<Item = (u64, ShardId)>) {
        let table = overrides
            .into_iter()
            .filter(|&(raw, s)| s != self.home_shard(DocId::from_raw(raw)))
            .map(|(raw, s)| (raw, s.0))
            .collect();
        *self.overrides.write() = table;
    }

    /// Forget a document's route (it was removed).
    pub fn forget(&self, id: DocId) {
        self.overrides.write().remove(&id.raw());
    }

    /// All explicit assignments, sorted by raw id — the moved documents.
    pub fn overrides(&self) -> Vec<(u64, ShardId)> {
        let mut out: Vec<(u64, ShardId)> =
            self.overrides.read().iter().map(|(&raw, &s)| (raw, ShardId(s))).collect();
        out.sort_unstable_by_key(|&(raw, _)| raw);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_default_with_overrides() {
        let r = Router::new(4);
        let id = DocId::from_raw(6);
        assert_eq!(r.home_shard(id), ShardId(2));
        assert_eq!(r.shard_of(id), ShardId(2));
        r.route(id, ShardId(0));
        assert_eq!(r.shard_of(id), ShardId(0));
        assert_eq!(r.overrides(), vec![(6, ShardId(0))]);
        // Routing home removes the entry rather than storing it.
        r.route(id, ShardId(2));
        assert_eq!(r.shard_of(id), ShardId(2));
        assert!(r.overrides().is_empty());
        r.route(id, ShardId(3));
        r.forget(id);
        assert_eq!(r.shard_of(id), ShardId(2));
        // A replaced table keeps only the moves, dropping home entries.
        r.route(DocId::from_raw(9), ShardId(0));
        r.replace_overrides([(6, ShardId(0)), (7, ShardId(3)), (8, ShardId(1))]);
        assert_eq!(r.overrides(), vec![(6, ShardId(0)), (8, ShardId(1))]);
        assert_eq!(r.shard_of(DocId::from_raw(9)), ShardId(1));
    }
}
