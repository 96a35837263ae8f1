//! Store-level observability: the store's metric handles on its
//! registry, and the [`StoreStats`] summary read back from it.

use cxobs::{names, Counter, Exposition, Histogram, Registry};
use std::sync::Arc;

/// The store's metrics, registered once on the store's [`Registry`] and
/// bumped lock-free on the hot paths.
pub(crate) struct StoreMetrics {
    /// Whole gated-edit latency ([`crate::Store::edit_with_log`]).
    pub edit_ns: Arc<Histogram>,
    /// Prevalidation-gate latency inside an edit.
    pub gate_ns: Arc<Histogram>,
    /// Single-document query latency.
    pub query_ns: Arc<Histogram>,
    /// Batch (`query_all*`) fan-out latency.
    pub query_all_ns: Arc<Histogram>,
    /// Single-document queries served.
    pub queries: Arc<Counter>,
    /// Batch (`query_all*`) requests served.
    pub batch_queries: Arc<Counter>,
    /// Queries answered from a cached overlap index.
    pub index_hits: Arc<Counter>,
    /// Overlap index (re)builds.
    pub index_builds: Arc<Counter>,
    /// Expressions found pre-compiled in the query cache.
    pub query_cache_hits: Arc<Counter>,
    /// Expressions that had to be parsed.
    pub query_cache_misses: Arc<Counter>,
    /// Edits applied.
    pub edits: Arc<Counter>,
    /// Edits refused by the prevalidation gate or the document.
    pub edits_rejected: Arc<Counter>,
}

impl StoreMetrics {
    pub(crate) fn new(r: &Registry) -> StoreMetrics {
        StoreMetrics {
            edit_ns: r.histogram(names::EDIT_NS),
            gate_ns: r.histogram(names::GATE_NS),
            query_ns: r.histogram(names::QUERY_NS),
            query_all_ns: r.histogram(names::QUERY_ALL_NS),
            queries: r.counter(names::QUERIES_TOTAL),
            batch_queries: r.counter(names::BATCH_QUERIES_TOTAL),
            index_hits: r.counter(names::INDEX_HITS_TOTAL),
            index_builds: r.counter(names::INDEX_BUILDS_TOTAL),
            query_cache_hits: r.counter(names::QUERY_CACHE_HITS_TOTAL),
            query_cache_misses: r.counter(names::QUERY_CACHE_MISSES_TOTAL),
            edits: r.counter(names::EDITS_TOTAL),
            edits_rejected: r.counter(names::EDITS_REJECTED_TOTAL),
        }
    }
}

/// A point-in-time summary of the store: collection totals (aggregated
/// [`goddag::GoddagStats`]) plus the event counters every layer keeps on
/// the store's [`Registry`], read by [`StoreStats::from_registry`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Live documents.
    pub docs: usize,
    /// Live elements across all documents.
    pub elements: usize,
    /// Text leaves across all documents.
    pub leaves: usize,
    /// Content bytes across all documents (each stored once per document).
    pub content_bytes: usize,
    /// Estimated heap footprint of all documents.
    pub estimated_bytes: usize,
    /// Sum of per-document edit epochs — a proxy for total mutation volume.
    pub epochs: u64,
    /// Documents whose overlap index cache is valid right now.
    pub warm_indexes: usize,
    /// Distinct compiled expressions currently cached.
    pub compiled_queries: usize,
    /// Single-document queries served.
    pub queries: u64,
    /// Batch query requests served.
    pub batch_queries: u64,
    /// Queries answered from a cached overlap index.
    pub index_hits: u64,
    /// Overlap index (re)builds.
    pub index_builds: u64,
    /// Query-cache hits.
    pub query_cache_hits: u64,
    /// Query-cache misses (parses).
    pub query_cache_misses: u64,
    /// Edits applied.
    pub edits: u64,
    /// Edits rejected.
    pub edits_rejected: u64,
    /// Write-ahead-log records appended (durable stores; 0 for in-memory
    /// stores).
    pub wal_appends: u64,
    /// Bytes appended to the write-ahead log.
    pub wal_bytes: u64,
    /// `fsync` calls issued by the write-ahead log.
    pub wal_fsyncs: u64,
    /// Checkpoints (snapshot + log rotation) taken.
    pub checkpoints: u64,
    /// Log records replayed during recovery.
    pub replayed_ops: u64,
    /// Documents restored from the newest snapshot during recovery.
    pub recovered_docs: u64,
    /// Log records shipped to replication followers (primaries; 0
    /// elsewhere).
    pub repl_records_shipped: u64,
    /// Shipped log records applied to this store (replicas; 0 elsewhere).
    pub repl_records_applied: u64,
    /// Replication lag in records: the last known primary head LSN minus
    /// the last applied LSN (replicas; 0 elsewhere).
    pub repl_lag: u64,
    /// Primaries behind this store-shaped façade (clusters; 0 for plain
    /// stores).
    pub cluster_shards: usize,
    /// Documents migrated between primaries (clusters; 0 elsewhere).
    pub docs_moved: u64,
    /// Writes currently executing against a shard (clusters; 0
    /// elsewhere — a gauge, so it can read 0 between writes).
    pub writes_in_flight: i64,
    /// Writers currently waiting on the migration gate (clusters; 0
    /// elsewhere).
    pub writers_waiting: i64,
}

impl StoreStats {
    /// Fold another store's stats into this one — the aggregation a
    /// cluster uses to present N primaries as one store-shaped summary.
    /// Totals and counters sum; `repl_lag` takes the worst (max) lag.
    pub fn absorb(&mut self, other: &StoreStats) {
        self.docs += other.docs;
        self.elements += other.elements;
        self.leaves += other.leaves;
        self.content_bytes += other.content_bytes;
        self.estimated_bytes += other.estimated_bytes;
        self.epochs += other.epochs;
        self.warm_indexes += other.warm_indexes;
        self.compiled_queries += other.compiled_queries;
        self.queries += other.queries;
        self.batch_queries += other.batch_queries;
        self.index_hits += other.index_hits;
        self.index_builds += other.index_builds;
        self.query_cache_hits += other.query_cache_hits;
        self.query_cache_misses += other.query_cache_misses;
        self.edits += other.edits;
        self.edits_rejected += other.edits_rejected;
        self.wal_appends += other.wal_appends;
        self.wal_bytes += other.wal_bytes;
        self.wal_fsyncs += other.wal_fsyncs;
        self.checkpoints += other.checkpoints;
        self.replayed_ops += other.replayed_ops;
        self.recovered_docs += other.recovered_docs;
        self.repl_records_shipped += other.repl_records_shipped;
        self.repl_records_applied += other.repl_records_applied;
        self.repl_lag = self.repl_lag.max(other.repl_lag);
        self.cluster_shards += other.cluster_shards;
        self.docs_moved += other.docs_moved;
        self.writes_in_flight += other.writes_in_flight;
        self.writers_waiting += other.writers_waiting;
    }

    /// Append the collection totals a store walks its documents for
    /// (`cx_docs` … `cx_compiled_queries`) as `cx_*` exposition lines —
    /// the half of a store's [`cxobs::Observable`] output no registry
    /// holds. The counters are the registry's own lines.
    pub fn expose_into(&self, out: &mut Exposition) {
        out.write(names::DOCS, self.docs);
        out.write(names::ELEMENTS, self.elements);
        out.write(names::LEAVES, self.leaves);
        out.write(names::CONTENT_BYTES, self.content_bytes);
        out.write(names::ESTIMATED_BYTES, self.estimated_bytes);
        out.write(names::EPOCHS_TOTAL, self.epochs);
        out.write(names::WARM_INDEXES, self.warm_indexes);
        out.write(names::COMPILED_QUERIES, self.compiled_queries);
    }

    /// The event-counter fields (and the cluster's gauges) as `r` holds
    /// them, each summed over its label sets; the collection totals are
    /// left 0. The one place a registry is read into a summary.
    pub fn from_registry(r: &Registry) -> StoreStats {
        let n = |name| r.counter_total(name);
        StoreStats {
            queries: n(names::QUERIES_TOTAL),
            batch_queries: n(names::BATCH_QUERIES_TOTAL),
            index_hits: n(names::INDEX_HITS_TOTAL),
            index_builds: n(names::INDEX_BUILDS_TOTAL),
            query_cache_hits: n(names::QUERY_CACHE_HITS_TOTAL),
            query_cache_misses: n(names::QUERY_CACHE_MISSES_TOTAL),
            edits: n(names::EDITS_TOTAL),
            edits_rejected: n(names::EDITS_REJECTED_TOTAL),
            wal_appends: n(names::WAL_APPENDS_TOTAL),
            wal_bytes: n(names::WAL_BYTES_TOTAL),
            wal_fsyncs: n(names::WAL_FSYNCS_TOTAL),
            checkpoints: n(names::CHECKPOINTS_TOTAL),
            replayed_ops: n(names::REPLAYED_OPS_TOTAL),
            recovered_docs: n(names::RECOVERED_DOCS_TOTAL),
            repl_records_shipped: n(names::REPL_RECORDS_SHIPPED_TOTAL),
            repl_records_applied: n(names::REPL_RECORDS_APPLIED_TOTAL),
            cluster_shards: r.gauge_total(names::CLUSTER_SHARDS) as usize,
            docs_moved: n(names::DOCS_MOVED_TOTAL),
            writes_in_flight: r.gauge_total(names::SHARD_WRITES_IN_FLIGHT),
            writers_waiting: r.gauge_total(names::GATE_WAITERS),
            ..StoreStats::default()
        }
    }

    /// Fraction of index lookups served from cache (0 when none yet).
    pub fn index_hit_rate(&self) -> f64 {
        let total = self.index_hits + self.index_builds;
        if total == 0 {
            0.0
        } else {
            self.index_hits as f64 / total as f64
        }
    }
}
