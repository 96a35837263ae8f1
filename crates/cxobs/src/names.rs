//! Every metric name the stack exposes, declared once with its kind.
//!
//! A name is a [`Name<K>`] typed by its metric kind — [`Counter`],
//! [`Gauge`] or [`Histogram`] — and only this module can mint one, so the
//! registry and the exposition accept exactly the names below. Asking for
//! a name as the wrong kind does not compile:
//!
//! ```compile_fail
//! let r = cxobs::Registry::new();
//! r.counter(cxobs::names::EDIT_NS); // a histogram name
//! ```
//!
//! ```
//! let r = cxobs::Registry::new();
//! r.histogram(cxobs::names::EDIT_NS).record_ns(100);
//! ```
//!
//! Each entry is checked when the crate compiles: the name follows the
//! `cx_<area>_<what>` scheme (lowercase ascii words joined by single
//! underscores), carries its kind's suffix (`_total` for counters, `_ns`
//! for histograms, neither for gauges), spells its constant's identifier
//! in lowercase, and is declared once. What each one measures is the
//! README's metric table.

use crate::metrics::{Counter, Gauge, Histogram};
use std::marker::PhantomData;

/// A declared metric name of kind `K`.
pub struct Name<K> {
    name: &'static str,
    kind: PhantomData<fn() -> K>,
}

impl<K> Clone for Name<K> {
    fn clone(&self) -> Name<K> {
        *self
    }
}

impl<K> Copy for Name<K> {}

impl<K> Name<K> {
    const fn declared(name: &'static str) -> Name<K> {
        Name { name, kind: PhantomData }
    }

    /// The name as it appears on the metrics page.
    pub const fn as_str(self) -> &'static str {
        self.name
    }
}

/// The kinds exposed as one plain `name value` line: counters and gauges
/// (a histogram renders as a family of lines only the registry writes).
pub trait Scalar {}

impl Scalar for Counter {}
impl Scalar for Gauge {}

/// A metric's kind, as listed in [`ALL`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Counter,
    Gauge,
    Histogram,
}

const fn ends_with(s: &[u8], suffix: &[u8]) -> bool {
    if suffix.len() > s.len() {
        return false;
    }
    let mut i = 0;
    while i < suffix.len() {
        if s[s.len() - suffix.len() + i] != suffix[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// `name` is `cx_` plus lowercase words joined by single underscores,
/// ends in `kind`'s suffix, and equals `ident` lowercased behind `cx_`.
const fn well_formed(name: &str, kind: Kind, ident: &str) -> bool {
    let (b, id) = (name.as_bytes(), ident.as_bytes());
    if id.is_empty() || b.len() != id.len() + 3 || b[0] != b'c' || b[1] != b'x' || b[2] != b'_' {
        return false;
    }
    let mut i = 3;
    while i < b.len() {
        let c = b[i];
        let word = c.is_ascii_lowercase() || c.is_ascii_digit();
        let joint = c == b'_' && i + 1 < b.len() && b[i - 1] != b'_';
        if !(word || joint) || c != id[i - 3].to_ascii_lowercase() {
            return false;
        }
        i += 1;
    }
    let (total, ns) = (ends_with(b, b"_total"), ends_with(b, b"_ns"));
    match kind {
        Kind::Counter => total,
        Kind::Histogram => ns,
        Kind::Gauge => !total && !ns,
    }
}

const fn declared_once(name: &str) -> bool {
    let mut seen = 0;
    let mut i = 0;
    while i < ALL.len() {
        let other = ALL[i].0.as_bytes();
        if other.len() == name.len() && ends_with(other, name.as_bytes()) {
            seen += 1;
        }
        i += 1;
    }
    seen == 1
}

macro_rules! declare {
    ($($(#[$doc:meta])* $ident:ident: $kind:ident = $name:literal,)+) => {
        $(
            #[doc = concat!("`", $name, "`")]
            $(#[$doc])*
            pub const $ident: Name<$kind> = Name::declared($name);
            const _: () = assert!(
                well_formed($name, Kind::$kind, stringify!($ident)) && declared_once($name),
                concat!(
                    "metric `", $name, "` must be `cx_<area>_<what>` with its kind's suffix, ",
                    "named by its constant `", stringify!($ident), "`, and declared once"
                )
            );
        )+

        /// Every declared metric with its kind, in declaration order.
        pub const ALL: &[(&str, Kind)] = &[$(($name, Kind::$kind)),+];
    };
}

declare! {
    // The store (`cxstore`): latency histograms, the collection totals
    // `StoreStats` walks, then event counters.
    EDIT_NS: Histogram = "cx_edit_ns",
    GATE_NS: Histogram = "cx_gate_ns",
    QUERY_NS: Histogram = "cx_query_ns",
    QUERY_ALL_NS: Histogram = "cx_query_all_ns",
    DOCS: Gauge = "cx_docs",
    ELEMENTS: Gauge = "cx_elements",
    LEAVES: Gauge = "cx_leaves",
    CONTENT_BYTES: Gauge = "cx_content_bytes",
    ESTIMATED_BYTES: Gauge = "cx_estimated_bytes",
    EPOCHS_TOTAL: Counter = "cx_epochs_total",
    WARM_INDEXES: Gauge = "cx_warm_indexes",
    COMPILED_QUERIES: Gauge = "cx_compiled_queries",
    QUERIES_TOTAL: Counter = "cx_queries_total",
    BATCH_QUERIES_TOTAL: Counter = "cx_batch_queries_total",
    INDEX_HITS_TOTAL: Counter = "cx_index_hits_total",
    INDEX_BUILDS_TOTAL: Counter = "cx_index_builds_total",
    QUERY_CACHE_HITS_TOTAL: Counter = "cx_query_cache_hits_total",
    QUERY_CACHE_MISSES_TOTAL: Counter = "cx_query_cache_misses_total",
    EDITS_TOTAL: Counter = "cx_edits_total",
    EDITS_REJECTED_TOTAL: Counter = "cx_edits_rejected_total",

    // Durability (`cxpersist`).
    WAL_APPEND_NS: Histogram = "cx_wal_append_ns",
    WAL_FSYNC_NS: Histogram = "cx_wal_fsync_ns",
    CHECKPOINT_NS: Histogram = "cx_checkpoint_ns",
    RECOVERY_REPLAY_NS: Histogram = "cx_recovery_replay_ns",
    /// 1 while the store is read-only Degraded, else 0.
    STORE_DEGRADED: Gauge = "cx_store_degraded",
    WAL_APPENDS_TOTAL: Counter = "cx_wal_appends_total",
    WAL_BYTES_TOTAL: Counter = "cx_wal_bytes_total",
    WAL_FSYNCS_TOTAL: Counter = "cx_wal_fsyncs_total",
    CHECKPOINTS_TOTAL: Counter = "cx_checkpoints_total",
    REPLAYED_OPS_TOTAL: Counter = "cx_replayed_ops_total",
    RECOVERED_DOCS_TOTAL: Counter = "cx_recovered_docs_total",
    FAULT_HITS_TOTAL: Counter = "cx_fault_hits_total",
    FAULT_FIRES_TOTAL: Counter = "cx_fault_fires_total",

    // Replication (`cxrepl`).
    REPL_SHIP_NS: Histogram = "cx_repl_ship_ns",
    REPL_APPLY_NS: Histogram = "cx_repl_apply_ns",
    REPL_RECORDS_SHIPPED_TOTAL: Counter = "cx_repl_records_shipped_total",
    REPL_RECORDS_APPLIED_TOTAL: Counter = "cx_repl_records_applied_total",
    REPL_BATCHES_SHIPPED_TOTAL: Counter = "cx_repl_batches_shipped_total",
    REPL_SNAPSHOTS_SHIPPED_TOTAL: Counter = "cx_repl_snapshots_shipped_total",
    REPL_TORN_BATCHES_TOTAL: Counter = "cx_repl_torn_batches_total",
    REPL_SNAPSHOTS_INSTALLED_TOTAL: Counter = "cx_repl_snapshots_installed_total",
    /// Replication lag in records (replicas; max-folded across shards).
    REPL_LAG: Gauge = "cx_repl_lag",

    // The cluster (`cxcluster`).
    MOVE_DOC_NS: Histogram = "cx_move_doc_ns",
    SHARD_WRITES_IN_FLIGHT: Gauge = "cx_shard_writes_in_flight",
    GATE_WAITERS: Gauge = "cx_gate_waiters",
    FANOUT_THREADS: Gauge = "cx_fanout_threads",
    /// Shard health: 0 healthy, 1 degraded, 2 down (`shard` label).
    SHARD_HEALTH: Gauge = "cx_shard_health",
    CLUSTER_SHARDS: Gauge = "cx_cluster_shards",
    DOCS_MOVED_TOTAL: Counter = "cx_docs_moved_total",

    // The service tier (`cxserve`).
    SERVER_REQUESTS_TOTAL: Counter = "cx_server_requests_total",
    SERVER_REQUEST_NS: Histogram = "cx_server_request_ns",
    SERVER_ERRORS_TOTAL: Counter = "cx_server_errors_total",
    SERVER_PANICS_TOTAL: Counter = "cx_server_panics_total",
    SERVER_BUSY_TOTAL: Counter = "cx_server_busy_total",
    SERVER_CONNECTIONS: Gauge = "cx_server_connections",

    // Tracing (`cxobs::trace`).
    TRACE_STARTED_TOTAL: Counter = "cx_trace_started_total",
    TRACE_FINISHED_TOTAL: Counter = "cx_trace_finished_total",
    TRACE_SLOW_TOTAL: Counter = "cx_trace_slow_total",
    TRACE_ERROR_TOTAL: Counter = "cx_trace_error_total",
    TRACE_SPANS_TOTAL: Counter = "cx_trace_spans_total",
    TRACE_DROPPED_SPANS_TOTAL: Counter = "cx_trace_dropped_spans_total",
    TRACE_DROPPED_TRACES_TOTAL: Counter = "cx_trace_dropped_traces_total",
    TRACE_OPEN: Gauge = "cx_trace_open",
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_compile_time_check_rejects_drift() {
        assert!(well_formed("cx_ops_total", Kind::Counter, "OPS_TOTAL"));
        assert!(well_formed("cx_depth", Kind::Gauge, "DEPTH"));
        assert!(!well_formed("cx_ops", Kind::Counter, "OPS"), "counter without _total");
        assert!(!well_formed("cx_op_ms", Kind::Histogram, "OP_MS"), "histogram without _ns");
        assert!(!well_formed("cx_depth_total", Kind::Gauge, "DEPTH_TOTAL"), "suffixed gauge");
        assert!(!well_formed("cx_bad__name_total", Kind::Counter, "BAD__NAME_TOTAL"));
        assert!(!well_formed("cx_Bad_total", Kind::Counter, "BAD_TOTAL"), "uppercase");
        assert!(!well_formed("cx_docs_", Kind::Gauge, "DOCS_"), "trailing underscore");
        assert!(!well_formed("cx_", Kind::Gauge, ""), "no words");
        assert!(!well_formed("cx_docs", Kind::Gauge, "LEAVES"), "constant names another metric");
        assert!(declared_once("cx_docs"));
        assert!(!declared_once("cx_nowhere"));
    }
}
