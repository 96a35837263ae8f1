//! The metric registry: named handles, idempotent registration, render.

use crate::events::EventRing;
use crate::expose::Exposition;
use crate::metrics::{Counter, Gauge, Histogram};
use crate::names::Name;
use std::collections::BTreeMap;
use std::sync::{Arc, PoisonError, RwLock};

/// How many events the registry's ring retains by default.
const EVENT_CAP: usize = 256;

/// `(name, static labels)` — the registry key. Two registrations with
/// the same name but different labels are distinct series (the per-shard
/// gauge pattern).
type Key = (&'static str, Vec<(String, String)>);

/// Every registered series of one kind.
type Family<T> = RwLock<BTreeMap<Key, Arc<T>>>;

/// A registry of named metrics plus one [`EventRing`]. One registry
/// backs one store stack: the layers (`Store`, `DurableStore`,
/// replication, cluster) register their handles here once and bump them
/// lock-free; [`Registry::expose_into`] renders everything as
/// `name{label="v"} value` lines, sorted by name for deterministic
/// output.
///
/// Registration is idempotent — asking for an existing `(name, labels)`
/// pair returns the same handle. Names are [`crate::names`] constants
/// typed by kind, so one name can only ever be one kind of metric.
pub struct Registry {
    on: bool,
    counters: Family<Counter>,
    gauges: Family<Gauge>,
    histograms: Family<Histogram>,
    events: EventRing,
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

impl Registry {
    /// A live registry.
    pub fn new() -> Registry {
        Registry::with(true, EVENT_CAP)
    }

    /// A no-op registry: handles exist and render (as zeroes), but
    /// recording is a branch and span timers skip the clock entirely —
    /// the baseline the instrumentation-overhead guard compares against.
    pub fn disabled() -> Registry {
        Registry::with(false, 0)
    }

    fn with(on: bool, event_cap: usize) -> Registry {
        Registry {
            on,
            counters: RwLock::default(),
            gauges: RwLock::default(),
            histograms: RwLock::default(),
            events: EventRing::new(event_cap),
        }
    }

    /// Whether metrics recorded through this registry are kept.
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// The named counter (registered on first use).
    pub fn counter(&self, name: Name<Counter>) -> Arc<Counter> {
        self.counter_with(name, &[])
    }

    /// A counter carrying static labels, e.g. `("shard", "2")`.
    pub fn counter_with(&self, name: Name<Counter>, labels: &[(&str, &str)]) -> Arc<Counter> {
        register(&self.counters, name, labels, || Counter::new(self.on))
    }

    /// The named gauge (registered on first use).
    pub fn gauge(&self, name: Name<Gauge>) -> Arc<Gauge> {
        self.gauge_with(name, &[])
    }

    /// A gauge carrying static labels.
    pub fn gauge_with(&self, name: Name<Gauge>, labels: &[(&str, &str)]) -> Arc<Gauge> {
        register(&self.gauges, name, labels, || Gauge::new(self.on))
    }

    /// The named histogram (registered on first use).
    pub fn histogram(&self, name: Name<Histogram>) -> Arc<Histogram> {
        self.histogram_with(name, &[])
    }

    /// A histogram carrying static labels.
    pub fn histogram_with(&self, name: Name<Histogram>, labels: &[(&str, &str)]) -> Arc<Histogram> {
        register(&self.histograms, name, labels, || Histogram::new(self.on))
    }

    /// Record an event into the ring.
    pub fn event(&self, kind: &'static str, detail: impl Into<String>) {
        self.events.record(kind, detail);
    }

    /// The recent-events ring.
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// Append every registered metric as exposition lines (sorted by
    /// name, then labels): counters and gauges one line each, histograms
    /// in Prometheus-conformant order — cumulative `{name}_bucket`
    /// lines with ascending `le` upper bounds (non-empty buckets plus
    /// the mandatory `le="+Inf"` line, whose value equals the exact
    /// count), then `{name}_sum`, then `{name}_count` — followed by the
    /// legacy `quantile="0.5|0.9|0.99"` convenience series (all values
    /// in nanoseconds for `_ns`-suffixed names). Buckets holding an
    /// observation made inside a trace carry an exemplar suffix
    /// `# {trace_id="<016x>"}`.
    pub fn expose_into(&self, out: &mut Exposition) {
        enum Series<'a> {
            Scalar(i128),
            Histogram(&'a Histogram),
        }
        // Poison recovery (all three families): registration (the only
        // writer) inserts whole metrics, so a recovered read sees a valid
        // registry — and hiding telemetry after a panic would hide the
        // incident being diagnosed.
        let counters = self.counters.read().unwrap_or_else(PoisonError::into_inner);
        let gauges = self.gauges.read().unwrap_or_else(PoisonError::into_inner);
        let histograms = self.histograms.read().unwrap_or_else(PoisonError::into_inner);
        // A name has one kind, so the three families never share a key
        // and one sort interleaves them by name.
        let mut all: Vec<(&Key, Series)> = counters
            .iter()
            .map(|(k, c)| (k, Series::Scalar(c.get().into())))
            .chain(gauges.iter().map(|(k, g)| (k, Series::Scalar(g.get().into()))))
            .chain(histograms.iter().map(|(k, h)| (k, Series::Histogram(h))))
            .collect();
        all.sort_by(|a, b| a.0.cmp(b.0));
        for ((name, labels), series) in all {
            let labels: Vec<(&str, &str)> =
                labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            match series {
                Series::Scalar(v) => out.line(name, &labels, v, None),
                Series::Histogram(h) => {
                    let s = h.snapshot();
                    let bucket = format!("{name}_bucket");
                    let mut cum = 0u64;
                    for (i, &n) in s.buckets.iter().enumerate() {
                        if n == 0 {
                            continue;
                        }
                        cum += n;
                        // Bucket i holds [2^i, 2^(i+1)) ns of integer
                        // observations: the inclusive upper bound is
                        // 2^(i+1)-1.
                        let le = ((1u64 << (i + 1)) - 1).to_string();
                        let mut with_le = labels.clone();
                        with_le.push(("le", le.as_str()));
                        let ex = (s.exemplars[i] != 0).then(|| format!("{:016x}", s.exemplars[i]));
                        out.line(&bucket, &with_le, cum, ex.as_deref());
                    }
                    let mut with_inf = labels.clone();
                    with_inf.push(("le", "+Inf"));
                    out.line(&bucket, &with_inf, s.count, None);
                    out.line(&format!("{name}_sum"), &labels, s.sum_ns, None);
                    out.line(&format!("{name}_count"), &labels, s.count, None);
                    for (q, v) in [("0.5", s.p50()), ("0.9", s.p90()), ("0.99", s.p99())] {
                        let mut with_q = labels.clone();
                        with_q.push(("quantile", q));
                        out.line(name, &with_q, v, None);
                    }
                }
            }
        }
    }

    /// Render this registry alone as exposition text.
    pub fn render(&self) -> String {
        let mut out = Exposition::new();
        self.expose_into(&mut out);
        out.finish()
    }
}

/// The handle registered under `(name, labels)` in `family`, created by
/// `make` on first use.
// Poison recovery (both acquisitions): the family's only writer inserts
// one fully-constructed metric per critical section, so a panicked
// holder leaves a smaller but valid registry.
fn register<T, K>(
    family: &Family<T>,
    name: Name<K>,
    labels: &[(&str, &str)],
    make: impl FnOnce() -> T,
) -> Arc<T> {
    let key: Key =
        (name.as_str(), labels.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect());
    if let Some(m) = family.read().unwrap_or_else(PoisonError::into_inner).get(&key) {
        return Arc::clone(m);
    }
    let mut map = family.write().unwrap_or_else(PoisonError::into_inner);
    Arc::clone(map.entry(key).or_insert_with(|| Arc::new(make())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::{
        CLUSTER_SHARDS, DOCS, EDITS_TOTAL, EDIT_NS, GATE_WAITERS, QUERY_NS, SHARD_HEALTH,
        TRACE_OPEN, WAL_BYTES_TOTAL,
    };

    #[test]
    fn registration_is_idempotent_and_shared() {
        let r = Registry::new();
        let a = r.counter(EDITS_TOTAL);
        let b = r.counter(EDITS_TOTAL);
        a.bump();
        b.bump();
        assert_eq!(a.get(), 2, "both handles name the same counter");
        // Distinct labels are distinct series.
        let s0 = r.gauge_with(SHARD_HEALTH, &[("shard", "0")]);
        let s1 = r.gauge_with(SHARD_HEALTH, &[("shard", "1")]);
        s0.set(4);
        assert_eq!(s1.get(), 0);
    }

    #[test]
    fn render_is_sorted_and_complete() {
        let r = Registry::new();
        r.counter(EDITS_TOTAL).add(2);
        r.gauge(DOCS).set(-3);
        r.histogram(EDIT_NS).record_ns(1000);
        let text = r.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "cx_docs -3",
                "cx_edit_ns_bucket{le=\"1023\"} 1",
                "cx_edit_ns_bucket{le=\"+Inf\"} 1",
                "cx_edit_ns_sum 1000",
                "cx_edit_ns_count 1",
                "cx_edit_ns{quantile=\"0.5\"} 1023",
                "cx_edit_ns{quantile=\"0.9\"} 1023",
                "cx_edit_ns{quantile=\"0.99\"} 1023",
                "cx_edits_total 2",
            ]
        );
    }

    #[test]
    fn page_is_sorted_by_name_string_whatever_the_registration_order() {
        let r = Registry::new();
        r.gauge(TRACE_OPEN);
        r.counter(WAL_BYTES_TOTAL);
        r.gauge_with(SHARD_HEALTH, &[("shard", "1")]);
        r.histogram(QUERY_NS);
        r.gauge(GATE_WAITERS);
        r.gauge_with(SHARD_HEALTH, &[("shard", "0")]);
        r.counter(EDITS_TOTAL);
        r.gauge(CLUSTER_SHARDS);
        let text = r.render();
        let series: Vec<&str> = text
            .lines()
            .filter(|l| !l.contains("_bucket") && !l.contains("quantile"))
            .map(|l| l.rsplit_once(' ').unwrap().0)
            .collect();
        assert_eq!(
            series,
            [
                "cx_cluster_shards",
                "cx_edits_total",
                "cx_gate_waiters",
                "cx_query_ns_sum",
                "cx_query_ns_count",
                "cx_shard_health{shard=\"0\"}",
                "cx_shard_health{shard=\"1\"}",
                "cx_trace_open",
                "cx_wal_bytes_total",
            ]
        );
    }

    #[test]
    fn bucket_lines_are_cumulative_and_exemplars_render() {
        let _s = crate::Scenario::traced();
        let r = Registry::new();
        let h = r.histogram(EDIT_NS);
        h.record_ns(1); // bucket 0, le="1", outside any trace
        let root = crate::trace::span_or_root("edit");
        h.record_ns(1000); // bucket 9, le="1023", inside the trace
        let id = crate::trace::current_trace_id();
        drop(root);
        let text = r.render();
        assert!(text.contains("cx_edit_ns_bucket{le=\"1\"} 1\n"), "{text}");
        let exemplar = format!("cx_edit_ns_bucket{{le=\"1023\"}} 2 # {{trace_id=\"{id:016x}\"}}\n");
        assert!(text.contains(&exemplar), "{text}");
        assert!(text.contains("cx_edit_ns_bucket{le=\"+Inf\"} 2\n"), "{text}");
    }

    #[test]
    fn disabled_registries_keep_nothing() {
        let off = Registry::disabled();
        off.histogram(EDIT_NS).record_ns(7);
        assert_eq!(off.histogram(EDIT_NS).snapshot().count, 0);
        off.event("x", "dropped");
        assert!(off.events().is_empty());
    }

    #[test]
    fn registry_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Registry>();
    }
}
