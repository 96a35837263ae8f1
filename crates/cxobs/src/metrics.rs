//! The three metric kinds: counters, gauges, log2-bucket histograms.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Number of histogram buckets. Bucket `i` holds values in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also holds 0), so the top
/// bucket starts at `2^47` ns ≈ 39 hours — far past any latency this
/// stack can produce; larger values clamp into it.
pub const BUCKETS: usize = 48;

/// A monotone event counter. `bump`/`add` are single relaxed
/// `fetch_add`s; a disabled counter (from [`crate::Registry::disabled`])
/// is a branch.
#[derive(Debug)]
pub struct Counter {
    on: bool,
    value: AtomicU64,
}

impl Counter {
    pub(crate) fn new(on: bool) -> Counter {
        Counter { on, value: AtomicU64::new(0) }
    }

    /// Count one event.
    pub fn bump(&self) {
        self.add(1);
    }

    /// Count `n` events.
    pub fn add(&self, n: u64) {
        if self.on {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A level that moves both ways — in-flight requests, queue depth,
/// threads alive. [`Gauge::track`] gives RAII in-flight accounting.
#[derive(Debug)]
pub struct Gauge {
    on: bool,
    value: AtomicI64,
}

impl Gauge {
    pub(crate) fn new(on: bool) -> Gauge {
        Gauge { on, value: AtomicI64::new(0) }
    }

    /// Add `n` (negative to subtract).
    pub fn add(&self, n: i64) {
        if self.on {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Overwrite the level.
    pub fn set(&self, v: i64) {
        if self.on {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Raise the gauge by one for the lifetime of the returned guard —
    /// the in-flight pattern: the level drops again on drop, early
    /// returns and unwinds included.
    pub fn track(&self) -> GaugeGuard<'_> {
        self.add(1);
        GaugeGuard { gauge: self }
    }
}

/// RAII handle from [`Gauge::track`]: undoes its increment on drop.
#[derive(Debug)]
pub struct GaugeGuard<'a> {
    gauge: &'a Gauge,
}

impl Drop for GaugeGuard<'_> {
    fn drop(&mut self) {
        self.gauge.add(-1);
    }
}

/// A fixed log2-bucket latency histogram over nanoseconds: exact
/// `count` and `sum`, bucketed distribution for approximate quantiles.
/// Recording is two relaxed `fetch_add`s plus one more for the bucket;
/// no locks, no allocation.
#[derive(Debug)]
pub struct Histogram {
    on: bool,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    /// Per-bucket **exemplar**: the trace id (0 = none) of the last
    /// observation made inside a trace that landed in the bucket — what
    /// links a fat p99 bucket to one concrete retained trace.
    exemplars: [AtomicU64; BUCKETS],
}

/// The bucket a value lands in: `floor(log2(max(ns, 1)))`, clamped.
fn bucket_of(ns: u64) -> usize {
    (63 - (ns | 1).leading_zeros() as usize).min(BUCKETS - 1)
}

impl Histogram {
    pub(crate) fn new(on: bool) -> Histogram {
        Histogram {
            on,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            exemplars: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Whether this histogram records anything (false on a disabled
    /// registry — [`Histogram::time`]/[`Histogram::span`] then skip the
    /// clock reads too).
    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Record one observation, in nanoseconds. Inside an active trace
    /// the observation becomes its bucket's exemplar (the trace id
    /// overwrites the bucket's previous one); a disabled histogram reads
    /// neither the clock nor the trace.
    pub fn record_ns(&self, ns: u64) {
        if !self.on {
            return;
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        let b = bucket_of(ns);
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        let trace_id = crate::trace::current_trace_id();
        if trace_id != 0 {
            self.exemplars[b].store(trace_id, Ordering::Relaxed);
        }
    }

    /// Record one observation from a [`Duration`].
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Time a closure and record its latency — the span timer for
    /// straight-line paths. Disabled histograms run the closure bare.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let r = f();
        self.record(start.elapsed());
        r
    }

    /// Start a span that records on drop — for paths with early returns
    /// or latency that spans a scope rather than a closure.
    pub fn span(&self) -> Span<'_> {
        Span { hist: self, start: if self.on { Some(Instant::now()) } else { None } }
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum.load(Ordering::Relaxed),
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            exemplars: std::array::from_fn(|i| self.exemplars[i].load(Ordering::Relaxed)),
        }
    }
}

/// An in-flight span from [`Histogram::span`]: records elapsed time on
/// drop.
#[derive(Debug)]
pub struct Span<'a> {
    hist: &'a Histogram,
    start: Option<Instant>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.hist.record(start.elapsed());
        }
    }
}

/// A consistent-enough copy of a [`Histogram`] (fields are read
/// relaxed; under concurrent recording the totals may straddle an
/// in-flight observation, which quantile estimation tolerates).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Exact sum of all observations, nanoseconds.
    pub sum_ns: u64,
    /// Per-bucket observation counts (bucket `i` = `[2^i, 2^(i+1))` ns).
    pub buckets: [u64; BUCKETS],
    /// Per-bucket exemplars (the trace id of the last observation made
    /// inside a trace, 0 = none).
    pub exemplars: [u64; BUCKETS],
}

impl HistogramSnapshot {
    /// The approximate `q`-quantile (0 < q ≤ 1), in nanoseconds: the
    /// upper bound of the bucket holding the rank-`ceil(q·count)`
    /// observation — at most 2× the true value, and monotone in `q`.
    /// Zero when nothing was recorded.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return if i + 1 >= 64 { u64::MAX } else { (1u64 << (i + 1)) - 1 };
            }
        }
        u64::MAX
    }

    /// Median latency, nanoseconds.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile latency, nanoseconds.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile latency, nanoseconds.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Exact mean latency, nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace;
    use std::sync::Arc;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of((1 << 47) - 1), 46);
        assert_eq!(bucket_of(1 << 47), 47);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1, "huge values clamp");
    }

    #[test]
    fn histogram_count_sum_and_quantiles() {
        let h = Histogram::new(true);
        // 90 fast observations (~1 µs) and 10 slow ones (~1 ms).
        for _ in 0..90 {
            h.record_ns(1_000);
        }
        for _ in 0..10 {
            h.record_ns(1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum_ns, 90 * 1_000 + 10 * 1_000_000);
        assert_eq!(s.mean_ns(), s.sum_ns / 100);
        // p50 sits in the 1 µs bucket ([1024, 2048)); p99 in the 1 ms one.
        assert!(s.p50() >= 1_000 && s.p50() < 2_048, "p50 = {}", s.p50());
        assert!(s.p99() >= 1_000_000 && s.p99() < 2_097_152, "p99 = {}", s.p99());
        assert!(s.p50() <= s.p90() && s.p90() <= s.p99(), "quantiles are monotone");
        assert!(s.quantile(1.0) >= s.p99(), "the max quantile dominates p99");
    }

    #[test]
    fn empty_histogram_is_all_zeroes() {
        let s = Histogram::new(true).snapshot();
        assert_eq!((s.count, s.sum_ns, s.p50(), s.p99(), s.mean_ns()), (0, 0, 0, 0, 0));
    }

    #[test]
    fn span_and_time_record() {
        let h = Histogram::new(true);
        h.time(|| std::thread::sleep(Duration::from_micros(50)));
        {
            let _span = h.span();
            std::thread::sleep(Duration::from_micros(50));
        }
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert!(s.sum_ns >= 100_000, "both spans measured at least the sleep");
    }

    #[test]
    fn exemplars_remember_the_last_traced_observation_per_bucket() {
        let _s = crate::Scenario::traced();
        let h = Histogram::new(true);
        h.record_ns(1_000);
        assert_eq!(h.snapshot().exemplars, [0; BUCKETS], "outside a trace: no exemplar");
        let traced = |f: &dyn Fn()| {
            let _root = trace::span_or_root("op");
            f();
            trace::current_trace_id()
        };
        let _first = traced(&|| h.record_ns(1_000));
        let second = traced(&|| h.record_ns(1_000));
        let slow = traced(&|| h.record_ns(1_000_000));
        h.record_ns(1_000); // outside a trace: must not clobber the exemplar
        let s = h.snapshot();
        assert_eq!(s.exemplars[bucket_of(1_000)], second, "last traced observation wins");
        assert_eq!(s.exemplars[bucket_of(1_000_000)], slow);
        let timed = traced(&|| h.time(|| ()));
        let spanned = traced(&|| drop(h.span()));
        let s = h.snapshot();
        assert!(s.exemplars.contains(&timed) || s.exemplars.contains(&spanned));
        assert_eq!(s.count, 7);
    }

    #[test]
    fn disabled_metrics_record_nothing() {
        let c = Counter::new(false);
        c.bump();
        assert_eq!(c.get(), 0);
        let g = Gauge::new(false);
        g.add(1);
        assert_eq!(g.get(), 0);
        let h = Histogram::new(false);
        h.record_ns(7);
        assert_eq!(h.time(|| 42), 42);
        drop(h.span());
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn gauge_tracking_is_unwind_safe() {
        let g = Arc::new(Gauge::new(true));
        {
            let _a = g.track();
            let _b = g.track();
            assert_eq!(g.get(), 2);
        }
        assert_eq!(g.get(), 0);
        let g2 = Arc::clone(&g);
        let _ = std::thread::spawn(move || {
            let _guard = g2.track();
            panic!("unwind drops the guard");
        })
        .join();
        assert_eq!(g.get(), 0, "panicking holder released its unit");
    }

    #[test]
    fn concurrent_bumps_are_never_lost() {
        let c = Arc::new(Counter::new(true));
        let h = Arc::new(Histogram::new(true));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let (c, h) = (Arc::clone(&c), Arc::clone(&h));
                std::thread::spawn(move || {
                    for i in 0..10_000 {
                        c.bump();
                        h.record_ns(i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
        let s = h.snapshot();
        assert_eq!(s.count, 80_000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 80_000, "every observation landed in a bucket");
    }
}
