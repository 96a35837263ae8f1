//! The process-wide flight recorder: bounded retention of finished
//! traces, with slow/error traces held in their own ring so normal
//! churn can never evict them.

use super::span::SpanRecord;
use crate::sync::{Level, Mutex};
use crate::{names, Exposition};
use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Retention and classification knobs for the flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// How many ordinary completed traces to retain.
    pub retain: usize,
    /// How many slow/error traces to retain (their own ring — ordinary
    /// traffic never evicts them, and they never evict ordinary slots).
    pub retain_slow: usize,
    /// A trace at least this long is classified slow.
    pub slow_threshold: Duration,
    /// Per-trace span cap; spans past it are counted dropped.
    pub max_spans_per_trace: usize,
    /// How many traces may be open (not yet finalized) at once; opening
    /// past the cap evicts the oldest open trace.
    pub max_open: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            retain: 32,
            retain_slow: 32,
            slow_threshold: Duration::from_millis(100),
            max_spans_per_trace: 512,
            max_open: 64,
        }
    }
}

/// One completed trace as retained by the flight recorder.
#[derive(Debug, Clone, PartialEq)]
pub struct FinishedTrace {
    /// The id shared by every span below.
    pub trace_id: u64,
    /// Every recorded span, in the order thread buffers flushed them.
    pub spans: Vec<SpanRecord>,
    /// Earliest span start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Latest span end minus earliest span start.
    pub duration_ns: u64,
    /// Ran at least [`TraceConfig::slow_threshold`].
    pub slow: bool,
    /// At least one span carries an error annotation.
    pub error: bool,
    /// Spans lost to per-trace or per-thread caps.
    pub dropped_spans: u64,
}

impl FinishedTrace {
    /// The root span: the one with no parent, falling back to the
    /// earliest span when the true root was dropped.
    pub fn root(&self) -> Option<&SpanRecord> {
        self.spans
            .iter()
            .find(|s| s.parent_id == 0)
            .or_else(|| self.spans.iter().min_by_key(|s| s.start_ns))
    }

    fn summary(&self) -> TraceSummary {
        TraceSummary {
            trace_id: self.trace_id,
            root: self.root().map_or("?", |s| s.name),
            start_ns: self.start_ns,
            duration_ns: self.duration_ns,
            spans: self.spans.len(),
            slow: self.slow,
            error: self.error,
        }
    }
}

/// One line of `recent()`/`slow()` output: enough to pick a trace
/// worth fetching in full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    /// The id to pass to [`find`].
    pub trace_id: u64,
    /// The root span's name.
    pub root: &'static str,
    /// Earliest span start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Whole-trace wall time.
    pub duration_ns: u64,
    /// Recorded span count.
    pub spans: usize,
    /// Classified slow.
    pub slow: bool,
    /// Holds an error-annotated span.
    pub error: bool,
}

/// Recorder lifetime counters, exposed as `cx_trace_*`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Traces opened (a reopened late fan-out counts again).
    pub started: u64,
    /// Traces finalized.
    pub finished: u64,
    /// Finalized traces classified slow.
    pub slow: u64,
    /// Finalized traces holding an error span.
    pub error: u64,
    /// Spans ingested.
    pub spans: u64,
    /// Spans lost to caps.
    pub dropped_spans: u64,
    /// Open traces evicted before finalizing.
    pub dropped_traces: u64,
    /// Traces currently open.
    pub open: u64,
}

struct OpenTrace {
    trace_id: u64,
    spans: Vec<SpanRecord>,
    open_roots: usize,
    dropped_spans: u64,
}

#[derive(Default)]
struct Recorder {
    cfg: Option<TraceConfig>,
    /// Open traces in arrival order (bounded by `max_open`; linear
    /// scans are fine at that size).
    open: Vec<OpenTrace>,
    normal: VecDeque<FinishedTrace>,
    slow: VecDeque<FinishedTrace>,
    stats: TraceStats,
}

static RECORDER: Mutex<Recorder> = Mutex::new(
    Level::Recorder,
    Recorder {
        cfg: None,
        open: Vec::new(),
        normal: VecDeque::new(),
        slow: VecDeque::new(),
        stats: TraceStats {
            started: 0,
            finished: 0,
            slow: 0,
            error: 0,
            spans: 0,
            dropped_spans: 0,
            dropped_traces: 0,
            open: 0,
        },
    },
);

/// The instant all `start_ns` offsets are measured from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch (monotone).
pub(crate) fn now_ns() -> u64 {
    epoch().elapsed().as_nanos().min(u64::MAX as u128) as u64
}

pub(crate) fn configure(cfg: TraceConfig) {
    let mut r = RECORDER.lock();
    r.cfg = Some(cfg);
    while r.normal.len() > cfg.retain {
        r.normal.pop_front();
    }
    while r.slow.len() > cfg.retain_slow {
        r.slow.pop_front();
    }
}

fn cfg(r: &Recorder) -> TraceConfig {
    r.cfg.unwrap_or_default()
}

/// A thread opened a root span for `trace_id`. Called by the span layer
/// before any of that root's spans can flush.
pub(crate) fn root_opened(trace_id: u64) {
    let mut r = RECORDER.lock();
    if let Some(o) = r.open.iter_mut().find(|o| o.trace_id == trace_id) {
        o.open_roots += 1;
        return;
    }
    let max_open = cfg(&r).max_open;
    while r.open.len() >= max_open {
        r.open.remove(0);
        r.stats.dropped_traces += 1;
    }
    r.open.push(OpenTrace { trace_id, spans: Vec::new(), open_roots: 1, dropped_spans: 0 });
    r.stats.started += 1;
    r.stats.open = r.open.len() as u64;
}

/// A thread's root span for `trace_id` closed: ingest that thread's
/// buffered spans and, when this was the last open root, finalize.
pub(crate) fn root_closed(trace_id: u64, spans: Vec<SpanRecord>, thread_dropped: u64) {
    let mut r = RECORDER.lock();
    let max_spans = cfg(&r).max_spans_per_trace;
    let Some(idx) = r.open.iter().position(|o| o.trace_id == trace_id) else {
        // The open entry was evicted under max_open pressure; the
        // spans have nowhere to land.
        r.stats.dropped_spans += thread_dropped + spans.len() as u64;
        return;
    };
    {
        let o = &mut r.open[idx];
        o.dropped_spans += thread_dropped;
        for s in spans {
            if o.spans.len() < max_spans {
                o.spans.push(s);
            } else {
                o.dropped_spans += 1;
            }
        }
        o.open_roots -= 1;
        if o.open_roots > 0 {
            return;
        }
    }
    let o = r.open.remove(idx);
    r.stats.open = r.open.len() as u64;
    finalize(&mut r, o);
}

fn finalize(r: &mut Recorder, o: OpenTrace) {
    let cfg = cfg(r);
    r.stats.spans += o.spans.len() as u64;
    r.stats.dropped_spans += o.dropped_spans;

    // A late fan-out worker can reopen a trace that already finalized;
    // merge its spans into the retained entry instead of duplicating.
    let merged = take_finished(r, o.trace_id)
        .map(|mut t| {
            t.spans.extend(o.spans.iter().cloned());
            t.dropped_spans += o.dropped_spans;
            t
        })
        .unwrap_or(FinishedTrace {
            trace_id: o.trace_id,
            spans: o.spans,
            start_ns: 0,
            duration_ns: 0,
            slow: false,
            error: false,
            dropped_spans: o.dropped_spans,
        });
    let mut t = merged;
    t.start_ns = t.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    let end_ns =
        t.spans.iter().map(|s| s.start_ns.saturating_add(s.duration_ns)).max().unwrap_or(0);
    t.duration_ns = end_ns.saturating_sub(t.start_ns);
    t.slow = t.duration_ns as u128 >= cfg.slow_threshold.as_nanos();
    t.error = t.spans.iter().any(|s| s.error.is_some());

    r.stats.finished += 1;
    if t.slow {
        r.stats.slow += 1;
    }
    if t.error {
        r.stats.error += 1;
    }
    if t.slow || t.error {
        r.slow.push_back(t);
        while r.slow.len() > cfg.retain_slow {
            r.slow.pop_front();
        }
    } else {
        r.normal.push_back(t);
        while r.normal.len() > cfg.retain {
            r.normal.pop_front();
        }
    }
}

/// Remove and return a finished trace from whichever ring holds it.
fn take_finished(r: &mut Recorder, trace_id: u64) -> Option<FinishedTrace> {
    if let Some(i) = r.normal.iter().position(|t| t.trace_id == trace_id) {
        // On merge the recount below replaces the first finalize's
        // contribution; back it out so stats stay per-trace.
        let t = r.normal.remove(i).expect("position just found");
        r.stats.finished -= 1;
        return Some(t);
    }
    if let Some(i) = r.slow.iter().position(|t| t.trace_id == trace_id) {
        let t = r.slow.remove(i).expect("position just found");
        r.stats.finished -= 1;
        if t.slow {
            r.stats.slow -= 1;
        }
        if t.error {
            r.stats.error -= 1;
        }
        return Some(t);
    }
    None
}

/// Summaries of ordinary completed traces, newest first.
pub fn recent() -> Vec<TraceSummary> {
    RECORDER.lock().normal.iter().rev().map(FinishedTrace::summary).collect()
}

/// Summaries of retained slow/error traces, newest first.
pub fn slow() -> Vec<TraceSummary> {
    RECORDER.lock().slow.iter().rev().map(FinishedTrace::summary).collect()
}

/// Fetch one retained trace in full, from either ring.
pub fn find(trace_id: u64) -> Option<FinishedTrace> {
    let r = RECORDER.lock();
    r.normal.iter().chain(r.slow.iter()).find(|t| t.trace_id == trace_id).cloned()
}

/// The recorder's lifetime counters.
pub fn stats() -> TraceStats {
    RECORDER.lock().stats
}

/// Drop every retained and open trace and zero the counters. The
/// configuration (and the enabled switch) are left alone.
pub fn clear() {
    let mut r = RECORDER.lock();
    r.open.clear();
    r.normal.clear();
    r.slow.clear();
    r.stats = TraceStats::default();
}

/// Append the recorder's `cx_trace_*` lines to an exposition page.
pub(crate) fn expose_into(out: &mut Exposition) {
    let s = stats();
    out.write(names::TRACE_STARTED_TOTAL, s.started);
    out.write(names::TRACE_FINISHED_TOTAL, s.finished);
    out.write(names::TRACE_SLOW_TOTAL, s.slow);
    out.write(names::TRACE_ERROR_TOTAL, s.error);
    out.write(names::TRACE_SPANS_TOTAL, s.spans);
    out.write(names::TRACE_DROPPED_SPANS_TOTAL, s.dropped_spans);
    out.write(names::TRACE_DROPPED_TRACES_TOTAL, s.dropped_traces);
    out.write(names::TRACE_OPEN, s.open);
}

/// Render a duration with a unit a human scans fast.
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.3}s", ns as f64 / 1_000_000_000.0)
    }
}

/// Render a finished trace as an indented tree: one line per span with
/// duration, **self-time** (duration minus direct children), attributes
/// and any error annotation. Spans whose parent is missing (remote, or
/// dropped under caps) render at top level.
pub fn render_tree(t: &FinishedTrace) -> String {
    let mut out = format!(
        "trace {:016x}  {}  {} span{}{}{}\n",
        t.trace_id,
        fmt_ns(t.duration_ns),
        t.spans.len(),
        if t.spans.len() == 1 { "" } else { "s" },
        if t.slow { "  SLOW" } else { "" },
        if t.error { "  ERROR" } else { "" },
    );
    // Sort children under each parent by start time for a stable,
    // causally ordered rendering.
    let mut order: Vec<usize> = (0..t.spans.len()).collect();
    order.sort_by_key(|&i| t.spans[i].start_ns);
    let is_local = |id: u64| t.spans.iter().any(|s| s.span_id == id);
    let roots: Vec<usize> =
        order.iter().copied().filter(|&i| !is_local(t.spans[i].parent_id)).collect();
    fn walk(out: &mut String, t: &FinishedTrace, order: &[usize], i: usize, indent: usize) {
        let s = &t.spans[i];
        let child_total: u64 =
            t.spans.iter().filter(|c| c.parent_id == s.span_id).map(|c| c.duration_ns).sum();
        out.push_str(&"  ".repeat(indent));
        out.push_str("- ");
        out.push_str(s.name);
        out.push_str(&format!(
            "  {} (self {})",
            fmt_ns(s.duration_ns),
            fmt_ns(s.duration_ns.saturating_sub(child_total))
        ));
        for (k, v) in &s.attrs {
            out.push_str(&format!("  {k}={v}"));
        }
        if let Some(e) = &s.error {
            out.push_str(&format!("  !error: {e}"));
        }
        out.push('\n');
        for &c in order {
            if t.spans[c].parent_id == s.span_id {
                walk(out, t, order, c, indent + 1);
            }
        }
    }
    for r in roots {
        walk(&mut out, t, &order, r, 0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{current, current_trace_id, span, span_or_root, start};
    use crate::Scenario;
    use std::time::Duration;

    fn burst(name: &'static str) -> u64 {
        let g = span_or_root(name);
        let _ = &g;
        let id = current_trace_id();
        drop(g);
        id
    }

    #[test]
    fn normal_ring_is_bounded_and_newest_first() {
        let _s = Scenario::traced_with(TraceConfig { retain: 3, ..TraceConfig::default() });
        let ids: Vec<u64> = (0..5).map(|_| burst("r")).collect();
        let got: Vec<u64> = recent().iter().map(|s| s.trace_id).collect();
        assert_eq!(got, vec![ids[4], ids[3], ids[2]]);
        assert!(find(ids[0]).is_none(), "evicted from the normal ring");
        assert_eq!(stats().finished, 5);
    }

    #[test]
    fn slow_and_error_traces_survive_normal_churn() {
        let _s = Scenario::traced_with(TraceConfig {
            retain: 2,
            retain_slow: 8,
            slow_threshold: Duration::from_millis(5),
            ..TraceConfig::default()
        });
        let slow_id = {
            let g = span_or_root("slow.request");
            let id = current_trace_id();
            std::thread::sleep(Duration::from_millis(6));
            drop(g);
            id
        };
        let err_id = {
            let g = span_or_root("err.request");
            let id = current_trace_id();
            g.err("injected");
            drop(g);
            id
        };
        // 2× the normal retention of ordinary traffic churns through.
        for _ in 0..4 {
            burst("normal");
        }
        let slow_summaries = slow();
        assert!(slow_summaries.iter().any(|s| s.trace_id == slow_id && s.slow));
        assert!(slow_summaries.iter().any(|s| s.trace_id == err_id && s.error));
        assert!(find(slow_id).is_some());
        assert!(find(err_id).is_some());
        assert_eq!(recent().len(), 2, "normal ring bounded independently");
        let st = stats();
        assert_eq!(st.slow, 1);
        assert_eq!(st.error, 1);
    }

    #[test]
    fn span_cap_counts_drops() {
        let _s =
            Scenario::traced_with(TraceConfig { max_spans_per_trace: 4, ..TraceConfig::default() });
        {
            let _root = span_or_root("big");
            for _ in 0..10 {
                let _c = span("child");
            }
        }
        let t = find(recent()[0].trace_id).unwrap();
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.dropped_spans, 7, "6 spans past the cap plus the root itself");
        assert_eq!(stats().dropped_spans, 7);
    }

    #[test]
    fn late_fanout_root_merges_into_finished_trace() {
        let _s = Scenario::traced();
        let (tid, ctx) = {
            let _root = span_or_root("main");
            let ctx = current().unwrap();
            (ctx.trace_id, ctx.child())
        };
        // The main root has finalized; a detached worker reports late.
        assert_eq!(find(tid).unwrap().spans.len(), 1);
        {
            let g = start("late.worker", ctx);
            g.attr("shard", 2u64);
        }
        let t = find(tid).expect("still one retained trace");
        assert_eq!(t.spans.len(), 2, "late spans merged, not duplicated");
        assert_eq!(recent().len(), 1);
        assert_eq!(stats().finished, 1, "merge does not double-count");
    }

    #[test]
    fn render_tree_shows_hierarchy_and_self_time() {
        let _s = Scenario::traced();
        {
            let root = span_or_root("serve.request");
            root.attr("verb", "edit");
            {
                let c = span("store.edit");
                c.attr("doc", 7u64);
                let g = span("store.gate");
                g.err("rejected");
            }
        }
        // The gate rejection makes this an error trace → slow ring.
        let t = find(slow()[0].trace_id).unwrap();
        let tree = render_tree(&t);
        let lines: Vec<&str> = tree.lines().collect();
        assert!(lines[0].starts_with("trace "), "{tree}");
        assert!(lines[0].contains("3 spans"), "{tree}");
        assert!(lines[0].contains("ERROR"), "{tree}");
        assert!(lines.iter().any(|l| l.starts_with("- serve.request") && l.contains("verb=edit")));
        assert!(lines.iter().any(|l| l.starts_with("  - store.edit") && l.contains("doc=7")));
        assert!(lines
            .iter()
            .any(|l| l.starts_with("    - store.gate") && l.contains("!error: rejected")));
        assert!(tree.contains("(self "));
    }

    #[test]
    fn exposition_lines_are_complete() {
        let _s = Scenario::traced();
        burst("x");
        let mut out = Exposition::new();
        expose_into(&mut out);
        let text = out.finish();
        for name in [
            "cx_trace_started_total 1",
            "cx_trace_finished_total 1",
            "cx_trace_slow_total 0",
            "cx_trace_error_total 0",
            "cx_trace_spans_total 1",
            "cx_trace_dropped_spans_total 0",
            "cx_trace_dropped_traces_total 0",
            "cx_trace_open 0",
        ] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(950), "950ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(1_234_000_000), "1.234s");
    }
}
