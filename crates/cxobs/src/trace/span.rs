//! The span machinery: a process-wide switch, a per-thread span stack,
//! and RAII guards that record on drop.

use super::context::TraceContext;
use super::recorder::{self, TraceConfig};
use std::cell::RefCell;
use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// The process-wide switch. Off (the default) makes every tracing call
/// a single relaxed load returning an inert guard.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Hard cap on finished spans buffered per thread while a root is open
/// (a runaway loop inside one request drops span records, never memory).
const THREAD_BUF_CAP: usize = 4096;

/// Whether tracing is on for this process.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn tracing on with the default [`TraceConfig`].
pub fn enable() {
    enable_with(TraceConfig::default());
}

/// Turn tracing on with an explicit retention/threshold configuration.
pub fn enable_with(cfg: TraceConfig) {
    recorder::configure(cfg);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn tracing off. Spans already open finish and record normally —
/// the switch gates span *creation*, so no guard is ever orphaned.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// One typed span attribute value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttrValue {
    /// An unsigned quantity (ids, counts, epochs, LSNs).
    U64(u64),
    /// A signed quantity.
    I64(i64),
    /// A flag.
    Bool(bool),
    /// Free-form text (verbs, names).
    Str(String),
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::I64(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
            AttrValue::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> AttrValue {
        AttrValue::U64(v)
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> AttrValue {
        AttrValue::U64(v as u64)
    }
}

impl From<u32> for AttrValue {
    fn from(v: u32) -> AttrValue {
        AttrValue::U64(u64::from(v))
    }
}

impl From<i64> for AttrValue {
    fn from(v: i64) -> AttrValue {
        AttrValue::I64(v)
    }
}

impl From<bool> for AttrValue {
    fn from(v: bool) -> AttrValue {
        AttrValue::Bool(v)
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> AttrValue {
        AttrValue::Str(v.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Str(v)
    }
}

/// One finished span as the flight recorder keeps it.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// The trace this span belongs to.
    pub trace_id: u64,
    /// This span's id.
    pub span_id: u64,
    /// The parent span (0 = a root, or a remote parent on the far side
    /// of the wire).
    pub parent_id: u64,
    /// What this span measures (`"serve.request"`, `"wal.append"`, …).
    pub name: &'static str,
    /// Start offset in nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// How long the span ran.
    pub duration_ns: u64,
    /// Typed key/value annotations (`doc`, `shard`, `verb`, `lsn`, …).
    pub attrs: Vec<(&'static str, AttrValue)>,
    /// The error annotation, if the span ended in one.
    pub error: Option<String>,
}

/// One open span on this thread's stack.
struct Frame {
    ctx: TraceContext,
    name: &'static str,
    start: Instant,
    start_ns: u64,
    attrs: Vec<(&'static str, AttrValue)>,
    error: Option<String>,
    /// Bottom-of-stack for this thread: closing it flushes the thread
    /// buffer to the process-wide recorder.
    root: bool,
}

#[derive(Default)]
struct ThreadState {
    stack: Vec<Frame>,
    buf: Vec<SpanRecord>,
    buf_dropped: u64,
}

thread_local! {
    static ACTIVE: RefCell<ThreadState> = RefCell::default();
}

/// RAII handle for one span: annotate it with [`SpanGuard::attr`] /
/// [`SpanGuard::err`]; dropping it records the span. Deliberately
/// `!Send` — a span lives and dies on the thread that opened it
/// (contexts, not guards, cross threads).
#[derive(Debug)]
pub struct SpanGuard {
    /// Index of this span's frame on the thread stack; `None` for the
    /// inert guard a disabled process (or an idle thread) hands out.
    depth: Option<usize>,
    _not_send: PhantomData<*const ()>,
}

impl SpanGuard {
    const NOOP: SpanGuard = SpanGuard { depth: None, _not_send: PhantomData };

    /// Whether this guard records anything.
    pub fn is_recording(&self) -> bool {
        self.depth.is_some()
    }

    /// Attach a typed attribute.
    pub fn attr(&self, key: &'static str, value: impl Into<AttrValue>) {
        let Some(d) = self.depth else { return };
        ACTIVE.with(|s| {
            if let Some(f) = s.borrow_mut().stack.get_mut(d) {
                f.attrs.push((key, value.into()));
            }
        });
    }

    /// Annotate the span as having ended in an error. A trace holding
    /// any error-annotated span is retained preferentially.
    pub fn err(&self, msg: impl Into<String>) {
        let Some(d) = self.depth else { return };
        ACTIVE.with(|s| {
            if let Some(f) = s.borrow_mut().stack.get_mut(d) {
                f.error = Some(msg.into());
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(d) = self.depth else { return };
        // Collect under the thread-local borrow; talk to the recorder
        // only after releasing it.
        let flush = ACTIVE.with(|s| {
            let mut s = s.borrow_mut();
            // Stack discipline is guaranteed by guard scoping; popping
            // down to `d` is pure defense against a mem::forget'ed guard.
            let mut flushed = None;
            while s.stack.len() > d {
                let f = s.stack.pop().expect("stack checked non-empty");
                let rec = SpanRecord {
                    trace_id: f.ctx.trace_id,
                    span_id: f.ctx.span_id,
                    parent_id: f.ctx.parent_id,
                    name: f.name,
                    start_ns: f.start_ns,
                    duration_ns: f.start.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                    attrs: f.attrs,
                    error: f.error,
                };
                if f.root {
                    let mut spans = std::mem::take(&mut s.buf);
                    spans.push(rec);
                    flushed = Some((f.ctx.trace_id, spans, std::mem::take(&mut s.buf_dropped)));
                } else if s.buf.len() < THREAD_BUF_CAP {
                    s.buf.push(rec);
                } else {
                    s.buf_dropped += 1;
                }
            }
            flushed
        });
        if let Some((trace_id, spans, dropped)) = flush {
            recorder::root_closed(trace_id, spans, dropped);
        }
    }
}

fn push_frame(name: &'static str, ctx: TraceContext, root: bool) -> SpanGuard {
    let start_ns = recorder::now_ns();
    let depth = ACTIVE.with(|s| {
        let mut s = s.borrow_mut();
        let d = s.stack.len();
        s.stack.push(Frame {
            ctx,
            name,
            start: Instant::now(),
            start_ns,
            attrs: Vec::new(),
            error: None,
            root,
        });
        d
    });
    if root {
        recorder::root_opened(ctx.trace_id);
    }
    SpanGuard { depth: Some(depth), _not_send: PhantomData }
}

/// Open a span under an explicit context — how a thread *adopts* a
/// trace that originated elsewhere: a server handler adopting the wire
/// token's child, a fan-out worker adopting the child context its
/// spawner minted. If this thread has no active span, the new span
/// becomes the thread root (its completion flushes the thread buffer).
pub fn start(name: &'static str, ctx: TraceContext) -> SpanGuard {
    if !enabled() {
        return SpanGuard::NOOP;
    }
    let root = ACTIVE.with(|s| s.borrow().stack.is_empty());
    push_frame(name, ctx, root)
}

/// Open a child span of this thread's innermost active span. The inert
/// no-op when tracing is off *or* no trace is active on this thread —
/// which is what lets `cxstore`/`cxpersist` hot paths call this
/// unconditionally.
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::NOOP;
    }
    let ctx = ACTIVE.with(|s| s.borrow().stack.last().map(|f| f.ctx.child()));
    match ctx {
        Some(ctx) => push_frame(name, ctx, false),
        None => SpanGuard::NOOP,
    }
}

/// [`start`] when a context is present, the inert guard otherwise —
/// the fan-out worker pattern: the spawner mints `parent.child()` (or
/// `None` when untraced) and the worker adopts it unconditionally.
pub fn adopt(name: &'static str, ctx: Option<TraceContext>) -> SpanGuard {
    match ctx {
        Some(c) => start(name, c),
        None => SpanGuard::NOOP,
    }
}

/// A child span when a trace is active, a fresh root when none is —
/// the entry points (client calls, server handlers) use this to mint
/// traces lazily.
pub fn span_or_root(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::NOOP;
    }
    let ctx = ACTIVE.with(|s| s.borrow().stack.last().map(|f| f.ctx.child()));
    match ctx {
        Some(ctx) => push_frame(name, ctx, false),
        None => push_frame(name, TraceContext::mint(), true),
    }
}

/// The context of this thread's innermost active span — what a caller
/// propagates (as [`TraceContext::child`] or a wire token) to keep the
/// tree connected across a boundary. `None` when idle or disabled.
pub fn current() -> Option<TraceContext> {
    if !enabled() {
        return None;
    }
    ACTIVE.with(|s| s.borrow().stack.last().map(|f| f.ctx))
}

/// The active trace id, 0 when none — the tag latency histograms store
/// as their per-bucket exemplar.
pub fn current_trace_id() -> u64 {
    if !enabled() {
        return 0;
    }
    ACTIVE.with(|s| s.borrow().stack.last().map_or(0, |f| f.ctx.trace_id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{find, recent, slow};
    use crate::Scenario;

    #[test]
    fn disabled_everything_is_inert() {
        let _s = Scenario::setup();
        let g = span("x");
        assert!(!g.is_recording());
        assert!(current().is_none());
        assert_eq!(current_trace_id(), 0);
        assert!(!span_or_root("y").is_recording());
    }

    #[test]
    fn spans_nest_and_flush_once_per_root() {
        let _s = Scenario::traced();
        {
            let root = span_or_root("root");
            assert!(root.is_recording());
            let tid = current_trace_id();
            assert_ne!(tid, 0);
            {
                let child = span("child");
                child.attr("doc", 7u64);
                child.err("boom");
                assert_eq!(current_trace_id(), tid, "children share the trace");
            }
            assert!(slow().is_empty(), "nothing recorded before the root closes");
        }
        // The error annotation classifies the whole trace into the
        // preferentially retained slow/error ring.
        assert!(recent().is_empty());
        let traces = slow();
        assert_eq!(traces.len(), 1);
        let t = find(traces[0].trace_id).unwrap();
        assert_eq!(t.spans.len(), 2);
        let child = t.spans.iter().find(|s| s.name == "child").unwrap();
        let root = t.spans.iter().find(|s| s.name == "root").unwrap();
        assert_eq!(child.parent_id, root.span_id);
        assert_eq!(root.parent_id, 0);
        assert_eq!(child.attrs, vec![("doc", AttrValue::U64(7))]);
        assert_eq!(child.error.as_deref(), Some("boom"));
        assert!(t.error, "an error span marks the whole trace");
    }

    #[test]
    fn adopted_contexts_cross_threads() {
        let _s = Scenario::traced();
        let tid;
        {
            let _root = span_or_root("fanout");
            let parent = current().unwrap();
            tid = parent.trace_id;
            std::thread::scope(|scope| {
                for shard in 0..3u64 {
                    let ctx = parent.child();
                    scope.spawn(move || {
                        let g = start("worker", ctx);
                        g.attr("shard", shard);
                    });
                }
            });
        }
        let t = find(tid).expect("trace finalized after all roots closed");
        assert_eq!(t.spans.len(), 4);
        let root_span = t.spans.iter().find(|s| s.name == "fanout").unwrap();
        let workers: Vec<_> = t.spans.iter().filter(|s| s.name == "worker").collect();
        assert_eq!(workers.len(), 3);
        assert!(workers.iter().all(|w| w.parent_id == root_span.span_id));
    }
}
