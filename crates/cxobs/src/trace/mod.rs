//! End-to-end request tracing for the whole stack.
//!
//! The metrics answer *how slow is the p99*; this module answers *why
//! was this request slow*: one wire request yields one causal tree of
//! [`SpanRecord`]s crossing client → server handler → cluster router →
//! shard store → prevalidation gate → WAL append, with per-span
//! durations, typed attributes (`doc`, `shard`, `verb`, `lsn`, …) and
//! error annotations.
//!
//! * **Off by default, one relaxed load when off.** Tracing is a
//!   process-wide switch ([`enable`]/[`disable`]); every [`span()`] call
//!   on a disabled process is a single relaxed atomic load returning an
//!   inert guard — cheap enough to leave in the hot paths of `cxstore`
//!   and `cxpersist` permanently (the `perf_smoke` guard pins it).
//! * **Contexts, not globals, cross threads and machines.** A
//!   [`TraceContext`] is three ids minted from a seeded
//!   [`crate::splitmix64`] stream. Within a thread, child spans attach
//!   implicitly to the innermost active span; across threads (cluster
//!   fan-out workers) and across the wire (the `cxq1` trace token) the
//!   context travels explicitly and is re-adopted with [`start`].
//! * **Per-thread buffers, one bounded flight recorder.** Finished
//!   spans accumulate in a thread-local buffer and are flushed to the
//!   process-wide recorder once per thread-root span — one short mutex
//!   per request per thread, never per span. The recorder retains the
//!   last [`RETAIN`] completed traces *plus* the last [`RETAIN_SLOW`]
//!   that ran at least [`SLOW_THRESHOLD`] or ended in an error;
//!   slow/error traces live in their own ring, so normal churn can never
//!   evict them (and they never evict normal traces' ring slots either —
//!   both rings are independently bounded).
//! * **Histograms tag themselves.** A latency observation recorded
//!   while a trace is active carries that trace's id as its bucket
//!   exemplar ([`crate::Histogram`]).
//!
//! ```
//! use cxobs::trace;
//!
//! let _s = cxobs::Scenario::traced();
//! {
//!     let root = trace::span_or_root("serve.request");
//!     root.attr("verb", "edit");
//!     {
//!         let child = trace::span("store.edit");
//!         child.attr("doc", 7u64);
//!     }
//! }
//! let traces = trace::recent();
//! assert_eq!(traces.len(), 1);
//! let tree = trace::find(traces[0].trace_id).unwrap();
//! assert_eq!(tree.spans.len(), 2);
//! ```

mod context;
mod recorder;
mod span;

pub use context::{seed, TraceContext};
pub(crate) use recorder::expose_into;
pub use recorder::{
    clear, find, recent, render_tree, slow, stats, FinishedTrace, TraceStats, TraceSummary,
    MAX_OPEN, MAX_SPANS_PER_TRACE, RETAIN, RETAIN_SLOW, SLOW_THRESHOLD,
};
pub use span::{
    adopt, current, current_trace_id, disable, enable, enabled, span, span_or_root, start,
    AttrValue, SpanGuard, SpanRecord,
};
