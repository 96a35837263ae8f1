//! # cxobs — diagnostics for the whole stack
//!
//! One dependency-free crate holds every diagnostic the stack emits:
//! metrics per store, and two process-wide facilities — failpoints
//! ([`fault`]) and request tracing ([`trace`]). Each keeps its own state
//! and its own one-relaxed-load idle path; what they share is the
//! [`splitmix64`] step their seeded streams draw from, one [`Scenario`]
//! guard for tests, and [`expose_process`] for their page lines.
//!
//! Every layer of the store stack (in-memory store, durable store,
//! replication, cluster) hangs its signals on one [`Registry`] per store
//! and renders them through one [`Observable`] trait. Three metric
//! kinds, all lock-free on the hot path:
//!
//! * [`Counter`] — monotone event counts (relaxed `fetch_add`);
//! * [`Gauge`] — levels that go up and down (in-flight writers, queue
//!   depth), with RAII tracking ([`Gauge::track`]);
//! * [`Histogram`] — fixed log2-bucket latency distributions in
//!   nanoseconds, with exact `count`/`sum` and approximate
//!   p50/p90/p99 ([`HistogramSnapshot::quantile`]). Recording is two
//!   relaxed `fetch_add`s plus a bucket index from `leading_zeros` —
//!   cheap enough for WAL appends and gate decisions. An observation
//!   made inside a trace keeps that trace's id as its bucket's exemplar.
//!
//! Latency is captured with **span timers**: [`Histogram::time`] wraps a
//! closure, and [`Histogram::span`] returns a guard that records on drop
//! (early returns included).
//!
//! Every metric name is declared once in [`names`] as a constant typed by
//! its kind, so the registry hands out a counter only for a counter name
//! and the page never carries a name nobody declared.
//!
//! Rare, high-signal moments (follower state transitions, terminal
//! errors, checkpoint generations, migrations, gate rejections) go into a
//! bounded [`EventRing`] — a structured recent-events log drainable for
//! post-mortems, oldest entries dropped (and counted) on overflow.
//!
//! Everything renders as Prometheus-style text (`name{label="v"} value`)
//! through [`Exposition`]: a label stack lets a cluster wrap each shard's
//! output in `shard="i"`, and [`Observable`] is the one-method trait every
//! store-shaped type implements to contribute its lines.
//!
//! A [`Registry::disabled`] registry turns every record into a branch
//! (span timers skip the clock and the trace lookup entirely), which is
//! what the `perf_smoke` overhead guard compares against.
//!
//! ```
//! use cxobs::{names, Registry};
//!
//! let obs = Registry::new();
//! let requests = obs.counter(names::SERVER_REQUESTS_TOTAL);
//! let latency = obs.histogram(names::SERVER_REQUEST_NS);
//! for _ in 0..100 {
//!     requests.bump();
//!     latency.time(|| { /* serve */ });
//! }
//! obs.event("demo", "served 100 requests");
//! assert_eq!(requests.get(), 100);
//! assert_eq!(latency.snapshot().count, 100);
//! let text = obs.render();
//! assert!(text.contains("cx_server_requests_total 100"));
//! assert!(text.contains("cx_server_request_ns{quantile=\"0.99\"}"));
//! ```

mod events;
mod expose;
pub mod fault;
mod metrics;
pub mod names;
mod process;
mod registry;
pub mod trace;

pub use events::{Event, EventRing};
pub use expose::{Exposition, Observable};
pub use metrics::{Counter, Gauge, GaugeGuard, Histogram, HistogramSnapshot, Span, BUCKETS};
pub use process::{expose_process, splitmix64, Scenario};
pub use registry::Registry;
