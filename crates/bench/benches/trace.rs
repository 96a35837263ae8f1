//! `cxobs::trace` benchmarks: the cost of being traceable.
//!
//! Series:
//! * `trace/span/{disabled|enabled_idle}` — the permanent hot-path tax:
//!   a span call with tracing off (one relaxed load) and with tracing
//!   on but no active trace on the thread (load + thread-local probe).
//!   These two are what `cxstore`/`cxpersist` pay on every operation of
//!   an untraced process; the `perf_smoke` guard pins them end to end.
//! * `trace/span/child` — a recording child span under a live root:
//!   two clock reads + a thread-local buffer push, no locks.
//! * `trace/span/root_flush` — a full root span per iteration: the
//!   once-per-request flush into the flight recorder (the only mutex
//!   in the crate).
//! * `trace/context/mint` — minting a [`trace::TraceContext`] (one
//!   `fetch_add` + splitmix64).
//! * `trace/render` — rendering one retained trace as an indented tree.

use criterion::{criterion_group, criterion_main, Criterion};
use cxobs::trace;
use std::hint::black_box;
use std::time::Duration;

fn bench_trace(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace");
    group.sample_size(15);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));

    // Exclusive tracing state: off for the first series.
    let scenario = cxobs::Scenario::setup();

    // Tracing off: the disabled guard must stay branch-and-a-load cheap.
    group.bench_function("span/disabled", |b| {
        b.iter(|| drop(black_box(trace::span(black_box("bench.span")))))
    });

    // Tracing on for everything that records.
    trace::enable();

    // Enabled but idle: no active trace on this thread, so the call
    // still returns an inert guard after a thread-local probe.
    group.bench_function("span/enabled_idle", |b| {
        b.iter(|| drop(black_box(trace::span(black_box("bench.span")))))
    });

    // A recording child span under a pinned root.
    {
        let root = trace::span_or_root("bench.root");
        group.bench_function("span/child", |b| {
            b.iter(|| drop(black_box(trace::span(black_box("bench.child")))))
        });
        drop(root);
    }

    // A whole root per iteration: records + flushes to the recorder.
    group.bench_function("span/root_flush", |b| {
        b.iter(|| drop(black_box(trace::span_or_root(black_box("bench.root")))))
    });

    group.bench_function("context/mint", |b| b.iter(|| black_box(trace::TraceContext::mint())));

    // Render one retained multi-span trace.
    trace::clear();
    {
        let root = trace::span_or_root("serve.request");
        root.attr("verb", "edit");
        for i in 0..8u64 {
            let child = trace::span("store.edit");
            child.attr("doc", i);
        }
    }
    let summary = trace::recent().into_iter().next().expect("one retained trace");
    let trace = trace::find(summary.trace_id).expect("retained trace is findable");
    group.bench_function("render", |b| b.iter(|| black_box(trace::render_tree(&trace))));

    drop(scenario);
    group.finish();
}

criterion_group!(benches, bench_trace);
criterion_main!(benches);
