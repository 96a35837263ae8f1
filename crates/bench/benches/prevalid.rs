//! Prevalidation benchmarks: the editor-service hot path (paper §4).
//!
//! Series:
//! * `prevalid/check_sequence/{words}` — potential validity of one
//!   mixed-content host sequence (`2·words − 1` items: `<w>` elements with
//!   real text between them);
//! * `prevalid/check_insertion/{words}` — one `check_insertion` of a
//!   `<phrase>` over a two-word range inside that host (the per-keystroke
//!   xTagger call, and the store's gated-edit cost);
//! * `prevalid/suggest_tags/{words}` — the full tag-suggestion list over
//!   the same range (partition shared across candidates, covered-items
//!   wrap table built only if a check needs it; per-tag host-side checks
//!   re-run);
//! * `prevalid/engine_compile` — `PrevalidEngine::new` on the standard
//!   linguistic DTD (paid once per store entry / session hierarchy).
//!
//! Before the bitset rewrite the 200-word `check_insertion` took ~387 s on
//! this host shape (the ROADMAP "prevalidation performance cliff");
//! afterwards the whole series is interactive.

use corpus::mixed_host;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prevalid::{check_insertion, suggest_tags, Item, PrevalidEngine};
use std::hint::black_box;
use std::time::Duration;

const WORDS: &[usize] = &[25, 50, 100, 200];

fn items(words: usize) -> Vec<Item> {
    let mut out = Vec::with_capacity(2 * words - 1);
    for i in 0..words {
        if i > 0 {
            out.push(Item::Text);
        }
        out.push(Item::elem("w"));
    }
    out
}

fn bench_prevalid(c: &mut Criterion) {
    let mut group = c.benchmark_group("prevalid");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(300));

    let engine = PrevalidEngine::new(corpus::dtds::ling());

    for &words in WORDS {
        let seq = items(words);
        group.bench_function(BenchmarkId::new("check_sequence", words), |b| {
            b.iter(|| engine.check_sequence("s", black_box(&seq)))
        });

        let (g, h, ranges) = mixed_host(words);
        let (s, _) = ranges[words / 2];
        let (_, e) = ranges[words / 2 + 1];
        group.bench_function(BenchmarkId::new("check_insertion", words), |b| {
            b.iter(|| check_insertion(&engine, &g, h, "phrase", black_box(s), black_box(e)))
        });
        group.bench_function(BenchmarkId::new("suggest_tags", words), |b| {
            b.iter(|| suggest_tags(&engine, &g, h, black_box(s), black_box(e)))
        });
    }

    group.bench_function(BenchmarkId::from_parameter("engine_compile"), |b| {
        let dtd = corpus::dtds::ling();
        b.iter(|| PrevalidEngine::new(black_box(dtd.clone())))
    });

    group.finish();
}

criterion_group!(benches, bench_prevalid);
criterion_main!(benches);
