//! `cxstore` benchmarks: what the repository layer amortizes.
//!
//! Series:
//! * `store/cold_vs_warm/{cold|warm}/{words}` — the same overlap query on
//!   one document through a fresh `Evaluator::with_index` under the
//!   document's read lock (cold: pays the `O(n log n)` index build) vs.
//!   `Store::query` on the cached index (warm: epoch check + cached `Arc`
//!   clone). The gap is the per-request cost the store removes for
//!   read-heavy traffic.
//! * `store/fanout/{serial|parallel}/{docs}` — one expression across a
//!   collection, a `Store::query` loop over `doc_ids` vs. the
//!   scoped-thread `query_all`.
//! * `store/compile/{cached|parse}` — compiled-query cache vs. parsing the
//!   expression each time.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cxml_bench::workload;
use cxstore::Store;
use expath::Evaluator;
use std::hint::black_box;
use std::time::Duration;

const OVERLAP_QUERY: &str = "//s/overlapping::phys:line";

fn bench_store(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    group.sample_size(15);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));

    // Cold vs warm index on a single document.
    for &words in &[1_000usize, 4_000] {
        let store = Store::new();
        let id = store.insert(workload(words).ms.goddag);

        group.bench_function(BenchmarkId::new("cold_vs_warm/cold", words), |b| {
            b.iter(|| {
                let q = black_box(OVERLAP_QUERY);
                store.with_doc(id, |g| Evaluator::with_index(g).select(q).unwrap()).unwrap()
            });
        });
        group.bench_function(BenchmarkId::new("cold_vs_warm/warm", words), |b| {
            store.warm_all();
            b.iter(|| store.query(id, black_box(OVERLAP_QUERY)).unwrap());
        });
    }

    // Serial vs parallel batch fan-out.
    for &docs in &[4usize, 16] {
        let store = Store::new();
        for i in 0..docs {
            let mut w = workload(1_000);
            // Distinct documents (different seeds would need regeneration;
            // a trivial text edit suffices to make each doc its own work).
            w.ms.goddag.insert_text(0, &format!("doc{i} ")).unwrap();
            store.insert(w.ms.goddag);
        }
        store.warm_all();
        let ids = store.doc_ids();
        group.bench_function(BenchmarkId::new("fanout/serial", docs), |b| {
            b.iter(|| {
                ids.iter()
                    .map(|&id| store.query(id, black_box(OVERLAP_QUERY)).unwrap())
                    .collect::<Vec<_>>()
            });
        });
        group.bench_function(BenchmarkId::new("fanout/parallel", docs), |b| {
            b.iter(|| store.query_all(black_box(OVERLAP_QUERY)).unwrap());
        });
    }

    // Compiled-query cache vs a fresh parse per evaluation.
    {
        let store = Store::new();
        store.insert(workload(1_000).ms.goddag);
        store.warm_all();
        group.bench_function(BenchmarkId::new("compile/cached", 1_000), |b| {
            b.iter(|| store.compile(black_box(OVERLAP_QUERY)).unwrap());
        });
        group.bench_function(BenchmarkId::new("compile/parse", 1_000), |b| {
            b.iter(|| expath::parse(black_box(OVERLAP_QUERY)).unwrap());
        });
    }

    group.finish();
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
