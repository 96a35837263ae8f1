//! Experiment B2 + ablation A1: Extended XPath over GODDAG.
//!
//! Series regenerated:
//! * `query/Q*/{words}` — the eight editorial queries ([`QUERIES`]),
//!   indexed evaluator;
//! * `query/overlap_index_vs_scan/{indexed|scan}/{words}` — the `overlapping`
//!   axis with the interval index vs the naive elements scan (A1; expect the
//!   gap to widen super-linearly with document size);
//! * `query/handcoded/{words}` — a hand-written traversal answering Q3
//!   (the price of the query-language abstraction);
//! * `query/index_build/{words}` — one-off index construction cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cxml_bench::{workload, SIZES};
use expath::Evaluator;
use std::hint::black_box;
use std::time::Duration;

/// The editorial query set (paper §4: "meaningful queries in the context of
/// multihierarchical XML").
pub const QUERIES: &[(&str, &str)] = &[
    ("Q1_all_words", "//ling:w"),
    ("Q2_line_by_attr", "//line[@n='5']"),
    ("Q3_sentences_crossing_lines", "//s/overlapping::phys:line"),
    ("Q4_damaged_words", "//dmg/overlapping::ling:w"),
    ("Q5_words_inside_damage", "//dmg/contained::ling:w"),
    ("Q6_context_of_damage", "//dmg/containing::*"),
    ("Q7_count_conflicts", "count(//s[overlapping::phys:line])"),
    ("Q8_text_predicate", "//ling:w[contains(string(.), 'th')]"),
];

fn bench_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("query");
    group.sample_size(20);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));

    for &words in SIZES {
        let w = workload(words);
        let ev = Evaluator::with_index(&w.ms.goddag);
        for (name, q) in QUERIES {
            group.bench_with_input(BenchmarkId::new(*name, words), q, |b, q| {
                b.iter(|| ev.eval_str(black_box(q)).unwrap());
            });
        }
    }
    group.finish();

    // A1: index vs scan on the overlapping axis.
    let mut group = c.benchmark_group("overlap_index_vs_scan");
    group.sample_size(15);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    for &words in SIZES {
        let w = workload(words);
        let indexed = Evaluator::with_index(&w.ms.goddag);
        let scan = Evaluator::new(&w.ms.goddag);
        let q = "//dmg/overlapping::ling:w";
        group.bench_with_input(BenchmarkId::new("indexed", words), q, |b, q| {
            b.iter(|| indexed.eval_str(black_box(q)).unwrap());
        });
        group.bench_with_input(BenchmarkId::new("scan", words), q, |b, q| {
            b.iter(|| scan.eval_str(black_box(q)).unwrap());
        });
    }
    group.finish();

    // Hand-coded Q3 baseline + index build cost.
    let mut group = c.benchmark_group("query_overheads");
    group.sample_size(15);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_millis(500));
    for &words in SIZES {
        let w = workload(words);
        let g = &w.ms.goddag;
        let ling = g.hierarchy_by_name("ling").unwrap();
        let phys = g.hierarchy_by_name("phys").unwrap();
        group.bench_with_input(BenchmarkId::new("handcoded_Q3", words), g, |b, g| {
            b.iter(|| {
                let mut hits = Vec::new();
                for s in g.elements_in(ling) {
                    if g.name(s).is_some_and(|q| q.local == "s") {
                        let span = g.span(s);
                        for line in g.elements_in(phys) {
                            if g.name(line).is_some_and(|q| q.local == "line")
                                && g.span(line).overlaps(span)
                            {
                                hits.push(line);
                            }
                        }
                    }
                }
                g.sort_doc_order(&mut hits);
                hits
            });
        });
        group.bench_with_input(BenchmarkId::new("index_build", words), g, |b, g| {
            b.iter(|| expath::OverlapIndex::build(black_box(g)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_queries);
criterion_main!(benches);
