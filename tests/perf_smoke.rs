//! Release-mode performance smoke tests for the prevalidation and query hot
//! paths.
//!
//! Ignored by default (debug builds and loaded CI runners would flake);
//! CI runs it explicitly in release:
//!
//! ```sh
//! cargo test --release --test perf_smoke -- --ignored
//! ```
//!
//! Guards the ROADMAP "prevalidation performance cliff" fix: before the
//! bitset engine, `check_insertion` on this 200-word mixed-content host
//! took ~387 s in release; the budget here is 1 s — generous enough for
//! slow runners, and still ~400× under the old cost. Checks the engine's
//! linear pass decides get a 10 ms budget at 400 words; the one class that
//! still builds the cubic wrap table keeps the 1 s budget at 200 words.

use cxobs::{fault, trace, Registry, Scenario};
use cxstore::{EditOp, Store};
use prevalid::{check_insertion, suggest_tags, PrevalidEngine};
use std::sync::Arc;
use std::time::{Duration, Instant};

type Host = (goddag::Goddag, goddag::HierarchyId, Vec<(usize, usize)>);

/// A host from `make` (`corpus::mixed_host`: `2·words − 1` child items
/// under an `<s>`) with a two-word range in its middle.
fn two_words(
    words: usize,
    make: fn(usize) -> Host,
) -> (goddag::Goddag, goddag::HierarchyId, usize, usize) {
    let (g, h, ranges) = make(words);
    let (s, _) = ranges[words / 2];
    let (_, e) = ranges[words / 2 + 1];
    (g, h, s, e)
}

/// The fastest of `runs` runs of `f` (after one warm-up run), and its
/// result.
fn best_of<T>(runs: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut out = f();
    let mut best = Duration::MAX;
    for _ in 0..runs {
        let t = Instant::now();
        out = f();
        best = best.min(t.elapsed());
    }
    (best, out)
}

#[test]
#[ignore = "release-mode perf budget; run with: cargo test --release --test perf_smoke -- --ignored"]
fn check_insertion_200_words_stays_interactive() {
    let engine = PrevalidEngine::new(corpus::dtds::ling());
    let (g, h, s, e) = two_words(200, corpus::mixed_host);

    // Warm-up (page in code, fault in the allocator).
    assert!(check_insertion(&engine, &g, h, "phrase", s, e).ok);

    let t = Instant::now();
    let verdict = check_insertion(&engine, &g, h, "phrase", s, e);
    let elapsed = t.elapsed();
    assert!(verdict.ok, "{:?}", verdict.reason);
    assert!(
        elapsed < Duration::from_secs(1),
        "check_insertion on a 200-word host took {elapsed:?} (budget 1s)"
    );
}

/// Guards the cxobs instrumentation cost on the gated-edit path: a live
/// [`Registry`] (span timers + relaxed counter bumps) must stay within
/// 5% of a no-op [`Registry::disabled`] baseline, which skips the clock
/// reads and the counter bumps entirely. Rounds are interleaved and each mode keeps its best
/// round, so a scheduler hiccup hits one round, not one mode. It holds
/// the one [`Scenario`] because its sibling below turns process-wide
/// tracing on while it measures.
#[test]
#[ignore = "release-mode perf budget; run with: cargo test --release --test perf_smoke -- --ignored"]
fn instrumented_gated_edits_stay_within_5_percent_of_noop_registry() {
    const EDITS: usize = 400;
    const ROUNDS: usize = 5;

    let _scenario = Scenario::setup();

    let run = |registry: Arc<Registry>| -> Duration {
        let store = Store::with_registry(registry);
        let mut ms =
            corpus::generate(&corpus::Params { words: 300, seed: 42, ..corpus::Params::default() });
        corpus::dtds::attach_standard(&mut ms.goddag);
        let id = store.insert(ms.goddag);
        let t = Instant::now();
        for k in 0..EDITS {
            store.edit(id, EditOp::InsertText { offset: 0, text: format!("x{k} ") }).unwrap();
        }
        t.elapsed()
    };

    // Warm-up (page in code, fault in the allocator).
    run(Arc::new(Registry::disabled()));

    let (mut bare, mut instrumented) = (Duration::MAX, Duration::MAX);
    for _ in 0..ROUNDS {
        bare = bare.min(run(Arc::new(Registry::disabled())));
        instrumented = instrumented.min(run(Arc::new(Registry::new())));
    }
    // A small absolute epsilon keeps the 5% relative bound meaningful
    // when both runs are only a few milliseconds.
    let budget = bare.mul_f64(1.05) + Duration::from_millis(2);
    assert!(
        instrumented <= budget,
        "instrumented gated edits took {instrumented:?} vs {bare:?} bare (budget {budget:?})"
    );
}

/// Guards the tracing instrumentation cost on the gated-edit path: with
/// tracing *enabled but idle* (the switch on, no trace active on the
/// thread — every span call is one relaxed load plus a thread-local
/// probe returning an inert guard) the path must stay within 5% of the
/// tracing-off baseline. Both runs use a disabled metrics registry so
/// the bound isolates the tracing tax from the metrics tax. Rounds interleave and
/// each mode keeps its best, as above.
#[test]
#[ignore = "release-mode perf budget; run with: cargo test --release --test perf_smoke -- --ignored"]
fn tracing_enabled_but_idle_gated_edits_stay_within_5_percent() {
    const EDITS: usize = 400;
    const ROUNDS: usize = 5;

    let run = || -> Duration {
        let store = Store::with_registry(Arc::new(Registry::disabled()));
        let mut ms =
            corpus::generate(&corpus::Params { words: 300, seed: 42, ..corpus::Params::default() });
        corpus::dtds::attach_standard(&mut ms.goddag);
        let id = store.insert(ms.goddag);
        let t = Instant::now();
        for k in 0..EDITS {
            store.edit(id, EditOp::InsertText { offset: 0, text: format!("x{k} ") }).unwrap();
        }
        t.elapsed()
    };

    // Exclusive tracing state for the measurement; tracing off again on
    // drop.
    let _scenario = Scenario::setup();
    run(); // Warm-up.

    let (mut off, mut idle) = (Duration::MAX, Duration::MAX);
    for _ in 0..ROUNDS {
        trace::disable();
        off = off.min(run());
        trace::enable();
        idle = idle.min(run());
    }
    // Same absolute epsilon rationale as the metrics guard above.
    let budget = off.mul_f64(1.05) + Duration::from_millis(2);
    assert!(
        idle <= budget,
        "tracing-idle gated edits took {idle:?} vs {off:?} with tracing off (budget {budget:?})"
    );
}

/// Guards the disarmed failpoint fast path: with no site armed anywhere
/// in the process, [`fault::fire`] is one relaxed atomic load — the WAL
/// append, fsync, and replication fetch paths cross it on every
/// operation, so it must stay in single-digit nanoseconds. The budget is
/// 25 ns per call, ~10× the expected cost, so only a real regression
/// (e.g. taking the table lock while disarmed) trips it.
#[test]
#[ignore = "release-mode perf budget; run with: cargo test --release --test perf_smoke -- --ignored"]
fn disarmed_failpoints_stay_within_nanoseconds() {
    const CALLS: u32 = 2_000_000;
    const ROUNDS: usize = 5;

    // Exclusive use of the failpoint table: guarantees nothing is armed.
    let _scenario = Scenario::setup();

    let run = || -> Duration {
        let t = Instant::now();
        for _ in 0..CALLS {
            assert!(fault::fire(std::hint::black_box(fault::Site::WalAppend)).is_none());
        }
        t.elapsed()
    };

    run(); // Warm-up.
    let mut best = Duration::MAX;
    for _ in 0..ROUNDS {
        best = best.min(run());
    }
    let budget = Duration::from_nanos(25).saturating_mul(CALLS);
    assert!(
        best <= budget,
        "{CALLS} disarmed fire() calls took {best:?} (budget {budget:?} = 25 ns/call)"
    );
}

/// Guards `DocBlob::restore` against going superlinear again. Restore once
/// re-split every recorded leaf boundary, and each split copied the whole
/// document to check its offset, so 8× the words cost 60–100× the time.
/// The documents carry extra leaf boundaries (one split inside every
/// eighth word), which the old re-split paid for once more each. Linear is
/// 8×; the budget is 12×, min-of-5 per size.
#[test]
#[ignore = "release-mode perf budget; run with: cargo test --release --test perf_smoke -- --ignored"]
fn blob_restore_scales_linearly() {
    const ROUNDS: usize = 5;

    let restore_time = |words: usize| -> Duration {
        let mut ms = corpus::generate(&corpus::Params::sized(words));
        corpus::dtds::attach_standard(&mut ms.goddag);
        for &(start, _) in ms.word_ranges.iter().step_by(8) {
            if ms.goddag.is_char_boundary(start + 1) {
                ms.goddag.split_leaf_at(start + 1).unwrap();
            }
        }
        let blob = cxpersist::DocBlob::capture(&ms.goddag);
        blob.restore().unwrap(); // Warm-up.
        (0..ROUNDS)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(blob.restore().unwrap());
                t.elapsed()
            })
            .min()
            .unwrap()
    };

    let small = restore_time(500);
    let large = restore_time(4000);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    assert!(
        ratio <= 12.0,
        "restore took {large:?} at 4000 words vs {small:?} at 500: {ratio:.1}x (budget 12x)"
    );
}

#[test]
#[ignore = "release-mode perf budget; run with: cargo test --release --test perf_smoke -- --ignored"]
fn suggest_tags_200_words_stays_interactive() {
    let engine = PrevalidEngine::new(corpus::dtds::ling());
    let (g, h, s, e) = two_words(200, corpus::mixed_host);
    let t = Instant::now();
    let tags = suggest_tags(&engine, &g, h, s, e);
    let elapsed = t.elapsed();
    assert_eq!(tags, ["phrase"]);
    assert!(
        elapsed < Duration::from_secs(2),
        "suggest_tags on a 200-word host took {elapsed:?} (budget 2s)"
    );
}

/// Every check `suggest_tags` and the gate make on a 400-word `<s>` host
/// (799 child items) is decided by the engine's linear pass, so neither
/// builds a wrap table: each stays under 10 ms where the table alone took
/// ~460 ms.
#[test]
#[ignore = "release-mode perf budget; run with: cargo test --release --test perf_smoke -- --ignored"]
fn decided_checks_400_words_stay_under_10ms() {
    let engine = PrevalidEngine::new(corpus::dtds::ling());
    let (g, h, s, e) = two_words(400, corpus::mixed_host);
    let budget = Duration::from_millis(10);

    let (elapsed, verdict) = best_of(5, || check_insertion(&engine, &g, h, "phrase", s, e));
    assert!(verdict.ok, "{:?}", verdict.reason);
    assert!(
        elapsed < budget,
        "check_insertion on a 400-word host took {elapsed:?} (budget {budget:?})"
    );

    let (elapsed, tags) = best_of(5, || suggest_tags(&engine, &g, h, s, e));
    assert_eq!(tags, ["phrase"]);
    assert!(
        elapsed < budget,
        "suggest_tags on a 400-word host took {elapsed:?} (budget {budget:?})"
    );
}

/// The class the linear pass cannot decide: `phrase` over two words
/// directly under a bare 200-word `<r>`, which only wrapping into an `<s>`
/// makes potentially valid. It still builds the cubic wrap table, so it
/// keeps the 1 s budget.
#[test]
#[ignore = "release-mode perf budget; run with: cargo test --release --test perf_smoke -- --ignored"]
fn undecided_check_200_words_stays_interactive() {
    let engine = PrevalidEngine::new(corpus::dtds::ling());
    let (g, h, s, e) = two_words(200, corpus::bare_host);
    let check = || check_insertion(&engine, &g, h, "phrase", s, e);
    assert!(check().ok); // Warm-up.

    let t = Instant::now();
    let verdict = check();
    let elapsed = t.elapsed();
    assert!(verdict.ok, "{:?}", verdict.reason);
    assert!(
        elapsed < Duration::from_secs(1),
        "undecided check_insertion on a bare 200-word host took {elapsed:?} (budget 1s)"
    );
}

/// `//T` is one descendant step that enumerates the document's elements
/// instead of sorting every node under the root, and `contained::` takes
/// milestones from the overlap index instead of scanning every element per
/// origin. On a 2 000-word manuscript with a shared index, `//ling:w` cost
/// ~1 ms and `//line/contained::ling:w` ~4 ms before; ~60 µs and ~170 µs
/// after. The budgets sit ~5× above the latter.
#[test]
#[ignore = "release-mode perf budget; run with: cargo test --release --test perf_smoke -- --ignored"]
fn descendant_and_contained_queries_cost_their_hits() {
    let g = corpus::generate(&corpus::Params::sized(2000)).goddag;
    let index = Arc::new(expath::OverlapIndex::build(&g));
    for (query, budget) in [
        ("//ling:w", Duration::from_micros(300)),
        ("//line/contained::ling:w", Duration::from_millis(1)),
    ] {
        let ev = expath::Evaluator::with_shared_index(&g, Arc::clone(&index));
        let (elapsed, hits) = best_of(5, || ev.select(query).unwrap().len());
        assert_eq!(hits, 2000, "{query}");
        assert!(elapsed < budget, "{query} took {elapsed:?} (budget {budget:?})");
    }
}

/// The served 16-expression palette.
const PALETTE: [&str; 16] = [
    "//ling:w",
    "//line[@n='5']",
    "//s/overlapping::phys:line",
    "//dmg/overlapping::ling:w",
    "//dmg/contained::ling:w",
    "//dmg/containing::*",
    "//s[overlapping::phys:line]",
    "//ling:w[contains(string(.), 'th')]",
    "//res/overlapping::ling:w",
    "//res/containing::*",
    "//line/contained::ling:w",
    "//page/contained::ling:s",
    "//s/containing::phys:page",
    "//line/co-extensive::*",
    "//dmg/co-extensive::*",
    "//line[@n='17']/overlapping::ling:s",
];

/// A step lowers its predicates once, so `[contains(string(.), 's')]` and
/// `[@n='v']` read each candidate in place instead of evaluating an
/// expression tree per candidate. Before, on a 2 000-word manuscript,
/// `//ling:w[contains(string(.), 'th')]` took 3.3–3.8× the palette mean
/// and `//ling:w[@n='7']` ≈ 6× `//ling:w`; after, ≈ 1.7× each. The bounds
/// are ratios of best-of-21 times taken in one process, which a slow or
/// loaded runner moves on both sides.
#[test]
#[ignore = "release-mode perf budget; run with: cargo test --release --test perf_smoke -- --ignored"]
fn lowered_predicates_cost_about_what_their_step_costs() {
    let g = corpus::generate(&corpus::Params::sized(2000)).goddag;
    let ev = expath::Evaluator::with_shared_index(&g, Arc::new(expath::OverlapIndex::build(&g)));
    let time = |query: &str| {
        let ast = expath::parse(query).unwrap();
        best_of(21, || ev.evaluate(&ast, g.root()).unwrap()).0.as_secs_f64()
    };
    let mean = PALETTE.iter().map(|q| time(q)).sum::<f64>() / PALETTE.len() as f64;
    for (query, base, what) in [
        ("//ling:w[contains(string(.), 'th')]", mean, "the palette mean"),
        ("//ling:w[@n='7']", time("//ling:w"), "//ling:w"),
    ] {
        let ratio = time(query) / base;
        eprintln!("{query}: {ratio:.2}× {what}");
        assert!(ratio <= 2.0, "{query} took {ratio:.2}× {what} (budget 2×)");
    }
}
