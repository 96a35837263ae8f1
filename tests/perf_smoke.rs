//! Release-mode performance smoke test for the prevalidation hot path.
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
//! slow runners, and still ~400× under the old cost.

use cxobs::{fault, trace, Registry, Scenario};
use cxstore::{EditOp, Store};
use prevalid::{check_insertion, suggest_tags, PrevalidEngine};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A 200-word mixed-content host (399 child items) with a two-word range
/// in its middle.
fn host_200() -> (goddag::Goddag, goddag::HierarchyId, usize, usize) {
    let words = 200;
    let (g, h, ranges) = corpus::mixed_host(words);
    let (s, _) = ranges[words / 2];
    let (_, e) = ranges[words / 2 + 1];
    (g, h, s, e)
}

#[test]
#[ignore = "release-mode perf budget; run with: cargo test --release --test perf_smoke -- --ignored"]
fn check_insertion_200_words_stays_interactive() {
    let engine = PrevalidEngine::new(corpus::dtds::ling());
    let (g, h, s, e) = host_200();

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
/// reads entirely. Rounds are interleaved and each mode keeps its best
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
    let (g, h, s, e) = host_200();
    let t = Instant::now();
    let tags = suggest_tags(&engine, &g, h, s, e);
    let elapsed = t.elapsed();
    assert_eq!(tags, ["phrase"]);
    assert!(
        elapsed < Duration::from_secs(2),
        "suggest_tags on a 200-word host took {elapsed:?} (budget 2s)"
    );
}
