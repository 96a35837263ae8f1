//! What one `expath` evaluation allocates, counted rather than timed.
//!
//! A std-only counting allocator tallies the heap requests (allocations and
//! reallocations) of the thread that evaluates. Each query is parsed and
//! its overlap index built before counting starts, as the store does, so
//! the count is the evaluation's alone.
//!
//! Two rules hold. A candidate its predicate rejects costs no allocation:
//! a query that matches nothing costs the same on a 300-word and a
//! 2 000-word manuscript, whose candidate lists differ about sevenfold
//! (what it does cost is per query: `//T[k]`'s one per-parent buffer grows
//! to the longest matching child list, which both manuscripts share).
//! And the served shapes' counts are pinned within 2 % either way, like
//! `tests/goddag_footprint.rs`: a growth fails and must be explained, a
//! shrink must be re-pinned in the same change.

use expath::{parse, Evaluator, OverlapIndex};
use goddag::Goddag;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts the calling thread's heap requests, so tests running in
/// parallel do not see each other's work.
struct Counting;

thread_local! {
    static REQUESTS: Cell<usize> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the slot may already be gone while a thread shuts down.
    let _ = REQUESTS.try_with(|r| r.set(r.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// thread-local cell that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same contract as ours.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as ours.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: same contract as ours.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The four `mixed.served` shapes (at one `k`), the 16-query palette's
/// only attribute predicate, and its string test.
const SHAPES: [&str; 6] = [
    "//line[@n='7']",
    "//ling:w[@n='7']",
    "//s[@n='7']/overlapping::phys:line",
    "//ling:w[position()=7]",
    "//line[@n='5']",
    "//ling:w[contains(string(.), 'th')]",
];

/// The same shapes where every candidate fails its predicate.
const REJECTING: [&str; 5] = [
    "//line[@n='none']",
    "//ling:w[@n='none']",
    "//s[@n='none']/overlapping::phys:line",
    "//ling:w[position()=100000]",
    "//ling:w[contains(string(.), 'zzz')]",
];

fn manuscript(words: usize) -> Goddag {
    let ms = corpus::generate(&corpus::Params { words, seed: 2005, ..Default::default() });
    let mut g = ms.goddag;
    corpus::dtds::attach_standard(&mut g);
    g
}

/// Heap requests of evaluating `query` on `g` from the root, and the
/// number of nodes it selects.
fn requests(g: &Goddag, index: &Arc<OverlapIndex>, query: &str) -> (usize, usize) {
    let ast = parse(query).unwrap();
    let ev = Evaluator::with_shared_index(g, Arc::clone(index));
    let before = REQUESTS.with(Cell::get);
    let value = ev.evaluate(&ast, g.root()).unwrap();
    let after = REQUESTS.with(Cell::get);
    (after - before, value.count().unwrap())
}

#[test]
fn a_rejected_candidate_costs_no_allocation() {
    let (small, large) = (manuscript(300), manuscript(2000));
    let small_index = Arc::new(OverlapIndex::build(&small));
    let large_index = Arc::new(OverlapIndex::build(&large));
    for q in REJECTING {
        let (at_300, selected_300) = requests(&small, &small_index, q);
        let (at_2000, selected_2000) = requests(&large, &large_index, q);
        eprintln!("{q}: {at_300} requests at 300 words, {at_2000} at 2 000");
        assert_eq!((selected_300, selected_2000), (0, 0), "{q} selects nothing");
        assert_eq!(at_300, at_2000, "{q}: rejected candidates allocated");
    }
}

/// One pinned figure: within 2 % of `pinned` either way (exact below 50).
fn assert_pinned(what: &str, measured: usize, pinned: usize) {
    assert!(
        (measured as f64 - pinned as f64).abs() <= pinned as f64 * 0.02,
        "{what}: {measured} requests, pinned at {pinned} (±2 %); re-pin a shrink, find the cause \
         of a growth"
    );
}

/// (requests, nodes selected) per [`SHAPES`] entry, at 300 and 2 000 words.
/// Before borrowed values these were 256, 2 111, 185, 444, 256 and 2 411
/// requests at 300 words, and 1 624, 14 015, 1 091, 2 681, 1 624 and
/// 16 015 at 2 000.
const PINS: [(usize, [(usize, usize); 6]); 2] = [
    (300, [(1, 1), (1, 1), (7, 2), (8, 23), (1, 1), (4, 27)]),
    (2000, [(1, 1), (1, 1), (7, 1), (11, 152), (1, 1), (7, 170)]),
];

#[test]
fn served_shapes_allocate_what_is_pinned() {
    for (words, pins) in PINS {
        let g = manuscript(words);
        let index = Arc::new(OverlapIndex::build(&g));
        for (q, (pinned, pinned_selected)) in SHAPES.iter().zip(pins) {
            let (measured, selected) = requests(&g, &index, q);
            eprintln!("{words} words, {q}: {measured} requests, {selected} selected");
            assert_eq!(selected, pinned_selected, "{words} words, {q}: selection changed");
            assert_pinned(&format!("{words} words, {q}"), measured, pinned);
        }
    }
}
