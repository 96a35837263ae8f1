//! What the paper's core costs in heap, counted rather than timed.
//!
//! One std-only counting allocator tallies, per thread, the live heap bytes,
//! the live allocations and the heap requests (allocations and
//! reallocations), so tests running in parallel do not see each other's
//! work. Counts do not drift from run to run, so the figures below are
//! pinned within 2 % either way: a growth fails and must be explained, a
//! shrink must be re-pinned in the same change so the next growth is caught
//! from there.
//!
//! Four kinds of row share it:
//!
//! * the heap a built GODDAG and its clone hold, per word;
//! * the heap requests of one `expath` evaluation, per served query shape;
//! * the rule that a candidate its predicate rejects costs no allocation;
//! * experiment B5: one GODDAG against N separate DOM trees.
//!
//! The documents are `corpus::generate` manuscripts (seed 2005, three
//! overlapping hierarchies) with the standard DTDs attached, the documents
//! the served benchmark workloads hold; B5 sweeps one to three hierarchies
//! without DTDs.

use expath::{parse, Evaluator, OverlapIndex};
use goddag::Goddag;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;
use xmlcore::dom::Document;

/// Counts the calling thread's heap into [`TALLY`].
struct Counting;

/// One thread's heap counts.
#[derive(Clone, Copy)]
struct Tally {
    /// Bytes allocated and not yet freed.
    live_bytes: isize,
    /// Allocations not yet freed.
    live_allocs: isize,
    /// Allocations and reallocations made.
    requests: usize,
}

thread_local! {
    static TALLY: Cell<Tally> =
        const { Cell::new(Tally { live_bytes: 0, live_allocs: 0, requests: 0 }) };
}

fn add(bytes: isize, allocs: isize, requests: usize) {
    // `try_with`: the slot may already be gone while a thread shuts down.
    let _ = TALLY.try_with(|t| {
        let Tally { live_bytes, live_allocs, requests: made } = t.get();
        t.set(Tally {
            live_bytes: live_bytes + bytes,
            live_allocs: live_allocs + allocs,
            requests: made + requests,
        });
    });
}

// SAFETY: every call forwards to `System` unchanged; the tally is a
// thread-local cell that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as isize, 1, 1);
        // SAFETY: same contract as ours.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as isize), -1, 0);
        // SAFETY: same contract as ours.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as isize - layout.size() as isize, 0, 1);
        // SAFETY: same contract as ours.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What `work` cost the calling thread.
struct Cost {
    /// Heap bytes its result holds: allocated and not freed by the time it
    /// returned.
    bytes: usize,
    /// Allocations its result holds.
    allocs: usize,
    /// Heap requests it made.
    requests: usize,
}

fn counted<T>(work: impl FnOnce() -> T) -> (T, Cost) {
    let before = TALLY.with(Cell::get);
    let value = work();
    let after = TALLY.with(Cell::get);
    let cost = Cost {
        bytes: (after.live_bytes - before.live_bytes) as usize,
        allocs: (after.live_allocs - before.live_allocs) as usize,
        requests: after.requests - before.requests,
    };
    (value, cost)
}

/// One pinned figure: within 2 % of `pinned` either way (exact below 50).
fn assert_pinned(what: &str, measured: usize, pinned: usize) {
    assert!(
        (measured as f64 - pinned as f64).abs() <= pinned as f64 * 0.02,
        "{what}: {measured}, pinned at {pinned} (±2 %); re-pin a shrink, find the cause of a growth"
    );
}

fn manuscript(words: usize) -> Goddag {
    let ms = corpus::generate(&corpus::Params { words, seed: 2005, ..Default::default() });
    let mut g = ms.goddag;
    corpus::dtds::attach_standard(&mut g);
    g
}

// The GODDAG's footprint ----------------------------------------------------

/// Heap bytes and allocations of a built document and of its clone, per
/// word, against the pins; `estimated_bytes` within 5 % of the count.
fn check_footprint(words: usize, pins: [usize; 4]) {
    let (g, built) = counted(|| manuscript(words));
    let (copy, cloned) = counted(|| g.clone());
    eprintln!(
        "{words} words: built {} B in {} allocations ({:.1} B/word, {:.2}/word); \
         clone {} B in {} ({:.1} B/word, {:.2}/word)",
        built.bytes,
        built.allocs,
        built.bytes as f64 / words as f64,
        built.allocs as f64 / words as f64,
        cloned.bytes,
        cloned.allocs,
        cloned.bytes as f64 / words as f64,
        cloned.allocs as f64 / words as f64,
    );
    assert_pinned("built bytes", built.bytes, pins[0]);
    assert_pinned("built allocations", built.allocs, pins[1]);
    assert_pinned("clone bytes", cloned.bytes, pins[2]);
    assert_pinned("clone allocations", cloned.allocs, pins[3]);

    for (what, doc, count) in [("built", &g, built.bytes), ("clone", &copy, cloned.bytes)] {
        let stats = doc.stats();
        let estimated = stats.estimated_bytes;
        let off = (estimated as f64 - count as f64).abs() / count as f64;
        eprintln!(
            "{words} words, {what}: estimated_bytes {estimated} against {count} counted; \
             leaves {:.1} B/word, elements {:.1} B/word",
            stats.leaf_bytes as f64 / words as f64,
            stats.element_bytes as f64 / words as f64,
        );
        assert!(
            off <= 0.05,
            "{what}: estimated_bytes {estimated} is {:.1} % off the counted {count}",
            off * 100.0
        );
    }
}

#[test]
fn footprint_at_300_words() {
    check_footprint(300, [72_938, 469, 70_754, 469]);
}

#[test]
fn footprint_at_2000_words() {
    check_footprint(2000, [443_643, 2_563, 441_459, 2_563]);
}

#[test]
fn footprint_at_2000_words_meets_the_layout_budget() {
    let words = 2000;
    let (g, built) = counted(|| manuscript(words));
    assert!(built.bytes <= 230 * words, "{} B is over 230 B/word", built.bytes);
    assert!(built.allocs <= 2 * words, "{} allocations is over 2/word", built.allocs);
    drop(g);
}

// One `expath` evaluation ---------------------------------------------------
//
// Each query is parsed and its overlap index built before counting starts,
// as the store does, so the count is the evaluation's alone.

/// The four `mixed.served` shapes (at one `k`), the 16-query palette's
/// only attribute predicate, its string test, and an overlap predicate
/// that is evaluated as an expression per candidate.
const SHAPES: [&str; 7] = [
    "//line[@n='7']",
    "//ling:w[@n='7']",
    "//s[@n='7']/overlapping::phys:line",
    "//ling:w[position()=7]",
    "//line[@n='5']",
    "//ling:w[contains(string(.), 'th')]",
    "//s[overlapping::phys:line]",
];

/// The same shapes where every candidate fails its predicate.
const REJECTING: [&str; 5] = [
    "//line[@n='none']",
    "//ling:w[@n='none']",
    "//s[@n='none']/overlapping::phys:line",
    "//ling:w[position()=100000]",
    "//ling:w[contains(string(.), 'zzz')]",
];

/// Heap requests of evaluating `query` on `g` from the root, and the
/// number of nodes it selects.
fn requests(g: &Goddag, index: &Arc<OverlapIndex>, query: &str) -> (usize, usize) {
    let ast = parse(query).unwrap();
    let ev = Evaluator::with_shared_index(g, Arc::clone(index));
    let (value, cost) = counted(|| ev.evaluate(&ast, g.root()).unwrap());
    (cost.requests, value.count().unwrap())
}

/// A candidate its predicate rejects costs no allocation: a query that
/// matches nothing costs the same on a 300-word and a 2 000-word
/// manuscript, whose candidate lists differ about sevenfold (what it does
/// cost is per query: `//T[k]`'s one per-parent buffer grows to the longest
/// matching child list, which both manuscripts share).
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

/// (requests, nodes selected) per [`SHAPES`] entry, at 300 and 2 000 words.
/// Before borrowed values the first six were 256, 2 111, 185, 444, 256 and
/// 2 411 requests at 300 words, and 1 624, 14 015, 1 091, 2 681, 1 624 and
/// 16 015 at 2 000. The last still allocates per candidate: each evaluation
/// of its predicate's path grows that path's own buffers.
const PINS: [(usize, [(usize, usize); 7]); 2] = [
    (300, [(1, 1), (1, 1), (5, 2), (8, 23), (1, 1), (4, 27), (92, 23)]),
    (2000, [(1, 1), (1, 1), (5, 1), (11, 152), (1, 1), (7, 170), (581, 152)]),
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
            assert_pinned(&format!("{words} words, {q}, requests"), measured, pinned);
        }
    }
}

// Experiment B5: one GODDAG against N DOM trees -----------------------------

/// `estimated_bytes` of the GODDAG and the sum over the N DOM documents of
/// the same manuscript with its first `hierarchies` hierarchies (physical,
/// linguistic, editorial), and its content length.
fn goddag_and_doms(words: usize, hierarchies: usize) -> (usize, usize, usize) {
    let ms = corpus::generate(&corpus::Params {
        words,
        seed: 2005,
        physical: hierarchies >= 1,
        linguistic: hierarchies >= 2,
        damage_density: if hierarchies >= 3 { 0.08 } else { 0.0 },
        restoration_density: if hierarchies >= 3 { 0.05 } else { 0.0 },
        ..Default::default()
    });
    let doms = ms.distributed();
    assert_eq!(doms.len(), hierarchies);
    let dom_bytes =
        doms.iter().map(|(_, xml)| Document::parse(xml).unwrap().estimated_bytes()).sum();
    (ms.goddag.stats().estimated_bytes, dom_bytes, ms.goddag.content_len())
}

/// The GODDAG stores the text once, in leaves its hierarchies share; N DOM
/// documents store it N times. So each hierarchy past the first grows the
/// DOMs' sum by at least the content, and with two or three hierarchies the
/// GODDAG holds at most half of what the DOMs hold.
#[test]
fn one_goddag_holds_less_than_n_doms() {
    for words in [300, 2000] {
        let (_, mut previous, _) = goddag_and_doms(words, 1);
        for hierarchies in [2, 3] {
            let (goddag, doms, content) = goddag_and_doms(words, hierarchies);
            let grew = doms.saturating_sub(previous);
            eprintln!(
                "{words} words, {hierarchies} hierarchies: GODDAG {goddag} B, DOMs {doms} B \
                 (ratio {:.2}), DOMs grew {grew} B over {content} B of content",
                goddag as f64 / doms as f64,
            );
            assert!(
                grew >= content,
                "{words} words, {hierarchies} hierarchies: the DOMs grew {grew} B, less than the \
                 {content} B of content each repeats"
            );
            assert!(
                2 * goddag <= doms,
                "{words} words, {hierarchies} hierarchies: GODDAG {goddag} B is over half the \
                 DOMs' {doms} B"
            );
            previous = doms;
        }
    }
}
