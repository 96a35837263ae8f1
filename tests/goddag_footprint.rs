//! The GODDAG's heap footprint, counted rather than timed.
//!
//! A std-only counting allocator tallies the live heap bytes and live
//! allocations of the thread that builds a document. Counts do not drift
//! from run to run, so the figures below are pinned: a growth of more than
//! 2 % fails, and so does a shrink of more than 2 %, which must be
//! re-pinned in the same change so the next growth is caught from there.
//!
//! The documents are `corpus::generate` manuscripts (seed 2005, three
//! overlapping hierarchies) with the standard DTDs attached — the
//! documents the served benchmark workloads hold.

use goddag::Goddag;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the calling thread's live bytes and live allocations, so tests
/// running in parallel do not see each other's work.
struct Counting;

thread_local! {
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static LIVE_ALLOCS: Cell<isize> = const { Cell::new(0) };
}

fn add(bytes: isize, allocs: isize) {
    // `try_with`: the slots may already be gone while a thread shuts down.
    let _ = LIVE_BYTES.try_with(|b| b.set(b.get() + bytes));
    let _ = LIVE_ALLOCS.try_with(|a| a.set(a.get() + allocs));
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// thread-local cells that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(layout.size() as isize, 1);
        // SAFETY: same contract as ours.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(-(layout.size() as isize), -1);
        // SAFETY: same contract as ours.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(new_size as isize - layout.size() as isize, 0);
        // SAFETY: same contract as ours.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Live heap bytes and allocations `make`'s result holds: everything it
/// allocated and did not free by the time it returned.
fn held<T>(make: impl FnOnce() -> T) -> (T, usize, usize) {
    let (b0, a0) = (LIVE_BYTES.with(Cell::get), LIVE_ALLOCS.with(Cell::get));
    let value = make();
    let (b1, a1) = (LIVE_BYTES.with(Cell::get), LIVE_ALLOCS.with(Cell::get));
    (value, (b1 - b0) as usize, (a1 - a0) as usize)
}

fn manuscript(words: usize) -> Goddag {
    let ms = corpus::generate(&corpus::Params { words, seed: 2005, ..Default::default() });
    let mut g = ms.goddag;
    corpus::dtds::attach_standard(&mut g);
    g
}

/// One pinned figure: within 2 % of `pinned` either way.
fn assert_pinned(what: &str, measured: usize, pinned: usize) {
    let (lo, hi) = (pinned as f64 * 0.98, pinned as f64 * 1.02);
    assert!(
        (lo..=hi).contains(&(measured as f64)),
        "{what}: {measured}, pinned at {pinned} (±2 %); re-pin a shrink, find the cause of a growth"
    );
}

/// Heap bytes and allocations of a built document and of its clone, per
/// word, against the pins; `estimated_bytes` within 5 % of the count.
fn check(words: usize, pins: [usize; 4]) {
    let (g, bytes, allocs) = held(|| manuscript(words));
    let (copy, copy_bytes, copy_allocs) = held(|| g.clone());
    eprintln!(
        "{words} words: built {bytes} B in {allocs} allocations ({:.1} B/word, {:.2}/word); \
         clone {copy_bytes} B in {copy_allocs} ({:.1} B/word, {:.2}/word)",
        bytes as f64 / words as f64,
        allocs as f64 / words as f64,
        copy_bytes as f64 / words as f64,
        copy_allocs as f64 / words as f64,
    );
    assert_pinned("built bytes", bytes, pins[0]);
    assert_pinned("built allocations", allocs, pins[1]);
    assert_pinned("clone bytes", copy_bytes, pins[2]);
    assert_pinned("clone allocations", copy_allocs, pins[3]);

    for (what, doc, counted) in [("built", &g, bytes), ("clone", &copy, copy_bytes)] {
        let stats = doc.stats();
        let estimated = stats.estimated_bytes;
        let off = (estimated as f64 - counted as f64).abs() / counted as f64;
        eprintln!(
            "{words} words, {what}: estimated_bytes {estimated} against {counted} counted; \
             leaves {:.1} B/word, elements {:.1} B/word",
            stats.leaf_bytes as f64 / words as f64,
            stats.element_bytes as f64 / words as f64,
        );
        assert!(
            off <= 0.05,
            "{what}: estimated_bytes {estimated} is {:.1} % off the counted {counted}",
            off * 100.0
        );
    }
}

#[test]
fn footprint_at_300_words() {
    check(300, [72_938, 469, 70_754, 469]);
}

#[test]
fn footprint_at_2000_words() {
    check(2000, [443_643, 2_563, 441_459, 2_563]);
}

#[test]
fn footprint_at_2000_words_meets_the_layout_budget() {
    let words = 2000;
    let (g, bytes, allocs) = held(|| manuscript(words));
    assert!(bytes <= 230 * words, "{bytes} B is over 230 B/word");
    assert!(allocs <= 2 * words, "{allocs} allocations is over 2/word");
    drop(g);
}
