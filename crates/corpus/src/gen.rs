//! One seeded generator behind every randomised test, with internal
//! shrinking in the style of Hypothesis (MacIver & Donaldson, ECOOP 2020).
//!
//! A property draws every random choice from a [`Source`], which records
//! the value each draw returned. [`check`] runs a property over seeded
//! cases; when one panics, it shrinks the *choice list* — deleting runs of
//! choices, then lowering each one toward 0 — and keeps a candidate only if
//! replaying it still panics. No generator needs a shrinker of its own:
//! fewer and smaller choices make fewer ops, shorter strings and shallower
//! trees by construction. The failure names a paste-ready [`replay`] line.
//!
//! ```
//! corpus::gen::check("sorting_is_idempotent", 32, |src| {
//!     let mut v: Vec<u64> = (0..src.index(10)).map(|_| src.below(100)).collect();
//!     v.sort();
//!     let once = v.clone();
//!     v.sort();
//!     assert_eq!(v, once);
//! });
//! ```

use crate::text::SplitMix64;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// Replays one shrink may spend, however far it has got.
const REPLAY_BUDGET: usize = 1_000;

/// Where a property's random choices come from: a seeded stream, or a
/// recorded choice list being replayed.
pub struct Source {
    rng: Option<SplitMix64>,
    replay: Vec<u64>,
    choices: Vec<u64>,
}

impl Source {
    fn random(seed: u64) -> Source {
        Source { rng: Some(SplitMix64(seed)), replay: Vec::new(), choices: Vec::new() }
    }

    fn replaying(choices: &[u64]) -> Source {
        Source { rng: None, replay: choices.to_vec(), choices: Vec::new() }
    }

    /// Uniform value in `[0, n)`; `n` must be nonzero. A replayed value is
    /// reduced to the bound, and a draw past the recorded list returns 0.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        let raw = match &mut self.rng {
            Some(rng) => rng.next_u64(),
            None => self.replay.get(self.choices.len()).copied().unwrap_or(0),
        };
        self.choices.push(raw % n);
        raw % n
    }

    /// [`Source::below`] for lengths and indices.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// One of `items`, which must be non-empty.
    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.index(items.len())]
    }

    /// The choices drawn so far, trailing zeros dropped: replay draws
    /// those past the end of its list anyway.
    fn recorded(&self) -> Vec<u64> {
        let end = self.choices.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
        self.choices[..end].to_vec()
    }
}

/// A failing case, after shrinking.
#[derive(Debug)]
struct Failure {
    case: u32,
    seed: u64,
    drawn: usize,
    choices: Vec<u64>,
    message: String,
}

/// Run `prop` on `cases` cases seeded from `name`; on a panic, shrink the
/// case and panic with the name, the case, its seed, the shrunk case's
/// message and the [`replay`] line that reproduces it.
pub fn check(name: &str, cases: u32, prop: impl Fn(&mut Source)) {
    if let Some(f) = find_failure(name, cases, &prop) {
        let list = format!("{:?}", f.choices);
        panic!(
            "property `{name}` failed on case {} of {cases} (seed {:#018x}); shrunk {} choices \
             to {}:\n{}\nreplay it with `corpus::gen::replay(&{list}, …)` in place of \
             `corpus::gen::check({name:?}, {cases}, …)`",
            f.case,
            f.seed,
            f.drawn,
            f.choices.len(),
            f.message
        );
    }
}

/// Run `prop` once on a recorded choice list, as printed by [`check`].
pub fn replay(choices: &[u64], prop: impl FnOnce(&mut Source)) {
    prop(&mut Source::replaying(choices));
}

fn find_failure(name: &str, cases: u32, prop: &dyn Fn(&mut Source)) -> Option<Failure> {
    let mut seeds = SplitMix64(fnv1a(name));
    for case in 0..cases {
        let seed = seeds.next_u64();
        let mut src = Source::random(seed);
        if let Err(message) = quietly(|| prop(&mut src)) {
            let drawn = src.choices.len();
            let (choices, message) = shrink(prop, src.recorded(), message);
            return Some(Failure { case, seed, drawn, choices, message });
        }
    }
    None
}

/// Shrink a failing choice list: delete runs of 8, 4, 2 and 1 choices,
/// then lower each choice by binary search toward 0, until a full round
/// improves nothing or the replay budget is spent.
fn shrink(prop: &dyn Fn(&mut Source), best: Vec<u64>, message: String) -> (Vec<u64>, String) {
    let mut s = Shrinker { prop, budget: REPLAY_BUDGET, best, message };
    loop {
        let before = s.best.clone();
        for k in [8, 4, 2, 1] {
            let mut i = 0;
            while i + k <= s.best.len() {
                let mut candidate = s.best.clone();
                candidate.drain(i..i + k);
                if !s.attempt(&candidate) {
                    i += 1;
                }
            }
        }
        for i in 0.. {
            let Some(&value) = s.best.get(i) else { break };
            // `value` fails; find the least value at `i` that still does.
            let (mut lo, mut hi) = (0, value);
            while lo < hi && i < s.best.len() {
                let mid = lo + (hi - lo) / 2;
                let mut candidate = s.best.clone();
                candidate[i] = mid;
                if s.attempt(&candidate) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
        }
        if s.best == before || s.budget == 0 {
            return (s.best, s.message);
        }
    }
}

/// The simplest failing choice list found so far.
struct Shrinker<'a> {
    prop: &'a dyn Fn(&mut Source),
    budget: usize,
    best: Vec<u64>,
    message: String,
}

impl Shrinker<'_> {
    /// Replay `candidate`. If it still fails and what it drew is shorter
    /// than the best list, or as long and lexicographically smaller, that
    /// becomes the best list.
    fn attempt(&mut self, candidate: &[u64]) -> bool {
        if self.budget == 0 {
            return false;
        }
        self.budget -= 1;
        let mut src = Source::replaying(candidate);
        let Err(message) = quietly(|| (self.prop)(&mut src)) else { return false };
        let drawn = src.recorded();
        if (drawn.len(), &drawn) >= (self.best.len(), &self.best) {
            return false;
        }
        (self.best, self.message) = (drawn, message);
        true
    }
}

thread_local! {
    /// Set while this thread runs a case it expects may panic.
    static QUIET: Cell<bool> = const { Cell::new(false) };
}

/// Run `f`, catching a panic as its message. The panic hook stays quiet on
/// this thread meanwhile; other threads' panics print as before.
fn quietly(f: impl FnOnce()) -> Result<(), String> {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !QUIET.with(Cell::get) {
                previous(info);
            }
        }));
    });
    let outer = QUIET.with(|q| q.replace(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    QUIET.with(|q| q.set(outer));
    result.map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "(non-string panic payload)".to_string())
    })
}

/// FNV-1a of a property's name: every property gets its own stream.
fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ b as u64).wrapping_mul(0x1000_0000_01b3))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Fails once three of its drawn values reach 100.
    fn three_large(src: &mut Source) {
        let v: Vec<u64> = (0..src.index(10)).map(|_| src.below(1_000)).collect();
        assert!(v.iter().filter(|&&x| x >= 100).count() < 3, "three large values in {v:?}");
    }

    #[test]
    fn a_failure_shrinks_to_the_least_choice_list() {
        let f = find_failure("three_large", 100, &three_large).expect("the property fails");
        assert_eq!(f.choices, [3, 100, 100, 100]);
        assert_eq!(f.message, "three large values in [100, 100, 100]");
        assert!(f.drawn > 4, "the original case drew {} choices", f.drawn);
        let replayed = quietly(|| replay(&f.choices, three_large));
        assert_eq!(replayed, Err(f.message));
    }

    #[test]
    fn check_names_the_case_and_the_replay_line() {
        let report = quietly(|| check("three_large", 100, three_large)).unwrap_err();
        assert!(report.starts_with("property `three_large` failed on case "), "{report}");
        assert!(report.contains("`corpus::gen::replay(&[3, 100, 100, 100], …)`"), "{report}");
    }

    #[test]
    fn a_passing_property_reports_nothing() {
        assert!(find_failure("bounded", 64, &|src| assert!(src.below(7) < 7)).is_none());
    }

    #[test]
    fn replay_reduces_to_the_bound_and_pads_with_zeros() {
        let mut src = Source::replaying(&[12, 3]);
        assert_eq!((src.below(5), src.below(10), src.below(10)), (2, 3, 0));
        assert_eq!(src.recorded(), [2, 3]);
    }

    #[test]
    fn the_stream_is_seeded_by_the_name() {
        let draws = |name: &str| {
            let mut seeds = SplitMix64(fnv1a(name));
            let mut src = Source::random(seeds.next_u64());
            (0..4).map(|_| src.below(1 << 40)).collect::<Vec<_>>()
        };
        assert_eq!(draws("a"), draws("a"));
        assert_ne!(draws("a"), draws("b"));
    }
}
