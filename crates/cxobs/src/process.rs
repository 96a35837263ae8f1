//! What the failpoint table and the flight recorder share as
//! process-wide state: the PRNG step both draw from, the one page of
//! their lines, and the one guard that serializes tests touching either.

use crate::trace::{self, TraceConfig};
use crate::{fault, names, Exposition};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The splitmix64 increment: the step [`splitmix64`] advances its state
/// by, which lets the trace-id stream advance a shared atomic by the same
/// amount.
pub(crate) const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 PRNG step — tiny, seedable, and good enough for fault
/// schedules, trace ids and backoff jitter, all of which draw from it so
/// a seeded run replays without a rand crate.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Append the process-wide lines to a page: `cx_fault_hits_total` /
/// `cx_fault_fires_total` for each configured failpoint (sorted by
/// name), then the recorder's `cx_trace_*` counters. Both sources are
/// global, so a page carries them once (the cluster's does), not once
/// per store.
pub fn expose_process(out: &mut Exposition) {
    for s in fault::site_stats() {
        let site = s.site.to_string();
        out.write_with(names::FAULT_HITS_TOTAL, &[("site", &site)], s.hits);
        out.write_with(names::FAULT_FIRES_TOTAL, &[("site", &site)], s.fires);
    }
    trace::expose_into(out);
}

static SCENARIO: Mutex<()> = Mutex::new(());

/// Serializes tests that touch the process-wide diagnostics state and
/// leaves it clean: every failpoint disarmed, the flight recorder empty
/// and tracing off, on entry and again on drop (a panicking test body
/// included). Hold it for the whole test:
///
/// ```
/// use cxobs::fault::{self, Fault, Site, Trigger};
///
/// let _s = cxobs::Scenario::setup();
/// fault::configure(Site::WalAppend, Trigger::Nth(3), Fault::Io);
/// // … drive the workload …
/// // drop disarms every site even if the test panics first
/// ```
///
/// Any test that arms a failpoint, crosses a site a sibling in the same
/// binary may arm, or turns tracing on takes it; only
/// [`Scenario::traced`] / [`Scenario::traced_with`] turn tracing on.
pub struct Scenario {
    _guard: MutexGuard<'static, ()>,
}

impl Scenario {
    /// Take the process-wide lock on a clean, untraced state.
    pub fn setup() -> Scenario {
        // Poison recovery: the mutex carries no data — it only
        // serializes scenarios — and `reset` below clears whatever a
        // panicked predecessor left.
        let guard = SCENARIO.lock().unwrap_or_else(PoisonError::into_inner);
        reset();
        Scenario { _guard: guard }
    }

    /// [`Scenario::setup`] with tracing on under the default config.
    pub fn traced() -> Scenario {
        Scenario::traced_with(TraceConfig::default())
    }

    /// [`Scenario::setup`] with tracing on under an explicit config.
    pub fn traced_with(cfg: TraceConfig) -> Scenario {
        let s = Scenario::setup();
        trace::enable_with(cfg);
        s
    }
}

impl Drop for Scenario {
    fn drop(&mut self) {
        reset();
    }
}

fn reset() {
    trace::disable();
    trace::clear();
    fault::clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, Site, Trigger};

    /// Arm a failpoint, trace one request, and check the state is live.
    fn dirty_the_process() {
        fault::configure(Site::WalAppend, Trigger::Always, Fault::Io);
        drop(trace::span_or_root("dirty"));
        assert!(fault::fire(Site::WalAppend).is_some());
        assert_eq!(trace::recent().len(), 1);
        assert!(trace::enabled());
    }

    /// Check the state under the bare lock (`Scenario::setup` would reset
    /// it first), so no sibling test can touch it mid-check.
    fn assert_clean() {
        let _lock = SCENARIO.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(fault::site_stats().is_empty(), "every failpoint disarmed");
        assert_eq!(fault::fire(Site::WalAppend), None);
        assert!(trace::recent().is_empty() && trace::slow().is_empty(), "recorder emptied");
        assert_eq!(trace::stats(), trace::TraceStats::default());
        assert!(!trace::enabled(), "tracing off");
    }

    #[test]
    fn dropping_the_guard_leaves_a_clean_process_even_after_a_panic() {
        {
            let _s = Scenario::traced();
            dirty_the_process();
        }
        assert_clean();

        // A panicking body poisons the lock while the guard unwinds.
        let panicked = std::thread::spawn(|| {
            let _s = Scenario::traced();
            dirty_the_process();
            panic!("test body fails while holding the guard");
        })
        .join();
        assert!(panicked.is_err());
        assert!(SCENARIO.is_poisoned(), "the panic poisoned the lock");
        assert_clean();
        drop(Scenario::traced()); // a poisoned lock still hands out the guard
        assert_clean();
    }
}
