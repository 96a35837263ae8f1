//! A deterministic failpoint table.
//!
//! Production code names its fragile seams with a [`Site`]
//! (`fault::fire(Site::WalAppend)` at the top of the WAL append path,
//! `io_check(Site::WalFsync)` before the real fsync); tests arm those
//! sites with a [`Trigger`] policy and a [`Fault`] action, then drive
//! ordinary workloads and watch the stack absorb the failures. Nothing
//! here is probabilistic unless asked: [`Trigger::Nth`] and
//! [`Trigger::EveryN`] count hits, and [`Trigger::Probability`] draws
//! from a per-site [`splitmix64`] stream seeded at configure time, so a
//! fault schedule replays identically run after run.
//!
//! The seams are one closed enum, so a site is never a string: a typo is
//! a compile error, not a failpoint that silently never fires.
//!
//! ```compile_fail
//! cxobs::fault::fire("wal.append"); // a site is a `Site`, not a name
//! ```
//!
//! # Cost when idle
//!
//! The fast path of [`fire`] is one relaxed atomic load of the armed-site
//! count; with nothing configured that is a fraction of a nanosecond of
//! straight-line code and no lock (`perf_smoke` pins it).
//!
//! # Test isolation
//!
//! The table is global (sites are reached from arbitrary call depths;
//! threading a handle through every layer would defeat the point), so
//! every test that arms a failpoint — or crosses a site while a sibling
//! may arm it — holds [`crate::Scenario`], which serializes such tests
//! and clears the table on entry and drop.

use crate::splitmix64;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Declares [`Site`] with its `ALL` table and `name()` in one list, so
/// the three can never disagree.
macro_rules! sites {
    ($($(#[$doc:meta])* $variant:ident = $name:literal,)+) => {
        /// One of the stack's fragile seams — the closed set of places a
        /// fault can be injected.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub enum Site { $($(#[$doc])* $variant),+ }

        impl Site {
            /// Every site, in declaration order.
            pub const ALL: &'static [Site] = &[$(Site::$variant),+];

            /// The site's name: its `cx_fault_*{site=…}` label and the
            /// README failpoint table's first column.
            pub const fn name(self) -> &'static str {
                match self { $(Site::$variant => $name),+ }
            }
        }
    };
}

sites! {
    /// `wal.append` — every logged mutation (`cxpersist`): an `Io` append
    /// never reaches the disk, a `TornWrite` is cut mid-record; either way
    /// the store degrades.
    WalAppend = "wal.append",
    /// `wal.fsync` — the log fsync (per policy, `sync()`, heal probes).
    WalFsync = "wal.fsync",
    /// `checkpoint.rename` — the manifest publish rename of a checkpoint.
    CheckpointRename = "checkpoint.rename",
    /// `snapshot.capture` — the snapshot bootstrap capture a follower
    /// fetch triggers.
    SnapshotCapture = "snapshot.capture",
    /// `repl.fetch` — every fetch through `cxrepl::FaultTransport`; narrow
    /// it to one link with [`Site::link`].
    ReplFetch = "repl.fetch",
    /// `cluster.shard_query` — every shard's part of every fan-out: each
    /// worker of `Cluster::query_all_partial` (and so `Cluster::query_all`)
    /// and a shard-scoped server's `Cluster::query_shard`. `Delay` makes
    /// that shard slow, `Io` unavailable, without touching its store.
    ClusterShardQuery = "cluster.shard_query",
    /// `serve.request` — the top of every server request, before
    /// decoding: `Io` is answered as a typed `injected` frame, `Delay`
    /// stalls into a `deadline` frame, `Panic` is caught and answered as
    /// a `server` error.
    ServeRequest = "serve.request",
}

impl Site {
    /// This site narrowed to one numbered link (`repl.fetch.0`): armed
    /// and counted independently of the bare site and of every other
    /// link, so a multi-link test can fail one feed and spare the rest.
    pub const fn link(self, link: usize) -> Failpoint {
        Failpoint { site: self, link: Some(link) }
    }
}

/// What can be armed: a [`Site`], or one numbered link of it
/// ([`Site::link`]). Every entry point takes `impl Into<Failpoint>`, so a
/// bare `Site` works wherever a link does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Failpoint {
    site: Site,
    link: Option<usize>,
}

impl From<Site> for Failpoint {
    fn from(site: Site) -> Failpoint {
        Failpoint { site, link: None }
    }
}

impl fmt::Display for Failpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.site.name())?;
        match self.link {
            Some(link) => write!(f, ".{link}"),
            None => Ok(()),
        }
    }
}

/// When an armed site actually fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Every hit fires.
    Always,
    /// Exactly the n-th hit (1-based) fires, once.
    Nth(u64),
    /// Every n-th hit fires (n=3 → hits 3, 6, 9, …).
    EveryN(u64),
    /// Each hit fires with probability `p`, drawn from the site's seeded
    /// splitmix64 stream — deterministic for a fixed seed and hit order.
    Probability(f64),
}

/// What a firing site does to its caller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    /// Report an injected I/O failure (ENOSPC-style: the operation did
    /// not happen).
    Io,
    /// Report a torn write: the caller should persist only the given
    /// fraction (0.0–1.0) of its payload, then fail.
    TornWrite(f64),
    /// Sleep for the duration, then proceed normally — a slow disk or
    /// congested peer, not a broken one.
    Delay(Duration),
    /// Panic at the site (poisons locks held across it — the cascade the
    /// poison-tolerant guards must absorb).
    Panic,
}

/// What [`fire`] asks the call site to do. `Delay` and `Panic` are
/// executed inside [`fire`] itself, so sites only ever see the two
/// faults that need site-specific handling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InjectedFault {
    /// Fail the operation with an injected I/O error ([`io_error`]
    /// builds a consistent one).
    Io,
    /// Write only this fraction of the payload, then fail.
    Torn(f64),
}

/// One armed failpoint's schedule and counters.
struct Armed {
    trigger: Trigger,
    fault: Fault,
    /// splitmix64 state for `Probability` draws.
    rng: u64,
    hits: u64,
    fires: u64,
}

/// Hit/fire counts for one configured failpoint (see [`site_stats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteStats {
    pub site: Failpoint,
    pub hits: u64,
    pub fires: u64,
}

/// Number of armed failpoints — the [`fire`] fast path checks only this.
static ARMED: AtomicUsize = AtomicUsize::new(0);

static TABLE: Mutex<BTreeMap<Failpoint, Armed>> = Mutex::new(BTreeMap::new());

fn lock_table() -> MutexGuard<'static, BTreeMap<Failpoint, Armed>> {
    // Poison recovery: a panic while holding the table lock (only
    // possible through Fault::Panic, which fires after the guard is
    // dropped, or a caller panicking mid-configure) leaves plain counters
    // — safe to reuse.
    TABLE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arm `at` with a default seed. See [`configure_seeded`].
pub fn configure(at: impl Into<Failpoint>, trigger: Trigger, fault: Fault) {
    configure_seeded(at, trigger, fault, 0xc0ffee);
}

/// Arm `at`: subsequent [`fire`] calls there evaluate `trigger` and, when
/// due, perform `fault`. `seed` feeds the failpoint's private splitmix64
/// stream (only `Trigger::Probability` draws from it); the rendered name
/// is folded in so two failpoints armed with the same seed still see
/// independent streams. Re-configuring resets the counters.
pub fn configure_seeded(at: impl Into<Failpoint>, trigger: Trigger, fault: Fault, seed: u64) {
    let at = at.into();
    let mut h = seed;
    for b in at.to_string().bytes() {
        h = splitmix64(&mut h) ^ u64::from(b);
    }
    let mut map = lock_table();
    map.insert(at, Armed { trigger, fault, rng: h, hits: 0, fires: 0 });
    ARMED.store(map.len(), Ordering::Release);
}

/// Disarm one failpoint (its counters are discarded).
pub fn disarm(at: impl Into<Failpoint>) {
    let mut map = lock_table();
    map.remove(&at.into());
    ARMED.store(map.len(), Ordering::Release);
}

/// Disarm every site.
pub fn clear() {
    let mut map = lock_table();
    map.clear();
    ARMED.store(0, Ordering::Release);
}

/// Evaluate the failpoint at `at`. Returns `None` (by far the common
/// case — one relaxed load when nothing is armed) unless it is armed and
/// its trigger fires, in which case `Delay` sleeps and `Panic` panics
/// right here, while `Io` / `TornWrite` are returned for the call site to
/// enact.
#[inline]
pub fn fire(at: impl Into<Failpoint>) -> Option<InjectedFault> {
    if ARMED.load(Ordering::Relaxed) == 0 {
        return None;
    }
    fire_slow(at.into())
}

#[cold]
fn fire_slow(at: Failpoint) -> Option<InjectedFault> {
    let fault = {
        let mut map = lock_table();
        let s = map.get_mut(&at)?;
        s.hits += 1;
        let due = match s.trigger {
            Trigger::Always => true,
            Trigger::Nth(n) => s.hits == n,
            Trigger::EveryN(n) => n > 0 && s.hits.is_multiple_of(n),
            Trigger::Probability(p) => (splitmix64(&mut s.rng) as f64 / u64::MAX as f64) < p,
        };
        if !due {
            return None;
        }
        s.fires += 1;
        s.fault
        // Lock released here: Delay must not stall other sites, and
        // Panic must not poison the table.
    };
    match fault {
        Fault::Io => Some(InjectedFault::Io),
        Fault::TornWrite(frac) => Some(InjectedFault::Torn(frac.clamp(0.0, 1.0))),
        Fault::Delay(d) => {
            std::thread::sleep(d);
            None
        }
        Fault::Panic => panic!("cxobs::fault: injected panic at failpoint `{at}`"),
    }
}

/// The I/O error an injected fault reports — distinguishable in logs by
/// its message, ordinary `io::Error` to everything else (exactly how a
/// real ENOSPC would arrive).
pub fn io_error(at: impl Into<Failpoint>) -> std::io::Error {
    std::io::Error::other(format!("injected fault at failpoint `{}`", at.into()))
}

/// Fire the failpoint and fold any injected fault into an `io::Result` —
/// the one-liner for seams where "torn" and "failed" collapse to the
/// same thing (fsync, rename).
pub fn io_check(at: impl Into<Failpoint>) -> std::io::Result<()> {
    let at = at.into();
    match fire(at) {
        Some(_) => Err(io_error(at)),
        None => Ok(()),
    }
}

/// How many bytes of a `full`-byte payload a torn write should keep:
/// `frac` of them, but always at least one byte short of complete so the
/// tear is real (and never negative).
pub fn torn_len(full: usize, frac: f64) -> usize {
    let keep = (full as f64 * frac.clamp(0.0, 1.0)) as usize;
    keep.min(full.saturating_sub(1))
}

/// Lifetime hit count for `at` (0 if never armed).
pub fn hits(at: impl Into<Failpoint>) -> u64 {
    lock_table().get(&at.into()).map_or(0, |s| s.hits)
}

/// Lifetime fire count for `at` (0 if never armed).
pub fn fires(at: impl Into<Failpoint>) -> u64 {
    lock_table().get(&at.into()).map_or(0, |s| s.fires)
}

/// Hit/fire counts for every configured failpoint, sorted by rendered
/// name — the feed for `cx_fault_*` metric exposition.
pub fn site_stats() -> Vec<SiteStats> {
    let mut v: Vec<SiteStats> = lock_table()
        .iter()
        .map(|(&site, s)| SiteStats { site, hits: s.hits, fires: s.fires })
        .collect();
    v.sort_by_cached_key(|s| s.site.to_string());
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;

    #[test]
    fn sites_and_links_render_their_names() {
        let names: Vec<&str> = Site::ALL.iter().map(|s| s.name()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "site names are distinct: {names:?}");
        assert_eq!(Failpoint::from(Site::ReplFetch).to_string(), "repl.fetch");
        assert_eq!(Site::ReplFetch.link(1).to_string(), "repl.fetch.1");
    }

    #[test]
    fn unarmed_sites_are_silent() {
        let _fp = Scenario::setup();
        assert_eq!(fire(Site::WalAppend), None);
        assert_eq!(hits(Site::WalAppend), 0);
    }

    #[test]
    fn nth_fires_exactly_once() {
        let _fp = Scenario::setup();
        configure(Site::WalAppend, Trigger::Nth(3), Fault::Io);
        let fired: Vec<bool> = (0..6).map(|_| fire(Site::WalAppend).is_some()).collect();
        assert_eq!(fired, vec![false, false, true, false, false, false]);
        assert_eq!(hits(Site::WalAppend), 6);
        assert_eq!(fires(Site::WalAppend), 1);
    }

    #[test]
    fn every_n_keeps_cadence() {
        let _fp = Scenario::setup();
        configure(Site::WalFsync, Trigger::EveryN(3), Fault::Io);
        let fired: Vec<bool> = (0..9).map(|_| fire(Site::WalFsync).is_some()).collect();
        assert_eq!(fired, vec![false, false, true, false, false, true, false, false, true]);
    }

    #[test]
    fn probability_replays_a_pinned_schedule_for_a_seed() {
        let _fp = Scenario::setup();
        let run = |seed| -> String {
            configure_seeded(Site::ReplFetch, Trigger::Probability(0.4), Fault::Io, seed);
            (0..64).map(|_| if fire(Site::ReplFetch).is_some() { '1' } else { '0' }).collect()
        };
        // Recorded before the failpoint table moved into this crate: the
        // seed-folding and the PRNG step must never change a schedule.
        let pinned = "0110001000010100001101010010100011100100110111001010000111000001";
        assert_eq!(run(42), pinned);
        assert_eq!(run(42), pinned, "same seed, same hit order → same schedule");
        assert_ne!(run(43), pinned, "a different seed gives a different schedule");
    }

    #[test]
    fn torn_write_reports_clamped_fraction() {
        let _fp = Scenario::setup();
        configure(Site::WalAppend, Trigger::Always, Fault::TornWrite(1.7));
        assert_eq!(fire(Site::WalAppend), Some(InjectedFault::Torn(1.0)));
        assert_eq!(torn_len(100, 1.0), 99, "a tear always drops at least one byte");
        assert_eq!(torn_len(100, 0.5), 50);
        assert_eq!(torn_len(0, 0.5), 0);
    }

    #[test]
    fn delay_sleeps_then_proceeds() {
        let _fp = Scenario::setup();
        configure(Site::ServeRequest, Trigger::Always, Fault::Delay(Duration::from_millis(15)));
        let t0 = std::time::Instant::now();
        assert_eq!(fire(Site::ServeRequest), None, "delay is transparent to the caller");
        assert!(t0.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn io_check_surfaces_the_site_name() {
        let _fp = Scenario::setup();
        configure(Site::WalFsync, Trigger::Always, Fault::Io);
        let err = io_check(Site::WalFsync).unwrap_err();
        assert!(err.to_string().contains("wal.fsync"), "got: {err}");
        assert!(io_check(Site::CheckpointRename).is_ok());
    }

    #[test]
    fn links_arm_independently_of_their_site() {
        let _fp = Scenario::setup();
        configure(Site::ReplFetch.link(0), Trigger::Always, Fault::Io);
        assert!(fire(Site::ReplFetch.link(0)).is_some());
        assert_eq!(fire(Site::ReplFetch.link(1)), None);
        assert_eq!(fire(Site::ReplFetch), None);
        let err = io_check(Site::ReplFetch.link(0)).unwrap_err();
        assert!(err.to_string().contains("`repl.fetch.0`"), "got: {err}");
    }

    #[test]
    fn stats_enumerate_configured_sites_by_name() {
        let _fp = Scenario::setup();
        configure(Site::ServeRequest, Trigger::Always, Fault::Io);
        configure(Site::CheckpointRename, Trigger::EveryN(2), Fault::Io);
        fire(Site::ServeRequest);
        fire(Site::CheckpointRename);
        let stats = site_stats();
        let row = |site: Site, hits, fires| SiteStats { site: site.into(), hits, fires };
        assert_eq!(
            stats,
            vec![row(Site::CheckpointRename, 1, 0), row(Site::ServeRequest, 1, 1)],
            "sorted by name, not declaration order"
        );
        disarm(Site::ServeRequest);
        assert_eq!(site_stats().len(), 1);
    }

    #[test]
    #[should_panic(expected = "injected panic at failpoint `snapshot.capture`")]
    fn panic_action_panics_at_the_site() {
        let _fp = Scenario::setup();
        configure(Site::SnapshotCapture, Trigger::Always, Fault::Panic);
        fire(Site::SnapshotCapture);
    }
}
