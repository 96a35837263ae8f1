//! The replication loop: drive a transport, keep a replica converged.

use crate::error::{ReplError, Result};
use crate::replica::ReplicaStore;
use crate::transport::{FetchResponse, LogTransport};
use cxpersist::StoreSnapshot;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Default per-fetch byte budget (the primary always ships at least one
/// whole record regardless).
const DEFAULT_BATCH_BYTES: usize = 1 << 20;

/// What one [`Follower::sync_once`] round did.
#[derive(Debug, Clone, Copy)]
pub enum SyncProgress {
    /// Nothing to fetch — the replica is at the primary's head.
    CaughtUp,
    /// A record batch applied.
    Applied {
        /// Records applied this round.
        records: u64,
        /// Whether the batch arrived torn (tail dropped, next round
        /// re-requests it).
        torn: bool,
    },
    /// A snapshot bootstrap installed.
    SnapshotInstalled {
        /// The snapshot's LSN (the replica's new position).
        lsn: u64,
    },
}

/// Why a background follower parked — typed so callers branch on cause
/// instead of string-matching ([`FollowerHandle::terminal_error`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FollowerError {
    /// The replica's history disagrees with the primary's (split history,
    /// epoch mismatch). Re-bootstrap or promote; no retry heals it.
    Diverged {
        /// What disagreed.
        detail: String,
    },
    /// The shipped stream skipped records — applying would corrupt.
    Gap {
        /// The LSN the replica expected next.
        expected: u64,
        /// The LSN the stream delivered.
        got: u64,
    },
    /// The transport (or the peer behind it) failed unrecoverably: an
    /// oversized frame, a protocol violation, or a retry budget spent on
    /// remote/protocol errors.
    Transport {
        /// The last failure.
        detail: String,
    },
    /// Local or link-level I/O exhausted the retry budget.
    Io {
        /// The last failure.
        detail: String,
    },
}

impl FollowerError {
    /// Classify a [`ReplError`] into the park taxonomy.
    fn from_repl(e: &ReplError) -> FollowerError {
        match e {
            ReplError::Diverged { detail } => FollowerError::Diverged { detail: detail.clone() },
            ReplError::Gap { expected, got } => {
                FollowerError::Gap { expected: *expected, got: *got }
            }
            ReplError::Io(io) => FollowerError::Io { detail: io.to_string() },
            other => FollowerError::Transport { detail: other.to_string() },
        }
    }
}

impl fmt::Display for FollowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FollowerError::Diverged { detail } => write!(f, "replica diverged: {detail}"),
            FollowerError::Gap { expected, got } => {
                write!(f, "shipped stream gap: expected LSN {expected}, got {got}")
            }
            FollowerError::Transport { detail } => write!(f, "transport failed: {detail}"),
            FollowerError::Io { detail } => write!(f, "i/o failed: {detail}"),
        }
    }
}

impl std::error::Error for FollowerError {}

/// How a background follower paces itself ([`Follower::spawn_with`]).
///
/// Two distinct cadences: a *healthy, idle* stream (the primary reported
/// caught-up) sleeps the fixed `poll` interval, while an *erroring*
/// stream walks an exponential backoff curve — `backoff_base`, doubled
/// per consecutive failure, capped at `backoff_max` — with deterministic
/// jitter carved out of each delay so a fleet of followers losing the
/// same primary doesn't stampede it on recovery. An optional
/// `retry_budget` parks the loop (with a typed [`FollowerError`]) after
/// that many consecutive transient failures instead of retrying forever.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Sleep between polls while caught up.
    pub poll: Duration,
    /// First retry delay after a transient error.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Fraction of each delay randomized away (0.0 = none, 1.0 = the
    /// whole delay); drawn from a seeded splitmix64 stream, so runs are
    /// reproducible.
    pub jitter: f64,
    /// Consecutive transient failures tolerated before the loop parks
    /// (`None`: retry forever — the replica keeps serving stale reads).
    pub retry_budget: Option<u32>,
    /// Seed for the jitter stream.
    pub seed: u64,
}

impl RetryPolicy {
    /// The default curve for a given poll interval: backoff starts at
    /// the poll interval, doubles to a 64× ceiling (at most 30 s), takes
    /// up to half of each delay as jitter, and never parks on transient
    /// errors.
    pub fn new(poll: Duration) -> RetryPolicy {
        let base = poll.max(Duration::from_millis(1));
        RetryPolicy {
            poll,
            backoff_base: base,
            backoff_max: base.saturating_mul(64).min(Duration::from_secs(30)).max(base),
            jitter: 0.5,
            retry_budget: None,
            seed: 0x5eed_f01d,
        }
    }

    /// Park after `budget` consecutive transient failures.
    pub fn with_retry_budget(mut self, budget: u32) -> RetryPolicy {
        self.retry_budget = Some(budget.max(1));
        self
    }

    /// The delay before retry number `consecutive` (1-based), advancing
    /// the jitter stream `rng`.
    pub fn delay(&self, consecutive: u32, rng: &mut u64) -> Duration {
        let exp = consecutive.saturating_sub(1).min(16);
        let d = self
            .backoff_base
            .max(Duration::from_micros(1))
            .saturating_mul(1u32 << exp)
            .min(self.backoff_max);
        let frac = cxobs::splitmix64(rng) as f64 / u64::MAX as f64;
        d.mul_f64(1.0 - self.jitter.clamp(0.0, 1.0) * frac)
    }
}

/// A follower: one replica plus the transport that feeds it. Use
/// [`Follower::sync_once`]/[`Follower::catch_up`] to drive it explicitly
/// (tests, benches, request-time freshness barriers) or
/// [`Follower::spawn`] for a background tailing thread.
pub struct Follower<T: LogTransport> {
    replica: Arc<ReplicaStore>,
    transport: T,
    batch_bytes: usize,
}

impl<T: LogTransport> Follower<T> {
    /// A follower feeding `replica` over `transport`.
    pub fn new(replica: Arc<ReplicaStore>, transport: T) -> Follower<T> {
        Follower { replica, transport, batch_bytes: DEFAULT_BATCH_BYTES }
    }

    /// Override the per-fetch byte budget.
    pub fn with_batch_bytes(mut self, bytes: usize) -> Follower<T> {
        self.batch_bytes = bytes.max(1);
        self
    }

    /// The replica this follower feeds.
    pub fn replica(&self) -> &Arc<ReplicaStore> {
        &self.replica
    }

    /// Dissolve the follower, returning its transport — e.g. to reuse one
    /// TCP connection for a sequence of replicas.
    pub fn into_transport(self) -> T {
        self.transport
    }

    /// One fetch/apply round.
    pub fn sync_once(&mut self) -> Result<SyncProgress> {
        match self.transport.fetch(self.replica.last_applied(), self.batch_bytes)? {
            FetchResponse::CaughtUp { head } => {
                self.replica.observe_head(head);
                Ok(SyncProgress::CaughtUp)
            }
            FetchResponse::Records { head, bytes } => {
                self.replica.observe_head(head);
                let b = self.replica.apply_batch(&bytes)?;
                Ok(SyncProgress::Applied { records: b.applied, torn: b.torn })
            }
            FetchResponse::Snapshot { head, bytes } => {
                let text = std::str::from_utf8(&bytes).map_err(|_| {
                    crate::error::ReplError::Protocol("snapshot payload is not UTF-8".into())
                })?;
                let snap = StoreSnapshot::parse_text(text)?;
                self.replica.observe_head(head);
                self.replica.install_snapshot(&snap)?;
                Ok(SyncProgress::SnapshotInstalled { lsn: snap.lsn })
            }
        }
    }

    /// Sync rounds until the primary reports caught-up. Returns records
    /// applied (snapshot bootstraps not counted — they replace, not
    /// apply).
    pub fn catch_up(&mut self) -> Result<u64> {
        let mut total = 0;
        loop {
            match self.sync_once()? {
                SyncProgress::CaughtUp => return Ok(total),
                SyncProgress::Applied { records, .. } => total += records,
                SyncProgress::SnapshotInstalled { .. } => {}
            }
        }
    }

    /// Tail the primary on a background thread with the default
    /// [`RetryPolicy`] for `poll`: a caught-up stream sleeps the poll
    /// interval, an erroring one walks the backoff curve — the two are
    /// *not* the same sleep, because an idle primary deserves prompt
    /// tailing while a struggling one deserves room to recover.
    pub fn spawn(self, poll: Duration) -> FollowerHandle
    where
        T: 'static,
    {
        self.spawn_with(RetryPolicy::new(poll))
    }

    /// [`Follower::spawn`] with an explicit pacing policy.
    ///
    /// *Transient* errors (a dead or restarting primary, a torn
    /// connection) are retried along `policy`'s backoff curve while the
    /// replica keeps serving reads at its last applied state — exactly
    /// the availability contract that makes promotion possible. A
    /// configured retry budget bounds that patience: spending it parks
    /// the loop with a typed [`FollowerError`]. *Terminal* errors —
    /// [`ReplError::Diverged`], [`ReplError::Gap`] and
    /// [`ReplError::FrameTooLarge`], which no retry of the same stream
    /// can ever heal — park immediately and surface through
    /// [`FollowerHandle::terminal_error`]: a diverged replica must read
    /// as *failed*, not as quietly stale. Every backoff, recovery, and
    /// park emits a cxobs event on the replica's registry.
    pub fn spawn_with(self, policy: RetryPolicy) -> FollowerHandle
    where
        T: 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let replica = Arc::clone(&self.replica);
        let stop2 = Arc::clone(&stop);
        let terminal: Arc<Mutex<Option<FollowerError>>> = Arc::default();
        let terminal2 = Arc::clone(&terminal);
        let thread = std::thread::spawn(move || {
            let mut f = self;
            let mut rng = policy.seed;
            let mut failures: u32 = 0;
            let park = |f: &Follower<T>, e: FollowerError| {
                f.replica.store().registry().event("follower.parked", e.to_string());
                // Poison recovery: the slot holds one whole Option write,
                // so a panicked holder cannot leave a torn value.
                *terminal2.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(e);
            };
            while !stop2.load(Ordering::Relaxed) {
                match f.sync_once() {
                    Ok(progress) => {
                        if failures > 0 {
                            failures = 0;
                            f.replica
                                .store()
                                .registry()
                                .event("follower.recovered", "transient fault cleared");
                        }
                        if matches!(progress, SyncProgress::CaughtUp) {
                            // Primary idle, stream healthy: plain polling.
                            sleep_responsive(&stop2, policy.poll);
                        }
                    }
                    Err(
                        e @ (ReplError::Diverged { .. }
                        | ReplError::Gap { .. }
                        | ReplError::FrameTooLarge { .. }),
                    ) => {
                        return park(&f, FollowerError::from_repl(&e));
                    }
                    Err(e) => {
                        // Primary erroring (unreachable, mid-restart):
                        // back off exponentially, not at the poll cadence.
                        failures += 1;
                        if let Some(budget) = policy.retry_budget.filter(|&b| failures >= b) {
                            let spent = match FollowerError::from_repl(&e) {
                                FollowerError::Io { detail } => FollowerError::Io {
                                    detail: format!("retry budget ({budget}) exhausted: {detail}"),
                                },
                                other => FollowerError::Transport {
                                    detail: format!("retry budget ({budget}) exhausted: {other}"),
                                },
                            };
                            return park(&f, spent);
                        }
                        let delay = policy.delay(failures, &mut rng);
                        f.replica.store().registry().event(
                            "follower.backoff",
                            format!("fetch failed ({e}); retry #{failures} in {delay:?}"),
                        );
                        sleep_responsive(&stop2, delay);
                    }
                }
            }
        });
        FollowerHandle { stop, thread, replica, terminal }
    }
}

/// Sleep up to `total`, waking early when `stop` is raised — a parked-in
/// -backoff follower must still join promptly on
/// [`FollowerHandle::stop`].
fn sleep_responsive(stop: &AtomicBool, total: Duration) {
    let chunk = Duration::from_millis(20);
    let mut remaining = total;
    while !stop.load(Ordering::Relaxed) && remaining > Duration::ZERO {
        let step = remaining.min(chunk);
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
}

/// Handle to a background follower thread.
pub struct FollowerHandle {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
    replica: Arc<ReplicaStore>,
    terminal: Arc<Mutex<Option<FollowerError>>>,
}

impl FollowerHandle {
    /// The replica the background thread feeds.
    pub fn replica(&self) -> &Arc<ReplicaStore> {
        &self.replica
    }

    /// The typed error that parked the tailing loop, if any (divergence,
    /// a stream gap, an unhealable transport condition, or an exhausted
    /// retry budget). `None` means the loop is live — healthy or merely
    /// backing off on a transient failure. A parked replica still serves
    /// reads at its last applied state, but it will never advance;
    /// re-bootstrap or promote it.
    pub fn terminal_error(&self) -> Option<FollowerError> {
        // Poison recovery: writes are single whole-Option stores, so a
        // recovered guard always reads a coherent error.
        self.terminal.lock().unwrap_or_else(std::sync::PoisonError::into_inner).clone()
    }

    /// Stop the loop and join the thread, returning the replica (its Arc
    /// count drops with the thread, so a caller holding the last clone can
    /// promote it).
    pub fn stop(self) -> Arc<ReplicaStore> {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.thread.join();
        self.replica
    }
}
