//! The applying side: a live read-only store that follows a shipped log.

use crate::error::{ReplError, Result};
use cxobs::{names, Exposition, Histogram, Observable};
use cxpersist::{apply_logged, scan_batch, Applied, DurableStore, Options, StoreSnapshot};
use cxstore::{Store, StoreStats};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// How one batch application went.
#[derive(Debug, Clone, Copy)]
pub struct BatchApply {
    /// Records applied (structurally-rejected re-failures included — the
    /// same determinism contract the recovery replay relies on).
    pub applied: u64,
    /// Of those, records whose operation re-failed structurally (logged
    /// on the primary before a deterministic post-log failure).
    pub rejected: u64,
    /// Whether a torn/corrupt tail was dropped — the caller re-requests
    /// from [`ReplicaStore::last_applied`].
    pub torn: bool,
}

#[derive(Default)]
struct ReplicaCounters {
    records_applied: AtomicU64,
    records_rejected: AtomicU64,
    batches: AtomicU64,
    torn_batches: AtomicU64,
    snapshots_installed: AtomicU64,
}

/// Poison-tolerant: the apply mutex serializes batch application; each
/// record applies atomically through the store's own edit path, so a
/// panic mid-batch (injected or real) leaves the replica at a record
/// boundary — the next sync re-requests from `last_applied` and
/// continues, which is precisely the torn-batch contract.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A read replica: a live [`cxstore::Store`] that continuously applies a
/// primary's shipped WAL records while serving queries ([`Store::query`],
/// [`Store::query_all`], stand-off export, …) concurrently.
///
/// The apply path **bypasses the prevalidation gate** — the primary
/// already gated every logged operation, and gate-rejected edits never
/// reach the log — but **verifies the recorded edit epoch** of every
/// record against the live document — it is [`cxpersist::apply_logged`],
/// the same function crash recovery replays its log with: a mismatch means
/// the replica's history diverged from the primary's, and the replica
/// refuses to apply further rather than serve wrong data.
///
/// Appliers are serialized (one batch at a time, in LSN order); readers
/// are not — the underlying store's per-document locks let queries run
/// against documents the current batch is not touching, and see each
/// applied record atomically on documents it is.
pub struct ReplicaStore {
    store: Store,
    /// Serializes appliers, and holds what must move atomically with the
    /// applied LSN: the documents the shipped stream has removed so far
    /// ([`apply_logged`] tolerates an edit logged just after a concurrent
    /// remove of its document).
    apply: Mutex<HashSet<u64>>,
    last_applied: AtomicU64,
    last_head: AtomicU64,
    counters: ReplicaCounters,
    /// One `apply_batch` round (on the replica store's registry).
    apply_ns: Arc<Histogram>,
}

impl Default for ReplicaStore {
    fn default() -> ReplicaStore {
        ReplicaStore::new()
    }
}

impl ReplicaStore {
    /// An empty replica at LSN 0 (its first fetch bootstraps it — via
    /// records if the primary's log still starts at 1, via snapshot
    /// otherwise).
    pub fn new() -> ReplicaStore {
        let store = Store::new();
        let apply_ns = store.registry().histogram(names::REPL_APPLY_NS);
        ReplicaStore {
            store,
            apply: Mutex::default(),
            last_applied: AtomicU64::new(0),
            last_head: AtomicU64::new(0),
            counters: ReplicaCounters::default(),
            apply_ns,
        }
    }

    /// The read surface. **Do not mutate through this reference** — a
    /// replica's only legitimate mutations are applied log records, and a
    /// local write would diverge the epochs the next record verifies.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// LSN of the last applied record.
    pub fn last_applied(&self) -> u64 {
        self.last_applied.load(Ordering::Acquire)
    }

    /// Replication lag in records: last observed primary head minus last
    /// applied LSN.
    ///
    /// The pair is read coherently: the apply path raises `last_head` to
    /// at least the applied LSN (release) *before* publishing
    /// `last_applied` (release), and this reads `last_applied` first
    /// (acquire) — so the head read afterwards is from no earlier than the
    /// moment that applied value was published, and `head ≥ applied` holds
    /// for every observation. A sampler can never see a fresh applied LSN
    /// against a stale head (phantom negative lag clamped to zero) or
    /// tear the pair into a garbage spike; `applied + lag` is monotone.
    pub fn lag(&self) -> u64 {
        let applied = self.last_applied.load(Ordering::Acquire);
        let head = self.last_head.load(Ordering::Acquire);
        head.saturating_sub(applied)
    }

    /// Record the primary's head LSN as seen in a fetch response.
    pub fn observe_head(&self, head: u64) {
        self.last_head.fetch_max(head, Ordering::Release);
    }

    /// Apply one shipped batch: raw record bytes as produced by
    /// [`cxpersist::DurableStore::wal_tail`]. Tolerates a torn tail (the
    /// valid prefix applies, the tail is dropped and reported); refuses
    /// gaps and divergence. Concurrent readers keep working throughout.
    pub fn apply_batch(&self, bytes: &[u8]) -> Result<BatchApply> {
        let _span = self.apply_ns.span();
        let mut removed = lock(&self.apply);
        let scan = scan_batch(bytes, self.last_applied());
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        if scan.torn {
            self.counters.torn_batches.fetch_add(1, Ordering::Relaxed);
        }
        let mut out = BatchApply { applied: 0, rejected: 0, torn: scan.torn };
        for rec in scan.records {
            let expected = self.last_applied() + 1;
            if rec.lsn != expected {
                let err = ReplError::Gap { expected, got: rec.lsn };
                self.store.registry().event("repl.error", err.to_string());
                return Err(err);
            }
            match apply_logged(&self.store, rec.lsn, rec.op, &mut removed) {
                Ok(Applied::Done) => {}
                Ok(Applied::Rejected) => {
                    out.rejected += 1;
                    self.counters.records_rejected.fetch_add(1, Ordering::Relaxed);
                }
                Err(detail) => {
                    let err = ReplError::Diverged { detail };
                    self.store.registry().event("repl.error", err.to_string());
                    return Err(err);
                }
            }
            // Keep `head ≥ applied` invariant *before* publishing the new
            // applied LSN, so `lag()` observes a coherent pair (see its
            // docs). Normally a no-op: the fetch's `observe_head` already
            // raised the head past the whole batch.
            self.last_head.fetch_max(rec.lsn, Ordering::Release);
            self.last_applied.store(rec.lsn, Ordering::Release);
            self.counters.records_applied.fetch_add(1, Ordering::Relaxed);
            out.applied += 1;
        }
        Ok(out)
    }

    /// Replace the replica's entire state with a shipped snapshot (the
    /// bootstrap path, and the recovery path for a follower that fell
    /// behind the primary's retention floor). In-flight readers holding
    /// document entries finish against the pre-snapshot documents.
    pub fn install_snapshot(&self, snap: &StoreSnapshot) -> Result<()> {
        let mut removed = lock(&self.apply);
        for id in self.store.doc_ids() {
            self.store.remove(id);
        }
        snap.restore_into(&self.store)?;
        removed.clear();
        self.last_applied.store(snap.lsn, Ordering::Release);
        self.observe_head(snap.lsn);
        self.counters.snapshots_installed.fetch_add(1, Ordering::Relaxed);
        self.store.registry().event("snapshot.install", format!("bootstrap at lsn {}", snap.lsn));
        Ok(())
    }

    /// Promote this replica to a writable [`DurableStore`] on its own WAL
    /// at `dir` — the failover path after the primary dies. The applied
    /// state becomes the new authoritative history: a full snapshot is
    /// written durably at the replica's last applied LSN before any new
    /// edit can be acknowledged, and new edits log from there.
    ///
    /// Takes the replica by `Arc` and requires it to be unshared: stop
    /// followers and drain readers first, so no stale handle can keep
    /// applying or reading behind the promotion.
    pub fn promote(
        self: Arc<Self>,
        dir: impl Into<std::path::PathBuf>,
        options: Options,
    ) -> Result<DurableStore> {
        let replica = Arc::try_unwrap(self).map_err(|_| {
            ReplError::Protocol(
                "replica is still shared; stop followers and readers before promotion".into(),
            )
        })?;
        let lsn = replica.last_applied.load(Ordering::Acquire);
        replica.store.registry().event("follower.promoted", format!("writable at lsn {lsn}"));
        DurableStore::adopt(dir, replica.store, lsn, options).map_err(ReplError::Persist)
    }

    /// [`Store::stats`] plus the replication counters: applied records and
    /// the current lag.
    pub fn stats(&self) -> StoreStats {
        let mut s = self.store.stats();
        s.repl_records_applied = self.counters.records_applied.load(Ordering::Relaxed);
        s.repl_lag = self.lag();
        s
    }

    /// Snapshot bootstraps installed.
    pub fn snapshots_installed(&self) -> u64 {
        self.counters.snapshots_installed.load(Ordering::Relaxed)
    }

    /// Torn batches observed (each one re-requested).
    pub fn torn_batches(&self) -> u64 {
        self.counters.torn_batches.load(Ordering::Relaxed)
    }
}

impl Observable for ReplicaStore {
    /// The replica's stats (lag included) plus its registry metrics.
    fn expose_into(&self, out: &mut Exposition) {
        self.stats().expose_into(out);
        self.store.registry().expose_into(out);
    }
}
