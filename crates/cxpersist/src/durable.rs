//! [`DurableStore`]: a [`cxstore::Store`] whose mutations survive process
//! death.
//!
//! Every mutation is appended to the write-ahead log *before* it touches
//! the in-memory store (via [`cxstore::Store::edit_with_log`], the append
//! runs under the document's write lock, after validation, before the
//! mutation), and fsynced according to the configured [`FsyncPolicy`].
//! [`DurableStore::checkpoint`] writes a stand-off snapshot of every
//! document plus a manifest and rotates the log (keeping the previous
//! snapshot and the records past it as a fallback generation);
//! [`DurableStore::open`] loads the newest snapshot that validates —
//! falling back to the previous one — and replays the log tail past it,
//! dropping only a torn/corrupt tail.
//!
//! Lock order (deadlock-free by construction): `gate → document → wal`.
//! Mutators hold the checkpoint gate shared, then the document lock, then
//! the WAL mutex for the append; the checkpointer holds the gate
//! exclusively, which drains all in-flight mutators before it reads
//! documents and rotates the log.

use crate::apply::{apply_logged, Applied};
use crate::blob::LoggedDoc;
use crate::codec::{encode_record, scan_tail, WalOp, WAL_HEADER};
use crate::error::{PersistError, Result};
use crate::snapshot::{
    list_snapshots, load_snapshot, prune_snapshots, sync_dir, validated_manifest, write_snapshot,
    StoreSnapshot,
};
use cxobs::fault::{self, Site};
use cxobs::{names, trace, Counter, Exposition, Gauge, Histogram, Observable, Registry};
use cxstore::{DocId, EditOp, EditOutcome, Store, StoreError, StoreStats};
use goddag::Goddag;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, PoisonError, RwLock};
use std::time::Instant;

/// When the WAL file is fsynced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// After every record — maximum durability, one `fdatasync` per edit.
    EveryOp,
    /// Never automatically — only explicit [`DurableStore::sync`],
    /// checkpoints, and drop. For bulk loads and tests.
    Never,
}

/// Open-time configuration.
#[derive(Debug, Clone)]
pub struct Options {
    /// WAL fsync policy. Default: [`FsyncPolicy::EveryOp`].
    pub fsync: FsyncPolicy,
}

impl Default for Options {
    fn default() -> Options {
        Options { fsync: FsyncPolicy::EveryOp }
    }
}

/// Write-path health of a [`DurableStore`].
///
/// A store degrades — once, explicitly — when a WAL append or fsync
/// fails (the ENOSPC / pulled-volume class): every already-acknowledged
/// edit is still durable and every read keeps working, but further
/// writes are refused with [`PersistError::Degraded`] instead of
/// half-failing one by one. [`DurableStore::heal`] re-probes the disk
/// and, on success, returns the store to `Healthy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreHealth {
    /// Writes and reads both served.
    Healthy,
    /// Read-only: the WAL could not be extended or made durable.
    Degraded,
}

/// What [`DurableStore::open`] found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// LSN of the snapshot that was loaded (`None` on a cold start).
    pub snapshot_lsn: Option<u64>,
    /// Newer snapshot directories that failed validation and were skipped.
    pub snapshots_skipped: usize,
    /// Documents restored from the snapshot.
    pub recovered_docs: usize,
    /// WAL records applied during replay.
    pub replayed_ops: u64,
    /// Replayed records the store rejected — the deterministic re-failure
    /// of operations that were logged but failed structurally pre-crash.
    pub replayed_rejected: u64,
    /// Bytes of torn/corrupt WAL tail dropped (never replayed).
    pub torn_bytes_dropped: usize,
}

/// Outcome of a checkpoint.
#[derive(Debug, Clone, Copy)]
pub struct CheckpointInfo {
    /// The snapshot's LSN (WAL records at or below it are now retired).
    pub lsn: u64,
    /// Documents written.
    pub docs: usize,
    /// Snapshot bytes referenced (fresh and reused blobs + manifest).
    pub bytes: u64,
    /// Blobs newly captured because the document changed since the
    /// previous generation (or there was none).
    pub fresh_docs: usize,
    /// Blobs reused from the previous generation — the document's edit
    /// epoch was unchanged, so the checkpoint hard-linked (or copied) the
    /// existing file instead of re-serializing the document.
    pub reused_docs: usize,
}

/// Which handle [`DurableStore::admit`] gives a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claim {
    /// The store's next id.
    Next,
    /// The next id `≡ residue (mod modulus)` — the write-sharding insert:
    /// shard `i` of `n` primaries mints only ids `≡ i (mod n)`, so a hash
    /// router maps every unmoved document back to the shard that owns it
    /// without any lookup table.
    Residue {
        /// Number of id classes (the cluster's shard count).
        modulus: u64,
        /// The class to mint from (the owning shard's index).
        residue: u64,
    },
    /// Exactly this id — a migrated document keeps its handle. Refused
    /// while the handle is live.
    Exact(DocId),
}

/// A WAL position: the last assigned LSN plus the byte length of the
/// valid log prefix that holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalPosition {
    /// Last assigned log sequence number.
    pub lsn: u64,
    /// Valid log bytes (header included).
    pub bytes: u64,
}

/// What [`DurableStore::wal_tail`] can hand a log-shipping caller.
#[derive(Debug)]
pub enum TailShipment {
    /// No records past the requested LSN — the follower is caught up.
    CaughtUp,
    /// Raw record bytes (each self-framed and CRC'd by the WAL codec),
    /// LSN-contiguous starting at `first`.
    Records {
        /// LSN of the first shipped record (always `after + 1`).
        first: u64,
        /// LSN of the last shipped record.
        last: u64,
        /// The record bytes, sliceable straight into a shipping batch.
        bytes: Vec<u8>,
    },
    /// The requested LSN predates the oldest retained record (a checkpoint
    /// retired it) — the follower needs a snapshot bootstrap instead.
    SnapshotNeeded,
}

/// The WAL writer: file handle plus append/sync bookkeeping, behind one
/// mutex so record order equals file order.
struct WalState {
    file: File,
    /// Last assigned LSN.
    lsn: u64,
    /// Logical file length (valid bytes); used to truncate away a
    /// partially written record after an append error.
    len: u64,
    /// Appends since the last sync.
    dirty: u32,
    /// Byte offset of every record still in `wal.log`, in LSN order — the
    /// one index of where records are: [`DurableStore::wal_tail`] ships
    /// and a log rotation cuts at these offsets, never by walking record
    /// framing. The first retained LSN is `lsn + 1 - starts.len()`.
    starts: Vec<u64>,
}

impl WalState {
    /// LSN of the oldest record still in the log (`lsn + 1` when the
    /// log holds none).
    fn first_lsn(&self) -> u64 {
        self.lsn + 1 - self.starts.len() as u64
    }
}

/// The durability layer's metrics, registered on the wrapped store's
/// [`Registry`] so one exposition covers both layers.
struct PersistMetrics {
    /// One WAL append (encode + write + any policy-due fsync).
    wal_append_ns: Arc<Histogram>,
    /// One `fdatasync` of the log.
    wal_fsync_ns: Arc<Histogram>,
    /// A whole checkpoint (snapshot + rotation + pruning).
    checkpoint_ns: Arc<Histogram>,
    /// 1 while the store is in the read-only Degraded state, else 0.
    degraded: Arc<Gauge>,
    /// Records appended.
    wal_appends: Arc<Counter>,
    /// Bytes appended.
    wal_bytes: Arc<Counter>,
    /// `fdatasync` calls that succeeded.
    wal_fsyncs: Arc<Counter>,
    /// Checkpoints taken.
    checkpoints: Arc<Counter>,
}

impl PersistMetrics {
    fn new(r: &Registry) -> PersistMetrics {
        PersistMetrics {
            wal_append_ns: r.histogram(names::WAL_APPEND_NS),
            wal_fsync_ns: r.histogram(names::WAL_FSYNC_NS),
            checkpoint_ns: r.histogram(names::CHECKPOINT_NS),
            degraded: r.gauge(names::STORE_DEGRADED),
            wal_appends: r.counter(names::WAL_APPENDS_TOTAL),
            wal_bytes: r.counter(names::WAL_BYTES_TOTAL),
            wal_fsyncs: r.counter(names::WAL_FSYNCS_TOTAL),
            checkpoints: r.counter(names::CHECKPOINTS_TOTAL),
        }
    }
}

/// Poison-tolerant: the WAL mutex guards plain state (file handle,
/// LSN/byte counters, record offsets). A panic while it is held — an
/// injected `cxobs::fault::Fault::Panic` at a WAL failpoint, or an
/// out-of-memory mid-append — leaves counters that describe whatever
/// actually reached the file; recovering the guard lets `Drop` still
/// flush and `wal_tail` still ship, and reopen-time recovery re-derives
/// the authoritative tail from the bytes themselves.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A durable, warm-restartable document store. See the module docs.
pub struct DurableStore {
    store: Store,
    dir: PathBuf,
    /// Checkpoint gate: mutators shared, checkpoint exclusive.
    gate: RwLock<()>,
    wal: Mutex<WalState>,
    policy: FsyncPolicy,
    metrics: PersistMetrics,
    recovery: RecoveryReport,
    /// Set on the first WAL append/fsync failure; checked (one relaxed
    /// load) at the top of every mutation. See [`StoreHealth`].
    degraded: AtomicBool,
    /// Human-readable cause of the degradation (empty while healthy).
    degraded_reason: Mutex<String>,
}

impl DurableStore {
    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Open (or create) the store at `dir` with default [`Options`],
    /// recovering whatever state the directory holds.
    pub fn open(dir: impl Into<PathBuf>) -> Result<DurableStore> {
        DurableStore::open_with(dir, Options::default())
    }

    /// [`DurableStore::open`] with explicit options.
    pub fn open_with(dir: impl Into<PathBuf>, options: Options) -> Result<DurableStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut report = RecoveryReport::default();

        // 1. Newest snapshot that validates end-to-end. Snapshots that
        // fail validation are quarantined (renamed aside) so they can
        // never be mistaken for a live generation again — in particular,
        // the next checkpoint must not pick a known-bad snapshot as its
        // retention floor and retire the WAL records the good fallback
        // still needs.
        let mut store = None;
        let mut snap_lsn = 0u64;
        for (lsn, path) in list_snapshots(&dir)? {
            match load_snapshot(&path) {
                Ok((s, manifest)) => {
                    report.snapshot_lsn = Some(lsn);
                    report.recovered_docs = manifest.docs.len();
                    snap_lsn = lsn;
                    store = Some(s);
                    break;
                }
                Err(_) => {
                    report.snapshots_skipped += 1;
                    let mut bad = path.clone();
                    bad.as_mut_os_string().push(".bad");
                    let _ = fs::remove_dir_all(&bad);
                    let _ = fs::rename(&path, &bad);
                }
            }
        }
        let store = store.unwrap_or_default();

        // 2. Scan the log and replay the tail past the snapshot.
        let replay_ns = store.registry().histogram(names::RECOVERY_REPLAY_NS);
        let replay_start = Instant::now();
        let wal_path = dir.join("wal.log");
        let mut lsn = snap_lsn;
        let mut valid_len = WAL_HEADER.len() as u64;
        let mut starts = Vec::new();
        let mut fresh = true;
        if wal_path.exists() {
            let bytes = fs::read(&wal_path)?;
            // A strict prefix of the header is the residue of a first open
            // that crashed between writing and syncing it — nothing can
            // have been acknowledged yet, so the file is provably fresh,
            // not corrupt.
            if !bytes.is_empty() && !WAL_HEADER.as_bytes().starts_with(&bytes) {
                fresh = false;
                // Frame-skip the snapshot-covered prefix: its content is
                // superseded, so cold start pays only for the live tail.
                let scan = scan_tail(&bytes, snap_lsn).map_err(|e| PersistError::Corrupt {
                    path: wal_path.clone(),
                    detail: format!("unreadable WAL: {e}"),
                })?;
                report.torn_bytes_dropped = scan.dropped_bytes;
                valid_len = scan.valid_len as u64;
                // The scan already found every record's start, the
                // frame-skipped prefix's included: they seed the index.
                starts = scan.starts.iter().map(|&s| s as u64).collect();
                let scanned_through = scan.last_lsn;
                let mut removed = std::collections::HashSet::new();
                for rec in scan.records {
                    if rec.lsn <= snap_lsn {
                        continue; // retired by the snapshot
                    }
                    lsn = rec.lsn;
                    match apply_logged(&store, rec.lsn, rec.op, &mut removed) {
                        Ok(Applied::Done) => report.replayed_ops += 1,
                        Ok(Applied::Rejected) => report.replayed_rejected += 1,
                        Err(detail) => {
                            return Err(PersistError::Corrupt { path: wal_path, detail });
                        }
                    }
                }
                // The index describes the records ending at the head. A
                // log that stops short of the snapshot (its tail was lost)
                // holds only records the snapshot covers: drop them all, so
                // the next append starts a gap-free log.
                if scanned_through != lsn {
                    starts.clear();
                    valid_len = WAL_HEADER.len() as u64;
                }
            }
        }

        if !fresh {
            replay_ns.record(replay_start.elapsed());
            store.registry().event(
                "recovery",
                format!(
                    "snapshot {:?}: {} docs, {} ops replayed, {} torn bytes dropped",
                    report.snapshot_lsn,
                    report.recovered_docs,
                    report.replayed_ops,
                    report.torn_bytes_dropped
                ),
            );
        }

        // 3. Re-open the log for appending, with the torn tail cut off.
        let mut file = open_wal(&dir, fresh)?;
        if fresh {
            valid_len = WAL_HEADER.len() as u64;
        } else {
            let cut = file.metadata()?.len() > valid_len;
            file.set_len(valid_len)?;
            if cut {
                file.sync_all()?;
            }
        }
        file.seek(SeekFrom::Start(valid_len))?;

        let wal = WalState { file, lsn, len: valid_len, dirty: 0, starts };
        Ok(DurableStore::assemble(store, dir, wal, options, report))
    }

    /// The one place a [`DurableStore`] is put together, healthy, from
    /// its parts — and where what recovery found is counted, once.
    fn assemble(
        store: Store,
        dir: PathBuf,
        wal: WalState,
        options: Options,
        recovery: RecoveryReport,
    ) -> DurableStore {
        let r = store.registry();
        r.counter(names::REPLAYED_OPS_TOTAL).add(recovery.replayed_ops);
        r.counter(names::RECOVERED_DOCS_TOTAL).add(recovery.recovered_docs as u64);
        DurableStore {
            metrics: PersistMetrics::new(r),
            store,
            dir,
            gate: RwLock::new(()),
            wal: Mutex::new(wal),
            policy: options.fsync,
            recovery,
            degraded: AtomicBool::new(false),
            degraded_reason: Mutex::new(String::new()),
        }
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The directory this store persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The last log sequence number assigned.
    pub fn last_lsn(&self) -> u64 {
        lock(&self.wal).lsn
    }

    /// The current WAL position: last assigned LSN plus valid byte length.
    /// Replication lag is observable as the difference between a primary's
    /// position and a follower's last applied LSN.
    pub fn wal_position(&self) -> WalPosition {
        let w = lock(&self.wal);
        WalPosition { lsn: w.lsn, bytes: w.len }
    }

    /// Read the raw WAL tail past `after` for log shipping: up to
    /// `max_bytes` of record bytes (always at least one whole record),
    /// LSN-contiguous from `after + 1`, never past the synced head. Returns
    /// [`TailShipment::SnapshotNeeded`] when a checkpoint already retired
    /// the requested records, and [`TailShipment::CaughtUp`] when `after`
    /// is the head. Errors when `after` lies beyond the head — a follower
    /// claiming records this primary never wrote (split history).
    ///
    /// The byte range comes from the writer's record index, so a fetch
    /// costs O(slice) however long the log is, and reads exactly the
    /// bytes it ships.
    pub fn wal_tail(&self, after: u64, max_bytes: usize) -> Result<TailShipment> {
        let (file, start, end, last) = {
            let mut w = lock(&self.wal);
            if after == w.lsn {
                return Ok(TailShipment::CaughtUp);
            }
            if after > w.lsn {
                return Err(PersistError::Corrupt {
                    path: self.dir.join("wal.log"),
                    detail: format!(
                        "follower claims LSN {after}, but this log ends at {} — diverged history",
                        w.lsn
                    ),
                });
            }
            // Shipping implies durability: under `FsyncPolicy::Never` a
            // record can sit in the page cache, and a follower must never
            // *apply* a record the primary could still lose in a crash (the
            // follower would hold history no recovered primary ever had,
            // and the re-assigned LSN would make the streams diverge
            // permanently). The fsync batches whatever is pending (a no-op
            // under `EveryOp` or when clean).
            self.sync_locked(&mut w)?;
            let first = w.first_lsn();
            if after + 1 < first {
                return Ok(TailShipment::SnapshotNeeded);
            }
            // Record `k` ends where `k + 1` starts (the last one at
            // `len`). Records `i..=j` ship: the first whatever its size,
            // then each next one while the total stays within the cap.
            let i = (after + 1 - first) as usize;
            let start = w.starts[i];
            let end_of = |k: usize| w.starts.get(k + 1).copied().unwrap_or(w.len);
            let mut j = i;
            while j + 1 < w.starts.len() && end_of(j + 1) - start <= max_bytes as u64 {
                j += 1;
            }
            // Opened under the mutex: a rotation renames a new file into
            // place under this same mutex, so the handle is the file these
            // offsets describe. (Not a `try_clone` of the writer's handle —
            // a dup would share, and move, the writer's cursor.)
            (File::open(self.dir.join("wal.log"))?, start, end_of(j), first + j as u64)
        };
        // The read runs outside the mutex, so shipping never stalls the
        // edit path. The range is immutable once written: appends only
        // extend the file past `end`, and a rotation unlinks this inode
        // rather than rewriting it.
        let bytes = read_range(file, start, end)?;
        Ok(TailShipment::Records { first: after + 1, last, bytes })
    }

    /// Capture a consistent [`StoreSnapshot`] of the whole store at the
    /// current WAL position — the replication bootstrap artifact. Briefly
    /// blocks mutations (holds the checkpoint gate exclusively) so the
    /// captured state is exactly the state at the returned LSN, and syncs
    /// the log first — a shipped snapshot, like shipped records, must not
    /// contain state the primary could still lose.
    pub fn capture_snapshot(&self) -> Result<StoreSnapshot> {
        let _exclusive = write_gate(&self.gate);
        let lsn = {
            let mut w = lock(&self.wal);
            self.sync_locked(&mut w)?;
            w.lsn
        };
        // Failpoint: a bootstrap capture that fails after the sync — the
        // fetch errors (the follower retries), nothing degrades.
        fault::io_check(Site::SnapshotCapture)?;
        StoreSnapshot::capture(&self.store, lsn)
    }

    /// Turn an in-memory store into a durable one at `dir` — the promotion
    /// path: a replica that must start accepting writes adopts its applied
    /// state as the new authoritative history. Writes a full snapshot at
    /// `lsn` (durable before any new edit is acknowledged) and opens a
    /// fresh WAL continuing from that LSN. Refuses a directory that
    /// already holds a store.
    pub fn adopt(
        dir: impl Into<PathBuf>,
        store: Store,
        lsn: u64,
        options: Options,
    ) -> Result<DurableStore> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        if dir.join("wal.log").exists() || !list_snapshots(&dir)?.is_empty() {
            return Err(PersistError::Corrupt {
                path: dir,
                detail: "refusing to adopt into a directory that already holds a store".into(),
            });
        }
        let write = write_snapshot(&dir, &store, lsn, None)?;
        let file = open_wal(&dir, true)?;
        let wal =
            WalState { file, lsn, len: WAL_HEADER.len() as u64, dirty: 0, starts: Vec::new() };
        let recovery = RecoveryReport {
            snapshot_lsn: Some(lsn),
            recovered_docs: write.docs,
            ..RecoveryReport::default()
        };
        Ok(DurableStore::assemble(store, dir, wal, options, recovery))
    }

    /// The wrapped in-memory store, for the read paths ([`Store::query`],
    /// [`Store::query_all`], [`Store::suggest_tags`], …).
    ///
    /// **Do not mutate through this reference** — `Store::insert`,
    /// `Store::edit` and `Store::remove` called here bypass the log, and
    /// the bypassed changes are silently lost on restart (worse: later
    /// logged edits may fail to replay against the diverged state). All
    /// mutations go through the `DurableStore` methods.
    pub fn store(&self) -> &Store {
        &self.store
    }

    // ------------------------------------------------------------------
    // Logged mutations
    // ------------------------------------------------------------------

    /// Apply one [`EditOp`], durably: the record is appended (and synced
    /// per policy) before the document changes.
    pub fn edit(&self, id: DocId, op: EditOp) -> Result<EditOutcome> {
        self.logged_edit(id, None, op)
    }

    /// [`DurableStore::edit`] with a compare-and-set guard: the op
    /// applies only if the document's pre-op epoch equals `expected`,
    /// failing with [`PersistError::StaleEdit`] otherwise. The check runs
    /// inside the [`cxstore::Store::edit_with_log`] hook — under the
    /// document's write lock, before anything reaches the WAL — so it is
    /// a true CAS, not a racy check-then-edit: two guarded writers with
    /// the same expectation cannot both apply.
    pub fn edit_guarded(&self, id: DocId, expected: u64, op: EditOp) -> Result<EditOutcome> {
        self.logged_edit(id, Some(expected), op)
    }

    fn logged_edit(&self, id: DocId, guard: Option<u64>, op: EditOp) -> Result<EditOutcome> {
        self.ensure_writable()?;
        let _shared = read_gate(&self.gate);
        // A guard mismatch leaves the document untouched and logs nothing.
        self.store
            .edit_with_log(id, op, |op, epoch| match guard {
                Some(expected) if expected != epoch => {
                    Err(PersistError::StaleEdit { expected, current: epoch })
                }
                _ => self.append(WalOp::Edit { doc: id, epoch, op: op.clone() }),
            })?
            .map_err(PersistError::Store)
    }

    /// Add a document under the store's next id; see
    /// [`DurableStore::admit`].
    pub fn insert(&self, g: Goddag) -> Result<DocId> {
        self.admit(Claim::Next, LoggedDoc::capture(g), &[])
    }

    /// Add a document under a name; see [`DurableStore::admit`].
    pub fn insert_named(&self, name: impl Into<String>, g: Goddag) -> Result<DocId> {
        self.admit(Claim::Next, LoggedDoc::capture(g), &[name.into()])
    }

    /// Add a document, durably, under the handle `claim` picks and bound
    /// to `names` — the one way a document enters this store. Its blob
    /// rides in a `DocInsert` record (carrying the first name; further
    /// names follow as `BindName` records) appended before the store
    /// changes, so it survives a crash before the next checkpoint. A
    /// received blob is logged verbatim: a migrated document
    /// ([`Claim::Exact`], the receiving half of a cluster `move_doc`) is
    /// restored id-for-id and epoch-for-epoch, so its future edits replay
    /// identically.
    pub fn admit(&self, claim: Claim, doc: LoggedDoc, names: &[String]) -> Result<DocId> {
        self.ensure_writable()?;
        let _shared = read_gate(&self.gate);
        // The id claim and every record after it run under the WAL mutex:
        // the logged id and the applied id cannot be interleaved apart, and
        // a racing insert cannot take an exact handle between the liveness
        // check and the append (a logged DocInsert followed by a failed
        // local apply would make this shard's replicas diverge).
        let mut w = lock(&self.wal);
        let id = match claim {
            Claim::Next => DocId::from_raw(self.store.next_doc_raw()),
            Claim::Residue { modulus, residue } => {
                DocId::from_raw(self.store.allocate_doc_raw_aligned(modulus, residue))
            }
            Claim::Exact(id) if self.store.contains(id) => {
                return Err(PersistError::Store(StoreError::IdInUse(id)));
            }
            Claim::Exact(id) => id,
        };
        let mut names = names.iter();
        let first = names.next();
        let blob = doc.blob;
        self.append_locked(&mut w, WalOp::DocInsert { doc: id, name: first.cloned(), blob })?;
        self.store.insert_with_id(id, doc.goddag)?;
        if let Some(name) = first {
            self.store.bind_name(name.clone(), id)?;
        }
        for name in names {
            self.append_locked(&mut w, WalOp::BindName { doc: id, name: name.clone() })?;
            self.store.bind_name(name.clone(), id)?;
        }
        Ok(id)
    }

    /// Drop a document (and all of its name bindings), durably. Returns
    /// whether the handle was live.
    pub fn remove(&self, id: DocId) -> Result<bool> {
        self.ensure_writable()?;
        let _shared = read_gate(&self.gate);
        if !self.store.contains(id) {
            return Ok(false); // nothing to log
        }
        self.append(WalOp::DocRemove { doc: id })?;
        Ok(self.store.remove(id))
    }

    /// Bind (or rebind) a name to a live document, durably.
    pub fn bind_name(&self, name: impl Into<String>, id: DocId) -> Result<()> {
        self.ensure_writable()?;
        let _shared = read_gate(&self.gate);
        let name = name.into();
        if !self.store.contains(id) {
            return Err(PersistError::Store(cxstore::StoreError::NoSuchDoc(id)));
        }
        self.append(WalOp::BindName { doc: id, name: name.clone() })?;
        self.store.bind_name(name, id)?;
        Ok(())
    }

    /// Drop a name binding without touching its document, durably. Returns
    /// the id the name was bound to (`None` — and nothing logged — when it
    /// was unbound already).
    pub fn unbind_name(&self, name: &str) -> Result<Option<DocId>> {
        self.ensure_writable()?;
        let _shared = read_gate(&self.gate);
        if self.store.id_by_name(name).is_err() {
            return Ok(None); // nothing to log
        }
        self.append(WalOp::UnbindName { name: name.to_string() })?;
        Ok(self.store.unbind_name(name))
    }

    fn append(&self, op: WalOp) -> Result<()> {
        let mut w = lock(&self.wal);
        self.append_locked(&mut w, op)
    }

    fn append_locked(&self, w: &mut WalState, op: WalOp) -> Result<()> {
        let _span = self.metrics.wal_append_ns.span();
        let trace = trace::span("wal.append");
        trace.attr("lsn", w.lsn + 1);
        let pre_len = w.len;
        let line = encode_record(w.lsn + 1, &op);
        // Failpoint: an append that never reaches the disk (`Io`, the
        // ENOSPC class) or gets cut mid-record (`TornWrite`). Both take
        // the same cleanup path a real `write_all` failure would: cut the
        // file back to the last good record — the log stays a valid
        // prefix, the operation is refused before it mutates memory — and
        // degrade the store.
        if let Some(fault) = fault::fire(Site::WalAppend) {
            if let fault::InjectedFault::Torn(frac) = fault {
                let keep = fault::torn_len(line.len(), frac);
                let _ = w.file.write_all(&line.as_bytes()[..keep]);
            }
            let _ = w.file.set_len(pre_len);
            let _ = w.file.seek(SeekFrom::Start(pre_len));
            let e = fault::io_error(Site::WalAppend);
            self.enter_degraded(&format!("WAL append failed: {e}"));
            trace.err(format!("injected: {e}"));
            return Err(e.into());
        }
        if let Err(e) = w.file.write_all(line.as_bytes()) {
            // Cut any partial write back to the last good record so the
            // file stays a valid prefix.
            let _ = w.file.set_len(pre_len);
            let _ = w.file.seek(SeekFrom::Start(pre_len));
            self.enter_degraded(&format!("WAL append failed: {e}"));
            trace.err(e.to_string());
            return Err(e.into());
        }
        w.lsn += 1;
        w.len += line.len() as u64;
        w.dirty += 1;
        w.starts.push(pre_len);
        self.metrics.wal_appends.bump();
        self.metrics.wal_bytes.add(line.len() as u64);
        if self.policy == FsyncPolicy::EveryOp {
            if let Err(e) = self.sync_locked(w) {
                // The append error aborts the caller's operation before it
                // is applied in memory, so the record must not survive
                // either — a phantom record would poison a later replay
                // (the next edit re-logs the same pre-op epoch, and the
                // phantom would consume it first).
                let _ = w.file.set_len(pre_len);
                let _ = w.file.seek(SeekFrom::Start(pre_len));
                w.len = pre_len;
                w.lsn -= 1;
                w.dirty = w.dirty.saturating_sub(1);
                w.starts.pop();
                return Err(e);
            }
        }
        Ok(())
    }

    fn sync_locked(&self, w: &mut WalState) -> Result<()> {
        if w.dirty > 0 {
            let trace = trace::span("wal.fsync");
            // Failpoint + real fsync share one error path: records are
            // sitting in the page cache with no way to make them durable,
            // so the store degrades (the caller additionally rolls back
            // its own record when this failure aborts an append).
            let r = fault::io_check(Site::WalFsync)
                .and_then(|()| self.metrics.wal_fsync_ns.time(|| w.file.sync_data()));
            if let Err(e) = r {
                self.enter_degraded(&format!("WAL fsync failed: {e}"));
                trace.err(e.to_string());
                return Err(e.into());
            }
            self.metrics.wal_fsyncs.bump();
            w.dirty = 0;
        }
        Ok(())
    }

    /// Force an fsync of everything appended so far (a durability barrier
    /// under [`FsyncPolicy::Never`]).
    pub fn sync(&self) -> Result<()> {
        let mut w = lock(&self.wal);
        self.sync_locked(&mut w)
    }

    // ------------------------------------------------------------------
    // Health
    // ------------------------------------------------------------------

    /// Current write-path health.
    pub fn health(&self) -> StoreHealth {
        if self.degraded.load(Ordering::Acquire) {
            StoreHealth::Degraded
        } else {
            StoreHealth::Healthy
        }
    }

    /// Why the store is degraded (`None` while healthy).
    pub fn degraded_reason(&self) -> Option<String> {
        if self.degraded.load(Ordering::Acquire) {
            Some(lock(&self.degraded_reason).clone())
        } else {
            None
        }
    }

    /// Refuse a mutation while degraded — the check every logged write
    /// starts with. One relaxed-ish atomic load when healthy.
    fn ensure_writable(&self) -> Result<()> {
        if self.degraded.load(Ordering::Acquire) {
            return Err(PersistError::Degraded { detail: lock(&self.degraded_reason).clone() });
        }
        Ok(())
    }

    /// Transition to Degraded (idempotent — only the first failure logs
    /// the event and records the reason).
    fn enter_degraded(&self, reason: &str) {
        if self.degraded.compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire).is_ok()
        {
            *lock(&self.degraded_reason) = reason.to_string();
            self.metrics.degraded.set(1);
            self.store.registry().event("store.degraded", reason.to_string());
        }
    }

    /// Re-probe the write path and, if the disk answers, return the store
    /// to [`StoreHealth::Healthy`]. The probe exercises the same seams
    /// that degrade the store — the failpoints and a real fsync of the
    /// log — so a still-broken disk (or a still-armed fault schedule)
    /// keeps it degraded and returns the probe error. Pending unsynced
    /// records from before the failure become durable as a side effect.
    /// No-op when already healthy.
    pub fn heal(&self) -> Result<StoreHealth> {
        if !self.degraded.load(Ordering::Acquire) {
            return Ok(StoreHealth::Healthy);
        }
        let mut w = lock(&self.wal);
        fault::io_check(Site::WalAppend)?;
        fault::io_check(Site::WalFsync)?;
        self.metrics.wal_fsync_ns.time(|| w.file.sync_data())?;
        w.dirty = 0;
        self.degraded.store(false, Ordering::Release);
        *lock(&self.degraded_reason) = String::new();
        self.metrics.degraded.set(0);
        self.store.registry().event("store.healed", "write path re-probed OK");
        Ok(StoreHealth::Healthy)
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    /// Write a snapshot of every document plus the manifest, durably, then
    /// rotate the log and prune retired snapshots. Blocks mutations for
    /// the duration (reads continue).
    ///
    /// Retention keeps *two* generations: the new snapshot plus the
    /// previous one, and every WAL record past the previous snapshot's
    /// LSN. Should the new snapshot later fail validation (bit rot, torn
    /// disk), recovery falls back to the previous snapshot and reaches the
    /// exact same state by replaying the retained log tail. Only records
    /// covered by *both* snapshots are dropped.
    ///
    /// Checkpoints are *incremental*: a document whose edit epoch is
    /// unchanged since the previous validated generation reuses that
    /// generation's blob file (hard link where the filesystem allows),
    /// so cost scales with the dirty set. The reuse means both retained
    /// generations share one inode for such a document — the fallback
    /// guarantee above is byte-independent for dirty documents and the
    /// manifests, while rot in a shared clean-doc blob fails both
    /// generations for that document and recovery refuses loudly rather
    /// than serving partial state (reuse sources are CRC-validated
    /// end-to-end at checkpoint time, so rot never launders forward).
    pub fn checkpoint(&self) -> Result<CheckpointInfo> {
        // A checkpoint must rotate the log it retires; while the write
        // path is broken that is exactly the kind of half-completed disk
        // surgery the degraded state exists to prevent.
        self.ensure_writable()?;
        let _span = self.metrics.checkpoint_ns.span();
        let _trace = trace::span("checkpoint");
        let _exclusive = write_gate(&self.gate);
        let mut w = lock(&self.wal);
        // Everything up to w.lsn is in memory (mutators are drained); the
        // snapshot captures exactly that state.
        self.sync_locked(&mut w)?;
        let lsn = w.lsn;
        // The newest *older* snapshot that validates end-to-end (manifest
        // + blob CRCs + epochs) serves two roles: its blobs are reused for
        // documents whose epoch is unchanged (incremental checkpointing),
        // and it is the retention floor — a bit-rotted snapshot must
        // neither contribute blobs nor retire the WAL records (and the
        // older good snapshot) that real fallback needs.
        let prev = list_snapshots(&self.dir)?
            .into_iter()
            .filter(|&(l, _)| l < lsn)
            .find_map(|(l, path)| validated_manifest(l, &path).map(|m| (l, path, m)));
        let write = write_snapshot(
            &self.dir,
            &self.store,
            lsn,
            prev.as_ref().map(|(_, path, m)| (path.as_path(), m)),
        )?;
        let floor = prev.as_ref().map_or(0, |&(l, _, _)| l);
        self.drop_wal_prefix(&mut w, floor)?;
        prune_snapshots(&self.dir, floor);
        self.metrics.checkpoints.bump();
        self.store.registry().event(
            "checkpoint",
            format!(
                "lsn {lsn}: {} docs ({} fresh, {} reused), {} bytes",
                write.docs, write.fresh_docs, write.reused_docs, write.bytes
            ),
        );
        Ok(CheckpointInfo {
            lsn,
            docs: write.docs,
            bytes: write.bytes,
            fresh_docs: write.fresh_docs,
            reused_docs: write.reused_docs,
        })
    }

    /// Rewrite the WAL without its retired prefix (records with
    /// `lsn <= keep_after` — covered by every retained snapshot), via a
    /// durable tmp-file + rename swap. No-op when nothing is retired.
    fn drop_wal_prefix(&self, w: &mut WalState, keep_after: u64) -> Result<()> {
        let retired =
            (keep_after + 1).saturating_sub(w.first_lsn()).min(w.starts.len() as u64) as usize;
        if retired == 0 {
            return Ok(());
        }
        // Records are LSN-ordered in the file, so the retired part is a
        // byte prefix ending where the first kept record starts.
        let cut = w.starts.get(retired).copied().unwrap_or(w.len);
        let dir = &self.dir;
        let wal_path = dir.join("wal.log");
        let kept = read_range(File::open(&wal_path)?, cut, w.len)?;
        let tmp_path = dir.join("wal.log.tmp");
        let mut tmp = File::create(&tmp_path)?;
        tmp.write_all(WAL_HEADER.as_bytes())?;
        tmp.write_all(&kept)?;
        tmp.sync_all()?;
        // `tmp` (cursor already at end) becomes the writer handle *before*
        // the rename: once the rename unlinks the old inode there must be
        // no failure window in which the writer could keep appending
        // acknowledged, fsynced edits to a file nothing will ever read
        // again. If the rename fails, the old file is untouched and the
        // old handle stays in place.
        fs::rename(&tmp_path, &wal_path)?;
        w.file = tmp;
        w.len = WAL_HEADER.len() as u64 + kept.len() as u64;
        w.dirty = 0;
        let shift = cut - WAL_HEADER.len() as u64;
        w.starts.drain(..retired);
        for s in &mut w.starts {
            *s -= shift;
        }
        self.store.registry().event("wal.rotate", format!("retired through lsn {keep_after}"));
        sync_dir(dir)?;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// [`Store::stats`]: the WAL, checkpoint and recovery counters live
    /// on the wrapped store's registry, so it already holds them.
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// The metric registry shared with the wrapped store (the layers
    /// above — replication, clustering — hang their metrics here too).
    pub fn registry(&self) -> &Arc<Registry> {
        self.store.registry()
    }
}

impl Observable for DurableStore {
    /// The wrapped store's page, which carries this layer's series.
    fn expose_into(&self, out: &mut Exposition) {
        self.store.expose_into(out);
    }
}

impl Drop for DurableStore {
    fn drop(&mut self) {
        // Best-effort flush of anything `Never` left unsynced.
        let mut w = lock(&self.wal);
        let _ = self.sync_locked(&mut w);
    }
}

/// Open `dir`'s `wal.log` for appending. A `fresh` log gets its header,
/// synced together with the directory entry that names it.
fn open_wal(dir: &Path, fresh: bool) -> io::Result<File> {
    let mut file = OpenOptions::new()
        .create(true)
        .truncate(false)
        .read(true)
        .write(true)
        .open(dir.join("wal.log"))?;
    if fresh {
        file.write_all(WAL_HEADER.as_bytes())?;
        file.sync_all()?;
        sync_dir(dir)?;
    }
    Ok(file)
}

/// Bytes `start..end` of the log file behind `file`.
fn read_range(mut file: File, start: u64, end: u64) -> io::Result<Vec<u8>> {
    let mut bytes = vec![0; (end - start) as usize];
    file.seek(SeekFrom::Start(start))?;
    file.read_exact(&mut bytes)?;
    Ok(bytes)
}

// Poison-tolerant: the checkpoint gate guards `()` — there is no data a
// panicked holder could have half-written; the lock exists purely to
// order mutators against checkpoints.
fn read_gate(gate: &RwLock<()>) -> std::sync::RwLockReadGuard<'_, ()> {
    gate.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_gate(gate: &RwLock<()>) -> std::sync::RwLockWriteGuard<'_, ()> {
    gate.write().unwrap_or_else(PoisonError::into_inner)
}
