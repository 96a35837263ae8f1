//! Failpoint-driven write-path faults: an ENOSPC-style failure mid-WAL-
//! append must leave the store readable and **Degraded**, the WAL
//! un-torn on disk, and the rejected edit absent from replay — and
//! [`DurableStore::heal`] must bring the store back once the disk
//! recovers. Companion to the truncate-at-every-byte harness in
//! `crash_sim.rs`: that one tears the log after the fact, this one
//! injects the failure while the record is being written.

mod common;

use common::TempDir;
use cxobs::fault::{self, Fault, Site, Trigger};
use cxobs::Observable;
use cxpersist::{scan, DurableStore, PersistError, StoreHealth};
use cxstore::EditOp;
use std::fs;

fn export(store: &DurableStore, name: &str) -> String {
    let id = store.store().id_by_name(name).unwrap();
    store.store().with_doc(id, sacx::export_standoff).unwrap()
}

#[test]
fn enospc_mid_append_degrades_but_never_tears_the_wal() {
    let _fp = cxobs::Scenario::setup();
    let dir = TempDir::new("enospc");
    let store = DurableStore::open(dir.path()).unwrap();
    let id = store.insert_named("d", corpus::figure1::goddag()).unwrap();
    for i in 0..4 {
        store.edit(id, EditOp::InsertText { offset: 0, text: format!("x{i} ") }).unwrap();
    }
    let before = export(&store, "d");
    let wal_len = fs::metadata(dir.path().join("wal.log")).unwrap().len();

    // The disk fills: the next append fails like ENOSPC.
    fault::configure(Site::WalAppend, Trigger::Always, Fault::Io);
    let err = store.edit(id, EditOp::InsertText { offset: 0, text: "LOST ".into() }).unwrap_err();
    assert!(matches!(err, PersistError::Io(_)), "{err}");
    assert_eq!(store.health(), StoreHealth::Degraded);
    assert!(
        store.degraded_reason().unwrap().contains("WAL append"),
        "{:?}",
        store.degraded_reason()
    );

    // Degraded is read-only, not dead: every read path still answers,
    // and the failed edit never touched the in-memory store.
    assert_eq!(export(&store, "d"), before);
    assert!(store.store().query(id, "//w").is_ok());

    // Further writes are refused up front with the typed error — no
    // second trip to the broken disk, no half-applied batch.
    for op in [
        EditOp::InsertText { offset: 0, text: "also lost".into() },
        EditOp::DeleteText { start: 0, end: 1 },
    ] {
        let err = store.edit(id, op).unwrap_err();
        assert!(matches!(err, PersistError::Degraded { .. }), "{err}");
    }
    assert!(matches!(store.insert(corpus::figure1::goddag()), Err(PersistError::Degraded { .. })));

    // The transition left a trail.
    let kinds: Vec<&str> = store.registry().events().recent().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&"store.degraded"), "{kinds:?}");

    // On disk: the rejected append was rolled back to the pre-edit
    // boundary — not one stray byte, no torn tail.
    let wal = fs::read(dir.path().join("wal.log")).unwrap();
    assert_eq!(wal.len() as u64, wal_len, "failed append left no bytes behind");
    let scanned = scan(&wal).unwrap();
    assert!(!scanned.torn, "WAL is clean, not torn");
    assert_eq!(scanned.records.len(), 5, "one insert + four applied edits");

    // Reopen: replay reproduces exactly the acknowledged state; the
    // rejected edit is absent.
    drop(store);
    fault::clear();
    let reopened = DurableStore::open(dir.path()).unwrap();
    assert_eq!(reopened.recovery().torn_bytes_dropped, 0);
    assert_eq!(export(&reopened, "d"), before);
    assert_eq!(reopened.health(), StoreHealth::Healthy, "degradation is not persistent state");
}

#[test]
fn torn_append_rolls_back_to_the_record_boundary() {
    let _fp = cxobs::Scenario::setup();
    let dir = TempDir::new("torn-append");
    let store = DurableStore::open(dir.path()).unwrap();
    let id = store.insert_named("d", corpus::figure1::goddag()).unwrap();
    store.edit(id, EditOp::InsertText { offset: 0, text: "ok ".into() }).unwrap();
    let before = export(&store, "d");
    let wal_len = fs::metadata(dir.path().join("wal.log")).unwrap().len();

    // The write itself tears partway through the record (power loss
    // mid-write, short write on a full disk) — the append path persists
    // the torn prefix, then rolls the file back to the boundary.
    fault::configure(Site::WalAppend, Trigger::Always, Fault::TornWrite(0.6));
    let err = store.edit(id, EditOp::InsertText { offset: 0, text: "TORN ".into() }).unwrap_err();
    assert!(matches!(err, PersistError::Io(_)), "{err}");
    assert_eq!(store.health(), StoreHealth::Degraded);
    assert_eq!(
        fs::metadata(dir.path().join("wal.log")).unwrap().len(),
        wal_len,
        "the torn prefix was truncated away"
    );
    assert!(!scan(&fs::read(dir.path().join("wal.log")).unwrap()).unwrap().torn);

    // Disk recovers; heal re-probes and the store takes writes again,
    // numbering records as if the failure never happened.
    fault::clear();
    assert_eq!(store.heal().unwrap(), StoreHealth::Healthy);
    store.edit(id, EditOp::InsertText { offset: 0, text: "post ".into() }).unwrap();
    assert_ne!(export(&store, "d"), before);
    let after = export(&store, "d");

    drop(store);
    let reopened = DurableStore::open(dir.path()).unwrap();
    assert_eq!(export(&reopened, "d"), after, "reopen replays the exact post-heal bytes");
}

#[test]
fn heal_fails_while_the_disk_is_still_sick_then_succeeds() {
    let _fp = cxobs::Scenario::setup();
    let dir = TempDir::new("heal");
    let store = DurableStore::open(dir.path()).unwrap();
    let id = store.insert_named("d", corpus::figure1::goddag()).unwrap();

    fault::configure(Site::WalAppend, Trigger::Always, Fault::Io);
    assert!(store.edit(id, EditOp::InsertText { offset: 0, text: "x".into() }).is_err());
    assert_eq!(store.health(), StoreHealth::Degraded);

    // The append path recovered but fsync still fails: heal's re-probe
    // must refuse to clear the flag.
    fault::disarm(Site::WalAppend);
    fault::configure(Site::WalFsync, Trigger::Always, Fault::Io);
    assert!(store.heal().is_err());
    assert_eq!(store.health(), StoreHealth::Degraded, "a failed probe keeps the store read-only");

    // Disk fully back: heal clears, writes flow, both events on the ring.
    fault::clear();
    assert_eq!(store.heal().unwrap(), StoreHealth::Healthy);
    assert_eq!(store.heal().unwrap(), StoreHealth::Healthy, "healing a healthy store is a no-op");
    store.edit(id, EditOp::InsertText { offset: 0, text: "back ".into() }).unwrap();
    let kinds: Vec<&str> = store.registry().events().recent().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&"store.degraded"), "{kinds:?}");
    assert!(kinds.contains(&"store.healed"), "{kinds:?}");

    // The degraded gauge tracked the lifecycle back to zero.
    let page = store.exposition();
    assert!(page.contains("cx_store_degraded 0"), "{page}");
}

#[test]
fn failed_snapshot_capture_errors_without_degrading() {
    let _fp = cxobs::Scenario::setup();
    let dir = TempDir::new("capture-fault");
    let store = DurableStore::open(dir.path()).unwrap();
    let id = store.insert_named("d", corpus::figure1::goddag()).unwrap();
    let before = export(&store, "d");

    // A bootstrap capture that fails after the log sync: the caller (a
    // follower fetch) sees the error and retries — the primary must not
    // flip read-only over a replication-path hiccup.
    fault::configure(Site::SnapshotCapture, Trigger::Always, Fault::Io);
    let err = store.capture_snapshot().unwrap_err();
    assert!(matches!(err, PersistError::Io(_)), "{err}");
    assert_eq!(store.health(), StoreHealth::Healthy, "capture failure never degrades");
    store.edit(id, EditOp::InsertText { offset: 0, text: "still writable ".into() }).unwrap();

    // Fault gone: the retried capture ships the post-edit state.
    fault::disarm(Site::SnapshotCapture);
    let snap = store.capture_snapshot().unwrap();
    assert_eq!(snap.lsn, store.last_lsn());
    assert_ne!(export(&store, "d"), before);
}

#[test]
fn failed_checkpoint_rename_keeps_the_previous_generation_authoritative() {
    let _fp = cxobs::Scenario::setup();
    let dir = TempDir::new("ckpt-rename");
    let store = DurableStore::open(dir.path()).unwrap();
    let id = store.insert_named("d", corpus::figure1::goddag()).unwrap();
    store.checkpoint().unwrap();
    store.edit(id, EditOp::InsertText { offset: 0, text: "after ckpt ".into() }).unwrap();
    let state = export(&store, "d");

    // ENOSPC/crash at the publish rename: the whole checkpoint is one
    // atomic rename away from existing, so a failure there must leave
    // only a `.tmp` leftover — never a half-visible generation.
    fault::configure(Site::CheckpointRename, Trigger::Always, Fault::Io);
    let err = store.checkpoint().unwrap_err();
    assert!(matches!(err, PersistError::Io(_)), "{err}");
    assert_eq!(store.health(), StoreHealth::Healthy, "a failed publish never degrades");
    fault::clear();

    // Recovery ignores the `.tmp` debris: a reopen replays the previous
    // generation plus the retained log to the exact acknowledged state.
    drop(store);
    let reopened = DurableStore::open(dir.path()).unwrap();
    assert_eq!(export(&reopened, "d"), state);

    // And the next attempt simply replaces the debris and publishes.
    reopened.checkpoint().unwrap();
    drop(reopened);
    let again = DurableStore::open(dir.path()).unwrap();
    assert_eq!(export(&again, "d"), state);
}
