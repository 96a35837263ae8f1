//! `wal_tail` ships from the writer's record index: every shipment must be
//! byte-identical to the records a cold scan of `wal.log` yields — across
//! appends, byte caps, reopen (torn tail included), checkpoint rotation,
//! an fsync-failure rollback, and adoption.

mod common;

use common::TempDir;
use cxobs::fault::{self, Fault, Site, Trigger};
use cxpersist::{
    decode_record, scan_batch, DurableStore, FsyncPolicy, Options, TailShipment, WAL_HEADER,
};
use cxstore::{EditOp, Store};
use std::io::Write;

fn open(dir: &TempDir) -> DurableStore {
    DurableStore::open_with(dir.path(), Options { fsync: FsyncPolicy::Never }).unwrap()
}

/// Fetch everything past `after` in one uncapped call, returning
/// `(last, bytes)`.
fn fetch(store: &DurableStore, after: u64) -> (u64, Vec<u8>) {
    match store.wal_tail(after, usize::MAX).unwrap() {
        TailShipment::Records { first, last, bytes } => {
            assert_eq!(first, after + 1);
            (last, bytes)
        }
        other => panic!("expected records past {after}, got {other:?}"),
    }
}

fn edits(store: &DurableStore, tag: &str, n: usize) {
    let id = store.store().doc_ids()[0];
    for i in 0..n {
        store.edit(id, EditOp::InsertText { offset: 0, text: format!("{tag}{i} ") }).unwrap();
    }
}

/// `(lsn, record bytes)` of every record in `wal.log`, found by a cold,
/// CRC-checked decode from byte 0.
fn cold_records(store: &DurableStore) -> Vec<(u64, Vec<u8>)> {
    let bytes = std::fs::read(store.dir().join("wal.log")).unwrap();
    assert!(bytes.starts_with(WAL_HEADER.as_bytes()));
    let mut pos = WAL_HEADER.len();
    let mut out = Vec::new();
    while pos < bytes.len() {
        let (rec, used) = decode_record(&bytes[pos..], out.len() + 2).unwrap();
        out.push((rec.lsn, bytes[pos..pos + used].to_vec()));
        pos += used;
    }
    out
}

/// For every retained `after` (and one past each end) and caps
/// `{1, 256, usize::MAX}`, plus caps that exactly fit the next one and
/// two records: the shipment is exactly the cold scan's records from
/// `after + 1`, LSN for LSN and byte for byte, as many as the cap allows
/// (always at least one).
fn assert_ships_cold_scan(store: &DurableStore) {
    let head = store.last_lsn();
    let cold = cold_records(store);
    let first = cold.first().map_or(head + 1, |r| r.0);
    let lsns: Vec<u64> = cold.iter().map(|r| r.0).collect();
    assert_eq!(lsns, (first..=head).collect::<Vec<_>>(), "the file holds the head's records");
    if first > 1 {
        assert!(matches!(
            store.wal_tail(first - 2, usize::MAX).unwrap(),
            TailShipment::SnapshotNeeded
        ));
    }
    assert!(store.wal_tail(head + 1, usize::MAX).is_err(), "past the head is divergence");
    for after in first - 1..=head {
        let skip = (after + 1).saturating_sub(first) as usize;
        let exact = |n: usize| cold.iter().skip(skip).take(n).map(|r| r.1.len()).sum::<usize>();
        for cap in [1, 256, usize::MAX, exact(1), exact(2)] {
            let shipped = store.wal_tail(after, cap).unwrap();
            if after == head {
                assert!(matches!(shipped, TailShipment::CaughtUp), "{after}: {shipped:?}");
                continue;
            }
            let TailShipment::Records { first: f, last, bytes } = shipped else {
                panic!("after {after}, cap {cap}: {shipped:?}");
            };
            assert_eq!(f, after + 1);
            let from = (after + 1 - first) as usize;
            let to = (last + 1 - first) as usize;
            let expected: Vec<u8> = cold[from..to].iter().flat_map(|r| r.1.clone()).collect();
            assert_eq!(bytes, expected, "after {after}, cap {cap}");
            // As many as the cap allows: one more would overflow it.
            assert!(to == from + 1 || bytes.len() <= cap, "after {after}, cap {cap}");
            if let Some(next) = cold.get(to) {
                assert!(bytes.len() + next.1.len() > cap, "after {after}, cap {cap}: short");
            }
            let scan = scan_batch(&bytes, after);
            assert!(!scan.torn);
            let got: Vec<u64> = scan.records.iter().map(|r| r.lsn).collect();
            assert_eq!(got, (after + 1..=last).collect::<Vec<_>>());
        }
    }
}

#[test]
fn repeated_fetches_are_byte_identical() {
    let dir = TempDir::new("tail-bytes");
    let store = open(&dir);
    store.insert(corpus::figure1::goddag()).unwrap();
    edits(&store, "w", 40);
    let head = store.last_lsn();

    // Walk the log like a follower (small byte cap, many fetches); a
    // retried fetch at the same position returns the identical shipment.
    let mut after = 0u64;
    while after < head {
        let a = store.wal_tail(after, 256).unwrap();
        let b = store.wal_tail(after, 256).unwrap();
        match (a, b) {
            (
                TailShipment::Records { first: f1, last: l1, bytes: b1 },
                TailShipment::Records { first: f2, last: l2, bytes: b2 },
            ) => {
                assert_eq!((f1, l1), (f2, l2), "position {after}");
                assert_eq!(b1, b2, "position {after}");
                let scan = scan_batch(&b1, after);
                assert!(!scan.torn);
                assert_eq!(scan.records.first().unwrap().lsn, after + 1);
                after = l1;
            }
            other => panic!("unexpected shipments at {after}: {other:?}"),
        }
    }
    assert_ships_cold_scan(&store);
}

#[test]
fn sequential_tailing_ships_every_record_once() {
    let dir = TempDir::new("tail-seq");
    let store = open(&dir);
    store.insert(corpus::figure1::goddag()).unwrap();

    // A tailing follower: appends interleave with fetches; every fetch
    // starts exactly where the previous slice ended.
    let mut applied = 0u64;
    let mut lsns = Vec::new();
    for round in 0..30 {
        edits(&store, &format!("r{round}."), 5);
        loop {
            match store.wal_tail(applied, 512).unwrap() {
                TailShipment::CaughtUp => break,
                TailShipment::Records { first, last, bytes } => {
                    assert_eq!(first, applied + 1);
                    let scan = scan_batch(&bytes, applied);
                    assert!(!scan.torn);
                    lsns.extend(scan.records.iter().map(|r| r.lsn));
                    applied = last;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }
    let head = store.last_lsn();
    assert_eq!(lsns, (1..=head).collect::<Vec<_>>(), "no gaps, no duplicates");
}

#[test]
fn rotation_retires_records_and_rebases_the_rest() {
    let dir = TempDir::new("tail-rotate");
    let store = open(&dir);
    store.insert(corpus::figure1::goddag()).unwrap();
    edits(&store, "a", 10);
    let (last, _) = fetch(&store, 5);
    assert_eq!(last, store.last_lsn());

    // First checkpoint: no previous generation, so nothing is retired yet;
    // the second rewrites the file without the records both cover.
    store.checkpoint().unwrap();
    assert_ships_cold_scan(&store);
    edits(&store, "b", 10);
    store.checkpoint().unwrap();
    edits(&store, "c", 10);

    // The pre-rotation position's records were retired.
    assert!(matches!(store.wal_tail(5, usize::MAX).unwrap(), TailShipment::SnapshotNeeded));

    // The first checkpoint's LSN is retained as the fallback generation.
    let retained_from = 11;
    let (last, bytes) = fetch(&store, retained_from);
    assert_eq!(last, store.last_lsn());
    let scan = scan_batch(&bytes, retained_from);
    assert!(!scan.torn);
    assert_eq!(scan.records.last().unwrap().lsn, store.last_lsn());
    assert_eq!(fetch(&store, retained_from), (last, bytes));
    assert_ships_cold_scan(&store);

    // A reopen seeds the index from recovery's scan, the frame-skipped,
    // snapshot-covered prefix included.
    drop(store);
    let store = open(&dir);
    assert_eq!(store.recovery().snapshot_lsn, Some(21));
    assert_ships_cold_scan(&store);
    edits(&store, "d", 3);
    assert_ships_cold_scan(&store);
}

#[test]
fn reopen_indexes_the_recovered_log_and_drops_a_torn_tail() {
    let dir = TempDir::new("tail-reopen");
    {
        let store = open(&dir);
        store.insert_named("ms", corpus::figure1::goddag()).unwrap();
        edits(&store, "x", 12);
        store.sync().unwrap();
    }
    let store = open(&dir);
    assert_eq!(store.recovery().torn_bytes_dropped, 0);
    assert_ships_cold_scan(&store);
    edits(&store, "y", 4);
    store.sync().unwrap();
    drop(store);

    // Half of one more record: the reopen drops it, and the index must
    // end at the last intact record.
    let mut wal =
        std::fs::OpenOptions::new().append(true).open(dir.path().join("wal.log")).unwrap();
    wal.write_all(b"18 edit 0 17 instext 0 tor").unwrap();
    drop(wal);
    let store = open(&dir);
    assert!(store.recovery().torn_bytes_dropped > 0);
    assert_eq!(store.last_lsn(), 17);
    assert_ships_cold_scan(&store);
    edits(&store, "z", 4);
    assert_ships_cold_scan(&store);
}

#[test]
fn a_log_cut_short_of_the_snapshot_ships_only_new_records() {
    let dir = TempDir::new("tail-short");
    {
        let store = open(&dir);
        store.insert(corpus::figure1::goddag()).unwrap();
        edits(&store, "s", 6);
        store.checkpoint().unwrap();
    }
    // Lose the log from the middle of record 3 on, inside the prefix the
    // snapshot at LSN 7 covers: recovery keeps records 1 and 2, which no
    // longer reach the head.
    let path = dir.path().join("wal.log");
    let bytes = std::fs::read(&path).unwrap();
    let mut pos = WAL_HEADER.len();
    for _ in 0..2 {
        pos += decode_record(&bytes[pos..], 2).unwrap().1;
    }
    std::fs::write(&path, &bytes[..pos + 5]).unwrap();
    let store = open(&dir);
    assert_eq!(store.last_lsn(), 7);
    for after in 0..7 {
        assert!(matches!(store.wal_tail(after, usize::MAX).unwrap(), TailShipment::SnapshotNeeded));
    }
    assert!(matches!(store.wal_tail(7, usize::MAX).unwrap(), TailShipment::CaughtUp));
    edits(&store, "t", 2);
    let (last, shipped) = fetch(&store, 7);
    assert_eq!(last, 9);
    let lsns: Vec<u64> = scan_batch(&shipped, 7).records.iter().map(|r| r.lsn).collect();
    assert_eq!(lsns, [8, 9]);
    assert!(matches!(store.wal_tail(5, usize::MAX).unwrap(), TailShipment::SnapshotNeeded));
    // The covered records 1 and 2 were dropped with the lost tail, so a
    // reopen finds a gap-free log of 8 and 9 alone.
    drop(store);
    let store = open(&dir);
    assert_eq!(store.last_lsn(), 9);
    assert_ships_cold_scan(&store);
    for after in [5, 6] {
        assert!(matches!(store.wal_tail(after, usize::MAX).unwrap(), TailShipment::SnapshotNeeded));
    }
}

#[test]
fn fsync_rollback_leaves_no_phantom_start() {
    let _fp = cxobs::Scenario::setup();
    let dir = TempDir::new("tail-fsync");
    let store =
        DurableStore::open_with(dir.path(), Options { fsync: FsyncPolicy::EveryOp }).unwrap();
    store.insert(corpus::figure1::goddag()).unwrap();
    edits(&store, "p", 5);

    fault::configure(Site::WalFsync, Trigger::Always, Fault::Io);
    let id = store.store().doc_ids()[0];
    assert!(store.edit(id, EditOp::InsertText { offset: 0, text: "lost ".into() }).is_err());
    fault::disarm(Site::WalFsync);
    assert_eq!(store.last_lsn(), 6, "the failed append was rolled back");
    store.heal().unwrap();

    edits(&store, "q", 5);
    assert_ships_cold_scan(&store);
}

#[test]
fn adopted_store_ships_only_what_it_logged() {
    let dir = TempDir::new("tail-adopt");
    let mem = Store::new();
    mem.insert(corpus::figure1::goddag());
    let store =
        DurableStore::adopt(dir.path(), mem, 40, Options { fsync: FsyncPolicy::Never }).unwrap();
    assert!(matches!(store.wal_tail(40, usize::MAX).unwrap(), TailShipment::CaughtUp));
    assert!(matches!(store.wal_tail(39, usize::MAX).unwrap(), TailShipment::SnapshotNeeded));
    assert_ships_cold_scan(&store);
    edits(&store, "n", 6);
    assert_ships_cold_scan(&store);
    assert!(matches!(store.wal_tail(39, usize::MAX).unwrap(), TailShipment::SnapshotNeeded));

    drop(store);
    let store = open(&dir);
    assert_eq!(store.last_lsn(), 46);
    assert_ships_cold_scan(&store);
}
