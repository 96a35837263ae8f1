//! Migration crash-safety: kill the process between `move_doc`'s
//! capture / apply / route-swap / tombstone steps and verify recovery
//! leaves the document on **exactly one** primary with a byte-identical
//! stand-off export — plus the live pin that a reader never loses sight of
//! a document mid-move.
//!
//! The kill is simulated the way the cxpersist crash tests do it: every
//! durable side effect of a migration step is an fsynced WAL record, so
//! "crashed after step k" is exactly "the stores closed after step k's
//! records" (and the torn variant additionally cuts the target's WAL
//! mid-record, like a real power cut would).

mod common;

use common::TempDir;
use cxcluster::{Cluster, ShardId};
use cxpersist::{Claim, DocBlob, DurableStore, FsyncPolicy, LoggedDoc, Options};
use cxstore::{DocId, EditOp};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn options() -> Options {
    Options { fsync: FsyncPolicy::EveryOp }
}

/// Set up a 3-shard cluster with one named, edited document, returning
/// the shard dirs, the doc id, its source shard, and its export.
fn seeded(dir: &TempDir) -> (Vec<PathBuf>, DocId, usize, String) {
    let dirs = dir.shard_dirs(3);
    let c = Cluster::open(dirs.clone(), options()).unwrap();
    // A few padding docs so shards are non-trivial.
    for i in 0..3 {
        c.insert(corpus::figure1::goddag()).unwrap();
        let _ = i;
    }
    let mut g = corpus::figure1::goddag();
    corpus::dtds::attach_standard(&mut g);
    let id = c.insert_named("the-ms", g).unwrap();
    c.edit(id, EditOp::InsertText { offset: 0, text: "swa ".into() }).unwrap();
    c.edit(id, EditOp::InsertText { offset: 2, text: "hw ".into() }).unwrap();
    let export = c.with_doc(id, sacx::export_standoff).unwrap();
    let src = c.shard_of(id).0;
    (dirs, id, src, export)
}

/// Reopen the cluster and assert the invariant: the document lives on
/// exactly one shard, exports the same bytes, and keeps its name.
fn assert_exactly_one(dirs: &[PathBuf], id: DocId, export: &str) -> Cluster {
    let c = Cluster::open(dirs.to_vec(), options()).unwrap();
    let holders: Vec<usize> = c
        .shards()
        .iter()
        .enumerate()
        .filter(|(_, s)| s.store().contains(id))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(holders.len(), 1, "document on exactly one primary, found on {holders:?}");
    assert_eq!(c.shard_of(id).0, holders[0], "routing matches where it lives");
    assert_eq!(c.with_doc(id, sacx::export_standoff).unwrap(), export, "bytes identical");
    assert_eq!(c.id_by_name("the-ms").unwrap(), id, "the name survived");
    c
}

/// Run `move_doc`'s step sequence by hand against raw stores, stopping
/// (killing) after `steps` of: 1 = capture only, 2 = receive without the
/// name re-binds, 3 = full receive, 4 = receive + route-swap-era kill
/// (swap is in-memory; on disk it equals 3), 5 = tombstone too (complete).
fn crash_after(dirs: &[PathBuf], id: DocId, src: usize, steps: usize) {
    let to = (src + 1) % 3;
    let source = DurableStore::open_with(&dirs[src], options()).unwrap();
    let target = DurableStore::open_with(&dirs[to], options()).unwrap();
    // Step 1: capture under the doc lock.
    let blob = source.store().with_doc(id, DocBlob::capture).unwrap();
    let names: Vec<String> = source
        .store()
        .name_bindings()
        .into_iter()
        .filter(|(_, d)| *d == id)
        .map(|(n, _)| n)
        .collect();
    assert_eq!(names, vec!["the-ms".to_string()]);
    if steps >= 2 {
        // Step 2/3: the durable hand-off (commit point). `steps == 2`
        // kills between the DocInsert record and the BindName records.
        let bind = if steps == 2 { &[][..] } else { &names[..] };
        target.admit(Claim::Exact(id), LoggedDoc::restore(blob).unwrap(), bind).unwrap();
    }
    if steps >= 5 {
        // Step 4 (route swap) is in-memory only. Step 5: tombstone.
        source.remove(id).unwrap();
    }
    // The kill: stores drop with all acknowledged records fsynced.
}

#[test]
fn recovery_after_every_migration_step_keeps_exactly_one_owner() {
    for steps in 1..=5 {
        let dir = TempDir::new(&format!("crash-{steps}"));
        let (dirs, id, src, export) = seeded(&dir);
        crash_after(&dirs, id, src, steps);
        let c = assert_exactly_one(&dirs, id, &export);
        match steps {
            1 => assert_eq!(c.shard_of(id).0, src, "capture alone moves nothing"),
            2..=4 => {
                // Both sides held identical copies; assembly commits the
                // migration (the off-home copy wins) and heals the name.
                assert_eq!(c.shard_of(id).0, (src + 1) % 3, "commit point was the target insert");
            }
            _ => assert_eq!(c.shard_of(id).0, (src + 1) % 3, "completed migration stands"),
        }
        // The recovered cluster keeps serving writes on the surviving copy.
        c.edit(id, EditOp::InsertText { offset: 0, text: "post ".into() }).unwrap();
        assert!(c.with_doc(id, |g| g.content().starts_with("post ")).unwrap());
    }
}

#[test]
fn torn_target_wal_rolls_the_migration_back_to_the_source() {
    let dir = TempDir::new("crash-torn");
    let (dirs, id, src, export) = seeded(&dir);
    let to = (src + 1) % 3;
    crash_after(&dirs, id, src, 3);
    // The power cut tore the target's log mid-DocInsert: cut the file
    // inside the last record's blob payload. Recovery must drop the torn
    // record — the document never committed on the target.
    let wal = dirs[to].join("wal.log");
    let bytes = std::fs::read(&wal).unwrap();
    let file = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    file.set_len(bytes.len() as u64 - 40).unwrap();
    file.sync_all().unwrap();
    let c = assert_exactly_one(&dirs, id, &export);
    assert_eq!(c.shard_of(id).0, src, "torn hand-off never committed; the source still owns it");
}

#[test]
fn readers_see_the_document_on_exactly_one_side_throughout_a_move() {
    let dir = TempDir::new("reader-pin");
    let c =
        Arc::new(Cluster::open(dir.shard_dirs(3), Options { fsync: FsyncPolicy::Never }).unwrap());
    let id = c.insert_named("pinned", corpus::figure1::goddag()).unwrap();
    let expect = c.with_doc(id, sacx::export_standoff).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = (0..2)
        .map(|_| {
            let c = Arc::clone(&c);
            let stop = Arc::clone(&stop);
            let expect = expect.clone();
            std::thread::spawn(move || {
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Reads route-and-retry: they must never miss the
                    // document, never error, and always see the one true
                    // byte state — no matter where the mover has it.
                    assert!(c.contains(id));
                    assert_eq!(c.with_doc(id, sacx::export_standoff).unwrap(), expect);
                    assert_eq!(c.id_by_name("pinned").unwrap(), id);
                    reads += 1;
                }
                reads
            })
        })
        .collect();

    // The mover: bounce the document around the ring while readers run.
    for round in 0..60 {
        let to = ShardId((c.shard_of(id).0 + 1) % 3);
        c.move_doc(id, to).unwrap();
        let _ = round;
    }
    stop.store(true, Ordering::Relaxed);
    let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total > 0, "readers actually overlapped the moves");
    assert_eq!(c.docs_moved(), 60);
    // Direct shard inspection: exactly one holder at quiescence.
    let holders = c.shards().iter().filter(|s| s.store().contains(id)).count();
    assert_eq!(holders, 1);
}
