//! Kill-and-recover equivalence: a store rebuilt from its directory must
//! be indistinguishable from the pre-crash store — byte-identical
//! stand-off export, identical epochs, identical handles and names, and
//! identical future id allocation.

mod common;

use common::TempDir;
use cxpersist::{DurableStore, FsyncPolicy, Options, PersistError};
use cxstore::{DocId, EditOp, StoreError};
use std::collections::BTreeMap;

/// A corpus manuscript with the standard DTDs attached (so inserts are
/// prevalidation-gated).
fn manuscript(words: usize, seed: u64) -> goddag::Goddag {
    let mut ms = corpus::generate(&corpus::Params { words, seed, ..corpus::Params::default() });
    corpus::dtds::attach_standard(&mut ms.goddag);
    ms.goddag
}

/// Everything observable we compare across a crash.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    doc_ids: Vec<u64>,
    names: Vec<(String, u64)>,
    next_doc: u64,
    /// Per doc: stand-off export, edit epoch, arena length.
    docs: BTreeMap<u64, (String, u64, usize)>,
}

fn observe(store: &DurableStore) -> Observed {
    let s = store.store();
    let mut docs = BTreeMap::new();
    for id in s.doc_ids() {
        let export = s.with_doc(id, sacx::export_standoff).unwrap();
        let epoch = s.epoch(id).unwrap();
        let arena = s.with_doc(id, |g| g.arena_len()).unwrap();
        docs.insert(id.raw(), (export, epoch, arena));
    }
    Observed {
        doc_ids: s.doc_ids().iter().map(|id| id.raw()).collect(),
        names: s.name_bindings().into_iter().map(|(n, id)| (n, id.raw())).collect(),
        next_doc: s.next_doc_raw(),
        docs,
    }
}

/// Apply a deterministic mixed workload of `n` ops to `doc`, re-deriving
/// offsets from the live document so text edits keep everything valid.
/// Returns (applied, rejected).
fn mixed_ops(store: &DurableStore, doc: DocId, n: usize, salt: usize) -> (usize, usize) {
    let mut applied = 0;
    let mut rejected = 0;
    let mut inserted: Vec<goddag::NodeId> = Vec::new();
    for i in 0..n {
        let k = i + salt;
        // Fresh structural facts each round (edits move offsets).
        let (len, words) = store
            .store()
            .with_doc(doc, |g| {
                let words: Vec<(usize, usize)> = g
                    .find_elements("w")
                    .into_iter()
                    .map(|w| g.char_range(w))
                    .filter(|(a, b)| a < b)
                    .collect();
                (g.content_len(), words)
            })
            .unwrap();
        let op = match k % 6 {
            0 if !words.is_empty() => {
                // Wrap a run of words in a phrase (ling hierarchy, gated).
                let a = words[k % words.len()].0;
                let b = words[(k + 2) % words.len()].1;
                let (start, end) = if a <= b { (a, b) } else { (b, a) };
                EditOp::InsertElement {
                    hierarchy: "ling".into(),
                    tag: "phrase".into(),
                    attrs: vec![("n".into(), format!("p{k}"))],
                    start,
                    end,
                }
            }
            1 if !words.is_empty() => {
                // Damage annotation (edit hierarchy, gated, overlaps freely).
                let (start, _) = words[k % words.len()];
                let end = (start + 9).min(len);
                EditOp::InsertElement {
                    hierarchy: "edit".into(),
                    tag: "dmg".into(),
                    attrs: vec![("agent".into(), "wærm".into())],
                    start,
                    end: end.max(start),
                }
            }
            2 => EditOp::InsertText { offset: len / 2, text: format!("[{k}]") },
            3 if len > 8 => {
                let start = (k * 7) % (len - 4);
                EditOp::DeleteText { start, end: start + 1 }
            }
            4 if !inserted.is_empty() => {
                let node = inserted[k % inserted.len()];
                EditOp::SetAttr { node, name: "resp".into(), value: format!("ed{k}") }
            }
            _ if !inserted.is_empty() && k % 12 == 5 => {
                EditOp::RemoveElement(inserted.remove(k % inserted.len()))
            }
            _ => EditOp::InsertText { offset: 0, text: "X".into() },
        };
        match store.edit(doc, op) {
            Ok(out) => {
                applied += 1;
                if let Some(node) = out.node {
                    inserted.push(node);
                }
            }
            Err(PersistError::Store(StoreError::EditRejected(_))) => rejected += 1,
            Err(PersistError::Store(StoreError::Goddag(_))) => rejected += 1,
            Err(e) => panic!("unexpected edit failure: {e}"),
        }
    }
    (applied, rejected)
}

#[test]
fn kill_and_recover_without_checkpoint() {
    let dir = TempDir::new("kill-nockpt");
    let (before, applied) = {
        let store = DurableStore::open(dir.path()).unwrap();
        let ms = store.insert_named("ms", manuscript(100, 7)).unwrap();
        let fig = store.insert(corpus::figure1::goddag()).unwrap();
        store.bind_name("figure-1", fig).unwrap();
        let (applied, rejected) = mixed_ops(&store, ms, 60, 0);
        assert!(applied >= 50, "workload must actually apply ≥50 ops, got {applied}");
        assert!(rejected > 0, "the workload should also exercise gate rejections");
        // One op that passes the gate (no DTD on figure1) but fails
        // structurally *after* the WAL append: crossing markup.
        let (a, b) = store
            .store()
            .with_doc(fig, |g| {
                let ws = g.find_elements("w");
                let (a0, _) = g.char_range(ws[0]);
                let (b0, b1) = g.char_range(ws[1]);
                ((a0 + b0) / 2, b1)
            })
            .unwrap();
        let err = store
            .edit(
                fig,
                EditOp::InsertElement {
                    hierarchy: "ling".into(),
                    tag: "x".into(),
                    attrs: vec![],
                    start: a,
                    end: b,
                },
            )
            .unwrap_err();
        assert!(matches!(err, PersistError::Store(StoreError::Goddag(_))), "{err}");
        let before = observe(&store);
        // Crash: no checkpoint, no orderly drop.
        std::mem::forget(store);
        (before, applied)
    };

    let store = DurableStore::open(dir.path()).unwrap();
    assert_eq!(observe(&store), before, "recovered store must match the pre-crash store");
    let r = store.recovery();
    assert_eq!(r.snapshot_lsn, None, "no checkpoint was taken");
    assert!(r.replayed_ops >= applied as u64 + 2, "docs + edits all replay");
    assert!(r.replayed_rejected >= 1, "the logged-but-crossing op re-fails identically");
    assert_eq!(r.torn_bytes_dropped, 0);

    // Future allocations continue exactly where the pre-crash store would
    // have: a fresh insert mints the next arena id.
    let ms = store.store().id_by_name("ms").unwrap();
    let arena = store.store().with_doc(ms, |g| g.arena_len()).unwrap();
    let out = store
        .edit(
            ms,
            EditOp::InsertElement {
                hierarchy: "edit".into(),
                tag: "add".into(),
                attrs: vec![],
                start: 0,
                end: 2,
            },
        )
        .unwrap();
    if let Some(node) = out.node {
        assert!(node.idx() >= arena, "new ids allocate past the recorded arena");
    }
}

#[test]
fn kill_and_recover_with_intermediate_snapshot() {
    let dir = TempDir::new("kill-ckpt");
    let before = {
        let store =
            DurableStore::open_with(dir.path(), Options { fsync: FsyncPolicy::Never }).unwrap();
        let ms = store.insert_named("ms", manuscript(80, 11)).unwrap();
        let doomed = store.insert_named("doomed", corpus::figure1::goddag()).unwrap();
        mixed_ops(&store, ms, 30, 0);

        let info = store.checkpoint().unwrap();
        assert_eq!(info.docs, 2);
        assert!(info.lsn > 0);

        // Post-snapshot traffic: more edits, a new doc, a removal, a rebind.
        mixed_ops(&store, ms, 25, 1000);
        let late = store.insert_named("late", manuscript(30, 23)).unwrap();
        mixed_ops(&store, late, 10, 7);
        store.remove(doomed).unwrap();
        store.bind_name("ms-alias", ms).unwrap();
        store.sync().unwrap();
        let before = observe(&store);
        std::mem::forget(store);
        before
    };

    let store = DurableStore::open(dir.path()).unwrap();
    assert_eq!(observe(&store), before);
    let r = store.recovery();
    assert!(r.snapshot_lsn.is_some());
    assert_eq!(r.recovered_docs, 2, "snapshot had two docs");
    assert!(r.replayed_ops > 0, "the WAL tail replays on top");
    // The removed document stays removed and its name is gone.
    assert!(store.store().id_by_name("doomed").is_err());
    // Stats surface the recovery counters.
    let stats = store.stats();
    assert_eq!(stats.recovered_docs, 2);
    assert_eq!(stats.replayed_ops, r.replayed_ops);

    // A second checkpoint + clean reopen converges to the same state.
    store.checkpoint().unwrap();
    drop(store);
    let again = DurableStore::open(dir.path()).unwrap();
    assert_eq!(observe(&again), before);
    assert_eq!(again.recovery().replayed_ops, 0, "everything is in the snapshot now");
}

#[test]
fn reopen_is_idempotent_and_checkpoint_rotates_wal() {
    let dir = TempDir::new("rotate");
    let store = DurableStore::open(dir.path()).unwrap();
    let id = store.insert_named("d", manuscript(40, 3)).unwrap();
    mixed_ops(&store, id, 12, 0);
    let wal_len_gen0 = std::fs::metadata(dir.path().join("wal.log")).unwrap().len();
    assert!(wal_len_gen0 > cxpersist::WAL_HEADER.len() as u64);
    // First checkpoint: no previous snapshot exists, so the whole log is
    // retained as the fallback generation.
    store.checkpoint().unwrap();
    assert_eq!(std::fs::metadata(dir.path().join("wal.log")).unwrap().len(), wal_len_gen0);
    // Second checkpoint after more traffic: records covered by both
    // snapshots retire; only the in-between records remain.
    store.edit(id, EditOp::InsertText { offset: 0, text: "z ".into() }).unwrap();
    store.checkpoint().unwrap();
    let wal_len_gen2 = std::fs::metadata(dir.path().join("wal.log")).unwrap().len();
    assert!(
        wal_len_gen2 < wal_len_gen0 && wal_len_gen2 > cxpersist::WAL_HEADER.len() as u64,
        "second checkpoint retires the shared prefix but keeps the fallback tail \
         ({wal_len_gen2} vs {wal_len_gen0})"
    );
    let snaps: Vec<_> = std::fs::read_dir(dir.path())
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("snap-"))
        .collect();
    assert!(snaps.len() <= 2, "at most two snapshot generations are kept");
    let before = observe(&store);
    drop(store);
    for _ in 0..3 {
        let s = DurableStore::open(dir.path()).unwrap();
        assert_eq!(observe(&s), before, "repeated reopens converge");
    }
}

#[test]
fn lazy_fsync_policies_still_recover_after_orderly_drop() {
    let dir = TempDir::new("lazy");
    let before = {
        let store =
            DurableStore::open_with(dir.path(), Options { fsync: FsyncPolicy::Never }).unwrap();
        let id = store.insert_named("d", manuscript(30, 5)).unwrap();
        mixed_ops(&store, id, 10, 0);
        let before = observe(&store);
        drop(store); // drop flushes pending appends
        before
    };
    let store = DurableStore::open(dir.path()).unwrap();
    assert_eq!(observe(&store), before);
}
