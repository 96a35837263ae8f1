//! Integration tests for `cxstore`: the concurrent repository must keep its
//! caches honest under edits (epoch invalidation), its batch path identical
//! to per-document evaluation, and its locks safe under reader/writer
//! contention.

use corpus::{dtds, generate, Params};
use cxstore::{EditOp, Store, StoreError};
use goddag::check_invariants;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A 3-hierarchy corpus workload (phys + ling + edit) of `words` words.
fn manuscript(words: usize, seed: u64) -> goddag::Goddag {
    generate(&Params { words, seed, ..Params::default() }).goddag
}

/// The editorial query mix from EXPERIMENTS.md, exercising both classic and
/// extended axes.
const QUERIES: &[&str] =
    &["//ling:w", "//s/overlapping::phys:line", "//dmg/overlapping::ling:w", "//dmg/containing::*"];

#[test]
fn query_all_matches_per_document_serial_evaluation() {
    let store = Store::new();
    let ids: Vec<_> = (0..4).map(|i| store.insert(manuscript(300, 7 + i))).collect();
    assert_eq!(store.len(), 4);

    for q in QUERIES {
        let parallel = store.query_all(q).unwrap();
        // Identical to querying each document individually with a fresh,
        // index-less evaluator (the ground truth).
        assert_eq!(parallel.iter().map(|(id, _)| *id).collect::<Vec<_>>(), ids, "{q}");
        for (id, nodes) in &parallel {
            let expected =
                store.with_doc(*id, |g| expath::Evaluator::new(g).select(q).unwrap()).unwrap();
            assert_eq!(*nodes, expected, "{q} on {id}");
        }
    }
}

#[test]
fn warm_queries_skip_the_index_rebuild() {
    let store = Store::new();
    let id = store.insert(manuscript(200, 11));

    store.query(id, "//s/overlapping::phys:line").unwrap();
    let cold = store.stats();
    assert_eq!(cold.index_builds, 1);
    assert_eq!(cold.index_hits, 0);

    for _ in 0..10 {
        store.query(id, "//s/overlapping::phys:line").unwrap();
    }
    let warm = store.stats();
    assert_eq!(warm.index_builds, 1, "unmodified document never rebuilds");
    assert_eq!(warm.index_hits, 10);
    assert_eq!(warm.query_cache_misses, 1, "expression parsed once");
    assert_eq!(warm.query_cache_hits, 10);
}

#[test]
fn edits_invalidate_exactly_the_edited_document() {
    let store = Store::new();
    let a = store.insert(manuscript(150, 1));
    let b = store.insert(manuscript(150, 2));
    store.query_all("//ling:w").unwrap();
    assert_eq!(store.stats().index_builds, 2);
    let b_dmg_before = store.query(b, "//edit:dmg").unwrap();

    // Edit only `a`.
    store
        .edit(
            a,
            EditOp::InsertElement {
                hierarchy: "edit".into(),
                tag: "dmg".into(),
                attrs: vec![],
                start: 0,
                end: 5,
            },
        )
        .unwrap();

    let before = store.stats();
    store.query_all("//ling:w").unwrap();
    let after = store.stats();
    assert_eq!(after.index_builds - before.index_builds, 1, "only `a` rebuilds");
    assert_eq!(after.index_hits - before.index_hits, 1, "`b` stays cached");

    // The edit is visible through the store, and only in `a`.
    let dmg = store.query(a, "//edit:dmg").unwrap();
    assert!(!dmg.is_empty());
    assert_eq!(store.query(b, "//edit:dmg").unwrap(), b_dmg_before);
    store.with_doc(a, |g| check_invariants(g).unwrap()).unwrap();
}

#[test]
fn prevalidation_gates_store_edits() {
    let store = Store::new();
    let mut g = manuscript(120, 5);
    dtds::attach_standard(&mut g);
    let id = store.insert(g);

    // Declared tag over a sane range: accepted.
    let ok = store.edit(
        id,
        EditOp::InsertElement {
            hierarchy: "edit".into(),
            tag: "dmg".into(),
            attrs: vec![("agent".into(), "water".into())],
            start: 0,
            end: 4,
        },
    );
    assert!(ok.is_ok(), "{:?}", ok.err());

    // Undeclared tag: rejected with a reason, document untouched.
    let epoch = store.epoch(id).unwrap();
    let err = store
        .edit(
            id,
            EditOp::InsertElement {
                hierarchy: "ling".into(),
                tag: "frobnicate".into(),
                attrs: vec![],
                start: 0,
                end: 4,
            },
        )
        .unwrap_err();
    assert!(matches!(err, StoreError::EditRejected(_)), "{err}");
    assert_eq!(store.epoch(id).unwrap(), epoch);
    let s = store.stats();
    assert_eq!(s.edits, 1);
    assert_eq!(s.edits_rejected, 1);
}

/// Readers hammer the store while a writer keeps editing one document.
/// Every read must see a consistent document (invariants hold, queries
/// succeed), and after the dust settles the cache serves the final state.
/// The writer holds `done` until every reader has finished one round, so
/// each reader gets at least one turn however fast the edits run.
#[test]
fn concurrent_readers_during_edits_stay_consistent() {
    const READERS: usize = 3;
    let store = Store::new();
    let edited = store.insert(manuscript(150, 21));
    let stable = store.insert(manuscript(150, 22));
    let done = AtomicBool::new(false);
    let readers_with_a_round = AtomicUsize::new(0);

    std::thread::scope(|s| {
        // Writer: interleave gated insertions and text edits.
        s.spawn(|| {
            for i in 0..40usize {
                let start = (i * 7) % 100;
                let op = if i % 2 == 0 {
                    EditOp::InsertElement {
                        hierarchy: "edit".into(),
                        tag: "dmg".into(),
                        attrs: vec![("id".into(), format!("d{i}"))],
                        start,
                        end: start + 3,
                    }
                } else {
                    EditOp::SetAttr {
                        node: goddag::NodeId(0),
                        name: "rev".into(),
                        value: i.to_string(),
                    }
                };
                // Crossing insertions may legitimately be refused; what must
                // never happen is a poisoned lock or a torn document.
                let _ = store.edit(edited, op);
            }
            // The deadline only turns a reader that panicked before its
            // first round into a failure instead of a hang.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
            while readers_with_a_round.load(Ordering::Acquire) < READERS
                && std::time::Instant::now() < deadline
            {
                std::thread::yield_now();
            }
            done.store(true, Ordering::Release);
        });

        // Readers: single-doc queries, batch queries, stats.
        for _ in 0..READERS {
            s.spawn(|| {
                let mut reads = 0usize;
                while !done.load(Ordering::Acquire) {
                    let ns = store.query(edited, "//edit:dmg/overlapping::ling:w").unwrap();
                    let all = store.query_all("//ling:w").unwrap();
                    assert_eq!(all.len(), 2);
                    let _ = ns;
                    let _ = store.stats();
                    reads += 1;
                    if reads == 1 {
                        readers_with_a_round.fetch_add(1, Ordering::Release);
                    }
                }
                assert!(reads > 0, "reader never got a turn");
            });
        }
    });

    // Post-conditions: documents are intact and the cache converges.
    for id in [edited, stable] {
        store.with_doc(id, |g| check_invariants(g).unwrap()).unwrap();
    }
    let r1 = store.query_all("//edit:dmg").unwrap();
    let builds_then = store.stats().index_builds;
    let r2 = store.query_all("//edit:dmg").unwrap();
    assert_eq!(r1, r2);
    assert_eq!(store.stats().index_builds, builds_then, "quiesced store serves from cache");
    assert!(!r1[0].1.is_empty(), "some damage markup landed");
}

#[test]
fn removed_documents_drop_out_of_batch_queries() {
    let store = Store::new();
    let keep = store.insert(manuscript(100, 31));
    let drop_ = store.insert(manuscript(100, 32));
    assert_eq!(store.query_all("//ling:w").unwrap().len(), 2);
    assert!(store.remove(drop_));
    let after = store.query_all("//ling:w").unwrap();
    assert_eq!(after.len(), 1);
    assert_eq!(after[0].0, keep);
}
