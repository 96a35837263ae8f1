//! The replication soak: a primary under a mixed edit workload with two
//! tailing followers serving concurrent reads, then primary death and
//! follower promotion. Acceptance: every follower's stand-off export is
//! byte-identical to the primary's, and the promoted follower accepts new
//! gated edits whose export matches a never-crashed control store.

mod common;

use common::TempDir;
use cxpersist::{DurableStore, FsyncPolicy, Options, PersistError};
use cxrepl::{
    Follower, InProcessTransport, LogTransport, Primary, ReplicaStore, TcpReplServer, TcpTransport,
};
use cxstore::{DocId, EditOp, Store, StoreError};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn manuscript(words: usize, seed: u64) -> goddag::Goddag {
    let mut ms = corpus::generate(&corpus::Params { words, seed, ..corpus::Params::default() });
    corpus::dtds::attach_standard(&mut ms.goddag);
    ms.goddag
}

fn exports(store: &Store) -> BTreeMap<u64, String> {
    store
        .doc_ids()
        .into_iter()
        .map(|id| (id.raw(), store.with_doc(id, sacx::export_standoff).unwrap()))
        .collect()
}

/// Derive the `k`-th mixed op from the live state of `doc` (offsets move
/// with every edit, so structural facts are re-read each round).
fn gen_op(store: &Store, doc: DocId, k: usize, inserted: &[goddag::NodeId]) -> EditOp {
    let (len, words) = store
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
    match k % 6 {
        0 if !words.is_empty() => {
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
        _ => EditOp::InsertText { offset: 0, text: "X".into() },
    }
}

/// Apply one op to the durable primary and the in-memory control; their
/// verdicts (and minted node ids) must agree — the control is the
/// "never-crashed" reference the promoted follower is later held against.
fn edit_both(
    primary: &DurableStore,
    control: &Store,
    doc: DocId,
    op: EditOp,
    inserted: &mut Vec<goddag::NodeId>,
) -> bool {
    let p = primary.edit(doc, op.clone());
    let c = control.edit(doc, op);
    match (p, c) {
        (Ok(po), Ok(co)) => {
            assert_eq!(po.node, co.node, "primary and control mint the same ids");
            assert_eq!(po.epoch, co.epoch);
            if let Some(n) = po.node {
                inserted.push(n);
            }
            true
        }
        (Err(PersistError::Store(pe)), Err(ce)) => {
            assert!(
                matches!(
                    (&pe, &ce),
                    (StoreError::EditRejected(_), StoreError::EditRejected(_))
                        | (StoreError::Goddag(_), StoreError::Goddag(_))
                ),
                "rejections must agree: {pe} vs {ce}"
            );
            false
        }
        (p, c) => panic!("primary/control verdicts diverged: {p:?} vs {c:?}"),
    }
}

/// The full scenario. `edits` ≥ the acceptance floor of 200;
/// `tcp` switches follower transports from in-process calls to localhost
/// sockets.
fn soak(edits: usize, tcp: bool) {
    let primary_dir = TempDir::new("soak-primary");
    let promote_dir = TempDir::new("soak-promoted");

    // ── Primary + never-crashed control, byte-for-byte mirrored ──────
    let durable = Arc::new(
        DurableStore::open_with(primary_dir.path(), Options { fsync: FsyncPolicy::Never }).unwrap(),
    );
    let control = Store::new();
    let mut docs = Vec::new();
    for (i, g) in
        [manuscript(80, 41), manuscript(60, 43), corpus::figure1::goddag()].into_iter().enumerate()
    {
        let id = durable.insert_named(format!("doc-{i}"), g.clone()).unwrap();
        control.insert_with_id(id, g).unwrap();
        control.bind_name(format!("doc-{i}"), id).unwrap();
        docs.push(id);
    }
    let primary = Arc::new(Primary::new(Arc::clone(&durable)));

    // ── Two tailing followers + concurrent readers ───────────────────
    let server = tcp.then(|| TcpReplServer::bind(Arc::clone(&primary), "127.0.0.1:0").unwrap());
    let make_transport = |server: &Option<TcpReplServer>| -> Box<dyn LogTransport> {
        match server {
            Some(s) => Box::new(TcpTransport::new(s.addr())),
            None => Box::new(InProcessTransport::new(Arc::clone(&primary))),
        }
    };
    let rep_a0 = Arc::new(ReplicaStore::new());
    let rep_b = Arc::new(ReplicaStore::new());
    let handle_a =
        Follower::new(Arc::clone(&rep_a0), make_transport(&server)).spawn(Duration::from_millis(2));
    let handle_b = Follower::new(Arc::clone(&rep_b), make_transport(&server))
        .with_batch_bytes(4 << 10)
        .spawn(Duration::from_millis(2));

    let stop_readers = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicU64::new(0));
    let readers: Vec<_> = [Arc::clone(&rep_a0), Arc::clone(&rep_b)]
        .into_iter()
        .map(|replica| {
            let stop = Arc::clone(&stop_readers);
            let reads = Arc::clone(&reads);
            std::thread::spawn(move || {
                let (mut prev_applied, mut prev_head) = (0u64, 0u64);
                while !stop.load(Ordering::Relaxed) {
                    // Queries and exports against whatever state the
                    // replica has applied so far — they must never error
                    // or observe a half-applied record.
                    let _ = replica.store().query_all("//w").unwrap();
                    for id in replica.store().doc_ids() {
                        let _ = replica.store().with_doc(id, sacx::export_standoff).unwrap();
                    }
                    // Lag is coherent under concurrent applies: sampled
                    // mid-batch, `applied` and `applied + lag` (the
                    // implied head) must both be monotone — a stale head
                    // against fresh applies, or vice versa, would read as
                    // a transient garbage spike here. `applied` and
                    // `lag()` are two calls, so the pair is only judged
                    // when `applied` was provably stable across the
                    // sample (it is monotone, so equal bracketing reads
                    // mean `lag()` saw the same value).
                    let a1 = replica.last_applied();
                    let lag = replica.lag();
                    let a2 = replica.last_applied();
                    assert!(a2 >= prev_applied, "applied went backwards");
                    if a1 == a2 {
                        let head = a1 + lag;
                        assert!(
                            head >= prev_head,
                            "implied head went backwards: {prev_head} -> {head}"
                        );
                        (prev_applied, prev_head) = (a1, head);
                    }
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // ── The mixed workload ───────────────────────────────────────────
    let mut inserted: Vec<goddag::NodeId> = Vec::new();
    let mut applied = 0usize;
    let mut k = 0usize;
    while applied < edits {
        let doc = docs[k % docs.len()];
        // figure1 carries no DTD; throw only ungated text at it so the
        // control comparison stays within gated territory elsewhere.
        let op = if doc == docs[2] {
            EditOp::InsertText { offset: 0, text: format!("f{k} ") }
        } else {
            gen_op(durable.store(), doc, k, &inserted)
        };
        if edit_both(&durable, &control, doc, op, &mut inserted) {
            applied += 1;
        }
        k += 1;
    }
    assert!(applied >= 200, "acceptance floor: ≥200 applied mixed edits, got {applied}");

    // ── Quiesce: followers converge, exports are byte-identical ──────
    stop_readers.store(true, Ordering::Relaxed);
    for r in readers {
        r.join().unwrap();
    }
    assert!(reads.load(Ordering::Relaxed) > 0, "readers actually overlapped the workload");
    let rep_a = handle_a.stop();
    let rep_b = handle_b.stop();
    drop(rep_a0); // the spawn-time clone; promotion needs an unshared Arc
    for rep in [&rep_a, &rep_b] {
        Follower::new(Arc::clone(rep), make_transport(&server)).catch_up().unwrap();
    }
    let primary_exports = exports(durable.store());
    assert_eq!(primary_exports, exports(&control), "control mirrors the primary");
    assert_eq!(exports(rep_a.store()), primary_exports, "follower A byte-identical");
    assert_eq!(exports(rep_b.store()), primary_exports, "follower B byte-identical");
    assert_eq!(rep_a.lag(), 0);
    assert!(rep_a.stats().repl_records_applied as usize >= applied);

    // ── Kill the primary, promote follower A ─────────────────────────
    let head = durable.last_lsn();
    drop(server);
    drop(primary);
    drop(durable);
    let promoted =
        rep_a.promote(promote_dir.path(), Options { fsync: FsyncPolicy::Never }).unwrap();
    assert_eq!(promoted.last_lsn(), head, "promotion adopts the applied history");

    // New gated edits against the promoted store, mirrored on the control.
    let promoted_arc = Arc::new(promoted);
    let mut post_applied = 0usize;
    for k in 0..40 {
        let doc = docs[k % 2]; // the gated manuscripts
        let op = gen_op(promoted_arc.store(), doc, k + 7919, &inserted);
        let p = promoted_arc.edit(doc, op.clone());
        let c = control.edit(doc, op);
        assert_eq!(p.is_ok(), c.is_ok(), "promoted and control verdicts agree (op {k})");
        if let (Ok(po), Ok(co)) = (&p, &c) {
            assert_eq!(po.node, co.node);
            post_applied += 1;
        }
    }
    assert!(post_applied > 0, "the promoted follower accepted new edits");
    // …including the gate still being armed:
    let gate = promoted_arc.edit(
        docs[0],
        EditOp::InsertElement {
            hierarchy: "ling".into(),
            tag: "nonsense".into(),
            attrs: vec![],
            start: 0,
            end: 3,
        },
    );
    assert!(
        matches!(gate, Err(PersistError::Store(StoreError::EditRejected(_)))),
        "prevalidation gate survives promotion"
    );
    assert_eq!(
        exports(promoted_arc.store()),
        exports(&control),
        "promoted follower matches the never-crashed control byte-for-byte"
    );

    // ── Follower B repoints to the new primary and converges ─────────
    let new_primary = Arc::new(Primary::new(Arc::clone(&promoted_arc)));
    Follower::new(Arc::clone(&rep_b), InProcessTransport::new(Arc::clone(&new_primary)))
        .catch_up()
        .unwrap();
    assert_eq!(exports(rep_b.store()), exports(promoted_arc.store()));
}

#[test]
fn soak_mixed_edits_with_reads_then_kill_and_promote() {
    soak(210, false);
}

/// Release-scale variant over real sockets — the CI soak step
/// (`cargo test --release -p cxrepl -- --ignored`).
#[test]
#[ignore]
fn soak_release_scale_over_tcp() {
    soak(600, true);
}
