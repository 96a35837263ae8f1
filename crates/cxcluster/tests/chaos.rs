//! The chaos soak: a 3-shard cluster with per-shard followers driven
//! through a **seeded fault schedule** — injected WAL append failures
//! (the ENOSPC class), torn replication frames, probabilistic transport
//! outages, and a slow-shard delay — while mixed gated traffic keeps
//! flowing. Degraded shards are healed and retried; a shard is marked
//! down mid-run and writes to it fail fast; partial fan-out answers
//! within its budget with explicit per-shard errors. Acceptance: once
//! the faults lift, cluster, control store, and every follower converge
//! **byte-identically**, and a reopen reproduces the same bytes.

mod common;

use common::TempDir;
use cxcluster::{Cluster, ClusterError, PartialResults, ShardHealth, ShardId};
use cxobs::fault::{self, Fault, Site, Trigger};
use cxobs::Observable;
use cxpersist::{FsyncPolicy, Options, PersistError};
use cxrepl::{FaultTransport, Follower, FollowerHandle, InProcessTransport, ReplicaStore};
use cxstore::{DocId, EditOp, Store, StoreError};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 3;

fn manuscript(words: usize, seed: u64) -> goddag::Goddag {
    let mut ms = corpus::generate(&corpus::Params { words, seed, ..corpus::Params::default() });
    corpus::dtds::attach_standard(&mut ms.goddag);
    ms.goddag
}

fn cluster_exports(c: &Cluster) -> BTreeMap<u64, String> {
    c.doc_ids()
        .into_iter()
        .map(|id| (id.raw(), c.with_doc(id, sacx::export_standoff).unwrap()))
        .collect()
}

fn store_exports(store: &Store) -> BTreeMap<u64, String> {
    store
        .doc_ids()
        .into_iter()
        .map(|id| (id.raw(), store.with_doc(id, sacx::export_standoff).unwrap()))
        .collect()
}

/// The k-th mixed op, derived from live state (offsets shift with every
/// edit).
fn gen_op(c: &Cluster, doc: DocId, k: usize) -> EditOp {
    let (len, words) = c
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
    match k % 5 {
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
        1 => EditOp::InsertText { offset: len / 2, text: format!("[{k}]") },
        2 if len > 8 => {
            let start = (k * 7) % (len - 4);
            EditOp::DeleteText { start, end: start + 1 }
        }
        3 if !words.is_empty() => {
            let (start, _) = words[k % words.len()];
            let end = (start + 9).min(len);
            EditOp::InsertElement {
                hierarchy: "edit".into(),
                tag: "dmg".into(),
                attrs: vec![("agent".into(), "chaos".into())],
                start,
                end: end.max(start),
            }
        }
        _ => EditOp::InsertText { offset: 0, text: "X".into() },
    }
}

/// Drive mixed traffic until `target` edits have **applied**, mirroring
/// every applied op onto the single-store control. An edit that fails
/// with an injected persistence fault never mutated the shard
/// (append-before-mutate), so it is simply *not* mirrored: the shard is
/// healed and traffic continues. Returns how many injected write faults
/// were absorbed.
fn drive(c: &Cluster, control: &Store, docs: &[DocId], target: usize, k0: &mut usize) -> usize {
    let mut applied = 0usize;
    let mut wal_faults = 0usize;
    while applied < target {
        let k = *k0;
        *k0 += 1;
        let doc = docs[k % docs.len()];
        // figure1 carries no DTD; throw only ungated text at it.
        let op = if doc == docs[4] {
            EditOp::InsertText { offset: 0, text: format!("f{k} ") }
        } else {
            gen_op(c, doc, k)
        };
        match c.edit(doc, op.clone()) {
            Ok(ao) => {
                let bo = control.edit(doc, op).unwrap();
                assert_eq!(ao.node, bo.node, "cluster and control mint the same ids");
                assert_eq!(ao.epoch, bo.epoch);
                applied += 1;
            }
            Err(ClusterError::Store(ae)) => {
                // A gate rejection — the control must agree, and neither
                // side mutated.
                let be = control.edit(doc, op).unwrap_err();
                assert!(
                    matches!(
                        (&ae, &be),
                        (StoreError::EditRejected(_), StoreError::EditRejected(_))
                            | (StoreError::Goddag(_), StoreError::Goddag(_))
                    ),
                    "rejections must agree: {ae} vs {be}"
                );
            }
            Err(ClusterError::Persist(e)) => {
                // The injected WAL fault (first failure arrives as the
                // io error itself; later writes as Degraded). The edit
                // never reached the store, so the control skips it too.
                assert!(
                    matches!(e, PersistError::Io(_) | PersistError::Degraded { .. }),
                    "unexpected persistence failure: {e}"
                );
                wal_faults += 1;
                let s = c.shard_of(doc);
                assert_eq!(c.shard_health(s).unwrap(), ShardHealth::Degraded);
                // Degraded is read-only, not dead: reads still answer.
                assert!(c.query(doc, "//w").is_ok());
                // Heal and carry on (the probe itself passes through the
                // armed failpoint, so it can take a couple of tries).
                for _ in 0..4 {
                    if c.heal_shard(s).is_ok() {
                        break;
                    }
                }
                assert_eq!(c.shard_health(s).unwrap(), ShardHealth::Healthy, "heal failed");
            }
            Err(e) => panic!("unexpected cluster error under chaos: {e}"),
        }
    }
    wal_faults
}

fn spawn_followers(c: &Cluster) -> Vec<FollowerHandle> {
    (0..SHARDS)
        .map(|s| {
            let replica = Arc::new(ReplicaStore::new());
            let inner = InProcessTransport::new(c.primary(ShardId(s)).unwrap());
            let transport = FaultTransport::for_link(inner, s);
            Follower::new(replica, transport).spawn(Duration::from_millis(2))
        })
        .collect()
}

/// The full scenario; `edits` is the phase-A floor (the acceptance bar
/// is ≥200 mixed edits under fault load).
fn chaos(edits: usize) {
    let _fp = cxobs::Scenario::setup();
    let dir = TempDir::new("chaos");
    let cluster = Arc::new(
        Cluster::open(dir.shard_dirs(SHARDS), Options { fsync: FsyncPolicy::Never }).unwrap(),
    );
    let control = Store::new();

    // ── Corpus (inserted before any fault is armed) ──────────────────
    let mut docs = Vec::new();
    for (i, g) in [
        manuscript(70, 61),
        manuscript(55, 67),
        manuscript(65, 71),
        manuscript(45, 73),
        corpus::figure1::goddag(),
    ]
    .into_iter()
    .enumerate()
    {
        let id = cluster.insert_named(format!("doc-{i}"), g.clone()).unwrap();
        control.insert_with_id(id, g).unwrap();
        control.bind_name(format!("doc-{i}"), id).unwrap();
        docs.push(id);
    }
    assert!(
        (0..SHARDS).all(|s| docs.iter().any(|d| cluster.shard_of(*d) == ShardId(s))),
        "the corpus spans all {SHARDS} primaries"
    );

    let followers = spawn_followers(&cluster);

    // ── The seeded fault schedule: three fault kinds ─────────────────
    // Every 37th WAL append across the cluster fails like ENOSPC.
    fault::configure(Site::WalAppend, Trigger::EveryN(37), Fault::Io);
    // Shard 0's replication link drops ~10% of fetches …
    fault::configure_seeded(Site::ReplFetch.link(0), Trigger::Probability(0.10), Fault::Io, 7);
    // … and shard 1's link tears ~8% of record batches mid-frame.
    fault::configure_seeded(
        Site::ReplFetch.link(1),
        Trigger::Probability(0.08),
        Fault::TornWrite(0.5),
        11,
    );

    // ── Phase A: ≥200 mixed edits through the storm ──────────────────
    let mut k = 0usize;
    let wal_faults = drive(&cluster, &control, &docs, edits, &mut k);
    assert!(wal_faults >= 3, "the WAL fault schedule actually fired: {wal_faults}");
    assert!(fault::fires(Site::WalAppend) >= wal_faults as u64);
    // Each link is its own series on the metrics page.
    let page = cluster.exposition();
    for link in ["repl.fetch.0", "repl.fetch.1"] {
        assert!(page.contains(&format!("cx_fault_hits_total{{site=\"{link}\"}}")), "{page}");
    }

    // ── Phase B: one shard marked down, cluster stays useful ─────────
    let sick = ShardId(1);
    cluster.mark_shard_down(sick).unwrap();
    assert_eq!(cluster.shard_health(sick).unwrap(), ShardHealth::Down);

    // Writes routed to the down shard fail fast with a typed error and
    // reach nothing (the control is untouched by design).
    let on_sick = *docs.iter().find(|d| cluster.shard_of(**d) == sick).unwrap();
    let miss = cluster.edit(on_sick, EditOp::InsertText { offset: 0, text: "nope".into() });
    assert!(matches!(miss, Err(ClusterError::ShardDown(1))), "{miss:?}");
    // Reads to the same shard still answer (the store is fine).
    assert!(cluster.query(on_sick, "//w").is_ok());
    // New documents place around the sick shard.
    let newcomer = manuscript(30, 79);
    let placed = cluster.insert(newcomer.clone()).unwrap();
    assert_ne!(cluster.shard_of(placed), sick, "placement skipped the down shard");
    control.insert_with_id(placed, newcomer).unwrap();
    docs.push(placed);

    // Partial fan-out: explicit per-shard error for the down shard, full
    // hits from everyone else.
    let down_docs = docs.iter().filter(|d| cluster.shard_of(**d) == sick).count();
    let part = cluster.query_all_partial("//w", Duration::from_secs(5));
    assert_eq!(part.errors.len(), 1);
    assert!(matches!(part.errors[0].error, ClusterError::ShardDown(1)), "{:?}", part.errors);
    assert_eq!(part.hits.len(), docs.len() - down_docs);
    assert!(!part.is_complete());
    // The all-or-nothing fan-out is the same fan-out with no miss
    // allowed: the down shard is not read, so the query is refused.
    let all = cluster.query_all("//w");
    assert!(matches!(all, Err(ClusterError::ShardDown(1))), "{all:?}");

    // Other shards keep taking writes while one is down.
    let healthy_doc = *docs.iter().find(|d| cluster.shard_of(**d) != sick).unwrap();
    let op = EditOp::InsertText { offset: 0, text: "alive ".into() };
    cluster.edit(healthy_doc, op.clone()).unwrap();
    control.edit(healthy_doc, op).unwrap();

    // Bring it back; the full fan-out is complete again.
    assert_eq!(cluster.heal_shard(sick).unwrap(), ShardHealth::Healthy);
    let part = cluster.query_all_partial("//w", Duration::from_secs(5));
    assert!(part.is_complete(), "{:?}", part.errors);
    assert_eq!(part.hits.len(), docs.len());

    // ── Phase B': a slow shard times out; the answer stays bounded ───
    fault::configure(
        Site::ClusterShardQuery,
        Trigger::Nth(1),
        Fault::Delay(Duration::from_millis(900)),
    );
    let t0 = Instant::now();
    let PartialResults { hits, errors } =
        cluster.query_all_partial("//w", Duration::from_millis(150));
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_millis(800),
        "bounded by the budget, not the delay: {elapsed:?}"
    );
    assert_eq!(errors.len(), 1, "exactly the delayed worker missed the budget: {errors:?}");
    assert!(matches!(errors[0].error, ClusterError::Timeout { ms: 150, .. }), "{errors:?}");
    assert!(!hits.is_empty() && hits.len() < docs.len(), "partial hits: {}", hits.len());
    fault::disarm(Site::ClusterShardQuery);
    // A budget too long to be a deadline waits for every shard.
    let part = cluster.query_all_partial("//w", Duration::MAX);
    assert!(part.is_complete(), "{:?}", part.errors);
    assert_eq!(part.hits.len(), docs.len());
    // An unreachable shard refuses the all-or-nothing fan-out, typed …
    fault::configure(Site::ClusterShardQuery, Trigger::Always, Fault::Io);
    let all = cluster.query_all("//w");
    assert!(matches!(all, Err(ClusterError::ShardUnavailable { shard: 0, .. })), "{all:?}");
    // … and so does a worker that dies without answering.
    fault::configure(Site::ClusterShardQuery, Trigger::Nth(1), Fault::Panic);
    let all = cluster.query_all("//w");
    assert!(matches!(all, Err(ClusterError::ShardUnavailable { .. })), "{all:?}");
    fault::disarm(Site::ClusterShardQuery);

    // ── Phase C: faults lift; everything converges byte-identically ──
    fault::clear();
    for s in 0..SHARDS {
        if cluster.shard_health(ShardId(s)).unwrap() != ShardHealth::Healthy {
            cluster.heal_shard(ShardId(s)).unwrap();
        }
    }
    drive(&cluster, &control, &docs, 30, &mut k);

    let cl = cluster_exports(&cluster);
    assert_eq!(cl, store_exports(&control), "cluster matches the fault-free control run");

    // Followers never parked through the outages; after a final clean
    // catch-up each replica is byte-identical to its shard.
    for (s, handle) in followers.into_iter().enumerate() {
        assert!(handle.terminal_error().is_none(), "follower {s} parked under transient faults");
        let replica = handle.stop();
        Follower::new(
            Arc::clone(&replica),
            InProcessTransport::new(cluster.primary(ShardId(s)).unwrap()),
        )
        .catch_up()
        .unwrap();
        assert_eq!(
            store_exports(replica.store()),
            store_exports(cluster.shards()[s].store()),
            "shard {s}'s follower is byte-identical after the faults lift"
        );
        assert_eq!(replica.lag(), 0);
    }

    // ── Observability: the storm left a legible trail ────────────────
    let page = cluster.exposition();
    assert!(page.contains("cx_shard_health{shard=\"0\"} 0"), "healthy gauge:\n{page}");
    assert!(page.contains("cx_shard_health{shard=\"1\"} 0"));
    let kinds: Vec<&str> = cluster.registry().events().recent().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&"shard.down"), "{kinds:?}");
    assert!(kinds.contains(&"shard.healed"), "{kinds:?}");
    assert!(kinds.contains(&"shard.timeout"), "{kinds:?}");
    // Whichever shard the 37-append cadence landed on recorded its own
    // degrade/heal lifecycle.
    let shard_saw = |kind: &str| {
        cluster
            .shards()
            .iter()
            .any(|sh| sh.registry().events().recent().iter().any(|e| e.kind == kind))
    };
    assert!(shard_saw("store.degraded"));
    assert!(shard_saw("store.healed"));

    // ── And the exact bytes survive a reopen ─────────────────────────
    let dirs = dir.shard_dirs(SHARDS);
    drop(cluster);
    let reopened = Cluster::open(dirs, Options { fsync: FsyncPolicy::Never }).unwrap();
    assert_eq!(cluster_exports(&reopened), cl, "reopen reproduces the exact bytes");
}

/// A migration that fails part-way — at the target's `DocInsert`
/// (append 1), its second name bind (append 2) or the source's tombstone
/// after the route swap (append 3) — leaves a copy the route does not name
/// in some shard's memory until the next assembly. Listing, counting and
/// fan-out still see the document once, its name and reads resolve to
/// the routed copy, and a reopen keeps exactly one copy with both names.
#[test]
fn a_migration_that_fails_part_way_lists_the_document_once() {
    for k in 1..=3 {
        let _fp = cxobs::Scenario::setup();
        let dir = TempDir::new(&format!("move-fails-{k}"));
        let options = Options { fsync: FsyncPolicy::EveryOp };
        let c = Cluster::open(dir.shard_dirs(2), options.clone()).unwrap();
        let id = c.insert_named("ms", corpus::figure1::goddag()).unwrap();
        c.bind_name("ms-alias", id).unwrap();
        let export = c.with_doc(id, sacx::export_standoff).unwrap();
        let other = ShardId(1 - c.shard_of(id).0);

        fault::configure(Site::WalAppend, Trigger::Nth(k), Fault::Io);
        assert!(c.move_doc(id, other).is_err(), "append {k} of the move was refused");
        fault::clear();
        let copies = c.shards().iter().filter(|s| s.store().contains(id)).count();
        assert_eq!(copies, if k == 1 { 1 } else { 2 }, "append {k}: the residue is real");

        assert_eq!(c.doc_ids(), vec![id], "append {k}: listed once");
        assert_eq!(c.len(), 1, "append {k}: counted once");
        assert_eq!(c.query_all("//*").unwrap().len(), 1, "append {k}: fanned out once");
        let part = c.query_all_partial("//*", Duration::from_secs(5));
        assert!(part.is_complete(), "{:?}", part.errors);
        assert_eq!(part.hits.len(), 1, "append {k}: partial fan-out once");
        assert_eq!(c.id_by_name("ms").unwrap(), id);
        assert_eq!(c.with_doc(id, sacx::export_standoff).unwrap(), export);

        drop(c);
        let c = Cluster::open(dir.shard_dirs(2), options).unwrap();
        let copies = c.shards().iter().filter(|s| s.store().contains(id)).count();
        assert_eq!(copies, 1, "append {k}: reopen keeps exactly one copy");
        assert_eq!(c.doc_ids(), vec![id]);
        assert_eq!(c.id_by_name("ms").unwrap(), id);
        assert_eq!(c.id_by_name("ms-alias").unwrap(), id);
        assert_eq!(c.with_doc(id, sacx::export_standoff).unwrap(), export);
    }
}

#[test]
fn chaos_soak_converges_byte_identical_after_faults_lift() {
    chaos(220);
}

/// Release-scale variant — rides the CI soak step
/// (`cargo test --release -p cxcluster -- --ignored`).
#[test]
#[ignore = "release-scale chaos soak; run with: cargo test --release -p cxcluster -- --ignored"]
fn chaos_release_scale() {
    chaos(600);
}
