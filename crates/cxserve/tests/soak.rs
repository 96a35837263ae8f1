//! The service-tier capstone soak: concurrent client threads drive
//! mixed gated edits and fan-out queries through a served cluster while
//! request faults fire and a shard goes down and comes back — and at
//! the end the served cluster is **byte-identical** to an in-process
//! control store that saw exactly the applied operations.

mod common;

use common::{manuscript, open_cluster, TempDir};
use cxcluster::ShardId;
use cxobs::fault::{self, Fault, Site, Trigger};
use cxserve::{Client, ClientOptions, ClusterServer, ServeError, ServerOptions, WireError};
use cxstore::{DocId, EditOp, Store};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SHARDS: usize = 3;
const DOCS: usize = 8;

/// The k-th mixed op for `doc`, derived from the control's live state
/// (the control mirrors the cluster exactly, and only the owning thread
/// edits a document, so this view is never stale).
fn gen_op(control: &Store, doc: DocId, k: usize) -> EditOp {
    let (len, words) = control
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
    match k % 4 {
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
        1 if len > 8 => {
            let start = (k * 7) % (len - 4);
            EditOp::DeleteText { start, end: start + 1 }
        }
        _ => EditOp::InsertText { offset: len / 2, text: format!("[{k}]") },
    }
}

/// One writer thread: drive `target` applied gated edits over its own
/// documents, mirroring every applied op onto the control. Returns how
/// many injected faults and shard-down refusals it absorbed.
#[allow(clippy::too_many_arguments)]
fn writer(
    client: &Client,
    control: &Store,
    docs: &[DocId],
    target: usize,
    seed: usize,
    applied_total: &AtomicUsize,
    injected_hits: &AtomicUsize,
    down_hits: &AtomicUsize,
) {
    let mut epochs: Vec<u64> = docs.iter().map(|d| client.epoch(*d).unwrap()).collect();
    let mut applied = 0usize;
    let mut k = seed * 10_000;
    while applied < target {
        k += 1;
        let i = k % docs.len();
        let doc = docs[i];
        let op = gen_op(control, doc, k);
        match client.edit_guarded(doc, epochs[i], op.clone()) {
            Ok(out) => {
                let mirror = control.edit(doc, op).expect("control accepts what the cluster did");
                assert_eq!(out.epoch, mirror.epoch, "epochs advance in lockstep");
                if let Some(node) = out.node {
                    assert_eq!(Some(node), mirror.node, "both sides mint the same node id");
                }
                epochs[i] = out.epoch;
                applied += 1;
                applied_total.fetch_add(1, Ordering::Relaxed);
            }
            // An injected-fault streak outlasted the client's retry
            // budget: the op still did not apply — go again.
            Err(ServeError::Remote(WireError::Injected(_))) => {
                injected_hits.fetch_add(1, Ordering::Relaxed);
            }
            // The owning shard is down: wait out the outage.
            Err(ServeError::Remote(WireError::ShardDown(_))) => {
                down_hits.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
            }
            // The gate refused the op on the cluster; by construction it
            // would refuse it on the control too — skip, mirror nothing.
            Err(ServeError::Remote(WireError::Store(_))) => {}
            Err(e) => panic!("writer saw an unrecoverable error: {e}"),
        }
    }
}

fn run_soak(writers: usize, edits_per_writer: usize, fault_p: f64) {
    let _fp = cxobs::Scenario::setup();
    let dir = TempDir::new("soak");
    let cluster = open_cluster(&dir, SHARDS);
    let control = Store::new();

    let mut docs = Vec::new();
    for i in 0..DOCS {
        let g = manuscript(45 + 5 * i, 600 + i as u64);
        let id = cluster.insert_named(format!("soak-{i}"), g.clone()).unwrap();
        control.insert_with_id(id, g).unwrap();
        docs.push(id);
    }
    assert!(
        (0..SHARDS).all(|s| docs.iter().any(|d| cluster.shard_of(*d) == ShardId(s))),
        "the corpus spans all shards"
    );

    let server = ClusterServer::bind(
        Arc::clone(&cluster),
        "127.0.0.1:0",
        ServerOptions { handlers: writers + 2, backlog: 32, ..ServerOptions::default() },
    )
    .unwrap();
    let addr = server.addr();

    // Request faults fire for the whole run.
    fault::configure_seeded(Site::ServeRequest, Trigger::Probability(fault_p), Fault::Io, 23);

    let applied_total = Arc::new(AtomicUsize::new(0));
    let injected_hits = Arc::new(AtomicUsize::new(0));
    let down_hits = Arc::new(AtomicUsize::new(0));
    let done = Arc::new(AtomicBool::new(false));
    let target_total = writers * edits_per_writer;

    std::thread::scope(|scope| {
        // Writers: each owns a disjoint slice of the corpus.
        let control = &control;
        for w in 0..writers {
            let my_docs: Vec<DocId> = docs
                .iter()
                .copied()
                .enumerate()
                .filter(|(i, _)| i % writers == w)
                .map(|(_, d)| d)
                .collect();
            let applied_total = Arc::clone(&applied_total);
            let injected_hits = Arc::clone(&injected_hits);
            let down_hits = Arc::clone(&down_hits);
            scope.spawn(move || {
                let client = Client::connect(addr, ClientOptions { retries: 6 }).unwrap();
                writer(
                    &client,
                    control,
                    &my_docs,
                    edits_per_writer,
                    w,
                    &applied_total,
                    &injected_hits,
                    &down_hits,
                );
            });
        }

        // Readers: fan-out queries hammer the same server until the
        // writers are done; typed failures are expected mid-storm.
        for _ in 0..2 {
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let client = Client::connect(addr, ClientOptions { retries: 6 }).unwrap();
                let mut saw_hits = false;
                while !done.load(Ordering::Relaxed) {
                    if let Ok(hits) = client.query_all("//w") {
                        saw_hits |= !hits.is_empty();
                    }
                    if let Ok((hits, _)) = client.query_all_partial("//w", Duration::from_secs(2)) {
                        saw_hits |= !hits.is_empty();
                    }
                    std::thread::sleep(Duration::from_millis(3));
                }
                assert!(saw_hits, "readers actually read something");
            });
        }

        // The degrade/heal cycle: once a third of the traffic has
        // landed, one shard goes down for a beat, then heals.
        let sick = ShardId(1);
        let t0 = std::time::Instant::now();
        while applied_total.load(Ordering::Relaxed) < target_total / 3 {
            assert!(t0.elapsed() < Duration::from_secs(120), "writers stalled before the outage");
            std::thread::sleep(Duration::from_millis(5));
        }
        cluster.mark_shard_down(sick).unwrap();
        std::thread::sleep(Duration::from_millis(150));
        cluster.heal_shard(sick).unwrap();

        // Writers finish on their own; release the readers.
        while applied_total.load(Ordering::Relaxed) < target_total {
            assert!(t0.elapsed() < Duration::from_secs(300), "writers stalled mid-run");
            std::thread::sleep(Duration::from_millis(10));
        }
        done.store(true, Ordering::Relaxed);
    });

    let fault_fires = fault::fires(Site::ServeRequest);
    fault::clear();
    assert_eq!(applied_total.load(Ordering::Relaxed), target_total);
    assert!(fault_fires > 0, "the request-fault schedule actually fired");
    let _ = injected_hits.load(Ordering::Relaxed); // streaks are possible, not required
    assert!(
        down_hits.load(Ordering::Relaxed) > 0,
        "the down shard actually refused traffic mid-run"
    );

    // Convergence: the served cluster and the in-process control are
    // byte-identical, and the wire agrees with both.
    let verify = Client::connect(addr, ClientOptions::default()).unwrap();
    for d in &docs {
        let cluster_side = cluster.with_doc(*d, sacx::export_standoff).unwrap();
        let control_side = control.with_doc(*d, sacx::export_standoff).unwrap();
        assert_eq!(cluster_side, control_side, "doc {d:?} diverged from the control");
        assert_eq!(verify.export(*d).unwrap(), cluster_side, "the wire export agrees");
    }

    drop(verify);
    server.shutdown();
}

#[test]
fn concurrent_clients_converge_through_faults_and_a_shard_outage() {
    // 4 writers × 60 edits = 240 gated edits ≥ the 200-edit floor.
    run_soak(4, 60, 0.06);
}

/// The heavy variant for the release-mode CI soak box.
#[test]
#[ignore]
fn release_soak_heavy() {
    run_soak(8, 150, 0.10);
}
