//! Reconnect semantics: a server killed and restarted on the same port,
//! pooled connections gone stale, and — the part that matters — **no
//! gated edit ever applies twice**, because every retryable edit rides a
//! compare-and-set epoch guard.
//!
//! Every test holds `cxobs::Scenario`: the failpoint table is
//! process-wide, so a request from an unguarded sibling could consume a
//! one-shot fault another test armed on `serve.request`.

mod common;

use common::{manuscript, open_cluster, TempDir};
use cxcluster::Cluster;
use cxobs::fault::{self, Fault, Site, Trigger};
use cxserve::{Client, ClientOptions, ClusterServer, ServerOptions};
use cxstore::EditOp;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

fn bind(cluster: &Arc<Cluster>, addr: SocketAddr) -> ClusterServer {
    ClusterServer::bind(Arc::clone(cluster), addr, ServerOptions::default()).unwrap()
}

#[test]
fn pooled_connections_survive_a_server_restart() {
    let _s = cxobs::Scenario::setup();
    let dir = TempDir::new("restart");
    let cluster = open_cluster(&dir, 2);
    let server = bind(&cluster, "127.0.0.1:0".parse().unwrap());
    let addr = server.addr();

    let c = Client::connect(addr, ClientOptions::default()).unwrap();
    let id = c.insert(&manuscript(30, 41)).unwrap();
    let e0 = c.epoch(id).unwrap();
    // The pool now holds a live connection to the *old* server.

    server.shutdown();
    let server = bind(&cluster, addr);

    // Idempotent read: the stale pooled socket fails once, the retry
    // dials the new server.
    assert!(!c.query(id, "//w").unwrap().is_empty());
    // Guarded edit through a stale pooled socket: applied exactly once.
    let out =
        c.edit_guarded(id, e0, EditOp::InsertText { offset: 0, text: "back".into() }).unwrap();
    assert_eq!(out.epoch, e0 + 1);
    assert_eq!(cluster.epoch(id).unwrap(), e0 + 1);

    drop(c);
    server.shutdown();
}

#[test]
fn a_batch_killed_mid_pipeline_recovers_without_duplicating_edits() {
    let _fp = cxobs::Scenario::setup();
    let dir = TempDir::new("midpipe");
    let cluster = open_cluster(&dir, 2);
    let server = bind(&cluster, "127.0.0.1:0".parse().unwrap());
    let addr = server.addr();

    let c = Client::connect(addr, ClientOptions::default()).unwrap();
    let mut docs = Vec::new();
    for i in 0..4 {
        docs.push(c.insert(&manuscript(25, 50 + i)).unwrap());
    }
    let base: Vec<u64> = docs.iter().map(|d| cluster.epoch(*d).unwrap()).collect();

    // 60 gated edits, 15 per document, paced at ~4 ms each so the kill
    // lands mid-pipeline.
    let edits: Vec<(cxstore::DocId, EditOp)> = (0..60)
        .map(|k| (docs[k % docs.len()], EditOp::InsertText { offset: 0, text: format!("[{k}]") }))
        .collect();
    fault::configure(
        Site::ServeRequest,
        Trigger::EveryN(1),
        Fault::Delay(Duration::from_millis(4)),
    );

    let batch = {
        let c = Client::connect(addr, ClientOptions::default()).unwrap();
        let edits = edits.clone();
        std::thread::spawn(move || c.edit_batch(&edits))
    };

    // Let the pipeline get going, then yank the server and put it back
    // on the same port.
    std::thread::sleep(Duration::from_millis(60));
    server.shutdown();
    let server = bind(&cluster, addr);

    let results = batch.join().unwrap().expect("the batch recovered");
    assert_eq!(results.len(), edits.len());
    for (k, r) in results.iter().enumerate() {
        assert!(r.is_ok(), "edit {k} failed: {r:?}");
    }

    // Exactly once, each: every document's epoch advanced by exactly its
    // number of batch edits — a duplicated resend would overshoot, a
    // dropped edit would undershoot.
    for (i, d) in docs.iter().enumerate() {
        let expected = base[i] + (edits.iter().filter(|(doc, _)| doc == d).count() as u64);
        assert_eq!(
            cluster.epoch(*d).unwrap(),
            expected,
            "doc {i}: exactly one application per edit"
        );
    }
    // And the content says the same: every marker appears exactly once.
    for (i, d) in docs.iter().enumerate() {
        let text = cluster.with_doc(*d, |g| g.content()).unwrap();
        for k in (0..60).filter(|k| k % docs.len() == i) {
            let marker = format!("[{k}]");
            assert_eq!(
                text.matches(&marker).count(),
                1,
                "doc {i}: marker {marker} applied exactly once"
            );
        }
    }

    drop(c);
    server.shutdown();
}
