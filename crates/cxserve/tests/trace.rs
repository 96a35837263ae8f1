//! End-to-end tracing tests: one wire request → one span tree across
//! client and server layers, trace propagation under injected faults
//! and shard outages, and the slow-request flight recorder's retention
//! guarantee.
//!
//! Tracing and fault state are process-global, so every test holds the
//! one `cxobs::Scenario` and turns tracing on only once its set-up is
//! done, so the recorder holds exactly the requests under test; the
//! guard's drop turns it off again.

mod common;

use common::{manuscript, open_cluster, TempDir};
use cxcluster::ShardId;
use cxobs::fault::{self, Fault, Site, Trigger};
use cxobs::trace::{self, FinishedTrace, SpanRecord};
use cxserve::{
    Client, ClientOptions, ClusterServer, RouterClient, ServeError, ServerOptions, WireError,
};
use cxstore::EditOp;
use std::sync::Arc;
use std::time::Duration;

/// Every non-root span's parent must be present in the same trace — a
/// missing parent means a span leaked out of its tree.
fn assert_no_orphans(t: &FinishedTrace) {
    for s in &t.spans {
        assert!(
            s.parent_id == 0 || t.spans.iter().any(|p| p.span_id == s.parent_id),
            "span {:?} is orphaned: parent {:016x} not in trace {:016x}",
            s.name,
            s.parent_id,
            t.trace_id
        );
    }
}

/// Detached fan-out workers flush after the caller returns, so a trace
/// may finalize a beat later than the response — poll briefly.
fn poll_for<T>(mut f: impl FnMut() -> Option<T>) -> Option<T> {
    for _ in 0..200 {
        if let Some(v) = f() {
            return Some(v);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    None
}

fn span_of<'t>(t: &'t FinishedTrace, name: &str) -> &'t SpanRecord {
    t.spans
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("trace {:016x} has no span {name:?}", t.trace_id))
}

/// Whether `s` is the span `ancestor` or lies below it.
fn descends_from<'t>(t: &'t FinishedTrace, mut s: &'t SpanRecord, ancestor: u64) -> bool {
    loop {
        if s.span_id == ancestor {
            return true;
        }
        match t.spans.iter().find(|p| p.span_id == s.parent_id) {
            Some(p) => s = p,
            None => return false,
        }
    }
}

/// The acceptance tree: a single router guarded edit produces ONE trace
/// whose spans cross process layers — router → client → wire → server
/// handler → cluster → shard store → gate / WAL — with exact parentage,
/// and the tree is retrievable over the wire via the `trace` verb.
#[test]
fn a_guarded_edit_yields_one_tree_across_every_layer() {
    let _s = cxobs::Scenario::setup();
    let dir = TempDir::new("trace-tree");
    let cluster = open_cluster(&dir, 2);
    let opts = ServerOptions::default();
    let s0 =
        ClusterServer::bind_shard(Arc::clone(&cluster), ShardId(0), "127.0.0.1:0", opts.clone())
            .unwrap();
    let s1 =
        ClusterServer::bind_shard(Arc::clone(&cluster), ShardId(1), "127.0.0.1:0", opts).unwrap();
    let router = RouterClient::connect(&[s0.addr(), s1.addr()], ClientOptions::default()).unwrap();

    // Set up the document before tracing starts: the recorded trace
    // under test is exactly the guarded edit.
    let id = router.insert(&manuscript(30, 77)).unwrap();
    let epoch = router.epoch(id).unwrap();

    trace::enable();
    router.edit_guarded(id, epoch, EditOp::InsertText { offset: 0, text: "x".into() }).unwrap();

    let recent = trace::recent();
    let summary = recent
        .iter()
        .find(|t| t.root == "router.request")
        .expect("the guarded edit's trace is retained");
    let t = trace::find(summary.trace_id).unwrap();
    assert_no_orphans(&t);

    // The full causal chain, one parent at a time.
    let root = span_of(&t, "router.request");
    assert_eq!(root.parent_id, 0, "router.request is the root");
    let chain = ["client.edit_guarded", "client.call", "serve.request", "cluster.edit"];
    let mut parent = root;
    for name in chain {
        let s = span_of(&t, name);
        assert_eq!(s.parent_id, parent.span_id, "{name} parents onto {}", parent.name);
        parent = s;
    }
    let store_edit = span_of(&t, "store.edit");
    assert_eq!(store_edit.parent_id, parent.span_id, "store.edit parents onto cluster.edit");
    // Gate and WAL append both happen inside the store edit.
    assert_eq!(span_of(&t, "store.gate").parent_id, store_edit.span_id);
    assert_eq!(span_of(&t, "wal.append").parent_id, store_edit.span_id);

    // Durations nest: the root covers the server handler span.
    let serve = span_of(&t, "serve.request");
    assert!(root.duration_ns >= serve.duration_ns, "root at least as long as the handler");
    assert!(serve.attrs.iter().any(|(k, v)| *k == "verb" && v.to_string() == "edit"));

    // And the same tree is wire-accessible: summaries via `trace
    // recent`, the rendered tree via `trace get`.
    let owner = router.shard_of(id);
    let wire = router.shard_client(owner).traces_recent(16).unwrap();
    assert!(wire.iter().any(|w| w.trace_id == t.trace_id && w.root == "router.request"));
    let tree = router.shard_client(owner).trace_tree(t.trace_id).unwrap();
    for name in
        ["router.request", "client.edit_guarded", "serve.request", "store.gate", "wal.append"]
    {
        assert!(tree.contains(name), "rendered tree mentions {name}:\n{tree}");
    }
}

/// An imported document's blob work is visible in its trace: inside the
/// request handler's span the server restores the received blob exactly
/// once, and nothing captures it again — the WAL logs the blob as it
/// arrived.
#[test]
fn an_import_restores_its_blob_once_and_never_captures_under_the_handler() {
    let _s = cxobs::Scenario::setup();
    let dir = TempDir::new("trace-import");
    let cluster = open_cluster(&dir, 1);
    let server =
        ClusterServer::bind(Arc::clone(&cluster), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let c = Client::connect(server.addr(), ClientOptions::default()).unwrap();

    trace::enable();
    c.insert(&manuscript(30, 77)).unwrap();

    let t = trace::recent()
        .iter()
        .filter_map(|s| trace::find(s.trace_id))
        .find(|t| t.spans.iter().any(|s| s.name == "blob.restore"))
        .expect("the import's trace is retained");
    assert_no_orphans(&t);
    let serve = span_of(&t, "serve.request");
    assert!(serve.attrs.iter().any(|(k, v)| *k == "verb" && v.to_string() == "insert"));
    let under_serve = |name: &str| {
        t.spans.iter().filter(|s| s.name == name && descends_from(&t, s, serve.span_id)).count()
    };
    assert_eq!(under_serve("blob.restore"), 1, "one restore of the received blob");
    assert_eq!(under_serve("blob.capture"), 0, "no capture on the server");
}

/// The flight recorder's retention guarantee over the wire: a request
/// delayed past the slow threshold (via a `Delay` failpoint at the server's
/// request site) stays retrievable after 2×N ordinary requests churn
/// the normal ring.
#[test]
fn a_delayed_request_survives_normal_churn() {
    let _s = cxobs::Scenario::setup();
    let dir = TempDir::new("trace-slow");
    let cluster = open_cluster(&dir, 1);
    let server =
        ClusterServer::bind(Arc::clone(&cluster), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let c = Client::connect(server.addr(), ClientOptions::default()).unwrap();

    trace::enable();

    // Exactly one request stalls server-side, long enough to classify
    // slow but far under the server deadline.
    let delay = trace::SLOW_THRESHOLD + Duration::from_millis(50);
    fault::configure(Site::ServeRequest, Trigger::Nth(1), Fault::Delay(delay));
    c.ping().unwrap();

    for _ in 0..2 * trace::RETAIN {
        c.ping().unwrap();
    }

    let slow = c.traces_slow(16).unwrap();
    let delayed = slow
        .iter()
        .find(|t| t.slow && u128::from(t.duration_ns) >= delay.as_nanos())
        .expect("the delayed trace survived the churn");
    assert_eq!(delayed.root, "client.call");
    let tree = c.trace_tree(delayed.trace_id).unwrap();
    assert!(tree.contains("SLOW"), "rendered header flags the trace slow:\n{tree}");
    assert!(tree.contains("serve.request"), "the server-side span is in the tree:\n{tree}");
}

/// An injected `serve.request` fault refuses the request before
/// decoding — the trace must still be complete: the client's context
/// crossed the wire, the handler span exists, and it carries the error
/// annotation. No leaked or orphaned spans.
#[test]
fn injected_faults_produce_complete_error_annotated_traces() {
    let _s = cxobs::Scenario::setup();
    let dir = TempDir::new("trace-inject");
    let cluster = open_cluster(&dir, 1);
    let server =
        ClusterServer::bind(Arc::clone(&cluster), "127.0.0.1:0", ServerOptions::default()).unwrap();
    // No retries: the injected refusal must surface, not be papered over.
    let c = Client::connect(server.addr(), ClientOptions { retries: 0 }).unwrap();
    let id = c.insert(&manuscript(20, 5)).unwrap();

    trace::enable();
    fault::configure(Site::ServeRequest, Trigger::Nth(1), Fault::Io);
    match c.query(id, "//w") {
        Err(ServeError::Remote(WireError::Injected(_))) => {}
        other => panic!("expected the injected refusal, got {other:?}"),
    }

    // Error traces land in the protected ring, never the normal one.
    let summaries = trace::slow();
    let errored = summaries
        .iter()
        .find(|t| t.error && t.root == "client.call")
        .expect("the refused request's trace is retained as an error trace");
    let t = trace::find(errored.trace_id).unwrap();
    assert_no_orphans(&t);

    let serve = span_of(&t, "serve.request");
    assert_eq!(
        serve.parent_id,
        span_of(&t, "client.call").span_id,
        "the context crossed the wire even though the frame was never decoded"
    );
    assert!(
        serve.error.as_deref().unwrap_or("").contains("injected"),
        "the handler span carries the injection: {:?}",
        serve.error
    );
    // The fault fires before decoding, so the verb is contractually
    // unknown server-side.
    assert!(serve.attrs.iter().any(|(k, v)| *k == "verb" && v.to_string() == "unknown"));
}

/// A fan-out over a cluster with a downed shard: the trace is complete
/// — per-shard spans for the healthy shards, an error-annotated
/// synthetic span for the downed one — with no orphans.
#[test]
fn shard_down_fanout_traces_completely() {
    let _s = cxobs::Scenario::setup();
    let dir = TempDir::new("trace-down");
    let cluster = open_cluster(&dir, 2);
    let server =
        ClusterServer::bind(Arc::clone(&cluster), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let c = Client::connect(server.addr(), ClientOptions::default()).unwrap();
    for seed in 0..4 {
        c.insert(&manuscript(20, seed)).unwrap();
    }
    cluster.mark_shard_down(ShardId(1)).unwrap();

    trace::enable();
    let (hits, errors) = c.query_all_partial("//w", Duration::from_millis(500)).unwrap();
    assert!(!hits.is_empty(), "healthy shards answered");
    assert!(
        errors.iter().any(|(s, e)| *s == 1 && matches!(e, WireError::ShardDown(_))),
        "the downed shard surfaced typed: {errors:?}"
    );

    // The downed shard makes it an error trace → protected ring. The
    // fan-out workers are detached, so the trace finalizes when the
    // last worker flushes — poll briefly for it.
    let errored =
        poll_for(|| trace::slow().into_iter().find(|t| t.error && t.root == "client.call"))
            .expect("the fan-out's trace is retained as an error trace");
    let t = trace::find(errored.trace_id).unwrap();
    assert_no_orphans(&t);

    let fanout = span_of(&t, "cluster.query_all");
    let shard_spans: Vec<_> = t.spans.iter().filter(|s| s.name == "cluster.shard_query").collect();
    assert_eq!(shard_spans.len(), 2, "one span per shard, down or not");
    for s in &shard_spans {
        assert_eq!(s.parent_id, fanout.span_id, "shard spans parent onto the fan-out");
    }
    let down = shard_spans
        .iter()
        .find(|s| s.attrs.iter().any(|(k, v)| *k == "shard" && v.to_string() == "1"))
        .expect("the downed shard has its span");
    assert!(
        down.error.as_deref().unwrap_or("").contains("down"),
        "the downed shard's span is error-annotated: {:?}",
        down.error
    );
}
