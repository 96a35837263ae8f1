//! End-to-end service-tier tests: every verb over a real socket, typed
//! failure passthrough (stale, shard-down, timeout, injected, panic,
//! deadline), and the shard-scoped server + router client pair.
//!
//! Every test holds `cxobs::Scenario`: the failpoint table is
//! process-wide, so a request from an unguarded sibling could consume a
//! one-shot fault another test armed on `serve.request`.

mod common;

use common::{manuscript, open_cluster, TempDir};
use cxcluster::ShardId;
use cxobs::fault::{self, Fault, Site, Trigger};
use cxserve::{
    Client, ClientOptions, ClusterServer, Request, Response, RouterClient, ServeError,
    ServerOptions, TraceQuery, Verb, WireError,
};
use cxstore::EditOp;
use std::sync::Arc;
use std::time::Duration;

fn client(server: &ClusterServer) -> Client {
    Client::connect(server.addr(), ClientOptions::default()).unwrap()
}

#[test]
fn every_verb_over_a_real_socket() {
    let _s = cxobs::Scenario::setup();
    let dir = TempDir::new("verbs");
    let cluster = open_cluster(&dir, 2);
    let server =
        ClusterServer::bind(Arc::clone(&cluster), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let c = client(&server);

    c.ping().unwrap();

    // Insert (anonymous + named), resolve, and read back.
    let g = manuscript(50, 21);
    let local_export = sacx::export_standoff(&g);
    let a = c.insert(&g).unwrap();
    let b = c.insert_named("ms-b", &manuscript(40, 23)).unwrap();
    assert_ne!(a, b);
    assert_eq!(c.id_by_name("ms-b").unwrap(), b);
    assert_eq!(c.export(a).unwrap(), local_export, "export is byte-identical over the wire");

    // Queries: per-doc, fan-out, partial.
    let words = c.query(a, "//w").unwrap();
    assert!(!words.is_empty());
    assert_eq!(words, cluster.query(a, "//w").unwrap());
    let hits = c.query_all("//w").unwrap();
    assert_eq!(hits.len(), 2);
    let (phits, perrs) = c.query_all_partial("//w", Duration::from_secs(2)).unwrap();
    assert_eq!(phits.len(), 2);
    assert!(perrs.is_empty());

    // Suggestions against a span.
    let (s, e) = cluster.with_doc(a, |g| g.char_range(g.find_elements("w")[0])).unwrap();
    assert_eq!(
        c.suggest_tags(a, "ling", s, e).unwrap(),
        cluster.suggest_tags(a, "ling", s, e).unwrap()
    );

    // Edits: unguarded, guarded, stale-guard refusal.
    let e0 = c.epoch(a).unwrap();
    let out = c.edit(a, EditOp::InsertText { offset: 0, text: "x".into() }).unwrap();
    assert_eq!(out.epoch, e0 + 1);
    let out =
        c.edit_guarded(a, e0 + 1, EditOp::InsertText { offset: 0, text: "y".into() }).unwrap();
    assert_eq!(out.epoch, e0 + 2);
    let stale = c.edit_guarded(a, e0, EditOp::InsertText { offset: 0, text: "z".into() });
    match stale {
        Err(ServeError::Remote(WireError::Stale { current })) => assert_eq!(current, e0 + 2),
        other => panic!("expected stale refusal, got {other:?}"),
    }

    // A gate rejection crosses the wire as a typed store error.
    let reject = c.edit(
        a,
        EditOp::InsertElement {
            hierarchy: "ling".into(),
            tag: "nonsense-tag".into(),
            attrs: Vec::new(),
            start: 0,
            end: 1,
        },
    );
    assert!(matches!(reject, Err(ServeError::Remote(WireError::Store(_)))), "{reject:?}");

    // Metrics page includes both the storage stack and the server.
    let page = c.metrics().unwrap();
    assert!(page.contains("cx_server_requests_total"), "{page}");
    assert!(page.contains("cx_cluster") || page.contains("cx_"), "{page}");

    // Routing view.
    let (shards, overrides) = c.routes().unwrap();
    assert_eq!(shards, 2);
    assert!(overrides.is_empty());

    // Remove: true once, false after.
    assert!(c.remove(b).unwrap());
    assert!(!c.remove(b).unwrap());

    drop(c);
    server.shutdown();
}

/// The vocabulary is closed over the server: one well-formed request per
/// [`Verb`] — built by an exhaustive `match`, so a new verb cannot be added
/// without a sample — gets a reply that is not `bad_request`, except
/// `fetch`, which only the replication listener serves and this server
/// refuses typed.
#[test]
fn every_verb_in_the_vocabulary_is_served() {
    let _s = cxobs::Scenario::setup();
    let dir = TempDir::new("vocab");
    let cluster = open_cluster(&dir, 2);
    let server =
        ClusterServer::bind(Arc::clone(&cluster), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let g = manuscript(30, 31);
    let doc = client(&server).insert_named("ms", &g).unwrap();
    let blob = || cxpersist::DocBlob::capture(&g);
    let sample = |verb: Verb| match verb {
        Verb::Ping => Request::Ping,
        Verb::Insert => Request::Insert { name: None, blob: blob() },
        Verb::InsertNamed => Request::Insert { name: Some("ms-2".into()), blob: blob() },
        Verb::Edit => Request::Edit {
            doc,
            guard: None,
            op: EditOp::InsertText { offset: 0, text: "x".into() },
        },
        Verb::Query => Request::Query { doc, expr: "//w".into() },
        Verb::QueryAll => Request::QueryAll { expr: "//w".into() },
        Verb::QueryPartial => Request::QueryPartial { timeout_ms: 2000, expr: "//w".into() },
        Verb::Suggest => Request::Suggest { doc, hierarchy: "ling".into(), start: 0, end: 1 },
        Verb::Export => Request::Export { doc },
        Verb::IdByName => Request::IdByName { name: "ms".into() },
        Verb::Epoch => Request::Epoch { doc },
        Verb::Remove => Request::Remove { doc },
        Verb::Metrics => Request::Metrics,
        Verb::Routes => Request::Routes,
        Verb::Trace => Request::Trace(TraceQuery::Recent { limit: 1 }),
        Verb::Fetch => Request::Fetch { after: 0, max_bytes: 1 << 20 },
    };
    let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    for &verb in Verb::ALL {
        let req = sample(verb);
        assert_eq!(req.verb(), verb);
        cxwire::write_frame(&mut conn, &req.encode()).unwrap();
        let resp = Response::decode(&cxwire::read_frame(&mut conn).unwrap()).unwrap();
        let refused = matches!(resp, Response::Err(WireError::BadRequest(_)));
        assert_eq!(refused, verb == Verb::Fetch, "{verb}: {resp:?}");
    }
    drop(conn);
    server.shutdown();
}

#[test]
fn frames_sharing_one_segment_are_answered_in_order() {
    use std::io::Write;

    let _s = cxobs::Scenario::setup();
    let dir = TempDir::new("segment");
    let cluster = open_cluster(&dir, 2);
    let server =
        ClusterServer::bind(Arc::clone(&cluster), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let doc = client(&server).insert(&manuscript(30, 31)).unwrap();
    let words = cluster.query(doc, "//w").unwrap();
    assert!(!words.is_empty());

    // Three frames, one `write`: the server may not assume a frame per read.
    let mut bytes = Vec::new();
    cxwire::write_frame(&mut bytes, &Request::Ping.encode()).unwrap();
    cxwire::write_frame(&mut bytes, &Request::Query { doc, expr: "//w".into() }.encode()).unwrap();
    cxwire::write_frame(&mut bytes, b"\xff\xfe\x80 total garbage \x00\x01").unwrap();
    let mut conn = std::net::TcpStream::connect(server.addr()).unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    conn.write_all(&bytes).unwrap();

    let mut reply = || Response::decode(&cxwire::read_frame(&mut conn).unwrap()).unwrap();
    assert_eq!(reply(), Response::Pong);
    assert_eq!(reply(), Response::Nodes(words));
    let garbage = reply();
    assert!(matches!(garbage, Response::Err(WireError::BadRequest(_))), "{garbage:?}");
    drop(conn);
    server.shutdown();
}

#[test]
fn typed_cluster_failures_cross_the_wire() {
    let _s = cxobs::Scenario::setup();
    let dir = TempDir::new("typed");
    let cluster = open_cluster(&dir, 2);
    let server =
        ClusterServer::bind(Arc::clone(&cluster), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let c = client(&server);

    let mut on_down = None;
    for i in 0.. {
        let id = c.insert(&manuscript(25, 100 + i)).unwrap();
        if cluster.shard_of(id) == ShardId(1) {
            on_down = Some(id);
            break;
        }
    }
    let on_down = on_down.unwrap();

    cluster.mark_shard_down(ShardId(1)).unwrap();
    // A write routed to the down shard fails fast and typed.
    let miss = c.edit(on_down, EditOp::InsertText { offset: 0, text: "x".into() });
    assert!(matches!(miss, Err(ServeError::Remote(WireError::ShardDown(1)))), "{miss:?}");
    // Partial fan-out reports the down shard per-entry.
    let (_, errs) = c.query_all_partial("//w", Duration::from_secs(2)).unwrap();
    assert!(errs.iter().any(|(s, e)| *s == 1 && matches!(e, WireError::ShardDown(1))), "{errs:?}");
    // All-or-nothing fan-out refuses as a whole.
    let all = c.query_all("//w");
    assert!(matches!(all, Err(ServeError::Remote(WireError::ShardDown(1)))), "{all:?}");
    cluster.heal_shard(ShardId(1)).unwrap();
    assert_eq!(c.query_all("//w").unwrap().len(), {
        let mut n = 0;
        for _ in cluster.doc_ids() {
            n += 1;
        }
        n
    });

    drop(c);
    server.shutdown();
}

#[test]
fn injected_faults_deadlines_and_panics_are_contained() {
    let _fp = cxobs::Scenario::setup();
    let dir = TempDir::new("faults");
    let cluster = open_cluster(&dir, 1);
    let opts = ServerOptions { deadline: Duration::from_millis(300), ..ServerOptions::default() };
    let server = ClusterServer::bind(Arc::clone(&cluster), "127.0.0.1:0", opts).unwrap();
    let c = client(&server);
    let id = c.insert(&manuscript(30, 31)).unwrap();

    // An injected request error arrives typed (observed on a zero-retry
    // client — the default client absorbs transient refusals itself).
    let raw = Client::connect(server.addr(), ClientOptions { retries: 0 }).unwrap();
    fault::configure(Site::ServeRequest, Trigger::Nth(1), Fault::Io);
    let hit = raw.query(id, "//w");
    assert!(matches!(hit, Err(ServeError::Remote(WireError::Injected(_)))), "{hit:?}");
    assert!(!c.query(id, "//w").unwrap().is_empty());

    // The default client retries straight through a one-shot injection:
    // injected fires pre-decode, so the retry is safe even for writes.
    fault::configure(Site::ServeRequest, Trigger::Nth(1), Fault::Io);
    assert!(!c.query(id, "//w").unwrap().is_empty(), "retry absorbed the injected fault");

    // A handler panic is caught: typed server error, connection lives.
    fault::configure(Site::ServeRequest, Trigger::Nth(1), Fault::Panic);
    let hit = c.query(id, "//w");
    assert!(matches!(hit, Err(ServeError::Remote(WireError::Server(_)))), "{hit:?}");
    assert!(!c.query(id, "//w").unwrap().is_empty());

    // A stall past the deadline comes back as a typed deadline error
    // (driven on the raw client so the retry machinery stays out of it).
    fault::configure(Site::ServeRequest, Trigger::Nth(1), Fault::Delay(Duration::from_millis(600)));
    let hit = raw.query(id, "//w");
    assert!(matches!(hit, Err(ServeError::Remote(WireError::Deadline { .. }))), "{hit:?}");

    // A guarded edit refused by the deadline recovers via the epoch
    // probe instead of double-applying.
    let e0 = c.epoch(id).unwrap();
    fault::configure(Site::ServeRequest, Trigger::Nth(1), Fault::Delay(Duration::from_millis(600)));
    let out = c.edit_guarded(id, e0, EditOp::InsertText { offset: 0, text: "d".into() }).unwrap();
    assert_eq!(out.epoch, e0 + 1);
    assert_eq!(c.epoch(id).unwrap(), e0 + 1, "the edit applied exactly once");

    // A batch runs the same protocol. Its own epoch probe is request 1,
    // so `Nth(2)` hits the batch's first edit.
    let ins = |text: &str| EditOp::InsertText { offset: 0, text: text.into() };
    let e0 = c.epoch(id).unwrap();
    fault::configure(Site::ServeRequest, Trigger::Nth(2), Fault::Delay(Duration::from_millis(600)));
    let out = c.edit_batch(&[(id, ins("b1")), (id, ins("b2"))]).unwrap();
    assert!(out.iter().all(Result::is_ok), "a deadline-refused edit that applied is Ok: {out:?}");
    assert_eq!(c.epoch(id).unwrap(), e0 + 2, "each batch edit applied exactly once");

    let e0 = c.epoch(id).unwrap();
    fault::configure(Site::ServeRequest, Trigger::Nth(2), Fault::Io);
    let out = c.edit_batch(&[(id, ins("i1")), (id, ins("i2"))]).unwrap();
    assert!(out.iter().all(Result::is_ok), "a one-shot injection is resent: {out:?}");
    assert_eq!(c.epoch(id).unwrap(), e0 + 2);

    // A removed document fails its own edit, not the batch.
    let gone = c.insert(&manuscript(20, 32)).unwrap();
    assert!(c.remove(gone).unwrap());
    let out = c.edit_batch(&[(id, ins("r1")), (gone, ins("r2")), (id, ins("r3"))]).unwrap();
    assert!(matches!(out[1], Err(ServeError::Remote(WireError::Store(_)))), "{out:?}");
    assert!(out[0].is_ok() && out[2].is_ok(), "{out:?}");

    drop(c);
    drop(raw);
    server.shutdown();
}

#[test]
fn shard_scoped_servers_and_the_router_client() {
    let _s = cxobs::Scenario::setup();
    let dir = TempDir::new("router");
    let cluster = open_cluster(&dir, 3);
    let servers: Vec<ClusterServer> = (0..3)
        .map(|s| {
            ClusterServer::bind_shard(
                Arc::clone(&cluster),
                ShardId(s),
                "127.0.0.1:0",
                ServerOptions::default(),
            )
            .unwrap()
        })
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
    let router = RouterClient::connect(&addrs, ClientOptions::default()).unwrap();
    assert_eq!(router.shard_count(), 3);
    // No endpoints is a typed refusal, not a panic.
    let none = RouterClient::connect(&[], ClientOptions::default());
    assert!(matches!(none, Err(ServeError::Protocol(_))));

    // Inserts round-robin across shard endpoints; each shard-scoped
    // server mints ids in its own residue class.
    let mut docs = Vec::new();
    for i in 0..6 {
        let id = router.insert(&manuscript(25, 300 + i)).unwrap();
        docs.push(id);
    }
    for s in 0..3 {
        assert!(
            docs.iter().any(|d| cluster.shard_of(*d) == ShardId(s)),
            "round-robin reached shard {s}"
        );
    }
    for d in &docs {
        assert_eq!(router.shard_of(*d), cluster.shard_of(*d).0, "client-side routing agrees");
    }

    // Per-document traffic goes straight to the owner.
    for d in &docs {
        assert_eq!(router.query(*d, "//w").unwrap(), cluster.query(*d, "//w").unwrap());
        assert_eq!(
            router.export(*d).unwrap(),
            cluster.with_doc(*d, sacx::export_standoff).unwrap()
        );
        let e = router.epoch(*d).unwrap();
        let out =
            router.edit_guarded(*d, e, EditOp::InsertText { offset: 0, text: "r".into() }).unwrap();
        assert_eq!(out.epoch, e + 1);
    }

    // Fan-out across shard endpoints merges the whole corpus.
    let hits = router.query_all("//w").unwrap();
    assert_eq!(hits.len(), docs.len());
    let mut sorted = hits.clone();
    sorted.sort_by_key(|(id, _)| *id);
    assert_eq!(hits, sorted, "merged hits are id-sorted");
    let (phits, perrs) = router.query_all_partial("//w", Duration::from_secs(2)).unwrap();
    assert_eq!(phits.len(), docs.len());
    assert!(perrs.is_empty());

    // A shard marked down means the same thing through the router as in
    // process: the all-or-nothing fan-out is refused, the partial one
    // answers for the other shards and names the missing one.
    cluster.mark_shard_down(ShardId(1)).unwrap();
    let all = router.query_all("//w");
    assert!(matches!(all, Err(ServeError::Remote(WireError::ShardDown(1)))), "{all:?}");
    let (phits, perrs) = router.query_all_partial("//w", Duration::from_secs(2)).unwrap();
    let up: Vec<_> = hits.iter().filter(|(d, _)| cluster.shard_of(*d) != ShardId(1)).collect();
    assert_eq!(phits.iter().collect::<Vec<_>>(), up, "exactly the other shards' hits");
    assert!(matches!(perrs[..], [(1, WireError::ShardDown(1))]), "{perrs:?}");
    cluster.heal_shard(ShardId(1)).unwrap();
    assert_eq!(router.query_all("//w").unwrap(), hits);
    let (phits, perrs) = router.query_all_partial("//w", Duration::from_secs(2)).unwrap();
    assert_eq!((phits, perrs.is_empty()), (hits, true));

    // Asking the wrong shard directly earns a typed wrong_shard with
    // the real owner inside.
    let d0 = docs[0];
    let owner = cluster.shard_of(d0).0;
    let not_owner = (owner + 1) % 3;
    let direct = Client::connect(addrs[not_owner], ClientOptions::default()).unwrap();
    let refusal = direct.query(d0, "//w");
    match refusal {
        Err(ServeError::Remote(WireError::WrongShard { owner: o })) => assert_eq!(o, owner),
        other => panic!("expected wrong_shard, got {other:?}"),
    }

    // After a relocation, the router learns the new owner lazily from
    // the wrong_shard refusal and the retry succeeds.
    let dest = ShardId((cluster.shard_of(d0).0 + 1) % 3);
    cluster.move_doc(d0, dest).unwrap();
    assert_eq!(router.shard_of(d0), owner, "router still believes the old owner");
    assert_eq!(router.query(d0, "//w").unwrap(), cluster.query(d0, "//w").unwrap());
    assert_eq!(router.shard_of(d0), dest.0, "the refusal taught the router the new owner");

    // A fresh router picks the override up from the routes verb.
    let fresh = RouterClient::connect(&addrs, ClientOptions::default()).unwrap();
    assert_eq!(fresh.shard_of(d0), dest.0);

    // The per-shard metrics pages each carry their own server labels.
    let page = router.metrics(0).unwrap();
    assert!(page.contains("cx_server_requests_total"), "{page}");

    drop(router);
    drop(fresh);
    drop(direct);
    for s in servers {
        s.shutdown();
    }
}
