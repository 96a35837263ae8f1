//! Wire hardening: a follower's fetch is one `cxq1` frame each way, frame
//! lengths are bounded on both ends, a hostile or corrupt frame fails
//! loudly and typed instead of demanding an absurd allocation or hanging
//! the peer, and record bytes cross the wire exactly as the primary's WAL
//! holds them.

mod common;

use common::TempDir;
use cxobs::trace;
use cxpersist::{DurableStore, FsyncPolicy, Options};
use cxrepl::{
    FetchResponse, Follower, LogTransport, Primary, ReplError, ReplicaStore, SyncProgress,
    TcpReplServer, TcpTransport,
};
use cxstore::EditOp;
use cxwire::{Request, Response, WireError, MAX_FRAME};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

fn serving_primary(dir: &TempDir, edits: usize) -> (Arc<Primary>, TcpReplServer) {
    let durable = Arc::new(
        DurableStore::open_with(dir.path(), Options { fsync: FsyncPolicy::Never }).unwrap(),
    );
    let id = durable.insert(corpus::figure1::goddag()).unwrap();
    for i in 0..edits {
        durable.edit(id, EditOp::InsertText { offset: 0, text: format!("x{i} ") }).unwrap();
    }
    let primary = Arc::new(Primary::new(durable));
    let server = TcpReplServer::bind(Arc::clone(&primary), "127.0.0.1:0").unwrap();
    (primary, server)
}

/// A fake primary: one accepted connection served through the real
/// connection loop, answered by `respond`. The thread ends when the
/// client hangs up.
fn fake_primary(
    respond: impl FnMut(&[u8]) -> Response + Send + 'static,
) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let serve = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        cxwire::serve_connection(stream, &AtomicBool::new(false), respond, |_| {}).unwrap();
    });
    (addr, serve)
}

fn raw_conn(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

fn exchange(stream: &mut TcpStream, request: &[u8]) -> Vec<u8> {
    cxwire::write_frame(stream, request).unwrap();
    cxwire::read_frame(stream).unwrap()
}

#[test]
fn client_refuses_an_absurd_response_length_before_allocating() {
    // A fake primary that answers a fetch with a frame header declaring a
    // payload far beyond the frame cap (and never sends the payload).
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let request = cxwire::read_frame(&mut stream).unwrap();
        assert!(request.starts_with(b"cxq1 fetch 0 "), "{:?}", String::from_utf8_lossy(&request));
        stream.write_all(&u32::MAX.to_be_bytes()).unwrap(); // 4 GB payload, allegedly
                                                            // Keep the socket open: a naive client would now try to read 4 GB.
        let mut sink = [0u8; 1];
        let _ = stream.read(&mut sink);
    });

    let mut transport = TcpTransport::connect(addr).unwrap();
    match transport.fetch(0, 1 << 20) {
        Err(ReplError::Io(e)) => {
            assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{e}");
            assert!(e.to_string().contains("exceeds"), "{e}");
        }
        other => panic!("oversized frame must fail the fetch, got {other:?}"),
    }
    drop(transport);
    fake.join().unwrap();
}

#[test]
fn server_clamps_a_hostile_max_bytes_request() {
    let dir = TempDir::new("frames-clamp");
    let (_primary, server) = serving_primary(&dir, 50);

    // A raw client requesting u64::MAX bytes: the server must clamp the
    // budget and answer a well-formed, cap-respecting frame (the real
    // client never asks for more than MAX_FRAME, so this is exactly the
    // corrupt/hostile-frame case).
    let mut stream = raw_conn(server.addr());
    let reply = exchange(&mut stream, format!("cxq1 fetch 0 {}", u64::MAX).as_bytes());
    assert!(reply.len() <= MAX_FRAME as usize, "frame {} within the cap", reply.len());
    let Ok(Response::Fetch(FetchResponse::Records { bytes, .. })) = Response::decode(&reply) else {
        panic!(
            "expected records, got {:?}",
            String::from_utf8_lossy(&reply[..reply.len().min(40)])
        );
    };
    let scan = cxpersist::scan_batch(&bytes, 0);
    assert!(!scan.torn);
    assert_eq!(scan.records.first().unwrap().lsn, 1);

    // And a garbage request (absurd `after`) still gets a frame back, not
    // a hang: divergence travels as its dedicated kind.
    let reply = exchange(&mut stream, format!("cxq1 fetch {} 1024", u64::MAX).as_bytes());
    assert!(reply.starts_with(b"err diverged "), "{:?}", String::from_utf8_lossy(&reply));
    assert!(matches!(Response::decode(&reply), Ok(Response::Err(WireError::Diverged(_)))));
    server.shutdown();
}

#[test]
fn too_large_is_terminal_and_parks_a_background_follower() {
    // A fake primary whose every answer is "your payload cannot fit the
    // frame cap" — the server-side verdict for a >MAX_FRAME snapshot
    // bootstrap. The follower must park (terminal), not spin re-requesting
    // an artifact that will never fit.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        while cxwire::read_frame(&mut stream).is_ok() {
            let detail = b"err too_large response-of-99999999999-bytes-exceeds-the-frame-cap";
            if cxwire::write_frame(&mut stream, detail).is_err() {
                break;
            }
        }
    });

    let mut transport = TcpTransport::connect(addr).unwrap();
    assert!(matches!(transport.fetch(0, 1 << 20), Err(ReplError::FrameTooLarge { .. })));

    let replica = Arc::new(ReplicaStore::new());
    let handle = Follower::new(Arc::clone(&replica), transport).spawn(Duration::from_millis(2));
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while handle.terminal_error().is_none() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let err = handle.terminal_error().expect("the follower must park, not retry forever");
    assert!(
        matches!(&err, cxrepl::FollowerError::Transport { detail } if detail.contains("frame too large")),
        "{err}"
    );
    handle.stop();
    fake.join().unwrap(); // the fake server thread exits when the connection drops
}

#[test]
fn real_transport_roundtrip_stays_within_the_cap() {
    let dir = TempDir::new("frames-roundtrip");
    let (_primary, server) = serving_primary(&dir, 20);
    let mut transport = TcpTransport::connect(server.addr()).unwrap();
    // The client caps its own request at MAX_FRAME even when the follower
    // asks for more.
    match transport.fetch(0, usize::MAX).unwrap() {
        FetchResponse::Records { bytes, .. } => {
            assert!(bytes.len() <= MAX_FRAME as usize);
            let scan = cxpersist::scan_batch(&bytes, 0);
            assert_eq!(scan.records.last().unwrap().lsn, 21);
        }
        other => panic!("expected records, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn hostile_fetch_requests_are_refused_typed_and_the_connection_lives() {
    let dir = TempDir::new("frames-hostile");
    let (_primary, server) = serving_primary(&dir, 3);
    let mut stream = raw_conn(server.addr());
    let cases: &[&[u8]] = &[
        b"cxq1 fetch 0 1024 junk",                // a trailing token
        b"cxq1 fetch 0",                          // a missing argument
        b"cxq1 fetch zero 1024",                  // a non-numeric `after`
        b"cxq1 fetch 18446744073709551616 1024",  // an `after` past u64
        b"cxq2 fetch 0 1024",                     // a wrong version sentinel
        b"cxq1 ping",                             // a verb this listener does not serve
        b"cxq1 fetch 0 1024 tc not-a-trace-pair", // a malformed trace pair
    ];
    for &case in cases {
        let reply = Response::decode(&exchange(&mut stream, case)).unwrap();
        assert!(
            matches!(reply, Response::Err(WireError::BadRequest(_))),
            "{:?} answered {reply:?}",
            String::from_utf8_lossy(case)
        );
        // The same connection still serves a valid fetch.
        let reply = Response::decode(&exchange(&mut stream, b"cxq1 fetch 0 1024")).unwrap();
        assert!(
            matches!(reply, Response::Fetch(FetchResponse::Records { .. })),
            "after {:?}: {reply:?}",
            String::from_utf8_lossy(case)
        );
    }

    // A hostile declared length: refused typed before any allocation,
    // then the connection closes.
    stream.write_all(&u32::MAX.to_be_bytes()).unwrap();
    let reply = Response::decode(&cxwire::read_frame(&mut stream).unwrap()).unwrap();
    assert!(
        matches!(&reply, Response::Err(WireError::BadRequest(d)) if d.contains("exceeds")),
        "{reply:?}"
    );
    let mut rest = Vec::new();
    assert_eq!(stream.read_to_end(&mut rest).unwrap(), 0, "the listener hung up");
    server.shutdown();
}

/// A tiny primary: one small doc (record 1) + four text edits (2..=5).
fn tiny_primary(dir: &TempDir) -> Arc<Primary> {
    let durable =
        DurableStore::open_with(dir.path(), Options { fsync: FsyncPolicy::Never }).unwrap();
    let g = sacx::parse_distributed(&[("a", "<r><w>swa</w> hwa</r>")]).unwrap();
    let id = durable.insert_named("d", g).unwrap();
    for i in 0..4 {
        durable.edit(id, EditOp::InsertText { offset: 0, text: format!("t{i} ") }).unwrap();
    }
    Arc::new(Primary::new(Arc::new(durable)))
}

fn export_of(store: &cxstore::Store) -> String {
    store.with_doc(store.id_by_name("d").unwrap(), sacx::export_standoff).unwrap()
}

/// The wire twin of `torn_batch.rs`: a listener that ships its first
/// batch cut mid-record over real TCP. The follower applies exactly the
/// whole records before the cut, re-requests, and converges.
#[test]
fn a_batch_torn_on_the_wire_applies_its_whole_prefix_and_reconverges() {
    let dir = TempDir::new("frames-torn");
    let primary = tiny_primary(&dir);
    let FetchResponse::Records { bytes: full, .. } = primary.handle_fetch(0, usize::MAX).unwrap()
    else {
        panic!("expected records");
    };
    let mut boundaries = vec![0usize];
    while *boundaries.last().unwrap() < full.len() {
        let at = *boundaries.last().unwrap();
        let (_, used) = cxpersist::decode_record(&full[at..], 0).unwrap();
        boundaries.push(at + used);
    }
    // Three bytes into the third record.
    let cut = boundaries[2] + 3;
    assert!(cut < boundaries[3]);

    let server_primary = Arc::clone(&primary);
    let mut fired = false;
    let (addr, serve) = fake_primary(move |payload| {
        let Ok(Request::Fetch { after, max_bytes }) = Request::decode(payload) else {
            return Response::Err(WireError::BadRequest("not a fetch".into()));
        };
        match server_primary.handle_fetch(after, max_bytes as usize) {
            Ok(FetchResponse::Records { head, mut bytes }) if !fired => {
                fired = true;
                bytes.truncate(cut);
                Response::Fetch(FetchResponse::Records { head, bytes })
            }
            Ok(fetched) => Response::Fetch(fetched),
            Err(e) => Response::Err(WireError::Server(e.to_string())),
        }
    });

    let replica = Arc::new(ReplicaStore::new());
    let mut follower = Follower::new(Arc::clone(&replica), TcpTransport::new(addr));
    match follower.sync_once().unwrap() {
        SyncProgress::Applied { records, torn } => assert_eq!((records, torn), (2, true)),
        other => panic!("expected a torn batch, got {other:?}"),
    }
    assert_eq!(replica.last_applied(), 2);
    assert_eq!(follower.catch_up().unwrap(), 3, "the re-request ships exactly the rest");
    assert_eq!(replica.torn_batches(), 1);
    assert_eq!(replica.last_applied(), primary.durable().last_lsn());
    assert_eq!(export_of(replica.store()), export_of(primary.durable().store()));
    drop(follower);
    serve.join().unwrap();
}

/// One traced catch-up is one tree: the follower's root span, and under
/// it the listener's `repl.fetch` span for every fetch it sent.
#[test]
fn a_traced_catch_up_is_one_tree_with_the_server_span() {
    let _s = cxobs::Scenario::traced();
    let dir = TempDir::new("frames-trace");
    let (_primary, server) = serving_primary(&dir, 5);
    let replica = Arc::new(ReplicaStore::new());
    let mut follower = Follower::new(Arc::clone(&replica), TcpTransport::new(server.addr()));
    let trace_id = {
        let _root = trace::span_or_root("test.catch_up");
        follower.catch_up().unwrap();
        trace::current_trace_id()
    };
    let t = (0..200)
        .find_map(|_| {
            let found = trace::find(trace_id);
            if found.is_none() {
                std::thread::sleep(Duration::from_millis(10));
            }
            found
        })
        .expect("the catch-up's trace was recorded");
    let tree = trace::render_tree(&t);
    assert!(tree.contains("test.catch_up"), "{tree}");
    // Records, then caught-up: two fetches, two server-side spans.
    assert_eq!(t.spans.iter().filter(|s| s.name == "repl.fetch").count(), 2, "{tree}");
    for s in t.spans.iter().filter(|s| s.name == "repl.fetch") {
        assert!(t.spans.iter().any(|p| p.span_id == s.parent_id), "{tree}");
    }
    server.shutdown();
}

/// With tracing idle, a fetch is its bare request line: no `tc` pair.
#[test]
fn an_untraced_fetch_carries_no_trace_pair() {
    let _s = cxobs::Scenario::setup();
    let (seen_tx, seen) = mpsc::channel();
    let (addr, serve) = fake_primary(move |payload| {
        seen_tx.send(payload.to_vec()).unwrap();
        Response::Fetch(FetchResponse::CaughtUp { head: 0 })
    });
    let mut transport = TcpTransport::new(addr);
    assert_eq!(transport.fetch(0, 4096).unwrap(), FetchResponse::CaughtUp { head: 0 });
    assert_eq!(seen.recv().unwrap(), b"cxq1 fetch 0 4096");
    drop(transport);
    serve.join().unwrap();
}
