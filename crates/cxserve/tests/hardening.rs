//! Malformed-input hardening: garbage bytes, truncated frames, and
//! hostile declared lengths never panic the server, never leak handler
//! threads, and never poison the endpoint for well-behaved clients.

mod common;

use common::{manuscript, open_cluster, TempDir};
use cxpersist::DocBlob;
use cxserve::{Client, ClientOptions, ClusterServer, Request, Response, ServerOptions, WireError};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn raw_conn(server: &ClusterServer) -> TcpStream {
    let s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

fn read_response(stream: &mut TcpStream) -> Response {
    let payload = cxwire::read_frame(stream).unwrap();
    Response::decode(&payload).unwrap()
}

#[test]
fn junk_flood_never_kills_the_server() {
    let dir = TempDir::new("harden");
    let cluster = open_cluster(&dir, 2);
    let server = ClusterServer::bind(
        Arc::clone(&cluster),
        "127.0.0.1:0",
        ServerOptions { handlers: 2, ..ServerOptions::default() },
    )
    .unwrap();

    // 1. A well-framed frame full of garbage bytes: typed bad_request,
    //    and the *same connection* stays usable.
    {
        let mut s = raw_conn(&server);
        cxwire::write_frame(&mut s, b"\xff\xfe\x80 total garbage \x00\x01").unwrap();
        let resp = read_response(&mut s);
        assert!(matches!(resp, Response::Err(WireError::BadRequest(_))), "{resp:?}");
        cxwire::write_frame(&mut s, &Request::Ping.encode()).unwrap();
        assert_eq!(read_response(&mut s), Response::Pong);
    }

    // 2. A hostile declared length (4 GB): refused before allocation
    //    with a typed error, then the connection is closed.
    {
        let mut s = raw_conn(&server);
        s.write_all(&u32::MAX.to_be_bytes()).unwrap();
        let resp = read_response(&mut s);
        assert!(
            matches!(resp, Response::Err(WireError::BadRequest(ref d)) if d.contains("exceeds")),
            "{resp:?}"
        );
        let mut rest = Vec::new();
        assert_eq!(s.read_to_end(&mut rest).unwrap(), 0, "server hung up after the refusal");
    }

    // 3. Truncated header: two bytes, then hang up.
    {
        let mut s = raw_conn(&server);
        s.write_all(&[0, 0]).unwrap();
    }

    // 4. Truncated payload: declare 100 bytes, deliver 3, hang up.
    {
        let mut s = raw_conn(&server);
        s.write_all(&100u32.to_be_bytes()).unwrap();
        s.write_all(b"abc").unwrap();
    }

    // 5. A burst of junk connections in parallel (more than the handler
    //    pool, so the backlog cycles too).
    let juniors: Vec<_> = (0..8)
        .map(|i| {
            let addr = server.addr();
            std::thread::spawn(move || {
                let mut s = TcpStream::connect(addr).unwrap();
                let _ = s.write_all(&[i as u8; 7]);
                // half hang up instantly, half linger a moment
                if i % 2 == 0 {
                    std::thread::sleep(Duration::from_millis(30));
                }
            })
        })
        .collect();
    for j in juniors {
        j.join().unwrap();
    }

    // After all of it: a clean client performs a full operation cycle.
    let c = Client::connect(server.addr(), ClientOptions::default()).unwrap();
    let id = c.insert(&manuscript(30, 77)).unwrap();
    assert!(!c.query(id, "//w").unwrap().is_empty());
    let page = c.metrics().unwrap();
    let errors: u64 = page
        .lines()
        .find(|l| l.starts_with("cx_server_errors_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    assert!(errors >= 2, "the junk was counted, not swallowed: {errors}");

    drop(c);
    // Shutdown joins the accept thread and every handler — if a junk
    // connection had wedged or killed one, this would hang or panic.
    server.shutdown();
}

/// A blob that parses but cannot be restored — an element id equal to
/// the root, one of the hostile-layout cases — is answered `bad_request`
/// before anything reaches the WAL, and the same connection then imports
/// a good document normally.
#[test]
fn a_blob_that_parses_but_cannot_be_restored_is_a_bad_request() {
    let dir = TempDir::new("harden-blob");
    let cluster = open_cluster(&dir, 1);
    let server =
        ClusterServer::bind(Arc::clone(&cluster), "127.0.0.1:0", ServerOptions::default()).unwrap();
    let good = DocBlob::capture(&manuscript(30, 77));
    let mut hostile = good.clone();
    hostile.elems[0] = hostile.root;
    assert!(DocBlob::parse_text(&hostile.to_text()).is_ok(), "the hostile blob parses");
    assert!(hostile.restore().is_err(), "but does not restore");

    let lsn = cluster.shards()[0].last_lsn();
    let mut s = raw_conn(&server);
    cxwire::write_frame(&mut s, &Request::Insert { name: None, blob: hostile }.encode()).unwrap();
    let resp = read_response(&mut s);
    assert!(matches!(resp, Response::Err(WireError::BadRequest(_))), "{resp:?}");
    assert_eq!(cluster.shards()[0].last_lsn(), lsn, "nothing was logged");

    cxwire::write_frame(&mut s, &Request::Insert { name: None, blob: good }.encode()).unwrap();
    let resp = read_response(&mut s);
    assert!(matches!(resp, Response::Id(_)), "{resp:?}");
    assert_eq!(cluster.shards()[0].last_lsn(), lsn + 1, "the good import was logged once");
    server.shutdown();
}
