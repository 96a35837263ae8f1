//! # cxwire — the one frame discipline every TCP wire format shares
//!
//! Two subsystems speak length-prefixed frames over std TCP: the
//! replication transport (`cxrepl::tcp`, a fixed-header fetch protocol)
//! and the service tier (`cxserve`, a request/response protocol). Both
//! need exactly the same three defenses, and they must never drift apart:
//!
//! * **a hard length cap** ([`MAX_FRAME`]) enforced *before* allocating —
//!   a corrupt or hostile header cannot demand a multi-GB buffer on the
//!   strength of four declared bytes;
//! * **stall-bounded exact reads** ([`read_full`]) — once a peer commits
//!   to a frame, it gets [`FRAME_STALL_LIMIT`] without progress before
//!   the connection is declared dead, so a half-open socket (peer powered
//!   off, network partition, no FIN ever arrives) can never hang a
//!   handler or follower thread forever;
//! * **self-describing failure** — an oversized declared length fails
//!   with [`std::io::ErrorKind::InvalidData`] and a message naming both
//!   the length and the cap, so the refusal is diagnosable from either
//!   end's logs.
//!
//! `cxrepl` keeps its own fixed request/response headers (they predate
//! this crate and are pinned by wire tests) and uses the cap + exact-read
//! primitives; `cxserve` uses the whole-frame helpers
//! ([`write_frame`] / [`read_frame`]). One implementation, two wire
//! formats. Both listeners run the same [`accept_until`] loop.

// No panics outside tests unless an `#[expect(.., reason = "invariant: ..")]` says why.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::allow_attributes_without_reason
    )
)]

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Hard ceiling on frame payloads, enforced on **both** ends of every
/// connection: readers refuse a header whose declared length exceeds it
/// before allocating a single payload byte, and writers refuse to emit an
/// oversized payload (truncating would hand the peer a torn artifact).
/// 64 MB comfortably holds any realistic record batch, snapshot bootstrap,
/// or stand-off export; deployments shipping larger artifacts should
/// checkpoint less state per store or raise the cap on both ends together.
pub const MAX_FRAME: u32 = 64 << 20;

/// How long a peer that has started a frame may stall before the
/// connection is declared dead. Bounds server handlers (client died
/// mid-request) and clients (server died mid-response) alike.
pub const FRAME_STALL_LIMIT: Duration = Duration::from_secs(15);

/// How long an accept loop sleeps after an accept error — `WouldBlock`
/// on an idle nonblocking listener included — before it polls again.
pub const ACCEPT_BACKOFF: Duration = Duration::from_millis(2);

/// Accept connections until `stop` is set, handing each to `serve`.
/// `accept` is one (nonblocking) accept call. Every error it returns
/// backs off [`ACCEPT_BACKOFF`] and polls again, so no error ends the
/// loop: besides `WouldBlock` on an idle listener, accept(2) reports
/// `ECONNABORTED` when a peer resets before it is accepted and `EMFILE`
/// under descriptor pressure, and both pass. Only `stop` ends it. A
/// caller that wants to record errors does so inside `accept`.
pub fn accept_until<S>(
    stop: &AtomicBool,
    mut accept: impl FnMut() -> std::io::Result<S>,
    mut serve: impl FnMut(S),
) {
    while !stop.load(Ordering::Relaxed) {
        match accept() {
            Ok(conn) => serve(conn),
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// Refuse a declared frame length that exceeds [`MAX_FRAME`] — the check
/// every reader runs between parsing a header and allocating the payload.
pub fn check_frame_len(len: u32) -> std::io::Result<()> {
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    Ok(())
}

/// `read_exact` that rides out read timeouts mid-frame (the peer already
/// committed to sending the whole frame) — but only up to
/// [`FRAME_STALL_LIMIT`] without progress, so a half-open connection
/// fails the read instead of hanging the calling thread forever.
///
/// Sockets handed here are expected to carry a read timeout (both wire
/// formats set one so idle loops can poll a stop flag); a socket without
/// one simply blocks in the kernel until bytes or EOF arrive.
pub fn read_full(stream: &mut TcpStream, buf: &mut [u8]) -> std::io::Result<()> {
    let mut done = 0;
    let mut last_progress = Instant::now();
    while done < buf.len() {
        match stream.read(&mut buf[done..]) {
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                done += n;
                last_progress = Instant::now();
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if last_progress.elapsed() > FRAME_STALL_LIMIT {
                    return Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        "peer stalled mid-frame; connection presumed dead",
                    ));
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Allocate and read a payload whose length the peer declared: the cap
/// check *then* the allocation *then* the stall-bounded exact read.
pub fn read_payload(stream: &mut TcpStream, len: u32) -> std::io::Result<Vec<u8>> {
    check_frame_len(len)?;
    let mut payload = vec![0u8; len as usize];
    read_full(stream, &mut payload)?;
    Ok(payload)
}

// ---------------------------------------------------------------------
// Whole frames: `len:u32be  payload:[len]`
// ---------------------------------------------------------------------

/// Write one length-prefixed frame. Refuses (rather than truncates) a
/// payload over [`MAX_FRAME`] — the caller decides what smaller thing to
/// say instead.
pub fn write_frame(stream: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME as usize {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("refusing to emit a {}-byte frame (cap {MAX_FRAME})", payload.len()),
        ));
    }
    stream.write_all(&(payload.len() as u32).to_be_bytes())?;
    stream.write_all(payload)?;
    stream.flush()
}

/// Read one length-prefixed frame (header and payload both stall-bounded,
/// length cap enforced before the payload allocation).
pub fn read_frame(stream: &mut TcpStream) -> std::io::Result<Vec<u8>> {
    let mut header = [0u8; 4];
    read_full(stream, &mut header)?;
    read_payload(stream, u32::from_be_bytes(header))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn accept_errors_never_end_the_loop() {
        use std::collections::VecDeque;
        use std::net::TcpStream;

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut clients = [TcpStream::connect(addr).unwrap(), TcpStream::connect(addr).unwrap()];
        // A real connection, a peer that reset before it was accepted, an
        // unclassified failure, then the second real connection.
        let mut script: VecDeque<Option<ErrorKind>> =
            [None, Some(ErrorKind::ConnectionAborted), Some(ErrorKind::Other), None].into();
        let stop = AtomicBool::new(false);
        let mut served = 0;
        accept_until(
            &stop,
            || match script.pop_front() {
                Some(None) => listener.accept().map(|(stream, _)| stream),
                Some(Some(kind)) => Err(kind.into()),
                None => Err(ErrorKind::WouldBlock.into()),
            },
            |mut stream| {
                served += 1;
                stream.write_all(&[served]).unwrap();
                if served == 2 {
                    stop.store(true, Ordering::Relaxed);
                }
            },
        );
        assert!(script.is_empty());
        for (i, client) in clients.iter_mut().enumerate() {
            let mut byte = [0u8];
            client.read_exact(&mut byte).unwrap();
            assert_eq!(byte[0] as usize, i + 1, "connection {i} was served");
        }
    }

    #[test]
    fn oversized_declared_length_is_refused_before_allocation() {
        let e = check_frame_len(MAX_FRAME + 1).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::InvalidData);
        assert!(e.to_string().contains("exceeds"), "{e}");
        check_frame_len(MAX_FRAME).unwrap();
    }

    #[test]
    fn oversized_payload_is_refused_on_the_write_side() {
        let big = vec![0u8; MAX_FRAME as usize + 1];
        let mut sink = Vec::new();
        let e = write_frame(&mut sink, &big).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::InvalidData);
        assert!(sink.is_empty(), "nothing may hit the wire");
    }

    #[test]
    fn frames_round_trip_over_a_real_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
            let got = read_frame(&mut stream).unwrap();
            write_frame(&mut stream, &got).unwrap();
        });
        let mut client = TcpStream::connect(addr).unwrap();
        client.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        write_frame(&mut client, b"hello frames").unwrap();
        assert_eq!(read_frame(&mut client).unwrap(), b"hello frames");
        server.join().unwrap();
    }

    #[test]
    fn a_truncated_frame_reads_as_eof_not_a_hang() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Declare 100 bytes, send 3, hang up.
            stream.write_all(&100u32.to_be_bytes()).unwrap();
            stream.write_all(b"abc").unwrap();
        });
        let mut client = TcpStream::connect(addr).unwrap();
        client.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let e = read_frame(&mut client).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::UnexpectedEof);
        server.join().unwrap();
    }
}
