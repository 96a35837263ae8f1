//! # cxwire — the one wire
//!
//! Every TCP conversation in the system is `cxq1`: one request per
//! length-prefixed frame, one response per frame, in order per connection.
//! The service tier speaks it for store operations; replication speaks it
//! for one verb, `fetch`. This crate holds the codec ([`proto`], with the
//! typed error frame [`WireError`]) and the frame discipline both tiers
//! share:
//!
//! * **a hard length cap** ([`MAX_FRAME`]), checked before allocating on
//!   read and refused rather than truncated on write;
//! * **one write per frame**: [`write_frame`] hands the header and the
//!   payload to the stream in one vectored write, without copying the
//!   payload;
//! * **stall-bounded exact reads**: once a peer starts a frame it gets
//!   [`FRAME_STALL_LIMIT`] without progress, so a half-open socket cannot
//!   hang a handler or a follower forever;
//! * **one accept loop** ([`accept_until`]), **one connection loop**
//!   ([`serve_connection`]) and **one dial** ([`dial`]) for both servers
//!   and both clients.

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
#![warn(missing_docs)]

pub mod error;
pub mod proto;

pub use error::{WireError, WireErrorKind};
pub use proto::{FetchResponse, Request, Response, TraceQuery, TraceSummaryWire, Verb, VERSION};

use std::io::{ErrorKind, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream};
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

/// The read timeout on every stream, accepted or dialed: the tick at
/// which idle loops poll their stop flag and stalled reads their limit.
const READ_TICK: Duration = Duration::from_millis(100);

/// How long [`dial`] waits for the peer to accept.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);

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

/// Serve one accepted connection: read a request frame, answer it with
/// `respond`, repeat until the peer hangs up, `stop` is seen, or the
/// stream fails. Every server in the workspace reads its requests here.
///
/// The stream gets `TCP_NODELAY` and a 100 ms read timeout, at which an
/// idle connection polls `stop`. Two refusals are the loop's own, each
/// passed to `refused` before it is sent: a declared length over
/// [`MAX_FRAME`] is answered `bad_request` before any allocation and the
/// connection closes; an answer too big for one frame becomes `too_large`.
pub fn serve_connection(
    mut stream: TcpStream,
    stop: &AtomicBool,
    mut respond: impl FnMut(&[u8]) -> Response,
    mut refused: impl FnMut(&WireError),
) -> std::io::Result<()> {
    // Accepted off a nonblocking listener; reads here block under a timeout.
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TICK))?;
    let mut header = [0u8; 4];
    loop {
        match stream.read(&mut header[..1]) {
            Ok(0) => return Ok(()), // peer hung up
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::Relaxed) {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        read_full(&mut stream, &mut header[1..])?;
        let payload = match read_payload(&mut stream, u32::from_be_bytes(header)) {
            Ok(p) => p,
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                let e = WireError::BadRequest(e.to_string());
                refused(&e);
                let _ = write_frame(&mut stream, &Response::Err(e).encode());
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        let mut reply = respond(&payload).encode();
        if reply.len() > MAX_FRAME as usize {
            let e = WireError::TooLarge(format!(
                "response of {} bytes exceeds the {MAX_FRAME}-byte frame cap",
                reply.len()
            ));
            refused(&e);
            reply = Response::Err(e).encode();
        }
        write_frame(&mut stream, &reply)?;
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
    }
}

/// Open a client stream to `addr`: connect within 2 s, `TCP_NODELAY`,
/// and the same 100 ms read timeout, which stall-bounded reads ride out.
pub fn dial(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(READ_TICK))?;
    Ok(stream)
}

/// Refuse a declared frame length that exceeds [`MAX_FRAME`] — the check
/// every reader runs between parsing a header and allocating the payload.
fn check_frame_len(len: u32) -> std::io::Result<()> {
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
/// Sockets handed here are expected to carry a read timeout
/// ([`serve_connection`] and [`dial`] set [`READ_TICK`]); a socket
/// without one simply blocks in the kernel until bytes or EOF arrive.
fn read_full(stream: &mut TcpStream, buf: &mut [u8]) -> std::io::Result<()> {
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
fn read_payload(stream: &mut TcpStream, len: u32) -> std::io::Result<Vec<u8>> {
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
/// say instead — and then nothing reaches the stream.
///
/// Header and payload go out in one vectored write, without copying the
/// payload, so under `TCP_NODELAY` a small frame leaves as one segment.
/// Partial writes are finished and `Interrupted` retried; a stream that
/// accepts nothing fails with `WriteZero`.
pub fn write_frame(stream: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    if payload.len() > MAX_FRAME as usize {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            format!("refusing to emit a {}-byte frame (cap {MAX_FRAME})", payload.len()),
        ));
    }
    let header = (payload.len() as u32).to_be_bytes();
    let mut slices = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match stream.write_vectored(rest) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
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

    /// A sink that counts write calls and takes at most `take` bytes per
    /// call, after failing `interrupts` calls with `Interrupted`.
    struct Counting {
        bytes: Vec<u8>,
        writes: usize,
        take: usize,
        interrupts: usize,
    }

    impl Counting {
        fn new(take: usize, interrupts: usize) -> Self {
            Counting { bytes: Vec::new(), writes: 0, take, interrupts }
        }
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.writes += 1;
            if self.interrupts > 0 {
                self.interrupts -= 1;
                return Err(ErrorKind::Interrupted.into());
            }
            let mut taken = 0;
            for buf in bufs {
                let n = buf.len().min(self.take - taken);
                self.bytes.extend_from_slice(&buf[..n]);
                taken += n;
            }
            Ok(taken)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn frame_bytes(payload: &[u8]) -> Vec<u8> {
        let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn a_frame_is_one_write_call() {
        for payload in [&b""[..], b"ping", &[7u8; 70_000]] {
            let mut sink = Counting::new(usize::MAX, 0);
            write_frame(&mut sink, payload).unwrap();
            assert_eq!(sink.writes, 1, "{}-byte payload", payload.len());
            assert_eq!(sink.bytes, frame_bytes(payload));
        }
    }

    #[test]
    fn partial_and_interrupted_writes_still_deliver_the_frame() {
        let payload = b"hello frames";
        let mut sink = Counting::new(1, 1);
        write_frame(&mut sink, payload).unwrap();
        assert_eq!(sink.bytes, frame_bytes(payload));
        assert_eq!(sink.writes, 1 + 4 + payload.len(), "one interrupt, then a byte a call");
    }

    #[test]
    fn a_stream_that_takes_nothing_is_write_zero() {
        let mut sink = Counting::new(0, 0);
        let e = write_frame(&mut sink, b"ping").unwrap_err();
        assert_eq!(e.kind(), ErrorKind::WriteZero);
        assert_eq!(sink.writes, 1);
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
