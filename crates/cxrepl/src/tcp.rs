//! The cross-process transport: length-prefixed frames over std TCP.
//!
//! Wire format (all integers big-endian):
//!
//! ```text
//! request  := after:u64  max_bytes:u32                    (12 bytes)
//! response := kind:u8  head:u64  len:u32  payload:[len]   (13 + len bytes)
//! kind     := 0 caught-up | 1 records | 2 snapshot
//!           | 3 error (utf-8 detail, transient — the follower retries)
//!           | 4 diverged (utf-8 detail, terminal — the follower parks)
//!           | 5 too-large (utf-8 detail, terminal — the payload cannot
//!             fit the frame cap; retrying the same fetch cannot help)
//! ```
//!
//! One [`TcpReplServer`] serves any number of followers, one handler
//! thread per connection, requests answered in order per connection. The
//! payloads are exactly what the in-process transport carries — the WAL
//! codec's self-framed records and the wire-snapshot text — so torn-tail
//! tolerance and CRC verification are identical on both transports; the
//! frame length only tells the client how much to read, the records
//! defend themselves.

use crate::error::{ReplError, Result};
use crate::primary::Primary;
use crate::transport::{FetchResponse, LogTransport};
use cxwire::read_full;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const KIND_CAUGHT_UP: u8 = 0;
const KIND_RECORDS: u8 = 1;
const KIND_SNAPSHOT: u8 = 2;
const KIND_ERROR: u8 = 3;
/// Split history: preserved as [`ReplError::Diverged`] across the wire so
/// the follower's loop parks instead of retrying an unhealable stream.
const KIND_DIVERGED: u8 = 4;
/// The response payload exceeds [`MAX_FRAME`]: preserved as
/// [`ReplError::FrameTooLarge`] so the follower parks (a capacity
/// condition; re-requesting would re-capture and re-discard the same
/// oversized artifact forever, stalling the primary each time).
const KIND_TOO_LARGE: u8 = 5;

/// Hard ceiling on frame payloads, enforced on **both** ends: the client
/// refuses a response header whose declared length exceeds it (a corrupt
/// or hostile frame cannot demand a multi-GB allocation before a single
/// payload byte arrives), and the server clamps the requested `max_bytes`
/// and refuses to emit an oversized payload (a snapshot bootstrap that
/// cannot fit is reported as an error, never silently truncated — the
/// record/snapshot codecs would read a cut as a torn artifact anyway).
/// The cap itself — and the stall-bounded exact reads that pair with it —
/// live in [`cxwire`], shared verbatim with the `cxserve` service tier.
pub use cxwire::MAX_FRAME;

// ---------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------

/// A log-shipping listener: accepts follower connections and answers
/// fetches from a shared [`Primary`].
pub struct TcpReplServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpReplServer {
    /// Bind and start serving (e.g. `"127.0.0.1:0"` for an ephemeral
    /// port; read the actual address back with [`TcpReplServer::addr`]).
    pub fn bind(primary: Arc<Primary>, addr: impl ToSocketAddrs) -> std::io::Result<TcpReplServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let accept_thread = std::thread::spawn(move || {
            let mut handlers: Vec<JoinHandle<()>> = Vec::new();
            let accept = || listener.accept().map(|(stream, _peer)| stream);
            cxwire::accept_until(&stop2, accept, |stream| {
                // Reap finished handlers so reconnecting followers (every
                // transport error drops and re-dials) don't accumulate
                // dead handles over a long-lived primary.
                handlers.retain(|h| !h.is_finished());
                let primary = Arc::clone(&primary);
                let stop = Arc::clone(&stop2);
                handlers.push(std::thread::spawn(move || {
                    let _ = serve_connection(&primary, stream, &stop);
                }));
            });
            for h in handlers {
                let _ = h.join();
            }
        });
        Ok(TcpReplServer { addr, stop, accept_thread: Some(accept_thread) })
    }

    /// The bound address (followers connect here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and serving. Also runs on drop.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for TcpReplServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

fn serve_connection(
    primary: &Primary,
    mut stream: TcpStream,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    // Short read timeout so an idle connection re-checks the stop flag;
    // once a request's first byte arrives, the rest is read to completion.
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut req = [0u8; 12];
    while !stop.load(Ordering::Relaxed) {
        match stream.read(&mut req[..1]) {
            Ok(0) => return Ok(()), // follower hung up
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) => return Err(e),
        }
        read_full(&mut stream, &mut req[1..])?;
        let [after @ .., m0, m1, m2, m3] = req;
        let after = u64::from_be_bytes(after);
        // The request's byte budget comes straight off the wire: clamp it
        // to the frame cap rather than letting a corrupt or hostile value
        // drive an arbitrarily large slice.
        let max_bytes = u32::from_be_bytes([m0, m1, m2, m3]).min(MAX_FRAME) as usize;
        let (kind, head, payload) = match primary.handle_fetch(after, max_bytes) {
            Ok(FetchResponse::CaughtUp { head }) => (KIND_CAUGHT_UP, head, Vec::new()),
            Ok(FetchResponse::Records { head, bytes }) => (KIND_RECORDS, head, bytes),
            Ok(FetchResponse::Snapshot { head, bytes }) => (KIND_SNAPSHOT, head, bytes),
            Err(e @ ReplError::Diverged { .. }) => (KIND_DIVERGED, 0, e.to_string().into_bytes()),
            Err(e) => (KIND_ERROR, 0, e.to_string().into_bytes()),
        };
        // Never emit a frame the client is contractually bound to refuse
        // (`wal_tail` overshoots `max_bytes` by at most one record, and a
        // snapshot bootstrap can be arbitrarily large): fail the fetch
        // loudly — and *terminally*, so the follower parks with the
        // capacity problem surfaced instead of re-requesting (and
        // re-capturing) the same oversized artifact forever.
        let (kind, payload) = if payload.len() > MAX_FRAME as usize {
            let detail = format!(
                "response payload of {} bytes exceeds the {MAX_FRAME}-byte frame cap",
                payload.len()
            );
            (KIND_TOO_LARGE, detail.into_bytes())
        } else {
            (kind, payload)
        };
        let mut header = [0u8; 13];
        header[0] = kind;
        header[1..9].copy_from_slice(&head.to_be_bytes());
        header[9..13].copy_from_slice(&(payload.len() as u32).to_be_bytes());
        stream.write_all(&header)?;
        stream.write_all(&payload)?;
        stream.flush()?;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// The follower side of the TCP transport. Reconnects lazily: a fetch
/// against a dead primary fails with [`ReplError::Io`], the follower loop
/// retries, and the next fetch after the primary returns re-establishes
/// the connection.
pub struct TcpTransport {
    addr: SocketAddr,
    conn: Option<TcpStream>,
}

impl TcpTransport {
    /// A transport for the server at `addr`. Does not connect yet — the
    /// first fetch does.
    pub fn new(addr: SocketAddr) -> TcpTransport {
        TcpTransport { addr, conn: None }
    }

    /// A transport that eagerly connects (fails fast on a bad address).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<TcpTransport> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidInput, "no address resolved"))?;
        let mut t = TcpTransport::new(addr);
        t.ensure_connected()?;
        Ok(t)
    }

    fn ensure_connected(&mut self) -> std::io::Result<&mut TcpStream> {
        let stream = match self.conn.take() {
            Some(stream) => stream,
            None => {
                let stream = TcpStream::connect(self.addr)?;
                stream.set_nodelay(true)?;
                stream.set_read_timeout(Some(Duration::from_secs(10)))?;
                stream
            }
        };
        Ok(self.conn.insert(stream))
    }
}

impl LogTransport for TcpTransport {
    fn fetch(&mut self, after: u64, max_bytes: usize) -> Result<FetchResponse> {
        let result = (|| -> std::io::Result<(u8, u64, Vec<u8>)> {
            let stream = self.ensure_connected()?;
            let mut req = [0u8; 12];
            req[..8].copy_from_slice(&after.to_be_bytes());
            req[8..12].copy_from_slice(&(max_bytes.min(MAX_FRAME as usize) as u32).to_be_bytes());
            stream.write_all(&req)?;
            stream.flush()?;
            let mut header = [0u8; 13];
            read_full(stream, &mut header)?;
            let [kind, head @ .., l0, l1, l2, l3] = header;
            let head = u64::from_be_bytes(head);
            let len = u32::from_be_bytes([l0, l1, l2, l3]);
            // The cap check runs before the allocation (cxwire refuses a
            // hostile declared length with `InvalidData`).
            let payload = cxwire::read_payload(stream, len)?;
            Ok((kind, head, payload))
        })();
        let (kind, head, payload) = match result {
            Ok(frame) => frame,
            Err(e) => {
                // Poisoned stream state (half-read frame): reconnect next
                // time rather than misparse.
                self.conn = None;
                return Err(ReplError::Io(e));
            }
        };
        match kind {
            KIND_CAUGHT_UP => Ok(FetchResponse::CaughtUp { head }),
            KIND_RECORDS => Ok(FetchResponse::Records { head, bytes: payload }),
            KIND_SNAPSHOT => Ok(FetchResponse::Snapshot { head, bytes: payload }),
            KIND_DIVERGED => {
                Err(ReplError::Diverged { detail: String::from_utf8_lossy(&payload).into_owned() })
            }
            KIND_TOO_LARGE => Err(ReplError::FrameTooLarge {
                detail: String::from_utf8_lossy(&payload).into_owned(),
            }),
            KIND_ERROR => Err(ReplError::Remote(String::from_utf8_lossy(&payload).into_owned())),
            other => {
                self.conn = None;
                Err(ReplError::Protocol(format!("unknown response kind {other}")))
            }
        }
    }
}
