//! The cross-process transport: the `cxq1` `fetch` verb over std TCP.
//!
//! ```text
//! cxq1 fetch <after> <max_bytes> [tc <trace>-<span>]
//!   → ok caught_up <head>
//!   | ok records <head> \n <WAL record bytes>
//!   | ok snapshot <head> \n <StoreSnapshot text>
//!   | err diverged … | err too_large …   (terminal: the follower parks)
//!   | err <other kind> …                 (transient: the follower retries)
//! ```
//!
//! Codec, frame cap and connection loop are [`cxwire`]'s, shared with the
//! service tier; this module maps [`Request::Fetch`] onto
//! [`Primary::handle_fetch`] and back. The bodies are the bytes the
//! in-process transport carries, so torn-tail tolerance and CRC checks
//! are the replica's on both transports. One handler thread per follower
//! connection: followers hold theirs for life.

use crate::error::{ReplError, Result};
use crate::primary::Primary;
use crate::transport::{FetchResponse, LogTransport};
use cxobs::trace;
use cxwire::{Request, Response, WireError, MAX_FRAME};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

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
                    let answer = |payload: &[u8]| respond(&primary, payload);
                    let _ = cxwire::serve_connection(stream, &stop, answer, |_| {});
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

/// Answer one request frame. Only `fetch` is served; a traced one runs
/// under a `repl.fetch` span adopted from the caller's `tc` pair.
fn respond(primary: &Primary, payload: &[u8]) -> Response {
    let (after, max_bytes) = match Request::decode(payload) {
        Ok(Request::Fetch { after, max_bytes }) => (after, max_bytes),
        Ok(other) => {
            let verb = other.verb();
            let detail = format!("the replication listener serves `fetch`, not `{verb}`");
            return Response::Err(WireError::BadRequest(detail));
        }
        Err(e) => return Response::Err(e),
    };
    let _span = trace::adopt("repl.fetch", Request::trace_context(payload).map(|c| c.child()));
    // The byte budget comes straight off the wire: clamp it to the frame
    // cap rather than let a corrupt or hostile value drive the slice.
    match primary.handle_fetch(after, max_bytes.min(u64::from(MAX_FRAME)) as usize) {
        Ok(fetched) => Response::Fetch(fetched),
        Err(ReplError::Diverged { detail }) => Response::Err(WireError::Diverged(detail)),
        Err(ReplError::FrameTooLarge { detail }) => Response::Err(WireError::TooLarge(detail)),
        Err(e) => Response::Err(WireError::Server(e.to_string())),
    }
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
        Ok(TcpTransport { addr, conn: Some(cxwire::dial(addr)?) })
    }
}

impl LogTransport for TcpTransport {
    fn fetch(&mut self, after: u64, max_bytes: usize) -> Result<FetchResponse> {
        let max_bytes = max_bytes.min(MAX_FRAME as usize) as u64;
        let request = Request::Fetch { after, max_bytes }.encode_traced(trace::current());
        // The stream goes back only after a whole exchange: a failed one
        // may leave half a frame behind, so the next fetch dials fresh.
        let mut stream = match self.conn.take() {
            Some(stream) => stream,
            None => cxwire::dial(self.addr)?,
        };
        cxwire::write_frame(&mut stream, &request)?;
        let fetched = match Response::decode(&cxwire::read_frame(&mut stream)?) {
            Ok(Response::Fetch(fetched)) => Ok(fetched),
            Ok(Response::Err(WireError::Diverged(detail))) => Err(ReplError::Diverged { detail }),
            Ok(Response::Err(WireError::TooLarge(detail))) => {
                Err(ReplError::FrameTooLarge { detail })
            }
            Ok(Response::Err(e)) => Err(ReplError::Remote(e.to_string())),
            Ok(_) => return Err(ReplError::Protocol("a fetch got a non-fetch answer".into())),
            Err(e) => return Err(ReplError::Protocol(e.to_string())),
        };
        self.conn = Some(stream);
        fetched
    }
}
