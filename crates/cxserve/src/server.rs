//! [`ClusterServer`]: a [`cxcluster::Cluster`] served over std TCP.
//!
//! Topology: one nonblocking accept thread feeds a **bounded queue** of
//! connections to a **fixed pool** of handler threads — the server's
//! concurrency is `handlers`, its patience is `backlog`, and a client
//! that arrives when both are full gets a typed `busy` frame instead of
//! an unbounded queue. Each handler owns one connection at a time and
//! answers its requests strictly in order (which is the contract that
//! makes client-side pipelining work).
//!
//! Failure containment, per request:
//! * the [`Site::ServeRequest`] failpoint fires first — chaos tests
//!   inject errors, delays, and panics here without touching the store;
//! * a handler panic is caught and answered as a typed `server` error —
//!   the connection (and the server) outlive it;
//! * a malformed frame is answered with `bad_request`; an *oversized*
//!   declared length additionally closes the connection (framing can no
//!   longer be trusted) — but never allocates;
//! * every request runs under a **deadline**: fan-out queries get the
//!   remaining budget as their per-shard timeout, and any response that
//!   would arrive after the deadline is replaced with a typed `deadline`
//!   error (deadline semantics: the work may have happened; the client
//!   just won't wait for the answer).
//!
//! Everything observable lands on the cluster's existing [`cxobs`]
//! registry as `cx_server_*` metrics and `serve.*` events, so the
//! `METRICS` verb serves one page for the whole stack, store to socket.

use crate::error::{WireError, WireErrorKind};
use crate::proto::{Request, Response, TraceQuery, Verb};
use cxcluster::{Cluster, ClusterError, ShardId};
use cxobs::fault::{self, Site};
use cxobs::{names, trace, Counter, Exposition, Gauge, Histogram, Observable, Registry};
use cxpersist::{LoggedDoc, PersistError};
use cxstore::DocId;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for a [`ClusterServer`].
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Handler threads — the number of connections served concurrently.
    pub handlers: usize,
    /// Accepted connections that may wait for a free handler before new
    /// arrivals are refused with a typed `busy` frame.
    pub backlog: usize,
    /// Per-request deadline (also the fan-out budget for `qall`/`qpart`).
    pub deadline: Duration,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions { handlers: 4, backlog: 16, deadline: Duration::from_secs(5) }
    }
}

/// A serving endpoint over a shared [`Cluster`].
pub struct ClusterServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    obs: Arc<Registry>,
}

/// What one server instance serves: the whole cluster, or one shard of
/// it (the "shards served individually" deployment the router client
/// targets).
struct Service {
    cluster: Arc<Cluster>,
    /// `None`: the store-shaped façade (routes internally). `Some(s)`:
    /// only shard `s` — per-document requests for documents another
    /// shard owns are refused with `wrong_shard`, and fan-out verbs
    /// cover just this shard's documents.
    scope: Option<ShardId>,
    scope_label: String,
    deadline: Duration,
    requests: Arc<Counter>,
    panics: Arc<Counter>,
    busy: Arc<Counter>,
    connections: Arc<Gauge>,
    /// `cx_server_request_ns{server=…,verb=…}`, one slot per
    /// [`Served::slot`], each registered on first use — so the page shows
    /// only the verbs actually served, and a request after the first of
    /// its verb touches no lock and allocates nothing.
    request_ns: [OnceLock<Arc<Histogram>>; Served::SLOTS],
    /// `cx_server_errors_total{kind=…,server=…}`, one slot per
    /// [`WireErrorKind`], registered on first use like `request_ns`.
    errors: [OnceLock<Arc<Counter>>; WireErrorKind::ALL.len()],
    obs: Arc<Registry>,
}

/// The `verb` label of a served request: its decoded verb, or one of the
/// two outcomes that never decoded one.
#[derive(Debug, Clone, Copy)]
enum Served {
    Verb(Verb),
    /// Refused before decoding: an injected fault or an unparsable frame.
    Unknown,
    /// The handler panicked.
    Panic,
}

impl Served {
    /// One slot per verb, then `unknown`, then `panic`.
    const SLOTS: usize = Verb::ALL.len() + 2;

    fn slot(self) -> usize {
        match self {
            Served::Verb(v) => v as usize,
            Served::Unknown => Verb::ALL.len(),
            Served::Panic => Verb::ALL.len() + 1,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Served::Verb(v) => v.name(),
            Served::Unknown => "unknown",
            Served::Panic => "panic",
        }
    }
}

impl Service {
    /// The request-latency histogram for `served`.
    fn request_ns(&self, served: Served) -> &Histogram {
        self.request_ns[served.slot()].get_or_init(|| {
            self.obs.histogram_with(
                names::SERVER_REQUEST_NS,
                &[("server", &self.scope_label), ("verb", served.name())],
            )
        })
    }

    /// Count one error reply of `kind`.
    fn count_error(&self, kind: WireErrorKind) {
        self.errors[kind as usize]
            .get_or_init(|| {
                self.obs.counter_with(
                    names::SERVER_ERRORS_TOTAL,
                    &[("kind", kind.name()), ("server", &self.scope_label)],
                )
            })
            .bump();
    }
}

impl ClusterServer {
    /// Bind and serve the whole cluster (e.g. on `"127.0.0.1:0"`; read
    /// the actual address back with [`ClusterServer::addr`]).
    pub fn bind(
        cluster: Arc<Cluster>,
        addr: impl ToSocketAddrs,
        options: ServerOptions,
    ) -> std::io::Result<ClusterServer> {
        ClusterServer::start(cluster, None, addr, options)
    }

    /// Bind a server scoped to one shard — one of these per shard host,
    /// with a [`crate::RouterClient`] routing per-document traffic to
    /// the right one.
    pub fn bind_shard(
        cluster: Arc<Cluster>,
        shard: ShardId,
        addr: impl ToSocketAddrs,
        options: ServerOptions,
    ) -> std::io::Result<ClusterServer> {
        ClusterServer::start(cluster, Some(shard), addr, options)
    }

    fn start(
        cluster: Arc<Cluster>,
        scope: Option<ShardId>,
        addr: impl ToSocketAddrs,
        options: ServerOptions,
    ) -> std::io::Result<ClusterServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let obs = Arc::clone(cluster.registry());
        let scope_label = match scope {
            None => "cluster".to_string(),
            Some(s) => format!("shard-{}", s.0),
        };
        let labels: &[(&str, &str)] = &[("server", &scope_label)];
        let svc = Arc::new(Service {
            deadline: options.deadline,
            requests: obs.counter_with(names::SERVER_REQUESTS_TOTAL, labels),
            panics: obs.counter_with(names::SERVER_PANICS_TOTAL, labels),
            busy: obs.counter_with(names::SERVER_BUSY_TOTAL, labels),
            connections: obs.gauge_with(names::SERVER_CONNECTIONS, labels),
            request_ns: [const { OnceLock::new() }; Served::SLOTS],
            errors: [const { OnceLock::new() }; WireErrorKind::ALL.len()],
            obs: Arc::clone(&obs),
            cluster,
            scope,
            scope_label,
        });
        svc.obs.event("serve.start", format!("{} listening on {addr}", svc.scope_label));

        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(options.backlog.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..options.handlers.max(1))
            .map(|_| {
                let svc = Arc::clone(&svc);
                let rx = Arc::clone(&rx);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || worker(&svc, &rx, &stop))
            })
            .collect();
        let accept_thread = {
            let svc = Arc::clone(&svc);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(&listener, &svc, tx, &stop))
        };
        Ok(ClusterServer { addr, stop, accept_thread: Some(accept_thread), workers, obs })
    }

    /// The bound address (clients connect here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting, finish in-flight requests, join every handler.
    /// Also runs on drop — a dropped server leaks no threads.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        if self.stop.swap(true, Ordering::Relaxed) {
            return;
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        self.obs.event("serve.stop", format!("{} stopped", self.addr));
    }
}

impl Drop for ClusterServer {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

fn accept_loop(
    listener: &TcpListener,
    svc: &Service,
    tx: SyncSender<TcpStream>,
    stop: &AtomicBool,
) {
    // One event per run of failures: steady fd pressure fails every
    // backoff tick and would flush the event ring.
    let mut failing = false;
    let accept = || {
        let accepted = listener.accept().map(|(stream, _peer)| stream);
        match &accepted {
            Ok(_) => failing = false,
            Err(e) if e.kind() != ErrorKind::WouldBlock && !failing => {
                failing = true;
                svc.obs.event("serve.accept_error", format!("accept failed: {e}"));
            }
            Err(_) => {}
        }
        accepted
    };
    cxwire::accept_until(stop, accept, |stream| {
        // The listener is nonblocking for the stop poll; handlers want
        // plain blocking reads under a read timeout.
        let _ = stream.set_nonblocking(false);
        if let Err(TrySendError::Full(stream)) = tx.try_send(stream) {
            // Pool and backlog both full: refuse loudly. The write is
            // best-effort — a peer that already hung up changes nothing.
            svc.busy.bump();
            svc.obs.event("serve.busy", "connection refused: backlog full");
            let mut stream = stream;
            let _ = cxwire::write_frame(&mut stream, &Response::Err(WireError::Busy).encode());
        }
    });
    // `tx` drops here; drained workers see the channel close and exit.
}

fn worker(svc: &Service, rx: &Mutex<Receiver<TcpStream>>, stop: &AtomicBool) {
    loop {
        // Hold the lock only around the dequeue; a 100 ms tick keeps the
        // stop flag observed even when no connections arrive. Poison
        // recovery: the guard protects only `recv_timeout` on the channel,
        // whose state lives in the channel itself — a panicked holder
        // leaves nothing half-updated behind the mutex.
        let next = {
            let guard = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.recv_timeout(Duration::from_millis(100))
        };
        match next {
            Ok(stream) => {
                let _live = svc.connections.track();
                let _ = serve_connection(svc, stream, stop);
            }
            Err(RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn serve_connection(
    svc: &Service,
    mut stream: TcpStream,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    // Short read timeout so an idle connection re-checks the stop flag;
    // once a frame starts, cxwire's stall-bounded reads take over.
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut header = [0u8; 4];
    loop {
        match stream.read(&mut header[..1]) {
            Ok(0) => return Ok(()), // client hung up
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::Relaxed) {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        }
        cxwire::read_full(&mut stream, &mut header[1..])?;
        let len = u32::from_be_bytes(header);
        let payload = match cxwire::read_payload(&mut stream, len) {
            Ok(p) => p,
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                // Hostile declared length: refused before any allocation.
                // Answer typed, then drop the connection — the stream
                // position can no longer be trusted.
                svc.count_error(WireErrorKind::BadRequest);
                let resp = Response::Err(WireError::BadRequest(e.to_string()));
                let _ = cxwire::write_frame(&mut stream, &resp.encode());
                return Ok(());
            }
            Err(e) => return Err(e),
        };
        // Errors are counted (per kind) inside `respond`.
        let resp = respond(svc, &payload);
        cxwire::write_frame(&mut stream, &resp.encode())?;
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
    }
}

/// One request, fully contained: metered, traced, fault-injected,
/// panic-caught, deadline-checked.
fn respond(svc: &Service, payload: &[u8]) -> Response {
    svc.requests.bump();
    // Adopt the caller's trace context (the optional `tc` token on the
    // request frame) into a `serve.request` span — the server side of
    // the one tree a traced wire request produces. The scan is
    // decode-free, so adoption happens even for frames the injected
    // fault will refuse before decoding.
    let trace = match Request::trace_context(payload) {
        Some(ctx) => trace::start("serve.request", ctx.child()),
        None => trace::span_or_root("serve.request"),
    };
    let started = Instant::now();
    let (served, resp) = match catch_unwind(AssertUnwindSafe(|| handle(svc, payload, started))) {
        Ok(out) => out,
        Err(_) => {
            // The panic payload already went to stderr via the panic
            // hook; what matters here is that the handler thread, the
            // connection, and the server all survive it.
            svc.panics.bump();
            svc.obs.event("serve.panic", "request handler panicked; answered as server error");
            (Served::Panic, Response::Err(WireError::Server("request handler panicked".into())))
        }
    };
    trace.attr("verb", served.name());
    if let Response::Err(e) = &resp {
        trace.err(e.to_string());
        svc.count_error(e.kind());
    }
    // Recorded inside `serve.request`, so the bucket's exemplar names
    // this trace — the bridge from "the p99 moved" to "this trace".
    svc.request_ns(served).record(started.elapsed());
    resp
}

fn handle(svc: &Service, payload: &[u8], started: Instant) -> (Served, Response) {
    // The chaos seam: `Io` becomes a typed `injected` frame, `Delay`
    // stalls right here (and may then trip the deadline below), `Panic`
    // unwinds into `respond`'s catch. It fires before decoding, so the
    // verb is contractually unknown on this path.
    if fault::fire(Site::ServeRequest).is_some() {
        let e = WireError::Injected(fault::io_error(Site::ServeRequest).to_string());
        return (Served::Unknown, Response::Err(e));
    }
    let req = match Request::decode(payload) {
        Ok(r) => r,
        Err(e) => return (Served::Unknown, Response::Err(e)),
    };
    let verb = Served::Verb(req.verb());
    let resp = dispatch(svc, req, started);
    if started.elapsed() > svc.deadline && !matches!(resp, Response::Err(_)) {
        let ms = svc.deadline.as_millis() as u64;
        svc.obs.event("serve.deadline", format!("request exceeded the {ms} ms deadline"));
        return (verb, Response::Err(WireError::Deadline { ms }));
    }
    (verb, resp)
}

/// Map a cluster failure onto the wire, keeping everything the client
/// can act on structurally typed.
fn wire_err(e: ClusterError) -> WireError {
    match e {
        ClusterError::Store(s) => WireError::Store(s.to_string()),
        ClusterError::Persist(PersistError::StaleEdit { current, .. }) => {
            WireError::Stale { current }
        }
        ClusterError::Persist(p) => WireError::Store(p.to_string()),
        ClusterError::ShardDown(s) => WireError::ShardDown(s),
        ClusterError::Timeout { shard, ms } => WireError::Timeout { shard, ms },
        ClusterError::ShardUnavailable { shard, detail } => {
            WireError::Unavailable { shard, detail }
        }
        e @ (ClusterError::NoSuchShard(_) | ClusterError::Config(_)) => {
            WireError::Server(e.to_string())
        }
    }
}

/// Per-document requests against a shard-scoped server must name a
/// document that shard owns; the typed refusal carries the real owner so
/// the router client can fix its table and retry without a round trip to
/// a directory service.
fn check_scope(svc: &Service, doc: DocId) -> Result<(), WireError> {
    if let Some(scope) = svc.scope {
        let owner = svc.cluster.shard_of(doc);
        if owner != scope {
            return Err(WireError::WrongShard { owner: owner.0 });
        }
    }
    Ok(())
}

fn dispatch(svc: &Service, req: Request, started: Instant) -> Response {
    let c = &svc.cluster;
    let budget = |started: Instant| svc.deadline.saturating_sub(started.elapsed());
    let r = (|| -> Result<Response, WireError> {
        Ok(match req {
            Request::Ping => Response::Pong,
            Request::Insert { name, blob } => {
                // Restored once, before any lock or WAL append; the shard
                // then logs the received blob as it is.
                let doc =
                    LoggedDoc::restore(blob).map_err(|e| WireError::BadRequest(e.to_string()))?;
                Response::Id(c.admit(svc.scope, name, doc).map_err(wire_err)?)
            }
            Request::Edit { doc, guard, op } => {
                check_scope(svc, doc)?;
                let out = match guard {
                    None => c.edit(doc, op),
                    Some(expected) => c.edit_guarded(doc, expected, op),
                }
                .map_err(wire_err)?;
                Response::Edited { node: out.node, epoch: out.epoch }
            }
            Request::Query { doc, expr } => {
                check_scope(svc, doc)?;
                Response::Nodes(c.query(doc, &expr).map_err(wire_err)?)
            }
            Request::QueryAll { expr } => Response::Hits(
                match svc.scope {
                    // Scoped: just this shard's documents, on this thread.
                    Some(s) => c.query_shard(s, &expr),
                    // Unscoped: all-or-nothing, but under the deadline — a
                    // wedged shard becomes a typed timeout, never a hang.
                    None => c.query_all_partial(&expr, budget(started)).into_result(),
                }
                .map_err(wire_err)?,
            ),
            Request::QueryPartial { timeout_ms, expr } => {
                let (hits, errors) = match svc.scope {
                    // One shard: a partial of one, its miss a typed entry.
                    Some(s) => match c.query_shard(s, &expr) {
                        Ok(hits) => (hits, Vec::new()),
                        Err(e) => (Vec::new(), vec![(s.0, wire_err(e))]),
                    },
                    None => {
                        let per_shard = Duration::from_millis(timeout_ms).min(budget(started));
                        let partial = c.query_all_partial(&expr, per_shard);
                        let errors = partial.errors.into_iter();
                        (partial.hits, errors.map(|e| (e.shard, wire_err(e.error))).collect())
                    }
                };
                Response::Partial { hits, errors }
            }
            Request::Suggest { doc, hierarchy, start, end } => {
                check_scope(svc, doc)?;
                Response::Tags(c.suggest_tags(doc, &hierarchy, start, end).map_err(wire_err)?)
            }
            Request::Export { doc } => {
                check_scope(svc, doc)?;
                Response::Text(c.with_doc(doc, sacx::export_standoff).map_err(wire_err)?)
            }
            Request::IdByName { name } => Response::Id(c.id_by_name(&name).map_err(wire_err)?),
            Request::Epoch { doc } => {
                check_scope(svc, doc)?;
                Response::Epoch(c.epoch(doc).map_err(wire_err)?)
            }
            Request::Remove { doc } => {
                check_scope(svc, doc)?;
                Response::Removed(c.remove(doc).map_err(wire_err)?)
            }
            Request::Metrics => {
                let mut exp = Exposition::new();
                c.expose_into(&mut exp);
                Response::Text(exp.finish())
            }
            Request::Routes => Response::Routes {
                shards: c.shard_count(),
                overrides: c.router().overrides().into_iter().map(|(raw, s)| (raw, s.0)).collect(),
            },
            Request::Trace(q) => match q {
                TraceQuery::Recent { limit } => Response::Traces(
                    trace::recent().into_iter().take(limit).map(Into::into).collect(),
                ),
                TraceQuery::Slow { limit } => Response::Traces(
                    trace::slow().into_iter().take(limit).map(Into::into).collect(),
                ),
                TraceQuery::Get { trace_id } => match trace::find(trace_id) {
                    Some(t) => Response::Text(trace::render_tree(&t)),
                    None => return Err(WireError::Store(format!("no such trace {trace_id:016x}"))),
                },
            },
        })
    })();
    match r {
        Ok(resp) => resp,
        Err(e) => Response::Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_slots_follow_declaration_order() {
        for (i, &v) in Verb::ALL.iter().enumerate() {
            assert_eq!(Served::Verb(v).slot(), i, "{v}");
        }
        assert_eq!(Served::Panic.slot() + 1, Served::SLOTS);
        for (i, &k) in WireErrorKind::ALL.iter().enumerate() {
            assert_eq!(k as usize, i, "{k}");
        }
    }
}
