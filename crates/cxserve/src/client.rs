//! Client library: a pooled, reconnecting [`Client`] for one endpoint,
//! and a shard-aware [`RouterClient`] that routes per-document traffic
//! straight to the owning shard's server.
//!
//! ## Retry discipline
//!
//! A transport failure leaves a request's fate unknown — the frame may
//! have died in flight, or the response may have. The client therefore
//! splits the API three ways:
//!
//! * **idempotent reads** (queries, exports, epochs, metrics) are
//!   retried blindly on a fresh connection;
//! * **unguarded writes** (`insert`, `edit`, `remove`) are *never*
//!   retried — the caller gets the transport error and decides;
//! * **guarded edits** ([`Client::edit_guarded`],
//!   [`Client::edit_batch`]) are retried *safely*: every edit carries a
//!   compare-and-set epoch guard, so after a reconnect the client probes
//!   the document's epoch — `guard` means "never applied, resend",
//!   `guard + 1` means "applied exactly once, don't resend", anything
//!   else means another writer intervened and the client surfaces
//!   [`ServeError::Conflict`] instead of guessing.
//!
//! ## Pipelining
//!
//! Servers answer each connection's requests strictly in order, so
//! [`Client::edit_batch`] keeps a window of guarded edits in flight on
//! one connection and matches responses positionally. Edits to the
//! *same* document are serialized (at most one in flight) so each
//! guard is exact and recovery after a dead connection stays
//! unambiguous; edits to distinct documents overlap freely.

use crate::error::{Result, ServeError, WireError};
use crate::proto::{Request, Response, TraceQuery, TraceSummaryWire};
use cxobs::trace;
use cxpersist::DocBlob;
use cxstore::{DocId, EditOp, EditOutcome};
use goddag::Goddag;
use goddag::NodeId;
use std::collections::{HashMap, HashSet, VecDeque};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError, RwLock};
use std::time::Duration;

/// Per-document hits from a fan-out query.
pub type DocHits = Vec<(DocId, Vec<NodeId>)>;

/// Hits plus per-shard typed errors from a partial fan-out query.
pub type PartialHits = (DocHits, Vec<(usize, WireError)>);

/// Tuning for a [`Client`].
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Idle connections kept pooled (excess are dropped on return).
    pub pool: usize,
    /// Blind retry attempts for idempotent requests after a transport
    /// failure (each on a fresh connection).
    pub retries: u32,
    /// Max guarded edits in flight per connection in
    /// [`Client::edit_batch`].
    pub window: usize,
    /// Dial timeout.
    pub connect_timeout: Duration,
}

impl Default for ClientOptions {
    fn default() -> ClientOptions {
        ClientOptions { pool: 2, retries: 2, window: 32, connect_timeout: Duration::from_secs(2) }
    }
}

/// One live connection. Dropping it closes the socket.
struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn dial(addr: SocketAddr, opts: &ClientOptions) -> std::io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, opts.connect_timeout)?;
        stream.set_nodelay(true)?;
        // cxwire's reads ride out this timeout while a frame makes
        // progress; total silence fails after FRAME_STALL_LIMIT.
        stream.set_read_timeout(Some(Duration::from_millis(250)))?;
        Ok(Conn { stream })
    }

    fn send(&mut self, req: &Request) -> std::io::Result<()> {
        // If a trace is active on this thread, its context rides the
        // frame as the optional `tc` token — the server adopts it and
        // the whole request becomes one tree across both processes.
        cxwire::write_frame(&mut self.stream, &req.encode_traced(trace::current()))
    }

    fn recv(&mut self) -> Result<Response> {
        let payload = cxwire::read_frame(&mut self.stream)?;
        Response::decode(&payload).map_err(|e| ServeError::Protocol(e.to_string()))
    }

    fn call(&mut self, req: &Request) -> Result<Response> {
        self.send(req)?;
        self.recv()
    }
}

/// A pooled client for one server endpoint.
pub struct Client {
    addr: SocketAddr,
    opts: ClientOptions,
    idle: Mutex<Vec<Conn>>,
}

impl Client {
    /// Resolve `addr` and build a client (lazy — no connection is dialed
    /// until the first request).
    pub fn connect(addr: impl ToSocketAddrs, options: ClientOptions) -> std::io::Result<Client> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        Ok(Client { addr, opts: options, idle: Mutex::new(Vec::new()) })
    }

    /// The endpoint this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn take_conn(&self) -> std::io::Result<Conn> {
        // Poison recovery (also `put_back`): the pool holds whole
        // connections pushed/popped one at a time, so a panicked holder
        // leaves a valid (possibly shorter) free list.
        let pooled = self.idle.lock().unwrap_or_else(PoisonError::into_inner).pop();
        match pooled {
            Some(c) => Ok(c),
            None => Conn::dial(self.addr, &self.opts),
        }
    }

    fn put_back(&self, conn: Conn) {
        let mut idle = self.idle.lock().unwrap_or_else(PoisonError::into_inner);
        if idle.len() < self.opts.pool {
            idle.push(conn);
        }
    }

    /// One attempt: pooled (or fresh) connection, one round trip. A
    /// transport failure drops the connection — a pooled socket whose
    /// server restarted fails here once, and the retry dials fresh.
    fn call(&self, req: &Request) -> Result<Response> {
        let trace = trace::span_or_root("client.call");
        trace.attr("verb", req.verb().name());
        let mut conn = match self.take_conn() {
            Ok(c) => c,
            Err(e) => {
                trace.err(e.to_string());
                return Err(e.into());
            }
        };
        match conn.call(req) {
            Ok(resp) => {
                self.put_back(conn);
                if let Response::Err(e) = &resp {
                    trace.err(e.to_string());
                }
                Ok(resp)
            }
            Err(e) => {
                trace.err(e.to_string());
                Err(e)
            }
        }
    }

    /// Blind-retry wrapper for idempotent requests: transport failures
    /// and transient refusals get fresh-connection retries.
    fn call_idem(&self, req: &Request) -> Result<Response> {
        let mut attempt = 0;
        loop {
            match self.call(req) {
                Err(e) if attempt < self.opts.retries && e.is_transport() => {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(20 << attempt.min(5)));
                }
                // Transient refusals ride *successful* frames: a full
                // backlog or an injected request fault, both of which
                // guarantee the request was not executed.
                Ok(Response::Err(ref e))
                    if attempt < self.opts.retries
                        && matches!(e, WireError::Busy | WireError::Injected(_)) =>
                {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(20 << attempt.min(5)));
                }
                other => return other,
            }
        }
    }

    // -- typed operations ---------------------------------------------

    /// Liveness probe.
    pub fn ping(&self) -> Result<()> {
        match self.call_idem(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Insert a document. Not retried: an insert replayed blindly would
    /// mint two documents.
    pub fn insert(&self, g: &Goddag) -> Result<DocId> {
        self.insert_req(Request::Insert { name: None, blob: DocBlob::capture(g) })
    }

    /// Insert under a cluster-wide name.
    pub fn insert_named(&self, name: impl Into<String>, g: &Goddag) -> Result<DocId> {
        self.insert_req(Request::Insert { name: Some(name.into()), blob: DocBlob::capture(g) })
    }

    fn insert_req(&self, req: Request) -> Result<DocId> {
        match self.call(&req)? {
            Response::Id(id) => Ok(id),
            Response::Err(e) => Err(e.into()),
            other => Err(unexpected("id", &other)),
        }
    }

    /// One unguarded gated edit. Not retried (a replay would apply
    /// twice); use [`Client::edit_guarded`] for safe retries.
    pub fn edit(&self, doc: DocId, op: EditOp) -> Result<EditOutcome> {
        match self.call(&Request::Edit { doc, guard: None, op })? {
            Response::Edited { node, epoch } => Ok(EditOutcome { node, epoch }),
            Response::Err(e) => Err(e.into()),
            other => Err(unexpected("edited", &other)),
        }
    }

    /// One compare-and-set edit with exactly-once retry semantics: the
    /// op applies only while the document sits at epoch `expected`, and
    /// after a transport failure the client probes the epoch to learn
    /// whether its edit landed before resending. A recovered-as-applied
    /// outcome has `node: None` (the created node id, if any, was lost
    /// with the connection).
    pub fn edit_guarded(&self, doc: DocId, expected: u64, op: EditOp) -> Result<EditOutcome> {
        let trace = trace::span_or_root("client.edit_guarded");
        trace.attr("doc", doc.raw());
        trace.attr("guard", expected);
        let r = self.edit_guarded_inner(doc, expected, op);
        if let Err(e) = &r {
            trace.err(e.to_string());
        }
        r
    }

    fn edit_guarded_inner(&self, doc: DocId, expected: u64, op: EditOp) -> Result<EditOutcome> {
        let req = Request::Edit { doc, guard: Some(expected), op };
        let mut resent = false;
        let mut attempt = 0;
        loop {
            let reply = self.call(&req);
            // A lost answer — a transport failure, or a deadline refusal,
            // which has the same ambiguity (the work may have happened;
            // only the answer was refused) — is resolved by a probe.
            let lost = match &reply {
                Ok(Response::Err(WireError::Deadline { .. })) => true,
                Ok(_) => false,
                Err(e) => e.is_transport(),
            };
            if lost && attempt < self.opts.retries {
                attempt += 1;
                match self.fate(doc, expected)? {
                    Fate::NotApplied => resent = true,
                    Fate::Applied(epoch) => return Ok(EditOutcome { node: None, epoch }),
                    Fate::Conflict(current) => return Err(conflict(doc, expected, current)),
                }
                continue;
            }
            match reply {
                Ok(Response::Edited { node, epoch }) => return Ok(EditOutcome { node, epoch }),
                // Transient refusals guarantee the request did not
                // execute — same guard, straight resend, no probe.
                Ok(Response::Err(ref e2))
                    if attempt < self.opts.retries
                        && matches!(e2, WireError::Busy | WireError::Injected(_)) =>
                {
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(10 << attempt.min(5)));
                }
                // A stale refusal on a *resend* is the CAS guard doing
                // its job: the original request applied after all (it
                // was still in flight when we probed).
                Ok(Response::Err(WireError::Stale { current }))
                    if resent && current == expected + 1 =>
                {
                    return Ok(EditOutcome { node: None, epoch: current })
                }
                Ok(Response::Err(e)) => return Err(e.into()),
                Ok(other) => return Err(unexpected("edited", &other)),
                Err(e) => return Err(e),
            }
        }
    }

    /// Probe `doc`'s epoch to learn what became of an edit guarded at
    /// `guard` whose answer was lost. `epoch` blind-retries internally;
    /// if even that cannot get through, its error is the caller's.
    fn fate(&self, doc: DocId, guard: u64) -> Result<Fate> {
        let current = self.epoch(doc)?;
        Ok(if current == guard {
            Fate::NotApplied
        } else if current == guard + 1 {
            Fate::Applied(current)
        } else {
            Fate::Conflict(current)
        })
    }

    /// Pipelined guarded edits: up to [`ClientOptions::window`] edits in
    /// flight on one connection, per-document serialization, and the
    /// same probe-based recovery as [`Client::edit_guarded`] when the
    /// connection dies mid-stream (reconnect, resolve every in-flight
    /// edit's fate, resume).
    ///
    /// Per-op results land positionally; a typed refusal of one edit
    /// (gate rejection, conflict) does not abort the rest. The outer
    /// `Err` is reserved for unrecoverable transport failure.
    pub fn edit_batch(
        &self,
        edits: &[(DocId, EditOp)],
    ) -> Result<Vec<std::result::Result<EditOutcome, ServeError>>> {
        let trace = trace::span_or_root("client.edit_batch");
        trace.attr("edits", edits.len());
        let mut results: Vec<Option<std::result::Result<EditOutcome, ServeError>>> = Vec::new();
        results.resize_with(edits.len(), || None);

        // Current known epoch per document — the guard source. One probe
        // per distinct document up front.
        let mut expected: HashMap<DocId, u64> = HashMap::new();
        for (doc, _) in edits {
            if let std::collections::hash_map::Entry::Vacant(v) = expected.entry(*doc) {
                v.insert(self.epoch(*doc)?);
            }
        }

        struct Pending {
            idx: usize,
            doc: DocId,
            guard: u64,
        }

        // `ready` holds indices eligible to send; `waiting` parks edits
        // whose document already has one in flight.
        let mut ready: VecDeque<usize> = (0..edits.len()).collect();
        let mut waiting: HashMap<DocId, VecDeque<usize>> = HashMap::new();
        let mut inflight: VecDeque<Pending> = VecDeque::new();
        let mut busy_docs: HashSet<DocId> = HashSet::new();
        let mut conn = self.take_conn()?;
        let mut reconnects = 0u32;

        // On completion of an edit for `doc`, promote its next waiter.
        fn finish_doc(
            doc: DocId,
            busy: &mut HashSet<DocId>,
            waiting: &mut HashMap<DocId, VecDeque<usize>>,
            ready: &mut VecDeque<usize>,
        ) {
            busy.remove(&doc);
            if let Some(q) = waiting.get_mut(&doc) {
                if let Some(idx) = q.pop_front() {
                    ready.push_front(idx);
                }
                if q.is_empty() {
                    waiting.remove(&doc);
                }
            }
        }

        'pump: loop {
            // Fill the window with eligible edits.
            while inflight.len() < self.opts.window.max(1) {
                let Some(idx) = ready.pop_front() else { break };
                let (doc, ref op) = edits[idx];
                if busy_docs.contains(&doc) {
                    waiting.entry(doc).or_default().push_back(idx);
                    continue;
                }
                let guard = expected[&doc];
                let req = Request::Edit { doc, guard: Some(guard), op: op.clone() };
                if let Err(e) = conn.send(&req) {
                    // Send failed: nothing new went out; fall through to
                    // recovery with this edit back in the ready queue.
                    ready.push_front(idx);
                    recover(
                        self,
                        &mut conn,
                        &mut inflight,
                        &mut expected,
                        &mut results,
                        &mut busy_docs,
                        &mut waiting,
                        &mut ready,
                        &mut reconnects,
                        e.into(),
                    )?;
                    continue 'pump;
                }
                busy_docs.insert(doc);
                inflight.push_back(Pending { idx, doc, guard });
            }
            if inflight.is_empty() {
                if ready.is_empty() && waiting.is_empty() {
                    break;
                }
                // Nothing in flight but work remains (can only be
                // stranded waiters): requeue and refill.
                for (_, q) in waiting.drain() {
                    ready.extend(q);
                }
                continue;
            }

            // Responses arrive strictly in request order.
            match conn.recv() {
                Ok(resp) => {
                    // invariant: the server answers strictly in request
                    // order, so a response implies a non-empty queue.
                    let p = inflight.pop_front().expect("response with nothing in flight");
                    finish_doc(p.doc, &mut busy_docs, &mut waiting, &mut ready);
                    match resp {
                        Response::Edited { node, epoch } => {
                            expected.insert(p.doc, epoch);
                            results[p.idx] = Some(Ok(EditOutcome { node, epoch }));
                        }
                        Response::Err(WireError::Stale { current }) => {
                            // No transport fault happened, so this is an
                            // external writer — resync and surface it.
                            expected.insert(p.doc, current);
                            results[p.idx] = Some(Err(conflict(p.doc, p.guard, current)));
                        }
                        Response::Err(e) => {
                            // Typed refusal (gate rejection, …): the op
                            // did not apply, the guard is still right.
                            results[p.idx] = Some(Err(e.into()));
                        }
                        other => {
                            return Err(unexpected("edited", &other));
                        }
                    }
                }
                Err(ServeError::Io(e)) => {
                    recover(
                        self,
                        &mut conn,
                        &mut inflight,
                        &mut expected,
                        &mut results,
                        &mut busy_docs,
                        &mut waiting,
                        &mut ready,
                        &mut reconnects,
                        e.into(),
                    )?;
                }
                Err(e) => return Err(e),
            }
        }

        self.put_back(conn);
        // invariant: the loop above exits only when `remaining == 0`, and
        // every decrement writes that edit's slot first.
        return Ok(results.into_iter().map(|r| r.expect("every edit resolved")).collect());

        /// The connection died with `inflight` edits unresolved. Probe
        /// each one's fate in order, then hand back a fresh connection.
        #[allow(clippy::too_many_arguments)]
        fn recover(
            client: &Client,
            conn: &mut Conn,
            inflight: &mut VecDeque<Pending>,
            expected: &mut HashMap<DocId, u64>,
            results: &mut [Option<std::result::Result<EditOutcome, ServeError>>],
            busy_docs: &mut HashSet<DocId>,
            waiting: &mut HashMap<DocId, VecDeque<usize>>,
            ready: &mut VecDeque<usize>,
            reconnects: &mut u32,
            cause: ServeError,
        ) -> Result<()> {
            if *reconnects >= client.opts.retries.max(1) * 4 {
                return Err(cause);
            }
            *reconnects += 1;
            // Resolve newest-first so resends re-enter `ready` in
            // original order via push_front.
            while let Some(p) = inflight.pop_back() {
                busy_docs.remove(&p.doc);
                if let Some(q) = waiting.remove(&p.doc) {
                    for idx in q.into_iter().rev() {
                        ready.push_front(idx);
                    }
                }
                // A probe that cannot get through fails the batch as a
                // whole.
                match client.fate(p.doc, p.guard)? {
                    Fate::NotApplied => ready.push_front(p.idx), // resend
                    Fate::Applied(epoch) => {
                        expected.insert(p.doc, epoch);
                        results[p.idx] = Some(Ok(EditOutcome { node: None, epoch }));
                    }
                    Fate::Conflict(current) => {
                        expected.insert(p.doc, current);
                        results[p.idx] = Some(Err(conflict(p.doc, p.guard, current)));
                    }
                }
            }
            *conn = client.take_conn()?;
            Ok(())
        }
    }

    /// Evaluate an expression against one document. Idempotent, retried.
    pub fn query(&self, doc: DocId, expr: &str) -> Result<Vec<NodeId>> {
        match self.call_idem(&Request::Query { doc, expr: expr.into() })? {
            Response::Nodes(nodes) => Ok(nodes),
            Response::Err(e) => Err(e.into()),
            other => Err(unexpected("nodes", &other)),
        }
    }

    /// Fan-out query over every document (all-or-nothing). Idempotent,
    /// retried.
    pub fn query_all(&self, expr: &str) -> Result<Vec<(DocId, Vec<NodeId>)>> {
        match self.call_idem(&Request::QueryAll { expr: expr.into() })? {
            Response::Hits(hits) => Ok(hits),
            Response::Err(e) => Err(e.into()),
            other => Err(unexpected("hits", &other)),
        }
    }

    /// Fan-out query tolerating sick shards: hits from whoever answered
    /// within `per_shard_timeout`, typed errors for the rest.
    pub fn query_all_partial(
        &self,
        expr: &str,
        per_shard_timeout: Duration,
    ) -> Result<PartialHits> {
        let req = Request::QueryPartial {
            timeout_ms: per_shard_timeout.as_millis() as u64,
            expr: expr.into(),
        };
        match self.call_idem(&req)? {
            Response::Partial { hits, errors } => Ok((hits, errors)),
            Response::Err(e) => Err(e.into()),
            other => Err(unexpected("partial", &other)),
        }
    }

    /// Editor tag suggestions for a span.
    pub fn suggest_tags(
        &self,
        doc: DocId,
        hierarchy: &str,
        start: usize,
        end: usize,
    ) -> Result<Vec<String>> {
        let req = Request::Suggest { doc, hierarchy: hierarchy.into(), start, end };
        match self.call_idem(&req)? {
            Response::Tags(tags) => Ok(tags),
            Response::Err(e) => Err(e.into()),
            other => Err(unexpected("tags", &other)),
        }
    }

    /// The document's stand-off export.
    pub fn export(&self, doc: DocId) -> Result<String> {
        match self.call_idem(&Request::Export { doc })? {
            Response::Text(text) => Ok(text),
            Response::Err(e) => Err(e.into()),
            other => Err(unexpected("text", &other)),
        }
    }

    /// Resolve a cluster-wide document name.
    pub fn id_by_name(&self, name: &str) -> Result<DocId> {
        match self.call_idem(&Request::IdByName { name: name.into() })? {
            Response::Id(id) => Ok(id),
            Response::Err(e) => Err(e.into()),
            other => Err(unexpected("id", &other)),
        }
    }

    /// A document's current edit epoch (the CAS guard source).
    pub fn epoch(&self, doc: DocId) -> Result<u64> {
        match self.call_idem(&Request::Epoch { doc })? {
            Response::Epoch(e) => Ok(e),
            Response::Err(e) => Err(e.into()),
            other => Err(unexpected("epoch", &other)),
        }
    }

    /// Drop a document. Not blind-retried (the `bool` would lie on a
    /// replay).
    pub fn remove(&self, doc: DocId) -> Result<bool> {
        match self.call(&Request::Remove { doc })? {
            Response::Removed(b) => Ok(b),
            Response::Err(e) => Err(e.into()),
            other => Err(unexpected("removed", &other)),
        }
    }

    /// The server's full metrics exposition page.
    pub fn metrics(&self) -> Result<String> {
        match self.call_idem(&Request::Metrics)? {
            Response::Text(text) => Ok(text),
            Response::Err(e) => Err(e.into()),
            other => Err(unexpected("text", &other)),
        }
    }

    /// The routing view: shard count plus the override table.
    pub fn routes(&self) -> Result<(usize, Vec<(u64, usize)>)> {
        match self.call_idem(&Request::Routes)? {
            Response::Routes { shards, overrides } => Ok((shards, overrides)),
            Response::Err(e) => Err(e.into()),
            other => Err(unexpected("routes", &other)),
        }
    }

    /// Summaries of the server's most recently completed traces,
    /// newest first (the flight recorder's normal ring).
    pub fn traces_recent(&self, limit: usize) -> Result<Vec<TraceSummaryWire>> {
        self.traces_req(Request::Trace(TraceQuery::Recent { limit }))
    }

    /// Summaries of the server's retained slow-or-error traces, newest
    /// first — the ring normal churn can never evict.
    pub fn traces_slow(&self, limit: usize) -> Result<Vec<TraceSummaryWire>> {
        self.traces_req(Request::Trace(TraceQuery::Slow { limit }))
    }

    fn traces_req(&self, req: Request) -> Result<Vec<TraceSummaryWire>> {
        match self.call_idem(&req)? {
            Response::Traces(traces) => Ok(traces),
            Response::Err(e) => Err(e.into()),
            other => Err(unexpected("traces", &other)),
        }
    }

    /// One retained trace, rendered server-side as an indented span tree
    /// with per-span self-times (see `cxobs::trace::render_tree`).
    pub fn trace_tree(&self, trace_id: u64) -> Result<String> {
        match self.call_idem(&Request::Trace(TraceQuery::Get { trace_id }))? {
            Response::Text(text) => Ok(text),
            Response::Err(e) => Err(e.into()),
            other => Err(unexpected("text", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ServeError {
    ServeError::Protocol(format!("expected {wanted} response, got {got:?}"))
}

/// What an epoch probe says became of a guarded edit whose answer was
/// lost ([`Client::fate`]).
enum Fate {
    /// The document still sits at the guard: the edit never applied, so
    /// resending it under the same guard is safe.
    NotApplied,
    /// Exactly one epoch past the guard: the edit applied once.
    Applied(u64),
    /// Further along: another writer intervened.
    Conflict(u64),
}

fn conflict(doc: DocId, guard: u64, current: u64) -> ServeError {
    ServeError::Conflict {
        doc,
        detail: format!("guard {guard} but epoch moved to {current}; another writer intervened"),
    }
}

// ---------------------------------------------------------------------
// Router mode
// ---------------------------------------------------------------------

/// A stateless shard-aware client over one [`Client`] per shard host.
///
/// Routing is computed **client-side** from the same residue-class rule
/// the cluster uses (`raw % shards`, overridden by the relocation
/// table), so per-document operations go straight to the owning shard's
/// server — no proxy hop. The override table is fetched once at connect
/// and repaired lazily: a server answering `wrong_shard { owner }`
/// teaches the router the correct owner, and the request is retried
/// there immediately.
pub struct RouterClient {
    clients: Vec<Client>,
    shards: usize,
    overrides: RwLock<HashMap<u64, usize>>,
    rr: AtomicUsize,
}

impl RouterClient {
    /// Connect to one server per shard, `addrs[i]` serving shard `i`,
    /// and fetch the initial routing view (from the first shard that
    /// answers). Fails if the cluster's shard count disagrees with the
    /// address list.
    pub fn connect(addrs: &[SocketAddr], options: ClientOptions) -> Result<RouterClient> {
        let clients = addrs
            .iter()
            .map(|a| Client::connect(a, options.clone()))
            .collect::<std::io::Result<Vec<_>>>()?;
        let router = RouterClient {
            shards: clients.len(),
            clients,
            overrides: RwLock::new(HashMap::new()),
            rr: AtomicUsize::new(0),
        };
        router.refresh_routes()?;
        Ok(router)
    }

    /// Number of shard endpoints.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Re-fetch the routing view from any shard that answers.
    pub fn refresh_routes(&self) -> Result<()> {
        // Poison recovery (all three `overrides` acquisitions below): the
        // map is only ever replaced whole or updated by single
        // insert/remove, so a recovered guard sees a coherent routing
        // view — at worst stale, which the protocol already retries on.
        let mut last = None;
        for c in &self.clients {
            match c.routes() {
                Ok((shards, overrides)) => {
                    if shards != self.shards {
                        return Err(ServeError::Protocol(format!(
                            "cluster has {shards} shards but the router was \
                             given {} endpoints",
                            self.shards
                        )));
                    }
                    *self.overrides.write().unwrap_or_else(PoisonError::into_inner) =
                        overrides.into_iter().collect();
                    return Ok(());
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| ServeError::Protocol("no shard endpoints".into())))
    }

    /// The shard this router believes owns `doc`.
    pub fn shard_of(&self, doc: DocId) -> usize {
        let overrides = self.overrides.read().unwrap_or_else(PoisonError::into_inner);
        match overrides.get(&doc.raw()) {
            Some(&s) => s,
            None => (doc.raw() % self.shards as u64) as usize,
        }
    }

    fn learn(&self, doc: DocId, owner: usize) {
        let home = (doc.raw() % self.shards as u64) as usize;
        // Poison recovery: single insert/remove per holder (see
        // `refresh_routes`) — a recovered guard sees a coherent view.
        let mut overrides = self.overrides.write().unwrap_or_else(PoisonError::into_inner);
        if owner == home {
            overrides.remove(&doc.raw());
        } else {
            overrides.insert(doc.raw(), owner);
        }
    }

    /// Run a per-document operation against the believed owner; on a
    /// `wrong_shard` refusal, learn the real owner and retry there once.
    fn on_owner<T>(&self, doc: DocId, f: impl Fn(&Client) -> Result<T>) -> Result<T> {
        let trace = trace::span_or_root("router.request");
        trace.attr("doc", doc.raw());
        let shard = self.shard_of(doc).min(self.shards - 1);
        trace.attr("shard", shard);
        match f(&self.clients[shard]) {
            Err(ServeError::Remote(WireError::WrongShard { owner })) if owner < self.shards => {
                self.learn(doc, owner);
                trace.attr("shard", owner);
                f(&self.clients[owner])
            }
            r => r,
        }
    }

    fn next_rr(&self) -> usize {
        self.rr.fetch_add(1, Ordering::Relaxed) % self.shards
    }

    /// Insert round-robin across shards (each shard-scoped server mints
    /// ids in its own residue class, so the new document needs no
    /// override entry).
    pub fn insert(&self, g: &Goddag) -> Result<DocId> {
        self.clients[self.next_rr()].insert(g)
    }

    /// Insert under a cluster-wide name, round-robin.
    pub fn insert_named(&self, name: impl Into<String>, g: &Goddag) -> Result<DocId> {
        self.clients[self.next_rr()].insert_named(name, g)
    }

    /// Guarded edit on the owning shard.
    pub fn edit_guarded(&self, doc: DocId, expected: u64, op: EditOp) -> Result<EditOutcome> {
        self.on_owner(doc, |c| c.edit_guarded(doc, expected, op.clone()))
    }

    /// Unguarded edit on the owning shard (not retried).
    pub fn edit(&self, doc: DocId, op: EditOp) -> Result<EditOutcome> {
        self.on_owner(doc, |c| c.edit(doc, op.clone()))
    }

    /// Per-document query on the owning shard.
    pub fn query(&self, doc: DocId, expr: &str) -> Result<Vec<NodeId>> {
        self.on_owner(doc, |c| c.query(doc, expr))
    }

    /// Stand-off export from the owning shard.
    pub fn export(&self, doc: DocId) -> Result<String> {
        self.on_owner(doc, |c| c.export(doc))
    }

    /// Edit epoch from the owning shard.
    pub fn epoch(&self, doc: DocId) -> Result<u64> {
        self.on_owner(doc, |c| c.epoch(doc))
    }

    /// Tag suggestions from the owning shard.
    pub fn suggest_tags(
        &self,
        doc: DocId,
        hierarchy: &str,
        start: usize,
        end: usize,
    ) -> Result<Vec<String>> {
        self.on_owner(doc, |c| c.suggest_tags(doc, hierarchy, start, end))
    }

    /// Resolve a name (the directory is cluster-wide; any shard knows).
    pub fn id_by_name(&self, name: &str) -> Result<DocId> {
        self.clients[self.next_rr()].id_by_name(name)
    }

    /// Fan-out query across every shard endpoint concurrently,
    /// all-or-nothing, merged id-sorted (each shard-scoped server
    /// answers for its own documents only): the first shard's refusal —
    /// a shard marked down is `shard_down` — refuses the whole query.
    pub fn query_all(&self, expr: &str) -> Result<Vec<(DocId, Vec<NodeId>)>> {
        let mut hits = Vec::new();
        for shard in self.fan_out(|c| c.query_all(expr)) {
            hits.extend(shard?);
        }
        hits.sort_by_key(|(id, _)| *id);
        Ok(hits)
    }

    /// Fan-out query tolerating sick shards: each shard's typed misses
    /// (`shard_down`, `timeout`, `unavailable`) are kept per entry, and a
    /// transport failure becomes an `unavailable` entry instead of sinking
    /// the whole query.
    pub fn query_all_partial(
        &self,
        expr: &str,
        per_shard_timeout: Duration,
    ) -> Result<PartialHits> {
        let mut hits = Vec::new();
        let mut errors = Vec::new();
        let answers = self.fan_out(|c| c.query_all_partial(expr, per_shard_timeout));
        for (shard, r) in answers.into_iter().enumerate() {
            match r {
                Ok((h, e)) => {
                    hits.extend(h);
                    errors.extend(e);
                }
                Err(ServeError::Remote(w)) => errors.push((shard, w)),
                Err(e) => {
                    errors.push((shard, WireError::Unavailable { shard, detail: e.to_string() }))
                }
            }
        }
        hits.sort_by_key(|(id, _)| *id);
        Ok((hits, errors))
    }

    /// The router's one fan-out: `call` against every shard endpoint, one
    /// scoped thread each, answers in shard order.
    fn fan_out<T: Send>(&self, call: impl Fn(&Client) -> Result<T> + Sync) -> Vec<Result<T>> {
        let _trace = trace::span_or_root("router.query_all");
        let parent = trace::current();
        let call = &call;
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    // Child contexts are minted here, on the calling
                    // thread, so per-shard worker spans parent onto this
                    // fan-out deterministically.
                    let ctx = parent.map(|p| p.child());
                    scope.spawn(move || {
                        let g = trace::adopt("router.shard_query", ctx);
                        g.attr("shard", i);
                        let r = call(c);
                        if let Err(e) = &r {
                            g.err(e.to_string());
                        }
                        r
                    })
                })
                .collect();
            // invariant: shard query threads return errors instead of
            // panicking; a panic is a bug worth propagating.
            handles.into_iter().map(|h| h.join().expect("query thread")).collect()
        })
    }

    /// Metrics page from one shard endpoint.
    pub fn metrics(&self, shard: usize) -> Result<String> {
        self.clients[shard].metrics()
    }

    /// Direct access to one shard's client.
    pub fn shard_client(&self, shard: usize) -> &Client {
        &self.clients[shard]
    }
}
