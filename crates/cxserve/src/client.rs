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
//!   [`Client::edit_batch`]) carry a compare-and-set epoch guard and are
//!   retried *safely* by the one protocol below.
//!
//! A `busy` or `injected` refusal fires before the request executes, so
//! reads and guarded edits alike resend it after the same backoff. Every
//! request gets [`ClientOptions::retries`] resends or probes.
//!
//! ## The exactly-once protocol
//!
//! Every guarded edit goes through one pipeline; [`Client::edit_guarded`]
//! is a run of one edit under the caller's guard, and
//! [`Client::edit_batch`] first probes the epoch of each distinct
//! document it touches. A reply means the same thing in both:
//!
//! | reply | result |
//! |---|---|
//! | `edited` | done |
//! | `stale {guard + 1}` to a resend after a probe | applied: the first send landed after the probe (`node: None`) |
//! | any other `stale {current}` | that edit's `Err(Remote(Stale { current }))` |
//! | `busy` / `injected` | resend after backoff |
//! | `deadline`, or a dead connection | probe the epoch: `guard` → resend; `guard + 1` → applied exactly once (`node: None`); further → [`ServeError::Conflict`] |
//! | any other typed refusal | that edit's `Err`, guard unchanged |
//! | a refused probe | that document's edits fail with the refusal |
//!
//! A result that reveals the document's epoch (applied, stale, conflict)
//! becomes the guard of that document's next edit in the run.
//! A `deadline` is resolved like a lost answer because it is one: the
//! server ran the edit and only its answer was refused. A dead
//! connection that carried an edit with no budget left fails the whole
//! run with the transport error — the only outer `Err`, besides a
//! protocol violation.
//!
//! ## Pipelining
//!
//! Servers answer each connection's requests strictly in order, so a run
//! keeps a window of edits in flight on one connection and matches
//! responses positionally. Edits to the *same* document are serialized
//! (at most one in flight) so each guard is exact and a probe is
//! unambiguous; edits to distinct documents overlap freely. Each
//! connection a run uses is one `client.call` trace span.

use crate::error::{Result, ServeError};
use cxcluster::{Router, ShardId};
use cxobs::sync::{Level, Mutex};
use cxobs::trace;
use cxpersist::DocBlob;
use cxstore::{DocId, EditOp, EditOutcome};
use cxwire::{Request, Response, TraceQuery, TraceSummaryWire, Verb, WireError};
use goddag::{Goddag, NodeId};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Per-document hits from a fan-out query.
pub type DocHits = Vec<(DocId, Vec<NodeId>)>;

/// Hits plus per-shard typed errors from a partial fan-out query.
pub type PartialHits = (DocHits, Vec<(usize, WireError)>);

/// One guarded edit's outcome.
type EditResult = std::result::Result<EditOutcome, ServeError>;

/// Idle connections a [`Client`] keeps pooled (excess are dropped).
const POOL: usize = 2;
/// Guarded edits a run keeps in flight on one connection.
const WINDOW: usize = 32;

/// Tuning for a [`Client`].
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Resends or epoch probes each request may spend on transport
    /// failures and transient refusals.
    pub retries: u32,
}

impl Default for ClientOptions {
    fn default() -> ClientOptions {
        ClientOptions { retries: 2 }
    }
}

/// Whether a refusal guarantees the request did not execute: a full
/// backlog or an injected request fault, both fired before the handler
/// runs, so even a write may be resent.
fn not_executed(e: &WireError) -> bool {
    matches!(e, WireError::Busy | WireError::Injected(_))
}

/// The pause before retry number `attempt` (counted from 1).
fn backoff(attempt: u32) {
    std::thread::sleep(Duration::from_millis(20 << attempt.min(5)));
}

/// One live connection. Dropping it closes the socket.
struct Conn {
    stream: TcpStream,
}

impl Conn {
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
        Ok(Client { addr, opts: options, idle: Mutex::new(Level::ClientIdle, Vec::new()) })
    }

    /// The endpoint this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn take_conn(&self) -> std::io::Result<Conn> {
        let pooled = self.idle.lock().pop();
        match pooled {
            Some(c) => Ok(c),
            None => cxwire::dial(self.addr).map(|stream| Conn { stream }),
        }
    }

    fn put_back(&self, conn: Conn) {
        let mut idle = self.idle.lock();
        if idle.len() < POOL {
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
    /// and refusals that guarantee non-execution are retried.
    fn call_idem(&self, req: &Request) -> Result<Response> {
        let mut attempt = 0;
        loop {
            let reply = self.call(req);
            let retry = match &reply {
                Ok(Response::Err(e)) => not_executed(e),
                Ok(_) => false,
                Err(e) => e.is_transport(),
            };
            if !retry || attempt == self.opts.retries {
                return reply;
            }
            attempt += 1;
            backoff(attempt);
        }
    }

    // -- typed operations ---------------------------------------------

    /// Liveness probe.
    pub fn ping(&self) -> Result<()> {
        match self.call_idem(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("pong", other)),
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
            other => Err(unexpected("id", other)),
        }
    }

    /// One unguarded gated edit. Not retried (a replay would apply
    /// twice); use [`Client::edit_guarded`] for safe retries.
    pub fn edit(&self, doc: DocId, op: EditOp) -> Result<EditOutcome> {
        match self.call(&Request::Edit { doc, guard: None, op })? {
            Response::Edited { node, epoch } => Ok(EditOutcome { node, epoch }),
            other => Err(unexpected("edited", other)),
        }
    }

    /// One compare-and-set edit with exactly-once retry semantics: the
    /// op applies only while the document sits at epoch `expected`. It
    /// runs the module's one guarded-edit protocol; an outcome recovered
    /// as applied has `node: None` (the created node id, if any, was lost
    /// with the answer).
    pub fn edit_guarded(&self, doc: DocId, expected: u64, op: EditOp) -> Result<EditOutcome> {
        let trace = trace::span_or_root("client.edit_guarded");
        trace.attr("doc", doc.raw());
        trace.attr("guard", expected);
        let edits = [(doc, op)];
        let mut run = Run::new(&edits, self.opts.retries);
        run.guards.insert(doc, expected);
        #[expect(
            clippy::expect_used,
            reason = "invariant: a run answers once per edit, and this run has one"
        )]
        let r = self.run_guarded(run).and_then(|mut r| r.pop().expect("one edit, one result"));
        if let Err(e) = &r {
            trace.err(e.to_string());
        }
        r
    }

    /// Pipelined guarded edits under the module's one protocol, each
    /// guarded by its document's epoch as probed up front and as moved by
    /// the batch's own earlier edits.
    ///
    /// Per-op results land positionally; a typed refusal of one edit
    /// (gate rejection, conflict, a removed document) does not abort the
    /// rest. The outer `Err` is reserved for unrecoverable transport
    /// failure.
    pub fn edit_batch(&self, edits: &[(DocId, EditOp)]) -> Result<Vec<EditResult>> {
        let trace = trace::span_or_root("client.edit_batch");
        trace.attr("edits", edits.len());
        let mut run = Run::new(edits, self.opts.retries);
        for doc in run.ready.clone() {
            match self.probe(doc)? {
                Ok(epoch) => {
                    run.guards.insert(doc, epoch);
                }
                Err(w) => run.fail_doc(doc, &w),
            }
        }
        self.run_guarded(run)
    }

    /// The one guarded-edit protocol (module docs): pump the run over a
    /// connection, and when answers are lost — a `deadline`, or the
    /// connection dying — learn each lost edit's fate from its
    /// document's epoch before going on.
    fn run_guarded(&self, mut run: Run<'_>) -> Result<Vec<EditResult>> {
        loop {
            for idx in std::mem::take(&mut run.lost) {
                self.fate(&mut run, idx)?;
            }
            let Some(first) = run.next_request() else { break };
            let trace = trace::span_or_root("client.call");
            trace.attr("verb", Verb::Edit.name());
            if let Err(e) = self.pump(&mut run, first, &trace) {
                trace.err(e.to_string());
                if !e.is_transport() {
                    return Err(e);
                }
                while let Some(idx) = run.inflight.pop_front() {
                    if !run.spend(idx) {
                        return Err(e);
                    }
                    run.lost.push(idx);
                }
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "invariant: the loop ends with nothing queued, in flight or lost, and every \
                      edit leaves those only by settling its slot"
        )]
        let results =
            run.slots.into_iter().map(|s| s.result.expect("every edit settled")).collect();
        Ok(results)
    }

    /// Drive `run` over one connection, `first` aboard, until nothing is
    /// left to send or await. On `Err` the connection is gone — a dial
    /// failure included — and `run.inflight` holds the edits it carried.
    fn pump(&self, run: &mut Run<'_>, first: Request, trace: &trace::SpanGuard) -> Result<()> {
        let mut conn = self.take_conn()?;
        conn.send(&first)?;
        loop {
            while run.inflight.len() < WINDOW {
                let Some(req) = run.next_request() else { break };
                conn.send(&req)?;
            }
            let Some(&idx) = run.inflight.front() else { break };
            let reply = conn.recv()?;
            run.inflight.pop_front();
            if let Response::Err(e) = &reply {
                trace.err(e.to_string());
            }
            run.answer(idx, reply)?;
        }
        self.put_back(conn);
        Ok(())
    }

    /// Probe the epoch of lost edit `idx`'s document to learn whether it
    /// applied: still at the guard → resend; one past → applied exactly
    /// once; further → another writer intervened.
    fn fate(&self, run: &mut Run<'_>, idx: usize) -> Result<()> {
        let doc = run.edits[idx].0;
        let guard = run.guards[&doc];
        match self.probe(doc)? {
            Ok(now) if now == guard => {
                run.slots[idx].probed = true;
                run.requeue(idx);
            }
            Ok(now) if now == guard + 1 => {
                run.settle(idx, Ok(EditOutcome { node: None, epoch: now }), Some(now))
            }
            Ok(now) => run.settle(idx, Err(conflict(doc, guard, now)), Some(now)),
            Err(w) => {
                run.requeue(idx);
                run.fail_doc(doc, &w);
            }
        }
        Ok(())
    }

    /// `doc`'s epoch, or the typed refusal that fails the document's
    /// edits; a probe that cannot get through fails the whole run.
    fn probe(&self, doc: DocId) -> Result<std::result::Result<u64, WireError>> {
        match self.epoch(doc) {
            Err(ServeError::Remote(w)) => Ok(Err(w)),
            r => r.map(Ok),
        }
    }

    /// Evaluate an expression against one document. Idempotent, retried.
    pub fn query(&self, doc: DocId, expr: &str) -> Result<Vec<NodeId>> {
        match self.call_idem(&Request::Query { doc, expr: expr.into() })? {
            Response::Nodes(nodes) => Ok(nodes),
            other => Err(unexpected("nodes", other)),
        }
    }

    /// Fan-out query over every document (all-or-nothing). Idempotent,
    /// retried.
    pub fn query_all(&self, expr: &str) -> Result<Vec<(DocId, Vec<NodeId>)>> {
        match self.call_idem(&Request::QueryAll { expr: expr.into() })? {
            Response::Hits(hits) => Ok(hits),
            other => Err(unexpected("hits", other)),
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
            other => Err(unexpected("partial", other)),
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
            other => Err(unexpected("tags", other)),
        }
    }

    /// The document's stand-off export.
    pub fn export(&self, doc: DocId) -> Result<String> {
        match self.call_idem(&Request::Export { doc })? {
            Response::Text(text) => Ok(text),
            other => Err(unexpected("text", other)),
        }
    }

    /// Resolve a cluster-wide document name.
    pub fn id_by_name(&self, name: &str) -> Result<DocId> {
        match self.call_idem(&Request::IdByName { name: name.into() })? {
            Response::Id(id) => Ok(id),
            other => Err(unexpected("id", other)),
        }
    }

    /// A document's current edit epoch (the CAS guard source).
    pub fn epoch(&self, doc: DocId) -> Result<u64> {
        match self.call_idem(&Request::Epoch { doc })? {
            Response::Epoch(e) => Ok(e),
            other => Err(unexpected("epoch", other)),
        }
    }

    /// Drop a document. Not blind-retried (the `bool` would lie on a
    /// replay).
    pub fn remove(&self, doc: DocId) -> Result<bool> {
        match self.call(&Request::Remove { doc })? {
            Response::Removed(b) => Ok(b),
            other => Err(unexpected("removed", other)),
        }
    }

    /// The server's full metrics exposition page.
    pub fn metrics(&self) -> Result<String> {
        match self.call_idem(&Request::Metrics)? {
            Response::Text(text) => Ok(text),
            other => Err(unexpected("text", other)),
        }
    }

    /// The routing view: shard count plus the override table.
    pub fn routes(&self) -> Result<(usize, Vec<(u64, usize)>)> {
        match self.call_idem(&Request::Routes)? {
            Response::Routes { shards, overrides } => Ok((shards, overrides)),
            other => Err(unexpected("routes", other)),
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
            other => Err(unexpected("traces", other)),
        }
    }

    /// One retained trace, rendered server-side as an indented span tree
    /// with per-span self-times (see `cxobs::trace::render_tree`).
    pub fn trace_tree(&self, trace_id: u64) -> Result<String> {
        match self.call_idem(&Request::Trace(TraceQuery::Get { trace_id }))? {
            Response::Text(text) => Ok(text),
            other => Err(unexpected("text", other)),
        }
    }
}

/// A reply that is not the `wanted` answer: the server's typed refusal,
/// or a protocol violation.
fn unexpected(wanted: &str, got: Response) -> ServeError {
    match got {
        Response::Err(e) => ServeError::Remote(e),
        got => ServeError::Protocol(format!("expected {wanted} response, got {got:?}")),
    }
}

fn conflict(doc: DocId, guard: u64, current: u64) -> ServeError {
    ServeError::Conflict {
        doc,
        detail: format!("guard {guard} but epoch moved to {current}; another writer intervened"),
    }
}

/// One edit of a guarded run.
#[derive(Default)]
struct Slot {
    /// Resends and probes spent, out of the run's budget.
    tries: u32,
    /// A probe found it unapplied, so its first send may still land.
    probed: bool,
    result: Option<EditResult>,
}

/// The state of one guarded run ([`Client::run_guarded`]). Each edit is
/// in exactly one place until it settles: its document's queue, the
/// connection's in-flight list, or the lost list awaiting a probe. A
/// document with queued edits and none elsewhere is in `ready`.
#[derive(Default)]
struct Run<'a> {
    edits: &'a [(DocId, EditOp)],
    budget: u32,
    /// The guard each document's next edit carries.
    guards: HashMap<DocId, u64>,
    /// Each document's unsent edits, in order.
    queued: HashMap<DocId, VecDeque<usize>>,
    ready: VecDeque<DocId>,
    /// Sent on the current connection, in send order.
    inflight: VecDeque<usize>,
    /// Answers lost to a `deadline` or a dead connection.
    lost: Vec<usize>,
    slots: Vec<Slot>,
}

impl<'a> Run<'a> {
    fn new(edits: &'a [(DocId, EditOp)], budget: u32) -> Run<'a> {
        let mut queued: HashMap<DocId, VecDeque<usize>> = HashMap::new();
        let mut ready = VecDeque::new();
        for (idx, (doc, _)) in edits.iter().enumerate() {
            let q = queued.entry(*doc).or_default();
            if q.is_empty() {
                ready.push_back(*doc);
            }
            q.push_back(idx);
        }
        let slots = edits.iter().map(|_| Slot::default()).collect();
        Run { edits, budget, queued, ready, slots, ..Run::default() }
    }

    /// Put the next ready document's next edit in flight and build its
    /// request.
    fn next_request(&mut self) -> Option<Request> {
        while let Some(doc) = self.ready.pop_front() {
            // A document whose edits all failed with a refused probe has
            // no queue left.
            let Some(idx) = self.queued.get_mut(&doc).and_then(VecDeque::pop_front) else {
                continue;
            };
            self.inflight.push_back(idx);
            let op = self.edits[idx].1.clone();
            return Some(Request::Edit { doc, guard: Some(self.guards[&doc]), op });
        }
        None
    }

    /// Spend one of edit `idx`'s retries; false once it has none left.
    fn spend(&mut self, idx: usize) -> bool {
        let slot = &mut self.slots[idx];
        if slot.tries == self.budget {
            return false;
        }
        slot.tries += 1;
        true
    }

    /// Queue edit `idx` to be sent again, ahead of its document's others.
    fn requeue(&mut self, idx: usize) {
        let doc = self.edits[idx].0;
        self.queued.entry(doc).or_default().push_front(idx);
        self.ready.push_front(doc);
    }

    /// Fail each of `doc`'s queued edits with the refusal `w`.
    fn fail_doc(&mut self, doc: DocId, w: &WireError) {
        for idx in self.queued.remove(&doc).unwrap_or_default() {
            self.slots[idx].result = Some(Err(w.clone().into()));
        }
    }

    /// Record edit `idx`'s result, move its document's guard to `epoch`
    /// when the result reveals one, and ready the document's next edit.
    fn settle(&mut self, idx: usize, result: EditResult, epoch: Option<u64>) {
        let doc = self.edits[idx].0;
        if let Some(epoch) = epoch {
            self.guards.insert(doc, epoch);
        }
        self.slots[idx].result = Some(result);
        if self.queued.get(&doc).is_some_and(|q| !q.is_empty()) {
            self.ready.push_back(doc);
        }
    }

    /// Act on the server's reply to in-flight edit `idx`.
    fn answer(&mut self, idx: usize, reply: Response) -> Result<()> {
        let guard = self.guards[&self.edits[idx].0];
        match reply {
            Response::Edited { node, epoch } => {
                self.settle(idx, Ok(EditOutcome { node, epoch }), Some(epoch))
            }
            // The guard doing its job: the send the probe missed landed.
            Response::Err(WireError::Stale { current })
                if self.slots[idx].probed && current == guard + 1 =>
            {
                self.settle(idx, Ok(EditOutcome { node: None, epoch: current }), Some(current))
            }
            Response::Err(e) if not_executed(&e) && self.spend(idx) => {
                backoff(self.slots[idx].tries);
                self.requeue(idx);
            }
            Response::Err(WireError::Deadline { .. }) if self.spend(idx) => self.lost.push(idx),
            Response::Err(e @ WireError::Stale { current }) => {
                self.settle(idx, Err(e.into()), Some(current))
            }
            Response::Err(e) => self.settle(idx, Err(e.into()), None),
            other => return Err(unexpected("edited", other)),
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Router mode
// ---------------------------------------------------------------------

/// A stateless shard-aware client over one [`Client`] per shard host.
///
/// Routing is computed **client-side** by a [`Router`], the same rule
/// the cluster uses (`raw % shards`, overridden by the relocation
/// table), so per-document operations go straight to the owning shard's
/// server — no proxy hop. The override table is fetched once at connect
/// and repaired lazily: a server answering `wrong_shard { owner }`
/// teaches the router the correct owner, and the request is retried
/// there immediately.
pub struct RouterClient {
    clients: Vec<Client>,
    router: Router,
    rr: AtomicUsize,
}

impl RouterClient {
    /// Connect to one server per shard, `addrs[i]` serving shard `i`,
    /// and fetch the initial routing view (from the first shard that
    /// answers). Fails if `addrs` is empty or the cluster's shard count
    /// disagrees with it.
    pub fn connect(addrs: &[SocketAddr], options: ClientOptions) -> Result<RouterClient> {
        if addrs.is_empty() {
            return Err(ServeError::Protocol("no shard endpoints".into()));
        }
        let clients = addrs
            .iter()
            .map(|a| Client::connect(a, options.clone()))
            .collect::<std::io::Result<Vec<_>>>()?;
        let router =
            RouterClient { router: Router::new(clients.len()), clients, rr: AtomicUsize::new(0) };
        router.refresh_routes()?;
        Ok(router)
    }

    /// Number of shard endpoints.
    pub fn shard_count(&self) -> usize {
        self.clients.len()
    }

    /// Re-fetch the routing view from any shard that answers.
    pub fn refresh_routes(&self) -> Result<()> {
        let mut last = None;
        for c in &self.clients {
            match c.routes() {
                Ok((shards, overrides)) => {
                    if shards != self.shard_count() {
                        return Err(ServeError::Protocol(format!(
                            "cluster has {shards} shards but the router was \
                             given {} endpoints",
                            self.shard_count()
                        )));
                    }
                    self.router
                        .replace_overrides(overrides.into_iter().map(|(raw, s)| (raw, ShardId(s))));
                    return Ok(());
                }
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or_else(|| ServeError::Protocol("no shard endpoints".into())))
    }

    /// The shard this router believes owns `doc`.
    pub fn shard_of(&self, doc: DocId) -> usize {
        self.router.shard_of(doc).0
    }

    /// Run a per-document operation against the believed owner; on a
    /// `wrong_shard` refusal, learn the real owner and retry there once.
    fn on_owner<T>(&self, doc: DocId, f: impl Fn(&Client) -> Result<T>) -> Result<T> {
        let trace = trace::span_or_root("router.request");
        trace.attr("doc", doc.raw());
        // A fetched routing view may name a shard past the endpoint list.
        let shard = self.shard_of(doc).min(self.shard_count() - 1);
        trace.attr("shard", shard);
        match f(&self.clients[shard]) {
            Err(ServeError::Remote(WireError::WrongShard { owner }))
                if owner < self.shard_count() =>
            {
                self.router.route(doc, ShardId(owner));
                trace.attr("shard", owner);
                f(&self.clients[owner])
            }
            r => r,
        }
    }

    fn next_rr(&self) -> usize {
        self.rr.fetch_add(1, Ordering::Relaxed) % self.shard_count()
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
            #[expect(
                clippy::expect_used,
                reason = "invariant: shard query threads return errors instead of panicking; a \
                          panic is a bug worth propagating"
            )]
            let results = handles.into_iter().map(|h| h.join().expect("query thread")).collect();
            results
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
