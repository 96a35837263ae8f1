//! The versioned wire protocol: store operations and replication fetches
//! as payloads inside this crate's length-prefixed frames.
//!
//! One request per frame, one response per frame, answered in order per
//! connection (which is what makes client-side pipelining work: write
//! *k* requests, read *k* responses). The payload is a line of
//! space-separated tokens read with the workspace's one token cursor
//! ([`sacx::Tokens`]: strings percent-escaped, empty spelled `%`) —
//! optionally followed by a newline and a raw body (document blobs,
//! stand-off exports, metrics pages, shipped WAL records), so bulky
//! artifacts ride unescaped:
//!
//! ```text
//! request  := "cxq1 " verb tokens… [" tc " trace "-" span] ["\n" body]
//! response := ("ok " kind tokens… ["\n" body]) | ("err " kind tokens…)
//! ```
//!
//! Decoders split a payload at its first `\n` before any UTF-8 check, so a
//! `fetch`'s `records` body reaches [`cxpersist::scan_batch`] byte for byte.
//!
//! The leading `cxq1` is the protocol version: a server refuses anything
//! else with a typed `bad_request`, so a v2 client talking to a v1 server
//! fails loudly at the first exchange instead of misparsing. Every keyword
//! set — [`Verb`], [`WireErrorKind`], the response kinds, the `trace`
//! sub-queries — is declared once with [`sacx::vocabulary!`] and matched
//! as an enum, so a variant without an encoder or decoder arm does not
//! compile. An `edit` request carries its operation as
//! [`EditOp::write_tokens`] writes it (`sacx::EditOp`, re-exported by
//! `cxstore`): the spelling of the WAL record the edit becomes, and of a
//! line of an xTagger script.
//!
//! Error frames are **typed** — `shard_down`, `timeout`, `stale`,
//! `wrong_shard`, … — so a client can react structurally (refresh its
//! routing table, treat a CAS replay as already-applied) instead of
//! grepping a message.
//!
//! **Trace propagation.** A request line may end with one
//! `tc <trace_id>-<span_id>` token pair ([`Request::encode_traced`]):
//! the client's current [`cxobs::trace::TraceContext`] riding the frame so
//! the server's handler span joins the caller's trace. Nothing else may
//! follow a verb's arguments — leftover tokens are a `bad_request`, not
//! silently ignored — and the wire bytes without tracing enabled carry no
//! pair at all.

use crate::error::{WireError, WireErrorKind};
use cxobs::trace;
use cxpersist::DocBlob;
use cxstore::{DocId, EditOp};
use goddag::NodeId;
use sacx::{escape_field, Tokens};
use std::fmt::Write as _;

/// Version sentinel opening every request line.
pub const VERSION: &str = "cxq1";

/// One decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Add a document (the blob rides as the body), optionally named.
    Insert {
        /// Cluster-wide name to bind, if any.
        name: Option<String>,
        /// The serialized document.
        blob: DocBlob,
    },
    /// One gated edit. `guard` is an optional compare-and-set epoch: the
    /// server applies the op only when the document's current epoch
    /// equals it, refusing with [`WireError::Stale`] otherwise — which is
    /// what makes a blind retry after a dead connection safe (a replayed
    /// edit that already applied comes back `Stale { current: guard+1 }`
    /// instead of applying twice).
    Edit {
        /// Target document.
        doc: DocId,
        /// Expected pre-op epoch, if the client wants CAS semantics.
        guard: Option<u64>,
        /// The operation.
        op: EditOp,
    },
    /// Evaluate a node-set expression against one document.
    Query {
        /// Target document.
        doc: DocId,
        /// expath expression.
        expr: String,
    },
    /// Fan-out query over every document (all-or-nothing; the server
    /// runs it under its request deadline and fails typed on a sick or
    /// slow shard).
    QueryAll {
        /// expath expression.
        expr: String,
    },
    /// Fan-out query that tolerates sick shards: hits from whoever
    /// answered inside `timeout_ms`, typed per-shard errors for the rest.
    QueryPartial {
        /// Per-shard budget in milliseconds (clamped by the server's own
        /// deadline).
        timeout_ms: u64,
        /// expath expression.
        expr: String,
    },
    /// Editor tag suggestions for a span.
    Suggest {
        /// Target document.
        doc: DocId,
        /// Hierarchy name.
        hierarchy: String,
        /// Content range start.
        start: usize,
        /// Content range end (exclusive).
        end: usize,
    },
    /// The document's stand-off export.
    Export {
        /// Target document.
        doc: DocId,
    },
    /// Resolve a cluster-wide name.
    IdByName {
        /// The name.
        name: String,
    },
    /// A document's current edit epoch.
    Epoch {
        /// Target document.
        doc: DocId,
    },
    /// Drop a document (and its name bindings).
    Remove {
        /// Target document.
        doc: DocId,
    },
    /// The server's full `cxobs` exposition page.
    Metrics,
    /// The routing view: shard count plus the override table, so a
    /// stateless router client can compute `shard_of` locally.
    Routes,
    /// Flight-recorder access: recent/slow trace summaries, or one
    /// trace rendered as a tree.
    Trace(TraceQuery),
    /// A follower's fetch (served by `cxrepl::TcpReplServer` only).
    Fetch {
        /// The follower's last applied LSN.
        after: u64,
        /// Record byte budget, clamped to [`crate::MAX_FRAME`].
        max_bytes: u64,
    },
}

/// What a `trace` request asks the flight recorder for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceQuery {
    /// The newest ordinary completed traces (summaries, newest first).
    Recent {
        /// Maximum summaries to return.
        limit: usize,
    },
    /// The retained slow/error traces (summaries, newest first).
    Slow {
        /// Maximum summaries to return.
        limit: usize,
    },
    /// One trace by id, rendered as an indented tree with per-span
    /// self-time.
    Get {
        /// The trace to fetch.
        trace_id: u64,
    },
}

/// One trace summary as it crosses the wire (the `&'static str` root
/// name of [`cxobs::trace::TraceSummary`] becomes owned text here).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSummaryWire {
    /// The id to fetch the full tree with.
    pub trace_id: u64,
    /// The root span's name.
    pub root: String,
    /// Earliest span start, ns since the serving process's trace epoch.
    pub start_ns: u64,
    /// Whole-trace wall time, ns.
    pub duration_ns: u64,
    /// Recorded span count.
    pub spans: usize,
    /// Classified slow by the serving process.
    pub slow: bool,
    /// Holds an error-annotated span.
    pub error: bool,
}

impl From<trace::TraceSummary> for TraceSummaryWire {
    fn from(s: trace::TraceSummary) -> TraceSummaryWire {
        TraceSummaryWire {
            trace_id: s.trace_id,
            root: s.root.to_string(),
            start_ns: s.start_ns,
            duration_ns: s.duration_ns,
            spans: s.spans,
            slow: s.slow,
            error: s.error,
        }
    }
}

/// A primary's answer to one fetch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FetchResponse {
    /// Nothing past the requested LSN — the follower is caught up.
    CaughtUp {
        /// The primary's head LSN (equals the requested LSN).
        head: u64,
    },
    /// Raw WAL record bytes: each record self-framed and CRC'd by the WAL
    /// codec, LSNs contiguous from the requested LSN + 1. A torn tail
    /// (truncated in flight) is detected by the replica's batch scan and
    /// re-requested — see [`cxpersist::scan_batch`].
    Records {
        /// The primary's head LSN at response time (drives lag
        /// accounting).
        head: u64,
        /// The record bytes.
        bytes: Vec<u8>,
    },
    /// The requested LSN predates the primary's oldest retained record:
    /// a full [`cxpersist::StoreSnapshot`] in wire-text form. The follower
    /// installs it and continues fetching from its LSN.
    Snapshot {
        /// The snapshot's LSN (also the primary's head at capture).
        head: u64,
        /// `StoreSnapshot::to_text` bytes.
        bytes: Vec<u8>,
    },
}

/// One decoded server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `Ping` answered.
    Pong,
    /// A document handle (`Insert`, `IdByName`).
    Id(DocId),
    /// An applied edit: the created node (if any) and the post-op epoch.
    Edited {
        /// Node created by `InsertElement`.
        node: Option<NodeId>,
        /// The document's epoch after the edit.
        epoch: u64,
    },
    /// Per-document query hits.
    Nodes(Vec<NodeId>),
    /// Fan-out hits, id-sorted.
    Hits(Vec<(DocId, Vec<NodeId>)>),
    /// Partial fan-out: hits plus typed per-shard failures.
    Partial {
        /// Hits from the shards that answered.
        hits: Vec<(DocId, Vec<NodeId>)>,
        /// `(shard, why)` for every shard that did not.
        errors: Vec<(usize, WireError)>,
    },
    /// Tag suggestions.
    Tags(Vec<String>),
    /// A text artifact (stand-off export, metrics page).
    Text(String),
    /// An epoch.
    Epoch(u64),
    /// Whether `Remove` found a live document.
    Removed(bool),
    /// The routing view.
    Routes {
        /// Number of shards (the residue-class modulus).
        shards: usize,
        /// `(raw id, owning shard)` for every moved document.
        overrides: Vec<(u64, usize)>,
    },
    /// Flight-recorder summaries (`trace recent` / `trace slow`).
    Traces(Vec<TraceSummaryWire>),
    /// A replication fetch answered.
    Fetch(FetchResponse),
    /// A typed failure.
    Err(WireError),
}

// ---------------------------------------------------------------------
// Vocabularies
// ---------------------------------------------------------------------

sacx::vocabulary! {
    /// The verb token a request travels as — also the `verb` label of the
    /// per-verb server metrics and trace spans.
    pub enum Verb("verb") {
        /// [`Request::Ping`].
        Ping = "ping",
        /// [`Request::Insert`] without a name.
        Insert = "insert",
        /// [`Request::Insert`] with a name.
        InsertNamed = "insertn",
        /// [`Request::Edit`].
        Edit = "edit",
        /// [`Request::Query`].
        Query = "query",
        /// [`Request::QueryAll`].
        QueryAll = "qall",
        /// [`Request::QueryPartial`].
        QueryPartial = "qpart",
        /// [`Request::Suggest`].
        Suggest = "suggest",
        /// [`Request::Export`].
        Export = "export",
        /// [`Request::IdByName`].
        IdByName = "name",
        /// [`Request::Epoch`].
        Epoch = "epoch",
        /// [`Request::Remove`].
        Remove = "remove",
        /// [`Request::Metrics`].
        Metrics = "metrics",
        /// [`Request::Routes`].
        Routes = "routes",
        /// [`Request::Trace`].
        Trace = "trace",
        /// [`Request::Fetch`].
        Fetch = "fetch",
    }
}

sacx::vocabulary! {
    /// The sub-query of a `trace` request.
    enum TraceVerb("trace query") { Recent = "recent", Slow = "slow", Get = "get" }
}

sacx::vocabulary! {
    /// First token of every response.
    enum Status("status") { Ok = "ok", Err = "err" }
}

sacx::vocabulary! {
    /// Second token of an `ok` response: which [`Response`] follows.
    enum ResponseKind("response kind") {
        Pong = "pong",
        Id = "id",
        Edited = "edited",
        Nodes = "nodes",
        Hits = "hits",
        Partial = "partial",
        Tags = "tags",
        Text = "text",
        Epoch = "epoch",
        Removed = "removed",
        Routes = "routes",
        Traces = "traces",
        CaughtUp = "caught_up",
        Records = "records",
        Snapshot = "snapshot",
    }
}

/// Introduces the optional trailing trace-context token.
const TRACE_TOKEN: &str = "tc";

/// Split a payload at its first `\n` into the token line, which must be
/// UTF-8, and the optional raw body, which is checked by whoever reads it.
fn split_body<'a>(payload: &'a [u8], what: &str) -> Result<(&'a str, Option<&'a [u8]>), String> {
    let (line, body) = match payload.iter().position(|&b| b == b'\n') {
        Some(at) => (&payload[..at], Some(&payload[at + 1..])),
        None => (payload, None),
    };
    let line = std::str::from_utf8(line).map_err(|_| format!("{what} is not utf-8"))?;
    Ok((line, body))
}

/// A count-prefixed run of parsed tokens (`<k> <t1> … <tk>`). The
/// pre-allocation is capped: the count is untrusted input.
fn counted<T>(
    t: &mut Tokens<'_>,
    mut item: impl FnMut(&mut Tokens<'_>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let k: usize = t.parse("count")?;
    let mut out = Vec::with_capacity(k.min(1 << 12));
    for _ in 0..k {
        out.push(item(t)?);
    }
    Ok(out)
}

fn doc_id(t: &mut Tokens<'_>) -> Result<DocId, String> {
    t.parse("document id").map(DocId::from_raw)
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

impl Request {
    /// Serialize to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_traced(None)
    }

    /// [`Request::encode`] with the caller's trace context riding the
    /// frame as a trailing `tc <trace>-<span>` token pair (before the
    /// body separator, so body-carrying verbs work too). `None` encodes
    /// identically to [`Request::encode`].
    pub fn encode_traced(&self, ctx: Option<trace::TraceContext>) -> Vec<u8> {
        let f = escape_field;
        let mut out = format!("{VERSION} {}", self.verb());
        // Writing into a `String` cannot fail.
        let _ = match self {
            Request::Ping | Request::Metrics | Request::Routes => Ok(()),
            Request::Insert { name: None, .. } => Ok(()),
            Request::Insert { name: Some(n), .. } => write!(out, " {}", f(n)),
            Request::Edit { doc, guard, op } => {
                let _ = match guard {
                    Some(g) => write!(out, " {} {g} ", doc.raw()),
                    None => write!(out, " {} - ", doc.raw()),
                };
                op.write_tokens(&mut out);
                Ok(())
            }
            Request::Query { doc, expr } => write!(out, " {} {}", doc.raw(), f(expr)),
            Request::QueryAll { expr } => write!(out, " {}", f(expr)),
            Request::QueryPartial { timeout_ms, expr } => write!(out, " {timeout_ms} {}", f(expr)),
            Request::Suggest { doc, hierarchy, start, end } => {
                write!(out, " {} {} {start} {end}", doc.raw(), f(hierarchy))
            }
            Request::Export { doc } | Request::Epoch { doc } | Request::Remove { doc } => {
                write!(out, " {}", doc.raw())
            }
            Request::IdByName { name } => write!(out, " {}", f(name)),
            Request::Trace(TraceQuery::Recent { limit }) => {
                write!(out, " {} {limit}", TraceVerb::Recent)
            }
            Request::Trace(TraceQuery::Slow { limit }) => {
                write!(out, " {} {limit}", TraceVerb::Slow)
            }
            Request::Trace(TraceQuery::Get { trace_id }) => {
                write!(out, " {} {trace_id:016x}", TraceVerb::Get)
            }
            Request::Fetch { after, max_bytes } => write!(out, " {after} {max_bytes}"),
        };
        if let Some(ctx) = ctx {
            let _ = write!(out, " {TRACE_TOKEN} {}", ctx.token());
        }
        if let Request::Insert { blob, .. } = self {
            out.push('\n');
            out.push_str(&blob.to_text());
        }
        out.into_bytes()
    }

    /// The verb this request travels as.
    pub fn verb(&self) -> Verb {
        match self {
            Request::Ping => Verb::Ping,
            Request::Insert { name: None, .. } => Verb::Insert,
            Request::Insert { name: Some(_), .. } => Verb::InsertNamed,
            Request::Edit { .. } => Verb::Edit,
            Request::Query { .. } => Verb::Query,
            Request::QueryAll { .. } => Verb::QueryAll,
            Request::QueryPartial { .. } => Verb::QueryPartial,
            Request::Suggest { .. } => Verb::Suggest,
            Request::Export { .. } => Verb::Export,
            Request::IdByName { .. } => Verb::IdByName,
            Request::Epoch { .. } => Verb::Epoch,
            Request::Remove { .. } => Verb::Remove,
            Request::Metrics => Verb::Metrics,
            Request::Routes => Verb::Routes,
            Request::Trace(_) => Verb::Trace,
            Request::Fetch { .. } => Verb::Fetch,
        }
    }

    /// Best-effort extraction of the `tc` token pair from a request
    /// payload — deliberately independent of [`Request::decode`], so a
    /// request that fails validation (or hits the injected-fault path
    /// before decoding) can still adopt its caller's trace. Looks only at
    /// the last two tokens of the line, where [`Request::encode_traced`]
    /// puts the pair: a `tc` anywhere earlier is some verb's argument.
    /// (Not decoding has a price: an *untraced* `setattr <node> tc <value>`
    /// whose value happens to be a well-formed context still reads as one.)
    pub fn trace_context(payload: &[u8]) -> Option<trace::TraceContext> {
        let (line, _) = split_body(payload, "request").ok()?;
        let mut last = line.rsplitn(3, ' ');
        let (ctx, tc) = (last.next()?, last.next()?);
        (tc == TRACE_TOKEN).then(|| trace::TraceContext::parse_token(ctx)).flatten()
    }

    /// Parse a frame payload. Every failure is a typed
    /// [`WireError::BadRequest`] the server answers with — malformed
    /// input never panics a handler.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        Request::decode_text(payload).map_err(WireError::BadRequest)
    }

    fn decode_text(payload: &[u8]) -> Result<Request, String> {
        let (line, body) = split_body(payload, "request")?;
        let mut t = Tokens::new(line);
        let version = t.token("protocol version")?;
        if version != VERSION {
            return Err(format!("unsupported protocol version `{version}`"));
        }
        let blob = || {
            let body = body.ok_or("insert carries no blob")?;
            let text = std::str::from_utf8(body).map_err(|_| "blob is not utf-8")?;
            DocBlob::parse_text(text).map_err(|e| format!("blob: {e}"))
        };
        let req = match Verb::parse(t.token("verb")?)? {
            Verb::Ping => Request::Ping,
            Verb::Insert => Request::Insert { name: None, blob: blob()? },
            Verb::InsertNamed => Request::Insert { name: Some(t.string("name")?), blob: blob()? },
            Verb::Edit => Request::Edit {
                doc: doc_id(&mut t)?,
                guard: t.parse_opt("guard epoch")?,
                op: EditOp::read_tokens(&mut t)?,
            },
            Verb::Query => Request::Query { doc: doc_id(&mut t)?, expr: t.string("expr")? },
            Verb::QueryAll => Request::QueryAll { expr: t.string("expr")? },
            Verb::QueryPartial => {
                Request::QueryPartial { timeout_ms: t.parse("timeout")?, expr: t.string("expr")? }
            }
            Verb::Suggest => Request::Suggest {
                doc: doc_id(&mut t)?,
                hierarchy: t.string("hierarchy")?,
                start: t.parse("start")?,
                end: t.parse("end")?,
            },
            Verb::Export => Request::Export { doc: doc_id(&mut t)? },
            Verb::IdByName => Request::IdByName { name: t.string("name")? },
            Verb::Epoch => Request::Epoch { doc: doc_id(&mut t)? },
            Verb::Remove => Request::Remove { doc: doc_id(&mut t)? },
            Verb::Metrics => Request::Metrics,
            Verb::Routes => Request::Routes,
            Verb::Trace => Request::Trace(match TraceVerb::parse(t.token("trace query")?)? {
                TraceVerb::Recent => TraceQuery::Recent { limit: t.parse("limit")? },
                TraceVerb::Slow => TraceQuery::Slow { limit: t.parse("limit")? },
                TraceVerb::Get => TraceQuery::Get { trace_id: t.hex("trace id")? },
            }),
            Verb::Fetch => {
                Request::Fetch { after: t.parse("after lsn")?, max_bytes: t.parse("max bytes")? }
            }
        };
        // After the verb's arguments: nothing, or the caller's trace context.
        if t.peek() == Some(TRACE_TOKEN) {
            t.next();
            trace::TraceContext::parse_token(t.token("trace context")?)
                .ok_or("malformed trace context")?;
        }
        t.finish()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------
// Errors on the wire
// ---------------------------------------------------------------------

impl WireError {
    fn encode_tokens(&self, out: &mut String) {
        let f = escape_field;
        let _ = write!(out, "{}", self.kind());
        let _ = match self {
            WireError::Store(d)
            | WireError::Injected(d)
            | WireError::BadRequest(d)
            | WireError::Server(d)
            | WireError::Diverged(d)
            | WireError::TooLarge(d) => write!(out, " {}", f(d)),
            WireError::Stale { current } => write!(out, " {current}"),
            WireError::ShardDown(s) => write!(out, " {s}"),
            WireError::Timeout { shard, ms } => write!(out, " {shard} {ms}"),
            WireError::Unavailable { shard, detail } => write!(out, " {shard} {}", f(detail)),
            WireError::WrongShard { owner } => write!(out, " {owner}"),
            WireError::Deadline { ms } => write!(out, " {ms}"),
            WireError::Busy => Ok(()),
        };
    }

    fn decode_tokens(t: &mut Tokens<'_>) -> Result<WireError, String> {
        use WireErrorKind as K;
        Ok(match K::parse(t.token("error kind")?)? {
            K::Store => WireError::Store(t.string("detail")?),
            K::Stale => WireError::Stale { current: t.parse("epoch")? },
            K::ShardDown => WireError::ShardDown(t.parse("shard")?),
            K::Timeout => WireError::Timeout { shard: t.parse("shard")?, ms: t.parse("ms")? },
            K::Unavailable => {
                WireError::Unavailable { shard: t.parse("shard")?, detail: t.string("detail")? }
            }
            K::WrongShard => WireError::WrongShard { owner: t.parse("shard")? },
            K::Deadline => WireError::Deadline { ms: t.parse("ms")? },
            K::Injected => WireError::Injected(t.string("detail")?),
            K::BadRequest => WireError::BadRequest(t.string("detail")?),
            K::Busy => WireError::Busy,
            K::Server => WireError::Server(t.string("detail")?),
            K::Diverged => WireError::Diverged(t.string("detail")?),
            K::TooLarge => WireError::TooLarge(t.string("detail")?),
        })
    }
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

fn encode_nodes(out: &mut String, nodes: &[NodeId]) {
    let _ = write!(out, " {}", nodes.len());
    for n in nodes {
        let _ = write!(out, " {}", n.0);
    }
}

fn decode_nodes(t: &mut Tokens<'_>) -> Result<Vec<NodeId>, String> {
    counted(t, |t| t.parse("node id").map(NodeId))
}

fn encode_hits(out: &mut String, hits: &[(DocId, Vec<NodeId>)]) {
    for (doc, nodes) in hits {
        let _ = write!(out, "{}", doc.raw());
        encode_nodes(out, nodes);
        out.push('\n');
    }
}

/// The next `k` body lines, each parsed whole by `item`.
fn body_lines<'a, T>(
    lines: &mut impl Iterator<Item = &'a str>,
    k: usize,
    what: &str,
    mut item: impl FnMut(&mut Tokens<'a>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let mut out = Vec::with_capacity(k.min(1 << 12));
    for _ in 0..k {
        let mut t = Tokens::new(lines.next().ok_or_else(|| format!("expected {what} line"))?);
        out.push(item(&mut t)?);
        t.finish()?;
    }
    Ok(out)
}

fn decode_hit(t: &mut Tokens<'_>) -> Result<(DocId, Vec<NodeId>), String> {
    Ok((doc_id(t)?, decode_nodes(t)?))
}

impl Response {
    /// Serialize to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        use {FetchResponse as F, ResponseKind as K};
        let ok = Status::Ok;
        let mut out = String::new();
        // Writing into a `String` cannot fail.
        let _ = match self {
            Response::Pong => write!(out, "{ok} {}", K::Pong),
            Response::Id(id) => write!(out, "{ok} {} {}", K::Id, id.raw()),
            Response::Edited { node: Some(n), epoch } => {
                write!(out, "{ok} {} {} {epoch}", K::Edited, n.0)
            }
            Response::Edited { node: None, epoch } => write!(out, "{ok} {} - {epoch}", K::Edited),
            Response::Nodes(nodes) => {
                let _ = write!(out, "{ok} {}", K::Nodes);
                encode_nodes(&mut out, nodes);
                Ok(())
            }
            Response::Hits(hits) => {
                let _ = writeln!(out, "{ok} {} {}", K::Hits, hits.len());
                encode_hits(&mut out, hits);
                Ok(())
            }
            Response::Partial { hits, errors } => {
                let _ = writeln!(out, "{ok} {} {} {}", K::Partial, hits.len(), errors.len());
                encode_hits(&mut out, hits);
                for (shard, err) in errors {
                    let _ = write!(out, "{shard} ");
                    err.encode_tokens(&mut out);
                    out.push('\n');
                }
                Ok(())
            }
            Response::Tags(tags) => {
                let _ = write!(out, "{ok} {} {}", K::Tags, tags.len());
                for t in tags {
                    let _ = write!(out, " {}", escape_field(t));
                }
                Ok(())
            }
            Response::Text(text) => write!(out, "{ok} {}\n{text}", K::Text),
            Response::Epoch(e) => write!(out, "{ok} {} {e}", K::Epoch),
            Response::Removed(r) => write!(out, "{ok} {} {}", K::Removed, u8::from(*r)),
            Response::Routes { shards, overrides } => {
                let _ = writeln!(out, "{ok} {} {shards} {}", K::Routes, overrides.len());
                for (raw, shard) in overrides {
                    let _ = writeln!(out, "{raw} {shard}");
                }
                Ok(())
            }
            Response::Traces(list) => {
                let _ = writeln!(out, "{ok} {} {}", K::Traces, list.len());
                for t in list {
                    let _ = writeln!(
                        out,
                        "{:016x} {} {} {} {} {} {}",
                        t.trace_id,
                        escape_field(&t.root),
                        t.start_ns,
                        t.duration_ns,
                        t.spans,
                        u8::from(t.slow),
                        u8::from(t.error),
                    );
                }
                Ok(())
            }
            Response::Fetch(F::CaughtUp { head }) => write!(out, "{ok} {} {head}", K::CaughtUp),
            Response::Fetch(F::Records { head, .. }) => writeln!(out, "{ok} {} {head}", K::Records),
            Response::Fetch(F::Snapshot { head, .. }) => {
                writeln!(out, "{ok} {} {head}", K::Snapshot)
            }
            Response::Err(e) => {
                let _ = write!(out, "{} ", Status::Err);
                e.encode_tokens(&mut out);
                Ok(())
            }
        };
        let mut out = out.into_bytes();
        if let Response::Fetch(F::Records { bytes, .. } | F::Snapshot { bytes, .. }) = self {
            out.extend_from_slice(bytes);
        }
        out
    }

    /// Parse a frame payload. A malformed response is a protocol error
    /// (the connection is torn down — framing can no longer be trusted),
    /// and so is a leftover token on the status line or a body line past
    /// the ones the status line counts.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        Response::decode_text(payload).map_err(WireError::BadRequest)
    }

    fn decode_text(payload: &[u8]) -> Result<Response, String> {
        use {FetchResponse as F, ResponseKind as K};
        let (line, raw) = split_body(payload, "response")?;
        // Only `records` and `snapshot` take a body that is not UTF-8.
        let text = std::str::from_utf8(raw.unwrap_or_default()).map_err(|_| "body is not utf-8");
        let raw = || raw.unwrap_or_default().to_vec();
        let mut t = Tokens::new(line);
        let flag = |t: &mut Tokens<'_>, what| t.parse::<u8>(what).map(|f| f != 0);
        let mut lines = text.unwrap_or_default().lines();
        let resp = match Status::parse(t.token("status")?)? {
            Status::Err => Response::Err(WireError::decode_tokens(&mut t)?),
            Status::Ok => match K::parse(t.token("response kind")?)? {
                K::Pong => Response::Pong,
                K::Id => Response::Id(doc_id(&mut t)?),
                K::Edited => Response::Edited {
                    node: t.parse_opt("node id")?.map(NodeId),
                    epoch: t.parse("epoch")?,
                },
                K::Nodes => Response::Nodes(decode_nodes(&mut t)?),
                K::Hits => {
                    let k = t.parse("hit count")?;
                    Response::Hits(body_lines(&mut lines, k, "hit", decode_hit)?)
                }
                K::Partial => {
                    let (hk, ek) = (t.parse("hit count")?, t.parse("error count")?);
                    Response::Partial {
                        hits: body_lines(&mut lines, hk, "hit", decode_hit)?,
                        errors: body_lines(&mut lines, ek, "error", |t| {
                            Ok((t.parse("shard")?, WireError::decode_tokens(t)?))
                        })?,
                    }
                }
                K::Tags => Response::Tags(counted(&mut t, |t| t.string("tag"))?),
                K::Text => Response::Text(text?.to_string()),
                K::Epoch => Response::Epoch(t.parse("epoch")?),
                K::Removed => Response::Removed(flag(&mut t, "flag")?),
                K::Routes => {
                    let (shards, k) = (t.parse("shard count")?, t.parse("override count")?);
                    let overrides = body_lines(&mut lines, k, "route", |t| {
                        Ok((t.parse("raw id")?, t.parse("shard")?))
                    })?;
                    Response::Routes { shards, overrides }
                }
                K::Traces => {
                    let k = t.parse("count")?;
                    Response::Traces(body_lines(&mut lines, k, "trace", |t| {
                        Ok(TraceSummaryWire {
                            trace_id: t.hex("trace id")?,
                            root: t.string("root")?,
                            start_ns: t.parse("start")?,
                            duration_ns: t.parse("duration")?,
                            spans: t.parse("spans")?,
                            slow: flag(t, "slow flag")?,
                            error: flag(t, "error flag")?,
                        })
                    })?)
                }
                K::CaughtUp => Response::Fetch(F::CaughtUp { head: t.parse("head")? }),
                K::Records => Response::Fetch(F::Records { head: t.parse("head")?, bytes: raw() }),
                K::Snapshot => {
                    Response::Fetch(F::Snapshot { head: t.parse("head")?, bytes: raw() })
                }
            },
        };
        t.finish()?;
        // `text`, `records` and `snapshot` take their bodies whole; every
        // other body is counted lines.
        let whole = matches!(
            resp,
            Response::Text(_) | Response::Fetch(F::Records { .. } | F::Snapshot { .. })
        );
        match lines.next() {
            _ if whole => Ok(resp),
            Some(extra) => Err(format!("unexpected body line {extra:?}")),
            None => text.map(|_| resp).map_err(Into::into),
        }
    }
}
