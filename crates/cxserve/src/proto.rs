//! The versioned wire protocol: store operations as text payloads inside
//! length-prefixed [`cxwire`] frames.
//!
//! One request per frame, one response per frame, answered in order per
//! connection (which is what makes client-side pipelining work: write
//! *k* requests, read *k* responses). The payload is a line of
//! space-separated tokens read with the workspace's one token cursor
//! ([`sacx::Tokens`]: strings percent-escaped, empty spelled `%`) —
//! optionally followed by a newline and a raw text body (document blobs,
//! stand-off exports, metrics pages), so bulky artifacts ride unescaped:
//!
//! ```text
//! request  := "cxq1 " verb tokens… [" tc " trace "-" span] ["\n" body]
//! response := ("ok " kind tokens… ["\n" body]) | ("err " kind tokens…)
//! ```
//!
//! The leading `cxq1` is the protocol version: a server refuses anything
//! else with a typed `bad_request`, so a v2 client talking to a v1 server
//! fails loudly at the first exchange instead of misparsing. Every keyword
//! set — [`Verb`], [`WireErrorKind`], the response kinds, the `trace`
//! sub-queries — is declared once with [`sacx::vocabulary!`] and matched
//! as an enum, so a variant without an encoder or decoder arm does not
//! compile. An `edit` request carries its operation as
//! [`EditOp::write_tokens`] writes it: the spelling of the WAL record the
//! edit becomes.
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
    }
}

/// Introduces the optional trailing trace-context token.
const TRACE_TOKEN: &str = "tc";

/// Split a payload into its token line and optional raw body.
fn split_body(payload: &str) -> (&str, Option<&str>) {
    match payload.split_once('\n') {
        Some((line, body)) => (line, Some(body)),
        None => (payload, None),
    }
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
        let text = std::str::from_utf8(payload).ok()?;
        let mut last = split_body(text).0.rsplitn(3, ' ');
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
        let text = std::str::from_utf8(payload).map_err(|_| "request is not utf-8")?;
        let (line, body) = split_body(text);
        let mut t = Tokens::new(line);
        let version = t.token("protocol version")?;
        if version != VERSION {
            return Err(format!("unsupported protocol version `{version}`"));
        }
        let blob = || {
            DocBlob::parse_text(body.ok_or("insert carries no blob")?)
                .map_err(|e| format!("blob: {e}"))
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
            | WireError::Server(d) => write!(out, " {}", f(d)),
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
        use ResponseKind as K;
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
            Response::Err(e) => {
                let _ = write!(out, "{} ", Status::Err);
                e.encode_tokens(&mut out);
                Ok(())
            }
        };
        out.into_bytes()
    }

    /// Parse a frame payload. A malformed response is a protocol error
    /// (the connection is torn down — framing can no longer be trusted),
    /// and so is a leftover token on the status line or a body line past
    /// the ones the status line counts.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        Response::decode_text(payload).map_err(WireError::BadRequest)
    }

    fn decode_text(payload: &[u8]) -> Result<Response, String> {
        use ResponseKind as K;
        let text = std::str::from_utf8(payload).map_err(|_| "response is not utf-8")?;
        let (line, body) = split_body(text);
        let mut t = Tokens::new(line);
        let flag = |t: &mut Tokens<'_>, what| t.parse::<u8>(what).map(|f| f != 0);
        let mut lines = body.unwrap_or("").lines();
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
                K::Text => Response::Text(body.unwrap_or("").to_string()),
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
            },
        };
        t.finish()?;
        // Only `text` takes its body raw; every other body is counted.
        match lines.next() {
            Some(extra) if !matches!(resp, Response::Text(_)) => {
                Err(format!("unexpected body line {extra:?}"))
            }
            _ => Ok(resp),
        }
    }
}
