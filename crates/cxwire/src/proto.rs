//! The versioned wire protocol: store operations and replication fetches
//! as payloads inside this crate's length-prefixed frames, one request and
//! one response per frame, answered in order per connection (which is what
//! makes client-side pipelining work).
//!
//! ```text
//! request  := "cxq1 " verb tokens… [" tc " trace "-" span] ["\n" body]
//! response := ("ok " kind tokens… ["\n" body]) | ("err " kind tokens…)
//! ```
//!
//! Both are declared once, as [`Request`] and [`Response`] ([`sacx::line!`]
//! declarations, with [`TraceQuery`], [`FetchResponse`] and
//! [`WireError`]): the declaration is the encoder and the decoder, keyword
//! sets included ([`Verb`] is also the per-verb metrics label), and a
//! leftover token or body byte is a `bad_request`. Bulky artifacts ride
//! unescaped in the body after the first `\n`, which is split off before
//! any UTF-8 check, so a `fetch`'s `records` reach
//! [`cxpersist::scan_batch`] byte for byte. An `edit` request carries the
//! one edit spelling (`sacx::EditOp`): the WAL record the edit becomes, and
//! a line of an xTagger script.
//!
//! The leading `cxq1` is the protocol version: a server refuses anything
//! else with a typed `bad_request`, so a v2 client fails loudly at the
//! first exchange. Error frames are typed, so a client reacts structurally
//! (refreshes its routing table, treats a CAS replay as already-applied).
//!
//! **Trace propagation.** A request line may end with one
//! `tc <trace_id>-<span_id>` pair ([`Request::encode_traced`]): the
//! client's [`cxobs::trace::TraceContext`], so the server's handler span
//! joins the caller's trace. Untraced frames carry no pair at all.

use crate::error::WireError;
use cxobs::trace;
use cxpersist::DocBlob;
use cxstore::{DocId, EditOp};
use goddag::NodeId;
use sacx::token::Aliased;
use sacx::{Body, Field, Hex, Lines, Writer};

/// Version sentinel opening every request line.
pub const VERSION: &str = "cxq1";

sacx::line! {
    /// One decoded client request.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Request: pub Verb("verb") {
        /// Liveness probe.
        Ping = "ping",
        /// Add a document (the blob rides as the body), optionally named:
        /// `insert` without a name, `insertn <name>` with one.
        Insert {
            /// Cluster-wide name to bind, if any.
            name: Option<String> as Aliased<String>,
            /// The serialized document.
            blob: DocBlob as Body,
        } = "insert" | InsertNamed = "insertn",
        /// One gated edit. `guard` is an optional compare-and-set epoch: the
        /// server applies the op only when the document's current epoch
        /// equals it, refusing with [`WireError::Stale`] otherwise — which
        /// is what makes a blind retry after a dead connection safe (a
        /// replayed edit that already applied comes back
        /// `Stale { current: guard+1 }` instead of applying twice).
        Edit {
            /// Target document.
            doc: DocId,
            /// Expected pre-op epoch, if the client wants CAS semantics.
            guard: Option<u64>,
            /// The operation.
            op: EditOp,
        } = "edit",
        /// Evaluate a node-set expression against one document.
        Query {
            /// Target document.
            doc: DocId,
            /// expath expression.
            expr: String,
        } = "query",
        /// Fan-out query over every document (all-or-nothing; the server
        /// runs it under its request deadline and fails typed on a sick or
        /// slow shard).
        QueryAll {
            /// expath expression.
            expr: String,
        } = "qall",
        /// Fan-out query that tolerates sick shards: hits from whoever
        /// answered inside `timeout_ms`, typed per-shard errors for the rest.
        QueryPartial {
            /// Per-shard budget in milliseconds (clamped by the server's own
            /// deadline).
            timeout_ms: u64,
            /// expath expression.
            expr: String,
        } = "qpart",
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
        } = "suggest",
        /// The document's stand-off export.
        Export {
            /// Target document.
            doc: DocId,
        } = "export",
        /// Resolve a cluster-wide name.
        IdByName {
            /// The name.
            name: String,
        } = "name",
        /// A document's current edit epoch.
        Epoch {
            /// Target document.
            doc: DocId,
        } = "epoch",
        /// Drop a document (and its name bindings).
        Remove {
            /// Target document.
            doc: DocId,
        } = "remove",
        /// The server's full `cxobs` exposition page.
        Metrics = "metrics",
        /// The routing view: shard count plus the override table, so a
        /// stateless router client can compute `shard_of` locally.
        Routes = "routes",
        /// Flight-recorder access: recent/slow trace summaries, or one
        /// trace rendered as a tree.
        Trace(query: TraceQuery) = "trace",
        /// A follower's fetch (served by `cxrepl::TcpReplServer` only).
        Fetch {
            /// The follower's last applied LSN.
            after: u64,
            /// Record byte budget, clamped to [`crate::MAX_FRAME`].
            max_bytes: u64,
        } = "fetch",
    }
}

sacx::line! {
    /// What a `trace` request asks the flight recorder for.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TraceQuery: TraceVerb("trace query") {
        /// The newest ordinary completed traces (summaries, newest first).
        Recent {
            /// Maximum summaries to return.
            limit: usize,
        } = "recent",
        /// The retained slow/error traces (summaries, newest first).
        Slow {
            /// Maximum summaries to return.
            limit: usize,
        } = "slow",
        /// One trace by id, rendered as an indented tree with per-span
        /// self-time.
        Get {
            /// The trace to fetch.
            trace_id: u64 as Hex<16>,
        } = "get",
    }
}

sacx::line! {
    /// One trace summary as it crosses the wire (the `&'static str` root
    /// name of [`cxobs::trace::TraceSummary`] becomes owned text here): one
    /// body line of a `traces` response.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TraceSummaryWire {
        /// The id to fetch the full tree with.
        pub trace_id: u64 as Hex<16>,
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

sacx::line! {
    /// A primary's answer to one fetch.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum FetchResponse: FetchKind("response kind") {
        /// Nothing past the requested LSN — the follower is caught up.
        CaughtUp {
            /// The primary's head LSN (equals the requested LSN).
            head: u64,
        } = "ok caught_up",
        /// Raw WAL record bytes: each record self-framed and CRC'd by the
        /// WAL codec, LSNs contiguous from the requested LSN + 1. A torn
        /// tail (truncated in flight) is detected by the replica's batch
        /// scan and re-requested — see [`cxpersist::scan_batch`].
        Records {
            /// The primary's head LSN at response time (drives lag
            /// accounting).
            head: u64,
            /// The record bytes.
            bytes: Vec<u8> as Body,
        } = "ok records",
        /// The requested LSN predates the primary's oldest retained record:
        /// a full [`cxpersist::StoreSnapshot`] in wire-text form. The
        /// follower installs it and continues fetching from its LSN.
        Snapshot {
            /// The snapshot's LSN (also the primary's head at capture).
            head: u64,
            /// `StoreSnapshot::to_text` bytes.
            bytes: Vec<u8> as Body,
        } = "ok snapshot",
    }
}

/// Per-document hits: one body line, `<doc> <k> <node 1> … <node k>`.
type Hit = (DocId, Vec<NodeId>);

sacx::line! {
    /// One decoded server response: `ok <kind> …` or `err <error kind> …`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Response: ResponseKind("response kind") {
        /// `Ping` answered.
        Pong = "ok pong",
        /// A document handle (`Insert`, `IdByName`).
        Id(doc: DocId) = "ok id",
        /// An applied edit: the created node (if any) and the post-op epoch.
        Edited {
            /// Node created by `InsertElement`.
            node: Option<NodeId>,
            /// The document's epoch after the edit.
            epoch: u64,
        } = "ok edited",
        /// Per-document query hits.
        Nodes(nodes: Vec<NodeId>) = "ok nodes",
        /// Fan-out hits, id-sorted.
        Hits(hits: Vec<Hit> as Lines<Hit>) = "ok hits",
        /// Partial fan-out: hits plus typed per-shard failures.
        Partial {
            /// Hits from the shards that answered.
            hits: Vec<Hit> as Lines<Hit>,
            /// `(shard, why)` for every shard that did not.
            errors: Vec<(usize, WireError)> as Lines<(usize, WireError)>,
        } = "ok partial",
        /// Tag suggestions.
        Tags(tags: Vec<String>) = "ok tags",
        /// A text artifact (stand-off export, metrics page).
        Text(text: String as Body) = "ok text",
        /// An epoch.
        Epoch(epoch: u64) = "ok epoch",
        /// Whether `Remove` found a live document.
        Removed(removed: bool) = "ok removed",
        /// The routing view.
        Routes {
            /// Number of shards (the residue-class modulus).
            shards: usize,
            /// `(raw id, owning shard)` for every moved document.
            overrides: Vec<(u64, usize)> as Lines<(u64, usize)>,
        } = "ok routes",
        /// Flight-recorder summaries (`trace recent` / `trace slow`).
        Traces(traces: Vec<TraceSummaryWire> as Lines<TraceSummaryWire>) = "ok traces",
        /// A typed failure.
        Err(error: WireError) = "err",
    } else
    /// A replication fetch answered.
    Fetch(fetch: FetchResponse)
}

/// Introduces the optional trailing trace-context token.
const TRACE_TOKEN: &str = "tc";

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
        let mut w = Writer::default();
        w.word(VERSION);
        Request::write(self, &mut w);
        if let Some(ctx) = ctx {
            w.word(TRACE_TOKEN);
            w.word(&ctx.token());
        }
        w.into_bytes()
    }

    /// The verb this request travels as.
    pub fn verb(&self) -> Verb {
        self.kind()
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
        let line = payload.split(|&b| b == b'\n').next()?;
        let mut last = std::str::from_utf8(line).ok()?.rsplitn(3, ' ');
        let (ctx, tc) = (last.next()?, last.next()?);
        (tc == TRACE_TOKEN).then(|| trace::TraceContext::parse_token(ctx)).flatten()
    }

    /// Parse a frame payload. Every failure is a typed
    /// [`WireError::BadRequest`] the server answers with — malformed
    /// input never panics a handler.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        sacx::token::decode_payload(payload, |t| {
            let version = t.token("protocol version")?;
            if version != VERSION {
                return Err(format!("unsupported protocol version `{version}`"));
            }
            let request = Request::read(t, "request")?;
            // After the verb's arguments: nothing, or the caller's trace context.
            if t.peek() == Some(TRACE_TOKEN) {
                t.token(TRACE_TOKEN)?;
                trace::TraceContext::parse_token(t.token("trace context")?)
                    .ok_or("malformed trace context")?;
            }
            Ok(request)
        })
        .map_err(WireError::BadRequest)
    }
}

impl Response {
    /// Serialize to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        sacx::Line::encode(self)
    }

    /// Parse a frame payload. A malformed response is a protocol error
    /// (the connection is torn down — framing can no longer be trusted),
    /// and so is a leftover token on the status line or a body byte past
    /// the ones the status line counts.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        sacx::Line::decode(payload).map_err(WireError::BadRequest)
    }
}
