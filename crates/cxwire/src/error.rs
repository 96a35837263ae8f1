//! The typed error frame: everything a server can tell a peer about why
//! a request failed, with one stable kind token per case — declared once
//! as a [`sacx::line!`], which is its wire spelling too.

use std::fmt;

sacx::line! {
    /// A typed error frame — everything a server can tell a client about
    /// *why* a request failed, structured enough for the client to react
    /// without parsing prose. Its keyword ([`WireErrorKind`]) is also the
    /// `kind` label of the server's `cx_server_errors_total{kind=...}`
    /// counters.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum WireError: pub WireErrorKind("error kind") {
        /// The store refused the operation (gate rejection, unknown document
        /// or name, …) — the detail is the store error's display form.
        Store(detail: String) = "store",
        /// A compare-and-set edit guard did not match: the document's epoch
        /// is `current`, not what the client expected. A client retrying a
        /// possibly-applied edit reads `current == guard + 1` as "my edit
        /// landed the first time".
        Stale {
            /// The document's current edit epoch.
            current: u64,
        } = "stale",
        /// The owning shard is marked down; nothing was attempted.
        ShardDown(shard: usize) = "shard_down",
        /// A shard missed its fan-out budget.
        Timeout {
            /// Which shard.
            shard: usize,
            /// The budget it missed, in milliseconds.
            ms: u64,
        } = "timeout",
        /// A shard failed a fan-out for a non-store reason (injected outage,
        /// worker failure).
        Unavailable {
            /// Which shard.
            shard: usize,
            /// What happened.
            detail: String,
        } = "unavailable",
        /// A shard-scoped server was asked about a document another shard
        /// owns — the router client refreshes its routing view and retries
        /// against `owner`.
        WrongShard {
            /// The shard that owns the document now.
            owner: usize,
        } = "wrong_shard",
        /// The server's per-request deadline elapsed before the operation
        /// completed (the work may or may not have been done — deadline
        /// semantics, not rollback semantics).
        Deadline {
            /// The deadline that was missed, in milliseconds.
            ms: u64,
        } = "deadline",
        /// A `serve.request` failpoint fired. Protocol contract: the fault
        /// fires *before* the request is decoded or executed, so an
        /// `injected` refusal — like `busy` — guarantees nothing happened
        /// and is always safe to retry, writes included.
        Injected(detail: String) = "injected",
        /// The request frame did not parse (bad version, unknown verb,
        /// malformed tokens, corrupt blob).
        BadRequest(detail: String) = "bad_request",
        /// The server's connection backlog is full; try again later or
        /// against another host.
        Busy = "busy",
        /// Something server-side that is none of the above (including a
        /// caught handler panic).
        Server(detail: String) = "server",
        /// A `fetch` claims an LSN past the primary's head: split history.
        Diverged(detail: String) = "diverged",
        /// The answer cannot fit one frame ([`crate::MAX_FRAME`]).
        TooLarge(detail: String) = "too_large",
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Store(d) => write!(f, "store error: {d}"),
            WireError::Stale { current } => {
                write!(f, "stale edit guard: document is at epoch {current}")
            }
            WireError::ShardDown(s) => write!(f, "shard {s} is marked down"),
            WireError::Timeout { shard, ms } => {
                write!(f, "shard {shard} did not answer within {ms} ms")
            }
            WireError::Unavailable { shard, detail } => {
                write!(f, "shard {shard} unavailable: {detail}")
            }
            WireError::WrongShard { owner } => {
                write!(f, "document is owned by shard {owner}")
            }
            WireError::Deadline { ms } => write!(f, "request exceeded the {ms} ms deadline"),
            WireError::Injected(d) => write!(f, "injected fault: {d}"),
            WireError::BadRequest(d) => write!(f, "bad request: {d}"),
            WireError::Busy => write!(f, "server busy: connection backlog full"),
            WireError::Server(d) => write!(f, "server error: {d}"),
            WireError::Diverged(d) => write!(f, "diverged: {d}"),
            WireError::TooLarge(d) => write!(f, "too large: {d}"),
        }
    }
}

impl std::error::Error for WireError {}
