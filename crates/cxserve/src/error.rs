//! Service-tier errors: what crosses the wire (typed), and what the
//! client adds around it (transport, protocol, retry-resolution).

use std::fmt;

/// Shorthand result type.
pub type Result<T> = std::result::Result<T, ServeError>;

/// A typed error frame — everything a server can tell a client about
/// *why* a request failed, structured enough for the client to react
/// without parsing prose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The store refused the operation (gate rejection, unknown document
    /// or name, …) — the detail is the store error's display form.
    Store(String),
    /// A compare-and-set edit guard did not match: the document's epoch
    /// is `current`, not what the client expected. A client retrying a
    /// possibly-applied edit reads `current == guard + 1` as "my edit
    /// landed the first time".
    Stale {
        /// The document's current edit epoch.
        current: u64,
    },
    /// The owning shard is marked down; nothing was attempted.
    ShardDown(usize),
    /// A shard missed its fan-out budget.
    Timeout {
        /// Which shard.
        shard: usize,
        /// The budget it missed, in milliseconds.
        ms: u64,
    },
    /// A shard failed a fan-out for a non-store reason (injected outage,
    /// worker failure).
    Unavailable {
        /// Which shard.
        shard: usize,
        /// What happened.
        detail: String,
    },
    /// A shard-scoped server was asked about a document another shard
    /// owns — the router client refreshes its routing view and retries
    /// against `owner`.
    WrongShard {
        /// The shard that owns the document now.
        owner: usize,
    },
    /// The server's per-request deadline elapsed before the operation
    /// completed (the work may or may not have been done — deadline
    /// semantics, not rollback semantics).
    Deadline {
        /// The deadline that was missed, in milliseconds.
        ms: u64,
    },
    /// A `serve.request` failpoint fired. Protocol contract: the fault
    /// fires *before* the request is decoded or executed, so an
    /// `injected` refusal — like `busy` — guarantees nothing happened
    /// and is always safe to retry, writes included.
    Injected(String),
    /// The request frame did not parse (bad version, unknown verb,
    /// malformed tokens, corrupt blob).
    BadRequest(String),
    /// The server's connection backlog is full; try again later or
    /// against another host.
    Busy,
    /// Something server-side that is none of the above (including a
    /// caught handler panic).
    Server(String),
}

sacx::vocabulary! {
    /// The stable machine-readable tag of a [`WireError`] — the token its
    /// wire encoding leads with, and the `kind` label of the server's
    /// `cx_server_errors_total{kind=...}` counters.
    pub enum WireErrorKind("error kind") {
        /// [`WireError::Store`].
        Store = "store",
        /// [`WireError::Stale`].
        Stale = "stale",
        /// [`WireError::ShardDown`].
        ShardDown = "shard_down",
        /// [`WireError::Timeout`].
        Timeout = "timeout",
        /// [`WireError::Unavailable`].
        Unavailable = "unavailable",
        /// [`WireError::WrongShard`].
        WrongShard = "wrong_shard",
        /// [`WireError::Deadline`].
        Deadline = "deadline",
        /// [`WireError::Injected`].
        Injected = "injected",
        /// [`WireError::BadRequest`].
        BadRequest = "bad_request",
        /// [`WireError::Busy`].
        Busy = "busy",
        /// [`WireError::Server`].
        Server = "server",
    }
}

impl WireError {
    /// Which kind of error this is.
    pub fn kind(&self) -> WireErrorKind {
        match self {
            WireError::Store(_) => WireErrorKind::Store,
            WireError::Stale { .. } => WireErrorKind::Stale,
            WireError::ShardDown(_) => WireErrorKind::ShardDown,
            WireError::Timeout { .. } => WireErrorKind::Timeout,
            WireError::Unavailable { .. } => WireErrorKind::Unavailable,
            WireError::WrongShard { .. } => WireErrorKind::WrongShard,
            WireError::Deadline { .. } => WireErrorKind::Deadline,
            WireError::Injected(_) => WireErrorKind::Injected,
            WireError::BadRequest(_) => WireErrorKind::BadRequest,
            WireError::Busy => WireErrorKind::Busy,
            WireError::Server(_) => WireErrorKind::Server,
        }
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
        }
    }
}

impl std::error::Error for WireError {}

/// Anything the client side can fail with: a typed remote error, a
/// transport failure, a framing/protocol violation, or an ambiguity the
/// retry machinery refuses to paper over.
#[derive(Debug)]
pub enum ServeError {
    /// The server answered with a typed error frame.
    Remote(WireError),
    /// The connection failed (dial, send, receive). The request may or
    /// may not have reached the server — only idempotent requests are
    /// retried blindly; edits go through the CAS guard.
    Io(std::io::Error),
    /// The peer broke the wire protocol (unparseable frame); the
    /// connection is abandoned.
    Protocol(String),
    /// Batch recovery found a document whose epoch moved in a way the
    /// guard chain cannot explain — another writer touched it, so the
    /// client cannot tell whether its own edit applied. Surfaced rather
    /// than guessed at.
    Conflict {
        /// The contested document.
        doc: cxstore::DocId,
        /// What the guard chain expected vs. observed.
        detail: String,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Remote(e) => write!(f, "{e}"),
            ServeError::Io(e) => write!(f, "transport error: {e}"),
            ServeError::Protocol(d) => write!(f, "protocol violation: {d}"),
            ServeError::Conflict { doc, detail } => {
                write!(f, "edit conflict on {doc:?}: {detail}")
            }
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Remote(e) => Some(e),
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> ServeError {
        ServeError::Remote(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

impl ServeError {
    /// The typed remote error, if that is what this is.
    pub fn wire(&self) -> Option<&WireError> {
        match self {
            ServeError::Remote(e) => Some(e),
            _ => None,
        }
    }

    /// True for transport failures where the request's fate is unknown.
    pub fn is_transport(&self) -> bool {
        matches!(self, ServeError::Io(_))
    }
}
