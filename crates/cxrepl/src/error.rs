//! Replication-layer errors.

use std::fmt;

/// Shorthand result type.
pub type Result<T> = std::result::Result<T, ReplError>;

/// Anything that can go wrong while shipping, applying or serving the log.
#[derive(Debug)]
pub enum ReplError {
    /// A transport or listener I/O operation failed (the follower retries;
    /// the primary may simply be gone).
    Io(std::io::Error),
    /// The persistence layer refused an operation (WAL read, snapshot
    /// capture, promotion).
    Persist(cxpersist::PersistError),
    /// The replica's store refused an operation that recovery semantics
    /// say must succeed.
    Store(cxstore::StoreError),
    /// The shipped stream skipped records: the next record's LSN is not
    /// the successor of the last applied one. The follower must re-request
    /// (or re-bootstrap) rather than apply out of order.
    Gap {
        /// The LSN the replica expected next.
        expected: u64,
        /// The LSN the stream delivered.
        got: u64,
    },
    /// The replica's state disagrees with what the shipped record asserts
    /// (epoch mismatch, edit against a document the stream never created).
    /// Refusing to serve from a diverged replica.
    Diverged {
        /// What disagreed.
        detail: String,
    },
    /// A required payload cannot fit the transport's frame cap
    /// ([`cxwire::MAX_FRAME`]) — a capacity condition no retry of the same
    /// fetch can heal, so background followers park on it instead of
    /// re-requesting (and re-capturing) the oversized artifact forever.
    FrameTooLarge {
        /// What was too big.
        detail: String,
    },
    /// A malformed frame, request or artifact on the wire.
    Protocol(String),
    /// The remote peer reported an error serving the request.
    Remote(String),
}

impl fmt::Display for ReplError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplError::Io(e) => write!(f, "replication i/o error: {e}"),
            ReplError::Persist(e) => write!(f, "replication persistence error: {e}"),
            ReplError::Store(e) => write!(f, "replica store error: {e}"),
            ReplError::Gap { expected, got } => {
                write!(f, "shipped stream gap: expected LSN {expected}, got {got}")
            }
            ReplError::Diverged { detail } => write!(f, "replica diverged: {detail}"),
            ReplError::FrameTooLarge { detail } => write!(f, "frame too large: {detail}"),
            ReplError::Protocol(detail) => write!(f, "protocol error: {detail}"),
            ReplError::Remote(detail) => write!(f, "remote error: {detail}"),
        }
    }
}

impl std::error::Error for ReplError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplError::Io(e) => Some(e),
            ReplError::Persist(e) => Some(e),
            ReplError::Store(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ReplError {
    fn from(e: std::io::Error) -> ReplError {
        ReplError::Io(e)
    }
}

impl From<cxpersist::PersistError> for ReplError {
    fn from(e: cxpersist::PersistError) -> ReplError {
        ReplError::Persist(e)
    }
}

impl From<cxstore::StoreError> for ReplError {
    fn from(e: cxstore::StoreError) -> ReplError {
        ReplError::Store(e)
    }
}
