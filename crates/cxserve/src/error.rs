//! Client-side errors: the typed remote error ([`WireError`], which
//! lives with the codec in [`cxwire`]) and what the client adds around it
//! (transport, protocol, retry-resolution).

use cxwire::WireError;
use std::fmt;

/// Shorthand result type.
pub type Result<T> = std::result::Result<T, ServeError>;

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
    /// True for transport failures where the request's fate is unknown.
    pub fn is_transport(&self) -> bool {
        matches!(self, ServeError::Io(_))
    }
}
