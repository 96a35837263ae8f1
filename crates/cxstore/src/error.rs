//! Store-level errors.

use crate::store::DocId;
use std::fmt;

/// Shorthand result type.
pub type Result<T> = std::result::Result<T, StoreError>;

/// Anything that can go wrong against the store.
#[derive(Debug)]
pub enum StoreError {
    /// The handle does not name a live document (never existed, or removed).
    NoSuchDoc(DocId),
    /// `insert_with_id` targeted a handle that is already live.
    IdInUse(DocId),
    /// A name lookup failed.
    NoSuchName(String),
    /// An edit referenced a hierarchy the document does not have.
    UnknownHierarchy(String),
    /// The prevalidation gate rejected an edit, or it carries a name that
    /// is not an XML name.
    EditRejected(String),
    /// A document-level operation failed.
    Goddag(goddag::GoddagError),
    /// Query parse or evaluation failed.
    Query(expath::XPathError),
    /// The query result was not a node-set.
    NotANodeSet(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NoSuchDoc(id) => write!(f, "no document {id}"),
            StoreError::IdInUse(id) => write!(f, "document id {id} is already in use"),
            StoreError::NoSuchName(n) => write!(f, "no document named {n:?}"),
            StoreError::UnknownHierarchy(h) => write!(f, "unknown hierarchy {h:?}"),
            StoreError::EditRejected(why) => write!(f, "edit rejected: {why}"),
            StoreError::Goddag(e) => write!(f, "document error: {e}"),
            StoreError::Query(e) => write!(f, "query error: {e}"),
            StoreError::NotANodeSet(v) => {
                write!(f, "query returned {v}, expected a node-set")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Goddag(e) => Some(e),
            StoreError::Query(e) => Some(e),
            _ => None,
        }
    }
}

impl From<goddag::GoddagError> for StoreError {
    fn from(e: goddag::GoddagError) -> StoreError {
        StoreError::Goddag(e)
    }
}

impl From<sacx::EditError> for StoreError {
    fn from(e: sacx::EditError) -> StoreError {
        match e {
            sacx::EditError::UnknownHierarchy(h) => StoreError::UnknownHierarchy(h),
            sacx::EditError::BadName(why) => StoreError::EditRejected(why),
            sacx::EditError::Goddag(e) => StoreError::Goddag(e),
        }
    }
}

impl From<expath::XPathError> for StoreError {
    fn from(e: expath::XPathError) -> StoreError {
        StoreError::Query(e)
    }
}
