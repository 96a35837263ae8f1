//! xTagger error types.

use std::fmt;

/// Errors from editing sessions.
#[derive(Debug)]
pub enum XTaggerError {
    /// The prevalidation gate refused the insertion.
    PrevalidationRejected {
        /// The tag that was refused.
        tag: String,
        /// Why.
        reason: String,
    },
    /// Structural error from the GODDAG layer.
    Goddag(goddag::GoddagError),
    /// Import/export error.
    Sacx(sacx::SacxError),
    /// Query error (Extended XPath).
    Query(String),
    /// Undo stack empty.
    NothingToUndo,
    /// Redo stack empty.
    NothingToRedo,
}

impl fmt::Display for XTaggerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XTaggerError::PrevalidationRejected { tag, reason } => {
                write!(f, "prevalidation refused <{tag}>: {reason}")
            }
            XTaggerError::Goddag(e) => write!(f, "{e}"),
            XTaggerError::Sacx(e) => write!(f, "{e}"),
            XTaggerError::Query(e) => write!(f, "query error: {e}"),
            XTaggerError::NothingToUndo => write!(f, "nothing to undo"),
            XTaggerError::NothingToRedo => write!(f, "nothing to redo"),
        }
    }
}

impl std::error::Error for XTaggerError {}

impl From<goddag::GoddagError> for XTaggerError {
    fn from(e: goddag::GoddagError) -> XTaggerError {
        XTaggerError::Goddag(e)
    }
}

impl From<sacx::SacxError> for XTaggerError {
    fn from(e: sacx::SacxError) -> XTaggerError {
        XTaggerError::Sacx(e)
    }
}

impl From<sacx::EditError> for XTaggerError {
    fn from(e: sacx::EditError) -> XTaggerError {
        match e {
            sacx::EditError::UnknownHierarchy(_) => XTaggerError::Query(e.to_string()),
            sacx::EditError::BadName(why) => XTaggerError::Goddag(goddag::GoddagError::Edit(why)),
            sacx::EditError::Goddag(e) => XTaggerError::Goddag(e),
        }
    }
}

/// Result alias for xTagger operations.
pub type Result<T> = std::result::Result<T, XTaggerError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let e = XTaggerError::PrevalidationRejected { tag: "w".into(), reason: "dead end".into() };
        assert!(e.to_string().contains("<w>"));
        assert!(XTaggerError::NothingToUndo.to_string().contains("undo"));
    }
}
