//! The one edit vocabulary: [`EditOp`], what every layer that changes a
//! document speaks — xTagger sessions, the store, its write-ahead log,
//! replication batches and `cxq1` frames — with its one text spelling and
//! its one resolve + apply body.

use crate::token::Attrs;
use goddag::{Goddag, GoddagError, HierarchyId, NodeId};
use std::fmt;
use xmlcore::{Attribute, QName};

crate::line! {
    /// One edit against a document. Hierarchies are addressed by name so
    /// operations are meaningful without holding a handle to the document's
    /// internals; nodes use the stable [`NodeId`]s returned by earlier
    /// queries and edits (GODDAG ids are never reused). The declaration is
    /// also the one text spelling of an edit, which WAL records, shipped
    /// replication batches, `cxq1` frames and xTagger scripts share (the
    /// bytes are on disk, so they do not move): `insel ling w 0 3 n=1`.
    #[derive(Debug, Clone, PartialEq)]
    pub enum EditOp: pub OpKind("edit op") {
        /// Wrap content bytes `start..end` of hierarchy `hierarchy` in a new
        /// `tag` element. Where the hierarchy carries a DTD, the store and
        /// the xTagger session first check the insertion through the one
        /// prevalidation gate, `prevalid::DocEngines::check`; a rejection
        /// leaves the document untouched and surfaces the reason.
        InsertElement {
            /// Hierarchy name (`"phys"`, `"ling"`, …).
            hierarchy: String,
            /// Element local name.
            tag: String,
            /// Content byte range start.
            start: usize,
            /// Content byte range end (exclusive).
            end: usize,
            /// `(name, value)` attributes.
            attrs: Vec<(String, String)> as Attrs,
        } = "insel",
        /// Splice an element out of its hierarchy (content is kept).
        RemoveElement(node: NodeId) = "rmel",
        /// Insert text at a byte offset; all hierarchies see it at once.
        InsertText {
            /// Byte offset.
            offset: usize,
            /// The text.
            text: String,
        } = "instext",
        /// Delete the content byte range `start..end` under all hierarchies.
        DeleteText {
            /// Range start.
            start: usize,
            /// Range end (exclusive).
            end: usize,
        } = "deltext",
        /// Set (or replace) an attribute on an element or the root.
        SetAttr {
            /// Target node.
            node: NodeId,
            /// Attribute name.
            name: String,
            /// Attribute value.
            value: String,
        } = "setattr",
        /// Remove an attribute if present.
        RemoveAttr {
            /// Target node.
            node: NodeId,
            /// Attribute name.
            name: String,
        } = "rmattr",
    }
}

impl EditOp {
    /// Check the op against `g` without touching it: look the hierarchy up
    /// by name and parse the tag and every attribute name. What this
    /// refuses never reaches a log; what it accepts can only fail on the
    /// document's structure (crossing markup, an offset off a character
    /// boundary, a dead node).
    pub fn resolve(self, g: &Goddag) -> Result<Resolved, EditError> {
        let name = |s: &str, what: &str| {
            QName::parse(s).map_err(|_| EditError::BadName(format!("invalid {what} {s:?}")))
        };
        let element = match &self {
            EditOp::InsertElement { hierarchy, tag, attrs, .. } => {
                let h = g
                    .hierarchy_by_name(hierarchy)
                    .ok_or_else(|| EditError::UnknownHierarchy(hierarchy.clone()))?;
                let tag = name(tag, "tag")?;
                // Sized exactly (collecting `Result`s would not be): the
                // list lives on in the document.
                let mut parsed = Vec::with_capacity(attrs.len());
                for (n, value) in attrs {
                    let qname = name(n, "attribute name")?;
                    parsed.push(Attribute { name: qname, value: value.clone() });
                }
                Some((h, tag, parsed))
            }
            EditOp::SetAttr { name: n, .. } | EditOp::RemoveAttr { name: n, .. } => {
                name(n, "attribute name")?;
                None
            }
            _ => None,
        };
        Ok(Resolved { op: self, element })
    }

    /// [`EditOp::resolve`], then [`Resolved::apply`].
    pub fn apply(self, g: &mut Goddag) -> Result<EditOutcome, EditError> {
        self.resolve(g)?.apply(g)
    }
}

/// An [`EditOp`] checked against one document state by
/// [`EditOp::resolve`], ready to apply to it.
#[derive(Debug)]
pub struct Resolved {
    op: EditOp,
    /// An element insert's hierarchy, tag and attributes.
    element: Option<(HierarchyId, QName, Vec<Attribute>)>,
}

impl Resolved {
    /// The op, as it was given.
    pub fn op(&self) -> &EditOp {
        &self.op
    }

    /// The hierarchy an element insert targets.
    pub fn hierarchy(&self) -> Option<HierarchyId> {
        self.element.as_ref().map(|(h, _, _)| *h)
    }

    /// Run the mutation. Given the same document state and op, the result
    /// — a structural refusal included — is always the same, which is what
    /// lets a logged op be re-run on recovery and on replicas.
    pub fn apply(self, g: &mut Goddag) -> Result<EditOutcome, EditError> {
        let node = match self.op {
            EditOp::InsertElement { start, end, .. } => {
                #[expect(
                    clippy::expect_used,
                    reason = "invariant: `EditOp::resolve` fills `element` for every \
                              `InsertElement` and for nothing else"
                )]
                let (h, tag, attrs) = self.element.expect("resolve fills element inserts");
                Some(g.insert_element(h, tag, attrs, start, end)?)
            }
            EditOp::RemoveElement(n) => g.remove_element(n).map(|()| None)?,
            EditOp::InsertText { offset, text } => g.insert_text(offset, &text).map(|()| None)?,
            EditOp::DeleteText { start, end } => g.delete_text(start, end).map(|()| None)?,
            EditOp::SetAttr { node, name, value } => {
                g.set_attr(node, &name, &value).map(|()| None)?
            }
            EditOp::RemoveAttr { node, name } => g.remove_attr(node, &name).map(|_| None)?,
        };
        Ok(EditOutcome { node, epoch: g.edit_epoch() })
    }
}

/// What an applied edit produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditOutcome {
    /// The node created by `InsertElement`, if any.
    pub node: Option<NodeId>,
    /// The document's edit epoch after the operation — callers can use it
    /// to reason about cache validity or to detect concurrent edits.
    pub epoch: u64,
}

/// Why an [`EditOp`] was refused. Everything but [`EditError::Goddag`] is
/// found by [`EditOp::resolve`], before the document is touched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EditError {
    /// The op names a hierarchy the document does not have.
    UnknownHierarchy(String),
    /// A tag or attribute name is not an XML name.
    BadName(String),
    /// The document refused the mutation.
    Goddag(GoddagError),
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::UnknownHierarchy(h) => write!(f, "unknown hierarchy {h:?}"),
            EditError::BadName(detail) => f.write_str(detail),
            EditError::Goddag(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EditError {}

impl From<GoddagError> for EditError {
    fn from(e: GoddagError) -> EditError {
        EditError::Goddag(e)
    }
}
