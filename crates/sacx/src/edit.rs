//! The one edit vocabulary: [`EditOp`], what every layer that changes a
//! document speaks — xTagger sessions, the store, its write-ahead log,
//! replication batches and `cxq1` frames — with its one text spelling and
//! its one resolve + apply body.

use crate::token::{escape_field, write_attrs, Tokens};
use goddag::{Goddag, GoddagError, HierarchyId, NodeId};
use std::fmt::{self, Write as _};
use xmlcore::{Attribute, QName};

/// One edit against a document. Hierarchies are addressed by name so
/// operations are meaningful without holding a handle to the document's
/// internals; nodes use the stable [`NodeId`]s returned by earlier queries
/// and edits (GODDAG ids are never reused).
#[derive(Debug, Clone, PartialEq)]
pub enum EditOp {
    /// Wrap content bytes `start..end` of hierarchy `hierarchy` in a new
    /// `tag` element. Where the hierarchy carries a DTD, the store and the
    /// xTagger session first check the insertion through `prevalid`; a
    /// rejection leaves the document untouched and surfaces the reason.
    InsertElement {
        /// Hierarchy name (`"phys"`, `"ling"`, …).
        hierarchy: String,
        /// Element local name.
        tag: String,
        /// `(name, value)` attributes.
        attrs: Vec<(String, String)>,
        /// Content byte range start.
        start: usize,
        /// Content byte range end (exclusive).
        end: usize,
    },
    /// Splice an element out of its hierarchy (content is kept).
    RemoveElement(NodeId),
    /// Insert text at a byte offset; all hierarchies see it at once.
    InsertText {
        /// Byte offset.
        offset: usize,
        /// The text.
        text: String,
    },
    /// Delete the content byte range `start..end` under all hierarchies.
    DeleteText {
        /// Range start.
        start: usize,
        /// Range end (exclusive).
        end: usize,
    },
    /// Set (or replace) an attribute on an element or the root.
    SetAttr {
        /// Target node.
        node: NodeId,
        /// Attribute name.
        name: String,
        /// Attribute value.
        value: String,
    },
    /// Remove an attribute if present.
    RemoveAttr {
        /// Target node.
        node: NodeId,
        /// Attribute name.
        name: String,
    },
}

crate::vocabulary! {
    /// The keyword an [`EditOp`] is written under.
    pub enum OpKind("edit op") {
        InsertElement = "insel",
        RemoveElement = "rmel",
        InsertText = "instext",
        DeleteText = "deltext",
        SetAttr = "setattr",
        RemoveAttr = "rmattr",
    }
}

/// The one text spelling of an edit, shared by WAL records, shipped
/// replication batches, `cxq1` frames and xTagger scripts (the bytes are on
/// disk, so they do not move):
///
/// ```text
/// insel <hierarchy> <tag> <start> <end> [<name>=<value>]…
/// rmel <node> | instext <offset> <text> | deltext <start> <end>
/// setattr <node> <name> <value> | rmattr <node> <name>
/// ```
///
/// Strings are [`escape_field`]ed. The attribute list needs no count: a
/// field never holds a raw `=`, so it ends at the first token without one
/// and whatever the enclosing format appends still parses.
impl EditOp {
    /// Append the op's tokens to `out`.
    pub fn write_tokens(&self, out: &mut String) {
        use OpKind as K;
        let f = escape_field;
        // Writing into a `String` cannot fail.
        let _ = match self {
            EditOp::InsertElement { hierarchy, tag, start, end, .. } => {
                write!(out, "{} {} {} {start} {end}", K::InsertElement, f(hierarchy), f(tag))
            }
            EditOp::RemoveElement(node) => write!(out, "{} {}", K::RemoveElement, node.0),
            EditOp::InsertText { offset, text } => {
                write!(out, "{} {offset} {}", K::InsertText, f(text))
            }
            EditOp::DeleteText { start, end } => {
                write!(out, "{} {start} {end}", K::DeleteText)
            }
            EditOp::SetAttr { node, name, value } => {
                write!(out, "{} {} {} {}", K::SetAttr, node.0, f(name), f(value))
            }
            EditOp::RemoveAttr { node, name } => {
                write!(out, "{} {} {}", K::RemoveAttr, node.0, f(name))
            }
        };
        if let EditOp::InsertElement { attrs, .. } = self {
            write_attrs(out, attrs);
        }
    }

    /// Read one op from the cursor, leaving it at the first token that is
    /// not part of the op.
    pub fn read_tokens(t: &mut Tokens<'_>) -> Result<EditOp, String> {
        Ok(match OpKind::parse(t.token("edit op")?)? {
            OpKind::InsertElement => EditOp::InsertElement {
                hierarchy: t.string("hierarchy")?,
                tag: t.string("tag")?,
                start: t.parse("start")?,
                end: t.parse("end")?,
                attrs: t.attrs()?,
            },
            OpKind::RemoveElement => EditOp::RemoveElement(NodeId(t.parse("node id")?)),
            OpKind::InsertText => {
                EditOp::InsertText { offset: t.parse("offset")?, text: t.string("text")? }
            }
            OpKind::DeleteText => {
                EditOp::DeleteText { start: t.parse("start")?, end: t.parse("end")? }
            }
            OpKind::SetAttr => EditOp::SetAttr {
                node: NodeId(t.parse("node id")?),
                name: t.string("attribute name")?,
                value: t.string("attribute value")?,
            },
            OpKind::RemoveAttr => EditOp::RemoveAttr {
                node: NodeId(t.parse("node id")?),
                name: t.string("attribute name")?,
            },
        })
    }

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
