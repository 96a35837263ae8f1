//! The store's edit operations, applied under the document write lock and
//! gated through prevalidation where a schema is known.

use goddag::NodeId;
use sacx::{escape_field, write_attrs, Tokens};
use std::fmt::Write as _;

/// One edit against a store document. Hierarchies are addressed by name so
/// operations are meaningful without holding a handle to the document's
/// internals; nodes use the stable [`NodeId`]s returned by earlier queries
/// and edits (GODDAG ids are never reused).
#[derive(Debug, Clone, PartialEq)]
pub enum EditOp {
    /// Wrap content bytes `start..end` of hierarchy `hierarchy` in a new
    /// `tag` element. When the hierarchy carries a DTD the insertion is
    /// first checked with `prevalid::check_insertion`; a rejection leaves
    /// the document untouched and surfaces the reason.
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

sacx::vocabulary! {
    /// The keyword an [`EditOp`] is written under.
    enum OpKind("edit op") {
        InsertElement = "insel",
        RemoveElement = "rmel",
        InsertText = "instext",
        DeleteText = "deltext",
        SetAttr = "setattr",
        RemoveAttr = "rmattr",
    }
}

/// The one text spelling of an edit, shared by WAL records, shipped
/// replication batches and `cxq1` frames (the bytes are on disk, so they
/// do not move):
///
/// ```text
/// insel <hierarchy> <tag> <start> <end> [<name>=<value>]…
/// rmel <node> | instext <offset> <text> | deltext <start> <end>
/// setattr <node> <name> <value> | rmattr <node> <name>
/// ```
///
/// Strings are [`sacx::escape_field`]ed. The attribute list needs no count:
/// a field never holds a raw `=`, so it ends at the first token without
/// one and whatever the enclosing format appends still parses.
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
