//! The GODDAG (Generalized Ordered-Descendant Directed Acyclic Graph).
//!
//! One shared root, one shared ordered sequence of text leaves, and one
//! element tree per hierarchy in between (paper §3; Sperberg-McQueen &
//! Huitfeldt 2000). This module holds the node tables and core accessors;
//! navigation lives in [`crate::navigate`], mutation in [`crate::edit`].
//!
//! # Layout
//!
//! Leaves and elements share one id space (ids are what edit logs,
//! snapshots and replies carry), but not one record shape. Everything
//! whose size grows with the document costs a few bytes per node and
//! almost no allocations:
//!
//! * **one 24-byte record per id** (`Slot`): kind, alive flag, hierarchy,
//!   leaf-index span, name symbol, where its attributes start, and — for
//!   elements — its row in the element table. It is everything an element
//!   test, a span comparison or an attribute lookup reads, so those paths
//!   touch one record per candidate;
//! * **the element table**, one row per element ever created: its child
//!   list (the one heap allocation a node may own) and its parent;
//! * **the leaf table**, in document order: each leaf's id, its byte
//!   offset (one `u32`; a sentinel equal to the content length ends the
//!   array, so a leaf's length is the gap to the next offset) and its
//!   parents, one per hierarchy: the parent of leaf `i` in hierarchy `h`
//!   is entry `i·H + h`. A leaf's record only says where in this table it
//!   sits (its span is `[i, i+1)`);
//! * **the content in one `String`**, in document order. Leaves tile it,
//!   so any node's text is `content[offset[span.start]..offset[span.end]]`
//!   ([`Goddag::text`] borrows it, reading no leaf record);
//! * **names interned per document**: element, root and attribute names
//!   each stored once ([`Goddag::name`] still returns `&QName`);
//! * **attributes out of line** in one per-document store (see
//!   `crate::tables`), read through the borrowed [`Attrs`] view.
//!
//! Content is limited to `u32::MAX` bytes, as the leaf count already is
//! by [`Span`]'s `u32` indices.

use crate::error::{GoddagError, Result};
use crate::ids::{HierarchyId, NodeId};
use crate::span::Span;
use crate::tables::{AttrStore, Attrs, Names, Sym};
use xmlcore::QName;

/// What a node is, borrowed from its document.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeKind<'a> {
    /// The shared root. Carries the common root element name of all the
    /// hierarchy encodings (the paper's `<r>`).
    Root { name: &'a QName, attrs: Attrs<'a> },
    /// A markup element belonging to exactly one hierarchy.
    Element { name: &'a QName, attrs: Attrs<'a>, hierarchy: HierarchyId },
    /// A shared text fragment. Leaves partition the document content; the
    /// borders are the union of markup positions from all hierarchies
    /// (paper §3).
    Leaf { text: &'a str },
}

/// The kind tag of an id's record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Root,
    Element,
    Leaf,
}

/// Placeholder parent of elements that have none (removed ones).
pub(crate) const NIL: NodeId = NodeId(u32::MAX);

/// Largest content the tables address: offsets are `u32`.
pub(crate) const MAX_CONTENT: usize = u32::MAX as usize;

/// The record of one id.
#[derive(Debug, Clone)]
pub(crate) struct Slot {
    /// Leaf-index span. Leaves: `[i, i+1)`, `i` their place in the leaf
    /// table. The root: every leaf. Elements: cover of children. All
    /// maintained by `Goddag::renumber`.
    pub(crate) span: Span,
    /// Name of an element or the root.
    pub(crate) name: Sym,
    /// Where this node's group of attribute records starts in the store
    /// (or would start, when it has none).
    pub(crate) attr_start: u32,
    /// An element's row in the element table.
    pub(crate) row: u32,
    /// Owning hierarchy of an element.
    pub(crate) hierarchy: HierarchyId,
    pub(crate) kind: Kind,
    /// Tombstone flag; ids are never reused.
    pub(crate) alive: bool,
}

const _: () = assert!(std::mem::size_of::<Slot>() <= 24);

impl Slot {
    fn new(kind: Kind) -> Slot {
        Slot {
            span: Span::empty_at(0),
            name: Sym(0),
            attr_start: 0,
            row: 0,
            hierarchy: HierarchyId(0),
            kind,
            alive: true,
        }
    }

    /// A live leaf at place `i` of the leaf table.
    pub(crate) fn leaf(i: usize) -> Slot {
        Slot { span: Span::new(i as u32, i as u32 + 1), ..Slot::new(Kind::Leaf) }
    }

    /// A dead placeholder for an id no live node holds.
    pub(crate) fn tombstone() -> Slot {
        Slot { alive: false, ..Slot::new(Kind::Leaf) }
    }
}

/// One markup hierarchy: a named vocabulary with an optional DTD.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// Short name used as serialization prefix (`phys`, `ling`, ...).
    pub name: String,
    /// The hierarchy's schema, when known.
    pub dtd: Option<xmlcore::dtd::Dtd>,
}

/// A multihierarchical document: the paper's data model.
#[derive(Debug, Clone)]
pub struct Goddag {
    /// One record per id.
    pub(crate) slots: Vec<Slot>,
    pub(crate) root: NodeId,
    /// Element table, by row: ordered children (same-hierarchy elements
    /// and leaves). The root's per-hierarchy children live in
    /// `root_children`.
    pub(crate) children: Vec<Vec<NodeId>>,
    /// Element table, by row: the unique parent in the element's own
    /// hierarchy (an element of it, or the root); [`NIL`] once removed.
    pub(crate) parents: Vec<NodeId>,
    /// Leaf table: the ids in document order (the shared frontier).
    pub(crate) leaves: Vec<NodeId>,
    /// Leaf table: the byte offset of each leaf, then `content.len()`.
    pub(crate) offsets: Vec<u32>,
    /// Leaf table: `leaves × hierarchies` ids; entry `i·H + h` is the
    /// parent of leaf `i` in hierarchy `h` (the deepest element of `h`
    /// directly containing it, or the root).
    pub(crate) leaf_parents: Vec<NodeId>,
    /// Per hierarchy: ordered top-level nodes (elements of that hierarchy
    /// with no element parent, interleaved with leaves not covered by any
    /// element of that hierarchy).
    pub(crate) root_children: Vec<Vec<NodeId>>,
    pub(crate) hierarchies: Vec<Hierarchy>,
    /// The whole content, in document order; the leaves tile it.
    pub(crate) content: String,
    /// Interned element, root and attribute names.
    pub(crate) names: Names,
    /// Every attribute, out of line.
    pub(crate) attrs: AttrStore,
    /// Monotone edit counter: bumped by every mutation (structural or
    /// attribute-level). Derived read-side caches — most importantly the
    /// `OverlapIndex` instances held by `cxstore` — compare the epoch they
    /// were built at against the current one to decide validity.
    pub(crate) epoch: u64,
}

impl Goddag {
    /// Create an empty GODDAG with the given shared root name and no
    /// hierarchies or content. Use [`crate::GoddagBuilder`] to construct one
    /// from ranges, or the `sacx` crate to parse one.
    pub fn new(root_name: QName) -> Goddag {
        let mut names = Names::default();
        let name = names.intern(&root_name);
        Goddag {
            slots: vec![Slot { name, ..Slot::new(Kind::Root) }],
            root: NodeId(0),
            children: Vec::new(),
            parents: Vec::new(),
            leaves: Vec::new(),
            offsets: vec![0],
            leaf_parents: Vec::new(),
            root_children: Vec::new(),
            hierarchies: Vec::new(),
            content: String::new(),
            names,
            attrs: AttrStore::default(),
            epoch: 0,
        }
    }

    /// The document's edit epoch: a counter bumped by every mutation.
    /// Two equal epochs on the same document guarantee that no edit happened
    /// in between, so caches keyed by epoch (overlap indexes, statistics)
    /// may be reused without inspecting the document.
    pub fn edit_epoch(&self) -> u64 {
        self.epoch
    }

    /// Record a mutation (called by every editing entry point).
    pub(crate) fn bump_epoch(&mut self) {
        self.epoch += 1;
    }

    /// Overwrite the edit epoch. A durable store restoring a snapshot uses
    /// this to resume the counter where the pre-crash document left it, so
    /// replayed edits land on the epochs the write-ahead log recorded.
    pub fn force_edit_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    // ------------------------------------------------------------------
    // Hierarchies
    // ------------------------------------------------------------------

    /// Register a hierarchy; returns its id.
    pub fn add_hierarchy(&mut self, name: impl Into<String>) -> HierarchyId {
        self.bump_epoch();
        let id = HierarchyId(self.hierarchies.len() as u16);
        // Re-stride the leaf parents: the new hierarchy sees every current
        // leaf as a root child.
        let old = self.hierarchies.len();
        let mut parents = Vec::with_capacity(self.leaves.len() * (old + 1));
        for i in 0..self.leaves.len() {
            parents.extend_from_slice(&self.leaf_parents[i * old..(i + 1) * old]);
            parents.push(self.root);
        }
        self.leaf_parents = parents;
        self.hierarchies.push(Hierarchy { name: name.into(), dtd: None });
        self.root_children.push(self.leaves.clone());
        self.debug_check_tables();
        id
    }

    /// Attach a DTD to a hierarchy.
    pub fn set_dtd(&mut self, h: HierarchyId, dtd: xmlcore::dtd::Dtd) -> Result<()> {
        self.bump_epoch();
        self.hierarchies.get_mut(h.idx()).ok_or(GoddagError::NoSuchHierarchy(h))?.dtd = Some(dtd);
        Ok(())
    }

    /// Number of hierarchies.
    pub fn hierarchy_count(&self) -> usize {
        self.hierarchies.len()
    }

    /// All hierarchy ids.
    pub fn hierarchy_ids(&self) -> impl Iterator<Item = HierarchyId> {
        (0..self.hierarchies.len() as u16).map(HierarchyId)
    }

    /// Hierarchy metadata.
    pub fn hierarchy(&self, h: HierarchyId) -> Result<&Hierarchy> {
        self.hierarchies.get(h.idx()).ok_or(GoddagError::NoSuchHierarchy(h))
    }

    /// Find a hierarchy by name.
    pub fn hierarchy_by_name(&self, name: &str) -> Option<HierarchyId> {
        self.hierarchies.iter().position(|h| h.name == name).map(|i| HierarchyId(i as u16))
    }

    // ------------------------------------------------------------------
    // Node basics
    // ------------------------------------------------------------------

    /// The record of `n`. Panics on an id outside the table: public
    /// readers that can say "no such node" go through [`Goddag::slot`]
    /// instead.
    pub(crate) fn data(&self, n: NodeId) -> &Slot {
        &self.slots[n.idx()]
    }

    pub(crate) fn data_mut(&mut self, n: NodeId) -> &mut Slot {
        &mut self.slots[n.idx()]
    }

    /// The record of `n`, or `None` for an id outside the table.
    #[inline]
    pub(crate) fn slot(&self, n: NodeId) -> Option<&Slot> {
        self.slots.get(n.idx())
    }

    /// Append a record (its attribute group, empty, starts after every
    /// other).
    pub(crate) fn push_slot(&mut self, d: Slot) -> NodeId {
        let id = NodeId(self.slots.len() as u32);
        self.slots.push(Slot { attr_start: self.attrs.len() as u32, ..d });
        id
    }

    /// A live element record with a fresh row in the element table,
    /// holding `children` under `parent`.
    pub(crate) fn element_slot(
        &mut self,
        name: Sym,
        hierarchy: HierarchyId,
        parent: NodeId,
        children: Vec<NodeId>,
    ) -> Slot {
        let row = self.children.len() as u32;
        self.children.push(children);
        self.parents.push(parent);
        Slot { name, hierarchy, row, ..Slot::new(Kind::Element) }
    }

    /// Grow the id table to `len` records with tombstones.
    pub(crate) fn resize_ids(&mut self, len: usize) {
        self.slots.resize_with(len, Slot::tombstone);
    }

    /// Point every record at its attribute group (after the store was
    /// filled out of id order and sorted).
    pub(crate) fn index_attrs(&mut self) {
        let ids = self.slots.len();
        for (d, start) in self.slots.iter_mut().zip(self.attrs.group_starts(ids)) {
            d.attr_start = start;
        }
    }

    /// After a record was inserted (`+1`) into or removed (`-1`) from the
    /// group of `n`, move the groups of every later owner.
    pub(crate) fn shift_attr_groups_after(&mut self, n: NodeId, inserted: bool) {
        for d in &mut self.slots[n.idx() + 1..] {
            d.attr_start = if inserted { d.attr_start + 1 } else { d.attr_start - 1 };
        }
    }

    /// The child list of element `d` (its row's).
    #[inline]
    pub(crate) fn row_children(&self, d: &Slot) -> &[NodeId] {
        &self.children[d.row as usize]
    }

    /// The tree parent of element `d`, `None` once removed.
    #[inline]
    pub(crate) fn row_parent(&self, d: &Slot) -> Option<NodeId> {
        let p = self.parents[d.row as usize];
        (p != NIL).then_some(p)
    }

    /// The parents of leaf `d`, one per hierarchy.
    #[inline]
    pub(crate) fn leaf_parents_of(&self, d: &Slot) -> &[NodeId] {
        let (h, i) = (self.hierarchies.len(), d.span.start as usize);
        &self.leaf_parents[i * h..(i + 1) * h]
    }

    /// Byte offsets of the content a leaf-index span covers.
    #[inline]
    pub(crate) fn byte_range(&self, span: Span) -> (usize, usize) {
        (self.offsets[span.start as usize] as usize, self.offsets[span.end as usize] as usize)
    }

    /// The text of a live record's span (empty for dead ones, whose spans
    /// are stale).
    #[inline]
    fn slot_text(&self, d: &Slot) -> &str {
        if d.alive {
            let (start, end) = self.byte_range(d.span);
            self.content.get(start..end).unwrap_or_default()
        } else {
            ""
        }
    }

    /// In debug builds, check the leaf table's shape: offsets ascend from 0
    /// and end at the content length, one per leaf plus the sentinel, and
    /// one parent per leaf and hierarchy. Every structural edit ends here.
    pub(crate) fn debug_check_tables(&self) {
        debug_assert_eq!(self.offsets.len(), self.leaves.len() + 1, "one offset per leaf");
        debug_assert_eq!(self.offsets.first(), Some(&0), "offsets start at 0");
        debug_assert_eq!(
            self.offsets.last().map(|&o| o as usize),
            Some(self.content.len()),
            "offsets end at the content length"
        );
        debug_assert!(self.offsets.windows(2).all(|w| w[0] < w[1]), "offsets ascend");
        debug_assert_eq!(
            self.leaf_parents.len(),
            self.leaves.len() * self.hierarchies.len(),
            "one parent per leaf and hierarchy"
        );
    }

    /// The shared root.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Is the id live?
    pub fn is_alive(&self, n: NodeId) -> bool {
        self.slot(n).is_some_and(|d| d.alive)
    }

    /// Ensure the node is live.
    pub fn check_alive(&self, n: NodeId) -> Result<()> {
        if self.is_alive(n) {
            Ok(())
        } else {
            Err(GoddagError::DeadNode(n))
        }
    }

    /// Node kind. Panics on an id outside the table (`0..arena_len`).
    pub fn kind(&self, n: NodeId) -> NodeKind<'_> {
        let d = self.data(n);
        match d.kind {
            Kind::Root => NodeKind::Root { name: self.names.get(d.name), attrs: self.attrs(n) },
            Kind::Element => NodeKind::Element {
                name: self.names.get(d.name),
                attrs: self.attrs(n),
                hierarchy: d.hierarchy,
            },
            Kind::Leaf => NodeKind::Leaf { text: self.slot_text(d) },
        }
    }

    /// True for element nodes (false for unknown ids).
    pub fn is_element(&self, n: NodeId) -> bool {
        self.slot(n).is_some_and(|d| d.kind == Kind::Element)
    }

    /// True for leaf (text) nodes (false for unknown ids).
    pub fn is_leaf(&self, n: NodeId) -> bool {
        self.slot(n).is_some_and(|d| d.kind == Kind::Leaf)
    }

    /// True for the root.
    pub fn is_root(&self, n: NodeId) -> bool {
        n == self.root
    }

    /// Element or root name (`None` for leaves and unknown ids).
    pub fn name(&self, n: NodeId) -> Option<&QName> {
        self.slot(n).filter(|d| d.kind != Kind::Leaf).map(|d| self.names.get(d.name))
    }

    /// Attributes of an element or the root (empty for leaves and unknown
    /// ids).
    pub fn attrs(&self, n: NodeId) -> Attrs<'_> {
        match self.slot(n) {
            Some(d) if d.kind != Kind::Leaf => self.attrs.view(&self.names, d.attr_start, n),
            _ => Attrs::none(&self.names, &self.attrs),
        }
    }

    /// Attribute lookup by full name.
    pub fn attr(&self, n: NodeId, name: &str) -> Option<&str> {
        self.attrs(n).find(name)
    }

    /// The hierarchy an element belongs to (None for root, leaves and
    /// unknown ids).
    pub fn hierarchy_of(&self, n: NodeId) -> Option<HierarchyId> {
        self.slot(n).filter(|d| d.kind == Kind::Element).map(|d| d.hierarchy)
    }

    /// Leaf text, borrowed from the content (None for other nodes and
    /// unknown ids).
    pub fn leaf_text(&self, n: NodeId) -> Option<&str> {
        self.slot(n).filter(|d| d.kind == Kind::Leaf).map(|d| self.slot_text(d))
    }

    /// The node's leaf-index span.
    pub fn span(&self, n: NodeId) -> Span {
        self.data(n).span
    }

    // ------------------------------------------------------------------
    // Leaves & content
    // ------------------------------------------------------------------

    /// The global ordered leaf sequence.
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// The leaves a live node dominates, in order (empty for dead and
    /// unknown ids: a removed element keeps a span later edits never
    /// revisit).
    pub fn leaves_of(&self, n: NodeId) -> &[NodeId] {
        match self.slot(n) {
            Some(d) if d.alive => &self.leaves[d.span.start as usize..d.span.end as usize],
            _ => &[],
        }
    }

    /// The text a live node covers, borrowed from the content (empty for
    /// dead and unknown ids).
    pub fn text(&self, n: NodeId) -> &str {
        self.slot(n).map_or("", |d| self.slot_text(d))
    }

    /// Concatenated text content of a node: a copy of [`Goddag::text`].
    pub fn text_of(&self, n: NodeId) -> String {
        self.text(n).to_string()
    }

    /// The whole document content.
    pub fn content(&self) -> String {
        self.content.clone()
    }

    /// Total content length in bytes.
    pub fn content_len(&self) -> usize {
        self.content.len()
    }

    /// Byte range of the content a node covers: `(start, end)`. A removed
    /// node's span is stale: past the leaf table it reads as the content
    /// end.
    pub fn char_range(&self, n: NodeId) -> (usize, usize) {
        let span = self.span(n);
        let at = |i: u32| self.offsets.get(i as usize).map_or(self.content.len(), |&o| o as usize);
        (at(span.start), at(span.end))
    }

    /// Is byte offset `off` within the content and on a UTF-8 character
    /// boundary?
    pub fn is_char_boundary(&self, off: usize) -> bool {
        self.content.is_char_boundary(off)
    }

    /// The place in the leaf table of the leaf containing byte offset
    /// `off` (offsets on a boundary resolve to the following leaf), or the
    /// leaf count when `off` is at or past the content end.
    pub(crate) fn leaf_index_at(&self, off: usize) -> usize {
        self.offsets[1..].partition_point(|&end| end as usize <= off)
    }

    /// The leaf containing byte offset `off` (the leaf whose char range
    /// includes `off`; offsets on a boundary resolve to the following leaf).
    pub fn leaf_at_char(&self, off: usize) -> Option<NodeId> {
        self.leaves.get(self.leaf_index_at(off)).copied()
    }

    // ------------------------------------------------------------------
    // Counting / iteration over the ids
    // ------------------------------------------------------------------

    /// All live element ids, in id order.
    pub fn elements(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, d)| (d.alive && d.kind == Kind::Element).then_some(NodeId(i as u32)))
    }

    /// All live elements of one hierarchy, in id order.
    pub fn elements_in(&self, h: HierarchyId) -> impl Iterator<Item = NodeId> + '_ {
        self.slots.iter().enumerate().filter_map(move |(i, d)| {
            (d.alive && d.kind == Kind::Element && d.hierarchy == h).then_some(NodeId(i as u32))
        })
    }

    /// Live element count.
    pub fn element_count(&self) -> usize {
        self.elements().count()
    }

    /// Total ids (live + tombstoned); ids are `0..arena_len`.
    pub fn arena_len(&self) -> usize {
        self.slots.len()
    }

    /// A deterministic total document order over nodes:
    /// by span start ascending, span end descending (outer first), then
    /// root < element < leaf, then hierarchy id, then node id.
    ///
    /// Within one hierarchy this coincides with XML document order; across
    /// hierarchies it gives the stable interleaving the Extended XPath
    /// evaluator sorts node-sets by.
    pub fn doc_order_key(&self, n: NodeId) -> (u32, i64, u8, u16, u32) {
        let d = self.data(n);
        let (kind_rank, h) = match d.kind {
            Kind::Root => (0, 0),
            Kind::Element => (1, d.hierarchy.0),
            Kind::Leaf => (2, 0),
        };
        (d.span.start, -(d.span.end as i64), kind_rank, h, n.0)
    }

    /// Sort and deduplicate a node list into document order.
    pub fn sort_doc_order(&self, nodes: &mut Vec<NodeId>) {
        nodes.sort_by_key(|&n| self.doc_order_key(n));
        nodes.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_goddag_basics() {
        let g = Goddag::new(QName::parse("r").unwrap());
        assert_eq!(g.leaf_count(), 0);
        assert_eq!(g.content(), "");
        assert!(g.is_root(g.root()));
        assert_eq!(g.name(g.root()).unwrap().local, "r");
        assert_eq!(g.element_count(), 0);
    }

    #[test]
    fn hierarchy_registry() {
        let mut g = Goddag::new(QName::parse("r").unwrap());
        let phys = g.add_hierarchy("phys");
        let ling = g.add_hierarchy("ling");
        assert_eq!(g.hierarchy_count(), 2);
        assert_eq!(g.hierarchy_by_name("phys"), Some(phys));
        assert_eq!(g.hierarchy_by_name("ling"), Some(ling));
        assert_eq!(g.hierarchy_by_name("nope"), None);
        assert_eq!(g.hierarchy(phys).unwrap().name, "phys");
        assert!(g.hierarchy(HierarchyId(9)).is_err());
    }

    #[test]
    fn every_mutation_bumps_the_edit_epoch() {
        let mut b = crate::builder::GoddagBuilder::new(QName::parse("r").unwrap());
        b.content("one two three");
        let h = b.hierarchy("phys");
        b.range(h, "line", vec![], 0, 7).unwrap();
        let mut g = b.finish().unwrap();

        let mut last = g.edit_epoch();
        let mut expect_bump = |g: &Goddag, what: &str| {
            assert!(g.edit_epoch() > last, "{what} must bump the epoch");
            last = g.edit_epoch();
        };

        let e = g.insert_element(h, QName::parse("w").unwrap(), vec![], 0, 3).unwrap();
        expect_bump(&g, "insert_element");
        g.set_attr(e, "n", "1").unwrap();
        expect_bump(&g, "set_attr");
        g.rename(e, QName::parse("wd").unwrap()).unwrap();
        expect_bump(&g, "rename");
        assert!(g.remove_attr(e, "n").unwrap());
        expect_bump(&g, "remove_attr");
        g.insert_text(0, "X").unwrap();
        expect_bump(&g, "insert_text");
        g.delete_text(0, 1).unwrap();
        expect_bump(&g, "delete_text");
        g.remove_element(e).unwrap();
        expect_bump(&g, "remove_element");
        g.split_leaf_at(2).unwrap();
        expect_bump(&g, "split_leaf_at");

        // Reads do not bump.
        let _ = g.content();
        let _ = g.stats();
        assert_eq!(g.edit_epoch(), last);
        // Removing an absent attribute is a no-op, not an edit.
        assert!(!g.remove_attr(g.root(), "nope").unwrap());
        assert_eq!(g.edit_epoch(), last);
    }

    #[test]
    fn a_removed_element_has_no_leaves() {
        let mut b = crate::builder::GoddagBuilder::new(QName::parse("r").unwrap());
        b.content("one two three four");
        let h = b.hierarchy("ling");
        b.range(h, "w", vec![], 14, 18).unwrap();
        let mut g = b.finish().unwrap();
        let w = g.find_elements("w")[0];
        assert_eq!(g.leaves_of(w).len(), 1);
        g.remove_element(w).unwrap();
        g.delete_text(4, 18).unwrap();
        assert!(g.leaves_of(w).is_empty());
        assert_eq!(g.text(w), "");
        assert!(g.leaves_of(NodeId(u32::MAX - 1)).is_empty());
        assert_eq!(g.leaves_of(g.root()), g.leaves());
    }

    #[test]
    fn is_char_boundary_matches_the_content() {
        let mut b = crate::builder::GoddagBuilder::new(QName::parse("r").unwrap());
        b.content("swā þæt");
        let h = b.hierarchy("phys");
        b.range(h, "w", vec![], 0, 4).unwrap();
        let mut g = b.finish().unwrap();
        g.split_leaf_at(7).unwrap();
        let content = g.content();
        for off in 0..content.len() + 3 {
            assert_eq!(g.is_char_boundary(off), content.is_char_boundary(off), "offset {off}");
        }
        let empty = Goddag::new(QName::parse("r").unwrap());
        assert!(empty.is_char_boundary(0));
        assert!(!empty.is_char_boundary(1));
    }

    #[test]
    fn forged_ids_read_as_no_such_node() {
        let mut b = crate::builder::GoddagBuilder::new(QName::parse("r").unwrap());
        b.content("one two");
        let h = b.hierarchy("phys");
        b.range(h, "w", vec![xmlcore::Attribute::new("n", "1")], 0, 3).unwrap();
        let g = b.finish().unwrap();
        for n in [NodeId(g.arena_len() as u32), NodeId(u32::MAX)] {
            assert_eq!(g.name(n), None);
            assert!(g.attrs(n).is_empty());
            assert_eq!(g.attr(n, "n"), None);
            assert_eq!(g.hierarchy_of(n), None);
            assert_eq!(g.leaf_text(n), None);
            assert_eq!(g.text(n), "");
            assert_eq!(g.text_of(n), "");
            assert!(!g.is_element(n));
            assert!(!g.is_leaf(n));
            assert!(!g.is_alive(n));
            assert!(g.children_in(n, h).is_empty());
            assert!(g.children(n).is_empty());
            assert_eq!(g.parent_in(n, h), None);
            assert!(g.parents(n).is_empty());
            assert!(g.ancestors_in(n, h).is_empty());
        }
    }

    #[test]
    fn text_borrows_from_one_buffer() {
        let mut b = crate::builder::GoddagBuilder::new(QName::parse("r").unwrap());
        b.content("swā hwa swe");
        let phys = b.hierarchy("phys");
        let ling = b.hierarchy("ling");
        b.range(phys, "line", vec![], 0, 8).unwrap();
        b.range(ling, "w", vec![], 5, 12).unwrap();
        let mut g = b.finish().unwrap();
        let w = g.find_elements("w")[0];
        assert_eq!(g.text(w), "hwa swe");
        assert_eq!(g.text(g.root()), "swā hwa swe");
        let joined: String = g.leaves().iter().map(|&l| g.leaf_text(l).unwrap()).collect();
        assert_eq!(joined, g.text(g.root()));
        // Splits and merges never move a byte; text edits do.
        g.split_leaf_at(1).unwrap();
        assert_eq!(g.coalesce_leaves(), 1);
        g.insert_text(5, "X").unwrap();
        g.delete_text(0, 5).unwrap();
        assert_eq!(g.text(g.root()), "Xhwa swe");
        assert_eq!(g.text(w), "Xhwa swe");
        crate::validate::check_invariants(&g).unwrap();
    }

    #[test]
    fn force_edit_epoch_sets_counter() {
        let mut g = Goddag::new(QName::parse("r").unwrap());
        g.add_hierarchy("a");
        g.force_edit_epoch(1234);
        assert_eq!(g.edit_epoch(), 1234);
        g.insert_text(0, "X").unwrap();
        assert_eq!(g.edit_epoch(), 1235);
    }

    #[test]
    fn set_dtd_roundtrip() {
        let mut g = Goddag::new(QName::parse("r").unwrap());
        let h = g.add_hierarchy("phys");
        let dtd = xmlcore::dtd::parse_dtd("<!ELEMENT r ANY>").unwrap();
        g.set_dtd(h, dtd).unwrap();
        assert!(g.hierarchy(h).unwrap().dtd.is_some());
        assert!(g
            .set_dtd(HierarchyId(4), xmlcore::dtd::parse_dtd("<!ELEMENT r ANY>").unwrap())
            .is_err());
    }
}
