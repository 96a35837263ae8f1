//! The GODDAG (Generalized Ordered-Descendant Directed Acyclic Graph).
//!
//! One shared root, one shared ordered sequence of text leaves, and one
//! element tree per hierarchy in between (paper §3; Sperberg-McQueen &
//! Huitfeldt 2000). This module holds the node arena and core accessors;
//! navigation lives in [`crate::navigate`], mutation in [`crate::edit`].
//!
//! # Layout
//!
//! Everything whose size grows with the document costs a few bytes per
//! node and almost no allocations:
//!
//! * **one fixed-size record per arena slot** (`NodeData`, at most 56
//!   bytes): kind, alive flag, hierarchy, parent, leaf-index span, byte
//!   offset, a leaf's byte length, a name symbol, where its attributes
//!   start, and — for elements only — the one heap allocation a node may
//!   own, its child list;
//! * **the content in one `String`**, in document order. Leaves tile it,
//!   so a leaf is just an offset and a length, and any node's text is the
//!   slice [`Goddag::char_range`] names ([`Goddag::text`] borrows it);
//! * **names interned per document**: element, root and attribute names
//!   each stored once ([`Goddag::name`] still returns `&QName`);
//! * **attributes out of line** in one per-document store (see
//!   `crate::tables`), read through the borrowed [`Attrs`] view; a slot
//!   keeps only where its group of records starts;
//! * **leaf parents in one dense array** of `arena_len × hierarchies` ids:
//!   the parent of leaf `n` in hierarchy `h` is entry `n·H + h`.
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

/// The kind tag of an arena slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    Root,
    Element,
    Leaf,
}

/// Placeholder parent of slots that have none (the root, leaves, and
/// removed elements).
pub(crate) const NIL: NodeId = NodeId(u32::MAX);

/// Largest content the arena addresses: offsets and lengths are `u32`.
pub(crate) const MAX_CONTENT: usize = u32::MAX as usize;

/// Arena slot.
#[derive(Debug, Clone)]
pub(crate) struct NodeData {
    /// For elements: ordered children (same-hierarchy elements and leaves).
    /// Empty for leaves. The root's per-hierarchy children live in
    /// `Goddag::root_children`.
    pub(crate) children: Vec<NodeId>,
    /// Leaf-index span. Leaves: `[i, i+1)`. Elements: cover of children,
    /// maintained by `Goddag::renumber`.
    pub(crate) span: Span,
    /// Byte offset of this leaf's text within the content (leaves only;
    /// maintained by `renumber`).
    pub(crate) char_start: u32,
    /// Byte length of this leaf's text (leaves only).
    pub(crate) len: u32,
    /// For live elements: the unique parent in their own hierarchy (an
    /// element of the same hierarchy, or the root). [`NIL`] otherwise.
    pub(crate) parent: NodeId,
    /// Name of an element or the root.
    pub(crate) name: Sym,
    /// Where this node's group of attribute records starts in the store
    /// (or would start, when it has none).
    pub(crate) attr_start: u32,
    /// Owning hierarchy of an element.
    pub(crate) hierarchy: HierarchyId,
    pub(crate) kind: Kind,
    /// Tombstone flag; ids are never reused.
    pub(crate) alive: bool,
}

const _: () = assert!(std::mem::size_of::<NodeData>() <= 56);

impl NodeData {
    fn new(kind: Kind) -> NodeData {
        NodeData {
            children: Vec::new(),
            span: Span::empty_at(0),
            char_start: 0,
            len: 0,
            parent: NIL,
            name: Sym(0),
            attr_start: 0,
            hierarchy: HierarchyId(0),
            kind,
            alive: true,
        }
    }

    /// A live leaf at `char_start` of `len` bytes, not wired yet.
    pub(crate) fn leaf(char_start: usize, len: usize) -> NodeData {
        NodeData { char_start: char_start as u32, len: len as u32, ..NodeData::new(Kind::Leaf) }
    }

    /// A live element, not wired yet: no parent, children or span.
    pub(crate) fn element(name: Sym, hierarchy: HierarchyId) -> NodeData {
        NodeData { name, hierarchy, ..NodeData::new(Kind::Element) }
    }

    /// A dead placeholder for an arena slot no live node occupies.
    pub(crate) fn tombstone() -> NodeData {
        NodeData { alive: false, ..NodeData::new(Kind::Leaf) }
    }

    /// Byte offset of a leaf's text.
    #[inline]
    pub(crate) fn start(&self) -> usize {
        self.char_start as usize
    }

    /// Byte offset one past a leaf's text.
    #[inline]
    pub(crate) fn end(&self) -> usize {
        self.char_start as usize + self.len as usize
    }

    /// The parent pointer, `None` for [`NIL`].
    #[inline]
    pub(crate) fn parent(&self) -> Option<NodeId> {
        (self.parent != NIL).then_some(self.parent)
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
    pub(crate) nodes: Vec<NodeData>,
    pub(crate) root: NodeId,
    /// Global leaf order (the shared frontier).
    pub(crate) leaves: Vec<NodeId>,
    /// Per hierarchy: ordered top-level nodes (elements of that hierarchy
    /// with no element parent, interleaved with leaves not covered by any
    /// element of that hierarchy).
    pub(crate) root_children: Vec<Vec<NodeId>>,
    pub(crate) hierarchies: Vec<Hierarchy>,
    /// `arena_len × hierarchies` ids: entry `n·H + h` is the parent of leaf
    /// `n` in hierarchy `h` (the deepest element of `h` directly containing
    /// it, or the root). Entries of non-leaf slots hold the root.
    pub(crate) leaf_parents: Vec<NodeId>,
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
            nodes: vec![NodeData { name, ..NodeData::new(Kind::Root) }],
            root: NodeId(0),
            leaves: Vec::new(),
            root_children: Vec::new(),
            hierarchies: Vec::new(),
            leaf_parents: Vec::new(),
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
        // Re-stride the dense leaf-parent array: the new hierarchy sees
        // every current leaf as a root child.
        let old = self.hierarchies.len();
        let mut parents = Vec::with_capacity(self.nodes.len() * (old + 1));
        for n in 0..self.nodes.len() {
            parents.extend_from_slice(&self.leaf_parents[n * old..(n + 1) * old]);
            parents.push(self.root);
        }
        self.leaf_parents = parents;
        self.hierarchies.push(Hierarchy { name: name.into(), dtd: None });
        self.root_children.push(self.leaves.clone());
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

    /// The slot of `n`. Panics on an id outside the arena: public readers
    /// that can say "no such node" go through [`Goddag::slot`] instead.
    pub(crate) fn data(&self, n: NodeId) -> &NodeData {
        &self.nodes[n.idx()]
    }

    pub(crate) fn data_mut(&mut self, n: NodeId) -> &mut NodeData {
        &mut self.nodes[n.idx()]
    }

    /// The slot of `n`, or `None` for an id outside the arena.
    #[inline]
    fn slot(&self, n: NodeId) -> Option<&NodeData> {
        self.nodes.get(n.idx())
    }

    /// Append a slot to the arena (its leaf-parent entries hold the root;
    /// its attribute group, empty, starts after every other).
    pub(crate) fn push_node(&mut self, d: NodeData) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData { attr_start: self.attrs.len() as u32, ..d });
        let root = self.root;
        self.leaf_parents.extend(std::iter::repeat_n(root, self.hierarchies.len()));
        id
    }

    /// Grow the arena to `len` slots with tombstones.
    pub(crate) fn resize_arena(&mut self, len: usize) {
        self.nodes.resize_with(len, NodeData::tombstone);
        self.leaf_parents.resize(len * self.hierarchies.len(), self.root);
    }

    /// Point every slot at its attribute group (after the store was
    /// filled out of id order and sorted).
    pub(crate) fn index_attrs(&mut self) {
        let arena_len = self.nodes.len();
        for (d, start) in self.nodes.iter_mut().zip(self.attrs.group_starts(arena_len)) {
            d.attr_start = start;
        }
    }

    /// After a record was inserted (`+1`) into or removed (`-1`) from the
    /// group of `n`, move the groups of every later owner.
    pub(crate) fn shift_attr_groups_after(&mut self, n: NodeId, inserted: bool) {
        for d in &mut self.nodes[n.idx() + 1..] {
            d.attr_start = if inserted { d.attr_start + 1 } else { d.attr_start - 1 };
        }
    }

    /// The parents of leaf `n`, one per hierarchy.
    #[inline]
    pub(crate) fn leaf_parents_of(&self, n: NodeId) -> &[NodeId] {
        let h = self.hierarchies.len();
        &self.leaf_parents[n.idx() * h..(n.idx() + 1) * h]
    }

    /// Set the parent of leaf `n` in hierarchy `h`.
    #[inline]
    pub(crate) fn set_leaf_parent(&mut self, n: NodeId, h: HierarchyId, p: NodeId) {
        let stride = self.hierarchies.len();
        self.leaf_parents[n.idx() * stride + h.idx()] = p;
    }

    /// The text of a live leaf's slot: its slice of the content buffer
    /// (empty for dead slots, whose offsets are stale).
    #[inline]
    pub(crate) fn leaf_str(&self, d: &NodeData) -> &str {
        if d.alive {
            self.content.get(d.start()..d.end()).unwrap_or_default()
        } else {
            ""
        }
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

    /// Node kind. Panics on an id outside the arena (`0..arena_len`).
    pub fn kind(&self, n: NodeId) -> NodeKind<'_> {
        let d = self.data(n);
        match d.kind {
            Kind::Root => NodeKind::Root { name: self.names.get(d.name), attrs: self.attrs(n) },
            Kind::Element => NodeKind::Element {
                name: self.names.get(d.name),
                attrs: self.attrs(n),
                hierarchy: d.hierarchy,
            },
            Kind::Leaf => NodeKind::Leaf { text: self.leaf_str(d) },
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
        self.slot(n).filter(|d| d.kind == Kind::Leaf).map(|d| self.leaf_str(d))
    }

    /// The node's leaf-index span.
    pub fn span(&self, n: NodeId) -> Span {
        if self.is_root(n) {
            Span::new(0, self.leaves.len() as u32)
        } else {
            self.data(n).span
        }
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

    /// The leaves a node dominates, in order.
    pub fn leaves_of(&self, n: NodeId) -> &[NodeId] {
        let span = self.span(n);
        &self.leaves[span.start as usize..span.end as usize]
    }

    /// The text a live node covers, borrowed from the content (empty for
    /// dead and unknown ids).
    pub fn text(&self, n: NodeId) -> &str {
        if !self.is_alive(n) {
            return "";
        }
        let (start, end) = self.char_range(n);
        self.content.get(start..end).unwrap_or_default()
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

    /// Byte range of the content a node covers: `(start, end)`.
    pub fn char_range(&self, n: NodeId) -> (usize, usize) {
        let span = self.span(n);
        if span.is_empty() {
            let at = self
                .leaves
                .get(span.start as usize)
                .map_or(self.content.len(), |&l| self.data(l).start());
            return (at, at);
        }
        let first = self.leaves[span.start as usize];
        let last = self.leaves[span.end as usize - 1];
        (self.data(first).start(), self.data(last).end())
    }

    /// Is byte offset `off` within the content and on a UTF-8 character
    /// boundary?
    pub fn is_char_boundary(&self, off: usize) -> bool {
        self.content.is_char_boundary(off)
    }

    /// The leaf containing byte offset `off` (the leaf whose char range
    /// includes `off`; offsets on a boundary resolve to the following leaf).
    pub fn leaf_at_char(&self, off: usize) -> Option<NodeId> {
        if off >= self.content.len() {
            return self.leaves.last().copied().filter(|_| off == 0 && self.content.is_empty());
        }
        let idx = self.leaves.partition_point(|&l| self.data(l).end() <= off);
        self.leaves.get(idx).copied()
    }

    // ------------------------------------------------------------------
    // Counting / iteration over the arena
    // ------------------------------------------------------------------

    /// All live element ids, in arena order.
    pub fn elements(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, d)| (d.alive && d.kind == Kind::Element).then_some(NodeId(i as u32)))
    }

    /// All live elements of one hierarchy, in arena order.
    pub fn elements_in(&self, h: HierarchyId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().enumerate().filter_map(move |(i, d)| {
            (d.alive && d.kind == Kind::Element && d.hierarchy == h).then_some(NodeId(i as u32))
        })
    }

    /// Live element count.
    pub fn element_count(&self) -> usize {
        self.elements().count()
    }

    /// Total arena slots (live + tombstoned); ids are `0..arena_len`.
    pub fn arena_len(&self) -> usize {
        self.nodes.len()
    }

    /// A deterministic total document order over nodes:
    /// by span start ascending, span end descending (outer first), then
    /// root < element < leaf, then hierarchy id, then node id.
    ///
    /// Within one hierarchy this coincides with XML document order; across
    /// hierarchies it gives the stable interleaving the Extended XPath
    /// evaluator sorts node-sets by.
    pub fn doc_order_key(&self, n: NodeId) -> (u32, i64, u8, u16, u32) {
        let span = self.span(n);
        let d = self.data(n);
        let (kind_rank, h) = match d.kind {
            Kind::Root => (0, 0),
            Kind::Element => (1, d.hierarchy.0),
            Kind::Leaf => (2, 0),
        };
        (span.start, -(span.end as i64), kind_rank, h, n.0)
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
