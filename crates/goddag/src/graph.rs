//! The GODDAG (Generalized Ordered-Descendant Directed Acyclic Graph).
//!
//! One shared root, one shared ordered sequence of text leaves, and one
//! element tree per hierarchy in between (paper §3; Sperberg-McQueen &
//! Huitfeldt 2000). This module holds the node arena and core accessors;
//! navigation lives in [`crate::navigate`], mutation in [`crate::edit`].

use crate::error::{GoddagError, Result};
use crate::ids::{HierarchyId, NodeId};
use crate::span::Span;
use xmlcore::event::find_attr;
use xmlcore::{Attribute, QName};

/// What a node is.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// The shared root. Carries the common root element name of all the
    /// hierarchy encodings (the paper's `<r>`).
    Root { name: QName, attrs: Vec<Attribute> },
    /// A markup element belonging to exactly one hierarchy.
    Element { name: QName, attrs: Vec<Attribute>, hierarchy: HierarchyId },
    /// A shared text fragment. Leaves partition the document content; the
    /// borders are the union of markup positions from all hierarchies
    /// (paper §3).
    Leaf { text: String },
}

/// Arena slot.
#[derive(Debug, Clone)]
pub(crate) struct NodeData {
    pub(crate) kind: NodeKind,
    /// For elements: the unique parent in their own hierarchy (an element of
    /// the same hierarchy, or the root). `None` for root and leaves.
    pub(crate) parent: Option<NodeId>,
    /// For elements: ordered children (same-hierarchy elements and leaves).
    /// Empty for leaves. The root's per-hierarchy children live in
    /// `Goddag::root_children`.
    pub(crate) children: Vec<NodeId>,
    /// For leaves: parent per hierarchy (`leaf_parents[h]` = deepest element
    /// of hierarchy `h` directly containing the leaf, or the root).
    pub(crate) leaf_parents: Vec<NodeId>,
    /// Leaf-index span. Leaves: `[i, i+1)`. Elements: cover of children,
    /// maintained by `Goddag::renumber`.
    pub(crate) span: Span,
    /// Char (byte) offset of this leaf's text within the whole content
    /// (leaves only; maintained by `renumber`).
    pub(crate) char_start: usize,
    /// Tombstone flag; ids are never reused.
    pub(crate) alive: bool,
}

impl NodeData {
    /// A live node of `kind`, not wired yet: no parent, children or span.
    pub(crate) fn new(kind: NodeKind) -> NodeData {
        NodeData {
            kind,
            parent: None,
            children: Vec::new(),
            leaf_parents: Vec::new(),
            span: Span::empty_at(0),
            char_start: 0,
            alive: true,
        }
    }

    /// A dead placeholder for an arena slot no live node occupies.
    pub(crate) fn tombstone() -> NodeData {
        NodeData { alive: false, ..NodeData::new(NodeKind::Leaf { text: String::new() }) }
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
    /// Total content length in bytes.
    pub(crate) content_len: usize,
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
        Goddag {
            nodes: vec![NodeData::new(NodeKind::Root { name: root_name, attrs: Vec::new() })],
            root: NodeId(0),
            leaves: Vec::new(),
            root_children: Vec::new(),
            hierarchies: Vec::new(),
            content_len: 0,
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
        self.hierarchies.push(Hierarchy { name: name.into(), dtd: None });
        // The new hierarchy sees all current leaves as root children.
        self.root_children.push(self.leaves.clone());
        for &leaf in &self.leaves.clone() {
            self.nodes[leaf.idx()].leaf_parents.push(self.root);
        }
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

    pub(crate) fn data(&self, n: NodeId) -> &NodeData {
        &self.nodes[n.idx()]
    }

    pub(crate) fn data_mut(&mut self, n: NodeId) -> &mut NodeData {
        &mut self.nodes[n.idx()]
    }

    /// The shared root.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Is the id live?
    pub fn is_alive(&self, n: NodeId) -> bool {
        self.nodes.get(n.idx()).is_some_and(|d| d.alive)
    }

    /// Ensure the node is live.
    pub fn check_alive(&self, n: NodeId) -> Result<()> {
        if self.is_alive(n) {
            Ok(())
        } else {
            Err(GoddagError::DeadNode(n))
        }
    }

    /// Node kind.
    pub fn kind(&self, n: NodeId) -> &NodeKind {
        &self.data(n).kind
    }

    /// True for element nodes.
    pub fn is_element(&self, n: NodeId) -> bool {
        matches!(self.data(n).kind, NodeKind::Element { .. })
    }

    /// True for leaf (text) nodes.
    pub fn is_leaf(&self, n: NodeId) -> bool {
        matches!(self.data(n).kind, NodeKind::Leaf { .. })
    }

    /// True for the root.
    pub fn is_root(&self, n: NodeId) -> bool {
        n == self.root
    }

    /// Element or root name.
    pub fn name(&self, n: NodeId) -> Option<&QName> {
        match &self.data(n).kind {
            NodeKind::Root { name, .. } | NodeKind::Element { name, .. } => Some(name),
            NodeKind::Leaf { .. } => None,
        }
    }

    /// Attributes of an element or the root.
    pub fn attrs(&self, n: NodeId) -> &[Attribute] {
        match &self.data(n).kind {
            NodeKind::Root { attrs, .. } | NodeKind::Element { attrs, .. } => attrs,
            NodeKind::Leaf { .. } => &[],
        }
    }

    /// Attribute lookup by full name.
    pub fn attr(&self, n: NodeId, name: &str) -> Option<&str> {
        find_attr(self.attrs(n), name)
    }

    /// The hierarchy an element belongs to (None for root/leaves).
    pub fn hierarchy_of(&self, n: NodeId) -> Option<HierarchyId> {
        match self.data(n).kind {
            NodeKind::Element { hierarchy, .. } => Some(hierarchy),
            _ => None,
        }
    }

    /// Leaf text.
    pub fn leaf_text(&self, n: NodeId) -> Option<&str> {
        match &self.data(n).kind {
            NodeKind::Leaf { text } => Some(text),
            _ => None,
        }
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

    /// Concatenated text content of a node.
    pub fn text_of(&self, n: NodeId) -> String {
        if let NodeKind::Leaf { text } = &self.data(n).kind {
            return text.clone();
        }
        let mut out = String::new();
        for &leaf in self.leaves_of(n) {
            if let NodeKind::Leaf { text } = &self.data(leaf).kind {
                out.push_str(text);
            }
        }
        out
    }

    /// The whole document content.
    pub fn content(&self) -> String {
        self.text_of(self.root)
    }

    /// Total content length in bytes.
    pub fn content_len(&self) -> usize {
        self.content_len
    }

    /// Byte range of the content a node covers: `(start, end)`.
    pub fn char_range(&self, n: NodeId) -> (usize, usize) {
        let span = self.span(n);
        if span.is_empty() {
            let at = self
                .leaves
                .get(span.start as usize)
                .map(|&l| self.data(l).char_start)
                .unwrap_or(self.content_len);
            return (at, at);
        }
        let first = self.leaves[span.start as usize];
        let last = self.leaves[span.end as usize - 1];
        let last_d = self.data(last);
        let last_len = match &last_d.kind {
            NodeKind::Leaf { text } => text.len(),
            _ => 0,
        };
        (self.data(first).char_start, last_d.char_start + last_len)
    }

    /// Is byte offset `off` within the content and on a UTF-8 character
    /// boundary? Binary search over the frontier, then a check inside one
    /// leaf — the content is never materialised.
    pub fn is_char_boundary(&self, off: usize) -> bool {
        if off >= self.content_len {
            return off == self.content_len;
        }
        self.leaf_at_char(off).is_some_and(|l| {
            let text = self.leaf_text(l).unwrap_or_default();
            text.is_char_boundary(off - self.data(l).char_start)
        })
    }

    /// The leaf containing byte offset `off` (the leaf whose char range
    /// includes `off`; offsets on a boundary resolve to the following leaf).
    pub fn leaf_at_char(&self, off: usize) -> Option<NodeId> {
        if off >= self.content_len {
            return self.leaves.last().copied().filter(|_| off == 0 && self.content_len == 0);
        }
        let idx = self.leaves.partition_point(|&l| {
            let d = self.data(l);
            let len = match &d.kind {
                NodeKind::Leaf { text } => text.len(),
                _ => 0,
            };
            d.char_start + len <= off
        });
        self.leaves.get(idx).copied()
    }

    // ------------------------------------------------------------------
    // Counting / iteration over the arena
    // ------------------------------------------------------------------

    /// All live element ids, in arena order.
    pub fn elements(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().enumerate().filter_map(|(i, d)| {
            (d.alive && matches!(d.kind, NodeKind::Element { .. })).then_some(NodeId(i as u32))
        })
    }

    /// All live elements of one hierarchy, in arena order.
    pub fn elements_in(&self, h: HierarchyId) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes.iter().enumerate().filter_map(move |(i, d)| match d.kind {
            NodeKind::Element { hierarchy, .. } if d.alive && hierarchy == h => {
                Some(NodeId(i as u32))
            }
            _ => None,
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
        let kind_rank = match self.data(n).kind {
            NodeKind::Root { .. } => 0,
            NodeKind::Element { .. } => 1,
            NodeKind::Leaf { .. } => 2,
        };
        let h = self.hierarchy_of(n).map_or(0, |h| h.0);
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
