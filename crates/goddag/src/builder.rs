//! Range-based GODDAG construction.
//!
//! The builder takes the document content plus a set of *ranges* — `(hierarchy,
//! tag, attributes, byte start, byte end)` — and produces the GODDAG: leaves at
//! every markup boundary, one element tree per hierarchy, all united at the
//! shared root and the shared leaf frontier (paper §3). Ranges from different
//! hierarchies may overlap arbitrarily; ranges within one hierarchy must nest
//! properly, which the builder enforces.
//!
//! This is the backend of the SACX parser: every surface representation
//! (distributed documents, fragmentation, milestones, stand-off) reduces to a
//! range set.
//!
//! By default nodes get fresh ids: the root, then the leaves in frontier
//! order, then one element per range in the order ranges were added. A
//! durable store restoring a snapshot instead hands over the recorded
//! [`Layout`] — the frontier (which may hold more boundaries than the ranges
//! imply, left by past splits), the id of every leaf and range, and the
//! arena length — and the document is built straight into those slots, with
//! tombstones in the slots no node claims. The result is id-for-id the
//! captured document, so logged edits naming pre-crash ids replay onto it
//! and future edits mint the same ids.
//!
//! Either way every table is filled in one pass: the sorted boundaries are
//! the leaf table's offsets, each range is one element row, and each
//! hierarchy's sweep writes its column of leaf parents.

use crate::error::{GoddagError, Result};
use crate::graph::{Goddag, Slot, MAX_CONTENT};
use crate::ids::{HierarchyId, NodeId};
use xmlcore::{Attribute, QName};

/// A recorded node-id layout to build into (see [`GoddagBuilder::layout`]).
#[derive(Debug, Clone)]
pub struct Layout {
    /// Arena length: ids are `0..arena_len`, and future edits allocate from
    /// here.
    pub arena_len: usize,
    /// `(id, byte offset)` of every leaf, in frontier order. The offsets
    /// are the whole boundary set: strictly ascending from 0 (none for empty
    /// content), and every range endpoint must be one of them or the
    /// content end.
    pub leaves: Vec<(NodeId, usize)>,
    /// The id of each range, in the order the ranges were added. Ids are
    /// distinct, below `arena_len`, and never the root's 0.
    pub elements: Vec<NodeId>,
}

/// One markup range to place over the content.
#[derive(Debug, Clone)]
pub struct RangeSpec {
    /// Owning hierarchy.
    pub hierarchy: HierarchyId,
    /// Element name.
    pub name: QName,
    /// Element attributes.
    pub attrs: Vec<Attribute>,
    /// Byte offset of the first covered byte.
    pub start: usize,
    /// Byte offset one past the last covered byte (`start == end` makes an
    /// empty element / milestone).
    pub end: usize,
}

/// Builder for [`Goddag`] documents.
#[derive(Debug, Clone)]
pub struct GoddagBuilder {
    root_name: QName,
    root_attrs: Vec<Attribute>,
    content: String,
    hierarchies: Vec<String>,
    ranges: Vec<RangeSpec>,
    layout: Option<Layout>,
}

impl GoddagBuilder {
    /// Start building a document whose shared root element is `root_name`.
    pub fn new(root_name: QName) -> GoddagBuilder {
        GoddagBuilder {
            root_name,
            root_attrs: Vec::new(),
            content: String::new(),
            hierarchies: Vec::new(),
            ranges: Vec::new(),
            layout: None,
        }
    }

    /// Build into a recorded id layout instead of fresh ids (see the
    /// module docs). [`GoddagBuilder::finish`] checks the layout against
    /// the content and ranges and fails, rather than panics, on any
    /// mismatch.
    pub fn layout(&mut self, layout: Layout) -> &mut Self {
        self.layout = Some(layout);
        self
    }

    /// Set attributes on the shared root.
    pub fn root_attrs(&mut self, attrs: Vec<Attribute>) -> &mut Self {
        self.root_attrs = attrs;
        self
    }

    /// Set the document content (the text all hierarchies annotate).
    pub fn content(&mut self, content: impl Into<String>) -> &mut Self {
        self.content = content.into();
        self
    }

    /// Register a hierarchy.
    pub fn hierarchy(&mut self, name: impl Into<String>) -> HierarchyId {
        self.hierarchies.push(name.into());
        HierarchyId(self.hierarchies.len() as u16 - 1)
    }

    /// Add a markup range. Ranges added earlier are *outer* when two ranges
    /// in the same hierarchy share the same span.
    pub fn range(
        &mut self,
        hierarchy: HierarchyId,
        name: &str,
        attrs: Vec<Attribute>,
        start: usize,
        end: usize,
    ) -> Result<&mut Self> {
        let name = QName::parse(name)
            .map_err(|_| GoddagError::Edit(format!("invalid element name {name:?}")))?;
        self.ranges.push(RangeSpec { hierarchy, name, attrs, start, end });
        Ok(self)
    }

    /// Add a pre-built [`RangeSpec`].
    pub fn range_spec(&mut self, spec: RangeSpec) -> &mut Self {
        self.ranges.push(spec);
        self
    }

    /// Build the GODDAG.
    pub fn finish(self) -> Result<Goddag> {
        let GoddagBuilder { root_name, root_attrs, content, hierarchies, mut ranges, layout } =
            self;
        let mut g = Goddag::new(root_name);
        let nhier = hierarchies.len();
        for name in hierarchies {
            g.add_hierarchy(name);
        }

        // Validate ranges.
        let len = content.len();
        if len > MAX_CONTENT {
            return Err(GoddagError::Edit(format!("content exceeds {MAX_CONTENT} bytes")));
        }
        for r in &ranges {
            if r.hierarchy.idx() >= nhier {
                return Err(GoddagError::NoSuchHierarchy(r.hierarchy));
            }
            if r.start > r.end
                || r.end > len
                || !content.is_char_boundary(r.start)
                || !content.is_char_boundary(r.end)
            {
                return Err(GoddagError::RangeOutOfBounds { start: r.start, end: r.end, len });
            }
        }

        // Boundaries: content ends, every range endpoint and every recorded
        // leaf start. Sorted, they are the leaf table's offsets.
        let recorded = layout.as_ref().map_or(&[][..], |l| &l.leaves[..]);
        if let Some(&(_, off)) = recorded.iter().find(|&&(_, off)| !content.is_char_boundary(off)) {
            return Err(GoddagError::RangeOutOfBounds { start: off, end: off, len });
        }
        let mut boundaries: Vec<u32> = Vec::with_capacity(ranges.len() * 2 + recorded.len() + 2);
        boundaries.extend([0, len as u32]);
        for r in &ranges {
            boundaries.extend([r.start as u32, r.end as u32]);
        }
        boundaries.extend(recorded.iter().map(|&(_, off)| off as u32));
        boundaries.sort_unstable();
        boundaries.dedup();
        boundaries.shrink_to_fit();

        // Node ids: the root, the leaves, then the elements in range order —
        // or the recorded layout, in an id table pre-filled with tombstones.
        // Either way the table is sized once, to exactly what it holds.
        let (leaf_ids, elem_ids) = match layout {
            None => {
                let first_elem = boundaries.len() as u32;
                let elem_ids = (first_elem..).take(ranges.len()).map(NodeId).collect();
                g.slots.reserve_exact(first_elem as usize + ranges.len() - g.slots.len());
                ((1..first_elem).map(NodeId).collect(), elem_ids)
            }
            Some(layout) => layout.into_ids(&mut g, &boundaries, ranges.len())?,
        };
        // Fresh ids are consecutive and arrive in order; recorded ones land
        // in their pre-sized records.
        let place = |g: &mut Goddag, id: NodeId, d: Slot| match g.slots.get_mut(id.idx()) {
            Some(slot) => *slot = d,
            None => {
                g.push_slot(d);
            }
        };

        // The leaf table: one leaf between consecutive boundaries, every
        // parent the root until the sweeps say otherwise.
        g.content = content;
        for (i, &id) in leaf_ids.iter().enumerate() {
            place(&mut g, id, Slot::leaf(i));
        }
        g.leaf_parents = vec![g.root; leaf_ids.len() * nhier];
        g.leaves = leaf_ids;
        g.offsets = boundaries;

        // Element records and rows up front (parents and children wired in
        // the sweep); row `i` is range `i`'s.
        let (count, bytes) = (ranges.iter().flat_map(|r| &r.attrs))
            .chain(&root_attrs)
            .fold((0, 0), |(n, b), a| (n + 1, b + a.value.len()));
        g.attrs.reserve(count, bytes)?;
        for a in &root_attrs {
            let name = g.names.intern(&a.name);
            g.attrs.push(g.root, name, &a.value);
        }
        g.children.reserve_exact(ranges.len());
        g.parents.reserve_exact(ranges.len());
        for (r, &id) in ranges.iter_mut().zip(&elem_ids) {
            let name = g.names.intern(&r.name);
            let slot = g.element_slot(name, r.hierarchy, g.root, Vec::new());
            place(&mut g, id, slot);
            for a in std::mem::take(&mut r.attrs) {
                let name = g.names.intern(&a.name);
                g.attrs.push(id, name, &a.value);
            }
        }
        // Fresh ids arrive in order; a recorded layout's may not.
        g.attrs.sort();
        g.index_attrs();

        // Sweep each hierarchy.
        for h in 0..nhier {
            sweep_hierarchy(&mut g, HierarchyId(h as u16), &ranges, &elem_ids)?;
        }
        // Child lists grew by pushes; give back the slack.
        for list in g.children.iter_mut().chain(&mut g.root_children) {
            list.shrink_to_fit();
        }

        g.renumber();
        Ok(g)
    }
}

impl Layout {
    /// Check the layout against the boundaries the build derived (the
    /// recorded leaf starts must be all of them but the content end), size
    /// `g`'s id table to it, and split it into leaf and element ids: one
    /// per leaf and range, distinct, inside the table, never the root's.
    fn into_ids(
        self,
        g: &mut Goddag,
        boundaries: &[u32],
        nranges: usize,
    ) -> Result<(Vec<NodeId>, Vec<NodeId>)> {
        let err = |detail: String| Err(GoddagError::Edit(format!("layout: {detail}")));
        let Layout { arena_len, leaves, elements } = self;
        let frontier = &boundaries[..boundaries.len() - 1];
        if !leaves.iter().map(|&(_, off)| off).eq(frontier.iter().map(|&b| b as usize)) {
            return err(format!("{} recorded leaves, {} boundaries", leaves.len(), frontier.len()));
        }
        if elements.len() != nranges {
            return err(format!("{} element ids for {nranges} ranges", elements.len()));
        }
        let leaf_ids: Vec<NodeId> = leaves.into_iter().map(|(id, _)| id).collect();
        let mut seen = vec![false; arena_len];
        for &id in [g.root()].iter().chain(&leaf_ids).chain(&elements) {
            match seen.get_mut(id.idx()) {
                Some(seen) if !*seen => *seen = true,
                _ => return err(format!("id {id} is the root's, taken, or outside {arena_len}")),
            }
        }
        g.resize_ids(arena_len);
        Ok((leaf_ids, elements))
    }
}

/// Event classes at one boundary offset, in processing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EvClass {
    End = 0,
    Empty = 1,
    Start = 2,
}

#[derive(Debug, Clone, Copy)]
struct Ev {
    offset: usize,
    class: EvClass,
    /// Range index into `ranges` / `elem_ids`.
    range: usize,
}

fn sweep_hierarchy(
    g: &mut Goddag,
    hid: HierarchyId,
    ranges: &[RangeSpec],
    elem_ids: &[NodeId],
) -> Result<()> {
    // Collect events for this hierarchy.
    let mut events: Vec<Ev> = Vec::new();
    for (i, r) in ranges.iter().enumerate() {
        if r.hierarchy != hid {
            continue;
        }
        if r.start == r.end {
            events.push(Ev { offset: r.start, class: EvClass::Empty, range: i });
        } else {
            events.push(Ev { offset: r.start, class: EvClass::Start, range: i });
            events.push(Ev { offset: r.end, class: EvClass::End, range: i });
        }
    }
    events.sort_by(|a, b| {
        (a.offset, a.class).cmp(&(b.offset, b.class)).then_with(|| match a.class {
            // Inner ranges end first: larger start, then later insertion.
            EvClass::End => {
                ranges[b.range].start.cmp(&ranges[a.range].start).then(b.range.cmp(&a.range))
            }
            // Milestones keep id order: insertion order for fresh ids, and
            // for a recorded layout the order stand-off export lists
            // same-depth milestones in, so a restored document re-exports
            // the same way.
            EvClass::Empty => elem_ids[a.range].cmp(&elem_ids[b.range]),
            // Outer ranges start first: larger end, then earlier insertion.
            EvClass::Start => {
                ranges[b.range].end.cmp(&ranges[a.range].end).then(a.range.cmp(&b.range))
            }
        })
    });

    let root = g.root();
    let nhier = g.hierarchies.len();
    // Stack entries: (node, range index — its row — or usize::MAX for root).
    let mut stack: Vec<(NodeId, usize)> = vec![(root, usize::MAX)];
    let mut ev_i = 0usize;

    // Append a child to the top of the stack; returns the top.
    let attach = |g: &mut Goddag, stack: &[(NodeId, usize)], child: NodeId| {
        let &(top, row) = stack.last().expect("stack never empty");
        if top == root {
            g.root_children[hid.idx()].push(child);
        } else {
            g.children[row].push(child);
        }
        top
    };

    for bi in 0..g.offsets.len() {
        let b = g.offsets[bi] as usize;
        while ev_i < events.len() && events[ev_i].offset == b {
            let ev = events[ev_i];
            ev_i += 1;
            let eid = elem_ids[ev.range];
            match ev.class {
                EvClass::End => {
                    let (top, top_range) = *stack.last().expect("stack never empty");
                    if top != eid {
                        // Crossing within the hierarchy: the element on top
                        // started inside `ev.range` but ends after it.
                        let (ta, tb) = if top_range == usize::MAX {
                            ("<root>".to_string(), (0, g.content.len()))
                        } else {
                            (
                                ranges[top_range].name.to_string(),
                                (ranges[top_range].start, ranges[top_range].end),
                            )
                        };
                        return Err(GoddagError::CrossingInHierarchy {
                            hierarchy: hid,
                            tag_a: ranges[ev.range].name.to_string(),
                            span_a: (ranges[ev.range].start, ranges[ev.range].end),
                            tag_b: ta,
                            span_b: tb,
                        });
                    }
                    stack.pop();
                }
                EvClass::Empty => {
                    g.parents[ev.range] = attach(g, &stack, eid);
                }
                EvClass::Start => {
                    g.parents[ev.range] = attach(g, &stack, eid);
                    stack.push((eid, ev.range));
                }
            }
        }
        // The leaf starting at this boundary (if any) joins the open element.
        if let Some(&leaf) = g.leaves.get(bi) {
            g.leaf_parents[bi * nhier + hid.idx()] = attach(g, &stack, leaf);
        }
    }

    if stack.len() != 1 {
        // Should be impossible: every non-empty range emits both events and
        // end offsets are all in `boundaries`.
        let (_, r) = stack[stack.len() - 1];
        return Err(GoddagError::Edit(format!(
            "internal: unterminated range <{}>",
            ranges[r].name
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::NodeKind;
    use crate::span::Span;

    fn q(s: &str) -> QName {
        QName::parse(s).unwrap()
    }

    /// Two hierarchies over "abcdef": phys line covers abcd, ling word covers
    /// cdef — the classic overlap.
    fn overlap_doc() -> Goddag {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("abcdef");
        let phys = b.hierarchy("phys");
        let ling = b.hierarchy("ling");
        b.range(phys, "line", vec![], 0, 4).unwrap();
        b.range(ling, "w", vec![], 2, 6).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn leaves_partition_content() {
        let g = overlap_doc();
        // boundaries 0,2,4,6 -> leaves ab, cd, ef
        assert_eq!(g.leaf_count(), 3);
        let texts: Vec<_> =
            g.leaves().iter().map(|&l| g.leaf_text(l).unwrap().to_string()).collect();
        assert_eq!(texts, ["ab", "cd", "ef"]);
        assert_eq!(g.content(), "abcdef");
        assert_eq!(g.content_len(), 6);
    }

    #[test]
    fn spans_computed() {
        let g = overlap_doc();
        let line = g.elements_in(HierarchyId(0)).next().unwrap();
        let w = g.elements_in(HierarchyId(1)).next().unwrap();
        assert_eq!(g.span(line), Span::new(0, 2));
        assert_eq!(g.span(w), Span::new(1, 3));
        assert!(g.span(line).overlaps(g.span(w)));
        assert_eq!(g.text_of(line), "abcd");
        assert_eq!(g.text_of(w), "cdef");
    }

    #[test]
    fn leaf_is_shared_between_hierarchies() {
        let g = overlap_doc();
        let line = g.elements_in(HierarchyId(0)).next().unwrap();
        let w = g.elements_in(HierarchyId(1)).next().unwrap();
        // Middle leaf "cd" belongs to both elements.
        let cd = g.leaves()[1];
        assert!(g.leaves_of(line).contains(&cd));
        assert!(g.leaves_of(w).contains(&cd));
        // And its per-hierarchy parents are exactly those elements.
        assert_eq!(g.leaf_parents_of(g.data(cd)), [line, w]);
    }

    #[test]
    fn root_children_per_hierarchy() {
        let g = overlap_doc();
        let line = g.elements_in(HierarchyId(0)).next().unwrap();
        let w = g.elements_in(HierarchyId(1)).next().unwrap();
        // phys: [line, leaf "ef"]; ling: [leaf "ab", w]
        assert_eq!(g.root_children[0], vec![line, g.leaves()[2]]);
        assert_eq!(g.root_children[1], vec![g.leaves()[0], w]);
    }

    #[test]
    fn crossing_within_hierarchy_rejected() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("abcdef");
        let h = b.hierarchy("one");
        b.range(h, "a", vec![], 0, 4).unwrap();
        b.range(h, "b", vec![], 2, 6).unwrap();
        let err = b.finish().unwrap_err();
        assert!(matches!(err, GoddagError::CrossingInHierarchy { .. }), "{err}");
    }

    #[test]
    fn nesting_within_hierarchy_ok() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("abcdef");
        let h = b.hierarchy("one");
        b.range(h, "outer", vec![], 0, 6).unwrap();
        b.range(h, "inner", vec![], 2, 4).unwrap();
        let g = b.finish().unwrap();
        let outer = g.elements().find(|&e| g.name(e).unwrap().local == "outer").unwrap();
        let inner = g.elements().find(|&e| g.name(e).unwrap().local == "inner").unwrap();
        assert_eq!(g.parent_in(inner, h), Some(outer));
        // outer's children: leaf ab, inner, leaf ef
        assert_eq!(g.element_children(outer).len(), 3);
        assert_eq!(g.element_children(outer)[1], inner);
    }

    #[test]
    fn equal_spans_insertion_order_outer_first() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("abc");
        let h = b.hierarchy("one");
        b.range(h, "outer", vec![], 0, 3).unwrap();
        b.range(h, "inner", vec![], 0, 3).unwrap();
        let g = b.finish().unwrap();
        let outer = g.elements().find(|&e| g.name(e).unwrap().local == "outer").unwrap();
        let inner = g.elements().find(|&e| g.name(e).unwrap().local == "inner").unwrap();
        assert_eq!(g.parent_in(inner, h), Some(outer));
        assert_eq!(g.parent_in(outer, h), Some(g.root()));
    }

    #[test]
    fn empty_element_anchored() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("abcd");
        let h = b.hierarchy("phys");
        b.range(h, "line", vec![], 0, 4).unwrap();
        b.range(h, "pb", vec![], 2, 2).unwrap();
        let g = b.finish().unwrap();
        let pb = g.elements().find(|&e| g.name(e).unwrap().local == "pb").unwrap();
        assert!(g.span(pb).is_empty());
        assert_eq!(g.span(pb).start, 1); // between leaf 0 (ab) and leaf 1 (cd)
        assert_eq!(g.char_range(pb), (2, 2));
        // pb sits inside line's child list between the two leaves.
        let line = g.elements().find(|&e| g.name(e).unwrap().local == "line").unwrap();
        let children = g.element_children(line);
        assert_eq!(children.len(), 3);
        assert_eq!(children[1], pb);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("ab");
        let h = b.hierarchy("x");
        b.range(h, "a", vec![], 0, 5).unwrap();
        assert!(matches!(b.finish(), Err(GoddagError::RangeOutOfBounds { .. })));
    }

    #[test]
    fn non_char_boundary_rejected() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("æb"); // 'æ' is two bytes
        let h = b.hierarchy("x");
        b.range(h, "a", vec![], 1, 2).unwrap();
        assert!(matches!(b.finish(), Err(GoddagError::RangeOutOfBounds { .. })));
    }

    #[test]
    fn empty_content_document() {
        let mut b = GoddagBuilder::new(q("r"));
        let h = b.hierarchy("x");
        b.range(h, "pb", vec![], 0, 0).unwrap();
        let g = b.finish().unwrap();
        assert_eq!(g.leaf_count(), 0);
        assert_eq!(g.element_count(), 1);
    }

    #[test]
    fn no_hierarchies_plain_text() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("hello");
        let g = b.finish().unwrap();
        assert_eq!(g.leaf_count(), 1);
        assert_eq!(g.content(), "hello");
    }

    #[test]
    fn attrs_preserved() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("ab");
        let h = b.hierarchy("x");
        b.range(h, "w", vec![Attribute::new("id", "w1")], 0, 2).unwrap();
        let g = b.finish().unwrap();
        let w = g.elements().next().unwrap();
        assert_eq!(g.attr(w, "id"), Some("w1"));
    }

    #[test]
    fn many_hierarchies_independent() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("0123456789");
        let hs: Vec<_> = (0..5).map(|i| b.hierarchy(format!("h{i}"))).collect();
        for (i, &h) in hs.iter().enumerate() {
            // Each hierarchy covers a shifted window — pairwise overlapping.
            b.range(h, "e", vec![], i, i + 5).unwrap();
        }
        let g = b.finish().unwrap();
        assert_eq!(g.element_count(), 5);
        let elems: Vec<_> = g.elements().collect();
        for (i, &a) in elems.iter().enumerate() {
            for &b2 in &elems[i + 1..] {
                assert!(g.span(a).intersects(g.span(b2)));
            }
        }
    }

    #[test]
    fn adjacent_ranges_share_boundary() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("abcd");
        let h = b.hierarchy("x");
        b.range(h, "a", vec![], 0, 2).unwrap();
        b.range(h, "b", vec![], 2, 4).unwrap();
        let g = b.finish().unwrap();
        let a = g.elements().find(|&e| g.name(e).unwrap().local == "a").unwrap();
        let bb = g.elements().find(|&e| g.name(e).unwrap().local == "b").unwrap();
        assert!(g.span(a).precedes(g.span(bb)));
        assert_eq!(g.root_children[0], vec![a, bb]);
    }

    /// `overlap_doc` into a sparse layout with an extra boundary at 1.
    fn sparse_layout() -> Layout {
        let leaves = vec![(NodeId(9), 0), (NodeId(3), 1), (NodeId(5), 2), (NodeId(7), 4)];
        Layout { arena_len: 12, leaves, elements: vec![NodeId(11), NodeId(2)] }
    }

    fn build_overlap(layout: Layout) -> Result<Goddag> {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("abcdef");
        let phys = b.hierarchy("phys");
        let ling = b.hierarchy("ling");
        b.range(phys, "line", vec![], 0, 4).unwrap();
        b.range(ling, "w", vec![], 2, 6).unwrap();
        b.layout(layout);
        b.finish()
    }

    #[test]
    fn layout_places_nodes_in_recorded_slots() {
        let mut g = build_overlap(sparse_layout()).unwrap();
        crate::validate::check_invariants(&g).unwrap();
        assert_eq!(g.arena_len(), 12);
        assert_eq!(g.leaves(), [NodeId(9), NodeId(3), NodeId(5), NodeId(7)]);
        assert_eq!(g.leaf_text(NodeId(3)), Some("b"));
        assert_eq!(g.name(NodeId(11)).unwrap().local, "line");
        assert_eq!(g.text_of(NodeId(2)), "cdef");
        assert_eq!(g.parent_in(NodeId(3), HierarchyId(0)), Some(NodeId(11)));
        assert_eq!(g.parent_in(NodeId(3), HierarchyId(1)), Some(g.root()));
        assert!(!g.is_alive(NodeId(1)) && !g.is_alive(NodeId(10)));
        // Future allocations start at the recorded arena length.
        let e = g.insert_element(HierarchyId(0), q("seg"), vec![], 0, 1).unwrap();
        assert_eq!(e, NodeId(12));
    }

    #[test]
    fn layout_mismatches_are_errors() {
        let cases: [fn(&mut Layout); 8] = [
            |l| l.leaves.retain(|&(_, off)| off != 2), // a range endpoint
            |l| l.leaves[1].1 = 5,                     // not ascending
            |l| l.leaves[0].1 = 1,                     // not from 0
            |l| l.leaves.push((NodeId(8), 6)),         // at the content end
            |l| l.elements.truncate(1),                // count mismatch
            |l| l.elements[1] = NodeId(9),             // duplicate
            |l| l.elements[1] = NodeId(0),             // the root's id
            |l| l.arena_len = 11,                      // id 11 outside
        ];
        for (i, corrupt) in cases.iter().enumerate() {
            let mut layout = sparse_layout();
            corrupt(&mut layout);
            assert!(build_overlap(layout).is_err(), "case {i}");
        }
        assert!(build_overlap(sparse_layout()).is_ok());
    }

    #[test]
    fn whole_document_range() {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("text");
        let h = b.hierarchy("x");
        b.range(h, "all", vec![], 0, 4).unwrap();
        let g = b.finish().unwrap();
        let all = g.elements().next().unwrap();
        assert_eq!(g.span(all), Span::new(0, 1));
        assert_eq!(g.text_of(all), "text");
        assert!(matches!(g.kind(g.leaves()[0]), NodeKind::Leaf { .. }));
    }
}
