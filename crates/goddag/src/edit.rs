//! GODDAG mutation: the editing layer under xTagger (paper §4, "authoring").
//!
//! All operations preserve the GODDAG invariants (checked by
//! `validate::check_invariants` in tests):
//!
//! * [`Goddag::insert_element`] wraps a content range in new markup —
//!   overlap with *other* hierarchies is always legal, crossing markup in the
//!   *same* hierarchy is rejected ([`GoddagError::WouldCross`]);
//! * [`Goddag::remove_element`] splices an element out of its hierarchy;
//! * [`Goddag::split_leaf_at`] refines the shared leaf frontier;
//! * [`Goddag::insert_text`] / [`Goddag::delete_text`] edit the content under
//!   all hierarchies at once: they are the only operations that move bytes
//!   in the content buffer, and they shift the leaf offsets past the edit in
//!   one pass.

use crate::error::{GoddagError, Result};
use crate::graph::{Goddag, Kind, Slot, MAX_CONTENT, NIL};
use crate::ids::{HierarchyId, NodeId};
use crate::span::Span;
use xmlcore::{Attribute, QName};

impl Goddag {
    /// The boundary index (in leaves) corresponding to byte offset `off`:
    /// the number of leaves entirely before `off`. `off` must lie on a leaf
    /// boundary (use [`Goddag::split_leaf_at`] first to make it one).
    pub fn boundary_index(&self, off: usize) -> Option<u32> {
        u32::try_from(off)
            .ok()
            .and_then(|off| self.offsets.binary_search(&off).ok())
            .map(|i| i as u32)
    }

    fn check_offset(&self, off: usize) -> Result<()> {
        let len = self.content.len();
        let bad = GoddagError::RangeOutOfBounds { start: off, end: off, len };
        self.is_char_boundary(off).then_some(()).ok_or(bad)
    }

    /// Mutable access to the child list of `p` within hierarchy `h`.
    fn child_list_mut(&mut self, p: NodeId, h: HierarchyId) -> &mut Vec<NodeId> {
        if p == self.root {
            &mut self.root_children[h.idx()]
        } else {
            let row = self.data(p).row as usize;
            &mut self.children[row]
        }
    }

    /// Point child `c` of a list in hierarchy `h` at its new parent `p`.
    fn reparent(&mut self, c: NodeId, h: HierarchyId, p: NodeId) {
        let (kind, leaf, row) = (self.data(c).kind, self.data(c).span.start, self.data(c).row);
        match kind {
            Kind::Leaf => self.leaf_parents[leaf as usize * self.hierarchies.len() + h.idx()] = p,
            Kind::Element => self.parents[row as usize] = p,
            Kind::Root => unreachable!("root is never a child"),
        }
    }

    /// Take the leaves at places `range` out of the leaf table (offsets
    /// included) and out of every hierarchy's child list, and tombstone
    /// them. The content is untouched: the caller has emptied them, or
    /// hands their bytes to the leaf before.
    fn drop_leaves(&mut self, range: std::ops::Range<usize>) {
        let stride = self.hierarchies.len();
        let parents: Vec<NodeId> =
            self.leaf_parents.drain(range.start * stride..range.end * stride).collect();
        self.offsets.drain(range.clone());
        let dropped: Vec<NodeId> = self.leaves.drain(range).collect();
        for (k, &leaf) in dropped.iter().enumerate() {
            for (h, &p) in self.hierarchy_ids().zip(&parents[k * stride..]) {
                self.child_list_mut(p, h).retain(|&c| c != leaf);
            }
            self.data_mut(leaf).alive = false;
        }
    }

    /// Ensure a leaf boundary exists at byte offset `off`, splitting the
    /// containing leaf if needed. No-op when `off` already is a boundary.
    /// The content buffer is untouched: both halves keep tiling it.
    pub fn split_leaf_at(&mut self, off: usize) -> Result<()> {
        self.check_offset(off)?;
        if self.boundary_index(off).is_some() {
            return Ok(());
        }
        // The leaf containing off keeps the prefix; a new leaf right after
        // it takes the suffix, with the same parents.
        let i = self.leaf_index_at(off);
        let leaf = self.leaves[i];
        debug_assert!(self.offsets[i] < off as u32 && (off as u32) < self.offsets[i + 1]);
        self.offsets.insert(i + 1, off as u32);
        let new_leaf = self.push_slot(Slot::leaf(i + 1));
        self.leaves.insert(i + 1, new_leaf);
        let stride = self.hierarchies.len();
        let parents = self.leaf_parents[i * stride..(i + 1) * stride].to_vec();
        self.leaf_parents.splice((i + 1) * stride..(i + 1) * stride, parents.iter().copied());
        // Insert the new leaf right after the old one in every hierarchy.
        for (h, p) in self.hierarchy_ids().zip(parents) {
            let list = self.child_list_mut(p, h);
            let pos = list
                .iter()
                .position(|&c| c == leaf)
                .expect("leaf parent lists must contain the leaf");
            list.insert(pos + 1, new_leaf);
        }
        self.renumber();
        Ok(())
    }

    /// Insert a new element of hierarchy `h` covering content bytes
    /// `start..end`. `start == end` inserts an empty element (milestone).
    ///
    /// Fails with [`GoddagError::WouldCross`] when the range partially
    /// overlaps an existing element *of the same hierarchy*; overlap with
    /// other hierarchies is the normal case and always succeeds.
    pub fn insert_element(
        &mut self,
        h: HierarchyId,
        name: QName,
        attrs: Vec<Attribute>,
        start: usize,
        end: usize,
    ) -> Result<NodeId> {
        if h.idx() >= self.hierarchies.len() {
            return Err(GoddagError::NoSuchHierarchy(h));
        }
        if start > end {
            return Err(GoddagError::RangeOutOfBounds { start, end, len: self.content.len() });
        }
        self.check_offset(start)?;
        self.check_offset(end)?;
        self.attrs.room(attrs.iter().map(|a| a.value.len()).sum())?;
        self.split_leaf_at(start)?;
        self.split_leaf_at(end)?;
        let s = self.boundary_index(start).expect("split created boundary");
        let e = self.boundary_index(end).expect("split created boundary");
        let span = Span::new(s, e);

        // Find the host: deepest element of h containing the span.
        let host = self.host_in(h, span);

        // Partition the host's children into [kept-before, moved, kept-after]
        // and detect crossings.
        let children = self.children_in(host, h).to_vec();
        let mut moved: Vec<NodeId> = Vec::new();
        let mut insert_pos: Option<usize> = None;
        for (i, &c) in children.iter().enumerate() {
            let cspan = self.span(c);
            if cspan.is_empty() {
                // Milestones move only when strictly inside the new range.
                if s < cspan.start && cspan.start < e {
                    if insert_pos.is_none() {
                        insert_pos = Some(i);
                    }
                    moved.push(c);
                }
                continue;
            }
            if span.contains(cspan) {
                if insert_pos.is_none() {
                    insert_pos = Some(i);
                }
                moved.push(c);
            } else if cspan.intersects(span) {
                return Err(GoddagError::WouldCross {
                    hierarchy: h,
                    existing: c,
                    detail: format!(
                        "new range {span} partially overlaps sibling {} with span {cspan}",
                        self.name(c).map(|q| q.to_string()).unwrap_or_else(|| "leaf".into())
                    ),
                });
            }
        }
        // Empty insertion (no children moved): position before the first
        // child at-or-after the anchor.
        let insert_pos = insert_pos.unwrap_or_else(|| {
            children
                .iter()
                .position(|&c| {
                    self.span(c).start >= s && (!self.span(c).is_empty() || self.span(c).start > s)
                })
                .unwrap_or(children.len())
        });

        // Create the new element.
        let name = self.names.intern(&name);
        let slot = self.element_slot(name, h, host, moved.clone());
        let new_id = self.push_slot(Slot { span, ..slot });
        // The newest id owns the last group, so appending keeps the store
        // grouped.
        for a in &attrs {
            let name = self.names.intern(&a.name);
            self.attrs.push(new_id, name, &a.value);
        }

        // Re-parent moved nodes.
        for &c in &moved {
            self.reparent(c, h, new_id);
        }

        // Splice the host's child list.
        let list = self.child_list_mut(host, h);
        list.retain(|c| !moved.contains(c));
        let pos = insert_pos.min(list.len());
        list.insert(pos, new_id);

        self.renumber();
        Ok(new_id)
    }

    /// Remove an element, splicing its children into its parent. The content
    /// and all other hierarchies are untouched. Ids of other nodes remain
    /// valid; the removed id is tombstoned.
    pub fn remove_element(&mut self, e: NodeId) -> Result<()> {
        self.check_alive(e)?;
        let d = self.data(e);
        if d.kind != Kind::Element {
            return Err(if self.is_root(e) {
                GoddagError::CannotTouchRoot
            } else {
                GoddagError::NotAnElement(e)
            });
        }
        let (h, row) = (d.hierarchy, d.row as usize);
        let parent = std::mem::replace(&mut self.parents[row], NIL);
        let children = std::mem::take(&mut self.children[row]);
        // Re-parent grandchildren.
        for &c in &children {
            self.reparent(c, h, parent);
        }
        // Splice.
        let list = self.child_list_mut(parent, h);
        let pos = list.iter().position(|&c| c == e).expect("parent lists its child");
        list.splice(pos..=pos, children);
        // Tombstone.
        self.data_mut(e).alive = false;
        self.renumber();
        Ok(())
    }

    /// Rename an element (or the root).
    pub fn rename(&mut self, n: NodeId, new_name: QName) -> Result<()> {
        self.check_alive(n)?;
        if self.data(n).kind == Kind::Leaf {
            return Err(GoddagError::NotAnElement(n));
        }
        self.data_mut(n).name = self.names.intern(&new_name);
        self.bump_epoch();
        Ok(())
    }

    /// Set (or replace) an attribute on an element or the root.
    pub fn set_attr(&mut self, n: NodeId, name: &str, value: &str) -> Result<()> {
        self.check_alive(n)?;
        let qname = QName::parse(name)
            .map_err(|_| GoddagError::Edit(format!("invalid attribute name {name:?}")))?;
        if self.data(n).kind == Kind::Leaf {
            return Err(GoddagError::NotAnElement(n));
        }
        self.attrs.room(value.len())?;
        let name = self.names.intern(&qname);
        if self.attrs.set(self.data(n).attr_start, n, name, value) {
            self.shift_attr_groups_after(n, true);
        }
        self.bump_epoch();
        Ok(())
    }

    /// Remove an attribute; returns whether it existed.
    pub fn remove_attr(&mut self, n: NodeId, name: &str) -> Result<bool> {
        self.check_alive(n)?;
        if self.data(n).kind == Kind::Leaf {
            return Err(GoddagError::NotAnElement(n));
        }
        let changed = self.attrs.remove(&self.names, self.data(n).attr_start, n, name);
        if changed {
            self.shift_attr_groups_after(n, false);
            self.bump_epoch();
        }
        Ok(changed)
    }

    /// Insert text at byte offset `off`. The text lands in the leaf
    /// containing `off` (all hierarchies see it at once, since leaves are
    /// shared); no leaf index moves, so no span does.
    pub fn insert_text(&mut self, off: usize, text: &str) -> Result<()> {
        self.check_offset(off)?;
        if text.is_empty() {
            return Ok(());
        }
        if self.content.len() + text.len() > MAX_CONTENT {
            return Err(GoddagError::Edit(format!("content would exceed {MAX_CONTENT} bytes")));
        }
        self.content.insert_str(off, text);
        if self.leaves.is_empty() {
            // First content in an empty document: one leaf, a root child
            // in every hierarchy.
            let new_leaf = self.push_slot(Slot::leaf(0));
            self.leaves.push(new_leaf);
            self.offsets.push(text.len() as u32);
            self.leaf_parents.resize(self.hierarchies.len(), self.root);
            for list in &mut self.root_children {
                list.push(new_leaf);
            }
            self.renumber();
            return Ok(());
        }
        // Grow the leaf containing off (at the very end, the last): every
        // later offset moves by the text's length.
        let i = self.leaf_index_at(off).min(self.leaves.len() - 1);
        for o in &mut self.offsets[i + 1..] {
            *o += text.len() as u32;
        }
        self.bump_epoch();
        self.debug_check_tables();
        Ok(())
    }

    /// Delete the content bytes `start..end`. Leaves emptied by the deletion
    /// are removed from the frontier (and from every hierarchy); elements
    /// left without leaves become empty elements.
    pub fn delete_text(&mut self, start: usize, end: usize) -> Result<()> {
        if start > end {
            return Err(GoddagError::RangeOutOfBounds { start, end, len: self.content.len() });
        }
        self.check_offset(start)?;
        self.check_offset(end)?;
        if start == end {
            return Ok(());
        }
        self.content.replace_range(start..end, "");
        // One pass over the offsets: those inside the cut land on `start`,
        // those past it move back by its length.
        let (from, to, cut) = (start as u32, end as u32, (end - start) as u32);
        for o in &mut self.offsets {
            if *o >= to {
                *o -= cut;
            } else if *o > from {
                *o = from;
            }
        }
        // The leaves whose two offsets now meet were emptied: a run of
        // them starting at the first offset on `start`.
        let first = self.offsets.partition_point(|&o| o < from);
        let meeting = self.offsets[first..].iter().take_while(|&&o| o == from).count();
        if meeting > 1 {
            self.drop_leaves(first..first + meeting - 1);
            self.renumber();
        } else {
            self.bump_epoch();
            self.debug_check_tables();
        }
        Ok(())
    }

    /// Merge adjacent leaves that have identical parent sets — the inverse of
    /// leaf splitting, used by editors to keep the frontier minimal after
    /// markup removal. Returns the number of merges performed. The content
    /// buffer is untouched: the merged leaf covers both slices.
    pub fn coalesce_leaves(&mut self) -> usize {
        let stride = self.hierarchies.len();
        let mut merges = 0;
        let mut i = 0;
        while i + 1 < self.leaves.len() {
            let (a, b) = (self.leaves[i], self.leaves[i + 1]);
            let parents = &self.leaf_parents[i * stride..(i + 2) * stride];
            // Same parents, and b right after a in every parent's child
            // list (no milestone between them).
            let mergeable = parents[..stride] == parents[stride..]
                && self.hierarchy_ids().zip(&parents[..stride]).all(|(h, &p)| {
                    let list = self.children_in(p, h);
                    match list.iter().position(|&c| c == a) {
                        Some(pos) => list.get(pos + 1) == Some(&b),
                        None => false,
                    }
                });
            if mergeable {
                // b's bytes join a.
                self.drop_leaves(i + 1..i + 2);
                merges += 1;
                continue; // retry same i (may merge further)
            }
            i += 1;
        }
        if merges > 0 {
            self.renumber();
        }
        merges
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GoddagBuilder;
    use crate::validate::check_invariants;

    fn q(s: &str) -> QName {
        QName::parse(s).unwrap()
    }

    fn base() -> (Goddag, HierarchyId, HierarchyId) {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("one two three four");
        let phys = b.hierarchy("phys");
        let ling = b.hierarchy("ling");
        b.range(phys, "line", vec![], 0, 7).unwrap();
        b.range(phys, "line", vec![], 8, 18).unwrap();
        let g = b.finish().unwrap();
        (g, phys, ling)
    }

    #[test]
    fn split_leaf_refines_frontier() {
        let (mut g, _, _) = base();
        let before = g.leaf_count();
        g.split_leaf_at(2).unwrap();
        assert_eq!(g.leaf_count(), before + 1);
        assert_eq!(g.content(), "one two three four");
        check_invariants(&g).unwrap();
        // Splitting at an existing boundary is a no-op.
        g.split_leaf_at(2).unwrap();
        assert_eq!(g.leaf_count(), before + 1);
    }

    #[test]
    fn split_leaf_rejects_bad_offsets() {
        let (mut g, _, _) = base();
        assert!(g.split_leaf_at(1000).is_err());
    }

    #[test]
    fn insert_element_overlapping_other_hierarchy() {
        let (mut g, _, ling) = base();
        // "two three" crosses the phys line boundary — overlap across
        // hierarchies is legal.
        let s = g.insert_element(ling, q("s"), vec![], 4, 13).unwrap();
        assert_eq!(g.text_of(s), "two three");
        check_invariants(&g).unwrap();
        let lines = g.find_elements("line");
        assert!(g.span(s).overlaps(g.span(lines[0])));
        assert!(g.span(s).overlaps(g.span(lines[1])));
    }

    #[test]
    fn insert_element_crossing_same_hierarchy_rejected() {
        let (mut g, phys, _) = base();
        // "two three" crosses line 1 within the same hierarchy — rejected.
        let err = g.insert_element(phys, q("bad"), vec![], 4, 13).unwrap_err();
        assert!(matches!(err, GoddagError::WouldCross { .. }), "{err}");
        check_invariants(&g).unwrap();
        assert_eq!(g.find_elements("bad").len(), 0);
    }

    #[test]
    fn insert_element_nested_same_hierarchy() {
        let (mut g, phys, _) = base();
        let w = g.insert_element(phys, q("seg"), vec![], 0, 3).unwrap();
        assert_eq!(g.text_of(w), "one");
        let line = g.find_elements("line")[0];
        assert_eq!(g.parent_in(w, phys), Some(line));
        check_invariants(&g).unwrap();
    }

    #[test]
    fn insert_element_wrapping_whole_lines() {
        let (mut g, phys, _) = base();
        let folio = g.insert_element(phys, q("folio"), vec![], 0, 18).unwrap();
        let lines = g.find_elements("line");
        assert_eq!(g.parent_in(lines[0], phys), Some(folio));
        assert_eq!(g.parent_in(lines[1], phys), Some(folio));
        assert_eq!(g.parent_in(folio, phys), Some(g.root()));
        check_invariants(&g).unwrap();
    }

    #[test]
    fn insert_empty_element_milestone() {
        let (mut g, phys, _) = base();
        let pb = g.insert_element(phys, q("pb"), vec![], 8, 8).unwrap();
        assert!(g.span(pb).is_empty());
        assert_eq!(g.char_range(pb), (8, 8));
        check_invariants(&g).unwrap();
    }

    #[test]
    fn remove_element_splices_children() {
        let (mut g, phys, _) = base();
        let lines = g.find_elements("line");
        let line0_children = g.children(lines[0]);
        g.remove_element(lines[0]).unwrap();
        assert!(!g.is_alive(lines[0]));
        // Its leaves are now root children in phys.
        for c in line0_children {
            assert_eq!(g.parent_in(c, phys), Some(g.root()));
        }
        assert_eq!(g.content(), "one two three four");
        check_invariants(&g).unwrap();
    }

    #[test]
    fn remove_root_rejected() {
        let (mut g, _, _) = base();
        assert!(matches!(g.remove_element(g.root()), Err(GoddagError::CannotTouchRoot)));
    }

    #[test]
    fn remove_leaf_rejected() {
        let (mut g, _, _) = base();
        let leaf = g.leaves()[0];
        assert!(matches!(g.remove_element(leaf), Err(GoddagError::NotAnElement(_))));
    }

    #[test]
    fn double_remove_rejected() {
        let (mut g, _, _) = base();
        let line = g.find_elements("line")[0];
        g.remove_element(line).unwrap();
        assert!(matches!(g.remove_element(line), Err(GoddagError::DeadNode(_))));
    }

    #[test]
    fn attrs_roundtrip() {
        let (mut g, _, _) = base();
        let line = g.find_elements("line")[0];
        g.set_attr(line, "n", "1").unwrap();
        assert_eq!(g.attr(line, "n"), Some("1"));
        g.set_attr(line, "n", "2").unwrap();
        assert_eq!(g.attr(line, "n"), Some("2"));
        assert!(g.remove_attr(line, "n").unwrap());
        assert!(!g.remove_attr(line, "n").unwrap());
        assert!(g.set_attr(g.leaves()[0], "x", "1").is_err());
    }

    #[test]
    fn rename_element() {
        let (mut g, _, _) = base();
        let line = g.find_elements("line")[0];
        g.rename(line, q("verse")).unwrap();
        assert_eq!(g.name(line).unwrap().local, "verse");
        assert_eq!(g.find_elements("line").len(), 1);
    }

    #[test]
    fn insert_text_grows_content() {
        let (mut g, _, _) = base();
        g.insert_text(3, "!!").unwrap();
        assert_eq!(g.content(), "one!! two three four");
        // Spans survive: line 1 still covers the (grown) first segment.
        let line = g.find_elements("line")[0];
        assert_eq!(g.text_of(line), "one!! two");
        check_invariants(&g).unwrap();
    }

    #[test]
    fn insert_text_into_empty_document() {
        let mut g = Goddag::new(q("r"));
        g.add_hierarchy("a");
        g.insert_text(0, "hello").unwrap();
        assert_eq!(g.content(), "hello");
        assert_eq!(g.leaf_count(), 1);
        check_invariants(&g).unwrap();
    }

    #[test]
    fn delete_text_within_leaf() {
        let (mut g, _, _) = base();
        g.delete_text(0, 2).unwrap();
        assert_eq!(g.content(), "e two three four");
        check_invariants(&g).unwrap();
    }

    #[test]
    fn delete_text_across_leaves_removes_empty() {
        let (mut g, _, ling) = base();
        g.insert_element(ling, q("w"), vec![], 4, 7).unwrap(); // "two"
        let before_leaves = g.leaf_count();
        // Delete "two " entirely (4..8) — the "two" leaf empties out.
        g.delete_text(4, 8).unwrap();
        assert_eq!(g.content(), "one three four");
        assert!(g.leaf_count() < before_leaves);
        check_invariants(&g).unwrap();
        // The w element lost all leaves and became empty.
        let w = g.find_elements("w")[0];
        assert!(g.span(w).is_empty());
    }

    #[test]
    fn coalesce_leaves_merges_frontier() {
        let (mut g, _, _) = base();
        let before = g.leaf_count();
        g.split_leaf_at(2).unwrap();
        assert_eq!(g.leaf_count(), before + 1);
        let merges = g.coalesce_leaves();
        assert_eq!(merges, 1);
        assert_eq!(g.leaf_count(), before);
        assert_eq!(g.content(), "one two three four");
        check_invariants(&g).unwrap();
    }

    #[test]
    fn coalesce_respects_markup_boundaries() {
        let (mut g, _, _) = base();
        // Boundaries at 7/8 separate line1, a space and line2 — the space
        // leaf has different parents than its neighbours, so nothing merges.
        assert_eq!(g.coalesce_leaves(), 0);
    }

    #[test]
    fn insert_element_after_remove_reuses_structure() {
        let (mut g, phys, ling) = base();
        let s = g.insert_element(ling, q("s"), vec![], 0, 7).unwrap();
        g.remove_element(s).unwrap();
        let again = g.insert_element(ling, q("s"), vec![], 0, 7).unwrap();
        assert_eq!(g.text_of(again), "one two");
        let _ = phys;
        check_invariants(&g).unwrap();
    }

    #[test]
    fn unknown_hierarchy_rejected() {
        let (mut g, _, _) = base();
        assert!(matches!(
            g.insert_element(HierarchyId(42), q("x"), vec![], 0, 3),
            Err(GoddagError::NoSuchHierarchy(_))
        ));
    }

    #[test]
    fn insert_with_attrs() {
        let (mut g, _, ling) = base();
        let w = g.insert_element(ling, q("w"), vec![Attribute::new("id", "w1")], 0, 3).unwrap();
        assert_eq!(g.attr(w, "id"), Some("w1"));
    }
}
