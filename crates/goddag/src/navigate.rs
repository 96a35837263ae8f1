//! DOM-style navigation over the GODDAG (paper §3, problem (ii)).
//!
//! Navigation is hierarchy-aware: sibling/parent/ancestor movement happens
//! *within* one hierarchy's tree, while "navigation from one structure to
//! another is done through the root node or leaf nodes" (paper §3) — i.e. via
//! [`Goddag::parents`] on a shared leaf, or by re-rooting at [`Goddag::root`].

use crate::graph::{Goddag, Kind};
use crate::ids::{HierarchyId, NodeId};

impl Goddag {
    /// Ordered children of a node *within hierarchy `h`*.
    ///
    /// * root → that hierarchy's top-level elements interleaved with leaves
    ///   not covered by any element of `h`;
    /// * element of `h` → its children (same-hierarchy elements + leaves);
    /// * element of another hierarchy, or leaf → empty.
    pub fn children_in(&self, n: NodeId, h: HierarchyId) -> &[NodeId] {
        if self.is_root(n) {
            self.root_children.get(h.idx()).map_or(&[], Vec::as_slice)
        } else {
            match self.slot(n) {
                Some(d) if d.kind == Kind::Element && d.hierarchy == h => self.row_children(d),
                _ => &[],
            }
        }
    }

    /// Children of an element in its own hierarchy; for the root, the
    /// concatenation over all hierarchies in document order (deduplicated).
    pub fn children(&self, n: NodeId) -> Vec<NodeId> {
        if self.is_root(n) {
            let mut out: Vec<NodeId> = self.root_children.iter().flatten().copied().collect();
            self.sort_doc_order(&mut out);
            out
        } else {
            self.element_children(n).to_vec()
        }
    }

    /// Children of an element in its own hierarchy, borrowed. Empty for the
    /// root (its children are per hierarchy: [`Goddag::children_in`]),
    /// leaves and unknown ids.
    pub fn element_children(&self, n: NodeId) -> &[NodeId] {
        match self.slot(n) {
            Some(d) if d.kind == Kind::Element => self.row_children(d),
            _ => &[],
        }
    }

    /// The parent of `n` within hierarchy `h`:
    ///
    /// * element of `h` → its tree parent (element or root);
    /// * leaf → the deepest element of `h` containing it (or root);
    /// * root, or element of a different hierarchy → `None`.
    pub fn parent_in(&self, n: NodeId, h: HierarchyId) -> Option<NodeId> {
        let d = self.slot(n)?;
        match d.kind {
            Kind::Root => None,
            Kind::Element => (d.hierarchy == h).then(|| self.row_parent(d)).flatten(),
            Kind::Leaf if d.alive => self.leaf_parents_of(d).get(h.idx()).copied(),
            Kind::Leaf => None,
        }
    }

    /// All parents of `n` across hierarchies, deduplicated, in document
    /// order. This is the cross-hierarchy hop the paper describes: a shared
    /// leaf's parents expose every structure that covers it.
    pub fn parents(&self, n: NodeId) -> Vec<NodeId> {
        let Some(d) = self.slot(n) else { return Vec::new() };
        let mut out = match d.kind {
            Kind::Root => Vec::new(),
            Kind::Element => self.row_parent(d).into_iter().collect(),
            Kind::Leaf if d.alive => self.leaf_parents_of(d).to_vec(),
            Kind::Leaf => Vec::new(),
        };
        self.sort_doc_order(&mut out);
        out
    }

    /// Ancestors of `n` within hierarchy `h`, nearest first, ending with the
    /// root.
    pub fn ancestors_in(&self, n: NodeId, h: HierarchyId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut cur = self.parent_in(n, h);
        while let Some(p) = cur {
            out.push(p);
            cur = if self.is_root(p) { None } else { self.parent_in(p, h) };
        }
        out
    }

    /// Ancestors across *all* hierarchies (union of per-hierarchy ancestor
    /// chains), deduplicated, document order.
    pub fn ancestors(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        for h in self.hierarchy_ids() {
            out.extend(self.ancestors_in(n, h));
        }
        self.sort_doc_order(&mut out);
        out
    }

    /// Pre-order descendants of `n` (excluding `n`) within hierarchy `h`,
    /// including the leaves it dominates.
    pub fn descendants_in(&self, n: NodeId, h: HierarchyId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = self.children_in(n, h).iter().rev().copied().collect();
        while let Some(c) = stack.pop() {
            out.push(c);
            stack.extend(self.children_in(c, h).iter().rev().copied());
        }
        out
    }

    /// Descendants of an element within its own hierarchy; for the root, the
    /// union over all hierarchies (document order, deduplicated — shared
    /// leaves appear once).
    pub fn descendants(&self, n: NodeId) -> Vec<NodeId> {
        if self.is_root(n) {
            let mut out = Vec::new();
            for h in self.hierarchy_ids() {
                out.extend(self.descendants_in(n, h));
            }
            self.sort_doc_order(&mut out);
            out
        } else if let Some(h) = self.hierarchy_of(n) {
            self.descendants_in(n, h)
        } else {
            Vec::new()
        }
    }

    /// Index of `n` within its parent's child list in hierarchy `h`.
    fn child_index_in(&self, n: NodeId, h: HierarchyId) -> Option<(NodeId, usize)> {
        let p = self.parent_in(n, h)?;
        let siblings = self.children_in(p, h);
        siblings.iter().position(|&s| s == n).map(|i| (p, i))
    }

    /// The next sibling of `n` within hierarchy `h`.
    pub fn next_sibling_in(&self, n: NodeId, h: HierarchyId) -> Option<NodeId> {
        let (p, i) = self.child_index_in(n, h)?;
        self.children_in(p, h).get(i + 1).copied()
    }

    /// The previous sibling of `n` within hierarchy `h`.
    pub fn prev_sibling_in(&self, n: NodeId, h: HierarchyId) -> Option<NodeId> {
        let (p, i) = self.child_index_in(n, h)?;
        i.checked_sub(1).and_then(|j| self.children_in(p, h).get(j).copied())
    }

    /// All following siblings in order.
    pub fn following_siblings_in(&self, n: NodeId, h: HierarchyId) -> Vec<NodeId> {
        match self.child_index_in(n, h) {
            Some((p, i)) => self.children_in(p, h)[i + 1..].to_vec(),
            None => Vec::new(),
        }
    }

    /// All preceding siblings, nearest first.
    pub fn preceding_siblings_in(&self, n: NodeId, h: HierarchyId) -> Vec<NodeId> {
        match self.child_index_in(n, h) {
            Some((p, i)) => {
                let mut v = self.children_in(p, h)[..i].to_vec();
                v.reverse();
                v
            }
            None => Vec::new(),
        }
    }

    /// Nodes of hierarchy `h` that strictly follow `n` in document order
    /// (start after `n` ends), excluding ancestors/descendants — the XPath
    /// `following` axis restricted to `h`.
    pub fn following_in(&self, n: NodeId, h: HierarchyId) -> Vec<NodeId> {
        let span = self.span(n);
        let mut out: Vec<NodeId> = self
            .elements_in(h)
            .filter(|&e| span.precedes(self.span(e)) && e != n && !self.span(e).is_empty())
            .collect();
        out.extend(self.leaves.iter().copied().filter(|&l| span.precedes(self.span(l))));
        self.sort_doc_order(&mut out);
        out
    }

    /// Nodes of hierarchy `h` that strictly precede `n` in document order —
    /// the XPath `preceding` axis restricted to `h`.
    pub fn preceding_in(&self, n: NodeId, h: HierarchyId) -> Vec<NodeId> {
        let span = self.span(n);
        let mut out: Vec<NodeId> = self
            .elements_in(h)
            .filter(|&e| self.span(e).precedes(span) && e != n && !self.span(e).is_empty())
            .collect();
        out.extend(self.leaves.iter().copied().filter(|&l| self.span(l).precedes(span)));
        self.sort_doc_order(&mut out);
        out
    }

    /// The deepest element of hierarchy `h` whose span contains `span`
    /// (falling back to the root). This is the insertion host used by edits.
    pub fn host_in(&self, h: HierarchyId, span: crate::span::Span) -> NodeId {
        let mut cur = self.root();
        'descend: loop {
            for &c in self.children_in(cur, h) {
                if self.is_element(c) && !self.span(c).is_empty() && self.span(c).contains(span) {
                    cur = c;
                    continue 'descend;
                }
            }
            return cur;
        }
    }

    /// First element (document order) of hierarchy `h` with local name
    /// `local` — a convenience for tests and examples.
    pub fn find_element(&self, h: HierarchyId, local: &str) -> Option<NodeId> {
        let mut candidates: Vec<NodeId> = self
            .elements_in(h)
            .filter(|&e| self.name(e).is_some_and(|q| q.local == local))
            .collect();
        self.sort_doc_order(&mut candidates);
        candidates.first().copied()
    }

    /// All elements (any hierarchy) with local name `local`, document order.
    pub fn find_elements(&self, local: &str) -> Vec<NodeId> {
        let mut out: Vec<NodeId> =
            self.elements().filter(|&e| self.name(e).is_some_and(|q| q.local == local)).collect();
        self.sort_doc_order(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GoddagBuilder;
    use xmlcore::QName;

    fn q(s: &str) -> QName {
        QName::parse(s).unwrap()
    }

    /// "one two three four" with phys lines (one two | three four) and ling
    /// words; word "two" ends exactly where line 1 ends; no cross-hierarchy
    /// crossing here, plus a sentence covering "two three" that crosses the
    /// line boundary.
    fn doc() -> (Goddag, HierarchyId, HierarchyId) {
        let content = "one two three four";
        let mut b = GoddagBuilder::new(q("r"));
        b.content(content);
        let phys = b.hierarchy("phys");
        let ling = b.hierarchy("ling");
        b.range(phys, "line", vec![], 0, 7).unwrap(); // "one two"
        b.range(phys, "line", vec![], 8, 18).unwrap(); // "three four"
        b.range(ling, "w", vec![], 0, 3).unwrap(); // one
        b.range(ling, "w", vec![], 4, 7).unwrap(); // two
        b.range(ling, "s", vec![], 4, 13).unwrap(); // "two three" crosses lines
        b.range(ling, "w", vec![], 8, 13).unwrap(); // three
        b.range(ling, "w", vec![], 14, 18).unwrap(); // four
        (b.finish().unwrap(), phys, ling)
    }

    #[test]
    fn children_in_root() {
        let (g, phys, ling) = doc();
        let phys_top = g.children_in(g.root(), phys);
        assert_eq!(phys_top.len(), 3); // line, leaf(" "), line
        assert!(g.is_element(phys_top[0]));
        assert!(g.is_leaf(phys_top[1]));
        let ling_top = g.children_in(g.root(), ling);
        // w(one), leaf(" "), s, leaf(" "), w(four)
        assert_eq!(ling_top.len(), 5);
    }

    #[test]
    fn parent_in_crosses_back_via_leaf() {
        let (g, phys, ling) = doc();
        // The leaf "two" is inside line[0] (phys) and w[1]+s (ling).
        let two = g.leaf_at_char(5).unwrap();
        assert_eq!(g.leaf_text(two), Some("two"));
        let p_phys = g.parent_in(two, phys).unwrap();
        assert_eq!(g.name(p_phys).unwrap().local, "line");
        let p_ling = g.parent_in(two, ling).unwrap();
        assert_eq!(g.name(p_ling).unwrap().local, "w");
        // Cross-structure navigation through the shared leaf:
        let parents = g.parents(two);
        assert_eq!(parents.len(), 2);
    }

    #[test]
    fn ancestors_in_chain() {
        let (g, _, ling) = doc();
        let three = g.leaf_at_char(9).unwrap();
        let chain = g.ancestors_in(three, ling);
        let names: Vec<_> = chain.iter().map(|&n| g.name(n).unwrap().local.clone()).collect();
        assert_eq!(names, ["w", "s", "r"]);
    }

    #[test]
    fn ancestors_union() {
        let (g, _, _) = doc();
        let three = g.leaf_at_char(9).unwrap();
        let all = g.ancestors(three);
        // line2, w(three), s, root
        assert_eq!(all.len(), 4);
        assert!(all.contains(&g.root()));
    }

    #[test]
    fn descendants_in_hierarchy() {
        let (g, phys, ling) = doc();
        let phys_desc = g.descendants_in(g.root(), phys);
        // 2 lines + 5 leaves (one| |two + three| |four) + separator leaf = count below
        let elems = phys_desc.iter().filter(|&&n| g.is_element(n)).count();
        assert_eq!(elems, 2);
        let ling_desc = g.descendants_in(g.root(), ling);
        let elems = ling_desc.iter().filter(|&&n| g.is_element(n)).count();
        assert_eq!(elems, 5);
        // All leaves appear in both hierarchies' frontiers.
        let phys_leaves = phys_desc.iter().filter(|&&n| g.is_leaf(n)).count();
        let ling_leaves = ling_desc.iter().filter(|&&n| g.is_leaf(n)).count();
        assert_eq!(phys_leaves, g.leaf_count());
        assert_eq!(ling_leaves, g.leaf_count());
    }

    #[test]
    fn descendants_from_root_dedup_leaves() {
        let (g, _, _) = doc();
        let all = g.descendants(g.root());
        let leaf_occurrences = all.iter().filter(|&&n| g.is_leaf(n)).count();
        assert_eq!(leaf_occurrences, g.leaf_count());
    }

    #[test]
    fn siblings_within_hierarchy() {
        let (g, phys, _) = doc();
        let lines = g.find_elements("line");
        assert_eq!(lines.len(), 2);
        // Next sibling of line1 is the whitespace leaf, then line2.
        let after = g.next_sibling_in(lines[0], phys).unwrap();
        assert!(g.is_leaf(after));
        let line2 = g.next_sibling_in(after, phys).unwrap();
        assert_eq!(line2, lines[1]);
        assert_eq!(g.prev_sibling_in(line2, phys), Some(after));
        assert_eq!(g.prev_sibling_in(lines[0], phys), None);
        assert_eq!(g.next_sibling_in(lines[1], phys), None);
    }

    #[test]
    fn sibling_lists() {
        let (g, phys, _) = doc();
        let lines = g.find_elements("line");
        let fs = g.following_siblings_in(lines[0], phys);
        assert_eq!(fs.len(), 2);
        let ps = g.preceding_siblings_in(lines[1], phys);
        assert_eq!(ps.len(), 2);
        assert!(g.is_leaf(ps[0])); // nearest first
    }

    #[test]
    fn following_and_preceding() {
        let (g, ling, _) = {
            let (g, _, ling) = doc();
            (g, ling, ())
        };
        let words = g.find_elements("w");
        let one = words[0];
        let following = g.following_in(one, ling);
        // w(two), s? (s starts at 4 which is after one ends at 3) — s starts at leaf of "two"
        let elem_names: Vec<_> = following
            .iter()
            .filter(|&&n| g.is_element(n))
            .map(|&n| g.name(n).unwrap().local.clone())
            .collect();
        assert!(elem_names.contains(&"w".to_string()));
        assert!(elem_names.contains(&"s".to_string()));
        let preceding = g.preceding_in(words[3], ling);
        let elem_count = preceding.iter().filter(|&&n| g.is_element(n)).count();
        assert_eq!(elem_count, 4); // one, two, s, three all end before four
    }

    #[test]
    fn host_in_finds_deepest_container() {
        let (g, phys, _) = doc();
        let span = g.span(g.leaf_at_char(1).unwrap()); // leaf "one"
        let host = g.host_in(phys, span);
        assert_eq!(g.name(host).unwrap().local, "line");
        // A span crossing both lines is hosted by the root.
        let wide = crate::span::Span::new(0, g.leaf_count() as u32);
        assert_eq!(g.host_in(phys, wide), g.root());
    }

    #[test]
    fn find_helpers() {
        let (g, phys, ling) = doc();
        assert!(g.find_element(phys, "line").is_some());
        assert!(g.find_element(phys, "w").is_none());
        assert!(g.find_element(ling, "s").is_some());
        assert_eq!(g.find_elements("w").len(), 4);
    }
}
