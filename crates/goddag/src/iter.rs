//! Iterator types over the GODDAG.
//!
//! [`Goddag::iter_hierarchy`] walks one hierarchy in document order without
//! materializing the node list (the streaming complement to
//! [`Goddag::descendants_in`]); [`Goddag::iter_leaf_range`] walks the shared
//! frontier between two byte offsets — the primitive behind "show me the
//! text of folio 36v" style requests.

use crate::graph::Goddag;
use crate::ids::{HierarchyId, NodeId};

/// Depth-first, document-order traversal of one hierarchy (elements and
/// leaves; the root itself is not yielded).
pub struct HierarchyIter<'g> {
    g: &'g Goddag,
    h: HierarchyId,
    stack: Vec<NodeId>,
}

impl<'g> Iterator for HierarchyIter<'g> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let n = self.stack.pop()?;
        for &c in self.g.children_in(n, self.h).iter().rev() {
            self.stack.push(c);
        }
        Some(n)
    }
}

/// An event during a hierarchy walk: enter/leave an element, or a leaf.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkEvent {
    /// Entering an element (pre-order position).
    Enter(NodeId),
    /// Leaving an element (post-order position).
    Leave(NodeId),
    /// A text leaf.
    Leaf(NodeId),
}

/// SAX-style walk of one hierarchy, yielding enter/leave/leaf events — the
/// shape serializers and exporters consume.
pub struct WalkIter<'g> {
    g: &'g Goddag,
    h: HierarchyId,
    stack: Vec<WalkEvent>,
}

impl<'g> Iterator for WalkIter<'g> {
    type Item = WalkEvent;

    fn next(&mut self) -> Option<WalkEvent> {
        let ev = self.stack.pop()?;
        if let WalkEvent::Enter(n) = ev {
            self.stack.push(WalkEvent::Leave(n));
            for &c in self.g.children_in(n, self.h).iter().rev() {
                if self.g.is_leaf(c) {
                    self.stack.push(WalkEvent::Leaf(c));
                } else {
                    self.stack.push(WalkEvent::Enter(c));
                }
            }
        }
        Some(ev)
    }
}

impl Goddag {
    /// Document-order iterator over hierarchy `h` (elements + leaves,
    /// root excluded).
    pub fn iter_hierarchy(&self, h: HierarchyId) -> HierarchyIter<'_> {
        let stack = self.children_in(self.root(), h).iter().rev().copied().collect();
        HierarchyIter { g: self, h, stack }
    }

    /// Enter/leave/leaf event walk of hierarchy `h`.
    pub fn walk_hierarchy(&self, h: HierarchyId) -> WalkIter<'_> {
        let mut stack: Vec<WalkEvent> = Vec::new();
        for &c in self.children_in(self.root(), h).iter().rev() {
            if self.is_leaf(c) {
                stack.push(WalkEvent::Leaf(c));
            } else {
                stack.push(WalkEvent::Enter(c));
            }
        }
        WalkIter { g: self, h, stack }
    }

    /// The leaves whose text intersects the byte range `start..end`, in
    /// order.
    pub fn iter_leaf_range(&self, start: usize, end: usize) -> impl Iterator<Item = NodeId> + '_ {
        let from = self.leaf_index_at(start);
        let to = self.offsets[..self.leaves.len()].partition_point(|&o| (o as usize) < end);
        self.leaves[from..to.max(from)].iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GoddagBuilder;
    use xmlcore::QName;

    fn doc() -> (Goddag, HierarchyId, HierarchyId) {
        let mut b = GoddagBuilder::new(QName::parse("r").unwrap());
        b.content("one two three");
        let phys = b.hierarchy("phys");
        let ling = b.hierarchy("ling");
        b.range(phys, "line", vec![], 0, 7).unwrap();
        b.range(ling, "s", vec![], 0, 13).unwrap();
        b.range(ling, "w", vec![], 0, 3).unwrap();
        b.range(ling, "w", vec![], 4, 7).unwrap();
        (b.finish().unwrap(), phys, ling)
    }

    #[test]
    fn iter_hierarchy_matches_descendants() {
        let (g, phys, ling) = doc();
        for h in [phys, ling] {
            let from_iter: Vec<NodeId> = g.iter_hierarchy(h).collect();
            let from_vec = g.descendants_in(g.root(), h);
            assert_eq!(from_iter, from_vec, "hierarchy {h}");
        }
    }

    #[test]
    fn walk_events_balance() {
        let (g, _, ling) = doc();
        let mut depth = 0i32;
        let mut max_depth = 0;
        let mut leaves = 0;
        for ev in g.walk_hierarchy(ling) {
            match ev {
                WalkEvent::Enter(_) => {
                    depth += 1;
                    max_depth = max_depth.max(depth);
                }
                WalkEvent::Leave(_) => depth -= 1,
                WalkEvent::Leaf(_) => leaves += 1,
            }
        }
        assert_eq!(depth, 0);
        assert_eq!(max_depth, 2); // s > w
        assert_eq!(leaves, g.leaf_count());
    }

    #[test]
    fn walk_reconstructs_serialization() {
        let (g, _, ling) = doc();
        let mut xml = String::new();
        for ev in g.walk_hierarchy(ling) {
            match ev {
                WalkEvent::Enter(n) => {
                    xml.push('<');
                    xml.push_str(&g.name(n).unwrap().local);
                    xml.push('>');
                }
                WalkEvent::Leave(n) => {
                    xml.push_str("</");
                    xml.push_str(&g.name(n).unwrap().local);
                    xml.push('>');
                }
                WalkEvent::Leaf(n) => xml.push_str(g.leaf_text(n).unwrap()),
            }
        }
        assert_eq!(format!("<r>{xml}</r>"), g.to_xml(ling).unwrap());
    }

    #[test]
    fn leaf_range_iteration() {
        let (g, _, _) = doc();
        // Bytes 4..9 cover the leaves "two" (4..7) and part of "three".
        let texts: Vec<&str> = g.iter_leaf_range(4, 9).map(|l| g.leaf_text(l).unwrap()).collect();
        assert_eq!(texts.concat(), "two three");
        // Exact leaf boundary: empty range yields nothing.
        assert_eq!(g.iter_leaf_range(4, 4).count(), 0);
        // Full range yields all leaves.
        assert_eq!(g.iter_leaf_range(0, 13).count(), g.leaf_count());
        // A range inside a single leaf yields just that leaf (" three"
        // spans 7..13: no markup boundary falls inside it).
        let texts: Vec<&str> = g.iter_leaf_range(9, 10).map(|l| g.leaf_text(l).unwrap()).collect();
        assert_eq!(texts, [" three"]);
    }
}
