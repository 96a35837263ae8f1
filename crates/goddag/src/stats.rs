//! Size and composition statistics (experiment B5: one GODDAG vs N DOMs).

use crate::graph::{Goddag, Kind, Slot};
use crate::ids::NodeId;
use std::mem::size_of;

/// Size/composition summary of a GODDAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoddagStats {
    /// Live element count per hierarchy.
    pub elements_per_hierarchy: Vec<usize>,
    /// Total live elements.
    pub elements: usize,
    /// Leaf count.
    pub leaves: usize,
    /// Content bytes (stored exactly once, in the shared content buffer).
    pub content_bytes: usize,
    /// Tombstoned ids.
    pub dead: usize,
    /// Heap bytes the leaves hold: their id records, and the leaf table's
    /// ids, offsets and parents.
    pub leaf_bytes: usize,
    /// Heap bytes the elements hold: their id records, the element table
    /// with its child lists, and the attribute store.
    pub element_bytes: usize,
    /// Estimated heap footprint in bytes: `leaf_bytes`, `element_bytes`
    /// and the shared tables — the root's record and spare id records, the
    /// root's child lists, the content buffer, the name table and the
    /// hierarchies with their DTDs.
    pub estimated_bytes: usize,
}

impl Goddag {
    /// Compute size statistics.
    pub fn stats(&self) -> GoddagStats {
        let mut per_h = vec![0usize; self.hierarchy_count()];
        let mut elements = 0usize;
        let mut dead = 0usize;
        let ids = |v: &Vec<NodeId>| v.capacity() * size_of::<NodeId>();
        let (mut leaf_slots, mut element_slots) = (0usize, 0usize);
        for d in &self.slots {
            match d.kind {
                Kind::Leaf => leaf_slots += 1,
                Kind::Element => element_slots += 1,
                Kind::Root => {}
            }
            if !d.alive {
                dead += 1;
            } else if d.kind == Kind::Element {
                elements += 1;
                per_h[d.hierarchy.idx()] += 1;
            }
        }

        let leaf_bytes = leaf_slots * size_of::<Slot>()
            + ids(&self.leaves)
            + self.offsets.capacity() * size_of::<u32>()
            + ids(&self.leaf_parents);
        let element_bytes = element_slots * size_of::<Slot>()
            + self.children.capacity() * size_of::<Vec<NodeId>>()
            + self.children.iter().map(ids).sum::<usize>()
            + ids(&self.parents)
            + self.attrs.heap_bytes();
        let mut shared = size_of::<Goddag>()
            + (self.slots.capacity() - leaf_slots - element_slots) * size_of::<Slot>();
        shared += self.root_children.capacity() * size_of::<Vec<NodeId>>();
        shared += self.root_children.iter().map(ids).sum::<usize>();
        shared += self.content.capacity() + self.names.heap_bytes();
        shared += self.hierarchies.capacity() * size_of::<crate::graph::Hierarchy>();
        for h in &self.hierarchies {
            shared += h.name.capacity() + h.dtd.as_ref().map_or(0, |d| d.heap_bytes());
        }

        GoddagStats {
            elements_per_hierarchy: per_h,
            elements,
            leaves: self.leaf_count(),
            content_bytes: self.content.len(),
            dead,
            leaf_bytes,
            element_bytes,
            estimated_bytes: leaf_bytes + element_bytes + shared,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GoddagBuilder;
    use xmlcore::QName;

    #[test]
    fn stats_counts() {
        let mut b = GoddagBuilder::new(QName::parse("r").unwrap());
        b.content("one two three");
        let phys = b.hierarchy("phys");
        let ling = b.hierarchy("ling");
        b.range(phys, "line", vec![], 0, 7).unwrap();
        b.range(ling, "w", vec![], 0, 3).unwrap();
        b.range(ling, "w", vec![], 4, 7).unwrap();
        let mut g = b.finish().unwrap();
        let s = g.stats();
        assert_eq!(s.elements, 3);
        assert_eq!(s.elements_per_hierarchy, vec![1, 2]);
        assert_eq!(s.content_bytes, 13);
        assert_eq!(s.dead, 0);
        assert!(s.leaf_bytes > 0 && s.element_bytes > 0);
        assert!(s.leaf_bytes + s.element_bytes < s.estimated_bytes);

        let w = g.find_elements("w")[0];
        g.remove_element(w).unwrap();
        let s2 = g.stats();
        assert_eq!(s2.elements, 2);
        assert_eq!(s2.dead, 1);
    }

    #[test]
    fn content_stored_once_regardless_of_hierarchies() {
        // The same markup volume over the same content, 1 vs 4 hierarchies:
        // content bytes must not grow with hierarchy count.
        let content = "word ".repeat(100);
        let build = |nh: usize| {
            let mut b = GoddagBuilder::new(QName::parse("r").unwrap());
            b.content(content.clone());
            for i in 0..nh {
                let h = b.hierarchy(format!("h{i}"));
                b.range(h, "e", vec![], 0, content.len()).unwrap();
            }
            b.finish().unwrap().stats()
        };
        let s1 = build(1);
        let s4 = build(4);
        assert_eq!(s1.content_bytes, s4.content_bytes);
    }
}
