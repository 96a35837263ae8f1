//! An interval index over element spans, accelerating the extended axes
//! (`overlapping`, `containing`, `contained`, `co-extensive`).
//!
//! Layout: all non-empty element spans sorted by start offset, with a
//! segment tree of maximum end offsets on top. Queries descend only into
//! subtrees whose max end can still intersect, giving `O(log n + k)` for
//! `k` results — the ablation experiment A1 measures this against the naive
//! `O(n)` scan the evaluator falls back to without an index. Empty-span
//! elements (milestones) sit in a second list sorted by their anchor, so
//! `contained::` finds the milestones strictly inside a span by binary
//! search as well.

use goddag::{Goddag, NodeId, Span};

/// Immutable interval index over a GODDAG's elements.
///
/// Built once per (immutable) document; rebuild after edits.
#[derive(Debug, Clone)]
pub struct OverlapIndex {
    /// `(start, end, element)` sorted by `(start, end)`.
    entries: Vec<(u32, u32, NodeId)>,
    /// `(anchor, milestone)` of every empty-span element, sorted.
    milestones: Vec<(u32, NodeId)>,
    /// Segment-tree of max `end` over `entries` (1-based heap layout).
    max_end: Vec<u32>,
    size: usize,
}

impl OverlapIndex {
    /// Build the index over all live elements.
    pub fn build(g: &Goddag) -> OverlapIndex {
        let mut entries: Vec<(u32, u32, NodeId)> = Vec::new();
        let mut milestones: Vec<(u32, NodeId)> = Vec::new();
        for e in g.elements() {
            let s = g.span(e);
            if s.is_empty() {
                milestones.push((s.start, e));
            } else {
                entries.push((s.start, s.end, e));
            }
        }
        entries.sort_unstable_by_key(|&(s, e, id)| (s, e, id));
        milestones.sort_unstable();
        let size = entries.len().next_power_of_two().max(1);
        let mut max_end = vec![0u32; 2 * size];
        for (i, &(_, end, _)) in entries.iter().enumerate() {
            max_end[size + i] = end;
        }
        for i in (1..size).rev() {
            max_end[i] = max_end[2 * i].max(max_end[2 * i + 1]);
        }
        OverlapIndex { entries, milestones, max_end, size }
    }

    /// Number of indexed non-empty elements (milestones not counted).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no elements are indexed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All elements whose span *intersects* `span` (shares at least one
    /// leaf). Callers refine to proper overlap / containment as needed.
    pub fn intersecting(&self, span: Span) -> Vec<NodeId> {
        if span.is_empty() || self.entries.is_empty() {
            return Vec::new();
        }
        // Candidates: start < span.end (prefix by sortedness) AND
        // end > span.start (segment-tree pruned descent).
        let prefix = self.entries.partition_point(|&(s, _, _)| s < span.end);
        let mut idxs = Vec::new();
        self.collect(1, 0, self.size, prefix, span.start, &mut idxs);
        idxs.into_iter().map(|i| self.entries[i].2).collect()
    }

    /// All elements whose span contains `span` (including co-extensive
    /// ones). `span` may be empty (milestone anchors).
    pub fn containing(&self, span: Span) -> Vec<NodeId> {
        if self.entries.is_empty() {
            return Vec::new();
        }
        // start <= span.start AND end >= span.end (for empty spans the
        // anchor may sit on either boundary, handled by Span::contains).
        let prefix = self.entries.partition_point(|&(s, _, _)| s <= span.start);
        let mut idxs = Vec::new();
        let min_end = span.end.max(1);
        self.collect(1, 0, self.size, prefix, min_end - 1, &mut idxs);
        // The tree test used `end > min_end - 1` i.e. `end >= span.end`;
        // refine exact containment (empty-span boundary rule).
        idxs.into_iter()
            .filter_map(|i| {
                let (s, en, id) = self.entries[i];
                Span::new(s, en).contains(span).then_some(id)
            })
            .collect()
    }

    /// All elements whose span lies within `span`.
    pub fn contained_in(&self, span: Span) -> Vec<NodeId> {
        if span.is_empty() || self.entries.is_empty() {
            return Vec::new();
        }
        let lo = self.entries.partition_point(|&(s, _, _)| s < span.start);
        let hi = self.entries.partition_point(|&(s, _, _)| s < span.end);
        self.entries[lo..hi]
            .iter()
            .filter(|&&(_, e, _)| e <= span.end)
            .map(|&(_, _, id)| id)
            .collect()
    }

    /// All milestones anchored strictly inside `span`.
    pub fn milestones_inside(&self, span: Span) -> Vec<NodeId> {
        let lo = self.milestones.partition_point(|&(m, _)| m <= span.start);
        let hi = self.milestones.partition_point(|&(m, _)| m < span.end);
        self.milestones[lo..hi.max(lo)].iter().map(|&(_, id)| id).collect()
    }

    /// All elements with exactly this span.
    pub fn co_extensive(&self, span: Span) -> Vec<NodeId> {
        let lo = self.entries.partition_point(|&(s, _, _)| s < span.start);
        self.entries[lo..]
            .iter()
            .take_while(|&&(s, _, _)| s == span.start)
            .filter(|&&(_, e, _)| e == span.end)
            .map(|&(_, _, id)| id)
            .collect()
    }

    /// Collect entry indices in `[0, prefix)` with `end > min_end_exclusive`.
    fn collect(
        &self,
        node: usize,
        lo: usize,
        hi: usize,
        prefix: usize,
        min_end_exclusive: u32,
        out: &mut Vec<usize>,
    ) {
        if lo >= prefix || self.max_end[node] <= min_end_exclusive {
            return;
        }
        if hi - lo == 1 {
            if lo < self.entries.len() {
                out.push(lo);
            }
            return;
        }
        let mid = (lo + hi) / 2;
        self.collect(2 * node, lo, mid, prefix, min_end_exclusive, out);
        self.collect(2 * node + 1, mid, hi, prefix, min_end_exclusive, out);
    }
}

/// The naive baseline: scan every element (used when no index is supplied;
/// also the comparison point for ablation A1).
pub fn scan_intersecting(g: &Goddag, span: Span) -> Vec<NodeId> {
    g.elements().filter(|&e| g.span(e).intersects(span)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use goddag::GoddagBuilder;
    use xmlcore::QName;

    /// 10 single-char leaves; elements at various spans across 3 hierarchies.
    fn fixture() -> Goddag {
        let mut b = GoddagBuilder::new(QName::parse("r").unwrap());
        b.content("0123456789");
        let h0 = b.hierarchy("a");
        let h1 = b.hierarchy("b");
        let h2 = b.hierarchy("c");
        b.range(h0, "e05", vec![], 0, 5).unwrap();
        b.range(h0, "e59", vec![], 5, 9).unwrap();
        b.range(h1, "e38", vec![], 3, 8).unwrap();
        b.range(h1, "e33", vec![], 3, 3).unwrap(); // empty
        b.range(h2, "e09", vec![], 0, 10).unwrap();
        b.range(h2, "e46", vec![], 4, 6).unwrap();
        b.finish().unwrap()
    }

    fn names(g: &Goddag, mut ids: Vec<NodeId>) -> Vec<String> {
        g.sort_doc_order(&mut ids);
        ids.iter().map(|&e| g.name(e).unwrap().local.clone()).collect()
    }

    #[test]
    fn index_matches_naive_scan() {
        let g = fixture();
        let idx = OverlapIndex::build(&g);
        for start in 0..10u32 {
            for end in start..=10u32 {
                let span = Span::new(start, end);
                let mut from_index = idx.intersecting(span);
                let mut from_scan = scan_intersecting(&g, span);
                g.sort_doc_order(&mut from_index);
                g.sort_doc_order(&mut from_scan);
                assert_eq!(from_index, from_scan, "span {span}");
            }
        }
    }

    #[test]
    fn containing_query() {
        let g = fixture();
        let idx = OverlapIndex::build(&g);
        // Spans are LEAF indices; leaves here are the segments between all
        // markup boundaries {0,3,4,5,6,8,9,10}: 7 leaves. Element leaf
        // spans: e05=(0,3) e09=(0,7) e38=(1,5) e46=(2,4) e59=(3,6).
        // Who contains e46's span [2,4)? e09, e38, e46 itself.
        assert_eq!(names(&g, idx.containing(Span::new(2, 4))), ["e09", "e38", "e46"]);
        // Who contains the whole doc? e09 only.
        assert_eq!(names(&g, idx.containing(Span::new(0, 7))), ["e09"]);
    }

    #[test]
    fn containing_empty_anchor() {
        let g = fixture();
        let idx = OverlapIndex::build(&g);
        // Anchor at leaf 3: e05 [0,5), e38 [3,8) (boundary), e09.
        let got = names(&g, idx.containing(Span::empty_at(3)));
        assert!(got.contains(&"e09".to_string()));
        assert!(got.contains(&"e05".to_string()));
    }

    #[test]
    fn contained_in_query() {
        let g = fixture();
        let idx = OverlapIndex::build(&g);
        assert_eq!(names(&g, idx.contained_in(Span::new(1, 5))), ["e38", "e46"]);
        assert_eq!(
            names(&g, idx.contained_in(Span::new(0, 7))),
            ["e09", "e05", "e38", "e46", "e59"]
        );
        assert!(idx.contained_in(Span::new(0, 1)).is_empty());
    }

    #[test]
    fn milestones_inside_query() {
        let g = fixture();
        let idx = OverlapIndex::build(&g);
        // e33 anchors at leaf boundary 1: inside (0,2), not on either end.
        assert_eq!(names(&g, idx.milestones_inside(Span::new(0, 2))), ["e33"]);
        assert!(idx.milestones_inside(Span::new(1, 5)).is_empty());
        assert!(idx.milestones_inside(Span::new(0, 1)).is_empty());
        assert!(idx.milestones_inside(Span::empty_at(1)).is_empty());
        assert_eq!(idx.len(), 5, "milestones are not interval entries");
    }

    #[test]
    fn co_extensive_query() {
        let g = fixture();
        let idx = OverlapIndex::build(&g);
        assert_eq!(names(&g, idx.co_extensive(Span::new(1, 5))), ["e38"]);
        assert!(idx.co_extensive(Span::new(1, 2)).is_empty());
    }

    #[test]
    fn empty_span_queries() {
        let g = fixture();
        let idx = OverlapIndex::build(&g);
        assert!(idx.intersecting(Span::empty_at(3)).is_empty());
        assert!(idx.contained_in(Span::empty_at(3)).is_empty());
    }

    #[test]
    fn empty_document() {
        let b = GoddagBuilder::new(QName::parse("r").unwrap());
        let g = b.finish().unwrap();
        let idx = OverlapIndex::build(&g);
        assert!(idx.is_empty());
        assert!(idx.intersecting(Span::new(0, 1)).is_empty());
        assert!(idx.containing(Span::new(0, 0)).is_empty());
    }

    #[test]
    fn randomized_against_scan() {
        // Deterministic pseudo-random spans over a larger fixture.
        let mut b = GoddagBuilder::new(QName::parse("r").unwrap());
        let content: String = "x".repeat(200);
        b.content(content);
        let mut seed = 12345u64;
        let mut next = || {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (seed >> 33) as usize
        };
        for hi in 0..4 {
            let h = b.hierarchy(format!("h{hi}"));
            // Build nested, non-crossing ranges per hierarchy.
            for _ in 0..30 {
                let a = next() % 200;
                let len = next() % 20 + 1;
                let bnd = (a + len).min(200);
                // Avoid crossings by only adding if compatible; cheap check
                // via builder error — collect candidates first.
                let _ = (h, a, bnd);
            }
        }
        // Use fixed well-nested ranges instead (builder rejects crossings).
        let h0 = b.hierarchy("p");
        let h1 = b.hierarchy("q");
        for i in 0..20 {
            b.range(h0, "seg", vec![], i * 10, i * 10 + 10).unwrap();
            b.range(h1, "win", vec![], (i * 10 + 5).min(200), (i * 10 + 15).min(200)).unwrap();
        }
        let g = b.finish().unwrap();
        let idx = OverlapIndex::build(&g);
        for _ in 0..100 {
            let s = (next() % g.leaf_count()) as u32;
            let e = (s + (next() % 10) as u32).min(g.leaf_count() as u32);
            let span = Span::new(s, e);
            let mut a = idx.intersecting(span);
            let mut b2 = scan_intersecting(&g, span);
            g.sort_doc_order(&mut a);
            g.sort_doc_order(&mut b2);
            assert_eq!(a, b2, "span {span}");
        }
    }
}
