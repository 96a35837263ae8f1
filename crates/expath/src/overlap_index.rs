//! An interval index over element spans, accelerating the extended axes
//! (`overlapping`, `containing`, `contained`, `co-extensive`).
//!
//! Layout: all non-empty element spans sorted by start offset, with a
//! segment tree of maximum end offsets on top. Queries descend only into
//! subtrees whose max end can still intersect, giving `O(log n + k)` for
//! `k` results where a scan, the evaluator's path without an index, reads
//! every element. Empty-span elements (milestones) sit in a second list
//! sorted by their anchor, so `contained::` finds the milestones strictly
//! inside a span by binary search as well.
//!
//! Every query appends the elements it finds to the caller's buffer, in
//! index order; the evaluator applies the node test and sorts.

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

    /// Appends every element whose span *intersects* `span` (shares at
    /// least one leaf). Callers refine to proper overlap as needed.
    pub fn intersecting(&self, span: Span, out: &mut Vec<NodeId>) {
        if span.is_empty() {
            return;
        }
        // start < span.end (a prefix, by sortedness) AND end > span.start
        // (segment-tree pruned descent).
        let prefix = self.entries.partition_point(|&(s, _, _)| s < span.end);
        self.collect(1, 0, self.size, prefix, span.start, out);
    }

    /// Appends every non-empty element whose span contains `span`
    /// (co-extensive ones included). `span` may be empty (a milestone's
    /// anchor, which may sit on either boundary).
    pub fn containing(&self, span: Span, out: &mut Vec<NodeId>) {
        // start <= span.start AND end >= span.end: for an empty span at 0
        // every non-empty entry has `end >= 1`, so the bound is
        // `end > max(span.end, 1) - 1` and the walk is exact.
        let prefix = self.entries.partition_point(|&(s, _, _)| s <= span.start);
        self.collect(1, 0, self.size, prefix, span.end.max(1) - 1, out);
    }

    /// Appends every non-empty element whose span lies within `span` (the
    /// milestones are [`OverlapIndex::milestones_inside`]).
    pub fn contained_in(&self, span: Span, out: &mut Vec<NodeId>) {
        let lo = self.entries.partition_point(|&(s, _, _)| s < span.start);
        let hi = self.entries.partition_point(|&(s, _, _)| s < span.end);
        out.extend(
            self.entries[lo..hi].iter().filter(|&&(_, e, _)| e <= span.end).map(|&(_, _, id)| id),
        );
    }

    /// Appends every milestone anchored strictly inside `span`.
    pub fn milestones_inside(&self, span: Span, out: &mut Vec<NodeId>) {
        let lo = self.milestones.partition_point(|&(m, _)| m <= span.start);
        let hi = self.milestones.partition_point(|&(m, _)| m < span.end);
        out.extend(self.milestones[lo..hi.max(lo)].iter().map(|&(_, id)| id));
    }

    /// Appends every non-empty element with exactly this span.
    pub fn co_extensive(&self, span: Span, out: &mut Vec<NodeId>) {
        let lo = self.entries.partition_point(|&(s, _, _)| s < span.start);
        out.extend(
            self.entries[lo..]
                .iter()
                .take_while(|&&(s, _, _)| s == span.start)
                .filter(|&&(_, e, _)| e == span.end)
                .map(|&(_, _, id)| id),
        );
    }

    /// Appends the elements of the entries in `[0, prefix)` with
    /// `end > min_end_exclusive`, in entry order.
    fn collect(
        &self,
        node: usize,
        lo: usize,
        hi: usize,
        prefix: usize,
        min_end_exclusive: u32,
        out: &mut Vec<NodeId>,
    ) {
        if lo >= prefix || self.max_end[node] <= min_end_exclusive {
            return;
        }
        if hi - lo == 1 {
            if let Some(&(_, _, id)) = self.entries.get(lo) {
                out.push(id);
            }
            return;
        }
        let mid = (lo + hi) / 2;
        self.collect(2 * node, lo, mid, prefix, min_end_exclusive, out);
        self.collect(2 * node + 1, mid, hi, prefix, min_end_exclusive, out);
    }
}

/// The naive baseline: appends every element whose span intersects `span`,
/// read off a scan of all elements. The reference `index_matches_naive_scan`
/// and `overlap_index_agrees_with_scan` hold the index to.
pub fn scan_intersecting(g: &Goddag, span: Span, out: &mut Vec<NodeId>) {
    out.extend(g.elements().filter(|&e| g.span(e).intersects(span)));
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

    /// An index query, as the evaluator calls it.
    type Query = fn(&OverlapIndex, Span, &mut Vec<NodeId>);

    /// What `query` appends to an empty buffer.
    fn run(query: Query, idx: &OverlapIndex, span: Span) -> Vec<NodeId> {
        let mut out = Vec::new();
        query(idx, span, &mut out);
        out
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
                let mut from_index = run(OverlapIndex::intersecting, &idx, span);
                let mut from_scan = Vec::new();
                scan_intersecting(&g, span, &mut from_scan);
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
        assert_eq!(
            names(&g, run(OverlapIndex::containing, &idx, Span::new(2, 4))),
            ["e09", "e38", "e46"]
        );
        // Who contains the whole doc? e09 only.
        assert_eq!(names(&g, run(OverlapIndex::containing, &idx, Span::new(0, 7))), ["e09"]);
    }

    #[test]
    fn containing_empty_anchor() {
        let g = fixture();
        let idx = OverlapIndex::build(&g);
        // Anchor at leaf 3: e05 [0,5), e38 [3,8) (boundary), e09.
        let got = names(&g, run(OverlapIndex::containing, &idx, Span::empty_at(3)));
        assert!(got.contains(&"e09".to_string()));
        assert!(got.contains(&"e05".to_string()));
    }

    #[test]
    fn contained_in_query() {
        let g = fixture();
        let idx = OverlapIndex::build(&g);
        assert_eq!(
            names(&g, run(OverlapIndex::contained_in, &idx, Span::new(1, 5))),
            ["e38", "e46"]
        );
        assert_eq!(
            names(&g, run(OverlapIndex::contained_in, &idx, Span::new(0, 7))),
            ["e09", "e05", "e38", "e46", "e59"]
        );
        assert!(run(OverlapIndex::contained_in, &idx, Span::new(0, 1)).is_empty());
    }

    #[test]
    fn milestones_inside_query() {
        let g = fixture();
        let idx = OverlapIndex::build(&g);
        // e33 anchors at leaf boundary 1: inside (0,2), not on either end.
        assert_eq!(names(&g, run(OverlapIndex::milestones_inside, &idx, Span::new(0, 2))), ["e33"]);
        assert!(run(OverlapIndex::milestones_inside, &idx, Span::new(1, 5)).is_empty());
        assert!(run(OverlapIndex::milestones_inside, &idx, Span::new(0, 1)).is_empty());
        assert!(run(OverlapIndex::milestones_inside, &idx, Span::empty_at(1)).is_empty());
        assert_eq!(idx.len(), 5, "milestones are not interval entries");
    }

    #[test]
    fn co_extensive_query() {
        let g = fixture();
        let idx = OverlapIndex::build(&g);
        assert_eq!(names(&g, run(OverlapIndex::co_extensive, &idx, Span::new(1, 5))), ["e38"]);
        assert!(run(OverlapIndex::co_extensive, &idx, Span::new(1, 2)).is_empty());
    }

    #[test]
    fn empty_span_queries() {
        let g = fixture();
        let idx = OverlapIndex::build(&g);
        assert!(run(OverlapIndex::intersecting, &idx, Span::empty_at(3)).is_empty());
        assert!(run(OverlapIndex::contained_in, &idx, Span::empty_at(3)).is_empty());
    }

    #[test]
    fn empty_document() {
        let b = GoddagBuilder::new(QName::parse("r").unwrap());
        let g = b.finish().unwrap();
        let idx = OverlapIndex::build(&g);
        assert!(idx.is_empty());
        assert!(run(OverlapIndex::intersecting, &idx, Span::new(0, 1)).is_empty());
        assert!(run(OverlapIndex::containing, &idx, Span::new(0, 0)).is_empty());
    }

    /// Up to 30 random ranges per hierarchy over 60 bytes, a quarter of
    /// them milestones, keeping each range that crosses none kept before
    /// (the builder refuses crossings).
    fn random_doc(src: &mut corpus::gen::Source) -> Goddag {
        let mut b = GoddagBuilder::new(QName::parse("r").unwrap());
        b.content("x".repeat(60));
        for hi in 0..1 + src.index(4) {
            let h = b.hierarchy(format!("h{hi}"));
            let mut kept: Vec<(usize, usize)> = Vec::new();
            for _ in 0..src.index(31) {
                let s = src.index(61);
                let e = if src.below(4) == 0 { s } else { (s + 1 + src.index(20)).min(60) };
                let crosses = kept
                    .iter()
                    .any(|&(ks, ke)| (s < ks && ks < e && e < ke) || (ks < s && s < ke && ke < e));
                if !crosses {
                    kept.push((s, e));
                    b.range(h, "e", vec![], s, e).unwrap();
                }
            }
        }
        b.finish().unwrap()
    }

    /// An index query, and the filter over one element's span that its doc
    /// states.
    type Stated = (&'static str, Query, fn(Span, Span) -> bool);

    #[test]
    fn randomized_against_scan() {
        // Each query against a filter over every element that states its doc.
        corpus::gen::check("randomized_against_scan", 64, |src| {
            let g = random_doc(src);
            let idx = OverlapIndex::build(&g);
            let leaves = g.leaf_count() as u32;
            let queries: [Stated; 5] = [
                ("intersecting", OverlapIndex::intersecting, |es, q| es.intersects(q)),
                ("containing", OverlapIndex::containing, |es, q| !es.is_empty() && es.contains(q)),
                ("contained_in", OverlapIndex::contained_in, |es, q| {
                    !es.is_empty() && q.contains(es)
                }),
                ("milestones_inside", OverlapIndex::milestones_inside, |es, q| {
                    es.is_empty() && q.start < es.start && es.start < q.end
                }),
                ("co_extensive", OverlapIndex::co_extensive, |es, q| {
                    !es.is_empty() && es.co_extensive(q)
                }),
            ];
            for _ in 0..50 {
                let s = src.below(leaves as u64 + 1) as u32;
                let span = Span::new(s, s + src.below((leaves - s) as u64 + 1) as u32);
                for (what, query, doc) in queries {
                    let mut got = run(query, &idx, span);
                    let mut want: Vec<NodeId> =
                        g.elements().filter(|&e| doc(g.span(e), span)).collect();
                    g.sort_doc_order(&mut got);
                    g.sort_doc_order(&mut want);
                    assert_eq!(got, want, "{what} {span}");
                }
            }
        });
    }
}
