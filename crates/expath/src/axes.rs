//! Axis semantics on the GODDAG (paper §4: "We redefine the XPath semantics
//! on GODDAG ... and extend it with features that are specific to processing
//! of concurrent XML, such as the overlapping axis").
//!
//! This is the one place node candidates come from: [`candidates`] appends
//! one origin's nodes on any axis, already kept by the resolved node test,
//! and [`root_descendants`] feeds the fused `//T[p…]` from the root.
//! Standard axes follow graph edges (hierarchy-aware); following and
//! preceding compare spans; the extended axes follow the span algebra
//! across hierarchies, with the [`OverlapIndex`] narrowing the elements a
//! span relation is tested on. The node test always runs before the sort.

use crate::ast::Axis;
use crate::error::Result;
use crate::overlap_index::OverlapIndex;
use goddag::{Goddag, HierarchyId, NodeId, Span};

/// A node test with its hierarchy resolved.
#[derive(Clone, Copy)]
pub(crate) enum Test<'a> {
    /// `node()`
    Node,
    /// `*`: elements and the root.
    Any,
    /// `text()`
    Text,
    /// `h:*`
    In(HierarchyId),
    /// `T` or `h:T`
    Name(Option<HierarchyId>, &'a str),
}

impl<'a> Test<'a> {
    /// Whether the test accepts `n`.
    #[inline]
    fn accepts(self, g: &Goddag, n: NodeId) -> bool {
        match self {
            Test::Node => true,
            Test::Any => g.is_element(n) || g.is_root(n),
            Test::Text => g.is_leaf(n),
            Test::In(h) => g.hierarchy_of(n) == Some(h),
            Test::Name(h, local) => {
                h.is_none_or(|h| g.hierarchy_of(n) == Some(h))
                    && g.name(n).is_some_and(|q| q.local == local)
            }
        }
    }

    /// Calls `f` on each node of `nodes` the test accepts. The test's kind
    /// is matched once, outside the loop (each arm names its own variant, so
    /// [`Test::accepts`] folds to that variant's check): decided per node,
    /// the dispatch cost more than the test itself.
    #[inline]
    pub(crate) fn try_each(
        self,
        g: &Goddag,
        mut nodes: impl Iterator<Item = NodeId>,
        f: impl FnMut(NodeId) -> Result<()>,
    ) -> Result<()> {
        match self {
            Test::Node => nodes.try_for_each(f),
            Test::Any => nodes.filter(|&n| Test::Any.accepts(g, n)).try_for_each(f),
            Test::Text => nodes.filter(|&n| Test::Text.accepts(g, n)).try_for_each(f),
            Test::In(h) => nodes.filter(|&n| Test::In(h).accepts(g, n)).try_for_each(f),
            Test::Name(h, local) => {
                nodes.filter(|&n| Test::Name(h, local).accepts(g, n)).try_for_each(f)
            }
        }
    }

    /// Appends the nodes of `nodes` the test accepts to `out`.
    #[inline]
    fn append(self, g: &Goddag, nodes: impl Iterator<Item = NodeId>, out: &mut Vec<NodeId>) {
        // Pushing cannot fail.
        let _ = self.try_each(g, nodes, |n| {
            out.push(n);
            Ok(())
        });
    }

    /// The hierarchy of every element the test accepts, when it names one.
    pub(crate) fn hierarchy(self) -> Option<HierarchyId> {
        match self {
            Test::In(h) | Test::Name(Some(h), _) => Some(h),
            _ => None,
        }
    }

    /// What is left of the test on elements of its [`Test::hierarchy`].
    fn within_hierarchy(self) -> Test<'a> {
        match self {
            Test::In(_) => Test::Node,
            Test::Name(_, local) => Test::Name(None, local),
            test => test,
        }
    }
}

/// Appends to `out` the nodes of `axis` from `origin` that `test` accepts,
/// in axis order: document order, nearest first on the reverse axes
/// (`ancestor`, `ancestor-or-self`, `preceding-sibling`, `preceding`), and
/// the hierarchy's child order for `child` and `descendant` from an
/// element. The attribute axis has no node candidates; the evaluator reads
/// attributes.
#[inline]
pub(crate) fn candidates(
    g: &Goddag,
    index: Option<&OverlapIndex>,
    origin: NodeId,
    axis: Axis,
    test: Test<'_>,
    out: &mut Vec<NodeId>,
) {
    let from = out.len();
    let own = |out: &mut Vec<NodeId>| test.append(g, std::iter::once(origin), out);
    match axis {
        Axis::Attribute => {}
        Axis::SelfAxis => own(out),
        // Every hierarchy's top level, merged in document order.
        Axis::Child if g.is_root(origin) => {
            for h in g.hierarchy_ids() {
                test.append(g, g.children_in(origin, h).iter().copied(), out);
            }
            sort_from(g, out, from);
        }
        Axis::Child => test.append(g, g.element_children(origin).iter().copied(), out),
        Axis::DescendantOrSelf | Axis::AncestorOrSelf => {
            own(out);
            let axis =
                if axis == Axis::DescendantOrSelf { Axis::Descendant } else { Axis::Ancestor };
            candidates(g, index, origin, axis, test, out);
        }
        Axis::Descendant if g.is_root(origin) => {
            // Pushing cannot fail.
            if let Ok(false) = root_descendants(g, test, |n| {
                out.push(n);
                Ok(())
            }) {
                sort_from(g, out, from);
            }
        }
        Axis::Descendant => {
            if let Some(h) = g.hierarchy_of(origin) {
                g.extend_descendants_in(origin, h, out);
                retain_from(out, from, |n| test.accepts(g, n));
            }
        }
        Axis::Parent => {
            test.append(g, g.hierarchy_ids().filter_map(|h| g.parent_in(origin, h)), out);
            sort_from(g, out, from);
        }
        Axis::Ancestor => {
            for h in g.hierarchy_ids() {
                // The root has no parent.
                let chain = std::iter::successors(g.parent_in(origin, h), |&p| g.parent_in(p, h));
                test.append(g, chain, out);
            }
            sort_from(g, out, from);
            out[from..].reverse();
        }
        Axis::FollowingSibling | Axis::PrecedingSibling => {
            let forward = axis == Axis::FollowingSibling;
            for h in g.hierarchy_ids() {
                let Some((parent, i)) = g.child_index_in(origin, h) else { continue };
                let siblings = g.children_in(parent, h);
                let side = if forward { &siblings[i + 1..] } else { &siblings[..i] };
                test.append(g, side.iter().copied(), out);
            }
            sort_from(g, out, from);
            if !forward {
                out[from..].reverse();
            }
        }
        Axis::Following | Axis::Preceding => {
            // Elements and leaves wholly after (before) the origin's span,
            // except its ancestors: a milestone's empty span is wholly before
            // (after) a parent it starts (ends). Milestones (empty elements)
            // are on neither side.
            let forward = axis == Axis::Following;
            let span = g.span(origin);
            let apart = |s: Span| {
                !s.is_empty() && if forward { span.precedes(s) } else { s.precedes(span) }
            };
            let ancestor = |n: NodeId| {
                span.is_empty()
                    && g.hierarchy_of(origin).is_some_and(|h| {
                        std::iter::successors(g.parent_in(origin, h), |&p| g.parent_in(p, h))
                            .any(|p| p == n)
                    })
            };
            let nodes = g.elements().chain(g.leaves().iter().copied());
            test.append(g, nodes.filter(|&n| apart(g.span(n)) && !ancestor(n)), out);
            sort_from(g, out, from);
            if !forward {
                out[from..].reverse();
            }
        }
        Axis::Overlapping | Axis::Containing | Axis::Contained | Axis::CoExtensive => {
            // The index, or a scan, appends elements the relation may hold
            // for; the relation and the test then keep theirs in place.
            let span = g.span(origin);
            match (index, axis) {
                (Some(idx), Axis::Overlapping) => idx.intersecting(span, out),
                (Some(idx), Axis::Containing) => idx.containing(span, out),
                (Some(idx), Axis::Contained) => {
                    idx.contained_in(span, out);
                    idx.milestones_inside(span, out);
                }
                (Some(idx), Axis::CoExtensive) if !span.is_empty() => idx.co_extensive(span, out),
                _ => out.extend(g.elements()),
            }
            retain_from(out, from, |e| {
                e != origin && related(axis, span, g.span(e)) && test.accepts(g, e)
            });
            // The root contains everything.
            if axis == Axis::Containing && !g.is_root(origin) {
                test.append(g, std::iter::once(g.root()), out);
            }
            sort_from(g, out, from);
        }
    }
}

/// Whether an element spanning `s` lies on the extended `axis` from an
/// origin spanning `span`.
fn related(axis: Axis, span: Span, s: Span) -> bool {
    match axis {
        Axis::Overlapping => s.overlaps(span),
        Axis::Containing => !s.is_empty() && s.contains(span),
        // Milestones anchored strictly inside count as contained.
        Axis::Contained if s.is_empty() => span.start < s.start && s.start < span.end,
        Axis::Contained => span.contains(s),
        _ => s.co_extensive(span),
    }
}

/// Feeds `descendant::T` from the root to `f` and says whether it came in
/// document order: the leaves do (for `text()`), the live elements (of the
/// test's hierarchy, when it names one) are enumerated in arena order and
/// the caller sorts what it keeps. Only `node()` lists the whole document.
#[inline]
pub(crate) fn root_descendants(
    g: &Goddag,
    test: Test<'_>,
    mut f: impl FnMut(NodeId) -> Result<()>,
) -> Result<bool> {
    match test {
        Test::Node => g.descendants(g.root()).into_iter().try_for_each(f)?,
        // Every hierarchy reaches every leaf; with no hierarchy the root has
        // no descendants.
        Test::Text if g.hierarchy_count() == 0 => {}
        Test::Text => g.leaves().iter().try_for_each(|&l| f(l))?,
        _ => {
            match test.hierarchy() {
                Some(h) => test.within_hierarchy().try_each(g, g.elements_in(h), f)?,
                None => test.try_each(g, g.elements(), f)?,
            }
            return Ok(false);
        }
    }
    Ok(true)
}

/// Keeps, in order, the nodes of `out[from..]` that `keep` allows (it sees
/// each node once, in order).
fn retain_from(out: &mut Vec<NodeId>, from: usize, mut keep: impl FnMut(NodeId) -> bool) {
    let mut kept = from;
    for i in from..out.len() {
        let n = out[i];
        if keep(n) {
            out[kept] = n;
            kept += 1;
        }
    }
    out.truncate(kept);
}

/// Sorts `out[from..]` into document order and drops its repeats.
fn sort_from(g: &Goddag, out: &mut Vec<NodeId>, from: usize) {
    out[from..].sort_by_key(|&n| g.doc_order_key(n));
    let mut last = None;
    retain_from(out, from, |n| last.replace(n) != Some(n));
}

#[cfg(test)]
mod tests {
    use super::*;
    use goddag::GoddagBuilder;
    use xmlcore::QName;

    fn fixture() -> Goddag {
        let mut b = GoddagBuilder::new(QName::parse("r").unwrap());
        b.content("one two three four");
        let phys = b.hierarchy("phys");
        let ling = b.hierarchy("ling");
        b.range(phys, "line", vec![], 0, 7).unwrap();
        b.range(phys, "line", vec![], 8, 18).unwrap();
        b.range(ling, "w", vec![], 0, 3).unwrap();
        b.range(ling, "w", vec![], 4, 7).unwrap();
        b.range(ling, "s", vec![], 4, 13).unwrap();
        b.range(ling, "w", vec![], 8, 13).unwrap();
        b.range(ling, "w", vec![], 14, 18).unwrap();
        b.finish().unwrap()
    }

    /// `axis::node()` from `node`, in axis order.
    fn on(g: &Goddag, index: Option<&OverlapIndex>, node: NodeId, axis: Axis) -> Vec<NodeId> {
        let mut out = Vec::new();
        candidates(g, index, node, axis, Test::Node, &mut out);
        out
    }

    fn names(g: &Goddag, ids: &[NodeId]) -> Vec<String> {
        ids.iter()
            .map(|&n| {
                g.name(n)
                    .map(|q| q.local.clone())
                    .unwrap_or_else(|| format!("leaf:{:?}", g.leaf_text(n).unwrap()))
            })
            .collect()
    }

    #[test]
    fn overlapping_axis_finds_cross_hierarchy_conflicts() {
        let g = fixture();
        let s = g.find_elements("s")[0];
        let over = on(&g, None, s, Axis::Overlapping);
        assert_eq!(names(&g, &over), ["line", "line"]);
        // And symmetric from a line.
        let line0 = g.find_elements("line")[0];
        let over = on(&g, None, line0, Axis::Overlapping);
        assert_eq!(names(&g, &over), ["s"]);
    }

    #[test]
    fn overlapping_with_index_matches_scan() {
        let g = fixture();
        let idx = OverlapIndex::build(&g);
        for e in g.elements() {
            let with = on(&g, Some(&idx), e, Axis::Overlapping);
            let without = on(&g, None, e, Axis::Overlapping);
            assert_eq!(with, without);
        }
    }

    #[test]
    fn containing_axis_crosses_hierarchies() {
        let g = fixture();
        // w("two") [4,7) is inside line1 [0,7) and s [4,13).
        let w_two = g.find_elements("w")[1];
        let containing = on(&g, None, w_two, Axis::Containing);
        let mut n = names(&g, &containing);
        n.sort();
        assert_eq!(n, ["line", "r", "s"]);
    }

    #[test]
    fn contained_axis_crosses_hierarchies() {
        let g = fixture();
        let line0 = g.find_elements("line")[0];
        let contained = on(&g, None, line0, Axis::Contained);
        let mut n = names(&g, &contained);
        n.sort();
        // Words "one" and "two" fit inside line 1; s does not (crosses).
        assert_eq!(n, ["w", "w"]);
    }

    #[test]
    fn co_extensive_axis() {
        let mut b = GoddagBuilder::new(QName::parse("r").unwrap());
        b.content("abc");
        let h0 = b.hierarchy("a");
        let h1 = b.hierarchy("b");
        b.range(h0, "x", vec![], 0, 3).unwrap();
        b.range(h1, "y", vec![], 0, 3).unwrap();
        let g = b.finish().unwrap();
        let x = g.find_elements("x")[0];
        let co = on(&g, None, x, Axis::CoExtensive);
        assert_eq!(names(&g, &co), ["y"]);
    }

    #[test]
    fn child_axis_on_root_merges_hierarchies() {
        let g = fixture();
        let kids = on(&g, None, g.root(), Axis::Child);
        let elem_names: Vec<_> = kids.iter().filter(|&&n| g.is_element(n)).collect();
        // 2 lines + ling top-level {w(one), s, w(four)} — w(two) nests in s.
        assert_eq!(elem_names.len(), 5);
    }

    #[test]
    fn parent_axis_on_shared_leaf() {
        let g = fixture();
        let leaf_two = g.leaf_at_char(5).unwrap();
        let parents = on(&g, None, leaf_two, Axis::Parent);
        let mut n = names(&g, &parents);
        n.sort();
        assert_eq!(n, ["line", "w"]);
    }

    #[test]
    fn ancestor_nearest_first() {
        let g = fixture();
        let leaf_three = g.leaf_at_char(9).unwrap();
        let anc = on(&g, None, leaf_three, Axis::Ancestor);
        // Nearest-first, root last.
        assert_eq!(anc.last().copied(), Some(g.root()));
        let n = names(&g, &anc);
        assert!(n[0] == "w" || n[0] == "line");
    }

    #[test]
    fn following_and_preceding_direction() {
        let g = fixture();
        let w_one = g.find_elements("w")[0];
        let following = on(&g, None, w_one, Axis::Following);
        assert!(!following.is_empty());
        assert!(following.iter().all(|&n| g.span(w_one).precedes(g.span(n))));
        let w_four = g.find_elements("w")[3];
        let preceding = on(&g, None, w_four, Axis::Preceding);
        assert!(preceding.iter().all(|&n| g.span(n).precedes(g.span(w_four))));
        // Reverse axis: nearest first.
        let first = preceding[0];
        assert!(g.span(first).end >= g.span(*preceding.last().unwrap()).end);
    }

    #[test]
    fn a_milestone_is_not_before_or_after_its_ancestors() {
        let mut b = GoddagBuilder::new(QName::parse("r").unwrap());
        b.content("abc def");
        let phys = b.hierarchy("phys");
        b.range(phys, "line", vec![], 0, 7).unwrap();
        let mut g = b.finish().unwrap();
        for at in [0, 7] {
            g.insert_element(phys, QName::parse("pb").unwrap(), vec![], at, at).unwrap();
        }
        let line = g.find_elements("line")[0];
        // Spans count leaves: the one leaf is [0, 1).
        let pb = |at| *g.find_elements("pb").iter().find(|&&p| g.span(p).start == at).unwrap();
        let (first, last) = (pb(0), pb(1));
        assert_eq!(g.parent_in(first, phys), Some(line));
        assert_eq!(g.parent_in(last, phys), Some(line));
        let elements = |n, axis| on(&g, None, n, axis).into_iter().filter(|&e| g.is_element(e));
        assert_eq!(elements(first, Axis::Following).count(), 0);
        assert_eq!(elements(last, Axis::Preceding).count(), 0);
    }

    #[test]
    fn self_and_descendant_or_self() {
        let g = fixture();
        let line = g.find_elements("line")[0];
        assert_eq!(on(&g, None, line, Axis::SelfAxis), vec![line]);
        let dos = on(&g, None, line, Axis::DescendantOrSelf);
        assert_eq!(dos[0], line);
        assert!(dos.len() > 1);
    }

    #[test]
    fn containing_includes_root() {
        let g = fixture();
        let w = g.find_elements("w")[0];
        let containing = on(&g, None, w, Axis::Containing);
        assert!(containing.contains(&g.root()));
        // But the root's own containing set is empty.
        assert!(on(&g, None, g.root(), Axis::Containing).is_empty());
    }

    #[test]
    fn milestones_contained_when_strictly_inside() {
        let mut b = GoddagBuilder::new(QName::parse("r").unwrap());
        b.content("abcd");
        let h0 = b.hierarchy("a");
        let h1 = b.hierarchy("b");
        b.range(h0, "seg", vec![], 0, 4).unwrap();
        b.range(h1, "pb", vec![], 2, 2).unwrap();
        let g = b.finish().unwrap();
        let seg = g.find_elements("seg")[0];
        let contained = on(&g, None, seg, Axis::Contained);
        assert_eq!(names(&g, &contained), ["pb"]);
    }
}
