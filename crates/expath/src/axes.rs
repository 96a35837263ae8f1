//! Axis semantics on the GODDAG (paper §4: "We redefine the XPath semantics
//! on GODDAG ... and extend it with features that are specific to processing
//! of concurrent XML, such as the overlapping axis").
//!
//! Standard axes follow graph edges (hierarchy-aware); extended axes follow
//! the span algebra across hierarchies, optionally served by the
//! [`OverlapIndex`].

use crate::ast::Axis;
use crate::overlap_index::{scan_intersecting, OverlapIndex};
use goddag::{Goddag, NodeId};

/// Candidate nodes of `axis` from `node`, ordered in axis direction
/// (reverse axes nearest-first). The node test and predicates are applied by
/// the evaluator.
pub fn axis_candidates(
    g: &Goddag,
    index: Option<&OverlapIndex>,
    node: NodeId,
    axis: Axis,
) -> Vec<NodeId> {
    match axis {
        Axis::SelfAxis => vec![node],
        Axis::Child => g.children(node),
        Axis::Descendant => g.descendants(node),
        Axis::DescendantOrSelf => {
            let mut v = vec![node];
            v.extend(g.descendants(node));
            v
        }
        Axis::Parent => g.parents(node),
        Axis::Ancestor => ancestors_nearest_first(g, node),
        Axis::AncestorOrSelf => {
            let mut v = vec![node];
            v.extend(ancestors_nearest_first(g, node));
            v
        }
        Axis::FollowingSibling => {
            let mut out = Vec::new();
            for h in g.hierarchy_ids() {
                out.extend(g.following_siblings_in(node, h));
            }
            g.sort_doc_order(&mut out);
            out
        }
        Axis::PrecedingSibling => {
            let mut out = Vec::new();
            for h in g.hierarchy_ids() {
                out.extend(g.preceding_siblings_in(node, h));
            }
            // Reverse axis: nearest (document-latest) first.
            g.sort_doc_order(&mut out);
            out.reverse();
            out
        }
        Axis::Following => {
            let span = g.span(node);
            let mut out: Vec<NodeId> = g
                .elements()
                .filter(|&e| e != node && span.precedes(g.span(e)) && !g.span(e).is_empty())
                .collect();
            out.extend(g.leaves().iter().copied().filter(|&l| span.precedes(g.span(l))));
            g.sort_doc_order(&mut out);
            out
        }
        Axis::Preceding => {
            let span = g.span(node);
            let mut out: Vec<NodeId> = g
                .elements()
                .filter(|&e| e != node && g.span(e).precedes(span) && !g.span(e).is_empty())
                .collect();
            out.extend(g.leaves().iter().copied().filter(|&l| g.span(l).precedes(span)));
            g.sort_doc_order(&mut out);
            out.reverse();
            out
        }
        Axis::Attribute => Vec::new(), // handled by the evaluator
        Axis::Overlapping => {
            let span = g.span(node);
            let mut out: Vec<NodeId> = match index {
                Some(idx) => idx.intersecting(span),
                None => scan_intersecting(g, span),
            };
            out.retain(|&e| e != node && g.span(e).overlaps(span));
            g.sort_doc_order(&mut out);
            out
        }
        Axis::Containing => {
            let span = g.span(node);
            let mut out: Vec<NodeId> = match index {
                Some(idx) => idx.containing(span),
                None => g
                    .elements()
                    .filter(|&e| !g.span(e).is_empty() && g.span(e).contains(span))
                    .collect(),
            };
            out.retain(|&e| e != node);
            // The root contains everything.
            if node != g.root() {
                out.push(g.root());
            }
            g.sort_doc_order(&mut out);
            out
        }
        Axis::Contained => {
            let span = g.span(node);
            // Milestones anchored strictly inside count as contained.
            let mut out: Vec<NodeId> = match index {
                Some(idx) => {
                    let mut out = idx.contained_in(span);
                    out.extend(idx.milestones_inside(span));
                    out
                }
                None => g
                    .elements()
                    .filter(|&e| {
                        let es = g.span(e);
                        if es.is_empty() {
                            span.start < es.start && es.start < span.end
                        } else {
                            span.contains(es)
                        }
                    })
                    .collect(),
            };
            out.retain(|&e| e != node);
            g.sort_doc_order(&mut out);
            out
        }
        Axis::CoExtensive => {
            let span = g.span(node);
            let mut out: Vec<NodeId> = match index {
                Some(idx) if !span.is_empty() => idx.co_extensive(span),
                _ => g.elements().filter(|&e| g.span(e).co_extensive(span)).collect(),
            };
            out.retain(|&e| e != node);
            g.sort_doc_order(&mut out);
            out
        }
    }
}

/// Union of per-hierarchy ancestor chains, nearest-first by span (inner
/// before outer), ending with the root.
fn ancestors_nearest_first(g: &Goddag, node: NodeId) -> Vec<NodeId> {
    let mut out = g.ancestors(node);
    // `ancestors` returns document order (outermost spans first); reverse
    // for nearest-first, keeping the root last.
    out.reverse();
    out
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
        let over = axis_candidates(&g, None, s, Axis::Overlapping);
        assert_eq!(names(&g, &over), ["line", "line"]);
        // And symmetric from a line.
        let line0 = g.find_elements("line")[0];
        let over = axis_candidates(&g, None, line0, Axis::Overlapping);
        assert_eq!(names(&g, &over), ["s"]);
    }

    #[test]
    fn overlapping_with_index_matches_scan() {
        let g = fixture();
        let idx = OverlapIndex::build(&g);
        for e in g.elements() {
            let with = axis_candidates(&g, Some(&idx), e, Axis::Overlapping);
            let without = axis_candidates(&g, None, e, Axis::Overlapping);
            assert_eq!(with, without);
        }
    }

    #[test]
    fn containing_axis_crosses_hierarchies() {
        let g = fixture();
        // w("two") [4,7) is inside line1 [0,7) and s [4,13).
        let w_two = g.find_elements("w")[1];
        let containing = axis_candidates(&g, None, w_two, Axis::Containing);
        let mut n = names(&g, &containing);
        n.sort();
        assert_eq!(n, ["line", "r", "s"]);
    }

    #[test]
    fn contained_axis_crosses_hierarchies() {
        let g = fixture();
        let line0 = g.find_elements("line")[0];
        let contained = axis_candidates(&g, None, line0, Axis::Contained);
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
        let co = axis_candidates(&g, None, x, Axis::CoExtensive);
        assert_eq!(names(&g, &co), ["y"]);
    }

    #[test]
    fn child_axis_on_root_merges_hierarchies() {
        let g = fixture();
        let kids = axis_candidates(&g, None, g.root(), Axis::Child);
        let elem_names: Vec<_> = kids.iter().filter(|&&n| g.is_element(n)).collect();
        // 2 lines + ling top-level {w(one), s, w(four)} — w(two) nests in s.
        assert_eq!(elem_names.len(), 5);
    }

    #[test]
    fn parent_axis_on_shared_leaf() {
        let g = fixture();
        let leaf_two = g.leaf_at_char(5).unwrap();
        let parents = axis_candidates(&g, None, leaf_two, Axis::Parent);
        let mut n = names(&g, &parents);
        n.sort();
        assert_eq!(n, ["line", "w"]);
    }

    #[test]
    fn ancestor_nearest_first() {
        let g = fixture();
        let leaf_three = g.leaf_at_char(9).unwrap();
        let anc = axis_candidates(&g, None, leaf_three, Axis::Ancestor);
        // Nearest-first, root last.
        assert_eq!(anc.last().copied(), Some(g.root()));
        let n = names(&g, &anc);
        assert!(n[0] == "w" || n[0] == "line");
    }

    #[test]
    fn following_and_preceding_direction() {
        let g = fixture();
        let w_one = g.find_elements("w")[0];
        let following = axis_candidates(&g, None, w_one, Axis::Following);
        assert!(!following.is_empty());
        assert!(following.iter().all(|&n| g.span(w_one).precedes(g.span(n))));
        let w_four = g.find_elements("w")[3];
        let preceding = axis_candidates(&g, None, w_four, Axis::Preceding);
        assert!(preceding.iter().all(|&n| g.span(n).precedes(g.span(w_four))));
        // Reverse axis: nearest first.
        let first = preceding[0];
        assert!(g.span(first).end >= g.span(*preceding.last().unwrap()).end);
    }

    #[test]
    fn self_and_descendant_or_self() {
        let g = fixture();
        let line = g.find_elements("line")[0];
        assert_eq!(axis_candidates(&g, None, line, Axis::SelfAxis), vec![line]);
        let dos = axis_candidates(&g, None, line, Axis::DescendantOrSelf);
        assert_eq!(dos[0], line);
        assert!(dos.len() > 1);
    }

    #[test]
    fn containing_includes_root() {
        let g = fixture();
        let w = g.find_elements("w")[0];
        let containing = axis_candidates(&g, None, w, Axis::Containing);
        assert!(containing.contains(&g.root()));
        // But the root's own containing set is empty.
        assert!(axis_candidates(&g, None, g.root(), Axis::Containing).is_empty());
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
        let contained = axis_candidates(&g, None, seg, Axis::Contained);
        assert_eq!(names(&g, &contained), ["pb"]);
    }
}
