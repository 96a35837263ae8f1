//! Every EXPath axis from every node, against the axis's definition.
//!
//! The definitions below share no code with the engine: each axis is a
//! filter over all live nodes (the root, the elements and the leaves) that
//! reads only `Goddag::parent_in`, `Goddag::children_in` and the `Span`
//! predicates, sorted with `sort_doc_order`. From every node of a generated
//! manuscript, `{axis}::node()` through `Evaluator::select_from` must select
//! exactly that set, with and without the overlap index, and
//! `{axis}::node()[1]` and `{axis}::node()[last()]` its first and last node
//! in axis order: document order, reversed on the reverse axes, except that
//! `child`, `descendant` and `descendant-or-self` from an element follow
//! its hierarchy's child lists (pre-order), the XML order of that
//! hierarchy. The two differ at a milestone: `<pb/>` before the text or
//! element it starts with comes first in the child list, after it in
//! `sort_doc_order`.
//!
//! The manuscripts are small, have one sentence removed (a tombstone whose
//! children move up) and a `pb` milestone in two hierarchies, so the
//! milestone rules of `following`, `preceding` and `contained` are reached.

use corpus::{generate, Params};
use expath::{Evaluator, OverlapIndex};
use goddag::{check_invariants, Goddag, HierarchyId, NodeId, Span};
use std::sync::Arc;
use xmlcore::QName;

/// The axes that select nodes (all but `attribute`), and whether each is a
/// reverse axis.
const AXES: [(&str, bool); 15] = [
    ("self", false),
    ("child", false),
    ("descendant", false),
    ("descendant-or-self", false),
    ("parent", false),
    ("ancestor", true),
    ("ancestor-or-self", true),
    ("following-sibling", false),
    ("preceding-sibling", true),
    ("following", false),
    ("preceding", true),
    ("overlapping", false),
    ("containing", false),
    ("contained", false),
    ("co-extensive", false),
];

/// `n`'s parent in `h`, then that node's, up to the root.
fn chain(g: &Goddag, n: NodeId, h: HierarchyId) -> impl Iterator<Item = NodeId> + '_ {
    std::iter::successors(g.parent_in(n, h), move |&p| g.parent_in(p, h))
}

/// Where `m` stands among `p`'s children in `h`.
fn position(g: &Goddag, p: NodeId, h: HierarchyId, m: NodeId) -> Option<usize> {
    g.children_in(p, h).iter().position(|&c| c == m)
}

/// Whether `m` and `n` are children of one parent in `h` with `m` after `n`.
fn later_sibling(g: &Goddag, h: HierarchyId, m: NodeId, n: NodeId) -> bool {
    match (g.parent_in(m, h), g.parent_in(n, h)) {
        (Some(p), Some(q)) if p == q => position(g, p, h, m) > position(g, p, h, n),
        _ => false,
    }
}

/// The children of `n` in the one hierarchy an element has them in (for the
/// root, only the first hierarchy's).
fn kids(g: &Goddag, n: NodeId) -> &[NodeId] {
    g.hierarchy_ids().map(|h| g.children_in(n, h)).find(|k| !k.is_empty()).unwrap_or(&[])
}

/// The first and last node on `axis` from `n` in axis order, given the
/// axis's nodes `want` in document order.
fn ends(g: &Goddag, axis: &str, reverse: bool, n: NodeId, want: &[NodeId]) -> [Option<NodeId>; 2] {
    let deepest_last = |mut m: NodeId| {
        while let Some(&c) = kids(g, m).last() {
            m = c;
        }
        m
    };
    let (first, last) = (kids(g, n).first().copied(), kids(g, n).last().copied());
    match axis {
        _ if g.is_root(n) => [want.first().copied(), want.last().copied()],
        "child" => [first, last],
        "descendant" => [first, last.map(deepest_last)],
        "descendant-or-self" => [Some(n), Some(deepest_last(n))],
        _ if reverse => [want.last().copied(), want.first().copied()],
        _ => [want.first().copied(), want.last().copied()],
    }
}

/// Whether `m` is on `axis` from `n`.
fn on_axis(g: &Goddag, axis: &str, n: NodeId, m: NodeId) -> bool {
    let mut hierarchies = g.hierarchy_ids();
    let (sn, sm) = (g.span(n), g.span(m));
    let element = g.is_element(m);
    let apart =
        |before: Span, after: Span| !g.is_root(m) && !sm.is_empty() && before.precedes(after);
    match axis {
        "self" => m == n,
        "child" => hierarchies.any(|h| g.parent_in(m, h) == Some(n)),
        "descendant" => hierarchies.any(|h| chain(g, m, h).any(|a| a == n)),
        "descendant-or-self" => m == n || on_axis(g, "descendant", n, m),
        "parent" => hierarchies.any(|h| g.parent_in(n, h) == Some(m)),
        "ancestor" => hierarchies.any(|h| chain(g, n, h).any(|a| a == m)),
        "ancestor-or-self" => m == n || on_axis(g, "ancestor", n, m),
        "following-sibling" => hierarchies.any(|h| later_sibling(g, h, m, n)),
        "preceding-sibling" => hierarchies.any(|h| later_sibling(g, h, n, m)),
        // Wholly after (before) the node and not its ancestor; milestones
        // are on neither side.
        "following" => apart(sn, sm) && !on_axis(g, "ancestor", n, m),
        "preceding" => apart(sm, sn) && !on_axis(g, "ancestor", n, m),
        "overlapping" => element && sm.overlaps(sn),
        "containing" => m != n && (g.is_root(m) || element && !sm.is_empty() && sm.contains(sn)),
        // A milestone is contained when it is anchored strictly inside.
        "contained" if sm.is_empty() => element && sn.start < sm.start && sm.start < sn.end,
        "contained" => m != n && element && sn.contains(sm),
        "co-extensive" => m != n && element && sm == sn,
        _ => unreachable!("{axis} is not in AXES"),
    }
}

/// A small manuscript with one sentence removed and a `pb` milestone in
/// the physical and the linguistic hierarchy.
fn document(src: &mut corpus::gen::Source) -> Goddag {
    let words = 8 + src.index(17);
    let mut g = generate(&Params { seed: src.below(1 << 32), ..Params::sized(words) }).goddag;
    let sentences = g.find_elements("s");
    if !sentences.is_empty() {
        g.remove_element(sentences[src.index(sentences.len())]).unwrap();
    }
    for name in ["phys", "ling"] {
        let h = g.hierarchy_by_name(name).unwrap();
        let leaf = g.leaves()[src.index(g.leaf_count())];
        let at = g.char_range(leaf).0;
        g.insert_element(h, QName::parse("pb").unwrap(), vec![], at, at).unwrap();
    }
    check_invariants(&g).unwrap();
    g
}

#[test]
fn every_axis_from_every_node_equals_its_definition() {
    corpus::gen::check("every_axis_from_every_node_equals_its_definition", 24, |src| {
        let g = document(src);
        let nodes: Vec<NodeId> = std::iter::once(g.root())
            .chain(g.elements())
            .chain(g.leaves().iter().copied())
            .collect();
        let plain = Evaluator::new(&g);
        let indexed = Evaluator::with_shared_index(&g, Arc::new(OverlapIndex::build(&g)));
        for (axis, reverse) in AXES {
            let (all, first, last) = (
                format!("{axis}::node()"),
                format!("{axis}::node()[1]"),
                format!("{axis}::node()[last()]"),
            );
            for &n in &nodes {
                let mut want: Vec<NodeId> =
                    nodes.iter().copied().filter(|&m| on_axis(&g, axis, n, m)).collect();
                g.sort_doc_order(&mut want);
                let [first_node, last_node] = ends(&g, axis, reverse, n, &want);
                for ev in [&plain, &indexed] {
                    let at = |q: &str| ev.select_from(q, n).unwrap_or_else(|e| panic!("{q}: {e}"));
                    let case = format!("{axis} from {n:?}, index {}", ev.has_index());
                    assert_eq!(at(&all), want, "{case}");
                    assert_eq!(at(&first), Vec::from_iter(first_node), "{case}, [1]");
                    assert_eq!(at(&last), Vec::from_iter(last_node), "{case}, [last()]");
                }
            }
        }
    });
}
