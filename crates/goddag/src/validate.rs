//! Structural invariant checking.
//!
//! `check_invariants` asserts the restricted-GODDAG properties the rest of
//! the framework relies on. It is used pervasively in tests (including the
//! property-based suites) and after editor commands in debug builds. DTD
//! validity of a hierarchy is the `prevalid` crate's: one walk there gives
//! strict and potential validity.

use crate::graph::{Goddag, Kind};
use crate::ids::{HierarchyId, NodeId};
use crate::span::Span;
use std::collections::HashSet;

/// Check every structural invariant of the GODDAG. Returns the first
/// violation as an error string (with enough context to debug it).
pub fn check_invariants(g: &Goddag) -> Result<(), String> {
    // 0. The layout's own tables.
    check_leaf_table(g)?;
    check_ids(g)?;
    g.names.check()?;
    g.attrs.check()?;
    for ((i, d), start) in g.slots.iter().enumerate().zip(g.attrs.group_starts(g.arena_len())) {
        if d.attr_start != start {
            return Err(format!("n{i} attribute group at {}, stored at {start}", d.attr_start));
        }
    }
    for r in g.attrs.all() {
        if r.name.0 as usize >= g.names.len() {
            return Err(format!("attribute of {} has name symbol {}", r.owner, r.name.0));
        }
        if g.slot(r.owner).is_none_or(|d| d.kind == Kind::Leaf) {
            return Err(format!("attribute owner {} is not an element or the root", r.owner));
        }
    }

    // 1. Per hierarchy: the induced subgraph is a tree over that hierarchy's
    //    elements + all leaves; children lists are consistent with parent
    //    pointers; spans are the cover of children; child spans are ordered
    //    and non-overlapping.
    for h in g.hierarchy_ids() {
        let mut seen_leaves: Vec<u32> = Vec::new();
        let mut seen_elems = HashSet::new();
        let mut stack: Vec<crate::ids::NodeId> = vec![g.root()];
        while let Some(n) = stack.pop() {
            let children = g.children_in(n, h);
            let mut cursor: Option<u32> = None;
            for &c in children {
                let cd = g.data(c);
                if !cd.alive {
                    return Err(format!("{n} (h={h}) has dead child {c}"));
                }
                match cd.kind {
                    Kind::Root => {
                        return Err(format!("root appears as child of {n}"));
                    }
                    Kind::Element => {
                        if cd.hierarchy != h {
                            return Err(format!(
                                "element {c} of {} in child list of hierarchy {h}",
                                cd.hierarchy
                            ));
                        }
                        if g.row_parent(cd) != Some(n) {
                            return Err(format!(
                                "element {c} parent pointer {:?} != list owner {n}",
                                g.row_parent(cd)
                            ));
                        }
                        if !seen_elems.insert(c) {
                            return Err(format!("element {c} appears twice in hierarchy {h}"));
                        }
                        stack.push(c);
                    }
                    Kind::Leaf => {
                        let p = g.leaf_parents_of(cd)[h.idx()];
                        if p != n {
                            return Err(format!(
                                "leaf {c} leaf_parents[{h}] = {p} != list owner {n}"
                            ));
                        }
                        seen_leaves.push(cd.span.start);
                    }
                }
                // Ordering & containment.
                let cspan = g.span(c);
                if let Some(cur) = cursor {
                    if cspan.start < cur {
                        return Err(format!(
                            "children of {n} (h={h}) out of order at {c}: span {cspan} after cursor {cur}"
                        ));
                    }
                }
                if !cspan.is_empty() {
                    cursor = Some(cspan.end);
                }
                if g.is_element(n) && !g.span(n).contains(cspan) {
                    return Err(format!(
                        "child {c} span {cspan} escapes parent {n} span {}",
                        g.span(n)
                    ));
                }
            }
        }
        // Every leaf reachable exactly once in each hierarchy.
        seen_leaves.sort_unstable();
        let expected: Vec<u32> = (0..g.leaf_count() as u32).collect();
        if seen_leaves != expected {
            return Err(format!(
                "hierarchy {h} reaches leaves {seen_leaves:?}, expected all of 0..{}",
                g.leaf_count()
            ));
        }
    }

    // 2. Element spans equal the cover of their children (non-empty case).
    for e in g.elements() {
        let mut cover: Option<Span> = None;
        for &c in g.element_children(e) {
            let cspan = g.span(c);
            if !cspan.is_empty() || g.is_leaf(c) {
                cover = Some(match cover {
                    None => cspan,
                    Some(acc) => acc.cover(cspan),
                });
            }
        }
        if let Some(cover) = cover {
            if g.span(e) != cover {
                return Err(format!("element {e} span {} != cover of children {cover}", g.span(e)));
            }
        } else if !g.span(e).is_empty() {
            return Err(format!("childless element {e} has non-empty span {}", g.span(e)));
        }
    }

    Ok(())
}

/// The leaf table: offsets strictly ascend from 0 on character
/// boundaries, one per leaf plus the content length; there is one parent
/// per leaf and hierarchy, and each is the root or a live element of that
/// hierarchy whose span holds the leaf.
fn check_leaf_table(g: &Goddag) -> Result<(), String> {
    let (leaves, stride) = (g.leaf_count(), g.hierarchy_count());
    if g.offsets.len() != leaves + 1 {
        return Err(format!("{} leaf offsets for {leaves} leaves", g.offsets.len()));
    }
    if g.offsets[0] != 0 {
        return Err(format!("leaf offsets start at {}", g.offsets[0]));
    }
    if let Some(i) = g.offsets.windows(2).position(|w| w[0] >= w[1]) {
        let (a, b) = (g.offsets[i], g.offsets[i + 1]);
        return Err(format!("leaf {i} spans offsets {a}..{b}: offsets must strictly ascend"));
    }
    let end = g.offsets[leaves] as usize;
    if end != g.content_len() {
        return Err(format!("leaf offsets end at {end}, content length {}", g.content_len()));
    }
    if let Some(o) = g.offsets.iter().find(|&&o| !g.content.is_char_boundary(o as usize)) {
        return Err(format!("leaf offset {o} is inside a character"));
    }
    if g.leaf_parents.len() != leaves * stride {
        return Err(format!(
            "{} leaf parents, expected {leaves} leaves x {stride} hierarchies",
            g.leaf_parents.len()
        ));
    }
    for (k, &p) in g.leaf_parents.iter().enumerate() {
        let (i, h) = (k / stride, HierarchyId((k % stride) as u16));
        if p == g.root() {
            continue;
        }
        let holds = g.slot(p).is_some_and(|d| {
            d.alive && d.kind == Kind::Element && d.hierarchy == h && d.span.contains_leaf(i as u32)
        });
        if !holds {
            return Err(format!(
                "parent {p} of leaf {i} in {h} is not a live element of {h} holding it"
            ));
        }
    }
    Ok(())
}

/// Every id's record resolves to the root (id 0 only), a live leaf at its
/// own place in the leaf table, a live element with a row of its own in the
/// element table and a name in the table, or a tombstone; and every place
/// in the leaf table is some live leaf's.
fn check_ids(g: &Goddag) -> Result<(), String> {
    let rows = g.children.len();
    if g.parents.len() != rows {
        return Err(format!("element table: {rows} child lists, {} parents", g.parents.len()));
    }
    let mut row_taken = vec![false; rows];
    let mut live_leaves = 0;
    for (i, d) in g.slots.iter().enumerate() {
        let n = NodeId(i as u32);
        if (d.kind == Kind::Root) != (n == g.root()) {
            return Err(format!("{n}: the root's record and id {} disagree", g.root()));
        }
        if !d.alive {
            if n == g.root() {
                return Err("the root is dead".into());
            }
            continue;
        }
        match d.kind {
            Kind::Root => {
                if d.span != Span::new(0, g.leaf_count() as u32) {
                    return Err(format!("root span {} over {} leaves", d.span, g.leaf_count()));
                }
            }
            Kind::Leaf => {
                let at = d.span.start as usize;
                if d.span.len() != 1 || g.leaves.get(at) != Some(&n) {
                    return Err(format!("live leaf {n} has span {}, not its place", d.span));
                }
                live_leaves += 1;
            }
            Kind::Element => match row_taken.get_mut(d.row as usize) {
                Some(taken) if !*taken => *taken = true,
                _ => {
                    return Err(format!("element {n} has row {} of {rows}, or a taken one", d.row))
                }
            },
        }
        if d.kind != Kind::Leaf && d.name.0 as usize >= g.names.len() {
            return Err(format!("{n} has name symbol {} of {}", d.name.0, g.names.len()));
        }
    }
    if live_leaves != g.leaf_count() {
        return Err(format!(
            "{live_leaves} live leaves, {} places in the leaf table",
            g.leaf_count()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GoddagBuilder;
    use xmlcore::QName;

    fn q(s: &str) -> QName {
        QName::parse(s).unwrap()
    }

    fn doc() -> Goddag {
        let mut b = GoddagBuilder::new(q("r"));
        b.content("one two three");
        let phys = b.hierarchy("phys");
        let ling = b.hierarchy("ling");
        b.range(phys, "line", vec![], 0, 7).unwrap();
        b.range(ling, "w", vec![], 0, 3).unwrap();
        b.range(ling, "w", vec![], 4, 7).unwrap();
        b.range(ling, "w", vec![], 8, 13).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn built_documents_satisfy_invariants() {
        check_invariants(&doc()).unwrap();
    }

    /// Each corruption, applied to a fresh `doc()` (leaves "one", " ",
    /// "two", " ", "three"; phys `line` over the first three, ling `w` over
    /// each word), must be refused.
    fn refused(cases: &[fn(&mut Goddag)]) {
        for (i, corrupt) in cases.iter().enumerate() {
            let mut g = doc();
            check_invariants(&g).unwrap();
            corrupt(&mut g);
            assert!(check_invariants(&g).is_err(), "case {i} passed");
        }
    }

    fn element(g: &Goddag, local: &str, k: usize) -> crate::ids::NodeId {
        g.find_elements(local)[k]
    }

    #[test]
    fn invariants_refuse_offsets_that_do_not_tile_the_content() {
        refused(&[
            |g| g.offsets[0] = 1,                       // not from 0
            |g| g.offsets[2] = g.offsets[1],            // an empty leaf
            |g| g.offsets[1] = g.offsets[3],            // out of order
            |g| *g.offsets.last_mut().unwrap() -= 1,    // short of the content
            |g| g.offsets.push(g.content_len() as u32), // one too many
        ]);
    }

    #[test]
    fn invariants_refuse_a_leaf_parent_count_off_the_leaves() {
        refused(&[
            |g| {
                g.leaf_parents.pop();
            },
            |g| g.leaf_parents.push(g.root()),
        ]);
    }

    #[test]
    fn invariants_refuse_a_leaf_parent_that_does_not_hold_the_leaf() {
        refused(&[
            |g| g.leaf_parents[0] = g.leaves()[1],             // a leaf
            |g| g.leaf_parents[0] = element(g, "w", 0),        // another hierarchy's element
            |g| g.leaf_parents[4 * 2] = element(g, "line", 0), // an element short of it
            |g| {
                // A removed element.
                let w = element(g, "w", 2);
                g.remove_element(w).unwrap();
                g.leaf_parents[4 * 2 + 1] = w;
            },
        ]);
    }

    #[test]
    fn invariants_refuse_an_id_record_that_resolves_to_nothing() {
        refused(&[
            |g| g.data_mut(g.leaves()[1]).span = Span::new(2, 3), // a leaf at another's place
            |g| g.data_mut(g.leaves()[1]).alive = false,          // a dead leaf in the table
            |g| g.data_mut(element(g, "w", 0)).row = 99,          // a row past the table
            |g| g.data_mut(element(g, "w", 0)).row = 0,           // a row another element has
            |g| g.data_mut(element(g, "w", 0)).name = crate::tables::Sym(999), // no such name
            |g| g.data_mut(NodeId(0)).alive = false,              // a dead root
        ]);
    }

    #[test]
    fn invariants_catch_span_corruption() {
        let mut g = doc();
        let e = g.elements().next().unwrap();
        g.data_mut(e).span = Span::new(0, 99);
        assert!(check_invariants(&g).is_err());
    }
}
