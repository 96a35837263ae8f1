//! Structural invariant checking and per-hierarchy DTD validation.
//!
//! `check_invariants` asserts the restricted-GODDAG properties the rest of
//! the framework relies on. It is used pervasively in tests (including the
//! property-based suites) and after editor commands in debug builds.

use crate::graph::{Goddag, Kind, NodeKind};
use crate::ids::HierarchyId;
use crate::span::Span;
use std::collections::HashSet;
use xmlcore::dtd::{validate_attrs, validate_children, AutomatonCache, ValidationReport};

/// Check every structural invariant of the GODDAG. Returns the first
/// violation as an error string (with enough context to debug it).
pub fn check_invariants(g: &Goddag) -> Result<(), String> {
    // 0. The layout's own tables: the dense leaf-parent array has one entry
    //    per slot and hierarchy, and every symbol names a table entry.
    let stride = g.hierarchy_count();
    if g.leaf_parents.len() != g.arena_len() * stride {
        return Err(format!(
            "leaf-parent array holds {} ids, expected arena {} x hierarchies {stride}",
            g.leaf_parents.len(),
            g.arena_len()
        ));
    }
    g.names.check()?;
    g.attrs.check()?;
    for (i, d) in g.nodes.iter().enumerate() {
        if d.kind != Kind::Leaf && d.name.0 as usize >= g.names.len() {
            return Err(format!("n{i} has name symbol {} of {}", d.name.0, g.names.len()));
        }
    }
    for ((i, d), start) in g.nodes.iter().enumerate().zip(g.attrs.group_starts(g.arena_len())) {
        if d.attr_start != start {
            return Err(format!("n{i} attribute group at {}, stored at {start}", d.attr_start));
        }
    }
    for r in g.attrs.all() {
        if r.name.0 as usize >= g.names.len() {
            return Err(format!("attribute of {} has name symbol {}", r.owner, r.name.0));
        }
        if r.owner.idx() >= g.arena_len() || g.data(r.owner).kind == Kind::Leaf {
            return Err(format!("attribute owner {} is not an element or the root", r.owner));
        }
    }

    // 1. The frontier holds only live leaves; their spans follow their
    //    index, and their byte ranges tile the content buffer on character
    //    boundaries.
    let mut off = 0usize;
    for (i, &leaf) in g.leaves().iter().enumerate() {
        let d = g.data(leaf);
        if !d.alive {
            return Err(format!("frontier contains dead node {leaf}"));
        }
        if d.kind != Kind::Leaf {
            return Err(format!("frontier contains non-leaf {leaf}"));
        }
        if d.len == 0 {
            return Err(format!("frontier contains empty leaf {leaf}"));
        }
        if d.span != Span::new(i as u32, i as u32 + 1) {
            return Err(format!("leaf {leaf} has span {} at index {i}", d.span));
        }
        if d.start() != off {
            return Err(format!(
                "leaf {leaf} char_start {} but running offset {off}",
                d.char_start
            ));
        }
        if !g.content.is_char_boundary(off) {
            return Err(format!("leaf {leaf} starts inside a character at {off}"));
        }
        off += d.len as usize;
    }
    if off != g.content_len() {
        return Err(format!("content_len {} but leaves sum to {off}", g.content_len()));
    }

    // 2. Per hierarchy: the induced subgraph is a tree over that hierarchy's
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
                        if cd.parent() != Some(n) {
                            return Err(format!(
                                "element {c} parent pointer {:?} != list owner {n}",
                                cd.parent()
                            ));
                        }
                        if !seen_elems.insert(c) {
                            return Err(format!("element {c} appears twice in hierarchy {h}"));
                        }
                        stack.push(c);
                    }
                    Kind::Leaf => {
                        let p = g.leaf_parents_of(c)[h.idx()];
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

    // 3. Element spans equal the cover of their children (non-empty case).
    for e in g.elements() {
        let mut cover: Option<Span> = None;
        for &c in &g.data(e).children {
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

/// Validate one hierarchy of the GODDAG against a DTD.
///
/// Each element's child sequence (element names only; leaf children count as
/// text) is matched against the DTD content model, and attributes are checked.
/// The root is validated under the DTD's root declaration.
pub fn validate_hierarchy(g: &Goddag, h: HierarchyId, dtd: &xmlcore::dtd::Dtd) -> ValidationReport {
    let mut report = ValidationReport::default();
    let mut cache = AutomatonCache::default();
    let mut ids = HashSet::new();

    let mut stack = vec![g.root()];
    while let Some(n) = stack.pop() {
        let elem_name = match g.name(n) {
            Some(q) => q.local.clone(),
            None => continue,
        };
        let children = g.children_in(n, h);
        let mut child_names: Vec<&str> = Vec::new();
        let mut has_text = false;
        for &c in children {
            match g.kind(c) {
                NodeKind::Element { name, .. } => {
                    child_names.push(&name.local);
                    stack.push(c);
                }
                NodeKind::Leaf { text } => {
                    if !text.chars().all(char::is_whitespace) {
                        has_text = true;
                    }
                }
                NodeKind::Root { .. } => unreachable!("root is never a child"),
            }
        }
        validate_children(dtd, &mut cache, &elem_name, &child_names, has_text, &mut report);
        validate_attrs(dtd, &elem_name, &g.attrs(n).to_vec(), &mut ids, &mut report);
    }
    report
}

/// Validate every hierarchy that has a DTD attached; returns one report per
/// hierarchy (hierarchies without DTDs get empty—valid—reports).
pub fn validate_all(g: &Goddag) -> Vec<(HierarchyId, ValidationReport)> {
    g.hierarchy_ids()
        .map(|h| {
            let report = match &g.hierarchy(h).expect("iterating live ids").dtd {
                Some(dtd) => validate_hierarchy(g, h, dtd),
                None => ValidationReport::default(),
            };
            (h, report)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GoddagBuilder;
    use xmlcore::dtd::parse_dtd;
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

    #[test]
    fn validate_hierarchy_against_dtd() {
        let g = doc();
        let ling = g.hierarchy_by_name("ling").unwrap();
        // Words directly under the root mixed with text.
        let dtd = parse_dtd("<!ELEMENT r (#PCDATA | w)*> <!ELEMENT w (#PCDATA)>").unwrap();
        let report = validate_hierarchy(&g, ling, &dtd);
        assert!(report.is_valid(), "{:?}", report.errors);
    }

    #[test]
    fn validate_detects_wrong_structure() {
        let g = doc();
        let ling = g.hierarchy_by_name("ling").unwrap();
        // DTD that requires w inside s — our words sit directly under r.
        let dtd = parse_dtd("<!ELEMENT r (s+)> <!ELEMENT s (#PCDATA | w)*> <!ELEMENT w (#PCDATA)>")
            .unwrap();
        let report = validate_hierarchy(&g, ling, &dtd);
        assert!(!report.is_valid());
    }

    #[test]
    fn validate_all_mixed_dtds() {
        let mut g = doc();
        let phys = g.hierarchy_by_name("phys").unwrap();
        g.set_dtd(
            phys,
            parse_dtd("<!ELEMENT r (#PCDATA | line)*> <!ELEMENT line (#PCDATA)>").unwrap(),
        )
        .unwrap();
        let reports = validate_all(&g);
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|(_, r)| r.is_valid()));
    }

    #[test]
    fn invariants_catch_manual_corruption() {
        let mut g = doc();
        // Corrupt a leaf parent pointer directly.
        let leaf = g.leaves()[0];
        let bogus = g.leaves()[1];
        g.set_leaf_parent(leaf, HierarchyId(0), bogus);
        assert!(check_invariants(&g).is_err());
    }

    #[test]
    fn invariants_catch_layout_corruption() {
        // A leaf longer than its slice: the leaves no longer tile the buffer.
        let mut g = doc();
        let leaf = g.leaves()[0];
        g.data_mut(leaf).len += 1;
        assert!(check_invariants(&g).is_err());
        // A dense leaf-parent array of the wrong length.
        let mut g = doc();
        g.leaf_parents.pop();
        assert!(check_invariants(&g).is_err());
        // A name symbol outside the table.
        let mut g = doc();
        let e = g.elements().next().unwrap();
        g.data_mut(e).name = crate::tables::Sym(999);
        assert!(check_invariants(&g).is_err());
    }

    #[test]
    fn invariants_catch_span_corruption() {
        let mut g = doc();
        let e = g.elements().next().unwrap();
        g.data_mut(e).span = Span::new(0, 99);
        assert!(check_invariants(&g).is_err());
    }
}
