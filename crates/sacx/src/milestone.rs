//! The milestone representation (TEI Guidelines solution 2, paper §2): one
//! *dominant* hierarchy keeps its real element tree; every other hierarchy's
//! element is flattened into a pair of empty elements marking its start and
//! end (`<ling:s cx:ms="start" cx:mid="m1"/> ... <ling:s cx:ms="end"
//! cx:mid="m1"/>`), which can never conflict with anything.
//!
//! Import pairs milestones by `cx:mid` and rebuilds the ranges; the exported
//! document is always well-formed regardless of how heavily the hierarchies
//! overlap.

use crate::error::{Result, SacxError};
use crate::extract::extract;
use crate::prefix::{exported_name, hierarchy_registry, split_prefix};
use goddag::{Goddag, GoddagBuilder, HierarchyId, RangeSpec};
use std::collections::BTreeMap;
use xmlcore::{Attribute, QName, Writer};

/// Milestone role attribute: `start`, `end` or `point`.
pub const CX_MS: &str = "cx:ms";
/// Milestone pairing id attribute.
pub const CX_MID: &str = "cx:mid";

/// Options for the milestone driver.
#[derive(Debug, Clone)]
pub struct MilestoneOptions {
    /// The hierarchy serialized as a real element tree. Everything else
    /// becomes milestones.
    pub dominant: String,
}

impl MilestoneOptions {
    /// Dominant-hierarchy constructor.
    pub fn new(dominant: impl Into<String>) -> MilestoneOptions {
        MilestoneOptions { dominant: dominant.into() }
    }
}

/// One flattened milestone tag awaiting emission.
#[derive(Debug)]
struct Ms {
    offset: usize,
    /// 0 = end, 1 = point, 2 = start (ends first at equal offsets).
    class: u8,
    name: QName,
    attrs: Vec<Attribute>,
}

/// Export a GODDAG as a single milestone document.
pub fn export_milestone(g: &Goddag, opts: &MilestoneOptions) -> Result<String> {
    let dominant = g.hierarchy_by_name(&opts.dominant).ok_or_else(|| {
        SacxError::Milestone(format!("unknown dominant hierarchy {:?}", opts.dominant))
    })?;

    // Milestone events from all non-dominant hierarchies.
    let mut events: Vec<Ms> = Vec::new();
    let mut mid_seq = 0usize;
    for h in g.hierarchy_ids() {
        if h == dominant {
            continue;
        }
        #[expect(
            clippy::expect_used,
            reason = "invariant: `h` comes from `hierarchy_ids`, so it is live"
        )]
        let hname = g.hierarchy(h).expect("live id").name.clone();
        let mut ordered: Vec<_> = g.elements_in(h).collect();
        ordered.sort_by_key(|&e| g.doc_order_key(e));
        for e in ordered {
            let (start, end) = g.char_range(e);
            #[expect(clippy::expect_used, reason = "invariant: every element has a name")]
            let name = exported_name(g.name(e).expect("named"), &hname, "\u{0}never");
            mid_seq += 1;
            let mid = format!("m{mid_seq}");
            if g.span(e).is_empty() {
                let mut attrs = g.attrs(e).to_vec();
                attrs.push(Attribute::new(CX_MS, "point"));
                events.push(Ms { offset: start, class: 1, name, attrs });
            } else {
                let mut attrs = g.attrs(e).to_vec();
                attrs.push(Attribute::new(CX_MS, "start"));
                attrs.push(Attribute::new(CX_MID, mid.clone()));
                events.push(Ms { offset: start, class: 2, name: name.clone(), attrs });
                events.push(Ms {
                    offset: end,
                    class: 0,
                    name,
                    attrs: vec![Attribute::new(CX_MS, "end"), Attribute::new(CX_MID, mid)],
                });
            }
        }
    }
    events.sort_by_key(|a| (a.offset, a.class));

    // Serialize the dominant hierarchy, interleaving milestones at leaf
    // boundaries (leaves split at *all* hierarchies' boundaries, so every
    // milestone offset is a leaf boundary).
    let mut w = Writer::new();
    #[expect(clippy::expect_used, reason = "invariant: the root always has a name")]
    w.start_with(g.name(g.root()).expect("root is named"), g.attrs(g.root()));
    let mut ev_i = 0usize;
    write_node(g, dominant, g.root(), &mut w, &events, &mut ev_i)?;
    // Trailing milestones (at content end).
    while ev_i < events.len() {
        w.empty(&events[ev_i].name, &events[ev_i].attrs);
        ev_i += 1;
    }
    w.end().map_err(wrap)?;
    w.finish().map_err(wrap)
}

fn wrap(e: xmlcore::XmlError) -> SacxError {
    SacxError::Milestone(e.to_string())
}

fn write_node(
    g: &Goddag,
    h: HierarchyId,
    n: goddag::NodeId,
    w: &mut Writer,
    events: &[Ms],
    ev_i: &mut usize,
) -> Result<()> {
    for &c in g.children_in(n, h) {
        if let Some(text) = g.leaf_text(c) {
            let (start, _) = g.char_range(c);
            // Milestones at or before this leaf's start go first.
            while *ev_i < events.len() && events[*ev_i].offset <= start {
                w.empty(&events[*ev_i].name, &events[*ev_i].attrs);
                *ev_i += 1;
            }
            w.text(text);
        } else {
            #[expect(
                clippy::expect_used,
                reason = "invariant: a non-leaf child is an element, and elements are named"
            )]
            let name = g.name(c).expect("elements are named");
            let attrs = g.attrs(c);
            let (cstart, _) = g.char_range(c);
            while *ev_i < events.len() && events[*ev_i].offset < cstart {
                w.empty(&events[*ev_i].name, &events[*ev_i].attrs);
                *ev_i += 1;
            }
            if g.children_in(c, h).is_empty() {
                w.empty(name, attrs);
            } else {
                w.start_with(name, attrs);
                write_node(g, h, c, w, events, ev_i)?;
                w.end().map_err(wrap)?;
            }
        }
    }
    Ok(())
}

/// Import a milestone document into a GODDAG.
///
/// `default_hierarchy` names the hierarchy for unprefixed real elements (the
/// dominant tree).
pub fn import_milestone(xml: &str, default_hierarchy: &str) -> Result<Goddag> {
    let doc = extract(xml, "milestone")?;

    // Partition: milestone elements vs real elements.
    struct Open {
        order: usize,
        name: QName,
        attrs: Vec<Attribute>,
        start: usize,
    }
    let mut open: BTreeMap<String, Open> = BTreeMap::new();
    let mut logical: Vec<(usize, QName, Vec<Attribute>, usize, usize)> = Vec::new();
    for (order, r) in doc.ranges.iter().enumerate() {
        let role = r.attrs.iter().find(|a| a.name.as_str() == CX_MS).map(|a| a.value.as_str());
        match role {
            None => logical.push((order, r.name.clone(), r.attrs.clone(), r.start, r.end)),
            Some("point") => {
                let attrs: Vec<Attribute> = r
                    .attrs
                    .iter()
                    .filter(|a| a.name.as_str() != CX_MS && a.name.as_str() != CX_MID)
                    .cloned()
                    .collect();
                logical.push((order, r.name.clone(), attrs, r.start, r.start));
            }
            Some("start") => {
                let mid = r
                    .attrs
                    .iter()
                    .find(|a| a.name.as_str() == CX_MID)
                    .ok_or_else(|| {
                        SacxError::Milestone(format!(
                            "start milestone <{}> without {CX_MID}",
                            r.name
                        ))
                    })?
                    .value
                    .clone();
                if open.contains_key(&mid) {
                    return Err(SacxError::Milestone(format!("duplicate start for id {mid:?}")));
                }
                let attrs: Vec<Attribute> = r
                    .attrs
                    .iter()
                    .filter(|a| a.name.as_str() != CX_MS && a.name.as_str() != CX_MID)
                    .cloned()
                    .collect();
                open.insert(mid, Open { order, name: r.name.clone(), attrs, start: r.start });
            }
            Some("end") => {
                let mid = r
                    .attrs
                    .iter()
                    .find(|a| a.name.as_str() == CX_MID)
                    .ok_or_else(|| {
                        SacxError::Milestone(format!("end milestone <{}> without {CX_MID}", r.name))
                    })?
                    .value
                    .clone();
                let o = open.remove(&mid).ok_or_else(|| {
                    SacxError::Milestone(format!("end milestone with unmatched id {mid:?}"))
                })?;
                if o.name != r.name {
                    return Err(SacxError::Milestone(format!(
                        "milestone pair {mid:?} has mismatched names <{}> vs <{}>",
                        o.name, r.name
                    )));
                }
                logical.push((o.order, o.name, o.attrs, o.start, r.start));
            }
            Some(other) => {
                return Err(SacxError::Milestone(format!(
                    "unknown {CX_MS} role {other:?} on <{}>",
                    r.name
                )))
            }
        }
    }
    if let Some((mid, o)) = open.into_iter().next() {
        return Err(SacxError::Milestone(format!(
            "start milestone <{}> (id {mid:?}) never ends",
            o.name
        )));
    }
    logical.sort_by_key(|(order, ..)| *order);

    // Hierarchies from prefixes.
    let prefixes: Vec<String> =
        logical.iter().map(|(_, name, ..)| split_prefix(name, default_hierarchy).0).collect();
    let registry = hierarchy_registry(&prefixes, default_hierarchy);

    let mut b = GoddagBuilder::new(doc.root_name.clone());
    b.root_attrs(doc.root_attrs.clone());
    b.content(doc.content.clone());
    let mut hids: BTreeMap<String, HierarchyId> = BTreeMap::new();
    for name in &registry {
        hids.insert(name.clone(), b.hierarchy(name.clone()));
    }
    for (_, name, attrs, start, end) in logical {
        let (hname, local) = split_prefix(&name, default_hierarchy);
        b.range_spec(RangeSpec {
            hierarchy: hids[&hname],
            name: QName::local(local),
            attrs,
            start,
            end,
        });
    }
    Ok(b.finish()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::parse_distributed;
    use goddag::check_invariants;

    fn sample() -> Goddag {
        parse_distributed(&[
            ("phys", "<r><line>swa hwa swe</line><line>nu sculon</line></r>"),
            ("ling", "<r><w>swa</w> <w>hwa</w> <s><w>swenu</w> <w>sculon</w></s></r>"),
        ])
        .unwrap()
    }

    #[test]
    fn export_is_wellformed_and_content_preserving() {
        let g = sample();
        let xml = export_milestone(&g, &MilestoneOptions::new("phys")).unwrap();
        let dom = xmlcore::dom::Document::parse(&xml).unwrap();
        assert_eq!(dom.text_content(dom.root()), g.content());
        // Dominant tree intact, others milestoned.
        assert!(xml.contains("<line>"));
        assert!(xml.contains("cx:ms=\"start\""));
        assert!(xml.contains("cx:ms=\"end\""));
    }

    #[test]
    fn roundtrip_preserves_elements_and_spans() {
        let g = sample();
        let xml = export_milestone(&g, &MilestoneOptions::new("phys")).unwrap();
        let g2 = import_milestone(&xml, "phys").unwrap();
        check_invariants(&g2).unwrap();
        assert_eq!(g2.content(), g.content());
        assert_eq!(g2.element_count(), g.element_count());
        let spans = |g: &Goddag| {
            let mut v: Vec<(String, usize, usize)> = g
                .elements()
                .map(|e| {
                    let (s, en) = g.char_range(e);
                    (g.name(e).unwrap().local.clone(), s, en)
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(spans(&g), spans(&g2));
    }

    #[test]
    fn dominant_choice_changes_surface_not_model() {
        let g = sample();
        let x1 = export_milestone(&g, &MilestoneOptions::new("phys")).unwrap();
        let x2 = export_milestone(&g, &MilestoneOptions::new("ling")).unwrap();
        assert_ne!(x1, x2);
        let g1 = import_milestone(&x1, "phys").unwrap();
        let g2 = import_milestone(&x2, "ling").unwrap();
        assert_eq!(g1.element_count(), g2.element_count());
    }

    #[test]
    fn unknown_dominant_rejected() {
        let g = sample();
        assert!(matches!(
            export_milestone(&g, &MilestoneOptions::new("nope")),
            Err(SacxError::Milestone(_))
        ));
    }

    #[test]
    fn point_milestones_roundtrip() {
        let g = parse_distributed(&[
            ("phys", "<r>ab<pb n=\"2\"/>cd</r>"),
            ("ling", "<r><w>abcd</w></r>"),
        ])
        .unwrap();
        let xml = export_milestone(&g, &MilestoneOptions::new("ling")).unwrap();
        assert!(xml.contains("cx:ms=\"point\""));
        let g2 = import_milestone(&xml, "ling").unwrap();
        let pb = g2.find_elements("pb")[0];
        assert!(g2.span(pb).is_empty());
        assert_eq!(g2.attr(pb, "n"), Some("2"));
    }

    #[test]
    fn unmatched_milestones_rejected() {
        let bad = r#"<r><s cx:ms="start" cx:mid="m1"/>text</r>"#;
        assert!(matches!(import_milestone(bad, "main"), Err(SacxError::Milestone(_))));
        let bad2 = r#"<r>text<s cx:ms="end" cx:mid="m9"/></r>"#;
        assert!(matches!(import_milestone(bad2, "main"), Err(SacxError::Milestone(_))));
    }

    #[test]
    fn mismatched_pair_names_rejected() {
        let bad = r#"<r><a cx:ms="start" cx:mid="m1"/>x<b cx:ms="end" cx:mid="m1"/></r>"#;
        assert!(matches!(import_milestone(bad, "main"), Err(SacxError::Milestone(_))));
    }

    #[test]
    fn unknown_role_rejected() {
        let bad = r#"<r><a cx:ms="middle" cx:mid="m1"/>x</r>"#;
        assert!(matches!(import_milestone(bad, "main"), Err(SacxError::Milestone(_))));
    }
}
