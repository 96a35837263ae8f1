//! Property-based tests over the core invariants:
//!
//! * any set of per-hierarchy well-nested ranges builds a GODDAG satisfying
//!   `check_invariants`;
//! * every representation round-trips the model losslessly;
//! * random edit sequences preserve the invariants and are undone exactly;
//! * the overlap index always agrees with the naive scan.

use corpus::gen::{check, Source};
use goddag::{check_invariants, Goddag, GoddagBuilder, Span};

/// Up to 11 well-nested ranges over `len` units: draw endpoint pairs and
/// keep each range that crosses none kept before, which guarantees
/// per-hierarchy well-formedness.
fn nested_ranges(src: &mut Source, len: usize) -> Vec<(usize, usize)> {
    let mut out: Vec<(usize, usize)> = Vec::new();
    for _ in 0..src.index(12) {
        let (a, b) = (src.index(len + 1), src.index(len + 1));
        let (s, e) = (a.min(b), a.max(b));
        let crosses = out.iter().any(|&(os, oe)| {
            let inter = s < oe && os < e;
            let nested = (os <= s && e <= oe) || (s <= os && oe <= e);
            inter && !nested
        });
        if !crosses {
            out.push((s, e));
        }
    }
    out
}

/// A document over `len` units with one [`nested_ranges`] hierarchy per
/// entry of `hierarchies`.
fn random_doc(src: &mut Source, len: usize, hierarchies: usize) -> Goddag {
    let ranges: Vec<_> = (0..hierarchies).map(|_| nested_ranges(src, len)).collect();
    build(len, &ranges)
}

fn ascii_content(len: usize) -> String {
    // Deterministic ASCII content — offsets are always char boundaries.
    (0..len).map(|i| (b'a' + (i % 26) as u8) as char).collect()
}

fn build(content_len: usize, hierarchies: &[Vec<(usize, usize)>]) -> Goddag {
    let mut b = GoddagBuilder::new(xmlcore::QName::parse("r").unwrap());
    b.content(ascii_content(content_len));
    for (hi, ranges) in hierarchies.iter().enumerate() {
        let h = b.hierarchy(format!("h{hi}"));
        for (i, &(s, e)) in ranges.iter().enumerate() {
            b.range(h, &format!("e{i}"), vec![], s, e).unwrap();
        }
    }
    b.finish().expect("nested ranges always build")
}

#[test]
fn builder_always_satisfies_invariants() {
    check("builder_always_satisfies_invariants", 64, |src| {
        let g = random_doc(src, 40, 3);
        assert!(check_invariants(&g).is_ok());
        assert_eq!(g.content_len(), 40);
    });
}

#[test]
fn distributed_roundtrip_lossless() {
    check("distributed_roundtrip_lossless", 64, |src| {
        let g = random_doc(src, 30, 2);
        let docs = g.to_distributed().unwrap();
        let g2 = sacx::parse_distributed(&docs).unwrap();
        assert_eq!(g2.element_count(), g.element_count());
        assert_eq!(g2.content(), g.content());
        // Per-hierarchy projections identical.
        for h in g.hierarchy_ids() {
            assert_eq!(g.to_xml(h).unwrap(), g2.to_xml(h).unwrap());
        }
    });
}

#[test]
fn standoff_roundtrip_lossless() {
    check("standoff_roundtrip_lossless", 64, |src| {
        let g = random_doc(src, 30, 2);
        let text = sacx::export_standoff(&g);
        let g2 = sacx::import_standoff(&text).unwrap();
        assert_eq!(g2.element_count(), g.element_count());
        assert_eq!(sacx::export_standoff(&g2), text);
    });
}

#[test]
fn fragmentation_roundtrip_preserves_spans() {
    check("fragmentation_roundtrip_preserves_spans", 64, |src| {
        let g = random_doc(src, 30, 2);
        let opts = sacx::FragmentationOptions::default();
        let xml = sacx::export_fragmentation(&g, &opts).unwrap();
        let g2 = sacx::import_fragmentation(&xml, &opts).unwrap();
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
        assert_eq!(spans(&g2), spans(&g));
        assert!(check_invariants(&g2).is_ok());
    });
}

#[test]
fn milestone_roundtrip_preserves_spans() {
    check("milestone_roundtrip_preserves_spans", 64, |src| {
        let g = random_doc(src, 30, 2);
        let opts = sacx::MilestoneOptions::new("h0");
        let xml = sacx::export_milestone(&g, &opts).unwrap();
        let g2 = sacx::import_milestone(&xml, "h0").unwrap();
        assert_eq!(g2.element_count(), g.element_count());
        assert_eq!(g2.content(), g.content());
        assert!(check_invariants(&g2).is_ok());
    });
}

#[test]
fn overlap_index_agrees_with_scan() {
    check("overlap_index_agrees_with_scan", 64, |src| {
        let g = random_doc(src, 30, 2);
        let idx = expath::OverlapIndex::build(&g);
        for _ in 0..10 {
            let (a, b) = (src.below(32) as u32, src.below(32) as u32);
            let (s, e) = (a.min(b), a.max(b));
            let e = e.min(g.leaf_count() as u32);
            let s = s.min(e);
            let span = Span::new(s, e);
            let mut from_idx = idx.intersecting(span);
            let mut from_scan = expath::scan_intersecting(&g, span);
            g.sort_doc_order(&mut from_idx);
            g.sort_doc_order(&mut from_scan);
            assert_eq!(from_idx, from_scan);
        }
    });
}

/// The text of `n` rebuilt from `children` and `leaf_text` alone (the
/// root's from one hierarchy's top-level list).
fn text_from_children(g: &Goddag, n: goddag::NodeId, h: goddag::HierarchyId) -> String {
    if let Some(text) = g.leaf_text(n) {
        return text.to_string();
    }
    let children = if g.is_root(n) { g.children_in(n, h).to_vec() } else { g.children(n) };
    children.iter().map(|&c| text_from_children(g, c, h)).collect()
}

#[test]
fn random_edits_preserve_invariants() {
    check("random_edits_preserve_invariants", 64, |src| {
        let mut g = build(30, &[vec![(0, 30)], vec![(5, 25)]]);
        let h0 = goddag::HierarchyId(0);
        let mut len = 30;
        for _ in 0..1 + src.index(14) {
            let (kind, a, b) = (src.below(5), src.index(30), src.index(30));
            let (s, e) = (a.min(b).min(len), a.max(b).min(len));
            match kind {
                0 => {
                    // Insertion may fail (crossing) — that's fine; it must
                    // not corrupt the document.
                    let _ = g.insert_element(h0, xmlcore::QName::parse("x").unwrap(), vec![], s, e);
                }
                1 => {
                    let target = g.elements().nth(a % 3);
                    if let Some(e1) = target {
                        let _ = g.remove_element(e1);
                    }
                }
                2 => {
                    let _ = g.split_leaf_at(s);
                }
                3 => {
                    // Multi-byte text leaves offsets inside characters for
                    // later draws, which must be refused, not corrupt.
                    let text = src.pick(&["x", "yz", "þ", "ā b"]);
                    if g.insert_text(s, text).is_ok() {
                        len += text.len();
                        // It lands inside one leaf: the one that held `s`.
                        let (a, b) = g.char_range(g.leaf_at_char(s).unwrap());
                        assert!(a <= s && s + text.len() <= b, "{a}..{b} holds {s}+{text:?}");
                    }
                }
                _ => {
                    if g.delete_text(s, e).is_ok() {
                        len -= e - s;
                    }
                }
            }
            assert!(check_invariants(&g).is_ok());
            assert_eq!(g.content_len(), len);
            for h in g.hierarchy_ids() {
                assert_eq!(g.text(g.root()), text_from_children(&g, g.root(), h));
            }
            for n in g.elements().chain(g.leaves().iter().copied()) {
                assert_eq!(g.text(n), text_from_children(&g, n, h0), "{n}");
            }
        }
    });
}

#[test]
fn undo_restores_exact_state() {
    check("undo_restores_exact_state", 64, |src| {
        let (s, len) = (src.index(15), 1 + src.index(9));
        let g = build(30, &[vec![(0, 30)], vec![(5, 25)]]);
        let before_docs = g.to_distributed().unwrap();
        let before_counts = (g.element_count(), g.leaf_count(), g.content());
        let mut session = xtagger::Session::new(g);
        let e = (s + len).min(30);
        if session.insert_markup(goddag::HierarchyId(0), "w", vec![], s, e).is_ok() {
            session.undo().unwrap();
        }
        let g = session.into_goddag();
        assert_eq!(g.to_distributed().unwrap(), before_docs);
        assert_eq!((g.element_count(), g.leaf_count(), g.content()), before_counts);
    });
}
