//! Stand-off annotation: the representation that separates content from
//! markup entirely — a base text plus `(hierarchy, tag, start, end)` records.
//!
//! This is the most direct surface form of the GODDAG (ranges *are* the
//! model) and the interchange format used by annotation pipelines. The
//! serialized form is a simple line-oriented text format:
//!
//! ```text
//! #cxml-standoff v1
//! root r id=ms1
//! hierarchy phys
//! hierarchy ling
//! content 18
//! one two three four
//! annot 0 line 0 7 n=1
//! annot 1 w 0 3
//! ```
//!
//! Names and attribute values are percent-encoded (`%xx`) so they survive
//! whitespace and newlines. The format is declared once as a
//! [`directives!`](crate::directives) file: blank lines, `#` comments and
//! trailing blanks are skipped for hand editing; `root` and `content` appear
//! exactly once.

use crate::error::{Result, SacxError};
use crate::token::{Attrs, Bare, Block};
use goddag::{Goddag, GoddagBuilder, HierarchyId, RangeSpec};
use xmlcore::{Attribute, QName};

crate::line! {
    /// One stand-off annotation record: an `annot` line.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Annotation {
        /// Index into [`StandoffDoc::hierarchies`].
        pub hierarchy: u16,
        /// Element name (local).
        pub tag: String as Bare,
        /// Content byte range (empty when `start == end`).
        pub start: usize,
        /// End offset (exclusive).
        pub end: usize,
        /// `(name, value)` attribute pairs.
        pub attrs: Vec<(String, String)> as Attrs<Bare>,
    }
}

crate::directives! {
    /// A complete stand-off document.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StandoffDoc("#cxml-standoff v1", None, lenient) -> SacxError::Standoff {
        "root" once {
            /// Shared root element name.
            root: String as Bare,
            /// Root attributes.
            root_attrs: Vec<(String, String)> as Attrs<Bare>,
        },
        "hierarchy" many {
            /// Hierarchy names.
            hierarchies: String as Bare,
        },
        "content" once {
            /// The base text.
            content: String as Block<true>,
        },
        "annot" many {
            /// Annotations in document order (outer-first for equal spans).
            annotations: Annotation,
        },
    }
}

impl StandoffDoc {
    /// Build the stand-off view of a GODDAG.
    pub fn from_goddag(g: &Goddag) -> StandoffDoc {
        StandoffDoc::from_goddag_with_ids(g).0
    }

    /// Build the stand-off view and also report which element produced each
    /// annotation (`ids[i]` is the [`goddag::NodeId`] behind
    /// `annotations[i]`).
    ///
    /// The annotation order is a *structural* document order: span start
    /// ascending, span end descending, hierarchy, then nesting depth
    /// (parents before children). Depth — not node id — breaks the tie
    /// between same-hierarchy elements with identical spans, because edits
    /// can leave a parent with a higher id than its child, and
    /// [`StandoffDoc::to_goddag`] nests equal spans outer-first in
    /// annotation order. The order is therefore id-independent, which is
    /// what lets a persistence layer record `ids` beside the text and later
    /// build the document straight back into them
    /// ([`StandoffDoc::into_builder`] + [`goddag::GoddagBuilder::layout`]).
    pub fn from_goddag_with_ids(g: &Goddag) -> (StandoffDoc, Vec<goddag::NodeId>) {
        // (span start, -span end, hierarchy, depth) — the structural sort key.
        type Key = (u32, i64, u16, u32);
        let mut annotations: Vec<(goddag::NodeId, Key, Annotation)> = Vec::new();
        for h in g.hierarchy_ids() {
            for e in g.elements_in(h) {
                let (start, end) = g.char_range(e);
                let span = g.span(e);
                let mut depth = 0u32;
                let mut cur = e;
                while let Some(p) = g.parent_in(cur, h) {
                    if p == g.root() {
                        break;
                    }
                    depth += 1;
                    cur = p;
                }
                #[expect(clippy::expect_used, reason = "invariant: every element has a name")]
                annotations.push((
                    e,
                    (span.start, -(span.end as i64), h.0, depth),
                    Annotation {
                        hierarchy: h.0,
                        tag: g.name(e).expect("named").local.clone(),
                        start,
                        end,
                        attrs: g
                            .attrs(e)
                            .iter()
                            .map(|a| (a.name.to_string(), a.value.to_string()))
                            .collect(),
                    },
                ));
            }
        }
        // The key is total over live elements: equal spans within one
        // hierarchy force an ancestor chain (crossing is impossible), so
        // depths differ; distinct hierarchies differ in the third component.
        annotations.sort_by_key(|(_, key, _)| *key);
        let ids = annotations.iter().map(|(e, _, _)| *e).collect();
        #[expect(
            clippy::expect_used,
            reason = "invariant: the root always has a name, and each `h` comes from \
                      `hierarchy_ids`, so it is live"
        )]
        let doc = StandoffDoc {
            root: g.name(g.root()).expect("root is named").to_string(),
            root_attrs: g
                .attrs(g.root())
                .iter()
                .map(|a| (a.name.to_string(), a.value.to_string()))
                .collect(),
            hierarchies: g
                .hierarchy_ids()
                .map(|h| g.hierarchy(h).expect("live id").name.clone())
                .collect(),
            content: g.content(),
            annotations: annotations.into_iter().map(|(_, _, a)| a).collect(),
        };
        (doc, ids)
    }

    /// Materialize the GODDAG.
    pub fn to_goddag(&self) -> Result<Goddag> {
        Ok(self.clone().into_builder()?.finish()?)
    }

    /// Hand the document to a [`GoddagBuilder`]: one range per annotation,
    /// in annotation order. A caller holding a recorded id layout (element
    /// ids parallel to the annotations) adds it with
    /// [`GoddagBuilder::layout`] before `finish`.
    pub fn into_builder(self) -> Result<GoddagBuilder> {
        let bad = |detail: String| SacxError::Standoff { line: 0, detail };
        let attrs = |pairs: Vec<(String, String)>| -> Result<Vec<Attribute>> {
            // Sized exactly (collecting `Result`s would not be): the list
            // lives on in the document.
            let mut out = Vec::with_capacity(pairs.len());
            for (n, value) in pairs {
                let name =
                    QName::parse(&n).map_err(|e| bad(format!("bad attribute name {n:?}: {e}")))?;
                out.push(Attribute { name, value });
            }
            Ok(out)
        };
        let root = QName::parse(&self.root).map_err(|e| bad(format!("bad root name: {e}")))?;
        let mut b = GoddagBuilder::new(root);
        b.root_attrs(attrs(self.root_attrs)?);
        b.content(self.content);
        let hids: Vec<HierarchyId> = self.hierarchies.into_iter().map(|n| b.hierarchy(n)).collect();
        for a in self.annotations {
            let h = *hids.get(a.hierarchy as usize).ok_or_else(|| {
                bad(format!("annotation references unknown hierarchy {}", a.hierarchy))
            })?;
            let name =
                QName::parse(&a.tag).map_err(|e| bad(format!("bad tag name {:?}: {e}", a.tag)))?;
            b.range_spec(RangeSpec {
                hierarchy: h,
                name,
                attrs: attrs(a.attrs)?,
                start: a.start,
                end: a.end,
            });
        }
        Ok(b)
    }
}

/// Convenience: GODDAG → stand-off text.
pub fn export_standoff(g: &Goddag) -> String {
    StandoffDoc::from_goddag(g).to_text()
}

/// Convenience: stand-off text → GODDAG.
pub fn import_standoff(input: &str) -> Result<Goddag> {
    Ok(StandoffDoc::parse_text(input)?.into_builder()?.finish()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::parse_distributed;
    use goddag::check_invariants;

    fn sample() -> Goddag {
        parse_distributed(&[
            ("phys", "<r><line n=\"1\">swa hwa swe</line><line n=\"2\">nu sculon</line></r>"),
            ("ling", "<r><w>swa</w> <w>hwa</w> <s><w>swenu</w> <w>sculon</w></s></r>"),
        ])
        .unwrap()
    }

    #[test]
    fn text_roundtrip() {
        let g = sample();
        let text = export_standoff(&g);
        let g2 = import_standoff(&text).unwrap();
        check_invariants(&g2).unwrap();
        assert_eq!(g2.content(), g.content());
        assert_eq!(g2.element_count(), g.element_count());
        assert_eq!(export_standoff(&g2), text);
    }

    #[test]
    fn struct_roundtrip() {
        let g = sample();
        let doc = StandoffDoc::from_goddag(&g);
        assert_eq!(doc.hierarchies, ["phys", "ling"]);
        assert_eq!(doc.annotations.len(), 7);
        let g2 = doc.to_goddag().unwrap();
        assert_eq!(
            g2.to_xml(goddag::HierarchyId(0)).unwrap(),
            g.to_xml(goddag::HierarchyId(0)).unwrap()
        );
    }

    #[test]
    fn escaping_attrs_and_names() {
        let g = parse_distributed(&[("a", "<r><w note=\"two words = tricky\nnewline\">x</w></r>")])
            .unwrap();
        let text = export_standoff(&g);
        let g2 = import_standoff(&text).unwrap();
        let w = g2.find_elements("w")[0];
        assert_eq!(g2.attr(w, "note"), Some("two words = tricky\nnewline"));
    }

    #[test]
    fn non_ascii_attr_values_roundtrip() {
        let g = parse_distributed(&[("a", "<r><w lemma=\"swā þæt\">x</w></r>")]).unwrap();
        let text = export_standoff(&g);
        assert!(text.lines().last().unwrap().is_ascii(), "annotations stay ASCII-clean");
        let g2 = import_standoff(&text).unwrap();
        let w = g2.find_elements("w")[0];
        assert_eq!(g2.attr(w, "lemma"), Some("swā þæt"));
    }

    #[test]
    fn content_with_newlines_survives() {
        let g = parse_distributed(&[("a", "<r>line one\nline two\n</r>")]).unwrap();
        let text = export_standoff(&g);
        let g2 = import_standoff(&text).unwrap();
        assert_eq!(g2.content(), "line one\nline two\n");
    }

    #[test]
    fn bad_magic_rejected() {
        assert!(matches!(
            StandoffDoc::parse_text("not standoff"),
            Err(SacxError::Standoff { line: 1, .. })
        ));
    }

    #[test]
    fn truncated_content_rejected() {
        let bad = "#cxml-standoff v1\nroot r\ncontent 100\nshort";
        assert!(matches!(StandoffDoc::parse_text(bad), Err(SacxError::Standoff { .. })));
    }

    #[test]
    fn unknown_hierarchy_index_rejected() {
        let bad = "#cxml-standoff v1\nroot r\nhierarchy a\ncontent 2\nxy\nannot 5 w 0 1\n";
        let doc = StandoffDoc::parse_text(bad).unwrap();
        assert!(matches!(doc.to_goddag(), Err(SacxError::Standoff { .. })));
    }

    #[test]
    fn bad_tag_and_attribute_names_rejected() {
        let good =
            "#cxml-standoff v1\nroot r id=1\nhierarchy a\ncontent 3\nxyz\nannot 0 w 0 3 n=1\n";
        assert!(import_standoff(good).is_ok());
        for (from, to) in [("annot 0 w", "annot 0 1w"), (" n=1", " 1x=1"), ("id=1", "1d=1")] {
            let bad = good.replace(from, to);
            let err = import_standoff(&bad).unwrap_err();
            assert!(matches!(err, SacxError::Standoff { .. }), "{to:?}: {err}");
        }
    }

    #[test]
    fn unknown_directive_rejected() {
        let bad = "#cxml-standoff v1\nroot r\nwat 1\ncontent 0\n\n";
        assert!(matches!(StandoffDoc::parse_text(bad), Err(SacxError::Standoff { .. })));
    }

    #[test]
    fn extra_tokens_on_a_directive_line_rejected() {
        let good = "#cxml-standoff v1\nroot r\nhierarchy ling\ncontent 2\nxy\nannot 0 w 0 1\n";
        assert!(StandoffDoc::parse_text(good).is_ok());
        for (line, junk) in
            [("hierarchy ling\n", "hierarchy ling junk\n"), ("content 2\n", "content 2 junk\n")]
        {
            let bad = good.replace(line, junk);
            assert!(
                matches!(StandoffDoc::parse_text(&bad), Err(SacxError::Standoff { .. })),
                "{junk:?} accepted"
            );
        }
    }

    #[test]
    fn one_spelling_per_file_with_hand_editing_leniency() {
        let good =
            "#cxml-standoff v1\nroot r id=1\nhierarchy a\ncontent 3\nxyz\nannot 0 w 0 3 n=1\n";
        let doc = StandoffDoc::parse_text(good).unwrap();
        let edited = good.replace("hierarchy a\n", "# a comment\n\nhierarchy a  \n");
        assert_eq!(StandoffDoc::parse_text(&edited).unwrap(), doc);
        for (from, to) in [
            ("#cxml-standoff v1\n", "  #cxml-standoff v1  \n"),
            // A second root line is refused, not merged into the first.
            ("root r id=1\n", "root r id=1\nroot r n=2\n"),
            ("content 3\nxyz\n", "content 3\nxyz\ncontent 1\nx\n"),
            ("annot 0 w 0 3", "annot 0 w 00 3"),
            ("annot 0 w 0 3", "annot +0 w 0 3"),
            ("content 3\nxyz\n", "content 3\nxyz"),
            ("root r id=1", "root r id=%31"),
        ] {
            let bad = good.replace(from, to);
            assert!(StandoffDoc::parse_text(&bad).is_err(), "{to:?} accepted");
        }
    }

    #[test]
    fn equal_spans_roundtrip_parent_first_even_with_inverted_ids() {
        // Wrap "abcd" in <inner>, wrap "abcdefg" in <outer> (which becomes
        // inner's parent with a *higher* node id), then delete "efg": the
        // spans are now equal while the parent still has the higher id.
        // Export order must follow nesting, not ids, or the re-import would
        // flip the chain.
        let mut g = parse_distributed(&[("a", "<r>abcdefg</r>")]).unwrap();
        let h = g.hierarchy_by_name("a").unwrap();
        let inner =
            g.insert_element(h, xmlcore::QName::parse("inner").unwrap(), vec![], 0, 4).unwrap();
        let outer =
            g.insert_element(h, xmlcore::QName::parse("outer").unwrap(), vec![], 0, 7).unwrap();
        g.delete_text(4, 7).unwrap();
        assert_eq!(g.parent_in(inner, h), Some(outer));
        assert_eq!(g.char_range(inner), g.char_range(outer));
        assert!(outer > inner, "the parent must have the higher id for this test to bite");

        let (doc, ids) = StandoffDoc::from_goddag_with_ids(&g);
        assert_eq!(doc.annotations.len(), 2);
        assert_eq!(
            doc.annotations.iter().map(|a| a.tag.as_str()).collect::<Vec<_>>(),
            ["outer", "inner"],
            "equal spans must serialize outermost-first"
        );
        assert_eq!(ids[0], outer);

        let g2 = doc.to_goddag().unwrap();
        check_invariants(&g2).unwrap();
        assert_eq!(g2.to_xml(goddag::HierarchyId(0)).unwrap(), g.to_xml(h).unwrap());
        // And the re-derived annotation order matches element-for-element.
        let (doc2, ids2) = StandoffDoc::from_goddag_with_ids(&g2);
        assert_eq!(doc2.annotations, doc.annotations);
        assert_eq!(ids2.len(), ids.len());
    }

    #[test]
    fn with_ids_parallels_annotations() {
        let g = sample();
        let (doc, ids) = StandoffDoc::from_goddag_with_ids(&g);
        assert_eq!(doc.annotations.len(), ids.len());
        for (a, &e) in doc.annotations.iter().zip(&ids) {
            assert_eq!(g.name(e).unwrap().local, a.tag);
            assert_eq!(g.char_range(e), (a.start, a.end));
            assert_eq!(g.hierarchy_of(e).unwrap().0, a.hierarchy);
        }
    }

    #[test]
    fn empty_document_roundtrip() {
        let g = parse_distributed(&[("a", "<r/>")]).unwrap();
        let text = export_standoff(&g);
        let g2 = import_standoff(&text).unwrap();
        assert_eq!(g2.content(), "");
        assert_eq!(g2.element_count(), 0);
    }
}
