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
//! Attribute values are percent-encoded (`%xx`) so they survive whitespace
//! and newlines.

use crate::error::{Result, SacxError};
use crate::token::{escape_token, take_line, Tokens};
use goddag::{Goddag, GoddagBuilder, HierarchyId, RangeSpec};
use std::fmt::Write as _;
use xmlcore::{Attribute, QName};

/// One stand-off annotation record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Annotation {
    /// Index into [`StandoffDoc::hierarchies`].
    pub hierarchy: u16,
    /// Element name (local).
    pub tag: String,
    /// Content byte range (empty when `start == end`).
    pub start: usize,
    /// End offset (exclusive).
    pub end: usize,
    /// `(name, value)` attribute pairs.
    pub attrs: Vec<(String, String)>,
}

/// A complete stand-off document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StandoffDoc {
    /// Shared root element name.
    pub root: String,
    /// Root attributes.
    pub root_attrs: Vec<(String, String)>,
    /// Hierarchy names.
    pub hierarchies: Vec<String>,
    /// The base text.
    pub content: String,
    /// Annotations in document order (outer-first for equal spans).
    pub annotations: Vec<Annotation>,
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
                            .map(|a| (a.name.to_string(), a.value.clone()))
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
        let doc = StandoffDoc {
            root: g.name(g.root()).expect("root is named").to_string(),
            root_attrs: g
                .attrs(g.root())
                .iter()
                .map(|a| (a.name.to_string(), a.value.clone()))
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
        let attrs = |pairs: Vec<(String, String)>| -> Vec<Attribute> {
            pairs.into_iter().map(|(n, v)| Attribute::new(n.as_str(), v)).collect()
        };
        let root = QName::parse(&self.root).map_err(|e| bad(format!("bad root name: {e}")))?;
        let mut b = GoddagBuilder::new(root);
        b.root_attrs(attrs(self.root_attrs));
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
                attrs: attrs(a.attrs),
                start: a.start,
                end: a.end,
            });
        }
        Ok(b)
    }

    /// Serialize to the line-oriented text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("#cxml-standoff v1\n");
        let _ = write!(out, "root {}", escape_token(&self.root));
        for (n, v) in &self.root_attrs {
            let _ = write!(out, " {}={}", escape_token(n), escape_token(v));
        }
        out.push('\n');
        for h in &self.hierarchies {
            let _ = writeln!(out, "hierarchy {}", escape_token(h));
        }
        let _ = writeln!(out, "content {}", self.content.len());
        out.push_str(&self.content);
        out.push('\n');
        for a in &self.annotations {
            let _ =
                write!(out, "annot {} {} {} {}", a.hierarchy, escape_token(&a.tag), a.start, a.end);
            for (n, v) in &a.attrs {
                let _ = write!(out, " {}={}", escape_token(n), escape_token(v));
            }
            out.push('\n');
        }
        out
    }

    /// Parse the line-oriented text format.
    pub fn parse_text(input: &str) -> Result<StandoffDoc> {
        let mut rest = input;

        let header = take_line(&mut rest)
            .ok_or(SacxError::Standoff { line: 1, detail: "empty input".into() })?;
        if header.trim() != "#cxml-standoff v1" {
            return Err(SacxError::Standoff { line: 1, detail: "bad magic line".into() });
        }

        let mut root: Option<String> = None;
        let mut root_attrs: Vec<(String, String)> = Vec::new();
        let mut hierarchies: Vec<String> = Vec::new();
        let mut content: Option<String> = None;
        let mut annotations: Vec<Annotation> = Vec::new();
        let mut ln = 1usize;
        while let Some(line) = take_line(&mut rest) {
            ln += 1;
            if line.trim().is_empty() || line.starts_with('#') {
                continue;
            }
            // Trailing blanks on a hand-edited line are not tokens.
            let mut t = Tokens::new(line.trim_end_matches(' '));
            let mut directive = || -> std::result::Result<(), String> {
                match t.token("directive")? {
                    "root" => {
                        root = Some(t.string("root name")?);
                        root_attrs.extend(t.attrs()?);
                    }
                    "hierarchy" => hierarchies.push(t.string("hierarchy name")?),
                    "content" => {
                        let len: usize = t.parse("content byte length")?;
                        if rest.len() < len {
                            return Err(format!(
                                "content length {len} exceeds remaining input {}",
                                rest.len()
                            ));
                        }
                        if !rest.is_char_boundary(len) {
                            return Err("content length splits a UTF-8 char".into());
                        }
                        content = Some(rest[..len].to_string());
                        rest = &rest[len..];
                        // Consume the newline terminating the content block.
                        if let Some(r) = rest.strip_prefix('\n') {
                            rest = r;
                        }
                    }
                    "annot" => annotations.push(Annotation {
                        hierarchy: t.parse("hierarchy index")?,
                        tag: t.string("tag")?,
                        start: t.parse("start offset")?,
                        end: t.parse("end offset")?,
                        attrs: t.attrs()?,
                    }),
                    other => return Err(format!("unknown directive {other:?}")),
                }
                t.finish()
            };
            directive().map_err(|detail| SacxError::Standoff { line: ln, detail })?;
        }
        Ok(StandoffDoc {
            root: root.ok_or(SacxError::Standoff { line: ln, detail: "missing root".into() })?,
            root_attrs,
            hierarchies,
            content: content
                .ok_or(SacxError::Standoff { line: ln, detail: "missing content".into() })?,
            annotations,
        })
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
