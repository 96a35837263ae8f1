//! The per-document SAX pass: extract content and markup ranges from one XML
//! document.
//!
//! This is the front half of SACX (Iacob, Dekhtyar & Kaneko, WIDM 2004): each
//! surface document is reduced to its text content plus a set of byte-offset
//! ranges; the back half (merging + GODDAG construction) operates purely on
//! ranges and never re-touches the XML.

use crate::error::{Result, SacxError};
use xmlcore::{Attribute, Event, QName, Reader};

/// One markup range extracted from a document, with byte offsets into the
/// document's text content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedRange {
    /// Element name as written (prefix retained).
    pub name: QName,
    /// Attributes as written.
    pub attrs: Vec<Attribute>,
    /// Content byte offset of the first covered byte.
    pub start: usize,
    /// Content byte offset one past the last covered byte.
    pub end: usize,
    /// True when the element was written as an empty tag (`<pb/>`). An
    /// element with no content written as `<a></a>` has `empty == false` but
    /// `start == end`.
    pub empty: bool,
}

/// The result of extracting one document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractedDoc {
    /// Root element name.
    pub root_name: QName,
    /// Root element attributes.
    pub root_attrs: Vec<Attribute>,
    /// Concatenated text content (the shared content of the distributed
    /// document).
    pub content: String,
    /// Markup ranges in start-tag (document) order, root excluded.
    pub ranges: Vec<ExtractedRange>,
}

/// Extract content + ranges from one XML document. Comments and processing
/// instructions are discarded (documented representation loss: GODDAG models
/// element structure over content).
pub fn extract(xml: &str, hierarchy_label: &str) -> Result<ExtractedDoc> {
    let mut reader = Reader::new(xml);
    let mut content = String::new();
    let mut root_name: Option<QName> = None;
    let mut root_attrs: Vec<Attribute> = Vec::new();
    let mut ranges: Vec<ExtractedRange> = Vec::new();
    // Stack of open range indices (`usize::MAX` marks the root itself).
    let mut stack: Vec<usize> = Vec::new();

    loop {
        let ev = reader
            .next_event()
            .map_err(|source| SacxError::Xml { hierarchy: hierarchy_label.to_string(), source })?;
        match ev {
            Event::StartElement { name, attrs, .. } => {
                if root_name.is_none() {
                    root_name = Some(name);
                    root_attrs = attrs;
                    stack.push(usize::MAX);
                } else {
                    stack.push(ranges.len());
                    ranges.push(ExtractedRange {
                        name,
                        attrs,
                        start: content.len(),
                        end: usize::MAX,
                        empty: false,
                    });
                }
            }
            Event::EmptyElement { name, attrs, .. } => {
                if root_name.is_none() {
                    // `<r/>` as the entire document.
                    root_name = Some(name);
                    root_attrs = attrs;
                } else {
                    ranges.push(ExtractedRange {
                        name,
                        attrs,
                        start: content.len(),
                        end: content.len(),
                        empty: true,
                    });
                }
            }
            Event::EndElement { .. } => {
                #[expect(
                    clippy::expect_used,
                    reason = "invariant: the reader refuses an end tag without its start, and \
                              every start pushed one slot"
                )]
                let top = stack.pop().expect("reader guarantees balance");
                if top != usize::MAX {
                    ranges[top].end = content.len();
                }
            }
            Event::Text { text, .. } => content.push_str(&text),
            Event::Comment { .. } | Event::ProcessingInstruction { .. } => {}
            Event::Eof => break,
        }
    }

    let root_name = root_name.ok_or(SacxError::Xml {
        hierarchy: hierarchy_label.to_string(),
        source: xmlcore::XmlError::NoRootElement,
    })?;
    debug_assert!(ranges.iter().all(|r| r.end != usize::MAX));
    Ok(ExtractedDoc { root_name, root_attrs, content, ranges })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extract_simple() {
        let d = extract("<r><line>one two</line> three</r>", "phys").unwrap();
        assert_eq!(d.root_name.local, "r");
        assert_eq!(d.content, "one two three");
        assert_eq!(d.ranges.len(), 1);
        assert_eq!(d.ranges[0].name.local, "line");
        assert_eq!((d.ranges[0].start, d.ranges[0].end), (0, 7));
    }

    #[test]
    fn extract_nested_order() {
        let d = extract("<r><a>x<b>y</b></a><c>z</c></r>", "t").unwrap();
        let names: Vec<_> = d.ranges.iter().map(|r| r.name.local.clone()).collect();
        assert_eq!(names, ["a", "b", "c"]);
        assert_eq!((d.ranges[0].start, d.ranges[0].end), (0, 2));
        assert_eq!((d.ranges[1].start, d.ranges[1].end), (1, 2));
        assert_eq!((d.ranges[2].start, d.ranges[2].end), (2, 3));
    }

    #[test]
    fn extract_empty_elements() {
        let d = extract("<r>ab<pb n=\"2\"/>cd</r>", "phys").unwrap();
        assert_eq!(d.ranges.len(), 1);
        let pb = &d.ranges[0];
        assert!(pb.empty);
        assert_eq!((pb.start, pb.end), (2, 2));
        assert_eq!(pb.attrs[0].value, "2");
    }

    #[test]
    fn empty_content_element_not_marked_empty() {
        let d = extract("<r>ab<a></a>cd</r>", "t").unwrap();
        assert!(!d.ranges[0].empty);
        assert_eq!((d.ranges[0].start, d.ranges[0].end), (2, 2));
    }

    #[test]
    fn root_attrs_captured() {
        let d = extract(r#"<r id="x">t</r>"#, "t").unwrap();
        assert_eq!(d.root_attrs[0].value, "x");
    }

    #[test]
    fn entities_resolved_in_content_offsets() {
        let d = extract("<r>a&amp;b<w>c</w></r>", "t").unwrap();
        assert_eq!(d.content, "a&bc");
        assert_eq!((d.ranges[0].start, d.ranges[0].end), (3, 4));
    }

    #[test]
    fn comments_and_pis_skipped() {
        let d = extract("<r>a<!-- note -->b<?app x?>c</r>", "t").unwrap();
        assert_eq!(d.content, "abc");
        assert!(d.ranges.is_empty());
    }

    #[test]
    fn malformed_reports_hierarchy() {
        let err = extract("<r><a></r></a>", "ling").unwrap_err();
        match err {
            SacxError::Xml { hierarchy, .. } => assert_eq!(hierarchy, "ling"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn multibyte_content_offsets_are_bytes() {
        let d = extract("<r>æ<w>þ</w></r>", "t").unwrap();
        assert_eq!(d.content, "æþ");
        assert_eq!((d.ranges[0].start, d.ranges[0].end), (2, 4));
    }

    #[test]
    fn empty_root_document() {
        let d = extract("<r/>", "t").unwrap();
        assert_eq!(d.content, "");
        assert!(d.ranges.is_empty());
    }
}
