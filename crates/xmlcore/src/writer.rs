//! XML serialization: an event-driven writer with optional pretty-printing.

use crate::error::{Result, XmlError};
use crate::escape::{escape_attr, escape_text};
use crate::event::{AttrLike, Attribute};
use crate::name::QName;
use std::fmt::Write as _;

/// Output formatting style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Indent {
    /// No insignificant whitespace is added (the only loss-free mode for
    /// document-centric XML, where whitespace is content).
    #[default]
    None,
    /// Two-space indentation. Only safe for data-centric output (DTD dumps,
    /// debug output); inserts whitespace into element content.
    Pretty,
}

/// An event-driven XML writer.
///
/// Tracks the open-element stack so `end()` never needs the name repeated,
/// and refuses to produce unbalanced output.
pub struct Writer {
    out: String,
    stack: Vec<QName>,
    indent: Indent,
    /// Whether the current element has child content (controls `/>` vs `>`).
    tag_open: bool,
    wrote_decl: bool,
}

impl Writer {
    /// New writer with compact output.
    pub fn new() -> Writer {
        Writer::with_indent(Indent::None)
    }

    /// New writer with a chosen indentation style.
    pub fn with_indent(indent: Indent) -> Writer {
        Writer { out: String::new(), stack: Vec::new(), indent, tag_open: false, wrote_decl: false }
    }

    /// Emit an `<?xml version="1.0" encoding="UTF-8"?>` declaration.
    /// Must come first.
    pub fn decl(&mut self) -> Result<&mut Writer> {
        if self.wrote_decl || !self.out.is_empty() {
            return Err(XmlError::Invalid {
                detail: "XML declaration must be the first output".into(),
            });
        }
        self.out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>");
        if self.indent == Indent::Pretty {
            self.out.push('\n');
        }
        self.wrote_decl = true;
        Ok(self)
    }

    fn close_pending(&mut self) {
        if self.tag_open {
            self.out.push('>');
            self.tag_open = false;
        }
    }

    fn newline_indent(&mut self) {
        if self.indent == Indent::Pretty && !self.out.is_empty() {
            self.out.push('\n');
            for _ in 0..self.stack.len() {
                self.out.push_str("  ");
            }
        }
    }

    /// Open `<name>`.
    pub fn start(&mut self, name: &QName) -> &mut Writer {
        self.start_with(name, [] as [&Attribute; 0])
    }

    /// Open `<name attrs...>`.
    pub fn start_with<A: AttrLike>(
        &mut self,
        name: &QName,
        attrs: impl IntoIterator<Item = A>,
    ) -> &mut Writer {
        self.close_pending();
        self.newline_indent();
        let _ = write!(self.out, "<{name}");
        self.write_attrs(attrs);
        self.stack.push(name.clone());
        self.tag_open = true;
        self
    }

    /// Emit `<name attrs.../>`.
    pub fn empty<A: AttrLike>(
        &mut self,
        name: &QName,
        attrs: impl IntoIterator<Item = A>,
    ) -> &mut Writer {
        self.close_pending();
        self.newline_indent();
        let _ = write!(self.out, "<{name}");
        self.write_attrs(attrs);
        self.out.push_str("/>");
        self
    }

    fn write_attrs<A: AttrLike>(&mut self, attrs: impl IntoIterator<Item = A>) {
        for a in attrs {
            let _ = write!(self.out, " {}=\"{}\"", a.name(), escape_attr(a.value()));
        }
    }

    /// Emit escaped character data.
    pub fn text(&mut self, text: &str) -> &mut Writer {
        if text.is_empty() {
            return self;
        }
        self.close_pending();
        let _ = write!(self.out, "{}", escape_text(text));
        self
    }

    /// Emit a comment.
    pub fn comment(&mut self, text: &str) -> Result<&mut Writer> {
        if text.contains("--") {
            return Err(XmlError::Invalid { detail: "comment text contains '--'".into() });
        }
        self.close_pending();
        self.newline_indent();
        let _ = write!(self.out, "<!--{text}-->");
        Ok(self)
    }

    /// Emit a processing instruction.
    pub fn pi(&mut self, target: &str, data: &str) -> Result<&mut Writer> {
        if data.contains("?>") {
            return Err(XmlError::Invalid { detail: "PI data contains '?>'".into() });
        }
        self.close_pending();
        self.newline_indent();
        if data.is_empty() {
            let _ = write!(self.out, "<?{target}?>");
        } else {
            let _ = write!(self.out, "<?{target} {data}?>");
        }
        Ok(self)
    }

    /// Close the innermost open element.
    pub fn end(&mut self) -> Result<&mut Writer> {
        let name = self
            .stack
            .pop()
            .ok_or(XmlError::Invalid { detail: "Writer::end() with no open element".into() })?;
        if self.tag_open {
            self.out.push_str("/>");
            self.tag_open = false;
        } else {
            if self.indent == Indent::Pretty {
                self.out.push('\n');
                for _ in 0..self.stack.len() {
                    self.out.push_str("  ");
                }
            }
            let _ = write!(self.out, "</{name}>");
        }
        Ok(self)
    }

    /// Finish, requiring all elements closed, and return the document text.
    pub fn finish(self) -> Result<String> {
        if let Some(open) = self.stack.last() {
            return Err(XmlError::Invalid {
                detail: format!("Writer::finish() with <{open}> still open"),
            });
        }
        Ok(self.out)
    }

    /// Current output (may be mid-document).
    pub fn as_str(&self) -> &str {
        &self.out
    }
}

impl Default for Writer {
    fn default() -> Writer {
        Writer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::parse_events;

    fn q(s: &str) -> QName {
        QName::parse(s).unwrap()
    }

    #[test]
    fn simple_document() {
        let mut w = Writer::new();
        w.start(&q("r")).text("hi").end().unwrap();
        assert_eq!(w.finish().unwrap(), "<r>hi</r>");
    }

    #[test]
    fn empty_element_shortcut() {
        let mut w = Writer::new();
        w.start(&q("r"));
        w.end().unwrap();
        assert_eq!(w.finish().unwrap(), "<r/>");
    }

    #[test]
    fn attributes_escaped() {
        let mut w = Writer::new();
        w.start_with(&q("r"), &[Attribute::new("a", "x\"<y")]);
        w.end().unwrap();
        assert_eq!(w.finish().unwrap(), r#"<r a="x&quot;&lt;y"/>"#);
    }

    #[test]
    fn text_escaped() {
        let mut w = Writer::new();
        w.start(&q("r")).text("a & b < c").end().unwrap();
        assert_eq!(w.finish().unwrap(), "<r>a &amp; b &lt; c</r>");
    }

    #[test]
    fn unbalanced_finish_rejected() {
        let mut w = Writer::new();
        w.start(&q("r"));
        assert!(w.finish().is_err());
    }

    #[test]
    fn end_without_start_rejected() {
        let mut w = Writer::new();
        assert!(w.end().is_err());
    }

    #[test]
    fn decl_must_be_first() {
        let mut w = Writer::new();
        w.start(&q("r"));
        assert!(w.decl().is_err());
    }

    #[test]
    fn roundtrip_through_reader() {
        let mut w = Writer::new();
        w.decl().unwrap();
        w.start_with(&q("r"), &[Attribute::new("id", "r1")]);
        w.start(&q("phys:line")).text("swa hwa ").end().unwrap();
        w.empty(&q("pb"), &[Attribute::new("n", "2")]);
        w.text("tail & more");
        w.end().unwrap();
        let doc = w.finish().unwrap();
        let evs = parse_events(&doc).unwrap();
        let text: String = evs
            .iter()
            .filter_map(|e| match e {
                crate::event::Event::Text { text, .. } => Some(text.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(text, "swa hwa tail & more");
    }

    #[test]
    fn pretty_indents_elements() {
        let mut w = Writer::with_indent(Indent::Pretty);
        w.start(&q("a"));
        w.start(&q("b"));
        w.end().unwrap();
        w.end().unwrap();
        assert_eq!(w.finish().unwrap(), "<a>\n  <b/>\n</a>");
    }

    #[test]
    fn comment_with_double_dash_rejected() {
        let mut w = Writer::new();
        w.start(&q("r"));
        assert!(w.comment("a -- b").is_err());
    }

    #[test]
    fn pi_emitted() {
        let mut w = Writer::new();
        w.start(&q("r"));
        w.pi("app", "x=1").unwrap();
        w.end().unwrap();
        assert_eq!(w.finish().unwrap(), "<r><?app x=1?></r>");
    }
}
