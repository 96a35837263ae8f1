//! Pull-parser events.

use crate::error::Pos;
use crate::name::QName;
use std::fmt;

/// One attribute on a start (or empty-element) tag.
///
/// Values are stored *unescaped*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attribute {
    /// Attribute name.
    pub name: QName,
    /// Unescaped attribute value.
    pub value: String,
}

impl Attribute {
    /// Build an attribute from parts.
    pub fn new(name: impl Into<QName>, value: impl Into<String>) -> Attribute {
        Attribute { name: name.into(), value: value.into() }
    }
}

/// One attribute as the writer reads it: a name and an unescaped value,
/// owned ([`Attribute`]) or borrowed from wherever a document keeps them.
pub trait AttrLike {
    /// Attribute name.
    fn name(&self) -> &QName;
    /// Unescaped attribute value.
    fn value(&self) -> &str;
}

impl AttrLike for Attribute {
    fn name(&self) -> &QName {
        &self.name
    }
    fn value(&self) -> &str {
        &self.value
    }
}

impl<T: AttrLike + ?Sized> AttrLike for &T {
    fn name(&self) -> &QName {
        (**self).name()
    }
    fn value(&self) -> &str {
        (**self).value()
    }
}

impl From<&str> for QName {
    fn from(s: &str) -> QName {
        QName::parse(s).expect("invalid QName literal")
    }
}

impl fmt::Display for Attribute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}=\"{}\"", self.name, crate::escape::escape_attr(&self.value))
    }
}

/// A sorted-insertion helper over attribute lists.
pub fn find_attr<'a>(attrs: &'a [Attribute], name: &str) -> Option<&'a str> {
    attrs.iter().find(|a| a.name.eq_str(name)).map(|a| a.value.as_str())
}

/// An event produced by the pull parser.
///
/// Text is delivered unescaped; CDATA sections are delivered as `Text`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// `<name attr="v">`
    StartElement { name: QName, attrs: Vec<Attribute>, pos: Pos },
    /// `</name>`
    EndElement { name: QName, pos: Pos },
    /// `<name attr="v"/>`
    EmptyElement { name: QName, attrs: Vec<Attribute>, pos: Pos },
    /// Character data (unescaped; CDATA merged in).
    Text { text: String, pos: Pos },
    /// `<!-- ... -->`
    Comment { text: String, pos: Pos },
    /// `<?target data?>`
    ProcessingInstruction { target: String, data: String, pos: Pos },
    /// End of document (returned exactly once).
    Eof,
}

impl Event {
    /// The source position of the event, if any.
    pub fn pos(&self) -> Option<Pos> {
        match self {
            Event::StartElement { pos, .. }
            | Event::EndElement { pos, .. }
            | Event::EmptyElement { pos, .. }
            | Event::Text { pos, .. }
            | Event::Comment { pos, .. }
            | Event::ProcessingInstruction { pos, .. } => Some(*pos),
            Event::Eof => None,
        }
    }

    /// The element name for element events.
    pub fn name(&self) -> Option<&QName> {
        match self {
            Event::StartElement { name, .. }
            | Event::EndElement { name, .. }
            | Event::EmptyElement { name, .. } => Some(name),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_display_escapes() {
        let a = Attribute::new("id", "a\"b");
        assert_eq!(a.to_string(), "id=\"a&quot;b\"");
    }

    #[test]
    fn find_attr_matches_full_qname() {
        let attrs = vec![Attribute::new("cx:join", "j1"), Attribute::new("id", "x")];
        assert_eq!(find_attr(&attrs, "cx:join"), Some("j1"));
        assert_eq!(find_attr(&attrs, "join"), None);
        assert_eq!(find_attr(&attrs, "id"), Some("x"));
    }

    #[test]
    fn event_accessors() {
        let e = Event::StartElement { name: "w".into(), attrs: vec![], pos: Pos::start() };
        assert_eq!(e.name().unwrap().local, "w");
        assert!(Event::Eof.pos().is_none());
    }
}
