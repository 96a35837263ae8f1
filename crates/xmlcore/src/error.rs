//! Error and source-position types shared by the XML substrate.

use std::fmt;

/// A position in an XML source text.
///
/// Lines and columns are 1-based (as editors display them); `offset` is the
/// 0-based char offset from the start of the input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pos {
    /// 0-based char offset from the start of the input.
    pub offset: usize,
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number (in chars).
    pub col: u32,
}

impl Pos {
    /// The start-of-input position.
    pub fn start() -> Pos {
        Pos { offset: 0, line: 1, col: 1 }
    }

    /// Advance the position over one char.
    pub fn advance(&mut self, c: char) {
        self.offset += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
    }
}

impl fmt::Display for Pos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Errors produced by the XML substrate (lexing, parsing, well-formedness,
/// DTD parsing, writing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlError {
    /// Input ended in the middle of a construct.
    UnexpectedEof { pos: Pos, context: &'static str },
    /// A char that cannot begin/continue the current construct.
    UnexpectedChar { pos: Pos, found: char, expected: &'static str },
    /// A name (element, attribute, target) is not a valid XML name.
    InvalidName { pos: Pos, name: String },
    /// `</b>` closed `<a>`.
    MismatchedTag { pos: Pos, expected: String, found: String },
    /// An end tag with no matching open element.
    UnbalancedEndTag { pos: Pos, name: String },
    /// Input ended with open elements.
    UnclosedElements { pos: Pos, open: Vec<String> },
    /// The same attribute appears twice on one tag.
    DuplicateAttribute { pos: Pos, name: String },
    /// A second top-level element, or text outside the root.
    ExtraContentAtRoot { pos: Pos },
    /// No root element at all.
    NoRootElement,
    /// An unknown `&entity;` reference (only the five predefined ones and
    /// character references are supported).
    UnknownEntity { pos: Pos, name: String },
    /// A malformed `&#...;` character reference.
    BadCharRef { pos: Pos, detail: String },
    /// `--` inside a comment, `]]>` in character data, etc.
    IllFormed { pos: Pos, detail: String },
    /// Errors from the DTD parser.
    Dtd { pos: Pos, detail: String },
    /// Output the writer refuses to produce (a late XML declaration, `--`
    /// in a comment, an element left open at `finish`, ...).
    Invalid { detail: String },
}

impl XmlError {
    /// The source position the error refers to, if any.
    pub fn pos(&self) -> Option<Pos> {
        match self {
            XmlError::UnexpectedEof { pos, .. }
            | XmlError::UnexpectedChar { pos, .. }
            | XmlError::InvalidName { pos, .. }
            | XmlError::MismatchedTag { pos, .. }
            | XmlError::UnbalancedEndTag { pos, .. }
            | XmlError::UnclosedElements { pos, .. }
            | XmlError::DuplicateAttribute { pos, .. }
            | XmlError::ExtraContentAtRoot { pos }
            | XmlError::UnknownEntity { pos, .. }
            | XmlError::BadCharRef { pos, .. }
            | XmlError::IllFormed { pos, .. }
            | XmlError::Dtd { pos, .. } => Some(*pos),
            XmlError::NoRootElement | XmlError::Invalid { .. } => None,
        }
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XmlError::UnexpectedEof { pos, context } => {
                write!(f, "{pos}: unexpected end of input while parsing {context}")
            }
            XmlError::UnexpectedChar { pos, found, expected } => {
                write!(f, "{pos}: unexpected character {found:?}, expected {expected}")
            }
            XmlError::InvalidName { pos, name } => {
                write!(f, "{pos}: invalid XML name {name:?}")
            }
            XmlError::MismatchedTag { pos, expected, found } => {
                write!(f, "{pos}: mismatched end tag </{found}>, expected </{expected}>")
            }
            XmlError::UnbalancedEndTag { pos, name } => {
                write!(f, "{pos}: end tag </{name}> without matching start tag")
            }
            XmlError::UnclosedElements { pos, open } => {
                write!(f, "{pos}: input ended with unclosed elements: {}", open.join(", "))
            }
            XmlError::DuplicateAttribute { pos, name } => {
                write!(f, "{pos}: duplicate attribute {name:?}")
            }
            XmlError::ExtraContentAtRoot { pos } => {
                write!(f, "{pos}: extra content after/outside the root element")
            }
            XmlError::NoRootElement => write!(f, "document has no root element"),
            XmlError::UnknownEntity { pos, name } => {
                write!(f, "{pos}: unknown entity &{name};")
            }
            XmlError::BadCharRef { pos, detail } => {
                write!(f, "{pos}: bad character reference: {detail}")
            }
            XmlError::IllFormed { pos, detail } => write!(f, "{pos}: {detail}"),
            XmlError::Dtd { pos, detail } => write!(f, "{pos}: DTD error: {detail}"),
            XmlError::Invalid { detail } => write!(f, "validation error: {detail}"),
        }
    }
}

impl std::error::Error for XmlError {}

/// Convenience alias used across the substrate.
pub type Result<T> = std::result::Result<T, XmlError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pos_advance_tracks_lines_and_cols() {
        let mut p = Pos::start();
        for c in "ab\ncd".chars() {
            p.advance(c);
        }
        assert_eq!(p.offset, 5);
        assert_eq!(p.line, 2);
        assert_eq!(p.col, 3);
    }

    #[test]
    fn display_includes_position() {
        let e = XmlError::DuplicateAttribute {
            pos: Pos { offset: 10, line: 2, col: 4 },
            name: "id".into(),
        };
        let s = e.to_string();
        assert!(s.contains("2:4"), "{s}");
        assert!(s.contains("id"), "{s}");
    }

    #[test]
    fn pos_accessor_matches_variants() {
        assert!(XmlError::NoRootElement.pos().is_none());
        let p = Pos { offset: 3, line: 1, col: 4 };
        assert_eq!(XmlError::ExtraContentAtRoot { pos: p }.pos(), Some(p));
    }
}
