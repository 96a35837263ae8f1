//! DTD support: the schema formalism the paper uses to define hierarchies.
//!
//! A *concurrent markup hierarchy* (paper §3) is "a collection of DTD elements
//! that are not in conflict with each other" — i.e. each hierarchy is
//! described by its own DTD. This module provides the DTD model, a parser for
//! DTD text, Glushkov automata compiled from content models (shared with the
//! `prevalid` crate for potential-validity checking), and a validator.

mod automaton;
mod content_model;
mod parser;
mod serialize;
mod validate;

pub use automaton::{Automaton, DenseAutomaton, StateId};
pub use content_model::{ContentModel, Occurrence};
pub use parser::parse_dtd;
pub use validate::{
    validate_attrs, validate_children, validate_document, AutomatonCache, ValidationReport,
};

use std::collections::BTreeMap;

/// Content specification of an element declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContentSpec {
    /// `EMPTY` — no content at all.
    Empty,
    /// `ANY` — any well-formed content.
    Any,
    /// `(#PCDATA)` or `(#PCDATA | a | b)*` — text freely interleaved with the
    /// named elements.
    Mixed(Vec<String>),
    /// An element-content model (children only; whitespace-only text allowed
    /// between them).
    Children(ContentModel),
}

impl ContentSpec {
    /// Whether text content is permitted.
    pub fn allows_text(&self) -> bool {
        matches!(self, ContentSpec::Any | ContentSpec::Mixed(_))
    }

    /// Whether a child element with this name is ever permitted.
    pub fn mentions(&self, name: &str) -> bool {
        match self {
            ContentSpec::Empty => false,
            ContentSpec::Any => true,
            ContentSpec::Mixed(names) => names.iter().any(|n| n == name),
            ContentSpec::Children(m) => m.mentions(name),
        }
    }
}

/// Declared attribute type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttType {
    /// `CDATA`
    Cdata,
    /// `ID`
    Id,
    /// `IDREF`
    IdRef,
    /// `NMTOKEN`
    NmToken,
    /// `(v1 | v2 | ...)`
    Enumeration(Vec<String>),
}

/// Declared attribute default.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttDefault {
    /// `#REQUIRED`
    Required,
    /// `#IMPLIED`
    Implied,
    /// `#FIXED "v"`
    Fixed(String),
    /// `"v"`
    Value(String),
}

/// One attribute definition from an `<!ATTLIST>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttDef {
    /// Attribute name.
    pub name: String,
    /// Declared type.
    pub ty: AttType,
    /// Default declaration.
    pub default: AttDefault,
}

/// One `<!ELEMENT>` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ElementDecl {
    /// Element name.
    pub name: String,
    /// Content specification.
    pub content: ContentSpec,
    /// Attribute definitions (merged from all ATTLISTs for this element).
    pub attrs: Vec<AttDef>,
}

fn strings_bytes(v: &[String], capacity: usize) -> usize {
    capacity * std::mem::size_of::<String>() + v.iter().map(String::capacity).sum::<usize>()
}

impl ElementDecl {
    /// Estimated heap bytes this declaration owns.
    fn heap_bytes(&self) -> usize {
        let content = match &self.content {
            ContentSpec::Empty | ContentSpec::Any => 0,
            ContentSpec::Mixed(names) => strings_bytes(names, names.capacity()),
            ContentSpec::Children(model) => model.heap_bytes(),
        };
        let attrs: usize = self
            .attrs
            .iter()
            .map(|a| {
                let ty = match &a.ty {
                    AttType::Enumeration(values) => strings_bytes(values, values.capacity()),
                    _ => 0,
                };
                let default = match &a.default {
                    AttDefault::Fixed(v) | AttDefault::Value(v) => v.capacity(),
                    _ => 0,
                };
                a.name.capacity() + ty + default
            })
            .sum();
        self.name.capacity()
            + content
            + self.attrs.capacity() * std::mem::size_of::<AttDef>()
            + attrs
    }
}

/// A parsed DTD: the schema of one markup hierarchy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Dtd {
    /// Declarations keyed by element name (deterministic iteration order).
    pub elements: BTreeMap<String, ElementDecl>,
    /// The designated root element, if known (first declared element by
    /// convention, overridable).
    pub root: Option<String>,
}

impl Dtd {
    /// Empty DTD.
    pub fn new() -> Dtd {
        Dtd::default()
    }

    /// Look up a declaration.
    pub fn element(&self, name: &str) -> Option<&ElementDecl> {
        self.elements.get(name)
    }

    /// Declare an element (replacing any previous declaration).
    pub fn declare(&mut self, decl: ElementDecl) {
        if self.root.is_none() {
            self.root = Some(decl.name.clone());
        }
        self.elements.insert(decl.name.clone(), decl);
    }

    /// Estimated heap bytes this DTD owns: the declaration map's B-tree
    /// nodes plus every string, list and boxed particle under them. Feeds
    /// document footprint accounting (experiment B5).
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        // A B-tree node holds up to 11 entries; past one node, splits leave
        // them about half full, and every 6 nodes need an internal parent
        // that also carries 12 edge pointers.
        let entry = size_of::<String>() + size_of::<ElementDecl>();
        let leaf = 16 + 11 * entry;
        let mut nodes = if self.elements.len() <= 11 { 1 } else { self.elements.len().div_ceil(6) };
        let mut bytes = if self.elements.is_empty() { 0 } else { nodes * leaf };
        while nodes > 1 {
            nodes = nodes.div_ceil(6);
            bytes += nodes * (leaf + 12 * size_of::<usize>());
        }
        for (name, decl) in &self.elements {
            bytes += name.capacity() + decl.heap_bytes();
        }
        bytes + self.root.as_ref().map_or(0, String::capacity)
    }

    /// An attribute definition on an element.
    pub fn attr_def(&self, element: &str, attr: &str) -> Option<&AttDef> {
        self.element(element)?.attrs.iter().find(|a| a.name == attr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_spec_allows_text() {
        assert!(ContentSpec::Any.allows_text());
        assert!(ContentSpec::Mixed(vec![]).allows_text());
        assert!(!ContentSpec::Empty.allows_text());
        assert!(!ContentSpec::Children(ContentModel::name("w")).allows_text());
    }

    #[test]
    fn mentions_by_spec_kind() {
        assert!(!ContentSpec::Empty.mentions("w"));
        assert!(ContentSpec::Any.mentions("w"));
        assert!(ContentSpec::Mixed(vec!["w".into()]).mentions("w"));
        assert!(!ContentSpec::Mixed(vec!["v".into()]).mentions("w"));
    }

    #[test]
    fn dtd_declare_and_lookup() {
        let mut dtd = Dtd::new();
        dtd.declare(ElementDecl {
            name: "r".into(),
            content: ContentSpec::Any,
            attrs: vec![AttDef {
                name: "id".into(),
                ty: AttType::Id,
                default: AttDefault::Implied,
            }],
        });
        assert_eq!(dtd.root.as_deref(), Some("r"));
        assert!(dtd.element("r").is_some());
        assert!(dtd.attr_def("r", "id").is_some());
        assert!(dtd.attr_def("r", "nope").is_none());
    }
}
