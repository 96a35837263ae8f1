//! The Extended XPath value model: node-sets, attribute-sets, numbers,
//! strings and booleans (XPath 1.0 §1, with attribute nodes represented as
//! `(element, attribute index)` pairs).

use goddag::{Goddag, NodeId};
use xmlcore::QName;

/// A reference to one attribute node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrRef {
    /// The owning element.
    pub element: NodeId,
    /// Index into the element's attribute list.
    pub index: usize,
}

impl AttrRef {
    /// The attribute's value.
    pub fn value<'g>(&self, g: &'g Goddag) -> &'g str {
        g.attrs(self.element).value(self.index).unwrap_or_default()
    }

    /// The attribute's name.
    pub fn name(&self, g: &Goddag) -> String {
        g.attrs(self.element).name(self.index).map(QName::to_string).unwrap_or_default()
    }
}

/// An Extended XPath value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A node-set in document order, deduplicated.
    Nodes(Vec<NodeId>),
    /// An attribute-node set.
    Attrs(Vec<AttrRef>),
    /// A number.
    Number(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl Value {
    /// The empty node-set.
    pub fn empty() -> Value {
        Value::Nodes(Vec::new())
    }

    /// XPath `string()` conversion.
    pub fn string_value(&self, g: &Goddag) -> String {
        match self {
            Value::Nodes(ns) => ns.first().map(|&n| g.text_of(n)).unwrap_or_default(),
            Value::Attrs(attrs) => {
                attrs.first().map(|a| a.value(g).to_string()).unwrap_or_default()
            }
            Value::Number(n) => format_number(*n),
            Value::Str(s) => s.clone(),
            Value::Bool(b) => if *b { "true" } else { "false" }.to_string(),
        }
    }

    /// XPath `number()` conversion.
    pub fn number_value(&self, g: &Goddag) -> f64 {
        match self {
            Value::Number(n) => *n,
            Value::Bool(b) => {
                if *b {
                    1.0
                } else {
                    0.0
                }
            }
            other => {
                let s = other.string_value(g);
                s.trim().parse::<f64>().unwrap_or(f64::NAN)
            }
        }
    }

    /// XPath `boolean()` conversion. (Node-set conversions don't need the
    /// graph; the uniform signature keeps call sites simple.)
    pub fn boolean_value(&self, _g: &Goddag) -> bool {
        match self {
            Value::Nodes(ns) => !ns.is_empty(),
            Value::Attrs(attrs) => !attrs.is_empty(),
            Value::Number(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
            Value::Bool(b) => *b,
        }
    }

    /// The node-set, if this value is one.
    pub fn as_nodes(&self) -> Option<&[NodeId]> {
        match self {
            Value::Nodes(ns) => Some(ns),
            _ => None,
        }
    }

    /// Is this value a node-set or attribute-set?
    pub fn is_set(&self) -> bool {
        matches!(self, Value::Nodes(_) | Value::Attrs(_))
    }

    /// The string values of every member (for set-vs-value comparisons).
    pub fn member_strings(&self, g: &Goddag) -> Vec<String> {
        match self {
            Value::Nodes(ns) => ns.iter().map(|&n| g.text_of(n)).collect(),
            Value::Attrs(attrs) => attrs.iter().map(|a| a.value(g).to_string()).collect(),
            other => vec![other.string_value(g)],
        }
    }

    /// Number of members for `count()`.
    pub fn count(&self) -> Option<usize> {
        match self {
            Value::Nodes(ns) => Some(ns.len()),
            Value::Attrs(attrs) => Some(attrs.len()),
            _ => None,
        }
    }
}

/// XPath number-to-string: integers print without a decimal point.
pub fn format_number(n: f64) -> String {
    if n.is_nan() {
        "NaN".to_string()
    } else if n.is_infinite() {
        if n > 0.0 { "Infinity" } else { "-Infinity" }.to_string()
    } else if n == n.trunc() && n.abs() < 1e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goddag::GoddagBuilder;
    use xmlcore::QName;

    fn g() -> Goddag {
        let mut b = GoddagBuilder::new(QName::parse("r").unwrap());
        b.content("42 hello");
        let h = b.hierarchy("h");
        b.range(h, "n", vec![xmlcore::Attribute::new("a", "7")], 0, 2).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn string_conversions() {
        let g = g();
        let n = g.find_elements("n")[0];
        assert_eq!(Value::Nodes(vec![n]).string_value(&g), "42");
        assert_eq!(Value::Nodes(vec![]).string_value(&g), "");
        assert_eq!(Value::Number(3.0).string_value(&g), "3");
        assert_eq!(Value::Number(3.25).string_value(&g), "3.25");
        assert_eq!(Value::Bool(true).string_value(&g), "true");
        assert_eq!(Value::Attrs(vec![AttrRef { element: n, index: 0 }]).string_value(&g), "7");
    }

    #[test]
    fn number_conversions() {
        let g = g();
        let n = g.find_elements("n")[0];
        assert_eq!(Value::Nodes(vec![n]).number_value(&g), 42.0);
        assert!(Value::Str("x".into()).number_value(&g).is_nan());
        assert_eq!(Value::Bool(true).number_value(&g), 1.0);
        assert_eq!(Value::Str(" 5 ".into()).number_value(&g), 5.0);
    }

    #[test]
    fn boolean_conversions() {
        let g = g();
        assert!(!Value::Nodes(vec![]).boolean_value(&g));
        assert!(Value::Nodes(vec![g.root()]).boolean_value(&g));
        assert!(!Value::Number(0.0).boolean_value(&g));
        assert!(!Value::Number(f64::NAN).boolean_value(&g));
        assert!(Value::Number(-1.0).boolean_value(&g));
        assert!(!Value::Str("".into()).boolean_value(&g));
        assert!(Value::Str("x".into()).boolean_value(&g));
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(0.0), "0");
        assert_eq!(format_number(-2.0), "-2");
        assert_eq!(format_number(2.5), "2.5");
        assert_eq!(format_number(f64::NAN), "NaN");
        assert_eq!(format_number(f64::INFINITY), "Infinity");
    }

    #[test]
    fn member_strings_and_count() {
        let g = g();
        let n = g.find_elements("n")[0];
        let v = Value::Nodes(vec![n, g.root()]);
        assert_eq!(v.member_strings(&g), vec!["42".to_string(), "42 hello".to_string()]);
        assert_eq!(v.count(), Some(2));
        assert_eq!(Value::Number(1.0).count(), None);
    }
}
