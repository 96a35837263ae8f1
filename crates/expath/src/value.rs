//! The Extended XPath value model: node-sets, attribute-sets, numbers,
//! strings and booleans (XPath 1.0 §1, with attribute nodes represented as
//! `(element, attribute index)` pairs).
//!
//! [`Value`] is what an evaluation returns. Inside the evaluator every
//! intermediate value is a [`Val`], which borrows its strings from the
//! document and the expression and keeps a one-member set inline, so a
//! predicate such as `[@n='5']` or `[contains(string(.), 'th')]` costs no
//! allocation on a candidate it rejects.

use goddag::{Goddag, NodeId};
use std::borrow::Cow;
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

/// An Extended XPath value: the result of an evaluation.
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
    /// XPath `string()` conversion.
    pub fn string_value(&self, g: &Goddag) -> String {
        self.head().string(g).into_owned()
    }

    /// XPath `number()` conversion.
    pub fn number_value(&self, g: &Goddag) -> f64 {
        self.head().number(g)
    }

    /// XPath `boolean()` conversion. (Node-set conversions don't need the
    /// graph; the uniform signature keeps call sites simple.)
    pub fn boolean_value(&self, _g: &Goddag) -> bool {
        self.head().boolean()
    }

    /// Number of members for `count()`.
    pub fn count(&self) -> Option<usize> {
        match self {
            Value::Nodes(ns) => Some(ns.len()),
            Value::Attrs(attrs) => Some(attrs.len()),
            _ => None,
        }
    }

    /// A borrowed value that converts like this one: a set converts
    /// through its first member alone.
    fn head(&self) -> Val<'_> {
        match self {
            Value::Nodes(ns) => Val::Nodes(ns.first().map_or_else(Set::empty, |&n| Set::One(n))),
            Value::Attrs(a) => Val::Attrs(a.first().map_or_else(Set::empty, |&a| Set::One(a))),
            Value::Number(n) => Val::Number(*n),
            Value::Str(s) => Val::Str(Cow::Borrowed(s)),
            Value::Bool(b) => Val::Bool(*b),
        }
    }
}

/// A set whose single member, the common case inside predicates, is held
/// inline. The empty set is a `Many` without capacity.
#[derive(Debug, Clone)]
pub(crate) enum Set<T> {
    One(T),
    Many(Vec<T>),
}

impl<T: Copy> Set<T> {
    pub(crate) fn empty() -> Set<T> {
        Set::Many(Vec::new())
    }

    pub(crate) fn as_slice(&self) -> &[T] {
        match self {
            Set::One(x) => std::slice::from_ref(x),
            Set::Many(v) => v,
        }
    }

    pub(crate) fn first(&self) -> Option<T> {
        self.as_slice().first().copied()
    }

    pub(crate) fn push(&mut self, x: T) {
        match self {
            Set::One(y) => *self = Set::Many(vec![*y, x]),
            Set::Many(v) if v.capacity() == 0 => *self = Set::One(x),
            Set::Many(v) => v.push(x),
        }
    }

    pub(crate) fn into_vec(self) -> Vec<T> {
        match self {
            Set::One(x) => vec![x],
            Set::Many(v) => v,
        }
    }
}

/// A value during evaluation, borrowing from the document and the
/// expression (`'a` outlives neither).
#[derive(Debug, Clone)]
pub(crate) enum Val<'a> {
    /// A node-set in document order, deduplicated.
    Nodes(Set<NodeId>),
    /// An attribute-node set.
    Attrs(Set<AttrRef>),
    Number(f64),
    Str(Cow<'a, str>),
    Bool(bool),
}

impl<'a> Val<'a> {
    pub(crate) fn into_value(self) -> Value {
        match self {
            Val::Nodes(ns) => Value::Nodes(ns.into_vec()),
            Val::Attrs(a) => Value::Attrs(a.into_vec()),
            Val::Number(n) => Value::Number(n),
            Val::Str(s) => Value::Str(s.into_owned()),
            Val::Bool(b) => Value::Bool(b),
        }
    }

    /// XPath `string()`, borrowed where the value or the document holds
    /// the text.
    pub(crate) fn string<'s>(&'s self, g: &'a Goddag) -> Cow<'s, str> {
        match self {
            Val::Str(s) => Cow::Borrowed(s),
            other => other.set_or_scalar_string(g),
        }
    }

    /// XPath `string()`, consuming the value: a string moves out.
    pub(crate) fn into_string(self, g: &'a Goddag) -> Cow<'a, str> {
        match self {
            Val::Str(s) => s,
            other => other.set_or_scalar_string(g),
        }
    }

    /// `string()` of every variant but `Str`: a set's first member's
    /// string-value, a number's spelling, `true`/`false`.
    fn set_or_scalar_string(&self, g: &'a Goddag) -> Cow<'a, str> {
        match self {
            Val::Nodes(ns) => Cow::Borrowed(ns.first().map_or("", |n| g.text(n))),
            Val::Attrs(a) => Cow::Borrowed(a.first().map_or("", |a| a.value(g))),
            Val::Number(n) => Cow::Owned(format_number(*n)),
            Val::Bool(b) => Cow::Borrowed(if *b { "true" } else { "false" }),
            Val::Str(s) => Cow::Owned(s.to_string()),
        }
    }

    /// XPath `number()`.
    pub(crate) fn number(&self, g: &'a Goddag) -> f64 {
        match self {
            Val::Number(n) => *n,
            Val::Bool(b) => f64::from(u8::from(*b)),
            other => xpath_number(&other.string(g)),
        }
    }

    /// XPath `boolean()`.
    pub(crate) fn boolean(&self) -> bool {
        match self {
            Val::Nodes(ns) => !ns.as_slice().is_empty(),
            Val::Attrs(a) => !a.as_slice().is_empty(),
            Val::Number(n) => *n != 0.0 && !n.is_nan(),
            Val::Str(s) => !s.is_empty(),
            Val::Bool(b) => *b,
        }
    }

    /// Whether this is a node-set or attribute-set.
    pub(crate) fn is_set(&self) -> bool {
        matches!(self, Val::Nodes(_) | Val::Attrs(_))
    }

    /// The string-values of a set's members, read in place (nothing for
    /// a number, string or boolean).
    pub(crate) fn members(&self, g: &'a Goddag) -> impl Iterator<Item = &'a str> + '_ {
        let (nodes, attrs) = match self {
            Val::Nodes(ns) => (ns.as_slice(), &[][..]),
            Val::Attrs(a) => (&[][..], a.as_slice()),
            _ => (&[][..], &[][..]),
        };
        nodes.iter().map(|&n| g.text(n)).chain(attrs.iter().map(|a| a.value(g)))
    }

    /// Number of members for `count()`.
    pub(crate) fn count(&self) -> Option<usize> {
        match self {
            Val::Nodes(ns) => Some(ns.as_slice().len()),
            Val::Attrs(a) => Some(a.as_slice().len()),
            _ => None,
        }
    }
}

/// XPath 1.0 string-to-number (§4.4): optional whitespace, an optional
/// minus sign, digits with at most one decimal point (at least one digit),
/// optional whitespace. Anything else — an exponent, a plus sign,
/// `Infinity`, `NaN` — is NaN.
pub(crate) fn xpath_number(s: &str) -> f64 {
    let t = s.trim_matches([' ', '\t', '\r', '\n']);
    let digits = t.strip_prefix('-').unwrap_or(t);
    let well_formed = digits.bytes().all(|b| b.is_ascii_digit() || b == b'.')
        && digits.bytes().any(|b| b.is_ascii_digit())
        && digits.bytes().filter(|&b| b == b'.').count() <= 1;
    if well_formed {
        t.parse().unwrap_or(f64::NAN)
    } else {
        f64::NAN
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
    fn strings_to_numbers_follow_xpath() {
        for (s, want) in [
            ("5", 5.0),
            (" \t\r\n-5\n", -5.0),
            ("1.5", 1.5),
            ("1.", 1.0),
            (".5", 0.5),
            ("-.5", -0.5),
            ("007", 7.0),
        ] {
            assert_eq!(xpath_number(s), want, "{s:?}");
        }
        for s in [
            "",
            " ",
            "-",
            ".",
            "+5",
            "1e3",
            "1E3",
            "inf",
            "Infinity",
            "-infinity",
            "NaN",
            "1.2.3",
            "--1",
            "0x10",
            "1 2",
            "\u{a0}5",
            "٣",
        ] {
            assert!(xpath_number(s).is_nan(), "{s:?}");
        }
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
        assert_eq!(format_number(-0.0), "0");
        assert_eq!(format_number(-2.0), "-2");
        assert_eq!(format_number(2.5), "2.5");
        assert_eq!(format_number(f64::NAN), "NaN");
        assert_eq!(format_number(f64::INFINITY), "Infinity");
    }

    #[test]
    fn members_are_read_in_place_and_counted() {
        let g = g();
        let n = g.find_elements("n")[0];
        let v = Val::Nodes(Set::Many(vec![n, g.root()]));
        assert!(v.is_set());
        assert_eq!(v.members(&g).collect::<Vec<_>>(), ["42", "42 hello"]);
        let a = Val::Attrs(Set::One(AttrRef { element: n, index: 0 }));
        assert_eq!(a.members(&g).collect::<Vec<_>>(), ["7"]);
        assert!(!Val::Number(1.0).is_set());
        assert_eq!(Val::Number(1.0).members(&g).count(), 0);
        assert_eq!(v.count(), Some(2));
        assert_eq!(Value::Nodes(vec![n, g.root()]).count(), Some(2));
        assert_eq!(Value::Number(1.0).count(), None);
    }

    #[test]
    fn a_set_holds_one_member_inline() {
        let mut s: Set<u32> = Set::empty();
        assert!(s.as_slice().is_empty());
        s.push(1);
        assert!(matches!(s, Set::One(1)));
        s.push(2);
        s.push(3);
        assert_eq!(s.as_slice(), [1, 2, 3]);
        assert_eq!(s.first(), Some(1));
        assert_eq!(s.into_vec(), vec![1, 2, 3]);
    }
}
