//! XML name handling: `NCName` validation and prefixed `QName`s.
//!
//! The framework uses QName prefixes to tag markup with the hierarchy it
//! belongs to (e.g. `phys:line` vs `ling:w`), so robust name handling is
//! load-bearing for the whole stack.

use crate::error::{Pos, Result, XmlError};
use std::borrow::Cow;
use std::fmt;

/// Is `c` a valid first char of an XML name (NameStartChar, sans `:`)?
pub fn is_name_start_char(c: char) -> bool {
    matches!(c,
        'A'..='Z' | 'a'..='z' | '_'
        | '\u{C0}'..='\u{D6}' | '\u{D8}'..='\u{F6}' | '\u{F8}'..='\u{2FF}'
        | '\u{370}'..='\u{37D}' | '\u{37F}'..='\u{1FFF}'
        | '\u{200C}'..='\u{200D}' | '\u{2070}'..='\u{218F}'
        | '\u{2C00}'..='\u{2FEF}' | '\u{3001}'..='\u{D7FF}'
        | '\u{F900}'..='\u{FDCF}' | '\u{FDF0}'..='\u{FFFD}'
        | '\u{10000}'..='\u{EFFFF}')
}

/// Is `c` a valid non-first char of an XML name (NameChar, sans `:`)?
pub fn is_name_char(c: char) -> bool {
    is_name_start_char(c)
        || matches!(c, '-' | '.' | '0'..='9' | '\u{B7}' | '\u{300}'..='\u{36F}' | '\u{203F}'..='\u{2040}')
}

/// Check that `s` is a valid NCName (a name with no colon).
pub fn is_ncname(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if is_name_start_char(c) => {}
        _ => return false,
    }
    chars.all(is_name_char)
}

/// A (possibly prefixed) XML qualified name.
///
/// The prefix is used throughout the framework as a *hierarchy qualifier*:
/// the SACX parser maps prefixes to hierarchy ids when several hierarchies
/// live in one surface document.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QName {
    /// Optional prefix (the part before `:`).
    pub prefix: Option<String>,
    /// Local part.
    pub local: String,
}

impl QName {
    /// Construct an unprefixed name. Panics in debug builds on invalid names;
    /// use [`QName::parse`] for untrusted input.
    pub fn local(name: impl Into<String>) -> QName {
        let local = name.into();
        debug_assert!(is_ncname(&local), "invalid NCName {local:?}");
        QName { prefix: None, local }
    }

    /// Construct a prefixed name.
    pub fn prefixed(prefix: impl Into<String>, name: impl Into<String>) -> QName {
        let prefix = prefix.into();
        let local = name.into();
        debug_assert!(is_ncname(&prefix), "invalid NCName {prefix:?}");
        debug_assert!(is_ncname(&local), "invalid NCName {local:?}");
        QName { prefix: Some(prefix), local }
    }

    /// Parse and validate a QName from text.
    pub fn parse(s: &str) -> Result<QName> {
        Self::parse_at(s, Pos::start())
    }

    /// Parse and validate, attributing errors to `pos`.
    pub fn parse_at(s: &str, pos: Pos) -> Result<QName> {
        match s.split_once(':') {
            None if is_ncname(s) => Ok(QName { prefix: None, local: s.to_string() }),
            Some((p, l)) if is_ncname(p) && is_ncname(l) => {
                Ok(QName { prefix: Some(p.to_string()), local: l.to_string() })
            }
            _ => Err(XmlError::InvalidName { pos, name: s.to_string() }),
        }
    }

    /// The full `prefix:local` (or just `local`) spelling.
    pub fn as_str(&self) -> Cow<'_, str> {
        match &self.prefix {
            None => Cow::Borrowed(&self.local),
            Some(p) => Cow::Owned(format!("{p}:{}", self.local)),
        }
    }

    /// Does this name spell `s` (`prefix:local`, or `local` when
    /// unprefixed)? Compares in place, without building the joined form.
    pub fn eq_str(&self, s: &str) -> bool {
        match (&self.prefix, s.split_once(':')) {
            (None, None) => self.local == s,
            (Some(p), Some((sp, sl))) => p == sp && self.local == sl,
            _ => false,
        }
    }
}

impl fmt::Display for QName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.prefix {
            Some(p) => write!(f, "{p}:{}", self.local),
            None => f.write_str(&self.local),
        }
    }
}

impl std::str::FromStr for QName {
    type Err = XmlError;
    fn from_str(s: &str) -> Result<QName> {
        QName::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ncname_accepts_ordinary_names() {
        for n in ["a", "line", "w", "page-break", "_x", "res.1", "ærest"] {
            assert!(is_ncname(n), "{n} should be a valid NCName");
        }
    }

    #[test]
    fn ncname_rejects_bad_names() {
        for n in ["", "1a", "-x", ".y", "a b", "a:b", "a\u{0}b"] {
            assert!(!is_ncname(n), "{n:?} should be invalid");
        }
    }

    #[test]
    fn qname_parse_roundtrip() {
        let q = QName::parse("phys:line").unwrap();
        assert_eq!(q.prefix.as_deref(), Some("phys"));
        assert_eq!(q.local, "line");
        assert_eq!(q.to_string(), "phys:line");
        assert_eq!(q.as_str(), "phys:line");
    }

    #[test]
    fn qname_parse_rejects_double_colon() {
        assert!(QName::parse("a:b:c").is_err());
        assert!(QName::parse(":b").is_err());
        assert!(QName::parse("a:").is_err());
    }

    #[test]
    fn qname_ordering_is_stable() {
        let a = QName::parse("a:x").unwrap();
        let b = QName::parse("b:x").unwrap();
        assert!(a < b);
    }
}
