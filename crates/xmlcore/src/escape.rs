//! Escaping and unescaping of character data and attribute values.
//!
//! Only the five predefined entities (`&amp; &lt; &gt; &apos; &quot;`) and
//! numeric character references are supported — document-centric editions do
//! not rely on custom general entities, and the paper's framework does not
//! either.

use crate::error::{Pos, Result, XmlError};
use std::borrow::Cow;

/// Escape text for use as element content (PCDATA).
///
/// Escapes `&`, `<` and `>` (the latter for `]]>` safety). Returns a borrow
/// when no escaping is needed, avoiding allocation on the common path.
pub fn escape_text(s: &str) -> Cow<'_, str> {
    escape_with(s, |c| matches!(c, '&' | '<' | '>'))
}

/// Escape text for use inside a double-quoted attribute value.
pub fn escape_attr(s: &str) -> Cow<'_, str> {
    escape_with(s, |c| matches!(c, '&' | '<' | '>' | '"' | '\n' | '\t'))
}

fn escape_with(s: &str, needs: impl Fn(char) -> bool) -> Cow<'_, str> {
    if !s.chars().any(&needs) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for c in s.chars() {
        if needs(c) {
            match c {
                '&' => out.push_str("&amp;"),
                '<' => out.push_str("&lt;"),
                '>' => out.push_str("&gt;"),
                '"' => out.push_str("&quot;"),
                '\'' => out.push_str("&apos;"),
                // Escaped so attribute values survive attribute-value
                // normalization on re-parse.
                '\n' => out.push_str("&#10;"),
                '\t' => out.push_str("&#9;"),
                _ => out.push(c),
            }
        } else {
            out.push(c);
        }
    }
    Cow::Owned(out)
}

/// Resolve a single entity name (the text between `&` and `;`).
///
/// Handles the five predefined entities and `#nnn;` / `#xhhh;` character
/// references. A reference is `&#` and decimal digits or `&#x` (lowercase
/// `x`) and hex digits, nothing else (XML 1.0 §4.1, production 66): no
/// sign, no `&#X`.
pub fn resolve_entity(name: &str, pos: Pos) -> Result<char> {
    match name {
        "amp" => Ok('&'),
        "lt" => Ok('<'),
        "gt" => Ok('>'),
        "apos" => Ok('\''),
        "quot" => Ok('"'),
        _ => {
            if let Some(num) = name.strip_prefix('#') {
                let code = match num.strip_prefix('x') {
                    Some(hex) => crate::num::hex(hex),
                    None => crate::num::dec(num),
                };
                let code = code.and_then(|c| u32::try_from(c).ok()).ok_or_else(|| {
                    XmlError::BadCharRef {
                        pos,
                        detail: format!("&#{num}; is not a character reference"),
                    }
                })?;
                char::from_u32(code).ok_or_else(|| XmlError::BadCharRef {
                    pos,
                    detail: format!("U+{code:X} is not a valid character"),
                })
            } else {
                Err(XmlError::UnknownEntity { pos, name: name.to_string() })
            }
        }
    }
}

/// Unescape a complete string (both text and attribute values).
///
/// Returns a borrow when the input contains no `&`.
pub fn unescape(s: &str) -> Result<Cow<'_, str>> {
    if !s.contains('&') {
        return Ok(Cow::Borrowed(s));
    }
    let mut out = String::with_capacity(s.len());
    let mut pos = Pos::start();
    let mut chars = s.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        if c == '&' {
            let rest = &s[i + 1..];
            let end = rest
                .find(';')
                .ok_or(XmlError::UnexpectedEof { pos, context: "entity reference" })?;
            let name = &rest[..end];
            out.push(resolve_entity(name, pos)?);
            // Skip the entity body and the ';'.
            for _ in 0..=end {
                chars.next();
            }
        } else {
            out.push(c);
        }
        pos.advance(c);
    }
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_text_passthrough_borrows() {
        let s = "plain old english text";
        assert!(matches!(escape_text(s), Cow::Borrowed(_)));
    }

    #[test]
    fn escape_text_escapes_specials() {
        assert_eq!(escape_text("a < b & c > d"), "a &lt; b &amp; c &gt; d");
    }

    #[test]
    fn escape_attr_escapes_quotes_and_whitespace() {
        assert_eq!(escape_attr("he said \"no\"\n"), "he said &quot;no&quot;&#10;");
    }

    #[test]
    fn unescape_predefined() {
        assert_eq!(
            unescape("&lt;w&gt; &amp; &apos;x&apos; &quot;y&quot;").unwrap(),
            "<w> & 'x' \"y\""
        );
    }

    #[test]
    fn unescape_char_refs() {
        assert_eq!(unescape("&#65;&#x42;&#xe6;").unwrap(), "AB\u{e6}");
    }

    #[test]
    fn unescape_unknown_entity_fails() {
        assert!(matches!(unescape("&nbsp;"), Err(XmlError::UnknownEntity { .. })));
    }

    #[test]
    fn unescape_bad_char_ref_fails() {
        assert!(matches!(unescape("&#xD800;"), Err(XmlError::BadCharRef { .. })));
        assert!(matches!(unescape("&#zz;"), Err(XmlError::BadCharRef { .. })));
    }

    #[test]
    fn char_refs_have_one_spelling() {
        for bad in ["&#+65;", "&#x+41;", "&#X41;", "&#-65;", "&#x;", "&#;", "&#x110000;"] {
            assert!(matches!(unescape(bad), Err(XmlError::BadCharRef { .. })), "{bad}");
            let doc = format!("<r>{bad}</r>");
            assert!(crate::dom::Document::parse(&doc).is_err(), "{doc}");
        }
        assert_eq!(unescape("&#x0041;&#0065;").unwrap(), "AA");
    }

    #[test]
    fn unescape_unterminated_fails() {
        assert!(unescape("a &amp b").is_err());
    }

    #[test]
    fn roundtrip_text() {
        let original = "damage <dmg> & restoration 'res' \"q\"";
        let escaped = escape_text(original);
        assert_eq!(unescape(&escaped).unwrap(), original);
    }

    #[test]
    fn roundtrip_attr() {
        let original = "line\nbreak\tand \"quotes\"";
        let escaped = escape_attr(original);
        assert_eq!(unescape(&escaped).unwrap(), original);
    }
}
