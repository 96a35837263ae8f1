//! The one token grammar every line-oriented text format in the workspace
//! shares — stand-off, `DocBlob`, manifests, WAL records and `cxq1` frames:
//! a line is space-separated tokens, strings are percent-escaped into one
//! token each, and a closed set of keywords is declared once with
//! [`vocabulary!`](crate::vocabulary) so matching on it is exhaustive.

use std::fmt::Write as _;

/// Percent-escape a string into a single token free of spaces, newlines,
/// `=` and non-ASCII bytes. Non-ASCII bytes are escaped byte-wise: pushing
/// them as `char`s would re-encode each UTF-8 byte as its own code point
/// and mangle the value on re-import.
pub fn escape_token(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'%' | b'\n' | b'\r' | b' ' | b'=' | 0..=0x1f | 0x80.. => {
                let _ = write!(out, "%{b:02x}");
            }
            _ => out.push(b as char),
        }
    }
    out
}

/// [`escape_token`] for a *positional* token: `""` is spelled as a lone `%`
/// (otherwise unproducible — a `%` always introduces two hex digits),
/// because an empty token would vanish from the space framing.
pub fn escape_field(s: &str) -> String {
    if s.is_empty() {
        return "%".to_string();
    }
    escape_token(s)
}

/// Undo [`escape_field`] and [`escape_token`] (the lone `%` is the only
/// difference). Errors carry a bare detail string so callers can wrap them
/// in their own error types.
pub fn unescape_field(s: &str) -> Result<String, String> {
    if s == "%" {
        return Ok(String::new());
    }
    let mut bytes: Vec<u8> = Vec::with_capacity(s.len());
    let raw = s.as_bytes();
    let mut i = 0;
    while i < raw.len() {
        if raw[i] == b'%' {
            let hex = raw.get(i + 1..i + 3).ok_or("truncated percent escape")?;
            // Two hex digits exactly: `from_str_radix` alone would also
            // take `+f`, a second spelling of `0f`.
            let b = std::str::from_utf8(hex)
                .ok()
                .filter(|h| h.bytes().all(|c| c.is_ascii_hexdigit()))
                .and_then(|h| u8::from_str_radix(h, 16).ok())
                .ok_or_else(|| {
                    format!("invalid percent escape %{}", String::from_utf8_lossy(hex))
                })?;
            bytes.push(b);
            i += 3;
        } else {
            bytes.push(raw[i]);
            i += 1;
        }
    }
    String::from_utf8(bytes).map_err(|_| "escape does not decode to UTF-8".to_string())
}

/// Append ` name=value` for every attribute, both sides [`escape_field`]ed.
/// `=` is always escaped inside a field, so a token holds a raw `=` exactly
/// when it is an attribute pair — which is what lets [`Tokens::attrs`] find
/// the end of the list without a count.
pub fn write_attrs(out: &mut String, attrs: &[(String, String)]) {
    for (k, v) in attrs {
        let _ = write!(out, " {}={}", escape_field(k), escape_field(v));
    }
}

/// Split the next line off the front of `rest`, without its newline (the
/// last line need not end in one). `None` once `rest` is empty.
pub fn take_line<'a>(rest: &mut &'a str) -> Option<&'a str> {
    if rest.is_empty() {
        return None;
    }
    let (line, tail) = rest.split_once('\n').unwrap_or((rest, ""));
    *rest = tail;
    Some(line)
}

/// A cursor over one line's space-separated tokens. Every failure is a
/// bare detail string (`expected <what>`), which each format wraps in its
/// own error type together with whatever position it tracks.
#[derive(Debug, Clone)]
pub struct Tokens<'a>(std::iter::Peekable<std::str::Split<'a, char>>);

impl<'a> Tokens<'a> {
    /// Start at the first token of `line`.
    pub fn new(line: &'a str) -> Tokens<'a> {
        Tokens(line.split(' ').peekable())
    }

    /// The next raw token.
    pub fn token(&mut self, what: &str) -> Result<&'a str, String> {
        self.0.next().ok_or_else(|| format!("expected {what}"))
    }

    /// The next token, parsed (numbers, mostly). A leading `+` is refused:
    /// no writer emits one, and a value has one spelling.
    pub fn parse<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, String> {
        self.0
            .next()
            .filter(|t| !t.starts_with('+'))
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| format!("expected {what}"))
    }

    /// [`Tokens::parse`] where a lone `-` spells "none".
    pub fn parse_opt<T: std::str::FromStr>(&mut self, what: &str) -> Result<Option<T>, String> {
        match self.peek() {
            Some("-") => {
                self.0.next();
                Ok(None)
            }
            _ => self.parse(what).map(Some),
        }
    }

    /// The next token as a hexadecimal `u64`, without a leading `+`.
    pub fn hex(&mut self, what: &str) -> Result<u64, String> {
        self.0
            .next()
            .filter(|t| !t.starts_with('+'))
            .and_then(|t| u64::from_str_radix(t, 16).ok())
            .ok_or_else(|| format!("expected hex {what}"))
    }

    /// The next token, [`unescape_field`]ed.
    pub fn string(&mut self, what: &str) -> Result<String, String> {
        unescape_field(self.token(what)?)
    }

    /// A [`write_attrs`] list: every following token that holds a raw `=`.
    pub fn attrs(&mut self) -> Result<Vec<(String, String)>, String> {
        let mut attrs = Vec::new();
        while let Some((k, v)) = self.peek().and_then(|t| t.split_once('=')) {
            self.0.next();
            attrs.push((unescape_field(k)?, unescape_field(v)?));
        }
        Ok(attrs)
    }

    /// The next raw token, not consumed.
    pub fn peek(&mut self) -> Option<&'a str> {
        self.0.peek().copied()
    }

    /// The line must be exhausted.
    pub fn finish(&mut self) -> Result<(), String> {
        match self.0.next() {
            None => Ok(()),
            Some(t) => Err(format!("unexpected trailing token {t:?}")),
        }
    }
}

/// The raw tokens, for the rare list that runs to the end of its line.
impl<'a> Iterator for Tokens<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.0.next()
    }
}

/// Declare a closed keyword set once: the enum, `ALL`, `name()` (the
/// token, also what `Display` writes) and `parse()` — whose `_` arm is the
/// only wildcard any decoder of the format needs; everything downstream
/// matches on the enum and the compiler checks it is exhaustive.
#[macro_export]
macro_rules! vocabulary {
    ($(#[$meta:meta])* $vis:vis enum $name:ident ($what:literal) {
        $($(#[$vmeta:meta])* $variant:ident = $tok:literal),+ $(,)?
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        $vis enum $name { $($(#[$vmeta])* $variant),+ }

        impl $name {
            /// Every keyword, in declaration order.
            $vis const ALL: &'static [$name] = &[$($name::$variant),+];

            /// The keyword as it is written.
            $vis const fn name(self) -> &'static str {
                match self { $($name::$variant => $tok),+ }
            }

            /// Read a keyword; anything else is the error.
            $vis fn parse(tok: &str) -> ::std::result::Result<$name, ::std::string::String> {
                match tok {
                    $($tok => Ok($name::$variant),)+
                    _ => Err(format!(concat!("unknown ", $what, " `{}`"), tok)),
                }
            }
        }

        impl ::std::fmt::Display for $name {
            fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
                f.write_str(self.name())
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    vocabulary! {
        /// Test keywords.
        enum Fruit("fruit") { Apple = "apple", Pear = "pear" }
    }

    #[test]
    fn fields_roundtrip_hard_strings() {
        for s in ["", "%", "a b", "x=y", "line\nbreak", "tab\there", "æøå", "100%"] {
            let e = escape_field(s);
            assert!(!e.is_empty() && !e.contains([' ', '\n', '=']), "{e:?}");
            assert_eq!(unescape_field(&e).unwrap(), s);
        }
        assert!(unescape_field("%4").is_err());
        assert!(unescape_field("%zz").is_err());
        // One spelling per byte: `%0f` only.
        assert_eq!(unescape_field("%0f").unwrap(), "\x0f");
        for s in ["%+f", "%-f", "% f", "%f+", "a%+fb"] {
            assert!(unescape_field(s).is_err(), "{s:?}");
        }
    }

    #[test]
    fn numbers_have_one_spelling() {
        let mut t = Tokens::new("+5 +ff 5 ff -5");
        assert_eq!(t.parse::<u64>("n"), Err("expected n".into()));
        assert_eq!(t.hex("id"), Err("expected hex id".into()));
        assert_eq!(t.parse::<u64>("n"), Ok(5));
        assert_eq!(t.hex("id"), Ok(255));
        assert_eq!(t.parse::<i64>("delta"), Ok(-5));
        assert!(Tokens::new("+5").parse::<i64>("n").is_err());
        assert!(Tokens::new("+0").hex("id").is_err());
    }

    #[test]
    fn cursor_reads_what_the_writers_wrote() {
        let mut line = format!("7 - {} {}", escape_field("two words"), escape_field(""));
        write_attrs(&mut line, &[("k=".into(), String::new()), (String::new(), "v".into())]);
        line.push_str(" 00ff tail");
        let mut t = Tokens::new(&line);
        assert_eq!(t.parse::<u32>("n"), Ok(7));
        assert_eq!(t.parse_opt::<u32>("n"), Ok(None));
        assert_eq!(t.string("s").unwrap(), "two words");
        assert_eq!(t.string("s").unwrap(), "");
        assert_eq!(t.attrs().unwrap(), [("k=".into(), String::new()), (String::new(), "v".into())]);
        assert_eq!(t.hex("id"), Ok(255));
        assert_eq!(t.clone().finish(), Err("unexpected trailing token \"tail\"".into()));
        assert_eq!(t.token("tail"), Ok("tail"));
        assert_eq!(t.parse::<u32>("count"), Err("expected count".into()));
        assert_eq!(t.finish(), Ok(()));
    }

    #[test]
    fn vocabulary_parses_exactly_its_keywords() {
        assert_eq!(Fruit::ALL, [Fruit::Apple, Fruit::Pear]);
        for &f in Fruit::ALL {
            assert_eq!(Fruit::parse(f.name()), Ok(f));
        }
        assert_eq!(Fruit::parse("plum"), Err("unknown fruit `plum`".into()));
    }
}
