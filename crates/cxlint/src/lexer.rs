//! A comment/string-aware Rust lexer — just enough lexical structure for
//! the rule engine, nothing more.
//!
//! The design constraint is honesty at the token level: rules must never
//! mistake a string literal or a comment for code (a seeded-violation
//! fixture embedded in a test's raw string must be invisible to the
//! rules scanning the test file itself), and must never lose a comment
//! (the poison/panic audits key on justification comments). So the lexer
//! produces two parallel streams: [`Token`]s for code, [`Comment`]s for
//! every comment with its line span preserved.
//!
//! Deliberately **not** handled: macro expansion, type resolution, and
//! anything requiring a parse tree. This keeps the whole-workspace pass
//! a single linear scan (the ≤5 s CI budget rides on that).

/// One lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// An identifier or keyword (`fn`, `self`, `wal_append`, …).
    Ident(String),
    /// A string, numeric or char literal (content irrelevant to every
    /// rule — what matters is that a string's text is never code).
    Lit,
    /// A lifetime (`'a`) — distinguished from char literals.
    Lifetime,
    /// A single punctuation character (`::` arrives as two `:` tokens).
    Punct(char),
}

/// A token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// The token itself.
    pub tok: Tok,
    /// 1-based line where the token starts.
    pub line: u32,
}

/// One comment (line, doc, or block) with its full text and line span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// 1-based first line.
    pub line: u32,
    /// 1-based last line (block comments can span many).
    pub end_line: u32,
    /// The comment text including its `//` / `/*` markers.
    pub text: String,
}

/// The lexer's output: the code stream and the comment stream.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

impl Lexed {
    /// True when some comment overlapping `[line - back, line]` contains
    /// `needle` (ASCII case-insensitive) — the justification-comment probe
    /// shared by the poison and panic audits.
    pub fn comment_near(&self, line: u32, back: u32, needle: &str) -> bool {
        let lo = line.saturating_sub(back);
        self.comments
            .iter()
            .any(|c| c.end_line >= lo && c.line <= line && contains_ignore_case(&c.text, needle))
    }
}

fn contains_ignore_case(hay: &str, needle: &str) -> bool {
    let hay = hay.to_ascii_lowercase();
    hay.contains(&needle.to_ascii_lowercase())
}

/// Lex `src`. Never fails: unterminated constructs are consumed to EOF,
/// unknown bytes are skipped — a lint pass must survive any input.
pub fn lex(src: &str) -> Lexed {
    let b = src.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            c if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                let start = i;
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
                out.comments.push(Comment {
                    line,
                    end_line: line,
                    text: src[start..i].to_string(),
                });
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let (start, start_line) = (i, line);
                let mut depth = 1u32;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        if b[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                    }
                }
                out.comments.push(Comment {
                    line: start_line,
                    end_line: line,
                    text: src[start..i].to_string(),
                });
            }
            b'"' => {
                let start_line = line;
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'"' => break,
                        b'\n' => {
                            line += 1;
                            i += 1;
                        }
                        _ => i += 1,
                    }
                }
                out.tokens.push(Token { tok: Tok::Lit, line: start_line });
                i += 1; // closing quote
            }
            b'r' | b'b' if raw_string_hashes(b, i).is_some() => {
                let (body_at, hashes) = raw_string_hashes(b, i).expect("checked");
                let start_line = line;
                let mut j = body_at;
                let mut closer = vec![b'"'];
                closer.resize(1 + hashes, b'#');
                while j < b.len() {
                    if b[j] == b'"' && b[j..].starts_with(&closer) {
                        break;
                    }
                    if b[j] == b'\n' {
                        line += 1;
                    }
                    j += 1;
                }
                out.tokens.push(Token { tok: Tok::Lit, line: start_line });
                i = (j + closer.len()).min(b.len());
            }
            b'\'' => {
                // Lifetime or char literal. `'a` followed by a non-quote is
                // a lifetime; everything else is a char literal.
                let next = b.get(i + 1).copied();
                let after = b.get(i + 2).copied();
                let is_lifetime = matches!(next, Some(n) if n == b'_' || n.is_ascii_alphabetic())
                    && after != Some(b'\'');
                if is_lifetime {
                    i += 1;
                    while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                        i += 1;
                    }
                    out.tokens.push(Token { tok: Tok::Lifetime, line });
                } else {
                    i += 1;
                    if b.get(i) == Some(&b'\\') {
                        i += 2;
                    } else {
                        // Possibly multi-byte UTF-8 char; advance one char.
                        let rest = &src[i.min(src.len())..];
                        i += rest.chars().next().map_or(1, |ch| ch.len_utf8());
                    }
                    if b.get(i) == Some(&b'\'') {
                        i += 1;
                    }
                    out.tokens.push(Token { tok: Tok::Lit, line });
                }
            }
            c if c.is_ascii_digit() => {
                while i < b.len()
                    && (b[i].is_ascii_alphanumeric()
                        || b[i] == b'_'
                        || (b[i] == b'.'
                            && b.get(i + 1).is_some_and(|d| d.is_ascii_digit())
                            && b.get(i.wrapping_sub(1)).is_some_and(|d| d.is_ascii_digit())))
                {
                    i += 1;
                }
                out.tokens.push(Token { tok: Tok::Lit, line });
            }
            c if c == b'_' || c.is_ascii_alphabetic() => {
                let start = i;
                while i < b.len() && (b[i] == b'_' || b[i].is_ascii_alphanumeric()) {
                    i += 1;
                }
                out.tokens.push(Token { tok: Tok::Ident(src[start..i].to_string()), line });
            }
            c if c.is_ascii() => {
                out.tokens.push(Token { tok: Tok::Punct(c as char), line });
                i += 1;
            }
            _ => {
                // Non-ASCII outside strings/comments: skip the char.
                let rest = &src[i..];
                i += rest.chars().next().map_or(1, |ch| ch.len_utf8());
            }
        }
    }
    out
}

/// If `b[i]` starts a raw (byte) string — `r"`, `r#"`, `br##"`, … —
/// return `(index of first content byte, hash count)`.
fn raw_string_hashes(b: &[u8], i: usize) -> Option<(usize, usize)> {
    let mut j = i;
    if b[j] == b'b' {
        j += 1;
    }
    if b.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0usize;
    while b.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) == Some(&b'"') {
        Some((j + 1, hashes))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(l: &Lexed) -> Vec<&str> {
        l.tokens
            .iter()
            .filter_map(|t| match &t.tok {
                Tok::Ident(s) => Some(s.as_str()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn strings_hide_code() {
        let l = lex(r##"let x = "fire(\"wal.append\")"; fire("real.site");"##);
        assert_eq!(idents(&l), ["let", "x", "fire"]);
        assert_eq!(l.tokens.iter().filter(|t| t.tok == Tok::Lit).count(), 2);
    }

    #[test]
    fn raw_strings_swallow_quotes_and_newlines() {
        let src = "let f = r#\"line \"one\"\nline two\"#; done();";
        let l = lex(src);
        assert_eq!(idents(&l), ["let", "f", "done"]);
        assert_eq!(l.tokens.last().unwrap().line, 2, "lines inside raw strings still count");
    }

    #[test]
    fn comments_are_captured_not_tokenized() {
        let l = lex("// fire(\"ghost\")\n/* block\nspanning */ real();");
        assert_eq!(idents(&l), ["real"]);
        assert_eq!(l.comments.len(), 2);
        assert_eq!(l.comments[0].line, 1);
        assert_eq!((l.comments[1].line, l.comments[1].end_line), (2, 3));
    }

    #[test]
    fn nested_block_comments() {
        let l = lex("/* outer /* inner */ still comment */ code();");
        assert_eq!(idents(&l), ["code"]);
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let l = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes = l.tokens.iter().filter(|t| t.tok == Tok::Lifetime).count();
        let chars = l.tokens.iter().filter(|t| t.tok == Tok::Lit).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(chars, 2);
    }

    #[test]
    fn generics_are_plain_angle_puncts() {
        // Nested generics must not confuse the lexer: `<` is always a
        // plain punct, never the start of something stateful.
        let l = lex("fn f<T: Into<Vec<HashMap<String, Vec<u8>>>>>(t: T) {}");
        let angles =
            l.tokens.iter().filter(|t| matches!(t.tok, Tok::Punct('<') | Tok::Punct('>'))).count();
        assert_eq!(angles, 10);
    }

    #[test]
    fn comment_near_is_case_insensitive_and_windowed() {
        let l = lex("// Poison-tolerant: fine\nfn f() {}\n\n\n\n\n\nfn far() {}");
        assert!(l.comment_near(2, 1, "poison"));
        assert!(!l.comment_near(8, 2, "poison"));
    }

    #[test]
    fn unterminated_constructs_survive() {
        lex("\"never closed");
        lex("/* never closed");
        lex("r#\"never closed");
    }
}
