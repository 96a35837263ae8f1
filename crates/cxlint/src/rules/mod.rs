//! The rule engine: each rule is a function from [`Workspace`] to
//! findings. Shared token-scanning helpers live here.

use crate::lexer::{Tok, Token};
use std::collections::HashMap;

pub mod failpoints;
pub mod lock_order;
pub mod metrics;
pub mod panics;
pub mod poison;

/// True when token `i` is the identifier `name`.
pub(crate) fn is_ident(t: &[Token], i: usize, name: &str) -> bool {
    matches!(t.get(i).map(|x| &x.tok), Some(Tok::Ident(s)) if s == name)
}

/// True when token `i` is the punct `c`.
pub(crate) fn is_punct(t: &[Token], i: usize, c: char) -> bool {
    matches!(t.get(i).map(|x| &x.tok), Some(Tok::Punct(p)) if *p == c)
}

/// The string value of a call's argument starting at token `arg_start`
/// (just after the `(` or a `,`): a string literal directly, or a
/// constant resolved through `consts` (paths reduce to their last
/// segment, so `cxcluster::SHARD_QUERY_SITE` resolves like
/// `SHARD_QUERY_SITE`). `None` when the argument is dynamic.
pub(crate) fn resolve_str_arg(
    t: &[Token],
    arg_start: usize,
    consts: &HashMap<String, String>,
) -> Option<String> {
    // Walk the argument's tokens up to the `,` or `)` that ends it,
    // remembering the last identifier and any string literal.
    let mut depth = 0i32;
    let mut last_ident: Option<&str> = None;
    for tok in t.iter().skip(arg_start) {
        match &tok.tok {
            Tok::Punct('(' | '[') => depth += 1,
            Tok::Punct(')' | ']') if depth > 0 => depth -= 1,
            Tok::Punct(')' | ',') => break,
            Tok::Str(s) => return Some(s.clone()),
            Tok::Ident(s) => last_ident = Some(s),
            _ => {}
        }
    }
    last_ident.and_then(|name| consts.get(name).cloned())
}

/// All `cx_…`-shaped names mentioned in Markdown table rows (lines whose
/// trimmed form starts with `|`). Returns name → occurrence count.
/// Fragments too short to be real names (bare `cx_`) are ignored, so
/// prose like ``cx_<area>_<what>`` in a docs table doesn't count.
pub(crate) fn readme_table_names(readme: &str) -> HashMap<String, usize> {
    let mut counts = HashMap::new();
    for line in readme.lines() {
        let lt = line.trim_start();
        if !lt.starts_with('|') {
            continue;
        }
        let bytes = lt.as_bytes();
        let mut i = 0;
        while let Some(pos) = lt[i..].find("cx_") {
            let start = i + pos;
            let mut end = start;
            while end < bytes.len()
                && (bytes[end].is_ascii_lowercase()
                    || bytes[end].is_ascii_digit()
                    || bytes[end] == b'_')
            {
                end += 1;
            }
            let name = &lt[start..end];
            if name.len() > "cx_".len() {
                *counts.entry(name.to_string()).or_insert(0) += 1;
            }
            i = end.max(start + 3);
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn resolve_str_arg_literal_const_dynamic() {
        let consts: HashMap<String, String> =
            [("SITE".to_string(), "a.b".to_string())].into_iter().collect();
        let l = lex(r#"f("lit"); f(SITE); f(cx::SITE); f(&self.site); f(other)"#);
        let t = &l.tokens;
        // token indices of each `(`:
        let opens: Vec<usize> = t
            .iter()
            .enumerate()
            .filter_map(|(i, x)| (x.tok == Tok::Punct('(')).then_some(i))
            .collect();
        assert_eq!(resolve_str_arg(t, opens[0] + 1, &consts).as_deref(), Some("lit"));
        assert_eq!(resolve_str_arg(t, opens[1] + 1, &consts).as_deref(), Some("a.b"));
        assert_eq!(resolve_str_arg(t, opens[2] + 1, &consts).as_deref(), Some("a.b"));
        assert_eq!(resolve_str_arg(t, opens[3] + 1, &consts), None);
        assert_eq!(resolve_str_arg(t, opens[4] + 1, &consts), None);
    }

    #[test]
    fn readme_names_counted_per_table_row_only() {
        let md = "\
| metrics | `cx_edit_ns`, `cx_docs` |\n\
| more | `cx_edit_ns{shard=\"0\"}` |\n\
code block mention: cx_ignored_total\n\
| scheme | `cx_<area>_<what>` |\n";
        let n = readme_table_names(md);
        assert_eq!(n.get("cx_edit_ns"), Some(&2));
        assert_eq!(n.get("cx_docs"), Some(&1));
        assert_eq!(n.get("cx_ignored_total"), None);
        assert!(!n.contains_key("cx_"));
    }
}
