//! The workspace model: files, their lexed form, and the structural
//! facts every rule shares (which code is test code, where functions
//! begin and end, which crates depend on which).

use crate::lexer::{lex, Lexed, Tok};
use std::collections::{BTreeSet, HashMap};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// What part of a crate a file belongs to — rules scope themselves on
/// this (e.g. the panic audit covers `Src` only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// `crates/*/src/**` or the root `src/`.
    Src,
    /// `crates/*/tests/**` or the root `tests/`.
    Tests,
    /// `crates/*/benches/**`.
    Benches,
    /// `examples/**`.
    Examples,
}

/// One source file: its path, crate, kind, and lexed form.
pub struct SourceFile {
    /// Path relative to the workspace root (`crates/cxstore/src/store.rs`).
    pub path: String,
    /// Crate name (`cxstore`), or `"cxml"` for root `src`/`tests`/`examples`.
    pub crate_name: String,
    /// Which tree the file lives in.
    pub kind: FileKind,
    /// The lexed token + comment streams.
    pub lexed: Lexed,
    /// Token index ranges lying inside `#[cfg(test)] mod … { }` blocks.
    pub test_spans: Vec<Range<usize>>,
}

impl SourceFile {
    /// Build from a path + contents (the in-memory constructor fixture
    /// tests use; [`Workspace::load`] goes through here too).
    pub fn new(path: impl Into<String>, text: &str) -> SourceFile {
        let path = path.into();
        let crate_name = path
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("cxml")
            .to_string();
        let kind = if path.starts_with("examples/") || path.contains("/examples/") {
            FileKind::Examples
        } else if path.starts_with("tests/") || path.contains("/tests/") {
            FileKind::Tests
        } else if path.contains("/benches/") {
            FileKind::Benches
        } else {
            FileKind::Src
        };
        let lexed = lex(text);
        let test_spans = find_test_spans(&lexed);
        SourceFile { path, crate_name, kind, lexed, test_spans }
    }

    /// True when token `idx` is production code: a `Src` file, outside
    /// any `#[cfg(test)]` module.
    pub fn is_production(&self, idx: usize) -> bool {
        self.kind == FileKind::Src && !self.in_test_span(idx)
    }

    /// True when token `idx` lies inside a `#[cfg(test)]` module.
    pub fn in_test_span(&self, idx: usize) -> bool {
        self.test_spans.iter().any(|r| r.contains(&idx))
    }
}

/// The whole workspace as the rules see it.
pub struct Workspace {
    /// Every `.rs` file found (sorted by path for deterministic output).
    pub files: Vec<SourceFile>,
    /// Direct workspace (path) dependencies per crate, from each crate's
    /// `Cargo.toml` — `crate → {dep, …}`. Empty for fixture workspaces,
    /// which analyses must treat as "no dependency information".
    pub crate_deps: HashMap<String, BTreeSet<String>>,
}

impl Workspace {
    /// Build from in-memory `(path, text)` pairs — the fixture-test
    /// constructor.
    pub fn from_files(files: &[(&str, &str)]) -> Workspace {
        let mut files: Vec<SourceFile> =
            files.iter().map(|(p, t)| SourceFile::new(*p, t)).collect();
        files.sort_by(|a, b| a.path.cmp(&b.path));
        Workspace { files, crate_deps: HashMap::new() }
    }

    /// Walk a real workspace root: `src/`, `tests/`, `examples/`, and
    /// every `crates/*/{src,tests,benches}` tree.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut paths: Vec<PathBuf> = Vec::new();
        for top in ["src", "tests", "examples"] {
            collect_rs(&root.join(top), &mut paths);
        }
        let crates = root.join("crates");
        if let Ok(entries) = std::fs::read_dir(&crates) {
            for e in entries.flatten() {
                for sub in ["src", "tests", "benches"] {
                    collect_rs(&e.path().join(sub), &mut paths);
                }
            }
        }
        let mut files = Vec::with_capacity(paths.len());
        for p in paths {
            let text = std::fs::read_to_string(&p)?;
            let rel = p.strip_prefix(root).unwrap_or(&p).to_string_lossy().replace('\\', "/");
            files.push(SourceFile::new(rel, &text));
        }
        files.sort_by(|a, b| a.path.cmp(&b.path));

        let mut crate_deps: HashMap<String, BTreeSet<String>> = HashMap::new();
        if let Ok(text) = std::fs::read_to_string(root.join("Cargo.toml")) {
            crate_deps.insert("cxml".to_string(), manifest_path_deps(&text));
        }
        if let Ok(entries) = std::fs::read_dir(&crates) {
            for e in entries.flatten() {
                if let Ok(text) = std::fs::read_to_string(e.path().join("Cargo.toml")) {
                    let name = e.file_name().to_string_lossy().into_owned();
                    crate_deps.insert(name, manifest_path_deps(&text));
                }
            }
        }
        Ok(Workspace { files, crate_deps })
    }
}

/// The workspace-path dependency names a `Cargo.toml` declares: keys of
/// `[dependencies]` / `[dev-dependencies]` entries whose value mentions
/// `path` (external registry deps — which this workspace has none of —
/// carry no `path` and are skipped).
fn manifest_path_deps(text: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut in_deps = false;
    for raw in text.lines() {
        let line = raw.trim();
        if let Some(section) = line.strip_prefix('[') {
            let section = section.trim_end_matches(']');
            in_deps = section == "dependencies"
                || section == "dev-dependencies"
                || section == "build-dependencies";
            continue;
        }
        if !in_deps {
            continue;
        }
        if let Some((key, value)) = line.split_once('=') {
            if value.contains("path") {
                out.insert(key.trim().to_string());
            }
        }
    }
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs") {
            out.push(p);
        }
    }
}

/// Find token ranges of `#[cfg(test)] mod name { … }` blocks (and
/// `#[cfg(all(test, …))]` variants): anything inside is test code.
fn find_test_spans(lexed: &Lexed) -> Vec<Range<usize>> {
    let t = &lexed.tokens;
    let mut spans = Vec::new();
    let mut i = 0;
    while i < t.len() {
        // `#` `[` cfg `(` … test … `)` `]` then (more attrs)* then `mod`.
        if t[i].tok == Tok::Punct('#')
            && t.get(i + 1).is_some_and(|x| x.tok == Tok::Punct('['))
            && matches!(t.get(i + 2).map(|x| &x.tok), Some(Tok::Ident(s)) if s == "cfg")
        {
            let Some(attr_end) = matching(t, i + 1, '[', ']') else {
                i += 1;
                continue;
            };
            let has_test =
                t[i + 2..attr_end].iter().any(|x| matches!(&x.tok, Tok::Ident(s) if s == "test"));
            if has_test {
                // Skip any further attributes, then expect `mod ident {`.
                let mut j = attr_end + 1;
                while t.get(j).is_some_and(|x| x.tok == Tok::Punct('#')) {
                    match matching(t, j + 1, '[', ']') {
                        Some(e) => j = e + 1,
                        None => break,
                    }
                }
                if matches!(t.get(j).map(|x| &x.tok), Some(Tok::Ident(s)) if s == "mod") {
                    // find `{` after the mod name
                    let mut k = j + 1;
                    while k < t.len() && t[k].tok != Tok::Punct('{') && t[k].tok != Tok::Punct(';')
                    {
                        k += 1;
                    }
                    if t.get(k).is_some_and(|x| x.tok == Tok::Punct('{')) {
                        if let Some(close) = matching(t, k, '{', '}') {
                            spans.push(j..close + 1);
                            i = close + 1;
                            continue;
                        }
                    }
                }
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    spans
}

/// Index of the punct closing the `open` at `start` (which must hold
/// `open`), or `None` when unbalanced.
pub fn matching(t: &[crate::lexer::Token], start: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0i32;
    for (k, tok) in t.iter().enumerate().skip(start) {
        match tok.tok {
            Tok::Punct(c) if c == open => depth += 1,
            Tok::Punct(c) if c == close => {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
            _ => {}
        }
    }
    None
}

/// One `fn` item: name, parameter names, and its body's token range.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// Parameter identifiers in order (`self` excluded, patterns reduced
    /// to their first identifier).
    pub params: Vec<String>,
    /// Token range of the body, *excluding* the outer braces.
    pub body: Range<usize>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// The `impl` type the fn belongs to (`impl Foo` / `impl Trait for
    /// Foo` → `Foo`), or `None` for free functions.
    pub impl_type: Option<String>,
}

/// `(body range, self type)` of every `impl` block in the file. For
/// `impl Trait for Type` the self type is `Type`; generics are skipped.
fn impl_blocks(t: &[crate::lexer::Token]) -> Vec<(Range<usize>, String)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < t.len() {
        if !matches!(&t[i].tok, Tok::Ident(s) if s == "impl") {
            i += 1;
            continue;
        }
        // Skip the generics list (`impl<T: Clone> …`), then scan the
        // header up to `{`: the first uppercase ident names the type —
        // unless a `for` follows (trait impl), which resets the search
        // so the ident after `for` wins.
        let mut j = i + 1;
        if t.get(j).is_some_and(|x| x.tok == Tok::Punct('<')) {
            let mut depth = 0i32;
            while j < t.len() {
                match t[j].tok {
                    Tok::Punct('<') => depth += 1,
                    Tok::Punct('>') if t[j - 1].tok != Tok::Punct('-') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        let mut ty: Option<String> = None;
        while j < t.len() {
            match &t[j].tok {
                Tok::Punct('{') => break,
                Tok::Punct(';') => break, // malformed header; bail safely
                Tok::Ident(s) if s == "for" => ty = None,
                Tok::Ident(s) if s == "where" => break,
                Tok::Ident(s)
                    if ty.is_none() && s.starts_with(|c: char| c.is_ascii_uppercase()) =>
                {
                    ty = Some(s.clone());
                }
                _ => {}
            }
            j += 1;
        }
        // `where` clauses: keep scanning for the `{`.
        while j < t.len() && t[j].tok != Tok::Punct('{') {
            j += 1;
        }
        if let (Some(ty), Some(open)) = (ty, (j < t.len()).then_some(j)) {
            if let Some(close) = matching(t, open, '{', '}') {
                out.push((open + 1..close, ty));
            }
        }
        i = j.max(i) + 1;
    }
    out
}

/// Extract every function (with a body) from a file. Nested functions
/// are reported too; closures belong to their enclosing function.
pub fn functions(f: &SourceFile) -> Vec<FnItem> {
    let t = &f.lexed.tokens;
    let impls = impl_blocks(t);
    let mut out = Vec::new();
    let mut i = 0;
    while i < t.len() {
        if !matches!(&t[i].tok, Tok::Ident(s) if s == "fn") {
            i += 1;
            continue;
        }
        let Some(Tok::Ident(name)) = t.get(i + 1).map(|x| &x.tok) else {
            i += 1;
            continue;
        };
        let line = t[i].line;
        // Find the parameter list: the first `(` after the name, skipping
        // a generics list if present (angle depth counting is safe here —
        // a parameter list cannot appear inside `fn` generics).
        let mut j = i + 2;
        if t.get(j).is_some_and(|x| x.tok == Tok::Punct('<')) {
            let mut depth = 0i32;
            while j < t.len() {
                match t[j].tok {
                    Tok::Punct('<') => depth += 1,
                    // `->` inside generic bounds (`F: Fn() -> u32`) is an
                    // arrow, not a closing angle.
                    Tok::Punct('>') if t[j - 1].tok != Tok::Punct('-') => {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if !t.get(j).is_some_and(|x| x.tok == Tok::Punct('(')) {
            i += 1;
            continue;
        }
        let Some(params_end) = matching(t, j, '(', ')') else {
            i += 1;
            continue;
        };
        let params = param_names(&t[j + 1..params_end]);
        // Body: the first `{` before a `;` at this level (a `;` first
        // means a bodiless trait/extern declaration).
        let mut k = params_end + 1;
        let mut body = None;
        while k < t.len() {
            match t[k].tok {
                Tok::Punct('{') => {
                    body = matching(t, k, '{', '}').map(|close| (k + 1..close, close));
                    break;
                }
                Tok::Punct(';') => break,
                _ => k += 1,
            }
        }
        match body {
            Some((range, close)) => {
                // Innermost impl block containing the `fn` keyword.
                let impl_type = impls
                    .iter()
                    .filter(|(r, _)| r.contains(&i))
                    .min_by_key(|(r, _)| r.end - r.start)
                    .map(|(_, ty)| ty.clone());
                out.push(FnItem { name: name.clone(), params, body: range, line, impl_type });
                // Continue scanning *inside* the body too (nested fns),
                // so do not jump past `close`; just move on.
                let _ = close;
                i += 1;
            }
            None => i += 1,
        }
    }
    out
}

/// Parameter identifiers: each top-level (paren/bracket/angle depth 0)
/// `ident :` pair contributes `ident`; `self` receivers are skipped.
fn param_names(toks: &[crate::lexer::Token]) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    for (k, tok) in toks.iter().enumerate() {
        match &tok.tok {
            Tok::Punct('(' | '[' | '<' | '{') => depth += 1,
            Tok::Punct('>') if k > 0 && toks[k - 1].tok == Tok::Punct('-') => {} // arrow
            Tok::Punct(')' | ']' | '>' | '}') => depth -= 1,
            Tok::Ident(s)
                if depth == 0
                    && s != "self"
                    && s != "mut"
                    && s != "ref"
                    && toks.get(k + 1).is_some_and(|n| n.tok == Tok::Punct(':'))
                    // `::` is a path, not a type ascription
                    && toks.get(k + 2).map(|n| n.tok != Tok::Punct(':')).unwrap_or(true)
                    && (k == 0
                        || matches!(toks[k - 1].tok, Tok::Punct(',' | '&' | '(') | Tok::Ident(_))) =>
            {
                out.push(s.clone());
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn file_classification() {
        assert_eq!(SourceFile::new("crates/cxstore/src/store.rs", "").kind, FileKind::Src);
        assert_eq!(SourceFile::new("crates/cxstore/tests/store.rs", "").kind, FileKind::Tests);
        assert_eq!(SourceFile::new("crates/bench/benches/fault.rs", "").kind, FileKind::Benches);
        assert_eq!(SourceFile::new("examples/demo.rs", "").kind, FileKind::Examples);
        assert_eq!(SourceFile::new("tests/perf_smoke.rs", "").crate_name, "cxml");
        assert_eq!(SourceFile::new("crates/cxrepl/src/lib.rs", "").crate_name, "cxrepl");
    }

    #[test]
    fn test_spans_cover_cfg_test_modules() {
        let f = SourceFile::new(
            "crates/x/src/lib.rs",
            "fn prod() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n  fn t() { y.unwrap(); }\n}\nfn prod2() {}",
        );
        let t = &f.lexed.tokens;
        let unwraps: Vec<usize> = t
            .iter()
            .enumerate()
            .filter_map(|(i, x)| matches!(&x.tok, Tok::Ident(s) if s == "unwrap").then_some(i))
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(f.is_production(unwraps[0]));
        assert!(!f.is_production(unwraps[1]));
        assert!(f.in_test_span(unwraps[1]));
    }

    #[test]
    fn cfg_all_test_counts() {
        let f = SourceFile::new(
            "crates/x/src/lib.rs",
            "#[cfg(all(test, not(feature = \"off\")))]\nmod tests { fn t() {} }",
        );
        assert_eq!(f.test_spans.len(), 1);
    }

    #[test]
    fn functions_with_generics_and_nesting() {
        let f = SourceFile::new(
            "crates/x/src/lib.rs",
            "fn plain(a: u32, b: &str) -> u32 { a }\n\
             fn generic<T: Into<Vec<u8>>>(l: &RwLock<T>) { l.read(); }\n\
             impl S { fn method(&self, x: usize) { fn inner(q: u8) {} } }\n\
             trait T { fn decl(&self); }",
        );
        let fns = functions(&f);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["plain", "generic", "method", "inner"]);
        assert_eq!(fns[0].params, ["a", "b"]);
        assert_eq!(fns[1].params, ["l"]);
        assert_eq!(fns[2].params, ["x"]);
    }
}
