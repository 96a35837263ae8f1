//! `pn-unannotated`: no bare `unwrap()` / `expect()` / `panic!` on
//! serving-stack production paths.
//!
//! A panic in the store, WAL, cluster, or server tier — or in the `sacx`
//! code they call on every request: the edit apply body and the stand-off
//! decoder behind document blobs — is an outage (the server contains
//! handler panics, but that containment is a last line, not a license). Sites that really are unreachable must say so: an
//! `// invariant: …` comment on the same line or immediately above
//! states the argument and is machine-checked here. Everything else is
//! a finding.

use crate::findings::Finding;
use crate::lexer::Tok;
use crate::source::{FileKind, Workspace};

/// The serving stack: crates where a production panic is an outage.
/// `sacx` is in because the serving path's edit apply (`sacx::EditOp`)
/// and its blob decoder (`sacx::StandoffDoc`) live there. The other
/// parser/engine crates (`xmlcore`, `goddag`, `prevalid`, …) are not
/// scoped in — they run behind `sacx`'s name checks and the store's
/// prevalidation gate, and their error contracts predate this rule.
const SCOPE: &[&str] =
    &["sacx", "cxstore", "cxpersist", "cxcluster", "cxrepl", "cxserve", "cxwire"];

/// Lines of slack above the site for its `invariant:` comment.
const WINDOW: u32 = 3;

/// Run the rule.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in &ws.files {
        if f.kind != FileKind::Src || !SCOPE.contains(&f.crate_name.as_str()) {
            continue;
        }
        let t = &f.lexed.tokens;
        for i in 0..t.len() {
            let what = match &t[i].tok {
                Tok::Ident(s) if s == "unwrap" => {
                    // `.unwrap()` exactly — `unwrap_or`, `unwrap_or_else`
                    // are different idents and don't reach here.
                    if !(crate::rules::is_punct(t, i.wrapping_sub(1), '.')
                        && crate::rules::is_punct(t, i + 1, '(')
                        && crate::rules::is_punct(t, i + 2, ')'))
                    {
                        continue;
                    }
                    "unwrap()"
                }
                Tok::Ident(s) if s == "expect" => {
                    if !(crate::rules::is_punct(t, i.wrapping_sub(1), '.')
                        && crate::rules::is_punct(t, i + 1, '('))
                    {
                        continue;
                    }
                    "expect()"
                }
                Tok::Ident(s) if s == "panic" => {
                    if !crate::rules::is_punct(t, i + 1, '!') {
                        continue;
                    }
                    "panic!"
                }
                _ => continue,
            };
            if !f.is_production(i) {
                continue;
            }
            let line = t[i].line;
            if f.lexed.comment_near(line, WINDOW, "invariant:") {
                continue;
            }
            out.push(Finding::new(
                "pn-unannotated",
                &f.path,
                line,
                format!(
                    "production-path {what} without an `// invariant:` annotation — state \
                     why this cannot fail, or return an error"
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotated_passes_bare_fails() {
        let ws = Workspace::from_files(&[(
            "crates/cxstore/src/lib.rs",
            "fn a(x: Option<u32>) -> u32 {\n\
             // invariant: caller checked is_some above\n\
             let v = x.unwrap();\n\
             let w = x.unwrap();\n\
             v + w\n}\n",
        )]);
        let fs = check(&ws);
        // Both unwraps sit within WINDOW of the comment on line 2?
        // Line 3 yes; line 4 is 2 lines below the comment — still within
        // the 3-line window, so this fixture documents the window width.
        assert!(fs.is_empty());
    }

    #[test]
    fn bare_sites_fail_with_each_pattern() {
        let ws = Workspace::from_files(&[(
            "crates/cxpersist/src/lib.rs",
            "fn a(x: Option<u32>) {\n\n\n\n\n\n let v = x.unwrap();\n\n\n\n\n\n \
             let w = x.expect(\"m\");\n\n\n\n\n\n if v == 0 { panic!(\"boom\"); }\n}\n",
        )]);
        let fs = check(&ws);
        assert_eq!(fs.len(), 3);
        assert!(fs[0].message.contains("unwrap()"));
        assert!(fs[1].message.contains("expect()"));
        assert!(fs[2].message.contains("panic!"));
    }

    #[test]
    fn out_of_scope_crates_and_tests_exempt() {
        let ws = Workspace::from_files(&[
            ("crates/goddag/src/lib.rs", "fn a(x: Option<u32>) { x.unwrap(); }"),
            ("crates/cxstore/tests/t.rs", "fn a(x: Option<u32>) { x.unwrap(); }"),
            (
                "crates/cxstore/src/lib.rs",
                "#[cfg(test)]\nmod tests { fn a(x: Option<u32>) { x.unwrap(); } }",
            ),
        ]);
        assert!(check(&ws).is_empty());
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let ws = Workspace::from_files(&[(
            "crates/cxwire/src/lib.rs",
            "fn a(x: Option<u32>) { x.unwrap_or_else(|| 3); x.unwrap_or(4); }",
        )]);
        assert!(check(&ws).is_empty());
    }
}
