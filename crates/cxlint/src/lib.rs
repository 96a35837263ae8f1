//! cxlint — the workspace's own static analyser.
//!
//! Clippy checks Rust; nothing checks *this repo's* conventions — the
//! contracts earlier PRs established in prose and review: lock ordering
//! across the store/cluster/server tiers, the poison-recovery audit, and
//! the no-panics-in-production rule. Each of those decays silently under
//! normal development pressure. cxlint mechanizes them as a CI hard gate.
//! It lints only what the compiler cannot see: wire-protocol keyword
//! sets, failpoint sites and metric names are all declared types
//! (`sacx::vocabulary!`, `cxobs::fault::Site`, `cxobs::names`), so their drift
//! is a compile error, and their README tables are pinned by the root
//! test `tests/readme_tables.rs`.
//!
//! ```text
//! cargo run --release -p cxlint -- check [--json] [--root <dir>]
//! ```
//!
//! # Design
//!
//! cxlint is dependency-free and token-based, not AST-based. A small
//! comment- and string-aware lexer ([`lexer`]) turns each source file
//! into two parallel streams — code tokens and comments — so string
//! literals can never be mistaken for code (rule fixtures in cxlint's
//! own tests are raw strings, invisible to the rules by construction)
//! and justification comments are first-class, machine-checkable
//! objects. Rules ([`rules`]) are functions from a [`source::Workspace`]
//! to [`findings::Finding`]s; each finding prints as
//! `file:line: rule-id: message`.
//!
//! # Rules
//!
//! | id | checks |
//! |----|--------|
//! | `lock-order-cycle` | the cross-crate lock graph is acyclic (witness path on failure) |
//! | `ps-undocumented` | every poison-recovery site justifies why recovered state is consistent |
//! | `pn-unannotated` | no `unwrap()`/`expect()`/`panic!` on serving paths without `// invariant:` |
//!
//! There is no allowlist: a justified exception is an in-code comment
//! (`poison`, `// invariant:`) next to the code it excuses.

pub mod findings;
pub mod lexer;
pub mod rules;
pub mod source;

use findings::Finding;
use source::Workspace;

/// Run every rule over the workspace.
///
/// Returned findings are sorted by file, then line, then rule id, so
/// output (and `--json` baselines) are stable across runs.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(rules::lock_order::check(ws));
    findings.extend(rules::poison::check(ws));
    findings.extend(rules::panics::check(ws));
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn findings_are_sorted_and_stable() {
        let ws = Workspace::from_files(&[
            ("crates/cxstore/src/b.rs", "fn f(x: Option<u32>) { x.unwrap(); }"),
            ("crates/cxstore/src/a.rs", "fn f(x: Option<u32>) { x.unwrap(); }"),
        ]);
        let fs = run(&ws);
        assert_eq!(fs.len(), 2);
        assert!(fs[0].file < fs[1].file);
        assert_eq!(run(&ws), fs, "two runs must agree exactly");
    }
}
