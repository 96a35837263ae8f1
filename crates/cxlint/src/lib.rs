//! cxlint — the workspace's own static analyser.
//!
//! Clippy checks Rust; nothing checks *this repo's* conventions — the
//! contracts earlier PRs established in prose and review: lock ordering
//! across the store/cluster/server tiers, the failpoint site table, the
//! `cx_*` metric naming scheme, the poison-recovery audit, and the
//! no-panics-in-production rule. Each of those decays silently under
//! normal development pressure. cxlint mechanizes them as a CI hard gate.
//! It lints only what the compiler cannot see — wire-protocol
//! exhaustiveness, for one, is not here: the protocol's keyword sets are
//! enums (`sacx::vocabulary!`) and every codec surface is a `match` on
//! them.
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
//! | `fp-*` | failpoint sites are unique, documented, armed by tests, and resolvable |
//! | `mx-*` | `cx_*` metrics follow the naming scheme and match the README table |
//! | `ps-undocumented` | every poison-recovery site justifies why recovered state is consistent |
//! | `pn-unannotated` | no `unwrap()`/`expect()`/`panic!` on serving paths without `// invariant:` |
//! | `allow-*` | `cxlint.toml` itself is well-formed and carries no dead entries |
//!
//! # Exceptions
//!
//! Known-good violations are silenced in `cxlint.toml` at the workspace
//! root ([`config`]); every entry must carry a written `note`, and
//! entries that no longer match anything are themselves findings.

pub mod config;
pub mod findings;
pub mod lexer;
pub mod rules;
pub mod source;

use findings::Finding;
use source::Workspace;

/// Run every rule over the workspace, then apply the allowlist.
///
/// Returned findings are sorted by file, then line, then rule id, so
/// output (and `--json` baselines) are stable across runs.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(rules::lock_order::check(ws));
    findings.extend(rules::failpoints::check(ws));
    findings.extend(rules::metrics::check(ws));
    findings.extend(rules::poison::check(ws));
    findings.extend(rules::panics::check(ws));

    let (allows, mut config_findings) = config::parse_allowlist(&ws.allow_toml);
    let mut findings = config::apply_allowlist(findings, &allows);
    findings.append(&mut config_findings);
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_silences_and_flags_unused() {
        let mut ws = Workspace::from_files(&[(
            "crates/cxstore/src/lib.rs",
            "fn f(x: Option<u32>) { x.unwrap(); }",
        )]);
        ws.allow_toml = "[[allow]]\nrule = \"pn-unannotated\"\n\
                         path = \"crates/cxstore/src/lib.rs\"\nnote = \"fixture\"\n\
                         [[allow]]\nrule = \"pn-unannotated\"\npath = \"nope.rs\"\nnote = \"stale\"\n"
            .to_string();
        let fs = run(&ws);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].rule, "allow-unused");
        assert_eq!(fs[0].line, 5);
    }

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
