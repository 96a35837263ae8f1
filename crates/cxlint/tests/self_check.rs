//! The self-check: cxlint must run clean over the workspace that ships
//! it, and fast enough to sit in CI's critical path.
//!
//! This is the test that makes the tool a gate rather than an optional
//! extra — a lock-order cycle, an unjustified poison recovery, or an
//! unannotated panic on a serving path fails `cargo test` before it ever
//! reaches CI.

use std::path::Path;
use std::time::Instant;

/// The workspace root, two levels up from this crate.
fn root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn workspace_is_clean() {
    let ws = cxlint::source::Workspace::load(root()).expect("load workspace sources");
    assert!(
        ws.files.len() > 100,
        "self-check must see the whole workspace, got {} files",
        ws.files.len()
    );
    let findings = cxlint::run(&ws);
    let rendered: Vec<String> = findings.iter().map(ToString::to_string).collect();
    assert!(findings.is_empty(), "cxlint findings on the workspace:\n{}", rendered.join("\n"));
}

/// The perf guard: a full-workspace run (load + lex + every rule) must
/// stay interactive. The CI gate budget is five seconds; the analyses
/// are single-pass token scans plus one small fixpoint, so a debug-mode
/// run comfortably fits even on a loaded machine.
#[test]
fn full_run_stays_under_the_ci_budget() {
    let start = Instant::now();
    let ws = cxlint::source::Workspace::load(root()).expect("load workspace sources");
    let _ = cxlint::run(&ws);
    let elapsed = start.elapsed();
    assert!(elapsed.as_secs_f64() <= 5.0, "cxlint took {elapsed:?}, budget is 5s");
}
