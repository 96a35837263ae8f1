//! The README's two reference tables stay equal to the declarations they
//! document:
//!
//! * the failpoint table (header cell `site`) lists exactly
//!   `cxobs::fault::Site::ALL`, once each, and every row's "pinned by"
//!   cell names a test file that exists, mentions that `Site::` variant
//!   and arms a failpoint (calls `fault::configure`);
//! * the metric table (header `| kind | names |`) mentions exactly the
//!   names of `cxobs::names::ALL`, once each.
//!
//! A mismatch prints the missing and extra names. The checks take the
//! README text as an argument, so the tests below also prove each drift
//! is caught on a doctored copy.

use cxobs::fault::Site;
use std::collections::BTreeSet;
use std::path::Path;

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn readme() -> String {
    std::fs::read_to_string(root().join("README.md")).expect("README.md")
}

/// The cells of the Markdown table whose header row's first cell is
/// `first`: the header row, then every body row (the `|---|` separator
/// dropped).
fn table(md: &str, first: &str) -> Vec<Vec<String>> {
    let mut rows = Vec::new();
    for line in md.lines().map(str::trim) {
        if !line.starts_with('|') {
            if !rows.is_empty() {
                break;
            }
            continue;
        }
        let cells: Vec<String> =
            line.trim_matches('|').split('|').map(|c| c.trim().to_string()).collect();
        if rows.is_empty() && cells[0] != first {
            continue;
        }
        if !cells[0].starts_with('-') {
            rows.push(cells);
        }
    }
    assert!(!rows.is_empty(), "README has no table headed `{first}`");
    rows
}

/// Every `backticked` span in `cell`.
fn backticked(cell: &str) -> impl Iterator<Item = &str> {
    cell.split('`').skip(1).step_by(2)
}

/// `documented` against `declared`: empty when each declared name is
/// documented exactly once and nothing else is.
fn diff(what: &str, documented: &[&str], declared: &[&str]) -> Vec<String> {
    let declared_set: BTreeSet<&str> = declared.iter().copied().collect();
    let documented_set: BTreeSet<&str> = documented.iter().copied().collect();
    let mut problems = Vec::new();
    let missing: Vec<_> = declared_set.difference(&documented_set).collect();
    if !missing.is_empty() {
        problems.push(format!("{what} missing from the README: {missing:?}"));
    }
    let extra: Vec<_> = documented_set.difference(&declared_set).collect();
    if !extra.is_empty() {
        problems.push(format!("README {what} no longer declared: {extra:?}"));
    }
    let twice: BTreeSet<&str> = documented
        .iter()
        .copied()
        .filter(|n| documented.iter().filter(|m| *m == n).count() > 1)
        .collect();
    if !twice.is_empty() {
        problems.push(format!("README lists {what} more than once: {twice:?}"));
    }
    problems
}

fn failpoint_table_problems(md: &str) -> Vec<String> {
    let rows = table(md, "site");
    let pinned = rows[0].iter().position(|h| h == "pinned by").expect("a `pinned by` column");
    let body = &rows[1..];
    let documented: Vec<&str> = body.iter().map(|r| r[0].trim_matches('`')).collect();
    let declared: Vec<&str> = Site::ALL.iter().map(|s| s.name()).collect();
    let mut problems = diff("failpoint sites", &documented, &declared);
    for row in body {
        let Some(site) = Site::ALL.iter().find(|s| s.name() == row[0].trim_matches('`')) else {
            continue;
        };
        let variant = format!("Site::{site:?}");
        let file = row.get(pinned).map(|c| c.trim_matches('`')).unwrap_or_default();
        match std::fs::read_to_string(root().join(file)) {
            Err(_) => problems
                .push(format!("`{}` is pinned by `{file}`, which does not exist", site.name())),
            Ok(text) if !text.contains(&variant) || !text.contains("fault::configure") => problems
                .push(format!(
                    "`{}` is pinned by `{file}`, which never arms `{variant}`",
                    site.name()
                )),
            Ok(_) => {}
        }
    }
    problems
}

fn metric_table_problems(md: &str) -> Vec<String> {
    let rows = table(md, "kind");
    assert_eq!(rows[0], ["kind", "names"], "the metric table's header");
    let documented: Vec<&str> = rows[1..]
        .iter()
        .flat_map(|r| backticked(&r[1]))
        .filter(|span| span.starts_with("cx_"))
        .map(|span| span.split('{').next().unwrap_or(span))
        .collect();
    let declared: Vec<&str> = cxobs::names::ALL.iter().map(|&(name, _)| name).collect();
    diff("metric names", &documented, &declared)
}

#[test]
fn failpoint_table_lists_every_site_once_and_pins_it() {
    let problems = failpoint_table_problems(&readme());
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn metric_table_lists_every_declared_name_once() {
    let problems = metric_table_problems(&readme());
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

#[test]
fn failpoint_drift_is_caught() {
    let md = readme();
    let row = md.lines().find(|l| l.starts_with("| `serve.request`")).unwrap();

    let deleted = md.replace(&format!("{row}\n"), "");
    let p = failpoint_table_problems(&deleted);
    assert!(p.iter().any(|p| p.contains("missing") && p.contains("serve.request")), "{p:?}");

    let stale =
        md.replace(row, &format!("{row}\n| `serve.reply` | x | y | `tests/readme_tables.rs` |"));
    let p = failpoint_table_problems(&stale);
    assert!(
        p.iter().any(|p| p.contains("no longer declared") && p.contains("serve.reply")),
        "{p:?}"
    );

    let unpinned = md.replace(
        row,
        &row.replace("crates/cxserve/tests/serve.rs", "crates/cxpersist/tests/faults.rs"),
    );
    let p = failpoint_table_problems(&unpinned);
    assert!(p.iter().any(|p| p.contains("never arms `Site::ServeRequest`")), "{p:?}");
}

#[test]
fn metric_drift_is_caught() {
    let md = readme();
    let p = metric_table_problems(&md.replace("`cx_gate_waiters`, ", ""));
    assert!(p.iter().any(|p| p.contains("missing") && p.contains("cx_gate_waiters")), "{p:?}");
    let p = metric_table_problems(
        &md.replace("`cx_gate_waiters`", "`cx_gate_waiters`, `cx_gate_sleepers`"),
    );
    assert!(
        p.iter().any(|p| p.contains("no longer declared") && p.contains("cx_gate_sleepers")),
        "{p:?}"
    );
    let p = metric_table_problems(&md.replace("`cx_gate_waiters`", "`cx_gate_waiters`, `cx_docs`"));
    assert!(p.iter().any(|p| p.contains("more than once") && p.contains("cx_docs")), "{p:?}");
}
