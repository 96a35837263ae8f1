//! The `cxlint` binary: `cargo run --release -p cxlint -- check`.
//!
//! Exit codes: `0` clean, `1` findings, `2` usage or io error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cxlint check [--json] [--root <dir>]\n\
         \n\
         Runs the workspace's own static analyses (lock ordering and the\n\
         poison/panic audits) over every Rust source file. Findings print\n\
         one per line as `file:line: rule-id: message`; --json emits a\n\
         JSON array instead (exactly `[]` when clean)."
    );
    ExitCode::from(2)
}

/// Walk up from `start` to the workspace root (the directory holding a
/// `Cargo.toml` that declares `[workspace]`).
fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut cmd: Option<&str> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "check" if cmd.is_none() => cmd = Some("check"),
            "--json" => json = true,
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            _ => return usage(),
        }
    }
    if cmd != Some("check") {
        return usage();
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("cxlint: no workspace Cargo.toml above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let ws = match cxlint::source::Workspace::load(&root) {
        Ok(ws) => ws,
        Err(e) => {
            eprintln!("cxlint: failed to load workspace at {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let findings = cxlint::run(&ws);
    if json {
        println!("{}", cxlint::findings::to_json(&findings));
    } else {
        for f in &findings {
            println!("{f}");
        }
        if findings.is_empty() {
            eprintln!("cxlint: {} files, clean", ws.files.len());
        } else {
            eprintln!("cxlint: {} finding(s)", findings.len());
        }
    }
    if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
