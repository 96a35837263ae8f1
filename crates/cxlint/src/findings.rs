//! Findings: what a rule reports, and how it prints.

use std::fmt;

/// One finding. Renders as `file:line: rule-id: message`, or as a JSON
/// object in `--json` mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable machine-readable rule id (`lock-order-cycle`, `pn-unannotated`, …).
    pub rule: &'static str,
    /// Repo-relative path.
    pub file: String,
    /// 1-based line (0 when the finding is about a whole file).
    pub line: u32,
    /// Human-readable explanation, including the witness where the rule
    /// has one (lock cycles print their path).
    pub message: String,
}

impl Finding {
    /// Construct a finding.
    pub fn new(
        rule: &'static str,
        file: impl Into<String>,
        line: u32,
        message: impl Into<String>,
    ) -> Finding {
        Finding { rule, file: file.into(), line, message: message.into() }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}: {}", self.file, self.line, self.rule, self.message)
    }
}

/// Escape for a JSON string body.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render findings as a JSON array (stable field order; `[]` when clean —
/// the CI baseline diff relies on that exact spelling).
pub fn to_json(findings: &[Finding]) -> String {
    if findings.is_empty() {
        return "[]".to_string();
    }
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}{}\n",
            json_escape(&f.file),
            f.line,
            f.rule,
            json_escape(&f.message),
            if i + 1 == findings.len() { "" } else { "," },
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_format() {
        let f = Finding::new("pn-unannotated", "crates/x/src/lib.rs", 12, "bare unwrap");
        assert_eq!(f.to_string(), "crates/x/src/lib.rs:12: pn-unannotated: bare unwrap");
    }

    #[test]
    fn json_empty_is_bare_brackets() {
        assert_eq!(to_json(&[]), "[]");
    }

    #[test]
    fn json_escapes() {
        let f = Finding::new("x", "a.rs", 1, "quote \" backslash \\ newline \n");
        let j = to_json(&[f]);
        assert!(j.contains("quote \\\" backslash \\\\ newline \\n"));
    }
}
