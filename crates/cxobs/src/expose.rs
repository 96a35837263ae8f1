//! Text exposition: Prometheus-style `name{label="v"} value` lines.

use crate::names::{Name, Scalar};
use std::fmt::{Display, Write};

/// A text exposition under construction: a line buffer plus a **label
/// stack**. Labels pushed with [`Exposition::push_label`] are stamped on
/// every line written until popped — how a cluster wraps each shard's
/// whole output in `shard="i"` without the shard knowing it is being
/// wrapped.
#[derive(Debug, Default)]
pub struct Exposition {
    labels: Vec<(String, String)>,
    buf: String,
}

/// Escape a label value per the Prometheus text format.
fn escape_into(buf: &mut String, v: &str) {
    for c in v.chars() {
        match c {
            '\\' => buf.push_str("\\\\"),
            '"' => buf.push_str("\\\""),
            '\n' => buf.push_str("\\n"),
            c => buf.push(c),
        }
    }
}

impl Exposition {
    /// An empty exposition.
    pub fn new() -> Exposition {
        Exposition::default()
    }

    /// Stamp `key="value"` on every line written until the matching
    /// [`Exposition::pop_label`].
    pub fn push_label(&mut self, key: &str, value: impl Display) {
        self.labels.push((key.to_string(), value.to_string()));
    }

    /// Undo the most recent [`Exposition::push_label`].
    pub fn pop_label(&mut self) {
        self.labels.pop();
    }

    /// Write one `name{stack labels} value` line.
    pub fn write<K: Scalar>(&mut self, name: Name<K>, value: impl Display) {
        self.write_with(name, &[], value);
    }

    /// Write one line carrying the stacked labels plus `extra` ones
    /// (stack first, so per-metric labels like `quantile` read last).
    pub fn write_with<K: Scalar>(
        &mut self,
        name: Name<K>,
        extra: &[(&str, &str)],
        value: impl Display,
    ) {
        self.line(name.as_str(), extra, value, None);
    }

    /// The raw line writer behind every series, histogram sub-lines
    /// (`_bucket`/`_sum`/`_count`) included. An `exemplar` adds the
    /// OpenMetrics-style suffix ` # {trace_id="<id>"}` — how a histogram
    /// bucket links to the concrete trace that last landed in it.
    pub(crate) fn line(
        &mut self,
        name: &str,
        extra: &[(&str, &str)],
        value: impl Display,
        exemplar: Option<&str>,
    ) {
        self.buf.push_str(name);
        if !self.labels.is_empty() || !extra.is_empty() {
            self.buf.push('{');
            let mut first = true;
            let stacked = self.labels.iter().map(|(k, v)| (k.as_str(), v.as_str()));
            for (k, v) in stacked.chain(extra.iter().copied()) {
                if !first {
                    self.buf.push(',');
                }
                first = false;
                self.buf.push_str(k);
                self.buf.push_str("=\"");
                escape_into(&mut self.buf, v);
                self.buf.push('"');
            }
            self.buf.push('}');
        }
        self.buf.push(' ');
        let _ = write!(self.buf, "{value}");
        if let Some(ex) = exemplar {
            self.buf.push_str(" # {trace_id=\"");
            escape_into(&mut self.buf, ex);
            self.buf.push_str("\"}");
        }
        self.buf.push('\n');
    }

    /// The finished text.
    pub fn finish(self) -> String {
        self.buf
    }

    /// The text so far (the buffer keeps growing).
    pub fn as_str(&self) -> &str {
        &self.buf
    }
}

/// Anything that can describe its current state as exposition lines.
/// Implemented by every store-shaped layer of the stack (`Store`,
/// `DurableStore`, `ReplicaStore`, `Primary`, `Cluster`); compose by
/// calling [`Observable::expose_into`] on parts under pushed labels.
pub trait Observable {
    /// Append this component's `name{label="v"} value` lines.
    fn expose_into(&self, out: &mut Exposition);

    /// Render this component alone as exposition text.
    fn exposition(&self) -> String {
        let mut out = Exposition::new();
        self.expose_into(&mut out);
        out.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::{DOCS, EDITS_TOTAL, REPL_LAG};

    #[test]
    fn plain_and_labeled_lines() {
        let mut e = Exposition::new();
        e.write(DOCS, 3);
        e.push_label("shard", 1);
        e.write(DOCS, 2);
        e.write_with(REPL_LAG, &[("quantile", "0.5")], 4095);
        e.pop_label();
        e.write(EDITS_TOTAL, 5);
        assert_eq!(
            e.finish(),
            "cx_docs 3\n\
             cx_docs{shard=\"1\"} 2\n\
             cx_repl_lag{shard=\"1\",quantile=\"0.5\"} 4095\n\
             cx_edits_total 5\n"
        );
    }

    #[test]
    fn label_values_are_escaped() {
        let mut e = Exposition::new();
        e.write_with(EDITS_TOTAL, &[("detail", "say \"hi\"\nback\\slash")], 1);
        assert_eq!(e.finish(), "cx_edits_total{detail=\"say \\\"hi\\\"\\nback\\\\slash\"} 1\n");
    }

    #[test]
    fn observable_default_renders() {
        struct Two;
        impl Observable for Two {
            fn expose_into(&self, out: &mut Exposition) {
                out.write(DOCS, 2);
            }
        }
        assert_eq!(Two.exposition(), "cx_docs 2\n");
    }
}
