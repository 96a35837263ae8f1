//! What a run prints — notes for people, then one JSON object as the last
//! line — and the metric tables that both the binary and `BENCHMARK.json`
//! are written from, so the two cannot drift apart.

use crate::harness::{Spec, WORKLOADS};
use crate::oracle::Tally;

/// Seconds one measured run lasts (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 15;

/// A metric of the manifest: name, unit, whether higher is better, and for
/// end-to-end metrics the share of the parent's median by which it may
/// worsen.
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef { name, unit, higher_is_better: higher, bound: Some(bound) }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    MetricDef { name, unit, higher_is_better: higher, bound: None }
}

/// What a user of the system sees. Every workload reports all four; what
/// `ops_s` counts and whose median `p50_us` is are per workload
/// ([`Spec::counted`], [`Spec::headline`]).
pub const END_TO_END: [MetricDef; 4] = [
    gated("ops_s", "1/s", true, 0.25),
    gated("p50_us", "us", false, 0.25),
    gated("peak_rss_mb", "MB", false, 0.10),
    gated("setup_s", "s", false, 0.25),
];

/// The ladder (`--trace 1`). The seven `*_us` rows are self times per
/// operation and sum to `top_us`; the `*.share` rows split `core_us` by
/// paper-core crate, as a percentage of `top_us`.
pub const PER_LAYER: [MetricDef; 22] = [
    layer("top_us", "us", false),
    layer("cxserve.rpc_us", "us", false),
    layer("cxwire.frame_us", "us", false),
    layer("cxserve.codec_us", "us", false),
    layer("cxcluster.route_us", "us", false),
    layer("cxpersist.wal_us", "us", false),
    layer("cxstore.self_us", "us", false),
    layer("core_us", "us", false),
    layer("goddag.share", "%", false),
    layer("prevalid.share", "%", false),
    layer("expath.share", "%", false),
    layer("sacx.share", "%", false),
    layer("xmlcore.share", "%", false),
    layer("request_bytes_per_op", "B", false),
    layer("reply_bytes_per_op", "B", false),
    layer("wal_bytes_per_op", "B", false),
    layer("fsyncs_per_op", "count", false),
    layer("index_hit_rate", "ratio", true),
    layer("query_cache_hit_rate", "ratio", true),
    layer("edits_rejected", "count", false),
    layer("server_busy", "count", false),
    layer("trace_overhead", "ratio", false),
];

#[derive(Debug, Clone, PartialEq)]
pub struct Value {
    pub value: f64,
    pub unit: &'static str,
}

impl Value {
    pub fn new(value: f64, unit: &'static str) -> Value {
        Value { value, unit }
    }
}

pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    notes: Vec<String>,
    pub metrics: Vec<(&'static str, Value)>,
    pub tally: Tally,
}

impl Report {
    pub fn new(spec: &Spec, seed: u64) -> Report {
        Report {
            workload: spec.name,
            seed,
            notes: Vec::new(),
            metrics: Vec::new(),
            tally: Tally::default(),
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn notes_extend(&mut self, lines: impl IntoIterator<Item = String>) {
        self.notes.extend(lines);
    }

    pub fn metric(&mut self, name: &'static str, value: Value) {
        self.metrics.push((name, value));
    }

    /// The contract's result object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}", v.value, v.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.correct(),
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }

    /// Everything, the result object last.
    pub fn print(&self, defs: &[MetricDef]) {
        println!("workload={} seed={}", self.workload, self.seed);
        for note in &self.notes {
            println!("  {note}");
        }
        for (name, v) in &self.metrics {
            println!("  {name} = {} {}", v.value, v.unit);
        }
        println!(
            "  fail_share = {} ({} failed of {} attempted)",
            self.tally.fail_share(),
            self.tally.failed,
            self.tally.attempted
        );
        let missing: Vec<_> =
            defs.iter().filter(|d| !self.metrics.iter().any(|(n, _)| *n == d.name)).collect();
        assert!(missing.is_empty(), "run reported no {}", missing[0].name);
        assert!(
            self.metrics.iter().all(|(_, v)| v.value.is_finite()),
            "a metric is not a finite number: {:?}",
            self.metrics
        );
        println!("{}", self.json());
    }
}

fn defs_json(defs: &[MetricDef]) -> String {
    let rows: Vec<String> = defs
        .iter()
        .map(|d| {
            let better = if d.higher_is_better { "higher" } else { "lower" };
            let bound = d.bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
                d.name, d.unit
            )
        })
        .collect();
    rows.join(",\n")
}

/// The text of `BENCHMARK.json` (`cxbench manifest`).
pub fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|s| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", s.name, s.why))
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"cxbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"cxbench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        defs_json(&END_TO_END),
        defs_json(&PER_LAYER)
    )
}

/// `(name, value)` of every metric in a result line written by
/// [`Report::json`], and whether the run was correct.
pub fn parse_result(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line.contains("\"correct\": true");
    let body = line.split_once("\"metrics\": {")?.1;
    let mut out = Vec::new();
    for piece in body.split("\"unit\":") {
        let Some((head, value)) = piece.rsplit_once("{\"value\": ") else { continue };
        let name = head.rsplit('"').nth(1)?;
        out.push((name.to_string(), value.trim().trim_end_matches(',').parse().ok()?));
    }
    Some((correct, out))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_round_trip() {
        let mut r = Report::new(&WORKLOADS[0], 1);
        r.metric("ops_s", Value::new(1234.5, "1/s"));
        r.metric("cxserve.rpc_us", Value::new(-0.25, "us"));
        r.tally.check(true);
        let (correct, metrics) = parse_result(&r.json()).unwrap();
        assert!(correct);
        assert_eq!(metrics, [("ops_s".to_string(), 1234.5), ("cxserve.rpc_us".to_string(), -0.25)]);
        r.tally.check(false);
        assert!(!parse_result(&r.json()).unwrap().0);
    }

    #[test]
    fn manifest_meets_the_contract_shape() {
        let m = manifest();
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && !d.higher_is_better));
        let largest = END_TO_END.iter().map(|d| d.bound.unwrap()).fold(0.0, f64::max);
        assert!(largest <= 0.25);
        assert_eq!(END_TO_END.iter().find(|d| d.name == "setup_s").unwrap().bound, Some(largest));
        let mut names: Vec<_> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name).collect();
        names.extend(WORKLOADS.iter().map(|s| s.name));
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert_eq!(m.matches(&format!("\"name\": \"{n}\"")).count(), 1, "{n}");
        }
        assert_eq!(m.matches("\"name\"").count(), names.len());
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                d.unit.len() <= 16
                    && d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }
}
