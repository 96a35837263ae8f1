//! Every workload and its ladder at `--scale tiny`, through the real
//! binary: the names, units and result shape the contract promises, no
//! failed operation, ladder rows that sum to the top rung, and a
//! `BENCHMARK.json` that says what the binary says.

use std::path::Path;
use std::process::Command;

fn cxbench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_cxbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("run cxbench");
    (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Every `"key": "value"` string pair of a JSON text, in order.
fn string_fields<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let needle = format!("\"{key}\": \"");
    json.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &json[at + needle.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

/// `(name, unit)` of the metrics in one section of the manifest.
fn section<'a>(manifest: &'a str, from: &str, to: &str) -> Vec<(&'a str, &'a str)> {
    let body = manifest.split_once(from).expect(from).1;
    let body = if to.is_empty() { body } else { body.split_once(to).expect(to).0 };
    string_fields(body, "name").into_iter().zip(string_fields(body, "unit")).collect()
}

/// `(name, value, unit)` of the metrics in a result line.
fn result_metrics(line: &str) -> Vec<(&str, f64, &str)> {
    let body = line.split_once("\"metrics\": {").expect("metrics").1;
    let units = string_fields(body, "unit");
    body.split("{\"value\": ")
        .collect::<Vec<_>>()
        .windows(2)
        .zip(units)
        .map(|(w, unit)| {
            let name = w[0].rsplit('"').nth(1).expect("metric name");
            let value = w[1].split(',').next().expect("value").parse().expect("number");
            (name, value, unit)
        })
        .collect()
}

fn check_run(workload: &str, trace: &str, defs: &[(&str, &str)]) -> Vec<(String, f64)> {
    let args = ["--workload", workload, "--seed", "3", "--seconds", "0.4", "--trace", trace];
    let (ok, out) = cxbench(&[&args[..], &["--scale", "tiny"]].concat());
    assert!(ok, "{workload} trace={trace} exited non-zero:\n{out}");
    let last = out.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true, \"attempted\": "), "{workload}: {last}");
    assert!(last.contains("\"failed\": 0, "), "{workload}: {last}");
    assert!(out.contains("fail_share = 0 "), "{workload}:\n{out}");
    let metrics = result_metrics(last);
    let got: Vec<_> = metrics.iter().map(|(n, _, u)| (*n, *u)).collect();
    let mut want = defs.to_vec();
    let mut sorted = got.clone();
    want.sort();
    sorted.sort();
    assert_eq!(sorted, want, "{workload} trace={trace}: metric names and units");
    assert!(metrics.iter().all(|(_, v, _)| v.is_finite()), "{workload}: {last}");
    metrics.into_iter().map(|(n, v, _)| (n.to_string(), v)).collect()
}

#[test]
fn benchmark_json_is_what_the_binary_prints() {
    let (ok, manifest) = cxbench(&["manifest"]);
    assert!(ok);
    let committed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed =
        std::fs::read_to_string(committed).expect("BENCHMARK.json at the repository root");
    assert_eq!(committed, manifest, "regenerate with `cxbench manifest > BENCHMARK.json`");
}

#[test]
fn every_workload_and_its_ladder_run_clean_at_tiny_scale() {
    let (_, manifest) = cxbench(&["manifest"]);
    let workloads =
        string_fields(manifest.split_once("\"end_to_end\"").expect("sections").0, "name");
    assert_eq!(
        workloads,
        ["edit.served", "query.served", "mixed.served", "tag.wide", "ingest.recover"]
    );
    let end_to_end = section(&manifest, "\"end_to_end\"", "\"per_layer\"");
    let per_layer = section(&manifest, "\"per_layer\"", "");
    assert!(end_to_end.contains(&("setup_s", "s")));

    for workload in workloads {
        let metrics = check_run(workload, "0", &end_to_end);
        assert!(metrics.iter().all(|(_, v)| *v > 0.0), "{workload}: {metrics:?}");

        let layers = check_run(workload, "1", &per_layer);
        let get = |name: &str| layers.iter().find(|(n, _)| n == name).expect(name).1;
        let rows = [
            "cxserve.rpc_us",
            "cxwire.frame_us",
            "cxserve.codec_us",
            "cxcluster.route_us",
            "cxpersist.wal_us",
            "cxstore.self_us",
            "core_us",
        ];
        let sum: f64 = rows.iter().map(|r| get(r)).sum();
        let top = get("top_us");
        assert!(
            (sum - top).abs() <= 0.01 * top,
            "{workload}: rows sum to {sum}, top rung is {top}"
        );
        let trace =
            Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!(".cxbench/{workload}.trace.jsonl"));
        let spans = std::fs::read_to_string(&trace).expect("span file");
        assert!(spans.lines().count() > 8 && spans.lines().all(|l| l.contains("\"parent\": ")));
    }
}

#[test]
fn an_unknown_workload_or_flag_is_refused() {
    assert!(!cxbench(&["--workload", "no.such"]).0);
    assert!(!cxbench(&["--frobnicate"]).0);
    assert!(!cxbench(&[]).0);
}
