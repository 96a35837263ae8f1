//! Prometheus text-format conformance for histogram exposition: the
//! rendered page is parsed line-by-line and checked against the rules a
//! real scraper enforces — `_bucket` lines cumulative with ascending
//! `le` ending in a mandatory `+Inf`, `_sum` and `_count` present
//! exactly once per series, and `+Inf` equal to `_count`.

use cxobs::names::{EDIT_NS, GATE_NS, SERVER_REQUEST_NS};
use cxobs::Registry;

/// Split one exposition line into (metric name, `le` label if any,
/// value text). Exemplar suffixes (` # {...}`) are stripped first, as a
/// Prometheus parser would.
fn parse_line(line: &str) -> (String, Option<String>, String) {
    let line = line.split(" # ").next().unwrap();
    let (series, value) = line.rsplit_once(' ').expect("value after last space");
    let (name, le) = match series.split_once('{') {
        None => (series.to_string(), None),
        Some((name, rest)) => {
            let labels = rest.strip_suffix('}').expect("closing brace");
            let le = labels.split(',').find_map(|kv| {
                let (k, v) = kv.split_once('=')?;
                (k == "le").then(|| v.trim_matches('"').to_string())
            });
            (name.to_string(), le)
        }
    };
    (name, le, value.to_string())
}

#[test]
fn histogram_exposition_is_prometheus_conformant() {
    let r = Registry::new();
    let h = r.histogram(EDIT_NS);
    h.record_ns(1);
    h.record_ns(500);
    h.record_ns(500);
    h.record_ns(1_000_000);
    r.histogram(GATE_NS); // registered, never recorded
    let text = r.render();

    for family in [EDIT_NS.as_str(), GATE_NS.as_str()] {
        let bucket_name = format!("{family}_bucket");
        let mut bucket_lines: Vec<(Option<String>, u64)> = Vec::new();
        let mut sum = None;
        let mut count = None;
        let mut first_bucket_idx = None;
        let mut sum_idx = None;
        let mut count_idx = None;
        for (idx, line) in text.lines().enumerate() {
            let (name, le, value) = parse_line(line);
            if name == bucket_name {
                first_bucket_idx.get_or_insert(idx);
                bucket_lines.push((le, value.parse().unwrap()));
            } else if name == format!("{family}_sum") {
                assert!(sum.is_none(), "one _sum line per series");
                sum = Some(value.parse::<u64>().unwrap());
                sum_idx = Some(idx);
            } else if name == format!("{family}_count") {
                assert!(count.is_none(), "one _count line per series");
                count = Some(value.parse::<u64>().unwrap());
                count_idx = Some(idx);
            }
        }
        let (sum, count) = (sum.expect("_sum rendered"), count.expect("_count rendered"));

        // Order: every _bucket line precedes _sum, which precedes _count.
        assert!(first_bucket_idx.unwrap() < sum_idx.unwrap(), "{family}: buckets before _sum");
        assert!(sum_idx.unwrap() < count_idx.unwrap(), "{family}: _sum before _count");

        // The +Inf bucket is mandatory, last, and equals _count.
        let (last_le, last_val) = bucket_lines.last().expect("at least the +Inf bucket");
        assert_eq!(last_le.as_deref(), Some("+Inf"), "{family}: last bucket is +Inf");
        assert_eq!(*last_val, count, "{family}: +Inf equals _count");
        assert!(
            bucket_lines[..bucket_lines.len() - 1].iter().all(|(le, _)| le.is_some()),
            "{family}: every bucket line carries le"
        );

        // Finite le bounds strictly ascend; cumulative values never
        // decrease and never exceed the count.
        let finite: Vec<(u64, u64)> = bucket_lines[..bucket_lines.len() - 1]
            .iter()
            .map(|(le, v)| (le.as_deref().unwrap().parse().unwrap(), *v))
            .collect();
        assert!(finite.windows(2).all(|w| w[0].0 < w[1].0), "{family}: le ascends");
        assert!(finite.windows(2).all(|w| w[0].1 <= w[1].1), "{family}: cumulative");
        assert!(finite.iter().all(|&(_, v)| v <= count), "{family}: bounded by count");

        match family {
            "cx_edit_ns" => {
                assert_eq!(count, 4);
                assert_eq!(sum, 1 + 500 + 500 + 1_000_000);
                // 1 → le=1; 500,500 → le=511; 1_000_000 → le=1048575.
                assert_eq!(finite, vec![(1, 1), (511, 3), (1_048_575, 4)]);
            }
            "cx_gate_ns" => {
                assert_eq!((count, sum), (0, 0));
                assert!(finite.is_empty(), "no observations, only +Inf");
            }
            _ => unreachable!(),
        }
    }
}

#[test]
fn labeled_histograms_keep_their_labels_on_every_line() {
    let r = Registry::new();
    r.histogram_with(SERVER_REQUEST_NS, &[("verb", "edit")]).record_ns(100);
    let text = r.render();
    assert!(text.contains("cx_server_request_ns_bucket{verb=\"edit\",le=\"127\"} 1"), "{text}");
    assert!(text.contains("cx_server_request_ns_bucket{verb=\"edit\",le=\"+Inf\"} 1"), "{text}");
    assert!(text.contains("cx_server_request_ns_sum{verb=\"edit\"} 100"), "{text}");
    assert!(text.contains("cx_server_request_ns_count{verb=\"edit\"} 1"), "{text}");
}
