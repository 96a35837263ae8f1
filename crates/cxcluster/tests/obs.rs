//! Acceptance for the observability layer: a 3-shard cluster under
//! concurrent soak traffic renders one exposition page with per-shard
//! labeled counters, gauges and latency histograms (sane percentiles),
//! plus cluster-level queueing/migration series and a drainable event
//! trail — each series on exactly one line.

mod common;

use common::TempDir;
use cxcluster::{Cluster, ShardId};
use cxobs::Observable;
use cxpersist::{FsyncPolicy, Options};
use cxrepl::{Follower, InProcessTransport, ReplicaStore};
use cxstore::EditOp;
use std::collections::HashSet;
use std::sync::Arc;

const SHARDS: usize = 3;
const DOCS: usize = 9;
const WRITERS: usize = 3;
const EDITS_PER_WRITER: usize = 30;

fn manuscript(seed: u64) -> goddag::Goddag {
    let mut ms = corpus::generate(&corpus::Params { words: 40, seed, ..corpus::Params::default() });
    corpus::dtds::attach_standard(&mut ms.goddag);
    ms.goddag
}

/// The value of the exposition line whose name+labels equal `series`.
fn metric(page: &str, series: &str) -> i64 {
    page.lines()
        .find_map(|l| l.strip_prefix(series).and_then(|rest| rest.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("no exposition line for {series}"))
        .parse()
        .unwrap_or_else(|e| panic!("unparseable value for {series}: {e}"))
}

#[test]
fn cluster_exposition_under_soak() {
    let dir = TempDir::new("obs");
    let c = Arc::new(
        Cluster::open(dir.shard_dirs(SHARDS), Options { fsync: FsyncPolicy::Never }).unwrap(),
    );

    let docs: Vec<_> = (0..DOCS).map(|k| c.insert(manuscript(k as u64)).unwrap()).collect();

    // Concurrent soak: writers edit disjoint documents while a reader
    // fans queries out across all shards and a rebalancer migrates.
    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let (c, docs) = (Arc::clone(&c), &docs);
            scope.spawn(move || {
                for k in 0..EDITS_PER_WRITER {
                    for (i, &doc) in docs.iter().enumerate() {
                        if i % WRITERS == w {
                            let op = EditOp::InsertText { offset: 0, text: format!("w{w}k{k} ") };
                            c.edit(doc, op).unwrap();
                        }
                    }
                }
            });
        }
        let c2 = Arc::clone(&c);
        scope.spawn(move || {
            for _ in 0..10 {
                c2.query_all("//w").unwrap();
            }
        });
        let (c3, moved) = (Arc::clone(&c), docs[0]);
        scope.spawn(move || {
            c3.move_doc(moved, ShardId(1)).unwrap();
            c3.move_doc(moved, ShardId(0)).unwrap();
        });
    });
    // A follower catches up from shard 0 (before the checkpoint, so it
    // ships records rather than a snapshot).
    let replica = Arc::new(ReplicaStore::new());
    let shipped = Follower::new(replica, InProcessTransport::new(c.primary(ShardId(0)).unwrap()))
        .catch_up()
        .unwrap();
    assert!(shipped > 0, "shard 0 logged the soak's writes");
    c.checkpoint_all().unwrap();

    let page = c.exposition();

    // One line per series: no `name{labels}` is written twice, and no
    // shard carries a series of a layer it lacks.
    let mut seen = HashSet::new();
    for line in page.lines() {
        let line = line.split(" # ").next().unwrap_or(line); // drop any exemplar
        let series = line.rsplit_once(' ').map_or(line, |(series, _)| series);
        assert!(seen.insert(series), "{series} appears twice on the page:\n{page}");
    }
    for (s, shard) in c.shards().iter().enumerate() {
        for name in ["cx_writers_waiting", "cx_cluster_shards", "cx_docs_moved_total"] {
            assert!(!shard.exposition().contains(name), "shard {s} page carries {name}");
            assert!(!page.contains(&format!("{name}{{shard=")), "{name} under a shard label");
        }
    }

    // Records shipped from a shard's primary reach the cluster's stats
    // and that shard's lines.
    assert_eq!(c.stats().repl_records_shipped, shipped);
    assert!(metric(&page, "cx_repl_records_shipped_total{shard=\"0\"}") > 0);

    // Per-shard series: every shard carries documents, edit counters and
    // populated latency histograms under its own label.
    for s in 0..SHARDS {
        assert!(metric(&page, &format!("cx_docs{{shard=\"{s}\"}}")) >= 1);
        assert!(metric(&page, &format!("cx_edits_total{{shard=\"{s}\"}}")) > 0);
        assert!(metric(&page, &format!("cx_edit_ns_count{{shard=\"{s}\"}}")) > 0);
        assert!(metric(&page, &format!("cx_wal_append_ns_count{{shard=\"{s}\"}}")) > 0);
        assert!(metric(&page, &format!("cx_checkpoint_ns_count{{shard=\"{s}\"}}")) >= 1);
        let p50 = metric(&page, &format!("cx_edit_ns{{shard=\"{s}\",quantile=\"0.5\"}}"));
        let p90 = metric(&page, &format!("cx_edit_ns{{shard=\"{s}\",quantile=\"0.9\"}}"));
        let p99 = metric(&page, &format!("cx_edit_ns{{shard=\"{s}\",quantile=\"0.99\"}}"));
        assert!(0 < p50 && p50 <= p90 && p90 <= p99, "shard {s}: {p50}/{p90}/{p99}");
    }

    // Cluster-level series: migration latency recorded, queueing gauges
    // back to zero now that the soak has quiesced.
    assert!(metric(&page, "cx_move_doc_ns_count") >= 2);
    assert_eq!(metric(&page, "cx_gate_waiters"), 0);
    assert_eq!(metric(&page, "cx_fanout_threads"), 0);
    for s in 0..SHARDS {
        assert_eq!(metric(&page, &format!("cx_shard_writes_in_flight{{shard=\"{s}\"}}")), 0);
    }

    // The aggregated stats agree with the quiesced gauges and flow into
    // the same page unlabeled.
    let stats = c.stats();
    assert_eq!((stats.writes_in_flight, stats.writers_waiting), (0, 0));
    assert_eq!(metric(&page, "cx_docs"), DOCS as i64);
    assert_eq!(metric(&page, "cx_cluster_shards"), SHARDS as i64);
    assert_eq!(metric(&page, "cx_docs_moved_total"), 2);

    // The event trail: migrations on the cluster ring, checkpoints on
    // each shard's own ring.
    let kinds: Vec<&str> = c.registry().events().recent().iter().map(|e| e.kind).collect();
    assert_eq!(kinds.iter().filter(|k| **k == "migrate").count(), 2);
    for shard in c.shards() {
        let kinds: Vec<&str> = shard.registry().events().recent().iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&"checkpoint"), "shard missing checkpoint event: {kinds:?}");
    }
}
