//! Observability walkthrough: soak a 3-shard cluster with mixed traffic,
//! then print the whole stack's Prometheus-style exposition page (every
//! shard's store/WAL/checkpoint series under its own `shard="i"` label,
//! plus the cluster's queueing and migration series) and the event rings.
//!
//! ```sh
//! cargo run --release --example metrics_dump
//! ```

use cxml::cxcluster::{Cluster, ShardId};
use cxml::cxobs::Observable;
use cxml::cxpersist::Options;
use cxml::cxstore::EditOp;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = std::env::temp_dir().join(format!("cxml-metrics-dump-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dirs: Vec<_> = (0..3).map(|i| base.join(format!("shard-{i}"))).collect();
    let cluster = Cluster::open(dirs, Options::default())?;

    // ── Soak: inserts, gated edits (one rejected), fan-out queries, a
    // migration, a checkpoint ─────────────────────────────────────────
    let mut docs = Vec::new();
    for i in 0..9 {
        let mut ms = corpus::generate(&corpus::Params::sized(40 + 5 * i)).goddag;
        corpus::dtds::attach_standard(&mut ms);
        docs.push(cluster.insert_named(format!("ms-{i}"), ms)?);
    }
    for k in 0..120 {
        let doc = docs[k % docs.len()];
        cluster.edit(doc, EditOp::InsertText { offset: 0, text: format!("x{k} ") })?;
    }
    let rejected = cluster.edit(
        docs[0],
        EditOp::InsertElement {
            hierarchy: "ling".into(),
            tag: "nonsense".into(),
            attrs: vec![],
            start: 0,
            end: 4,
        },
    );
    assert!(rejected.is_err(), "the prevalidation gate refuses an undeclared element");
    cluster.query_all("//w")?;
    cluster.move_doc(docs[0], ShardId(1))?;
    cluster.checkpoint_all()?;

    // ── The whole cluster as one exposition page ──────────────────────
    print!("{}", cluster.exposition());

    // ── The event trails: the cluster's ring, then each shard's ───────
    println!("\n# cluster events");
    for e in cluster.registry().events().recent() {
        println!("#   [{:>9}µs] {}: {}", e.at_micros, e.kind, e.detail);
    }
    for (s, shard) in cluster.shards().iter().enumerate() {
        println!("# shard {s} events");
        for e in shard.registry().events().recent() {
            println!("#   [{:>9}µs] {}: {}", e.at_micros, e.kind, e.detail);
        }
    }

    std::fs::remove_dir_all(&base)?;
    Ok(())
}
