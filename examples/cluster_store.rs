//! Write-sharding walkthrough: three durable primaries behind one
//! store-shaped façade — routed gated edits, cluster-wide names, fan-out
//! queries, a live migration, a shard drain, and a warm restart.
//!
//! ```sh
//! cargo run --release --example cluster_store
//! ```

use cxml::cxcluster::{Cluster, ShardId};
use cxml::cxpersist::Options;
use cxml::cxstore::EditOp;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = std::env::temp_dir().join(format!("cxml-cluster-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dirs: Vec<_> = (0..3).map(|i| base.join(format!("shard-{i}"))).collect();

    // ── Three primaries, one façade ───────────────────────────────────
    let cluster = Cluster::open(dirs.clone(), Options::default())?;
    for i in 0..6 {
        let mut ms = corpus::generate(&corpus::Params::sized(60 + 10 * i)).goddag;
        corpus::dtds::attach_standard(&mut ms);
        cluster.insert_named(format!("ms-{i}"), ms)?;
    }
    for (s, shard) in cluster.shards().iter().enumerate() {
        println!("shard {s}: {} docs in {}", shard.store().len(), shard.dir().display());
    }

    // ── Routed, gated edits: the name directory finds the owner ───────
    let ms = cluster.id_by_name("ms-2")?;
    println!("ms-2 = {ms}, lives on {}", cluster.shard_of(ms));
    cluster.edit(ms, EditOp::InsertText { offset: 0, text: "Incipit ".into() })?;
    let gate = cluster.edit(
        ms,
        EditOp::InsertElement {
            hierarchy: "ling".into(),
            tag: "nonsense".into(),
            attrs: vec![],
            start: 0,
            end: 4,
        },
    );
    println!("prevalidation across the cluster: {}", gate.unwrap_err());

    // ── Fan-out query across all shards, merged deterministically ─────
    let per_doc = cluster.query_all("//w")?;
    let total: usize = per_doc.iter().map(|(_, ns)| ns.len()).sum();
    println!("query_all //w: {} docs, {total} words", per_doc.len());

    // ── Live rebalancing: move a document, then drain a primary ───────
    let from = cluster.shard_of(ms);
    let to = ShardId((from.0 + 1) % 3);
    cluster.move_doc(ms, to)?;
    println!("moved {ms} {from} -> {to}; name still resolves: {}", cluster.id_by_name("ms-2")?);
    let drained = cluster.drain_shard(ShardId(0))?;
    println!(
        "drained shard 0: {} docs relocated, routing table: {:?}",
        drained.len(),
        cluster.router().overrides().len()
    );

    // ── Warm restart: routing and names are re-derived from the shards ─
    let stats = cluster.stats();
    drop(cluster);
    let cluster = Cluster::open(dirs, Options::default())?;
    println!(
        "reopened: {} docs on {} shards, {} moves recorded pre-restart, ms-2 on {}",
        cluster.len(),
        cluster.shard_count(),
        stats.docs_moved,
        cluster.shard_of(cluster.id_by_name("ms-2")?)
    );

    let _ = std::fs::remove_dir_all(&base);
    Ok(())
}
