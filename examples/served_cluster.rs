//! Service-tier walkthrough: a sharded cluster behind a TCP server, a
//! pooled client doing gated edits and fan-out queries over the wire,
//! shard-scoped servers behind a client-side router, end-to-end request
//! tracing, and the metrics page that watched it all happen.
//!
//! ```sh
//! cargo run --release --example served_cluster
//! ```

use cxml::cxcluster::Cluster;
use cxml::cxpersist::Options;
use cxml::cxserve::{Client, ClientOptions, ClusterServer, RouterClient, ServerOptions};
use cxml::cxstore::EditOp;
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = std::env::temp_dir().join(format!("cxml-serve-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let dirs: Vec<_> = (0..3).map(|i| base.join(format!("shard-{i}"))).collect();
    let cluster = Arc::new(Cluster::open(dirs, Options::default())?);

    // ── One server for the whole cluster ──────────────────────────────
    let server =
        ClusterServer::bind(Arc::clone(&cluster), "127.0.0.1:0", ServerOptions::default())?;
    println!("cluster server on {}", server.addr());

    let client = Client::connect(server.addr(), ClientOptions::default())?;
    for i in 0..6 {
        let mut ms = corpus::generate(&corpus::Params::sized(60 + 10 * i)).goddag;
        corpus::dtds::attach_standard(&mut ms);
        client.insert_named(format!("ms-{i}"), &ms)?;
    }

    // Gated edits over the wire: same prevalidation gate, same CAS
    // epoch guard the in-process API enforces.
    let ms = client.id_by_name("ms-2")?;
    let epoch = client.epoch(ms)?;
    let out = client.edit_guarded(
        ms,
        epoch,
        EditOp::InsertText { offset: 0, text: "Incipit ".into() },
    )?;
    println!("gated edit on {ms}: epoch {epoch} -> {}", out.epoch);

    // Fan-out query, merged across every shard, over one round trip.
    let per_doc = client.query_all("//w")?;
    let words: usize = per_doc.iter().map(|(_, ns)| ns.len()).sum();
    println!("query_all //w: {} docs, {words} words", per_doc.len());

    // Stand-off export: byte-identical to the server-side document.
    let wire = client.export(ms)?;
    let local = cluster.with_doc(ms, cxml::sacx::export_standoff)?;
    assert_eq!(wire, local);
    println!("stand-off export round-trips byte-identical ({} bytes)", wire.len());

    // ── Shard-scoped servers behind a client-side router ──────────────
    let shard_servers: Vec<ClusterServer> = (0..cluster.shards().len())
        .map(|s| {
            ClusterServer::bind_shard(
                Arc::clone(&cluster),
                cxml::cxcluster::ShardId(s),
                "127.0.0.1:0",
                ServerOptions::default(),
            )
        })
        .collect::<Result<_, _>>()?;
    let addrs: Vec<_> = shard_servers.iter().map(|s| s.addr()).collect();
    let router = RouterClient::connect(&addrs, ClientOptions::default())?;
    println!("router over {} shard endpoints", addrs.len());

    let routed = router.query(ms, "//w")?;
    println!("routed query on {ms}: {} words straight from its shard", routed.len());
    let (hits, refused) = router.query_all_partial("//w", std::time::Duration::from_secs(2))?;
    println!("router fan-out: {} docs, {} shards refused", hits.len(), refused.len());

    // ── End-to-end tracing ────────────────────────────────────────────
    // Flip the process-wide switch, run one guarded edit through the
    // router, and the flight recorder holds one tree spanning every
    // layer: router -> client -> wire -> server handler -> cluster ->
    // shard store -> gate / WAL. The `trace` verb serves it back.
    cxml::cxobs::trace::enable();
    let epoch = router.epoch(ms)?;
    router.edit_guarded(ms, epoch, EditOp::InsertText { offset: 0, text: "Iterum ".into() })?;
    let traced = router
        .shard_client(router.shard_of(ms))
        .traces_recent(16)?
        .into_iter()
        .find(|t| t.root == "router.request")
        .expect("the traced edit is retained");
    println!("\none traced guarded edit, fetched over the wire:");
    print!("{}", router.shard_client(router.shard_of(ms)).trace_tree(traced.trace_id)?);
    cxml::cxobs::trace::disable();

    // ── The metrics page saw everything ───────────────────────────────
    let page = client.metrics()?;
    for line in page.lines().filter(|l| l.starts_with("cx_server_requests_total")) {
        println!("{line}");
    }

    for s in shard_servers {
        s.shutdown();
    }
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&base);
    Ok(())
}
