//! Replication walkthrough: a primary and two TCP followers on
//! localhost — read fan-out, live tailing, primary death, follower
//! promotion.
//!
//! ```sh
//! cargo run --release --example replicated_store
//! ```

use cxml::cxpersist::{DurableStore, Options};
use cxml::cxrepl::{
    Follower, InProcessTransport, Primary, ReplicaStore, TcpReplServer, TcpTransport,
};
use cxml::cxstore::EditOp;
use std::sync::Arc;
use std::time::Duration;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let base = std::env::temp_dir().join(format!("cxml-repl-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // ── A primary with a DTD-gated corpus ─────────────────────────────
    let durable = Arc::new(DurableStore::open_with(base.join("primary"), Options::default())?);
    let mut ms = corpus::generate(&corpus::Params::sized(150)).goddag;
    corpus::dtds::attach_standard(&mut ms);
    let ms = durable.insert_named("boethius", ms)?;
    durable.insert_named("figure-1", corpus::figure1::goddag())?;
    let primary = Arc::new(Primary::new(Arc::clone(&durable)));

    // ── Two followers over TCP on localhost ───────────────────────────
    let server = TcpReplServer::bind(Arc::clone(&primary), "127.0.0.1:0")?;
    println!("log shipping on {}", server.addr());
    let rep_a = Arc::new(ReplicaStore::new());
    let rep_b = Arc::new(ReplicaStore::new());
    let tail_a = Follower::new(Arc::clone(&rep_a), TcpTransport::connect(server.addr())?)
        .spawn(Duration::from_millis(5));
    let tail_b = Follower::new(Arc::clone(&rep_b), TcpTransport::connect(server.addr())?)
        .spawn(Duration::from_millis(5));

    // Primary keeps editing while the followers tail.
    for i in 0..50 {
        durable.edit(ms, EditOp::InsertText { offset: 0, text: format!("w{i} ") })?;
    }
    let words = durable.store().query(ms, "//w")?;
    let (a, _) = durable.store().with_doc(ms, |g| g.char_range(words[0]))?;
    let (_, b) = durable.store().with_doc(ms, |g| g.char_range(words[2]))?;
    durable.edit(
        ms,
        EditOp::InsertElement {
            hierarchy: "ling".into(),
            tag: "phrase".into(),
            attrs: vec![("type".into(), "np".into())],
            start: a,
            end: b,
        },
    )?;

    // Wait for convergence, then fan reads out to the replicas.
    while rep_a.last_applied() < durable.last_lsn() || rep_b.last_applied() < durable.last_lsn() {
        std::thread::sleep(Duration::from_millis(5));
    }
    for (name, rep) in [("follower-a", &rep_a), ("follower-b", &rep_b)] {
        let phrases = rep.store().query(ms, "//phrase")?;
        let s = rep.stats();
        println!(
            "{name}: {} docs, {} phrase hits, {} records applied, lag {}",
            s.docs,
            phrases.len(),
            s.repl_records_applied,
            s.repl_lag
        );
    }
    println!(
        "primary: {} records shipped over {} batches",
        primary.stats().repl_records_shipped,
        primary.batches_shipped()
    );
    let primary_export = durable.store().with_doc(ms, sacx::export_standoff)?;
    let follower_export = rep_a.store().with_doc(ms, sacx::export_standoff)?;
    println!("follower export byte-identical: {}", primary_export == follower_export);

    // ── Kill the primary, promote follower A ──────────────────────────
    drop(rep_a); // promotion requires the replica unshared
    let tail_a = tail_a.stop();
    server.shutdown();
    drop(primary);
    drop(durable);
    println!("primary killed; promoting follower-a at LSN {}", tail_a.last_applied());
    let promoted = Arc::new(tail_a.promote(base.join("promoted"), Options::default())?);
    // The gate survives promotion: undeclared tags still bounce.
    let rejected = promoted.edit(
        ms,
        EditOp::InsertElement {
            hierarchy: "ling".into(),
            tag: "nonsense".into(),
            attrs: vec![],
            start: a,
            end: b,
        },
    );
    println!("promoted gate still armed: {}", rejected.is_err());
    promoted.edit(ms, EditOp::InsertText { offset: 0, text: "post-failover ".into() })?;

    // ── Follower B repoints to the new primary ────────────────────────
    let rep_b = tail_b.stop();
    let new_primary = Arc::new(Primary::new(Arc::clone(&promoted)));
    Follower::new(Arc::clone(&rep_b), InProcessTransport::new(Arc::clone(&new_primary)))
        .catch_up()?;
    println!(
        "follower-b repointed: byte-identical with promoted = {}",
        rep_b.store().with_doc(ms, sacx::export_standoff)?
            == promoted.store().with_doc(ms, sacx::export_standoff)?
    );

    std::fs::remove_dir_all(&base)?;
    Ok(())
}
