//! Log-shipping basics: record shipping, snapshot bootstrap, catch-up
//! from arbitrary lag, TCP parity with in-process, promotion, and the
//! divergence/gap refusals.

mod common;

use common::TempDir;
use cxpersist::{DurableStore, FsyncPolicy, Options};
use cxrepl::{
    Follower, InProcessTransport, Primary, ReplError, ReplicaStore, SyncProgress, TcpReplServer,
    TcpTransport,
};
use cxstore::EditOp;
use std::collections::BTreeMap;
use std::sync::Arc;

fn open_primary(dir: &TempDir) -> Arc<Primary> {
    let durable =
        DurableStore::open_with(dir.path(), Options { fsync: FsyncPolicy::Never }).unwrap();
    Arc::new(Primary::new(Arc::new(durable)))
}

/// Stand-off export of every doc, keyed by raw id — the byte-identity
/// currency of all replication tests.
fn exports(store: &cxstore::Store) -> BTreeMap<u64, String> {
    store
        .doc_ids()
        .into_iter()
        .map(|id| (id.raw(), store.with_doc(id, sacx::export_standoff).unwrap()))
        .collect()
}

#[test]
fn records_ship_apply_and_track_lag() {
    let dir = TempDir::new("ship");
    let primary = open_primary(&dir);
    let id = primary.durable().insert_named("ms", corpus::figure1::goddag()).unwrap();
    for i in 0..10 {
        primary
            .durable()
            .edit(id, EditOp::InsertText { offset: 0, text: format!("x{i} ") })
            .unwrap();
    }

    let replica = Arc::new(ReplicaStore::new());
    let mut follower =
        Follower::new(Arc::clone(&replica), InProcessTransport::new(Arc::clone(&primary)));
    let applied = follower.catch_up().unwrap();
    assert_eq!(applied, 11, "one insert + ten edits");
    assert_eq!(replica.last_applied(), primary.durable().last_lsn());
    assert_eq!(replica.lag(), 0);
    assert_eq!(exports(replica.store()), exports(primary.durable().store()));
    assert_eq!(replica.store().id_by_name("ms").unwrap(), id);

    // The shipped/applied counters surface in StoreStats.
    assert_eq!(primary.stats().repl_records_shipped, 11);
    let rs = replica.stats();
    assert_eq!(rs.repl_records_applied, 11);
    assert_eq!(rs.repl_lag, 0);

    // New traffic: the next round ships only the delta, and the replica
    // serves queries over it.
    primary.durable().edit(id, EditOp::InsertText { offset: 0, text: "Δ ".into() }).unwrap();
    assert!(matches!(follower.sync_once().unwrap(), SyncProgress::Applied { records: 1, .. }));
    assert_eq!(exports(replica.store()), exports(primary.durable().store()));
    assert!(!replica.store().query(id, "//ling:w").unwrap().is_empty());
}

#[test]
fn small_batches_converge_in_lsn_order() {
    let dir = TempDir::new("batches");
    let primary = open_primary(&dir);
    let id = primary.durable().insert(corpus::figure1::goddag()).unwrap();
    for i in 0..40 {
        primary
            .durable()
            .edit(id, EditOp::InsertText { offset: 0, text: format!("b{i} ") })
            .unwrap();
    }
    // A tiny byte budget forces many batches (at least one record each).
    let replica = Arc::new(ReplicaStore::new());
    let mut follower =
        Follower::new(Arc::clone(&replica), InProcessTransport::new(Arc::clone(&primary)))
            .with_batch_bytes(1);
    let applied = follower.catch_up().unwrap();
    assert_eq!(applied, 41);
    assert_eq!(exports(replica.store()), exports(primary.durable().store()));
}

#[test]
fn checkpointed_primary_bootstraps_followers_by_snapshot() {
    let dir = TempDir::new("bootstrap");
    let primary = open_primary(&dir);
    let id = primary.durable().insert_named("ms", corpus::figure1::goddag()).unwrap();
    primary.durable().edit(id, EditOp::InsertText { offset: 0, text: "a ".into() }).unwrap();
    primary.durable().checkpoint().unwrap();
    primary.durable().edit(id, EditOp::InsertText { offset: 0, text: "b ".into() }).unwrap();
    // Second checkpoint retires the records both snapshots cover — a
    // fresh follower can no longer replay from LSN 0.
    primary.durable().checkpoint().unwrap();
    primary.durable().edit(id, EditOp::InsertText { offset: 0, text: "c ".into() }).unwrap();

    let replica = Arc::new(ReplicaStore::new());
    let mut follower =
        Follower::new(Arc::clone(&replica), InProcessTransport::new(Arc::clone(&primary)));
    follower.catch_up().unwrap();
    assert_eq!(primary.snapshots_shipped(), 1, "bootstrap went via snapshot");
    assert_eq!(replica.snapshots_installed(), 1);
    assert_eq!(exports(replica.store()), exports(primary.durable().store()));
    assert_eq!(replica.last_applied(), primary.durable().last_lsn());

    // After the bootstrap, deltas ship as records again.
    primary.durable().edit(id, EditOp::InsertText { offset: 0, text: "d ".into() }).unwrap();
    follower.catch_up().unwrap();
    assert_eq!(primary.snapshots_shipped(), 1, "no second snapshot needed");
    assert_eq!(exports(replica.store()), exports(primary.durable().store()));
}

#[test]
fn tcp_transport_matches_in_process() {
    let dir = TempDir::new("tcp");
    let primary = open_primary(&dir);
    let id = primary.durable().insert_named("ms", corpus::figure1::goddag()).unwrap();
    for i in 0..25 {
        primary
            .durable()
            .edit(id, EditOp::InsertText { offset: 0, text: format!("t{i} æ ") })
            .unwrap();
    }
    let server = TcpReplServer::bind(Arc::clone(&primary), "127.0.0.1:0").unwrap();

    // Two followers over TCP, one in-process: all three converge to the
    // same bytes.
    let tcp_a = Arc::new(ReplicaStore::new());
    let tcp_b = Arc::new(ReplicaStore::new());
    let local = Arc::new(ReplicaStore::new());
    Follower::new(Arc::clone(&tcp_a), TcpTransport::connect(server.addr()).unwrap())
        .catch_up()
        .unwrap();
    Follower::new(Arc::clone(&tcp_b), TcpTransport::new(server.addr()))
        .with_batch_bytes(64)
        .catch_up()
        .unwrap();
    Follower::new(Arc::clone(&local), InProcessTransport::new(Arc::clone(&primary)))
        .catch_up()
        .unwrap();
    let want = exports(primary.durable().store());
    assert_eq!(exports(tcp_a.store()), want);
    assert_eq!(exports(tcp_b.store()), want);
    assert_eq!(exports(local.store()), want);

    // A dead server is a transport error, not corruption; the follower
    // resumes against a restarted server on the same state.
    let mut follower = Follower::new(Arc::clone(&tcp_a), TcpTransport::new(server.addr()));
    let addr = server.addr();
    server.shutdown();
    primary.durable().edit(id, EditOp::InsertText { offset: 0, text: "late ".into() }).unwrap();
    assert!(matches!(follower.sync_once(), Err(ReplError::Io(_))));
    let server = TcpReplServer::bind(Arc::clone(&primary), addr).unwrap();
    follower.catch_up().unwrap();
    assert_eq!(exports(tcp_a.store()), exports(primary.durable().store()));
    server.shutdown();
}

#[test]
fn promotion_yields_a_writable_durable_store() {
    let dir = TempDir::new("promote-src");
    let promoted_dir = TempDir::new("promote-dst");
    let primary = open_primary(&dir);
    let mut ms = corpus::generate(&corpus::Params::sized(60));
    corpus::dtds::attach_standard(&mut ms.goddag);
    let id = primary.durable().insert_named("ms", ms.goddag).unwrap();
    for i in 0..12 {
        primary
            .durable()
            .edit(id, EditOp::InsertText { offset: 0, text: format!("p{i} ") })
            .unwrap();
    }

    let replica = Arc::new(ReplicaStore::new());
    Follower::new(Arc::clone(&replica), InProcessTransport::new(Arc::clone(&primary)))
        .catch_up()
        .unwrap();
    let lsn = replica.last_applied();
    let pre_promotion = exports(replica.store());

    // Primary dies; the follower becomes the new writable authority.
    drop(primary);
    let promoted =
        replica.promote(promoted_dir.path(), Options { fsync: FsyncPolicy::EveryOp }).unwrap();
    assert_eq!(promoted.last_lsn(), lsn, "history continues at the applied LSN");
    assert_eq!(exports(promoted.store()), pre_promotion);
    // The promoted store keeps the replica's registry, applied count included.
    assert_eq!(promoted.stats().repl_records_applied, lsn);

    // New edits are gated (DTD still armed) and logged.
    let err = promoted
        .edit(
            id,
            EditOp::InsertElement {
                hierarchy: "ling".into(),
                tag: "nonsense".into(),
                attrs: vec![],
                start: 0,
                end: 3,
            },
        )
        .unwrap_err();
    assert!(matches!(err, cxpersist::PersistError::Store(cxstore::StoreError::EditRejected(_))));
    promoted.edit(id, EditOp::InsertText { offset: 0, text: "after ".into() }).unwrap();
    assert!(promoted.last_lsn() > lsn);

    // The promoted state survives a restart: snapshot + its own WAL.
    let after = exports(promoted.store());
    drop(promoted);
    let reopened = DurableStore::open(promoted_dir.path()).unwrap();
    assert_eq!(exports(reopened.store()), after);
    assert_eq!(reopened.store().id_by_name("ms").unwrap(), id);
}

#[test]
fn promotion_requires_an_unshared_replica() {
    let replica = Arc::new(ReplicaStore::new());
    let extra = Arc::clone(&replica);
    let dir = TempDir::new("promote-shared");
    match replica.promote(dir.path(), Options::default()) {
        Err(ReplError::Protocol(_)) => {}
        Err(other) => panic!("shared replica must refuse promotion, got {other:?}"),
        Ok(_) => panic!("shared replica must refuse promotion"),
    }
    drop(extra);
}

#[test]
fn locally_mutated_replica_detects_divergence() {
    let dir = TempDir::new("diverge");
    let primary = open_primary(&dir);
    let id = primary.durable().insert(corpus::figure1::goddag()).unwrap();
    primary.durable().edit(id, EditOp::InsertText { offset: 0, text: "a ".into() }).unwrap();

    let replica = Arc::new(ReplicaStore::new());
    let mut follower =
        Follower::new(Arc::clone(&replica), InProcessTransport::new(Arc::clone(&primary)));
    follower.catch_up().unwrap();

    // A local write behind the stream's back (the documented misuse of
    // the read surface) desynchronizes the epochs…
    replica.store().edit(id, EditOp::InsertText { offset: 0, text: "rogue ".into() }).unwrap();
    primary.durable().edit(id, EditOp::InsertText { offset: 0, text: "b ".into() }).unwrap();
    // …and the next applied record refuses rather than serving wrong data.
    match follower.sync_once() {
        Err(ReplError::Diverged { .. }) => {}
        other => panic!("expected divergence refusal, got {other:?}"),
    }
}

#[test]
fn background_follower_surfaces_divergence_as_terminal() {
    let dir = TempDir::new("diverge-bg");
    let primary = open_primary(&dir);
    let id = primary.durable().insert(corpus::figure1::goddag()).unwrap();
    let replica = Arc::new(ReplicaStore::new());
    let handle = Follower::new(Arc::clone(&replica), InProcessTransport::new(Arc::clone(&primary)))
        .spawn(std::time::Duration::from_millis(1));
    // Let it converge, then desynchronize the epochs behind its back and
    // publish one more record.
    while replica.last_applied() < primary.durable().last_lsn() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    replica.store().edit(id, EditOp::InsertText { offset: 0, text: "rogue ".into() }).unwrap();
    primary.durable().edit(id, EditOp::InsertText { offset: 0, text: "b ".into() }).unwrap();
    // The loop must park on the divergence (not spin retrying it) and
    // surface it through the handle.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while handle.terminal_error().is_none() {
        assert!(std::time::Instant::now() < deadline, "divergence never surfaced");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    assert!(
        matches!(handle.terminal_error(), Some(cxrepl::FollowerError::Diverged { .. })),
        "{:?}",
        handle.terminal_error()
    );
    let parked_at = replica.last_applied();
    assert!(parked_at < primary.durable().last_lsn(), "the diverged record never applied");
    handle.stop();
}

#[test]
fn split_history_is_terminal_on_both_transports() {
    // A replica that applied past a primary's head holds history that
    // primary never wrote (it outpaced the promoted follower it now
    // points at). That is unhealable: both transports must surface it as
    // `Diverged` — the terminal class the background loop parks on — not
    // as a transient error to retry.
    let dir_ahead = TempDir::new("split-ahead");
    let ahead = open_primary(&dir_ahead);
    let id = ahead.durable().insert(corpus::figure1::goddag()).unwrap();
    for i in 0..5 {
        ahead.durable().edit(id, EditOp::InsertText { offset: 0, text: format!("a{i} ") }).unwrap();
    }
    let replica = Arc::new(ReplicaStore::new());
    Follower::new(Arc::clone(&replica), InProcessTransport::new(Arc::clone(&ahead)))
        .catch_up()
        .unwrap();

    let dir_behind = TempDir::new("split-behind");
    let behind = open_primary(&dir_behind);
    behind.durable().insert(corpus::figure1::goddag()).unwrap();
    assert!(behind.durable().last_lsn() < replica.last_applied());

    let mut inproc =
        Follower::new(Arc::clone(&replica), InProcessTransport::new(Arc::clone(&behind)));
    assert!(matches!(inproc.sync_once(), Err(ReplError::Diverged { .. })));

    let server = TcpReplServer::bind(Arc::clone(&behind), "127.0.0.1:0").unwrap();
    let mut tcp =
        Follower::new(Arc::clone(&replica), TcpTransport::connect(server.addr()).unwrap());
    assert!(matches!(tcp.sync_once(), Err(ReplError::Diverged { .. })));
    server.shutdown();
}

#[test]
fn stream_gaps_are_refused() {
    let replica = ReplicaStore::new();
    // Hand-build a batch that skips LSN 1: records 2 and 3 only.
    let mut bytes = Vec::new();
    for lsn in [2u64, 3] {
        bytes.extend_from_slice(
            cxpersist::encode_record(
                lsn,
                &cxpersist::WalOp::DocRemove { doc: cxstore::DocId::from_raw(lsn) },
            )
            .as_bytes(),
        );
    }
    match replica.apply_batch(&bytes) {
        Err(ReplError::Gap { expected: 1, got: 2 }) => {}
        other => panic!("expected gap refusal, got {other:?}"),
    }
}
