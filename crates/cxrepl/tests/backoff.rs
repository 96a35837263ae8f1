//! Follower pacing under a flaky primary: transient transport faults
//! walk the exponential backoff curve (never the idle poll cadence),
//! recovery is announced and convergence resumes, and an exhausted
//! retry budget parks the loop with a **typed** error while the replica
//! keeps serving its last applied state.

mod common;

use common::TempDir;
use cxobs::fault::{self, Fault, Site, Trigger};
use cxpersist::{DurableStore, FsyncPolicy, Options};
use cxrepl::{
    FaultTransport, Follower, FollowerError, InProcessTransport, Primary, ReplicaStore, RetryPolicy,
};
use cxstore::{EditOp, Store};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn store_exports(store: &Store) -> BTreeMap<u64, String> {
    store
        .doc_ids()
        .into_iter()
        .map(|id| (id.raw(), store.with_doc(id, sacx::export_standoff).unwrap()))
        .collect()
}

fn serving_primary(dir: &TempDir, edits: usize) -> Arc<Primary> {
    let durable = Arc::new(
        DurableStore::open_with(dir.path(), Options { fsync: FsyncPolicy::Never }).unwrap(),
    );
    let id = durable.insert_named("d", corpus::figure1::goddag()).unwrap();
    for i in 0..edits {
        durable.edit(id, EditOp::InsertText { offset: 0, text: format!("x{i} ") }).unwrap();
    }
    Arc::new(Primary::new(durable))
}

#[test]
fn delay_curve_doubles_caps_and_jitters_deterministically() {
    let policy = RetryPolicy {
        poll: Duration::from_millis(5),
        backoff_base: Duration::from_millis(10),
        backoff_max: Duration::from_millis(160),
        jitter: 0.0,
        retry_budget: None,
        seed: 1,
    };
    let mut rng = policy.seed;
    // Jitter off: the pure curve — base, doubled per failure, capped.
    let curve: Vec<u128> = (1..=8).map(|n| policy.delay(n, &mut rng).as_millis()).collect();
    assert_eq!(curve, vec![10, 20, 40, 80, 160, 160, 160, 160]);

    // Jitter on: each delay lands in ((1-j)·d, d], and the seeded stream
    // replays identically.
    let jittered = RetryPolicy { jitter: 0.5, ..policy.clone() };
    let draw = |seed: u64| -> Vec<Duration> {
        let mut rng = seed;
        (1..=8).map(|n| jittered.delay(n, &mut rng)).collect()
    };
    let a = draw(42);
    let mut flat = 0u64;
    for (n, d) in a.iter().enumerate() {
        let full = policy.delay(n as u32 + 1, &mut flat);
        assert!(*d <= full, "retry {}: {d:?} > {full:?}", n + 1);
        assert!(*d >= full.mul_f64(0.5), "retry {}: {d:?} under the jitter floor", n + 1);
    }
    assert_eq!(a, draw(42), "same seed, same delays");
    assert_ne!(a, draw(43), "different seed, different delays");

    // The default curve keeps the documented shape.
    let def = RetryPolicy::new(Duration::from_millis(2));
    assert_eq!(def.backoff_base, Duration::from_millis(2));
    assert_eq!(def.backoff_max, Duration::from_millis(128));
    assert_eq!(def.retry_budget, None);
}

#[test]
fn transient_outage_backs_off_recovers_and_converges() {
    let _fp = cxobs::Scenario::setup();
    let dir = TempDir::new("backoff-transient");
    let primary = serving_primary(&dir, 10);
    let replica = Arc::new(ReplicaStore::new());
    let transport = FaultTransport::new(InProcessTransport::new(Arc::clone(&primary)));

    // Every other fetch on this link fails — a flapping primary, not a
    // dead one.
    fault::configure(Site::ReplFetch, Trigger::EveryN(2), Fault::Io);
    let handle = Follower::new(Arc::clone(&replica), transport).spawn(Duration::from_millis(2));

    // Keep writing through the flapping; the follower must make progress
    // anyway (every other fetch succeeds).
    let durable = primary.durable();
    let id = durable.store().id_by_name("d").unwrap();
    for i in 0..20 {
        durable.edit(id, EditOp::InsertText { offset: 0, text: format!("y{i} ") }).unwrap();
        std::thread::sleep(Duration::from_millis(2));
    }

    // The link heals; the replica converges fully. Wait on the primary's
    // true head, not `lag()` — lag measures against the head the follower
    // last *observed*, which can be stale right after the final edit.
    fault::clear();
    let head = durable.last_lsn();
    let deadline = Instant::now() + Duration::from_secs(10);
    while replica.last_applied() < head && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(replica.last_applied(), head, "replica converged after the faults lifted");
    assert_eq!(replica.lag(), 0);
    assert!(handle.terminal_error().is_none(), "transient faults must never park");

    let kinds: Vec<&str> =
        replica.store().registry().events().recent().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&"follower.backoff"), "{kinds:?}");
    assert!(kinds.contains(&"follower.recovered"), "{kinds:?}");
    assert!(!kinds.contains(&"follower.parked"), "{kinds:?}");

    let replica = handle.stop();
    assert_eq!(store_exports(replica.store()), store_exports(durable.store()));
}

#[test]
fn exhausted_retry_budget_parks_typed_with_replica_still_readable() {
    let _fp = cxobs::Scenario::setup();
    let dir = TempDir::new("backoff-budget");
    let primary = serving_primary(&dir, 5);
    let replica = Arc::new(ReplicaStore::new());
    let mut follower = Follower::new(
        Arc::clone(&replica),
        FaultTransport::new(InProcessTransport::new(Arc::clone(&primary))),
    );
    follower.catch_up().unwrap();
    let applied = store_exports(replica.store());
    assert!(!applied.is_empty());

    // The link goes fully dark; a 3-failure budget must park the loop
    // instead of retrying forever.
    fault::configure(Site::ReplFetch, Trigger::Always, Fault::Io);
    let policy = RetryPolicy::new(Duration::from_millis(1)).with_retry_budget(3);
    let handle = follower.spawn_with(policy);
    let deadline = Instant::now() + Duration::from_secs(5);
    while handle.terminal_error().is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let err = handle.terminal_error().expect("the budget must park the follower");
    assert!(
        matches!(&err, FollowerError::Io { detail } if detail.contains("retry budget (3) exhausted")),
        "{err}"
    );

    // Parked ≠ dead: the replica still serves its last applied state.
    assert_eq!(store_exports(replica.store()), applied);
    let kinds: Vec<&str> =
        replica.store().registry().events().recent().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&"follower.parked"), "{kinds:?}");
    handle.stop();
}
