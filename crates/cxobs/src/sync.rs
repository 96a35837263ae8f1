//! The workspace's one lock type: leveled, poison-recovering [`Mutex`] and
//! [`RwLock`].
//!
//! Three rules keep the stack's locks sound, and this module holds them:
//!
//! * **Lock order.** Every lock has a [`Level`]; the enum's order is the
//!   one global acquisition order, outermost first. In debug builds every
//!   acquisition is checked *before* it blocks: taking level `L` while the
//!   thread holds any level `≥ L` panics, naming both levels and the held
//!   list. Guards may drop in any order. Every debug test run is thus a
//!   lock-order audit of the paths it drives (Linux's lockdep, reduced to
//!   a total order). In release builds the bookkeeping is zero-sized.
//! * **Poison recovery.** [`Mutex::lock`], [`RwLock::read`] and
//!   [`RwLock::write`] always return the guard. Each [`Level`]'s doc says
//!   why its data is consistent after a holder panicked (`missing_docs` is
//!   denied here, so no lock comes without that argument).
//! * **One lock type.** `clippy.toml` disallows `std::sync::Mutex`,
//!   `std::sync::RwLock` and `PoisonError::into_inner` outside this module.
//!
//! ```
//! use cxobs::sync::{Level, Mutex};
//!
//! static OUTER: Mutex<u32> = Mutex::new(Level::Counters, 0);
//! let inner = Mutex::new(Level::Gauges, 0u32);
//! let a = OUTER.lock();
//! let b = inner.lock(); // Counters < Gauges: in order
//! drop(a); // guards drop in any order
//! drop(b);
//! ```
#![deny(missing_docs)]
#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "cxobs::sync is the one wrapper around the std locks and their poison"
)]

use std::ops::{Deref, DerefMut};
use std::sync::PoisonError;

/// Every production lock, outermost first: a thread may take a lock only
/// while every lock it holds has a lower level. Each variant names one
/// lock (one field or static) and says why a guard recovered from a
/// panicked holder is safe to serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// `cxobs::Scenario`'s process-wide test lock. It guards `()`: it only
    /// serializes scenarios, and `Scenario::setup` resets the failpoint
    /// table and the recorder that a panicked predecessor left.
    Scenario,
    /// `cxcluster::Cluster`'s migration gate: mutators shared, `move_doc`
    /// exclusive. It guards `()`, so a panicked holder (an injected
    /// `Fault::Panic` in a gated write) must not wedge every later writer.
    ClusterGate,
    /// `cxcluster::Cluster`'s name directory, a derived cache of the
    /// shards' durable bindings: every mutation is one insert or remove,
    /// and assembly rebuilds the whole map from the shards on reopen.
    ClusterNames,
    /// `cxcluster::Router`'s override table. Every writer does one insert
    /// or remove or swaps the table whole, and assembly rebuilds it from
    /// the shards.
    RouterOverrides,
    /// `cxrepl::ReplicaStore`'s apply lock, which serializes batches. Each
    /// record applies atomically through the store's edit path, so a panic
    /// mid-batch leaves the replica at a record boundary; the next sync
    /// re-requests from `last_applied` (the torn-batch contract).
    ReplicaApply,
    /// `cxpersist::DurableStore`'s checkpoint gate: mutators shared,
    /// checkpoints exclusive. It guards `()`; it only orders them.
    DurableGate,
    /// One `cxstore` document. A writer can panic only before its op
    /// applies (prevalidation, offset resolution) or after it applied
    /// whole: the `Goddag` mutators return `Err` or complete, so a
    /// recovered guard sees the document at an op boundary.
    Doc,
    /// `cxpersist::DurableStore`'s WAL writer: file handle, LSN and byte
    /// counters, record offsets. A panic while it is held (an injected
    /// `Fault::Panic` at a WAL failpoint) leaves counters that describe
    /// what reached the file, so `Drop` can still flush and `wal_tail`
    /// still ship; reopen re-derives the tail from the bytes themselves.
    Wal,
    /// `cxpersist::DurableStore`'s degradation cause: one whole `String`
    /// store, so a panicked holder cannot leave a torn value.
    DegradedReason,
    /// `cxstore::Store`'s name bindings. Every mutation is one insert,
    /// remove or `retain`, so a recovered map holds only whole bindings.
    StoreNames,
    /// `cxstore::Store`'s document table. Every mutation inserts or
    /// removes one whole `Arc<DocEntry>`.
    StoreDocs,
    /// `cxstore::Store`'s compiled-query cache. Entries are inserted and
    /// evicted whole, and a missing one is only a recompilation.
    StoreQueries,
    /// One document's overlap index, keyed by edit epoch. A half-built
    /// entry fails its epoch check and is rebuilt: at worst a redundant
    /// rebuild, never a wrong answer.
    Index,
    /// `cxserve::Client`'s idle-connection pool. Whole connections are
    /// pushed and popped one at a time.
    ClientIdle,
    /// `cxserve`'s accept queue. The lock guards only `recv_timeout` on a
    /// channel whose state lives in the channel itself.
    ServerQueue,
    /// A `cxrepl` follower's terminal-error slot: single whole `Option`
    /// stores, so a recovered guard reads a coherent error.
    FollowerTerminal,
    /// An [`crate::EventRing`]. Writers push and pop whole events, so a
    /// panicked holder leaves valid, at worst stale, telemetry; refusing
    /// it would hide the incident being diagnosed.
    Events,
    /// A [`crate::Registry`]'s counter family. Registration, the only
    /// writer, inserts one fully built metric per critical section.
    Counters,
    /// A [`crate::Registry`]'s gauge family, argued as [`Level::Counters`].
    Gauges,
    /// A [`crate::Registry`]'s histogram family, argued as
    /// [`Level::Counters`].
    Histograms,
    /// The process-wide trace recorder. Writers append whole frames and
    /// trace records, and a recorder that refused to record after a panic
    /// would lose exactly the trace that matters.
    Recorder,
    /// The process-wide failpoint table: plain counters. `Fault::Panic`
    /// fires after the guard is dropped.
    Failpoints,
}

/// The debug-build lock-order check: the levels this thread holds, in
/// acquisition order. During thread teardown, once this list is gone,
/// acquisitions and releases go unchecked.
#[cfg(debug_assertions)]
mod held {
    use super::Level;
    use std::cell::RefCell;

    thread_local! {
        static HELD: RefCell<Vec<Level>> = const { RefCell::new(Vec::new()) };
    }

    /// The levels this thread holds, outermost first.
    #[cfg(test)]
    pub(super) fn levels() -> Vec<Level> {
        HELD.try_with(|h| h.borrow().clone()).unwrap_or_default()
    }

    /// Record that this thread is about to block on a `level` lock,
    /// panicking first when it already holds that level or a higher one.
    /// While the thread is already unwinding the check only records: a
    /// second panic would abort and lose the first one's message.
    pub(super) fn enter(level: Level) {
        let _ = HELD.try_with(|h| {
            let mut held = h.borrow_mut();
            if let Some(&top) = held.iter().max().filter(|&&top| top >= level) {
                if !std::thread::panicking() {
                    panic!(
                        "lock order violated: acquiring {level:?} while holding {top:?} \
                         (held, outermost first: {held:?})"
                    );
                }
            }
            held.push(level);
        });
    }

    /// Record that this thread released its `level` lock.
    pub(super) fn leave(level: Level) {
        let _ = HELD.try_with(|h| {
            let mut held = h.borrow_mut();
            if let Some(i) = held.iter().rposition(|&l| l == level) {
                held.remove(i);
            }
        });
    }
}

/// A lock's place in the order; zero-sized in release builds.
#[derive(Debug, Clone, Copy)]
struct Order {
    #[cfg(debug_assertions)]
    level: Level,
}

impl Order {
    const fn new(level: Level) -> Order {
        #[cfg(not(debug_assertions))]
        let _ = level;
        Order {
            #[cfg(debug_assertions)]
            level,
        }
    }

    /// Check and record an acquisition of `guard`'s lock before it blocks.
    fn enter<G>(self, guard: impl FnOnce() -> G) -> Guard<G> {
        #[cfg(debug_assertions)]
        held::enter(self.level);
        Guard { inner: guard(), _held: Held(self) }
    }
}

/// A guard's hold on its lock's level, released on drop.
#[derive(Debug)]
struct Held(Order);

impl Drop for Held {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        held::leave(self.0.level);
    }
}

/// Access to a lock's data: one of the std guards, plus its level in debug
/// builds. Releases the lock on drop.
#[derive(Debug)]
#[must_use = "the lock is released as soon as the guard is dropped"]
pub struct Guard<G> {
    inner: G,
    _held: Held,
}

/// Exclusive access to a [`Mutex`]'s data.
pub type MutexGuard<'a, T> = Guard<std::sync::MutexGuard<'a, T>>;
/// Shared access to an [`RwLock`]'s data.
pub type RwLockReadGuard<'a, T> = Guard<std::sync::RwLockReadGuard<'a, T>>;
/// Exclusive access to an [`RwLock`]'s data.
pub type RwLockWriteGuard<'a, T> = Guard<std::sync::RwLockWriteGuard<'a, T>>;

impl<G: Deref> Deref for Guard<G> {
    type Target = G::Target;

    fn deref(&self) -> &G::Target {
        &self.inner
    }
}

impl<G: DerefMut> DerefMut for Guard<G> {
    fn deref_mut(&mut self) -> &mut G::Target {
        &mut self.inner
    }
}

/// A mutual-exclusion lock at a [`Level`] that recovers from poison.
#[derive(Debug)]
pub struct Mutex<T> {
    order: Order,
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// A lock at `level` holding `value`.
    pub const fn new(level: Level, value: T) -> Mutex<T> {
        Mutex { order: Order::new(level), inner: std::sync::Mutex::new(value) }
    }

    /// Block until this thread holds the lock. A guard a panicking holder
    /// abandoned is recovered, data and all (see the lock's [`Level`]).
    /// Panics in debug builds when the thread holds this level or a
    /// higher one.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.order.enter(|| self.inner.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Whether a holder panicked while holding the lock.
    pub fn is_poisoned(&self) -> bool {
        self.inner.is_poisoned()
    }
}

/// A reader-writer lock at a [`Level`] that recovers from poison. A
/// reader counts as holding the level, exactly as a writer does.
#[derive(Debug)]
pub struct RwLock<T> {
    order: Order,
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// A lock at `level` holding `value`.
    pub const fn new(level: Level, value: T) -> RwLock<T> {
        RwLock { order: Order::new(level), inner: std::sync::RwLock::new(value) }
    }

    /// Block until this thread shares the lock; poison is recovered and
    /// the order checked as in [`Mutex::lock`].
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.order.enter(|| self.inner.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Block until this thread holds the lock exclusively; poison is
    /// recovered and the order checked as in [`Mutex::lock`].
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.order.enter(|| self.inner.write().unwrap_or_else(PoisonError::into_inner))
    }
}

// Release builds pay nothing for the order check: each lock and guard is
// exactly its std counterpart.
#[cfg(not(debug_assertions))]
const _: () = {
    use std::mem::size_of;
    assert!(
        size_of::<MutexGuard<'static, u64>>() == size_of::<std::sync::MutexGuard<'static, u64>>()
    );
    assert!(
        size_of::<RwLockReadGuard<'static, u64>>()
            == size_of::<std::sync::RwLockReadGuard<'static, u64>>()
    );
    assert!(
        size_of::<RwLockWriteGuard<'static, u64>>()
            == size_of::<std::sync::RwLockWriteGuard<'static, u64>>()
    );
    assert!(size_of::<Mutex<u64>>() == size_of::<std::sync::Mutex<u64>>());
    assert!(size_of::<RwLock<u64>>() == size_of::<std::sync::RwLock<u64>>());
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn a_poisoned_lock_is_recovered_with_its_data() {
        let m = Arc::new(Mutex::new(Level::Counters, vec![1]));
        let rw = Arc::new(RwLock::new(Level::Events, 10));
        let (m2, rw2) = (Arc::clone(&m), Arc::clone(&rw));
        let panicked = thread::spawn(move || {
            let mut w = rw2.write();
            *w += 1;
            let mut g = m2.lock();
            g.push(2);
            panic!("holder dies with both locks held");
        })
        .join();
        assert!(panicked.is_err());
        assert!(m.is_poisoned());
        assert_eq!(*m.lock(), [1, 2]);
        assert_eq!(*rw.read(), 11);
        *rw.write() += 1;
        assert_eq!(*rw.read(), 12);
    }

    #[test]
    fn a_guard_dropped_during_thread_teardown_does_not_panic() {
        static LATE: Mutex<u32> = Mutex::new(Level::Recorder, 0);
        thread_local! {
            static SLOT: std::cell::RefCell<Option<MutexGuard<'static, u32>>> =
                const { std::cell::RefCell::new(None) };
        }
        thread::spawn(|| {
            let mut g = LATE.lock();
            *g += 1;
            SLOT.with(|s| *s.borrow_mut() = Some(g));
            // The guard drops with `SLOT`, during thread teardown.
        })
        .join()
        .expect("dropping a guard during teardown does not panic");
        assert_eq!(*LATE.lock(), 1);
    }
}

/// The order check, which exists only in debug builds.
#[cfg(all(test, debug_assertions))]
mod order_tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{mpsc, Arc};
    use std::thread;

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce()) -> String {
        let err = catch_unwind(AssertUnwindSafe(f)).expect_err("the acquisition must panic");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn an_inversion_panics_before_it_blocks() {
        let low = Arc::new(Mutex::new(Level::Counters, 1));
        let high = Mutex::new(Level::Gauges, 2);
        // Another thread holds `low` until told to let go: had the check
        // run after blocking, this test would never return.
        let (locked_tx, locked_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let holder = {
            let low = Arc::clone(&low);
            thread::spawn(move || {
                let _g = low.lock();
                locked_tx.send(()).unwrap();
                release_rx.recv().unwrap();
            })
        };
        locked_rx.recv().unwrap();
        let msg = panic_message(|| {
            let _h = high.lock();
            let _l = low.lock();
        });
        assert!(msg.contains("acquiring Counters while holding Gauges"), "{msg}");
        assert!(held::levels().is_empty(), "the unwound guard released its level");
        release_tx.send(()).unwrap();
        holder.join().unwrap();
        // In order, the same pair is fine.
        let _l = low.lock();
        let _h = high.lock();
        assert_eq!(held::levels(), [Level::Counters, Level::Gauges]);
    }

    #[test]
    fn cycle_through_a_call_is_found() {
        struct S {
            alpha: RwLock<u32>,
            beta: Mutex<u32>,
        }
        impl S {
            fn helper(&self) -> u32 {
                *self.beta.lock()
            }
            fn f(&self) -> u32 {
                let a = self.alpha.read();
                *a + self.helper()
            }
        }
        let s = S { alpha: RwLock::new(Level::Index, 1), beta: Mutex::new(Level::Doc, 2) };
        let msg = panic_message(|| {
            s.f();
        });
        assert!(msg.contains("acquiring Doc while holding Index"), "{msg}");
        assert!(msg.contains("[Index]"), "{msg}");
    }

    #[test]
    fn two_locks_of_one_level_nested_panic() {
        let a = RwLock::new(Level::Doc, ());
        let b = RwLock::new(Level::Doc, ());
        let msg = panic_message(|| {
            let _a = a.read();
            let _b = b.read();
        });
        assert!(msg.contains("acquiring Doc while holding Doc"), "{msg}");
    }

    #[test]
    fn guards_dropped_out_of_order_leave_the_held_list_exact() {
        let a = Mutex::new(Level::StoreNames, ());
        let b = RwLock::new(Level::StoreDocs, ());
        let c = Mutex::new(Level::Index, ());
        let ga = a.lock();
        let gb = b.write();
        let gc = c.lock();
        assert_eq!(held::levels(), [Level::StoreNames, Level::StoreDocs, Level::Index]);
        drop(gb);
        assert_eq!(held::levels(), [Level::StoreNames, Level::Index]);
        // `Index` is still held, so re-taking the dropped level is still
        // out of order.
        let msg = panic_message(|| drop(b.read()));
        assert!(msg.contains("acquiring StoreDocs while holding Index"), "{msg}");
        drop(ga);
        assert_eq!(held::levels(), [Level::Index]);
        drop(gc);
        assert!(held::levels().is_empty());
        drop(b.read());
    }
}
