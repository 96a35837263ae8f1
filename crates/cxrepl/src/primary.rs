//! The shipping side: a [`DurableStore`] whose WAL is served to followers.

use crate::error::{ReplError, Result};
use crate::transport::FetchResponse;
use cxobs::{names, Counter, Exposition, Histogram, Observable};
use cxpersist::{DurableStore, TailShipment};
use cxstore::StoreStats;
use std::sync::Arc;

/// A replication primary: wraps a [`DurableStore`] and answers follower
/// fetches from its WAL — record batches for followers within the
/// retained log, a full [`cxpersist::StoreSnapshot`] bootstrap for
/// followers behind the retention floor. The primary keeps serving writes
/// throughout; shipping is asynchronous and stays off the edit path — a
/// fetch holds the WAL mutex only to fsync whatever is pending (shipping
/// implies durability) and reads + slices the log file outside it; a
/// snapshot capture drains mutators exactly like a checkpoint.
pub struct Primary {
    durable: Arc<DurableStore>,
    // The shipping metrics, registered on the durable store's registry so
    // the whole shard exposes as one page.
    /// One `handle_fetch` round trip.
    ship_ns: Arc<Histogram>,
    records_shipped: Arc<Counter>,
    batches_shipped: Arc<Counter>,
    snapshots_shipped: Arc<Counter>,
}

impl Primary {
    /// Serve `durable`'s log.
    pub fn new(durable: Arc<DurableStore>) -> Primary {
        let r = durable.registry();
        Primary {
            ship_ns: r.histogram(names::REPL_SHIP_NS),
            records_shipped: r.counter(names::REPL_RECORDS_SHIPPED_TOTAL),
            batches_shipped: r.counter(names::REPL_BATCHES_SHIPPED_TOTAL),
            snapshots_shipped: r.counter(names::REPL_SNAPSHOTS_SHIPPED_TOTAL),
            durable,
        }
    }

    /// The wrapped durable store (writes and reads go through it as
    /// usual; replication only observes the WAL).
    pub fn durable(&self) -> &Arc<DurableStore> {
        &self.durable
    }

    /// Answer one follower fetch: records after `after` (capped near
    /// `max_bytes`), a snapshot when the records were retired, or
    /// caught-up. A follower claiming an LSN beyond this log's head is a
    /// **split history** — it applied records from a primary whose writes
    /// this one never had (e.g. it outpaced the promoted follower it now
    /// points at) — and fails with [`crate::ReplError::Diverged`], which
    /// transports preserve so the follower's loop parks instead of
    /// retrying an unhealable stream.
    pub fn handle_fetch(&self, after: u64, max_bytes: usize) -> Result<FetchResponse> {
        let _span = self.ship_ns.span();
        let head = self.durable.wal_position().lsn;
        if after > head {
            let detail = format!(
                "follower claims LSN {after}, but this primary's log ends at {head} — \
                 split history; re-bootstrap the follower"
            );
            self.durable.registry().event("repl.error", detail.clone());
            return Err(ReplError::Diverged { detail });
        }
        match self.durable.wal_tail(after, max_bytes)? {
            TailShipment::CaughtUp => Ok(FetchResponse::CaughtUp { head: after }),
            TailShipment::Records { first, last, bytes } => {
                self.records_shipped.add(last - first + 1);
                self.batches_shipped.bump();
                Ok(FetchResponse::Records { head: self.durable.wal_position().lsn, bytes })
            }
            TailShipment::SnapshotNeeded => {
                let snap = self.durable.capture_snapshot()?;
                self.snapshots_shipped.bump();
                self.durable.registry().event(
                    "snapshot.ship",
                    format!("bootstrap at lsn {} (after {after})", snap.lsn),
                );
                Ok(FetchResponse::Snapshot { head: snap.lsn, bytes: snap.to_text().into_bytes() })
            }
        }
    }

    /// Snapshot bootstraps served so far.
    pub fn snapshots_shipped(&self) -> u64 {
        self.snapshots_shipped.get()
    }

    /// Record batches served so far.
    pub fn batches_shipped(&self) -> u64 {
        self.batches_shipped.get()
    }

    /// [`DurableStore::stats`], shipping counters included (they live on
    /// the shard's registry).
    pub fn stats(&self) -> StoreStats {
        self.durable.stats()
    }
}

impl Observable for Primary {
    /// The shard's page: store, durability and shipping share one registry.
    fn expose_into(&self, out: &mut Exposition) {
        self.durable.expose_into(out);
    }
}
