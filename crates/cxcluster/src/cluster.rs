//! The cluster: N durable primaries behind one store-shaped façade.

use crate::error::{ClusterError, Result};
use crate::router::{Router, ShardId};
use cxobs::fault::{self, Site};
use cxobs::sync::{Level, RwLock};
use cxobs::{names, trace, Counter, Exposition, Gauge, Histogram, Observable, Registry};
use cxpersist::{CheckpointInfo, Claim, DocBlob, DurableStore, LoggedDoc, Options, StoreHealth};
use cxrepl::Primary;
use cxstore::{DocId, EditOp, EditOutcome, StoreError, StoreStats};
use goddag::Goddag;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One shard's health as the cluster sees it.
///
/// `Healthy` and `Degraded` are *derived* — they mirror the shard's own
/// [`StoreHealth`] (a degraded store still serves reads, so the cluster
/// keeps fanning out to it). `Down` is an *explicit mark* set by
/// [`Cluster::mark_shard_down`]: the operator (or an external health
/// check) has declared the shard unreachable, and the cluster fails
/// writes to it fast and leaves it out of every fan-out instead of
/// discovering the outage one timeout at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardHealth {
    /// Serving reads and writes.
    Healthy,
    /// The shard's store is read-only ([`StoreHealth::Degraded`]): reads
    /// and fan-out queries still run, writes are refused by the store.
    Degraded,
    /// Marked unreachable: writes fail fast with
    /// [`ClusterError::ShardDown`], and every fan-out — in-process, a
    /// shard-scoped server's, a router's — reports it as a `ShardDown`
    /// miss without reading it, so [`Cluster::query_all`] refuses.
    /// Per-document reads that route there still try.
    Down,
}

/// One shard's failure inside a partial fan-out: which shard, and why
/// its documents are missing from [`PartialResults::hits`].
#[derive(Debug)]
pub struct ShardError {
    /// The shard that failed to answer.
    pub shard: usize,
    /// Why ([`ClusterError::ShardDown`], [`ClusterError::Timeout`],
    /// [`ClusterError::ShardUnavailable`], or a store error).
    pub error: ClusterError,
}

/// What [`Cluster::query_all_partial`] returns: every hit from every
/// shard that answered in time, plus an explicit error per shard that
/// did not — the caller always learns *which* documents it might be
/// missing, never silently.
#[derive(Debug)]
pub struct PartialResults {
    /// Merged, id-sorted hits from the shards that answered.
    pub hits: Vec<(DocId, Vec<goddag::NodeId>)>,
    /// One entry per shard that was down, errored, or timed out.
    pub errors: Vec<ShardError>,
}

impl PartialResults {
    /// True when every shard answered — the hits are the complete
    /// cluster-wide result set.
    pub fn is_complete(&self) -> bool {
        self.errors.is_empty()
    }

    /// The all-or-nothing view: the hits when every shard answered,
    /// otherwise the first missing shard's error (errors are in shard
    /// order).
    pub fn into_result(self) -> Result<Vec<(DocId, Vec<goddag::NodeId>)>> {
        match self.errors.into_iter().next() {
            None => Ok(self.hits),
            Some(e) => Err(e.error),
        }
    }
}

/// A write-sharded cluster of [`DurableStore`] primaries.
///
/// Each document is **owned by exactly one shard** — the partitioned-
/// ownership design, not conflict resolution — so the prevalidation gate
/// and the per-document WAL epoch chain are exactly as strong as on a
/// single primary: every gated edit runs on the one store that holds the
/// document, under its write lock, logged to that shard's WAL.
///
/// * **Routing** is deterministic ([`Router`]): inserts mint ids from
///   per-shard residue classes, so `raw % n` finds every unmoved document
///   without a table; moved documents carry an override entry.
/// * **Names** get a cluster-level directory so [`Cluster::id_by_name`] /
///   [`Cluster::remove_named`] route correctly; the authoritative bindings
///   live durably on the owning shard (and move with the document).
/// * **Reads** ([`Cluster::query`], [`Cluster::with_doc`], …) never block
///   on rebalancing: they route, and if the document moved underneath them
///   they re-route — mid-migration the document is reachable on exactly
///   one side of the swap at all times.
/// * **Writes** hold a shared **migration gate**. A document enters
///   through [`Cluster::admit`] (which [`Cluster::insert`] and
///   [`Cluster::insert_named`] call) and every edit through one routed
///   body. [`Cluster::move_doc`] holds the gate exclusively while it
///   captures the document ([`DocBlob`] + epoch, under the doc lock),
///   lands it durably on the target under its own id
///   ([`DurableStore::admit`] — the commit point), swaps the routing
///   entry and tombstones the source. A crash at any step leaves the
///   document recoverable on at least one shard with identical bytes;
///   [`Cluster::assemble`] resolves a both-sides residue deterministically.
/// * **Fan-out** has one body, [`Cluster::query_all_partial`]: a detached
///   worker per shard not marked down, each under the caller's budget,
///   merged by id — deterministic because each shard contributes only the
///   documents the route says it owns ([`Cluster::query_shard`]) and ids
///   are unique. [`Cluster::query_all`] is that fan-out with no deadline
///   and no miss allowed. Listings ([`Cluster::doc_ids`], stats) read the
///   shards in turn.
pub struct Cluster {
    shards: Vec<Arc<DurableStore>>,
    /// Lazily-built `cxrepl` shipping endpoints, one per shard, so each
    /// primary can front its own replica set.
    primaries: Vec<OnceLock<Arc<Primary>>>,
    router: Router,
    /// The cluster-level name directory (`name → owning document`).
    names: RwLock<HashMap<String, DocId>>,
    /// Migration gate: mutators shared, `move_doc` exclusive. Reads do not
    /// take it.
    gate: RwLock<()>,
    /// Round-robin cursor for placing new documents.
    next_insert: AtomicU64,
    /// Explicit per-shard down marks (see [`ShardHealth::Down`]). A set
    /// flag makes writes to that shard fail fast and fan-out skip it;
    /// reads that route there still try (the store may well answer).
    down: Vec<AtomicBool>,
    /// Cluster-level metrics (the shards each have their own registry;
    /// this one holds what only the cluster can see: shard count,
    /// queueing and migration).
    obs: Arc<Registry>,
    /// Writes currently executing against shard `i` —
    /// `cx_shard_writes_in_flight{shard="i"}`.
    shard_inflight: Vec<Arc<Gauge>>,
    /// Writers currently blocked on (or entering) the migration gate.
    gate_waiters: Arc<Gauge>,
    /// Live fan-out worker threads across batch queries.
    fanout_threads: Arc<Gauge>,
    /// One whole `move_doc` (capture → receive → swap → tombstone).
    move_doc_ns: Arc<Histogram>,
    /// Documents moved between shards since assembly.
    docs_moved: Arc<Counter>,
    /// `cx_shard_health{shard="i"}`: 0 healthy, 1 degraded, 2 down —
    /// refreshed on every health transition and on exposition.
    health_gauges: Vec<Arc<Gauge>>,
}

/// One batch-query result set: per-document node hits, keyed by handle.
type BatchHits = Vec<(DocId, Vec<goddag::NodeId>)>;

/// A shard's health: its explicit down mark if set, otherwise the
/// store's own [`StoreHealth`].
fn health(store: &DurableStore, down: &AtomicBool) -> ShardHealth {
    if down.load(Ordering::Acquire) {
        return ShardHealth::Down;
    }
    match store.health() {
        StoreHealth::Healthy => ShardHealth::Healthy,
        StoreHealth::Degraded => ShardHealth::Degraded,
    }
}

impl Cluster {
    // ------------------------------------------------------------------
    // Lifecycle
    // ------------------------------------------------------------------

    /// Build a cluster over already-open primaries.
    ///
    /// Assembly derives all cluster state from the shards themselves (no
    /// separate routing artifact exists to go stale): the override table
    /// from where documents actually live, the name directory from the
    /// shards' durable bindings. A document found on **two** shards is the
    /// residue of a migration that crashed between the target's durable
    /// insert and the source's tombstone — both copies are byte-identical
    /// (the migration gate kept writers out) — and is resolved
    /// deterministically: the higher edit epoch wins; on the inevitable
    /// tie, the copy *off* its home shard (the migration's commit side).
    /// The winner absorbs any name bindings the loser still held, the
    /// loser is removed durably.
    pub fn assemble(shards: Vec<Arc<DurableStore>>) -> Result<Cluster> {
        if shards.is_empty() {
            return Err(ClusterError::Config("a cluster needs at least one shard".into()));
        }
        let router = Router::new(shards.len());

        // Where does every document live?
        let mut holders: HashMap<u64, Vec<usize>> = HashMap::new();
        for (s, shard) in shards.iter().enumerate() {
            for id in shard.store().doc_ids() {
                holders.entry(id.raw()).or_default().push(s);
            }
        }

        for (&raw, held) in &holders {
            let id = DocId::from_raw(raw);
            let winner = if held.len() == 1 {
                held[0]
            } else {
                // Crashed migration: pick the winner, heal its names from
                // every copy, drop the losers.
                let home = router.home_shard(id).0;
                let Some(&winner) = held.iter().max_by_key(|&&s| {
                    let epoch = shards[s].store().epoch(id).unwrap_or(0);
                    (epoch, s != home, s)
                }) else {
                    continue; // no shard holds it: nothing to resolve
                };
                let winner_names: Vec<String> = doc_names(&shards[winner], id);
                for &s in held {
                    if s == winner {
                        continue;
                    }
                    for name in doc_names(&shards[s], id) {
                        if !winner_names.contains(&name) {
                            shards[winner].bind_name(name, id)?;
                        }
                    }
                    shards[s].remove(id)?;
                }
                winner
            };
            if winner != router.home_shard(id).0 {
                router.route(id, ShardId(winner));
            }
        }

        // The name directory: union of the shards' bindings. A name bound
        // on two shards (a cross-shard rebind that crashed between the new
        // bind and the old unbind — or hand-assembled shards) resolves to
        // the lowest shard deterministically; the other bindings are
        // retired durably so the conflict cannot resurface.
        let mut names: HashMap<String, DocId> = HashMap::new();
        for shard in &shards {
            for (name, id) in shard.store().name_bindings() {
                match names.entry(name) {
                    Entry::Occupied(e) => {
                        // The lowest shard won; retire this binding.
                        shard.unbind_name(e.key())?;
                    }
                    Entry::Vacant(v) => {
                        v.insert(id);
                    }
                }
            }
        }

        let primaries = shards.iter().map(|_| OnceLock::new()).collect();
        let obs = Arc::new(Registry::new());
        let shard_inflight = (0..shards.len())
            .map(|i| obs.gauge_with(names::SHARD_WRITES_IN_FLIGHT, &[("shard", &i.to_string())]))
            .collect();
        let gate_waiters = obs.gauge(names::GATE_WAITERS);
        let fanout_threads = obs.gauge(names::FANOUT_THREADS);
        let move_doc_ns = obs.histogram(names::MOVE_DOC_NS);
        let docs_moved = obs.counter(names::DOCS_MOVED_TOTAL);
        obs.gauge(names::CLUSTER_SHARDS).set(shards.len() as i64);
        let down = (0..shards.len()).map(|_| AtomicBool::new(false)).collect();
        let health_gauges = (0..shards.len())
            .map(|i| obs.gauge_with(names::SHARD_HEALTH, &[("shard", &i.to_string())]))
            .collect();
        Ok(Cluster {
            shards,
            primaries,
            router,
            names: RwLock::new(Level::ClusterNames, names),
            gate: RwLock::new(Level::ClusterGate, ()),
            next_insert: AtomicU64::new(0),
            down,
            obs,
            shard_inflight,
            gate_waiters,
            fanout_threads,
            move_doc_ns,
            docs_moved,
            health_gauges,
        })
    }

    /// Open (or create) one [`DurableStore`] per directory and assemble
    /// them. Shard identity is positional: reopen a cluster with its
    /// directories in the same order.
    pub fn open<I>(dirs: I, options: Options) -> Result<Cluster>
    where
        I: IntoIterator,
        I::Item: Into<PathBuf>,
    {
        let mut shards = Vec::new();
        for dir in dirs {
            shards.push(Arc::new(DurableStore::open_with(dir, options.clone())?));
        }
        Cluster::assemble(shards)
    }

    // ------------------------------------------------------------------
    // Topology
    // ------------------------------------------------------------------

    /// Number of primaries.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The primaries, by shard index.
    pub fn shards(&self) -> &[Arc<DurableStore>] {
        &self.shards
    }

    /// One primary's durable store.
    pub fn shard(&self, shard: ShardId) -> Result<&Arc<DurableStore>> {
        self.shards.get(shard.0).ok_or(ClusterError::NoSuchShard(shard.0))
    }

    /// Where a document lives right now.
    pub fn shard_of(&self, id: DocId) -> ShardId {
        self.router.shard_of(id)
    }

    /// The routing table (see [`Router`]).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// The shard's `cxrepl` shipping endpoint, created on first use — wire
    /// per-shard followers with
    /// `Follower::new(replica, InProcessTransport::new(cluster.primary(s)?))`
    /// or serve it over a `TcpReplServer`. Each shard replicates its own
    /// WAL independently; a follower of shard `s` converges to exactly the
    /// documents `s` owns.
    pub fn primary(&self, shard: ShardId) -> Result<Arc<Primary>> {
        let durable = self.shard(shard)?;
        Ok(Arc::clone(
            self.primaries[shard.0].get_or_init(|| Arc::new(Primary::new(Arc::clone(durable)))),
        ))
    }

    // ------------------------------------------------------------------
    // Health
    // ------------------------------------------------------------------

    /// One shard's health: the explicit down mark if set, otherwise the
    /// shard's own [`StoreHealth`].
    pub fn shard_health(&self, shard: ShardId) -> Result<ShardHealth> {
        Ok(health(self.shard(shard)?, &self.down[shard.0]))
    }

    /// Mark a shard **down**: writes routed to it fail fast with
    /// [`ClusterError::ShardDown`] (nothing reaches its WAL), new
    /// documents place elsewhere, and every fan-out skips it with an
    /// explicit `ShardDown` entry (so [`Cluster::query_all`] refuses).
    /// Per-document reads that route there still try — an
    /// operator marking a flaky shard down should not black-hole
    /// documents that are, in fact, still readable. Idempotent.
    pub fn mark_shard_down(&self, shard: ShardId) -> Result<()> {
        self.shard(shard)?;
        if !self.down[shard.0].swap(true, Ordering::AcqRel) {
            self.obs.event("shard.down", format!("shard {} marked down", shard.0));
        }
        self.refresh_health_gauge(shard.0);
        Ok(())
    }

    /// Bring a shard back: clear its down mark and, if its store
    /// degraded (WAL append/fsync failure), re-probe the disk via
    /// [`DurableStore::heal`]. Returns the shard's health afterwards —
    /// [`ShardHealth::Healthy`] on success; an `Err` means the re-probe
    /// failed and the shard stays degraded (the down mark is still
    /// cleared: reads are fine, and the caller can retry the heal).
    pub fn heal_shard(&self, shard: ShardId) -> Result<ShardHealth> {
        let store = Arc::clone(self.shard(shard)?);
        if self.down[shard.0].swap(false, Ordering::AcqRel) {
            self.obs.event("shard.up", format!("shard {} down mark cleared", shard.0));
        }
        let healed = store.heal();
        self.refresh_health_gauge(shard.0);
        match healed {
            Ok(_) => {
                self.obs.event("shard.healed", format!("shard {} healthy", shard.0));
                Ok(ShardHealth::Healthy)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Fail fast when the shard a write routed to is marked down.
    fn ensure_shard_up(&self, s: usize) -> Result<()> {
        if self.down[s].load(Ordering::Acquire) {
            return Err(ClusterError::ShardDown(s));
        }
        Ok(())
    }

    /// Re-derive `cx_shard_health{shard=s}` from the current state.
    fn refresh_health_gauge(&self, s: usize) {
        let v = if self.down[s].load(Ordering::Acquire) {
            2
        } else {
            match self.shards[s].health() {
                StoreHealth::Healthy => 0,
                StoreHealth::Degraded => 1,
            }
        };
        self.health_gauges[s].set(v);
    }

    // ------------------------------------------------------------------
    // Registry
    // ------------------------------------------------------------------

    /// Add a document, placing it round-robin across the healthy shards;
    /// see [`Cluster::admit`].
    pub fn insert(&self, g: Goddag) -> Result<DocId> {
        self.admit(None, None, LoggedDoc::capture(g))
    }

    /// Add a document under a name, placed round-robin; see
    /// [`Cluster::admit`].
    pub fn insert_named(&self, name: impl Into<String>, g: Goddag) -> Result<DocId> {
        self.admit(None, Some(name.into()), LoggedDoc::capture(g))
    }

    /// Add a document — the one way in. `shard: None` places it
    /// round-robin over the shards that can take a write (marked down or
    /// degraded ones are skipped); `Some(s)` puts it on `s`, the insert
    /// path of a shard-scoped server whose client already chose the host.
    /// The minted id is congruent to the owning shard's index, so routing
    /// it needs no table entry. A `name` replaces any previous cluster-wide
    /// binding of it; a binding on another shard is unbound there first,
    /// so a crash mid-rebind leaves the name unbound, never split between
    /// shards.
    pub fn admit(
        &self,
        shard: Option<ShardId>,
        name: Option<String>,
        doc: LoggedDoc,
    ) -> Result<DocId> {
        let waiting = self.gate_waiters.track();
        let _shared = self.gate.read();
        drop(waiting);
        let s = match shard {
            Some(s) => {
                self.shard(s)?;
                self.ensure_shard_up(s.0)?;
                s
            }
            None => self.place()?,
        };
        let _inflight = self.shard_inflight[s.0].track();
        let claim = Claim::Residue { modulus: self.shards.len() as u64, residue: s.0 as u64 };
        let store = &self.shards[s.0];
        match name {
            None => Ok(store.admit(claim, doc, &[])?),
            Some(name) => self.bind_directory(name, s, |name| store.admit(claim, doc, &[name])),
        }
    }

    /// Pick the next insert's shard.
    ///
    /// Round-robin over the **healthy** shards: a shard that is marked
    /// down or whose store degraded is skipped — the minted id keeps its
    /// chosen shard's residue, so a document placed "out of turn" still
    /// routes with no table entry. Errors only when no shard can take a
    /// write at all.
    fn place(&self) -> Result<ShardId> {
        let n = self.shards.len();
        for _ in 0..n {
            let s = (self.next_insert.fetch_add(1, Ordering::Relaxed) % n as u64) as usize;
            if self.down[s].load(Ordering::Acquire)
                || self.shards[s].health() == StoreHealth::Degraded
            {
                continue;
            }
            return Ok(ShardId(s));
        }
        Err(ClusterError::Config("no healthy shard can accept new documents".into()))
    }

    /// Bind `name` on `target` through `bind` (which returns the bound
    /// document) and record it in the directory. A binding another shard
    /// holds is durably unbound there first, so a crash mid-rebind leaves
    /// the name unbound, never split between shards; if `bind` then fails,
    /// the retired entry leaves the directory too — the durable state has
    /// the name unbound, and an entry kept here would resolve until the
    /// next restart, then vanish.
    fn bind_directory(
        &self,
        name: String,
        target: ShardId,
        bind: impl FnOnce(String) -> cxpersist::Result<DocId>,
    ) -> Result<DocId> {
        let mut names = self.names.write();
        let holder = names.get(&name).map(|&old| self.router.shard_of(old));
        let retired = match holder {
            Some(old) if old != target => {
                self.shards[old.0].unbind_name(&name)?;
                true
            }
            _ => false,
        };
        match bind(name.clone()) {
            Ok(id) => {
                names.insert(name, id);
                Ok(id)
            }
            Err(e) => {
                if retired {
                    names.remove(&name);
                }
                Err(e.into())
            }
        }
    }

    /// Bind (or rebind) a name to a live document, durably on its owning
    /// shard.
    pub fn bind_name(&self, name: impl Into<String>, id: DocId) -> Result<()> {
        let waiting = self.gate_waiters.track();
        let _shared = self.gate.read();
        drop(waiting);
        let target = self.router.shard_of(id);
        self.ensure_shard_up(target.0)?;
        let store = &self.shards[target.0];
        if !store.store().contains(id) {
            return Err(ClusterError::Store(StoreError::NoSuchDoc(id)));
        }
        self.bind_directory(name.into(), target, |name| store.bind_name(name, id).map(|()| id))?;
        Ok(())
    }

    /// Drop a name binding (the document stays). Returns what it was bound
    /// to.
    pub fn unbind_name(&self, name: &str) -> Result<Option<DocId>> {
        let waiting = self.gate_waiters.track();
        let _shared = self.gate.read();
        drop(waiting);
        let mut names = self.names.write();
        let Some(&id) = names.get(name) else { return Ok(None) };
        let s = self.router.shard_of(id).0;
        self.ensure_shard_up(s)?;
        self.shards[s].unbind_name(name)?;
        names.remove(name);
        Ok(Some(id))
    }

    /// Resolve a name to its document, wherever it lives.
    pub fn id_by_name(&self, name: &str) -> Result<DocId> {
        self.names
            .read()
            .get(name)
            .copied()
            .ok_or_else(|| StoreError::NoSuchName(name.into()).into())
    }

    /// All cluster-wide `name → id` bindings, sorted by name.
    pub fn name_bindings(&self) -> Vec<(String, DocId)> {
        let mut out: Vec<(String, DocId)> =
            self.names.read().iter().map(|(n, id)| (n.clone(), *id)).collect();
        out.sort();
        out
    }

    /// Drop a document (and all of its name bindings), durably, wherever
    /// it lives. Returns whether the handle was live.
    pub fn remove(&self, id: DocId) -> Result<bool> {
        let waiting = self.gate_waiters.track();
        let _shared = self.gate.read();
        drop(waiting);
        let mut names = self.names.write();
        let s = self.router.shard_of(id).0;
        self.ensure_shard_up(s)?;
        let _inflight = self.shard_inflight[s].track();
        let removed = self.shards[s].remove(id)?;
        if removed {
            names.retain(|_, v| *v != id);
            self.router.forget(id);
        }
        Ok(removed)
    }

    /// Resolve a name and drop that document.
    pub fn remove_named(&self, name: &str) -> Result<DocId> {
        let id = self.id_by_name(name)?;
        self.remove(id)?;
        Ok(id)
    }

    /// Whether the handle names a live document on any shard.
    pub fn contains(&self, id: DocId) -> bool {
        loop {
            let s = self.router.shard_of(id);
            if self.shards[s.0].store().contains(id) {
                return true;
            }
            if self.router.shard_of(id) == s {
                return false;
            }
            // Moved while we looked: re-route.
        }
    }

    /// Total live documents.
    pub fn len(&self) -> usize {
        self.doc_ids().len()
    }

    /// True when no shard holds a document.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All live handles across the cluster, sorted (= insertion order by
    /// id; round-robin placement interleaves the shards).
    pub fn doc_ids(&self) -> Vec<DocId> {
        let _shared = self.gate.read();
        let mut out = Vec::new();
        for (s, shard) in self.shards.iter().enumerate() {
            out.extend(shard.store().doc_ids().into_iter().filter(|&id| self.owns(ShardId(s), id)));
        }
        out.sort_unstable();
        out
    }

    /// Whether `shard`'s copy of `id` is the one that counts: the route
    /// names `shard`. A migration that fails part-way can leave a second
    /// copy in a shard's memory (equal to its WAL) until the next
    /// [`Cluster::assemble`] drops it; every listing and fan-out keeps
    /// only the routed copy, as the routed reads do, so no document is
    /// reported twice.
    fn owns(&self, shard: ShardId, id: DocId) -> bool {
        self.router.shard_of(id) == shard
    }

    // ------------------------------------------------------------------
    // Reads (never blocked by rebalancing)
    // ------------------------------------------------------------------

    /// Run a closure against a document under its read lock, wherever it
    /// lives. `Fn` rather than `FnOnce`: if the document migrates between
    /// routing and the shard read, the read re-routes and runs again — a
    /// reader sees the document on exactly one side of a move, never on
    /// neither.
    pub fn with_doc<R>(&self, id: DocId, f: impl Fn(&Goddag) -> R) -> Result<R> {
        self.routed_read(id, |shard| shard.store().with_doc(id, &f))
    }

    /// Evaluate a node-set expression against one document.
    pub fn query(&self, id: DocId, expr: &str) -> Result<Vec<goddag::NodeId>> {
        let trace = trace::span("cluster.query");
        trace.attr("doc", id.raw());
        self.routed_read(id, |shard| shard.store().query(id, expr))
    }

    /// A document's current edit epoch.
    pub fn epoch(&self, id: DocId) -> Result<u64> {
        self.routed_read(id, |shard| shard.store().epoch(id))
    }

    /// Editor tag suggestions, served from the owning shard's cached
    /// prevalidation engine.
    pub fn suggest_tags(
        &self,
        id: DocId,
        hierarchy: &str,
        start: usize,
        end: usize,
    ) -> Result<Vec<String>> {
        self.routed_read(id, |shard| shard.store().suggest_tags(id, hierarchy, start, end))
    }

    /// The routed-read retry loop: route, read, and if the document is
    /// gone *because the route changed underneath us*, re-route. A
    /// document that is gone with a stable route is genuinely gone.
    fn routed_read<R>(
        &self,
        id: DocId,
        read: impl Fn(&Arc<DurableStore>) -> cxstore::Result<R>,
    ) -> Result<R> {
        loop {
            let s = self.router.shard_of(id);
            match read(&self.shards[s.0]) {
                Ok(r) => return Ok(r),
                Err(StoreError::NoSuchDoc(_)) if self.router.shard_of(id) != s => continue,
                Err(e) => return Err(ClusterError::Store(e)),
            }
        }
    }

    /// Evaluate a node-set expression against **every** document,
    /// all-or-nothing: [`Cluster::query_all_partial`] with no deadline,
    /// refused with the first missing shard's error (in shard order). A
    /// shard marked down is [`ClusterError::ShardDown`] here as on every
    /// other fan-out path.
    pub fn query_all(&self, expr: &str) -> Result<Vec<(DocId, Vec<goddag::NodeId>)>> {
        self.query_all_partial(expr, Duration::MAX).into_result()
    }

    /// One shard's part of a fan-out — what a shard-scoped server answers,
    /// and the step every fan-out worker takes: a shard marked down is
    /// [`ClusterError::ShardDown`], an armed [`Site::ClusterShardQuery`]
    /// is [`ClusterError::ShardUnavailable`], otherwise the shard's hits
    /// for `expr` on the documents the route says it owns. A copy the
    /// route does not name (left by a migration that failed part-way,
    /// until the next [`Cluster::assemble`]) is never reported.
    pub fn query_shard(&self, shard: ShardId, expr: &str) -> Result<BatchHits> {
        self.ensure_shard_up(shard.0)?;
        let mut hits = shard_hits(shard.0, &self.shards[shard.0], expr)?;
        hits.retain(|&(id, _)| self.owns(shard, id));
        Ok(hits)
    }

    /// The cluster's one fan-out: every shard that is not marked down
    /// gets a worker running [`Cluster::query_shard`]'s step and has
    /// `per_shard_timeout` to answer; the result is whatever arrived —
    /// merged id-sorted hits plus one explicit [`ShardError`] per shard
    /// that was down, errored, or ran out its budget. Never errors as a
    /// whole and never blocks (much) past the budget: a partial answer
    /// with a precise account of what is missing beats both a hang and
    /// an all-or-nothing failure. A budget too long to be a deadline
    /// (`Duration::MAX`) waits for every worker.
    ///
    /// Holds the migration gate shared so the shard set cannot tear
    /// mid-fan-out (a `move_doc` briefly delays batch queries; per-doc
    /// reads stay concurrent). Workers are detached threads (a scoped
    /// thread could not be abandoned at the deadline); a late worker
    /// finishes against its own `Arc` of the shard and its result is
    /// discarded.
    pub fn query_all_partial(&self, expr: &str, per_shard_timeout: Duration) -> PartialResults {
        let trace = trace::span("cluster.query_all");
        let parent = trace::current();
        let _shared = self.gate.read();
        let (tx, rx) = mpsc::channel::<(usize, Result<BatchHits>)>();
        let mut errors = Vec::new();
        // Which shards still owe an answer.
        let mut owed = vec![false; self.shards.len()];
        for (i, shard) in self.shards.iter().enumerate() {
            // Minted here so worker spans parent correctly even though
            // the worker thread is detached (it may outlive this call;
            // a late flush merges into the finished trace).
            let ctx = parent.map(|p| p.child());
            if let Err(error) = self.ensure_shard_up(i) {
                // A zero-length error span records the skipped shard in
                // the trace — the fan-out is complete by construction.
                let g = trace::adopt("cluster.shard_query", ctx);
                g.attr("shard", i);
                g.err(error.to_string());
                errors.push(ShardError { shard: i, error });
                continue;
            }
            owed[i] = true;
            let (tx, shard, expr) = (tx.clone(), Arc::clone(shard), expr.to_string());
            let fanout = Arc::clone(&self.fanout_threads);
            std::thread::spawn(move || {
                let live = fanout.track();
                let g = trace::adopt("cluster.shard_query", ctx);
                g.attr("shard", i);
                let r = shard_hits(i, &shard, &expr);
                if let Err(e) = &r {
                    g.err(e.to_string());
                }
                // Settled before the hand-off: a caller holding every
                // answer also sees every worker's span and gauge done.
                drop((g, live));
                let _ = tx.send((i, r));
            });
        }
        drop(tx);

        let deadline = Instant::now().checked_add(per_shard_timeout);
        let mut hits: BatchHits = Vec::new();
        let mut timed_out = false;
        for _ in 0..owed.iter().filter(|&&o| o).count() {
            let next = match deadline {
                Some(d) => rx.recv_timeout(d.saturating_duration_since(Instant::now())),
                None => rx.recv().map_err(RecvTimeoutError::from),
            };
            match next {
                Ok((i, Ok(batch))) => {
                    owed[i] = false;
                    hits.extend(batch.into_iter().filter(|&(id, _)| self.owns(ShardId(i), id)));
                }
                Ok((i, Err(error))) => {
                    owed[i] = false;
                    errors.push(ShardError { shard: i, error });
                }
                Err(e) => {
                    // The deadline passed, or every worker still owed an
                    // answer died (a panic) without sending one.
                    timed_out = e == RecvTimeoutError::Timeout;
                    break;
                }
            }
        }
        let ms = u64::try_from(per_shard_timeout.as_millis()).unwrap_or(u64::MAX);
        for i in (0..owed.len()).filter(|&i| owed[i]) {
            let error = if timed_out {
                self.obs
                    .event("shard.timeout", format!("shard {i} missed the {ms} ms fan-out budget"));
                ClusterError::Timeout { shard: i, ms }
            } else {
                ClusterError::ShardUnavailable { shard: i, detail: "fan-out worker died".into() }
            };
            trace.err(error.to_string());
            errors.push(ShardError { shard: i, error });
        }
        hits.sort_unstable_by_key(|(id, _)| *id);
        errors.sort_by_key(|e| e.shard);
        PartialResults { hits, errors }
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Apply one gated [`EditOp`] on the owning shard — logged to that
    /// shard's WAL, prevalidated exactly as on a single primary.
    pub fn edit(&self, id: DocId, op: EditOp) -> Result<EditOutcome> {
        self.routed_edit(id, None, op)
    }

    /// [`Cluster::edit`] with a compare-and-set guard: applies only if
    /// the document's pre-op epoch equals `expected`, failing with a
    /// [`cxpersist::PersistError::StaleEdit`] otherwise (checked under
    /// the document's write lock — see
    /// [`cxpersist::DurableStore::edit_guarded`]). The service tier
    /// leans on this to make remote edit retries exactly-once: a
    /// replayed edit that already landed reads back stale.
    pub fn edit_guarded(&self, id: DocId, expected: u64, op: EditOp) -> Result<EditOutcome> {
        self.routed_edit(id, Some(expected), op)
    }

    fn routed_edit(&self, id: DocId, guard: Option<u64>, op: EditOp) -> Result<EditOutcome> {
        let trace = trace::span("cluster.edit");
        trace.attr("doc", id.raw());
        if let Some(expected) = guard {
            trace.attr("guard", expected);
        }
        let waiting = self.gate_waiters.track();
        let _shared = self.gate.read();
        drop(waiting);
        // Under the shared gate the route cannot change mid-edit.
        let s = self.router.shard_of(id).0;
        trace.attr("shard", s);
        let r = self.ensure_shard_up(s).and_then(|()| {
            let _inflight = self.shard_inflight[s].track();
            Ok(match guard {
                None => self.shards[s].edit(id, op)?,
                Some(expected) => self.shards[s].edit_guarded(id, expected, op)?,
            })
        });
        if let Err(e) = &r {
            trace.err(e.to_string());
        }
        r
    }

    // ------------------------------------------------------------------
    // Rebalancing
    // ------------------------------------------------------------------

    /// Migrate a document to another primary. Returns the shard it left.
    ///
    /// Holds the migration gate exclusively (drains in-flight writers,
    /// holds new ones; readers keep running), then:
    ///
    /// 1. **capture** — the document's [`DocBlob`] under its read lock
    ///    (writers are drained, so this is the authoritative state) plus
    ///    its name bindings;
    /// 2. **apply** — [`DurableStore::admit`] on the target under the
    ///    document's own id: the blob is logged verbatim to the target's
    ///    WAL (with the names) before anything else changes. This is the
    ///    migration's commit point;
    /// 3. **swap** — the routing entry flips; readers now resolve to the
    ///    target (the source copy still exists but is unreachable);
    /// 4. **tombstone** — the source logs a `DocRemove` and drops its
    ///    copy (and the name bindings with it).
    ///
    /// A crash after 2 leaves byte-identical copies on both shards;
    /// [`Cluster::assemble`] keeps exactly one (and heals names). A crash
    /// before 2 leaves the document untouched on the source. A live move
    /// that fails part-way (a WAL append refused after 2 began) leaves the
    /// same residue in memory; until the next assembly only the routed
    /// copy is listed (see [`Cluster::query_shard`]).
    pub fn move_doc(&self, id: DocId, to: ShardId) -> Result<ShardId> {
        if to.0 >= self.shards.len() {
            return Err(ClusterError::NoSuchShard(to.0));
        }
        // The span covers the gate drain too: that wait *is* migration
        // latency as writers experience it.
        let _span = self.move_doc_ns.span();
        let trace = trace::span("cluster.move_doc");
        trace.attr("doc", id.raw());
        trace.attr("shard", to.0);
        let _exclusive = self.gate.write();
        let from = self.router.shard_of(id);
        if from == to {
            return Ok(from);
        }
        // A migration writes on both sides (receive on the target, the
        // tombstone on the source) — both must be reachable.
        self.ensure_shard_up(from.0)?;
        self.ensure_shard_up(to.0)?;
        let source = &self.shards[from.0];
        let blob = source.store().with_doc(id, DocBlob::capture).map_err(ClusterError::Store)?;
        let names = doc_names(source, id);
        self.shards[to.0].admit(Claim::Exact(id), LoggedDoc::restore(blob)?, &names)?;
        self.router.route(id, to);
        source.remove(id)?;
        self.docs_moved.bump();
        self.obs.event("migrate", format!("{id}: shard {} -> shard {}", from.0, to.0));
        Ok(from)
    }

    /// Move every document off `from`, round-robin across the remaining
    /// shards (decommissioning / re-weighting). Returns the moved ids.
    pub fn drain_shard(&self, from: ShardId) -> Result<Vec<DocId>> {
        if from.0 >= self.shards.len() {
            return Err(ClusterError::NoSuchShard(from.0));
        }
        let targets: Vec<usize> = (0..self.shards.len()).filter(|&s| s != from.0).collect();
        if targets.is_empty() {
            return Err(ClusterError::Config("cannot drain a single-shard cluster".into()));
        }
        let ids = self.shards[from.0].store().doc_ids();
        let mut moved = Vec::with_capacity(ids.len());
        for (k, id) in ids.into_iter().enumerate() {
            if self.router.shard_of(id) != from {
                continue; // moved away (or removed) since listing
            }
            self.move_doc(id, ShardId(targets[k % targets.len()]))?;
            moved.push(id);
        }
        self.obs.event("drain", format!("shard {}: {} documents moved off", from.0, moved.len()));
        Ok(moved)
    }

    /// Documents moved between shards since this cluster was assembled.
    pub fn docs_moved(&self) -> u64 {
        self.docs_moved.get()
    }

    // ------------------------------------------------------------------
    // Durability plumbing
    // ------------------------------------------------------------------

    /// Checkpoint every shard (each drains its own mutators; the cluster
    /// keeps serving throughout — shards checkpoint independently).
    pub fn checkpoint_all(&self) -> Result<Vec<CheckpointInfo>> {
        self.shards.iter().map(|s| s.checkpoint().map_err(ClusterError::from)).collect()
    }

    /// Fsync every shard's WAL (a cluster-wide durability barrier under
    /// `FsyncPolicy::Never`).
    pub fn sync_all(&self) -> Result<()> {
        for s in &self.shards {
            s.sync()?;
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// Aggregated [`StoreStats`] across all shards, plus what the
    /// cluster's own registry holds (`cluster_shards`, `docs_moved`,
    /// `writes_in_flight`, `writers_waiting`).
    pub fn stats(&self) -> StoreStats {
        let mut out = StoreStats::from_registry(&self.obs);
        for s in &self.shards {
            out.absorb(&s.stats());
        }
        out
    }

    /// The cluster-level metrics registry (`cx_cluster_shards`,
    /// `cx_docs_moved_total`, `cx_gate_waiters`, `cx_fanout_threads`,
    /// per-shard in-flight gauges, `cx_move_doc_ns`, migration events).
    /// Each shard's own registry hangs off its [`DurableStore::registry`].
    pub fn registry(&self) -> &Arc<Registry> {
        &self.obs
    }
}

impl Observable for Cluster {
    /// The whole cluster as one page: every shard's full stack (store,
    /// durability, replication) wrapped in a `shard="i"` label, followed
    /// by the collection totals summed over shards, the cluster-level
    /// metrics (shard count, migrations, gate queueing, fan-out, per-shard
    /// health), and the process-wide failpoint counters (`cx_fault_*`).
    /// Event counters appear once, under their shard's label.
    fn expose_into(&self, out: &mut Exposition) {
        for (i, shard) in self.shards.iter().enumerate() {
            out.push_label("shard", i);
            shard.expose_into(out);
            out.pop_label();
        }
        // Health gauges are derived state — re-read them at scrape time
        // so a store that degraded on its own (no cluster call involved)
        // still shows up.
        for i in 0..self.shards.len() {
            self.refresh_health_gauge(i);
        }
        self.stats().expose_into(out);
        self.obs.expose_into(out);
        cxobs::expose_process(out);
    }
}

/// A fan-out worker's store step on shard `shard` (see
/// [`Cluster::query_shard`]): the failpoint lets tests make this shard slow
/// (`Delay` runs inside `fire`) or unreachable without touching its store.
fn shard_hits(shard: usize, store: &DurableStore, expr: &str) -> Result<BatchHits> {
    if fault::fire(Site::ClusterShardQuery).is_some() {
        let detail = fault::io_error(Site::ClusterShardQuery).to_string();
        return Err(ClusterError::ShardUnavailable { shard, detail });
    }
    Ok(store.store().query_all(expr)?)
}

/// The names a shard currently binds to `id`.
fn doc_names(shard: &DurableStore, id: DocId) -> Vec<String> {
    shard.store().name_bindings().into_iter().filter(|(_, d)| *d == id).map(|(n, _)| n).collect()
}
