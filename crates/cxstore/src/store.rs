//! The repository: document registry, compiled-query cache, single and
//! batch query paths, gated edits.

use crate::edit::{EditOp, EditOutcome};
use crate::entry::DocEntry;
use crate::error::{Result, StoreError};
use crate::stats::{Counters, StoreMetrics, StoreStats};
use cxobs::{trace, Exposition, Observable, Registry};
use expath::{parse, Evaluator, Expr, Value};
use goddag::Goddag;
use prevalid::InsertionContext;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use xmlcore::{Attribute, QName};

/// Stable handle to a document in a [`Store`]. Never reused, ordered by
/// insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DocId(u64);

impl DocId {
    /// The raw id value (for logs and wire formats).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuild a handle from its raw value — the inverse of
    /// [`DocId::raw`], for persistence layers that store handles in logs
    /// and manifests. A forged value simply names no live document.
    pub fn from_raw(raw: u64) -> DocId {
        DocId(raw)
    }
}

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "doc#{}", self.0)
    }
}

/// Default cap on distinct compiled expressions kept alive; above it the
/// least-recently-used entry is evicted (the cache is an amortizer, not a
/// registry).
const QUERY_CACHE_CAP: usize = 1024;

/// One compiled-query cache slot: the shared AST plus its last-touched
/// tick (atomic so read-path hits never take the write lock).
struct CachedQuery {
    ast: Arc<Expr>,
    last_used: AtomicU64,
}

/// Number of doc-table shards. Ids are sequential, so `id % N` spreads
/// consecutive inserts round-robin; a fixed power of two keeps the modulo a
/// mask and the table layout independent of runtime configuration.
const DOC_SHARDS: usize = 16;

/// The sharded document registry: N independently locked maps hashed by
/// raw [`DocId`], so concurrent inserts/removals on different documents
/// stop serializing on one table-wide lock. Entry lookups touch exactly
/// one shard; whole-table reads (ids, stats) visit all shards and sort by
/// id, which — ids being allocation-ordered — reproduces insertion order
/// deterministically.
struct DocTable {
    shards: Vec<RwLock<HashMap<u64, Arc<DocEntry>>>>,
}

impl DocTable {
    fn new() -> DocTable {
        DocTable { shards: (0..DOC_SHARDS).map(|_| RwLock::default()).collect() }
    }

    fn shard(&self, raw: u64) -> &RwLock<HashMap<u64, Arc<DocEntry>>> {
        &self.shards[(raw as usize) % DOC_SHARDS]
    }

    /// Insert; fails (returns the entry back) when the id is taken.
    fn insert(&self, raw: u64, e: Arc<DocEntry>) -> bool {
        use std::collections::hash_map::Entry;
        match crate::entry::write_lock(self.shard(raw)).entry(raw) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                v.insert(e);
                true
            }
        }
    }

    fn remove(&self, raw: u64) -> bool {
        crate::entry::write_lock(self.shard(raw)).remove(&raw).is_some()
    }

    fn get(&self, raw: u64) -> Option<Arc<DocEntry>> {
        crate::entry::read_lock(self.shard(raw)).get(&raw).cloned()
    }

    fn contains(&self, raw: u64) -> bool {
        crate::entry::read_lock(self.shard(raw)).contains_key(&raw)
    }

    fn len(&self) -> usize {
        // Guards held together so the count is a consistent snapshot, like
        // every other whole-table read.
        self.lock_all().iter().map(|g| g.len()).sum()
    }

    /// All shard read guards, acquired in index order. Holding every
    /// guard makes a whole-table read an atomic snapshot — the same
    /// point-in-time semantics the pre-sharding single lock gave
    /// `doc_ids()`/`entries()` (and through them `query_all`). The fixed
    /// acquisition order cannot deadlock: single-entry operations only
    /// ever hold one shard lock.
    fn lock_all(&self) -> Vec<std::sync::RwLockReadGuard<'_, HashMap<u64, Arc<DocEntry>>>> {
        self.shards.iter().map(crate::entry::read_lock).collect()
    }

    /// All live `(id, entry)` pairs sorted by id (= insertion order), as
    /// one consistent snapshot.
    fn sorted_entries(&self) -> Vec<(DocId, Arc<DocEntry>)> {
        let guards = self.lock_all();
        let mut out: Vec<(DocId, Arc<DocEntry>)> =
            Vec::with_capacity(guards.iter().map(|g| g.len()).sum());
        for g in &guards {
            out.extend(g.iter().map(|(&raw, e)| (DocId(raw), Arc::clone(e))));
        }
        out.sort_unstable_by_key(|(id, _)| *id);
        out
    }

    /// All live ids sorted (= insertion order), as one consistent
    /// snapshot.
    fn sorted_ids(&self) -> Vec<DocId> {
        let guards = self.lock_all();
        let mut out: Vec<DocId> = Vec::with_capacity(guards.iter().map(|g| g.len()).sum());
        for g in &guards {
            out.extend(g.keys().map(|&raw| DocId(raw)));
        }
        out.sort_unstable();
        out
    }
}

/// A thread-safe repository of GODDAG documents with epoch-validated
/// overlap-index caches, an LRU compiled-query cache, and a batch query
/// service. See the crate docs for the full tour.
pub struct Store {
    docs: DocTable,
    names: RwLock<HashMap<String, DocId>>,
    next_id: AtomicU64,
    queries: RwLock<HashMap<String, CachedQuery>>,
    /// Monotonic recency clock for the query cache.
    query_tick: AtomicU64,
    query_cache_cap: usize,
    counters: Counters,
    obs: Arc<Registry>,
    metrics: StoreMetrics,
}

impl Default for Store {
    fn default() -> Store {
        Store::with_query_cache_capacity(QUERY_CACHE_CAP)
    }
}

impl Store {
    /// An empty store.
    pub fn new() -> Store {
        Store::default()
    }

    /// An empty store whose compiled-query cache holds at most `cap`
    /// expressions (minimum 1), evicting least-recently-used beyond that.
    pub fn with_query_cache_capacity(cap: usize) -> Store {
        Store::with_config(cap, Arc::new(Registry::new()))
    }

    /// An empty store recording its metrics into `obs` — how a stack
    /// (durable store, primary, cluster shard) shares one registry so a
    /// single exposition covers every layer. Pass
    /// [`Registry::disabled`] to run uninstrumented.
    pub fn with_registry(obs: Arc<Registry>) -> Store {
        Store::with_config(QUERY_CACHE_CAP, obs)
    }

    /// The fully explicit constructor: query-cache capacity plus metric
    /// registry.
    pub fn with_config(cap: usize, obs: Arc<Registry>) -> Store {
        let metrics = StoreMetrics::new(&obs);
        Store {
            docs: DocTable::new(),
            names: RwLock::default(),
            next_id: AtomicU64::new(0),
            queries: RwLock::default(),
            query_tick: AtomicU64::new(0),
            query_cache_cap: cap.max(1),
            counters: Counters::default(),
            obs,
            metrics,
        }
    }

    /// The metric registry this store records into. Layers stacked on
    /// top (durability, replication, clustering) hang their own
    /// histograms and events here, so [`Store::exposition`] renders the
    /// whole stack.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.obs
    }

    // ------------------------------------------------------------------
    // Registry
    // ------------------------------------------------------------------

    /// Add a document; returns its permanent handle.
    pub fn insert(&self, g: Goddag) -> DocId {
        let entry = Arc::new(DocEntry::new(g));
        loop {
            let id = DocId(self.next_id.fetch_add(1, Ordering::Relaxed));
            // A racing `insert_with_id` may claim this id between our
            // allocation and the map insert; allocate again rather than
            // silently aliasing its document.
            if self.docs.insert(id.0, Arc::clone(&entry)) {
                return id;
            }
        }
    }

    /// Add a document under a name (replacing any previous binding of the
    /// name, not the document it pointed to).
    pub fn insert_named(&self, name: impl Into<String>, g: Goddag) -> DocId {
        let id = self.insert(g);
        self.names_write().insert(name.into(), id);
        id
    }

    /// Add a document under a *specific* handle — the recovery path of
    /// durable stores, which must revive pre-crash handles exactly so that
    /// logged operations keep resolving. Fails with [`StoreError::IdInUse`]
    /// when the handle is live. The id allocator is advanced past `id`, so
    /// later [`Store::insert`] calls never collide.
    pub fn insert_with_id(&self, id: DocId, g: Goddag) -> Result<DocId> {
        self.next_id.fetch_max(id.0 + 1, Ordering::Relaxed);
        if self.docs.insert(id.0, Arc::new(DocEntry::new(g))) {
            Ok(id)
        } else {
            Err(StoreError::IdInUse(id))
        }
    }

    /// Advance the id allocator to at least `next_raw`. Recovery uses this
    /// so handles of documents that were inserted and removed again before
    /// the crash stay retired (handles are never reused, even across
    /// restarts).
    pub fn reserve_doc_ids(&self, next_raw: u64) {
        self.next_id.fetch_max(next_raw, Ordering::Relaxed);
    }

    /// The raw id the next insert will receive (manifest bookkeeping).
    pub fn next_doc_raw(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Atomically allocate the next raw id congruent to
    /// `residue (mod modulus)` — the id-range hook for write sharding,
    /// where shard `i` of `n` mints only ids `≡ i (mod n)` so a
    /// hash-partitioned router maps every unmoved document straight back
    /// to the shard that created it. The allocator is advanced past the
    /// returned id; the caller inserts with [`Store::insert_with_id`].
    /// With `modulus <= 1` this is a plain allocation.
    pub fn allocate_doc_raw_aligned(&self, modulus: u64, residue: u64) -> u64 {
        if modulus <= 1 {
            return self.next_id.fetch_add(1, Ordering::Relaxed);
        }
        debug_assert!(residue < modulus, "residue {residue} out of range for modulus {modulus}");
        loop {
            let cur = self.next_id.load(Ordering::Relaxed);
            let candidate = cur + (modulus + residue - cur % modulus) % modulus;
            if self
                .next_id
                .compare_exchange(cur, candidate + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                return candidate;
            }
        }
    }

    /// Add many documents.
    pub fn insert_all(&self, docs: impl IntoIterator<Item = Goddag>) -> Vec<DocId> {
        docs.into_iter().map(|g| self.insert(g)).collect()
    }

    /// Resolve a name to a handle.
    pub fn id_by_name(&self, name: &str) -> Result<DocId> {
        self.names_read().get(name).copied().ok_or_else(|| StoreError::NoSuchName(name.into()))
    }

    /// Bind (or rebind) a name to a live document.
    pub fn bind_name(&self, name: impl Into<String>, id: DocId) -> Result<()> {
        // The liveness check runs *while holding* the names lock: a
        // concurrent `remove` takes this lock after dropping the document,
        // so its binding cleanup always observes (and removes) a racing
        // insert — no stale name → dead-id entry can survive.
        let mut names = self.names_write();
        if !self.contains(id) {
            return Err(StoreError::NoSuchDoc(id));
        }
        names.insert(name.into(), id);
        Ok(())
    }

    /// Drop one `name → id` binding without touching the document it
    /// points at — the inverse of [`Store::bind_name`], needed when a name
    /// is rebound across stores (a cluster moving a name between shards
    /// must be able to retire the old shard's binding explicitly; a plain
    /// rebind only shadows within one store). Returns the id the name was
    /// bound to, or `None` when it was unbound already.
    pub fn unbind_name(&self, name: &str) -> Option<DocId> {
        self.names_write().remove(name)
    }

    /// All current `name → id` bindings, sorted by name.
    pub fn name_bindings(&self) -> Vec<(String, DocId)> {
        let mut out: Vec<(String, DocId)> =
            self.names_read().iter().map(|(n, id)| (n.clone(), *id)).collect();
        out.sort();
        out
    }

    /// Drop a document. In-flight readers holding the entry finish
    /// unharmed; the handle then dangles permanently. Returns whether the
    /// handle was live. Every name bound to the document is unbound with it
    /// (no stale `name → id` entries survive).
    pub fn remove(&self, id: DocId) -> bool {
        let removed = self.docs.remove(id.0);
        if removed {
            self.names_write().retain(|_, v| *v != id);
        }
        removed
    }

    /// Resolve a name and drop that document (plus all of its name
    /// bindings). Errors when the name is unbound.
    pub fn remove_named(&self, name: &str) -> Result<DocId> {
        let id = self.id_by_name(name)?;
        self.remove(id);
        Ok(id)
    }

    /// Number of live documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when no documents are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the handle is live.
    pub fn contains(&self, id: DocId) -> bool {
        self.docs.contains(id.0)
    }

    /// All live handles, in insertion order.
    pub fn doc_ids(&self) -> Vec<DocId> {
        self.docs.sorted_ids()
    }

    /// Clone out a consistent snapshot of a document.
    pub fn snapshot(&self, id: DocId) -> Result<Goddag> {
        let entry = self.entry(id)?;
        let g = entry.read();
        Ok(g.clone())
    }

    /// A document's current edit epoch.
    pub fn epoch(&self, id: DocId) -> Result<u64> {
        let entry = self.entry(id)?;
        let g = entry.read();
        Ok(g.edit_epoch())
    }

    /// Run a closure against a document under its read lock.
    pub fn with_doc<R>(&self, id: DocId, f: impl FnOnce(&Goddag) -> R) -> Result<R> {
        let entry = self.entry(id)?;
        let g = entry.read();
        Ok(f(&g))
    }

    /// Run a closure against a document under its write lock — the escape
    /// hatch for mutations [`EditOp`] does not model. The edit epoch moves
    /// with whatever the closure does, so index caches stay correct; cached
    /// prevalidation engines are conservatively dropped (the closure may
    /// have swapped a DTD).
    pub fn with_doc_mut<R>(&self, id: DocId, f: impl FnOnce(&mut Goddag) -> R) -> Result<R> {
        let entry = self.entry(id)?;
        let mut g = entry.write();
        // The closure may swap a DTD (or panic mid-swap); clear cached
        // engines *before the write lock is released* — declared after `g`
        // so it drops first, even on unwind — so no racing edit can
        // validate against a stale engine.
        struct InvalidateEngines<'a>(&'a DocEntry);
        impl Drop for InvalidateEngines<'_> {
            fn drop(&mut self) {
                self.0.invalidate_engines();
            }
        }
        let _guard = InvalidateEngines(&entry);
        Ok(f(&mut g))
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Compile an expression, reusing the cache (touching the entry's
    /// recency). The returned AST is shared and immutable; evaluating it
    /// never re-parses.
    pub fn compile(&self, expr: &str) -> Result<Arc<Expr>> {
        let tick = self.query_tick.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(cached) = self.queries_read().get(expr) {
            cached.last_used.store(tick, Ordering::Relaxed);
            Counters::bump(&self.counters.query_cache_hits);
            return Ok(Arc::clone(&cached.ast));
        }
        Counters::bump(&self.counters.query_cache_misses);
        let ast = Arc::new(parse(expr)?);
        let mut cache = self.queries_write();
        if cache.len() >= self.query_cache_cap && !cache.contains_key(expr) {
            // Evict the least-recently-used entry (linear scan: eviction is
            // rare next to hits and already behind a parse).
            if let Some(k) = cache
                .iter()
                .min_by_key(|(_, c)| c.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
            {
                cache.remove(&k);
            }
        }
        // Keep whichever AST got there first so concurrent compilers agree.
        let cached = cache
            .entry(expr.to_string())
            .or_insert_with(|| CachedQuery { ast, last_used: AtomicU64::new(tick) });
        cached.last_used.store(tick, Ordering::Relaxed);
        Ok(Arc::clone(&cached.ast))
    }

    /// Evaluate a node-set expression against one document, using the
    /// cached overlap index (built now if stale or missing).
    pub fn query(&self, id: DocId, expr: &str) -> Result<Vec<goddag::NodeId>> {
        let _span = self.metrics.query_ns.span();
        let trace = trace::span("store.query");
        trace.attr("doc", id.raw());
        let ast = self.compile(expr)?;
        let entry = self.entry(id)?;
        Counters::bump(&self.counters.queries);
        self.query_entry(&entry, &ast)
    }

    /// Evaluate an expression of any result type against one document.
    pub fn query_value(&self, id: DocId, expr: &str) -> Result<OwnedValue> {
        let _span = self.metrics.query_ns.span();
        let ast = self.compile(expr)?;
        let entry = self.entry(id)?;
        Counters::bump(&self.counters.queries);
        let g = entry.read();
        let idx = entry.index_for(&g, &self.counters);
        let ev = Evaluator::with_shared_index(&g, idx);
        let v = ev.evaluate(&ast, g.root())?;
        Ok(OwnedValue::from_value(v, &g))
    }

    /// Evaluate a node-set expression against **every** document in
    /// parallel (scoped threads, one chunk of documents per worker).
    /// Results are keyed by handle and sorted by it; they are identical to
    /// [`Store::query_all_serial`] by construction, which the conformance
    /// test pins down.
    pub fn query_all(&self, expr: &str) -> Result<Vec<(DocId, Vec<goddag::NodeId>)>> {
        let _span = self.metrics.query_all_ns.span();
        let _trace = trace::span("store.query_all");
        let ast = self.compile(expr)?;
        let entries = self.entries();
        Counters::bump(&self.counters.batch_queries);
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        let workers = workers.min(entries.len()).max(1);
        if workers == 1 {
            return self.query_entries(&entries, &ast);
        }
        let chunk = entries.len().div_ceil(workers);
        let ast = &ast;
        std::thread::scope(|s| {
            let handles: Vec<_> = entries
                .chunks(chunk)
                .map(|chunk| s.spawn(move || self.query_entries(chunk, ast)))
                .collect();
            let mut out = Vec::with_capacity(entries.len());
            for h in handles {
                // invariant: query workers return errors, never panic; a
                // panic is a bug worth propagating.
                out.extend(h.join().expect("query worker panicked")?);
            }
            Ok(out)
        })
    }

    /// The single-threaded batch path: same contract as
    /// [`Store::query_all`], used as its reference and as the serial
    /// baseline in benches.
    pub fn query_all_serial(&self, expr: &str) -> Result<Vec<(DocId, Vec<goddag::NodeId>)>> {
        let _span = self.metrics.query_all_ns.span();
        let ast = self.compile(expr)?;
        let entries = self.entries();
        Counters::bump(&self.counters.batch_queries);
        self.query_entries(&entries, &ast)
    }

    /// Prebuild the overlap index of one document (warm the cache ahead of
    /// traffic).
    pub fn warm(&self, id: DocId) -> Result<()> {
        let entry = self.entry(id)?;
        let g = entry.read();
        entry.index_for(&g, &self.counters);
        Ok(())
    }

    /// Prebuild every document's overlap index.
    pub fn warm_all(&self) {
        for (_, entry) in self.entries() {
            let g = entry.read();
            entry.index_for(&g, &self.counters);
        }
    }

    /// Drop all cached overlap indexes (cold-start benches; memory
    /// pressure).
    pub fn invalidate_indexes(&self) {
        for (_, entry) in self.entries() {
            entry.invalidate_index();
        }
    }

    // ------------------------------------------------------------------
    // Edits
    // ------------------------------------------------------------------

    /// Apply one [`EditOp`] under the document's write lock.
    /// `InsertElement` into a hierarchy that carries a DTD goes through the
    /// prevalidation gate first: a rejection returns
    /// [`StoreError::EditRejected`] and leaves the document untouched.
    pub fn edit(&self, id: DocId, op: EditOp) -> Result<EditOutcome> {
        enum Never {}
        match self.edit_with_log(id, op, |_, _| Ok::<(), Never>(())) {
            Ok(result) => result,
            Err(never) => match never {},
        }
    }

    /// [`Store::edit`] with a durability hook: after the edit passes
    /// validation (document lookup, prevalidation gate, tag syntax) but
    /// *before* any mutation, `log` is called — still under the document's
    /// write lock — with the operation and the document's current edit
    /// epoch. This is where a write-ahead log appends the record: a crash
    /// after the append replays to the same state, a crash before it never
    /// acknowledged the edit. A `log` error (outer `Err`) aborts the edit
    /// with the document untouched; the inner result is the edit's own
    /// outcome.
    ///
    /// Determinism contract relied on by replay: given the same document
    /// state and the same op, the mutation result (including any structural
    /// rejection *after* logging, e.g. crossing markup) is identical — so a
    /// logged record can be re-run through this same path on recovery.
    pub fn edit_with_log<E>(
        &self,
        id: DocId,
        op: EditOp,
        log: impl FnOnce(&EditOp, u64) -> std::result::Result<(), E>,
    ) -> std::result::Result<Result<EditOutcome>, E> {
        let _span = self.metrics.edit_ns.span();
        let trace = trace::span("store.edit");
        trace.attr("doc", id.raw());
        let entry = match self.entry(id) {
            Ok(e) => e,
            Err(err) => {
                trace.err(err.to_string());
                return Ok(Err(err));
            }
        };
        let mut g = entry.write();
        let gate_result = {
            let gate_trace = trace::span("store.gate");
            let r = self.metrics.gate_ns.time(|| self.gate(&entry, &g, &op));
            if let Err(err) = &r {
                gate_trace.err(err.to_string());
            }
            r
        };
        let resolved = match gate_result {
            Ok(resolved) => resolved,
            Err(err) => {
                Counters::bump(&self.counters.edits_rejected);
                self.obs.event("gate.reject", format!("{id}: {err}"));
                trace.err("gate rejected");
                return Ok(Err(err));
            }
        };
        log(&op, g.edit_epoch())?;
        let result = self.apply(&mut g, op, resolved);
        match &result {
            Ok(_) => Counters::bump(&self.counters.edits),
            Err(_) => Counters::bump(&self.counters.edits_rejected),
        }
        Ok(result)
    }

    /// Apply one [`EditOp`] *without* the prevalidation gate — the apply
    /// path of replication followers, which replay operations a primary
    /// already validated (gate-rejected edits never reach a primary's log,
    /// so re-running the gate here would re-pay prevalidation for nothing).
    /// Hierarchy resolution and tag syntax are still checked, and
    /// structural failures (e.g. crossing markup inside one hierarchy)
    /// surface exactly as they do on the primary — the determinism the
    /// recovery path already relies on. The caller is responsible for
    /// ordering (applying records in LSN order) and for epoch
    /// verification; this method only executes the mutation.
    pub fn apply_replicated(&self, id: DocId, op: EditOp) -> Result<EditOutcome> {
        let entry = self.entry(id)?;
        let mut g = entry.write();
        let resolved = Self::resolve_insert(&g, &op)?;
        let result = self.apply(&mut g, op, resolved);
        match &result {
            Ok(_) => Counters::bump(&self.counters.edits),
            Err(_) => Counters::bump(&self.counters.edits_rejected),
        }
        result
    }

    /// Resolve an `InsertElement`'s hierarchy and tag syntax — shared by
    /// the gated edit path and the replication apply path so structural
    /// verdicts stay deterministic between primary, recovery, and
    /// replicas. `None` for every other op.
    fn resolve_insert(g: &Goddag, op: &EditOp) -> Result<Option<(goddag::HierarchyId, QName)>> {
        let EditOp::InsertElement { hierarchy, tag, .. } = op else {
            return Ok(None);
        };
        let h = g
            .hierarchy_by_name(hierarchy)
            .ok_or_else(|| StoreError::UnknownHierarchy(hierarchy.clone()))?;
        let name = QName::parse(tag)
            .map_err(|_| StoreError::EditRejected(format!("invalid tag {tag:?}")))?;
        Ok(Some((h, name)))
    }

    /// The pure pre-mutation checks for an op: hierarchy existence, tag
    /// syntax, and the prevalidation gate for `InsertElement` into a
    /// hierarchy that carries a DTD. Runs before the WAL append so rejected
    /// edits never pollute the log. Returns the resolved hierarchy and tag
    /// for `InsertElement` so [`Store::apply`] does not repeat the lookups.
    fn gate(
        &self,
        entry: &DocEntry,
        g: &Goddag,
        op: &EditOp,
    ) -> Result<Option<(goddag::HierarchyId, QName)>> {
        let Some((h, name)) = Self::resolve_insert(g, op)? else {
            return Ok(None);
        };
        let EditOp::InsertElement { tag, start, end, .. } = op else {
            unreachable!("resolve_insert only resolves InsertElement")
        };
        if let Some(engine) = entry.engine_for(g, h) {
            // One reusable check context per gated edit: the host partition
            // and wrap tables are built once and the tag is tested against
            // them (the same context that powers [`Store::suggest_tags`]).
            let verdict = match InsertionContext::new(&engine, g, h, *start, *end) {
                Ok(ctx) => ctx.check(tag),
                Err(v) => v,
            };
            if !verdict.ok {
                return Err(StoreError::EditRejected(
                    verdict.reason.unwrap_or_else(|| "prevalidation failed".into()),
                ));
            }
        }
        Ok(Some((h, name)))
    }

    fn apply(
        &self,
        g: &mut Goddag,
        op: EditOp,
        resolved: Option<(goddag::HierarchyId, QName)>,
    ) -> Result<EditOutcome> {
        let node = match op {
            EditOp::InsertElement { attrs, start, end, .. } => {
                // invariant: `gate` ran first and always resolves
                // InsertElement (or fails the edit before apply).
                let (h, name) = resolved.expect("gate resolves InsertElement");
                let attrs = attrs
                    .into_iter()
                    .map(|(n, v)| Attribute::new(n.as_str(), v))
                    .collect::<Vec<_>>();
                Some(g.insert_element(h, name, attrs, start, end)?)
            }
            EditOp::RemoveElement(n) => {
                g.remove_element(n)?;
                None
            }
            EditOp::InsertText { offset, text } => {
                g.insert_text(offset, &text)?;
                None
            }
            EditOp::DeleteText { start, end } => {
                g.delete_text(start, end)?;
                None
            }
            EditOp::SetAttr { node, name, value } => {
                g.set_attr(node, &name, &value)?;
                None
            }
            EditOp::RemoveAttr { node, name } => {
                g.remove_attr(node, &name)?;
                None
            }
        };
        Ok(EditOutcome { node, epoch: g.edit_epoch() })
    }

    /// Every tag the hierarchy's DTD allows over `start..end` — the editor
    /// suggestion service, served from the cached prevalidation engine with
    /// the host partition and covered-items wrap table shared across all
    /// candidate tags (only the per-tag host-side check re-runs). Empty
    /// when the hierarchy carries no DTD or the range itself is unusable.
    pub fn suggest_tags(
        &self,
        id: DocId,
        hierarchy: &str,
        start: usize,
        end: usize,
    ) -> Result<Vec<String>> {
        let entry = self.entry(id)?;
        let g = entry.read();
        let h = g
            .hierarchy_by_name(hierarchy)
            .ok_or_else(|| StoreError::UnknownHierarchy(hierarchy.into()))?;
        let Some(engine) = entry.engine_for(&g, h) else {
            return Ok(Vec::new());
        };
        Ok(match InsertionContext::new(&engine, &g, h, start, end) {
            Ok(ctx) => ctx.suggestions(),
            Err(_) => Vec::new(),
        })
    }

    // ------------------------------------------------------------------
    // Observability
    // ------------------------------------------------------------------

    /// Aggregate statistics: collection totals plus event counters.
    pub fn stats(&self) -> StoreStats {
        let mut s = StoreStats::default();
        for (_, entry) in self.entries() {
            let g = entry.read();
            let gs = g.stats();
            s.docs += 1;
            s.elements += gs.elements;
            s.leaves += gs.leaves;
            s.content_bytes += gs.content_bytes;
            s.estimated_bytes += gs.estimated_bytes;
            s.epochs += g.edit_epoch();
            if entry.index_is_warm(&g) {
                s.warm_indexes += 1;
            }
        }
        s.compiled_queries = self.queries_read().len();
        self.counters.snapshot_into(&mut s);
        s
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn entry(&self, id: DocId) -> Result<Arc<DocEntry>> {
        self.docs.get(id.0).ok_or(StoreError::NoSuchDoc(id))
    }

    fn entries(&self) -> Vec<(DocId, Arc<DocEntry>)> {
        self.docs.sorted_entries()
    }

    fn query_entry(&self, entry: &DocEntry, ast: &Expr) -> Result<Vec<goddag::NodeId>> {
        let g = entry.read();
        let idx = entry.index_for(&g, &self.counters);
        let ev = Evaluator::with_shared_index(&g, idx);
        match ev.evaluate(ast, g.root())? {
            Value::Nodes(ns) => Ok(ns),
            other => Err(StoreError::NotANodeSet(format!("{other:?}"))),
        }
    }

    fn query_entries(
        &self,
        entries: &[(DocId, Arc<DocEntry>)],
        ast: &Expr,
    ) -> Result<Vec<(DocId, Vec<goddag::NodeId>)>> {
        entries.iter().map(|(id, e)| self.query_entry(e, ast).map(|ns| (*id, ns))).collect()
    }

    fn names_read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, DocId>> {
        crate::entry::read_lock(&self.names)
    }

    fn names_write(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<String, DocId>> {
        crate::entry::write_lock(&self.names)
    }

    fn queries_read(&self) -> std::sync::RwLockReadGuard<'_, HashMap<String, CachedQuery>> {
        crate::entry::read_lock(&self.queries)
    }

    fn queries_write(&self) -> std::sync::RwLockWriteGuard<'_, HashMap<String, CachedQuery>> {
        crate::entry::write_lock(&self.queries)
    }
}

impl Observable for Store {
    /// The stats snapshot as `cx_*` lines, then every metric the stack
    /// registered on this store's registry (latency histograms, layer
    /// gauges).
    fn expose_into(&self, out: &mut Exposition) {
        self.stats().expose_into(out);
        self.obs.expose_into(out);
    }
}

/// A query result detached from any document lock: node-sets stay as ids,
/// everything else is materialized.
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedValue {
    /// A node-set (ids remain valid across edits — ids are never reused —
    /// though removed nodes go dead).
    Nodes(Vec<goddag::NodeId>),
    /// Attribute values, materialized as strings.
    Attrs(Vec<String>),
    /// A number.
    Number(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
}

impl OwnedValue {
    fn from_value(v: Value, g: &Goddag) -> OwnedValue {
        match v {
            Value::Nodes(ns) => OwnedValue::Nodes(ns),
            Value::Attrs(attrs) => OwnedValue::Attrs(
                attrs.iter().map(|a| g.attrs(a.element)[a.index].value.clone()).collect(),
            ),
            Value::Number(n) => OwnedValue::Number(n),
            Value::Str(s) => OwnedValue::Str(s),
            Value::Bool(b) => OwnedValue::Bool(b),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit::EditOp;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn store_is_send_and_sync() {
        assert_send_sync::<Store>();
        assert_send_sync::<StoreStats>();
    }

    fn figure1_store() -> (Store, DocId) {
        let store = Store::new();
        let id = store.insert(corpus::figure1::goddag());
        (store, id)
    }

    #[test]
    fn registry_basics() {
        let (store, id) = figure1_store();
        assert_eq!(store.len(), 1);
        assert!(store.contains(id));
        assert_eq!(store.doc_ids(), vec![id]);
        let named = store.insert_named("ms", corpus::figure1::goddag());
        assert_eq!(store.id_by_name("ms").unwrap(), named);
        assert!(store.id_by_name("nope").is_err());
        assert!(store.remove(named));
        assert!(!store.remove(named));
        assert!(store.id_by_name("ms").is_err());
        assert!(matches!(store.query(named, "//w"), Err(StoreError::NoSuchDoc(_))));
    }

    #[test]
    fn repeated_query_reuses_index_and_ast() {
        let (store, id) = figure1_store();
        let q = "//dmg/overlapping::ling:w";
        let first = store.query(id, q).unwrap();
        let second = store.query(id, q).unwrap();
        assert_eq!(first, second);
        assert!(!first.is_empty());
        let s = store.stats();
        assert_eq!(s.index_builds, 1, "one build, then cache");
        assert_eq!(s.index_hits, 1);
        assert_eq!(s.query_cache_misses, 1);
        assert_eq!(s.query_cache_hits, 1);
        assert_eq!(s.warm_indexes, 1);
        assert_eq!(s.compiled_queries, 1);
    }

    #[test]
    fn edits_bump_epoch_and_invalidate_index() {
        let (store, id) = figure1_store();
        let before = store.epoch(id).unwrap();
        store.query(id, "//ling:w").unwrap();
        let out = store
            .edit(
                id,
                EditOp::InsertElement {
                    hierarchy: "dmg".into(),
                    tag: "dmg".into(),
                    attrs: vec![("agent".into(), "water".into())],
                    start: 0,
                    end: 3,
                },
            )
            .unwrap();
        assert!(out.node.is_some());
        assert!(out.epoch > before);
        // The cached index is now stale; the next query rebuilds.
        store.query(id, "//ling:w").unwrap();
        let s = store.stats();
        assert_eq!(s.index_builds, 2);
        assert_eq!(s.edits, 1);
    }

    #[test]
    fn attribute_edits_apply() {
        let (store, id) = figure1_store();
        let w = store.query(id, "//ling:w").unwrap()[0];
        store
            .edit(id, EditOp::SetAttr { node: w, name: "lemma".into(), value: "swa".into() })
            .unwrap();
        assert_eq!(
            store.with_doc(id, |g| g.attr(w, "lemma").map(str::to_string)).unwrap().as_deref(),
            Some("swa")
        );
        store.edit(id, EditOp::RemoveAttr { node: w, name: "lemma".into() }).unwrap();
        assert!(store.with_doc(id, |g| g.attr(w, "lemma").is_none()).unwrap());
    }

    #[test]
    fn prevalid_gate_rejects_undeclared_tags() {
        let store = Store::new();
        let mut g = corpus::figure1::goddag();
        corpus::dtds::attach_standard(&mut g);
        let id = store.insert(g);
        let err = store
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
        assert!(matches!(err, StoreError::EditRejected(_)), "{err}");
        let s = store.stats();
        assert_eq!(s.edits, 0);
        assert_eq!(s.edits_rejected, 1);
        // The document is untouched.
        assert_eq!(store.epoch(id).unwrap(), {
            let mut g2 = corpus::figure1::goddag();
            corpus::dtds::attach_standard(&mut g2);
            g2.edit_epoch()
        });
    }

    #[test]
    fn unknown_hierarchy_is_an_error() {
        let (store, id) = figure1_store();
        let err = store
            .edit(
                id,
                EditOp::InsertElement {
                    hierarchy: "nope".into(),
                    tag: "w".into(),
                    attrs: vec![],
                    start: 0,
                    end: 1,
                },
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::UnknownHierarchy(_)));
    }

    #[test]
    fn query_value_materializes_non_nodesets() {
        let (store, id) = figure1_store();
        match store.query_value(id, "count(//ling:w)").unwrap() {
            OwnedValue::Number(n) => assert!(n > 0.0),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(store.query(id, "count(//ling:w)"), Err(StoreError::NotANodeSet(_))));
    }

    #[test]
    fn query_all_covers_every_document() {
        let store = Store::new();
        let ids = store.insert_all((0..5).map(|_| corpus::figure1::goddag()));
        let results = store.query_all("//ling:w").unwrap();
        assert_eq!(results.len(), 5);
        assert_eq!(results.iter().map(|(id, _)| *id).collect::<Vec<_>>(), ids);
        let serial = store.query_all_serial("//ling:w").unwrap();
        assert_eq!(results, serial);
    }

    #[test]
    fn warm_and_invalidate() {
        let (store, id) = figure1_store();
        store.warm(id).unwrap();
        assert_eq!(store.stats().warm_indexes, 1);
        store.invalidate_indexes();
        assert_eq!(store.stats().warm_indexes, 0);
        store.warm_all();
        assert_eq!(store.stats().warm_indexes, 1);
        // warm + query = one build, one hit.
        store.invalidate_indexes();
        let s0 = store.stats();
        store.warm(id).unwrap();
        store.query(id, "//ling:w").unwrap();
        let s1 = store.stats();
        assert_eq!(s1.index_builds - s0.index_builds, 1);
        assert!(s1.index_hits > s0.index_hits);
    }

    #[test]
    fn query_cache_evicts_least_recently_used() {
        let store = Store::with_query_cache_capacity(3);
        store.insert(corpus::figure1::goddag());
        store.compile("//a").unwrap();
        store.compile("//b").unwrap();
        store.compile("//c").unwrap();
        // Touch a and c so b becomes the LRU entry...
        store.compile("//a").unwrap();
        store.compile("//c").unwrap();
        // ...then overflow the cache: b must be the one evicted.
        store.compile("//d").unwrap();
        assert_eq!(store.stats().compiled_queries, 3);
        let misses = store.stats().query_cache_misses;
        store.compile("//a").unwrap();
        store.compile("//c").unwrap();
        store.compile("//d").unwrap();
        assert_eq!(store.stats().query_cache_misses, misses, "a, c, d must still be cached");
        store.compile("//b").unwrap();
        assert_eq!(store.stats().query_cache_misses, misses + 1, "b must have been evicted");
    }

    #[test]
    fn query_cache_capacity_is_enforced() {
        let store = Store::with_query_cache_capacity(2);
        for expr in ["//a", "//b", "//c", "//d", "//a", "//c"] {
            store.compile(expr).unwrap();
        }
        assert_eq!(store.stats().compiled_queries, 2);
    }

    #[test]
    fn suggest_tags_serves_from_cached_engine() {
        let store = Store::new();
        let mut g = corpus::figure1::goddag();
        corpus::dtds::attach_standard(&mut g);
        let id = store.insert(g);
        // A two-word range inside the ling sentence: phrase fits there.
        let (start, end) = store
            .with_doc(id, |g| {
                let ws = g.find_elements("w");
                (g.char_range(ws[0]).0, g.char_range(ws[1]).1)
            })
            .unwrap();
        let tags = store.suggest_tags(id, "ling", start, end).unwrap();
        assert!(tags.contains(&"phrase".to_string()), "{tags:?}");
        // Every suggested tag passes the gate; a non-suggested one is
        // rejected by it.
        for tag in store
            .with_doc(id, |g| {
                let h = g.hierarchy_by_name("ling").unwrap();
                g.hierarchy(h)
                    .unwrap()
                    .dtd
                    .clone()
                    .unwrap()
                    .elements
                    .keys()
                    .cloned()
                    .collect::<Vec<_>>()
            })
            .unwrap()
        {
            let gate = store.edit(
                id,
                EditOp::InsertElement {
                    hierarchy: "ling".into(),
                    tag: tag.clone(),
                    attrs: vec![],
                    start,
                    end,
                },
            );
            assert_eq!(gate.is_ok(), tags.contains(&tag), "tag {tag}");
            if let Ok(out) = gate {
                // Undo so each candidate sees the same document.
                store.edit(id, EditOp::RemoveElement(out.node.unwrap())).unwrap();
            }
        }
        // No DTD -> no suggestions; unknown hierarchy -> error.
        let bare = store.insert(corpus::figure1::goddag());
        assert!(store.suggest_tags(bare, "ling", start, end).unwrap().is_empty());
        assert!(matches!(
            store.suggest_tags(id, "nope", start, end),
            Err(StoreError::UnknownHierarchy(_))
        ));
    }

    #[test]
    fn remove_cleans_every_name_binding() {
        // Pinned for the persistence layer: a removed document must not
        // leave stale name → id entries behind, even under aliases.
        let store = Store::new();
        let id = store.insert_named("a", corpus::figure1::goddag());
        store.bind_name("alias", id).unwrap();
        assert_eq!(store.id_by_name("alias").unwrap(), id);
        assert!(store.remove(id));
        assert!(store.id_by_name("a").is_err());
        assert!(store.id_by_name("alias").is_err());
        assert!(store.name_bindings().is_empty());
    }

    #[test]
    fn remove_named_drops_doc_and_bindings() {
        let store = Store::new();
        let id = store.insert_named("ms", corpus::figure1::goddag());
        let keep = store.insert_named("other", corpus::figure1::goddag());
        assert_eq!(store.remove_named("ms").unwrap(), id);
        assert!(!store.contains(id));
        assert!(store.id_by_name("ms").is_err());
        assert!(matches!(store.remove_named("ms"), Err(StoreError::NoSuchName(_))));
        // Unrelated documents and bindings survive.
        assert_eq!(store.id_by_name("other").unwrap(), keep);
    }

    #[test]
    fn insert_with_id_revives_handles_and_reserves_allocator() {
        let store = Store::new();
        let id = store.insert(corpus::figure1::goddag());
        // Re-inserting a live id fails.
        assert!(matches!(
            store.insert_with_id(id, corpus::figure1::goddag()),
            Err(StoreError::IdInUse(_))
        ));
        // A far-future id succeeds and pushes the allocator past itself.
        let revived = DocId::from_raw(17);
        store.insert_with_id(revived, corpus::figure1::goddag()).unwrap();
        assert!(store.contains(revived));
        assert_eq!(store.next_doc_raw(), 18);
        assert_eq!(store.insert(corpus::figure1::goddag()).raw(), 18);
        // reserve_doc_ids only ever moves forward.
        store.reserve_doc_ids(5);
        assert_eq!(store.next_doc_raw(), 19);
        store.reserve_doc_ids(100);
        assert_eq!(store.next_doc_raw(), 100);
        // Insertion order stays id order across shards.
        assert_eq!(store.doc_ids(), vec![id, revived, DocId::from_raw(18)]);
    }

    #[test]
    fn aligned_allocation_stays_in_its_residue_class() {
        let store = Store::new();
        // Shard-style allocation: three residue classes mod 3.
        for residue in [0u64, 1, 2] {
            for _ in 0..4 {
                let raw = store.allocate_doc_raw_aligned(3, residue);
                assert_eq!(raw % 3, residue);
                store.insert_with_id(DocId::from_raw(raw), corpus::figure1::goddag()).unwrap();
            }
        }
        // Ids are unique and the allocator is past all of them.
        let ids = store.doc_ids();
        assert_eq!(ids.len(), 12);
        assert!(store.next_doc_raw() > ids.last().unwrap().raw());
        // Plain inserts interleave without colliding.
        let plain = store.insert(corpus::figure1::goddag());
        assert!(!ids.contains(&plain));
        // modulus <= 1 degrades to plain allocation.
        let a = store.allocate_doc_raw_aligned(1, 0);
        let b = store.allocate_doc_raw_aligned(0, 0);
        assert!(b > a);
        // Aligned allocation under contention mints distinct ids.
        let store = Arc::new(Store::new());
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                (0..50).map(|_| store.allocate_doc_raw_aligned(4, t % 4)).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 200, "no id minted twice");
    }

    #[test]
    fn unbind_name_detaches_only_the_binding() {
        let store = Store::new();
        let id = store.insert_named("ms", corpus::figure1::goddag());
        store.bind_name("alias", id).unwrap();
        assert_eq!(store.unbind_name("ms"), Some(id));
        assert_eq!(store.unbind_name("ms"), None, "already unbound");
        assert_eq!(store.unbind_name("never-bound"), None);
        // The document and its other bindings survive.
        assert!(store.contains(id));
        assert_eq!(store.id_by_name("alias").unwrap(), id);
        assert!(store.id_by_name("ms").is_err());
    }

    #[test]
    fn stats_absorb_sums_and_takes_worst_lag() {
        let a = Store::new();
        a.insert(corpus::figure1::goddag());
        a.query_all("//w").unwrap();
        let b = Store::new();
        b.insert(corpus::figure1::goddag());
        b.insert(corpus::figure1::goddag());
        let mut total = a.stats();
        let mut sb = b.stats();
        sb.repl_lag = 7;
        total.repl_lag = 3;
        total.absorb(&sb);
        assert_eq!(total.docs, 3);
        assert_eq!(total.batch_queries, 1);
        assert_eq!(total.repl_lag, 7, "lag aggregates as the worst shard");
    }

    #[test]
    fn doc_ids_deterministic_across_shards() {
        let store = Store::new();
        let ids = store.insert_all((0..40).map(|_| corpus::figure1::goddag()));
        assert_eq!(store.doc_ids(), ids);
        assert_eq!(store.len(), 40);
        // Remove a scattering and re-check order.
        for i in [0usize, 7, 13, 31] {
            assert!(store.remove(ids[i]));
        }
        let expect: Vec<DocId> = ids
            .iter()
            .enumerate()
            .filter(|(i, _)| ![0usize, 7, 13, 31].contains(i))
            .map(|(_, id)| *id)
            .collect();
        assert_eq!(store.doc_ids(), expect);
        assert_eq!(
            store.entries().iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            expect,
            "entries() must match doc_ids() ordering"
        );
    }

    #[test]
    fn edit_with_log_sees_op_before_mutation_and_can_abort() {
        let (store, id) = figure1_store();
        let epoch0 = store.epoch(id).unwrap();
        // Logger observes the op and the pre-edit epoch.
        let mut seen = None;
        let out = store
            .edit_with_log(id, EditOp::InsertText { offset: 0, text: "X".into() }, |op, epoch| {
                seen = Some((op.clone(), epoch));
                Ok::<(), std::convert::Infallible>(())
            })
            .unwrap()
            .unwrap();
        assert_eq!(seen.as_ref().unwrap().1, epoch0);
        assert!(out.epoch > epoch0);
        // A failing logger aborts the edit entirely.
        let err =
            store.edit_with_log(id, EditOp::InsertText { offset: 0, text: "Y".into() }, |_, _| {
                Err("disk full")
            });
        assert_eq!(err.unwrap_err(), "disk full");
        assert!(store.with_doc(id, |g| g.content().starts_with('X')).unwrap());
        assert_eq!(store.stats().edits, 1);
    }

    #[test]
    fn edit_with_log_gate_rejections_never_reach_the_logger() {
        let store = Store::new();
        let mut g = corpus::figure1::goddag();
        corpus::dtds::attach_standard(&mut g);
        let id = store.insert(g);
        let mut logged = 0;
        let res = store
            .edit_with_log(
                id,
                EditOp::InsertElement {
                    hierarchy: "ling".into(),
                    tag: "nonsense".into(),
                    attrs: vec![],
                    start: 0,
                    end: 3,
                },
                |_, _| {
                    logged += 1;
                    Ok::<(), std::convert::Infallible>(())
                },
            )
            .unwrap();
        assert!(matches!(res, Err(StoreError::EditRejected(_))));
        assert_eq!(logged, 0, "gate-rejected ops must not hit the WAL");
        // Same for unknown hierarchies and syntactically invalid tags.
        for op in [
            EditOp::InsertElement {
                hierarchy: "nope".into(),
                tag: "w".into(),
                attrs: vec![],
                start: 0,
                end: 1,
            },
            EditOp::InsertElement {
                hierarchy: "ling".into(),
                tag: "not a name".into(),
                attrs: vec![],
                start: 0,
                end: 1,
            },
        ] {
            let res = store
                .edit_with_log(id, op, |_, _| {
                    logged += 1;
                    Ok::<(), std::convert::Infallible>(())
                })
                .unwrap();
            assert!(res.is_err());
            assert_eq!(logged, 0);
        }
    }

    #[test]
    fn exposition_covers_stats_histograms_and_events() {
        let store = Store::new();
        let mut g = corpus::figure1::goddag();
        corpus::dtds::attach_standard(&mut g);
        let id = store.insert(g);
        store.query(id, "//ling:w").unwrap();
        store.query_all("//ling:w").unwrap();
        store.edit(id, EditOp::InsertText { offset: 0, text: "X".into() }).unwrap();
        let rejected = store.edit(
            id,
            EditOp::InsertElement {
                hierarchy: "ling".into(),
                tag: "nonsense".into(),
                attrs: vec![],
                start: 0,
                end: 3,
            },
        );
        assert!(rejected.is_err());
        let text = store.exposition();
        for line in ["cx_docs 1", "cx_edits_total 1", "cx_edits_rejected_total 1"] {
            assert!(text.contains(&format!("{line}\n")), "missing {line:?} in:\n{text}");
        }
        use cxobs::names::{EDIT_NS, GATE_NS, QUERY_ALL_NS, QUERY_NS};
        for hist in [EDIT_NS, GATE_NS, QUERY_NS, QUERY_ALL_NS] {
            let name = hist.as_str();
            assert!(text.contains(&format!("{name}_count ")), "missing {name} in:\n{text}");
            assert!(store.registry().histogram(hist).count() > 0, "{name} never recorded");
        }
        // The gate rejection left a post-mortem event behind.
        let events = store.registry().events().recent();
        assert!(events.iter().any(|e| e.kind == "gate.reject"), "{events:?}");
        // A disabled registry records nothing but still renders.
        let off = Store::with_registry(Arc::new(cxobs::Registry::disabled()));
        let id = off.insert(corpus::figure1::goddag());
        off.query(id, "//w").unwrap();
        assert_eq!(off.registry().histogram(QUERY_NS).count(), 0);
        assert!(off.exposition().contains("cx_query_ns_count 0\n"));
    }

    #[test]
    fn with_doc_mut_moves_epoch() {
        let (store, id) = figure1_store();
        let before = store.epoch(id).unwrap();
        store
            .with_doc_mut(id, |g| {
                g.insert_text(0, "X").unwrap();
            })
            .unwrap();
        assert!(store.epoch(id).unwrap() > before);
        assert!(store.with_doc(id, |g| g.content().starts_with('X')).unwrap());
    }
}
