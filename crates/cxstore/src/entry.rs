//! Per-document state: the GODDAG under its lock, and the epoch-validated
//! caches that ride along with it.

use crate::stats::Counters;
use expath::OverlapIndex;
use goddag::Goddag;
use prevalid::PrevalidEngine;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// One document slot. The `doc` lock orders all access; the caches are
/// guarded separately and validated lazily against the document's edit
/// epoch, so writers never have to touch them.
pub(crate) struct DocEntry {
    /// The document itself. Many readers or one writer.
    pub(crate) doc: RwLock<Goddag>,
    /// `(epoch, index)` — the overlap index built at that edit epoch, or
    /// `None` before the first query / after `invalidate`.
    index: Mutex<Option<(u64, Arc<OverlapIndex>)>>,
    /// Prevalidation engines by hierarchy index. An engine compiles the
    /// hierarchy DTD's Glushkov automata, which is worth amortizing across
    /// edits. Cleared whenever the DTD might have changed
    /// (`Store::with_doc_mut`).
    engines: Mutex<HashMap<u16, Arc<PrevalidEngine>>>,
}

/// Poison-tolerant lock helpers — the store's one policy for panicked
/// guard holders (audited per site; `cxobs::fault::Fault::Panic` fires inside
/// held guards on purpose to exercise exactly this cascade):
///
/// * **`doc` (RwLock<Goddag>)** — a writer panicking mid-edit can only
///   do so *before* the op applies (prevalidation, offset resolution)
///   or *after* it applied whole: the `Goddag` mutators either return
///   `Err` or complete, so a recovered guard always sees a document at
///   an op boundary. Refusing reads here would turn one poked thread
///   into a store-wide outage.
/// * **`index` / `engines` (Mutex)** — pure caches keyed by edit epoch;
///   a half-built entry from a panicked builder fails its epoch check
///   and is rebuilt. Worst case is a redundant rebuild, never a wrong
///   answer.
///
/// Statistics and shutdown paths additionally rely on these helpers to
/// drain state after a deliberate test panic.
pub(crate) fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn mutex_lock<T>(l: &Mutex<T>) -> MutexGuard<'_, T> {
    l.lock().unwrap_or_else(PoisonError::into_inner)
}

impl DocEntry {
    pub(crate) fn new(g: Goddag) -> DocEntry {
        DocEntry {
            doc: RwLock::new(g),
            index: Mutex::new(None),
            engines: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn read(&self) -> RwLockReadGuard<'_, Goddag> {
        read_lock(&self.doc)
    }

    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, Goddag> {
        write_lock(&self.doc)
    }

    /// The overlap index for the document as seen by `g` (a held read or
    /// write guard, which is what makes the epoch comparison race-free):
    /// cached when the epoch still matches, rebuilt and re-cached otherwise.
    pub(crate) fn index_for(&self, g: &Goddag, counters: &Counters) -> Arc<OverlapIndex> {
        let epoch = g.edit_epoch();
        let mut slot = mutex_lock(&self.index);
        if let Some((built_at, idx)) = slot.as_ref() {
            if *built_at == epoch {
                counters.index_hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(idx);
            }
        }
        let idx = Arc::new(OverlapIndex::build(g));
        counters.index_builds.fetch_add(1, Ordering::Relaxed);
        *slot = Some((epoch, Arc::clone(&idx)));
        idx
    }

    /// Drop the cached index (bench cold paths; also frees memory for
    /// documents that stopped receiving queries).
    pub(crate) fn invalidate_index(&self) {
        *mutex_lock(&self.index) = None;
    }

    /// True when a cached index exists for the current epoch.
    pub(crate) fn index_is_warm(&self, g: &Goddag) -> bool {
        mutex_lock(&self.index).as_ref().is_some_and(|(built_at, _)| *built_at == g.edit_epoch())
    }

    /// The prevalidation engine for hierarchy `h` of `g`, if that hierarchy
    /// carries a DTD. Built once per entry and reused across edits.
    pub(crate) fn engine_for(
        &self,
        g: &Goddag,
        h: goddag::HierarchyId,
    ) -> Option<Arc<PrevalidEngine>> {
        let dtd = g.hierarchy(h).ok()?.dtd.clone()?;
        let mut engines = mutex_lock(&self.engines);
        Some(Arc::clone(
            engines.entry(h.idx() as u16).or_insert_with(|| Arc::new(PrevalidEngine::new(dtd))),
        ))
    }

    /// Forget cached engines (after arbitrary mutation that may have
    /// swapped DTDs).
    pub(crate) fn invalidate_engines(&self) {
        mutex_lock(&self.engines).clear();
    }
}
