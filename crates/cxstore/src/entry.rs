//! Per-document state: the GODDAG under its lock, and the epoch-validated
//! caches that ride along with it.

use crate::stats::StoreMetrics;
use cxobs::sync::{Level, Mutex, RwLock};
use expath::OverlapIndex;
use goddag::Goddag;
use prevalid::PrevalidEngine;
use std::collections::HashMap;
use std::sync::Arc;

/// One document slot. The `doc` lock orders all access; the caches are
/// guarded separately and validated lazily against the document's edit
/// epoch, so writers never have to touch them.
pub(crate) struct DocEntry {
    /// The document itself. Many readers or one writer.
    pub(crate) doc: RwLock<Goddag>,
    /// `(epoch, index)` — the overlap index built at that edit epoch, or
    /// `None` before the first query.
    index: Mutex<Option<(u64, Arc<OverlapIndex>)>>,
    /// Prevalidation engines by hierarchy index. An engine compiles the
    /// hierarchy DTD's Glushkov automata, which is worth amortizing across
    /// edits. Never invalidated: no [`crate::EditOp`] changes a DTD, so a
    /// hierarchy's DTD is fixed from insert on.
    engines: Mutex<HashMap<u16, Arc<PrevalidEngine>>>,
}

impl DocEntry {
    pub(crate) fn new(g: Goddag) -> DocEntry {
        DocEntry {
            doc: RwLock::new(Level::Doc, g),
            index: Mutex::new(Level::Index, None),
            engines: Mutex::new(Level::Engines, HashMap::new()),
        }
    }

    /// The overlap index for the document as seen by `g` (a held read or
    /// write guard, which is what makes the epoch comparison race-free):
    /// cached when the epoch still matches, rebuilt and re-cached otherwise.
    pub(crate) fn index_for(&self, g: &Goddag, metrics: &StoreMetrics) -> Arc<OverlapIndex> {
        let epoch = g.edit_epoch();
        let mut slot = self.index.lock();
        if let Some((built_at, idx)) = slot.as_ref() {
            if *built_at == epoch {
                metrics.index_hits.bump();
                return Arc::clone(idx);
            }
        }
        let idx = Arc::new(OverlapIndex::build(g));
        metrics.index_builds.bump();
        *slot = Some((epoch, Arc::clone(&idx)));
        idx
    }

    /// True when a cached index exists for the current epoch.
    pub(crate) fn index_is_warm(&self, g: &Goddag) -> bool {
        self.index.lock().as_ref().is_some_and(|(built_at, _)| *built_at == g.edit_epoch())
    }

    /// The prevalidation engine for hierarchy `h` of `g`, if that hierarchy
    /// carries a DTD. Built once per entry and reused across edits; the DTD
    /// is cloned only to build it.
    pub(crate) fn engine_for(
        &self,
        g: &Goddag,
        h: goddag::HierarchyId,
    ) -> Option<Arc<PrevalidEngine>> {
        let dtd = g.hierarchy(h).ok()?.dtd.as_ref()?;
        let mut engines = self.engines.lock();
        Some(Arc::clone(
            engines
                .entry(h.idx() as u16)
                .or_insert_with(|| Arc::new(PrevalidEngine::new(dtd.clone()))),
        ))
    }
}
