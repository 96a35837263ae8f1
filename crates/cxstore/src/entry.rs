//! Per-document state: the GODDAG under its lock, the epoch-validated
//! overlap index, and the document's prevalidation engines.

use crate::stats::StoreMetrics;
use cxobs::sync::{Level, Mutex, RwLock};
use expath::OverlapIndex;
use goddag::Goddag;
use prevalid::DocEngines;
use std::sync::Arc;

/// One document slot. The `doc` lock orders all access; the index is
/// guarded separately and validated lazily against the document's edit
/// epoch, so writers never have to touch it.
pub(crate) struct DocEntry {
    /// The document itself. Many readers or one writer.
    pub(crate) doc: RwLock<Goddag>,
    /// `(epoch, index)` — the overlap index built at that edit epoch, or
    /// `None` before the first query.
    index: Mutex<Option<(u64, Arc<OverlapIndex>)>>,
    /// The prevalidation gate: one engine per hierarchy with a DTD,
    /// compiled on first use and written once, so it needs no lock of its
    /// own. Never invalidated: no [`crate::EditOp`] adds a hierarchy or
    /// changes a DTD, so both are fixed from insert on.
    pub(crate) engines: DocEngines,
}

impl DocEntry {
    pub(crate) fn new(g: Goddag) -> DocEntry {
        DocEntry {
            engines: DocEngines::new(&g),
            doc: RwLock::new(Level::Doc, g),
            index: Mutex::new(Level::Index, None),
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
}
