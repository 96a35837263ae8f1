//! Applying a logged record to a live store — the one path crash recovery
//! and replication followers share, so the two cannot drift apart on what
//! a record means.

use crate::codec::WalOp;
use cxstore::Store;
use std::collections::HashSet;

/// What [`apply_logged`] did with a record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// The operation took effect.
    Done,
    /// The operation re-failed exactly as it did when it was logged (the
    /// log runs ahead of the mutation, so an op that failed structurally
    /// after its append — or raced a removal of its document — fails the
    /// same way here). The store is unchanged and the record is consumed.
    Rejected,
}

/// Apply record `lsn` to `store`. `removed` collects the documents the log
/// has removed so far (the caller keeps it for as long as it keeps applying
/// one log).
///
/// Edits bypass the prevalidation gate — the writer's gate already passed
/// every logged op, gate-rejected edits never reach the log — but their
/// recorded pre-op epoch is verified against the live document. `Err` means
/// the store's history is not the log's: recovery reports it as corruption,
/// a replica as divergence, and neither applies anything further.
pub fn apply_logged(
    store: &Store,
    lsn: u64,
    op: WalOp,
    removed: &mut HashSet<u64>,
) -> Result<Applied, String> {
    let at = |detail: String| format!("record {lsn}: {detail}");
    // A failure the log itself explains: the op was logged, then failed.
    let tolerated = |ok: bool| if ok { Applied::Done } else { Applied::Rejected };
    Ok(match op {
        WalOp::Edit { doc, epoch, op } => {
            let cur = match store.epoch(doc) {
                Ok(cur) => cur,
                // An edit may be logged just after a concurrent remove of
                // the same document (the remove appends under the store
                // gate, not the document lock): the outcome was a mutation
                // on an already-detached entry, observably gone either
                // way. Only an edit to a document the log never removed
                // means the histories differ.
                Err(_) if removed.contains(&doc.raw()) => return Ok(Applied::Rejected),
                Err(_) => return Err(at(format!("edit targets unknown document {doc}"))),
            };
            if cur != epoch {
                return Err(at(format!("{doc}: log expects epoch {epoch}, document is at {cur}")));
            }
            tolerated(store.apply_replicated(doc, op).is_ok())
        }
        WalOp::DocInsert { doc, name, blob } => {
            let g = blob.restore().map_err(|e| at(format!("insert: {e}")))?;
            store.insert_with_id(doc, g).map_err(|e| at(format!("insert: {e}")))?;
            if let Some(name) = name {
                store.bind_name(name, doc).map_err(|e| at(format!("bind: {e}")))?;
            }
            Applied::Done
        }
        WalOp::DocRemove { doc } => {
            store.remove(doc);
            removed.insert(doc.raw());
            Applied::Done
        }
        // Same remove-race tolerance as edits.
        WalOp::BindName { doc, name } => tolerated(store.bind_name(name, doc).is_ok()),
        WalOp::UnbindName { name } => {
            // Unbinding an unbound name is a no-op, not a difference (a
            // snapshot may already reflect the unbind).
            store.unbind_name(&name);
            Applied::Done
        }
    })
}
