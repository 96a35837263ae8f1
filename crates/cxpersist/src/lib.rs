//! # cxpersist — durable stores for concurrent XML
//!
//! The framework's stand-off serialization (`sacx::export_standoff`) is the
//! natural on-disk form of a GODDAG — base text plus `(hierarchy, tag,
//! range)` records — but the `cxstore` repository is memory-only: a restart
//! loses every document and every gated edit. This crate makes a store
//! durable and warm-restartable:
//!
//! * **Write-ahead log** — every mutation ([`cxstore::EditOp`], document
//!   insert/remove, name bindings) is encoded as a compact, versioned,
//!   line-oriented record with a per-record CRC-32 and a monotonic LSN, and
//!   appended — under the document's write lock, after validation, *before*
//!   the mutation — via `cxstore::Store::edit_with_log`. Fsync cadence is a
//!   [`FsyncPolicy`]: every op, or never automatically. A document
//!   enters only through [`DurableStore::admit`], as a [`LoggedDoc`] whose
//!   blob is logged verbatim — a received blob is restored once, never
//!   captured again.
//! * **Snapshots** — [`DurableStore::checkpoint`] writes each document as a
//!   [`DocBlob`] (stand-off text + hierarchy DTDs + the id layout and edit
//!   epoch that make replay deterministic) plus a CRC-guarded manifest,
//!   atomically (`.tmp` + rename). Retention keeps two generations: the
//!   previous snapshot survives as a fallback, and the log drops only the
//!   prefix both snapshots cover — so a later-damaged snapshot still
//!   recovers to the exact same state from the older snapshot + log tail.
//! * **Incremental checkpoints** — a checkpoint re-captures only the
//!   documents whose edit epoch changed since the previous validated
//!   generation; unchanged blobs are hard-linked (or copied) from it, so
//!   checkpoint cost scales with the dirty set.
//! * **Log shipping surface** — [`DurableStore::wal_tail`] slices
//!   LSN-contiguous record bytes for replication followers,
//!   [`DurableStore::capture_snapshot`] produces a shippable
//!   [`StoreSnapshot`] bootstrap, [`scan_batch`] decodes a shipped batch
//!   tolerating a torn tail, and [`DurableStore::adopt`] turns an applied
//!   replica state into a new writable store (follower promotion). The
//!   `cxrepl` crate builds the primary/replica/transport layer on these.
//! * **Recovery** — [`DurableStore::open`] loads the newest snapshot that
//!   validates end-to-end (falling back to older ones), replays the log
//!   tail past the snapshot LSN, verifies every replayed edit's recorded
//!   epoch against the live document (divergence refuses to open rather
//!   than serve wrong data), and drops only a torn/CRC-failed tail.
//!
//! The recovered store is equivalent to the pre-crash store down to node
//! ids, edit epochs, and byte-identical stand-off exports — pinned by the
//! crate's kill-and-recover tests.
//!
//! ```no_run
//! use cxpersist::DurableStore;
//! use cxstore::EditOp;
//!
//! let store = DurableStore::open("/var/lib/cxml/corpus")?;
//! let id = store.insert_named("ms", corpus::figure1::goddag())?;
//! store.edit(id, EditOp::InsertText { offset: 0, text: "swa ".into() })?;
//! store.checkpoint()?;
//! // …process dies, restarts…
//! let store = DurableStore::open("/var/lib/cxml/corpus")?;
//! assert_eq!(store.store().id_by_name("ms")?, id);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod apply;
mod blob;
mod codec;
mod durable;
mod error;
mod snapshot;

pub use apply::{apply_logged, Applied};
pub use blob::{DocBlob, LoggedDoc};
pub use codec::{
    crc32, decode_record, encode_record, scan, scan_batch, scan_tail, BatchScan, WalOp, WalRecord,
    WalScan, WAL_HEADER,
};
pub use durable::{
    CheckpointInfo, Claim, DurableStore, FsyncPolicy, Options, RecoveryReport, StoreHealth,
    TailShipment, WalPosition,
};
pub use error::{PersistError, Result};
pub use snapshot::{Manifest, ManifestDoc, StoreSnapshot};
