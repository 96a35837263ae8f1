//! Checkpoints: one directory per snapshot, holding a CRC-guarded manifest
//! plus one [`DocBlob`] file per document.
//!
//! Layout under the store directory:
//!
//! ```text
//! store/
//!   wal.log               ← the write-ahead log (codec.rs)
//!   snap-0000000000000042/
//!     manifest.txt        ← lsn, id allocator, doc table, name bindings
//!     doc-0.blob          ← DocBlob text, one per document
//!     doc-3.blob
//! ```
//!
//! A snapshot is written to a `.tmp` directory first and renamed into
//! place, so a crash mid-checkpoint leaves either the old state or a fully
//! formed new directory; the loader additionally validates the manifest
//! CRC and every blob before trusting a snapshot, falling back to the next
//! newest otherwise.

use crate::blob::DocBlob;
use crate::codec::crc32;
use crate::error::{PersistError, Result};
use cxobs::fault::{self, Site};
use cxstore::{DocId, Store};
use sacx::{escape_field, Tokens};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

/// Magic first line of a manifest.
const MANIFEST_HEADER: &str = "#cxmanifest v1";

/// One document listed in a [`Manifest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestDoc {
    /// Raw [`DocId`].
    pub doc: u64,
    /// Edit epoch at snapshot time (cross-checked against the blob).
    pub epoch: u64,
    /// Blob file name within the snapshot directory.
    pub file: String,
}

/// The snapshot manifest: everything the store needs besides the blobs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// WAL position the snapshot captures: recovery replays only records
    /// with a larger LSN.
    pub lsn: u64,
    /// Doc-id allocator position (ids are never reused, even across
    /// restarts).
    pub next_doc: u64,
    /// Documents, in id order.
    pub docs: Vec<ManifestDoc>,
    /// `name → raw id` bindings, sorted by name.
    pub names: Vec<(String, u64)>,
}

impl Manifest {
    /// Serialize with a trailing CRC line.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(MANIFEST_HEADER);
        out.push('\n');
        let _ = writeln!(out, "lsn {}", self.lsn);
        let _ = writeln!(out, "next {}", self.next_doc);
        for d in &self.docs {
            let _ = writeln!(out, "doc {} {} {}", d.doc, d.epoch, escape_field(&d.file));
        }
        for (n, id) in &self.names {
            let _ = writeln!(out, "name {} {id}", escape_field(n));
        }
        let crc = crc32(out.as_bytes());
        let _ = writeln!(out, "crc {crc:08x}");
        out
    }

    /// Parse and CRC-verify.
    pub fn parse_text(input: &str) -> Result<Manifest> {
        let bad = |line: usize, detail: String| PersistError::Codec { line, detail };
        let stripped = input.strip_suffix('\n').unwrap_or(input);
        let (body, footer) =
            stripped.rsplit_once('\n').ok_or_else(|| bad(1, "manifest too short".into()))?;
        let body = format!("{body}\n");
        let crc_expect = footer
            .strip_prefix("crc ")
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| bad(0, "missing manifest crc".into()))?;
        if crc32(body.as_bytes()) != crc_expect {
            return Err(bad(0, "manifest CRC mismatch".into()));
        }
        let mut lines = body.lines().enumerate();
        let (_, header) = lines.next().ok_or_else(|| bad(1, "empty manifest".into()))?;
        if header.trim() != MANIFEST_HEADER {
            return Err(bad(1, "bad manifest magic".into()));
        }
        let mut m = Manifest::default();
        let mut saw_lsn = false;
        for (i, line) in lines {
            let mut t = Tokens::new(line);
            let mut directive = || -> std::result::Result<(), String> {
                match t.token("directive")? {
                    "lsn" => {
                        m.lsn = t.parse("lsn")?;
                        saw_lsn = true;
                    }
                    "next" => m.next_doc = t.parse("next id")?,
                    "doc" => m.docs.push(ManifestDoc {
                        doc: t.parse("doc id")?,
                        epoch: t.parse("epoch")?,
                        file: t.string("blob file")?,
                    }),
                    "name" => m.names.push((t.string("name")?, t.parse("doc id")?)),
                    other => return Err(format!("unknown manifest directive {other:?}")),
                }
                Ok(())
            };
            directive().map_err(|detail| bad(i + 1, detail))?;
        }
        if !saw_lsn {
            return Err(bad(0, "manifest missing lsn".into()));
        }
        Ok(m)
    }
}

// ---------------------------------------------------------------------
// Wire snapshots (replication bootstrap)
// ---------------------------------------------------------------------

/// A complete store state as one shippable artifact: the replication
/// bootstrap form. Where on-disk snapshots spread a manifest plus one blob
/// file per document across a directory, a `StoreSnapshot` carries the
/// same information — WAL position, id-allocator position, every
/// document's [`DocBlob`], the name bindings — in a single self-delimiting
/// text so it can travel over a byte transport. Blob integrity rides on
/// each blob's own CRC footer; the trailing `end` line guards against
/// truncation of the artifact as a whole.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreSnapshot {
    /// WAL position the snapshot captures: shipped records with a larger
    /// LSN apply on top.
    pub lsn: u64,
    /// Doc-id allocator position.
    pub next_doc: u64,
    /// `(raw id, blob)` per document, in id order.
    pub docs: Vec<(u64, DocBlob)>,
    /// `name → raw id` bindings, sorted by name.
    pub names: Vec<(String, u64)>,
}

impl StoreSnapshot {
    /// Capture a consistent snapshot of `store` at WAL position `lsn`.
    /// The caller is responsible for quiescing mutators (the durable
    /// store's checkpoint gate) so the captured state actually is the
    /// state at `lsn`.
    pub fn capture(store: &Store, lsn: u64) -> Result<StoreSnapshot> {
        let mut docs = Vec::new();
        for id in store.doc_ids() {
            docs.push((id.raw(), store.with_doc(id, DocBlob::capture)?));
        }
        Ok(StoreSnapshot {
            lsn,
            next_doc: store.next_doc_raw(),
            docs,
            names: store.name_bindings().into_iter().map(|(n, id)| (n, id.raw())).collect(),
        })
    }

    /// Load the snapshot into an *empty* store (the receiver clears its
    /// state first when re-bootstrapping).
    pub fn restore_into(&self, store: &Store) -> Result<()> {
        for (raw, blob) in &self.docs {
            let g = blob.restore()?;
            store.insert_with_id(DocId::from_raw(*raw), g)?;
        }
        for (name, id) in &self.names {
            store.bind_name(name.clone(), DocId::from_raw(*id))?;
        }
        store.reserve_doc_ids(self.next_doc);
        Ok(())
    }

    /// Serialize to the wire text form.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("#cxsnap v1\n");
        let _ = writeln!(out, "lsn {}", self.lsn);
        let _ = writeln!(out, "next {}", self.next_doc);
        for (name, id) in &self.names {
            let _ = writeln!(out, "name {} {id}", escape_field(name));
        }
        for (raw, blob) in &self.docs {
            let text = blob.to_text();
            let _ = writeln!(out, "doc {raw} {}", text.len());
            out.push_str(&text);
        }
        out.push_str("end\n");
        out
    }

    /// Parse the wire text form. Truncation (a missing `end` line, a short
    /// blob) and blob corruption are errors — the receiver re-requests.
    pub fn parse_text(input: &str) -> Result<StoreSnapshot> {
        let bad = |line: usize, detail: String| PersistError::Codec { line, detail };
        let mut rest = input;
        let mut ln = 0usize;
        let next_line = |rest: &mut &str| -> Option<String> {
            let i = rest.find('\n')?;
            let l = rest[..i].to_string();
            *rest = &rest[i + 1..];
            Some(l)
        };
        let header = next_line(&mut rest).ok_or_else(|| bad(1, "empty snapshot".into()))?;
        if header.trim() != "#cxsnap v1" {
            return Err(bad(1, "bad snapshot magic".into()));
        }
        let mut snap = StoreSnapshot { lsn: 0, next_doc: 0, docs: Vec::new(), names: Vec::new() };
        let mut saw_lsn = false;
        let mut complete = false;
        while let Some(line) = next_line(&mut rest) {
            ln += 1;
            let mut t = Tokens::new(&line);
            // A `doc` line is followed by its blob: `(raw id, byte length)`.
            let mut directive = || -> std::result::Result<Option<(u64, usize)>, String> {
                match t.token("directive")? {
                    "lsn" => {
                        snap.lsn = t.parse("lsn")?;
                        saw_lsn = true;
                    }
                    "next" => snap.next_doc = t.parse("next id")?,
                    "name" => snap.names.push((t.string("name")?, t.parse("doc id")?)),
                    "doc" => return Ok(Some((t.parse("doc id")?, t.parse("blob length")?))),
                    "end" => complete = true,
                    other => return Err(format!("unknown snapshot directive {other:?}")),
                }
                Ok(None)
            };
            if let Some((raw, len)) = directive().map_err(|detail| bad(ln, detail))? {
                if rest.len() < len || !rest.is_char_boundary(len) {
                    return Err(bad(ln, "blob length out of bounds".into()));
                }
                snap.docs.push((raw, DocBlob::parse_text(&rest[..len])?));
                rest = &rest[len..];
            }
            if complete {
                break;
            }
        }
        if !saw_lsn {
            return Err(bad(0, "snapshot missing lsn".into()));
        }
        if !complete {
            return Err(bad(ln, "snapshot truncated (missing end marker)".into()));
        }
        Ok(snap)
    }
}

/// `snap-<lsn, 16 hex digits>` — hex-padded so lexicographic order is
/// numeric order.
pub(crate) fn snapshot_dir_name(lsn: u64) -> String {
    format!("snap-{lsn:016x}")
}

/// Inverse of [`snapshot_dir_name`].
pub(crate) fn parse_snapshot_dir(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snap-")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Fsync a directory (so renames/creations inside it are durable).
pub(crate) fn sync_dir(path: &Path) -> std::io::Result<()> {
    fs::File::open(path)?.sync_all()
}

/// What a snapshot write did, blob by blob.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SnapshotWrite {
    /// Documents in the snapshot.
    pub docs: usize,
    /// Bytes the snapshot references (fresh and reused blobs + manifest).
    pub bytes: u64,
    /// Blobs newly captured and written (the document changed since the
    /// previous generation, or there was none).
    pub fresh_docs: usize,
    /// Blobs reused from the previous generation (hard-linked or copied —
    /// the document's edit epoch was unchanged).
    pub reused_docs: usize,
}

/// Write a complete snapshot of `store` at WAL position `lsn` into
/// `dir/snap-<lsn>`, durably. When `prev` names a *validated* previous
/// generation, any document whose edit epoch is unchanged since it reuses
/// that generation's blob file — hard-linked when the filesystem allows,
/// copied otherwise — instead of re-capturing and re-writing it, so
/// checkpoint cost scales with the dirty set, not the corpus.
pub(crate) fn write_snapshot(
    dir: &Path,
    store: &Store,
    lsn: u64,
    prev: Option<(&Path, &Manifest)>,
) -> Result<SnapshotWrite> {
    let final_path = dir.join(snapshot_dir_name(lsn));
    let tmp_path = dir.join(format!("{}.tmp", snapshot_dir_name(lsn)));
    if tmp_path.exists() {
        fs::remove_dir_all(&tmp_path)?;
    }
    fs::create_dir_all(&tmp_path)?;

    let mut docs = Vec::new();
    let mut out = SnapshotWrite::default();
    for id in store.doc_ids() {
        let file = format!("doc-{}.blob", id.raw());
        let path = tmp_path.join(&file);
        // Unchanged since the previous generation? Reuse its blob — the
        // blob capture is deterministic, so equal epochs mean a
        // byte-identical file. The previous generation was validated
        // end-to-end (blob CRCs included) before being offered here, so
        // reuse cannot launder bit rot into the new snapshot.
        let epoch = store.epoch(id)?;
        let reused = prev.and_then(|(prev_dir, m)| {
            let d = m.docs.iter().find(|d| d.doc == id.raw() && d.epoch == epoch)?;
            let src = prev_dir.join(&d.file);
            fs::hard_link(&src, &path).or_else(|_| fs::copy(&src, &path).map(|_| ())).ok()?;
            Some(fs::metadata(&path).ok().map_or(0, |m| m.len()))
        });
        let blob_bytes = match reused {
            Some(len) => {
                out.reused_docs += 1;
                len
            }
            None => {
                let blob = store.with_doc(id, DocBlob::capture)?;
                debug_assert_eq!(blob.epoch, epoch, "checkpoint gate holds mutators out");
                let text = blob.to_text();
                fs::write(&path, &text)?;
                out.fresh_docs += 1;
                text.len() as u64
            }
        };
        fs::File::open(&path)?.sync_all()?;
        out.bytes += blob_bytes;
        docs.push(ManifestDoc { doc: id.raw(), epoch, file });
    }
    let manifest = Manifest {
        lsn,
        next_doc: store.next_doc_raw(),
        docs,
        names: store.name_bindings().into_iter().map(|(n, id)| (n, id.raw())).collect(),
    };
    let text = manifest.to_text();
    out.bytes += text.len() as u64;
    let mpath = tmp_path.join("manifest.txt");
    fs::write(&mpath, &text)?;
    fs::File::open(&mpath)?.sync_all()?;
    sync_dir(&tmp_path)?;

    if final_path.exists() {
        // A previous checkpoint at the same LSN (no intervening traffic):
        // replace it.
        fs::remove_dir_all(&final_path)?;
    }
    // Failpoint: a crash/ENOSPC at the publish step. The `.tmp` directory
    // is left behind (ignored by recovery, replaced by the next attempt)
    // and the previous generation stays authoritative — exactly the
    // atomicity the rename is for.
    fault::io_check(Site::CheckpointRename)?;
    fs::rename(&tmp_path, &final_path)?;
    sync_dir(dir)?;
    out.docs = manifest.docs.len();
    Ok(out)
}

/// All snapshot directories under `dir`, newest first.
pub(crate) fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(lsn) = entry.file_name().to_str().and_then(parse_snapshot_dir) {
            if entry.file_type()?.is_dir() {
                out.push((lsn, entry.path()));
            }
        }
    }
    out.sort_by_key(|&(lsn, _)| std::cmp::Reverse(lsn));
    Ok(out)
}

/// Load one snapshot into a fresh [`Store`]. Validates the manifest CRC,
/// every blob's CRC, and the manifest-vs-blob epoch agreement; any failure
/// rejects the whole snapshot (the caller falls back to an older one).
pub(crate) fn load_snapshot(path: &Path) -> Result<(Store, Manifest)> {
    let corrupt = |detail: String| PersistError::Corrupt { path: path.to_path_buf(), detail };
    let manifest = Manifest::parse_text(&fs::read_to_string(path.join("manifest.txt"))?)?;
    let store = Store::new();
    for d in &manifest.docs {
        let blob = DocBlob::parse_text(&fs::read_to_string(path.join(&d.file))?)?;
        if blob.epoch != d.epoch {
            return Err(corrupt(format!(
                "doc {}: blob epoch {} disagrees with manifest epoch {}",
                d.doc, blob.epoch, d.epoch
            )));
        }
        let g = blob.restore()?;
        store.insert_with_id(DocId::from_raw(d.doc), g)?;
    }
    for (name, id) in &manifest.names {
        store
            .bind_name(name.clone(), DocId::from_raw(*id))
            .map_err(|e| corrupt(format!("name {name:?}: {e}")))?;
    }
    store.reserve_doc_ids(manifest.next_doc);
    Ok((store, manifest))
}

/// Cheap end-to-end validation of a snapshot directory: manifest CRC +
/// LSN agreement, every blob's CRC and its epoch cross-check — everything
/// [`load_snapshot`] checks short of actually rebuilding the documents.
/// Returns the parsed manifest so callers can reuse unchanged blobs
/// (incremental checkpoints) or retire WAL records against it. A snapshot
/// may only serve as a retention floor or blob-reuse source when it is
/// demonstrably restorable.
pub(crate) fn validated_manifest(lsn: u64, path: &Path) -> Option<Manifest> {
    let text = fs::read_to_string(path.join("manifest.txt")).ok()?;
    let manifest = Manifest::parse_text(&text).ok()?;
    if manifest.lsn != lsn {
        return None;
    }
    let ok = manifest.docs.iter().all(|d| {
        fs::read_to_string(path.join(&d.file))
            .ok()
            .and_then(|text| DocBlob::parse_text(&text).ok())
            .is_some_and(|blob| blob.epoch == d.epoch)
    });
    ok.then_some(manifest)
}

/// Remove snapshot directories older than `keep_lsn`, plus stray `.tmp`
/// directories. Best-effort (pruning failures never fail a checkpoint).
pub(crate) fn prune_snapshots(dir: &Path, keep_lsn: u64) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let stale_tmp = name.starts_with("snap-") && name.ends_with(".tmp");
        let old_snap = parse_snapshot_dir(name).is_some_and(|lsn| lsn < keep_lsn);
        if stale_tmp || old_snap {
            let _ = fs::remove_dir_all(entry.path());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_roundtrip() {
        let m = Manifest {
            lsn: 42,
            next_doc: 9,
            docs: vec![
                ManifestDoc { doc: 0, epoch: 3, file: "doc-0.blob".into() },
                ManifestDoc { doc: 7, epoch: 19, file: "doc-7.blob".into() },
            ],
            names: vec![("a manuscript".into(), 0), ("ms".into(), 7)],
        };
        let text = m.to_text();
        assert_eq!(Manifest::parse_text(&text).unwrap(), m);
    }

    #[test]
    fn manifest_corruption_detected() {
        let m = Manifest { lsn: 1, next_doc: 1, docs: vec![], names: vec![] };
        let text = m.to_text();
        let mut bytes = text.clone().into_bytes();
        bytes[15] ^= 0x01;
        assert!(Manifest::parse_text(&String::from_utf8(bytes).unwrap()).is_err());
        assert!(Manifest::parse_text("").is_err());
    }

    #[test]
    fn store_snapshot_roundtrip_and_truncation() {
        let store = Store::new();
        let a = store.insert_named("a ms", corpus::figure1::goddag());
        let b = store.insert(corpus::figure1::goddag());
        store.bind_name("alias", b).unwrap();
        let snap = StoreSnapshot::capture(&store, 17).unwrap();
        let text = snap.to_text();
        let again = StoreSnapshot::parse_text(&text).unwrap();
        assert_eq!(again, snap);

        let fresh = Store::new();
        again.restore_into(&fresh).unwrap();
        assert_eq!(fresh.doc_ids(), store.doc_ids());
        assert_eq!(fresh.name_bindings(), store.name_bindings());
        assert_eq!(fresh.next_doc_raw(), store.next_doc_raw());
        assert_eq!(
            fresh.with_doc(a, sacx::export_standoff).unwrap(),
            store.with_doc(a, sacx::export_standoff).unwrap()
        );

        // Any truncation is detected (blob CRC, length bound, or the
        // missing end marker), never silently half-loaded.
        for mut cut in [text.len() - 1, text.len() - 5, text.len() / 2, 20] {
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            assert!(StoreSnapshot::parse_text(&text[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn snapshot_dir_names() {
        assert_eq!(snapshot_dir_name(66), "snap-0000000000000042");
        assert_eq!(parse_snapshot_dir("snap-0000000000000042"), Some(66));
        assert_eq!(parse_snapshot_dir("snap-42"), None);
        assert_eq!(parse_snapshot_dir("wal.log"), None);
    }
}
