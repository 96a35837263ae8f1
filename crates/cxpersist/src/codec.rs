//! The write-ahead-log codec: a compact, versioned, line-oriented text
//! format with per-record CRCs and monotonic LSNs.
//!
//! A WAL file is a header line followed by records:
//!
//! ```text
//! #cxwal v1
//! 1 ins 0 anon blob 142 1a2b3c4d
//! <142 bytes of raw DocBlob text>
//! 2 edit 0 5 instext 0 swa%20hwa 5e6f7a8b
//! 3 edit 0 6 insel ling w 0 7 n=1 9c0d1e2f
//! ```
//!
//! Every record starts with one line `<lsn> <kind> <fields…> <crc32>`,
//! where the CRC covers everything before its space. The kinds and their
//! fields are declared once, as [`WalOp`] (a [`sacx::line!`]); an `edit`
//! record carries the one edit spelling (`sacx::EditOp`), and an `ins`
//! record its document blob as a raw block after the line. Torn or
//! bit-flipped trailing records are detected by [`scan`]: the first record
//! that fails framing, parsing or its CRC ends the valid prefix, and
//! everything after it is dropped.

use crate::blob::DocBlob;
use crate::error::PersistError;
use cxstore::{DocId, EditOp};
use sacx::{Field, Hex, Tokens, Writer};

/// First line of every WAL file (version-bumps on format changes).
pub const WAL_HEADER: &str = "#cxwal v1\n";

pub use sacx::crc32;

sacx::line! {
    /// One logged operation (the payload of a [`WalRecord`]).
    #[derive(Debug, Clone, PartialEq)]
    pub enum WalOp: RecordKind("record kind") {
        /// A document edit. `epoch` is the document's edit epoch *before*
        /// the op was applied — recovery verifies it against the replaying
        /// document to detect divergence.
        Edit {
            /// Target document.
            doc: DocId,
            /// Edit epoch the document was at when the record was appended.
            epoch: u64,
            /// The operation itself.
            op: EditOp,
        } = "edit",
        /// A document entered the store (the full blob rides in the log so
        /// documents inserted after the last snapshot survive a crash).
        DocInsert {
            /// The handle the document received.
            doc: DocId,
            /// Name bound at insertion, if any.
            name: Option<String> as Naming,
            /// Complete serialized document.
            blob: DocBlob as Payload,
        } = "ins",
        /// A document left the store.
        DocRemove {
            /// The removed handle.
            doc: DocId,
        } = "rm",
        /// A name was bound (or re-bound) to a document.
        BindName {
            /// Target document.
            doc: DocId,
            /// The name.
            name: String,
        } = "bind",
        /// A name was unbound without removing its document — how a cluster
        /// retires one shard's binding when a name moves to a document on a
        /// different shard (a plain rebind only shadows within one store).
        UnbindName {
            /// The name.
            name: String,
        } = "unbind",
    }
}

sacx::vocabulary! {
    /// Whether an `ins` record binds a name: `anon`, or `named <name>`.
    enum Naming("insert naming") { Anon = "anon", Named = "named" }
}

impl Field<Option<String>> for Naming {
    fn write(v: &Option<String>, w: &mut Writer) {
        Naming::write(if v.is_some() { &Naming::Named } else { &Naming::Anon }, w);
        v.iter().for_each(|name| String::write(name, w));
    }
    fn read(t: &mut Tokens<'_>, what: &str) -> Result<Option<String>, String> {
        match Naming::read(t, what)? {
            Naming::Anon => Ok(None),
            Naming::Named => String::read(t, what).map(Some),
        }
    }
}

/// `blob <len>`, then the blob raw after the record line (~1× its size,
/// where escaping would cost ~3×). The blob's own CRC footer covers the
/// payload, the record CRC covers the declared length.
struct Payload;

impl Field<DocBlob> for Payload {
    fn write(v: &DocBlob, w: &mut Writer) {
        w.word("blob");
        DocBlob::write(v, w);
    }
    fn read(t: &mut Tokens<'_>, what: &str) -> Result<DocBlob, String> {
        if t.token(what)? != "blob" {
            return Err("expected blob length".into());
        }
        DocBlob::read(t, what)
    }
}

/// One WAL record: a monotonic log sequence number plus the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct WalRecord {
    /// Log sequence number (1-based, strictly increasing within a file).
    pub lsn: u64,
    /// The logged operation.
    pub op: WalOp,
}

/// Encode a record: `<lsn> <op> <crc>` on one line, where the CRC covers
/// everything before its space, then the blob block of a `DocInsert`.
pub fn encode_record(lsn: u64, op: &WalOp) -> String {
    let mut w = Writer::default();
    u64::write(&lsn, &mut w);
    WalOp::write(op, &mut w);
    let crc = crc32(w.line().as_bytes());
    Hex::<8>::write(&u64::from(crc), &mut w);
    w.into_text()
}

/// Decode one record starting at the beginning of `input` (which may hold
/// further records after it), verifying the line CRC and — for `DocInsert`
/// — consuming and validating the length-prefixed payload block. Returns
/// the record and the number of bytes consumed. `line_no` is used in error
/// messages only.
pub fn decode_record(input: &[u8], line_no: usize) -> Result<(WalRecord, usize), PersistError> {
    decode_framed(input).map_err(|detail| PersistError::Codec { line: line_no, detail })
}

fn decode_framed(input: &[u8]) -> Result<(WalRecord, usize), String> {
    let nl = input.iter().position(|&b| b == b'\n').ok_or("record without trailing newline")?;
    let line = std::str::from_utf8(&input[..nl]).map_err(|_| "record line is not UTF-8")?;
    let (body, crc_tok) = line.rsplit_once(' ').ok_or("record without CRC field")?;
    let crc = sacx::token::hex_lower(crc_tok, 8).ok_or("malformed CRC")?;
    if crc != u64::from(crc32(body.as_bytes())) {
        return Err("CRC mismatch".into());
    }
    let (record, taken) = sacx::token::decode_line(body, &input[nl + 1..], |t| {
        Ok(WalRecord { lsn: u64::read(t, "LSN")?, op: WalOp::read(t, "record")? })
    })?;
    Ok((record, nl + 1 + taken))
}

/// Framing-only walk of one record: return its LSN and total byte length
/// (payload block included) without CRC verification or payload parsing.
/// [`scan_tail`] uses this to step over the snapshot-covered prefix in
/// O(line bytes) instead of fully decoding every retired document blob.
pub(crate) fn skip_record(input: &[u8]) -> Option<(u64, usize)> {
    let nl = input.iter().position(|&b| b == b'\n')?;
    let line = std::str::from_utf8(&input[..nl]).ok()?;
    let mut parts = line.split(' ');
    let lsn = xmlcore::num::dec(parts.next()?)?;
    let mut consumed = nl + 1;
    if parts.next() == Some(RecordKind::DocInsert.name()) {
        // `ins <doc> anon|named [<name>] blob <len> <crc>` — the length is
        // the second-to-last token.
        let toks: Vec<&str> = parts.collect();
        let len =
            usize::try_from(xmlcore::num::dec(toks.get(toks.len().checked_sub(2)?)?)?).ok()?;
        consumed = consumed.checked_add(len)?;
    }
    (consumed <= input.len()).then_some((lsn, consumed))
}

// ---------------------------------------------------------------------
// File scanning
// ---------------------------------------------------------------------

/// Result of scanning a WAL file's bytes.
#[derive(Debug)]
pub struct WalScan {
    /// Records of the valid prefix, in file order.
    pub records: Vec<WalRecord>,
    /// Byte offset of every record in the valid prefix, frame-skipped
    /// ones included, in file order.
    pub starts: Vec<usize>,
    /// LSN of the last record in the valid prefix (0 when there is none).
    pub last_lsn: u64,
    /// Byte length of the valid prefix (header plus intact records) — the
    /// offset a recovering writer truncates to before appending.
    pub valid_len: usize,
    /// Bytes dropped after the valid prefix (torn or corrupt tail).
    pub dropped_bytes: usize,
    /// Whether anything was dropped.
    pub torn: bool,
}

/// Scan a WAL file: decode the longest valid prefix, stopping at the
/// first torn (no trailing newline), corrupt (CRC/parse failure) or
/// non-monotonic record. Everything after the stop point is reported as
/// dropped, never replayed.
pub fn scan(bytes: &[u8]) -> Result<WalScan, PersistError> {
    scan_tail(bytes, 0)
}

/// [`scan`] that *frame-skips* the leading records with
/// `lsn <= skip_through` instead of decoding them — recovery uses this for
/// the region a loaded snapshot already covers, so cold-start cost scales
/// with the live tail, not the retired document blobs still sitting in the
/// log. Skipped records are not returned and their content is not
/// verified (the snapshot, not the log, is authoritative for that range);
/// the tail past `skip_through` gets the full CRC-checked decode.
pub fn scan_tail(bytes: &[u8], skip_through: u64) -> Result<WalScan, PersistError> {
    let header = WAL_HEADER.as_bytes();
    if bytes.len() < header.len() || &bytes[..header.len()] != header {
        // An empty or garbage file has no valid prefix at all; callers
        // treat this as "no log" for a fresh file and as corruption
        // otherwise.
        return Err(PersistError::Codec { line: 1, detail: "missing WAL header".into() });
    }
    let mut pos = header.len();
    let mut line_no = 1usize;
    let mut last_lsn = 0u64;
    let mut starts = Vec::new();
    while pos < bytes.len() {
        match skip_record(&bytes[pos..]) {
            Some((lsn, used)) if lsn > last_lsn && lsn <= skip_through => {
                starts.push(pos);
                last_lsn = lsn;
                pos += used;
                line_no += 1;
            }
            _ => break,
        }
    }
    let (records, pos) = decode_prefix(bytes, pos, last_lsn, line_no + 1, &mut starts);
    Ok(WalScan {
        last_lsn: records.last().map_or(last_lsn, |r| r.lsn),
        records,
        starts,
        valid_len: pos,
        dropped_bytes: bytes.len() - pos,
        torn: pos < bytes.len(),
    })
}

// ---------------------------------------------------------------------
// Batch scanning (log shipping)
// ---------------------------------------------------------------------

/// Result of scanning a shipped record batch.
#[derive(Debug)]
pub struct BatchScan {
    /// Records of the valid prefix, in shipping order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix.
    pub valid_len: usize,
    /// Whether a torn/corrupt tail was dropped (the receiver re-requests
    /// from its last applied LSN).
    pub torn: bool,
}

/// Scan a shipped batch: raw concatenated record bytes (no file header),
/// as produced by slicing a WAL file's tail. Decodes the longest valid
/// prefix whose LSNs are strictly increasing and greater than `after`;
/// the first torn, corrupt or non-monotonic record ends the prefix and
/// everything past it is dropped — the receiver's cue to re-request from
/// its last applied LSN. A batch cut at *any* byte boundary therefore
/// yields a (possibly empty) valid prefix, never garbage.
pub fn scan_batch(bytes: &[u8], after: u64) -> BatchScan {
    let (records, valid_len) = decode_prefix(bytes, 0, after, 1, &mut Vec::new());
    BatchScan { records, valid_len, torn: valid_len < bytes.len() }
}

/// Decode records from `bytes[pos..]` for as long as they are intact and
/// their LSNs strictly increase past `last_lsn`: the first torn (no
/// trailing newline), corrupt (CRC/parse failure) or non-monotonic record
/// (replayed garbage that happens to checksum, or a rewind) ends the valid
/// prefix. Returns the records and the offset the prefix ends at, and
/// pushes each record's offset onto `starts`.
fn decode_prefix(
    bytes: &[u8],
    mut pos: usize,
    mut last_lsn: u64,
    first_line: usize,
    starts: &mut Vec<usize>,
) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    while pos < bytes.len() {
        match decode_record(&bytes[pos..], first_line + records.len()) {
            Ok((rec, used)) if rec.lsn > last_lsn => {
                starts.push(pos);
                last_lsn = rec.lsn;
                records.push(rec);
                pos += used;
            }
            _ => break,
        }
    }
    (records, pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn doc_insert_payload_framing_roundtrips() {
        let g = sacx::parse_distributed(&[(
            "a",
            "<r><w note=\"spaces = hard\ntruly\">swā hwa</w></r>",
        )])
        .unwrap();
        let blob = DocBlob::capture(&g);
        let op = WalOp::DocInsert { doc: DocId::from_raw(4), name: Some("the ms".into()), blob };
        let encoded = encode_record(9, &op);
        // The blob rides raw (length-prefixed), not percent-escaped: the
        // record costs about its blob size, not 3×.
        let blob_len = match &op {
            WalOp::DocInsert { blob, .. } => blob.to_text().len(),
            _ => unreachable!(),
        };
        assert!(encoded.len() < blob_len + 128, "{} vs blob {}", encoded.len(), blob_len);
        let (rec, used) = decode_record(encoded.as_bytes(), 1).unwrap();
        assert_eq!(used, encoded.len());
        assert_eq!(rec.op, op);
        // A truncated payload is torn, not misparsed.
        assert!(decode_record(&encoded.as_bytes()[..encoded.len() - 10], 1).is_err());
        // Records after the payload still frame correctly.
        let mut file = encoded.clone();
        file.push_str(&encode_record(10, &WalOp::DocRemove { doc: DocId::from_raw(4) }));
        let mut wal = WAL_HEADER.to_string();
        wal.push_str(&file);
        let s = scan(wal.as_bytes()).unwrap();
        assert_eq!(s.records.len(), 2);
        assert!(!s.torn);
    }

    #[test]
    fn skip_record_matches_full_decode() {
        let g = sacx::parse_distributed(&[("a", "<r><w>swā</w> hwa</r>")]).unwrap();
        let ops = [
            WalOp::DocInsert { doc: DocId::from_raw(1), name: None, blob: DocBlob::capture(&g) },
            WalOp::DocInsert {
                doc: DocId::from_raw(2),
                name: Some("m s".into()),
                blob: DocBlob::capture(&g),
            },
            WalOp::DocRemove { doc: DocId::from_raw(1) },
            WalOp::Edit {
                doc: DocId::from_raw(2),
                epoch: 3,
                op: EditOp::InsertText { offset: 0, text: "x".into() },
            },
        ];
        for (i, op) in ops.iter().enumerate() {
            let encoded = encode_record(i as u64 + 1, op);
            let (lsn, used) = skip_record(encoded.as_bytes()).unwrap();
            let (rec, full_used) = decode_record(encoded.as_bytes(), 1).unwrap();
            assert_eq!((lsn, used), (rec.lsn, full_used), "op {i}");
        }
        // Torn inputs skip to None, never past the buffer.
        assert!(skip_record(b"9 ins 1 anon blob 400 deadbeef\nshort").is_none());
        assert!(skip_record(b"no newline").is_none());
    }

    #[test]
    fn the_record_crc_has_one_spelling() {
        // A record whose CRC has a leading zero digit: `+1234abc` and
        // `1234abc` would spell the same value.
        let line = (1..)
            .map(|lsn| encode_record(lsn, &WalOp::DocRemove { doc: DocId::from_raw(1) }))
            .find(|l| l.rsplit_once(' ').unwrap().1.starts_with('0'))
            .unwrap();
        assert!(decode_record(line.as_bytes(), 1).is_ok());
        let (body, crc) = line.trim_end_matches('\n').rsplit_once(' ').unwrap();
        for other in [format!("+{}", &crc[1..]), crc[1..].to_string()] {
            let respelled = format!("{body} {other}\n");
            assert!(decode_record(respelled.as_bytes(), 1).is_err(), "record crc {other} accepted");
        }
        // The framing-only walk refuses a signed LSN as well.
        let signed = format!("+{line}");
        assert!(skip_record(signed.as_bytes()).is_none());
    }

    #[test]
    fn a_record_has_one_spelling_under_a_valid_crc() {
        let seal = |body: &str| format!("{body} {:08x}\n", crc32(body.as_bytes()));
        for good in ["5 edit 1 3 instext 3 x", "5 rm 1", "5 edit 0 0 deltext 0 10"] {
            assert!(decode_record(seal(good).as_bytes(), 1).is_ok(), "{good:?}");
        }
        for bad in [
            "5 edit 1 3 instext 03 x",
            "05 rm 1",
            "5 rm 01",
            "5 edit 1 03 deltext 0 1",
            "5 edit 1 3 instext 3 %78",
            "5 rm 1 1",
            "5 rm",
        ] {
            assert!(decode_record(seal(bad).as_bytes(), 1).is_err(), "{bad:?} accepted");
        }
        // The CRC is lowercase hex, as written.
        let line = (1..)
            .map(|lsn| encode_record(lsn, &WalOp::DocRemove { doc: DocId::from_raw(1) }))
            .find(|l| l.rsplit_once(' ').unwrap().1.bytes().any(|b| b.is_ascii_lowercase()))
            .unwrap();
        let (body, crc) = line.rsplit_once(' ').unwrap();
        let upper = format!("{body} {}", crc.to_uppercase());
        assert!(decode_record(upper.as_bytes(), 1).is_err(), "{upper:?} accepted");
    }

    #[test]
    fn corrupt_records_rejected() {
        let line = encode_record(5, &WalOp::DocRemove { doc: DocId::from_raw(1) });
        assert!(decode_record(line.as_bytes(), 1).is_ok());
        // Flip one byte of the body: CRC catches it.
        let mut flipped = line.clone().into_bytes();
        flipped[0] ^= 1;
        assert!(decode_record(&flipped, 1).is_err());
        // Truncate the CRC (and the newline with it).
        assert!(decode_record(&line.as_bytes()[..line.len() - 2], 1).is_err());
        // Missing newline = torn.
        assert!(decode_record(line.trim_end_matches('\n').as_bytes(), 1).is_err());
    }

    #[test]
    fn scan_stops_at_torn_tail() {
        let mut file = WAL_HEADER.to_string();
        for lsn in 1..=3u64 {
            file.push_str(&encode_record(lsn, &WalOp::DocRemove { doc: DocId::from_raw(lsn) }));
        }
        let full = scan(file.as_bytes()).unwrap();
        assert_eq!(full.records.len(), 3);
        assert!(!full.torn);
        assert_eq!(full.valid_len, file.len());

        // Drop the trailing newline: the last record is torn.
        let torn = scan(&file.as_bytes()[..file.len() - 1]).unwrap();
        assert_eq!(torn.records.len(), 2);
        assert!(torn.torn);

        // Corrupt a byte in the middle record: it and everything after drop.
        let mut bytes = file.clone().into_bytes();
        let second_start = WAL_HEADER.len()
            + encode_record(1, &WalOp::DocRemove { doc: DocId::from_raw(1) }).len();
        bytes[second_start + 3] ^= 0x40;
        let cut = scan(&bytes).unwrap();
        assert_eq!(cut.records.len(), 1);
        assert!(cut.torn);
    }

    #[test]
    fn scan_rejects_non_monotonic_lsns() {
        let mut file = WAL_HEADER.to_string();
        file.push_str(&encode_record(2, &WalOp::DocRemove { doc: DocId::from_raw(1) }));
        file.push_str(&encode_record(2, &WalOp::DocRemove { doc: DocId::from_raw(2) }));
        let s = scan(file.as_bytes()).unwrap();
        assert_eq!(s.records.len(), 1);
        assert!(s.torn);
    }

    #[test]
    fn scan_requires_header() {
        assert!(scan(b"").is_err());
        assert!(scan(b"not a wal\n").is_err());
    }

    #[test]
    fn scan_batch_tolerates_any_cut() {
        let mut batch = Vec::new();
        for lsn in 4..=7u64 {
            batch.extend_from_slice(
                encode_record(lsn, &WalOp::DocRemove { doc: DocId::from_raw(lsn) }).as_bytes(),
            );
        }
        let full = scan_batch(&batch, 3);
        assert_eq!(full.records.len(), 4);
        assert!(!full.torn);
        for cut in 0..batch.len() {
            let s = scan_batch(&batch[..cut], 3);
            assert!(s.valid_len <= cut);
            assert_eq!(s.torn, s.valid_len < cut);
            // The prefix is exactly the records that fit whole.
            for (i, rec) in s.records.iter().enumerate() {
                assert_eq!(rec.lsn, 4 + i as u64, "cut at {cut}");
            }
        }
        // Records at or below `after` end the prefix (stale retransmission).
        assert_eq!(scan_batch(&batch, 4).records.len(), 0);
    }
}
