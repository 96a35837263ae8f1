//! Property test of the WAL *framing*: random record sequences survive
//! encode → decode as whole files and record by record, and a torn tail
//! never breaks the valid prefix. (The `EditOp` spelling inside an `edit`
//! record is round-tripped kind by kind in `cxstore/tests/op_tokens.rs`;
//! `tests/golden_wal.rs` pins every record kind byte for byte.)

use corpus::gen::Source;
use cxpersist::{decode_record, encode_record, scan, WalOp, WAL_HEADER};
use cxstore::{DocId, EditOp};

/// Strings chosen to stress the escaping: separators, escapes, newlines,
/// non-ASCII, emptiness.
const STRINGS: &[&str] = &[
    "",
    "w",
    "phrase",
    "two words",
    "a=b",
    "%",
    "%20",
    "line\nbreak",
    "tab\there",
    "swā þæt",
    "…—…",
    " leading and trailing ",
    "crc 00000000",
];

fn string(src: &mut Source) -> String {
    src.pick(STRINGS).to_string()
}

fn wal_op(src: &mut Source) -> WalOp {
    match src.below(8) {
        0 => WalOp::DocRemove { doc: DocId::from_raw(src.below(100)) },
        1 => WalOp::BindName { doc: DocId::from_raw(src.below(100)), name: string(src) },
        2 => WalOp::UnbindName { name: string(src) },
        _ => WalOp::Edit {
            doc: DocId::from_raw(src.below(100)),
            epoch: src.below(1 << 63),
            op: EditOp::InsertText { offset: src.index(1000), text: string(src) },
        },
    }
}

#[test]
fn random_op_sequences_roundtrip() {
    corpus::gen::check("random_op_sequences_roundtrip", 256, |src| {
        let ops: Vec<WalOp> = (0..1 + src.index(39)).map(|_| wal_op(src)).collect();

        // Record-level roundtrip. (The generator emits only single-line
        // record kinds; DocInsert payload framing is pinned by unit and
        // recovery tests.)
        let mut file = WAL_HEADER.to_string();
        for (i, op) in ops.iter().enumerate() {
            let lsn = i as u64 + 1;
            let line = encode_record(lsn, op);
            let (rec, used) = decode_record(line.as_bytes(), i + 2).unwrap();
            assert_eq!(used, line.len());
            assert_eq!(rec.lsn, lsn);
            assert_eq!(&rec.op, op, "record {i}");
            file.push_str(&line);
        }

        // File-level roundtrip through the scanner.
        let s = scan(file.as_bytes()).unwrap();
        assert!(!s.torn);
        assert_eq!(s.valid_len, file.len());
        assert_eq!(s.records.len(), ops.len());
        for (rec, op) in s.records.iter().zip(&ops) {
            assert_eq!(&rec.op, op);
        }

        // And a torn tail never breaks the prefix: cut inside the last
        // record at a drawn byte.
        let last_start = file[..file.len() - 1].rfind('\n').unwrap() + 1;
        let cut = last_start + src.index(file.len() - last_start);
        let s = scan(&file.as_bytes()[..cut]).unwrap();
        assert_eq!(s.records.len(), ops.len() - 1, "cut {cut}");
        // A cut exactly at the record boundary loses it cleanly (no torn
        // bytes); any later cut leaves a torn tail.
        assert_eq!(s.torn, cut != last_start, "cut {cut}");
    });
}
