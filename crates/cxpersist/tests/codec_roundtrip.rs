//! Property test of the WAL *framing*: random record sequences survive
//! encode → decode as whole files and record by record, and a torn tail
//! never breaks the valid prefix. (The `EditOp` spelling inside an `edit`
//! record is round-tripped kind by kind in `cxstore/tests/op_tokens.rs`;
//! `tests/golden_wal.rs` pins every record kind byte for byte.)

use cxpersist::{decode_record, encode_record, scan, WalOp, WAL_HEADER};
use cxstore::{DocId, EditOp};
use proptest::prelude::*;

/// Deterministic op generator driven by one seed.
struct Gen(TestRng);

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

impl Gen {
    fn string(&mut self) -> String {
        STRINGS[self.0.below(STRINGS.len() as u64) as usize].to_string()
    }

    fn wal_op(&mut self) -> WalOp {
        match self.0.below(8) {
            0 => WalOp::DocRemove { doc: DocId::from_raw(self.0.below(100)) },
            1 => WalOp::BindName { doc: DocId::from_raw(self.0.below(100)), name: self.string() },
            2 => WalOp::UnbindName { name: self.string() },
            _ => WalOp::Edit {
                doc: DocId::from_raw(self.0.below(100)),
                epoch: self.0.next_u64() >> 1,
                op: EditOp::InsertText { offset: self.0.below(1000) as usize, text: self.string() },
            },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_op_sequences_roundtrip(seed in 0u64..u64::MAX, len in 1usize..40) {
        let mut gen = Gen(TestRng::from_name(&format!("codec-{seed}")));
        let ops: Vec<WalOp> = (0..len).map(|_| gen.wal_op()).collect();

        // Record-level roundtrip. (The generator emits only single-line
        // record kinds; DocInsert payload framing is pinned by unit and
        // recovery tests.)
        let mut file = WAL_HEADER.to_string();
        for (i, op) in ops.iter().enumerate() {
            let lsn = i as u64 + 1;
            let line = encode_record(lsn, op);
            let (rec, used) = decode_record(line.as_bytes(), i + 2).unwrap();
            prop_assert_eq!(used, line.len());
            prop_assert_eq!(rec.lsn, lsn);
            prop_assert_eq!(&rec.op, op, "seed {} record {}", seed, i);
            file.push_str(&line);
        }

        // File-level roundtrip through the scanner.
        let s = scan(file.as_bytes()).unwrap();
        prop_assert!(!s.torn, "seed {}", seed);
        prop_assert_eq!(s.valid_len, file.len());
        prop_assert_eq!(s.records.len(), ops.len());
        for (rec, op) in s.records.iter().zip(&ops) {
            prop_assert_eq!(&rec.op, op, "seed {}", seed);
        }

        // And a torn tail never breaks the prefix: cut inside the last
        // record at a seed-chosen byte.
        let last_start = file[..file.len() - 1].rfind('\n').unwrap() + 1;
        let cut = last_start + (gen.0.below((file.len() - last_start) as u64) as usize);
        let s = scan(&file.as_bytes()[..cut]).unwrap();
        prop_assert_eq!(s.records.len(), ops.len() - 1, "seed {} cut {}", seed, cut);
        // A cut exactly at the record boundary loses it cleanly (no torn
        // bytes); any later cut leaves a torn tail.
        prop_assert_eq!(s.torn, cut != last_start, "seed {} cut {}", seed, cut);
    }
}

use proptest::TestRng;
