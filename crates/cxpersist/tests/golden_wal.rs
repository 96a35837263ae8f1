//! The on-disk format did not move: `fixtures/golden.wal` was written by
//! the encoder of commit `a57fa4b` (before `EditOp`'s token spelling moved
//! into `cxstore` and the record codec onto the shared cursor). Every
//! record kind × every `EditOp` kind is in it, with strings chosen to
//! stress the escaping and a `DocInsert` payload block. The current codec
//! must decode it to exactly these records and re-encode them to exactly
//! those bytes — a WAL written before the change opens after it, and the
//! other way round.

use cxpersist::{encode_record, scan, DocBlob, WalOp, WAL_HEADER};
use cxstore::{DocId, EditOp};
use goddag::NodeId;

const GOLDEN: &[u8] = include_bytes!("fixtures/golden.wal");

/// Empty, separators, escapes, newlines, control and non-ASCII bytes.
const HOSTILE: &[&str] =
    &["", " ", "two words", "=", "a=b", "%", "%25", "line\nbreak\r", "swā þæt"];

fn blob() -> DocBlob {
    let mut g = sacx::parse_distributed(&[
        ("phys", "<r id=\"\"><line n=\"1 = one\">swā hwa</line> <line n=\"\">nu</line></r>"),
        ("ling", "<r id=\"\"><w>swā</w> <s note=\"100%\nsure\"><w>hwa</w> <w>nu</w></s></r>"),
    ])
    .unwrap();
    let ling = g.hierarchy_by_name("ling").unwrap();
    g.set_dtd(ling, xmlcore::dtd::parse_dtd("<!ELEMENT r ANY> <!ELEMENT w (#PCDATA)>").unwrap())
        .unwrap();
    // Edit history: a tombstone, an extra leaf boundary, a bumped epoch.
    let w = g.insert_element(ling, xmlcore::QName::parse("w").unwrap(), vec![], 0, 1).unwrap();
    g.remove_element(w).unwrap();
    g.split_leaf_at(2).unwrap();
    DocBlob::capture(&g)
}

fn records() -> Vec<WalOp> {
    let doc = DocId::from_raw;
    let edit = |d: u64, epoch: u64, op: EditOp| WalOp::Edit { doc: doc(d), epoch, op };
    let mut ops = vec![
        WalOp::DocInsert { doc: doc(0), name: None, blob: blob() },
        WalOp::DocInsert { doc: doc(1), name: Some("the ms = 100%\n".into()), blob: blob() },
        WalOp::DocInsert { doc: doc(2), name: Some(String::new()), blob: blob() },
        edit(
            0,
            7,
            EditOp::InsertElement {
                hierarchy: "ling".into(),
                tag: "w".into(),
                attrs: HOSTILE.iter().map(|s| (s.to_string(), s.to_string())).collect(),
                start: 0,
                end: 3,
            },
        ),
        edit(
            1,
            u64::MAX,
            EditOp::InsertElement {
                hierarchy: String::new(),
                tag: String::new(),
                attrs: Vec::new(),
                start: usize::MAX,
                end: 0,
            },
        ),
        edit(
            2,
            0,
            EditOp::InsertElement {
                hierarchy: "tc".into(),
                tag: "tc".into(),
                attrs: vec![("tc".into(), "1-2".into())],
                start: 1,
                end: 2,
            },
        ),
        edit(0, 8, EditOp::RemoveElement(NodeId(u32::MAX))),
        edit(0, 9, EditOp::DeleteText { start: 2, end: 5 }),
    ];
    for (i, s) in HOSTILE.iter().enumerate() {
        let (i, s) = (i as u64, s.to_string());
        ops.push(edit(1, i, EditOp::InsertText { offset: i as usize, text: s.clone() }));
        ops.push(edit(
            1,
            i,
            EditOp::SetAttr { node: NodeId(i as u32), name: s.clone(), value: s.clone() },
        ));
        ops.push(edit(1, i, EditOp::RemoveAttr { node: NodeId(i as u32), name: s.clone() }));
        ops.push(WalOp::BindName { doc: doc(i), name: s.clone() });
        ops.push(WalOp::UnbindName { name: s });
    }
    ops.push(WalOp::DocRemove { doc: doc(2) });
    ops
}

#[test]
fn golden_segment_decodes_to_the_expected_records() {
    let scan = scan(GOLDEN).unwrap();
    assert!(!scan.torn, "{} bytes dropped", scan.dropped_bytes);
    assert_eq!(scan.valid_len, GOLDEN.len());
    let expected = records();
    assert_eq!(scan.records.len(), expected.len());
    for (i, (rec, op)) in scan.records.iter().zip(&expected).enumerate() {
        assert_eq!(rec.lsn, i as u64 + 1);
        assert_eq!(&rec.op, op, "record {}", i + 1);
    }
}

#[test]
fn the_expected_records_re_encode_to_the_golden_bytes() {
    let mut file = WAL_HEADER.to_string();
    for (i, op) in records().iter().enumerate() {
        file.push_str(&encode_record(i as u64 + 1, op));
    }
    // Compare as text first so a mismatch prints a readable diff.
    assert_eq!(file, String::from_utf8_lossy(GOLDEN));
    assert_eq!(file.as_bytes(), GOLDEN);
}
