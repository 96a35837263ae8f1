//! Property test beside the one `EditOp` text codec: `write_tokens` →
//! `read_tokens` is the identity for every op kind and every string the
//! escaping has to survive, and the spelling is self-delimiting — whatever
//! the enclosing format appends after the op (the WAL its CRC, `cxq1` its
//! `tc <trace>-<span>` pair) is still there when the reader returns.

use cxstore::EditOp;
use goddag::NodeId;
use proptest::prelude::*;
use proptest::TestRng;
use sacx::Tokens;

/// Strings chosen to stress the escaping: separators, escapes, newlines,
/// non-ASCII, emptiness, and look-alikes of what may follow an op.
const STRINGS: &[&str] = &[
    "",
    "w",
    "two words",
    "a=b",
    "=",
    "%",
    "%20",
    "line\nbreak",
    "tab\there",
    "swā þæt",
    "…—…",
    " leading and trailing ",
    "tc",
    "0000000000000001-0000000000000002",
    "crc 00000000",
];

/// What a format may put after the op: nothing, a CRC-like field, a trace
/// pair, or another op's keyword.
const TAILS: &[&[&str]] =
    &[&[], &["1a2b3c4d"], &["tc", "00000000000000aa-00000000000000bb"], &["insel"]];

struct Gen(TestRng);

impl Gen {
    fn string(&mut self) -> String {
        STRINGS[self.0.below(STRINGS.len() as u64) as usize].to_string()
    }

    fn node(&mut self) -> NodeId {
        NodeId(self.0.below(u32::MAX as u64 + 1) as u32)
    }

    fn offset(&mut self) -> usize {
        self.0.below(1000) as usize
    }

    fn op(&mut self) -> EditOp {
        match self.0.below(6) {
            0 => EditOp::InsertElement {
                hierarchy: self.string(),
                tag: self.string(),
                attrs: (0..self.0.below(4)).map(|_| (self.string(), self.string())).collect(),
                start: self.offset(),
                end: self.offset(),
            },
            1 => EditOp::RemoveElement(self.node()),
            2 => EditOp::InsertText { offset: self.offset(), text: self.string() },
            3 => EditOp::DeleteText { start: self.offset(), end: self.offset() },
            4 => EditOp::SetAttr { node: self.node(), name: self.string(), value: self.string() },
            _ => EditOp::RemoveAttr { node: self.node(), name: self.string() },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn ops_roundtrip_and_leave_the_tail_alone(seed in 0u64..u64::MAX) {
        let mut gen = Gen(TestRng::from_name(&format!("op-{seed}")));
        let op = gen.op();
        let tail = TAILS[gen.0.below(TAILS.len() as u64) as usize];

        let mut line = String::from("head ");
        op.write_tokens(&mut line);
        prop_assert!(!line.contains('\n') && line.is_ascii(), "{:?}", line);
        for t in tail {
            line.push(' ');
            line.push_str(t);
        }

        let mut t = Tokens::new(&line);
        prop_assert_eq!(t.token("head"), Ok("head"));
        prop_assert_eq!(EditOp::read_tokens(&mut t), Ok(op), "seed {}: {:?}", seed, line);
        prop_assert_eq!(t.collect::<Vec<_>>(), tail, "seed {}: {:?}", seed, line);
    }
}

#[test]
fn malformed_ops_are_errors_not_panics() {
    let lines =
        ["", "frobnicate 1", "insel h", "insel h t x 2", "rmel -1", "setattr 1 n", "instext 0 %zz"];
    for line in lines {
        assert!(EditOp::read_tokens(&mut Tokens::new(line)).is_err(), "{line:?}");
    }
}
