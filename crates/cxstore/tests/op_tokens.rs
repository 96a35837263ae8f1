//! Property tests beside the one `EditOp` text codec and apply body:
//! `write_tokens` → `read_tokens` is the identity for every op kind and
//! every string the escaping has to survive, and the spelling is
//! self-delimiting — whatever the enclosing format appends after the op
//! (the WAL its CRC, `cxq1` its `tc <trace>-<span>` pair) is still there
//! when the reader returns. And no op, however hostile, panics the apply
//! body: a refused op leaves the document as it was.

use cxstore::EditOp;
use goddag::{Goddag, GoddagError, NodeId};
use proptest::prelude::*;
use proptest::TestRng;
use sacx::{EditError, Tokens};
use std::panic::{catch_unwind, AssertUnwindSafe};

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

/// Names an element or attribute may carry, and ones it may not.
const GOOD_NAMES: &[&str] = &["w", "s", "dmg", "n", "type", "x:y"];
const BAD_NAMES: &[&str] = &["1x", "", "two words", "a=b", "x:", ":x", "a:b:c", "-w", "swā þæt"];

/// Ops aimed at one live document: real and unknown hierarchies, good and
/// bad names, in-range offsets, offsets past the end or inside a
/// multi-byte character, live, leaf, root and dead node ids.
impl Gen {
    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.0.below(from.len() as u64) as usize]
    }

    fn name(&mut self) -> String {
        let from = if self.0.below(4) == 0 { BAD_NAMES } else { GOOD_NAMES };
        self.pick(from).to_string()
    }

    fn doc_offset(&mut self, g: &Goddag) -> usize {
        let len = g.content_len();
        match self.0.below(8) {
            0 => len + 1 + self.0.below(100) as usize,
            1 => {
                // Inside a multi-byte character, when the content has one.
                let content = g.content();
                let inside: Vec<usize> =
                    (1..len).filter(|&i| !content.is_char_boundary(i)).collect();
                if inside.is_empty() {
                    len + 1
                } else {
                    inside[self.0.below(inside.len() as u64) as usize]
                }
            }
            _ => {
                let mut off = self.0.below(len as u64 + 1) as usize;
                while !g.is_char_boundary(off) {
                    off -= 1;
                }
                off
            }
        }
    }

    fn doc_node(&mut self, g: &Goddag) -> NodeId {
        let elements: Vec<NodeId> = g.elements().collect();
        match self.0.below(8) {
            0 => g.root(),
            1 => g.leaves()[self.0.below(g.leaves().len() as u64) as usize],
            // Never allocated, or tombstoned by an earlier removal.
            2 => NodeId(self.0.below(g.arena_len() as u64 + 8) as u32),
            3 => NodeId(u32::MAX),
            _ if elements.is_empty() => g.root(),
            _ => elements[self.0.below(elements.len() as u64) as usize],
        }
    }

    fn doc_op(&mut self, g: &Goddag) -> EditOp {
        let (a, b) = (self.doc_offset(g), self.doc_offset(g));
        match self.0.below(6) {
            0 => EditOp::InsertElement {
                hierarchy: self.pick(&["phys", "ling", "edit", "ling", "nope"]).to_string(),
                tag: self.name(),
                attrs: (0..self.0.below(3)).map(|_| (self.name(), self.string())).collect(),
                start: a.min(b),
                end: a.max(b),
            },
            1 => EditOp::RemoveElement(self.doc_node(g)),
            2 => EditOp::InsertText { offset: a, text: self.string() },
            3 => EditOp::DeleteText { start: a.min(b), end: a.max(b) },
            4 => {
                EditOp::SetAttr { node: self.doc_node(g), name: self.name(), value: self.string() }
            }
            _ => EditOp::RemoveAttr { node: self.doc_node(g), name: self.name() },
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_edit_panics_and_a_refusal_changes_nothing(seed in 0u64..u64::MAX) {
        let mut gen = Gen(TestRng::from_name(&format!("apply-{seed}")));
        let params = corpus::Params { words: 40, seed, ..corpus::Params::default() };
        let mut g = corpus::generate(&params).goddag;
        for _ in 0..40 {
            let op = gen.doc_op(&g);
            let (export, epoch) = (sacx::export_standoff(&g), g.edit_epoch());
            let applied = catch_unwind(AssertUnwindSafe(|| op.clone().apply(&mut g)));
            prop_assert!(applied.is_ok(), "seed {}: {:?} panicked", seed, op);
            let Ok(Err(err)) = applied else { continue };
            prop_assert_eq!(sacx::export_standoff(&g), export, "seed {}: {:?}", seed, op);
            // A crossing insert is refused after splitting the leaves at
            // its ends: invisible in the export, but a logged history that
            // replay reproduces, epoch bumps included.
            if !matches!(err, EditError::Goddag(GoddagError::WouldCross { .. })) {
                prop_assert_eq!(g.edit_epoch(), epoch, "seed {}: {:?} ({})", seed, op, err);
            }
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
