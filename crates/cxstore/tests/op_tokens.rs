//! Property tests beside the one `EditOp` text codec and apply body:
//! `write_tokens` → `read_tokens` is the identity for every op kind and
//! every string the escaping has to survive, and the spelling is
//! self-delimiting — whatever the enclosing format appends after the op
//! (the WAL its CRC, `cxq1` its `tc <trace>-<span>` pair) is still there
//! when the reader returns. And no op, however hostile, panics the apply
//! body: a refused op leaves the document as it was.

use corpus::gen::Source;
use cxstore::EditOp;
use goddag::{Goddag, GoddagError, NodeId};
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

fn string(src: &mut Source) -> String {
    src.pick(STRINGS).to_string()
}

fn node(src: &mut Source) -> NodeId {
    NodeId(src.below(u32::MAX as u64 + 1) as u32)
}

fn op(src: &mut Source) -> EditOp {
    let offset = |src: &mut Source| src.index(1000);
    match src.below(6) {
        0 => EditOp::InsertElement {
            hierarchy: string(src),
            tag: string(src),
            attrs: (0..src.below(4)).map(|_| (string(src), string(src))).collect(),
            start: offset(src),
            end: offset(src),
        },
        1 => EditOp::RemoveElement(node(src)),
        2 => EditOp::InsertText { offset: offset(src), text: string(src) },
        3 => EditOp::DeleteText { start: offset(src), end: offset(src) },
        4 => EditOp::SetAttr { node: node(src), name: string(src), value: string(src) },
        _ => EditOp::RemoveAttr { node: node(src), name: string(src) },
    }
}

/// Names an element or attribute may carry, and ones it may not.
const GOOD_NAMES: &[&str] = &["w", "s", "dmg", "n", "type", "x:y"];
const BAD_NAMES: &[&str] = &["1x", "", "two words", "a=b", "x:", ":x", "a:b:c", "-w", "swā þæt"];

fn name(src: &mut Source) -> String {
    let from = if src.below(4) == 0 { BAD_NAMES } else { GOOD_NAMES };
    src.pick(from).to_string()
}

fn doc_offset(src: &mut Source, g: &Goddag) -> usize {
    let len = g.content_len();
    match src.below(8) {
        0 => len + 1 + src.index(100),
        1 => {
            // Inside a multi-byte character, when the content has one.
            let content = g.content();
            let inside: Vec<usize> = (1..len).filter(|&i| !content.is_char_boundary(i)).collect();
            if inside.is_empty() {
                len + 1
            } else {
                src.pick(&inside)
            }
        }
        _ => {
            let mut off = src.index(len + 1);
            while !g.is_char_boundary(off) {
                off -= 1;
            }
            off
        }
    }
}

fn doc_node(src: &mut Source, g: &Goddag) -> NodeId {
    let elements: Vec<NodeId> = g.elements().collect();
    match src.below(8) {
        0 => g.root(),
        1 if !g.leaves().is_empty() => src.pick(g.leaves()),
        // Never allocated, or tombstoned by an earlier removal.
        2 => NodeId(src.index(g.arena_len() + 8) as u32),
        3 => NodeId(u32::MAX),
        _ if elements.is_empty() => g.root(),
        _ => src.pick(&elements),
    }
}

/// An op aimed at one live document: real and unknown hierarchies, good
/// and bad names, in-range offsets, offsets past the end or inside a
/// multi-byte character, live, leaf, root and dead node ids.
fn doc_op(src: &mut Source, g: &Goddag) -> EditOp {
    let (a, b) = (doc_offset(src, g), doc_offset(src, g));
    match src.below(6) {
        0 => EditOp::InsertElement {
            hierarchy: src.pick(&["phys", "ling", "edit", "ling", "nope"]).to_string(),
            tag: name(src),
            attrs: (0..src.below(3)).map(|_| (name(src), string(src))).collect(),
            start: a.min(b),
            end: a.max(b),
        },
        1 => EditOp::RemoveElement(doc_node(src, g)),
        2 => EditOp::InsertText { offset: a, text: string(src) },
        3 => EditOp::DeleteText { start: a.min(b), end: a.max(b) },
        4 => EditOp::SetAttr { node: doc_node(src, g), name: name(src), value: string(src) },
        _ => EditOp::RemoveAttr { node: doc_node(src, g), name: name(src) },
    }
}

#[test]
fn no_edit_panics_and_a_refusal_changes_nothing() {
    corpus::gen::check("no_edit_panics_and_a_refusal_changes_nothing", 64, |src| {
        let seed = src.below(u64::MAX);
        let params = corpus::Params { words: 40, seed, ..corpus::Params::default() };
        let mut g = corpus::generate(&params).goddag;
        for _ in 0..40 {
            let op = doc_op(src, &g);
            let (export, epoch) = (sacx::export_standoff(&g), g.edit_epoch());
            let applied = catch_unwind(AssertUnwindSafe(|| op.clone().apply(&mut g)));
            assert!(applied.is_ok(), "corpus seed {seed}: {op:?} panicked");
            let Ok(Err(err)) = applied else { continue };
            assert_eq!(sacx::export_standoff(&g), export, "corpus seed {seed}: {op:?}");
            // A crossing insert is refused after splitting the leaves at
            // its ends: invisible in the export, but a logged history that
            // replay reproduces, epoch bumps included.
            if !matches!(err, EditError::Goddag(GoddagError::WouldCross { .. })) {
                assert_eq!(g.edit_epoch(), epoch, "corpus seed {seed}: {op:?} ({err})");
            }
        }
    });
}

#[test]
fn ops_roundtrip_and_leave_the_tail_alone() {
    corpus::gen::check("ops_roundtrip_and_leave_the_tail_alone", 512, |src| {
        let op = op(src);
        let tail = src.pick(TAILS);

        let mut line = String::from("head ");
        op.write_tokens(&mut line);
        assert!(!line.contains('\n') && line.is_ascii(), "{line:?}");
        for t in tail {
            line.push(' ');
            line.push_str(t);
        }

        let mut t = Tokens::new(&line);
        assert_eq!(t.token("head"), Ok("head"));
        assert_eq!(EditOp::read_tokens(&mut t), Ok(op), "{line:?}");
        assert_eq!(t.collect::<Vec<_>>(), tail, "{line:?}");
    });
}

#[test]
fn malformed_ops_are_errors_not_panics() {
    let lines =
        ["", "frobnicate 1", "insel h", "insel h t x 2", "rmel -1", "setattr 1 n", "instext 0 %zz"];
    for line in lines {
        assert!(EditOp::read_tokens(&mut Tokens::new(line)).is_err(), "{line:?}");
    }
}
