//! Complete on-disk form of one document: stand-off content + everything
//! stand-off alone does not carry but warm restart needs.
//!
//! Stand-off (`sacx::export_standoff`) is the paper's natural serialization
//! — base text plus `(hierarchy, tag, range)` records — but a recovered
//! store must also be able to *replay* logged edits against the re-imported
//! document, and logged edits speak in pre-crash [`goddag::NodeId`]s and
//! edit epochs. A [`DocBlob`] therefore additionally records:
//!
//! * each hierarchy's **DTD** (so the prevalidation gate re-arms),
//! * the **id layout**: original arena length, the original id of every
//!   element (in stand-off annotation order — an id-independent structural
//!   order, see [`sacx::StandoffDoc::from_goddag_with_ids`]) and of every
//!   leaf (in frontier order, with its byte offset, so extra leaf boundaries
//!   from past splits are kept),
//! * the **edit epoch** the document was at.
//!
//! [`DocBlob::restore`] is one build pass: the parsed stand-off goes to a
//! [`goddag::GoddagBuilder`] together with the recorded [`goddag::Layout`],
//! which places every leaf and element in its recorded arena slot (the
//! other slots become tombstones) and numbers the document once; then the
//! DTDs are re-attached and the epoch restored. The result is id-for-id and
//! epoch-for-epoch equivalent to the captured document, so log replay is
//! deterministic. Restore costs what building the document did — linear in
//! its size.
//!
//! Stand-off does not record where an *empty* element sits among elements
//! that open or close at its offset (an edit can put a milestone inside a
//! word that ends there, or leave empty elements nested): such elements
//! come back outermost, as siblings in id order, with the same ids, and a
//! second capture → restore reproduces that document exactly.
//!
//! The text form is declared once as a [`sacx::directives!`] file:
//! `arena`, `elems`, `leaves` and `standoff` exactly once, `dtd` per
//! schema, and a `crc` footer.

use crate::error::PersistError;
use cxobs::trace;
use goddag::{Goddag, Layout, NodeId};
use sacx::token::dec;
use sacx::{Block, Field, StandoffDoc, Tokens, Writer};
use std::fmt::Write as _;

sacx::directives! {
    /// A complete serialized document (see module docs).
    #[derive(Debug, Clone, PartialEq)]
    pub struct DocBlob("#cxblob v1", Crc) -> PersistError::Codec {
        "arena" once {
            /// Arena length at capture (ids are never reused, so future edit
            /// allocations start here).
            arena_len: u32,
            /// Root node id (always 0 in documents this workspace builds;
            /// recorded for validation).
            root: u32,
            /// Edit epoch at capture.
            epoch: u64,
        },
        "elems" once {
            /// Original element ids, parallel to the stand-off annotations.
            elems: Vec<u32>,
        },
        "leaves" once {
            /// Original `(leaf id, byte offset)` pairs in frontier order.
            leaves: Vec<(u32, usize)> as Leaves,
        },
        "dtd" many {
            /// `(hierarchy index, DTD external-subset text)` for each
            /// hierarchy that carries a schema.
            dtds: (u16, String),
        },
        "standoff" once {
            /// Stand-off text (`sacx` v1 format).
            standoff: String as Block,
        },
    }
}

/// The `leaves` line: `<k> <id>:<byte offset> …`.
pub struct Leaves;

impl Field<Vec<(u32, usize)>> for Leaves {
    fn write(v: &Vec<(u32, usize)>, w: &mut Writer) {
        usize::write(&v.len(), w);
        for (id, off) in v {
            let _ = write!(w.token(), "{id}:{off}");
        }
    }
    fn read(t: &mut Tokens<'_>, what: &str) -> Result<Vec<(u32, usize)>, String> {
        let k = usize::read(t, what)?;
        let mut out = Vec::with_capacity(k.min(1 << 12));
        for _ in 0..k {
            let leaf = t.token(what)?.split_once(':').and_then(|(id, off)| {
                Some((u32::try_from(dec(id)?).ok()?, usize::try_from(dec(off)?).ok()?))
            });
            out.push(leaf.ok_or("bad leaf entry")?);
        }
        Ok(out)
    }
}

impl DocBlob {
    /// Capture a document.
    pub fn capture(g: &Goddag) -> DocBlob {
        let _trace = trace::span("blob.capture");
        let (doc, elem_ids) = StandoffDoc::from_goddag_with_ids(g);
        let mut dtds = Vec::new();
        for h in g.hierarchy_ids() {
            #[expect(
                clippy::expect_used,
                reason = "invariant: `h` comes from this goddag's own hierarchy_ids"
            )]
            let hierarchy = g.hierarchy(h).expect("live id");
            if let Some(dtd) = &hierarchy.dtd {
                dtds.push((h.0, dtd.to_text()));
            }
        }
        DocBlob {
            standoff: doc.to_text(),
            dtds,
            arena_len: g.arena_len() as u32,
            root: g.root().0,
            epoch: g.edit_epoch(),
            elems: elem_ids.iter().map(|e| e.0).collect(),
            leaves: g
                .leaves()
                .iter()
                .map(|&l| {
                    let (start, _) = g.char_range(l);
                    (l.0, start)
                })
                .collect(),
        }
    }

    /// Rebuild the document in one pass: build the stand-off straight
    /// into the recorded id layout, re-attach DTDs, restore the epoch. A
    /// blob whose layout does not fit its stand-off is a
    /// [`PersistError::Codec`], never a panic.
    pub fn restore(&self) -> Result<Goddag, PersistError> {
        let _trace = trace::span("blob.restore");
        let corrupt = |detail: String| PersistError::Codec { line: 0, detail };
        if self.root != 0 {
            return Err(corrupt(format!("root id mismatch: 0 vs {}", self.root)));
        }
        let mut b = StandoffDoc::parse_text(&self.standoff)
            .and_then(StandoffDoc::into_builder)
            .map_err(|e| corrupt(format!("stand-off import failed: {e}")))?;
        b.layout(Layout {
            arena_len: self.arena_len as usize,
            leaves: self.leaves.iter().map(|&(id, off)| (NodeId(id), off)).collect(),
            elements: self.elems.iter().map(|&id| NodeId(id)).collect(),
        });
        let mut g = b.finish().map_err(|e| corrupt(format!("stand-off build failed: {e}")))?;
        for (h, text) in &self.dtds {
            let dtd = xmlcore::dtd::parse_dtd(text)
                .map_err(|e| corrupt(format!("DTD for hierarchy {h} does not parse: {e}")))?;
            g.set_dtd(goddag::HierarchyId(*h), dtd)
                .map_err(|e| corrupt(format!("DTD for hierarchy {h}: {e}")))?;
        }
        g.force_edit_epoch(self.epoch);
        Ok(g)
    }
}

/// A blob travels raw after its line: in a WAL `ins` record, a wire
/// snapshot and a `cxq1` insert.
impl sacx::Raw for DocBlob {
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.to_text().as_bytes());
    }
    fn take(bytes: &[u8]) -> Result<DocBlob, String> {
        let text = std::str::from_utf8(bytes).map_err(|_| "blob is not UTF-8")?;
        DocBlob::parse_text(text).map_err(|e| format!("blob: {e}"))
    }
}

/// A blob's default spelling is a block after its line.
impl Field for DocBlob {
    fn write(v: &DocBlob, w: &mut Writer) {
        <Block>::write(v, w);
    }
    fn read(t: &mut Tokens<'_>, what: &str) -> Result<DocBlob, String> {
        <Block>::read(t, what)
    }
}

/// A document on its way into a durable store: the GODDAG the store
/// applies in memory and the [`DocBlob`] its `DocInsert` record logs.
/// Built only by [`LoggedDoc::capture`] or [`LoggedDoc::restore`], so the
/// two always describe the same document — a blob that arrived over the
/// wire or from a migration is restored once and logged verbatim, never
/// captured again.
pub struct LoggedDoc {
    pub(crate) goddag: Goddag,
    pub(crate) blob: DocBlob,
}

impl LoggedDoc {
    /// A document built in this process: capture its blob.
    pub fn capture(goddag: Goddag) -> LoggedDoc {
        LoggedDoc { blob: DocBlob::capture(&goddag), goddag }
    }

    /// A received blob: restore its document (failing as
    /// [`DocBlob::restore`] does) and keep the blob as the record to log.
    pub fn restore(blob: DocBlob) -> Result<LoggedDoc, PersistError> {
        Ok(LoggedDoc { goddag: blob.restore()?, blob })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::crc32;
    use goddag::HierarchyId;

    fn sample() -> Goddag {
        let mut g = sacx::parse_distributed(&[
            ("phys", "<r><line n=\"1\">swa hwa swe</line><line n=\"2\">nu sculon</line></r>"),
            ("ling", "<r><w>swa</w> <w>hwa</w> <s><w>swenu</w> <w>sculon</w></s></r>"),
        ])
        .unwrap();
        let h = g.hierarchy_by_name("ling").unwrap();
        g.set_dtd(h, xmlcore::dtd::parse_dtd("<!ELEMENT r ANY> <!ELEMENT w (#PCDATA)>").unwrap())
            .unwrap();
        g
    }

    #[test]
    fn text_roundtrip() {
        let blob = DocBlob::capture(&sample());
        let text = blob.to_text();
        let again = DocBlob::parse_text(&text).unwrap();
        assert_eq!(again, blob);
        // Fixpoint.
        assert_eq!(again.to_text(), text);
    }

    #[test]
    fn corruption_detected() {
        let text = DocBlob::capture(&sample()).to_text();
        let mut bytes = text.clone().into_bytes();
        bytes[20] ^= 0x20;
        let flipped = String::from_utf8(bytes).unwrap();
        assert!(DocBlob::parse_text(&flipped).is_err());
        assert!(DocBlob::parse_text("").is_err());
        assert!(DocBlob::parse_text("#cxblob v1\n").is_err());
    }

    #[test]
    fn the_crc_footer_has_one_spelling() {
        // A blob whose CRC has a leading zero digit, so the footer has a
        // signed (`+1234abc`) and an unpadded (`1234abc`) second spelling.
        let text = (0..)
            .map(|i| {
                let doc = format!("<r><w>w{i}</w></r>");
                DocBlob::capture(&sacx::parse_distributed(&[("a", &doc)]).unwrap()).to_text()
            })
            .find(|t| t.ends_with(&format!("crc 0{}\n", &t[t.len() - 8..t.len() - 1])))
            .unwrap();
        assert!(DocBlob::parse_text(&text).is_ok());
        let padded = &text[text.len() - 9..text.len() - 1];
        for other in [format!("+{}", &padded[1..]), padded[1..].to_string()] {
            let respelled = text.replace(&format!("crc {padded}\n"), &format!("crc {other}\n"));
            assert!(DocBlob::parse_text(&respelled).is_err(), "footer crc {other} accepted");
        }
    }

    #[test]
    fn extra_tokens_on_a_directive_line_are_refused_under_a_valid_crc() {
        let text = DocBlob::capture(&sample()).to_text();
        // Append `extra` to the first line starting with `prefix`, then
        // re-sign: the CRC is the sender's own, so it vouches for nothing.
        let tampered = |prefix: &str, extra: &str| {
            let body = &text[..text.rfind("crc ").unwrap()];
            let mut hit = false;
            let mut out = String::new();
            for line in body.split_inclusive('\n') {
                if !hit && line.starts_with(prefix) {
                    hit = true;
                    out.push_str(line.trim_end_matches('\n'));
                    out.push_str(extra);
                    out.push('\n');
                } else {
                    out.push_str(line);
                }
            }
            assert!(hit, "the sample has a {prefix:?} line");
            let crc = crc32(out.as_bytes());
            format!("{out}crc {crc:08x}\n")
        };
        assert_eq!(DocBlob::parse_text(&tampered("arena ", "")).unwrap().to_text(), text);
        for (prefix, extra) in [("arena ", " 7"), ("dtd ", " junk"), ("standoff ", " junk")] {
            let bad = tampered(prefix, extra);
            assert!(
                matches!(DocBlob::parse_text(&bad), Err(PersistError::Codec { .. })),
                "{prefix:?} line with {extra:?} accepted"
            );
        }
    }

    #[test]
    fn one_spelling_per_blob_under_a_recomputed_crc() {
        let text = DocBlob::capture(&sample()).to_text();
        let body = &text[..text.rfind("crc ").unwrap()];
        let seal = |body: &str| format!("{body}crc {:08x}\n", crc32(body.as_bytes()));
        assert_eq!(DocBlob::parse_text(&seal(body)).unwrap().to_text(), text);
        let arena = body.lines().find(|l| l.starts_with("arena ")).unwrap();
        let elems = body.lines().find(|l| l.starts_with("elems ")).unwrap();
        let (count, first) = {
            let mut parts = elems.split(' ').skip(1);
            (parts.next().unwrap(), parts.next().unwrap())
        };
        for bad in [
            body.replacen("#cxblob v1", "  #cxblob v1  ", 1),
            // A repeated singleton is refused, not resolved last-wins.
            body.replacen(arena, &format!("arena 1 0 0\n{arena}"), 1),
            body.replacen(elems, &format!("elems {count} +{first}"), 1),
            body.replacen(elems, &format!("{elems} "), 1),
            body.replacen(arena, &arena.replacen("arena ", "arena 0", 1), 1),
            body.replacen(arena, &arena.replacen(" 0 ", " 00 ", 1), 1),
            // An extra newline after the stand-off block.
            format!("{body}\n"),
        ] {
            assert_ne!(bad, body);
            assert!(DocBlob::parse_text(&seal(&bad)).is_err(), "{bad:?} accepted");
        }
        let crc = &text[text.rfind("crc ").unwrap() + 4..text.len() - 1];
        if crc.bytes().any(|b| b.is_ascii_lowercase()) {
            let upper = format!("{body}crc {}\n", crc.to_uppercase());
            assert!(DocBlob::parse_text(&upper).is_err(), "{upper:?} accepted");
        }
        assert!(DocBlob::parse_text(text.trim_end_matches('\n')).is_err());
    }

    #[test]
    fn restore_reproduces_ids_epochs_and_future_allocations() {
        let mut g = sample();
        // Edit history so the arena has tombstones and extra boundaries.
        let ling = g.hierarchy_by_name("ling").unwrap();
        let e = g.insert_element(ling, xmlcore::QName::parse("w").unwrap(), vec![], 0, 3).unwrap();
        g.remove_element(e).unwrap();
        g.split_leaf_at(1).unwrap();
        g.set_attr(g.root(), "status", "draft").unwrap();

        let blob = DocBlob::capture(&g);
        let r = blob.restore().unwrap();
        goddag::check_invariants(&r).unwrap();
        assert_eq!(r.edit_epoch(), g.edit_epoch());
        assert_eq!(r.arena_len(), g.arena_len());
        assert_eq!(r.leaves(), g.leaves());
        assert_eq!(r.content(), g.content());
        for h in g.hierarchy_ids() {
            assert_eq!(r.to_xml(h).unwrap(), g.to_xml(h).unwrap());
            assert_eq!(
                r.hierarchy(h).unwrap().dtd.is_some(),
                g.hierarchy(h).unwrap().dtd.is_some()
            );
        }
        assert_eq!(
            sacx::export_standoff(&r),
            sacx::export_standoff(&g),
            "stand-off is byte-identical"
        );
        // Same future id allocation: the next edit mints the same id.
        let mut g2 = g.clone();
        let mut r2 = r.clone();
        let a = g2.insert_element(ling, xmlcore::QName::parse("w").unwrap(), vec![], 4, 7).unwrap();
        let b = r2.insert_element(ling, xmlcore::QName::parse("w").unwrap(), vec![], 4, 7).unwrap();
        assert_eq!(a, b);
        assert_eq!(g2.edit_epoch(), r2.edit_epoch());
    }

    #[test]
    fn restore_is_deterministic_for_equal_span_nesting() {
        // The depth-ordered stand-off fix in action: parent id > child id.
        let mut g = sacx::parse_distributed(&[("a", "<r>abcdefg</r>")]).unwrap();
        let h = g.hierarchy_by_name("a").unwrap();
        let inner =
            g.insert_element(h, xmlcore::QName::parse("inner").unwrap(), vec![], 0, 4).unwrap();
        let outer =
            g.insert_element(h, xmlcore::QName::parse("outer").unwrap(), vec![], 0, 7).unwrap();
        g.delete_text(4, 7).unwrap();
        let r = DocBlob::capture(&g).restore().unwrap();
        assert_eq!(r.parent_in(inner, h), Some(outer));
        assert_eq!(r.to_xml(HierarchyId(0)).unwrap(), g.to_xml(HierarchyId(0)).unwrap());
    }
}
