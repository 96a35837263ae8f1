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

use crate::codec::crc32;
use crate::error::PersistError;
use cxobs::trace;
use goddag::{Goddag, Layout, NodeId};
use sacx::{escape_field, take_line, StandoffDoc, Tokens};
use std::fmt::Write as _;

/// A complete serialized document (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct DocBlob {
    /// Stand-off text (`sacx` v1 format).
    pub standoff: String,
    /// `(hierarchy index, DTD external-subset text)` for each hierarchy
    /// that carries a schema.
    pub dtds: Vec<(u16, String)>,
    /// Arena length at capture (ids are never reused, so future edit
    /// allocations start here).
    pub arena_len: u32,
    /// Root node id (always 0 in documents this workspace builds; recorded
    /// for validation).
    pub root: u32,
    /// Edit epoch at capture.
    pub epoch: u64,
    /// Original element ids, parallel to the stand-off annotations.
    pub elems: Vec<u32>,
    /// Original `(leaf id, byte offset)` pairs in frontier order.
    pub leaves: Vec<(u32, usize)>,
}

impl DocBlob {
    /// Capture a document.
    pub fn capture(g: &Goddag) -> DocBlob {
        let _trace = trace::span("blob.capture");
        let (doc, elem_ids) = StandoffDoc::from_goddag_with_ids(g);
        let mut dtds = Vec::new();
        for h in g.hierarchy_ids() {
            // invariant: `h` comes from this goddag's own hierarchy_ids.
            if let Some(dtd) = &g.hierarchy(h).expect("live id").dtd {
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

    /// Serialize to the versioned text format (used verbatim as snapshot
    /// doc files; percent-escaped as a single WAL token for `DocInsert`
    /// records). Ends with a `crc` footer over everything before it.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("#cxblob v1\n");
        let _ = writeln!(out, "arena {} {} {}", self.arena_len, self.root, self.epoch);
        let _ = write!(out, "elems {}", self.elems.len());
        for e in &self.elems {
            let _ = write!(out, " {e}");
        }
        out.push('\n');
        let _ = write!(out, "leaves {}", self.leaves.len());
        for (l, off) in &self.leaves {
            let _ = write!(out, " {l}:{off}");
        }
        out.push('\n');
        for (h, text) in &self.dtds {
            let _ = writeln!(out, "dtd {h} {}", escape_field(text));
        }
        let _ = writeln!(out, "standoff {}", self.standoff.len());
        out.push_str(&self.standoff);
        if !self.standoff.ends_with('\n') {
            out.push('\n');
        }
        let crc = crc32(out.as_bytes());
        let _ = writeln!(out, "crc {crc:08x}");
        out
    }

    /// Parse the text format, verifying the `crc` footer.
    pub fn parse_text(input: &str) -> Result<DocBlob, PersistError> {
        let bad = |line: usize, detail: String| PersistError::Codec { line, detail };
        // The CRC covers everything up to and including the newline before
        // the footer line.
        let trimmed = input.strip_suffix('\n').unwrap_or(input);
        let Some(split) = trimmed.rfind('\n') else {
            return Err(bad(1, "blob too short".into()));
        };
        let (body, footer) = (&input[..split + 1], &trimmed[split + 1..]);
        let crc_expect = footer
            .strip_prefix("crc ")
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| bad(0, "missing crc footer".into()))?;
        if crc32(body.as_bytes()) != crc_expect {
            return Err(bad(0, "blob CRC mismatch".into()));
        }

        let mut rest = body;
        let mut ln = 0usize;

        let header = take_line(&mut rest).ok_or_else(|| bad(1, "empty blob".into()))?;
        if header.trim() != "#cxblob v1" {
            return Err(bad(1, "bad blob magic".into()));
        }
        let mut arena: Option<(u32, u32, u64)> = None;
        let mut elems: Option<Vec<u32>> = None;
        let mut leaves: Option<Vec<(u32, usize)>> = None;
        let mut dtds: Vec<(u16, String)> = Vec::new();
        let mut standoff: Option<String> = None;
        while let Some(line) = take_line(&mut rest) {
            ln += 1;
            let mut t = Tokens::new(line);
            let mut directive = || -> Result<(), String> {
                match t.token("directive")? {
                    "arena" => {
                        arena = Some((
                            t.parse("arena length")?,
                            t.parse("root id")?,
                            t.parse("epoch")?,
                        ));
                    }
                    "elems" => {
                        let n: usize = t.parse("element count")?;
                        let ids: Vec<u32> = t
                            .by_ref()
                            .map(str::parse)
                            .collect::<Result<_, _>>()
                            .map_err(|_| "bad element id")?;
                        if ids.len() != n {
                            return Err("element count mismatch".into());
                        }
                        elems = Some(ids);
                    }
                    "leaves" => {
                        let n: usize = t.parse("leaf count")?;
                        let ids: Vec<(u32, usize)> = t
                            .by_ref()
                            .map(|entry| {
                                let (id, off) = entry.split_once(':')?;
                                Some((id.parse().ok()?, off.parse().ok()?))
                            })
                            .collect::<Option<_>>()
                            .ok_or("bad leaf entry")?;
                        if ids.len() != n {
                            return Err("leaf count mismatch".into());
                        }
                        leaves = Some(ids);
                    }
                    "dtd" => dtds.push((t.parse("hierarchy index")?, t.string("DTD text")?)),
                    "standoff" => {
                        let len: usize = t.parse("stand-off length")?;
                        if rest.len() < len || !rest.is_char_boundary(len) {
                            return Err("stand-off length out of bounds".into());
                        }
                        standoff = Some(rest[..len].to_string());
                        rest = &rest[len..];
                        if let Some(r) = rest.strip_prefix('\n') {
                            rest = r;
                        }
                    }
                    other => return Err(format!("unknown blob directive {other:?}")),
                }
                t.finish()
            };
            directive().map_err(|detail| bad(ln, detail))?;
        }
        let (arena_len, root, epoch) = arena.ok_or_else(|| bad(ln, "missing arena line".into()))?;
        Ok(DocBlob {
            standoff: standoff.ok_or_else(|| bad(ln, "missing stand-off".into()))?,
            dtds,
            arena_len,
            root,
            epoch,
            elems: elems.ok_or_else(|| bad(ln, "missing elems line".into()))?,
            leaves: leaves.ok_or_else(|| bad(ln, "missing leaves line".into()))?,
        })
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
