//! `DocBlob::restore` rebuilds a document id-for-id.
//!
//! * `fixtures/blob_v1.cxblob` was captured (and `fixtures/blob_v1.standoff`
//!   exported) by commit `44d6e80`, whose restore re-imported the stand-off,
//!   re-split the frontier and relabelled the arena. A snapshot written then
//!   must restore to the same document now, and re-capturing it must give
//!   the same bytes back.
//! * A seeded generator applies arbitrary edit histories to corpus
//!   documents — element inserts and removals (equal-span nesting and
//!   milestones included), text inserts and deletes, leaf splits, attribute
//!   edits with hostile values — and requires capture → text → parse →
//!   restore to be exact wherever stand-off pins the structure, and to land
//!   on a document a second round trip keeps exactly where it does not
//!   (see [`standoff_pins_structure`]).
//! * Hostile blobs fail with [`PersistError::Codec`], never with a panic.

use cxpersist::{DocBlob, PersistError};
use goddag::{Goddag, HierarchyId, NodeId};
use proptest::prelude::*;
use proptest::TestRng;
use xmlcore::QName;

const FIXTURE_BLOB: &str = include_str!("fixtures/blob_v1.cxblob");
const FIXTURE_STANDOFF: &str = include_str!("fixtures/blob_v1.standoff");

/// Empty, separators, escapes, newlines, tabs and non-ASCII bytes.
const HOSTILE: &[&str] =
    &["", " ", "a = b", "=", "%", "%25", "line\nbreak\r", "tab\there", "swā þæt"];

fn q(s: &str) -> QName {
    QName::parse(s).unwrap()
}

/// The document behind the fixture: two hierarchies with DTDs, non-ASCII
/// content, and an edit history that leaves tombstones (a removed element,
/// an emptied leaf), extra leaf boundaries, equal-span nesting whose parent
/// has the higher id, a milestone and hostile attribute values.
fn fixture_doc() -> Goddag {
    let mut g = sacx::parse_distributed(&[
        (
            "phys",
            "<r id=\"ms 1\"><line n=\"1\">swā hwa swe</line><line n=\"2\">nu sculon herigean</line></r>",
        ),
        (
            "ling",
            "<r id=\"ms 1\"><w>swā</w> <w>hwa</w> <s><w>swenu</w> <w>sculon</w> herigean</s></r>",
        ),
    ])
    .unwrap();
    let phys = g.hierarchy_by_name("phys").unwrap();
    let ling = g.hierarchy_by_name("ling").unwrap();
    g.set_dtd(phys, corpus::dtds::phys()).unwrap();
    g.set_dtd(ling, corpus::dtds::ling()).unwrap();
    // Equal-span nesting with the parent minted last: wrap "swā hwa", wrap
    // "swā hwa " around it, then delete the space (its leaf dies).
    let inner = g.insert_element(ling, q("phrase"), vec![], 0, 8).unwrap();
    let outer = g.insert_element(ling, q("s"), vec![], 0, 9).unwrap();
    g.delete_text(8, 9).unwrap();
    assert_eq!(g.parent_in(inner, ling), Some(outer));
    // A milestone, a removed word, a split inside a word, new text.
    g.insert_element(phys, q("pb"), vec![], 4, 4).unwrap();
    let w = g.find_elements("w")[1];
    g.remove_element(w).unwrap();
    g.split_leaf_at(20).unwrap();
    g.insert_text(0, "þā ").unwrap();
    for (i, v) in HOSTILE.iter().enumerate() {
        let line = g.find_elements("line")[i % 2];
        g.set_attr(line, &format!("note{i}"), v).unwrap();
    }
    g.set_attr(g.root(), "status", "draft = 100%\n").unwrap();
    g.remove_attr(g.find_elements("line")[0], "note0").unwrap();
    g
}

/// Does the stand-off form pin this document's structure? It does not
/// record where an *empty* element sits among the elements that open or
/// close at its offset: the builder places it outermost, while
/// `insert_element` places a milestone innermost (inside a `w` that ends
/// there) and deleting text can leave empty elements nested in each
/// other. Re-importing the export shows whether that happened.
fn standoff_pins_structure(g: &Goddag) -> bool {
    let again = sacx::import_standoff(&sacx::export_standoff(g)).unwrap();
    g.hierarchy_ids().all(|h| again.to_xml(h).unwrap() == g.to_xml(h).unwrap())
}

/// Id-for-id equality: arena, frontier, epoch, stand-off export, and for
/// every id its liveness and — when live — its kind (name, attributes,
/// hierarchy, leaf text), span, byte range, parents and children in every
/// hierarchy. DTDs must match too.
///
/// With `exact == false` the placement stand-off cannot carry (see
/// [`standoff_pins_structure`]) is exempt: an empty element's parent is
/// compared by offset only, child lists without empty elements, and the
/// export as a set of lines (equal-offset empty annotations sort by depth).
fn assert_same_document(a: &Goddag, b: &Goddag, exact: bool, ctx: &str) {
    assert_eq!(a.arena_len(), b.arena_len(), "{ctx}: arena length");
    assert_eq!(a.leaves(), b.leaves(), "{ctx}: frontier");
    assert_eq!(a.edit_epoch(), b.edit_epoch(), "{ctx}: epoch");
    let (ea, eb) = (sacx::export_standoff(a), sacx::export_standoff(b));
    if exact {
        assert_eq!(ea, eb, "{ctx}: stand-off");
    } else {
        let sorted = |s: &str| {
            let mut v: Vec<String> = s.lines().map(str::to_string).collect();
            v.sort();
            v
        };
        assert_eq!(sorted(&ea), sorted(&eb), "{ctx}: stand-off lines");
    }
    let exempt = |g: &Goddag, n: NodeId| !exact && g.is_element(n) && g.span(n).is_empty();
    for h in a.hierarchy_ids() {
        let (ha, hb) = (a.hierarchy(h).unwrap(), b.hierarchy(h).unwrap());
        assert_eq!(ha.name, hb.name, "{ctx}: hierarchy {h}");
        assert_eq!(ha.dtd.as_ref().map(|d| d.to_text()), hb.dtd.as_ref().map(|d| d.to_text()));
    }
    for n in (0..a.arena_len() as u32).map(NodeId) {
        assert_eq!(a.is_alive(n), b.is_alive(n), "{ctx}: liveness of {n}");
        if !a.is_alive(n) {
            continue;
        }
        assert_eq!(a.kind(n), b.kind(n), "{ctx}: kind of {n}");
        assert_eq!(a.span(n), b.span(n), "{ctx}: span of {n}");
        assert_eq!(a.char_range(n), b.char_range(n), "{ctx}: range of {n}");
        for h in a.hierarchy_ids() {
            if !exempt(a, n) {
                assert_eq!(a.parent_in(n, h), b.parent_in(n, h), "{ctx}: parent of {n} in {h}");
            }
            let children = |g: &Goddag| -> Vec<NodeId> {
                g.children_in(n, h).iter().copied().filter(|&c| !exempt(g, c)).collect()
            };
            assert_eq!(children(a), children(b), "{ctx}: children of {n} in {h}");
        }
    }
}

/// The next edit on both documents mints the same id at the same epoch.
fn assert_same_next_id(a: &Goddag, b: &Goddag, ctx: &str) {
    let (mut a, mut b) = (a.clone(), b.clone());
    let h = HierarchyId(0);
    let len = a.content_len();
    let x = a.insert_element(h, q("probe"), vec![], 0, len).unwrap();
    let y = b.insert_element(h, q("probe"), vec![], 0, len).unwrap();
    assert_eq!(x, y, "{ctx}: next minted id");
    assert_eq!(a.edit_epoch(), b.edit_epoch(), "{ctx}: epoch after the next edit");
}

fn roundtrip(g: &Goddag) -> (String, Goddag) {
    let text = DocBlob::capture(g).to_text();
    let restored = DocBlob::parse_text(&text).unwrap().restore().unwrap();
    (text, restored)
}

#[test]
fn fixture_restores_to_the_recorded_document() {
    let r = DocBlob::parse_text(FIXTURE_BLOB).unwrap().restore().unwrap();
    goddag::check_invariants(&r).unwrap();
    assert_eq!(sacx::export_standoff(&r), FIXTURE_STANDOFF);
    // Re-capture gives the snapshot back byte for byte: same ids, same
    // leaf boundaries, same epoch.
    assert_eq!(DocBlob::capture(&r).to_text(), FIXTURE_BLOB);
    let g = fixture_doc();
    assert!(standoff_pins_structure(&g));
    assert_same_document(&g, &r, true, "fixture");
    assert_same_next_id(&g, &r, "fixture");
}

#[test]
fn capture_of_the_fixture_document_is_byte_identical() {
    let g = fixture_doc();
    assert_eq!(DocBlob::capture(&g).to_text(), FIXTURE_BLOB);
    assert_eq!(sacx::export_standoff(&g), FIXTURE_STANDOFF);
}

/// Seeded edit histories over a corpus document.
struct Gen(TestRng);

impl Gen {
    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.0.below(items.len() as u64) as usize]
    }

    /// A char-boundary offset in `0..=content_len`.
    fn offset(&mut self, g: &Goddag) -> usize {
        let content = g.content();
        let offsets: Vec<usize> =
            content.char_indices().map(|(i, _)| i).chain([content.len()]).collect();
        self.pick(&offsets)
    }

    /// An ordered pair of char-boundary offsets at most ~`max` bytes apart.
    fn range(&mut self, g: &Goddag, max: usize) -> (usize, usize) {
        let s = self.offset(g);
        let content = g.content();
        let mut e = (s + self.0.below(max as u64 + 1) as usize).min(content.len());
        while !content.is_char_boundary(e) {
            e += 1;
        }
        (s, e)
    }

    fn hierarchy(&mut self, g: &Goddag) -> HierarchyId {
        HierarchyId(self.0.below(g.hierarchy_count() as u64) as u16)
    }

    fn attrs(&mut self) -> Vec<xmlcore::Attribute> {
        (0..self.0.below(3))
            .map(|i| xmlcore::Attribute::new(format!("a{i}").as_str(), self.pick(HOSTILE)))
            .collect()
    }

    fn element(&mut self, g: &Goddag) -> Option<NodeId> {
        let live: Vec<NodeId> = g.elements().collect();
        (!live.is_empty()).then(|| self.pick(&live))
    }

    /// One edit. Failed edits are part of the history too: an element
    /// insert that would cross has already split the frontier.
    fn edit(&mut self, g: &mut Goddag) {
        let tags = ["w", "s", "phrase", "line", "dmg", "res", "seg"];
        match self.0.below(9) {
            0 => {
                let (h, (s, e), a) = (self.hierarchy(g), self.range(g, 40), self.attrs());
                let _ = g.insert_element(h, q(self.pick(&tags)), a, s, e);
            }
            1 => {
                // Equal spans: a second element over the first one's range
                // nests inside it (child has the higher id) …
                let (h, (s, e)) = (self.hierarchy(g), self.range(g, 30));
                if g.insert_element(h, q("seg"), vec![], s, e).is_ok() {
                    let _ = g.insert_element(h, q("w"), vec![], s, e);
                }
            }
            2 => {
                // … or wraps a range one char wider, which deleting that char
                // turns into equal spans with the parent minted last.
                let (h, (s, e)) = (self.hierarchy(g), self.range(g, 30));
                let content = g.content();
                let Some(c) = content[e..].chars().next() else { return };
                let wider = e + c.len_utf8();
                if g.insert_element(h, q("phrase"), vec![], s, e).is_ok()
                    && g.insert_element(h, q("s"), vec![], s, wider).is_ok()
                {
                    g.delete_text(e, wider).unwrap();
                }
            }
            3 => {
                let (h, o) = (self.hierarchy(g), self.offset(g));
                let _ = g.insert_element(h, q("pb"), self.attrs(), o, o);
            }
            4 => {
                if let Some(e) = self.element(g) {
                    g.remove_element(e).unwrap();
                }
            }
            5 => {
                let o = self.offset(g);
                g.insert_text(o, self.pick(&["þ", "x", " ", "\n", "ā b", "%"])).unwrap();
            }
            6 => {
                let (s, e) = self.range(g, 12);
                g.delete_text(s, e).unwrap();
            }
            7 => {
                let o = self.offset(g);
                g.split_leaf_at(o).unwrap();
            }
            _ => {
                let n = self.element(g).unwrap_or(g.root());
                let name = self.pick(&["n", "type", "note", "resp"]);
                if self.0.below(3) == 0 {
                    g.remove_attr(n, name).unwrap();
                } else {
                    g.set_attr(n, name, self.pick(HOSTILE)).unwrap();
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn restore_is_id_for_id_exact_after_arbitrary_histories(
        seed in 0u64..u64::MAX,
        len in 1usize..40,
    ) {
        let mut gen = Gen(TestRng::from_name(&format!("blob-{seed}")));
        let params = corpus::Params { words: 30, seed, ..corpus::Params::default() };
        let mut g = corpus::generate(&params).goddag;
        corpus::dtds::attach_standard(&mut g);
        for _ in 0..len {
            gen.edit(&mut g);
        }
        goddag::check_invariants(&g).unwrap();
        let ctx = format!("seed {seed}");
        let (text, r) = roundtrip(&g);
        goddag::check_invariants(&r).unwrap();
        assert_same_next_id(&g, &r, &ctx);
        if standoff_pins_structure(&g) {
            assert_same_document(&g, &r, true, &ctx);
            prop_assert_eq!(DocBlob::capture(&r).to_text(), text, "{}: re-capture", ctx);
        } else {
            // Everything else is still exact, and the restored document is
            // the canonical one: it survives a second round trip exactly.
            assert_same_document(&g, &r, false, &ctx);
            prop_assert!(standoff_pins_structure(&r), "{}: restore is canonical", ctx);
            let (text, r2) = roundtrip(&r);
            assert_same_document(&r, &r2, true, &ctx);
            prop_assert_eq!(DocBlob::capture(&r2).to_text(), text, "{}: re-capture", ctx);
        }
    }
}

#[test]
fn restore_handles_documents_without_content_or_markup() {
    for xml in ["<r/>", "<r>just text</r>", "<r><pb/></r>"] {
        let g = sacx::parse_distributed(&[("a", xml)]).unwrap();
        let (_, r) = roundtrip(&g);
        assert_same_document(&g, &r, true, xml);
        assert_same_next_id(&g, &r, xml);
    }
}

/// A small valid blob with non-ASCII content, an extra leaf boundary, a
/// tombstone and a DTD; every hostile case below corrupts one field.
fn valid_blob() -> DocBlob {
    let mut g = sacx::parse_distributed(&[
        ("phys", "<r><line>swā hwa</line> <line>nu</line></r>"),
        ("ling", "<r><w>swā</w> <s><w>hwa</w> <w>nu</w></s></r>"),
    ])
    .unwrap();
    g.set_dtd(HierarchyId(1), corpus::dtds::ling()).unwrap();
    let w = g.find_elements("w")[0];
    g.remove_element(w).unwrap();
    g.split_leaf_at(6).unwrap();
    let blob = DocBlob::capture(&g);
    blob.restore().expect("the uncorrupted blob restores");
    blob
}

/// What a hostile case does to a valid blob, and how.
type Corruption = (&'static str, fn(&mut DocBlob));

#[test]
fn hostile_blobs_are_codec_errors_not_panics() {
    let base = valid_blob();
    let cases: Vec<Corruption> = vec![
        ("leaf offset inside a char", |b| b.leaves[1].1 = 3),
        ("leaf offset beyond the content", |b| b.leaves.last_mut().unwrap().1 = 1000),
        ("leaf offset at the content end", |b| b.leaves.last_mut().unwrap().1 = 11),
        ("leaf offsets not ascending", |b| {
            let (x, y) = (b.leaves[1].1, b.leaves[2].1);
            b.leaves[1].1 = y;
            b.leaves[2].1 = x;
        }),
        ("first leaf not at 0", |b| b.leaves[0].1 = 1),
        ("duplicate leaf offset", |b| b.leaves[2].1 = b.leaves[1].1),
        ("duplicate element id", |b| b.elems[1] = b.elems[0]),
        ("element id reused by a leaf", |b| b.leaves[0].0 = b.elems[0]),
        ("element id at arena length", |b| b.elems[0] = b.arena_len),
        ("leaf id beyond arena length", |b| b.leaves[0].0 = u32::MAX),
        ("element id equal to the root", |b| b.elems[0] = 0),
        ("leaf id equal to the root", |b| b.leaves[0].0 = 0),
        ("arena too small", |b| b.arena_len = 3),
        ("root id not 0", |b| b.root = 1),
        ("one element id too few", |b| {
            b.elems.pop();
        }),
        ("one element id too many", |b| b.elems.push(b.arena_len - 1)),
        ("annotation endpoint missing from the leaves", |b| {
            // Offset 9 starts the second line and the word "nu".
            b.leaves.retain(|&(_, off)| off != 9);
        }),
        ("no leaves for non-empty content", |b| b.leaves.clear()),
        ("DTD does not parse", |b| b.dtds[0].1 = "<!ELEMENT".into()),
        ("DTD for an unknown hierarchy", |b| b.dtds[0].0 = 9),
        ("stand-off does not parse", |b| b.standoff = "#cxml-standoff v1\nroot".into()),
    ];
    for (what, corrupt) in cases {
        let mut blob = base.clone();
        corrupt(&mut blob);
        assert!(
            matches!(blob.restore(), Err(PersistError::Codec { .. })),
            "{what}: {:?}",
            blob.restore().map(|g| g.arena_len())
        );
        // The text form carries the same corruption past the CRC.
        let reparsed = DocBlob::parse_text(&blob.to_text()).unwrap();
        assert!(matches!(reparsed.restore(), Err(PersistError::Codec { .. })), "{what} (text)");
    }
}
