//! Hierarchy DTDs for the manuscript vocabularies (substituting for the TEI
//! P4 DTDs the paper's edition uses — same formal power: element
//! declarations, content models, attribute lists) — plus random small DTDs
//! and randomly edited manuscripts for the properties that check
//! prevalidation and validation against their references.

use crate::gen::Source;
use crate::{generate, Params};
use goddag::{Goddag, HierarchyId, NodeId};
use xmlcore::dtd::{parse_dtd, ContentModel, ContentSpec, Dtd, ElementDecl};
use xmlcore::QName;

/// Physical structure: pages of lines (mixed content lines), page breaks.
pub const PHYS_DTD: &str = "
    <!ELEMENT r (#PCDATA | page | line | pb)*>
    <!ELEMENT page (#PCDATA | line | pb)*>
    <!ATTLIST page no NMTOKEN #IMPLIED>
    <!ELEMENT line (#PCDATA)>
    <!ATTLIST line n NMTOKEN #IMPLIED>
    <!ELEMENT pb EMPTY>
    <!ATTLIST pb no NMTOKEN #IMPLIED>
";

/// Document structure: sentences, phrases, words.
pub const LING_DTD: &str = "
    <!ELEMENT r (#PCDATA | s | w)*>
    <!ELEMENT s (#PCDATA | phrase | w)*>
    <!ATTLIST s n NMTOKEN #IMPLIED>
    <!ELEMENT phrase (#PCDATA | w)*>
    <!ELEMENT w (#PCDATA)>
    <!ATTLIST w n NMTOKEN #IMPLIED type CDATA #IMPLIED>
";

/// Editorial annotations: damage, restoration, additions.
pub const EDIT_DTD: &str = "
    <!ELEMENT r (#PCDATA | dmg | res | add)*>
    <!ELEMENT dmg (#PCDATA | res)*>
    <!ATTLIST dmg id ID #IMPLIED agent CDATA #IMPLIED>
    <!ELEMENT res (#PCDATA)>
    <!ATTLIST res id ID #IMPLIED resp CDATA #IMPLIED>
    <!ELEMENT add (#PCDATA)>
";

/// [`LING_DTD`] with element content for `s` and `phrase`. The standard
/// DTDs are all mixed content, so [`edited_manuscript`] swaps this in for
/// `ling` in half its cases to reach the element-content rules: text where
/// only elements may go, and a child sequence off the model.
pub const LING_ELEMENT_DTD: &str = "
    <!ELEMENT r (#PCDATA | s | w)*>
    <!ELEMENT s (phrase | w)+>
    <!ATTLIST s n NMTOKEN #IMPLIED>
    <!ELEMENT phrase (w+)>
    <!ELEMENT w (#PCDATA)>
    <!ATTLIST w n NMTOKEN #IMPLIED type CDATA #IMPLIED>
";

/// Parsed physical DTD.
pub fn phys() -> Dtd {
    parse_dtd(PHYS_DTD).expect("PHYS_DTD parses")
}

/// Parsed linguistic DTD.
pub fn ling() -> Dtd {
    parse_dtd(LING_DTD).expect("LING_DTD parses")
}

/// Parsed editorial DTD.
pub fn edit() -> Dtd {
    parse_dtd(EDIT_DTD).expect("EDIT_DTD parses")
}

/// Attach the standard DTDs to a generated manuscript's hierarchies by name.
pub fn attach_standard(g: &mut goddag::Goddag) {
    for (name, dtd) in [("phys", phys()), ("ling", ling()), ("edit", edit())] {
        if let Some(h) = g.hierarchy_by_name(name) {
            g.set_dtd(h, dtd).expect("hierarchy id from the same document");
        }
    }
}

/// A generated manuscript of 5–44 words with the standard DTDs attached
/// (`ling`'s swapped for [`LING_ELEMENT_DTD`] in half the cases), after up
/// to eight raw `goddag` edits that pass no gate: insertions of declared
/// and undeclared tags over whole words or any range, removals, and
/// attribute values that break an NMTOKEN, repeat an ID or are not
/// declared. An edit the document refuses (a crossing range) is skipped,
/// so valid and invalid documents both come out.
pub fn edited_manuscript(src: &mut Source) -> Goddag {
    let params = Params { words: 5 + src.index(40), seed: src.below(1 << 16), ..Params::default() };
    let ms = generate(&params);
    let (mut g, words) = (ms.goddag, ms.word_ranges);
    attach_standard(&mut g);
    if src.below(2) == 0 {
        let ling = g.hierarchy_by_name("ling").expect("generated with a ling hierarchy");
        let dtd = parse_dtd(LING_ELEMENT_DTD).expect("LING_ELEMENT_DTD parses");
        g.set_dtd(ling, dtd).expect("hierarchy id from the same document");
    }
    let hierarchies: Vec<HierarchyId> = g.hierarchy_ids().collect();
    for _ in 0..src.index(9) {
        let h = src.pick(&hierarchies);
        let mut targets: Vec<NodeId> = g.elements_in(h).collect();
        targets.push(g.root());
        let e = src.pick(&targets);
        let _ = match src.below(6) {
            0 | 1 => {
                let tags = ["page", "line", "pb", "s", "phrase", "w", "dmg", "res", "add", "zz"];
                let tag = QName::parse(src.pick(&tags)).expect("tag names parse");
                let (start, end) = if src.below(2) == 0 {
                    let a = src.index(words.len());
                    (words[a].0, words[(a + src.index(3)).min(words.len() - 1)].1)
                } else {
                    let start = src.index(g.content_len() + 1);
                    (start, (start + src.index(12)).min(g.content_len()))
                };
                g.insert_element(h, tag, vec![], start, end).map(drop)
            }
            2 => g.remove_element(e),
            3 => g.set_attr(e, src.pick(&["n", "no"]), src.pick(&["", "a b", "7"])),
            4 => g.set_attr(e, "id", src.pick(&["dmg1", "res1", "x"])),
            _ => g.set_attr(e, "zz", "1"),
        };
    }
    g
}

/// A random DTD declaring `e0` … `e{k-1}` for `k` in `2..=5`: each element
/// `EMPTY`, `ANY`, mixed over up to three names, or a content model up to
/// two levels deep (sequences and choices of one to three parts, each
/// part optionally `?`, `*` or `+`). Names are drawn by [`random_name`],
/// so a model may mention the undeclared `ghost`.
pub fn random(src: &mut Source) -> Dtd {
    let k = 2 + src.index(4);
    let mut dtd = Dtd::new();
    for i in 0..k {
        let content = match src.below(5) {
            0 => ContentSpec::Empty,
            1 => ContentSpec::Any,
            2 => ContentSpec::Mixed((0..src.index(4)).map(|_| random_name(src, k)).collect()),
            _ => ContentSpec::Children(random_model(src, k, 2)),
        };
        dtd.declare(ElementDecl { name: format!("e{i}"), content, attrs: vec![] });
    }
    dtd
}

/// One of the `k` names a [`random`] DTD declares, occasionally the
/// undeclared `ghost`.
pub fn random_name(src: &mut Source, k: usize) -> String {
    if src.below(12) == 0 {
        "ghost".into()
    } else {
        format!("e{}", src.index(k))
    }
}

fn random_model(src: &mut Source, k: usize, depth: usize) -> ContentModel {
    let base = if depth == 0 || src.below(3) == 0 {
        ContentModel::name(random_name(src, k))
    } else {
        let parts: Vec<_> =
            (0..1 + src.index(3)).map(|_| random_model(src, k, depth - 1)).collect();
        if src.below(2) == 0 {
            ContentModel::seq(parts)
        } else {
            ContentModel::choice(parts)
        }
    };
    match src.below(4) {
        0 => base.opt(),
        1 => base.star(),
        2 => base.plus(),
        _ => base,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_dtds_parse() {
        assert!(phys().element("line").is_some());
        assert!(ling().element("w").is_some());
        assert!(edit().element("dmg").is_some());
        assert!(parse_dtd(LING_ELEMENT_DTD).unwrap().element("phrase").is_some());
    }
}
