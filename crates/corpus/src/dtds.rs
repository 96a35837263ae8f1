//! Hierarchy DTDs for the manuscript vocabularies (substituting for the TEI
//! P4 DTDs the paper's edition uses — same formal power: element
//! declarations, content models, attribute lists) — and random small DTDs
//! for the properties that check prevalidation against its references.

use crate::gen::Source;
use xmlcore::dtd::{parse_dtd, ContentModel, ContentSpec, Dtd, ElementDecl};

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
    }

    #[test]
    fn generated_manuscript_validates() {
        let ms = crate::manuscript::generate(&crate::manuscript::Params::sized(200));
        let mut g = ms.goddag;
        attach_standard(&mut g);
        for (h, report) in goddag::validate_all(&g) {
            assert!(
                report.is_valid(),
                "hierarchy {h} invalid: {:?}",
                &report.errors[..report.errors.len().min(5)]
            );
        }
    }

    #[test]
    fn figure1_validates_against_dtds() {
        let mut g = crate::figure1::goddag();
        // figure1 hierarchies: phys, ling, res, dmg — res/dmg both use the
        // editorial vocabulary.
        attach_standard(&mut g);
        for name in ["res", "dmg"] {
            let h = g.hierarchy_by_name(name).unwrap();
            g.set_dtd(h, edit()).unwrap();
        }
        for (h, report) in goddag::validate_all(&g) {
            assert!(report.is_valid(), "hierarchy {h}: {:?}", report.errors);
        }
    }
}
