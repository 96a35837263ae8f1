//! Cross-crate consistency of the prevalidation stack (experiment B3's
//! correctness side):
//!
//! * if `check_insertion` approves an insertion, actually performing it must
//!   succeed structurally and leave the hierarchy potentially valid;
//! * if the strict validator accepts a document, the potential-validity
//!   checker must too (valid ⇒ potentially valid);
//! * every tag in `suggest_tags` is individually insertable, and no
//!   non-suggested declared tag is.

use corpus::{dtds, generate, Params};
use goddag::Goddag;
use prevalid::{check_hierarchy, check_insertion, suggest_tags, PrevalidEngine};

fn manuscript() -> (Goddag, goddag::HierarchyId) {
    let ms = generate(&Params { words: 60, seed: 99, ..Params::default() });
    let mut g = ms.goddag;
    dtds::attach_standard(&mut g);
    let ling = g.hierarchy_by_name("ling").unwrap();
    (g, ling)
}

/// The char-boundary range `a..a + len`, clamped to the content.
fn selection(g: &Goddag, a: usize, len: usize) -> (usize, usize) {
    let content_len = g.content_len();
    let content = g.content();
    let mut s = a.min(content_len);
    let mut e = (a + len).min(content_len);
    while s > 0 && !content.is_char_boundary(s) {
        s -= 1;
    }
    while e < content_len && !content.is_char_boundary(e) {
        e += 1;
    }
    (s, e)
}

#[test]
fn approved_insertions_succeed_and_stay_potentially_valid() {
    let (g, ling) = manuscript();
    let engine = PrevalidEngine::new(dtds::ling());
    corpus::gen::check("approved_insertions_succeed_and_stay_potentially_valid", 48, |src| {
        let (s, e) = selection(&g, src.index(300), src.index(40));
        let tag = src.pick(&["w", "phrase", "s", "r"]);

        let verdict = check_insertion(&engine, &g, ling, tag, s, e);
        if verdict.ok {
            let mut g2 = g.clone();
            let inserted =
                g2.insert_element(ling, xmlcore::QName::parse(tag).unwrap(), vec![], s, e);
            assert!(inserted.is_ok(), "approved <{tag}> {s}..{e} failed: {:?}", inserted.err());
            goddag::check_invariants(&g2).unwrap();
            let report = check_hierarchy(&engine, &g2, ling);
            assert!(
                report.is_potentially_valid(),
                "approved <{tag}> {s}..{e} left dead ends: {:?}",
                report.failures
            );
        }
    });
}

#[test]
fn suggestions_are_exactly_the_insertable_tags() {
    let (g, ling) = manuscript();
    let engine = PrevalidEngine::new(dtds::ling());
    corpus::gen::check("suggestions_are_exactly_the_insertable_tags", 48, |src| {
        let (s, e) = selection(&g, src.index(200), 1 + src.index(29));
        let suggested = suggest_tags(&engine, &g, ling, s, e);
        for tag in engine.dtd().elements.keys() {
            let approved = check_insertion(&engine, &g, ling, tag, s, e).ok;
            assert_eq!(
                suggested.contains(tag),
                approved,
                "tag {tag} at {s}..{e}: suggested={suggested:?}"
            );
        }
    });
}

#[test]
fn valid_implies_potentially_valid() {
    // The generated manuscript validates strictly against its DTDs; the
    // potential-validity checker must therefore accept every hierarchy too.
    let ms = generate(&Params { words: 150, seed: 3, ..Params::default() });
    let mut g = ms.goddag;
    dtds::attach_standard(&mut g);
    for (h, strict) in goddag::validate_all(&g) {
        assert!(strict.is_valid(), "{h}: {:?}", strict.errors);
        let name = g.hierarchy(h).unwrap().name.clone();
        let dtd = g.hierarchy(h).unwrap().dtd.clone().unwrap();
        let engine = PrevalidEngine::new(dtd);
        let report = check_hierarchy(&engine, &g, h);
        assert!(
            report.is_potentially_valid(),
            "hierarchy {name} valid but not potentially valid: {:?}",
            report.failures
        );
    }
}

#[test]
fn gate_matches_engine_through_session() {
    // The Session's gate and the bare engine must agree.
    let (mut g, ling) = manuscript();
    let engine = PrevalidEngine::new(dtds::ling());
    g.set_dtd(ling, dtds::ling()).unwrap();
    let mut session = xtagger::Session::new(g);
    // A selection spanning two words (phrase fits, page does not).
    let ms = generate(&Params { words: 60, seed: 99, ..Params::default() });
    let (s, _) = ms.word_ranges[0];
    let (_, e) = ms.word_ranges[1];
    for tag in ["phrase", "s", "w", "r"] {
        let engine_says = check_insertion(&engine, session.goddag(), ling, tag, s, e).ok;
        let gate_says = session.insert_markup(ling, tag, vec![], s, e).is_ok();
        if gate_says {
            session.undo().unwrap();
        }
        assert_eq!(engine_says, gate_says, "tag {tag}");
    }
}
