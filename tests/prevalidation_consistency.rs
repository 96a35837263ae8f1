//! Cross-crate consistency of the prevalidation stack (experiment B3's
//! correctness side):
//!
//! * if `check_insertion` approves an insertion, actually performing it must
//!   succeed structurally and leave the hierarchy potentially valid;
//! * if the strict validator accepts a document, the potential-validity
//!   checker must too (valid ⇒ potentially valid);
//! * every tag in `suggest_tags` is individually insertable, and no
//!   non-suggested declared tag is;
//! * the store's gate, the session's gate and `check_insertion` accept and
//!   refuse the same insertions for the same reason, and the store and the
//!   session suggest the same tags.

use corpus::{dtds, generate, Params};
use cxstore::{EditOp, Store, StoreError};
use goddag::{Goddag, HierarchyId};
use prevalid::{check_hierarchy, check_insertion, suggest_tags, PrevalidEngine};
use xtagger::{Session, XTaggerError};

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

/// Over `start..end` of `ling`, a fresh store and a fresh session over `g`
/// suggest the same tags, and inserting `<tag>` there through either gives
/// the verdict `check_insertion` gives, reason for reason.
fn gates_agree(g: &Goddag, ling: HierarchyId, tag: &str, start: usize, end: usize) {
    let store = Store::new();
    let id = store.insert(g.clone());
    let mut session = Session::new(g.clone());
    assert_eq!(
        store.suggest_tags(id, "ling", start, end).unwrap(),
        session.suggest(ling, start, end),
        "suggestions over {start}..{end}"
    );

    let engine = PrevalidEngine::new(dtds::ling());
    let verdict = check_insertion(&engine, g, ling, tag, start, end);
    let expected = if verdict.ok { Ok(()) } else { Err(verdict.reason.unwrap()) };
    let op = EditOp::InsertElement {
        hierarchy: "ling".into(),
        tag: tag.into(),
        attrs: vec![],
        start,
        end,
    };
    let by_store = store.edit(id, op.clone()).map(drop).map_err(|e| match e {
        StoreError::EditRejected(reason) => reason,
        other => format!("not a gate refusal: {other}"),
    });
    let by_session = session.apply(op).map(drop).map_err(|e| match e {
        XTaggerError::PrevalidationRejected { reason, .. } => reason,
        other => format!("not a gate refusal: {other}"),
    });
    assert_eq!(by_store, expected, "store, <{tag}> {start}..{end}");
    assert_eq!(by_session, expected, "session, <{tag}> {start}..{end}");
}

#[test]
fn store_session_and_engine_gates_agree() {
    // Fixed cases: a selection spanning the first two words.
    let ms = generate(&Params { words: 60, seed: 99, ..Params::default() });
    let mut g = ms.goddag;
    let ling = g.hierarchy_by_name("ling").unwrap();
    g.set_dtd(ling, dtds::ling()).unwrap();
    let (s, e) = (ms.word_ranges[0].0, ms.word_ranges[1].1);
    for tag in ["phrase", "s", "w", "r"] {
        gates_agree(&g, ling, tag, s, e);
    }

    corpus::gen::check("store_session_and_engine_gates_agree", 64, |src| {
        // Half the words without a `w`, so `w` has words to go around.
        let ms = generate(&Params {
            words: 5 + src.index(40),
            seed: src.below(1 << 16),
            word_markup_prob: 0.5,
            ..Params::default()
        });
        let mut g = ms.goddag;
        let ling = g.hierarchy_by_name("ling").unwrap();
        g.set_dtd(ling, dtds::ling()).unwrap();
        let words = &ms.word_ranges;
        let first = src.index(words.len());
        let last = (first + src.index(3)).min(words.len() - 1);
        let (start, end) = match src.below(4) {
            // Word boundaries: one to three words.
            0 | 1 => (words[first].0, words[last].1),
            // From inside a word to the end of a later one, so the range
            // crosses the first word's `w` if it has one.
            2 => {
                let mut start = words[first].0 + 1;
                while !g.is_char_boundary(start) {
                    start += 1;
                }
                (start, words[(last + 1).min(words.len() - 1)].1.max(start))
            }
            // Past the content.
            _ => (words[first].0, g.content_len() + 1 + src.index(8)),
        };
        let tag = src.pick(&["r", "s", "phrase", "w", "zz"]);
        gates_agree(&g, ling, tag, start, end);
    });
}
