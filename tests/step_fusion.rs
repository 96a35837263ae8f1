//! `//T[p…]` evaluates as one `descendant::T[p…]` step when no predicate can
//! see a position. The Filter form `(/descendant-or-self::node())/T[p…]` is
//! never fused — its `descendant-or-self` step ends the primary — and an
//! inner `//` written as `/descendant-or-self::node()[true()]/` carries a
//! predicate, so it is not fused either. Those spellings are the reference:
//! every query must select exactly the same nodes both ways, on generated
//! manuscripts before and after edits that reorder ids (a wrapper), leave
//! tombstones (a removal) and add milestones, with and without the overlap
//! index.

use corpus::{generate, Params};
use expath::{Evaluator, OverlapIndex};
use goddag::{check_invariants, Goddag, NodeId};
use std::sync::Arc;
use xmlcore::QName;

/// The served 16-expression palette.
const PALETTE: [&str; 16] = [
    "//ling:w",
    "//line[@n='5']",
    "//s/overlapping::phys:line",
    "//dmg/overlapping::ling:w",
    "//dmg/contained::ling:w",
    "//dmg/containing::*",
    "//s[overlapping::phys:line]",
    "//ling:w[contains(string(.), 'th')]",
    "//res/overlapping::ling:w",
    "//res/containing::*",
    "//line/contained::ling:w",
    "//page/contained::ling:s",
    "//s/containing::phys:page",
    "//line/co-extensive::*",
    "//dmg/co-extensive::*",
    "//line[@n='17']/overlapping::ling:s",
];

/// Positional forms (never fused), nested and filtered `//`, every test
/// kind, and the axes the edits below make interesting.
const MORE: [&str; 21] = [
    "//w[2]",
    "//w[-(-2)]",
    "//w[last()]",
    "//w[position()=2]",
    "//w[1+1]",
    "//w[count(leaves(.))]",
    "//s//w",
    "(//s)[1]//w",
    "(//s)[2]//w[1]",
    "//*",
    "//ling:*",
    "//text()",
    "//phrase/w",
    "//ling:phrase//text()",
    "//line/contained::*",
    "//s/contained::*",
    "//page//line[@n='3']",
    "//s[.//w]",
    "//w[not(@n)] | //pb",
    "count(//w[string-length(.) > 3])",
    "/descendant::ling:w[3]",
];

/// A sample of the 4 096-expression mixed palette.
fn mixed_sample() -> Vec<String> {
    let mut out = Vec::new();
    for k in [1, 2, 7, 40, 333] {
        out.push(format!("//line[@n='{k}']"));
        out.push(format!("//ling:w[@n='{k}']"));
        out.push(format!("//s[@n='{k}']/overlapping::phys:line"));
        out.push(format!("//ling:w[position()={k}]"));
    }
    out
}

/// Rewrite every `//` so that nothing fuses: a path-initial `//` becomes the
/// Filter form, an inner one gets a `[true()]` predicate.
fn unfused(query: &str) -> String {
    let mut out = String::new();
    let mut rest = query;
    while let Some(at) = rest.find("//") {
        let (before, after) = rest.split_at(at);
        out.push_str(before);
        let path_start =
            matches!(out.trim_end().chars().last(), None | Some('(' | '|' | '[' | ','));
        out.push_str(if path_start {
            "(/descendant-or-self::node())/"
        } else {
            "/descendant-or-self::node()[true()]/"
        });
        rest = &after[2..];
    }
    out.push_str(rest);
    out
}

fn queries() -> Vec<String> {
    PALETTE.iter().chain(MORE.iter()).map(|q| q.to_string()).chain(mixed_sample()).collect()
}

/// The four edit states: fresh, then a wrapper over two words (its id is
/// higher than its children's), then a sentence and a word removed
/// (tombstones), then milestones in two hierarchies.
fn states(seed: u64) -> Vec<(&'static str, Goddag)> {
    let words = 120 + (seed as usize % 4) * 60;
    let mut g = generate(&Params { seed, ..Params::sized(words) }).goddag;
    let mut out = vec![("fresh", g.clone())];

    let ling = g.hierarchy_by_name("ling").unwrap();
    let phys = g.hierarchy_by_name("phys").unwrap();
    let name = |s: &str| QName::parse(s).unwrap();
    let words_of = |g: &Goddag, s: NodeId| -> Vec<NodeId> {
        g.children(s).into_iter().filter(|&c| g.is_element(c)).collect()
    };

    let s = g
        .find_elements("s")
        .into_iter()
        .find(|&s| words_of(&g, s).len() >= 3)
        .expect("a sentence with three words");
    let ws = words_of(&g, s);
    let (from, to) = (g.char_range(ws[1]).0, g.char_range(ws[2]).1);
    let phrase = g.insert_element(ling, name("phrase"), vec![], from, to).unwrap();
    assert!(words_of(&g, phrase).iter().all(|&w| w < phrase));
    out.push(("wrapper", g.clone()));

    let last_s = *g.find_elements("s").last().unwrap();
    g.remove_element(last_s).unwrap();
    let first_w = g.find_elements("w")[0];
    g.remove_element(first_w).unwrap();
    out.push(("removal", g.clone()));

    // One milestone strictly inside a line and a sentence each, one on a
    // line's end boundary (not contained by that line).
    let line_words = Evaluator::new(&g).select("(//line)[2]/contained::ling:w").unwrap();
    let pb_at = g.char_range(line_words[1]).0;
    let line_end = g.char_range(g.find_elements("line")[1]).1;
    let anchor_at = g.char_range(ws[1]).0;
    g.insert_element(phys, name("pb"), vec![], pb_at, pb_at).unwrap();
    g.insert_element(phys, name("pb"), vec![], line_end, line_end).unwrap();
    g.insert_element(ling, name("anchor"), vec![], anchor_at, anchor_at).unwrap();
    out.push(("milestones", g));

    for (_, g) in &out {
        check_invariants(g).unwrap();
    }
    out
}

#[test]
fn fused_descendant_steps_equal_the_unfused_reference() {
    let queries = queries();
    let mut compared = 0usize;
    for seed in [1, 2, 3, 5, 8, 13] {
        for (state, g) in states(seed) {
            let index = Arc::new(OverlapIndex::build(&g));
            let plain = Evaluator::new(&g);
            let indexed = Evaluator::with_shared_index(&g, index);
            for q in &queries {
                let reference = unfused(q);
                let want =
                    plain.eval_str(&reference).unwrap_or_else(|e| panic!("{reference}: {e}"));
                for ev in [&plain, &indexed] {
                    let got = ev.eval_str(q).unwrap_or_else(|e| panic!("{q}: {e}"));
                    assert_eq!(
                        got,
                        want,
                        "seed {seed}, {state}, index {}: {q} vs {reference}",
                        ev.has_index()
                    );
                    compared += 1;
                }
            }
        }
    }
    assert_eq!(compared, 6 * 4 * 2 * queries.len());
}

/// An explicit `descendant::T[p]` from the root keeps per-origin positions:
/// its candidate list is the root's descendants in document order, which
/// the wrapper's late id makes differ from arena order.
#[test]
fn explicit_descendant_from_the_root_keeps_document_order() {
    for seed in [1, 2, 3] {
        for (state, g) in states(seed) {
            let ev = Evaluator::new(&g);
            for (q, reference) in [
                ("/descendant::ling:*[5]", "(/descendant::node())[self::ling:*][5]"),
                (
                    "/descendant::ling:*[position() < 9]",
                    "(/descendant::node())[self::ling:*][position() < 9]",
                ),
                ("/descendant::*[last()]", "(/descendant::node())[self::*][last()]"),
                ("/descendant::text()[3]", "(/descendant::node())[self::text()][3]"),
            ] {
                assert_eq!(
                    ev.select(q).unwrap(),
                    ev.select(reference).unwrap(),
                    "seed {seed}, {state}: {q}"
                );
            }
        }
    }
}

#[test]
fn reference_spelling_rewrites_every_double_slash() {
    assert_eq!(unfused("//w"), "(/descendant-or-self::node())/w");
    assert_eq!(
        unfused("(//s)[1]//w"),
        "((/descendant-or-self::node())/s)[1]/descendant-or-self::node()[true()]/w"
    );
    assert_eq!(
        unfused("//a | //b"),
        "(/descendant-or-self::node())/a | (/descendant-or-self::node())/b"
    );
}

#[test]
fn milestones_are_exercised() {
    let (_, g) = states(1).pop().unwrap();
    let ev = Evaluator::with_index(&g);
    assert!(!ev.select("//line/contained::pb").unwrap().is_empty());
    assert!(!ev.select("//s/contained::anchor").unwrap().is_empty());
}
