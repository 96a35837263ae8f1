//! `//T[p…]` evaluates as one `descendant::T[p…]` step when no predicate can
//! see a position. The Filter form `(/descendant-or-self::node())/T[p…]` is
//! never fused — its `descendant-or-self` step ends the primary — and an
//! inner `//` written as `/descendant-or-self::node()[true()]/` carries a
//! predicate, so it is not fused either. Those spellings are the reference:
//! every query must select exactly the same nodes both ways, on generated
//! manuscripts before and after edits that reorder ids (a wrapper), leave
//! tombstones (a removal) and add milestones, with and without the overlap
//! index.
//!
//! The reference spellings run through the evaluator too, so the shapes
//! the evaluator rewrites from the root — `//T[k]`, `//T[last()]`,
//! `/child::T[k]`, `//T[@n='v']` and its existential `!=` — and every
//! predicate spelling it lowers (`[position()=k]`, `['v'=@n]`, `[@*='v']`,
//! `[contains(string(.), 's')]`, …) are also checked against a brute-force
//! reference that uses only `Goddag::children`, `Goddag::parents`,
//! `Goddag::attrs` and `Goddag::text`, on `corpus::gen` documents.

use corpus::gen::Source;
use corpus::{generate, Params};
use expath::{AttrRef, Evaluator, OverlapIndex, Value};
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

/// Positional forms (never fused; from the root they take the per-parent
/// step), nested and filtered `//`, every test kind, existential `!=`, and
/// the axes the edits below make interesting.
const MORE: [&str; 30] = [
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
    "//ling:w[3]",
    "//*[2]",
    "//*[last()]",
    "//text()[2]",
    "//node()[3]",
    "/child::*[2]",
    "//w[@n!='3']",
    "//*[@n!='3']",
    "//ling:*[@n='2'][1]",
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

/// A manuscript drawn from `src`, then edited the ways that break naive
/// rewrites: a wrapper over words of a sentence (a late id), a sentence
/// removed so its words become root children next to the other
/// hierarchies' top levels, a word removed (a tombstone), and milestones in
/// two hierarchies.
fn drawn(src: &mut Source) -> Goddag {
    let params = Params {
        seed: src.below(1 << 32),
        words_per_sentence: 3 + src.index(6),
        words_per_line: 2 + src.index(6),
        word_markup_prob: src.pick(&[1.0, 0.6]),
        ..Params::sized(12 + src.index(40))
    };
    let mut g = generate(&params).goddag;
    // A prefixed attribute on every third word, beside its `n`.
    for w in g.find_elements("w").into_iter().step_by(3) {
        let n = g.attr(w, "n").unwrap().to_string();
        g.set_attr(w, "x:n", &n).unwrap();
    }
    let ling = g.hierarchy_by_name("ling").unwrap();
    let phys = g.hierarchy_by_name("phys").unwrap();
    let name = |s: &str| QName::parse(s).unwrap();
    let words_of = |g: &Goddag, s: NodeId| -> Vec<NodeId> {
        g.element_children(s).iter().copied().filter(|&c| g.is_element(c)).collect()
    };

    let sentences = g.find_elements("s");
    let s = sentences[src.index(sentences.len())];
    let ws = words_of(&g, s);
    if ws.len() >= 2 {
        let i = src.index(ws.len() - 1);
        let j = i + 1 + src.index(ws.len() - 1 - i);
        let (from, to) = (g.char_range(ws[i]).0, g.char_range(ws[j]).1);
        g.insert_element(ling, name("phrase"), vec![], from, to).unwrap();
    }
    let sentences = g.find_elements("s");
    g.remove_element(sentences[src.index(sentences.len())]).unwrap();
    let words = g.find_elements("w");
    if !words.is_empty() {
        g.remove_element(words[src.index(words.len())]).unwrap();
    }
    for h in [phys, ling] {
        let words = g.find_elements("w");
        if let Some(&w) = words.get(src.index(words.len().max(1))) {
            let at = g.char_range(w).0;
            g.insert_element(h, name("pb"), vec![], at, at).unwrap();
        }
    }
    check_invariants(&g).unwrap();
    g
}

/// A node test, spelled the way the reference applies it.
#[derive(Clone, Copy, Debug)]
enum Test {
    Named(Option<&'static str>, &'static str),
    Element,
    Text,
}

impl Test {
    fn spelling(self) -> String {
        match self {
            Test::Named(Some(h), local) => format!("{h}:{local}"),
            Test::Named(None, local) => local.to_string(),
            Test::Element => "*".into(),
            Test::Text => "text()".into(),
        }
    }

    fn passes(self, g: &Goddag, n: NodeId) -> bool {
        match self {
            Test::Named(h, local) => {
                g.is_element(n)
                    && g.name(n).is_some_and(|q| q.local == local)
                    && h.is_none_or(|h| g.hierarchy_of(n) == g.hierarchy_by_name(h))
            }
            Test::Element => g.is_element(n),
            Test::Text => g.is_leaf(n),
        }
    }
}

/// `//T[k]` (`k == 0`: `//T[last()]`) without the evaluator: every parent,
/// the root and each live element, lists its children with
/// `Goddag::children`; the `k`-th (or last) that passes the test and `keep`
/// is kept, so `keep` is a first predicate before `[k]`. With `root_only`,
/// `/child::T[k]`.
fn per_parent(
    g: &Goddag,
    test: Test,
    keep: impl Fn(NodeId) -> bool,
    k: usize,
    root_only: bool,
) -> Vec<NodeId> {
    let parents: Vec<NodeId> = if root_only {
        vec![g.root()]
    } else {
        std::iter::once(g.root()).chain(g.elements()).collect()
    };
    let mut out = Vec::new();
    for p in parents {
        let kids: Vec<NodeId> =
            g.children(p).into_iter().filter(|&c| test.passes(g, c) && keep(c)).collect();
        out.extend(if k == 0 { kids.last() } else { kids.get(k - 1) });
    }
    g.sort_doc_order(&mut out);
    out
}

/// `//T[p]` for a position-free `p` without the evaluator: the live
/// elements (the leaves for `text()`) that pass the test and `keep`.
fn matching(g: &Goddag, test: Test, keep: impl Fn(NodeId) -> bool) -> Vec<NodeId> {
    let nodes: Vec<NodeId> = match test {
        Test::Text => g.leaves().to_vec(),
        _ => g.elements().collect(),
    };
    let mut out: Vec<NodeId> =
        nodes.into_iter().filter(|&n| test.passes(g, n) && keep(n)).collect();
    g.sort_doc_order(&mut out);
    out
}

/// Whether an attribute named `q` passes the test `@name` (`None`: `@*`):
/// a prefixed test compares the whole name, an unprefixed one the local
/// part, so `@n` also matches `x:n`.
fn attr_named(q: &QName, name: Option<&str>) -> bool {
    name.is_none_or(|name| if name.contains(':') { q.to_string() == name } else { q.local == name })
}

/// `[@a='v']` (or `!=`) without the evaluator: existential, so a node
/// without a matching attribute never matches either way.
fn attr_is(g: &Goddag, n: NodeId, name: Option<&str>, v: &str, equal: bool) -> bool {
    g.attrs(n).iter().any(|a| attr_named(a.name, name) && (a.value == v) == equal)
}

/// The `k`-th ancestor (1: the parent) of each origin, from the parent
/// chain: an element's ancestors are one chain up to the root.
fn nth_ancestor(g: &Goddag, origins: &[NodeId], k: usize) -> Vec<NodeId> {
    let mut out = Vec::new();
    for &o in origins {
        let mut chain = Vec::new();
        let mut at = o;
        while let Some(&p) = g.parents(at).first() {
            chain.push(p);
            at = p;
        }
        out.extend(chain.get(k - 1));
    }
    g.sort_doc_order(&mut out);
    out
}

/// The nearest element before each origin among its parent's children in
/// its own hierarchy.
fn nearest_preceding_sibling(g: &Goddag, origins: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::new();
    for &o in origins {
        let h = g.hierarchy_of(o);
        let kids: Vec<NodeId> = g
            .children(g.parents(o)[0])
            .into_iter()
            .filter(|&c| g.is_element(c) && g.hierarchy_of(c) == h)
            .collect();
        let at = kids.iter().position(|&c| c == o).unwrap();
        out.extend(at.checked_sub(1).map(|i| kids[i]));
    }
    g.sort_doc_order(&mut out);
    out
}

#[test]
fn rewritten_shapes_equal_a_brute_force_reference() {
    let tests = [
        Test::Named(None, "w"),
        Test::Named(Some("ling"), "w"),
        Test::Named(Some("phys"), "line"),
        Test::Named(None, "pb"),
        Test::Element,
        Test::Text,
    ];
    corpus::gen::check("rewritten_shapes_equal_a_brute_force_reference", 24, |src| {
        let g = drawn(src);
        let index = Arc::new(OverlapIndex::build(&g));
        let evaluators = [Evaluator::new(&g), Evaluator::with_shared_index(&g, index)];
        let words = g.find_elements("w");
        // A needle from the document, and the empty one.
        let needle: String = g.text(words[src.index(words.len())]).chars().take(2).collect();
        let all = |_: NodeId| true;
        let mut cases: Vec<(String, Vec<NodeId>)> = Vec::new();
        for test in tests {
            let t = test.spelling();
            let k = 1 + src.index(4);
            cases.push((format!("//{t}[{k}]"), per_parent(&g, test, all, k, false)));
            cases.push((format!("//{t}[position()={k}]"), per_parent(&g, test, all, k, false)));
            cases.push((format!("//{t}[{k}=position()]"), per_parent(&g, test, all, k, false)));
            cases.push((format!("//{t}[last()]"), per_parent(&g, test, all, 0, false)));
            cases.push((format!("/child::{t}[{k}]"), per_parent(&g, test, all, k, true)));
            for never in ["position()=2.5", "0", "-1"] {
                cases.push((format!("//{t}[{never}]"), Vec::new()));
            }
            for s in [needle.as_str(), ""] {
                let contains = |n: NodeId| g.text(n).contains(s);
                let starts = |n: NodeId| g.text(n).starts_with(s);
                cases.push((
                    format!("//{t}[contains(string(.), '{s}')]"),
                    matching(&g, test, contains),
                ));
                cases.push((format!("//{t}[contains(., '{s}')]"), matching(&g, test, contains)));
                cases.push((
                    format!("//{t}[starts-with(string(), '{s}')]"),
                    matching(&g, test, starts),
                ));
                cases.push((
                    format!("//{t}[contains(., '{s}')][position()={k}]"),
                    per_parent(&g, test, contains, k, false),
                ));
            }
            if !matches!(test, Test::Text) {
                let v = (1 + src.index(6)).to_string();
                for (pred, name, equal) in [
                    (format!("@n='{v}'"), Some("n"), true),
                    (format!("'{v}'=@n"), Some("n"), true),
                    (format!("@n!='{v}'"), Some("n"), false),
                    (format!("@*='{v}'"), None, true),
                    (format!("@x:n='{v}'"), Some("x:n"), true),
                    (format!("@x:n!='{v}'"), Some("x:n"), false),
                ] {
                    let keep = |n: NodeId| attr_is(&g, n, name, &v, equal);
                    cases.push((format!("//{t}[{pred}]"), matching(&g, test, keep)));
                    cases.push((
                        format!("//{t}[{pred}][{k}]"),
                        per_parent(&g, test, keep, k, false),
                    ));
                }
            }
        }
        let ws: Vec<NodeId> =
            g.elements().filter(|&e| Test::Named(Some("ling"), "w").passes(&g, e)).collect();
        cases.push(("//ling:w/ancestor::*[position()=2]".into(), nth_ancestor(&g, &ws, 2)));
        cases.push(("//ling:w/ancestor::*[1]".into(), nth_ancestor(&g, &ws, 1)));
        cases.push(("//ling:w/preceding-sibling::*[1]".into(), nearest_preceding_sibling(&g, &ws)));
        for (q, want) in &cases {
            for ev in &evaluators {
                let got = ev.select(q).unwrap_or_else(|e| panic!("{q}: {e}"));
                assert_eq!(&got, want, "{q}, index {}", ev.has_index());
            }
        }
        // `(//w/@n)[2]`: the second attribute `@n` matches, in document
        // order of the elements and then in attribute order.
        let second: Vec<AttrRef> = matching(&g, Test::Named(None, "w"), all)
            .into_iter()
            .flat_map(|element| {
                let attrs = g.attrs(element);
                (0..attrs.len())
                    .filter(move |&i| attr_named(attrs.name(i).unwrap(), Some("n")))
                    .map(move |index| AttrRef { element, index })
            })
            .skip(1)
            .take(1)
            .collect();
        for ev in &evaluators {
            assert_eq!(ev.eval_str("(//w/@n)[2]").unwrap(), Value::Attrs(second.clone()));
        }
        // The shapes are not vacuous: the root has element children in two
        // hierarchies, and some elements lack `@n`.
        let root_kids = g.children(g.root());
        let tops: Vec<_> = root_kids.iter().filter_map(|&c| g.hierarchy_of(c)).collect();
        assert!(tops.iter().any(|&h| h != tops[0]), "root children in one hierarchy");
        assert!(g.elements().any(|e| g.attr(e, "n").is_none()));
    });
}
