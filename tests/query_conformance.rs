//! Extended XPath conformance suite (experiment B2's correctness side):
//! every axis, node test, predicate form and function evaluated against a
//! document with known answers — with and without the overlap index.

use expath::{Evaluator, Value};
use goddag::Goddag;

/// Fixed document:
/// content: "aa bb cc dd ee"  (five 2-char words)
/// phys:  line1 = "aa bb cc", line2 = "dd ee", pb milestone between
/// ling:  s1 = "bb cc dd" (crosses lines), w per word
/// edit:  dmg = "b cc d" (mid-word to mid-word)
fn doc() -> Goddag {
    sacx::parse_distributed(&[
        ("phys", "<r><line n=\"1\">aa bb cc</line> <line n=\"2\">dd ee</line></r>"),
        ("ling", "<r><w>aa</w> <s id=\"s1\"><w>bb</w> <w>cc</w> <w>dd</w></s> <w>ee</w></r>"),
        ("edit", "<r>aa b<dmg agent=\"x\">b cc d</dmg>d ee</r>"),
    ])
    .unwrap()
}

fn check(g: &Goddag, query: &str, expected_texts: &[&str]) {
    for indexed in [false, true] {
        let ev = if indexed { Evaluator::with_index(g) } else { Evaluator::new(g) };
        let hits = ev.select(query).unwrap_or_else(|e| panic!("{query}: {e}"));
        let texts: Vec<String> = hits.iter().map(|&n| g.text_of(n)).collect();
        assert_eq!(texts, expected_texts, "query {query} (indexed={indexed})");
    }
}

fn check_value(g: &Goddag, query: &str, expected: Value) {
    let ev = Evaluator::new(g);
    let v = ev.eval_str(query).unwrap_or_else(|e| panic!("{query}: {e}"));
    assert_eq!(v, expected, "query {query}");
}

#[test]
fn child_axis() {
    let g = doc();
    check(&g, "/line", &["aa bb cc", "dd ee"]);
    check(&g, "/s/w", &["bb", "cc", "dd"]);
    check(&g, "/w", &["aa", "ee"]);
}

#[test]
fn descendant_axes() {
    let g = doc();
    check(&g, "//w", &["aa", "bb", "cc", "dd", "ee"]);
    check(&g, "//s//w", &["bb", "cc", "dd"]);
    check(&g, "/descendant::ling:*", &["aa", "bb cc dd", "bb", "cc", "dd", "ee"]);
}

#[test]
fn parent_and_ancestor() {
    let g = doc();
    check(&g, "(//w)[2]/parent::s", &["bb cc dd"]);
    check(&g, "(//w)[2]/ancestor::s", &["bb cc dd"]);
    // Ancestor of a leaf crosses hierarchies. The word "bb" is split by the
    // damage boundary at byte 4; its second leaf sits inside the damage.
    let ev = Evaluator::new(&g);
    let leaves = ev.select("(//w)[2]/text()").unwrap();
    assert_eq!(leaves.len(), 2);
    let ancestors = ev.select_from("ancestor::*", leaves[1]).unwrap();
    let names: Vec<_> = ancestors.iter().map(|&n| g.name(n).unwrap().local.clone()).collect();
    assert!(names.contains(&"line".to_string()));
    assert!(names.contains(&"s".to_string()));
    assert!(names.contains(&"dmg".to_string()));
    assert!(names.contains(&"r".to_string()));
}

#[test]
fn sibling_axes() {
    let g = doc();
    check(&g, "/line[1]/following-sibling::line", &["dd ee"]);
    check(&g, "/line[2]/preceding-sibling::line", &["aa bb cc"]);
    check(&g, "/s/w[1]/following-sibling::w", &["cc", "dd"]);
}

#[test]
fn following_preceding() {
    let g = doc();
    check(&g, "(//w)[1]/following::ling:w", &["bb", "cc", "dd", "ee"]);
    check(&g, "(//w)[5]/preceding::ling:s", &["bb cc dd"]);
}

#[test]
fn overlapping_axis() {
    let g = doc();
    check(&g, "//s/overlapping::phys:line", &["aa bb cc", "dd ee"]);
    check(&g, "//dmg/overlapping::ling:w", &["bb", "dd"]);
    // The sentence *contains* the damage (3..11 ⊇ 4..10): no proper overlap.
    check(&g, "//dmg/overlapping::ling:s", &[]);
    check(&g, "//dmg/containing::ling:s", &["bb cc dd"]);
    check(&g, "//line[@n='1']/overlapping::edit:dmg", &["b cc d"]);
    // Nothing overlaps itself or what it contains.
    check(&g, "//s/overlapping::ling:w", &[]);
}

#[test]
fn containing_contained_coextensive() {
    let g = doc();
    check(&g, "//dmg/contained::ling:w", &["cc"]);
    check(&g, "(//w)[3]/containing::edit:dmg", &["b cc d"]);
    check(&g, "//line[@n='2']/contained::ling:w", &["dd", "ee"]);
    // cc (single word) is co-extensive with nothing here.
    check(&g, "(//w)[3]/co-extensive::*", &[]);
}

#[test]
fn attribute_axis_and_predicates() {
    let g = doc();
    check(&g, "//line[@n='2']", &["dd ee"]);
    check(&g, "//s[@id]", &["bb cc dd"]);
    check(&g, "//line[@n > 1]", &["dd ee"]);
    check_value(&g, "string(//dmg/@agent)", Value::Str("x".into()));
    check_value(&g, "count(//line/@n)", Value::Number(2.0));
}

/// A predicate over an attribute set takes each attribute as its context
/// item (XPath 1.0 §2.4), not the attribute's element.
#[test]
fn attribute_predicates_read_the_attribute() {
    let g = sacx::parse_distributed(&[("ling", "<r><w n=\"7\">one</w> <w n=\"8\">two</w></r>")])
        .unwrap();
    let number = |q: &str| {
        let v = Evaluator::new(&g).eval_str(q).unwrap_or_else(|e| panic!("{q}: {e}"));
        (q.to_string(), v)
    };
    for (q, want) in [
        ("count(//w/@n[. = '7'])", 1.0),
        ("count(//w/@n[. = 'one'])", 0.0),
        ("count(//w/@n[name() = 'n'])", 2.0),
        ("count(//w/@n[contains(., '8')])", 1.0),
        ("count(//w/@n[string() = '8'])", 1.0),
        ("count(//w/@n[number() > 7])", 1.0),
        ("count(//w/@n[string-length() = 1])", 2.0),
        ("count(//w/@n[local-name() = 'n'])", 2.0),
        ("count(//w/@n[self::node() = '7'])", 1.0),
        ("count(//w/@n[../@n = '8'])", 1.0),
        ("count(//w/@n[parent::w])", 2.0),
        ("count(//w/@n[parent::s])", 0.0),
        ("count(//w/@n[self::w])", 0.0),
        ("count((//w/@n)[. = '8'])", 1.0),
        ("count(//w/@*[1])", 2.0),
    ] {
        assert_eq!(number(q), (q.to_string(), Value::Number(want)));
    }
    check_value(&g, "string((//w/@n)[2])", Value::Str("8".into()));
    check_value(&g, "name(//w/@n)", Value::Str("n".into()));
    // No other axis answers for the element behind an attribute.
    let ev = Evaluator::new(&g);
    for q in ["//w/@n[@n]", "//w/@n[child::node()]", "//w/@n[ancestor::r]", "//w/@n[@n = '7']"] {
        let err = ev.eval_str(q).expect_err(q).to_string();
        assert!(err.contains("does not apply to an attribute"), "{q}: {err}");
    }
}

/// A path goes on from a selected attribute as a predicate's relative path
/// does: `.` keeps it, `..` reaches its element, any other axis is an
/// error. The union is in document order, each element once.
#[test]
fn a_path_steps_from_an_attribute() {
    let g = sacx::parse_distributed(&[(
        "ling",
        "<r><w n=\"7\" id=\"a\">one</w> <v n=\"9\">mid</v> <w n=\"8\">two</w> <w>three</w></r>",
    )])
    .unwrap();
    check(&g, "//w/@n/..", &["one", "two"]);
    check(&g, "(//w/@n)/..", &["one", "two"]);
    check(&g, "//w/@*/..", &["one", "two"]);
    check(&g, "//@n/parent::w", &["one", "two"]);
    check(&g, "//w/@n[. = '8']/..", &["two"]);
    check(&g, "//w/@n/../@id/..", &["one"]);
    check(&g, "//w/@n/self::w", &[]);
    check_value(&g, "count(//w/@n/..)", Value::Number(2.0));
    check_value(&g, "string(//w/@n[. = '8']/..)", Value::Str("two".into()));
    check_value(&g, "string((//w/@n)[2]/..)", Value::Str("two".into()));
    check_value(&g, "count(//w/@n/.)", Value::Number(2.0));
    check_value(&g, "string(//w/@n/.[. = '8'])", Value::Str("8".into()));
    check_value(&g, "count(//w/@n/..[@id])", Value::Number(1.0));
    let ev = Evaluator::new(&g);
    let (Value::Attrs(dot), Value::Attrs(plain)) =
        (ev.eval_str("//w/@n/.").unwrap(), ev.eval_str("//w/@n").unwrap())
    else {
        panic!("//w/@n/. and //w/@n select attributes");
    };
    assert_eq!(dot, plain);
    let err = ev.eval_str("//w/@n/child::*").expect_err("child of an attribute").to_string();
    assert!(err.contains("does not apply to an attribute"), "{err}");

    let g = doc();
    check(&g, "//line/@n/..", &["aa bb cc", "dd ee"]);
    check(&g, "(//line/@n)/..", &["aa bb cc", "dd ee"]);
    check_value(&g, "string(//line/@n[. = '2']/..)", Value::Str("dd ee".into()));
}

#[test]
fn positional_predicates() {
    let g = doc();
    check(&g, "(//w)[1]", &["aa"]);
    check(&g, "(//w)[last()]", &["ee"]);
    check(&g, "(//w)[position() >= 4]", &["dd", "ee"]);
    check(&g, "//s/w[2]", &["cc"]);
}

#[test]
fn node_tests() {
    let g = doc();
    check(&g, "//phys:*", &["aa bb cc", "dd ee"]);
    let ev = Evaluator::new(&g);
    let texts = ev.select("/line[1]/text()").unwrap();
    assert!(texts.iter().all(|&n| g.is_leaf(n)));
    // node() matches elements and leaves.
    let all = ev.select("/line[1]/child::node()").unwrap();
    assert!(all.len() >= texts.len());
}

#[test]
fn functions() {
    let g = doc();
    check_value(&g, "count(//w)", Value::Number(5.0));
    check_value(&g, "count(//w | //line)", Value::Number(7.0));
    check_value(&g, "contains(string(//s), 'cc')", Value::Bool(true));
    check_value(&g, "starts-with(string(//dmg), 'b ')", Value::Bool(true));
    check_value(&g, "string-length(string((//w)[1]))", Value::Number(2.0));
    check_value(&g, "normalize-space(concat(' a ', ' b '))", Value::Str("a b".into()));
    check_value(&g, "hierarchy(//dmg)", Value::Str("edit".into()));
    check_value(&g, "local-name(//s)", Value::Str("s".into()));
    check_value(&g, "overlaps(//s, //line)", Value::Bool(true));
    check_value(&g, "overlaps(//s, //w)", Value::Bool(false));
    check_value(&g, "boolean(//dmg)", Value::Bool(true));
    check_value(&g, "not(boolean(//zap))", Value::Bool(true));
    check_value(&g, "sum(//line/@n)", Value::Number(3.0));
    check_value(&g, "floor(2.7) + ceiling(0.2) + round(0.5)", Value::Number(4.0));
    check_value(&g, "substring('abcdef', 2, 3)", Value::Str("bcd".into()));
    check_value(&g, "substring-before('aa=bb', '=')", Value::Str("aa".into()));
    check_value(&g, "substring-after('aa=bb', '=')", Value::Str("bb".into()));
}

#[test]
fn id_function_and_union() {
    let g = doc();
    check(&g, "id('s1')", &["bb cc dd"]);
    check(&g, "id('s1') | //dmg", &["bb cc dd", "b cc d"]);
}

#[test]
fn arithmetic_and_logic() {
    let g = doc();
    check_value(&g, "2 + 3 * 4", Value::Number(14.0));
    check_value(&g, "(2 + 3) * 4", Value::Number(20.0));
    check_value(&g, "10 div 4", Value::Number(2.5));
    check_value(&g, "10 mod 4", Value::Number(2.0));
    check_value(&g, "- 5 + 10", Value::Number(5.0));
    check_value(&g, "1 < 2 and 2 < 3 or false()", Value::Bool(true));
    check_value(&g, "count(//w) = 5 and count(//line) != 5", Value::Bool(true));
}

#[test]
fn leaves_function_spans_hierarchies() {
    let g = doc();
    let ev = Evaluator::new(&g);
    // The damage's leaves are shared with the words it cuts.
    let v = ev.eval_str("count(leaves(//dmg))").unwrap();
    let n = v.number_value(&g);
    assert!(n >= 3.0, "dmg spans at least 3 leaf fragments, got {n}");
}

#[test]
fn errors_reported_cleanly() {
    let g = doc();
    let ev = Evaluator::new(&g);
    assert!(ev.eval_str("//w[").is_err());
    assert!(ev.eval_str("//nohier:w").is_err());
    assert!(ev.eval_str("nosuchfn()").is_err());
    assert!(ev.eval_str("sideways::w").is_err());
}

#[test]
fn milestone_queries() {
    // Add a pb milestone and query its relations.
    let g = sacx::parse_distributed(&[
        ("phys", "<r>aa<pb n=\"2\"/>bb</r>"),
        ("ling", "<r><w>aabb</w></r>"),
    ])
    .unwrap();
    let ev = Evaluator::new(&g);
    // The milestone is contained in the word that spans it.
    let inside = ev.select("//w/contained::phys:pb").unwrap();
    assert_eq!(inside.len(), 1);
    // It overlaps nothing (empty spans never overlap).
    assert!(ev.select("//pb/overlapping::*").unwrap().is_empty());
    // Its containing set includes the word.
    let containing = ev.select("//pb/containing::ling:w").unwrap();
    assert_eq!(containing.len(), 1);
}
