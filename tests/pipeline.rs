//! Experiment F3: the full framework pipeline (paper Figure 3) — parse →
//! GODDAG → DOM-style API → query/author/validate → export — exercised end
//! to end across every crate, at manuscript scale.

use corpus::{dtds, generate, Params};
use expath::Evaluator;
use goddag::check_invariants;
use xtagger::Session;

#[test]
fn end_to_end_manuscript_pipeline() {
    // 1. Workload: a synthetic manuscript with three hierarchies.
    let ms = generate(&Params { words: 800, seed: 7, ..Params::default() });
    let docs = ms.distributed();

    // 2. Parse (SACX) from the distributed representation.
    let mut g = sacx::parse_distributed(&docs).unwrap();
    check_invariants(&g).unwrap();
    assert_eq!(g.content(), ms.goddag.content());

    // 3. Validate every hierarchy against its DTD.
    dtds::attach_standard(&mut g);
    for (h, report) in goddag::validate_all(&g) {
        assert!(
            report.is_valid(),
            "hierarchy {h}: {:?}",
            &report.errors[..report.errors.len().min(3)]
        );
    }

    // 4. Query with Extended XPath (indexed).
    let ev = Evaluator::with_index(&g);
    let words = ev.select("//ling:w").unwrap();
    assert!(!words.is_empty());
    let conflicts = ev.select("//s/overlapping::phys:line").unwrap();
    assert!(!conflicts.is_empty(), "generated sentences must cross lines");
    let damaged = ev.select("//dmg/overlapping::*").unwrap();
    assert!(!damaged.is_empty());

    // 5. Author: wrap the first two words (both inside sentence 1) in a
    //    phrase, guarded by prevalidation.
    let mut session = Session::new(g);
    let ling = session.goddag().hierarchy_by_name("ling").unwrap();
    let (ws, _) = ms.word_ranges[0];
    let (_, we) = ms.word_ranges[1];
    let sugg = session.suggest(ling, ws, we);
    assert_eq!(sugg, ["phrase"], "only <phrase> can wrap two <w>s here");
    session.insert_markup(ling, "phrase", vec![], ws, we).unwrap();
    check_invariants(session.goddag()).unwrap();

    // 6. Export through every representation and verify the round trip.
    let g = session.into_goddag();
    for driver in sacx::builtin_drivers("phys") {
        let out = driver.export(&g).unwrap();
        let back = driver.import(&out).unwrap();
        assert_eq!(back.element_count(), g.element_count(), "{}", driver.name());
        assert_eq!(back.content(), g.content(), "{}", driver.name());
        check_invariants(&back).unwrap();
    }
}

#[test]
fn classic_pipeline_is_a_special_case() {
    // With a single hierarchy the framework degenerates exactly to the
    // classic XML pipeline (Figure 3's "traditional framework").
    let xml = "<r><page no=\"1\"><line n=\"1\">swa hwa swe</line></page></r>";
    let g = sacx::parse_distributed(&[("phys", xml)]).unwrap();
    assert_eq!(g.to_xml(goddag::HierarchyId(0)).unwrap(), xml);
    // DOM and GODDAG agree on structure.
    let dom = xmlcore::dom::Document::parse(xml).unwrap();
    assert_eq!(dom.text_content(dom.root()), g.content());
    assert_eq!(dom.elements_named(dom.root(), "line").len(), g.find_elements("line").len());
    // XPath-equivalent query agrees with DOM traversal.
    let ev = Evaluator::new(&g);
    assert_eq!(ev.select("//line").unwrap().len(), dom.elements_named(dom.root(), "line").len());
}

#[test]
fn sacx_event_stream_equals_builder_structure() {
    // The streaming interface and the materialized GODDAG agree: counting
    // starts per hierarchy through the SAX-style API matches element counts
    // in the graph.
    use goddag::HierarchyId;
    use std::collections::BTreeMap;

    let ms = generate(&Params { words: 300, seed: 11, ..Params::default() });
    let docs = ms.distributed();
    let extracted: Vec<sacx::ExtractedDoc> =
        docs.iter().map(|(n, x)| sacx::extract(x, n).unwrap()).collect();
    let events = sacx::merge_events(&extracted);

    struct Counter {
        starts: BTreeMap<u16, usize>,
        text_bytes: usize,
    }
    impl sacx::SacxHandler for Counter {
        fn start_element(&mut self, h: HierarchyId, _: &xmlcore::QName, _: &[xmlcore::Attribute]) {
            *self.starts.entry(h.0).or_default() += 1;
        }
        fn end_element(&mut self, _: HierarchyId, _: &xmlcore::QName) {}
        fn characters(&mut self, text: &str) {
            self.text_bytes += text.len();
        }
    }
    let mut counter = Counter { starts: BTreeMap::new(), text_bytes: 0 };
    let content = extracted[0].content.clone();
    sacx::drive(&events, &content, &mut counter);

    assert_eq!(counter.text_bytes, ms.goddag.content_len());
    for (i, _) in ms.hierarchy_names.iter().enumerate() {
        let h = HierarchyId(i as u16);
        assert_eq!(
            counter.starts.get(&(i as u16)).copied().unwrap_or(0),
            ms.goddag.elements_in(h).count(),
            "hierarchy {i}"
        );
    }
}

#[test]
fn growing_hierarchy_count_scales() {
    // 1..=3 hierarchies over the same content: parse time aside (experiment B1),
    // the model stays consistent and the content is never duplicated.
    for nh in 1..=3 {
        let params = Params {
            words: 300,
            seed: 5,
            physical: nh >= 1,
            linguistic: nh >= 2,
            damage_density: if nh >= 3 { 0.1 } else { 0.0 },
            restoration_density: 0.0,
            ..Params::default()
        };
        let ms = generate(&params);
        assert_eq!(ms.goddag.hierarchy_count(), nh);
        check_invariants(&ms.goddag).unwrap();
        let stats = ms.goddag.stats();
        assert_eq!(stats.content_bytes, ms.goddag.content_len());
    }
}
