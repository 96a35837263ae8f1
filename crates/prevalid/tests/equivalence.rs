//! Verdict equivalence of the bitset engine against naive references.
//!
//! * `sparse` is the set-based simulation of the Glushkov automaton
//!   (`BTreeSet<StateId>` state sets); the dense bitset automaton must
//!   accept exactly the words it accepts.
//! * `naive` is the original set-based dynamic program (string-keyed
//!   `BTreeMap`s, per-span chain fixpoint) kept verbatim as an executable
//!   specification. The property tests drive both engines over random
//!   small DTDs × random item sequences and require identical potential
//!   and strict verdicts, plus an identical insertable set.
//! * `reference` is the strict validator the one hierarchy walk replaced:
//!   a DFS per hierarchy, the sparse automaton for element content and the
//!   attribute rules as they stood. Over generated and randomly edited
//!   manuscripts, `check_hierarchy`'s strict errors must equal its errors.

use corpus::dtds::{random, random_name};
use corpus::gen::Source;
use prevalid::{DocEngines, Item, PrevalidEngine};
use xmlcore::dtd::{Automaton, ContentModel as M};

/// The sparse automaton's own simulation, the reference for the dense one.
mod sparse {
    use std::collections::BTreeSet;
    use xmlcore::dtd::{Automaton, StateId};

    /// Successor states of the active `states` set on consuming `symbol`.
    pub fn step(a: &Automaton, states: &BTreeSet<StateId>, symbol: &str) -> BTreeSet<StateId> {
        let mut next = BTreeSet::new();
        for &s in states {
            for &t in a.transitions_from(s) {
                if a.entry_symbol(t) == Some(symbol) {
                    next.insert(t);
                }
            }
        }
        next
    }

    /// Run the automaton over a sequence of child element names.
    pub fn matches<'a>(a: &Automaton, names: impl IntoIterator<Item = &'a str>) -> bool {
        let mut states: BTreeSet<StateId> = BTreeSet::from([0]);
        for name in names {
            states = step(a, &states, name);
            if states.is_empty() {
                return false;
            }
        }
        states.iter().any(|&s| a.is_accepting(s))
    }
}

/// The pre-rewrite set-based engine, kept as the reference implementation.
mod naive {
    use super::sparse;
    use prevalid::Item;
    use std::collections::{BTreeMap, BTreeSet};
    use xmlcore::dtd::{Automaton, ContentSpec, Dtd, StateId};

    pub struct NaiveEngine {
        dtd: Dtd,
        automata: BTreeMap<String, Automaton>,
        insertable: BTreeSet<String>,
        closures: BTreeMap<String, Vec<BTreeSet<StateId>>>,
    }

    impl NaiveEngine {
        pub fn new(dtd: Dtd) -> NaiveEngine {
            let mut automata = BTreeMap::new();
            for (name, decl) in &dtd.elements {
                if let ContentSpec::Children(model) = &decl.content {
                    automata.insert(name.clone(), Automaton::compile(model));
                }
            }
            let mut engine = NaiveEngine {
                dtd,
                automata,
                insertable: BTreeSet::new(),
                closures: BTreeMap::new(),
            };
            engine.compute_insertable();
            engine.compute_closures();
            engine
        }

        pub fn insertable(&self) -> &BTreeSet<String> {
            &self.insertable
        }

        fn compute_insertable(&mut self) {
            loop {
                let mut changed = false;
                for (name, decl) in &self.dtd.elements {
                    if self.insertable.contains(name) {
                        continue;
                    }
                    let ok = match &decl.content {
                        ContentSpec::Empty | ContentSpec::Any | ContentSpec::Mixed(_) => true,
                        ContentSpec::Children(_) => {
                            let a = &self.automata[name];
                            self.accepts_free(a, &self.insertable)
                        }
                    };
                    if ok {
                        self.insertable.insert(name.clone());
                        changed = true;
                    }
                }
                if !changed {
                    return;
                }
            }
        }

        fn accepts_free(&self, a: &Automaton, free: &BTreeSet<String>) -> bool {
            let mut seen: BTreeSet<StateId> = BTreeSet::from([0]);
            let mut frontier = vec![0];
            while let Some(q) = frontier.pop() {
                if a.is_accepting(q) {
                    return true;
                }
                for &t in a.transitions_from(q) {
                    let sym = a.entry_symbol(t).expect("non-start states have symbols");
                    if free.contains(sym) && seen.insert(t) {
                        frontier.push(t);
                    }
                }
            }
            false
        }

        fn compute_closures(&mut self) {
            let mut closures = BTreeMap::new();
            for (name, a) in &self.automata {
                let n = a.num_states();
                let mut closure: Vec<BTreeSet<StateId>> = Vec::with_capacity(n);
                for q in 0..n {
                    let mut set = BTreeSet::from([q]);
                    let mut frontier = vec![q];
                    while let Some(s) = frontier.pop() {
                        for &t in a.transitions_from(s) {
                            let sym = a.entry_symbol(t).expect("non-start states have symbols");
                            if self.insertable.contains(sym) && set.insert(t) {
                                frontier.push(t);
                            }
                        }
                    }
                    closure.push(set);
                }
                closures.insert(name.clone(), closure);
            }
            self.closures = closures;
        }

        fn close(&self, element: &str, states: &BTreeSet<StateId>) -> BTreeSet<StateId> {
            let closure = &self.closures[element];
            let mut out = BTreeSet::new();
            for &q in states {
                out.extend(closure[q].iter().copied());
            }
            out
        }

        /// Potential (or strict) validity of `items` for `element`.
        pub fn check(&self, element: &str, items: &[Item], potential: bool) -> bool {
            let Some(decl) = self.dtd.element(element) else {
                return false;
            };
            for item in items {
                if let Item::Elem(n) = item {
                    if self.dtd.element(n).is_none() {
                        return false;
                    }
                }
            }
            match &decl.content {
                ContentSpec::Empty => items.is_empty(),
                ContentSpec::Any => true,
                ContentSpec::Mixed(_) | ContentSpec::Children(_) => {
                    let wrap =
                        if potential { self.build_wrap_table(items) } else { WrapTable::empty() };
                    self.spans_model(element, items, 0, items.len(), &wrap, potential)
                }
            }
        }

        fn spans_model(
            &self,
            element: &str,
            items: &[Item],
            i: usize,
            j: usize,
            wrap: &WrapTable,
            potential: bool,
        ) -> bool {
            let decl = match self.dtd.element(element) {
                Some(d) => d,
                None => return false,
            };
            match &decl.content {
                ContentSpec::Empty => i == j,
                ContentSpec::Any => true,
                ContentSpec::Mixed(allowed) => {
                    let mut reach = vec![false; j - i + 1];
                    reach[0] = true;
                    for p in i..j {
                        if !reach[p - i] {
                            continue;
                        }
                        match &items[p] {
                            Item::Text => reach[p - i + 1] = true,
                            Item::Elem(n) if allowed.iter().any(|a| a == n) => {
                                reach[p - i + 1] = true;
                            }
                            Item::Elem(_) => {}
                        }
                        if potential {
                            for m in p + 1..=j {
                                if allowed.iter().any(|x| wrap.get(p, m, x)) {
                                    reach[m - i] = true;
                                }
                            }
                        }
                    }
                    reach[j - i]
                }
                ContentSpec::Children(_) => {
                    let a = &self.automata[element];
                    let mut states: Vec<BTreeSet<StateId>> = vec![BTreeSet::new(); j - i + 1];
                    states[0] = if potential {
                        self.close(element, &BTreeSet::from([0]))
                    } else {
                        BTreeSet::from([0])
                    };
                    for p in i..j {
                        if states[p - i].is_empty() {
                            continue;
                        }
                        if let Item::Elem(n) = &items[p] {
                            let stepped = sparse::step(a, &states[p - i], n);
                            if !stepped.is_empty() {
                                let next =
                                    if potential { self.close(element, &stepped) } else { stepped };
                                states[p - i + 1].extend(next);
                            }
                        }
                        if potential {
                            for m in p + 1..=j {
                                for x in wrap.wrappers(p, m) {
                                    let stepped = sparse::step(a, &states[p - i], x);
                                    if !stepped.is_empty() {
                                        let next = self.close(element, &stepped);
                                        states[m - i].extend(next);
                                    }
                                }
                            }
                        }
                    }
                    states[j - i].iter().any(|&q| a.is_accepting(q))
                }
            }
        }

        fn build_wrap_table(&self, items: &[Item]) -> WrapTable {
            let n = items.len();
            let names: Vec<&String> = self.dtd.elements.keys().collect();
            let mut table = WrapTable::empty();
            for len in 0..=n {
                for p in 0..=n.saturating_sub(len) {
                    let m = p + len;
                    if len == 0 {
                        continue;
                    }
                    loop {
                        let mut changed = false;
                        for &x in &names {
                            if table.get(p, m, x) {
                                continue;
                            }
                            if self.spans_model(x, items, p, m, &table, true) {
                                table.set(p, m, x);
                                changed = true;
                            }
                        }
                        if !changed {
                            break;
                        }
                    }
                }
            }
            table
        }
    }

    #[derive(Debug, Default)]
    struct WrapTable {
        map: BTreeMap<(usize, usize), BTreeSet<String>>,
    }

    impl WrapTable {
        fn empty() -> WrapTable {
            WrapTable::default()
        }
        fn get(&self, p: usize, m: usize, x: &str) -> bool {
            self.map.get(&(p, m)).is_some_and(|s| s.contains(x))
        }
        fn set(&mut self, p: usize, m: usize, x: &str) {
            self.map.entry((p, m)).or_default().insert(x.to_string());
        }
        fn wrappers(&self, p: usize, m: usize) -> impl Iterator<Item = &str> {
            self.map.get(&(p, m)).into_iter().flatten().map(String::as_str)
        }
    }
}

/// The strict validator the one hierarchy walk replaced, kept as the
/// reference for its strict errors: a DFS over one hierarchy, the sparse
/// automaton compiled per element-content check, and the attribute rules
/// as they stood (no IDREF check). Each error carries its element.
mod reference {
    use super::sparse;
    use goddag::{Goddag, HierarchyId, NodeId, NodeKind};
    use std::collections::HashSet;
    use xmlcore::dtd::{AttDefault, AttType, Automaton, ContentSpec, Dtd};
    use xmlcore::Attribute;

    pub fn validate_hierarchy(g: &Goddag, h: HierarchyId, dtd: &Dtd) -> Vec<(NodeId, String)> {
        let mut errors = Vec::new();
        let mut ids = HashSet::new();
        let mut stack = vec![g.root()];
        while let Some(n) = stack.pop() {
            let Some(q) = g.name(n) else { continue };
            let mut child_names: Vec<&str> = Vec::new();
            let mut has_text = false;
            for &c in g.children_in(n, h) {
                match g.kind(c) {
                    NodeKind::Element { name, .. } => {
                        child_names.push(&name.local);
                        stack.push(c);
                    }
                    NodeKind::Leaf { text } => has_text |= !text.chars().all(char::is_whitespace),
                    NodeKind::Root { .. } => unreachable!("root is never a child"),
                }
            }
            let mut err = |e: String| errors.push((n, e));
            validate_children(dtd, &q.local, &child_names, has_text, &mut err);
            validate_attrs(dtd, &q.local, &g.attrs(n).to_vec(), &mut ids, &mut err);
        }
        errors
    }

    fn validate_children(
        dtd: &Dtd,
        element: &str,
        child_names: &[&str],
        has_nonws_text: bool,
        err: &mut impl FnMut(String),
    ) {
        let Some(decl) = dtd.element(element) else {
            return err(format!("element <{element}> is not declared"));
        };
        match &decl.content {
            ContentSpec::Empty => {
                if !child_names.is_empty() || has_nonws_text {
                    err(format!("element <{element}> is declared EMPTY but has content"));
                }
            }
            ContentSpec::Any => {
                for name in child_names {
                    if dtd.element(name).is_none() {
                        err(format!("element <{name}> (child of <{element}>) is not declared"));
                    }
                }
            }
            ContentSpec::Mixed(allowed) => {
                for name in child_names {
                    if !allowed.iter().any(|a| a == name) {
                        err(format!(
                            "element <{name}> is not allowed in mixed content of <{element}>"
                        ));
                    }
                }
            }
            ContentSpec::Children(model) => {
                if has_nonws_text {
                    err(format!("element <{element}> has element content but contains text"));
                }
                let automaton = Automaton::compile(model);
                if !sparse::matches(&automaton, child_names.iter().copied()) {
                    err(format!(
                        "children of <{element}> do not match content model {model}: found ({})",
                        child_names.join(", ")
                    ));
                }
            }
        }
    }

    fn validate_attrs(
        dtd: &Dtd,
        element: &str,
        attrs: &[Attribute],
        ids_seen: &mut HashSet<String>,
        err: &mut impl FnMut(String),
    ) {
        let Some(decl) = dtd.element(element) else {
            return; // undeclared element reported elsewhere
        };
        for def in &decl.attrs {
            let present = attrs.iter().find(|a| a.name.as_str() == def.name.as_str());
            match (&def.default, present) {
                (AttDefault::Required, None) => {
                    err(format!("required attribute {:?} missing on <{element}>", def.name));
                }
                (AttDefault::Fixed(v), Some(a)) if &a.value != v => {
                    err(format!(
                        "attribute {:?} on <{element}> must have fixed value {v:?}, found {:?}",
                        def.name, a.value
                    ));
                }
                _ => {}
            }
            if let Some(a) = present {
                match &def.ty {
                    AttType::Enumeration(values) => {
                        if !values.contains(&a.value) {
                            err(format!(
                                "attribute {:?} on <{element}> must be one of ({}), found {:?}",
                                def.name,
                                values.join(" | "),
                                a.value
                            ));
                        }
                    }
                    AttType::Id => {
                        if !ids_seen.insert(a.value.clone()) {
                            err(format!("duplicate ID {:?}", a.value));
                        }
                    }
                    AttType::NmToken => {
                        if a.value.is_empty() || !a.value.chars().all(xmlcore::name::is_name_char) {
                            err(format!(
                                "attribute {:?} on <{element}> is not a valid NMTOKEN: {:?}",
                                def.name, a.value
                            ));
                        }
                    }
                    AttType::Cdata | AttType::IdRef => {}
                }
            }
        }
        for a in attrs {
            if !decl.attrs.iter().any(|d| d.name == a.name.as_str()) {
                err(format!("attribute {:?} on <{element}> is not declared", a.name.to_string()));
            }
        }
    }
}

/// Random items over a [`corpus::dtds::random`] DTD: text, or an element
/// whose name may be the undeclared `ghost`.
fn items(src: &mut Source, k: usize) -> Vec<Item> {
    (0..src.index(8))
        .map(|_| if src.below(4) == 0 { Item::Text } else { Item::elem(random_name(src, k)) })
        .collect()
}

#[test]
fn verdicts_match_naive_reference() {
    corpus::gen::check("verdicts_match_naive_reference", 160, |src| {
        let dtd = random(src);
        let names: Vec<String> = dtd.elements.keys().cloned().collect();
        let items = items(src, names.len());

        let fast = PrevalidEngine::new(dtd.clone());
        let slow = naive::NaiveEngine::new(dtd);

        assert_eq!(fast.insertable(), slow.insertable(), "insertable sets diverge");
        for element in names.iter().map(String::as_str).chain(["ghost"]) {
            let fast_pot = fast.check_sequence(element, &items).ok;
            let slow_pot = slow.check(element, &items, true);
            assert_eq!(
                fast_pot, slow_pot,
                "potential verdict diverges: <{element}> over {items:?}"
            );
            let fast_strict = fast.check_sequence_strict(element, &items).ok;
            let slow_strict = slow.check(element, &items, false);
            assert_eq!(
                fast_strict, slow_strict,
                "strict verdict diverges: <{element}> over {items:?}"
            );
        }
    });
}

#[test]
fn potential_is_implied_by_strict() {
    // Sanity property on the new engine alone: exact validity must imply
    // potential validity.
    corpus::gen::check("potential_is_implied_by_strict", 160, |src| {
        let dtd = random(src);
        let names: Vec<String> = dtd.elements.keys().cloned().collect();
        let items = items(src, names.len());
        let engine = PrevalidEngine::new(dtd);
        for element in &names {
            if engine.check_sequence_strict(element, &items).ok {
                assert!(
                    engine.check_sequence(element, &items).ok,
                    "strict ok but potential rejected: <{element}> over {items:?}"
                );
            }
        }
    });
}

#[test]
fn dense_matches_agrees_with_sparse() {
    // (head?, (p | list)+, trailer?)
    let model = M::seq([
        M::name("head").opt(),
        M::choice([M::name("p"), M::name("list")]).plus(),
        M::name("trailer").opt(),
    ]);
    let a = Automaton::compile(&model);
    let alphabet = ["head", "p", "list", "trailer", "ghost"];
    let d = a.to_dense(|s| alphabet.iter().position(|&t| t == s).expect("model names listed"));
    assert_eq!(d.num_states(), a.num_states());
    // Exhaustive words up to length 3 over the alphabet (plus empty).
    let mut words: Vec<Vec<usize>> = vec![vec![]];
    for len in 1..=3u32 {
        for mut k in 0..alphabet.len().pow(len) {
            let mut w = Vec::new();
            for _ in 0..len {
                w.push(k % alphabet.len());
                k /= alphabet.len();
            }
            words.push(w);
        }
    }
    for w in words {
        let by_sparse = sparse::matches(&a, w.iter().map(|&i| alphabet[i]));
        assert_eq!(by_sparse, d.matches_dense(w.iter().copied()), "word {w:?}");
    }
}

/// Errors as a sorted multiset. The reference visits siblings in reverse,
/// so of two elements sharing an ID it blames the later one's twin; a
/// duplicate ID is compared by its reason alone.
fn multiset(errors: Vec<(goddag::NodeId, String)>) -> Vec<(Option<goddag::NodeId>, String)> {
    let mut keyed: Vec<_> = errors
        .into_iter()
        .map(|(n, reason)| (Some(n).filter(|_| !reason.starts_with("duplicate ID")), reason))
        .collect();
    keyed.sort();
    keyed
}

#[test]
fn strict_errors_match_the_reference_walk() {
    corpus::gen::check("strict_errors_match_the_reference_walk", 128, |src| {
        let g = corpus::dtds::edited_manuscript(src);
        let engines = DocEngines::new(&g);
        for h in g.hierarchy_ids() {
            let hierarchy = g.hierarchy(h).unwrap();
            let expected = reference::validate_hierarchy(&g, h, hierarchy.dtd.as_ref().unwrap());
            let found = engines.report(&g, h).unwrap().errors;
            assert_eq!(multiset(found), multiset(expected), "hierarchy {}", hierarchy.name);
        }
    });
}
