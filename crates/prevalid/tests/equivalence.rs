//! Verdict equivalence of the bitset engine against a naive reference.
//!
//! The `naive` module below is the original set-based dynamic program
//! (string-keyed `BTreeMap`s, `BTreeSet<StateId>` state sets, per-span
//! chain fixpoint) kept verbatim as an executable specification. The
//! property tests drive both engines over random small DTDs × random item
//! sequences and require identical potential and strict verdicts, plus an
//! identical insertable set.

use corpus::dtds::{random, random_name};
use corpus::gen::Source;
use prevalid::{Item, PrevalidEngine};

/// The pre-rewrite set-based engine, kept as the reference implementation.
mod naive {
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
                            let stepped = a.step(&states[p - i], n);
                            if !stepped.is_empty() {
                                let next =
                                    if potential { self.close(element, &stepped) } else { stepped };
                                states[p - i + 1].extend(next);
                            }
                        }
                        if potential {
                            for m in p + 1..=j {
                                for x in wrap.wrappers(p, m) {
                                    let stepped = a.step(&states[p - i], x);
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
