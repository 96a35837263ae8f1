//! Glushkov automata compiled from content models.
//!
//! The automaton serves two consumers:
//!
//! * **Validation** (this crate): simulate the NFA over an element's child
//!   name sequence; accept iff an accepting state is active at the end.
//! * **Prevalidation** (`prevalid` crate): potential validity asks whether the
//!   child sequence is a *scattered subsequence* of some accepted word, which
//!   reduces to the same simulation over the automaton's transitive
//!   reachability closure (computed there).
//!
//! Glushkov construction: one state per name occurrence (position) in the
//! content model plus a start state; transitions follow the classic
//! first/last/follow sets. The automaton's size is linear in the content
//! model, and matching is `O(children × states²)` worst case (states are tiny
//! for realistic DTDs).

use super::content_model::ContentModel;
use std::collections::BTreeSet;

/// Automaton state index. State 0 is always the start state; states `1..`
/// correspond to name positions in the content model.
pub type StateId = usize;

/// A Glushkov NFA over element-name symbols.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Automaton {
    /// `symbol[p]` is the element name consumed entering state `p+1`.
    symbols: Vec<String>,
    /// `transitions[s]` = sorted (symbol position) targets reachable from `s`
    /// by consuming `symbols[target-1]`.
    transitions: Vec<Vec<StateId>>,
    /// Accepting states.
    accepting: BTreeSet<StateId>,
}

/// first/last/follow computation result for a subexpression.
struct Sets {
    nullable: bool,
    first: Vec<usize>, // positions (1-based states)
    last: Vec<usize>,
}

impl Automaton {
    /// Compile a content model into its Glushkov automaton.
    pub fn compile(model: &ContentModel) -> Automaton {
        let mut symbols: Vec<String> = Vec::new();
        let mut follow: Vec<BTreeSet<usize>> = Vec::new();
        let sets = build(model, &mut symbols, &mut follow);

        let nstates = symbols.len() + 1;
        let mut transitions: Vec<Vec<StateId>> = vec![Vec::new(); nstates];
        // Start state: transitions into each first position.
        transitions[0] = sets.first.clone();
        for (p, follows) in follow.iter().enumerate() {
            transitions[p + 1] = follows.iter().copied().collect();
        }
        let mut accepting: BTreeSet<StateId> = sets.last.iter().copied().collect();
        if sets.nullable {
            accepting.insert(0);
        }
        Automaton { symbols, transitions, accepting }
    }

    /// Number of states (including the start state).
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// The symbol consumed when *entering* state `s` (None for the start).
    pub fn entry_symbol(&self, s: StateId) -> Option<&str> {
        if s == 0 {
            None
        } else {
            Some(&self.symbols[s - 1])
        }
    }

    /// Raw transition list out of `s`.
    pub fn transitions_from(&self, s: StateId) -> &[StateId] {
        &self.transitions[s]
    }

    /// Is `s` accepting?
    pub fn is_accepting(&self, s: StateId) -> bool {
        self.accepting.contains(&s)
    }

    /// Successor states of the active `states` set on consuming `symbol`.
    pub fn step(&self, states: &BTreeSet<StateId>, symbol: &str) -> BTreeSet<StateId> {
        let mut next = BTreeSet::new();
        for &s in states {
            for &t in &self.transitions[s] {
                if self.symbols[t - 1] == symbol {
                    next.insert(t);
                }
            }
        }
        next
    }

    /// Run the automaton over a sequence of child element names.
    pub fn matches<I, S>(&self, names: I) -> bool
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut states: BTreeSet<StateId> = BTreeSet::from([0]);
        for name in names {
            states = self.step(&states, name.as_ref());
            if states.is_empty() {
                return false;
            }
        }
        states.iter().any(|&s| self.is_accepting(s))
    }
}

/// Number of `u64` words needed for a bitset over `n` bits.
fn words_for(n: usize) -> usize {
    n.div_ceil(64).max(1)
}

/// A [`Automaton`] lowered onto dense, symbol-indexed bitset tables.
///
/// State sets become `&[u64]` bitmasks (`words()` words each, bit `s` =
/// state `s` active), and the two per-state lookups the NFA simulation
/// needs become precomputed masks:
///
/// * `succ(s)` — every state reachable from `s` in one transition, any
///   symbol;
/// * `entered_by(sym)` — every state whose entry symbol is `sym` (symbols
///   are the caller's dense ids, assigned by the `sym_id` interner passed
///   to [`Automaton::to_dense`]).
///
/// One `step` over a whole state set is then
/// `(⋃_{s∈states} succ(s)) & entered_by(sym)` — a handful of AND/OR words
/// instead of a fresh `BTreeSet` per position. The `prevalid` crate builds
/// its potential-validity dynamic program on top of this.
#[derive(Debug, Clone)]
pub struct DenseAutomaton {
    num_states: usize,
    words: usize,
    /// `succ[s*words..][..words]` — successors of state `s`.
    succ: Vec<u64>,
    /// `entered_by[sym*words..][..words]` — states entered by symbol `sym`.
    entered_by: Vec<u64>,
    /// Accepting-state mask.
    accepting: Vec<u64>,
    /// Dense symbol id of each state's entry symbol (state 0 unused).
    state_symbol: Vec<usize>,
    /// All-zero mask returned for symbols outside this content model.
    zeros: Vec<u64>,
}

impl DenseAutomaton {
    /// Number of states (same as the source automaton).
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// `u64` words per state-set bitmask.
    pub fn words(&self) -> usize {
        self.words
    }

    /// A fresh all-zero state set.
    pub fn empty_set(&self) -> Vec<u64> {
        vec![0; self.words]
    }

    /// The start-state singleton `{0}`.
    pub fn start_set(&self) -> Vec<u64> {
        let mut s = self.empty_set();
        s[0] = 1;
        s
    }

    /// Successor mask of one state.
    pub fn succ(&self, s: usize) -> &[u64] {
        &self.succ[s * self.words..(s + 1) * self.words]
    }

    /// Mask of states entered by the dense symbol `sym` (all-zero for
    /// symbols outside this content model).
    pub fn entered_by(&self, sym: usize) -> &[u64] {
        if sym < self.entered_by.len() / self.words {
            &self.entered_by[sym * self.words..(sym + 1) * self.words]
        } else {
            &self.zeros
        }
    }

    /// Dense symbol id entering state `s` (`None` for the start state).
    pub fn entry_symbol_id(&self, s: usize) -> Option<usize> {
        (s > 0).then(|| self.state_symbol[s])
    }

    /// `out |= ⋃_{s ∈ states} succ(s)` — the one-transition image of a
    /// state set, before any symbol filter.
    pub fn succ_union_into(&self, states: &[u64], out: &mut [u64]) {
        for (w, &word) in states.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let s = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                for (o, &m) in out.iter_mut().zip(self.succ(s)) {
                    *o |= m;
                }
            }
        }
    }

    /// Does the state set contain an accepting state?
    pub fn accepts_any(&self, states: &[u64]) -> bool {
        states.iter().zip(&self.accepting).any(|(a, b)| a & b != 0)
    }

    /// Is the state set empty?
    pub fn is_empty_set(states: &[u64]) -> bool {
        states.iter().all(|&w| w == 0)
    }

    /// Run the automaton over dense symbol ids (bitset analogue of
    /// [`Automaton::matches`]).
    pub fn matches_dense(&self, syms: impl IntoIterator<Item = usize>) -> bool {
        let mut states = self.start_set();
        let mut image = self.empty_set();
        for sym in syms {
            image.iter_mut().for_each(|w| *w = 0);
            self.succ_union_into(&states, &mut image);
            let entered = self.entered_by(sym);
            for (s, (&i, &e)) in states.iter_mut().zip(image.iter().zip(entered)) {
                *s = i & e;
            }
            if Self::is_empty_set(&states) {
                return false;
            }
        }
        self.accepts_any(&states)
    }
}

impl Automaton {
    /// Lower this automaton onto dense bitset tables, mapping entry-symbol
    /// names through `sym_id` (an interner: every distinct name must get a
    /// stable dense id, so pass a closure that grows a shared table).
    pub fn to_dense<F: FnMut(&str) -> usize>(&self, mut sym_id: F) -> DenseAutomaton {
        let n = self.num_states();
        let words = words_for(n);
        let state_symbol: Vec<usize> =
            std::iter::once(0).chain(self.symbols.iter().map(|s| sym_id(s))).collect();
        let num_symbols = state_symbol.iter().skip(1).copied().max().map_or(0, |m| m + 1);

        let mut succ = vec![0u64; n * words];
        let mut entered_by = vec![0u64; num_symbols * words];
        for s in 0..n {
            for &t in self.transitions_from(s) {
                succ[s * words + t / 64] |= 1 << (t % 64);
            }
        }
        for t in 1..n {
            let sym = state_symbol[t];
            entered_by[sym * words + t / 64] |= 1 << (t % 64);
        }
        let mut accepting = vec![0u64; words];
        for &s in &self.accepting {
            accepting[s / 64] |= 1 << (s % 64);
        }
        DenseAutomaton {
            num_states: n,
            words,
            succ,
            entered_by,
            accepting,
            state_symbol,
            zeros: vec![0; words],
        }
    }
}

fn build(
    model: &ContentModel,
    symbols: &mut Vec<String>,
    follow: &mut Vec<BTreeSet<usize>>,
) -> Sets {
    match model {
        ContentModel::Name(n) => {
            symbols.push(n.clone());
            follow.push(BTreeSet::new());
            let p = symbols.len(); // 1-based position == state id
            Sets { nullable: false, first: vec![p], last: vec![p] }
        }
        ContentModel::Seq(items) => {
            let mut acc = Sets { nullable: true, first: Vec::new(), last: Vec::new() };
            for item in items {
                let s = build(item, symbols, follow);
                // follow(last(acc)) ∪= first(s)
                for &l in &acc.last {
                    for &f in &s.first {
                        follow[l - 1].insert(f);
                    }
                }
                if acc.nullable {
                    acc.first.extend_from_slice(&s.first);
                }
                if s.nullable {
                    acc.last.extend_from_slice(&s.last);
                } else {
                    acc.last = s.last;
                }
                acc.nullable &= s.nullable;
            }
            acc
        }
        ContentModel::Choice(items) => {
            let mut acc = Sets { nullable: false, first: Vec::new(), last: Vec::new() };
            for item in items {
                let s = build(item, symbols, follow);
                acc.nullable |= s.nullable;
                acc.first.extend(s.first);
                acc.last.extend(s.last);
            }
            acc
        }
        ContentModel::Repeat(inner, occ) => {
            let s = build(inner, symbols, follow);
            if occ.repeats() {
                // follow(last) ∪= first — looping back.
                for &l in &s.last {
                    for &f in &s.first {
                        follow[l - 1].insert(f);
                    }
                }
            }
            Sets { nullable: s.nullable || occ.allows_empty(), first: s.first, last: s.last }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtd::content_model::ContentModel as M;

    fn m_doc() -> M {
        // (head?, (p | list)+, trailer?)
        M::seq([
            M::name("head").opt(),
            M::choice([M::name("p"), M::name("list")]).plus(),
            M::name("trailer").opt(),
        ])
    }

    #[test]
    fn single_name() {
        let a = Automaton::compile(&M::name("w"));
        assert!(a.matches(["w"]));
        assert!(!a.matches::<_, &str>([]));
        assert!(!a.matches(["w", "w"]));
        assert!(!a.matches(["v"]));
    }

    #[test]
    fn star_matches_any_count() {
        let a = Automaton::compile(&M::name("w").star());
        assert!(a.matches::<_, &str>([]));
        assert!(a.matches(["w"]));
        assert!(a.matches(vec!["w"; 50]));
    }

    #[test]
    fn plus_requires_one() {
        let a = Automaton::compile(&M::name("w").plus());
        assert!(!a.matches::<_, &str>([]));
        assert!(a.matches(["w", "w", "w"]));
    }

    #[test]
    fn seq_order_enforced() {
        let a = Automaton::compile(&M::seq([M::name("a"), M::name("b")]));
        assert!(a.matches(["a", "b"]));
        assert!(!a.matches(["b", "a"]));
        assert!(!a.matches(["a"]));
        assert!(!a.matches(["a", "b", "b"]));
    }

    #[test]
    fn choice_alternatives() {
        let a = Automaton::compile(&M::choice([M::name("a"), M::name("b")]));
        assert!(a.matches(["a"]));
        assert!(a.matches(["b"]));
        assert!(!a.matches(["a", "b"]));
    }

    #[test]
    fn document_model() {
        let a = Automaton::compile(&m_doc());
        assert!(a.matches(["head", "p", "trailer"]));
        assert!(a.matches(["p"]));
        assert!(a.matches(["p", "list", "p"]));
        assert!(a.matches(["head", "list"]));
        assert!(!a.matches(["head", "trailer"]));
        assert!(!a.matches(["head"]));
        assert!(!a.matches(["trailer", "p"]));
        assert!(!a.matches(["p", "head"]));
    }

    #[test]
    fn nested_repeats() {
        // ((a, b?)+)*  — equivalent to (a, b?)*
        let a = Automaton::compile(&M::seq([M::name("a"), M::name("b").opt()]).plus().star());
        assert!(a.matches::<_, &str>([]));
        assert!(a.matches(["a", "a", "b", "a"]));
        assert!(!a.matches(["b"]));
    }

    #[test]
    fn entry_symbols_exposed() {
        let a = Automaton::compile(&M::seq([M::name("a"), M::name("b")]));
        assert_eq!(a.entry_symbol(0), None);
        assert_eq!(a.entry_symbol(1), Some("a"));
        assert_eq!(a.entry_symbol(2), Some("b"));
        assert_eq!(a.num_states(), 3);
    }

    #[test]
    fn repeated_symbol_positions_distinct() {
        // (a, a) — two positions for the same symbol.
        let a = Automaton::compile(&M::seq([M::name("a"), M::name("a")]));
        assert!(a.matches(["a", "a"]));
        assert!(!a.matches(["a"]));
        assert!(!a.matches(["a", "a", "a"]));
    }

    /// Intern symbols into a growing table; returns (dense automaton, ids).
    fn dense_with_interner(a: &Automaton, alphabet: &[&str]) -> (DenseAutomaton, Vec<usize>) {
        let mut table: Vec<String> = Vec::new();
        let mut intern = |s: &str| match table.iter().position(|t| t == s) {
            Some(i) => i,
            None => {
                table.push(s.to_string());
                table.len() - 1
            }
        };
        let d = a.to_dense(&mut intern);
        let ids = alphabet.iter().map(|s| intern(s)).collect();
        (d, ids)
    }

    #[test]
    fn dense_matches_agrees_with_sparse() {
        let model = m_doc();
        let a = Automaton::compile(&model);
        let alphabet = ["head", "p", "list", "trailer", "ghost"];
        let (d, ids) = dense_with_interner(&a, &alphabet);
        assert_eq!(d.num_states(), a.num_states());
        // Exhaustive words up to length 3 over the alphabet (plus empty).
        let mut words: Vec<Vec<usize>> = vec![vec![]];
        for len in 1..=3usize {
            for mut k in 0..alphabet.len().pow(len as u32) {
                let mut w = Vec::with_capacity(len);
                for _ in 0..len {
                    w.push(k % alphabet.len());
                    k /= alphabet.len();
                }
                words.push(w);
            }
        }
        for w in words {
            let sparse = a.matches(w.iter().map(|&i| alphabet[i]));
            let dense = d.matches_dense(w.iter().map(|&i| ids[i]));
            assert_eq!(sparse, dense, "word {:?}", w);
        }
    }

    #[test]
    fn dense_masks_expose_structure() {
        let a = Automaton::compile(&M::seq([M::name("a"), M::name("b")]));
        let (d, ids) = dense_with_interner(&a, &["a", "b"]);
        // start -> state 1 on a; state 1 -> state 2 on b; 2 accepting.
        assert_eq!(d.succ(0), &[0b010]);
        assert_eq!(d.succ(1), &[0b100]);
        assert_eq!(d.entered_by(ids[0]), &[0b010]);
        assert_eq!(d.entered_by(ids[1]), &[0b100]);
        assert!(!d.accepts_any(&d.start_set()));
        assert!(d.accepts_any(&[0b100]));
        assert_eq!(d.entry_symbol_id(0), None);
        assert_eq!(d.entry_symbol_id(1), Some(ids[0]));
        // Unknown symbols step nowhere.
        assert_eq!(d.entered_by(99), &[0]);
        let mut image = d.empty_set();
        d.succ_union_into(&d.start_set(), &mut image);
        assert_eq!(image, vec![0b010]);
    }

    #[test]
    fn dense_handles_many_states() {
        // 70 sequential names forces a second bitset word.
        let names: Vec<M> = (0..70).map(|i| M::name(format!("n{i}"))).collect();
        let a = Automaton::compile(&M::seq(names));
        let alphabet: Vec<String> = (0..70).map(|i| format!("n{i}")).collect();
        let refs: Vec<&str> = alphabet.iter().map(String::as_str).collect();
        let (d, ids) = dense_with_interner(&a, &refs);
        assert_eq!(d.words(), 2);
        assert!(d.matches_dense(ids.iter().copied()));
        assert!(!d.matches_dense(ids[..69].iter().copied()));
        assert!(!d.matches_dense(ids.iter().rev().copied()));
    }
}
