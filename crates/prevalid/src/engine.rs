//! The potential-validity engine (Iacob, Dekhtyar & Dekhtyar, WebDB 2004).
//!
//! A partially marked-up document is **potentially valid** w.r.t. a DTD iff
//! further markup *insertions* can turn it into a valid document. Insertions
//! can do two things to an element's child sequence:
//!
//! 1. **insert** a brand-new element anywhere — legal whenever that element's
//!    own content can be completed from nothing (an *insertable* element:
//!    nullable content model, or one producible purely from other insertable
//!    elements);
//! 2. **wrap** a contiguous run of existing children (and/or text) in a new
//!    element — the run must itself be potentially valid content for the
//!    wrapper.
//!
//! # Engine representation
//!
//! Everything hot runs on dense integer ids and bitsets:
//!
//! * element names are interned to [`SymbolId`]s once per engine, so the
//!   dynamic program never hashes a `String`;
//! * every content model (element *and* mixed) compiles to one
//!   [`DenseAutomaton`] whose state sets are `u64` bitmasks — a simulation
//!   step is a couple of AND/OR words against precomputed per-symbol masks;
//! * the *insertable* fixpoint yields a per-state **closure bitset**
//!   (states reachable by consuming only insertable symbols), so free
//!   insertion is one row-union instead of a worklist;
//! * the CYK-style wrap table stores, per span, a **symbol bitset** of
//!   wrappers, and is built bottom-up with three accelerations:
//!   an *alphabet-feasibility prefilter* (a wrapper whose derivable
//!   alphabet misses a span symbol is skipped — and stays skipped, since
//!   spans only grow), a precomputed transitive *single-wrap closure*
//!   (`x` wraps `[y]`) replacing the per-span chain fixpoint, and
//!   memoized per-(start, wrapper) state vectors so every (span, wrapper)
//!   pair is decided exactly once.
//!
//! A check is linear in the child count `n` when the linear decision below
//! settles it, and `O(n³)` bit-ops with tiny constants when it falls back
//! to the table (against the old set-based engine's ≈`O(n⁴)` `BTreeSet`
//! churn). Exact validity falls out as the same simulation with insertions
//! and wrapping disabled.
//!
//! # Linear decision
//!
//! Before any table, a potential check of host `x` over `items` makes one
//! pass that settles most sequences, with an answer equal to the table's
//! bit `x` of row `(0, n)`:
//!
//! * **No** when some item lies outside `x`'s derivable alphabet
//!   (`derivable[x]`, or `text_ok[x]` for text) — the table's per-span
//!   prefilter, applied to the whole sequence. Exact: `x`'s own start-0
//!   dynamic program dies at that item, and the only other way into the
//!   bit is the chain closure, through some `y ∈ wrap_closure[x]` that
//!   wraps the whole span. But `wrap_closure[x] ⊆ derivable[x]` (a single
//!   wrapped child is a symbol of `x`'s model, and chains compose), and
//!   `derivable` is transitively closed, so every such `y`'s alphabet lies
//!   inside `x`'s and misses the same item.
//! * **Yes** when `x`'s automaton, with its free-insertion closure,
//!   consumes every item itself and accepts. Exact: the table's start-0
//!   dynamic program for `x` ORs the wrap steps and the fed-back rows into
//!   this same direct step, so its state set contains the direct one at
//!   every position; and a sequence the machine consumes lies inside its
//!   alphabet, so the prefilter never prunes that path.
//!
//! Anything else — the machine gets stuck on an in-alphabet item, or ends
//! outside acceptance — is undecided, and only then is the table built.
//! With no items the direct simulation is the whole answer.

use std::cell::OnceCell;
use std::collections::{BTreeSet, HashMap};
use xmlcore::dtd::{Automaton, ContentModel, ContentSpec, DenseAutomaton, Dtd};

/// Dense id of an interned element name (index into the engine's symbol
/// table; declared elements first, then names only mentioned in content
/// models).
pub type SymbolId = usize;

/// One item of an element's child sequence.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Item {
    /// A child element.
    Elem(String),
    /// Non-whitespace text content. (Whitespace-only text is insignificant
    /// in element content and must be filtered out by the caller.)
    Text,
}

impl Item {
    /// Convenience constructor.
    pub fn elem(name: impl Into<String>) -> Item {
        Item::Elem(name.into())
    }
}

/// An [`Item`] resolved against the engine's symbol table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ItemSym {
    /// A child element, by interned id.
    Sym(SymbolId),
    /// Non-whitespace text.
    Text,
}

/// Verdict with an explanation for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Is the sequence (potentially) valid?
    pub ok: bool,
    /// Explanation when not.
    pub reason: Option<String>,
}

impl Verdict {
    pub(crate) fn yes() -> Verdict {
        Verdict { ok: true, reason: None }
    }
    pub(crate) fn no(reason: impl Into<String>) -> Verdict {
        Verdict { ok: false, reason: Some(reason.into()) }
    }
}

// ----------------------------------------------------------------------
// Bitset helpers (little endian over u64 words)
// ----------------------------------------------------------------------

fn bit_get(bits: &[u64], i: usize) -> bool {
    bits[i / 64] & (1 << (i % 64)) != 0
}

fn bit_set(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

fn or_into(dst: &mut [u64], src: &[u64]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d |= s;
    }
}

fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(&x, &y)| x & y != 0)
}

fn is_zero(bits: &[u64]) -> bool {
    bits.iter().all(|&w| w == 0)
}

/// Iterate the indexes of set bits.
fn ones(bits: &[u64]) -> impl Iterator<Item = usize> + '_ {
    bits.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors(Some(word), |&b| Some(b & b.wrapping_sub(1)))
            .take_while(|&b| b != 0)
            .map(move |b| w * 64 + b.trailing_zeros() as usize)
    })
}

// ----------------------------------------------------------------------
// Compiled per-element content
// ----------------------------------------------------------------------

/// A content model lowered onto the dense automaton, plus the free-insertion
/// closure computed from the engine's insertable fixpoint.
#[derive(Debug)]
struct Machine {
    auto: DenseAutomaton,
    /// Mixed content: text is consumed for free.
    text_free: bool,
    /// `closure[s*words..]` — states reachable from `s` (inclusive) by
    /// consuming only insertable symbols.
    closure: Vec<u64>,
    /// Closure of the start singleton `{0}`.
    start_closed: Vec<u64>,
}

impl Machine {
    fn words(&self) -> usize {
        self.auto.words()
    }

    fn closure_row(&self, s: usize) -> &[u64] {
        let w = self.words();
        &self.closure[s * w..(s + 1) * w]
    }

    /// `out = ⋃_{s ∈ states} closure(s)` (replaces `out`).
    fn close_into(&self, states: &[u64], out: &mut [u64]) {
        out.iter_mut().for_each(|w| *w = 0);
        for s in ones(states) {
            or_into(out, self.closure_row(s));
        }
    }
}

/// Compiled content of one interned symbol.
#[derive(Debug)]
enum Content {
    /// Mentioned in some content model but never declared.
    Undeclared,
    /// `EMPTY`.
    Empty,
    /// `ANY`.
    Any,
    /// Element content or mixed content, as an automaton.
    Machine(Machine),
}

// ----------------------------------------------------------------------
// The engine
// ----------------------------------------------------------------------

/// The compiled potential-validity engine for one DTD.
#[derive(Debug)]
pub struct PrevalidEngine {
    dtd: Dtd,
    /// Interned names: declared elements first (in `Dtd` iteration order),
    /// then mentioned-but-undeclared names.
    symbols: Vec<String>,
    index: HashMap<String, SymbolId>,
    /// Compiled content per symbol.
    content: Vec<Content>,
    /// `u64` words per symbol bitset.
    sym_words: usize,
    /// Bitset of insertable symbols.
    insertable_mask: Vec<u64>,
    /// Public name view of the insertable set.
    insertable_names: BTreeSet<String>,
    /// `wrap_closure[x*sym_words..]` — symbols `y` such that `x` can wrap
    /// the single-item sequence `[y]`, transitively closed over chains
    /// (`x` wraps `[z]`, `z` wraps `[y]`, …).
    wrap_closure: Vec<u64>,
    /// `derivable[x*sym_words..]` — symbols that can occur anywhere inside
    /// a potentially valid tree rooted at `x` (the feasibility alphabet).
    derivable: Vec<u64>,
    /// Symbols whose subtree can contain text somewhere.
    text_ok: Vec<u64>,
}

impl PrevalidEngine {
    /// Compile the engine from a DTD.
    pub fn new(dtd: Dtd) -> PrevalidEngine {
        let mut symbols: Vec<String> = Vec::new();
        let mut index: HashMap<String, SymbolId> = HashMap::new();
        let mut intern = |name: &str, symbols: &mut Vec<String>| -> SymbolId {
            if let Some(&id) = index.get(name) {
                return id;
            }
            symbols.push(name.to_string());
            index.insert(name.to_string(), symbols.len() - 1);
            symbols.len() - 1
        };

        // Declared elements first, then every name a content model mentions.
        for name in dtd.elements.keys() {
            intern(name, &mut symbols);
        }
        for decl in dtd.elements.values() {
            match &decl.content {
                ContentSpec::Mixed(allowed) => {
                    for n in allowed {
                        intern(n, &mut symbols);
                    }
                }
                ContentSpec::Children(model) => {
                    for n in model.alphabet() {
                        intern(&n, &mut symbols);
                    }
                }
                ContentSpec::Empty | ContentSpec::Any => {}
            }
        }

        let n_syms = symbols.len();
        let sym_words = n_syms.div_ceil(64).max(1);

        // Compile automata (mixed content becomes `(a | b | ...)*` with
        // free text).
        let mut content: Vec<Content> = Vec::with_capacity(n_syms);
        for sym in symbols.iter() {
            let c = match dtd.element(sym).map(|d| &d.content) {
                None => Content::Undeclared,
                Some(ContentSpec::Empty) => Content::Empty,
                Some(ContentSpec::Any) => Content::Any,
                Some(ContentSpec::Mixed(allowed)) => {
                    let model = ContentModel::choice(allowed.iter().map(ContentModel::name)).star();
                    Content::Machine(compile_machine(&model, true, &index))
                }
                Some(ContentSpec::Children(model)) => {
                    Content::Machine(compile_machine(model, false, &index))
                }
            };
            content.push(c);
        }

        let mut engine = PrevalidEngine {
            dtd,
            symbols,
            index,
            content,
            sym_words,
            insertable_mask: vec![0; sym_words],
            insertable_names: BTreeSet::new(),
            wrap_closure: vec![0; n_syms * sym_words],
            derivable: vec![0; n_syms * sym_words],
            text_ok: vec![0; sym_words],
        };
        engine.compute_insertable();
        engine.compute_closures();
        engine.compute_derivable();
        engine.compute_wrap_closure();
        engine
    }

    /// The underlying DTD.
    pub fn dtd(&self) -> &Dtd {
        &self.dtd
    }

    /// Elements whose content can be completed from nothing (so the element
    /// itself may be freely inserted).
    pub fn insertable(&self) -> &BTreeSet<String> {
        &self.insertable_names
    }

    /// Interned id of an element name, if known to this engine.
    pub(crate) fn symbol(&self, name: &str) -> Option<SymbolId> {
        self.index.get(name).copied()
    }

    fn sym_row(table: &[u64], x: SymbolId, words: usize) -> &[u64] {
        &table[x * words..(x + 1) * words]
    }

    /// Fixpoint: x is insertable iff its content model accepts some word of
    /// insertable symbols (in particular the empty word).
    fn compute_insertable(&mut self) {
        loop {
            let mut changed = false;
            for x in 0..self.symbols.len() {
                if bit_get(&self.insertable_mask, x) {
                    continue;
                }
                let ok = match &self.content[x] {
                    Content::Undeclared => false,
                    Content::Empty | Content::Any => true,
                    Content::Machine(m) => {
                        m.text_free || self.accepts_free(&m.auto, &self.insertable_mask)
                    }
                };
                if ok {
                    bit_set(&mut self.insertable_mask, x);
                    self.insertable_names.insert(self.symbols[x].clone());
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// Does `a` accept any word over the `free` symbol set?
    fn accepts_free(&self, a: &DenseAutomaton, free: &[u64]) -> bool {
        // States whose entry symbol is free.
        let mut free_states = a.empty_set();
        for y in ones(free) {
            or_into(&mut free_states, a.entered_by(y));
        }
        let mut reach = a.start_set();
        loop {
            let mut image = a.empty_set();
            a.succ_union_into(&reach, &mut image);
            for (i, f) in image.iter_mut().zip(&free_states) {
                *i &= f;
            }
            let before = reach.clone();
            or_into(&mut reach, &image);
            if reach == before {
                break;
            }
        }
        a.accepts_any(&reach)
    }

    /// Per-machine, per-state closure over insertable-symbol transitions.
    fn compute_closures(&mut self) {
        let insertable = self.insertable_mask.clone();
        for c in &mut self.content {
            let Content::Machine(m) = c else { continue };
            let a = &m.auto;
            let words = a.words();
            let mut ins_states = a.empty_set();
            for y in ones(&insertable) {
                or_into(&mut ins_states, a.entered_by(y));
            }
            let n = a.num_states();
            let mut closure = vec![0u64; n * words];
            for q in 0..n {
                let row = &mut closure[q * words..(q + 1) * words];
                row[q / 64] |= 1 << (q % 64);
                loop {
                    let mut image = vec![0u64; words];
                    a.succ_union_into(row, &mut image);
                    for (i, f) in image.iter_mut().zip(&ins_states) {
                        *i &= f;
                    }
                    let before = row.to_vec();
                    or_into(row, &image);
                    if row == &before[..] {
                        break;
                    }
                }
            }
            let mut start_closed = vec![0u64; words];
            start_closed.copy_from_slice(&closure[..words]);
            m.closure = closure;
            m.start_closed = start_closed;
        }
    }

    /// Feasibility alphabets: `derivable[x]` = names that can occur in any
    /// tree rooted at `x`; `text_ok[x]` = can text occur anywhere inside.
    fn compute_derivable(&mut self) {
        let n = self.symbols.len();
        let w = self.sym_words;
        let mut text_direct = vec![0u64; w];
        for x in 0..n {
            let row = &mut self.derivable[x * w..(x + 1) * w];
            match self.dtd.element(&self.symbols[x]).map(|d| &d.content) {
                None | Some(ContentSpec::Empty) => {}
                Some(ContentSpec::Any) => {
                    // Any declared element (ids 0..declared) can appear.
                    for (y, name) in self.symbols.iter().enumerate() {
                        if self.dtd.element(name).is_some() {
                            bit_set(row, y);
                        }
                    }
                    bit_set(&mut text_direct, x);
                }
                Some(ContentSpec::Mixed(allowed)) => {
                    for name in allowed {
                        bit_set(row, self.index[name]);
                    }
                    bit_set(&mut text_direct, x);
                }
                Some(ContentSpec::Children(model)) => {
                    for name in model.alphabet() {
                        bit_set(row, self.index[&name]);
                    }
                }
            }
        }
        // Warshall transitive closure over the child-mention graph.
        for k in 0..n {
            for x in 0..n {
                if bit_get(&self.derivable[x * w..(x + 1) * w], k) {
                    let (head, tail) = if x < k {
                        let (a, b) = self.derivable.split_at_mut(k * w);
                        (&mut a[x * w..(x + 1) * w], &b[..w])
                    } else if x > k {
                        let (a, b) = self.derivable.split_at_mut(x * w);
                        (&mut b[..w], &a[k * w..(k + 1) * w])
                    } else {
                        continue;
                    };
                    or_into(head, tail);
                }
            }
        }
        for x in 0..n {
            let row = &self.derivable[x * w..(x + 1) * w];
            if bit_get(&text_direct, x) || intersects(row, &text_direct) {
                bit_set(&mut self.text_ok, x);
            }
        }
    }

    /// Transitive "x wraps the single-item sequence `[y]`" relation, replacing
    /// the per-span same-span chain fixpoint of the set-based engine.
    fn compute_wrap_closure(&mut self) {
        let n = self.symbols.len();
        let w = self.sym_words;
        let declared: Vec<bool> =
            self.symbols.iter().map(|s| self.dtd.element(s).is_some()).collect();
        for x in 0..n {
            let mut row = vec![0u64; w];
            match &self.content[x] {
                Content::Undeclared | Content::Empty => {}
                Content::Any => {
                    for (y, &d) in declared.iter().enumerate() {
                        if d {
                            bit_set(&mut row, y);
                        }
                    }
                }
                Content::Machine(m) => {
                    let a = &m.auto;
                    let mut image = a.empty_set();
                    a.succ_union_into(&m.start_closed, &mut image);
                    let mut stepped = a.empty_set();
                    let mut closed = a.empty_set();
                    for (y, &d) in declared.iter().enumerate() {
                        if !d {
                            continue;
                        }
                        for (s, (&i, &e)) in
                            stepped.iter_mut().zip(image.iter().zip(a.entered_by(y)))
                        {
                            *s = i & e;
                        }
                        if is_zero(&stepped) {
                            continue;
                        }
                        m.close_into(&stepped, &mut closed);
                        if a.accepts_any(&closed) {
                            bit_set(&mut row, y);
                        }
                    }
                }
            }
            self.wrap_closure[x * w..(x + 1) * w].copy_from_slice(&row);
        }
        // Warshall transitive closure.
        for k in 0..n {
            for x in 0..n {
                if x == k {
                    continue;
                }
                if bit_get(&self.wrap_closure[x * w..(x + 1) * w], k) {
                    let (head, tail) = if x < k {
                        let (a, b) = self.wrap_closure.split_at_mut(k * w);
                        (&mut a[x * w..(x + 1) * w], &b[..w])
                    } else {
                        let (a, b) = self.wrap_closure.split_at_mut(x * w);
                        (&mut b[..w], &a[k * w..(k + 1) * w])
                    };
                    or_into(head, tail);
                }
            }
        }
    }

    // ----------------------------------------------------------------------
    // Sequence checking
    // ----------------------------------------------------------------------

    /// Is `items` potentially valid content for `element` (insertions and
    /// wrapping allowed)?
    pub fn check_sequence(&self, element: &str, items: &[Item]) -> Verdict {
        match self.resolve_items(items) {
            Ok(resolved) => self.check_resolved(element, &resolved, None, true),
            Err(v) => self.undeclared_or(element, v),
        }
    }

    /// Is `items` *exactly* valid content for `element` (no edits)?
    pub fn check_sequence_strict(&self, element: &str, items: &[Item]) -> Verdict {
        match self.resolve_items(items) {
            Ok(resolved) => self.check_resolved(element, &resolved, None, false),
            Err(v) => self.undeclared_or(element, v),
        }
    }

    /// The element-declared check outranks item resolution errors (pinned
    /// diagnostic order of the set-based engine).
    pub(crate) fn undeclared_or(&self, element: &str, v: Verdict) -> Verdict {
        if self.dtd.element(element).is_none() {
            return Verdict::no(format!("element <{element}> is not declared"));
        }
        v
    }

    /// Map items to interned symbols; errors on the first undeclared child.
    fn resolve_items(&self, items: &[Item]) -> Result<Vec<ItemSym>, Verdict> {
        items
            .iter()
            .map(|item| match item {
                Item::Text => Ok(ItemSym::Text),
                Item::Elem(n) => self.resolve_child(n),
            })
            .collect()
    }

    /// A child element name as an interned symbol, or the undeclared-child
    /// verdict.
    pub(crate) fn resolve_child(&self, name: &str) -> Result<ItemSym, Verdict> {
        match self.symbol(name).filter(|&s| self.is_declared(s)) {
            Some(s) => Ok(ItemSym::Sym(s)),
            None => Err(Verdict::no(format!("child element <{name}> is not declared"))),
        }
    }

    fn is_declared(&self, s: SymbolId) -> bool {
        !matches!(self.content[s], Content::Undeclared)
    }

    /// Decide resolved items against `element`. In potential mode the
    /// [linear pass](Self::decide_linear) answers first; only a sequence it
    /// cannot decide reaches the wrap table, taken from `table` (built into
    /// it on first use) when the caller shares one over exactly these items.
    pub(crate) fn check_resolved(
        &self,
        element: &str,
        items: &[ItemSym],
        table: Option<&OnceCell<WrapTable>>,
        potential: bool,
    ) -> Verdict {
        let Some(decl) = self.dtd.element(element) else {
            return Verdict::no(format!("element <{element}> is not declared"));
        };
        match &decl.content {
            ContentSpec::Empty => {
                if items.is_empty() {
                    Verdict::yes()
                } else {
                    Verdict::no(format!("<{element}> is EMPTY but has content"))
                }
            }
            ContentSpec::Any => Verdict::yes(),
            ContentSpec::Mixed(_) | ContentSpec::Children(_) => {
                let x = self.index[element];
                let ok = if !potential {
                    self.matches_strict(x, items)
                } else if let Some(ok) = self.decide_linear(x, items) {
                    ok
                } else {
                    let spans_all = |t: &WrapTable| bit_get(t.row(0, items.len()), x);
                    match table {
                        Some(cell) => spans_all(cell.get_or_init(|| self.build_wrap_table(items))),
                        None => spans_all(&self.build_wrap_table(items)),
                    }
                };
                if ok {
                    Verdict::yes()
                } else if potential {
                    Verdict::no(format!(
                        "children of <{element}> cannot be extended to match its content model"
                    ))
                } else {
                    Verdict::no(format!("children of <{element}> do not match its content model"))
                }
            }
        }
    }

    /// The linear decision for the machine-content host `x` (module docs,
    /// "Linear decision"): `Some(false)` when an item lies outside `x`'s
    /// derivable alphabet, `Some(true)` when `x`'s automaton with free
    /// insertions consumes every item itself, `None` when only wrapping can
    /// tell. With no items there is nothing to wrap, so the simulation
    /// decides alone.
    fn decide_linear(&self, x: SymbolId, items: &[ItemSym]) -> Option<bool> {
        let Content::Machine(m) = &self.content[x] else {
            unreachable!("the linear pass only runs on compiled machines")
        };
        let alphabet = Self::sym_row(&self.derivable, x, self.sym_words);
        let a = &m.auto;
        let mut states = m.start_closed.clone();
        let mut image = a.empty_set();
        let mut direct = true;
        for &item in items {
            match item {
                ItemSym::Text => {
                    if !bit_get(&self.text_ok, x) {
                        return Some(false);
                    }
                    direct &= m.text_free;
                }
                ItemSym::Sym(y) => {
                    if !bit_get(alphabet, y) {
                        return Some(false);
                    }
                    if direct {
                        image.iter_mut().for_each(|w| *w = 0);
                        a.succ_union_into(&states, &mut image);
                        for (i, &e) in image.iter_mut().zip(a.entered_by(y)) {
                            *i &= e;
                        }
                        m.close_into(&image, &mut states);
                        direct = !is_zero(&states);
                    }
                }
            }
        }
        if direct && a.accepts_any(&states) {
            Some(true)
        } else if items.is_empty() {
            Some(false)
        } else {
            None
        }
    }

    /// Strict NFA simulation: no insertions, no wrapping.
    fn matches_strict(&self, x: SymbolId, items: &[ItemSym]) -> bool {
        let Content::Machine(m) = &self.content[x] else {
            unreachable!("strict simulation only runs on compiled machines")
        };
        let a = &m.auto;
        let mut states = a.start_set();
        let mut image = a.empty_set();
        for item in items {
            match item {
                ItemSym::Text => {
                    if !m.text_free {
                        return false;
                    }
                }
                ItemSym::Sym(y) => {
                    image.iter_mut().for_each(|w| *w = 0);
                    a.succ_union_into(&states, &mut image);
                    let entered = a.entered_by(*y);
                    for (s, (&i, &e)) in states.iter_mut().zip(image.iter().zip(entered)) {
                        *s = i & e;
                    }
                    if is_zero(&states) {
                        return false;
                    }
                }
            }
        }
        a.accepts_any(&states)
    }

    /// Bottom-up wrap table over `items`: bit `x` of row `(p, m)` is set iff
    /// `items[p..m)` can be wrapped into a single `<x>`.
    ///
    /// Starts are processed right-to-left so that, when the dynamic program
    /// for start `p` reaches position `m`, every strictly-inside span
    /// `(q, m)` with `q > p` is already final; the only same-span dependency
    /// (a chain of wrappers over exactly `p..m`) is resolved algebraically
    /// by the precomputed [`Self::wrap_closure`].
    fn build_wrap_table(&self, items: &[ItemSym]) -> WrapTable {
        let n = items.len();
        let w = self.sym_words;
        let mut table = WrapTable::new(n, w);
        if n == 0 {
            return table;
        }

        // Wrappers with ANY content accept every span of declared items.
        let mut any_mask = vec![0u64; w];
        for (x, c) in self.content.iter().enumerate() {
            if matches!(c, Content::Any) {
                bit_set(&mut any_mask, x);
            }
        }

        // Machine-content wrapper candidates.
        let machines: Vec<(SymbolId, &Machine)> = self
            .content
            .iter()
            .enumerate()
            .filter_map(|(x, c)| match c {
                Content::Machine(m) => Some((x, m)),
                _ => None,
            })
            .collect();

        // Per-candidate DP state for the current start position `p`:
        // states/images hold one bitset per covered position.
        struct Dp {
            alive: bool,
            /// `states[k*words..]` = NFA states after covering `items[p..p+k)`.
            states: Vec<u64>,
            /// succ-union image of each `states` row (memoized).
            images: Vec<u64>,
        }
        let mut dps: Vec<Dp> = machines
            .iter()
            .map(|(_, m)| Dp {
                alive: true,
                states: Vec::with_capacity((n + 1) * m.words()),
                images: Vec::with_capacity((n + 1) * m.words()),
            })
            .collect();

        // Per-machine aggregated wrap-step masks, filled as rows finalize:
        // `wrap_masks[mi][(m*(n+1)+q)*aw..]` = ⋃_{y ∈ W(q,m)} entered_by(y)
        // for machine `mi`. Start-independent, so every later start `p < q`
        // reuses it — the inner loop becomes one AND/OR per (q, machine)
        // instead of one per (q, wrapper, machine).
        let mut wrap_masks: Vec<Vec<u64>> =
            machines.iter().map(|(_, m)| vec![0; (n + 1) * (n + 1) * m.words()]).collect();

        let mut next = Vec::new();
        let mut closed = Vec::new();
        for p in (0..n).rev() {
            for (dp, (_, m)) in dps.iter_mut().zip(&machines) {
                dp.alive = true;
                dp.states.clear();
                dp.states.extend_from_slice(&m.start_closed);
                dp.images.clear();
                let mut image = m.auto.empty_set();
                m.auto.succ_union_into(&m.start_closed, &mut image);
                dp.images.extend_from_slice(&image);
            }
            for m_end in p + 1..=n {
                let item = items[m_end - 1];
                // Direct wrappers of items[p..m_end).
                let mut direct = any_mask.clone();
                for (mi, (dp, (x, mach))) in dps.iter_mut().zip(&machines).enumerate() {
                    if !dp.alive {
                        continue;
                    }
                    // Alphabet-feasibility prefilter: a span containing a
                    // symbol x can never derive is dead for x — for every
                    // longer span from this start too.
                    let feasible = match item {
                        ItemSym::Text => bit_get(&self.text_ok, *x),
                        ItemSym::Sym(y) => bit_get(Self::sym_row(&self.derivable, *x, w), y),
                    };
                    if !feasible {
                        dp.alive = false;
                        continue;
                    }
                    let a = &mach.auto;
                    let aw = mach.words();
                    next.clear();
                    next.resize(aw, 0);
                    let k = m_end - 1 - p;
                    match item {
                        ItemSym::Text => {
                            if mach.text_free {
                                next.copy_from_slice(&dp.states[k * aw..(k + 1) * aw]);
                            }
                        }
                        ItemSym::Sym(y) => {
                            let entered = a.entered_by(y);
                            for (nx, (&i, &e)) in next
                                .iter_mut()
                                .zip(dp.images[k * aw..(k + 1) * aw].iter().zip(entered))
                            {
                                *nx = i & e;
                            }
                        }
                    }
                    // Wrapped runs (q, m_end) strictly inside the span, via
                    // the aggregated masks (rows with q > p are final).
                    let masks = &wrap_masks[mi];
                    let base = m_end * (n + 1);
                    if aw == 1 {
                        // Fast path: automata up to 64 states.
                        let mut acc = next[0];
                        for q in p + 1..m_end {
                            acc |= dp.images[q - p] & masks[base + q];
                        }
                        next[0] = acc;
                    } else {
                        for q in p + 1..m_end {
                            let mask = &masks[(base + q) * aw..(base + q + 1) * aw];
                            let img = &dp.images[(q - p) * aw..(q - p + 1) * aw];
                            for (nx, (&i, &e)) in next.iter_mut().zip(img.iter().zip(mask)) {
                                *nx |= i & e;
                            }
                        }
                    }
                    closed.clear();
                    closed.resize(aw, 0);
                    mach.close_into(&next, &mut closed);
                    if a.accepts_any(&closed) {
                        bit_set(&mut direct, *x);
                    }
                    dp.states.extend_from_slice(&closed);
                    let start = dp.images.len();
                    dp.images.resize(start + aw, 0);
                    a.succ_union_into(&closed, &mut dp.images[start..]);
                }
                // Same-span wrapper chains via the precomputed closure.
                let mut full = direct.clone();
                if !is_zero(&direct) {
                    for x in 0..self.symbols.len() {
                        if !bit_get(&full, x)
                            && intersects(Self::sym_row(&self.wrap_closure, x, w), &direct)
                        {
                            bit_set(&mut full, x);
                        }
                    }
                }
                table.row_mut(p, m_end).copy_from_slice(&full);
                // Aggregate the finalized row into each machine's wrap-step
                // mask for later (shorter-start) dynamic programs.
                if !is_zero(&full) {
                    for (mi, (_, mach)) in machines.iter().enumerate() {
                        let a = &mach.auto;
                        let aw = mach.words();
                        let i = (m_end * (n + 1) + p) * aw;
                        let mask = &mut wrap_masks[mi][i..i + aw];
                        for y in ones(&full) {
                            or_into(mask, a.entered_by(y));
                        }
                    }
                    // Feed the finalized row back into each DP: a candidate
                    // may consume a wrapper over the *whole* prefix
                    // `items[p..m_end)` from its start states and continue
                    // from there. (Acceptance via that consumption is
                    // already covered by the chain closure; the continuation
                    // states are not.)
                    for (mi, (dp, (_, mach))) in dps.iter_mut().zip(&machines).enumerate() {
                        if !dp.alive {
                            continue;
                        }
                        let a = &mach.auto;
                        let aw = mach.words();
                        let mask = &wrap_masks[mi][(m_end * (n + 1) + p) * aw..][..aw];
                        next.clear();
                        next.resize(aw, 0);
                        for (nx, (&i, &e)) in next.iter_mut().zip(dp.images[..aw].iter().zip(mask))
                        {
                            *nx = i & e;
                        }
                        if is_zero(&next) {
                            continue;
                        }
                        closed.clear();
                        closed.resize(aw, 0);
                        mach.close_into(&next, &mut closed);
                        let k = m_end - p;
                        let row = &mut dp.states[k * aw..(k + 1) * aw];
                        or_into(row, &closed);
                        let states_row = row.to_vec();
                        let img = &mut dp.images[k * aw..(k + 1) * aw];
                        img.iter_mut().for_each(|w| *w = 0);
                        a.succ_union_into(&states_row, img);
                    }
                }
            }
        }
        table
    }
}

fn compile_machine(
    model: &ContentModel,
    text_free: bool,
    index: &HashMap<String, SymbolId>,
) -> Machine {
    let auto = Automaton::compile(model)
        .to_dense(|name| *index.get(name).expect("content-model names interned up front"));
    Machine { auto, text_free, closure: Vec::new(), start_closed: Vec::new() }
}

/// Dense `(start, end) -> wrapper symbol bitset` table over one item
/// sequence. Row `(p, m)` covers `items[p..m)`.
#[derive(Debug)]
pub(crate) struct WrapTable {
    n: usize,
    sym_words: usize,
    bits: Vec<u64>,
}

impl WrapTable {
    fn new(n: usize, sym_words: usize) -> WrapTable {
        WrapTable { n, sym_words, bits: vec![0; (n + 1) * (n + 1) * sym_words] }
    }

    fn row(&self, p: usize, m: usize) -> &[u64] {
        let i = (p * (self.n + 1) + m) * self.sym_words;
        &self.bits[i..i + self.sym_words]
    }

    fn row_mut(&mut self, p: usize, m: usize) -> &mut [u64] {
        let i = (p * (self.n + 1) + m) * self.sym_words;
        &mut self.bits[i..i + self.sym_words]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlcore::dtd::{parse_dtd, ElementDecl};

    fn engine(dtd: &str) -> PrevalidEngine {
        PrevalidEngine::new(parse_dtd(dtd).unwrap())
    }

    fn elems(names: &[&str]) -> Vec<Item> {
        names.iter().map(|n| Item::elem(*n)).collect()
    }

    #[test]
    fn insertable_fixpoint_basics() {
        let e = engine(
            "<!ELEMENT a (b, c)> <!ELEMENT b (#PCDATA)> <!ELEMENT c EMPTY> <!ELEMENT d (e+)> <!ELEMENT e (d)>",
        );
        // b: mixed -> insertable; c: EMPTY -> insertable; a: (b,c) both
        // insertable -> insertable; d/e: mutual non-nullable cycle -> NOT
        // insertable.
        assert!(e.insertable().contains("a"));
        assert!(e.insertable().contains("b"));
        assert!(e.insertable().contains("c"));
        assert!(!e.insertable().contains("d"));
        assert!(!e.insertable().contains("e"));
    }

    #[test]
    fn subsequence_completion() {
        // page requires (head, line+, foot); a lone line is potentially
        // valid (insert head and foot) but a lone foot-then-head is not.
        let e = engine(
            "<!ELEMENT page (head, line+, foot)>
             <!ELEMENT head (#PCDATA)> <!ELEMENT line (#PCDATA)> <!ELEMENT foot (#PCDATA)>",
        );
        assert!(e.check_sequence("page", &elems(&["line"])).ok);
        assert!(e.check_sequence("page", &elems(&["head", "line"])).ok);
        assert!(e.check_sequence("page", &elems(&["line", "line", "foot"])).ok);
        assert!(!e.check_sequence("page", &elems(&["foot", "head"])).ok);
        assert!(!e.check_sequence("page", &elems(&["line", "head"])).ok);
        // Strict check: only complete sequences pass.
        assert!(!e.check_sequence_strict("page", &elems(&["line"])).ok);
        assert!(e.check_sequence_strict("page", &elems(&["head", "line", "foot"])).ok);
    }

    #[test]
    fn insertion_requires_insertable_symbols() {
        // page requires (head, line+); head itself requires a non-insertable
        // child (img with (data) where data has (img) — cycle), so a lone
        // line can NOT be completed.
        let e = engine(
            "<!ELEMENT page (head, line+)>
             <!ELEMENT head (img)> <!ELEMENT img (data)> <!ELEMENT data (img)>
             <!ELEMENT line (#PCDATA)>",
        );
        assert!(!e.insertable().contains("head"));
        assert!(!e.check_sequence("page", &elems(&["line"])).ok);
        // But with head present, the sequence is fine potentially... head's
        // own content is checked separately, at head itself.
        assert!(e.check_sequence("page", &elems(&["head", "line"])).ok);
    }

    #[test]
    fn wrapping_repairs_structure() {
        // doc requires (section+); section holds (title?, p+). Bare p's can
        // be wrapped into a section.
        let e = engine(
            "<!ELEMENT doc (section+)>
             <!ELEMENT section (title?, p+)>
             <!ELEMENT title (#PCDATA)> <!ELEMENT p (#PCDATA)>",
        );
        assert!(e.check_sequence("doc", &elems(&["p", "p"])).ok);
        assert!(e.check_sequence("doc", &elems(&["section", "p"])).ok);
        assert!(e.check_sequence("doc", &[]).ok); // insert a whole section
        assert!(!e.check_sequence_strict("doc", &elems(&["p"])).ok);
    }

    #[test]
    fn text_must_be_wrappable() {
        // doc has element content (p+); raw text can be wrapped into p
        // (mixed), so text is potentially valid.
        let e = engine("<!ELEMENT doc (p+)> <!ELEMENT p (#PCDATA)>");
        assert!(e.check_sequence("doc", &[Item::Text]).ok);
        assert!(!e.check_sequence_strict("doc", &[Item::Text]).ok);
        // But if p had EMPTY content, text is unfixable.
        let e2 = engine("<!ELEMENT doc (p+)> <!ELEMENT p EMPTY>");
        assert!(!e2.check_sequence("doc", &[Item::Text]).ok);
    }

    #[test]
    fn mixed_content_checks() {
        let e = engine("<!ELEMENT s (#PCDATA | w | pc)*> <!ELEMENT w (#PCDATA)> <!ELEMENT pc EMPTY> <!ELEMENT zap EMPTY>");
        assert!(e.check_sequence("s", &[Item::Text, Item::elem("w"), Item::Text]).ok);
        assert!(e.check_sequence("s", &[]).ok);
        // zap is not allowed in s and wrapping can't hide it... wrapping zap
        // inside w? w is mixed (#PCDATA) only — elements not allowed. So no.
        assert!(!e.check_sequence("s", &[Item::elem("zap")]).ok);
    }

    #[test]
    fn wrapping_chain_same_span() {
        // a -> (b); b -> (c); c mixed. Text wraps into c, c into b... from
        // a's perspective the text run becomes a single b.
        let e = engine("<!ELEMENT a (b)> <!ELEMENT b (c)> <!ELEMENT c (#PCDATA)>");
        assert!(e.check_sequence("a", &[Item::Text]).ok);
        assert!(e.check_sequence("a", &elems(&["c"])).ok);
        assert!(e.check_sequence("a", &elems(&["b"])).ok);
        assert!(!e.check_sequence("a", &elems(&["b", "b"])).ok);
    }

    #[test]
    fn empty_content_model() {
        let e = engine("<!ELEMENT pb EMPTY> <!ELEMENT x (#PCDATA)>");
        assert!(e.check_sequence("pb", &[]).ok);
        assert!(!e.check_sequence("pb", &[Item::Text]).ok);
        assert!(!e.check_sequence("pb", &elems(&["x"])).ok);
    }

    #[test]
    fn any_content_model() {
        let e = engine("<!ELEMENT r ANY> <!ELEMENT x (#PCDATA)>");
        assert!(e.check_sequence("r", &[Item::Text, Item::elem("x")]).ok);
        assert!(!e.check_sequence("r", &elems(&["undeclared"])).ok);
    }

    #[test]
    fn undeclared_elements_rejected() {
        let e = engine("<!ELEMENT r (a)> <!ELEMENT a EMPTY>");
        assert!(!e.check_sequence("r", &elems(&["ghost"])).ok);
        assert!(!e.check_sequence("ghost", &[]).ok);
    }

    #[test]
    fn verdict_reasons() {
        let e = engine("<!ELEMENT r (a)> <!ELEMENT a EMPTY>");
        let v = e.check_sequence("r", &elems(&["a", "a"]));
        assert!(!v.ok);
        assert!(v.reason.unwrap().contains("cannot be extended"));
    }

    #[test]
    fn interleaved_completion() {
        // r = (a, b, a, b); partial [b, a] fits as _ b a _.
        let e = engine("<!ELEMENT r (a, b, a, b)> <!ELEMENT a EMPTY> <!ELEMENT b EMPTY>");
        assert!(e.check_sequence("r", &elems(&["b", "a"])).ok);
        assert!(e.check_sequence("r", &elems(&["a", "a"])).ok);
        assert!(e.check_sequence("r", &elems(&["a", "b", "a", "b"])).ok);
        assert!(!e.check_sequence("r", &elems(&["b", "b", "b"])).ok);
        assert!(!e.check_sequence("r", &elems(&["a", "a", "a"])).ok);
    }

    #[test]
    fn non_insertable_required_sibling_blocks() {
        // r = (a, k) where k = (k) is non-insertable: nothing is ever
        // potentially valid for r except sequences already containing k.
        let e = engine("<!ELEMENT r (a, k)> <!ELEMENT a EMPTY> <!ELEMENT k (k)>");
        assert!(!e.check_sequence("r", &elems(&["a"])).ok);
        assert!(e.check_sequence("r", &elems(&["a", "k"])).ok);
        assert!(!e.check_sequence("r", &[]).ok);
    }

    #[test]
    fn mentioned_but_undeclared_symbols_are_inert() {
        // a's model mentions ghost, which is never declared: ghost items are
        // rejected, ghost is not insertable, and a can still be completed
        // along the declared branch.
        let e = engine("<!ELEMENT a (ghost | b)> <!ELEMENT b EMPTY>");
        assert!(!e.insertable().contains("ghost"));
        assert!(e.check_sequence("a", &elems(&["b"])).ok);
        assert!(e.check_sequence("a", &[]).ok); // insert b
        assert!(!e.check_sequence("a", &elems(&["ghost"])).ok);
    }

    #[test]
    fn deep_wrap_chains_resolve() {
        // Chain depth 4: text -> e (mixed) -> d -> c -> b; a requires (b, b).
        let e = engine(
            "<!ELEMENT a (b, b)> <!ELEMENT b (c)> <!ELEMENT c (d)>
             <!ELEMENT d (e)> <!ELEMENT e (#PCDATA)>",
        );
        assert!(e.check_sequence("a", &[Item::Text, Item::Text]).ok);
        assert!(e.check_sequence("a", &[Item::Text]).ok); // second b insertable? no...
        assert!(e.check_sequence("a", &elems(&["c", "d"])).ok);
        assert!(!e.check_sequence("a", &elems(&["b", "b", "b"])).ok);
    }

    const LING: &str = "<!ELEMENT r (#PCDATA | s | w)*> <!ELEMENT s (#PCDATA | phrase | w)*>
         <!ELEMENT phrase (#PCDATA | w)*> <!ELEMENT w (#PCDATA)>";

    /// The linear pass's outcome for `element` over `items`, after pinning
    /// that the full potential check agrees with the wrap table's bit.
    fn linear_outcome(e: &PrevalidEngine, element: &str, items: &[Item]) -> Option<bool> {
        let items = e.resolve_items(items).unwrap();
        let x = e.symbol(element).unwrap();
        let spans_all = bit_get(e.build_wrap_table(&items).row(0, items.len()), x);
        assert_eq!(e.check_resolved(element, &items, None, true).ok, spans_all, "<{element}>");
        let outcome = e.decide_linear(x, &items);
        if let Some(ok) = outcome {
            assert_eq!(ok, spans_all, "<{element}>: the linear pass disagrees with the table");
        }
        outcome
    }

    #[test]
    fn linear_pass_accepts_a_sequence_the_host_consumes_itself() {
        let e = engine(LING);
        let items = [Item::Text, Item::elem("w"), Item::Text, Item::elem("phrase")];
        assert_eq!(linear_outcome(&e, "s", &items), Some(true));
    }

    #[test]
    fn linear_pass_rejects_an_item_outside_the_derivable_alphabet() {
        let e = engine(LING);
        assert_eq!(linear_outcome(&e, "s", &elems(&["w", "r"])), Some(false));
    }

    #[test]
    fn linear_pass_leaves_a_needed_wrap_to_the_table() {
        // phrase is not a child of r, but [w, text, phrase] wraps into an s.
        let e = engine(LING);
        let items = [Item::elem("w"), Item::Text, Item::elem("phrase")];
        assert_eq!(linear_outcome(&e, "r", &items), None);
        assert!(e.check_sequence("r", &items).ok);
    }

    #[test]
    fn linear_pass_leaves_text_under_element_content_to_the_table() {
        let e = engine(
            "<!ELEMENT page (head, line+)> <!ELEMENT head (#PCDATA)> <!ELEMENT line (#PCDATA)>",
        );
        assert_eq!(linear_outcome(&e, "page", &[Item::Text]), None);
        assert!(e.check_sequence("page", &[Item::Text]).ok);
    }

    /// splitmix64: a seeded stream for the exactness property.
    struct Mix(u64);

    impl Mix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % n as u64) as usize
        }

        /// One of the `k` declared names, occasionally an undeclared one.
        fn name(&mut self, k: usize) -> String {
            if self.below(12) == 0 {
                "ghost".into()
            } else {
                format!("e{}", self.below(k))
            }
        }

        fn model(&mut self, k: usize, depth: usize) -> ContentModel {
            let base = if depth == 0 || self.below(3) == 0 {
                ContentModel::name(self.name(k))
            } else {
                let parts: Vec<_> =
                    (0..1 + self.below(3)).map(|_| self.model(k, depth - 1)).collect();
                if self.below(2) == 0 {
                    ContentModel::seq(parts)
                } else {
                    ContentModel::choice(parts)
                }
            };
            match self.below(4) {
                0 => base.opt(),
                1 => base.star(),
                2 => base.plus(),
                _ => base,
            }
        }

        fn dtd(&mut self, k: usize) -> Dtd {
            let mut dtd = Dtd::new();
            for i in 0..k {
                let content = match self.below(5) {
                    0 => ContentSpec::Empty,
                    1 => ContentSpec::Any,
                    2 => ContentSpec::Mixed((0..self.below(4)).map(|_| self.name(k)).collect()),
                    _ => ContentSpec::Children(self.model(k, 2)),
                };
                dtd.declare(ElementDecl { name: format!("e{i}"), content, attrs: vec![] });
            }
            dtd
        }
    }

    #[test]
    fn linear_decisions_equal_the_wrap_table() {
        // Random DTDs × random sequences of 0..=48 declared items: whenever
        // the linear pass decides, it must agree with the table's bit (with
        // no items, with the start closure). Every outcome must occur, so
        // the table fallback cannot go unexercised.
        let mut rng = Mix(2005);
        let (mut yes, mut no, mut undecided) = (0, 0, 0);
        for case in 0..2_000 {
            let k = 2 + rng.below(4);
            let e = PrevalidEngine::new(rng.dtd(k));
            // Half the sequences short, where a host can still accept alone.
            let max = if rng.below(2) == 0 { 6 } else { 49 };
            let len = rng.below(max);
            let items: Vec<ItemSym> = (0..len)
                .map(|_| match rng.below(4) {
                    0 => ItemSym::Text,
                    _ => ItemSym::Sym(e.symbol(&format!("e{}", rng.below(k))).unwrap()),
                })
                .collect();
            let table = e.build_wrap_table(&items);
            for x in 0..k {
                let Content::Machine(m) = &e.content[x] else { continue };
                let reference = if items.is_empty() {
                    m.auto.accepts_any(&m.start_closed)
                } else {
                    bit_get(table.row(0, len), x)
                };
                match e.decide_linear(x, &items) {
                    Some(ok) => {
                        assert_eq!(ok, reference, "case {case}: <{}> over {items:?}", e.symbols[x]);
                        if ok {
                            yes += 1;
                        } else {
                            no += 1;
                        }
                    }
                    None => undecided += 1,
                }
            }
        }
        println!("linear pass: {yes} yes, {no} no, {undecided} undecided");
        assert!(yes > 0 && no > 0 && undecided > 0, "yes {yes}, no {no}, undecided {undecided}");
    }
}
