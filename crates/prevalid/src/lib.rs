//! # prevalid — strict and potential validity checking
//!
//! The prevalidation engine behind xTagger (paper §4: "prevalidation
//! checking, which detects encodings that cannot be extended to valid XML
//! with further markup insertions", after Iacob, Dekhtyar & Dekhtyar,
//! WebDB 2004).
//!
//! A document being authored is almost never valid *yet*; the useful
//! question is whether it can still *become* valid. The engine decides this
//! per element-content sequence using the Glushkov automata of the DTD's
//! content models, an *insertable elements* fixpoint, and a CYK-style
//! dynamic program for markup wrapping. On top of that sit the GODDAG-level
//! services: whole-hierarchy checks (one walk gives each element's strict
//! and potential verdicts — the crate is the workspace's one DTD
//! validator), single-insertion prevalidation, and tag suggestions for a
//! selection.
//!
//! # Performance model
//!
//! [`PrevalidEngine::new`] interns the DTD's element names to dense
//! [`SymbolId`]s and lowers every content model onto a bitset NFA
//! (`xmlcore::dtd::DenseAutomaton`): state sets and per-span wrapper sets
//! are `u64`-word bitmasks, so one simulation step is a few AND/OR words
//! wide (`⌈states/64⌉` resp. `⌈symbols/64⌉` — one word each for realistic
//! DTDs). A potential check first makes one linear pass over the items:
//! an item outside the host's derivable alphabet decides **no**, and the
//! host's automaton consuming every item itself (with free insertions)
//! decides **yes** — both exactly the table's answer (the engine module
//! docs give the argument). Only a sequence that needs wrapping to be
//! decided reaches the wrap-table dynamic program, which over `n` child
//! items runs in `O(n³ · machines)` word operations — down from the old
//! set-based engine's ≈`O(n⁴)` `BTreeSet` churn — and three compile-time
//! precomputations keep its constants tiny:
//!
//! * a per-wrapper *derivable alphabet* prunes every (span, wrapper) pair
//!   whose span contains a symbol the wrapper can never derive (and, since
//!   spans only grow from a fixed start, prunes all longer spans with it);
//! * a transitive *single-wrap closure* (`x` wraps `[y]`) resolves
//!   same-span wrapper chains algebraically instead of by per-span
//!   fixpoint iteration;
//! * per-(start, wrapper) NFA state vectors are memoized, so each (span,
//!   wrapper) pair is decided exactly once.
//!
//! On a 200-word mixed-content `<s>` host (399 child items) every check
//! xTagger makes is decided by the linear pass: a `check_insertion` takes
//! ~17 µs in release, where the table took ~74 ms and the set-based engine
//! ~387 s. [`suggest_tags`] shares the host partition across all candidate
//! tags and builds the covered-items wrap table lazily, only if some tag
//! needs it, so the whole suggestion list costs about one check. The undecided class stays cubic: the same `phrase`
//! insertion directly under a bare 200-word `<r>` (legal only by wrapping
//! it into an `<s>`) takes ~60 ms. Engine compilation itself is ~8 µs for
//! the standard DTDs, paid once per hierarchy by [`DocEngines`], which each
//! store entry and editing session holds.
//!
//! ```
//! use prevalid::{PrevalidEngine, Item};
//! use xmlcore::dtd::parse_dtd;
//!
//! let dtd = parse_dtd("<!ELEMENT page (head, line+)> \
//!                      <!ELEMENT head (#PCDATA)> <!ELEMENT line (#PCDATA)>").unwrap();
//! let engine = PrevalidEngine::new(dtd);
//! // A lone <line> is not valid, but inserting a <head> fixes it:
//! assert!(engine.check_sequence("page", &[Item::elem("line")]).ok);
//! assert!(!engine.check_sequence_strict("page", &[Item::elem("line")]).ok);
//! ```

mod engine;
mod goddag_check;

pub use engine::{Item, PrevalidEngine, SymbolId, Verdict};
pub use goddag_check::{
    check_hierarchy, check_insertion, suggest_tags, DocEngines, HierarchyReport,
};
