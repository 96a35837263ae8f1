//! Potential-validity checking over GODDAG hierarchies, plus the two editor
//! services xTagger builds on (paper §4):
//!
//! * [`check_hierarchy`] — is the current (partial) encoding of one hierarchy
//!   still extendable to a valid document? Run after every edit.
//! * [`check_insertion`] — *prevalidation* proper: would inserting `<tag>`
//!   over a given content range keep the hierarchy potentially valid?
//!   Evaluated without mutating the document.
//! * [`suggest_tags`] — every tag the DTD allows over a selection: exactly
//!   xTagger's "choose the appropriate markup" list.
//!
//! [`DocEngines`] is the one prevalidation gate: it holds a document's
//! engines and answers these three questions per hierarchy, passing a
//! hierarchy without a DTD. `cxstore`'s gated edits and suggestions and
//! `xtagger`'s session both go through it.
//!
//! Both single-tag checks and tag suggestion run through an
//! `InsertionContext`: the host lookup and the child-sequence partition
//! against the byte range (resolved straight to engine symbols) are
//! computed **once** and every candidate tag is tested against them. Each
//! check is first put to the engine's linear decision; the wrap table over
//! the covered items is built lazily, only when some tag's check cannot be
//! decided that way, and then shared by the rest. The host-side sequence
//! check, whose sequence genuinely differs per tag (the tag sits in it),
//! runs per candidate.

use crate::engine::{ItemSym, PrevalidEngine, Verdict, WrapTable};
use goddag::{Goddag, HierarchyId, NodeId, NodeKind, Span};
use std::cell::OnceCell;
use std::sync::OnceLock;

/// Result of a whole-hierarchy check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyReport {
    /// Per-element failures `(node, reason)`; empty means potentially valid.
    pub failures: Vec<(NodeId, String)>,
}

impl HierarchyReport {
    /// No failures?
    pub fn is_potentially_valid(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The child sequence of `n` in hierarchy `h`, resolved to engine symbols
/// (whitespace-only leaves dropped); `Err` on the first undeclared child.
fn item_sequence(
    engine: &PrevalidEngine,
    g: &Goddag,
    h: HierarchyId,
    n: NodeId,
) -> Result<Vec<ItemSym>, Verdict> {
    g.children_in(n, h)
        .iter()
        .filter_map(|&c| match g.kind(c) {
            NodeKind::Element { name, .. } => Some(engine.resolve_child(&name.local)),
            NodeKind::Leaf { text } => (!is_blank(text)).then_some(Ok(ItemSym::Text)),
            NodeKind::Root { .. } => None,
        })
        .collect()
}

fn is_blank(text: &str) -> bool {
    text.chars().all(char::is_whitespace)
}

/// Check every element of hierarchy `h` (and the root) for potential
/// validity of its content.
pub fn check_hierarchy(engine: &PrevalidEngine, g: &Goddag, h: HierarchyId) -> HierarchyReport {
    let mut failures = Vec::new();
    let mut stack = vec![g.root()];
    while let Some(n) = stack.pop() {
        let Some(name) = g.name(n) else { continue };
        let verdict = match item_sequence(engine, g, h, n) {
            Ok(items) => engine.check_resolved(&name.local, &items, None, true),
            Err(v) => engine.undeclared_or(&name.local, v),
        };
        if !verdict.ok {
            failures.push((n, verdict.reason.unwrap_or_else(|| "invalid".into())));
        }
        for &c in g.children_in(n, h) {
            if g.is_element(c) {
                stack.push(c);
            }
        }
    }
    failures.reverse();
    HierarchyReport { failures }
}

/// Resolved items of one side of the range, or the reason of its first
/// undeclared child.
type Part = Result<Vec<ItemSym>, String>;

/// Append `item` to `part`; once a part has failed, its first reason
/// sticks.
fn push(part: &mut Part, item: Result<ItemSym, Verdict>) {
    match item {
        Ok(item) => {
            if let Ok(items) = part {
                items.push(item);
            }
        }
        Err(v) => {
            if part.is_ok() {
                *part = Err(v.reason.unwrap_or_default());
            }
        }
    }
}

/// A prepared single-insertion check: the host of `start..end` in one
/// hierarchy and its child sequence partitioned against the range, shared
/// by every candidate tag. The wrap table over the covered items is built
/// lazily, the first time a tag's check cannot be decided by the linear
/// pass, and then shared too.
///
/// Construction fails (with the would-be [`Verdict`]) when the range itself
/// is unusable: out of bounds, splitting a character, or crossing markup of
/// the same hierarchy. [`InsertionContext::check`] then decides individual
/// tags, and [`InsertionContext::suggestions`] ranks the whole DTD.
pub(crate) struct InsertionContext<'e> {
    engine: &'e PrevalidEngine,
    host_name: String,
    /// Host children outside the range (the insertion point marked by
    /// `slot`), resolved; `Err` carries the first undeclared-child reason.
    outer: Result<(Vec<ItemSym>, usize), String>,
    /// Covered items plus their wrap table, built on first need; `Err` as
    /// above.
    inner: Result<(Vec<ItemSym>, OnceCell<WrapTable>), String>,
}

impl<'e> InsertionContext<'e> {
    /// Locate the host of `start..end` in hierarchy `h` and partition its
    /// children against the range.
    pub(crate) fn new(
        engine: &'e PrevalidEngine,
        g: &Goddag,
        h: HierarchyId,
        start: usize,
        end: usize,
    ) -> Result<InsertionContext<'e>, Verdict> {
        if start > end || end > g.content_len() {
            return Err(Verdict::no(format!("range {start}..{end} out of bounds")));
        }
        if !g.is_char_boundary(start) || !g.is_char_boundary(end) {
            return Err(Verdict::no(format!("range {start}..{end} splits a character")));
        }

        // Locate the host (deepest element of h covering the range) without
        // requiring leaf boundaries at start/end.
        let host = host_by_chars(g, h, start, end);
        let host_name = match g.name(host) {
            Some(q) => q.local.clone(),
            None => return Err(Verdict::no("host has no name")),
        };

        // Partition the host's children against the byte range, resolving
        // each straight to its engine symbol.
        let (mut before, mut inside, mut after): (Part, Part, Part) =
            (Ok(Vec::new()), Ok(Vec::new()), Ok(Vec::new()));
        for &c in g.children_in(host, h) {
            let (cs, ce) = g.char_range(c);
            // A leaf partially covered by the range splits: parts may fall on
            // both sides and inside.
            if let Some(text) = g.leaf_text(c) {
                let piece = |a: usize, b: usize| {
                    a < b && {
                        let (lo, hi) = (a.max(cs) - cs, b.min(ce) - cs);
                        lo < hi && !is_blank(&text[lo..hi])
                    }
                };
                if piece(cs, start.min(ce)) {
                    push(&mut before, Ok(ItemSym::Text));
                }
                if piece(start.max(cs), end.min(ce)) {
                    push(&mut inside, Ok(ItemSym::Text));
                }
                if piece(end.max(cs), ce) {
                    push(&mut after, Ok(ItemSym::Text));
                }
                continue;
            }
            let NodeKind::Element { name, .. } = g.kind(c) else { continue };
            let item = engine.resolve_child(&name.local);
            // Empty children (milestones, cs == ce) at the boundaries fall
            // into the before/after arms via the same comparisons.
            if ce <= start {
                push(&mut before, item);
            } else if cs >= end {
                push(&mut after, item);
            } else if start <= cs && ce <= end {
                push(&mut inside, item);
            } else {
                return Err(Verdict::no(format!(
                    "range {start}..{end} would cross <{}> ({cs}..{ce}) in the same hierarchy",
                    name.local
                )));
            }
        }

        let inner = inside.map(|items| (items, OnceCell::new()));
        let outer = before.and_then(|mut seq| {
            let slot = seq.len();
            seq.extend(after?);
            Ok((seq, slot))
        });
        Ok(InsertionContext { engine, host_name, outer, inner })
    }

    /// Would inserting `<tag>` here keep the hierarchy potentially valid?
    /// The covered items are tested with the shared (lazily built) wrap
    /// table as their fallback; the host's new sequence, which differs per
    /// tag, is checked from scratch.
    pub(crate) fn check(&self, tag: &str) -> Verdict {
        let Some(tag_sym) =
            self.engine.symbol(tag).filter(|_| self.engine.dtd().element(tag).is_some())
        else {
            return Verdict::no(format!("element <{tag}> is not declared"));
        };

        // The new element must accept the covered items...
        let inner = match &self.inner {
            Ok((items, table)) => self.engine.check_resolved(tag, items, Some(table), true),
            Err(reason) => Verdict::no(reason.clone()),
        };
        if !inner.ok {
            return Verdict::no(format!(
                "<{tag}> cannot hold the selected content: {}",
                inner.reason.unwrap_or_default()
            ));
        }
        // ...and the host must accept its new sequence. (A host missing
        // from the DTD outranks undeclared children, as in a fresh
        // `check_sequence`.)
        let outer = if self.engine.dtd().element(&self.host_name).is_none() {
            Verdict::no(format!("element <{}> is not declared", self.host_name))
        } else {
            match &self.outer {
                Ok((seq, slot)) => {
                    let mut new_seq = Vec::with_capacity(seq.len() + 1);
                    new_seq.extend_from_slice(&seq[..*slot]);
                    new_seq.push(ItemSym::Sym(tag_sym));
                    new_seq.extend_from_slice(&seq[*slot..]);
                    self.engine.check_resolved(&self.host_name, &new_seq, None, true)
                }
                Err(reason) => Verdict::no(reason.clone()),
            }
        };
        if !outer.ok {
            return Verdict::no(format!(
                "<{tag}> not allowed inside <{}> here: {}",
                self.host_name,
                outer.reason.unwrap_or_default()
            ));
        }
        Verdict::yes()
    }

    /// All DTD elements [`Self::check`] approves, sorted by name.
    pub(crate) fn suggestions(&self) -> Vec<String> {
        self.engine.dtd().elements.keys().filter(|tag| self.check(tag).ok).cloned().collect()
    }
}

/// Would inserting `<tag>` over content bytes `start..end` keep hierarchy
/// `h` potentially valid? Pure check — the document is not modified.
///
/// Returns `Verdict::no` with a reason when the insertion is rejected
/// (crossing markup in `h`, or a content-model dead end for either the host
/// or the new element).
pub fn check_insertion(
    engine: &PrevalidEngine,
    g: &Goddag,
    h: HierarchyId,
    tag: &str,
    start: usize,
    end: usize,
) -> Verdict {
    if engine.dtd().element(tag).is_none() {
        return Verdict { ok: false, reason: Some(format!("element <{tag}> is not declared")) };
    }
    match InsertionContext::new(engine, g, h, start, end) {
        Ok(ctx) => ctx.check(tag),
        Err(v) => v,
    }
}

/// The deepest element of `h` whose byte range covers `start..end` (root as
/// fallback).
fn host_by_chars(g: &Goddag, h: HierarchyId, start: usize, end: usize) -> NodeId {
    let mut cur = g.root();
    'descend: loop {
        for &c in g.children_in(cur, h) {
            if !g.is_element(c) {
                continue;
            }
            let (cs, ce) = g.char_range(c);
            let span = g.span(c);
            if !Span::is_empty(span) && cs <= start && end <= ce {
                cur = c;
                continue 'descend;
            }
        }
        return cur;
    }
}

/// All DTD elements that could legally wrap `start..end` in hierarchy `h` —
/// xTagger's tag suggestion list, sorted by name.
pub fn suggest_tags(
    engine: &PrevalidEngine,
    g: &Goddag,
    h: HierarchyId,
    start: usize,
    end: usize,
) -> Vec<String> {
    match InsertionContext::new(engine, g, h, start, end) {
        Ok(ctx) => ctx.suggestions(),
        Err(_) => Vec::new(),
    }
}

/// One document's prevalidation engines: one slot per hierarchy, each
/// compiled from the hierarchy's DTD on first use and kept. The slots are
/// sized from the document they are built from, and never invalidated: no
/// edit adds a hierarchy or changes a DTD, so the document's hierarchies
/// and DTDs are fixed once it is handed over. Each method states the one
/// rule for a hierarchy without a DTD.
pub struct DocEngines {
    engines: Box<[OnceLock<PrevalidEngine>]>,
}

impl DocEngines {
    /// Empty slots for every hierarchy of `g`.
    pub fn new(g: &Goddag) -> DocEngines {
        DocEngines { engines: g.hierarchy_ids().map(|_| OnceLock::new()).collect() }
    }

    /// The engine of hierarchy `h` of `g`, compiled on first use; `None`
    /// when `h` carries no DTD.
    fn engine(&self, g: &Goddag, h: HierarchyId) -> Option<&PrevalidEngine> {
        let dtd = g.hierarchy(h).ok()?.dtd.as_ref()?;
        Some(self.engines.get(h.idx())?.get_or_init(|| PrevalidEngine::new(dtd.clone())))
    }

    /// The gate: [`check_insertion`] of `<tag>` over `start..end` in `h`,
    /// or yes when `h` carries no DTD.
    pub fn check(
        &self,
        g: &Goddag,
        h: HierarchyId,
        tag: &str,
        start: usize,
        end: usize,
    ) -> Verdict {
        match self.engine(g, h) {
            Some(engine) => check_insertion(engine, g, h, tag, start, end),
            None => Verdict::yes(),
        }
    }

    /// [`suggest_tags`] over `start..end` in `h`; empty when `h` carries no
    /// DTD.
    pub fn suggest(&self, g: &Goddag, h: HierarchyId, start: usize, end: usize) -> Vec<String> {
        self.engine(g, h).map(|engine| suggest_tags(engine, g, h, start, end)).unwrap_or_default()
    }

    /// [`check_hierarchy`] of `h`; `None` when `h` carries no DTD.
    pub fn report(&self, g: &Goddag, h: HierarchyId) -> Option<HierarchyReport> {
        self.engine(g, h).map(|engine| check_hierarchy(engine, g, h))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlcore::dtd::parse_dtd;
    use xmlcore::QName;

    const DTD: &str = "
        <!ELEMENT r (page+)>
        <!ELEMENT page (line+)>
        <!ELEMENT line (#PCDATA | w)*>
        <!ELEMENT w (#PCDATA)>
    ";

    fn setup() -> (PrevalidEngine, Goddag, HierarchyId) {
        let engine = PrevalidEngine::new(parse_dtd(DTD).unwrap());
        let mut b = goddag::GoddagBuilder::new(QName::parse("r").unwrap());
        b.content("swa hwa swe");
        let phys = b.hierarchy("phys");
        b.range(phys, "page", vec![], 0, 11).unwrap();
        b.range(phys, "line", vec![], 0, 7).unwrap();
        b.range(phys, "line", vec![], 8, 11).unwrap();
        let g = b.finish().unwrap();
        (engine, g, phys)
    }

    #[test]
    fn complete_hierarchy_is_potentially_valid() {
        let (engine, g, h) = setup();
        let report = check_hierarchy(&engine, &g, h);
        assert!(report.is_potentially_valid(), "{:?}", report.failures);
    }

    #[test]
    fn partial_hierarchy_is_potentially_valid() {
        // Only one line, no page yet: lines at root level are not directly
        // allowed (r needs page+), but wrapping the lines into a page fixes
        // it -> potentially valid.
        let engine = PrevalidEngine::new(parse_dtd(DTD).unwrap());
        let mut b = goddag::GoddagBuilder::new(QName::parse("r").unwrap());
        b.content("swa hwa");
        let phys = b.hierarchy("phys");
        b.range(phys, "line", vec![], 0, 7).unwrap();
        let g = b.finish().unwrap();
        let report = check_hierarchy(&engine, &g, phys);
        assert!(report.is_potentially_valid(), "{:?}", report.failures);
    }

    #[test]
    fn dead_end_reported() {
        // A w directly under r can never be fixed: r needs page+, and w
        // cannot be wrapped into page (page holds line+, line allows w...
        // wait: w wraps into line wraps into page). Use a DTD without that
        // chain instead.
        let dtd =
            "<!ELEMENT r (page+)> <!ELEMENT page (pb)> <!ELEMENT pb EMPTY> <!ELEMENT w (#PCDATA)>";
        let engine = PrevalidEngine::new(parse_dtd(dtd).unwrap());
        let mut b = goddag::GoddagBuilder::new(QName::parse("r").unwrap());
        b.content("x");
        let h = b.hierarchy("phys");
        b.range(h, "w", vec![], 0, 1).unwrap();
        let g = b.finish().unwrap();
        let report = check_hierarchy(&engine, &g, h);
        assert!(!report.is_potentially_valid());
    }

    #[test]
    fn check_insertion_accepts_legal_wrap() {
        let (engine, g, h) = setup();
        // Wrap "swa" (0..3) in <w> inside line 1.
        let v = check_insertion(&engine, &g, h, "w", 0, 3);
        assert!(v.ok, "{:?}", v.reason);
    }

    #[test]
    fn check_insertion_rejects_crossing() {
        let (engine, g, h) = setup();
        // 4..9 crosses the line boundary at 7.
        let v = check_insertion(&engine, &g, h, "w", 4, 9);
        assert!(!v.ok);
        assert!(v.reason.unwrap().contains("cross"));
    }

    #[test]
    fn check_insertion_rejects_bad_content() {
        let (engine, g, h) = setup();
        // A <page> inside a line: line's mixed content doesn't allow page,
        // and no wrapping chain fixes page-under-line.
        let v = check_insertion(&engine, &g, h, "page", 1, 2);
        assert!(!v.ok, "page inside line must be rejected");
    }

    #[test]
    fn check_insertion_rejects_undeclared() {
        let (engine, g, h) = setup();
        assert!(!check_insertion(&engine, &g, h, "ghost", 0, 3).ok);
    }

    #[test]
    fn check_insertion_out_of_bounds() {
        let (engine, g, h) = setup();
        assert!(!check_insertion(&engine, &g, h, "w", 0, 999).ok);
    }

    #[test]
    fn empty_range_insertion() {
        let (engine, g, h) = setup();
        // An empty <w/> between words — w is insertable (mixed content).
        let v = check_insertion(&engine, &g, h, "w", 4, 4);
        assert!(v.ok, "{:?}", v.reason);
    }

    #[test]
    fn suggest_tags_lists_legal_wraps() {
        let (engine, g, h) = setup();
        // Over "swa" inside line 1: w fits; nothing else fits there.
        let tags = suggest_tags(&engine, &g, h, 0, 3);
        assert_eq!(tags, ["w"]);
        // Over a whole line (line can wrap into page? page needs line+ and
        // a page around line 1 nests under page... host of 0..7 is line!
        // The line itself covers 0..7; host is the existing <line>, so
        // wrapping 0..7 in another line or w stays inside it.
        let tags = suggest_tags(&engine, &g, h, 0, 7);
        assert!(tags.contains(&"w".to_string()), "{tags:?}");
    }

    #[test]
    fn suggestions_match_individual_checks() {
        // The shared-context suggestion list must agree tag-for-tag with
        // independent check_insertion calls (the sharing is an optimization,
        // not a semantics change).
        let (engine, g, h) = setup();
        for (s, e) in [(0usize, 3usize), (0, 7), (4, 4), (1, 5), (0, 11), (8, 11)] {
            let suggested = suggest_tags(&engine, &g, h, s, e);
            for tag in engine.dtd().elements.keys() {
                assert_eq!(
                    suggested.contains(tag),
                    check_insertion(&engine, &g, h, tag, s, e).ok,
                    "tag {tag} over {s}..{e}: {suggested:?}"
                );
            }
        }
    }

    #[test]
    fn context_reuse_matches_one_shot() {
        let (engine, g, h) = setup();
        let ctx = InsertionContext::new(&engine, &g, h, 0, 3).unwrap();
        assert_eq!(ctx.host_name, "line");
        for tag in ["w", "line", "page", "r"] {
            assert_eq!(ctx.check(tag), check_insertion(&engine, &g, h, tag, 0, 3), "tag {tag}");
        }
        // Error verdicts surface at construction.
        assert!(InsertionContext::new(&engine, &g, h, 0, 999).is_err());
        assert!(InsertionContext::new(&engine, &g, h, 4, 9).is_err());
    }

    #[test]
    fn doc_engines_pass_a_hierarchy_without_a_dtd() {
        let (engine, mut g, phys) = setup();
        g.set_dtd(phys, parse_dtd(DTD).unwrap()).unwrap();
        let bare = g.add_hierarchy("bare");
        let engines = DocEngines::new(&g);
        assert!(engines.check(&g, bare, "ghost", 4, 9).ok);
        assert!(engines.suggest(&g, bare, 0, 3).is_empty());
        assert_eq!(engines.report(&g, bare), None);
        // With a DTD, each method is the free function on the engine.
        for (tag, s, e) in [("w", 0, 3), ("ghost", 4, 9), ("w", 4, 9), ("w", 0, 999)] {
            assert_eq!(
                engines.check(&g, phys, tag, s, e),
                check_insertion(&engine, &g, phys, tag, s, e)
            );
        }
        assert_eq!(engines.suggest(&g, phys, 0, 3), suggest_tags(&engine, &g, phys, 0, 3));
        assert_eq!(engines.report(&g, phys), Some(check_hierarchy(&engine, &g, phys)));
    }

    #[test]
    fn insertion_check_does_not_mutate() {
        let (engine, g, h) = setup();
        let before = g.stats();
        let _ = check_insertion(&engine, &g, h, "w", 0, 3);
        let _ = suggest_tags(&engine, &g, h, 0, 3);
        assert_eq!(g.stats(), before);
    }

    #[test]
    fn partial_leaf_coverage_splits_text() {
        let (engine, g, h) = setup();
        // Wrap "wa h" (1..5) — splits the leaf; line keeps text on both
        // sides, all still valid mixed content.
        let v = check_insertion(&engine, &g, h, "w", 1, 5);
        assert!(v.ok, "{:?}", v.reason);
    }
}
