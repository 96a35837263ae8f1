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
//! Both single-tag checks and tag suggestion run through an
//! [`InsertionContext`]: the host lookup, the child-sequence partition
//! against the byte range, and the wrap table over the covered items are
//! computed **once** and every candidate tag is tested against them —
//! only the host-side sequence check, whose sequence genuinely differs
//! per tag (the tag sits in it), is re-run per candidate. `cxstore`
//! threads the same context through its gated-edit path.

use crate::engine::{Item, ItemSym, PrevalidEngine, Verdict, WrapTable};
use goddag::{Goddag, HierarchyId, NodeId, NodeKind, Span};

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

/// The child sequence of `n` in hierarchy `h`, as engine items
/// (whitespace-only leaves dropped).
fn item_sequence(g: &Goddag, h: HierarchyId, n: NodeId) -> Vec<Item> {
    g.children_in(n, h)
        .iter()
        .filter_map(|&c| match g.kind(c) {
            NodeKind::Element { name, .. } => Some(Item::Elem(name.local.clone())),
            NodeKind::Leaf { text } => {
                (!text.chars().all(char::is_whitespace)).then_some(Item::Text)
            }
            NodeKind::Root { .. } => None,
        })
        .collect()
}

/// Check every element of hierarchy `h` (and the root) for potential
/// validity of its content.
pub fn check_hierarchy(engine: &PrevalidEngine, g: &Goddag, h: HierarchyId) -> HierarchyReport {
    let mut failures = Vec::new();
    let mut stack = vec![g.root()];
    while let Some(n) = stack.pop() {
        let name = match g.name(n) {
            Some(q) => q.local.clone(),
            None => continue,
        };
        let items = item_sequence(g, h, n);
        let verdict = engine.check_sequence(&name, &items);
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

/// A prepared single-insertion check: the host of `start..end` in one
/// hierarchy, its child sequence partitioned against the range, and the wrap
/// table over the covered items — shared by every candidate tag.
///
/// Construction fails (with the would-be [`Verdict`]) when the range itself
/// is unusable: out of bounds, splitting a character, or crossing markup of
/// the same hierarchy. [`InsertionContext::check`] then decides individual
/// tags, and [`InsertionContext::suggestions`] ranks the whole DTD.
pub struct InsertionContext<'e> {
    engine: &'e PrevalidEngine,
    host_name: String,
    /// Host children outside the range (the insertion point marked by
    /// `slot`), resolved; `Err` carries the first undeclared-child reason.
    outer: Result<(Vec<ItemSym>, usize), String>,
    /// Covered items plus their shared wrap table; `Err` as above.
    inner: Result<(Vec<ItemSym>, WrapTable), String>,
}

impl<'e> InsertionContext<'e> {
    /// Locate the host of `start..end` in hierarchy `h` and partition its
    /// children against the range.
    pub fn new(
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

        // Partition the host's children against the byte range.
        let mut before: Vec<Item> = Vec::new();
        let mut inside: Vec<Item> = Vec::new();
        let mut after: Vec<Item> = Vec::new();
        for &c in g.children_in(host, h) {
            let (cs, ce) = g.char_range(c);
            let item = match g.kind(c) {
                NodeKind::Element { name, .. } => Some(Item::Elem(name.local.clone())),
                NodeKind::Leaf { text } => {
                    (!text.chars().all(char::is_whitespace)).then_some(Item::Text)
                }
                NodeKind::Root { .. } => None,
            };
            // A leaf partially covered by the range splits: parts may fall on
            // both sides and inside.
            if g.is_leaf(c) {
                let text = g.leaf_text(c).expect("leaf has text");
                let piece = |a: usize, b: usize| -> Option<Item> {
                    if a >= b {
                        return None;
                    }
                    let lo = a.max(cs) - cs;
                    let hi = b.min(ce) - cs;
                    if lo >= hi {
                        return None;
                    }
                    (!text[lo..hi].chars().all(char::is_whitespace)).then_some(Item::Text)
                };
                if let Some(i) = piece(cs, start.min(ce)) {
                    before.push(i);
                }
                if let Some(i) = piece(start.max(cs), end.min(ce)) {
                    inside.push(i);
                }
                if let Some(i) = piece(end.max(cs), ce) {
                    after.push(i);
                }
                continue;
            }
            let Some(item) = item else { continue };
            // Empty children (milestones, cs == ce) at the boundaries fall
            // into the before/after arms via the same comparisons.
            if ce <= start {
                before.push(item);
            } else if cs >= end {
                after.push(item);
            } else if start <= cs && ce <= end {
                inside.push(item);
            } else {
                return Err(Verdict::no(format!(
                    "range {start}..{end} would cross <{}> ({cs}..{ce}) in the same hierarchy",
                    g.name(c).map(|q| q.local.clone()).unwrap_or_default()
                )));
            }
        }

        let inner = match engine.resolve_items(&inside) {
            Ok(items) => {
                let table = engine.build_wrap_table(&items);
                Ok((items, table))
            }
            Err(v) => Err(v.reason.unwrap_or_default()),
        };
        let slot = before.len();
        let outer = match engine.resolve_items(&before).and_then(|mut seq| {
            seq.reserve(after.len() + 1);
            let rest = engine.resolve_items(&after)?;
            seq.extend(rest);
            Ok(seq)
        }) {
            Ok(seq) => Ok((seq, slot)),
            Err(v) => Err(v.reason.unwrap_or_default()),
        };

        Ok(InsertionContext { engine, host_name, outer, inner })
    }

    /// The host element's name.
    pub fn host_name(&self) -> &str {
        &self.host_name
    }

    /// Would inserting `<tag>` here keep the hierarchy potentially valid?
    /// The covered items are tested against the shared wrap table; only the
    /// host's new sequence (which differs per tag) is checked from scratch.
    pub fn check(&self, tag: &str) -> Verdict {
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
    pub fn suggestions(&self) -> Vec<String> {
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
        assert_eq!(ctx.host_name(), "line");
        for tag in ["w", "line", "page", "r"] {
            assert_eq!(ctx.check(tag), check_insertion(&engine, &g, h, tag, 0, 3), "tag {tag}");
        }
        // Error verdicts surface at construction.
        assert!(InsertionContext::new(&engine, &g, h, 0, 999).is_err());
        assert!(InsertionContext::new(&engine, &g, h, 4, 9).is_err());
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
