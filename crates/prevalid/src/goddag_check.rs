//! Strict and potential validity over GODDAG hierarchies, plus the two editor
//! services xTagger builds on (paper §4):
//!
//! * [`check_hierarchy`] — is one hierarchy valid against its DTD, and is
//!   its current (partial) encoding still extendable to a valid document?
//!   One walk answers both, element by element; run it after every edit.
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

use crate::engine::{ItemSym, PrevalidEngine, SymbolId, Verdict, WrapTable};
use goddag::{Attrs, Goddag, HierarchyId, NodeId, NodeKind, Span};
use std::cell::OnceCell;
use std::collections::HashSet;
use std::sync::OnceLock;
use xmlcore::dtd::{AttDef, AttDefault, AttType, ContentSpec, ElementDecl};
use xmlcore::name::is_name_char;

/// Result of a whole-hierarchy check: both verdicts, each a list of
/// `(node, reason)` in document order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierarchyReport {
    /// Strict-validity errors (content models, attributes, IDs); empty
    /// means valid.
    pub errors: Vec<(NodeId, String)>,
    /// Potential-validity failures; empty means potentially valid.
    pub failures: Vec<(NodeId, String)>,
}

impl HierarchyReport {
    /// No strict errors?
    pub fn is_valid(&self) -> bool {
        self.errors.is_empty()
    }

    /// No failures?
    pub fn is_potentially_valid(&self) -> bool {
        self.failures.is_empty()
    }
}

fn is_blank(text: &str) -> bool {
    text.chars().all(char::is_whitespace)
}

/// Check the root and every element of hierarchy `h`, once each in
/// document order, for strict and for potential validity. Each element's
/// child sequence is resolved once (blank leaves dropped) and read by both
/// verdicts; IDs are unique per hierarchy, and IDREF values are checked
/// against them once the walk has seen every ID.
pub fn check_hierarchy(engine: &PrevalidEngine, g: &Goddag, h: HierarchyId) -> HierarchyReport {
    let mut report = HierarchyReport::default();
    let (mut ids, mut idrefs) = (HashSet::new(), Vec::new());
    let (mut names, mut items) = (Vec::new(), Vec::new());
    let mut stack = vec![g.root()];
    while let Some(n) = stack.pop() {
        let Some(name) = g.name(n) else { continue };
        let element = name.local.as_str();
        let children = g.children_in(n, h);
        let (mut text, mut undeclared) = (false, None);
        names.clear();
        items.clear();
        for &c in children {
            match g.kind(c) {
                NodeKind::Element { name, .. } => {
                    names.push(name.local.as_str());
                    match engine.resolve_child(&name.local) {
                        Ok(item) => items.push(item),
                        Err(v) => {
                            undeclared.get_or_insert(v);
                        }
                    }
                }
                NodeKind::Leaf { text: t } if !is_blank(t) => {
                    text = true;
                    items.push(ItemSym::Text);
                }
                _ => {}
            }
        }
        let verdict = match undeclared {
            None => engine.check_resolved(element, &items, None, true),
            Some(v) => engine.undeclared_or(element, v),
        };
        if !verdict.ok {
            report.failures.push((n, verdict.reason.unwrap_or_else(|| "invalid".into())));
        }
        let mut err = |reason| report.errors.push((n, reason));
        content_errors(engine, element, &names, text, &mut err);
        if let Some(decl) = engine.dtd().element(element) {
            let refs = attr_errors(decl, g.attrs(n), &mut ids, &mut err);
            let at = report.errors.len();
            idrefs.extend(refs.into_iter().map(|(def, value)| (at, n, element, def, value)));
        }
        stack.extend(children.iter().rev().filter(|&&c| g.is_element(c)));
    }
    // Dangling IDREFs, each slotted in after its element's other errors.
    for (at, n, element, def, value) in idrefs.into_iter().rev() {
        if !ids.contains(value) {
            let reason = format!("IDREF {:?} on <{element}> matches no ID: {value:?}", def.name);
            report.errors.insert(at, (n, reason));
        }
    }
    report
}

/// The strict verdict on `element`'s content: `names` are its child
/// elements in order, `text` whether any child leaf is not blank.
fn content_errors(
    engine: &PrevalidEngine,
    element: &str,
    names: &[&str],
    text: bool,
    err: &mut impl FnMut(String),
) {
    let dtd = engine.dtd();
    let Some(decl) = dtd.element(element) else {
        return err(format!("element <{element}> is not declared"));
    };
    match &decl.content {
        ContentSpec::Empty => {
            if !names.is_empty() || text {
                err(format!("element <{element}> is declared EMPTY but has content"));
            }
        }
        ContentSpec::Any => {
            for name in names.iter().filter(|name| dtd.element(name).is_none()) {
                err(format!("element <{name}> (child of <{element}>) is not declared"));
            }
        }
        ContentSpec::Mixed(allowed) => {
            for name in names.iter().filter(|&name| !allowed.iter().any(|a| a == name)) {
                err(format!("element <{name}> is not allowed in mixed content of <{element}>"));
            }
        }
        ContentSpec::Children(model) => {
            if text {
                err(format!("element <{element}> has element content but contains text"));
            }
            let syms = names.iter().map(|name| engine.symbol(name).unwrap_or(SymbolId::MAX));
            if !engine.matches_strict(element, false, syms) {
                err(format!(
                    "children of <{element}> do not match content model {model}: found ({})",
                    names.join(", ")
                ));
            }
        }
    }
}

/// The strict verdict on the attributes `attrs` of an element declared as
/// `decl`: required, fixed, enumerated and NMTOKEN values, undeclared
/// names, and IDs unique within `ids`. Returns the element's IDREF
/// attributes with their values, which can only be checked once every ID
/// is known.
fn attr_errors<'a>(
    decl: &'a ElementDecl,
    attrs: Attrs<'a>,
    ids: &mut HashSet<&'a str>,
    err: &mut impl FnMut(String),
) -> Vec<(&'a AttDef, &'a str)> {
    let element = &decl.name;
    let mut idrefs = Vec::new();
    for def in &decl.attrs {
        let present = attrs.iter().find(|a| a.name.eq_str(&def.name));
        match (&def.default, present) {
            (AttDefault::Required, None) => {
                err(format!("required attribute {:?} missing on <{element}>", def.name));
            }
            (AttDefault::Fixed(v), Some(a)) if a.value != v => err(format!(
                "attribute {:?} on <{element}> must have fixed value {v:?}, found {:?}",
                def.name, a.value
            )),
            _ => {}
        }
        let Some(a) = present else { continue };
        match &def.ty {
            AttType::Enumeration(values) if !values.iter().any(|v| v == a.value) => {
                err(format!(
                    "attribute {:?} on <{element}> must be one of ({}), found {:?}",
                    def.name,
                    values.join(" | "),
                    a.value
                ));
            }
            AttType::Id if !ids.insert(a.value) => err(format!("duplicate ID {:?}", a.value)),
            AttType::NmToken if a.value.is_empty() || !a.value.chars().all(is_name_char) => {
                err(format!(
                    "attribute {:?} on <{element}> is not a valid NMTOKEN: {:?}",
                    def.name, a.value
                ));
            }
            AttType::IdRef => idrefs.push((def, a.value)),
            _ => {}
        }
    }
    for a in attrs.iter().filter(|a| !decl.attrs.iter().any(|d| a.name.eq_str(&d.name))) {
        err(format!("attribute {:?} on <{element}> is not declared", a.name.to_string()));
    }
    idrefs
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

    /// [`check_hierarchy`] of `h`, strict and potential; `None` when `h`
    /// carries no DTD.
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

    /// Attributes of a range, spelled `(name, value)`.
    type Attrs<'a> = &'a [(&'a str, &'a str)];

    /// The report on the one hierarchy of a document over `content`, built
    /// from `ranges` (`(tag, attributes, start, end)`, earlier ranges outer
    /// on equal spans), against `dtd`.
    fn report(dtd: &str, content: &str, ranges: &[(&str, Attrs, usize, usize)]) -> HierarchyReport {
        let mut b = goddag::GoddagBuilder::new(QName::parse("r").unwrap());
        b.content(content);
        let h = b.hierarchy("h");
        for &(tag, attrs, s, e) in ranges {
            let attrs = attrs.iter().map(|&(n, v)| xmlcore::Attribute::new(n, v)).collect();
            b.range(h, tag, attrs, s, e).unwrap();
        }
        let g = b.finish().unwrap();
        check_hierarchy(&PrevalidEngine::new(parse_dtd(dtd).unwrap()), &g, h)
    }

    /// Does some strict error contain `needle`?
    fn reports(report: &HierarchyReport, needle: &str) -> bool {
        report.errors.iter().any(|(_, e)| e.contains(needle))
    }

    /// Pages of lines, each page numbered.
    const PAGES: &str = "
        <!ELEMENT r (page+)>
        <!ELEMENT page (line+)>
        <!ATTLIST page no NMTOKEN #REQUIRED>
        <!ELEMENT line (#PCDATA)>
    ";

    #[test]
    fn valid_document_passes() {
        let r = report(PAGES, "swa hwa", &[("page", &[("no", "1")], 0, 7), ("line", &[], 0, 7)]);
        assert!(r.is_valid() && r.is_potentially_valid(), "{r:?}");
    }

    #[test]
    fn missing_required_attr_reported() {
        let r = report(PAGES, "t", &[("page", &[], 0, 1), ("line", &[], 0, 1)]);
        assert_eq!(r.errors.len(), 1, "{r:?}");
        assert!(reports(&r, "required attribute \"no\" missing on <page>"), "{r:?}");
    }

    #[test]
    fn undeclared_attribute_reported() {
        let page = ("page", &[("no", "1"), ("wild", "x")][..], 0, 1);
        let r = report(PAGES, "t", &[page, ("line", &[], 0, 1)]);
        assert!(reports(&r, "attribute \"wild\" on <page> is not declared"), "{r:?}");
    }

    #[test]
    fn content_model_violation_reported() {
        // A page with no line: its children are off `(line)+`.
        let r = report(PAGES, " ", &[("page", &[("no", "1")], 0, 0)]);
        assert!(reports(&r, "children of <page> do not match content model"), "{r:?}");
        assert!(r.is_potentially_valid(), "a line can still be inserted: {r:?}");
    }

    #[test]
    fn text_in_element_content_reported() {
        let r = report(PAGES, "stray t", &[("page", &[("no", "1")], 6, 7), ("line", &[], 6, 7)]);
        assert_eq!(
            r.errors,
            [(NodeId(0), "element <r> has element content but contains text".into())]
        );
    }

    #[test]
    fn whitespace_in_element_content_ok() {
        let r = report(PAGES, "\n  t \n", &[("page", &[("no", "1")], 3, 4), ("line", &[], 3, 4)]);
        assert!(r.is_valid(), "{r:?}");
    }

    #[test]
    fn undeclared_element_reported() {
        let ranges = [("page", &[("no", "1")][..], 0, 2), ("line", &[], 0, 2), ("zap", &[], 0, 1)];
        let r = report(PAGES, "tt", &ranges);
        assert!(reports(&r, "element <zap> is not allowed in mixed content of <line>"), "{r:?}");
        assert!(reports(&r, "element <zap> is not declared"), "{r:?}");
    }

    #[test]
    fn enumeration_and_fixed_checked() {
        let dtd = r#"<!ELEMENT r ANY> <!ELEMENT a EMPTY>
                     <!ATTLIST a kind (x | y) #REQUIRED v CDATA #FIXED "1">"#;
        let a = |attrs| report(dtd, " ", &[("a", attrs, 0, 0)]);
        assert!(a(&[("kind", "x"), ("v", "1")]).is_valid());
        let bad_enum = a(&[("kind", "z"), ("v", "1")]);
        assert!(reports(&bad_enum, "must be one of (x | y), found \"z\""), "{bad_enum:?}");
        let bad_fixed = a(&[("kind", "x"), ("v", "2")]);
        assert!(reports(&bad_fixed, "must have fixed value \"1\", found \"2\""), "{bad_fixed:?}");
    }

    #[test]
    fn duplicate_ids_reported() {
        let dtd = "<!ELEMENT r (w+)> <!ELEMENT w EMPTY> <!ATTLIST w id ID #REQUIRED>";
        let r = report(dtd, " ", &[("w", &[("id", "a")], 0, 0), ("w", &[("id", "a")], 1, 1)]);
        assert_eq!(r.errors.len(), 1, "{r:?}");
        assert!(reports(&r, "duplicate ID \"a\""), "{r:?}");
    }

    #[test]
    fn empty_element_with_content_reported() {
        let r = report("<!ELEMENT r ANY><!ELEMENT pb EMPTY>", "oops", &[("pb", &[], 0, 4)]);
        assert!(reports(&r, "element <pb> is declared EMPTY but has content"), "{r:?}");
    }

    #[test]
    fn dangling_idrefs_reported() {
        // IDREF values must match an ID of the same hierarchy, wherever it
        // sits: `x` refers forward, `y` to an ID only the other hierarchy
        // holds.
        let dtd = "<!ELEMENT r ANY> <!ELEMENT w EMPTY>
                   <!ATTLIST w id ID #IMPLIED ref IDREF #IMPLIED>";
        let mut b = goddag::GoddagBuilder::new(QName::parse("r").unwrap());
        b.content(" ");
        let (h, other) = (b.hierarchy("h"), b.hierarchy("other"));
        let w = |attr: &str, v: &str| vec![xmlcore::Attribute::new(attr, v)];
        b.range(h, "w", w("ref", "x"), 0, 0).unwrap();
        b.range(h, "w", w("ref", "y"), 0, 0).unwrap();
        b.range(h, "w", w("id", "x"), 1, 1).unwrap();
        b.range(other, "w", w("id", "y"), 0, 0).unwrap();
        let g = b.finish().unwrap();
        let engine = PrevalidEngine::new(parse_dtd(dtd).unwrap());
        let r = check_hierarchy(&engine, &g, h);
        let y = g.children_in(g.root(), h)[1];
        assert_eq!(r.errors, [(y, "IDREF \"ref\" on <w> matches no ID: \"y\"".into())]);
        assert!(check_hierarchy(&engine, &g, other).is_valid());
    }

    #[test]
    fn errors_come_in_document_order() {
        // An undeclared attribute on the s, its first w and the w after
        // it: the walk reports them in that order.
        let dtd =
            "<!ELEMENT r (#PCDATA | s | w)*> <!ELEMENT s (#PCDATA | w)*> <!ELEMENT w (#PCDATA)>";
        let mut b = goddag::GoddagBuilder::new(QName::parse("r").unwrap());
        b.content("swa hwa swe");
        let h = b.hierarchy("h");
        let zz = || vec![xmlcore::Attribute::new("zz", "1")];
        b.range(h, "s", zz(), 0, 7).unwrap();
        b.range(h, "w", zz(), 0, 3).unwrap();
        b.range(h, "w", vec![], 4, 7).unwrap();
        b.range(h, "w", zz(), 8, 11).unwrap();
        let g = b.finish().unwrap();
        let r = check_hierarchy(&PrevalidEngine::new(parse_dtd(dtd).unwrap()), &g, h);
        let s = g.children_in(g.root(), h)[0];
        let expected = [s, g.children_in(s, h)[0], g.children_in(g.root(), h)[2]];
        assert_eq!(r.errors.iter().map(|&(n, _)| n).collect::<Vec<_>>(), expected, "{r:?}");
    }

    /// Three words over "one two three": phys has a `line` over the first
    /// two, ling a `w` over each.
    fn words_doc() -> Goddag {
        let mut b = goddag::GoddagBuilder::new(QName::parse("r").unwrap());
        b.content("one two three");
        let phys = b.hierarchy("phys");
        let ling = b.hierarchy("ling");
        b.range(phys, "line", vec![], 0, 7).unwrap();
        b.range(ling, "w", vec![], 0, 3).unwrap();
        b.range(ling, "w", vec![], 4, 7).unwrap();
        b.range(ling, "w", vec![], 8, 13).unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn validate_hierarchy_against_dtd() {
        let g = words_doc();
        let ling = g.hierarchy_by_name("ling").unwrap();
        // Words directly under the root mixed with text.
        let dtd = parse_dtd("<!ELEMENT r (#PCDATA | w)*> <!ELEMENT w (#PCDATA)>").unwrap();
        let report = check_hierarchy(&PrevalidEngine::new(dtd), &g, ling);
        assert!(report.is_valid(), "{:?}", report.errors);
    }

    #[test]
    fn validate_detects_wrong_structure() {
        let g = words_doc();
        let ling = g.hierarchy_by_name("ling").unwrap();
        // A DTD that wants the words inside an s; they sit under r.
        let dtd = parse_dtd("<!ELEMENT r (s+)> <!ELEMENT s (#PCDATA | w)*> <!ELEMENT w (#PCDATA)>")
            .unwrap();
        let report = check_hierarchy(&PrevalidEngine::new(dtd), &g, ling);
        assert!(!report.is_valid());
        assert!(report.is_potentially_valid(), "an s can wrap them: {report:?}");
    }

    #[test]
    fn validate_all_mixed_dtds() {
        // One hierarchy with a DTD, one without.
        let mut g = words_doc();
        let phys = g.hierarchy_by_name("phys").unwrap();
        let dtd = parse_dtd("<!ELEMENT r (#PCDATA | line)*> <!ELEMENT line (#PCDATA)>").unwrap();
        g.set_dtd(phys, dtd).unwrap();
        let engines = DocEngines::new(&g);
        assert!(engines.report(&g, phys).unwrap().is_valid());
        assert_eq!(engines.report(&g, g.hierarchy_by_name("ling").unwrap()), None);
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
