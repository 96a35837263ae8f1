//! An xTagger editing session (paper §4, *Authoring tools*): "xTagger allows
//! users to select a document fragment and choose the appropriate markup for
//! it (from any of the XML hierarchies associated with the document). It
//! implements prevalidation checking, which detects encodings that cannot be
//! extended to valid XML with further markup insertions."
//!
//! The session wraps a [`Goddag`] with:
//! * a **prevalidation gate** ([`DocEngines`], from the hierarchy DTDs):
//!   markup insertions that would create a content-model dead end are
//!   refused before they touch the document;
//! * snapshot-based **undo/redo**;
//! * tag **suggestions** for a selection;
//! * Extended XPath querying of the working document.

use crate::error::{Result, XTaggerError};
use goddag::{Goddag, HierarchyId, NodeId};
use prevalid::{DocEngines, HierarchyReport};
use sacx::{EditOp, EditOutcome};
use xmlcore::Attribute;

/// One undo/redo slot.
struct Snapshot {
    /// What produced this state (for history display).
    label: String,
    goddag: Goddag,
}

/// An interactive editing session over a multihierarchical document.
pub struct Session {
    goddag: Goddag,
    /// Sized from the document at `new`: undo and redo swap in snapshots
    /// of it, and no edit adds a hierarchy or changes a DTD.
    engines: DocEngines,
    undo_stack: Vec<Snapshot>,
    redo_stack: Vec<Snapshot>,
    history: Vec<String>,
}

impl Session {
    /// Start a session. Each hierarchy's prevalidation engine is compiled
    /// from its DTD on first use (hierarchies without DTDs are unchecked).
    pub fn new(goddag: Goddag) -> Session {
        Session {
            engines: DocEngines::new(&goddag),
            goddag,
            undo_stack: Vec::new(),
            redo_stack: Vec::new(),
            history: Vec::new(),
        }
    }

    /// The working document.
    pub fn goddag(&self) -> &Goddag {
        &self.goddag
    }

    /// Consume the session, returning the document.
    pub fn into_goddag(self) -> Goddag {
        self.goddag
    }

    /// Human-readable command history.
    pub fn history(&self) -> &[String] {
        &self.history
    }

    /// Undo the last command. Returns its label.
    pub fn undo(&mut self) -> Result<String> {
        let snap = self.undo_stack.pop().ok_or(XTaggerError::NothingToUndo)?;
        let label = snap.label.clone();
        let current = std::mem::replace(&mut self.goddag, snap.goddag);
        self.redo_stack.push(Snapshot { label: label.clone(), goddag: current });
        self.history.push(format!("undo {label}"));
        Ok(label)
    }

    /// Redo the last undone command. Returns its label.
    pub fn redo(&mut self) -> Result<String> {
        let snap = self.redo_stack.pop().ok_or(XTaggerError::NothingToRedo)?;
        let label = snap.label.clone();
        let current = std::mem::replace(&mut self.goddag, snap.goddag);
        self.undo_stack.push(Snapshot { label: label.clone(), goddag: current });
        self.history.push(format!("redo {label}"));
        Ok(label)
    }

    // ------------------------------------------------------------------
    // Editing commands
    // ------------------------------------------------------------------

    /// Apply one edit: resolve its names, run the prevalidation gate (an
    /// element insert into a hierarchy with a DTD), then mutate. A refused
    /// edit leaves the document, the undo and redo stacks and the history
    /// as they were; an applied one becomes one undo step.
    pub fn apply(&mut self, op: EditOp) -> Result<EditOutcome> {
        let label = match &op {
            EditOp::InsertElement { tag, start, end, .. } => {
                format!("insert <{tag}> {start}..{end}")
            }
            EditOp::RemoveElement(n) => {
                let name = self.goddag.is_alive(*n).then(|| self.goddag.name(*n)).flatten();
                format!("remove <{}>", name.map(|q| q.to_string()).unwrap_or_default())
            }
            EditOp::SetAttr { name, .. } => format!("set @{name}"),
            EditOp::RemoveAttr { name, .. } => format!("remove @{name}"),
            EditOp::InsertText { offset, .. } => format!("insert text @{offset}"),
            EditOp::DeleteText { start, end } => format!("delete text {start}..{end}"),
        };
        let resolved = op.resolve(&self.goddag)?;
        if let (Some(h), EditOp::InsertElement { tag, start, end, .. }) =
            (resolved.hierarchy(), resolved.op())
        {
            let verdict = self.engines.check(&self.goddag, h, tag, *start, *end);
            if !verdict.ok {
                return Err(XTaggerError::PrevalidationRejected {
                    tag: tag.clone(),
                    reason: verdict.reason.unwrap_or_default(),
                });
            }
        }
        let before = self.goddag.clone();
        match resolved.apply(&mut self.goddag) {
            Ok(out) => {
                self.undo_stack.push(Snapshot { label: label.clone(), goddag: before });
                self.redo_stack.clear();
                self.history.push(label);
                Ok(out)
            }
            Err(e) => {
                // The command didn't happen: a refusal after a leaf split
                // must not leave the split behind.
                self.goddag = before;
                Err(e.into())
            }
        }
    }

    /// Insert `<tag>` over content bytes `start..end` in hierarchy `h` —
    /// [`Session::apply`] of an [`EditOp::InsertElement`], returning the
    /// new element.
    pub fn insert_markup(
        &mut self,
        h: HierarchyId,
        tag: &str,
        attrs: Vec<Attribute>,
        start: usize,
        end: usize,
    ) -> Result<NodeId> {
        let hierarchy = self.goddag.hierarchy(h)?.name.clone();
        if self.goddag.hierarchy_by_name(&hierarchy) != Some(h) {
            return Err(XTaggerError::Query(format!("hierarchy name {hierarchy:?} is ambiguous")));
        }
        let attrs = attrs.into_iter().map(|a| (a.name.to_string(), a.value)).collect();
        let op = EditOp::InsertElement { hierarchy, tag: tag.into(), attrs, start, end };
        // invariant: an applied element insert always reports its node.
        Ok(self.apply(op)?.node.expect("element inserts create a node"))
    }

    // ------------------------------------------------------------------
    // Queries & services
    // ------------------------------------------------------------------

    /// Tags the DTD allows over `start..end` in hierarchy `h` (empty when
    /// the hierarchy has no DTD).
    pub fn suggest(&self, h: HierarchyId, start: usize, end: usize) -> Vec<String> {
        self.engines.suggest(&self.goddag, h, start, end)
    }

    /// Potential-validity report for one hierarchy (`None` without a DTD).
    pub fn validation_status(&self, h: HierarchyId) -> Option<HierarchyReport> {
        self.engines.report(&self.goddag, h)
    }

    /// Run an Extended XPath query against the working document.
    pub fn query(&self, expr: &str) -> Result<Vec<NodeId>> {
        expath::Evaluator::new(&self.goddag)
            .select(expr)
            .map_err(|e| XTaggerError::Query(e.to_string()))
    }

    /// Export a subset of hierarchies as distributed documents.
    pub fn export_filtered(&self, keep: &[HierarchyId]) -> Result<Vec<(String, String)>> {
        crate::filter::export_filtered(&self.goddag, keep).map_err(XTaggerError::Sacx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goddag::GoddagError;
    use xmlcore::dtd::parse_dtd;

    const DTD: &str = "
        <!ELEMENT r (#PCDATA | line | w)*>
        <!ELEMENT line (#PCDATA | w)*>
        <!ELEMENT w (#PCDATA)>
        <!ATTLIST w type CDATA #IMPLIED>
    ";

    fn session() -> (Session, HierarchyId) {
        let mut g = sacx::parse_distributed(&[("phys", "<r>swa hwa swe</r>")]).unwrap();
        let h = g.hierarchy_by_name("phys").unwrap();
        g.set_dtd(h, parse_dtd(DTD).unwrap()).unwrap();
        (Session::new(g), h)
    }

    /// A hierarchy without a DTD: nothing but the name check and the
    /// document's own structure stand between a command and the document.
    fn bare_session() -> (Session, HierarchyId) {
        let g = sacx::parse_distributed(&[("ling", "<r>swa hwa swe</r>")]).unwrap();
        let h = g.hierarchy_by_name("ling").unwrap();
        (Session::new(g), h)
    }

    #[test]
    fn insert_and_undo_redo() {
        let (mut s, h) = session();
        let w = s.insert_markup(h, "w", vec![], 0, 3).unwrap();
        assert_eq!(s.goddag().text_of(w), "swa");
        assert_eq!(s.goddag().element_count(), 1);
        let label = s.undo().unwrap();
        assert!(label.contains("insert <w>"));
        assert_eq!(s.goddag().element_count(), 0);
        s.redo().unwrap();
        assert_eq!(s.goddag().element_count(), 1);
        assert!(s.undo_stack.len() == 1 && s.redo_stack.is_empty());
    }

    #[test]
    fn undo_empty_stack_errors() {
        let (mut s, _) = session();
        assert!(matches!(s.undo(), Err(XTaggerError::NothingToUndo)));
        assert!(matches!(s.redo(), Err(XTaggerError::NothingToRedo)));
    }

    #[test]
    fn new_command_clears_redo() {
        let (mut s, h) = session();
        s.insert_markup(h, "w", vec![], 0, 3).unwrap();
        s.undo().unwrap();
        s.insert_markup(h, "line", vec![], 0, 7).unwrap();
        assert!(matches!(s.redo(), Err(XTaggerError::NothingToRedo)));
    }

    #[test]
    fn prevalidation_gate_refuses_dead_ends() {
        let (mut s, h) = session();
        // <w> holds only PCDATA; wrapping a <line> inside a <w>... first
        // make a line, then try to wrap a larger range in w so the line
        // must nest inside w — w cannot hold line.
        s.insert_markup(h, "line", vec![], 0, 7).unwrap();
        let err = s.insert_markup(h, "w", vec![], 0, 11).unwrap_err();
        assert!(matches!(err, XTaggerError::PrevalidationRejected { .. }), "{err}");
        // Document untouched, command not in undo stack.
        assert_eq!(s.goddag().element_count(), 1);
        assert_eq!(s.undo_stack.len(), 1);
    }

    #[test]
    fn validation_status_reports_a_dead_end() {
        // A <w> around a <line> can never validate: w holds only PCDATA.
        let mut g =
            sacx::parse_distributed(&[("phys", "<r><w><line>swa hwa</line> swe</w></r>")]).unwrap();
        let h = g.hierarchy_by_name("phys").unwrap();
        g.set_dtd(h, parse_dtd(DTD).unwrap()).unwrap();
        let s = Session::new(g);
        let report = s.validation_status(h).unwrap();
        assert!(!report.is_potentially_valid());
        let (bare, h) = bare_session();
        assert_eq!(bare.validation_status(h), None);
    }

    #[test]
    fn crossing_rejected_without_a_dtd_too() {
        let (mut s, h) = bare_session();
        s.insert_markup(h, "line", vec![], 0, 7).unwrap();
        let err = s.insert_markup(h, "w", vec![], 4, 9).unwrap_err();
        assert!(matches!(err, XTaggerError::Goddag(GoddagError::WouldCross { .. })), "{err}");
        // Failed command leaves no history entry.
        assert_eq!(s.undo_stack.len(), 1);
    }

    #[test]
    fn suggestions_follow_dtd() {
        let (s, h) = session();
        let tags = s.suggest(h, 0, 3);
        assert_eq!(tags, ["line", "w"]);
    }

    #[test]
    fn text_edits_and_undo() {
        let (mut s, h) = session();
        s.insert_markup(h, "w", vec![], 0, 3).unwrap();
        s.apply(EditOp::InsertText { offset: 3, text: "n".into() }).unwrap();
        assert_eq!(s.goddag().content(), "swan hwa swe");
        s.apply(EditOp::DeleteText { start: 0, end: 2 }).unwrap();
        assert_eq!(s.goddag().content(), "an hwa swe");
        s.undo().unwrap();
        s.undo().unwrap();
        assert_eq!(s.goddag().content(), "swa hwa swe");
    }

    #[test]
    fn attribute_commands() {
        let (mut s, h) = session();
        let w = s.insert_markup(h, "w", vec![], 0, 3).unwrap();
        let set = EditOp::SetAttr { node: w, name: "type".into(), value: "noun".into() };
        s.apply(set).unwrap();
        assert_eq!(s.goddag().attr(w, "type"), Some("noun"));
        s.apply(EditOp::RemoveAttr { node: w, name: "type".into() }).unwrap();
        assert_eq!(s.goddag().attr(w, "type"), None);
        s.undo().unwrap();
        assert_eq!(s.goddag().attr(w, "type"), Some("noun"));
        s.undo().unwrap();
        assert_eq!(s.goddag().attr(w, "type"), None);
        assert_eq!(s.history()[1..3], ["set @type", "remove @type"]);
    }

    #[test]
    fn a_refused_insert_leaves_undo_redo_and_history_alone() {
        let (mut s, h) = bare_session();
        s.insert_markup(h, "w", vec![], 0, 3).unwrap();
        s.insert_markup(h, "w", vec![], 4, 7).unwrap();
        s.undo().unwrap();
        let history = s.history().to_vec();
        assert!(s.insert_markup(h, "1bad", vec![], 4, 7).is_err());
        assert_eq!(s.history(), history, "no history entry for a refused command");
        assert_eq!(s.undo_stack.len(), 1, "no undo entry for a refused command");
        assert!(s.redo().unwrap().contains("insert <w> 4..7"), "the redo stack survives");
    }

    #[test]
    fn insert_markup_refuses_a_hierarchy_it_cannot_name() {
        let mut g = sacx::parse_distributed(&[("a", "<r>swa hwa</r>")]).unwrap();
        let first = g.hierarchy_by_name("a").unwrap();
        let second = g.add_hierarchy("a");
        let mut s = Session::new(g);
        assert!(matches!(s.insert_markup(second, "w", vec![], 0, 3), Err(XTaggerError::Query(_))));
        assert_eq!(s.goddag().element_count(), 0);
        s.insert_markup(first, "w", vec![], 0, 3).unwrap();
    }

    #[test]
    fn refused_commands_leave_undo_redo_and_history_alone() {
        // No DTD, so the crossing insert below reaches the document.
        let (mut s, h) = bare_session();
        s.insert_markup(h, "w", vec![], 0, 3).unwrap();
        s.insert_markup(h, "w", vec![], 4, 7).unwrap();
        s.undo().unwrap();
        let history = s.history().to_vec();
        let before = s.goddag().to_distributed().unwrap();
        let refusals = [
            s.insert_markup(h, "1bad", vec![], 4, 7).unwrap_err(),
            s.apply(EditOp::SetAttr { node: NodeId(1), name: "1x".into(), value: "v".into() })
                .unwrap_err(),
            s.apply(EditOp::InsertText { offset: 1000, text: "x".into() }).unwrap_err(),
            s.apply(EditOp::RemoveElement(NodeId(9999))).unwrap_err(),
        ];
        // Crossing markup fails after the insert has split a leaf.
        let crossing = s.insert_markup(h, "line", vec![], 1, 5).unwrap_err();
        assert!(matches!(crossing, XTaggerError::Goddag(GoddagError::WouldCross { .. })));
        assert!(matches!(refusals[0], XTaggerError::Goddag(_)), "{}", refusals[0]);
        assert_eq!(s.history(), history, "no history entry for a refused command");
        assert_eq!((s.undo_stack.len(), s.redo_stack.len()), (1, 1));
        assert_eq!(s.goddag().to_distributed().unwrap(), before);
        assert!(
            s.redo().unwrap().contains("insert <w> 4..7"),
            "the undone insert is still redoable"
        );
    }

    #[test]
    fn query_inside_session() {
        let (mut s, h) = session();
        s.insert_markup(h, "w", vec![], 0, 3).unwrap();
        s.insert_markup(h, "w", vec![], 4, 7).unwrap();
        let hits = s.query("//w").unwrap();
        assert_eq!(hits.len(), 2);
        assert!(s.query("//w[").is_err());
    }

    #[test]
    fn history_records_commands() {
        let (mut s, h) = session();
        s.insert_markup(h, "w", vec![], 0, 3).unwrap();
        s.undo().unwrap();
        s.redo().unwrap();
        let hist = s.history().join("; ");
        assert!(hist.contains("insert <w>"));
        assert!(hist.contains("undo"));
        assert!(hist.contains("redo"));
    }

    #[test]
    fn remove_markup_and_undo() {
        let (mut s, h) = session();
        let w = s.insert_markup(h, "w", vec![], 0, 3).unwrap();
        s.apply(EditOp::RemoveElement(w)).unwrap();
        assert_eq!(s.history().last().unwrap(), "remove <w>");
        assert_eq!(s.goddag().element_count(), 0);
        s.undo().unwrap();
        assert_eq!(s.goddag().element_count(), 1);
    }

    #[test]
    fn multi_hierarchy_session_overlap() {
        let mut g = sacx::parse_distributed(&[
            ("phys", "<r>swa hwa swe</r>"),
            ("ling", "<r>swa hwa swe</r>"),
        ])
        .unwrap();
        let phys = g.hierarchy_by_name("phys").unwrap();
        let ling = g.hierarchy_by_name("ling").unwrap();
        g.set_dtd(phys, parse_dtd(DTD).unwrap()).unwrap();
        let mut s = Session::new(g);
        s.insert_markup(phys, "line", vec![], 0, 7).unwrap();
        // ling has no DTD: anything structurally legal goes, including an
        // element overlapping the phys line.
        let sent = s.insert_markup(ling, "s", vec![], 4, 11).unwrap();
        let lines = s.query("//s/overlapping::phys:line").unwrap();
        assert_eq!(lines.len(), 1);
        let _ = sent;
    }

    #[test]
    fn export_filtered_from_session() {
        let (mut s, h) = session();
        s.insert_markup(h, "w", vec![], 0, 3).unwrap();
        let docs = s.export_filtered(&[h]).unwrap();
        assert_eq!(docs.len(), 1);
        assert!(docs[0].1.contains("<w>"));
    }
}
