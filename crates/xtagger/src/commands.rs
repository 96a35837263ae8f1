//! A replayable command layer over [`Session`], declared once as a
//! [`sacx::line!`].
//!
//! The EPT demo (paper Figure 4) drives the editor through recorded
//! interactions; this module gives the library the same capability: a
//! script is one command per line, applied to a session in order. An edit
//! is written in the one edit spelling ([`EditOp`]'s declaration) — the
//! bytes a WAL record or a `cxq1` frame carries — and `undo` / `redo` step
//! through the session's history:
//!
//! ```text
//! # tag the first word
//! insel ling w 0 3 n=1 type=noun
//! setattr 12 type verb
//! rmattr 12 n
//! rmel 12
//! instext 7 swa%20
//! deltext 0 4
//! undo
//! redo
//! ```
//!
//! Strings are percent-escaped (`swa%20` is `"swa "`, a lone `%` the empty
//! string). Blank lines and `#` comments are skipped; a token after the end
//! of a command is refused.

use crate::error::{Result, XTaggerError};
use crate::session::Session;
use goddag::NodeId;
use sacx::{EditOp, Line};

sacx::line! {
    /// One editor command.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Command: CommandKind("command") {
        /// Undo the last command.
        Undo = "undo",
        /// Redo the last undone command.
        Redo = "redo",
    } else
    /// Apply an edit through [`Session::apply`].
    Edit(op: EditOp)
}

/// Outcome of applying one command.
#[derive(Debug, Clone, PartialEq)]
pub enum Applied {
    /// A new element was created.
    Inserted(NodeId),
    /// Nothing to report.
    Done,
    /// Undo/redo replayed this label.
    History(String),
}

impl Command {
    /// Apply the command to a session.
    pub fn apply(self, session: &mut Session) -> Result<Applied> {
        match self {
            Command::Edit(op) => {
                session.apply(op).map(|out| out.node.map_or(Applied::Done, Applied::Inserted))
            }
            Command::Undo => session.undo().map(Applied::History),
            Command::Redo => session.redo().map(Applied::History),
        }
    }

    /// Parse one command line (see module docs for the syntax). Empty lines
    /// and `#`-comments yield `None`.
    pub fn parse(line: &str) -> Result<Option<Command>> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        Command::decode(line.as_bytes()).map(Some).map_err(XTaggerError::Query)
    }
}

/// Parse and apply a whole script; returns one [`Applied`] per command.
/// Stops at the first error, reporting the line number.
pub fn run_script(session: &mut Session, script: &str) -> Result<Vec<Applied>> {
    let mut out = Vec::new();
    for (no, line) in script.lines().enumerate() {
        let applied = match Command::parse(line) {
            Ok(None) => continue,
            Ok(Some(cmd)) => cmd.apply(session),
            Err(e) => Err(e),
        };
        out.push(applied.map_err(|e| XTaggerError::Query(format!("line {}: {e}", no + 1)))?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlcore::Attribute;

    fn session() -> Session {
        let g = sacx::parse_distributed(&[
            ("phys", "<r>swa hwa swe</r>"),
            ("ling", "<r>swa hwa swe</r>"),
        ])
        .unwrap();
        Session::new(g)
    }

    #[test]
    fn parse_insert_with_attrs() {
        let cmd = Command::parse("insel ling w 0 3 n=1 type=noun").unwrap().unwrap();
        assert_eq!(
            cmd,
            Command::Edit(EditOp::InsertElement {
                hierarchy: "ling".into(),
                tag: "w".into(),
                attrs: vec![("n".into(), "1".into()), ("type".into(), "noun".into())],
                start: 0,
                end: 3,
            })
        );
    }

    #[test]
    fn parse_all_forms() {
        let edit = |line: &str| match Command::parse(line).unwrap().unwrap() {
            Command::Edit(op) => op,
            other => panic!("{line:?} parsed as {other:?}"),
        };
        assert_eq!(edit("rmel 5"), EditOp::RemoveElement(NodeId(5)));
        assert_eq!(
            edit("setattr 5 type verb"),
            EditOp::SetAttr { node: NodeId(5), name: "type".into(), value: "verb".into() }
        );
        assert_eq!(
            edit("rmattr 5 type"),
            EditOp::RemoveAttr { node: NodeId(5), name: "type".into() }
        );
        assert_eq!(edit("instext 7 swa%20"), EditOp::InsertText { offset: 7, text: "swa ".into() });
        assert_eq!(edit("deltext 0 4"), EditOp::DeleteText { start: 0, end: 4 });
        assert_eq!(Command::parse("undo").unwrap().unwrap(), Command::Undo);
        assert_eq!(Command::parse("redo").unwrap().unwrap(), Command::Redo);
    }

    #[test]
    fn every_edit_reads_back_from_its_spelling() {
        let ops = [
            EditOp::InsertElement {
                hierarchy: "ling".into(),
                tag: "w".into(),
                attrs: vec![("n".into(), "two words".into())],
                start: 0,
                end: 3,
            },
            EditOp::RemoveElement(NodeId(9)),
            EditOp::InsertText { offset: 1, text: "# not a comment".into() },
            EditOp::DeleteText { start: 2, end: 4 },
            EditOp::SetAttr { node: NodeId(3), name: "n".into(), value: String::new() },
            EditOp::RemoveAttr { node: NodeId(3), name: "n".into() },
        ];
        for op in ops {
            let line = String::from_utf8(sacx::Line::encode(&op)).unwrap();
            assert_eq!(Command::parse(&line).unwrap(), Some(Command::Edit(op)), "{line:?}");
        }
    }

    #[test]
    fn comments_and_blanks_skipped() {
        assert_eq!(Command::parse("").unwrap(), None);
        assert_eq!(Command::parse("  # note").unwrap(), None);
    }

    #[test]
    fn parse_errors() {
        assert!(Command::parse("frobnicate 1").is_err());
        assert!(Command::parse("insel ling w zero 3").is_err());
        assert!(Command::parse("setattr 5 incomplete").is_err());
        assert!(Command::parse("instext 7 %zz").is_err());
        // The spelling a session script used to have is refused.
        assert!(Command::parse("insert ling w 0 3").is_err());
        // Trailing tokens are refused, not dropped.
        for line in [
            "rmel 12 13",
            "instext 7 swa tail",
            "setattr 12 type verb n",
            "deltext 0 4 9",
            "undo 3",
            "redo now",
        ] {
            assert!(Command::parse(line).is_err(), "{line:?} parsed");
        }
    }

    #[test]
    fn script_runs_and_edits() {
        let mut s = session();
        let script = r#"
            # tag the first two words
            insel ling w 0 3 n=1
            insel ling w 4 7 n=2
            insel phys line 0 7
            insel ling s 0 11
            undo
        "#;
        let applied = run_script(&mut s, script).unwrap();
        assert_eq!(applied.len(), 5);
        assert!(matches!(applied[0], Applied::Inserted(_)));
        assert!(matches!(applied[4], Applied::History(_)));
        assert_eq!(s.goddag().find_elements("w").len(), 2);
        assert_eq!(s.goddag().find_elements("s").len(), 0); // undone
        assert_eq!(s.goddag().find_elements("line").len(), 1);
    }

    #[test]
    fn script_error_reports_line() {
        let mut s = session();
        let err = run_script(&mut s, "insel ling w 0 3\ninsel nowhere x 0 3").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = run_script(&mut s, "\n\nfrobnicate").unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn replay_through_commands_matches_direct_api() {
        let mut via_script = session();
        run_script(&mut via_script, "insel ling w 0 3 n=1\ninsel phys line 0 7").unwrap();

        let mut direct = session();
        let ling = direct.goddag().hierarchy_by_name("ling").unwrap();
        let phys = direct.goddag().hierarchy_by_name("phys").unwrap();
        direct.insert_markup(ling, "w", vec![Attribute::new("n", "1")], 0, 3).unwrap();
        direct.insert_markup(phys, "line", vec![], 0, 7).unwrap();

        assert_eq!(
            via_script.goddag().to_distributed().unwrap(),
            direct.goddag().to_distributed().unwrap()
        );
    }

    #[test]
    fn remove_and_attr_by_node_id() {
        let mut s = session();
        let applied = run_script(&mut s, "insel ling w 0 3").unwrap();
        let Applied::Inserted(id) = applied[0] else { panic!() };
        run_script(&mut s, &format!("setattr {} type verb", id.0)).unwrap();
        assert_eq!(s.goddag().attr(id, "type"), Some("verb"));
        run_script(&mut s, &format!("rmattr {} type", id.0)).unwrap();
        assert_eq!(s.goddag().attr(id, "type"), None);
        run_script(&mut s, &format!("rmel {}", id.0)).unwrap();
        assert!(!s.goddag().is_alive(id));
    }

    #[test]
    fn text_commands() {
        let mut s = session();
        run_script(&mut s, "instext 3 !\ndeltext 0 2").unwrap();
        assert_eq!(s.goddag().content(), "a! hwa swe");
    }
}
