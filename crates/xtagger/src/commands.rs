//! A replayable command layer over [`Session`].
//!
//! The EPT demo (paper Figure 4) drives the editor through recorded
//! interactions; this module gives the library the same capability: commands
//! are plain data (parsable from a simple text syntax), applied to a
//! session, and loggable for replay — which is also how the editing benches
//! and the `xtagger_session` example stay reproducible.
//!
//! Text syntax, one command per line:
//!
//! ```text
//! insert ling w 0 3 n=1 type=noun
//! remove #12
//! attr #12 type=verb
//! text-insert 7 "swa "
//! text-delete 0 4
//! undo
//! redo
//! ```
//!
//! Only `insert` takes a variable number of tokens (its `name=value`
//! attributes); any other command followed by a further token is refused.

use crate::error::{Result, XTaggerError};
use crate::session::Session;
use goddag::NodeId;
use xmlcore::Attribute;

/// One editor command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Insert `<tag>` over `start..end` in the named hierarchy.
    InsertMarkup {
        /// Hierarchy name.
        hierarchy: String,
        /// Element tag.
        tag: String,
        /// Attributes.
        attrs: Vec<(String, String)>,
        /// Byte start.
        start: usize,
        /// Byte end.
        end: usize,
    },
    /// Remove the element with this node id.
    RemoveMarkup {
        /// Arena id of the element.
        node: u32,
    },
    /// Set an attribute on a node.
    SetAttr {
        /// Arena id.
        node: u32,
        /// Attribute name.
        name: String,
        /// Attribute value.
        value: String,
    },
    /// Insert text at an offset.
    InsertText {
        /// Byte offset.
        offset: usize,
        /// The text.
        text: String,
    },
    /// Delete a text range.
    DeleteText {
        /// Byte start.
        start: usize,
        /// Byte end.
        end: usize,
    },
    /// Undo the last command.
    Undo,
    /// Redo the last undone command.
    Redo,
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
    pub fn apply(&self, session: &mut Session) -> Result<Applied> {
        match self {
            Command::InsertMarkup { hierarchy, tag, attrs, start, end } => {
                let h = session.goddag().hierarchy_by_name(hierarchy).ok_or_else(|| {
                    XTaggerError::Query(format!("unknown hierarchy {hierarchy:?}"))
                })?;
                let attrs: Vec<Attribute> =
                    attrs.iter().map(|(n, v)| Attribute::new(n.as_str(), v.clone())).collect();
                session.insert_markup(h, tag, attrs, *start, *end).map(Applied::Inserted)
            }
            Command::RemoveMarkup { node } => {
                session.remove_markup(NodeId(*node)).map(|()| Applied::Done)
            }
            Command::SetAttr { node, name, value } => {
                session.set_attribute(NodeId(*node), name, value).map(|()| Applied::Done)
            }
            Command::InsertText { offset, text } => {
                session.insert_text(*offset, text).map(|()| Applied::Done)
            }
            Command::DeleteText { start, end } => {
                session.delete_text(*start, *end).map(|()| Applied::Done)
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
        let mut parts = Tokenizer::new(line);
        let head = parts.word()?;
        let cmd = match head.as_str() {
            "insert" => {
                let hierarchy = parts.word()?;
                let tag = parts.word()?;
                let start = parts.number()?;
                let end = parts.number()?;
                let mut attrs = Vec::new();
                while let Some(kv) = parts.maybe_word() {
                    let (k, v) = kv.split_once('=').ok_or_else(|| {
                        XTaggerError::Query(format!("bad attribute {kv:?} (want name=value)"))
                    })?;
                    attrs.push((k.to_string(), v.to_string()));
                }
                Command::InsertMarkup { hierarchy, tag, attrs, start, end }
            }
            "remove" => Command::RemoveMarkup { node: parts.node_id()? },
            "attr" => {
                let node = parts.node_id()?;
                let kv = parts.word()?;
                let (k, v) = kv.split_once('=').ok_or_else(|| {
                    XTaggerError::Query(format!("bad attribute {kv:?} (want name=value)"))
                })?;
                Command::SetAttr { node, name: k.to_string(), value: v.to_string() }
            }
            "text-insert" => {
                let offset = parts.number()?;
                let text = parts.quoted()?;
                Command::InsertText { offset, text }
            }
            "text-delete" => {
                let start = parts.number()?;
                let end = parts.number()?;
                Command::DeleteText { start, end }
            }
            "undo" => Command::Undo,
            "redo" => Command::Redo,
            other => {
                return Err(XTaggerError::Query(format!("unknown command {other:?}")));
            }
        };
        if let Some(extra) = parts.maybe_word() {
            return Err(XTaggerError::Query(format!("unexpected trailing token {extra:?}")));
        }
        Ok(Some(cmd))
    }
}

/// Parse and apply a whole script; returns one [`Applied`] per command.
/// Stops at the first error, reporting the line number.
pub fn run_script(session: &mut Session, script: &str) -> Result<Vec<Applied>> {
    let mut out = Vec::new();
    for (no, line) in script.lines().enumerate() {
        match Command::parse(line) {
            Ok(None) => continue,
            Ok(Some(cmd)) => match cmd.apply(session) {
                Ok(applied) => out.push(applied),
                Err(e) => {
                    return Err(XTaggerError::Query(format!("line {}: {e}", no + 1)));
                }
            },
            Err(e) => return Err(XTaggerError::Query(format!("line {}: {e}", no + 1))),
        }
    }
    Ok(out)
}

/// Minimal whitespace tokenizer with quoted-string support.
struct Tokenizer<'a> {
    rest: &'a str,
}

impl<'a> Tokenizer<'a> {
    fn new(s: &'a str) -> Tokenizer<'a> {
        Tokenizer { rest: s.trim() }
    }

    fn maybe_word(&mut self) -> Option<String> {
        self.rest = self.rest.trim_start();
        if self.rest.is_empty() {
            return None;
        }
        let end = self.rest.find(char::is_whitespace).unwrap_or(self.rest.len());
        let w = self.rest[..end].to_string();
        self.rest = &self.rest[end..];
        Some(w)
    }

    fn word(&mut self) -> Result<String> {
        self.maybe_word().ok_or_else(|| XTaggerError::Query("unexpected end of command".into()))
    }

    fn number(&mut self) -> Result<usize> {
        let w = self.word()?;
        w.parse().map_err(|_| XTaggerError::Query(format!("expected a number, found {w:?}")))
    }

    fn node_id(&mut self) -> Result<u32> {
        let w = self.word()?;
        let w = w.strip_prefix('#').unwrap_or(&w);
        w.parse().map_err(|_| XTaggerError::Query(format!("expected a node id, found {w:?}")))
    }

    fn quoted(&mut self) -> Result<String> {
        self.rest = self.rest.trim_start();
        let Some(stripped) = self.rest.strip_prefix('"') else {
            return self.word();
        };
        let end = stripped
            .find('"')
            .ok_or_else(|| XTaggerError::Query("unterminated quoted string".into()))?;
        let s = stripped[..end].to_string();
        self.rest = &stripped[end + 1..];
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let cmd = Command::parse("insert ling w 0 3 n=1 type=noun").unwrap().unwrap();
        assert_eq!(
            cmd,
            Command::InsertMarkup {
                hierarchy: "ling".into(),
                tag: "w".into(),
                attrs: vec![("n".into(), "1".into()), ("type".into(), "noun".into())],
                start: 0,
                end: 3,
            }
        );
    }

    #[test]
    fn parse_all_forms() {
        assert!(matches!(
            Command::parse("remove #5").unwrap().unwrap(),
            Command::RemoveMarkup { node: 5 }
        ));
        assert!(matches!(
            Command::parse("attr #5 type=verb").unwrap().unwrap(),
            Command::SetAttr { node: 5, .. }
        ));
        assert_eq!(
            Command::parse("text-insert 7 \"swa \"").unwrap().unwrap(),
            Command::InsertText { offset: 7, text: "swa ".into() }
        );
        assert!(matches!(
            Command::parse("text-delete 0 4").unwrap().unwrap(),
            Command::DeleteText { start: 0, end: 4 }
        ));
        assert_eq!(Command::parse("undo").unwrap().unwrap(), Command::Undo);
        assert_eq!(Command::parse("redo").unwrap().unwrap(), Command::Redo);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        assert_eq!(Command::parse("").unwrap(), None);
        assert_eq!(Command::parse("  # note").unwrap(), None);
    }

    #[test]
    fn parse_errors() {
        assert!(Command::parse("frobnicate 1").is_err());
        assert!(Command::parse("insert ling w zero 3").is_err());
        assert!(Command::parse("attr #5 incomplete").is_err());
        assert!(Command::parse("text-insert 7 \"open").is_err());
        // Trailing tokens are refused, not dropped.
        for line in [
            "remove #12 #13",
            "text-insert 7 swa tail",
            "text-insert 7 \"swa\" tail",
            "attr #12 type=verb n=2",
            "text-delete 0 4 9",
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
            insert ling w 0 3 n=1
            insert ling w 4 7 n=2
            insert phys line 0 7
            insert ling s 0 11
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
        let err = run_script(&mut s, "insert ling w 0 3\ninsert nowhere x 0 3").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn replay_through_commands_matches_direct_api() {
        let mut via_script = session();
        run_script(&mut via_script, "insert ling w 0 3 n=1\ninsert phys line 0 7").unwrap();

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
        let applied = run_script(&mut s, "insert ling w 0 3").unwrap();
        let Applied::Inserted(id) = applied[0] else { panic!() };
        run_script(&mut s, &format!("attr #{} type=verb", id.0)).unwrap();
        assert_eq!(s.goddag().attr(id, "type"), Some("verb"));
        run_script(&mut s, &format!("remove #{}", id.0)).unwrap();
        assert!(!s.goddag().is_alive(id));
    }

    #[test]
    fn text_commands() {
        let mut s = session();
        run_script(&mut s, "text-insert 3 \"!\"\ntext-delete 0 2").unwrap();
        assert_eq!(s.goddag().content(), "a! hwa swe");
    }
}
