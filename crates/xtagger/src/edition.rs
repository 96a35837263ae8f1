//! Edition bundles: single-file persistence for a whole multihierarchical
//! edition — document, hierarchies and their DTDs.
//!
//! The paper names persistent storage as work in progress (§1: "Work on
//! building persistent storage solutions is currently underway"); this
//! module provides the file format the rest of the framework needs today: a
//! self-contained text bundle holding the stand-off form of the GODDAG plus
//! every hierarchy's DTD, loadable back into a ready-to-edit [`Session`].
//!
//! ```text
//! #cxml-edition v1
//! dtd phys 123
//! <!ELEMENT r (#PCDATA | line)*>
//! ...
//! standoff 456
//! #cxml-standoff v1
//! ...
//! ```

use crate::error::{Result, XTaggerError};
use crate::session::Session;
use goddag::Goddag;
use sacx::{escape_field, take_line, SacxError, StandoffDoc, Tokens};
use std::fmt::Write as _;

const MAGIC: &str = "#cxml-edition v1";

/// Serialize a document (with its attached DTDs) into a bundle.
pub fn save_edition(g: &Goddag) -> String {
    let mut out = String::new();
    out.push_str(MAGIC);
    out.push('\n');
    for h in g.hierarchy_ids() {
        let hier = g.hierarchy(h).expect("iterating live ids");
        if let Some(dtd) = &hier.dtd {
            let text = dtd.to_text();
            let _ = writeln!(out, "dtd {} {}", escape_field(&hier.name), text.len());
            out.push_str(&text);
            if !text.ends_with('\n') {
                out.push('\n');
            }
        }
    }
    let standoff = StandoffDoc::from_goddag(g).to_text();
    let _ = writeln!(out, "standoff {}", standoff.len());
    out.push_str(&standoff);
    out
}

/// Load a bundle back into a document with DTDs attached.
pub fn load_edition(input: &str) -> Result<Goddag> {
    let mut rest = input;
    let line = take_line(&mut rest).ok_or_else(|| bad("empty input"))?;
    if line.trim() != MAGIC {
        return Err(bad("bad magic line"));
    }
    let mut dtds: Vec<(String, xmlcore::dtd::Dtd)> = Vec::new();
    let mut goddag: Option<Goddag> = None;
    while let Some(line) = take_line(&mut rest) {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut t = Tokens::new(line);
        let directive = t.token("a directive").map_err(bad)?;
        let ctx = |e: String| bad(format!("{directive}: {e}"));
        let name = match directive {
            "dtd" => Some(t.string("a hierarchy name").map_err(ctx)?),
            "standoff" => None,
            other => return Err(bad(format!("unknown directive {other:?}"))),
        };
        let len: usize = t.parse("a byte length").map_err(ctx)?;
        t.finish().map_err(ctx)?;
        let block = take_block(&mut rest, len)?;
        match name {
            Some(name) => {
                let dtd = xmlcore::dtd::parse_dtd(&block)
                    .map_err(|e| bad(format!("DTD for {name:?}: {e}")))?;
                dtds.push((name, dtd));
            }
            None => {
                let doc = StandoffDoc::parse_text(&block).map_err(XTaggerError::Sacx)?;
                goddag = Some(doc.to_goddag().map_err(XTaggerError::Sacx)?);
            }
        }
    }
    let mut g = goddag.ok_or_else(|| bad("bundle has no standoff section"))?;
    for (name, dtd) in dtds {
        let h = g
            .hierarchy_by_name(&name)
            .ok_or_else(|| bad(format!("DTD for unknown hierarchy {name:?}")))?;
        g.set_dtd(h, dtd).map_err(XTaggerError::Goddag)?;
    }
    Ok(g)
}

/// Load a bundle straight into an editing session.
pub fn open_edition(input: &str) -> Result<Session> {
    Ok(Session::new(load_edition(input)?))
}

fn bad(detail: impl Into<String>) -> XTaggerError {
    XTaggerError::Sacx(SacxError::Standoff { line: 0, detail: detail.into() })
}

fn take_block(rest: &mut &str, len: usize) -> Result<String> {
    if rest.len() < len {
        return Err(bad(format!("block length {len} exceeds remaining {}", rest.len())));
    }
    if !rest.is_char_boundary(len) {
        return Err(bad("block length splits a UTF-8 char"));
    }
    let block = rest[..len].to_string();
    *rest = &rest[len..];
    Ok(block)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edition() -> Goddag {
        let mut g = corpus::figure1::goddag();
        corpus::dtds::attach_standard(&mut g);
        for name in ["res", "dmg"] {
            let h = g.hierarchy_by_name(name).unwrap();
            g.set_dtd(h, corpus::dtds::edit()).unwrap();
        }
        g
    }

    #[test]
    fn save_load_roundtrip() {
        let g = edition();
        let bundle = save_edition(&g);
        let g2 = load_edition(&bundle).unwrap();
        assert_eq!(g2.content(), g.content());
        assert_eq!(g2.element_count(), g.element_count());
        assert_eq!(g2.hierarchy_count(), g.hierarchy_count());
        // DTDs came back.
        for h in g2.hierarchy_ids() {
            assert!(g2.hierarchy(h).unwrap().dtd.is_some(), "{h}");
        }
        // And the bundle is stable.
        assert_eq!(save_edition(&g2), bundle);
    }

    #[test]
    fn open_edition_gives_working_session() {
        let bundle = save_edition(&edition());
        let mut session = open_edition(&bundle).unwrap();
        let ling = session.goddag().hierarchy_by_name("ling").unwrap();
        // The prevalidation gate is live (DTDs restored): a two-word span
        // inside the sentence can be wrapped in a <phrase>.
        let sugg = session.suggest(ling, 0, 12);
        assert_eq!(sugg, ["phrase"]);
        // And editing works: an editorial <add> over the first word.
        let edit = session.goddag().hierarchy_by_name("dmg").unwrap();
        session.insert_markup(edit, "add", vec![], 0, 4).unwrap();
    }

    #[test]
    fn document_without_dtds_roundtrips() {
        let g = corpus::figure1::goddag();
        let bundle = save_edition(&g);
        let g2 = load_edition(&bundle).unwrap();
        assert_eq!(g2.element_count(), g.element_count());
        assert!(g2.hierarchy_ids().all(|h| g2.hierarchy(h).unwrap().dtd.is_none()));
    }

    #[test]
    fn bad_bundles_rejected() {
        assert!(load_edition("").is_err());
        assert!(load_edition("not a bundle").is_err());
        assert!(load_edition("#cxml-edition v1\n").is_err()); // no standoff
        assert!(load_edition("#cxml-edition v1\nwat 3\nxxx").is_err());
        assert!(load_edition("#cxml-edition v1\ndtd ghost 10\n<!ELEMENT ").is_err());
    }

    #[test]
    fn hierarchy_names_with_spaces_roundtrip() {
        let mut g = corpus::figure1::goddag();
        let h = g.add_hierarchy("my hier");
        g.set_dtd(h, corpus::dtds::edit()).unwrap();
        let bundle = save_edition(&g);
        assert!(bundle.contains("\ndtd my%20hier "), "{bundle}");
        let g2 = load_edition(&bundle).unwrap();
        let h2 = g2.hierarchy_by_name("my hier").expect("name survives the round trip");
        assert!(g2.hierarchy(h2).unwrap().dtd.is_some());
        assert_eq!(save_edition(&g2), bundle);
    }

    #[test]
    fn trailing_tokens_on_a_directive_rejected() {
        let bundle = save_edition(&corpus::figure1::goddag());
        let doctored = bundle.replacen("\nstandoff ", "\nstandoff 1 ", 1);
        let err = load_edition(&doctored).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
        let dtd = corpus::dtds::phys().to_text();
        let bundle = format!("#cxml-edition v1\ndtd phys {} extra\n{dtd}", dtd.len());
        let err = load_edition(&bundle).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn truncated_block_rejected() {
        let err = load_edition("#cxml-edition v1\nstandoff 9999\nshort").unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn dtd_for_unknown_hierarchy_rejected() {
        let g = corpus::figure1::goddag();
        let standoff = StandoffDoc::from_goddag(&g).to_text();
        let dtd_text = corpus::dtds::phys().to_text();
        let bundle = format!(
            "#cxml-edition v1\ndtd ghost {}\n{}standoff {}\n{}",
            dtd_text.len(),
            dtd_text,
            standoff.len(),
            standoff
        );
        assert!(load_edition(&bundle).is_err());
    }
}
