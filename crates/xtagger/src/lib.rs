//! # xtagger — authoring document-centric concurrent XML
//!
//! The editing layer of the framework (paper §4, *Authoring tools*; Iacob &
//! Dekhtyar, JCDL 2005): an interactive [`Session`] over a GODDAG with
//! selection-based markup insertion, a prevalidation gate powered by the
//! `prevalid` engine, tag suggestions, undo/redo, Extended XPath queries,
//! and hierarchy filtering for partial views/exports. Every edit is a
//! [`sacx::EditOp`], so a recorded session replays as a [`run_script`] of
//! the same lines a WAL record or a `cxq1` frame spells.
//!
//! ```
//! use xtagger::Session;
//! use xmlcore::dtd::parse_dtd;
//!
//! let mut g = sacx::parse_distributed(&[("ling", "<r>swa hwa</r>")]).unwrap();
//! let h = g.hierarchy_by_name("ling").unwrap();
//! g.set_dtd(h, parse_dtd("<!ELEMENT r (#PCDATA | w)*> <!ELEMENT w (#PCDATA)>").unwrap()).unwrap();
//!
//! let mut session = Session::new(g);
//! assert_eq!(session.suggest(h, 0, 3), ["w"]);            // what fits here?
//! session.insert_markup(h, "w", vec![], 0, 3).unwrap();   // tag it
//! assert_eq!(session.query("//w").unwrap().len(), 1);     // query it
//! session.undo().unwrap();                                // change your mind
//! ```

mod commands;
mod edition;
mod error;
mod filter;
mod session;

pub use commands::{run_script, Applied, Command};
pub use edition::{load_edition, open_edition, save_edition, EditionBundle, EditionDtd};
pub use error::{Result, XTaggerError};
pub use filter::{export_filtered, filter_hierarchies};
pub use session::Session;
