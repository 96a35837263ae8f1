//! # xmlcore — the XML substrate
//!
//! A self-contained XML toolchain built from scratch for the concurrent-XML
//! framework (Iacob & Dekhtyar, SIGMOD 2005): pull parsing with full
//! well-formedness checking, escaping, serialization, a classic DOM (the
//! baseline data structure the GODDAG generalizes), and a DTD engine with
//! Glushkov content-model automata (shared with validation and
//! prevalidation).
//!
//! ## Quick tour
//!
//! ```
//! use xmlcore::{Reader, Event, dom::Document, dtd};
//!
//! // Pull parsing
//! let mut reader = Reader::new("<r><w>swa</w></r>");
//! while let Ok(ev) = reader.next_event() {
//!     if matches!(ev, Event::Eof) { break; }
//! }
//!
//! // DOM + DTD validation
//! let dtd = dtd::parse_dtd("<!ELEMENT r (w+)> <!ELEMENT w (#PCDATA)>").unwrap();
//! let doc = Document::parse("<r><w>swa</w></r>").unwrap();
//! assert!(dtd::validate_document(&dtd, &doc).unwrap().is_valid());
//! ```

pub mod dom;
pub mod dtd;
pub mod error;
pub mod escape;
pub mod event;
pub mod name;
pub mod num;
pub mod reader;
pub mod writer;

pub use error::{Pos, Result, XmlError};
pub use event::{AttrLike, Attribute, Event};
pub use name::QName;
pub use reader::{parse_events, Reader};
pub use writer::{Indent, Writer};
