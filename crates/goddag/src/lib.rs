//! # goddag — the paper's core data model
//!
//! An implementation of the GODDAG (Generalized Ordered-Descendant Directed
//! Acyclic Graph, Sperberg-McQueen & Huitfeldt 2000) as used by Iacob &
//! Dekhtyar's framework for document-centric XML with overlapping structures
//! (SIGMOD 2005):
//!
//! * one **shared root** and one **shared ordered frontier of text leaves**;
//! * one element **tree per hierarchy** in between — markup from different
//!   hierarchies may overlap freely, markup within a hierarchy must nest;
//! * a **DOM-style API** for navigation (children/parent/siblings/ancestors,
//!   hierarchy-qualified), **editing** (markup insertion/removal, text
//!   edits), span algebra for **overlap queries**, per-hierarchy
//!   **serialization**, and structural **invariant checking**;
//! * one **range builder** ([`GoddagBuilder`]) under every parser, which
//!   can also build straight into a recorded id [`Layout`] — how a durable
//!   store restores a snapshot id-for-id in one pass.
//!
//! Modules: `builder` (ranges → GODDAG, fresh or recorded ids), `graph`
//! (the id records, the element and leaf tables, the content buffer and
//! accessors; its docs describe the layout), `tables` (interned names,
//! out-of-line attributes), `edit` (mutation), `navigate` / `iter`
//! (traversal), `renumber` (span maintenance), `span`, `serialize`,
//! `stats`, [`validate`].
//!
//! ```
//! use goddag::GoddagBuilder;
//! use xmlcore::QName;
//!
//! let mut b = GoddagBuilder::new(QName::parse("r").unwrap());
//! b.content("swa hwa swe");
//! let phys = b.hierarchy("phys");
//! let ling = b.hierarchy("ling");
//! b.range(phys, "line", vec![], 0, 7).unwrap();   // "swa hwa"
//! b.range(ling, "w", vec![], 4, 11).unwrap();     // "hwa swe" — overlaps the line
//! let g = b.finish().unwrap();
//!
//! let line = g.find_elements("line")[0];
//! let w = g.find_elements("w")[0];
//! assert!(g.span(line).overlaps(g.span(w)));      // overlapping markup, one document
//! ```

mod builder;
mod edit;
mod error;
mod graph;
mod ids;
mod iter;
mod navigate;
mod renumber;
mod serialize;
mod span;
mod stats;
mod tables;
pub mod validate;

pub use builder::{GoddagBuilder, Layout, RangeSpec};
pub use error::{GoddagError, Result};
pub use graph::{Goddag, Hierarchy, NodeKind};
pub use ids::{HierarchyId, NodeId};
pub use iter::{HierarchyIter, WalkEvent, WalkIter};
pub use serialize::DotOptions;
pub use span::Span;
pub use stats::GoddagStats;
pub use tables::{Attr, AttrIter, Attrs};
pub use validate::check_invariants;
