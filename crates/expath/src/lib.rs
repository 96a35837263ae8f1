//! # expath — Extended XPath over GODDAG
//!
//! The paper's query language (§4, "Querying concurrent XML"): XPath 1.0
//! semantics redefined on the GODDAG data structure, extended with axes for
//! concurrent markup that classic XPath cannot express:
//!
//! | axis | meaning |
//! |------|---------|
//! | `overlapping::` | elements whose span *properly overlaps* the context node's span (the paper's headline feature) |
//! | `containing::` | elements of any hierarchy whose span contains the context's |
//! | `contained::` | elements of any hierarchy inside the context's span |
//! | `co-extensive::` | elements with exactly the same span |
//!
//! Hierarchies are addressed by QName prefixes in node tests (`phys:line`,
//! `ling:*`) and by the `hierarchy()` function.
//!
//! Every step takes its candidates from one axis layer, which appends one
//! origin's nodes on any axis into the step's buffer with the node test
//! applied before any sort; the [`OverlapIndex`] appends the extended axes'
//! hits into that buffer directly.
//!
//! ```
//! use expath::Evaluator;
//! let g = sacx::parse_distributed(&[
//!     ("phys", "<r><line>swa hwa</line> <line>swe nu</line></r>"),
//!     ("ling", "<r>swa <s>hwa swe</s> nu</r>"),
//! ]).unwrap();
//! let ev = Evaluator::with_index(&g);
//! // Which physical lines does the sentence cross?
//! let lines = ev.select("//s/overlapping::phys:line").unwrap();
//! assert_eq!(lines.len(), 2);
//! ```

mod ast;
mod axes;
mod display;
mod error;
mod eval;
mod functions;
mod lexer;
mod overlap_index;
mod parser;
mod value;

pub use ast::{Axis, BinOp, Expr, NodeTest, PathStart, Step};
pub use error::{Result, XPathError};
pub use eval::Evaluator;
pub use overlap_index::{scan_intersecting, OverlapIndex};
pub use parser::parse;
pub use value::{format_number, AttrRef, Value};
