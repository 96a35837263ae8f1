//! # sacx — parsing concurrent XML
//!
//! The SACX parser (Iacob, Dekhtyar & Kaneko, "Parsing Concurrent XML", WIDM
//! 2004) and the representation drivers of the framework (Dekhtyar & Iacob,
//! DKE 52(2), 2005): everything that moves documents between surface XML
//! representations and the GODDAG model.
//!
//! * [`parse_distributed`] / [`export_distributed`] — N documents with the
//!   same content, one per hierarchy (the paper's Figure 1 form).
//! * [`FragmentationDriver`] — single document, overlap resolved by
//!   fragmenting elements with `cx:join` glue (TEI solution 1).
//! * [`MilestoneDriver`] — single document, non-dominant hierarchies
//!   flattened to empty-element pairs (TEI solution 2).
//! * [`StandoffDriver`] — base text + annotation records.
//! * [`merge_events`] / [`SacxHandler`] — the merged SAX-style event stream
//!   for streaming consumers.
//! * [`EditOp`] — the one edit vocabulary every editing layer speaks, with
//!   its text spelling and its one resolve + apply body.
//!
//! ```
//! let g = sacx::parse_distributed(&[
//!     ("phys", "<r><line>swa hwa</line></r>"),
//!     ("ling", "<r>swa <w>hwa</w></r>"),
//! ]).unwrap();
//! assert_eq!(g.hierarchy_count(), 2);
//! ```

// No panics outside tests unless an `#[expect(.., reason = "invariant: ..")]` says why.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::allow_attributes_without_reason
    )
)]

mod distributed;
mod edit;
mod error;
mod event;
mod extract;
mod fragmentation;
mod milestone;
mod prefix;
mod standoff;
pub mod token;

pub mod driver;

pub use distributed::{export_distributed, parse_distributed};
pub use driver::{builtin_drivers, Driver, FragmentationDriver, MilestoneDriver, StandoffDriver};
pub use edit::{EditError, EditOp, EditOutcome, OpKind, Resolved};
pub use error::{Result, SacxError};
pub use event::{drive, merge_events, SacxEvent, SacxHandler};
pub use extract::{extract, ExtractedDoc, ExtractedRange};
pub use fragmentation::{
    count_fragments, export_fragmentation, import_fragmentation, FragmentationOptions, CX_JOIN,
};
pub use milestone::{export_milestone, import_milestone, MilestoneOptions, CX_MID, CX_MS};
pub use standoff::{export_standoff, import_standoff, Annotation, StandoffDoc};
pub use token::{
    crc32, Attrs, Bare, Block, Body, Directives, Escaped, Field, Hex, Line, Lines, Raw, Shape,
    Tokens, Writer,
};
