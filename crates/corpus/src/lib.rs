//! # corpus — workloads for the reproduction
//!
//! The paper demonstrates on an image-based electronic edition of the
//! 10th-century Old English Boethius manuscript (BL MS Cotton Otho A. vi),
//! which we cannot ship. This crate provides the substitute:
//!
//! * [`manuscript::generate`] — a parameterized synthetic manuscript with
//!   the paper's exact feature classes (pages/lines, sentences/words,
//!   damages/restorations) and controlled size, hierarchy count and overlap
//!   density;
//! * [`figure1`] — a pinned reconstruction of the paper's Figure 1 fragment
//!   (four conflicting encodings of one piece of Old English);
//! * [`dtds`] — hierarchy DTDs standing in for the TEI P4 schemas, and
//!   random small DTDs and randomly edited manuscripts for the validity
//!   properties;
//! * [`gen`] — the seeded, shrinking generator behind every randomised
//!   test in the workspace (`gen::check`, `gen::replay`).

pub mod dtds;
pub mod figure1;
pub mod gen;
pub mod manuscript;
pub mod text;

pub use manuscript::{bare_host, generate, mixed_host, Manuscript, Params};
