//! The rule engine: each rule is a function from [`Workspace`] to
//! findings. Shared token-scanning helpers live here.

use crate::lexer::{Tok, Token};

pub mod lock_order;
pub mod panics;
pub mod poison;

/// True when token `i` is the identifier `name`.
pub(crate) fn is_ident(t: &[Token], i: usize, name: &str) -> bool {
    matches!(t.get(i).map(|x| &x.tok), Some(Tok::Ident(s)) if s == name)
}

/// True when token `i` is the punct `c`.
pub(crate) fn is_punct(t: &[Token], i: usize, c: char) -> bool {
    matches!(t.get(i).map(|x| &x.tok), Some(Tok::Punct(p)) if *p == c)
}
