//! The Extended XPath function library: the XPath 1.0 core plus
//! concurrent-markup functions (`hierarchy()`, `overlaps()`, `leaves()`).
//!
//! Functions read strings where they lie — the document's text buffer, its
//! attribute store, the expression's literals — and return slices of their
//! arguments where they can, so a string test allocates nothing.

use crate::error::{Result, XPathError};
use crate::value::{xpath_number, AttrRef, Set, Val};
use goddag::{Goddag, NodeId};
use std::borrow::Cow;
use xmlcore::QName;

/// The context item: a node, or an attribute while a predicate filters an
/// attribute set (`@n[. = '7']`).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Item {
    Node(NodeId),
    Attr(AttrRef),
}

impl Item {
    /// The item's string-value: a node's text or an attribute's value.
    pub(crate) fn string(self, g: &Goddag) -> &str {
        match self {
            Item::Node(n) => g.text(n),
            Item::Attr(a) => a.value(g),
        }
    }

    /// An element's, the root's or an attribute's name.
    fn name(self, g: &Goddag) -> Option<&QName> {
        match self {
            Item::Node(n) => g.name(n),
            Item::Attr(a) => g.attrs(a.element).name(a.index),
        }
    }
}

/// Static context passed to functions needing `position()`/`last()`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EvalCtx {
    /// The context item.
    pub item: Item,
    /// 1-based context position.
    pub position: usize,
    /// Context size.
    pub size: usize,
}

fn bad(function: &str, detail: impl Into<String>) -> XPathError {
    XPathError::BadArguments { function: function.into(), detail: detail.into() }
}

fn arity(function: &str, args: &[Val<'_>], min: usize, max: usize) -> Result<()> {
    if args.len() < min || args.len() > max {
        Err(bad(function, format!("expected {min}..={max} arguments, got {}", args.len())))
    } else {
        Ok(())
    }
}

/// First member of a node-set or attribute-set argument, or the context
/// item when absent.
fn item_arg(function: &str, args: &[Val<'_>], ctx: &EvalCtx) -> Result<Option<Item>> {
    match args.first() {
        None => Ok(Some(ctx.item)),
        Some(Val::Nodes(ns)) => Ok(ns.first().map(Item::Node)),
        Some(Val::Attrs(a)) => Ok(a.first().map(Item::Attr)),
        Some(other) => {
            Err(bad(function, format!("expected a node-set, got {:?}", other.clone().into_value())))
        }
    }
}

/// Argument `i`, moved out of the list.
fn take<'a>(args: &mut [Val<'a>], i: usize) -> Val<'a> {
    std::mem::replace(&mut args[i], Val::Bool(false))
}

/// The first argument as a string, or the context item's string-value
/// when there is none.
fn string_arg<'a>(g: &'a Goddag, args: &mut [Val<'a>], ctx: &EvalCtx) -> Cow<'a, str> {
    if args.is_empty() {
        Cow::Borrowed(ctx.item.string(g))
    } else {
        take(args, 0).into_string(g)
    }
}

/// A byte range of `s`: borrowed stays borrowed.
fn slice(s: Cow<'_, str>, range: std::ops::Range<usize>) -> Cow<'_, str> {
    match s {
        Cow::Borrowed(b) => Cow::Borrowed(&b[range]),
        Cow::Owned(o) => Cow::Owned(o[range].to_string()),
    }
}

/// XPath `round()` (§4.4): the nearest integer, a half towards +∞; NaN,
/// ±∞ and ±0 unchanged, and −0 for arguments in [−0.5, 0).
fn xpath_round(x: f64) -> f64 {
    if !x.is_finite() || x == 0.0 {
        return x;
    }
    if (-0.5..0.0).contains(&x) {
        return -0.0;
    }
    let floor = x.floor();
    if x - floor >= 0.5 {
        floor + 1.0
    } else {
        floor
    }
}

/// XML whitespace-separated tokens (`S`: space, tab, CR, LF).
fn tokens(s: &str) -> impl Iterator<Item = &str> {
    s.split([' ', '\t', '\r', '\n']).filter(|t| !t.is_empty())
}

/// Evaluate a function call with already-evaluated arguments, which it may
/// move out of `args`.
pub(crate) fn call<'a>(
    g: &'a Goddag,
    ctx: &EvalCtx,
    name: &str,
    args: &mut [Val<'a>],
) -> Result<Val<'a>> {
    match name {
        // Context ---------------------------------------------------------
        "position" => {
            arity(name, args, 0, 0)?;
            Ok(Val::Number(ctx.position as f64))
        }
        "last" => {
            arity(name, args, 0, 0)?;
            Ok(Val::Number(ctx.size as f64))
        }
        "count" => {
            arity(name, args, 1, 1)?;
            args[0]
                .count()
                .map(|c| Val::Number(c as f64))
                .ok_or_else(|| bad(name, "expected a node-set"))
        }
        // Conversions -----------------------------------------------------
        "string" => {
            arity(name, args, 0, 1)?;
            Ok(Val::Str(string_arg(g, args, ctx)))
        }
        "number" => {
            arity(name, args, 0, 1)?;
            Ok(Val::Number(match args.first() {
                Some(v) => v.number(g),
                None => xpath_number(ctx.item.string(g)),
            }))
        }
        "boolean" => {
            arity(name, args, 1, 1)?;
            Ok(Val::Bool(args[0].boolean()))
        }
        "not" => {
            arity(name, args, 1, 1)?;
            Ok(Val::Bool(!args[0].boolean()))
        }
        "true" => {
            arity(name, args, 0, 0)?;
            Ok(Val::Bool(true))
        }
        "false" => {
            arity(name, args, 0, 0)?;
            Ok(Val::Bool(false))
        }
        // Names & hierarchy -------------------------------------------------
        "name" => {
            arity(name, args, 0, 1)?;
            let q = item_arg(name, args, ctx)?.and_then(|i| i.name(g));
            Ok(Val::Str(match q {
                Some(q) if q.prefix.is_none() => Cow::Borrowed(&q.local),
                Some(q) => Cow::Owned(q.to_string()),
                None => Cow::Borrowed(""),
            }))
        }
        "local-name" => {
            arity(name, args, 0, 1)?;
            let q = item_arg(name, args, ctx)?.and_then(|i| i.name(g));
            Ok(Val::Str(Cow::Borrowed(q.map_or("", |q| &q.local))))
        }
        "hierarchy" => {
            arity(name, args, 0, 1)?;
            // An attribute belongs to no hierarchy.
            let h = item_arg(name, args, ctx)?
                .and_then(|i| match i {
                    Item::Node(n) => g.hierarchy_of(n),
                    Item::Attr(_) => None,
                })
                .and_then(|h| g.hierarchy(h).ok());
            Ok(Val::Str(Cow::Borrowed(h.map_or("", |h| &h.name))))
        }
        // Strings -----------------------------------------------------------
        "contains" => {
            arity(name, args, 2, 2)?;
            Ok(Val::Bool(args[0].string(g).contains(&*args[1].string(g))))
        }
        "starts-with" => {
            arity(name, args, 2, 2)?;
            Ok(Val::Bool(args[0].string(g).starts_with(&*args[1].string(g))))
        }
        "substring-before" => {
            arity(name, args, 2, 2)?;
            let s = take(args, 0).into_string(g);
            let at = s.find(&*args[1].string(g));
            Ok(Val::Str(at.map_or(Cow::Borrowed(""), |at| slice(s, 0..at))))
        }
        "substring-after" => {
            arity(name, args, 2, 2)?;
            let s = take(args, 0).into_string(g);
            let needle = args[1].string(g);
            let (at, len) = (s.find(&*needle), s.len());
            Ok(Val::Str(at.map_or(Cow::Borrowed(""), |at| slice(s, at + needle.len()..len))))
        }
        "substring" => {
            arity(name, args, 2, 3)?;
            // The characters at 1-based positions p with
            // round(start) <= p < round(start) + round(len), in f64 (§4.2):
            // a NaN bound selects none, infinite ones are fine.
            let start = xpath_round(args[1].number(g));
            let end = args.get(2).map_or(f64::INFINITY, |len| start + xpath_round(len.number(g)));
            let s = take(args, 0).into_string(g);
            let mut range: Option<(usize, usize)> = None;
            for (i, (at, c)) in s.char_indices().enumerate() {
                let p = (i + 1) as f64;
                if p >= start && p < end {
                    range.get_or_insert((at, at)).1 = at + c.len_utf8();
                }
            }
            Ok(Val::Str(range.map_or(Cow::Borrowed(""), |(from, to)| slice(s, from..to))))
        }
        "string-length" => {
            arity(name, args, 0, 1)?;
            Ok(Val::Number(string_arg(g, args, ctx).chars().count() as f64))
        }
        "normalize-space" => {
            arity(name, args, 0, 1)?;
            let s = string_arg(g, args, ctx);
            let normal = s.split(' ').all(|w| !w.is_empty() && !w.contains(char::is_whitespace));
            Ok(Val::Str(if normal {
                s
            } else {
                Cow::Owned(s.split_whitespace().collect::<Vec<_>>().join(" "))
            }))
        }
        "concat" => {
            if args.len() < 2 {
                return Err(bad(name, "needs at least two arguments"));
            }
            Ok(Val::Str(Cow::Owned(args.iter().map(|v| v.string(g)).collect())))
        }
        // Numbers -----------------------------------------------------------
        "floor" => {
            arity(name, args, 1, 1)?;
            Ok(Val::Number(args[0].number(g).floor()))
        }
        "ceiling" => {
            arity(name, args, 1, 1)?;
            Ok(Val::Number(args[0].number(g).ceil()))
        }
        "round" => {
            arity(name, args, 1, 1)?;
            Ok(Val::Number(xpath_round(args[0].number(g))))
        }
        "sum" => {
            arity(name, args, 1, 1)?;
            match &args[0] {
                Val::Nodes(ns) => {
                    Ok(Val::Number(ns.as_slice().iter().map(|&n| xpath_number(g.text(n))).sum()))
                }
                Val::Attrs(attrs) => {
                    Ok(Val::Number(attrs.as_slice().iter().map(|a| xpath_number(a.value(g))).sum()))
                }
                _ => Err(bad(name, "expected a node-set")),
            }
        }
        // Concurrent-markup extensions --------------------------------------
        "overlaps" => {
            arity(name, args, 2, 2)?;
            let (Val::Nodes(a), Val::Nodes(b)) = (&args[0], &args[1]) else {
                return Err(bad(name, "expected two node-sets"));
            };
            let (a, b) = (a.as_slice(), b.as_slice());
            let found = a.iter().any(|&x| b.iter().any(|&y| g.span(x).overlaps(g.span(y))));
            Ok(Val::Bool(found))
        }
        "leaves" => {
            arity(name, args, 0, 1)?;
            let nodes = match (args.first(), &ctx.item) {
                (None, Item::Node(n)) => std::slice::from_ref(n),
                (Some(Val::Nodes(ns)), _) => ns.as_slice(),
                (None, Item::Attr(_)) => return Err(bad(name, "the context item is an attribute")),
                (Some(other), _) => {
                    return Err(bad(
                        name,
                        format!("expected a node-set, got {:?}", other.clone().into_value()),
                    ))
                }
            };
            let mut out: Vec<NodeId> = Vec::new();
            for &n in nodes {
                out.extend_from_slice(g.leaves_of(n));
            }
            g.sort_doc_order(&mut out);
            Ok(Val::Nodes(Set::Many(out)))
        }
        "root" => {
            arity(name, args, 0, 0)?;
            Ok(Val::Nodes(Set::One(g.root())))
        }
        "id" => {
            // §4.1: the argument's string splits into ids; a node-set's
            // members each do, and the result is the union.
            arity(name, args, 1, 1)?;
            let scalar;
            let wanted: Vec<&str> = match &args[0] {
                Val::Nodes(ns) => ns.as_slice().iter().flat_map(|&n| tokens(g.text(n))).collect(),
                Val::Attrs(a) => a.as_slice().iter().flat_map(|a| tokens(a.value(g))).collect(),
                other => {
                    scalar = other.string(g);
                    tokens(&scalar).collect()
                }
            };
            let mut out: Vec<NodeId> = g
                .elements()
                .filter(|&e| {
                    g.attr(e, "id")
                        .or_else(|| g.attr(e, "xml:id"))
                        .is_some_and(|id| wanted.contains(&id))
                })
                .collect();
            g.sort_doc_order(&mut out);
            Ok(Val::Nodes(Set::Many(out)))
        }
        other => Err(XPathError::UnknownFunction(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_follows_xpath() {
        for (x, want) in [
            (2.5, 3.0),
            (2.4, 2.0),
            (-1.5, -1.0),
            (-2.5, -2.0),
            (-2.6, -3.0),
            (0.49999999999999994, 0.0),
            (4503599627370497.0, 4503599627370497.0),
        ] {
            assert_eq!(xpath_round(x), want, "round({x})");
        }
        for x in [-0.5, -0.2, -0.0] {
            let r = xpath_round(x);
            assert!(r == 0.0 && r.is_sign_negative(), "round({x}) = {r}, want -0");
        }
        assert!(xpath_round(0.2).is_sign_positive());
        assert!(xpath_round(f64::NAN).is_nan());
        assert_eq!(xpath_round(f64::NEG_INFINITY), f64::NEG_INFINITY);
    }

    #[test]
    fn slices_stay_borrowed() {
        assert!(matches!(slice(Cow::Borrowed("abc"), 1..2), Cow::Borrowed("b")));
        assert_eq!(slice(Cow::Owned("abc".into()), 1..3), "bc");
        assert_eq!(tokens(" a\tb\r\n c ").collect::<Vec<_>>(), ["a", "b", "c"]);
    }
}
