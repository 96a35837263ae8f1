//! Element content models: the regular expressions on the right-hand side of
//! `<!ELEMENT>` declarations.

use std::fmt;

/// Occurrence indicator on a content particle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Occurrence {
    /// exactly once (no indicator)
    One,
    /// `?`
    Opt,
    /// `*`
    Star,
    /// `+`
    Plus,
}

impl Occurrence {
    /// The indicator character, if any.
    pub fn suffix(self) -> &'static str {
        match self {
            Occurrence::One => "",
            Occurrence::Opt => "?",
            Occurrence::Star => "*",
            Occurrence::Plus => "+",
        }
    }

    /// Can the particle match the empty sequence purely by occurrence?
    pub fn allows_empty(self) -> bool {
        matches!(self, Occurrence::Opt | Occurrence::Star)
    }

    /// Can the particle repeat?
    pub fn repeats(self) -> bool {
        matches!(self, Occurrence::Star | Occurrence::Plus)
    }
}

/// A content-model expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContentModel {
    /// A child element name.
    Name(String),
    /// `(a, b, c)` — sequence.
    Seq(Vec<ContentModel>),
    /// `(a | b | c)` — choice.
    Choice(Vec<ContentModel>),
    /// A particle with an occurrence indicator.
    Repeat(Box<ContentModel>, Occurrence),
}

impl ContentModel {
    /// Estimated heap bytes this particle owns (names, lists, boxes).
    pub(crate) fn heap_bytes(&self) -> usize {
        match self {
            ContentModel::Name(n) => n.capacity(),
            ContentModel::Seq(items) | ContentModel::Choice(items) => {
                items.capacity() * std::mem::size_of::<ContentModel>()
                    + items.iter().map(ContentModel::heap_bytes).sum::<usize>()
            }
            ContentModel::Repeat(inner, _) => {
                std::mem::size_of::<ContentModel>() + inner.heap_bytes()
            }
        }
    }

    /// Leaf constructor.
    pub fn name(n: impl Into<String>) -> ContentModel {
        ContentModel::Name(n.into())
    }

    /// `m?`
    pub fn opt(self) -> ContentModel {
        ContentModel::Repeat(Box::new(self), Occurrence::Opt)
    }

    /// `m*`
    pub fn star(self) -> ContentModel {
        ContentModel::Repeat(Box::new(self), Occurrence::Star)
    }

    /// `m+`
    pub fn plus(self) -> ContentModel {
        ContentModel::Repeat(Box::new(self), Occurrence::Plus)
    }

    /// `(a, b, ...)`
    pub fn seq(items: impl IntoIterator<Item = ContentModel>) -> ContentModel {
        ContentModel::Seq(items.into_iter().collect())
    }

    /// `(a | b | ...)`
    pub fn choice(items: impl IntoIterator<Item = ContentModel>) -> ContentModel {
        ContentModel::Choice(items.into_iter().collect())
    }

    /// Does this model mention `name` anywhere?
    pub fn mentions(&self, name: &str) -> bool {
        match self {
            ContentModel::Name(n) => n == name,
            ContentModel::Seq(items) | ContentModel::Choice(items) => {
                items.iter().any(|m| m.mentions(name))
            }
            ContentModel::Repeat(inner, _) => inner.mentions(name),
        }
    }

    /// Can this model match the empty sequence?
    pub fn nullable(&self) -> bool {
        match self {
            ContentModel::Name(_) => false,
            ContentModel::Seq(items) => items.iter().all(ContentModel::nullable),
            ContentModel::Choice(items) => items.iter().any(ContentModel::nullable),
            ContentModel::Repeat(inner, occ) => occ.allows_empty() || inner.nullable(),
        }
    }

    /// All distinct element names mentioned (in first-mention order).
    pub fn alphabet(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_names(&mut out);
        out
    }

    fn collect_names(&self, out: &mut Vec<String>) {
        match self {
            ContentModel::Name(n) => {
                if !out.iter().any(|x| x == n) {
                    out.push(n.clone());
                }
            }
            ContentModel::Seq(items) | ContentModel::Choice(items) => {
                for m in items {
                    m.collect_names(out);
                }
            }
            ContentModel::Repeat(inner, _) => inner.collect_names(out),
        }
    }
}

impl fmt::Display for ContentModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContentModel::Name(n) => f.write_str(n),
            ContentModel::Seq(items) => {
                f.write_str("(")?;
                for (i, m) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{m}")?;
                }
                f.write_str(")")
            }
            ContentModel::Choice(items) => {
                f.write_str("(")?;
                for (i, m) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(" | ")?;
                    }
                    write!(f, "{m}")?;
                }
                f.write_str(")")
            }
            ContentModel::Repeat(inner, occ) => {
                match **inner {
                    ContentModel::Name(_) | ContentModel::Seq(_) | ContentModel::Choice(_) => {
                        write!(f, "{inner}{}", occ.suffix())
                    }
                    // Nested repeats need grouping parens.
                    ContentModel::Repeat(..) => write!(f, "({inner}){}", occ.suffix()),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model_lines() -> ContentModel {
        // (page, (line | break)+, colophon?)
        ContentModel::seq([
            ContentModel::name("page"),
            ContentModel::choice([ContentModel::name("line"), ContentModel::name("break")]).plus(),
            ContentModel::name("colophon").opt(),
        ])
    }

    #[test]
    fn display_roundtrips_shape() {
        assert_eq!(model_lines().to_string(), "(page, (line | break)+, colophon?)");
    }

    #[test]
    fn nullable_rules() {
        assert!(!ContentModel::name("a").nullable());
        assert!(ContentModel::name("a").star().nullable());
        assert!(ContentModel::name("a").opt().nullable());
        assert!(!ContentModel::name("a").plus().nullable());
        assert!(ContentModel::seq([ContentModel::name("a").opt()]).nullable());
        assert!(!model_lines().nullable());
        assert!(ContentModel::choice([ContentModel::name("a"), ContentModel::name("b").star()])
            .nullable());
    }

    #[test]
    fn alphabet_dedups_in_order() {
        let m = ContentModel::seq([
            ContentModel::name("a"),
            ContentModel::name("b"),
            ContentModel::name("a"),
        ]);
        assert_eq!(m.alphabet(), ["a", "b"]);
    }

    #[test]
    fn mentions_nested() {
        assert!(model_lines().mentions("break"));
        assert!(!model_lines().mentions("verse"));
    }
}
