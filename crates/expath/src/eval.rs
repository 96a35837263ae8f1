//! The Extended XPath evaluator.

use crate::ast::{Axis, BinOp, Expr, NodeTest, PathStart, Step};
use crate::axes::axis_candidates;
use crate::error::{Result, XPathError};
use crate::functions::{attrs_of, call, EvalCtx};
use crate::overlap_index::OverlapIndex;
use crate::parser::parse;
use crate::value::{AttrRef, Value};
use goddag::{Goddag, HierarchyId, NodeId};
use std::sync::Arc;

/// An Extended XPath evaluator bound to one GODDAG document.
///
/// ```
/// use goddag::GoddagBuilder;
/// use expath::Evaluator;
/// use xmlcore::QName;
///
/// let mut b = GoddagBuilder::new(QName::parse("r").unwrap());
/// b.content("swa hwa");
/// let phys = b.hierarchy("phys");
/// let ling = b.hierarchy("ling");
/// b.range(phys, "line", vec![], 0, 5).unwrap();
/// b.range(ling, "w", vec![], 4, 7).unwrap();
/// let g = b.finish().unwrap();
///
/// let ev = Evaluator::new(&g);
/// let hits = ev.select("//line/overlapping::ling:w").unwrap();
/// assert_eq!(hits.len(), 1);
/// ```
///
/// Two step rewrites run at evaluation time; the AST keeps what was
/// written:
///
/// * `descendant-or-self::node()/child::T[p…]` (what `//T[p…]` parses to)
///   evaluates as the single step `descendant::T[p…]` when `T` is an
///   element test or `text()` and every predicate is *position-free*: it
///   calls neither `position()` nor `last()` anywhere, and its static type
///   is not a number (number literals, unary minus, arithmetic,
///   `count`/`sum`/`number`/`string-length`/`floor`/`ceiling`/`round` and
///   unknown functions are numbers). So `//w[@n='2']` fuses while `//w[2]`,
///   `//w[last()]` and `//w[position()=2]` keep the per-parent semantics.
///   From the root, `descendant::T` enumerates the live elements (or takes
///   the leaves for `text()`) and sorts only the matches.
/// * `self::node()` without predicates (`.`) returns its input: every node
///   set here is already sorted and deduplicated.
pub struct Evaluator<'g> {
    g: &'g Goddag,
    index: Option<Arc<OverlapIndex>>,
}

impl<'g> Evaluator<'g> {
    /// Evaluator without an overlap index (extended axes use linear scans).
    pub fn new(g: &'g Goddag) -> Evaluator<'g> {
        Evaluator { g, index: None }
    }

    /// Evaluator that builds a fresh overlap index for `g` (extended axes in
    /// `O(log n + k)`). When querying the same unmodified document more than
    /// once, build the index once and share it via
    /// [`Evaluator::with_shared_index`] instead — the build is `O(n log n)`
    /// and dominates cheap queries.
    pub fn with_index(g: &'g Goddag) -> Evaluator<'g> {
        Evaluator { g, index: Some(Arc::new(OverlapIndex::build(g))) }
    }

    /// Evaluator reusing a prebuilt overlap index. The caller is responsible
    /// for the index actually describing `g` at its current edit epoch
    /// (`cxstore` tracks this via [`goddag::Goddag::edit_epoch`]); a stale
    /// index yields stale extended-axis results, never memory unsafety.
    pub fn with_shared_index(g: &'g Goddag, index: Arc<OverlapIndex>) -> Evaluator<'g> {
        Evaluator { g, index: Some(index) }
    }

    /// The document being queried.
    pub fn goddag(&self) -> &'g Goddag {
        self.g
    }

    /// Whether an overlap index is active.
    pub fn has_index(&self) -> bool {
        self.index.is_some()
    }

    /// The active overlap index, if any (shareable).
    pub fn index(&self) -> Option<&Arc<OverlapIndex>> {
        self.index.as_ref()
    }

    /// Evaluate an expression string with the root as context node.
    pub fn eval_str(&self, expr: &str) -> Result<Value> {
        let ast = parse(expr)?;
        self.evaluate(&ast, self.g.root())
    }

    /// Evaluate a parsed expression from a given context node.
    pub fn evaluate(&self, expr: &Expr, context: NodeId) -> Result<Value> {
        let ctx = EvalCtx { node: context, position: 1, size: 1 };
        self.eval(expr, &ctx)
    }

    /// Evaluate an expression string and require a node-set result.
    pub fn select(&self, expr: &str) -> Result<Vec<NodeId>> {
        match self.eval_str(expr)? {
            Value::Nodes(ns) => Ok(ns),
            other => {
                Err(XPathError::Eval(format!("expression returned {other:?}, expected a node-set")))
            }
        }
    }

    /// Evaluate from an explicit context node, requiring a node-set.
    pub fn select_from(&self, expr: &str, context: NodeId) -> Result<Vec<NodeId>> {
        let ast = parse(expr)?;
        match self.evaluate(&ast, context)? {
            Value::Nodes(ns) => Ok(ns),
            other => {
                Err(XPathError::Eval(format!("expression returned {other:?}, expected a node-set")))
            }
        }
    }

    // ---------------------------------------------------------------------

    fn eval(&self, expr: &Expr, ctx: &EvalCtx) -> Result<Value> {
        match expr {
            Expr::Number(n) => Ok(Value::Number(*n)),
            Expr::Literal(s) => Ok(Value::Str(s.clone())),
            Expr::Neg(inner) => {
                let v = self.eval(inner, ctx)?;
                Ok(Value::Number(-v.number_value(self.g)))
            }
            Expr::Bin(op, lhs, rhs) => self.eval_bin(*op, lhs, rhs, ctx),
            Expr::Union(lhs, rhs) => {
                let a = self.eval(lhs, ctx)?;
                let b = self.eval(rhs, ctx)?;
                match (a, b) {
                    (Value::Nodes(mut x), Value::Nodes(y)) => {
                        x.extend(y);
                        self.g.sort_doc_order(&mut x);
                        Ok(Value::Nodes(x))
                    }
                    (Value::Attrs(mut x), Value::Attrs(y)) => {
                        x.extend(y);
                        Ok(Value::Attrs(x))
                    }
                    (a, b) => Err(XPathError::Eval(format!(
                        "union requires two node-sets, got {a:?} | {b:?}"
                    ))),
                }
            }
            Expr::Call { name, args } => {
                let mut evaluated = Vec::with_capacity(args.len());
                for a in args {
                    evaluated.push(self.eval(a, ctx)?);
                }
                call(self.g, ctx, name, evaluated)
            }
            Expr::Path { start, steps } => {
                let origin = match start {
                    PathStart::Root => self.g.root(),
                    PathStart::Context => ctx.node,
                };
                self.eval_steps(vec![origin], steps)
            }
            Expr::Filter { primary, predicates, steps } => {
                let base = self.eval(primary, ctx)?;
                match base {
                    Value::Nodes(nodes) => {
                        let mut filtered = nodes;
                        for pred in predicates {
                            filtered = self.filter_nodes(filtered, pred)?;
                        }
                        self.eval_steps(filtered, steps)
                    }
                    Value::Attrs(attrs) if steps.is_empty() => {
                        let mut filtered = attrs;
                        for pred in predicates {
                            filtered = self.filter_attrs(filtered, pred)?;
                        }
                        Ok(Value::Attrs(filtered))
                    }
                    other if predicates.is_empty() && steps.is_empty() => Ok(other),
                    other => Err(XPathError::Eval(format!("cannot filter or step from {other:?}"))),
                }
            }
        }
    }

    fn eval_bin(&self, op: BinOp, lhs: &Expr, rhs: &Expr, ctx: &EvalCtx) -> Result<Value> {
        match op {
            BinOp::Or => {
                if self.eval(lhs, ctx)?.boolean_value(self.g) {
                    return Ok(Value::Bool(true));
                }
                Ok(Value::Bool(self.eval(rhs, ctx)?.boolean_value(self.g)))
            }
            BinOp::And => {
                if !self.eval(lhs, ctx)?.boolean_value(self.g) {
                    return Ok(Value::Bool(false));
                }
                Ok(Value::Bool(self.eval(rhs, ctx)?.boolean_value(self.g)))
            }
            BinOp::Eq | BinOp::Neq => {
                let a = self.eval(lhs, ctx)?;
                let b = self.eval(rhs, ctx)?;
                Ok(Value::Bool(self.compare_eq(op, &a, &b)))
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                let a = self.eval(lhs, ctx)?;
                let b = self.eval(rhs, ctx)?;
                Ok(Value::Bool(self.compare_rel(op, &a, &b)))
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                let a = self.eval(lhs, ctx)?.number_value(self.g);
                let b = self.eval(rhs, ctx)?.number_value(self.g);
                Ok(Value::Number(match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Mod => a % b,
                    _ => unreachable!("arithmetic ops only"),
                }))
            }
        }
    }

    /// XPath 1.0 `=` / `!=` semantics (existential over sets).
    fn compare_eq(&self, op: BinOp, a: &Value, b: &Value) -> bool {
        let negate = op == BinOp::Neq;
        let result = if a.is_set() && b.is_set() {
            let xs = a.member_strings(self.g);
            let ys = b.member_strings(self.g);
            xs.iter().any(|x| ys.iter().any(|y| (x == y) != negate))
        } else if a.is_set() || b.is_set() {
            let (set, other) = if a.is_set() { (a, b) } else { (b, a) };
            match other {
                Value::Bool(bv) => (set.boolean_value(self.g) == *bv) != negate,
                Value::Number(n) => set
                    .member_strings(self.g)
                    .iter()
                    .any(|s| (s.trim().parse::<f64>().map(|x| x == *n).unwrap_or(false)) != negate),
                _ => {
                    let o = other.string_value(self.g);
                    set.member_strings(self.g).iter().any(|s| (*s == o) != negate)
                }
            }
        } else if matches!(a, Value::Bool(_)) || matches!(b, Value::Bool(_)) {
            (a.boolean_value(self.g) == b.boolean_value(self.g)) != negate
        } else if matches!(a, Value::Number(_)) || matches!(b, Value::Number(_)) {
            (a.number_value(self.g) == b.number_value(self.g)) != negate
        } else {
            (a.string_value(self.g) == b.string_value(self.g)) != negate
        };
        result
    }

    /// XPath 1.0 relational comparison (numeric; existential over sets).
    fn compare_rel(&self, op: BinOp, a: &Value, b: &Value) -> bool {
        let cmp = |x: f64, y: f64| match op {
            BinOp::Lt => x < y,
            BinOp::Le => x <= y,
            BinOp::Gt => x > y,
            BinOp::Ge => x >= y,
            _ => unreachable!("relational ops only"),
        };
        if a.is_set() && b.is_set() {
            let xs = a.member_strings(self.g);
            let ys = b.member_strings(self.g);
            xs.iter().any(|x| {
                let xn = x.trim().parse::<f64>().unwrap_or(f64::NAN);
                ys.iter().any(|y| cmp(xn, y.trim().parse::<f64>().unwrap_or(f64::NAN)))
            })
        } else if a.is_set() {
            let yn = b.number_value(self.g);
            a.member_strings(self.g)
                .iter()
                .any(|x| cmp(x.trim().parse::<f64>().unwrap_or(f64::NAN), yn))
        } else if b.is_set() {
            let xn = a.number_value(self.g);
            b.member_strings(self.g)
                .iter()
                .any(|y| cmp(xn, y.trim().parse::<f64>().unwrap_or(f64::NAN)))
        } else {
            cmp(a.number_value(self.g), b.number_value(self.g))
        }
    }

    // Steps -----------------------------------------------------------------

    fn eval_steps(&self, origins: Vec<NodeId>, steps: &[Step]) -> Result<Value> {
        let mut current = origins;
        let mut i = 0;
        while i < steps.len() {
            let step = &steps[i];
            if step.axis == Axis::Attribute {
                if i + 1 != steps.len() {
                    return Err(XPathError::Eval(
                        "the attribute axis must be the last step".into(),
                    ));
                }
                return self.eval_attribute_step(&current, step);
            }
            if is_self_node(step) {
                // `.`: every node set is kept sorted and deduplicated.
                i += 1;
                continue;
            }
            let (axis, step) = match steps.get(i + 1) {
                Some(next) if fuses(step, next) => {
                    i += 1;
                    (Axis::Descendant, next)
                }
                _ => (step.axis, step),
            };
            let mut next: Vec<NodeId> = Vec::new();
            for &origin in &current {
                let mut cands = if axis == Axis::Descendant && self.g.is_root(origin) {
                    self.root_descendants(&step.test)?
                } else {
                    let mut cands = axis_candidates(self.g, self.index.as_deref(), origin, axis);
                    self.retain_test(&mut cands, &step.test)?;
                    cands
                };
                for pred in &step.predicates {
                    cands = self.filter_nodes(cands, pred)?;
                }
                next.extend(cands);
            }
            self.g.sort_doc_order(&mut next);
            current = next;
            i += 1;
        }
        Ok(Value::Nodes(current))
    }

    /// `descendant::T` from the root, filtered by `test`, in document order —
    /// the same list as `descendants(root)` filtered by the test, without
    /// materialising and sorting every node of the document.
    fn root_descendants(&self, test: &NodeTest) -> Result<Vec<NodeId>> {
        let g = self.g;
        let mut out: Vec<NodeId> = match test {
            NodeTest::Node => return Ok(g.descendants(g.root())),
            // Every hierarchy reaches every leaf, and `leaves()` is in
            // document order; with no hierarchy the root has no descendants.
            NodeTest::Text if g.hierarchy_count() == 0 => return Ok(Vec::new()),
            NodeTest::Text => return Ok(g.leaves().to_vec()),
            _ => g.elements().collect(),
        };
        self.retain_test(&mut out, test)?;
        g.sort_doc_order(&mut out);
        Ok(out)
    }

    fn eval_attribute_step(&self, origins: &[NodeId], step: &Step) -> Result<Value> {
        let mut out: Vec<AttrRef> = Vec::new();
        for &origin in origins {
            let mut attrs = attrs_of(self.g, origin);
            let view = self.g.attrs(origin);
            match &step.test {
                NodeTest::Any | NodeTest::Node => {}
                NodeTest::Name { hierarchy, local } => {
                    attrs.retain(|a| {
                        view.name(a.index).is_some_and(|q| {
                            q.local == *local
                                && hierarchy
                                    .as_ref()
                                    .is_none_or(|h| q.prefix.as_deref() == Some(h.as_str()))
                        })
                    });
                }
                NodeTest::AnyInHierarchy(prefix) => {
                    attrs.retain(|a| {
                        view.name(a.index).and_then(|q| q.prefix.as_deref())
                            == Some(prefix.as_str())
                    });
                }
                NodeTest::Text => attrs.clear(),
            }
            for pred in &step.predicates {
                attrs = self.filter_attrs(attrs, pred)?;
            }
            out.extend(attrs);
        }
        Ok(Value::Attrs(out))
    }

    fn retain_test(&self, nodes: &mut Vec<NodeId>, test: &NodeTest) -> Result<()> {
        match test {
            NodeTest::Node => Ok(()),
            NodeTest::Any => {
                nodes.retain(|&n| self.g.is_element(n) || self.g.is_root(n));
                Ok(())
            }
            NodeTest::Text => {
                nodes.retain(|&n| self.g.is_leaf(n));
                Ok(())
            }
            NodeTest::AnyInHierarchy(hname) => {
                let h = self.resolve_hierarchy(hname)?;
                nodes.retain(|&n| self.g.hierarchy_of(n) == Some(h));
                Ok(())
            }
            NodeTest::Name { hierarchy, local } => {
                let h = hierarchy.as_ref().map(|hn| self.resolve_hierarchy(hn)).transpose()?;
                nodes.retain(|&n| {
                    let name_ok = self.g.name(n).is_some_and(|q| q.local == *local);
                    let h_ok = match h {
                        None => true,
                        Some(h) => self.g.hierarchy_of(n) == Some(h),
                    };
                    name_ok && h_ok
                });
                Ok(())
            }
        }
    }

    fn resolve_hierarchy(&self, name: &str) -> Result<HierarchyId> {
        self.g.hierarchy_by_name(name).ok_or_else(|| XPathError::UnknownHierarchy(name.to_string()))
    }

    /// Apply one predicate to a node list (positions in list order).
    fn filter_nodes(&self, nodes: Vec<NodeId>, pred: &Expr) -> Result<Vec<NodeId>> {
        let size = nodes.len();
        let mut out = Vec::with_capacity(size);
        for (i, n) in nodes.into_iter().enumerate() {
            let ctx = EvalCtx { node: n, position: i + 1, size };
            let v = self.eval(pred, &ctx)?;
            let keep = match v {
                Value::Number(num) => (i + 1) as f64 == num,
                other => other.boolean_value(self.g),
            };
            if keep {
                out.push(n);
            }
        }
        Ok(out)
    }

    /// Apply one predicate to an attribute list.
    fn filter_attrs(&self, attrs: Vec<AttrRef>, pred: &Expr) -> Result<Vec<AttrRef>> {
        let size = attrs.len();
        let mut out = Vec::with_capacity(size);
        for (i, a) in attrs.into_iter().enumerate() {
            let ctx = EvalCtx { node: a.element, position: i + 1, size };
            let v = self.eval(pred, &ctx)?;
            let keep = match v {
                Value::Number(num) => (i + 1) as f64 == num,
                other => other.boolean_value(self.g),
            };
            if keep {
                out.push(a);
            }
        }
        Ok(out)
    }
}

/// `self::node()` with no predicates — the identity step `.`.
fn is_self_node(step: &Step) -> bool {
    step.axis == Axis::SelfAxis && step.test == NodeTest::Node && step.predicates.is_empty()
}

/// Whether `step, next` is `descendant-or-self::node()/child::T[p…]` that
/// evaluates as the single step `descendant::T[p…]`: `T` names elements or
/// text, and no predicate can see its position among a parent's children.
fn fuses(step: &Step, next: &Step) -> bool {
    step.axis == Axis::DescendantOrSelf
        && step.test == NodeTest::Node
        && step.predicates.is_empty()
        && next.axis == Axis::Child
        && next.test != NodeTest::Node
        && next.predicates.iter().all(is_position_free)
}

/// A predicate whose outcome does not depend on the context position or
/// size: it calls neither `position()` nor `last()`, and its value is not a
/// number (a number predicate is compared with the position).
fn is_position_free(pred: &Expr) -> bool {
    !is_number_typed(pred) && !reads_position(pred)
}

/// The library functions that return a string, boolean or node-set.
const NON_NUMBER_FUNCTIONS: [&str; 19] = [
    "string",
    "boolean",
    "not",
    "true",
    "false",
    "name",
    "local-name",
    "hierarchy",
    "contains",
    "starts-with",
    "substring-before",
    "substring-after",
    "substring",
    "normalize-space",
    "concat",
    "overlaps",
    "leaves",
    "root",
    "id",
];

/// Whether an expression's value is statically a number. A function not
/// known to return a string, boolean or node-set counts as a number, so an
/// unknown or newly added one never fuses.
fn is_number_typed(e: &Expr) -> bool {
    match e {
        Expr::Number(_) | Expr::Neg(_) => true,
        Expr::Bin(op, _, _) => {
            matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod)
        }
        Expr::Call { name, .. } => !NON_NUMBER_FUNCTIONS.contains(&name.as_str()),
        Expr::Filter { primary, steps, .. } => steps.is_empty() && is_number_typed(primary),
        Expr::Union(..) | Expr::Path { .. } | Expr::Literal(_) => false,
    }
}

/// Whether `position()` or `last()` is called anywhere inside `e`.
fn reads_position(e: &Expr) -> bool {
    let in_steps = |steps: &[Step]| steps.iter().flat_map(|s| &s.predicates).any(reads_position);
    match e {
        Expr::Number(_) | Expr::Literal(_) => false,
        Expr::Neg(inner) => reads_position(inner),
        Expr::Bin(_, a, b) | Expr::Union(a, b) => reads_position(a) || reads_position(b),
        Expr::Call { name, args } => {
            name == "position" || name == "last" || args.iter().any(reads_position)
        }
        Expr::Path { steps, .. } => in_steps(steps),
        Expr::Filter { primary, predicates, steps } => {
            reads_position(primary) || predicates.iter().any(reads_position) || in_steps(steps)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goddag::GoddagBuilder;
    use xmlcore::{Attribute, QName};

    /// Figure-1-like fixture:
    /// content "one two three four"
    /// phys: line[n=1] "one two" | line[n=2] "three four"
    /// ling: w one, w two, s "two three", w three, w four
    /// edit: dmg "ne two t" (crosses words and lines)
    fn fixture() -> Goddag {
        let mut b = GoddagBuilder::new(QName::parse("r").unwrap());
        b.content("one two three four");
        let phys = b.hierarchy("phys");
        let ling = b.hierarchy("ling");
        let edit = b.hierarchy("edit");
        b.range(phys, "line", vec![Attribute::new("n", "1")], 0, 7).unwrap();
        b.range(phys, "line", vec![Attribute::new("n", "2")], 8, 18).unwrap();
        b.range(ling, "w", vec![Attribute::new("type", "num")], 0, 3).unwrap();
        b.range(ling, "w", vec![], 4, 7).unwrap();
        b.range(ling, "s", vec![Attribute::new("id", "s1")], 4, 13).unwrap();
        b.range(ling, "w", vec![], 8, 13).unwrap();
        b.range(ling, "w", vec![], 14, 18).unwrap();
        b.range(edit, "dmg", vec![Attribute::new("agent", "fire")], 1, 9).unwrap();
        b.finish().unwrap()
    }

    fn ev(g: &Goddag) -> Evaluator<'_> {
        Evaluator::new(g)
    }

    #[test]
    fn select_all_words() {
        let g = fixture();
        assert_eq!(ev(&g).select("//w").unwrap().len(), 4);
        // Top-level ling words only: "two" and "three" nest inside <s>
        // (equal start offsets nest outer-first).
        assert_eq!(ev(&g).select("/w").unwrap().len(), 2);
    }

    #[test]
    fn child_vs_descendant() {
        let g = fixture();
        // s's child words: "two" (4..7, same start as s so it nests inside)
        // and "three" (8..13).
        let under_s = ev(&g).select("//s/w").unwrap();
        assert_eq!(under_s.len(), 2);
        assert_eq!(g.text_of(under_s[0]), "two");
        assert_eq!(g.text_of(under_s[1]), "three");
    }

    #[test]
    fn attribute_predicates() {
        let g = fixture();
        let num_words = ev(&g).select("//w[@type='num']").unwrap();
        assert_eq!(num_words.len(), 1);
        assert_eq!(g.text_of(num_words[0]), "one");
        let line2 = ev(&g).select("//line[@n='2']").unwrap();
        assert_eq!(line2.len(), 1);
    }

    #[test]
    fn attribute_axis_values() {
        let g = fixture();
        let v = ev(&g).eval_str("//line[1]/@n").unwrap();
        assert_eq!(v.string_value(&g), "1");
        let all = ev(&g).eval_str("//line/@n").unwrap();
        match all {
            Value::Attrs(attrs) => assert_eq!(attrs.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn positional_predicates() {
        let g = fixture();
        // `//w[2]` is per-origin (classic XPath): the 2nd w child of each
        // parent — <s> contributes "three", the root contributes "four".
        let second = ev(&g).select("//w[2]").unwrap();
        assert_eq!(second.len(), 2);
        // `(//w)[2]` selects from the full document-order set.
        let second = ev(&g).select("(//w)[2]").unwrap();
        assert_eq!(second.len(), 1);
        assert_eq!(g.text_of(second[0]), "two");
        let last = ev(&g).select("(//w)[last()]").unwrap();
        assert_eq!(g.text_of(last[0]), "four");
        let pos = ev(&g).select("(//w)[position() > 2]").unwrap();
        assert_eq!(pos.len(), 2);
    }

    #[test]
    fn overlapping_axis_query() {
        let g = fixture();
        // Which lines does the sentence overlap?
        let lines = ev(&g).select("//s/overlapping::line").unwrap();
        assert_eq!(lines.len(), 2);
        // Which words does the damage overlap (proper overlap only)?
        let dmg_words = ev(&g).select("//dmg/overlapping::ling:w").unwrap();
        // dmg 1..9 bytes: overlaps w(one)[0,3), w(three)[8,13); contains w(two)[4,7); s[4,13) overlaps.
        assert_eq!(dmg_words.len(), 2);
        let texts: Vec<String> = dmg_words.iter().map(|&n| g.text_of(n)).collect();
        assert_eq!(texts, ["one", "three"]);
    }

    #[test]
    fn containing_and_contained_axes() {
        let g = fixture();
        // What contains the word "two" (4..7)?
        let around_two = ev(&g).select("(//w)[2]/containing::*").unwrap();
        let names: Vec<String> =
            around_two.iter().map(|&n| g.name(n).unwrap().local.clone()).collect();
        assert!(names.contains(&"line".to_string()));
        assert!(names.contains(&"s".to_string()));
        assert!(names.contains(&"dmg".to_string()));
        assert!(names.contains(&"r".to_string()));
        // What does the damage fully contain?
        let inside_dmg = ev(&g).select("//dmg/contained::*").unwrap();
        let texts: Vec<String> = inside_dmg.iter().map(|&n| g.text_of(n)).collect();
        assert_eq!(texts, ["two"]);
    }

    #[test]
    fn hierarchy_qualified_tests() {
        let g = fixture();
        assert_eq!(ev(&g).select("//ling:*").unwrap().len(), 5);
        assert_eq!(ev(&g).select("//phys:*").unwrap().len(), 2);
        assert_eq!(ev(&g).select("//ling:w").unwrap().len(), 4);
        // Unknown hierarchy is an error, not silence.
        assert!(matches!(ev(&g).select("//nope:w"), Err(XPathError::UnknownHierarchy(_))));
    }

    #[test]
    fn hierarchy_function() {
        let g = fixture();
        let v = ev(&g).eval_str("hierarchy(//s)").unwrap();
        assert_eq!(v.string_value(&g), "ling");
    }

    #[test]
    fn text_node_test() {
        let g = fixture();
        let texts = ev(&g).select("//line[1]/text()").unwrap();
        assert!(texts.iter().all(|&n| g.is_leaf(n)));
        let joined: String = texts.iter().map(|&n| g.text_of(n)).collect();
        assert_eq!(joined, "one two");
    }

    #[test]
    fn parent_axis_through_shared_leaf() {
        let g = fixture();
        // All parents of the leaf containing "two": w, line (and dmg? dmg
        // covers "ne two t": the "two" leaf splits at dmg boundaries).
        let parents = ev(&g).select("//s/text()[1]/parent::*").unwrap();
        assert!(!parents.is_empty());
    }

    #[test]
    fn count_and_arithmetic() {
        let g = fixture();
        let v = ev(&g).eval_str("count(//w) * 10 + 2").unwrap();
        assert_eq!(v, Value::Number(42.0));
        let v = ev(&g).eval_str("count(//w) div 2").unwrap();
        assert_eq!(v, Value::Number(2.0));
        let v = ev(&g).eval_str("5 mod 3").unwrap();
        assert_eq!(v, Value::Number(2.0));
    }

    #[test]
    fn string_functions() {
        let g = fixture();
        let v = ev(&g).eval_str("contains(string(//line[1]), 'two')").unwrap();
        assert_eq!(v, Value::Bool(true));
        let v = ev(&g).eval_str("starts-with(string(//s), 'two')").unwrap();
        assert_eq!(v, Value::Bool(true));
        let v = ev(&g).eval_str("string-length(string(//w[1]))").unwrap();
        assert_eq!(v, Value::Number(3.0));
        let v = ev(&g).eval_str("normalize-space('  a   b ')").unwrap();
        assert_eq!(v, Value::Str("a b".into()));
        let v = ev(&g).eval_str("concat('a', 'b', 'c')").unwrap();
        assert_eq!(v, Value::Str("abc".into()));
        let v = ev(&g).eval_str("substring('hello', 2, 3)").unwrap();
        assert_eq!(v, Value::Str("ell".into()));
    }

    #[test]
    fn boolean_logic() {
        let g = fixture();
        let v = ev(&g).eval_str("count(//w) = 4 and count(//line) = 2").unwrap();
        assert_eq!(v, Value::Bool(true));
        let v = ev(&g).eval_str("count(//w) = 0 or not(false())").unwrap();
        assert_eq!(v, Value::Bool(true));
    }

    #[test]
    fn overlaps_function() {
        let g = fixture();
        let v = ev(&g).eval_str("overlaps(//s, //line)").unwrap();
        assert_eq!(v, Value::Bool(true));
        let v = ev(&g).eval_str("overlaps(//w[1], //w[4])").unwrap();
        assert_eq!(v, Value::Bool(false));
    }

    #[test]
    fn union_expression() {
        let g = fixture();
        let v = ev(&g).select("//w | //line").unwrap();
        assert_eq!(v.len(), 6);
        // Doc order: line1 before w(one)? line starts at leaf 0 with longer span -> first.
        assert_eq!(g.name(v[0]).unwrap().local, "line");
    }

    #[test]
    fn filter_expression_with_path() {
        let g = fixture();
        let v = ev(&g).select("(//w)[1]/containing::line").unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(g.attr(v[0], "n"), Some("1"));
    }

    #[test]
    fn co_extensive_none_here() {
        let g = fixture();
        assert!(ev(&g).select("//s/co-extensive::*").unwrap().is_empty());
    }

    #[test]
    fn descendants_within_hierarchy_only() {
        let g = fixture();
        // line's descendants are its leaves only (phys has no deeper markup),
        // so //line/descendant::w must be empty — w lives in another
        // hierarchy (use contained:: for the cross-hierarchy question).
        assert!(ev(&g).select("//line/descendant::w").unwrap().is_empty());
        assert_eq!(ev(&g).select("//line[1]/contained::w").unwrap().len(), 2);
    }

    /// [`fixture`] plus milestones: `pb` inside line 1 and on its end
    /// boundary, `anchor` inside the sentence and at the document start.
    fn fixture_with_milestones() -> Goddag {
        let mut g = fixture();
        let phys = g.hierarchy_by_name("phys").unwrap();
        let ling = g.hierarchy_by_name("ling").unwrap();
        for (h, name, at) in
            [(phys, "pb", 4), (phys, "pb", 7), (ling, "anchor", 8), (ling, "anchor", 0)]
        {
            g.insert_element(h, QName::parse(name).unwrap(), vec![], at, at).unwrap();
        }
        g
    }

    #[test]
    fn index_and_scan_agree() {
        for g in [fixture(), fixture_with_milestones()] {
            let plain = Evaluator::new(&g);
            let indexed = Evaluator::with_index(&g);
            assert!(indexed.has_index());
            for q in [
                "//s/overlapping::*",
                "//dmg/overlapping::ling:*",
                "//w[2]/containing::*",
                "//line[1]/contained::*",
                "//dmg/co-extensive::*",
                "//*/contained::*",
                "//*/contained::pb",
                "/contained::anchor",
                "//pb/contained::*",
            ] {
                assert_eq!(plain.select(q).unwrap(), indexed.select(q).unwrap(), "{q}");
            }
        }
        // The milestones strictly inside are contained; the boundary ones
        // are not.
        let g = fixture_with_milestones();
        let inside_line = Evaluator::with_index(&g).select("//line[1]/contained::pb").unwrap();
        assert_eq!(inside_line.len(), 1);
        let inside_s = Evaluator::with_index(&g).select("//s/contained::anchor").unwrap();
        assert_eq!(inside_s.len(), 1);
    }

    #[test]
    fn fusion_rule() {
        let p = |q: &str| match parse(q).unwrap() {
            Expr::Path { steps, .. } => steps,
            other => panic!("{other:?}"),
        };
        for (q, fused) in [
            ("//w", true),
            ("//ling:*", true),
            ("//text()", true),
            ("//w[@n='2']", true),
            ("//w[contains(string(.), 'o')]", true),
            ("//w[count(leaves(.)) > 1]", true),
            ("//node()", false),
            ("//w[2]", false),
            ("//w[last()]", false),
            ("//w[position()=2]", false),
            ("//w[1+1]", false),
            ("//w[-1]", false),
            ("//w[count(leaves(.))]", false),
            ("//w[(string-length(.))]", false),
            ("//w[frobnicate()]", false),
            ("//w[.//w[last()]]", false),
        ] {
            let steps = p(q);
            assert_eq!(fuses(&steps[0], &steps[1]), fused, "{q}");
        }
        assert!(is_self_node(&p(".")[0]));
        assert!(!is_self_node(&p(".[1]")[0]));
    }

    #[test]
    fn shared_index_matches_owned_index() {
        let g = fixture();
        let built = Evaluator::with_index(&g);
        let shared_idx = std::sync::Arc::clone(built.index().unwrap());
        let shared = Evaluator::with_shared_index(&g, shared_idx);
        assert!(shared.has_index());
        for q in ["//s/overlapping::*", "//dmg/containing::*", "//line[1]/contained::*"] {
            assert_eq!(built.select(q).unwrap(), shared.select(q).unwrap(), "{q}");
        }
        // The index is genuinely shared, not copied.
        assert!(std::sync::Arc::ptr_eq(built.index().unwrap(), shared.index().unwrap()));
    }

    #[test]
    fn leaves_function() {
        let g = fixture();
        let v = ev(&g).eval_str("count(leaves(//line[1]))").unwrap();
        let n = v.number_value(&g);
        assert!(n >= 3.0, "line 1 split by dmg and words: {n}");
    }

    #[test]
    fn id_function() {
        let g = fixture();
        let v = ev(&g).select("id('s1')").unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(g.name(v[0]).unwrap().local, "s");
    }

    #[test]
    fn root_path_and_self() {
        let g = fixture();
        let v = ev(&g).select("/").unwrap();
        assert_eq!(v, vec![g.root()]);
        let v = ev(&g).select("/self::node()").unwrap();
        assert_eq!(v, vec![g.root()]);
        // `.` is the identity; a self step with a test or predicate is not.
        let words = ev(&g).select("//w").unwrap();
        assert_eq!(ev(&g).select("//w/.").unwrap(), words);
        assert_eq!(ev(&g).select("//w/./self::node()/.").unwrap(), words);
        assert!(ev(&g).select("//s/self::w").unwrap().is_empty());
        assert!(ev(&g).select("//w/self::node()[2]").unwrap().is_empty());
        assert_eq!(ev(&g).select("//*/self::w").unwrap(), words);
    }

    #[test]
    fn relational_comparisons() {
        let g = fixture();
        let v = ev(&g).eval_str("//line[@n > 1]").unwrap();
        match v {
            Value::Nodes(ns) => assert_eq!(ns.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(ev(&g).eval_str("2 < 3").unwrap(), Value::Bool(true));
        assert_eq!(ev(&g).eval_str("2 >= 3").unwrap(), Value::Bool(false));
    }

    #[test]
    fn errors_are_reported() {
        let g = fixture();
        assert!(matches!(ev(&g).eval_str("frobnicate()"), Err(XPathError::UnknownFunction(_))));
        assert!(ev(&g).eval_str("//w/@n/text()").is_err());
        assert!(ev(&g).select("count(//w)").is_err()); // not a node-set
    }

    #[test]
    fn number_value_of_attr_set() {
        let g = fixture();
        let v = ev(&g).eval_str("sum(//line/@n)").unwrap();
        assert_eq!(v, Value::Number(3.0));
    }

    #[test]
    fn preceding_following_queries() {
        let g = fixture();
        let after = ev(&g).select("//w[1]/following::w").unwrap();
        assert_eq!(after.len(), 3);
        let before = ev(&g).select("//w[last()]/preceding::w").unwrap();
        assert_eq!(before.len(), 3);
    }
}
