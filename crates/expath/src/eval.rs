//! The Extended XPath evaluator.

use crate::ast::{Axis, BinOp, Expr, NodeTest, PathStart, Step};
use crate::axes::axis_candidates;
use crate::error::{Result, XPathError};
use crate::functions::{call, EvalCtx, Item};
use crate::overlap_index::OverlapIndex;
use crate::parser::parse;
use crate::value::{xpath_number, AttrRef, Set, Val, Value};
use goddag::{Goddag, HierarchyId, NodeId};
use std::borrow::Cow;
use std::sync::Arc;
use xmlcore::QName;

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
/// Intermediate values borrow from the document and the expression: a
/// literal, a node's text and an attribute's value are read where they
/// lie, `.` and a one-attribute `@n` hold their single member inline, and
/// predicates filter candidate lists in place, so a candidate a predicate
/// such as `[@n='5']` rejects costs no allocation. Each step resolves its
/// node test (hierarchy and name) once, not once per origin.
///
/// Each step also lowers its predicates once, before its first origin, so
/// the spellings an editor asks most often read the candidate directly
/// instead of walking the expression tree per candidate:
///
/// * `[k]`, `[position()=k]` and `[k=position()]` with `k` a number
///   literal keep the k-th candidate and evaluate nothing (a `k` that is
///   not a positive integer keeps none);
/// * `[@a='v']`, `['v'=@a]` and their `!=`, for any attribute test, compare
///   the candidate's attributes in place, existentially as `=` on a set
///   does (`@n` also matches a prefixed `x:n`);
/// * `[contains(S, 'v')]` and `[starts-with(S, 'v')]`, where `S` is `.`,
///   `string(.)` or `string()`, test the candidate's string-value in place.
///
/// Every other spelling is evaluated as an expression per candidate: for
/// example `[position()!=k]`, `[-1]`, `[@n]`, `[@n[1]='v']`, a comparison
/// of two paths, `[contains(string(..), 'v')]` or a boolean combination of
/// lowered forms. A lowered predicate gives the answer and the error its
/// expression gives, and the fusion rule below is decided on the AST.
///
/// A predicate over an attribute set (`//w/@n[. = '7']`, `(//w/@n)[2]`)
/// takes each attribute as its context item: `.`, `self::node()`,
/// `string()`, `number()`, `string-length()`, `normalize-space()`, `name()`
/// and `local-name()` read the attribute, `..` and `parent::T` reach its
/// element, and any other axis is an error. A path goes on from a selected
/// attribute by the same rule (`//w/@n/..`, `(//w/@n)/..`): each attribute
/// takes the rest of the path, and the union is in document order.
///
/// Three step rewrites run at evaluation time; the AST keeps what was
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
///   From the root, `descendant::T[p…]` enumerates the live elements (or
///   takes the leaves for `text()`), applies the test and the predicates in
///   one pass and sorts only the matches.
/// * The same pair from the root when it does not fuse (a positional
///   predicate, or `node()`) keeps its per-parent positions but never
///   lists the document: leaves have no children, so its origins are
///   exactly the root and the live elements (only those of `T`'s hierarchy
///   when `T` names one). Each element's children are a borrowed slice,
///   the root's are the union over all hierarchies in document order with
///   positions counted over that union, one buffer serves every parent, and
///   the result is sorted once.
/// * `self::node()` without predicates (`.`) returns its input: every node
///   set here is already sorted and deduplicated.
pub struct Evaluator<'g> {
    g: &'g Goddag,
    index: Option<Arc<OverlapIndex>>,
}

/// A node test with its hierarchy resolved.
#[derive(Clone, Copy)]
enum Test<'a> {
    /// `node()`
    Node,
    /// `*`: elements and the root.
    Any,
    /// `text()`
    Text,
    /// `h:*`
    In(HierarchyId),
    /// `T` or `h:T`
    Name(Option<HierarchyId>, &'a str),
}

impl Test<'_> {
    /// Calls `f` on each node of `nodes` the test accepts. The test's kind
    /// is matched once, outside the loop: decided per node, the dispatch
    /// cost more than the test itself.
    fn try_each(
        self,
        g: &Goddag,
        mut nodes: impl Iterator<Item = NodeId>,
        f: impl FnMut(NodeId) -> Result<()>,
    ) -> Result<()> {
        match self {
            Test::Node => nodes.try_for_each(f),
            Test::Any => nodes.filter(|&n| g.is_element(n) || g.is_root(n)).try_for_each(f),
            Test::Text => nodes.filter(|&n| g.is_leaf(n)).try_for_each(f),
            Test::In(h) => nodes.filter(|&n| g.hierarchy_of(n) == Some(h)).try_for_each(f),
            Test::Name(h, local) => nodes
                .filter(|&n| {
                    h.is_none_or(|h| g.hierarchy_of(n) == Some(h))
                        && g.name(n).is_some_and(|q| q.local == local)
                })
                .try_for_each(f),
        }
    }

    /// Appends the nodes of `nodes` the test accepts to `out`.
    fn extend_matching(
        self,
        g: &Goddag,
        nodes: impl Iterator<Item = NodeId>,
        out: &mut Vec<NodeId>,
    ) {
        // Pushing cannot fail.
        let _ = self.try_each(g, nodes, |n| {
            out.push(n);
            Ok(())
        });
    }

    /// The hierarchy of every element the test accepts, when it names one.
    fn hierarchy(self) -> Option<HierarchyId> {
        match self {
            Test::In(h) | Test::Name(Some(h), _) => Some(h),
            _ => None,
        }
    }
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
        let ctx = EvalCtx { item: Item::Node(context), position: 1, size: 1 };
        Ok(self.eval(expr, &ctx)?.into_value())
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

    fn eval<'a>(&self, expr: &'a Expr, ctx: &EvalCtx) -> Result<Val<'a>>
    where
        'g: 'a,
    {
        match expr {
            Expr::Number(n) => Ok(Val::Number(*n)),
            Expr::Literal(s) => Ok(Val::Str(Cow::Borrowed(s))),
            Expr::Neg(inner) => Ok(Val::Number(-self.eval(inner, ctx)?.number(self.g))),
            Expr::Bin(op, lhs, rhs) => self.eval_bin(*op, lhs, rhs, ctx),
            Expr::Union(lhs, rhs) => match (self.eval(lhs, ctx)?, self.eval(rhs, ctx)?) {
                (Val::Nodes(x), Val::Nodes(y)) => {
                    let mut x = x.into_vec();
                    x.extend_from_slice(y.as_slice());
                    self.g.sort_doc_order(&mut x);
                    Ok(Val::Nodes(Set::Many(x)))
                }
                (Val::Attrs(x), Val::Attrs(y)) => {
                    let mut x = x.into_vec();
                    x.extend_from_slice(y.as_slice());
                    self.sort_attrs(&mut x);
                    Ok(Val::Attrs(Set::Many(x)))
                }
                (a, b) => Err(XPathError::Eval(format!(
                    "union requires two node-sets, got {:?} | {:?}",
                    a.into_value(),
                    b.into_value()
                ))),
            },
            Expr::Call { name, args } => self.eval_call(name, args, ctx),
            Expr::Path { start: PathStart::Root, steps } => {
                self.eval_steps(Set::One(self.g.root()), steps)
            }
            Expr::Path { start: PathStart::Context, steps } => match ctx.item {
                Item::Node(n) => self.eval_steps(Set::One(n), steps),
                Item::Attr(a) => self.steps_from_attr(a, steps),
            },
            Expr::Filter { primary, predicates, steps } => match self.eval(primary, ctx)? {
                Val::Nodes(nodes) if predicates.is_empty() => self.eval_steps(nodes, steps),
                Val::Nodes(nodes) => {
                    let mut nodes = nodes.into_vec();
                    for pred in predicates {
                        self.filter(&mut nodes, Item::Node, lower(pred))?;
                    }
                    self.eval_steps(Set::Many(nodes), steps)
                }
                Val::Attrs(attrs) if predicates.is_empty() => self.steps_from_attrs(attrs, steps),
                Val::Attrs(attrs) => {
                    let mut attrs = attrs.into_vec();
                    for pred in predicates {
                        self.filter(&mut attrs, Item::Attr, lower(pred))?;
                    }
                    self.steps_from_attrs(Set::Many(attrs), steps)
                }
                other if predicates.is_empty() && steps.is_empty() => Ok(other),
                other => Err(XPathError::Eval(format!(
                    "cannot filter or step from {:?}",
                    other.into_value()
                ))),
            },
        }
    }

    /// A function call. Up to three arguments (every library function but
    /// `concat`) are evaluated into an array on the stack, so the call
    /// itself allocates nothing.
    fn eval_call<'a>(&self, name: &str, args: &'a [Expr], ctx: &EvalCtx) -> Result<Val<'a>>
    where
        'g: 'a,
    {
        let g = self.g;
        match args {
            [] => call(g, ctx, name, &mut []),
            [a] => call(g, ctx, name, &mut [self.eval(a, ctx)?]),
            [a, b] => call(g, ctx, name, &mut [self.eval(a, ctx)?, self.eval(b, ctx)?]),
            [a, b, c] => {
                let mut evaluated = [self.eval(a, ctx)?, self.eval(b, ctx)?, self.eval(c, ctx)?];
                call(g, ctx, name, &mut evaluated)
            }
            _ => {
                let mut evaluated =
                    args.iter().map(|a| self.eval(a, ctx)).collect::<Result<Vec<_>>>()?;
                call(g, ctx, name, &mut evaluated)
            }
        }
    }

    fn eval_bin<'a>(
        &self,
        op: BinOp,
        lhs: &'a Expr,
        rhs: &'a Expr,
        ctx: &EvalCtx,
    ) -> Result<Val<'a>>
    where
        'g: 'a,
    {
        let g = self.g;
        Ok(Val::Bool(match op {
            BinOp::Or => self.eval(lhs, ctx)?.boolean() || self.eval(rhs, ctx)?.boolean(),
            BinOp::And => self.eval(lhs, ctx)?.boolean() && self.eval(rhs, ctx)?.boolean(),
            BinOp::Eq | BinOp::Neq => {
                self.compare_eq(op, &self.eval(lhs, ctx)?, &self.eval(rhs, ctx)?)
            }
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                self.compare_rel(op, &self.eval(lhs, ctx)?, &self.eval(rhs, ctx)?)
            }
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                let a = self.eval(lhs, ctx)?.number(g);
                let b = self.eval(rhs, ctx)?.number(g);
                return Ok(Val::Number(match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    BinOp::Div => a / b,
                    BinOp::Mod => a % b,
                    _ => unreachable!("arithmetic ops only"),
                }));
            }
        }))
    }

    /// XPath 1.0 `=` / `!=` semantics (existential over sets, §3.4): set
    /// members are compared where they lie, so `@n != 'v'` holds only for
    /// an element with an `n` other than `v`.
    fn compare_eq(&self, op: BinOp, a: &Val<'_>, b: &Val<'_>) -> bool {
        let g = self.g;
        let negate = op == BinOp::Neq;
        match (a.is_set(), b.is_set()) {
            (true, true) => a.members(g).any(|x| b.members(g).any(|y| (x == y) != negate)),
            (true, false) | (false, true) => {
                let (set, other) = if a.is_set() { (a, b) } else { (b, a) };
                match other {
                    Val::Bool(bv) => (set.boolean() == *bv) != negate,
                    Val::Number(n) => set.members(g).any(|s| (xpath_number(s) == *n) != negate),
                    _ => {
                        let o = other.string(g);
                        set.members(g).any(|s| (s == o) != negate)
                    }
                }
            }
            (false, false) => {
                if matches!(a, Val::Bool(_)) || matches!(b, Val::Bool(_)) {
                    (a.boolean() == b.boolean()) != negate
                } else if matches!(a, Val::Number(_)) || matches!(b, Val::Number(_)) {
                    (a.number(g) == b.number(g)) != negate
                } else {
                    (a.string(g) == b.string(g)) != negate
                }
            }
        }
    }

    /// XPath 1.0 relational comparison (numeric; existential over sets).
    /// A set compared with a boolean compares `boolean(set)` (§3.4).
    fn compare_rel(&self, op: BinOp, a: &Val<'_>, b: &Val<'_>) -> bool {
        let g = self.g;
        let cmp = |x: f64, y: f64| match op {
            BinOp::Lt => x < y,
            BinOp::Le => x <= y,
            BinOp::Gt => x > y,
            BinOp::Ge => x >= y,
            _ => unreachable!("relational ops only"),
        };
        let truth = |set: &Val<'_>| f64::from(u8::from(set.boolean()));
        match (a.is_set(), b.is_set()) {
            (true, false) if matches!(b, Val::Bool(_)) => cmp(truth(a), b.number(g)),
            (false, true) if matches!(a, Val::Bool(_)) => cmp(a.number(g), truth(b)),
            (true, true) => a.members(g).any(|x| {
                let xn = xpath_number(x);
                b.members(g).any(|y| cmp(xn, xpath_number(y)))
            }),
            (true, false) => {
                let yn = b.number(g);
                a.members(g).any(|x| cmp(xpath_number(x), yn))
            }
            (false, true) => {
                let xn = a.number(g);
                b.members(g).any(|y| cmp(xn, xpath_number(y)))
            }
            (false, false) => cmp(a.number(g), b.number(g)),
        }
    }

    // Steps -----------------------------------------------------------------

    fn eval_steps<'a>(&self, origins: Set<NodeId>, steps: &'a [Step]) -> Result<Val<'a>>
    where
        'g: 'a,
    {
        let root = self.g.root();
        let mut current = origins;
        let mut i = 0;
        while i < steps.len() {
            let step = &steps[i];
            if step.axis == Axis::Attribute {
                let attrs = self.attribute_step(current.as_slice(), step)?;
                return self.steps_from_attrs(attrs, &steps[i + 1..]);
            }
            if is_self_node(step) {
                // `.`: every node set is kept sorted and deduplicated.
                i += 1;
                continue;
            }
            let origins = current.as_slice();
            let next = if origins.is_empty() {
                // Nothing follows from nothing; the test is not even resolved.
                Vec::new()
            } else {
                match steps.get(i + 1) {
                    Some(child) if fuses(step, child) => {
                        i += 1;
                        self.fused_descendant_step(origins, child)?
                    }
                    Some(child) if is_double_slash(step, child) && origins == [root] => {
                        i += 1;
                        self.child_step_of_every_parent(child)?
                    }
                    _ => {
                        let test = self.resolve(&step.test)?;
                        self.axis_step(origins.iter().copied(), step.axis, test, &step.predicates)?
                    }
                }
            };
            current = Set::Many(next);
            i += 1;
        }
        Ok(Val::Nodes(current))
    }

    /// One step from every origin: each origin's candidates in axis order,
    /// kept by the test and then by each predicate with positions counted
    /// per origin (in one reused buffer); the union in document order. The
    /// predicates are lowered once, before the first origin, and an origin
    /// without candidates skips them.
    fn axis_step(
        &self,
        origins: impl IntoIterator<Item = NodeId>,
        axis: Axis,
        test: Test<'_>,
        predicates: &[Expr],
    ) -> Result<Vec<NodeId>> {
        let g = self.g;
        let preds = Preds::new(predicates);
        let mut out = Vec::new();
        let mut cands = Vec::new();
        for origin in origins {
            cands.clear();
            match axis {
                // What `Goddag::children` lists, every hierarchy's top level
                // merged in document order, but only the nodes the test
                // keeps are copied and sorted.
                Axis::Child if g.is_root(origin) => {
                    for h in g.hierarchy_ids() {
                        test.extend_matching(
                            g,
                            g.children_in(origin, h).iter().copied(),
                            &mut cands,
                        );
                    }
                    g.sort_doc_order(&mut cands);
                }
                Axis::Child => {
                    test.extend_matching(g, g.element_children(origin).iter().copied(), &mut cands);
                }
                Axis::Descendant if g.is_root(origin) => {
                    let in_order = self.root_descendants(test, |n| {
                        cands.push(n);
                        Ok(())
                    })?;
                    if !in_order {
                        g.sort_doc_order(&mut cands);
                    }
                }
                _ => {
                    let found = axis_candidates(g, self.index.as_deref(), origin, axis);
                    test.extend_matching(g, found.into_iter(), &mut cands);
                }
            }
            if cands.is_empty() {
                continue;
            }
            for i in 0..preds.len() {
                self.filter(&mut cands, Item::Node, preds.get(i))?;
            }
            if out.is_empty() && !cands.is_empty() {
                // The first origin that keeps anything hands its list over,
                // so one origin (a predicate's relative path) copies nothing.
                std::mem::swap(&mut out, &mut cands);
            } else {
                out.extend_from_slice(&cands);
            }
        }
        g.sort_doc_order(&mut out);
        Ok(out)
    }

    /// `descendant::T[p…]` with position-free predicates: the fused
    /// `//T[p…]`. From the root, test and predicates run in one pass and
    /// only the matches are sorted (fusion never takes `node()`).
    fn fused_descendant_step(&self, origins: &[NodeId], step: &Step) -> Result<Vec<NodeId>> {
        let test = self.resolve(&step.test)?;
        if origins != [self.g.root()] {
            return self.axis_step(
                origins.iter().copied(),
                Axis::Descendant,
                test,
                &step.predicates,
            );
        }
        let mut out = Vec::new();
        let in_order = if step.predicates.is_empty() {
            self.root_descendants(test, |n| {
                out.push(n);
                Ok(())
            })?
        } else {
            let preds = Preds::new(&step.predicates);
            self.root_descendants(test, |n| {
                if self.accepts_all(&preds, Item::Node(n))? {
                    out.push(n);
                }
                Ok(())
            })?
        };
        if !in_order {
            self.g.sort_doc_order(&mut out);
        }
        Ok(out)
    }

    /// `descendant-or-self::node()/child::T[p…]` from the root, positions
    /// counted per parent: the parents are the root and the live elements
    /// (of `T`'s hierarchy, when it names one), since leaves have no
    /// children.
    fn child_step_of_every_parent(&self, step: &Step) -> Result<Vec<NodeId>> {
        let g = self.g;
        let test = self.resolve(&step.test)?;
        let root = std::iter::once(g.root());
        match test.hierarchy() {
            Some(h) => {
                self.axis_step(root.chain(g.elements_in(h)), Axis::Child, test, &step.predicates)
            }
            None => self.axis_step(root.chain(g.elements()), Axis::Child, test, &step.predicates),
        }
    }

    /// Feeds `descendant::T` from the root to `f` and says whether it came
    /// in document order: the leaves do (for `text()`), the live elements
    /// are enumerated in arena order and the caller sorts what it keeps.
    /// Only `node()` lists the whole document.
    fn root_descendants(
        &self,
        test: Test<'_>,
        mut f: impl FnMut(NodeId) -> Result<()>,
    ) -> Result<bool> {
        let g = self.g;
        match test {
            Test::Node => g.descendants(g.root()).into_iter().try_for_each(f)?,
            // Every hierarchy reaches every leaf; with no hierarchy the
            // root has no descendants.
            Test::Text if g.hierarchy_count() == 0 => {}
            Test::Text => g.leaves().iter().try_for_each(|&l| f(l))?,
            _ => {
                test.try_each(g, g.elements(), f)?;
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The attribute axis: each origin's attributes read from its view in
    /// place; a single match is held inline. Predicates take each attribute
    /// as their context item.
    fn attribute_step(&self, origins: &[NodeId], step: &Step) -> Result<Set<AttrRef>> {
        let preds = Preds::new(&step.predicates);
        let mut out = Set::empty();
        let mut group = Vec::new();
        for &element in origins {
            let matching = self
                .g
                .attrs(element)
                .iter()
                .enumerate()
                .filter(|(_, a)| attr_test(&step.test, a.name))
                .map(|(index, _)| AttrRef { element, index });
            if step.predicates.is_empty() {
                matching.for_each(|a| out.push(a));
            } else {
                group.clear();
                group.extend(matching);
                for i in 0..preds.len() {
                    self.filter(&mut group, Item::Attr, preds.get(i))?;
                }
                group.iter().for_each(|&a| out.push(a));
            }
        }
        Ok(out)
    }

    fn resolve<'a>(&self, test: &'a NodeTest) -> Result<Test<'a>> {
        Ok(match test {
            NodeTest::Node => Test::Node,
            NodeTest::Any => Test::Any,
            NodeTest::Text => Test::Text,
            NodeTest::AnyInHierarchy(h) => Test::In(self.resolve_hierarchy(h)?),
            NodeTest::Name { hierarchy, local } => Test::Name(
                hierarchy.as_deref().map(|h| self.resolve_hierarchy(h)).transpose()?,
                local,
            ),
        })
    }

    fn resolve_hierarchy(&self, name: &str) -> Result<HierarchyId> {
        self.g.hierarchy_by_name(name).ok_or_else(|| XPathError::UnknownHierarchy(name.to_string()))
    }

    /// A relative path from an attribute context item: `.` and
    /// `self::node()` keep the attribute, `..` and `parent::T` reach its
    /// element, and the rest of the path goes on from there. `self::T`
    /// selects nothing (an attribute is not an element); any other axis is
    /// an error rather than an answer about the element.
    fn steps_from_attr<'a>(&self, a: AttrRef, steps: &'a [Step]) -> Result<Val<'a>>
    where
        'g: 'a,
    {
        for (i, step) in steps.iter().enumerate() {
            match step.axis {
                Axis::SelfAxis if step.test == NodeTest::Node => {
                    let ctx = EvalCtx { item: Item::Attr(a), position: 1, size: 1 };
                    for pred in &step.predicates {
                        if !self.holds(pred, &ctx)? {
                            return Ok(Val::Attrs(Set::empty()));
                        }
                    }
                }
                Axis::SelfAxis => return Ok(Val::Nodes(Set::empty())),
                Axis::Parent => {
                    // The element is the one candidate, as it is its own
                    // `self`.
                    let test = self.resolve(&step.test)?;
                    let parent =
                        self.axis_step([a.element], Axis::SelfAxis, test, &step.predicates)?;
                    return self.eval_steps(Set::Many(parent), &steps[i + 1..]);
                }
                axis => return Err(not_from_an_attribute(axis)),
            }
        }
        Ok(Val::Attrs(Set::One(a)))
    }

    /// The rest of a path from each attribute of `attrs`, through
    /// [`Evaluator::steps_from_attr`], and the union of what they select:
    /// nodes in document order, attributes ordered and deduplicated as `|`
    /// orders them. A path selects attributes when its last step that is
    /// not `self::node()` is the attribute axis, or when it has no such
    /// step; only then does an attribute come back. An axis that does not
    /// apply to an attribute is an error even when `attrs` is empty.
    fn steps_from_attrs<'a>(&self, attrs: Set<AttrRef>, steps: &'a [Step]) -> Result<Val<'a>>
    where
        'g: 'a,
    {
        if steps.is_empty() {
            return Ok(Val::Attrs(attrs));
        }
        let first = steps.iter().find(|s| !keeps_an_attribute(s));
        if let Some(step) = first.filter(|s| !matches!(s.axis, Axis::SelfAxis | Axis::Parent)) {
            return Err(not_from_an_attribute(step.axis));
        }
        let (mut nodes, mut kept) = (Vec::new(), Vec::new());
        for &a in attrs.as_slice() {
            match self.steps_from_attr(a, steps)? {
                Val::Nodes(n) => nodes.extend_from_slice(n.as_slice()),
                Val::Attrs(x) => kept.extend_from_slice(x.as_slice()),
                _ => unreachable!("a path selects a set"),
            }
        }
        let last = steps.iter().rev().find(|s| !keeps_an_attribute(s));
        if last.is_none_or(|s| s.axis == Axis::Attribute) {
            self.sort_attrs(&mut kept);
            Ok(Val::Attrs(Set::Many(kept)))
        } else {
            self.g.sort_doc_order(&mut nodes);
            Ok(Val::Nodes(Set::Many(nodes)))
        }
    }

    /// Attributes in document order of their elements, then in each
    /// element's attribute order, each once.
    fn sort_attrs(&self, attrs: &mut Vec<AttrRef>) {
        attrs.sort_by_key(|a| (self.g.doc_order_key(a.element), a.index));
        attrs.dedup();
    }

    /// Keep the items `pred` accepts, positions counted in list order, in
    /// place. `[k]` keeps the k-th item and evaluates nothing.
    fn filter<T: Copy>(
        &self,
        items: &mut Vec<T>,
        item: impl Fn(T) -> Item,
        pred: Pred<'_>,
    ) -> Result<()> {
        if let Pred::Nth(k) = pred {
            if (1..=items.len()).contains(&k) {
                items.swap(0, k - 1);
                items.truncate(1);
            } else {
                items.clear();
            }
            return Ok(());
        }
        let size = items.len();
        let mut kept = 0;
        for position in 1..=size {
            let x = items[position - 1];
            if self.accepts(pred, item(x), position, size)? {
                items[kept] = x;
                kept += 1;
            }
        }
        items.truncate(kept);
        Ok(())
    }

    /// Whether a lowered predicate holds for `item` at `position` of
    /// `size`: what [`Evaluator::holds`] answers for the predicate it was
    /// lowered from, errors included.
    fn accepts(&self, pred: Pred<'_>, item: Item, position: usize, size: usize) -> Result<bool> {
        let g = self.g;
        match pred {
            Pred::Nth(k) => Ok(position == k),
            Pred::AttrCmp { test, literal, negate } => match item {
                Item::Node(n) => {
                    // Value first, by index: most values differ from the
                    // literal in length, so most names are never read.
                    let attrs = g.attrs(n);
                    Ok((0..attrs.len()).any(|i| {
                        (attrs.value(i) == Some(literal)) != negate
                            && attrs.name(i).is_some_and(|q| attr_test(test, q))
                    }))
                }
                Item::Attr(_) => Err(not_from_an_attribute(Axis::Attribute)),
            },
            Pred::Text { starts_with, needle } => {
                let s = item.string(g);
                Ok(if starts_with { s.starts_with(needle) } else { contains(s, needle) })
            }
            Pred::Expr(e) => self.holds(e, &EvalCtx { item, position, size }),
        }
    }

    /// Whether every predicate of a position-free step accepts `item`.
    fn accepts_all(&self, preds: &Preds<'_>, item: Item) -> Result<bool> {
        for i in 0..preds.len() {
            if !self.accepts(preds.get(i), item, 1, 1)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Whether a predicate holds in `ctx`: a number is compared with the
    /// position, anything else converted to a boolean. The reference for
    /// every lowered [`Pred`].
    fn holds(&self, pred: &Expr, ctx: &EvalCtx) -> Result<bool> {
        Ok(match self.eval(pred, ctx)? {
            Val::Number(n) => ctx.position as f64 == n,
            other => other.boolean(),
        })
    }
}

/// A predicate lowered for evaluation: the spellings the editor asks most
/// often read the context item directly instead of walking the expression
/// tree per candidate. Only spellings whose general evaluation cannot fail
/// on a node are lowered, and each answers exactly what
/// [`Evaluator::holds`] answers, errors included.
#[derive(Clone, Copy)]
enum Pred<'a> {
    /// `[k]`, `[position()=k]` or `[k=position()]` with `k` a number
    /// literal: the k-th item. A `k` that is not a positive integer is held
    /// as 0 and keeps nothing.
    Nth(usize),
    /// `[@a='v']`, `['v'=@a]` or their `!=`, for any attribute node test:
    /// existential over the context item's attributes. From an attribute
    /// it raises the error `@a` raises there.
    AttrCmp { test: &'a NodeTest, literal: &'a str, negate: bool },
    /// `contains(S, 'v')` or `starts-with(S, 'v')` where `S` is `.`,
    /// `string(.)` or `string()`: a test on the context item's
    /// string-value, read in place.
    Text { starts_with: bool, needle: &'a str },
    /// Anything else, through [`Evaluator::holds`].
    Expr(&'a Expr),
}

/// Lowers one predicate (see [`Pred`]).
fn lower(pred: &Expr) -> Pred<'_> {
    match pred {
        Expr::Number(k) => Pred::Nth(nth(*k)),
        Expr::Bin(op @ (BinOp::Eq | BinOp::Neq), lhs, rhs) => match (&**lhs, &**rhs) {
            (Expr::Call { name, args }, Expr::Number(k))
            | (Expr::Number(k), Expr::Call { name, args })
                if *op == BinOp::Eq && name == "position" && args.is_empty() =>
            {
                Pred::Nth(nth(*k))
            }
            (Expr::Path { start: PathStart::Context, steps }, Expr::Literal(literal))
            | (Expr::Literal(literal), Expr::Path { start: PathStart::Context, steps }) => {
                match steps.as_slice() {
                    [Step { axis: Axis::Attribute, test, predicates }] if predicates.is_empty() => {
                        Pred::AttrCmp { test, literal, negate: *op == BinOp::Neq }
                    }
                    _ => Pred::Expr(pred),
                }
            }
            _ => Pred::Expr(pred),
        },
        Expr::Call { name, args } => match (name.as_str(), args.as_slice()) {
            ("contains" | "starts-with", [s, Expr::Literal(needle)]) if is_context_string(s) => {
                Pred::Text { starts_with: name == "starts-with", needle }
            }
            _ => Pred::Expr(pred),
        },
        _ => Pred::Expr(pred),
    }
}

/// `haystack.contains(needle)` for the short strings a predicate tests: a
/// scan for the needle's first byte, where `str::contains` builds a
/// searcher per call. Bytes match where characters do, since UTF-8 is
/// self-synchronising.
fn contains(haystack: &str, needle: &str) -> bool {
    let h = haystack.as_bytes();
    match needle.as_bytes() {
        [] => true,
        [first, rest @ ..] => {
            h.iter().enumerate().any(|(i, b)| b == first && h[i + 1..].starts_with(rest))
        }
    }
}

/// The item `[k]` keeps: `k` itself when it is a positive integer, else 0,
/// which no position equals.
fn nth(k: f64) -> usize {
    if k >= 1.0 && k.fract() == 0.0 {
        k as usize
    } else {
        0
    }
}

/// `.`, `string(.)` or `string()`: the context item's string-value.
fn is_context_string(e: &Expr) -> bool {
    match e {
        Expr::Call { name, args } if name == "string" => match args.as_slice() {
            [] => true,
            [arg] => is_dot(arg),
            _ => false,
        },
        _ => is_dot(e),
    }
}

/// `.` (or `self::node()`) as an expression.
fn is_dot(e: &Expr) -> bool {
    match e {
        Expr::Path { start: PathStart::Context, steps } => {
            matches!(steps.as_slice(), [step] if is_self_node(step))
        }
        _ => false,
    }
}

/// How many of a step's predicates are lowered in place.
const LOWERED: usize = 4;

/// A step's predicates, lowered once per step without allocating: the
/// first [`LOWERED`] are held in place, any further ones run through
/// [`Evaluator::holds`].
struct Preds<'a> {
    all: &'a [Expr],
    lowered: [Pred<'a>; LOWERED],
}

impl<'a> Preds<'a> {
    fn new(all: &'a [Expr]) -> Preds<'a> {
        // Slots past `all.len()` are never read.
        let mut lowered = [Pred::Nth(0); LOWERED];
        for (slot, pred) in lowered.iter_mut().zip(all) {
            *slot = lower(pred);
        }
        Preds { all, lowered }
    }

    fn len(&self) -> usize {
        self.all.len()
    }

    /// The `i`-th predicate, lowered.
    fn get(&self, i: usize) -> Pred<'a> {
        match self.lowered.get(i) {
            Some(&pred) => pred,
            None => Pred::Expr(&self.all[i]),
        }
    }
}

/// The error an axis other than `self` and `parent` raises from an
/// attribute context item.
fn not_from_an_attribute(axis: Axis) -> XPathError {
    XPathError::Eval(format!("the {axis} axis does not apply to an attribute"))
}

/// Whether an attribute named `q` passes an attribute step's node test. A
/// prefix compares as written: on an attribute it names no hierarchy.
fn attr_test(test: &NodeTest, q: &QName) -> bool {
    match test {
        NodeTest::Any | NodeTest::Node => true,
        NodeTest::Name { hierarchy, local } => {
            q.local == *local && hierarchy.as_deref().is_none_or(|p| q.prefix.as_deref() == Some(p))
        }
        NodeTest::AnyInHierarchy(p) => q.prefix.as_deref() == Some(p.as_str()),
        NodeTest::Text => false,
    }
}

/// `self::node()` with no predicates — the identity step `.`.
fn is_self_node(step: &Step) -> bool {
    step.axis == Axis::SelfAxis && step.test == NodeTest::Node && step.predicates.is_empty()
}

/// Whether `step` is `self::node()[p…]`, which keeps an attribute context
/// item its predicates accept.
fn keeps_an_attribute(step: &Step) -> bool {
    step.axis == Axis::SelfAxis && step.test == NodeTest::Node
}

/// Whether `step, next` is `descendant-or-self::node()/child::T[p…]`, what
/// `//T[p…]` parses to.
fn is_double_slash(step: &Step, next: &Step) -> bool {
    step.axis == Axis::DescendantOrSelf
        && step.test == NodeTest::Node
        && step.predicates.is_empty()
        && next.axis == Axis::Child
}

/// Whether `step, next` is a `//T[p…]` that evaluates as the single step
/// `descendant::T[p…]`: `T` names elements or text, and no predicate can
/// see its position among a parent's children.
fn fuses(step: &Step, next: &Step) -> bool {
    is_double_slash(step, next)
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

    /// Every spelling [`lower`] turns into an operator, and a few it
    /// leaves to [`Evaluator::holds`].
    const LOWERED_SPELLINGS: [&str; 22] = [
        "1",
        "3",
        "0",
        "2.5",
        "position()=2",
        "2=position()",
        "position()=2.5",
        "@n='3'",
        "'3'=@n",
        "@n!='3'",
        "@*='3'",
        "@x:n='1'",
        "@x:*!='1'",
        "@node()='2'",
        "@text()='2'",
        "contains(string(.), 'th')",
        "contains(., 'e')",
        "contains(string(), '')",
        "starts-with(string(), 't')",
        "starts-with(., '')",
        "starts-with(string(.), 'th')",
        "starts-with(self::node(), 'o')",
    ];
    const HELD_SPELLINGS: [&str; 8] = [
        "-1",
        "position()!=2",
        "@n",
        "@n[1]='3'",
        "@n='3' and @n",
        "contains(string(..), 'a')",
        "contains(string(., .), 'a')",
        "starts-with(name(), 'w')",
    ];

    /// A generated manuscript, then edited: prefixed attributes, a wrapper
    /// over words, a removed element, a milestone and a word's text deleted.
    fn edited(src: &mut corpus::gen::Source) -> Vec<Goddag> {
        let params = corpus::Params {
            seed: src.below(1 << 32),
            words_per_sentence: 3 + src.index(5),
            words_per_line: 2 + src.index(5),
            ..corpus::Params::sized(8 + src.index(24))
        };
        let mut g = corpus::generate(&params).goddag;
        let mut out = vec![g.clone()];
        let ws = g.find_elements("w");
        for &w in ws.iter().step_by(1 + src.index(3)) {
            g.set_attr(w, "x:n", &(1 + src.index(3)).to_string()).unwrap();
        }
        let ling = g.hierarchy_by_name("ling").unwrap();
        let words_of = |s: NodeId| -> Vec<NodeId> {
            g.element_children(s).iter().copied().filter(|&c| g.is_element(c)).collect()
        };
        if let Some(pair) = g.find_elements("s").into_iter().map(words_of).find(|w| w.len() >= 2) {
            let (from, to) = (g.char_range(pair[0]).0, g.char_range(pair[1]).1);
            g.insert_element(ling, QName::parse("phrase").unwrap(), vec![], from, to).unwrap();
        }
        g.remove_element(ws[src.index(ws.len())]).unwrap();
        let ws = g.find_elements("w");
        let at = g.char_range(ws[src.index(ws.len())]).0;
        g.insert_element(ling, QName::parse("pb").unwrap(), vec![], at, at).unwrap();
        out.push(g.clone());
        let (start, end) = g.char_range(ws[src.index(ws.len())]);
        g.delete_text(start, end).unwrap();
        out.push(g);
        out
    }

    #[test]
    fn lowered_predicates_agree_with_holds() {
        let lowered: Vec<Expr> = LOWERED_SPELLINGS.iter().map(|p| parse(p).unwrap()).collect();
        let held: Vec<Expr> = HELD_SPELLINGS.iter().map(|p| parse(p).unwrap()).collect();
        for (spelling, pred) in LOWERED_SPELLINGS.iter().zip(&lowered) {
            assert!(!matches!(lower(pred), Pred::Expr(_)), "{spelling} is not lowered");
        }
        for (spelling, pred) in HELD_SPELLINGS.iter().zip(&held) {
            assert!(matches!(lower(pred), Pred::Expr(_)), "{spelling} is lowered");
        }
        corpus::gen::check("lowered_predicates_agree_with_holds", 12, |src| {
            for g in edited(src) {
                let ev = Evaluator::new(&g);
                let nodes: Vec<NodeId> = std::iter::once(g.root())
                    .chain(g.elements())
                    .chain(g.leaves().iter().copied())
                    .collect();
                let attrs: Vec<AttrRef> = g
                    .elements()
                    .flat_map(|element| {
                        (0..g.attrs(element).len()).map(move |index| AttrRef { element, index })
                    })
                    .collect();
                let items = nodes
                    .iter()
                    .map(|&n| Item::Node(n))
                    .chain(attrs.iter().map(|&a| Item::Attr(a)));
                for pred in lowered.iter().chain(&held) {
                    let op = lower(pred);
                    for item in items.clone() {
                        for (position, size) in [(1, 1), (1, 3), (2, 3), (3, 3)] {
                            let ctx = EvalCtx { item, position, size };
                            assert_eq!(
                                ev.accepts(op, item, position, size),
                                ev.holds(pred, &ctx),
                                "[{pred}] on {item:?} at {position} of {size}"
                            );
                        }
                    }
                    // Whole lists, as steps filter them: `[k]` picks without
                    // evaluating.
                    for &n in &nodes {
                        let mut fast = g.children(n);
                        let mut slow = fast.clone();
                        assert_eq!(
                            ev.filter(&mut fast, Item::Node, op).map(|()| fast),
                            ev.filter(&mut slow, Item::Node, Pred::Expr(pred)).map(|()| slow),
                            "[{pred}] over the children of {n:?}"
                        );
                    }
                    let mut fast = attrs.clone();
                    let mut slow = attrs.clone();
                    assert_eq!(
                        ev.filter(&mut fast, Item::Attr, op).map(|()| fast),
                        ev.filter(&mut slow, Item::Attr, Pred::Expr(pred)).map(|()| slow),
                        "[{pred}] over every attribute"
                    );
                }
            }
        });
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
    fn id_splits_on_whitespace_and_unions_a_node_set() {
        let mut g = fixture();
        let ws = g.find_elements("w");
        let dmg = g.find_elements("dmg")[0];
        g.set_attr(dmg, "xml:id", "d1").unwrap();
        g.set_attr(ws[0], "ref", "s1").unwrap();
        g.set_attr(ws[3], "ref", " d1\tnope ").unwrap();
        let s = g.find_elements("s")[0];
        assert_eq!(ev(&g).select("id('s1 d1')").unwrap(), [dmg, s]);
        assert_eq!(ev(&g).select("id(' s1 ')").unwrap(), [s]);
        assert_eq!(ev(&g).select("id(//w/@ref)").unwrap(), [dmg, s]);
        assert_eq!(ev(&g).select("id(//w[1]/@ref)").unwrap(), [s]);
        assert!(ev(&g).select("id('')").unwrap().is_empty());
        assert!(ev(&g).select("id(//nothing)").unwrap().is_empty());
    }

    #[test]
    fn round_takes_halves_towards_positive_infinity() {
        let g = fixture();
        let num = |q: &str| ev(&g).eval_str(q).unwrap().number_value(&g);
        assert_eq!(num("round(-1.5)"), -1.0);
        assert_eq!(num("round(2.5)"), 3.0);
        assert_eq!(num("round(-2.6)"), -3.0);
        for q in ["round(-0.5)", "round(-0.2)", "round(-0)"] {
            let r = num(q);
            assert!(r == 0.0 && r.is_sign_negative(), "{q} = {r}, want -0");
        }
        assert!(num("round(0 div 0)").is_nan());
        assert_eq!(num("round(1 div 0)"), f64::INFINITY);
    }

    #[test]
    fn strings_convert_to_numbers_by_xpath_rules() {
        let g = fixture();
        let val = |q: &str| ev(&g).eval_str(q).unwrap();
        for q in [
            "number('1e3')",
            "number('+5')",
            "number('inf')",
            "number('Infinity')",
            "number('-infinity')",
            "number('NaN')",
            "number('')",
            "sum(//w/@type)",
        ] {
            assert!(val(q).number_value(&g).is_nan(), "{q}");
        }
        for q in [
            "'infinity' = 1 div 0",
            "'1e3' = 1000",
            "'+5' = 5",
            "'1e3' > 999",
            "//w/@type = 0 div 0",
        ] {
            assert_eq!(val(q), Value::Bool(false), "{q}");
        }
        assert_eq!(val("number(' 12 ')"), Value::Number(12.0));
        assert_eq!(val("number('-.5')"), Value::Number(-0.5));
        assert_eq!(val("'2' = 2.0"), Value::Bool(true));
        assert_eq!(val("//line/@n = 2"), Value::Bool(true));
        assert_eq!(val("//line/@n != 2"), Value::Bool(true));
        assert_eq!(ev(&g).select("//line[@n = 2]").unwrap().len(), 1);
    }

    #[test]
    fn substring_positions_are_computed_in_f64() {
        let g = fixture();
        for (q, want) in [
            ("substring('12345', -1 div 0, 1 div 0)", ""),
            ("substring('12345', 2, -1 div 0)", ""),
            ("substring('12345', 0 div 0)", ""),
            ("substring('12345', 0 div 0, 3)", ""),
            ("substring('12345', 1, 0 div 0)", ""),
            ("substring('12345', 1.5, 2.6)", "234"),
            ("substring('12345', 0, 3)", "12"),
            ("substring('12345', -42, 1 div 0)", "12345"),
            ("substring('12345', -1 div 0)", "12345"),
            ("substring('12345', 2)", "2345"),
            ("substring('12345', 9)", ""),
            ("substring('aé€b', 2, 2)", "é€"),
            ("substring(//line[2], 3, 4)", "ree "),
            ("substring-before(//line[2], ' ')", "three"),
            ("substring-after(//line[2], ' ')", "four"),
            ("substring-after(//line[2], 'x')", ""),
        ] {
            assert_eq!(ev(&g).eval_str(q).unwrap(), Value::Str(want.into()), "{q}");
        }
    }

    #[test]
    fn string_functions_read_the_context_node() {
        let g = fixture();
        let words = |q: &str| -> Vec<String> {
            ev(&g).select(q).unwrap().iter().map(|&n| g.text_of(n)).collect()
        };
        assert_eq!(words("//w[string-length() = 3]"), ["one", "two"]);
        assert_eq!(words("//w[normalize-space() = 'four']"), ["four"]);
        assert_eq!(words("//w[number() != number()]").len(), 4);
        assert_eq!(words("//w[starts-with(., 't')]"), ["two", "three"]);
        assert_eq!(words("//w[local-name() = 'w' and name() = 'w']").len(), 4);
        assert_eq!(words("//*[hierarchy() = 'phys']").len(), 2);
        assert_eq!(
            ev(&g).eval_str("normalize-space(' a  b\tc ')").unwrap(),
            Value::Str("a b c".into())
        );
        assert_eq!(
            ev(&g).eval_str("concat(1, true(), 'x', //w)").unwrap(),
            Value::Str("1truexone".into())
        );
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

    #[test]
    fn a_union_of_attribute_sets_is_deduplicated() {
        let g = corpus::figure1::goddag();
        let value = |q: &str| ev(&g).eval_str(q).unwrap();
        assert_eq!(value("count(//line/@n)"), Value::Number(2.0));
        assert_eq!(value("count(//line/@n | //line/@n)"), Value::Number(2.0));
        assert_eq!(value("sum(//line/@n | //line/@n)"), value("sum(//line/@n)"));
    }

    #[test]
    fn a_set_compared_with_a_boolean_compares_its_boolean() {
        let g = corpus::figure1::goddag();
        let holds = |q: &str| ev(&g).eval_str(q).unwrap() == Value::Bool(true);
        assert!(!holds("//line/@n > true()"));
        assert!(holds("//line/@n >= true()"));
        assert!(!holds("true() < //line/@n"));
        assert!(holds("false() < //line/@n"));
        assert!(!holds("//nothing > false()"));
        assert!(holds("//nothing <= false()"));
        // Set against number, set against set and two scalars are unchanged.
        assert!(holds("//line/@n > 1"));
        assert!(!holds("//line/@n > 2"));
        assert!(holds("1 < //line/@n"));
        assert!(holds("//line/@n < //line/@n"));
        assert!(holds("true() > 0"));
        assert!(!holds("true() > '1'"));
    }
}
