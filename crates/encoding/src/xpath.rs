//! A parser and evaluator for the XPath 1.0 subset the reproduction's
//! examples and benchmarks use.
//!
//! Supported grammar (location paths only):
//!
//! ```text
//! path     := '/'? step ( '/' step | '//' step )*   |  '//' step ...
//! step     := axis '::' test preds | '@' name preds | '..' | '.' | test preds
//! axis     := child | descendant | descendant-or-self | parent | ancestor
//!           | following | preceding | following-sibling | preceding-sibling
//!           | attribute | self
//! test     := name | '*' | 'text()' | 'node()'
//! preds    := ( '[' pred ']' )*
//! pred     := integer                (1-based position)
//!           | '@' name '=' '"' v '"' (attribute equality)
//! ```
//!
//! `//` between steps abbreviates `descendant-or-self::node()/` as in the
//! XPath spec. Results are node sets in document order with duplicates
//! eliminated — the behaviour §2.2 of the paper derives the uniqueness
//! requirement for labels from.

use crate::preorder::{row_in_extents, PreorderIndex};
use std::fmt;
use xupd_xmldom::{NodeKind, XmlTree};

/// XPath axes supported by the evaluator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// `child::`
    Child,
    /// `descendant::`
    Descendant,
    /// `descendant-or-self::`
    DescendantOrSelf,
    /// `parent::`
    Parent,
    /// `ancestor::`
    Ancestor,
    /// `following::`
    Following,
    /// `preceding::`
    Preceding,
    /// `following-sibling::`
    FollowingSibling,
    /// `preceding-sibling::`
    PrecedingSibling,
    /// `attribute::`
    Attribute,
    /// `self::`
    SelfAxis,
}

/// Node tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeTest {
    /// A name test (element or attribute name).
    Name(String),
    /// `*` — any element (or any attribute on the attribute axis).
    Any,
    /// `text()`.
    Text,
    /// `node()` — any node.
    AnyNode,
}

/// Step predicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Pred {
    /// `[k]` — 1-based position within the step's result for one context
    /// node.
    Position(usize),
    /// `[@name="value"]`.
    AttrEq(String, String),
}

/// One location step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// The axis.
    pub axis: Axis,
    /// The node test.
    pub test: NodeTest,
    /// Predicates, applied in order.
    pub preds: Vec<Pred>,
}

/// A parsed XPath expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XPathExpr {
    steps: Vec<Step>,
}

/// XPath parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XPathError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for XPathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "XPath error: {}", self.message)
    }
}

impl std::error::Error for XPathError {}

fn err(m: impl Into<String>) -> XPathError {
    XPathError { message: m.into() }
}

/// Parse an absolute XPath location path.
pub fn parse_xpath(input: &str) -> Result<XPathExpr, XPathError> {
    let input = input.trim();
    if input.is_empty() {
        return Err(err("empty expression"));
    }
    if !input.starts_with('/') {
        return Err(err("only absolute paths are supported"));
    }
    let mut steps = Vec::new();
    let mut rest = input;
    while !rest.is_empty() {
        let descendant = if let Some(r) = rest.strip_prefix("//") {
            rest = r;
            true
        } else if let Some(r) = rest.strip_prefix('/') {
            rest = r;
            false
        } else {
            return Err(err(format!("expected '/' at '{rest}'")));
        };
        if rest.is_empty() {
            return Err(err("trailing '/'"));
        }
        let end = step_end(rest);
        let (raw_step, tail) = rest.split_at(end);
        rest = tail;
        if descendant {
            steps.push(Step {
                axis: Axis::DescendantOrSelf,
                test: NodeTest::AnyNode,
                preds: Vec::new(),
            });
        }
        steps.push(parse_step(raw_step)?);
    }
    Ok(XPathExpr { steps })
}

fn parse_step(raw: &str) -> Result<Step, XPathError> {
    let (head, preds) = split_predicates(raw)?;
    let preds = preds
        .into_iter()
        .map(|p| parse_pred(&p))
        .collect::<Result<Vec<_>, _>>()?;
    if head == ".." {
        return Ok(Step {
            axis: Axis::Parent,
            test: NodeTest::AnyNode,
            preds,
        });
    }
    if head == "." {
        return Ok(Step {
            axis: Axis::SelfAxis,
            test: NodeTest::AnyNode,
            preds,
        });
    }
    if let Some(name) = head.strip_prefix('@') {
        return Ok(Step {
            axis: Axis::Attribute,
            test: if name == "*" {
                NodeTest::Any
            } else {
                NodeTest::Name(name.to_string())
            },
            preds,
        });
    }
    let (axis, test_str) = match head.split_once("::") {
        Some((a, t)) => {
            let axis = match a {
                "child" => Axis::Child,
                "descendant" => Axis::Descendant,
                "descendant-or-self" => Axis::DescendantOrSelf,
                "parent" => Axis::Parent,
                "ancestor" => Axis::Ancestor,
                "following" => Axis::Following,
                "preceding" => Axis::Preceding,
                "following-sibling" => Axis::FollowingSibling,
                "preceding-sibling" => Axis::PrecedingSibling,
                "attribute" => Axis::Attribute,
                "self" => Axis::SelfAxis,
                other => return Err(err(format!("unknown axis '{other}'"))),
            };
            (axis, t)
        }
        None => (Axis::Child, head),
    };
    let test = match test_str {
        "*" => NodeTest::Any,
        "text()" => NodeTest::Text,
        "node()" => NodeTest::AnyNode,
        name if !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_alphanumeric() || c == '_' || c == '-' || c == ':' || c == '.') =>
        {
            NodeTest::Name(name.to_string())
        }
        other => return Err(err(format!("bad node test '{other}'"))),
    };
    Ok(Step { axis, test, preds })
}

/// Byte length of the leading location step of `rest`: everything up to
/// the first `/` that is neither inside a `[...]` predicate nor inside a
/// quoted predicate value (so `//item[@href="a/b"]/name` splits after
/// the closing `]`, not inside the URL).
fn step_end(rest: &str) -> usize {
    let mut quote: Option<char> = None;
    let mut depth = 0usize;
    for (i, c) in rest.char_indices() {
        match quote {
            Some(q) => {
                if c == q {
                    quote = None;
                }
            }
            None => match c {
                '"' | '\'' if depth > 0 => quote = Some(c),
                '[' => depth += 1,
                ']' => depth = depth.saturating_sub(1),
                '/' if depth == 0 => return i,
                _ => {}
            },
        }
    }
    rest.len()
}

/// Index of the first unquoted `]` in `s` — a `]` inside a `"..."` or
/// `'...'` predicate value (e.g. `[@id="a]b"]`) is literal content, not
/// the predicate terminator.
fn find_closing_bracket(s: &str) -> Option<usize> {
    let mut quote: Option<char> = None;
    for (i, c) in s.char_indices() {
        match quote {
            Some(q) => {
                if c == q {
                    quote = None;
                }
            }
            None => match c {
                '"' | '\'' => quote = Some(c),
                ']' => return Some(i),
                _ => {}
            },
        }
    }
    None
}

fn split_predicates(raw: &str) -> Result<(&str, Vec<String>), XPathError> {
    match raw.find('[') {
        None => Ok((raw, Vec::new())),
        Some(i) => {
            let head = &raw[..i];
            let mut preds = Vec::new();
            let mut rest = &raw[i..];
            while !rest.is_empty() {
                if !rest.starts_with('[') {
                    return Err(err(format!("expected '[' at '{rest}'")));
                }
                let close = find_closing_bracket(rest).ok_or_else(|| err("missing ']'"))?;
                preds.push(rest[1..close].to_string());
                rest = &rest[close + 1..];
            }
            Ok((head, preds))
        }
    }
}

fn parse_pred(raw: &str) -> Result<Pred, XPathError> {
    let raw = raw.trim();
    if let Ok(k) = raw.parse::<usize>() {
        if k == 0 {
            return Err(err("positions are 1-based"));
        }
        return Ok(Pred::Position(k));
    }
    if let Some(rest) = raw.strip_prefix('@') {
        let (name, value) = rest
            .split_once('=')
            .ok_or_else(|| err(format!("bad predicate '{raw}'")))?;
        let value = value.trim();
        let value = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .or_else(|| value.strip_prefix('\'').and_then(|v| v.strip_suffix('\'')))
            .ok_or_else(|| err("predicate value must be quoted"))?;
        return Ok(Pred::AttrEq(name.trim().to_string(), value.to_string()));
    }
    Err(err(format!("unsupported predicate '{raw}'")))
}

impl XPathExpr {
    /// The parsed steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Evaluate against `tree`'s preorder index, returning row indices
    /// in document order, duplicates eliminated (§2.2: XPath operators
    /// "eliminate duplicate nodes from their result sequences based on
    /// node identity" and return document order). Structure comes from
    /// the index and node tests read each row's kind from `tree` by
    /// source id, so `doc` must describe `tree` as it is.
    ///
    /// The evaluator streams: name-test steps on the `descendant`,
    /// `descendant-or-self` and `child` axes intersect [`NameIndex`]
    /// buckets with the context's pre-order extent range via binary
    /// search instead of enumerating the axis; every axis fills one
    /// reused scratch buffer per step (no per-context allocation); and
    /// the per-step `sort`+`dedup` is skipped whenever the contexts
    /// emitted their candidates in strictly increasing document order —
    /// the common case for downward axes over disjoint subtrees.
    ///
    /// [`NameIndex`]: crate::index::NameIndex
    pub fn evaluate(&self, tree: &XmlTree, doc: &PreorderIndex) -> Vec<usize> {
        self.evaluate_from(tree, doc, doc.root())
    }

    /// Evaluate the steps with row `start` as the initial context
    /// instead of the document root — how a path relative to a context
    /// node resolves. Same contract as [`evaluate`](Self::evaluate):
    /// rows in document order, duplicates eliminated.
    pub fn evaluate_from(&self, tree: &XmlTree, doc: &PreorderIndex, start: usize) -> Vec<usize> {
        eval_plan(&fuse_steps(&self.steps), tree, doc, start, None)
    }

    /// Compile the reusable evaluation form: the fused step plan plus
    /// the static access pattern (distinct name tests, axis shape,
    /// predicate shape) that both the evaluator and the incremental
    /// query cache's impact analysis consume. Compiling once amortizes
    /// the per-call step fusion and name collection
    /// [`evaluate`](Self::evaluate) redoes on every invocation.
    pub fn access_pattern(&self) -> AccessPattern {
        AccessPattern::compile(&self.steps)
    }
}

/// The compiled, reusable form of an [`XPathExpr`]: the fused
/// evaluation plan plus the statically-derived facts a cache
/// invalidation layer needs — which element/attribute names the query
/// can ever touch, and whether a scoped re-evaluation inside touched
/// extents is a sound repair strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessPattern {
    plan: Vec<Step>,
    element_names: Vec<String>,
    attribute_names: Vec<String>,
    repair_safe: bool,
    fully_named: bool,
    has_positional: bool,
}

impl AccessPattern {
    fn compile(steps: &[Step]) -> AccessPattern {
        let plan = fuse_steps(steps);
        let mut element_names = Vec::new();
        let mut attribute_names = Vec::new();
        let mut repair_safe = true;
        let mut fully_named = true;
        let mut has_positional = false;
        for step in &plan {
            // A step that leaves the context's subtree reads nodes a
            // scoped re-evaluation never visits.
            if !matches!(
                step.axis,
                Axis::Child
                    | Axis::Descendant
                    | Axis::DescendantOrSelf
                    | Axis::Attribute
                    | Axis::SelfAxis
            ) {
                repair_safe = false;
            }
            match (&step.test, step.axis) {
                (NodeTest::Name(n), Axis::Attribute) => attribute_names.push(n.clone()),
                (NodeTest::Name(n), _) => element_names.push(n.clone()),
                _ => fully_named = false,
            }
            for p in &step.preds {
                match p {
                    Pred::Position(_) => {
                        has_positional = true;
                        if matches!(step.axis, Axis::Descendant | Axis::DescendantOrSelf) {
                            // A `[k]` on a subtree-wide axis couples the
                            // selection to every matching descendant of
                            // the context: an edit inside a touched
                            // region can move the k-th pick to a node
                            // outside it, so scoped re-evaluation is not
                            // a sound repair for this query.
                            repair_safe = false;
                        }
                    }
                    Pred::AttrEq(name, _) => attribute_names.push(name.clone()),
                }
            }
        }
        element_names.sort();
        element_names.dedup();
        attribute_names.sort();
        attribute_names.dedup();
        AccessPattern {
            plan,
            element_names,
            attribute_names,
            repair_safe,
            fully_named,
            has_positional,
        }
    }

    /// The fused evaluation plan.
    pub fn plan(&self) -> &[Step] {
        &self.plan
    }

    /// Distinct element names tested anywhere in the plan, sorted.
    pub fn element_names(&self) -> &[String] {
        &self.element_names
    }

    /// Distinct attribute names the plan reads (attribute-axis name
    /// tests and `[@name="v"]` predicates), sorted.
    pub fn attribute_names(&self) -> &[String] {
        &self.attribute_names
    }

    /// Is [`evaluate_within`](Self::evaluate_within) a sound repair for
    /// this query? True when every step stays inside the context's
    /// subtree (child, descendant, descendant-or-self, attribute and
    /// self axes only) and no positional predicate sits on a
    /// subtree-wide axis.
    pub fn repair_safe(&self) -> bool {
        self.repair_safe
    }

    /// Every plan step carries a concrete name test — the precondition
    /// for deciding impact from name occurrence alone.
    pub fn fully_named(&self) -> bool {
        self.fully_named
    }

    /// Any step carries a positional `[k]` predicate.
    pub fn has_positional(&self) -> bool {
        self.has_positional
    }

    /// Evaluate the compiled plan — identical results to
    /// [`XPathExpr::evaluate`], without re-fusing the steps.
    pub fn evaluate(&self, tree: &XmlTree, doc: &PreorderIndex) -> Vec<usize> {
        eval_plan(&self.plan, tree, doc, doc.root(), None)
    }

    /// Evaluate the plan scoped to the sorted, disjoint half-open row
    /// intervals `extents`: returns exactly the members of the full
    /// result that fall inside `extents`, pruning every context whose
    /// subtree misses all of them.
    ///
    /// Sound only for [`repair_safe`](Self::repair_safe) patterns: with
    /// downward axes the chain from the root to any result inside an
    /// extent passes only through contexts whose subtrees overlap that
    /// extent, and per-context predicate scratch stays complete because
    /// pruning never drops candidates within one context's step.
    pub fn evaluate_within(
        &self,
        tree: &XmlTree,
        doc: &PreorderIndex,
        extents: &[(usize, usize)],
    ) -> Vec<usize> {
        if extents.is_empty() {
            return Vec::new();
        }
        eval_plan(&self.plan, tree, doc, doc.root(), Some(extents))
    }
}

/// The streaming evaluator core shared by [`XPathExpr::evaluate_from`],
/// [`AccessPattern::evaluate`] and [`AccessPattern::evaluate_within`],
/// starting from the single context row `start`. With `within` set,
/// contexts whose subtree misses every interval are pruned after each
/// step and the final result keeps only rows inside the intervals.
///
/// A step without predicates runs its node test once per distinct
/// candidate, after the contexts' candidates are merged, sorted and
/// deduplicated: an axis whose candidates overlap across contexts
/// (`following-sibling::*` from each of k siblings) reads each row's
/// kind once, not once per context that reaches it. A step with
/// predicates tests per context, since `[k]` counts the matching
/// candidates of one context. The child, self and attribute axes and
/// the name-bucket fast paths test as they go, since their candidates
/// never repeat across contexts, and a row they tested is never read
/// again.
fn eval_plan(
    plan: &[Step],
    tree: &XmlTree,
    doc: &PreorderIndex,
    start: usize,
    within: Option<&[(usize, usize)]>,
) -> Vec<usize> {
    debug_assert_eq!(
        doc.revision(),
        tree.revision(),
        "index of another tree state"
    );
    let names = doc.name_index();
    let mut context: Vec<usize> = vec![start];
    let mut scratch: Vec<usize> = Vec::new();
    for (si, step) in plan.iter().enumerate() {
        // `node()` matches every row without reading it.
        let matches = |i: usize| {
            step.test == NodeTest::AnyNode
                || test_matches(tree.kind(doc.source_id(i)), step.axis, &step.test)
        };
        let mut next: Vec<usize> = Vec::new();
        let mut ordered = true;
        // Set when candidates were pushed untested, to be tested once
        // the step's union is deduplicated.
        let mut untested = false;
        for &ctx in &context {
            scratch.clear();
            let mut pre_tested = false;
            match (step.axis, &step.test) {
                // Indexed fast paths: the bucket holds exactly the
                // element rows with this name, in document order.
                (Axis::Descendant | Axis::DescendantOrSelf, NodeTest::Name(name)) => {
                    if step.axis == Axis::DescendantOrSelf && matches(ctx) {
                        scratch.push(ctx);
                    }
                    let bucket = names.elements(name);
                    let range = doc.descendant_range(ctx);
                    let lo = bucket.partition_point(|&i| (i as usize) < range.start);
                    let hi = bucket.partition_point(|&i| (i as usize) < range.end);
                    scratch.extend(rows(&bucket[lo..hi]));
                    pre_tested = true;
                }
                (Axis::Child, NodeTest::Name(name)) => {
                    let bucket = names.elements(name);
                    let range = doc.descendant_range(ctx);
                    let lo = bucket.partition_point(|&i| (i as usize) < range.start);
                    let hi = bucket.partition_point(|&i| (i as usize) < range.end);
                    let hits = &bucket[lo..hi];
                    // Walk whichever side is smaller: the name bucket
                    // restricted to the subtree, or the children,
                    // counted only up to the bucket's size. Children
                    // of distinct contexts never overlap, so testing
                    // them here tests each once.
                    if hits.is_empty() || doc.children(ctx).nth(hits.len() - 1).is_some() {
                        scratch.extend(rows(hits).filter(|&i| doc.parent(i) == Some(ctx)));
                    } else {
                        scratch.extend(doc.children(ctx).filter(|&i| matches(i)));
                    }
                    pre_tested = true;
                }
                _ => match step.axis {
                    // Children and selves of distinct contexts never
                    // overlap either: test them here, once each.
                    Axis::Child => {
                        scratch.extend(doc.children(ctx).filter(|&i| matches(i)));
                        pre_tested = true;
                    }
                    Axis::Descendant => scratch.extend(doc.descendant_range(ctx)),
                    Axis::DescendantOrSelf => {
                        scratch.push(ctx);
                        scratch.extend(doc.descendant_range(ctx));
                    }
                    Axis::Parent => scratch.extend(doc.parent(ctx)),
                    Axis::Ancestor => {
                        // Root first = ascending row order.
                        scratch.extend(doc.ancestors(ctx));
                        scratch.reverse();
                    }
                    Axis::Following => scratch.extend(doc.following(ctx)),
                    Axis::Preceding => scratch.extend(doc.preceding(ctx)),
                    Axis::FollowingSibling => {
                        scratch.extend(doc.following_siblings(ctx));
                    }
                    Axis::PrecedingSibling => {
                        scratch.extend(doc.preceding_siblings(ctx));
                    }
                    Axis::Attribute => {
                        // One read of each child's kind decides both
                        // the axis and the node test.
                        scratch.extend(doc.children(ctx).filter(|&j| {
                            let kind = tree.kind(doc.source_id(j));
                            kind.is_attribute() && test_matches(kind, step.axis, &step.test)
                        }));
                        pre_tested = true;
                    }
                    Axis::SelfAxis => {
                        scratch.extend(Some(ctx).filter(|&i| matches(i)));
                        pre_tested = true;
                    }
                },
            }
            if !pre_tested && step.test != NodeTest::AnyNode {
                if step.preds.is_empty() {
                    untested = true;
                } else {
                    scratch.retain(|&i| matches(i));
                }
            }
            for pred in &step.preds {
                match pred {
                    Pred::Position(k) => {
                        let kept = scratch.get(*k - 1).copied();
                        scratch.clear();
                        scratch.extend(kept);
                    }
                    Pred::AttrEq(name, value) => {
                        scratch.retain(|&i| {
                            doc.attribute_value(tree, i, name) == Some(value.as_str())
                        });
                    }
                }
            }
            for &c in &scratch {
                if ordered {
                    if let Some(&last) = next.last() {
                        if c <= last {
                            ordered = false;
                        }
                    }
                }
                next.push(c);
            }
        }
        if !ordered {
            next.sort_unstable();
            next.dedup();
        }
        if untested {
            next.retain(|&i| matches(i));
        }
        if let Some(extents) = within {
            if si + 1 == plan.len() {
                next.retain(|&i| row_in_extents(extents, i));
            } else {
                next.retain(|&i| doc.subtree_intersects(i, extents));
            }
        }
        context = next;
    }
    context
}

/// Fuse the `//` shorthand's step pair for evaluation: a
/// `descendant-or-self::node()` step (no predicates) directly followed
/// by a `child::T` step collapses to `descendant::T` — the classic
/// XPath identity. A node's parent lies in *subtree-or-self* of some
/// context `c` exactly when the node lies in the strict subtree of `c`,
/// so the result set, document order and duplicates all match the
/// two-step form.
///
/// The fusion is skipped when the child step carries a positional
/// predicate: `[k]` counts within each parent's children, which the
/// fused form cannot reproduce. Attribute-equality predicates are
/// per-node and fuse safely. The parsed [`XPathExpr::steps`] are left
/// untouched — this is an evaluation plan, not a rewrite.
fn fuse_steps(steps: &[Step]) -> Vec<Step> {
    let mut plan = Vec::with_capacity(steps.len());
    let mut i = 0;
    while i < steps.len() {
        let s = &steps[i];
        if s.axis == Axis::DescendantOrSelf
            && s.test == NodeTest::AnyNode
            && s.preds.is_empty()
            && i + 1 < steps.len()
        {
            let next = &steps[i + 1];
            if next.axis == Axis::Child
                && !next.preds.iter().any(|p| matches!(p, Pred::Position(_)))
            {
                plan.push(Step {
                    axis: Axis::Descendant,
                    test: next.test.clone(),
                    preds: next.preds.clone(),
                });
                i += 2;
                continue;
            }
        }
        plan.push(s.clone());
        i += 1;
    }
    plan
}

/// A `u32` row column widened to the evaluator's `usize` rows.
fn rows(slice: &[u32]) -> impl Iterator<Item = usize> + '_ {
    slice.iter().map(|&r| r as usize)
}

fn test_matches(kind: &NodeKind, axis: Axis, test: &NodeTest) -> bool {
    match test {
        NodeTest::AnyNode => true,
        NodeTest::Text => kind.is_text(),
        NodeTest::Any => {
            if axis == Axis::Attribute {
                kind.is_attribute()
            } else {
                kind.is_element()
            }
        }
        NodeTest::Name(name) => {
            if axis == Axis::Attribute {
                kind.is_attribute() && kind.name() == Some(name)
            } else {
                kind.is_element() && kind.name() == Some(name)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_workloads::docs;

    fn book() -> (XmlTree, PreorderIndex) {
        let tree = docs::book();
        let doc = PreorderIndex::encode(&tree).unwrap();
        (tree, doc)
    }

    fn names(tree: &XmlTree, doc: &PreorderIndex, rows: &[usize]) -> Vec<String> {
        rows.iter()
            .map(|&i| {
                let kind = tree.kind(doc.source_id(i));
                kind.name().unwrap_or("#text").to_string()
            })
            .collect()
    }

    #[test]
    fn simple_child_path() {
        let (tree, doc) = book();
        let r = parse_xpath("/book/publisher/editor/name")
            .unwrap()
            .evaluate(&tree, &doc);
        assert_eq!(names(&tree, &doc, &r), ["name"]);
        assert_eq!(doc.string_value(&tree, r[0]), "Destiny Image");
    }

    #[test]
    fn descendant_shorthand() {
        let (tree, doc) = book();
        let r = parse_xpath("//name").unwrap().evaluate(&tree, &doc);
        assert_eq!(names(&tree, &doc, &r), ["name"]);
        let all = parse_xpath("//*").unwrap().evaluate(&tree, &doc);
        assert_eq!(all.len(), 8, "eight elements in the sample document");
    }

    #[test]
    fn attribute_axis_and_shorthand() {
        let (tree, doc) = book();
        let r = parse_xpath("/book/title/@genre")
            .unwrap()
            .evaluate(&tree, &doc);
        assert_eq!(r.len(), 1);
        assert_eq!(tree.kind(doc.source_id(r[0])).value(), Some("Fantasy"));
        let r2 = parse_xpath("/book/title/attribute::*")
            .unwrap()
            .evaluate(&tree, &doc);
        assert_eq!(r, r2);
    }

    #[test]
    fn predicates() {
        let (tree, doc) = book();
        let r = parse_xpath("/book/publisher/editor/*[2]")
            .unwrap()
            .evaluate(&tree, &doc);
        assert_eq!(names(&tree, &doc, &r), ["address"]);
        let r = parse_xpath("//edition[@year=\"2004\"]")
            .unwrap()
            .evaluate(&tree, &doc);
        assert_eq!(names(&tree, &doc, &r), ["edition"]);
        let r = parse_xpath("//edition[@year=\"1999\"]")
            .unwrap()
            .evaluate(&tree, &doc);
        assert!(r.is_empty());
        // `[k]` counts only the candidates that pass the node test, on
        // axes whose first candidate does not: the test runs per
        // context when the step has a predicate.
        for (path, want) in [
            ("/book/title/following-sibling::publisher[1]", "publisher"),
            ("//name/ancestor::publisher[1]", "publisher"),
            ("/book/publisher/preceding-sibling::author[1]", "author"),
        ] {
            let r = parse_xpath(path).unwrap().evaluate(&tree, &doc);
            assert_eq!(names(&tree, &doc, &r), [want], "{path}");
        }
    }

    #[test]
    fn parent_ancestor_sibling_axes() {
        let (tree, doc) = book();
        let r = parse_xpath("//address/..").unwrap().evaluate(&tree, &doc);
        assert_eq!(names(&tree, &doc, &r), ["editor"]);
        let r = parse_xpath("//address/ancestor::*")
            .unwrap()
            .evaluate(&tree, &doc);
        assert_eq!(names(&tree, &doc, &r), ["book", "publisher", "editor"]);
        let r = parse_xpath("//name/following-sibling::*")
            .unwrap()
            .evaluate(&tree, &doc);
        assert_eq!(names(&tree, &doc, &r), ["address"]);
        let r = parse_xpath("//address/preceding-sibling::*")
            .unwrap()
            .evaluate(&tree, &doc);
        assert_eq!(names(&tree, &doc, &r), ["name"]);
    }

    #[test]
    fn following_preceding_axes() {
        let (tree, doc) = book();
        let r = parse_xpath("//author/following::*")
            .unwrap()
            .evaluate(&tree, &doc);
        assert_eq!(
            names(&tree, &doc, &r),
            ["publisher", "editor", "name", "address", "edition"]
        );
        let r = parse_xpath("//publisher/preceding::*")
            .unwrap()
            .evaluate(&tree, &doc);
        assert_eq!(names(&tree, &doc, &r), ["title", "author"]);
    }

    #[test]
    fn text_test() {
        let (tree, doc) = book();
        let r = parse_xpath("/book/title/text()")
            .unwrap()
            .evaluate(&tree, &doc);
        assert_eq!(r.len(), 1);
        assert_eq!(tree.kind(doc.source_id(r[0])).value(), Some("Wayfarer"));
    }

    #[test]
    fn results_in_document_order_without_duplicates() {
        let (tree, doc) = book();
        // both steps can reach the same nodes; dedup must apply
        let r = parse_xpath("//*/descendant-or-self::name")
            .unwrap()
            .evaluate(&tree, &doc);
        assert_eq!(names(&tree, &doc, &r), ["name"]);
        let r = parse_xpath("//*").unwrap().evaluate(&tree, &doc);
        for w in r.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn bracket_inside_quoted_predicate_value() {
        // A ']' inside a quoted value is literal content, not the
        // predicate terminator (regression: it used to truncate the
        // predicate at 'a').
        let e = parse_xpath("//item[@id=\"a]b\"]").unwrap();
        let step = e.steps().last().unwrap();
        assert_eq!(step.preds, [Pred::AttrEq("id".into(), "a]b".into())]);
        let e = parse_xpath("//item[@id='x]y']").unwrap();
        let step = e.steps().last().unwrap();
        assert_eq!(step.preds, [Pred::AttrEq("id".into(), "x]y".into())]);
        // unterminated predicate still errors
        assert!(parse_xpath("//item[@id=\"a]b\"").is_err());
        assert!(
            parse_xpath("//item[@id=\"a]").is_err(),
            "quote never closes"
        );
    }

    #[test]
    fn slash_inside_quoted_predicate_value() {
        // A '/' inside a quoted value or inside a predicate must not
        // split the step.
        let e = parse_xpath("//itemref[@href=\"a/b\"]/name").unwrap();
        let names: Vec<_> = e
            .steps()
            .iter()
            .filter_map(|s| match &s.test {
                NodeTest::Name(n) => Some(n.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(names, ["itemref", "name"]);
        let step = &e.steps()[e.steps().len() - 2];
        assert_eq!(step.preds, [Pred::AttrEq("href".into(), "a/b".into())]);
    }

    #[test]
    fn quoted_bracket_predicate_evaluates() {
        // End to end: an attribute value containing ']' is matchable.
        let mut tree = xupd_xmldom::XmlTree::new();
        let root = tree.create(xupd_xmldom::NodeKind::element("root"));
        tree.append_child(tree.root(), root).unwrap();
        let item = tree.create(xupd_xmldom::NodeKind::element("item"));
        tree.append_child(root, item).unwrap();
        let attr = tree.create(xupd_xmldom::NodeKind::attribute("id", "a]b"));
        tree.append_child(item, attr).unwrap();
        let doc = PreorderIndex::encode(&tree).unwrap();
        let r = parse_xpath("//item[@id=\"a]b\"]")
            .unwrap()
            .evaluate(&tree, &doc);
        assert_eq!(r.len(), 1);
        assert_eq!(tree.kind(doc.source_id(r[0])).name(), Some("item"));
        let none = parse_xpath("//item[@id=\"a\"]")
            .unwrap()
            .evaluate(&tree, &doc);
        assert!(none.is_empty());
    }

    #[test]
    fn access_pattern_classification() {
        let p = parse_xpath("//item[@id=\"a\"]/name")
            .unwrap()
            .access_pattern();
        assert!(p.repair_safe() && p.fully_named());
        assert_eq!(p.element_names(), ["item", "name"]);
        assert_eq!(p.attribute_names(), ["id"]);
        assert!(!p.has_positional());

        let p = parse_xpath("//address/ancestor::*")
            .unwrap()
            .access_pattern();
        assert!(!p.repair_safe(), "an upward step");
        assert!(!p.fully_named(), "wildcard step");

        let p = parse_xpath("/book/publisher/editor/*[2]")
            .unwrap()
            .access_pattern();
        assert!(p.repair_safe() && p.has_positional());
        assert!(!p.fully_named());

        let p = parse_xpath("/book/descendant::editor[1]")
            .unwrap()
            .access_pattern();
        assert!(!p.repair_safe(), "positional on a subtree-wide axis");
    }

    #[test]
    fn compiled_pattern_evaluates_identically_and_scopes() {
        let (tree, doc) = book();
        for q in [
            "//name",
            "/book/publisher/editor/*[2]",
            "//edition[@year=\"2004\"]",
            "/book/title/text()",
            "//*",
            "//address/ancestor::*",
        ] {
            let e = parse_xpath(q).unwrap();
            assert_eq!(
                e.access_pattern().evaluate(&tree, &doc),
                e.evaluate(&tree, &doc),
                "{q}"
            );
        }
        // scoped evaluation == full result intersected with the extents
        let e = parse_xpath("//name").unwrap();
        let pat = e.access_pattern();
        let full = e.evaluate(&tree, &doc);
        assert_eq!(pat.evaluate_within(&tree, &doc, &[(0, doc.len())]), full);
        assert!(pat.evaluate_within(&tree, &doc, &[]).is_empty());
        for &r in &full {
            assert_eq!(pat.evaluate_within(&tree, &doc, &[(r, doc.extent(r))]), [r]);
        }
        // an extent that misses every match scopes to nothing
        let title = parse_xpath("//title").unwrap().evaluate(&tree, &doc)[0];
        assert!(pat
            .evaluate_within(&tree, &doc, &[(title, doc.extent(title))])
            .is_empty());
    }

    /// Two `s` sections told apart by position and by `@id`, and an
    /// `x` under both the first `s` and `t`.
    fn sections() -> (XmlTree, PreorderIndex) {
        let tree =
            xupd_xmldom::parse(r#"<r><s id="1"><x>one</x></s><s id="2"/><t><x>two</x></t></r>"#)
                .unwrap();
        let doc = PreorderIndex::encode(&tree).unwrap();
        (tree, doc)
    }

    fn from(tree: &XmlTree, doc: &PreorderIndex, path: &str, start: usize) -> Vec<usize> {
        parse_xpath(path).unwrap().evaluate_from(tree, doc, start)
    }

    #[test]
    fn evaluate_from_the_root_row() {
        let (tree, doc) = sections();
        let root = doc.root();
        assert_eq!(
            names(&tree, &doc, &from(&tree, &doc, "/r/s", root)),
            ["s", "s"]
        );
        assert_eq!(
            names(&tree, &doc, &from(&tree, &doc, "//x", root)),
            ["x", "x"]
        );
        assert_eq!(from(&tree, &doc, "/r/s/x", root).len(), 1);
        assert!(from(&tree, &doc, "/r/missing", root).is_empty());
        // positional and attribute predicates
        assert_eq!(from(&tree, &doc, "/r/s[2]", root).len(), 1);
        assert!(from(&tree, &doc, "/r/s[3]", root).is_empty());
        assert_eq!(
            from(&tree, &doc, "/r/s[@id=\"2\"]", root),
            from(&tree, &doc, "/r/s[2]", root)
        );
        // text() and self steps
        let texts = from(&tree, &doc, "/r/s/x/text()", root);
        assert_eq!(texts.len(), 1);
        assert!(tree.kind(doc.source_id(texts[0])).is_text());
        assert_eq!(from(&tree, &doc, "/.", root), [root]);
        // sibling and upward axes
        let second = from(&tree, &doc, "/r/s[2]", root)[0];
        let prev = from(&tree, &doc, "/r/s[2]/preceding-sibling::*", root);
        assert_eq!(names(&tree, &doc, &prev), ["s"]);
        let anc = from(&tree, &doc, "/r/s[2]/ancestor::*", root);
        assert_eq!(names(&tree, &doc, &anc), ["r"]);
        assert_eq!(doc.parent(second), Some(anc[0]));
        for path in ["//x", "/r/s[2]/ancestor::*", "//*"] {
            let e = parse_xpath(path).unwrap();
            assert_eq!(
                e.evaluate_from(&tree, &doc, root),
                e.evaluate(&tree, &doc),
                "{path}"
            );
        }
    }

    #[test]
    fn evaluate_from_a_context_row() {
        let (tree, doc) = sections();
        let t = from(&tree, &doc, "/r/t", doc.root())[0];
        let xs = from(&tree, &doc, "/x", t);
        assert_eq!(names(&tree, &doc, &xs), ["x"]);
        assert_eq!(doc.parent(xs[0]), Some(t));
        // `.` is the context itself, and `//` stays inside its subtree
        assert_eq!(from(&tree, &doc, "/.", t), [t]);
        assert_eq!(from(&tree, &doc, "//x", t), xs);
        // upward and lateral steps leave it
        let first = from(&tree, &doc, "/r/s[1]", doc.root())[0];
        assert_eq!(
            names(
                &tree,
                &doc,
                &from(&tree, &doc, "/following-sibling::*", first)
            ),
            ["s", "t"]
        );
        assert_eq!(names(&tree, &doc, &from(&tree, &doc, "/..", first)), ["r"]);
    }

    #[test]
    fn parse_errors() {
        assert!(parse_xpath("").is_err());
        assert!(parse_xpath("book").is_err(), "relative paths unsupported");
        assert!(parse_xpath("/book/").is_err());
        assert!(parse_xpath("/book/unknown-axis::x").is_err());
        assert!(parse_xpath("/book[0]").is_err(), "positions are 1-based");
        assert!(parse_xpath("/book[@a=b]").is_err(), "unquoted value");
        assert!(parse_xpath("/book[").is_err());
    }
}
