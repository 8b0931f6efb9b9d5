//! The static checking pass: rejects ill-formed programs *before* any
//! document is touched, with span-carrying diagnostics.
//!
//! Two sub-passes:
//!
//! * **Shape** (F005, F009) — every path is checked against its
//!   [`XPathExpr::access_pattern`](xupd_encoding::XPathExpr::access_pattern)
//!   plan: `set` must end in a `text()` step, child-position inserts
//!   and `rename` must not target text nodes, attribute-axis steps are
//!   rejected everywhere (attribute nodes are not updatable through
//!   flux), and no statement may mutate the document root. Shape is
//!   context-free, so this pass recurses into `for` bodies.
//! * **Sequence** (F006, F007, F008) — write-after-delete, double
//!   text-slot writes and moves into their own subtree, detected over
//!   *literal* paths (chains of named child steps, optionally with a
//!   positional predicate, ending at an element or `text()` step).
//!   Because the DSL has snapshot semantics — every path resolves
//!   against the original tree and the whole program is one atomic
//!   [`MutationLog`](xupd_framework::MutationLog) — identical literal
//!   prefixes denote identical node sets, which makes the pass sound:
//!   every statically rejected program is also rejected by strict-
//!   match lowering, the shadow-simulation validator or atomic apply
//!   (the `no_false_accepts` property in `tests/flux_differential.rs`
//!   pins this). The sequence pass stays at the top level: `for`
//!   bodies may execute zero times, so conflicts through iteration are
//!   left to the validator.

use crate::ast::{InsertPos, PathArg, Stmt};
use crate::diag::Diagnostic;
use xupd_encoding::xpath::{Axis, NodeTest, Pred, Step};

/// Run the full static pass, returning every diagnostic in program
/// order.
pub fn check(stmts: &[Stmt]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    shape_walk(stmts, false, &mut diags);
    sequence_check(stmts, &mut diags);
    diags
}

// ---------- shape pass (F005 / F009) ----------------------------------

fn shape_walk(stmts: &[Stmt], ctx_is_root: bool, diags: &mut Vec<Diagnostic>) {
    for stmt in stmts {
        for path in stmt_paths(stmt) {
            if has_attribute_axis(path) {
                diags.push(Diagnostic::new(
                    "F005",
                    path.span,
                    format!(
                        "path {:?} selects attribute nodes, which cannot be \
                         updated through flux",
                        path.raw
                    ),
                ));
            }
        }
        match stmt {
            Stmt::Insert { pos, path, .. } => match pos {
                InsertPos::Into | InsertPos::FirstInto => {
                    if ends_in_text(path) {
                        diags.push(Diagnostic::new(
                            "F005",
                            path.span,
                            "cannot insert children into a text node",
                        ));
                    }
                }
                InsertPos::Before | InsertPos::After => {
                    if selects_root(path, ctx_is_root) {
                        diags.push(Diagnostic::new(
                            "F009",
                            path.span,
                            "cannot insert siblings of the document root",
                        ));
                    }
                }
            },
            Stmt::Delete { path, .. } | Stmt::Replace { path, .. } => {
                if selects_root(path, ctx_is_root) {
                    diags.push(Diagnostic::new(
                        "F009",
                        path.span,
                        format!("cannot {} the document root", stmt.keyword()),
                    ));
                }
            }
            Stmt::Rename { path, .. } => {
                if ends_in_text(path) {
                    diags.push(Diagnostic::new(
                        "F005",
                        path.span,
                        "rename targets elements, not text nodes",
                    ));
                }
                if selects_root(path, ctx_is_root) {
                    diags.push(Diagnostic::new(
                        "F009",
                        path.span,
                        "cannot rename the document root",
                    ));
                }
            }
            Stmt::Move {
                path, pos, dest, ..
            } => {
                if selects_root(path, ctx_is_root) {
                    diags.push(Diagnostic::new(
                        "F009",
                        path.span,
                        "cannot move the document root",
                    ));
                }
                match pos {
                    InsertPos::Into | InsertPos::FirstInto => {
                        if ends_in_text(dest) {
                            diags.push(Diagnostic::new(
                                "F005",
                                dest.span,
                                "cannot move children into a text node",
                            ));
                        }
                    }
                    InsertPos::Before | InsertPos::After => {
                        if selects_root(dest, ctx_is_root) {
                            diags.push(Diagnostic::new(
                                "F009",
                                dest.span,
                                "cannot insert siblings of the document root",
                            ));
                        }
                    }
                }
            }
            Stmt::Set { path, .. } => {
                if !ends_in_text(path) {
                    diags.push(Diagnostic::new(
                        "F005",
                        path.span,
                        format!("set target {:?} must end in a text() step", path.raw),
                    ));
                }
            }
            Stmt::For { path, body, .. } => {
                shape_walk(body, selects_root(path, ctx_is_root), diags);
            }
        }
    }
}

/// Every path argument a statement carries, for path-generic checks.
fn stmt_paths(stmt: &Stmt) -> Vec<&PathArg> {
    match stmt {
        Stmt::Insert { path, .. }
        | Stmt::Delete { path, .. }
        | Stmt::Replace { path, .. }
        | Stmt::Rename { path, .. }
        | Stmt::Set { path, .. }
        | Stmt::For { path, .. } => vec![path],
        Stmt::Move { path, dest, .. } => vec![path, dest],
    }
}

fn has_attribute_axis(path: &PathArg) -> bool {
    path.expr.steps().iter().any(|s| s.axis == Axis::Attribute)
}

fn ends_in_text(path: &PathArg) -> bool {
    // The raw last step is enough — plan fusion never rewrites the
    // final node test (and `AccessPattern::compile` per call would
    // allocate the whole plan just to look at one step).
    matches!(
        path.expr.steps().last(),
        Some(Step {
            test: NodeTest::Text,
            ..
        })
    )
}

/// Whether the path can only resolve to the document root: every step
/// is a `self::` step and, for a relative path, the context node is
/// itself known to be the root.
fn selects_root(path: &PathArg, ctx_is_root: bool) -> bool {
    if path.relative && !ctx_is_root {
        return false;
    }
    path.expr.steps().iter().all(|s| s.axis == Axis::SelfAxis)
}

// ---------- sequence pass (F006 / F007 / F008) ------------------------

/// One step of a literal path: a named child step (optionally
/// positional), or the final `text()` step.
#[derive(Debug, Clone, PartialEq, Eq)]
enum LitStep {
    /// `name` or `name[k]`.
    Name(String, Option<usize>),
    /// `text()` or `text()[k]` — only ever last.
    Text(Option<usize>),
}

/// Extract the literal form of an absolute path: child-axis steps with
/// name tests (a final `text()` step allowed), predicates restricted
/// to at most one positional. Anything else — descendant steps,
/// attribute predicates, relative paths — returns `None` and the path
/// is exempt from sequence checking.
fn literal(path: &PathArg) -> Option<Vec<LitStep>> {
    if path.relative {
        return None;
    }
    let steps = path.expr.steps();
    let mut lit = Vec::with_capacity(steps.len());
    for (i, step) in steps.iter().enumerate() {
        if step.axis != Axis::Child {
            return None;
        }
        let pos = match step.preds.as_slice() {
            [] => None,
            [Pred::Position(k)] => Some(*k),
            _ => return None,
        };
        match &step.test {
            NodeTest::Name(name) => lit.push(LitStep::Name(name.clone(), pos)),
            NodeTest::Text if i + 1 == steps.len() => lit.push(LitStep::Text(pos)),
            _ => return None,
        }
    }
    Some(lit)
}

/// Is `p` a (non-strict) prefix of `q`? Steps must be identical —
/// `s` and `s[2]` are treated as incomparable, never equal.
fn is_prefix(p: &[LitStep], q: &[LitStep]) -> bool {
    p.len() <= q.len() && p.iter().zip(q).all(|(a, b)| a == b)
}

fn sequence_check(stmts: &[Stmt], diags: &mut Vec<Diagnostic>) {
    // (literal path, consumed-exactly-or-as-subtree, keyword) of every
    // earlier consuming statement.
    struct Consumed {
        lit: Vec<LitStep>,
        subtree: bool,
        keyword: &'static str,
    }
    let mut consumed: Vec<Consumed> = Vec::new();
    let mut text_writes: Vec<Vec<LitStep>> = Vec::new();

    for stmt in stmts {
        // `for` headers are not strict-match targets and body effects
        // depend on the iteration count — leave those to the validator.
        if matches!(stmt, Stmt::For { .. }) {
            continue;
        }
        for path in stmt_paths(stmt) {
            let Some(lit) = literal(path) else { continue };
            for c in &consumed {
                let hit = if c.subtree {
                    is_prefix(&c.lit, &lit)
                } else {
                    c.lit == lit
                };
                if hit {
                    diags.push(Diagnostic::new(
                        "F006",
                        path.span,
                        format!(
                            "path {:?} was consumed by an earlier `{}` statement",
                            path.raw, c.keyword
                        ),
                    ));
                    break;
                }
            }
        }
        match stmt {
            Stmt::Delete { path, .. } | Stmt::Replace { path, .. } => {
                if let Some(lit) = literal(path) {
                    consumed.push(Consumed {
                        lit,
                        subtree: true,
                        keyword: stmt.keyword(),
                    });
                }
            }
            Stmt::Rename { path, .. } => {
                // Rename re-parents the children under the replacement
                // element — only the renamed node itself is consumed.
                if let Some(lit) = literal(path) {
                    consumed.push(Consumed {
                        lit,
                        subtree: false,
                        keyword: "rename",
                    });
                }
            }
            Stmt::Set { path, .. } => {
                if let Some(lit) = literal(path) {
                    if text_writes.contains(&lit) {
                        diags.push(Diagnostic::new(
                            "F007",
                            path.span,
                            format!(
                                "text slot {:?} is already written by an \
                                 earlier `set` statement",
                                path.raw
                            ),
                        ));
                    } else {
                        text_writes.push(lit);
                    }
                }
            }
            Stmt::Move {
                path, pos, dest, ..
            } => {
                if let (Some(src), Some(dst)) = (literal(path), literal(dest)) {
                    let cycle = match pos {
                        InsertPos::Into | InsertPos::FirstInto => is_prefix(&src, &dst),
                        // Before/after a node strictly inside the moved
                        // subtree re-parents it into itself; before/after
                        // itself is position-dependent, so no claim.
                        InsertPos::Before | InsertPos::After => {
                            src.len() < dst.len() && is_prefix(&src, &dst)
                        }
                    };
                    if cycle {
                        diags.push(Diagnostic::new(
                            "F008",
                            dest.span,
                            format!(
                                "destination {:?} lies inside the moved \
                                 subtree {:?}",
                                dest.raw, path.raw
                            ),
                        ));
                    }
                }
            }
            Stmt::Insert { .. } | Stmt::For { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn codes(src: &str) -> Vec<&'static str> {
        let stmts = match parse(src) {
            Ok(s) => s,
            Err(d) => panic!("parse failed on {src:?}: {d}"),
        };
        check(&stmts).into_iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_programs_have_no_diagnostics() {
        assert!(codes("insert <m/> into /r/s; delete /r/t").is_empty());
        assert!(codes("set /r/s/text() to \"x\"; set /r/t/text() to \"y\"").is_empty());
        assert!(codes("for /r/s do insert <m/> into . end").is_empty());
    }

    #[test]
    fn f005_shapes() {
        assert_eq!(codes("set /r/s to \"x\""), ["F005"]);
        assert_eq!(codes("insert <m/> into /r/s/text()"), ["F005"]);
        assert_eq!(codes("rename /r/s/text() to x"), ["F005"]);
        assert_eq!(codes("delete /r/s/@id"), ["F005"]);
        assert_eq!(codes("move /r/s into /r/t/text()"), ["F005"]);
    }

    #[test]
    fn f009_root_mutations() {
        assert_eq!(codes("delete /."), ["F009"]);
        assert_eq!(codes("replace /. with <r/>"), ["F009"]);
        assert_eq!(codes("rename /. to r"), ["F009"]);
        assert_eq!(codes("insert <m/> before /."), ["F009"]);
        // Root mutation through a `for` context that is provably root.
        assert_eq!(codes("for /. do delete . end"), ["F009"]);
        // Inserting *into* the root passes: whether the result keeps one
        // document element is the validator's call (F020).
        assert!(codes("insert <m/> into /.").is_empty());
    }

    #[test]
    fn f006_write_after_delete() {
        assert_eq!(codes("delete /r/s; set /r/s/x/text() to \"v\""), ["F006"]);
        assert_eq!(
            codes("replace /r/s with <t/>; delete /r/s[1]"),
            [] as [&str; 0]
        );
        assert_eq!(codes("replace /r/s with <t/>; delete /r/s"), ["F006"]);
        assert_eq!(codes("rename /r/s to t; delete /r/s"), ["F006"]);
        // Rename does not consume the children.
        assert!(codes("rename /r/s to t; delete /r/s/x").is_empty());
        // Deleting an ancestor after a descendant is legal.
        assert!(codes("delete /r/s/x; delete /r/s").is_empty());
    }

    #[test]
    fn f007_double_text_write() {
        assert_eq!(
            codes("set /r/s/text() to \"a\"; set /r/s/text() to \"b\""),
            ["F007"]
        );
        assert!(codes("set /r/s[1]/text() to \"a\"; set /r/s[2]/text() to \"b\"").is_empty());
    }

    #[test]
    fn f008_move_into_own_subtree() {
        assert_eq!(codes("move /r/s into /r/s/x"), ["F008"]);
        assert_eq!(codes("move /r/s into /r/s"), ["F008"]);
        assert_eq!(codes("move /r/s before /r/s/x"), ["F008"]);
        // Before/after the node itself is position-dependent: no claim.
        assert!(codes("move /r/s after /r/s").is_empty());
        assert!(codes("move /r/s into /r/t").is_empty());
    }

    #[test]
    fn non_literal_paths_are_exempt_from_sequence_checks() {
        assert!(codes("delete //s; set /r/s/x/text() to \"v\"").is_empty());
        assert!(codes("delete /r/s; set //s/x/text() to \"v\"").is_empty());
    }
}
