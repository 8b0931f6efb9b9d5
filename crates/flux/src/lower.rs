//! Lowering: a checked flux program + a tree snapshot → a
//! [`MutationLog`].
//!
//! The DSL has **snapshot semantics** (as in XQuery Update / FLUX):
//! every path resolves against the tree as it was *before* the
//! program, statements never observe earlier statements' effects, and
//! the whole program becomes one atomic log. That keeps lowering a
//! pure function of `(program, tree)` and makes the static checker's
//! literal-prefix reasoning sound.
//!
//! Paths resolve on the document's [`PreorderIndex`] with the same
//! streaming evaluator every query uses
//! ([`XPathExpr::evaluate_from`](xupd_encoding::XPathExpr::evaluate_from)):
//! absolute paths start at the document row, relative ones at the
//! `for` context row, and each matched row names its tree node through
//! [`source_id`](PreorderIndex::source_id).
//!
//! **Strict match**: a direct statement target that resolves to the
//! empty set is a lowering error (F010) — silently doing nothing hides
//! typos, the classic argument for typed updates. Only `for` headers
//! may match zero nodes (iteration over an empty set is a no-op).
//!
//! Targets of `delete` / `replace` / `move` run through the covering
//! filter: when a match is a descendant of another match, the ancestor
//! subsumes it (deleting a subtree deletes its descendants), so only
//! subtree roots lower into mutations — nested matches never produce
//! self-conflicting logs.

use crate::ast::{InsertPos, PathArg, Stmt, TreeArg};
use crate::diag::{Diagnostic, Span};
use xupd_framework::{LogId, Mutation, MutationLog, NodeRef, Place, PreorderIndex};
use xupd_xmldom::{NodeId, XmlTree};

/// Lower `stmts` against `tree`, resolving paths on `index`, the
/// preorder index of `tree` — or report the first lowering error
/// (F010 no match, F011 target kind, F012 ambiguous destination). An
/// index made for another tree state is rejected first, as F020.
pub fn lower_in(
    stmts: &[Stmt],
    tree: &XmlTree,
    index: &PreorderIndex,
) -> Result<MutationLog, Diagnostic> {
    if index.revision() != tree.revision() {
        return Err(Diagnostic::new(
            "F020",
            Span::at("", 0, 0),
            "preorder index was made for another tree state",
        ));
    }
    let mut lo = Lowerer {
        tree,
        index,
        next_id: 0,
        log: MutationLog::new(),
    };
    lo.block(stmts, index.root())?;
    Ok(lo.log)
}

/// [`lower_in`] against a preorder index encoded from `tree` for this
/// call alone.
pub fn lower(stmts: &[Stmt], tree: &XmlTree) -> Result<MutationLog, Diagnostic> {
    let index = PreorderIndex::encode(tree)
        .map_err(|e| Diagnostic::new("F020", Span::at("", 0, 0), e.to_string()))?;
    lower_in(stmts, tree, &index)
}

/// The subtree roots among `rows` (in document order): every row inside
/// the subtree of an earlier kept row is dropped — the covering filter
/// `delete`/`replace`/`move` sources use so nested matches never lower
/// into self-conflicting mutations.
fn covering(index: &PreorderIndex, rows: &[usize]) -> Vec<NodeId> {
    let mut kept = Vec::with_capacity(rows.len());
    let mut end = 0;
    for &r in rows {
        if r >= end {
            kept.push(index.source_id(r));
            end = index.topology().extent(r);
        }
    }
    kept
}

struct Lowerer<'t> {
    tree: &'t XmlTree,
    index: &'t PreorderIndex,
    next_id: u32,
    log: MutationLog,
}

impl Lowerer<'_> {
    fn fresh(&mut self) -> LogId {
        let id = LogId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Resolve a path from context row `ctx` (used when relative) or
    /// the document row, as rows in document order.
    fn resolve(&self, path: &PathArg, ctx: usize) -> Vec<usize> {
        let start = if path.relative {
            ctx
        } else {
            self.index.root()
        };
        path.expr.evaluate_from(self.index, start)
    }

    /// Resolve a direct statement target: strict match (F010 on ∅).
    fn resolve_strict(&self, path: &PathArg, ctx: usize) -> Result<Vec<usize>, Diagnostic> {
        let rows = self.resolve(path, ctx);
        if rows.is_empty() {
            return Err(Diagnostic::new(
                "F010",
                path.span,
                format!("path {:?} matched no node", path.raw),
            ));
        }
        Ok(rows)
    }

    /// The tree nodes of `rows`.
    fn nodes(&self, rows: &[usize]) -> Vec<NodeId> {
        rows.iter().map(|&r| self.index.source_id(r)).collect()
    }

    /// Reject targets no statement may touch: the document root and
    /// attribute nodes (F011). `what` names the statement for the
    /// message.
    fn guard_target(&self, node: NodeId, path: &PathArg, what: &str) -> Result<(), Diagnostic> {
        if node == self.tree.root() {
            return Err(Diagnostic::new(
                "F011",
                path.span,
                format!("cannot {what} the document root"),
            ));
        }
        if self.tree.kind(node).is_attribute() {
            return Err(Diagnostic::new(
                "F011",
                path.span,
                format!("cannot {what} an attribute node"),
            ));
        }
        Ok(())
    }

    fn block(&mut self, stmts: &[Stmt], ctx: usize) -> Result<(), Diagnostic> {
        for stmt in stmts {
            self.stmt(stmt, ctx)?;
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt, ctx: usize) -> Result<(), Diagnostic> {
        match stmt {
            Stmt::Insert {
                tree, pos, path, ..
            } => {
                let targets = self.resolve_strict(path, ctx)?;
                for t in self.nodes(&targets) {
                    let place = self.anchor_place(*pos, t, path, "insert")?;
                    self.emit_fragment(tree, place)?;
                }
                Ok(())
            }
            Stmt::Delete { path, .. } => {
                let targets = self.resolve_strict(path, ctx)?;
                for t in covering(self.index, &targets) {
                    self.guard_target(t, path, "delete")?;
                    self.log.push(Mutation::Delete {
                        target: NodeRef::Node(t),
                    });
                }
                Ok(())
            }
            Stmt::Replace { path, tree, .. } => {
                let targets = self.resolve_strict(path, ctx)?;
                let froot = self.fragment_root(tree)?;
                for t in covering(self.index, &targets) {
                    self.guard_target(t, path, "replace")?;
                    let id = self.fresh();
                    let name = tree.tree.kind(froot).name().unwrap_or("").to_string();
                    self.log.push(Mutation::Replace {
                        target: NodeRef::Node(t),
                        id,
                        name,
                    });
                    self.emit_children(&tree.tree, froot, id)?;
                }
                Ok(())
            }
            Stmt::Rename { path, name, .. } => {
                let targets = self.resolve_strict(path, ctx)?;
                for t in self.nodes(&targets) {
                    self.guard_target(t, path, "rename")?;
                    if !self.tree.kind(t).is_element() {
                        return Err(Diagnostic::new(
                            "F011",
                            path.span,
                            format!("rename target {:?} is not an element", path.raw),
                        ));
                    }
                    // A fresh element takes the old node's position, the
                    // children re-parent under it, the old node goes.
                    let id = self.fresh();
                    self.log.push(Mutation::CreateElement {
                        id,
                        name: name.clone(),
                        place: Place::After(NodeRef::Node(t)),
                    });
                    for c in self.tree.children(t) {
                        self.log.push(Mutation::MoveSubtree {
                            target: NodeRef::Node(c),
                            place: Place::LastChildOf(NodeRef::New(id)),
                        });
                    }
                    self.log.push(Mutation::Delete {
                        target: NodeRef::Node(t),
                    });
                }
                Ok(())
            }
            Stmt::Move {
                path, pos, dest, ..
            } => {
                let sources = self.resolve_strict(path, ctx)?;
                let dests = self.resolve_strict(dest, ctx)?;
                if dests.len() > 1 {
                    return Err(Diagnostic::new(
                        "F012",
                        dest.span,
                        format!(
                            "move destination {:?} is ambiguous ({} matches)",
                            dest.raw,
                            dests.len()
                        ),
                    ));
                }
                let place =
                    self.anchor_place(*pos, self.index.source_id(dests[0]), dest, "move")?;
                let mut kept = covering(self.index, &sources);
                // Repeated first-into / after inserts at one anchor
                // stack in reverse, so emit sources back-to-front to
                // preserve their document order.
                if matches!(pos, InsertPos::FirstInto | InsertPos::After) {
                    kept.reverse();
                }
                for s in kept {
                    self.guard_target(s, path, "move")?;
                    self.log.push(Mutation::MoveSubtree {
                        target: NodeRef::Node(s),
                        place,
                    });
                }
                Ok(())
            }
            Stmt::Set { path, text, .. } => {
                let targets = self.resolve_strict(path, ctx)?;
                for t in self.nodes(&targets) {
                    if !self.tree.kind(t).is_text() {
                        return Err(Diagnostic::new(
                            "F011",
                            path.span,
                            format!("set target {:?} is not a text node", path.raw),
                        ));
                    }
                    self.log.push(Mutation::SetText {
                        target: NodeRef::Node(t),
                        text: text.clone(),
                    });
                }
                Ok(())
            }
            Stmt::For { path, body, .. } => {
                // Iteration over the empty set is a no-op, not an error.
                for t in self.resolve(path, ctx) {
                    self.block(body, t)?;
                }
                Ok(())
            }
        }
    }

    /// The landing [`Place`] for an insert/move at `target`, with the
    /// anchor-kind guards: child positions need an element (or the
    /// root) anchor, sibling positions need a non-root, non-attribute
    /// anchor. Whether an edit at the root leaves one document element
    /// is left to the validator.
    fn anchor_place(
        &self,
        pos: InsertPos,
        target: NodeId,
        path: &PathArg,
        what: &str,
    ) -> Result<Place, Diagnostic> {
        let anchor = NodeRef::Node(target);
        match pos {
            InsertPos::Into | InsertPos::FirstInto => {
                let kind = self.tree.kind(target);
                if !kind.is_element() && target != self.tree.root() {
                    return Err(Diagnostic::new(
                        "F011",
                        path.span,
                        format!("{what} destination {:?} cannot hold children", path.raw),
                    ));
                }
                Ok(if pos == InsertPos::Into {
                    Place::LastChildOf(anchor)
                } else {
                    Place::FirstChildOf(anchor)
                })
            }
            InsertPos::Before | InsertPos::After => {
                self.guard_target(target, path, &format!("{what} relative to"))?;
                Ok(if pos == InsertPos::Before {
                    Place::Before(anchor)
                } else {
                    Place::After(anchor)
                })
            }
        }
    }

    /// The fragment's root element (its parse already guaranteed one).
    fn fragment_root(&self, tree: &TreeArg) -> Result<NodeId, Diagnostic> {
        tree.tree
            .document_element()
            .ok_or_else(|| Diagnostic::new("F003", tree.span, "tree literal has no root element"))
    }

    /// Emit the whole fragment at `place`: its root element, then every
    /// descendant in preorder under log-id parents.
    fn emit_fragment(&mut self, tree: &TreeArg, place: Place) -> Result<LogId, Diagnostic> {
        let froot = self.fragment_root(tree)?;
        let id = self.fresh();
        let name = tree.tree.kind(froot).name().unwrap_or("").to_string();
        self.log.push(Mutation::CreateElement { id, name, place });
        self.emit_children(&tree.tree, froot, id)?;
        Ok(id)
    }

    /// Emit `parent`'s fragment subtree (excluding `parent` itself)
    /// under the already-created log node `under`.
    fn emit_children(
        &mut self,
        frag: &XmlTree,
        parent: NodeId,
        under: LogId,
    ) -> Result<(), Diagnostic> {
        let children: Vec<NodeId> = frag.children(parent).collect();
        for c in children {
            let place = Place::LastChildOf(NodeRef::New(under));
            let kind = frag.kind(c).clone();
            if kind.is_element() {
                let id = self.fresh();
                let name = kind.name().unwrap_or("").to_string();
                self.log.push(Mutation::CreateElement { id, name, place });
                self.emit_children(frag, c, id)?;
            } else {
                let id = self.fresh();
                self.log.push(Mutation::CreateNode { id, kind, place });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn sample() -> XmlTree {
        match xupd_xmldom::parse(r#"<r><s id="1"><x>one</x></s><s id="2"/><t><x>two</x></t></r>"#) {
            Ok(t) => t,
            Err(e) => panic!("sample parse: {e}"),
        }
    }

    fn lower_src(tree: &XmlTree, src: &str) -> Result<MutationLog, Diagnostic> {
        let stmts = match parse(src) {
            Ok(s) => s,
            Err(d) => panic!("parse failed on {src:?}: {d}"),
        };
        lower(&stmts, tree)
    }

    fn ok(tree: &XmlTree, src: &str) -> MutationLog {
        match lower_src(tree, src) {
            Ok(log) => log,
            Err(d) => panic!("lowering failed on {src:?}: {d}"),
        }
    }

    #[test]
    fn insert_lowers_fragment_walk() {
        let t = sample();
        let log = ok(&t, "insert <m><n>v</n></m> into /r/t");
        let ops: Vec<&Mutation> = log.iter().collect();
        assert_eq!(ops.len(), 3);
        assert!(matches!(
            ops[0],
            Mutation::CreateElement { id: LogId(0), .. }
        ));
        assert!(matches!(
            ops[1],
            Mutation::CreateElement {
                id: LogId(1),
                place: Place::LastChildOf(NodeRef::New(LogId(0))),
                ..
            }
        ));
        assert!(matches!(
            ops[2],
            Mutation::CreateNode {
                place: Place::LastChildOf(NodeRef::New(LogId(1))),
                ..
            }
        ));
    }

    #[test]
    fn multi_target_insert_repeats_fragment() {
        let t = sample();
        let log = ok(&t, "insert <m/> into /r/s");
        assert_eq!(log.len(), 2, "one create per target");
    }

    #[test]
    fn covering_keeps_subtree_roots_only() {
        let t = sample();
        let index = PreorderIndex::encode(&t).unwrap();
        let rows = |path: &str| xupd_encoding::parse_xpath(path).unwrap().evaluate(&index);
        // every element nests inside the document element
        assert_eq!(
            covering(&index, &rows("//*")),
            [t.document_element().unwrap()]
        );
        // the two x elements sit in disjoint subtrees
        let xs = rows("//x");
        assert_eq!(
            covering(&index, &xs),
            [index.source_id(xs[0]), index.source_id(xs[1])]
        );
        // an s and its own x: the x goes
        let nested = rows("/r/s[1]/descendant-or-self::*");
        assert_eq!(nested.len(), 2);
        assert_eq!(covering(&index, &nested), [index.source_id(nested[0])]);
    }

    #[test]
    fn delete_applies_covering_filter() {
        let t = sample();
        let log = ok(&t, "delete //x");
        assert_eq!(log.len(), 2);
        let nested = ok(&t, "delete /r/s[1]; delete //*");
        // //* covers everything under r: only r survives the filter,
        // plus the earlier statement's delete.
        assert_eq!(nested.len(), 2);
    }

    #[test]
    fn rename_preserves_children() {
        let t = sample();
        let log = ok(&t, "rename /r/s[1] to q");
        let ops: Vec<&Mutation> = log.iter().collect();
        // create + 2 child moves (attribute node + x element) + delete
        assert_eq!(ops.len(), 4);
        assert!(matches!(ops[0], Mutation::CreateElement { .. }));
        assert!(matches!(ops[1], Mutation::MoveSubtree { .. }));
        assert!(matches!(ops[2], Mutation::MoveSubtree { .. }));
        assert!(matches!(ops[3], Mutation::Delete { .. }));
    }

    #[test]
    fn strict_match_rejects_empty_targets() {
        let t = sample();
        let d = lower_src(&t, "delete /r/nope").unwrap_err();
        assert_eq!(d.code, "F010");
        // ...but a for over nothing is fine.
        assert!(ok(&t, "for /r/nope do delete . end").is_empty());
    }

    #[test]
    fn kind_guards_reject_bad_targets() {
        let t = sample();
        assert_eq!(lower_src(&t, "set /r/t to \"x\"").unwrap_err().code, "F011");
        assert_eq!(
            lower_src(&t, "insert <m/> into /r/s/x/text()")
                .unwrap_err()
                .code,
            "F011"
        );
        // Lowering re-checks what the static pass catches (F009/F005),
        // so compile_unchecked can never emit a root or attribute edit.
        assert_eq!(lower_src(&t, "delete /.").unwrap_err().code, "F011");
        assert_eq!(
            lower_src(&t, "delete /r/s[1]/@id").unwrap_err().code,
            "F011"
        );
    }

    #[test]
    fn ambiguous_move_destination_is_f012() {
        let t = sample();
        assert_eq!(
            lower_src(&t, "move /r/t into /r/s").unwrap_err().code,
            "F012"
        );
    }

    #[test]
    fn move_after_emits_sources_in_reverse() {
        let t = sample();
        let log = ok(&t, "move /r/s after /r/t");
        let ops: Vec<&Mutation> = log.iter().collect();
        assert_eq!(ops.len(), 2);
        // Reverse emission: s[2] first, then s[1], so the final sibling
        // order stays s[1], s[2].
        let (first, second) = match (ops[0], ops[1]) {
            (
                Mutation::MoveSubtree {
                    target: NodeRef::Node(a),
                    ..
                },
                Mutation::MoveSubtree {
                    target: NodeRef::Node(b),
                    ..
                },
            ) => (*a, *b),
            other => panic!("expected two moves, got {other:?}"),
        };
        assert!(t.doc_cmp(second, first) == std::cmp::Ordering::Less);
    }

    #[test]
    fn for_iterates_in_doc_order() {
        let t = sample();
        let log = ok(&t, "for /r/s do insert <m/> into . end");
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn relative_paths_resolve_from_the_context() {
        let t = sample();
        // `./x` under each s: only s[1] has one
        let log = ok(&t, "for /r/s do for ./x do delete . end end");
        assert_eq!(log.len(), 1);
        // `.` is the context; `./..` its parent; `.//x` its subtree
        assert_eq!(ok(&t, "for /r/t do rename . to u end").len(), 3);
        assert_eq!(ok(&t, "for //x do insert <m/> into ./.. end").len(), 2);
        assert_eq!(ok(&t, "for /r/t do delete .//x end").len(), 1);
        // an index of another tree state is refused before lowering
        let stale = PreorderIndex::encode(&t).unwrap();
        let mut edited = t.clone();
        let r = edited.document_element().unwrap();
        *edited.kind_mut(r) = xupd_xmldom::NodeKind::element("q");
        let stmts = parse("delete /q/t").unwrap();
        assert_eq!(lower_in(&stmts, &edited, &stale).unwrap_err().code, "F020");
    }

    #[test]
    fn strict_match_applies_per_iteration() {
        let t = sample();
        // s[2] has no x child, so the body's strict target fails there.
        let d = lower_src(&t, "for /r/s do set ./x/text() to \"v\" end").unwrap_err();
        assert_eq!(d.code, "F010");
        // Scoped to the s that has an x, it lowers.
        let log = ok(&t, "for /r/s[1] do set ./x/text() to \"v\" end");
        assert_eq!(log.len(), 1);
    }
}
