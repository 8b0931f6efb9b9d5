//! Replays update scripts against a labelling scheme, collecting the
//! evidence the property checkers grade.

use crate::mutations::{LogBindings, LogId, Mutation, MutationLog, NodeRef, Place};
use xupd_labelcore::DynScheme;
use xupd_workloads::{Script, ScriptOp};
use xupd_xmldom::{NodeId, TreeError, XmlTree};

/// Evidence accumulated while driving one script.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DriveStats {
    /// Nodes inserted.
    pub inserts: usize,
    /// Subtrees deleted.
    pub deletes: usize,
    /// Existing nodes whose labels the scheme changed.
    pub relabeled: u64,
    /// §4 overflow events the scheme reported.
    pub overflow_events: u64,
    /// Largest single-label size (bits) observed at any checkpoint —
    /// catches pre-renumbering peaks that the end state hides.
    pub peak_label_bits: u64,
    /// Mean label size (bits) at the end of the script.
    pub end_mean_bits: f64,
    /// Largest single-label size at the end of the script.
    pub end_max_bits: u64,
}

/// How often (in ops) the driver scans label sizes for the peak metric.
pub(crate) const CHECKPOINT_EVERY: usize = 25;

/// The live element nodes of a tree in document order, maintained
/// **incrementally** across script ops.
///
/// The driver resolves every op index against this pool. Rebuilding it
/// with a full preorder scan per op made replay O(ops·n); instead, each
/// insert splices the new leaf next to its document-order predecessor
/// element, and each delete drains the subtree's contiguous run — both
/// proportional to the affected suffix, with plain pointer walks and
/// `u32`-sized bookkeeping instead of a fresh allocation per op.
///
/// Batch application takes no pool: its ops name their targets
/// directly. Only the per-op driver and
/// [`crate::mutations::batch_of_in_place`], which resolve script
/// indices against the pool, maintain one. [`ElementPool::build`] is
/// the one O(n) step left in a script's translation, which otherwise
/// costs the nodes the script writes.
#[derive(Debug, Clone)]
pub(crate) struct ElementPool {
    /// Live elements in document order.
    order: Vec<NodeId>,
    /// `NodeId` index → position in `order`. Meaningful only for ids
    /// currently present in `order` (node ids are never reused).
    pos: Vec<u32>,
}

impl ElementPool {
    /// One full scan at script start — the last one.
    pub fn build(tree: &XmlTree) -> Self {
        let order: Vec<NodeId> = tree
            .preorder()
            .filter(|&n| tree.kind(n).is_element())
            .collect();
        let mut pos = vec![0u32; tree.id_bound()];
        for (i, &n) in order.iter().enumerate() {
            pos[n.index()] = i as u32;
        }
        ElementPool { order, pos }
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when the tree holds no element at all.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The op-index addressing rule: modulo the live pool size.
    pub fn resolve(&self, i: usize) -> NodeId {
        self.order[i % self.order.len()]
    }

    /// The nearest element preceding `node` in document order: a preorder
    /// predecessor pointer walk (previous sibling's deepest last
    /// descendant, else parent), skipping non-element nodes.
    fn prev_element(tree: &XmlTree, node: NodeId) -> Option<NodeId> {
        let mut cur = node;
        loop {
            cur = match tree.prev_sibling(cur) {
                Some(mut p) => {
                    while let Some(last) = tree.last_child(p) {
                        p = last;
                    }
                    p
                }
                None => tree.parent(cur)?,
            };
            if tree.kind(cur).is_element() {
                return Some(cur);
            }
        }
    }

    /// Register a freshly attached element leaf. Its pool position is one
    /// past its document-order predecessor element (or 0 when none —
    /// possible only for a first document element).
    pub fn insert_new(&mut self, tree: &XmlTree, node: NodeId) {
        let at = match Self::prev_element(tree, node) {
            Some(prev) => self.pos[prev.index()] as usize + 1,
            None => 0,
        };
        self.order.insert(at, node);
        if self.pos.len() <= node.index() {
            self.pos.resize(node.index() + 1, 0);
        }
        for j in at..self.order.len() {
            self.pos[self.order[j].index()] = j as u32;
        }
    }

    /// Unregister the still-attached subtree rooted at element `node`:
    /// in the element-filtered preorder its elements form one contiguous
    /// run starting at `node`'s own position.
    pub fn remove_subtree(&mut self, tree: &XmlTree, node: NodeId) {
        let at = self.pos[node.index()] as usize;
        let doomed = tree
            .preorder_from(node)
            .filter(|&n| tree.kind(n).is_element())
            .count();
        self.order.drain(at..at + doomed);
        for j in at..self.order.len() {
            self.pos[self.order[j].index()] = j as u32;
        }
    }
}

/// Replay `script` against the `session`'s scheme and labelling and
/// `tree`. A caller holding a typed scheme and labelling passes
/// `&mut SessionMut::new(&mut scheme, &mut labeling)`.
///
/// Index resolution: each op's index addresses the element pool (live
/// element nodes in document order) modulo its size. Deletions skip the
/// document element and never shrink the pool below two elements.
/// [`ScriptOp::InsertAfter`] with index `usize::MAX` is the zigzag
/// pattern: the driver maintains an adjacent pair and alternately
/// tightens its left and right ends.
///
/// Since the mutation-log port, each script op is translated into a
/// one-op [`MutationLog`] and applied through the same
/// [`crate::mutations`] machinery as [`crate::mutations::apply_log_dyn`]
/// — per-op application (each op addresses the pool the previous op left
/// behind) is simply batch size 1, which keeps the historical semantics
/// and the `results/*` goldens untouched. The per-op path performs no
/// validation or snapshotting: the driver only emits ops it has already
/// resolved against live pool targets, and atomicity is the *batch*
/// API's contract.
pub fn run_script_dyn(
    tree: &mut XmlTree,
    session: &mut dyn DynScheme,
    script: &Script,
) -> Result<DriveStats, TreeError> {
    let mut stats = DriveStats::default();
    let mut zig: Option<(NodeId, NodeId)> = None;
    let mut zig_step = 0usize;
    let mut pool = ElementPool::build(tree);
    // One mutation buffer and one binding table, reused across ops: the
    // hot path allocates only what the ops themselves require.
    let mut batch = MutationLog::new();
    let mut binds = LogBindings::default();

    for (op_idx, op) in script.ops.iter().enumerate() {
        if pool.is_empty() {
            break;
        }
        batch.clear();
        binds.clear();
        // (zig pair after this op, zig_step increments) resolved from the
        // batch bindings once the mutations have been applied.
        let mut zig_plan: Option<(Option<(NodeId, NodeId)>, bool)> = None;
        match *op {
            ScriptOp::InsertBefore(i) => {
                let target = pool.resolve(i);
                let place = if tree.parent(target) == Some(tree.root())
                    || tree.parent(target).is_none()
                {
                    Place::FirstChildOf(NodeRef::Node(target))
                } else {
                    Place::Before(NodeRef::Node(target))
                };
                batch.push(Mutation::CreateElement {
                    id: LogId(0),
                    name: "u".to_string(),
                    place,
                });
            }
            ScriptOp::InsertAfter(i) if i == usize::MAX => {
                // zigzag: insert between an adjacent pair, alternately
                // keeping the new node as the pair's right or left end.
                match zig {
                    Some((a, b))
                        if tree.is_alive(a)
                            && tree.is_alive(b)
                            && tree.next_sibling(a) == Some(b) =>
                    {
                        batch.push(Mutation::CreateElement {
                            id: LogId(0),
                            name: "u".to_string(),
                            place: Place::After(NodeRef::Node(a)),
                        });
                        zig_plan = Some((Some((a, b)), false));
                    }
                    _ => {
                        let base = pool.resolve(pool.len() / 2);
                        batch.push(Mutation::CreateElement {
                            id: LogId(0),
                            name: "u".to_string(),
                            place: Place::LastChildOf(NodeRef::Node(base)),
                        });
                        batch.push(Mutation::CreateElement {
                            id: LogId(1),
                            name: "u".to_string(),
                            place: Place::LastChildOf(NodeRef::Node(base)),
                        });
                        batch.push(Mutation::CreateElement {
                            id: LogId(2),
                            name: "u".to_string(),
                            place: Place::After(NodeRef::New(LogId(0))),
                        });
                        zig_plan = Some((None, true));
                    }
                }
            }
            ScriptOp::InsertAfter(i) => {
                let target = pool.resolve(i);
                let place = if tree.parent(target) == Some(tree.root())
                    || tree.parent(target).is_none()
                {
                    Place::LastChildOf(NodeRef::Node(target))
                } else {
                    Place::After(NodeRef::Node(target))
                };
                batch.push(Mutation::CreateElement {
                    id: LogId(0),
                    name: "u".to_string(),
                    place,
                });
            }
            ScriptOp::PrependChild(i) => {
                batch.push(Mutation::CreateElement {
                    id: LogId(0),
                    name: "u".to_string(),
                    place: Place::FirstChildOf(NodeRef::Node(pool.resolve(i))),
                });
            }
            ScriptOp::AppendChild(i) => {
                batch.push(Mutation::CreateElement {
                    id: LogId(0),
                    name: "u".to_string(),
                    place: Place::LastChildOf(NodeRef::Node(pool.resolve(i))),
                });
            }
            ScriptOp::DeleteSubtree(i) => {
                let target = pool.resolve(i);
                if Some(target) == tree.document_element() || pool.len() <= 2 {
                    continue;
                }
                batch.push(Mutation::Delete {
                    target: NodeRef::Node(target),
                });
            }
        }
        for m in batch.iter() {
            crate::mutations::apply_mutation_dyn(
                tree,
                Some(&mut *session),
                Some(&mut pool),
                &mut binds,
                m,
                &mut stats,
            )?;
        }
        if let Some((pair, init)) = zig_plan {
            let (a, b, node) = if init {
                (binds.node(LogId(0))?, binds.node(LogId(1))?, binds.node(LogId(2))?)
            } else {
                let (a, b) = pair.ok_or(TreeError::Invariant(
                    "zigzag pair missing".to_string(),
                ))?;
                (a, b, binds.node(LogId(0))?)
            };
            zig = Some(if zig_step % 2 == 0 { (a, node) } else { (node, b) });
            zig_step += 1;
        }
        if op_idx % CHECKPOINT_EVERY == 0 {
            stats.peak_label_bits = stats.peak_label_bits.max(session.max_bits());
        }
    }
    stats.peak_label_bits = stats.peak_label_bits.max(session.max_bits());
    stats.end_mean_bits = session.mean_bits();
    stats.end_max_bits = session.max_bits();
    Ok(stats)
}

/// Label a freshly grafted **subtree** (the paper's third structural
/// update class, §1/§3.1.2: "Subtree insertions may be serialised as a
/// sequence of nodes and inserted individually"): `root` and all its
/// descendants are already attached to `tree`; each is labelled in
/// preorder through the scheme's ordinary single-node insertion path.
/// Returns the accumulated insert evidence. (A subtree *move* is
/// [`Mutation::MoveSubtree`], applied through the batch path.)
pub fn graft_subtree_dyn(
    tree: &XmlTree,
    session: &mut dyn DynScheme,
    root: NodeId,
) -> Result<DriveStats, TreeError> {
    let mut stats = DriveStats::default();
    for node in tree.preorder_from(root) {
        apply_insert_dyn(tree, session, node, &mut stats)?;
    }
    stats.peak_label_bits = session.max_bits();
    stats.end_mean_bits = session.mean_bits();
    stats.end_max_bits = session.max_bits();
    Ok(stats)
}

pub(crate) fn apply_insert_dyn(
    tree: &XmlTree,
    session: &mut dyn DynScheme,
    node: NodeId,
    stats: &mut DriveStats,
) -> Result<(), TreeError> {
    let report = session.on_insert(tree, node)?;
    stats.inserts += 1;
    stats.relabeled += report.relabeled.len() as u64;
    if report.overflowed {
        stats.overflow_events += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_labelcore::{LabelingScheme, SessionMut};
    use xupd_schemes::prefix::dewey::DeweyId;
    use xupd_schemes::prefix::qed::Qed;
    use xupd_workloads::{docs, Script, ScriptKind};

    #[test]
    fn random_script_drives_cleanly_for_qed() {
        let mut tree = docs::random_tree(1, 100);
        let mut scheme = Qed::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let script = Script::generate(ScriptKind::Random, 150, 100, 2);
        let stats = run_script_dyn(
            &mut tree,
            &mut SessionMut::new(&mut scheme, &mut labeling),
            &script,
        )
        .unwrap();
        assert_eq!(stats.inserts, 150);
        assert_eq!(stats.relabeled, 0);
        assert_eq!(stats.overflow_events, 0);
        tree.validate().unwrap();
        assert_eq!(labeling.len(), tree.len());
    }

    #[test]
    fn skewed_script_relabels_for_dewey() {
        let mut tree = docs::wide(20);
        let mut scheme = DeweyId::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let script = Script::generate(ScriptKind::Skewed, 50, 20, 3);
        let stats = run_script_dyn(
            &mut tree,
            &mut SessionMut::new(&mut scheme, &mut labeling),
            &script,
        )
        .unwrap();
        assert!(stats.relabeled > 0, "skewed inserts renumber for DeweyID");
    }

    #[test]
    fn mixed_delete_keeps_labeling_in_sync() {
        let mut tree = docs::random_tree(4, 120);
        let mut scheme = Qed::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let script = Script::generate(ScriptKind::MixedDelete, 200, 120, 5);
        let stats = run_script_dyn(
            &mut tree,
            &mut SessionMut::new(&mut scheme, &mut labeling),
            &script,
        )
        .unwrap();
        assert!(stats.deletes > 0);
        tree.validate().unwrap();
        assert_eq!(labeling.len(), tree.len(), "one label per live node");
    }

    #[test]
    fn zigzag_initialises_and_runs() {
        let mut tree = docs::wide(10);
        let mut scheme = Qed::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let script = Script::generate(ScriptKind::Zigzag, 60, 10, 6);
        let stats = run_script_dyn(
            &mut tree,
            &mut SessionMut::new(&mut scheme, &mut labeling),
            &script,
        )
        .unwrap();
        assert!(stats.inserts >= 60);
        assert_eq!(labeling.len(), tree.len());
    }

    #[test]
    fn graft_labels_a_whole_subtree_in_document_order() {
        use xupd_xmldom::TreeBuilder;
        let mut tree = docs::book();
        let mut scheme = Qed::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();

        // build a detached appendix subtree, then graft it under <book>
        let sub = TreeBuilder::new()
            .open("appendix")
            .leaf("section", "errata")
            .leaf("section", "index")
            .close()
            .finish();
        // copy the subtree into the main tree (serialised as a sequence
        // of nodes, exactly as §3.1.2 describes)
        let book = tree.document_element().unwrap();
        let sub_root_src = sub.document_element().unwrap();
        let appendix = clone_into(&sub, sub_root_src, &mut tree);
        tree.append_child(book, appendix).unwrap();

        let stats = graft_subtree_dyn(
            &tree,
            &mut SessionMut::new(&mut scheme, &mut labeling),
            appendix,
        )
        .unwrap();
        assert_eq!(stats.inserts, sub.subtree_size(sub_root_src));
        assert_eq!(stats.relabeled, 0, "QED grafts persist too");
        assert_eq!(labeling.len(), tree.len());
        let order = tree.ids_in_doc_order();
        for w in order.windows(2) {
            assert_eq!(
                scheme.cmp_doc(labeling.req(w[0]).unwrap(), labeling.req(w[1]).unwrap()),
                std::cmp::Ordering::Less
            );
        }

        fn clone_into(src: &XmlTree, node: NodeId, dst: &mut XmlTree) -> NodeId {
            let copy = dst.create(src.kind(node).clone());
            for child in src.children(node) {
                let c = clone_into(src, child, dst);
                dst.append_child(copy, c).expect("fresh node is detached");
            }
            copy
        }
    }

    #[test]
    fn move_subtree_keeps_other_labels_for_persistent_schemes() {
        let mut tree = docs::book();
        let mut scheme = Qed::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let publisher = tree
            .preorder()
            .find(|&n| tree.kind(n).name() == Some("publisher"))
            .unwrap();
        let title = tree
            .preorder()
            .find(|&n| tree.kind(n).name() == Some("title"))
            .unwrap();
        let untouched: Vec<_> = tree
            .ids_in_doc_order()
            .into_iter()
            .filter(|&n| !tree.is_ancestor(publisher, n) && n != publisher)
            .map(|n| (n, labeling.req(n).unwrap().clone()))
            .collect();
        // move <publisher> to sit before <title>
        let log = MutationLog::from(vec![Mutation::MoveSubtree {
            target: NodeRef::Node(publisher),
            place: Place::Before(NodeRef::Node(title)),
        }]);
        let stats =
            crate::mutations::apply_log(&mut tree, &mut scheme, &mut labeling, &log).unwrap();
        assert_eq!(stats.inserts, tree.subtree_size(publisher));
        assert_eq!(stats.relabeled, 0, "no bystander relabels");
        for (n, old) in untouched {
            assert_eq!(labeling.req(n).unwrap(), &old, "bystander label changed");
        }
        // order + structure intact
        tree.validate().unwrap();
        assert_eq!(labeling.len(), tree.len());
        let order = tree.ids_in_doc_order();
        for w in order.windows(2) {
            assert_eq!(
                scheme.cmp_doc(labeling.req(w[0]).unwrap(), labeling.req(w[1]).unwrap()),
                std::cmp::Ordering::Less
            );
        }
        // publisher is now the first child of book
        let book = tree.document_element().unwrap();
        assert_eq!(tree.first_child(book), Some(publisher));
    }

    #[test]
    fn graft_relabels_followers_for_dewey() {
        use xupd_xmldom::NodeKind;
        let mut tree = docs::wide(5);
        let mut scheme = DeweyId::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let root_elem = tree.document_element().unwrap();
        let first = tree.first_child(root_elem).unwrap();
        // graft a two-node subtree before the first child
        let sub_root = tree.create(NodeKind::element("g"));
        let sub_leaf = tree.create(NodeKind::element("gl"));
        tree.append_child(sub_root, sub_leaf).unwrap();
        tree.insert_before(first, sub_root).unwrap();
        let stats = graft_subtree_dyn(
            &tree,
            &mut SessionMut::new(&mut scheme, &mut labeling),
            sub_root,
        )
        .unwrap();
        assert_eq!(stats.inserts, 2);
        assert!(stats.relabeled > 0, "following siblings renumbered");
    }

    #[test]
    fn peak_captures_pre_renumber_sizes() {
        use xupd_schemes::prefix::improved_binary::ImprovedBinary;
        let mut tree = docs::wide(5);
        let mut scheme = ImprovedBinary::with_max_code_bits(64);
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let script = Script::generate(ScriptKind::Skewed, 200, 5, 7);
        let stats = run_script_dyn(
            &mut tree,
            &mut SessionMut::new(&mut scheme, &mut labeling),
            &script,
        )
        .unwrap();
        assert!(stats.overflow_events > 0);
        assert!(
            stats.peak_label_bits > stats.end_max_bits / 2,
            "peak {} retains the pre-renumber spike (end {})",
            stats.peak_label_bits,
            stats.end_max_bits
        );
    }
}
