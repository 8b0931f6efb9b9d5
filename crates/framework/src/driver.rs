//! Replays update scripts against a labelling scheme, collecting the
//! evidence the property checkers grade.

use crate::mutations::{LogBindings, LogId, Mutation, MutationLog, NodeRef, Place};
use xupd_encoding::PreorderIndex;
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

/// The live element nodes of a tree in document order, kept across the
/// ops of one script as a short list of runs over a fixed ranking.
///
/// The ranking, the pool's base, is the elements the tree held when the
/// script began, in document order, and is never written again: either
/// borrowed from the element list of the tree's [`PreorderIndex`]
/// ([`ElementPool::over`], no pass over the tree) or collected by one
/// scan ([`ElementPool::build`], for a caller that holds only the tree).
/// The pool is a list of runs over it: a range of base ranks whose
/// elements are all still live, or one element the script made. An
/// insert lands one past its document-order predecessor element,
/// splitting the run that holds it; a subtree delete cuts out the
/// contiguous stretch its elements occupy. Each op walks the runs, so it
/// costs O(runs), and a script of `k` ops leaves at most `2k + 1` of
/// them: the translation's cost follows the script, not the document.
///
/// Batch application takes no pool: its ops name their targets
/// directly. Only the per-op driver and the script translation in
/// [`crate::mutations`], which resolve script indices against the pool,
/// keep one.
#[derive(Debug)]
pub(crate) struct ElementPool<'i> {
    base: PoolBase<'i>,
    runs: Vec<Run>,
    /// Live elements: the sum of the runs' lengths.
    len: usize,
}

/// The fixed ranking an [`ElementPool`]'s runs lay over.
#[derive(Debug)]
enum PoolBase<'i> {
    /// One scan of the tree: its elements in document order, and each
    /// node id's rank among them (`u32::MAX` for any other node).
    Scan {
        elements: Vec<NodeId>,
        rank: Vec<u32>,
    },
    /// The tree's preorder index: rank `k` is the `k`-th entry of its
    /// element list, and a node's rank is found from its row.
    Index(&'i PreorderIndex),
}

impl PoolBase<'_> {
    fn len(&self) -> usize {
        match self {
            PoolBase::Scan { elements, .. } => elements.len(),
            PoolBase::Index(index) => index.name_index().all_elements().len(),
        }
    }

    /// The element of base rank `rank`.
    fn node(&self, rank: u32) -> Result<NodeId, TreeError> {
        let node = match self {
            PoolBase::Scan { elements, .. } => elements.get(rank as usize).copied(),
            PoolBase::Index(index) => index
                .name_index()
                .all_elements()
                .get(rank as usize)
                .map(|&row| index.source_id(row as usize)),
        };
        node.ok_or_else(|| pool_error("a run past the base ranking"))
    }

    /// The base rank of `node`; `None` for a node that was no element
    /// when the script began, such as one the script made.
    fn rank(&self, node: NodeId) -> Option<u32> {
        match self {
            PoolBase::Scan { rank, .. } => {
                rank.get(node.index()).copied().filter(|&r| r != u32::MAX)
            }
            PoolBase::Index(index) => {
                let row = index.row_of_source(node)? as u32;
                let k = index.name_index().all_elements().binary_search(&row).ok()?;
                Some(k as u32)
            }
        }
    }
}

/// One stretch of an [`ElementPool`], in document order.
#[derive(Debug, Clone, Copy)]
enum Run {
    /// Base ranks `start..start + len`.
    Base { start: u32, len: u32 },
    /// One element the script made (or moved).
    New(NodeId),
}

impl Run {
    fn len(self) -> usize {
        match self {
            Run::Base { len, .. } => len as usize,
            Run::New(_) => 1,
        }
    }
}

fn pool_error(what: &str) -> TreeError {
    TreeError::Invariant(format!("element pool: {what}"))
}

impl ElementPool<'static> {
    /// The pool of `tree`, ranked by one scan of it: the translation's
    /// one O(n) step, for a caller that has no preorder index.
    pub fn build(tree: &XmlTree) -> Self {
        let elements: Vec<NodeId> = tree
            .preorder()
            .filter(|&n| tree.kind(n).is_element())
            .collect();
        let mut rank = vec![u32::MAX; tree.id_bound()];
        for (k, &n) in elements.iter().enumerate() {
            rank[n.index()] = k as u32;
        }
        Self::with_base(PoolBase::Scan { elements, rank })
    }
}

impl<'i> ElementPool<'i> {
    /// The pool of the tree state `index` encodes, ranked by the
    /// index's element list. The caller checks that `index` is current
    /// for the tree the pool will address.
    pub fn over(index: &'i PreorderIndex) -> Self {
        Self::with_base(PoolBase::Index(index))
    }

    fn with_base(base: PoolBase<'i>) -> Self {
        let len = base.len();
        let runs = match len {
            0 => Vec::new(),
            n => vec![Run::Base {
                start: 0,
                len: n as u32,
            }],
        };
        ElementPool { base, runs, len }
    }

    /// Number of live elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no element at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The op-index addressing rule: modulo the live pool size.
    pub fn resolve(&self, i: usize) -> Result<NodeId, TreeError> {
        if self.len == 0 {
            return Err(pool_error("resolve on an empty pool"));
        }
        let mut at = i % self.len;
        for &run in &self.runs {
            if at < run.len() {
                return match run {
                    Run::Base { start, .. } => self.base.node(start + at as u32),
                    Run::New(node) => Ok(node),
                };
            }
            at -= run.len();
        }
        Err(pool_error("runs shorter than the pool"))
    }

    /// The run holding the live element `node`, and `node`'s offset in
    /// it.
    fn find(&self, node: NodeId) -> Result<(usize, usize), TreeError> {
        let rank = self.base.rank(node);
        for (j, &run) in self.runs.iter().enumerate() {
            match run {
                Run::Base { start, len } => {
                    if let Some(r) = rank.filter(|r| (start..start + len).contains(r)) {
                        return Ok((j, (r - start) as usize));
                    }
                }
                Run::New(n) if n == node => return Ok((j, 0)),
                Run::New(_) => {}
            }
        }
        Err(pool_error("a live element is missing"))
    }

    /// Make a run start `offset` elements into run `j`, splitting a base
    /// run if needed, and return that run's index (`j + 1` when `offset`
    /// is run `j`'s length).
    fn split(&mut self, j: usize, offset: usize) -> Result<usize, TreeError> {
        match self.runs.get(j).copied() {
            _ if offset == 0 => Ok(j),
            Some(run) if offset == run.len() => Ok(j + 1),
            Some(Run::Base { start, len }) if offset < len as usize => {
                let offset = offset as u32;
                self.runs[j] = Run::Base { start, len: offset };
                self.runs.insert(
                    j + 1,
                    Run::Base {
                        start: start + offset,
                        len: len - offset,
                    },
                );
                Ok(j + 1)
            }
            _ => Err(pool_error("a split past a run's end")),
        }
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
    pub fn insert_new(&mut self, tree: &XmlTree, node: NodeId) -> Result<(), TreeError> {
        let j = match Self::prev_element(tree, node) {
            Some(prev) => {
                let (j, offset) = self.find(prev)?;
                self.split(j, offset + 1)?
            }
            None => 0,
        };
        self.runs.insert(j, Run::New(node));
        self.len += 1;
        Ok(())
    }

    /// Unregister the still-attached subtree rooted at element `node`:
    /// in the element-filtered preorder its elements form one contiguous
    /// stretch starting at `node`'s own position.
    pub fn remove_subtree(&mut self, tree: &XmlTree, node: NodeId) -> Result<(), TreeError> {
        let doomed = tree
            .preorder_from(node)
            .filter(|&n| tree.kind(n).is_element())
            .count();
        let (j, offset) = self.find(node)?;
        let from = self.split(j, offset)?;
        let (mut to, mut left) = (from, doomed);
        while left > 0 {
            let n = self.runs.get(to).map_or(0, |run| run.len());
            if n == 0 {
                return Err(pool_error("a subtree past the pool's end"));
            }
            if n > left {
                self.split(to, left)?;
            }
            left -= n.min(left);
            to += 1;
        }
        self.runs.drain(from..to);
        self.len -= doomed;
        Ok(())
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
                let target = pool.resolve(i)?;
                let place =
                    if tree.parent(target) == Some(tree.root()) || tree.parent(target).is_none() {
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
                        let base = pool.resolve(pool.len() / 2)?;
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
                let target = pool.resolve(i)?;
                let place =
                    if tree.parent(target) == Some(tree.root()) || tree.parent(target).is_none() {
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
                    place: Place::FirstChildOf(NodeRef::Node(pool.resolve(i)?)),
                });
            }
            ScriptOp::AppendChild(i) => {
                batch.push(Mutation::CreateElement {
                    id: LogId(0),
                    name: "u".to_string(),
                    place: Place::LastChildOf(NodeRef::Node(pool.resolve(i)?)),
                });
            }
            ScriptOp::DeleteSubtree(i) => {
                let target = pool.resolve(i)?;
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
                (
                    binds.node(LogId(0))?,
                    binds.node(LogId(1))?,
                    binds.node(LogId(2))?,
                )
            } else {
                let (a, b) = pair.ok_or(TreeError::Invariant("zigzag pair missing".to_string()))?;
                (a, b, binds.node(LogId(0))?)
            };
            zig = Some(if zig_step % 2 == 0 {
                (a, node)
            } else {
                (node, b)
            });
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

    /// A pool ranked by a scan and one ranked by the preorder index
    /// follow the same edits, and after each resolve every position to
    /// the element a fresh scan of the tree finds there: inserts at the
    /// front, at the end and inside a base run, the delete of a subtree
    /// holding only script-made elements, and one spanning base ranks
    /// and script-made elements.
    #[test]
    fn pool_runs_match_a_fresh_scan_over_either_base() {
        use xupd_encoding::PreorderIndex;
        use xupd_xmldom::NodeKind;

        fn elements(tree: &XmlTree) -> Vec<NodeId> {
            tree.preorder()
                .filter(|&n| tree.kind(n).is_element())
                .collect()
        }
        fn check(tree: &XmlTree, pools: &[ElementPool<'_>], step: &str) {
            let scan = elements(tree);
            for (base, pool) in ["scan", "index"].iter().zip(pools) {
                assert_eq!(pool.len(), scan.len(), "{step} ({base}): len");
                let resolved: Vec<NodeId> =
                    (0..pool.len()).map(|i| pool.resolve(i).unwrap()).collect();
                assert_eq!(resolved, scan, "{step} ({base}): order");
                let wrapped = pool.resolve(scan.len() + 2).unwrap();
                assert_eq!(wrapped, scan[2], "{step} ({base}): modulo");
            }
        }
        fn insert(
            tree: &mut XmlTree,
            pools: &mut [ElementPool<'_>],
            attach: impl FnOnce(&mut XmlTree, NodeId) -> Result<(), TreeError>,
        ) -> NodeId {
            let node = tree.create(NodeKind::element("u"));
            attach(tree, node).unwrap();
            for pool in pools.iter_mut() {
                pool.insert_new(tree, node).unwrap();
            }
            node
        }
        fn delete(tree: &mut XmlTree, pools: &mut [ElementPool<'_>], node: NodeId) {
            for pool in pools.iter_mut() {
                pool.remove_subtree(tree, node).unwrap();
            }
            tree.remove_subtree(node).unwrap();
        }

        let mut tree = docs::random_tree(7, 40);
        let index = PreorderIndex::encode(&tree).unwrap();
        let mut pools = [ElementPool::build(&tree), ElementPool::over(&index)];
        check(&tree, &pools, "start");

        // Front: an element ahead of the document element.
        let root = tree.root();
        insert(&mut tree, &mut pools, |t, n| t.prepend_child(root, n));
        check(&tree, &pools, "insert at position 0");

        // End: a child of the last element in document order.
        let last = *elements(&tree).last().unwrap();
        insert(&mut tree, &mut pools, |t, n| t.append_child(last, n));
        check(&tree, &pools, "insert at the end");

        // Inside the base run: the first child of an element that has
        // element children, a third of the way in or later.
        let scan = elements(&tree);
        let host = scan[scan.len() / 3..]
            .iter()
            .copied()
            .find(|&e| tree.children(e).any(|c| tree.kind(c).is_element()))
            .unwrap();
        let made = insert(&mut tree, &mut pools, |t, n| t.prepend_child(host, n));
        check(&tree, &pools, "insert inside a base run");
        insert(&mut tree, &mut pools, |t, n| t.append_child(made, n));
        check(&tree, &pools, "insert under a script-made element");

        // A subtree of script-made elements only.
        delete(&mut tree, &mut pools, made);
        check(&tree, &pools, "delete of script-made elements");

        // A subtree whose elements span base ranks and a script-made one.
        insert(&mut tree, &mut pools, |t, n| t.prepend_child(host, n));
        delete(&mut tree, &mut pools, host);
        check(&tree, &pools, "delete spanning base and new runs");
    }

    #[test]
    fn an_empty_pool_refuses_to_resolve() {
        let tree = XmlTree::new();
        let pool = ElementPool::build(&tree);
        assert!(pool.is_empty());
        assert!(matches!(pool.resolve(0), Err(TreeError::Invariant(_))));
    }

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
