//! Replays update scripts against a labelling scheme, collecting the
//! evidence the property checkers grade.
//!
//! One crate-private walker, `walk_script`, holds the script
//! addressing rules: each op's index resolves against the element pool
//! the previous ops left, the op becomes one to three [`Mutation`]s,
//! and each is applied to the tree as it is emitted, through the one
//! mutation applier of [`crate::mutations`]. It runs in two modes.
//! With a labelling session it is the per-op driver behind
//! [`run_script_dyn`], which produces the `results/*` goldens. With
//! none it is the script translation behind
//! [`crate::mutations::batch_of_in_place`], which keeps the emitted
//! mutations as one [`MutationLog`]. Both modes so emit the same
//! mutations, and a translated log applied as one batch ends where the
//! per-op driver does.

use crate::mutations::{
    apply_mutation_dyn, LogBindings, LogId, Mutation, MutationLog, NodeRef, Place,
};
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

impl DriveStats {
    /// Close a run on `session`: fold its final largest label into the
    /// peak and record the end sizes.
    pub(crate) fn close(mut self, session: &dyn DynScheme) -> Self {
        self.peak_label_bits = self.peak_label_bits.max(session.max_bits());
        self.end_mean_bits = session.mean_bits();
        self.end_max_bits = session.max_bits();
        self
    }
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
/// The walker ([`walk_script`]) is the pool's only user: it adds each
/// element it creates and cuts out each subtree it deletes. The
/// mutation applier takes no pool, since a batch's ops name their
/// targets directly.
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
    /// The pool of `tree`, ranked by one scan of it: a walk's one O(n)
    /// step, for a caller that has no preorder index.
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
    fn len(&self) -> usize {
        self.len
    }

    /// True when the tree holds no element at all.
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The op-index addressing rule: modulo the live pool size.
    fn resolve(&self, i: usize) -> Result<NodeId, TreeError> {
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
    fn insert_new(&mut self, tree: &XmlTree, node: NodeId) -> Result<(), TreeError> {
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
    fn remove_subtree(&mut self, tree: &XmlTree, node: NodeId) -> Result<(), TreeError> {
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
/// This is the crate's one script walker run with a session: each
/// mutation an op emits runs through the same applier as
/// [`crate::mutations::apply_log_dyn`] as soon as it is emitted, so
/// each op addresses the pool the previous op left behind. The per-op
/// path performs no validation or snapshotting: the walker only emits
/// mutations it has already resolved against live pool targets, and
/// atomicity is the *batch* API's contract.
pub fn run_script_dyn(
    tree: &mut XmlTree,
    session: &mut dyn DynScheme,
    script: &Script,
) -> Result<DriveStats, TreeError> {
    let mut stats = DriveStats::default();
    let pool = ElementPool::build(tree);
    walk_script(script, tree, Some(&mut *session), pool, &mut stats)?;
    Ok(stats.close(session))
}

/// The one script walker: resolve each op of `script` against `pool`,
/// the elements of `tree` as it is handed over, emit the op's mutations
/// and apply each to `tree` as it is emitted, so every later op
/// addresses the pool and tree its predecessors left. The rules are
/// those [`run_script_dyn`] documents. Nodes the script creates are
/// named [`NodeRef::New`], numbered in creation order: the tree's arena
/// appends, so a log applied to the tree as it was handed over binds
/// each to the id it has here.
///
/// * With no `session` it is the script translation behind
///   [`crate::mutations::batch_of_in_place`]: the mutations only count
///   into `stats`, and the returned log holds them all. The caller
///   rolls the tree's edits back.
/// * With a `session` it is the per-op driver: each mutation runs
///   through the scheme, label sizes are checkpointed into `stats`
///   every [`CHECKPOINT_EVERY`] script ops, and no log is kept (the
///   returned one is empty).
pub(crate) fn walk_script<'o>(
    script: &Script,
    tree: &mut XmlTree,
    session: Option<&mut (dyn DynScheme + 'o)>,
    pool: ElementPool<'_>,
    stats: &mut DriveStats,
) -> Result<MutationLog, TreeError> {
    let mut w = Walker {
        base: tree.id_bound(),
        tree,
        session,
        pool,
        binds: LogBindings::default(),
        log: MutationLog::new(),
        stats,
    };
    let mut zig: Option<(NodeId, NodeId)> = None;
    let mut zig_step = 0usize;

    for (op_idx, op) in script.ops.iter().enumerate() {
        if w.pool.is_empty() {
            break;
        }
        match *op {
            ScriptOp::InsertBefore(i) => {
                let target = w.pool.resolve(i)?;
                let place = if w.top_level(target) {
                    Place::FirstChildOf(w.node_ref(target))
                } else {
                    Place::Before(w.node_ref(target))
                };
                w.create(place)?;
            }
            ScriptOp::InsertAfter(i) if i == usize::MAX => {
                // zigzag: insert between an adjacent pair, alternately
                // keeping the new node as the pair's right or left end.
                let (a, b) = match zig {
                    Some((a, b))
                        if w.tree.is_alive(a)
                            && w.tree.is_alive(b)
                            && w.tree.next_sibling(a) == Some(b) =>
                    {
                        (a, b)
                    }
                    _ => {
                        let basis = w.pool.resolve(w.pool.len() / 2)?;
                        let c1 = w.create(Place::LastChildOf(w.node_ref(basis)))?;
                        let c2 = w.create(Place::LastChildOf(w.node_ref(basis)))?;
                        (c1, c2)
                    }
                };
                let node = w.create(Place::After(w.node_ref(a)))?;
                zig = Some(if zig_step.is_multiple_of(2) {
                    (a, node)
                } else {
                    (node, b)
                });
                zig_step += 1;
            }
            ScriptOp::InsertAfter(i) => {
                let target = w.pool.resolve(i)?;
                let place = if w.top_level(target) {
                    Place::LastChildOf(w.node_ref(target))
                } else {
                    Place::After(w.node_ref(target))
                };
                w.create(place)?;
            }
            ScriptOp::PrependChild(i) => {
                let target = w.pool.resolve(i)?;
                w.create(Place::FirstChildOf(w.node_ref(target)))?;
            }
            ScriptOp::AppendChild(i) => {
                let target = w.pool.resolve(i)?;
                w.create(Place::LastChildOf(w.node_ref(target)))?;
            }
            ScriptOp::DeleteSubtree(i) => {
                let target = w.pool.resolve(i)?;
                if Some(target) == w.tree.document_element() || w.pool.len() <= 2 {
                    continue;
                }
                w.delete(target)?;
            }
        }
        if let Some(session) = w.session.as_deref() {
            if op_idx % CHECKPOINT_EVERY == 0 {
                w.stats.peak_label_bits = w.stats.peak_label_bits.max(session.max_bits());
            }
        }
    }
    Ok(w.log)
}

/// The state [`walk_script`] threads through a script's ops.
struct Walker<'w, 'o, 'p> {
    tree: &'w mut XmlTree,
    session: Option<&'w mut (dyn DynScheme + 'o)>,
    pool: ElementPool<'p>,
    binds: LogBindings,
    log: MutationLog,
    stats: &'w mut DriveStats,
    /// The tree's id bound when the walk began: every id from here on
    /// is a node the script made.
    base: usize,
}

impl Walker<'_, '_, '_> {
    /// How the log names `node`: the `k`-th node the script made is
    /// `New(LogId(k))`, any other node is itself.
    fn node_ref(&self, node: NodeId) -> NodeRef {
        match node.index().checked_sub(self.base) {
            Some(k) => NodeRef::New(LogId(k as u32)),
            None => NodeRef::Node(node),
        }
    }

    /// A node at the document level (or the document node itself),
    /// beside which an insert lands as its child instead.
    fn top_level(&self, node: NodeId) -> bool {
        let parent = self.tree.parent(node);
        parent == Some(self.tree.root()) || parent.is_none()
    }

    /// Emit one element at `place`: apply it, add it to the pool, then
    /// keep it in the log. Returns the new node.
    fn create(&mut self, place: Place) -> Result<NodeId, TreeError> {
        // The node gets the next arena id, which `node_ref` names so.
        let id = LogId((self.tree.id_bound() - self.base) as u32);
        let m = Mutation::CreateElement {
            id,
            name: "u".to_string(),
            place,
        };
        self.apply(&m)?;
        let node = self.binds.node(id)?;
        self.pool.insert_new(self.tree, node)?;
        self.keep(m);
        Ok(node)
    }

    /// Emit the delete of the pool element `target`'s subtree: cut it
    /// out of the pool while it is still attached, apply it, then keep
    /// it in the log.
    fn delete(&mut self, target: NodeId) -> Result<(), TreeError> {
        self.pool.remove_subtree(self.tree, target)?;
        let m = Mutation::Delete {
            target: self.node_ref(target),
        };
        self.apply(&m)?;
        self.keep(m);
        Ok(())
    }

    fn apply(&mut self, m: &Mutation) -> Result<(), TreeError> {
        apply_mutation_dyn(
            self.tree,
            self.session.as_deref_mut(),
            &mut self.binds,
            m,
            self.stats,
        )
    }

    /// Only the translation keeps a log; the per-op driver has applied
    /// `m` through its session already.
    fn keep(&mut self, m: Mutation) {
        if self.session.is_none() {
            self.log.push(m);
        }
    }
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

    /// `donor`'s subtree at `root` as one log, §3.1.2's "serialised as
    /// a sequence of nodes": one create per node in the donor's
    /// preorder, the root at `place` and every other node as the last
    /// child of its parent's copy.
    fn graft_log(donor: &XmlTree, root: NodeId, place: Place) -> MutationLog {
        use xupd_xmldom::NodeKind;
        let mut ids = vec![LogId(0); donor.id_bound()];
        let mut log = MutationLog::new();
        for (i, node) in donor.preorder_from(root).enumerate() {
            let id = LogId(i as u32);
            ids[node.index()] = id;
            let place = match donor.parent(node) {
                Some(p) if node != root => Place::LastChildOf(NodeRef::New(ids[p.index()])),
                _ => place,
            };
            log.push(match donor.kind(node) {
                NodeKind::Element { name } => Mutation::CreateElement {
                    id,
                    name: name.clone(),
                    place,
                },
                kind => Mutation::CreateNode {
                    id,
                    kind: kind.clone(),
                    place,
                },
            });
        }
        log
    }

    #[test]
    fn graft_labels_a_whole_subtree_in_document_order() {
        use xupd_xmldom::TreeBuilder;
        let mut tree = docs::book();
        let mut scheme = Qed::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();

        // a detached appendix subtree, grafted under <book> as one log
        let sub = TreeBuilder::new()
            .open("appendix")
            .leaf("section", "errata")
            .leaf("section", "index")
            .close()
            .finish();
        let book = tree.document_element().unwrap();
        let sub_root_src = sub.document_element().unwrap();
        let log = graft_log(&sub, sub_root_src, Place::LastChildOf(NodeRef::Node(book)));
        let stats = crate::mutations::apply_log_dyn(
            &mut tree,
            &mut SessionMut::new(&mut scheme, &mut labeling),
            &log,
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
        use xupd_xmldom::TreeBuilder;
        let mut tree = docs::wide(5);
        let mut scheme = DeweyId::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let root_elem = tree.document_element().unwrap();
        let first = tree.first_child(root_elem).unwrap();
        // graft a two-node subtree before the first child
        let sub = TreeBuilder::new()
            .open("g")
            .open("gl")
            .close()
            .close()
            .finish();
        let sub_root = sub.document_element().unwrap();
        let log = graft_log(&sub, sub_root, Place::Before(NodeRef::Node(first)));
        let stats = crate::mutations::apply_log_dyn(
            &mut tree,
            &mut SessionMut::new(&mut scheme, &mut labeling),
            &log,
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
