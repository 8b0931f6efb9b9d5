//! Batched, atomic, replayable tree edits: the `MutationLog` API.
//!
//! The paper evaluates update mechanisms one operation at a time, but
//! every desirable property it names — determinism of relabelling,
//! bounded update cost, reconstructability — gets cheaper and easier to
//! check when edits are grouped into a **validated, atomic batch**:
//!
//! * [`validate`] rejects ill-formed logs (dangling ids, cycles,
//!   conflicting writes) *before* any state changes;
//! * [`apply_log`] / [`apply_log_dyn`] apply a log with all-or-nothing
//!   semantics — a failing (or panicking) op rolls the tree *and* the
//!   labelling session back to their pre-batch state, replaying undo
//!   journals of the nodes and labels the batch wrote. They share the
//!   one atomic-apply loop with
//!   [`crate::analysis::apply_plan_with_dyn`], which runs a log in its
//!   analyzed plan's certified order instead;
//! * [`serialize`] / [`deserialize`] give a compact deterministic byte
//!   format for crash-recovery journaling;
//! * [`invert`] produces the undo log, giving undo/redo for free.
//!
//! The per-op script driver ([`crate::driver::run_script_dyn`]) is a
//! consumer of this module: each script op becomes a one-op batch, so
//! the historical op semantics (and the `results/*` goldens) are defined
//! by exactly the same application code as full batches.

use crate::driver::{apply_insert_dyn, DriveStats, ElementPool, CHECKPOINT_EVERY};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use xupd_labelcore::{DynScheme, Labeling, LabelingScheme, SessionMut};
use xupd_workloads::{Script, ScriptOp};
use xupd_xmldom::{NodeId, NodeKind, TreeError, XmlTree};

/// A log-local id for a node the batch itself creates. Shares no
/// namespace with [`NodeId`]: later mutations in the same batch refer to
/// freshly created nodes as [`NodeRef::New`]`(LogId)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LogId(pub u32);

/// How a mutation names a node: either a node that exists before the
/// batch runs, or one the batch creates under a [`LogId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRef {
    /// A pre-existing node.
    Node(NodeId),
    /// A node created earlier in the same batch.
    New(LogId),
}

/// Where a created or moved node lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Place {
    /// First child of the referenced node.
    FirstChildOf(NodeRef),
    /// Last child of the referenced node.
    LastChildOf(NodeRef),
    /// Immediately before the referenced sibling.
    Before(NodeRef),
    /// Immediately after the referenced sibling.
    After(NodeRef),
}

impl Place {
    /// The node the place is anchored on (parent or reference sibling).
    pub fn anchor(self) -> NodeRef {
        match self {
            Place::FirstChildOf(r) | Place::LastChildOf(r) | Place::Before(r) | Place::After(r) => {
                r
            }
        }
    }
}

/// One edit in a [`MutationLog`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mutation {
    /// Create a fresh element named `name` at `place`, bound to `id`.
    CreateElement {
        /// Log-local id later mutations use to refer to the new node.
        id: LogId,
        /// Element name.
        name: String,
        /// Landing position.
        place: Place,
    },
    /// Create a fresh node of arbitrary (non-document) `kind` at
    /// `place`. This is the general form [`invert`] needs to revive
    /// deleted text/attribute/comment/PI nodes.
    CreateNode {
        /// Log-local id later mutations use to refer to the new node.
        id: LogId,
        /// The node kind (must not be [`NodeKind::Document`]).
        kind: NodeKind,
        /// Landing position.
        place: Place,
    },
    /// Overwrite the value of a text node.
    SetText {
        /// The text node to rewrite.
        target: NodeRef,
        /// New value.
        text: String,
    },
    /// Delete `target`'s subtree and put a fresh element named `name`
    /// (bound to `id`) in its place.
    Replace {
        /// The subtree to replace.
        target: NodeRef,
        /// Log-local id of the replacement element.
        id: LogId,
        /// Replacement element name.
        name: String,
    },
    /// Delete `target`'s subtree.
    Delete {
        /// The subtree root to delete.
        target: NodeRef,
    },
    /// Append a run of fresh elements, all named `name`, as the last
    /// children of `parent`, bound to `ids` in order.
    AppendChildren {
        /// The parent receiving the run.
        parent: NodeRef,
        /// Log-local ids of the new children, in sibling order.
        ids: Vec<LogId>,
        /// Element name shared by the run.
        name: String,
    },
    /// Detach `target`'s subtree and re-attach it at `place`.
    MoveSubtree {
        /// The subtree root to move.
        target: NodeRef,
        /// Landing position.
        place: Place,
    },
}

/// An ordered batch of [`Mutation`]s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MutationLog {
    ops: Vec<Mutation>,
}

impl MutationLog {
    /// An empty log.
    pub fn new() -> Self {
        MutationLog::default()
    }

    /// Append one mutation.
    pub fn push(&mut self, m: Mutation) {
        self.ops.push(m);
    }

    /// Number of mutations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the log holds no mutation.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Drop all mutations, keeping the allocation.
    pub fn clear(&mut self) {
        self.ops.clear();
    }

    /// The mutations in application order.
    pub fn iter(&self) -> std::slice::Iter<'_, Mutation> {
        self.ops.iter()
    }
}

impl From<Vec<Mutation>> for MutationLog {
    fn from(ops: Vec<Mutation>) -> Self {
        MutationLog { ops }
    }
}

impl<'a> IntoIterator for &'a MutationLog {
    type Item = &'a Mutation;
    type IntoIter = std::slice::Iter<'a, Mutation>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter()
    }
}

/// [`LogId`] → [`NodeId`] bindings accumulated while a batch runs.
#[derive(Debug, Clone, Default)]
pub struct LogBindings {
    slots: Vec<Option<NodeId>>,
}

impl LogBindings {
    /// Forget all bindings (keeps the allocation).
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    /// Record that `id` was created as `node`.
    pub(crate) fn bind(&mut self, id: LogId, node: NodeId) -> Result<(), TreeError> {
        let i = id.0 as usize;
        if self.slots.len() <= i {
            self.slots.resize(i + 1, None);
        }
        if self.slots[i].is_some() {
            return Err(TreeError::DuplicateCreate(id.0));
        }
        self.slots[i] = Some(node);
        Ok(())
    }

    /// The node bound to `id`, or an invariant error when unbound.
    pub fn node(&self, id: LogId) -> Result<NodeId, TreeError> {
        self.slots
            .get(id.0 as usize)
            .copied()
            .flatten()
            .ok_or_else(|| TreeError::Invariant(format!("log id #{} is unbound", id.0)))
    }

    /// Resolve a reference to a concrete node id.
    pub(crate) fn resolve(&self, r: NodeRef) -> Result<NodeId, TreeError> {
        match r {
            NodeRef::Node(n) => Ok(n),
            NodeRef::New(l) => self.node(l),
        }
    }

    /// [`LogBindings::resolve`], additionally requiring the node to be
    /// alive in `tree`.
    pub(crate) fn resolve_live(&self, tree: &XmlTree, r: NodeRef) -> Result<NodeId, TreeError> {
        let n = self.resolve(r)?;
        if !tree.is_alive(n) {
            return Err(TreeError::DanglingNodeId(n));
        }
        Ok(n)
    }
}

/// Attach the (detached) `node` at `place`.
fn attach(
    tree: &mut XmlTree,
    binds: &LogBindings,
    node: NodeId,
    place: Place,
) -> Result<(), TreeError> {
    match place {
        Place::FirstChildOf(r) => {
            let p = binds.resolve_live(tree, r)?;
            tree.prepend_child(p, node)
        }
        Place::LastChildOf(r) => {
            let p = binds.resolve_live(tree, r)?;
            tree.append_child(p, node)
        }
        Place::Before(r) => {
            let s = binds.resolve_live(tree, r)?;
            tree.insert_before(s, node)
        }
        Place::After(r) => {
            let s = binds.resolve_live(tree, r)?;
            tree.insert_after(s, node)
        }
    }
}

/// Register one freshly attached node with the pool and the labelling
/// session — exactly the order the per-op driver has always used
/// (pool first, then the scheme's insertion path).
fn register_insert<'o>(
    tree: &XmlTree,
    session: Option<&mut (dyn DynScheme + 'o)>,
    pool: Option<&mut ElementPool>,
    node: NodeId,
    stats: &mut DriveStats,
) -> Result<(), TreeError> {
    if let Some(p) = pool {
        if tree.kind(node).is_element() {
            p.insert_new(tree, node);
        }
    }
    match session {
        Some(s) => apply_insert_dyn(tree, s, node, stats),
        None => {
            stats.inserts += 1;
            Ok(())
        }
    }
}

/// Create, attach, bind and register one fresh node.
fn create_one<'o>(
    tree: &mut XmlTree,
    session: Option<&mut (dyn DynScheme + 'o)>,
    pool: Option<&mut ElementPool>,
    binds: &mut LogBindings,
    id: LogId,
    kind: NodeKind,
    place: Place,
    stats: &mut DriveStats,
) -> Result<NodeId, TreeError> {
    let node = tree.create(kind);
    attach(tree, binds, node, place)?;
    binds.bind(id, node)?;
    register_insert(tree, session, pool, node, stats)?;
    Ok(node)
}

/// Drop labels, pool entries and structure for `target`'s subtree.
fn consume_subtree<'o>(
    tree: &mut XmlTree,
    session: Option<&mut (dyn DynScheme + 'o)>,
    pool: Option<&mut ElementPool>,
    target: NodeId,
    stats: &mut DriveStats,
) -> Result<(), TreeError> {
    if let Some(s) = session {
        s.on_delete(tree, target);
    }
    if let Some(p) = pool {
        if tree.kind(target).is_element() {
            p.remove_subtree(tree, target);
        }
    }
    tree.remove_subtree(target)?;
    stats.deletes += 1;
    Ok(())
}

/// Apply one mutation against the tree, optionally threading a labelling
/// session (None = structural simulation, as [`invert`] uses) and an
/// incrementally maintained element pool (Some only where ops address
/// the pool: the per-op driver and [`batch_of`]; batch apply takes none).
pub(crate) fn apply_mutation_dyn<'o>(
    tree: &mut XmlTree,
    mut session: Option<&mut (dyn DynScheme + 'o)>,
    mut pool: Option<&mut ElementPool>,
    binds: &mut LogBindings,
    m: &Mutation,
    stats: &mut DriveStats,
) -> Result<(), TreeError> {
    match m {
        Mutation::CreateElement { id, name, place } => {
            create_one(
                tree,
                session,
                pool,
                binds,
                *id,
                NodeKind::element(name.clone()),
                *place,
                stats,
            )?;
        }
        Mutation::CreateNode { id, kind, place } => {
            if matches!(kind, NodeKind::Document) {
                return Err(TreeError::Invariant(
                    "a batch cannot create a document node".to_string(),
                ));
            }
            create_one(tree, session, pool, binds, *id, kind.clone(), *place, stats)?;
        }
        Mutation::SetText { target, text } => {
            let t = binds.resolve_live(tree, *target)?;
            match tree.kind_mut(t) {
                NodeKind::Text { value } => {
                    *value = text.clone();
                }
                _ => {
                    return Err(TreeError::Invariant(format!(
                        "SetText target {t} is not a text node"
                    )))
                }
            }
        }
        Mutation::Replace { target, id, name } => {
            let t = binds.resolve_live(tree, *target)?;
            let prev = tree.prev_sibling(t);
            let parent = tree.parent(t).ok_or(TreeError::RootImmutable)?;
            consume_subtree(tree, session.as_deref_mut(), pool.as_deref_mut(), t, stats)?;
            let node = tree.create(NodeKind::element(name.clone()));
            match prev {
                Some(p) => tree.insert_after(p, node)?,
                None => tree.prepend_child(parent, node)?,
            }
            binds.bind(*id, node)?;
            register_insert(tree, session, pool, node, stats)?;
        }
        Mutation::Delete { target } => {
            let t = binds.resolve_live(tree, *target)?;
            consume_subtree(tree, session, pool, t, stats)?;
        }
        Mutation::AppendChildren { parent, ids, name } => {
            let p = binds.resolve_live(tree, *parent)?;
            for id in ids {
                let node = tree.create(NodeKind::element(name.clone()));
                tree.append_child(p, node)?;
                binds.bind(*id, node)?;
                register_insert(
                    tree,
                    session.as_deref_mut(),
                    pool.as_deref_mut(),
                    node,
                    stats,
                )?;
            }
        }
        Mutation::MoveSubtree { target, place } => {
            let t = binds.resolve_live(tree, *target)?;
            if let Some(s) = session.as_deref_mut() {
                s.on_delete(tree, t);
            }
            if let Some(p) = pool.as_deref_mut() {
                if tree.kind(t).is_element() {
                    p.remove_subtree(tree, t);
                }
            }
            tree.detach(t)?;
            attach(tree, binds, t, *place)?;
            let moved: Vec<NodeId> = tree.preorder_from(t).collect();
            for node in moved {
                if let Some(p) = pool.as_deref_mut() {
                    if tree.kind(node).is_element() {
                        p.insert_new(tree, node);
                    }
                }
                match session.as_deref_mut() {
                    Some(s) => apply_insert_dyn(tree, s, node, stats)?,
                    None => stats.inserts += 1,
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Validation: reject ill-formed logs before any state changes.
// ---------------------------------------------------------------------

/// One node's identity in the validator's shadow simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum RefKey {
    /// Pre-existing node, by arena index.
    Node(u32),
    /// Batch-created node, by log id.
    New(u32),
}

fn ref_key(r: NodeRef) -> RefKey {
    match r {
        NodeRef::Node(n) => RefKey::Node(n.index() as u32),
        NodeRef::New(l) => RefKey::New(l.0),
    }
}

/// Shadow state the validator threads through the log: which log ids
/// exist (and whether they denote text nodes), which nodes the batch has
/// consumed, which text nodes it has written, and where creates/moves
/// re-parented things — all without touching the real tree.
struct Shadow<'t> {
    tree: &'t XmlTree,
    /// log id → the created node is a text node.
    created: BTreeMap<u32, bool>,
    deleted: BTreeSet<RefKey>,
    text_written: BTreeSet<RefKey>,
    parent_override: BTreeMap<RefKey, RefKey>,
}

impl Shadow<'_> {
    fn parent(&self, k: RefKey) -> Option<RefKey> {
        if let Some(&p) = self.parent_override.get(&k) {
            return Some(p);
        }
        match k {
            RefKey::Node(i) => self
                .tree
                .parent(NodeId::from_index(i as usize))
                .map(|p| RefKey::Node(p.index() as u32)),
            RefKey::New(_) => None,
        }
    }

    /// Has the batch already deleted/replaced `k` or a shadow ancestor?
    fn consumed(&self, k: RefKey) -> bool {
        let mut cur = Some(k);
        while let Some(c) = cur {
            if self.deleted.contains(&c) {
                return true;
            }
            cur = self.parent(c);
        }
        false
    }

    fn check_ref(&self, r: NodeRef) -> Result<(), TreeError> {
        match r {
            NodeRef::Node(n) => {
                if !self.tree.is_alive(n) {
                    return Err(TreeError::DanglingNodeId(n));
                }
                if self.consumed(RefKey::Node(n.index() as u32)) {
                    return Err(TreeError::ConflictingWrite(n));
                }
            }
            NodeRef::New(l) => {
                if !self.created.contains_key(&l.0) {
                    return Err(TreeError::Invariant(format!(
                        "log id #{} referenced before its creation",
                        l.0
                    )));
                }
                if self.consumed(RefKey::New(l.0)) {
                    return Err(TreeError::Invariant(format!(
                        "log id #{} was already consumed by the batch",
                        l.0
                    )));
                }
            }
        }
        Ok(())
    }

    /// The shadow parent a node placed at `place` would get.
    fn place_parent(&self, place: Place) -> Result<RefKey, TreeError> {
        match place {
            Place::FirstChildOf(r) | Place::LastChildOf(r) => {
                self.check_ref(r)?;
                Ok(ref_key(r))
            }
            Place::Before(r) | Place::After(r) => {
                self.check_ref(r)?;
                match self.parent(ref_key(r)) {
                    Some(p) => Ok(p),
                    None => match r {
                        NodeRef::Node(n) if n == self.tree.root() => Err(TreeError::RootImmutable),
                        NodeRef::Node(n) => Err(TreeError::NoParent(n)),
                        NodeRef::New(l) => Err(TreeError::Invariant(format!(
                            "log id #{} has no parent to anchor a sibling insert",
                            l.0
                        ))),
                    },
                }
            }
        }
    }

    fn register_create(&mut self, id: LogId, is_text: bool, place: Place) -> Result<(), TreeError> {
        if self.created.contains_key(&id.0) {
            return Err(TreeError::DuplicateCreate(id.0));
        }
        let pk = self.place_parent(place)?;
        self.created.insert(id.0, is_text);
        self.parent_override.insert(RefKey::New(id.0), pk);
        Ok(())
    }
}

/// Check `log` against `tree` without changing anything. Catches:
/// dangling [`NodeId`]s, forward/unknown [`LogId`] references, duplicate
/// creates ([`TreeError::DuplicateCreate`]), writes to nodes the batch
/// already consumed ([`TreeError::ConflictingWrite`]), double text
/// writes, root deletion/movement, document-node creation, and moves
/// that would cycle a subtree into itself ([`TreeError::WouldCycle`]) —
/// including cycles only visible through the batch's own re-parenting.
pub fn validate(log: &MutationLog, tree: &XmlTree) -> Result<(), TreeError> {
    let mut sh = Shadow {
        tree,
        created: BTreeMap::new(),
        deleted: BTreeSet::new(),
        text_written: BTreeSet::new(),
        parent_override: BTreeMap::new(),
    };
    for m in log.iter() {
        match m {
            Mutation::CreateElement { id, place, .. } => {
                sh.register_create(*id, false, *place)?;
            }
            Mutation::CreateNode { id, kind, place } => {
                if matches!(kind, NodeKind::Document) {
                    return Err(TreeError::Invariant(
                        "a batch cannot create a document node".to_string(),
                    ));
                }
                sh.register_create(*id, matches!(kind, NodeKind::Text { .. }), *place)?;
            }
            Mutation::SetText { target, .. } => {
                sh.check_ref(*target)?;
                let is_text = match *target {
                    NodeRef::Node(n) => matches!(tree.kind(n), NodeKind::Text { .. }),
                    NodeRef::New(l) => sh.created.get(&l.0).copied().unwrap_or(false),
                };
                if !is_text {
                    return Err(TreeError::Invariant(
                        "SetText target is not a text node".to_string(),
                    ));
                }
                if !sh.text_written.insert(ref_key(*target)) {
                    return Err(match *target {
                        NodeRef::Node(n) => TreeError::ConflictingWrite(n),
                        NodeRef::New(l) => TreeError::Invariant(format!(
                            "log id #{} receives two text writes",
                            l.0
                        )),
                    });
                }
            }
            Mutation::Replace { target, id, .. } => {
                sh.check_ref(*target)?;
                let k = ref_key(*target);
                let pk = match sh.parent(k) {
                    Some(p) => p,
                    None => {
                        return Err(match *target {
                            NodeRef::Node(n) if n == tree.root() => TreeError::RootImmutable,
                            NodeRef::Node(n) => TreeError::NoParent(n),
                            NodeRef::New(l) => TreeError::Invariant(format!(
                                "log id #{} has no parent; nothing to replace into",
                                l.0
                            )),
                        })
                    }
                };
                if sh.created.contains_key(&id.0) {
                    return Err(TreeError::DuplicateCreate(id.0));
                }
                sh.deleted.insert(k);
                sh.created.insert(id.0, false);
                sh.parent_override.insert(RefKey::New(id.0), pk);
            }
            Mutation::Delete { target } => {
                sh.check_ref(*target)?;
                if let NodeRef::Node(n) = *target {
                    if n == tree.root() {
                        return Err(TreeError::RootImmutable);
                    }
                }
                sh.deleted.insert(ref_key(*target));
            }
            Mutation::AppendChildren { parent, ids, .. } => {
                sh.check_ref(*parent)?;
                let pk = ref_key(*parent);
                for id in ids {
                    if sh.created.contains_key(&id.0) {
                        return Err(TreeError::DuplicateCreate(id.0));
                    }
                    sh.created.insert(id.0, false);
                    sh.parent_override.insert(RefKey::New(id.0), pk);
                }
            }
            Mutation::MoveSubtree { target, place } => {
                sh.check_ref(*target)?;
                if let NodeRef::Node(n) = *target {
                    if n == tree.root() {
                        return Err(TreeError::RootImmutable);
                    }
                }
                let tk = ref_key(*target);
                let cycle_err = || match *target {
                    NodeRef::Node(n) => TreeError::WouldCycle(n),
                    NodeRef::New(l) => TreeError::Invariant(format!(
                        "moving log id #{} under itself would create a cycle",
                        l.0
                    )),
                };
                if ref_key(place.anchor()) == tk {
                    return Err(cycle_err());
                }
                let pk = sh.place_parent(*place)?;
                let mut cur = Some(pk);
                while let Some(c) = cur {
                    if c == tk {
                        return Err(cycle_err());
                    }
                    cur = sh.parent(c);
                }
                sh.parent_override.insert(tk, pk);
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Atomic application.
// ---------------------------------------------------------------------

/// Validate `log` against `tree`, then apply it atomically in log order:
/// all mutations land, or — should any fail mid-batch — the tree and
/// the labelling session are rolled back to their pre-batch state from
/// undo journals of what the batch wrote, and the error is returned. A
/// panic mid-batch, including one raised inside a scheme, rolls back the
/// same way and then resumes unwinding. This is the sequential reference
/// every certified apply order
/// ([`crate::analysis::apply_plan_with_dyn`]) is differentially checked
/// against.
///
/// Relabelling still flows through the scheme's ordinary insertion path
/// (that *is* the object under measurement), but batch bookkeeping is
/// amortised: peak-size checkpoints run once every 25 mutations and
/// read a running label-size summary.
pub fn apply_log_dyn(
    tree: &mut XmlTree,
    session: &mut dyn DynScheme,
    log: &MutationLog,
) -> Result<DriveStats, TreeError> {
    validate(log, tree)?;
    apply_atomic(tree, session, log.iter())
}

/// Typed wrapper over [`apply_log_dyn`].
pub fn apply_log<S: LabelingScheme + Clone + 'static>(
    tree: &mut XmlTree,
    scheme: &mut S,
    labeling: &mut Labeling<S::Label>,
    log: &MutationLog,
) -> Result<DriveStats, TreeError> {
    apply_log_dyn(tree, &mut SessionMut::new(scheme, labeling), log)
}

/// The one atomic-apply loop behind every batch entry point: open the
/// tree's and the session's undo journals, apply `ops` in the order
/// given (the caller has validated them), checkpoint label sizes, then
/// commit both journals — or, if any op fails or panics, roll both back.
/// Atomicity so costs the nodes and labels the batch writes, not a copy
/// of the document, and the checkpoints read the labelling's size
/// summary instead of scanning it. A panic is re-raised after the
/// rollback: the store recovers poisoned locks, so its readers then see
/// the pre-batch document, never a half-applied one.
pub(crate) fn apply_atomic<'m>(
    tree: &mut XmlTree,
    session: &mut dyn DynScheme,
    ops: impl IntoIterator<Item = &'m Mutation>,
) -> Result<DriveStats, TreeError> {
    tree.begin_undo();
    let token = session.begin_batch();
    let mut stats = DriveStats::default();
    let mut binds = LogBindings::default();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        for (step, m) in ops.into_iter().enumerate() {
            apply_mutation_dyn(tree, Some(&mut *session), None, &mut binds, m, &mut stats)?;
            if step % CHECKPOINT_EVERY == 0 {
                stats.peak_label_bits = stats.peak_label_bits.max(session.max_bits());
            }
        }
        Ok(())
    }));
    let commit = matches!(outcome, Ok(Ok(())));
    tree.end_undo(commit);
    if !session.end_batch(token, commit) {
        return Err(TreeError::Invariant(
            "batch rollback: session token was rejected".to_string(),
        ));
    }
    match outcome {
        Err(panic) => resume_unwind(panic),
        Ok(result) => result?,
    }
    stats.peak_label_bits = stats.peak_label_bits.max(session.max_bits());
    stats.end_mean_bits = session.mean_bits();
    stats.end_max_bits = session.max_bits();
    Ok(stats)
}

// ---------------------------------------------------------------------
// Codec: compact deterministic bytes for crash-recovery journaling.
// ---------------------------------------------------------------------

const MAGIC: &[u8; 4] = b"XLOG";
const VERSION: u8 = 1;

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_ref(out: &mut Vec<u8>, r: NodeRef) {
    match r {
        NodeRef::Node(n) => {
            out.push(0);
            put_u32(out, n.index() as u32);
        }
        NodeRef::New(l) => {
            out.push(1);
            put_u32(out, l.0);
        }
    }
}

fn put_place(out: &mut Vec<u8>, p: Place) {
    let (tag, r) = match p {
        Place::FirstChildOf(r) => (0u8, r),
        Place::LastChildOf(r) => (1, r),
        Place::Before(r) => (2, r),
        Place::After(r) => (3, r),
    };
    out.push(tag);
    put_ref(out, r);
}

fn put_kind(out: &mut Vec<u8>, k: &NodeKind) {
    match k {
        NodeKind::Document => out.push(0),
        NodeKind::Element { name } => {
            out.push(1);
            put_str(out, name);
        }
        NodeKind::Attribute { name, value } => {
            out.push(2);
            put_str(out, name);
            put_str(out, value);
        }
        NodeKind::Text { value } => {
            out.push(3);
            put_str(out, value);
        }
        NodeKind::Comment { value } => {
            out.push(4);
            put_str(out, value);
        }
        NodeKind::Pi { target, data } => {
            out.push(5);
            put_str(out, target);
            put_str(out, data);
        }
    }
}

/// Encode a log to its compact deterministic byte form. Same log in,
/// same bytes out — byte equality is log equality.
pub fn serialize(log: &MutationLog) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.push(VERSION);
    put_u32(&mut out, log.len() as u32);
    for m in log.iter() {
        match m {
            Mutation::CreateElement { id, name, place } => {
                out.push(0);
                put_u32(&mut out, id.0);
                put_str(&mut out, name);
                put_place(&mut out, *place);
            }
            Mutation::CreateNode { id, kind, place } => {
                out.push(1);
                put_u32(&mut out, id.0);
                put_kind(&mut out, kind);
                put_place(&mut out, *place);
            }
            Mutation::SetText { target, text } => {
                out.push(2);
                put_ref(&mut out, *target);
                put_str(&mut out, text);
            }
            Mutation::Replace { target, id, name } => {
                out.push(3);
                put_ref(&mut out, *target);
                put_u32(&mut out, id.0);
                put_str(&mut out, name);
            }
            Mutation::Delete { target } => {
                out.push(4);
                put_ref(&mut out, *target);
            }
            Mutation::AppendChildren { parent, ids, name } => {
                out.push(5);
                put_ref(&mut out, *parent);
                put_u32(&mut out, ids.len() as u32);
                for id in ids {
                    put_u32(&mut out, id.0);
                }
                put_str(&mut out, name);
            }
            Mutation::MoveSubtree { target, place } => {
                out.push(6);
                put_ref(&mut out, *target);
                put_place(&mut out, *place);
            }
        }
    }
    out
}

struct Cursor<'b> {
    buf: &'b [u8],
    at: usize,
}

impl<'b> Cursor<'b> {
    fn err(what: &str) -> TreeError {
        TreeError::Invariant(format!("log codec: {what}"))
    }

    fn u8(&mut self) -> Result<u8, TreeError> {
        let b = *self
            .buf
            .get(self.at)
            .ok_or_else(|| Self::err("truncated byte"))?;
        self.at += 1;
        Ok(b)
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.at)
    }

    fn u32(&mut self) -> Result<u32, TreeError> {
        let end = self
            .at
            .checked_add(4)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| Self::err("truncated u32"))?;
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.buf[self.at..end]);
        self.at = end;
        Ok(u32::from_le_bytes(raw))
    }

    fn string(&mut self) -> Result<String, TreeError> {
        let len = self.u32()? as usize;
        let end = self
            .at
            .checked_add(len)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| Self::err("truncated string"))?;
        let s = std::str::from_utf8(&self.buf[self.at..end])
            .map_err(|_| Self::err("string is not UTF-8"))?
            .to_string();
        self.at = end;
        Ok(s)
    }

    fn node_ref(&mut self) -> Result<NodeRef, TreeError> {
        match self.u8()? {
            0 => Ok(NodeRef::Node(NodeId::from_index(self.u32()? as usize))),
            1 => Ok(NodeRef::New(LogId(self.u32()?))),
            t => Err(Self::err(&format!("unknown ref tag {t}"))),
        }
    }

    fn place(&mut self) -> Result<Place, TreeError> {
        let tag = self.u8()?;
        let r = self.node_ref()?;
        match tag {
            0 => Ok(Place::FirstChildOf(r)),
            1 => Ok(Place::LastChildOf(r)),
            2 => Ok(Place::Before(r)),
            3 => Ok(Place::After(r)),
            t => Err(Self::err(&format!("unknown place tag {t}"))),
        }
    }

    fn kind(&mut self) -> Result<NodeKind, TreeError> {
        match self.u8()? {
            0 => Ok(NodeKind::Document),
            1 => Ok(NodeKind::Element {
                name: self.string()?,
            }),
            2 => Ok(NodeKind::Attribute {
                name: self.string()?,
                value: self.string()?,
            }),
            3 => Ok(NodeKind::Text {
                value: self.string()?,
            }),
            4 => Ok(NodeKind::Comment {
                value: self.string()?,
            }),
            5 => Ok(NodeKind::Pi {
                target: self.string()?,
                data: self.string()?,
            }),
            t => Err(Self::err(&format!("unknown kind tag {t}"))),
        }
    }
}

/// Decode bytes produced by [`serialize`]. Malformed input (bad magic,
/// unknown tags, truncation, trailing bytes) yields
/// [`TreeError::Invariant`] and never panics.
pub fn deserialize(bytes: &[u8]) -> Result<MutationLog, TreeError> {
    let mut c = Cursor { buf: bytes, at: 0 };
    for &b in MAGIC {
        if c.u8()? != b {
            return Err(Cursor::err("bad magic"));
        }
    }
    if c.u8()? != VERSION {
        return Err(Cursor::err("unsupported version"));
    }
    let count = c.u32()? as usize;
    let mut log = MutationLog::new();
    for _ in 0..count {
        let m = match c.u8()? {
            0 => Mutation::CreateElement {
                id: LogId(c.u32()?),
                name: c.string()?,
                place: c.place()?,
            },
            1 => Mutation::CreateNode {
                id: LogId(c.u32()?),
                kind: c.kind()?,
                place: c.place()?,
            },
            2 => Mutation::SetText {
                target: c.node_ref()?,
                text: c.string()?,
            },
            3 => Mutation::Replace {
                target: c.node_ref()?,
                id: LogId(c.u32()?),
                name: c.string()?,
            },
            4 => Mutation::Delete {
                target: c.node_ref()?,
            },
            5 => {
                let parent = c.node_ref()?;
                let n = c.u32()? as usize;
                // Every id takes 4 bytes: a count the bytes left cannot
                // hold must not reserve memory before it is refused.
                let mut ids = Vec::with_capacity(n.min(c.remaining() / 4));
                for _ in 0..n {
                    ids.push(LogId(c.u32()?));
                }
                Mutation::AppendChildren {
                    parent,
                    ids,
                    name: c.string()?,
                }
            }
            6 => Mutation::MoveSubtree {
                target: c.node_ref()?,
                place: c.place()?,
            },
            t => return Err(Cursor::err(&format!("unknown mutation tag {t}"))),
        };
        log.push(m);
    }
    if c.at != bytes.len() {
        return Err(Cursor::err("trailing bytes"));
    }
    Ok(log)
}

// ---------------------------------------------------------------------
// Inversion: the undo log.
// ---------------------------------------------------------------------

/// Where a (deleted or moved) subtree root originally sat, in pre-edit
/// node-arena indices.
#[derive(Debug, Clone, Copy)]
enum OriginPlace {
    /// Immediately after this sibling.
    After(u32),
    /// First child of this parent.
    FirstUnder(u32),
}

/// Everything needed to revive one deleted subtree.
#[derive(Debug, Clone)]
struct RestoreInfo {
    origin: OriginPlace,
    /// `(arena index, kind at deletion, parent arena index)` in preorder;
    /// the first entry is the subtree root (its parent slot is unused).
    nodes: Vec<(u32, NodeKind, u32)>,
}

/// The forward log's effects, one seed per undoable action, with node
/// ids as they exist in the post-application tree (node ids are assigned
/// deterministically by creation order, so the scratch simulation and
/// the real application agree on them).
#[derive(Debug, Clone)]
enum Seed {
    Created { node: NodeId },
    TextSet { node: NodeId, old: String },
    Deleted { restore: RestoreInfo },
    Replaced { created: NodeId, restore: RestoreInfo },
    Moved { node: NodeId, origin: OriginPlace },
}

fn capture_origin(tree: &XmlTree, t: NodeId) -> Result<OriginPlace, TreeError> {
    match tree.prev_sibling(t) {
        Some(p) => Ok(OriginPlace::After(p.index() as u32)),
        None => Ok(OriginPlace::FirstUnder(
            tree.parent(t).ok_or(TreeError::RootImmutable)?.index() as u32,
        )),
    }
}

fn capture_restore(tree: &XmlTree, t: NodeId) -> Result<RestoreInfo, TreeError> {
    let origin = capture_origin(tree, t)?;
    let mut nodes = Vec::new();
    for n in tree.preorder_from(t) {
        let parent = if n == t {
            0
        } else {
            tree.parent(n).ok_or(TreeError::MissingParent(n))?.index() as u32
        };
        nodes.push((n.index() as u32, tree.kind(n).clone(), parent));
    }
    Ok(RestoreInfo { origin, nodes })
}

/// How the undo log refers to a node of the forward simulation: by its
/// (stable) post-application id, unless the undo log itself revives it —
/// then by the reviving mutation's [`LogId`].
fn undo_ref(ref_of: &BTreeMap<u32, NodeRef>, idx: u32) -> NodeRef {
    ref_of
        .get(&idx)
        .copied()
        .unwrap_or(NodeRef::Node(NodeId::from_index(idx as usize)))
}

fn undo_origin(ref_of: &BTreeMap<u32, NodeRef>, origin: OriginPlace) -> Place {
    match origin {
        OriginPlace::After(p) => Place::After(undo_ref(ref_of, p)),
        OriginPlace::FirstUnder(p) => Place::FirstChildOf(undo_ref(ref_of, p)),
    }
}

/// Emit the mutations reviving one deleted subtree, registering each
/// revived node's fresh [`LogId`] so later (undo-order) mutations can
/// refer to it.
fn emit_recreate(
    undo: &mut MutationLog,
    ref_of: &mut BTreeMap<u32, NodeRef>,
    next_lid: &mut u32,
    restore: &RestoreInfo,
) {
    for (i, (old, kind, parent)) in restore.nodes.iter().enumerate() {
        let lid = LogId(*next_lid);
        *next_lid += 1;
        let place = if i == 0 {
            undo_origin(ref_of, restore.origin)
        } else {
            // preorder + append reproduces the original sibling order
            Place::LastChildOf(undo_ref(ref_of, *parent))
        };
        undo.push(Mutation::CreateNode {
            id: lid,
            kind: kind.clone(),
            place,
        });
        ref_of.insert(*old, NodeRef::New(lid));
    }
}

/// Build the undo log for `log` against `tree` (the tree **before** the
/// log is applied). Applying `log` and then `invert(log, tree)` restores
/// a tree that serialises byte-for-byte to the original; revived nodes
/// get fresh arena ids (ids are never reused), so the undo log names
/// them through its own [`LogId`]s.
pub fn invert(log: &MutationLog, tree: &XmlTree) -> Result<MutationLog, TreeError> {
    validate(log, tree)?;
    let mut scratch = tree.clone();
    let mut binds = LogBindings::default();
    let mut sink = DriveStats::default();
    let mut seeds: Vec<Seed> = Vec::new();
    for m in log.iter() {
        match m {
            Mutation::CreateElement { id, .. } | Mutation::CreateNode { id, .. } => {
                apply_mutation_dyn(&mut scratch, None, None, &mut binds, m, &mut sink)?;
                seeds.push(Seed::Created {
                    node: binds.node(*id)?,
                });
            }
            Mutation::SetText { target, .. } => {
                let t = binds.resolve_live(&scratch, *target)?;
                let old = match scratch.kind(t) {
                    NodeKind::Text { value } => value.clone(),
                    _ => {
                        return Err(TreeError::Invariant(
                            "SetText target is not a text node".to_string(),
                        ))
                    }
                };
                apply_mutation_dyn(&mut scratch, None, None, &mut binds, m, &mut sink)?;
                seeds.push(Seed::TextSet { node: t, old });
            }
            Mutation::Replace { target, id, .. } => {
                let t = binds.resolve_live(&scratch, *target)?;
                let restore = capture_restore(&scratch, t)?;
                apply_mutation_dyn(&mut scratch, None, None, &mut binds, m, &mut sink)?;
                seeds.push(Seed::Replaced {
                    created: binds.node(*id)?,
                    restore,
                });
            }
            Mutation::Delete { target } => {
                let t = binds.resolve_live(&scratch, *target)?;
                let restore = capture_restore(&scratch, t)?;
                apply_mutation_dyn(&mut scratch, None, None, &mut binds, m, &mut sink)?;
                seeds.push(Seed::Deleted { restore });
            }
            Mutation::AppendChildren { ids, .. } => {
                apply_mutation_dyn(&mut scratch, None, None, &mut binds, m, &mut sink)?;
                for id in ids {
                    seeds.push(Seed::Created {
                        node: binds.node(*id)?,
                    });
                }
            }
            Mutation::MoveSubtree { target, .. } => {
                let t = binds.resolve_live(&scratch, *target)?;
                let origin = capture_origin(&scratch, t)?;
                apply_mutation_dyn(&mut scratch, None, None, &mut binds, m, &mut sink)?;
                seeds.push(Seed::Moved { node: t, origin });
            }
        }
    }

    let mut undo = MutationLog::new();
    let mut ref_of: BTreeMap<u32, NodeRef> = BTreeMap::new();
    let mut next_lid = 0u32;
    for seed in seeds.iter().rev() {
        match seed {
            Seed::Created { node } => {
                undo.push(Mutation::Delete {
                    target: undo_ref(&ref_of, node.index() as u32),
                });
            }
            Seed::TextSet { node, old } => {
                undo.push(Mutation::SetText {
                    target: undo_ref(&ref_of, node.index() as u32),
                    text: old.clone(),
                });
            }
            Seed::Deleted { restore } => {
                emit_recreate(&mut undo, &mut ref_of, &mut next_lid, restore);
            }
            Seed::Replaced { created, restore } => {
                undo.push(Mutation::Delete {
                    target: undo_ref(&ref_of, created.index() as u32),
                });
                emit_recreate(&mut undo, &mut ref_of, &mut next_lid, restore);
            }
            Seed::Moved { node, origin } => {
                let place = undo_origin(&ref_of, *origin);
                undo.push(Mutation::MoveSubtree {
                    target: undo_ref(&ref_of, node.index() as u32),
                    place,
                });
            }
        }
    }
    Ok(undo)
}

// ---------------------------------------------------------------------
// Script → batch translation.
// ---------------------------------------------------------------------

/// Translate a whole [`Script`] into **one** [`MutationLog`], replaying
/// the per-op driver's addressing rules (modulo-pool resolution, the
/// insert-before/after root fallbacks, the zigzag pair, the delete skip
/// rules) against a scratch copy of `tree` so every later op addresses
/// the pool state its predecessors left behind — exactly as
/// [`crate::driver::run_script_dyn`] would. Nodes the batch itself
/// creates are referenced as [`NodeRef::New`], numbered in creation
/// order, so [`apply_log`] on the real tree binds them to the same
/// arena ids the per-op driver would have produced.
pub fn batch_of(script: &Script, tree: &XmlTree) -> Result<MutationLog, TreeError> {
    let mut scratch = tree.clone();
    let base = scratch.id_bound();
    let mut pool = ElementPool::build(&scratch);
    let mut binds = LogBindings::default();
    let mut sink = DriveStats::default();
    let mut log = MutationLog::new();
    let mut next_lid = 0u32;
    let mut zig: Option<(NodeId, NodeId)> = None;
    let mut zig_step = 0usize;

    let node_ref = |id: NodeId| -> NodeRef {
        if id.index() < base {
            NodeRef::Node(id)
        } else {
            NodeRef::New(LogId((id.index() - base) as u32))
        }
    };

    // Emit one create + mirror it on the scratch tree; returns the
    // scratch node so zig bookkeeping can track it.
    let create = |log: &mut MutationLog,
                      scratch: &mut XmlTree,
                      pool: &mut ElementPool,
                      binds: &mut LogBindings,
                      sink: &mut DriveStats,
                      next_lid: &mut u32,
                      place: Place|
     -> Result<NodeId, TreeError> {
        let id = LogId(*next_lid);
        *next_lid += 1;
        let m = Mutation::CreateElement {
            id,
            name: "u".to_string(),
            place,
        };
        apply_mutation_dyn(scratch, None, Some(pool), binds, &m, sink)?;
        log.push(m);
        binds.node(id)
    };

    for op in &script.ops {
        if pool.is_empty() {
            break;
        }
        match *op {
            ScriptOp::InsertBefore(i) => {
                let target = pool.resolve(i);
                let place = if scratch.parent(target) == Some(scratch.root())
                    || scratch.parent(target).is_none()
                {
                    Place::FirstChildOf(node_ref(target))
                } else {
                    Place::Before(node_ref(target))
                };
                create(
                    &mut log,
                    &mut scratch,
                    &mut pool,
                    &mut binds,
                    &mut sink,
                    &mut next_lid,
                    place,
                )?;
            }
            ScriptOp::InsertAfter(i) if i == usize::MAX => {
                let (a, b) = match zig {
                    Some((a, b))
                        if scratch.is_alive(a)
                            && scratch.is_alive(b)
                            && scratch.next_sibling(a) == Some(b) =>
                    {
                        (a, b)
                    }
                    _ => {
                        let basis = pool.resolve(pool.len() / 2);
                        let c1 = create(
                            &mut log,
                            &mut scratch,
                            &mut pool,
                            &mut binds,
                            &mut sink,
                            &mut next_lid,
                            Place::LastChildOf(node_ref(basis)),
                        )?;
                        let c2 = create(
                            &mut log,
                            &mut scratch,
                            &mut pool,
                            &mut binds,
                            &mut sink,
                            &mut next_lid,
                            Place::LastChildOf(node_ref(basis)),
                        )?;
                        (c1, c2)
                    }
                };
                let node = create(
                    &mut log,
                    &mut scratch,
                    &mut pool,
                    &mut binds,
                    &mut sink,
                    &mut next_lid,
                    Place::After(node_ref(a)),
                )?;
                zig = Some(if zig_step % 2 == 0 { (a, node) } else { (node, b) });
                zig_step += 1;
            }
            ScriptOp::InsertAfter(i) => {
                let target = pool.resolve(i);
                let place = if scratch.parent(target) == Some(scratch.root())
                    || scratch.parent(target).is_none()
                {
                    Place::LastChildOf(node_ref(target))
                } else {
                    Place::After(node_ref(target))
                };
                create(
                    &mut log,
                    &mut scratch,
                    &mut pool,
                    &mut binds,
                    &mut sink,
                    &mut next_lid,
                    place,
                )?;
            }
            ScriptOp::PrependChild(i) => {
                let place = Place::FirstChildOf(node_ref(pool.resolve(i)));
                create(
                    &mut log,
                    &mut scratch,
                    &mut pool,
                    &mut binds,
                    &mut sink,
                    &mut next_lid,
                    place,
                )?;
            }
            ScriptOp::AppendChild(i) => {
                let place = Place::LastChildOf(node_ref(pool.resolve(i)));
                create(
                    &mut log,
                    &mut scratch,
                    &mut pool,
                    &mut binds,
                    &mut sink,
                    &mut next_lid,
                    place,
                )?;
            }
            ScriptOp::DeleteSubtree(i) => {
                let target = pool.resolve(i);
                if Some(target) == scratch.document_element() || pool.len() <= 2 {
                    continue;
                }
                let m = Mutation::Delete {
                    target: node_ref(target),
                };
                apply_mutation_dyn(&mut scratch, None, Some(&mut pool), &mut binds, &m, &mut sink)?;
                log.push(m);
            }
        }
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_schemes::prefix::dewey::DeweyId;
    use xupd_schemes::prefix::qed::Qed;
    use xupd_workloads::{docs, ScriptKind};
    use xupd_xmldom::serialize_compact;

    fn session_for(tree: &XmlTree) -> (Qed, Labeling<<Qed as LabelingScheme>::Label>) {
        let mut scheme = Qed::new();
        let labeling = scheme.label_tree(tree).expect("labelable");
        (scheme, labeling)
    }

    fn first_named(tree: &XmlTree, name: &str) -> NodeId {
        tree.preorder()
            .find(|&n| tree.kind(n).name() == Some(name))
            .expect("node present")
    }

    #[test]
    fn apply_log_creates_and_binds() {
        let mut tree = docs::book();
        let (mut scheme, mut labeling) = session_for(&tree);
        let book = tree.document_element().expect("book");
        let mut log = MutationLog::new();
        log.push(Mutation::CreateElement {
            id: LogId(0),
            name: "chapter".into(),
            place: Place::LastChildOf(NodeRef::Node(book)),
        });
        log.push(Mutation::AppendChildren {
            parent: NodeRef::New(LogId(0)),
            ids: vec![LogId(1), LogId(2), LogId(3)],
            name: "para".into(),
        });
        let stats = apply_log(&mut tree, &mut scheme, &mut labeling, &log).expect("applies");
        assert_eq!(stats.inserts, 4);
        tree.validate().expect("valid");
        assert_eq!(labeling.len(), tree.len());
        let chapter = first_named(&tree, "chapter");
        assert_eq!(tree.children(chapter).count(), 3);
    }

    #[test]
    fn validator_rejects_dangling_duplicate_and_write_after_delete() {
        let tree = docs::book();
        let title = first_named(&tree, "title");
        let dead = NodeId::from_index(tree.id_bound() + 7);
        let dangling = MutationLog::from(vec![Mutation::Delete {
            target: NodeRef::Node(dead),
        }]);
        assert_eq!(
            validate(&dangling, &tree),
            Err(TreeError::DanglingNodeId(dead))
        );

        let book = tree.document_element().expect("book");
        let dup = MutationLog::from(vec![
            Mutation::CreateElement {
                id: LogId(0),
                name: "x".into(),
                place: Place::LastChildOf(NodeRef::Node(book)),
            },
            Mutation::CreateElement {
                id: LogId(0),
                name: "y".into(),
                place: Place::LastChildOf(NodeRef::Node(book)),
            },
        ]);
        assert_eq!(validate(&dup, &tree), Err(TreeError::DuplicateCreate(0)));

        let wad = MutationLog::from(vec![
            Mutation::Delete {
                target: NodeRef::Node(title),
            },
            Mutation::CreateElement {
                id: LogId(0),
                name: "x".into(),
                place: Place::After(NodeRef::Node(title)),
            },
        ]);
        assert_eq!(validate(&wad, &tree), Err(TreeError::ConflictingWrite(title)));
    }

    #[test]
    fn validator_sees_cycles_through_batch_reparenting() {
        let tree = docs::book();
        let book = tree.document_element().expect("book");
        let title = first_named(&tree, "title");
        // move <book> under a fresh node that the batch puts inside
        // <title> — a cycle only visible through the shadow parents
        let log = MutationLog::from(vec![
            Mutation::CreateElement {
                id: LogId(0),
                name: "trap".into(),
                place: Place::LastChildOf(NodeRef::Node(title)),
            },
            Mutation::MoveSubtree {
                target: NodeRef::Node(book),
                place: Place::LastChildOf(NodeRef::New(LogId(0))),
            },
        ]);
        assert_eq!(validate(&log, &tree), Err(TreeError::WouldCycle(book)));
    }

    #[test]
    fn failing_batch_rolls_everything_back() {
        let mut tree = docs::book();
        let (mut scheme, mut labeling) = session_for(&tree);
        let before_tree = serialize_compact(&tree);
        let before_labels =
            SessionMut::new(&mut scheme, &mut labeling).labels_display();
        let book = tree.document_element().expect("book");
        let title = first_named(&tree, "title");
        // the validator rejects the SetText-on-element up front, so this
        // pins the reject-leaves-untouched half of atomicity; genuine
        // mid-apply failures (and their rollback) are fault-injected per
        // scheme in tests/mutation_log_atomicity.rs
        let log = MutationLog::from(vec![
            Mutation::CreateElement {
                id: LogId(0),
                name: "x".into(),
                place: Place::LastChildOf(NodeRef::Node(book)),
            },
            Mutation::SetText {
                target: NodeRef::Node(title),
                text: "nope".into(),
            },
        ]);
        let err = apply_log(&mut tree, &mut scheme, &mut labeling, &log)
            .expect_err("title is an element, not text");
        assert!(matches!(err, TreeError::Invariant(_)));
        assert_eq!(serialize_compact(&tree), before_tree, "tree untouched");
        assert_eq!(
            SessionMut::new(&mut scheme, &mut labeling).labels_display(),
            before_labels,
            "labeling untouched"
        );
    }

    #[test]
    fn codec_round_trips_every_variant() {
        let log = MutationLog::from(vec![
            Mutation::CreateElement {
                id: LogId(0),
                name: "α".into(),
                place: Place::FirstChildOf(NodeRef::Node(NodeId::from_index(3))),
            },
            Mutation::CreateNode {
                id: LogId(1),
                kind: NodeKind::Pi {
                    target: "xmlstyle".into(),
                    data: "href='x'".into(),
                },
                place: Place::Before(NodeRef::New(LogId(0))),
            },
            Mutation::SetText {
                target: NodeRef::Node(NodeId::from_index(9)),
                text: "new text".into(),
            },
            Mutation::Replace {
                target: NodeRef::Node(NodeId::from_index(4)),
                id: LogId(2),
                name: "r".into(),
            },
            Mutation::Delete {
                target: NodeRef::New(LogId(2)),
            },
            Mutation::AppendChildren {
                parent: NodeRef::Node(NodeId::from_index(1)),
                ids: vec![LogId(3), LogId(4)],
                name: "kid".into(),
            },
            Mutation::MoveSubtree {
                target: NodeRef::Node(NodeId::from_index(5)),
                place: Place::After(NodeRef::Node(NodeId::from_index(6))),
            },
        ]);
        let bytes = serialize(&log);
        assert_eq!(deserialize(&bytes).expect("round trip"), log);
        assert!(deserialize(&bytes[..bytes.len() - 1]).is_err(), "truncation");
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(deserialize(&trailing).is_err(), "trailing bytes");
        assert!(deserialize(b"NOPE").is_err(), "bad magic");
    }

    #[test]
    fn invert_round_trips_mixed_batches() {
        let mut tree = docs::book();
        let (mut scheme, mut labeling) = session_for(&tree);
        let original = serialize_compact(&tree);
        let book = tree.document_element().expect("book");
        let title = first_named(&tree, "title");
        let publisher = first_named(&tree, "publisher");
        let log = MutationLog::from(vec![
            Mutation::CreateElement {
                id: LogId(0),
                name: "appendix".into(),
                place: Place::LastChildOf(NodeRef::Node(book)),
            },
            Mutation::MoveSubtree {
                target: NodeRef::Node(publisher),
                place: Place::Before(NodeRef::Node(title)),
            },
            Mutation::Delete {
                target: NodeRef::Node(title),
            },
            Mutation::Replace {
                target: NodeRef::Node(publisher),
                id: LogId(1),
                name: "imprint".into(),
            },
        ]);
        let undo = invert(&log, &tree).expect("invertible");
        apply_log(&mut tree, &mut scheme, &mut labeling, &log).expect("forward");
        assert_ne!(serialize_compact(&tree), original);
        apply_log(&mut tree, &mut scheme, &mut labeling, &undo).expect("undo");
        assert_eq!(serialize_compact(&tree), original, "byte-for-byte restore");
        assert_eq!(labeling.len(), tree.len());
    }

    #[test]
    fn batch_of_matches_per_op_driver() {
        for kind in [ScriptKind::Random, ScriptKind::Skewed, ScriptKind::MixedDelete] {
            let base = docs::random_tree(11, 80);
            let script = Script::generate(kind, 120, 80, 13);

            let mut per_op_tree = base.clone();
            let mut scheme_a = DeweyId::new();
            let mut labeling_a = scheme_a.label_tree(&per_op_tree).expect("labelable");
            crate::driver::run_script_dyn(
                &mut per_op_tree,
                &mut SessionMut::new(&mut scheme_a, &mut labeling_a),
                &script,
            )
            .expect("per-op");

            let mut batched_tree = base.clone();
            let mut scheme_b = DeweyId::new();
            let mut labeling_b = scheme_b.label_tree(&batched_tree).expect("labelable");
            let log = batch_of(&script, &batched_tree).expect("translates");
            apply_log(&mut batched_tree, &mut scheme_b, &mut labeling_b, &log)
                .expect("batched");

            assert_eq!(
                serialize_compact(&per_op_tree),
                serialize_compact(&batched_tree),
                "{} trees agree",
                kind.name()
            );
        }
    }
}
