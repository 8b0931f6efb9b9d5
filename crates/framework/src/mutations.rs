//! Batched, atomic, replayable tree edits: the `MutationLog` API.
//!
//! The paper evaluates update mechanisms one operation at a time, but
//! every desirable property it names — determinism of relabelling,
//! bounded update cost, reconstructability — gets cheaper and easier to
//! check when edits are grouped into a **validated, atomic batch**:
//!
//! * [`validate`] rejects ill-formed logs (dangling ids, cycles,
//!   conflicting writes, results the parser could not read back)
//!   *before* any state changes;
//! * [`apply_log`] / [`apply_log_dyn`] apply a log with all-or-nothing
//!   semantics — a failing (or panicking) op rolls the tree *and* the
//!   labelling session back to their pre-batch state, replaying undo
//!   journals of the nodes and labels the batch wrote. They share the
//!   one atomic-apply loop with
//!   [`crate::analysis::apply_plan_with_dyn`], which runs a log in its
//!   analyzed plan's certified order instead;
//! * [`batch_of_in_place`] translates a whole update script into one
//!   log on the live tree, under an undo journal it always rolls back,
//!   so the translation copies nothing and leaves the tree as it found
//!   it; [`batch_of`] runs it on a copy. Both rank the tree's elements
//!   by one scan per script. [`crate::Document::compile_script`], the
//!   store's compile, reads that ranking off the document's preorder
//!   index instead, so its translation costs the script, not the
//!   document.
//!
//! The per-op script driver ([`crate::driver::run_script_dyn`]) is a
//! consumer of this module: each script op becomes a one-op batch, so
//! the historical op semantics (and the `results/*` goldens) are defined
//! by exactly the same application code as full batches.

use crate::driver::{apply_insert_dyn, DriveStats, ElementPool, CHECKPOINT_EVERY};
use crate::querycache::PreorderIndex;
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
    /// `place` — the general form for text, attribute, comment and PI
    /// nodes; flux lowers the non-element children of its tree
    /// literals to it.
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
pub(crate) struct LogBindings {
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
    pool: Option<&mut ElementPool<'_>>,
    node: NodeId,
    stats: &mut DriveStats,
) -> Result<(), TreeError> {
    if let Some(p) = pool {
        if tree.kind(node).is_element() {
            p.insert_new(tree, node)?;
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
    pool: Option<&mut ElementPool<'_>>,
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
    pool: Option<&mut ElementPool<'_>>,
    target: NodeId,
    stats: &mut DriveStats,
) -> Result<(), TreeError> {
    if let Some(s) = session {
        s.on_delete(tree, target);
    }
    if let Some(p) = pool {
        if tree.kind(target).is_element() {
            p.remove_subtree(tree, target)?;
        }
    }
    tree.remove_subtree(target)?;
    stats.deletes += 1;
    Ok(())
}

/// Apply one mutation against the tree, optionally threading a labelling
/// session (None = structural simulation, as [`batch_of_in_place`] runs
/// under the undo journal it rolls back) and an element pool (Some only
/// where ops address the pool: the per-op driver and the script
/// translation; batch apply takes none). Every element the mutation
/// attaches or removes is registered with the pool; an element the pool
/// cannot place is a [`TreeError::Invariant`].
pub(crate) fn apply_mutation_dyn<'o>(
    tree: &mut XmlTree,
    mut session: Option<&mut (dyn DynScheme + 'o)>,
    mut pool: Option<&mut ElementPool<'_>>,
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
                    p.remove_subtree(tree, t)?;
                }
            }
            tree.detach(t)?;
            attach(tree, binds, t, *place)?;
            let moved: Vec<NodeId> = tree.preorder_from(t).collect();
            for node in moved {
                if let Some(p) = pool.as_deref_mut() {
                    if tree.kind(node).is_element() {
                        p.insert_new(tree, node)?;
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

/// What the validator tracks of a node's kind: whether it holds
/// children, whether it takes a text write, whether it may sit at the
/// document level, and an attribute's name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KindClass<'t> {
    Element,
    Text,
    Attribute(&'t str),
    /// Document, comment or PI node.
    Other,
}

fn kind_class(kind: &NodeKind) -> KindClass<'_> {
    match kind {
        NodeKind::Element { .. } => KindClass::Element,
        NodeKind::Text { .. } => KindClass::Text,
        NodeKind::Attribute { name, .. } => KindClass::Attribute(name),
        _ => KindClass::Other,
    }
}

/// Reject a name the parser would not read back as one name.
fn check_name(what: &str, name: &str) -> Result<(), TreeError> {
    if xupd_xmldom::is_name(name) {
        Ok(())
    } else {
        Err(TreeError::Invariant(format!("{what} {name:?} is not an XML name")))
    }
}

/// Reject a text value the default parser drops: non-empty and only
/// whitespace.
fn check_text(value: &str) -> Result<(), TreeError> {
    if !value.is_empty() && value.chars().all(char::is_whitespace) {
        Err(TreeError::Invariant(format!("text {value:?} is only whitespace")))
    } else {
        Ok(())
    }
}

/// Reject node content the serializer would write as bytes that parse
/// back differently: a name that is not one, whitespace-only text, a PI
/// target the parser takes for the XML declaration, `?>` in PI data or
/// whitespace the parser strips from either end of it, and `--` or a
/// trailing `-` in a comment (XML 1.0 §2.5 and §2.6).
fn check_content(kind: &NodeKind) -> Result<(), TreeError> {
    match kind {
        NodeKind::Element { name } => check_name("element name", name),
        NodeKind::Attribute { name, .. } => check_name("attribute name", name),
        NodeKind::Text { value } => check_text(value),
        NodeKind::Pi { target, data } => {
            check_name("PI target", target)?;
            if target.eq_ignore_ascii_case("xml") {
                return Err(TreeError::Invariant(
                    "a PI cannot take the XML declaration's target".to_string(),
                ));
            }
            if data.contains("?>") {
                return Err(TreeError::Invariant("PI data cannot hold \"?>\"".to_string()));
            }
            // The parser skips XML whitespace after the target and
            // trims any trailing whitespace off the data.
            if data.starts_with([' ', '\t', '\r', '\n']) || data.ends_with(char::is_whitespace) {
                return Err(TreeError::Invariant(format!(
                    "PI data {data:?} starts or ends with whitespace"
                )));
            }
            Ok(())
        }
        NodeKind::Comment { value } if value.contains("--") || value.ends_with('-') => Err(
            TreeError::Invariant("a comment cannot hold \"--\" or end in \"-\"".to_string()),
        ),
        _ => Ok(()),
    }
}

/// Shadow state the validator threads through the log: which log ids
/// exist (and their kind class), which nodes the batch has consumed,
/// which text nodes it has written, and where creates/moves re-parented
/// things — all without touching the real tree.
struct Shadow<'t> {
    tree: &'t XmlTree,
    created: BTreeMap<u32, KindClass<'t>>,
    deleted: BTreeSet<RefKey>,
    text_written: BTreeSet<RefKey>,
    parent_override: BTreeMap<RefKey, RefKey>,
}

impl<'t> Shadow<'t> {
    fn root(&self) -> RefKey {
        RefKey::Node(self.tree.root().index() as u32)
    }

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

    /// A pre-existing node keeps its kind for the whole batch (`Replace`
    /// creates a fresh node); a created node has the kind it was made
    /// with.
    fn class(&self, k: RefKey) -> KindClass<'t> {
        match k {
            RefKey::Node(i) => kind_class(self.tree.kind(NodeId::from_index(i as usize))),
            RefKey::New(l) => self.created.get(&l).copied().unwrap_or(KindClass::Other),
        }
    }

    /// A created or moved node lands under an element or the document
    /// node: the serializer writes no children of a text, attribute,
    /// comment or PI node.
    fn check_holds_children(&self, pk: RefKey) -> Result<(), TreeError> {
        if pk != self.root() && self.class(pk) != KindClass::Element {
            let what = match pk {
                RefKey::Node(i) => format!("node {}", NodeId::from_index(i as usize)),
                RefKey::New(l) => format!("log id #{l}"),
            };
            return Err(TreeError::Invariant(format!(
                "{what} is not an element and cannot hold children"
            )));
        }
        Ok(())
    }

    /// The children `host` holds once the batch has run: the pre-batch
    /// children that stayed, then the nodes the batch placed under it,
    /// less the ones it deleted.
    fn final_children(&self, host: RefKey) -> impl Iterator<Item = RefKey> + '_ {
        let pre = match host {
            RefKey::Node(i) => Some(self.tree.children(NodeId::from_index(i as usize))),
            RefKey::New(_) => None,
        };
        pre.into_iter()
            .flatten()
            .map(|c| RefKey::Node(c.index() as u32))
            .filter(|k| !self.parent_override.contains_key(k))
            .chain(
                self.parent_override
                    .iter()
                    .filter(move |&(_, &p)| p == host)
                    .map(|(&k, _)| k),
            )
            .filter(|k| !self.deleted.contains(k))
    }

    /// The batch's result holds exactly one element under the document
    /// node, beside comments and PIs only: no element means the
    /// document element was deleted, a second one or a text or
    /// attribute node would be content outside the document element.
    fn check_document_level(&self) -> Result<(), TreeError> {
        let mut elements = 0;
        for k in self.final_children(self.root()) {
            match self.class(k) {
                KindClass::Element => elements += 1,
                KindClass::Text | KindClass::Attribute(_) => {
                    return Err(TreeError::Invariant(
                        "a text or attribute node cannot sit at the document level".to_string(),
                    ))
                }
                KindClass::Other => {}
            }
        }
        match elements {
            1 => Ok(()),
            0 => Err(TreeError::RootImmutable),
            n => Err(TreeError::Invariant(format!(
                "the batch leaves {n} elements at the document level"
            ))),
        }
    }

    /// No element the batch gives an attribute ends up holding two
    /// attributes of one name.
    fn check_attribute_names(&self) -> Result<(), TreeError> {
        let hosts: BTreeSet<RefKey> = self
            .parent_override
            .iter()
            .filter(|&(&k, _)| matches!(self.class(k), KindClass::Attribute(_)))
            .map(|(_, &p)| p)
            .collect();
        for host in hosts.into_iter().filter(|&h| !self.consumed(h)) {
            let mut names: Vec<&str> = self
                .final_children(host)
                .filter_map(|k| match self.class(k) {
                    KindClass::Attribute(name) => Some(name),
                    _ => None,
                })
                .collect();
            names.sort_unstable();
            if let Some(pair) = names.windows(2).find(|pair| pair[0] == pair[1]) {
                return Err(TreeError::Invariant(format!(
                    "the batch leaves two attributes named {:?} on one element",
                    pair[0]
                )));
            }
        }
        Ok(())
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
                self.parent_of(r)
            }
        }
    }

    /// `r`'s shadow parent, for a node that takes `r`'s place or sits
    /// beside it: the document node has none.
    fn parent_of(&self, r: NodeRef) -> Result<RefKey, TreeError> {
        self.parent(ref_key(r)).ok_or_else(|| match r {
            NodeRef::Node(n) if n == self.tree.root() => TreeError::RootImmutable,
            NodeRef::Node(n) => TreeError::NoParent(n),
            NodeRef::New(l) => TreeError::Invariant(format!("log id #{} has no parent", l.0)),
        })
    }

    fn register_create(
        &mut self,
        id: LogId,
        class: KindClass<'t>,
        place: Place,
    ) -> Result<(), TreeError> {
        if self.created.contains_key(&id.0) {
            return Err(TreeError::DuplicateCreate(id.0));
        }
        let pk = self.place_parent(place)?;
        self.check_holds_children(pk)?;
        self.created.insert(id.0, class);
        self.parent_override.insert(RefKey::New(id.0), pk);
        Ok(())
    }
}

/// Check `log` against `tree` without changing anything. Catches:
/// dangling [`NodeId`]s, forward/unknown [`LogId`] references, duplicate
/// creates ([`TreeError::DuplicateCreate`]), writes to nodes the batch
/// already consumed ([`TreeError::ConflictingWrite`]), double text
/// writes, text writes to non-text nodes, document-node creation, moves
/// that would cycle a subtree into itself ([`TreeError::WouldCycle`]) —
/// including cycles only visible through the batch's own re-parenting —
/// and any batch that would leave a document the parser cannot read
/// back:
///
/// * deleting or moving the document node
///   ([`TreeError::RootImmutable`]);
/// * creating or moving a node under a text, attribute, comment or PI
///   node, whose children the serializer does not write
///   ([`TreeError::Invariant`]);
/// * a result whose document node does not hold exactly one element
///   beside comments and PIs: no element ([`TreeError::RootImmutable`]),
///   several, or a text or attribute node ([`TreeError::Invariant`]).
///   The rule holds for the result, not for each step, so renaming,
///   replacing or wrapping the document element is legal;
/// * an element, attribute or PI-target name the parser would not read
///   as one name ([`xupd_xmldom::is_name`]), a PI named `xml`, `?>` in
///   PI data, or `--` or a trailing `-` in a comment
///   ([`TreeError::Invariant`]);
/// * whitespace the default parser drops: a created or written text
///   value that is non-empty and only whitespace, PI data that starts
///   with a space, tab, CR or LF, or PI data that ends in whitespace
///   ([`TreeError::Invariant`]);
/// * a result with two attributes of one name on an element, counting
///   the attributes it already had ([`TreeError::Invariant`]).
pub fn validate<'t>(log: &'t MutationLog, tree: &'t XmlTree) -> Result<(), TreeError> {
    let mut sh = Shadow {
        tree,
        created: BTreeMap::new(),
        deleted: BTreeSet::new(),
        text_written: BTreeSet::new(),
        parent_override: BTreeMap::new(),
    };
    for m in log.iter() {
        match m {
            Mutation::CreateElement { id, name, place } => {
                check_name("element name", name)?;
                sh.register_create(*id, KindClass::Element, *place)?;
            }
            Mutation::CreateNode { id, kind, place } => {
                if matches!(kind, NodeKind::Document) {
                    return Err(TreeError::Invariant(
                        "a batch cannot create a document node".to_string(),
                    ));
                }
                check_content(kind)?;
                sh.register_create(*id, kind_class(kind), *place)?;
            }
            Mutation::SetText { target, text } => {
                check_text(text)?;
                sh.check_ref(*target)?;
                if sh.class(ref_key(*target)) != KindClass::Text {
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
            Mutation::Replace { target, id, name } => {
                check_name("element name", name)?;
                sh.check_ref(*target)?;
                let k = ref_key(*target);
                let pk = sh.parent_of(*target)?;
                if sh.created.contains_key(&id.0) {
                    return Err(TreeError::DuplicateCreate(id.0));
                }
                sh.deleted.insert(k);
                sh.created.insert(id.0, KindClass::Element);
                sh.parent_override.insert(RefKey::New(id.0), pk);
            }
            Mutation::Delete { target } => {
                sh.check_ref(*target)?;
                let k = ref_key(*target);
                if k == sh.root() {
                    return Err(TreeError::RootImmutable);
                }
                sh.deleted.insert(k);
            }
            Mutation::AppendChildren { parent, ids, name } => {
                check_name("element name", name)?;
                sh.check_ref(*parent)?;
                let pk = ref_key(*parent);
                sh.check_holds_children(pk)?;
                for id in ids {
                    if sh.created.contains_key(&id.0) {
                        return Err(TreeError::DuplicateCreate(id.0));
                    }
                    sh.created.insert(id.0, KindClass::Element);
                    sh.parent_override.insert(RefKey::New(id.0), pk);
                }
            }
            Mutation::MoveSubtree { target, place } => {
                sh.check_ref(*target)?;
                let tk = ref_key(*target);
                if tk == sh.root() {
                    return Err(TreeError::RootImmutable);
                }
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
                sh.check_holds_children(pk)?;
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
    sh.check_document_level()?;
    sh.check_attribute_names()
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
// Script → batch translation.
// ---------------------------------------------------------------------

/// Translate a whole [`Script`] into **one** [`MutationLog`], replaying
/// the per-op driver's addressing rules (modulo-pool resolution, the
/// insert-before/after root fallbacks, the zigzag pair, the delete skip
/// rules) on `tree` itself, so every later op addresses the pool state
/// its predecessors left behind — exactly as
/// [`crate::driver::run_script_dyn`] would. Nodes the batch itself
/// creates are referenced as [`NodeRef::New`], numbered in creation
/// order, so [`apply_log`] on the same tree binds them to the same
/// arena ids the per-op driver would have produced.
///
/// The replay runs under an [`XmlTree::begin_undo`] journal that is
/// always rolled back, on success, error or panic (a panic resumes
/// after the rollback, as in [`apply_log_dyn`]). Ids,
/// [`XmlTree::revision`] and bytes come back exactly, so an index or a
/// plan bound to the tree's revision stays valid, and the translation
/// copies nothing. It ranks the tree's elements by one scan, its one
/// O(n) step; everything else costs the nodes the script writes. A
/// caller that keeps the tree's preorder index skips the scan too
/// ([`crate::Document::compile_script`]). `tree` must have no journal
/// open: this one would replace it.
pub fn batch_of_in_place(script: &Script, tree: &mut XmlTree) -> Result<MutationLog, TreeError> {
    let pool = ElementPool::build(tree);
    translate_undone(script, tree, pool)
}

/// [`batch_of_in_place`] with the element ranking read off `index`, the
/// preorder index of `tree` as it is now, instead of a scan: the whole
/// translation costs O(script). An index made for another tree state is
/// rejected with [`TreeError::Invariant`] before the tree is touched.
pub(crate) fn batch_of_on_index(
    script: &Script,
    tree: &mut XmlTree,
    index: &PreorderIndex,
) -> Result<MutationLog, TreeError> {
    if index.revision() != tree.revision() {
        return Err(TreeError::Invariant(
            "preorder index was made for another tree state".to_string(),
        ));
    }
    translate_undone(script, tree, ElementPool::over(index))
}

/// [`batch_of_in_place`] on a copy of `tree`, for a caller that holds
/// the tree only by shared reference. The copy and the scan each cost
/// O(n) per call.
pub fn batch_of(script: &Script, tree: &XmlTree) -> Result<MutationLog, TreeError> {
    batch_of_in_place(script, &mut tree.clone())
}

/// Run [`translate`] under an undo journal on `tree` that is always
/// rolled back, resuming a panic after the rollback.
fn translate_undone(
    script: &Script,
    tree: &mut XmlTree,
    pool: ElementPool<'_>,
) -> Result<MutationLog, TreeError> {
    tree.begin_undo();
    let outcome = catch_unwind(AssertUnwindSafe(|| translate(script, tree, pool)));
    tree.end_undo(false);
    match outcome {
        Ok(result) => result,
        Err(panic) => resume_unwind(panic),
    }
}

/// The translation loop behind [`batch_of_in_place`] and
/// [`batch_of_on_index`]: emits each op's mutations and applies them to
/// `tree`, whose journal the caller rolls back, resolving script
/// indices against `pool`, the elements of `tree` as it was handed
/// over.
fn translate(
    script: &Script,
    tree: &mut XmlTree,
    mut pool: ElementPool<'_>,
) -> Result<MutationLog, TreeError> {
    let base = tree.id_bound();
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

    // Emit one create + apply it to the tree; returns the new node so
    // zig bookkeeping can track it.
    let create = |log: &mut MutationLog,
                      tree: &mut XmlTree,
                      pool: &mut ElementPool<'_>,
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
        apply_mutation_dyn(tree, None, Some(pool), binds, &m, sink)?;
        log.push(m);
        binds.node(id)
    };

    for op in &script.ops {
        if pool.is_empty() {
            break;
        }
        match *op {
            ScriptOp::InsertBefore(i) => {
                let target = pool.resolve(i)?;
                let place = if tree.parent(target) == Some(tree.root())
                    || tree.parent(target).is_none()
                {
                    Place::FirstChildOf(node_ref(target))
                } else {
                    Place::Before(node_ref(target))
                };
                create(
                    &mut log,
                    tree,
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
                        if tree.is_alive(a)
                            && tree.is_alive(b)
                            && tree.next_sibling(a) == Some(b) =>
                    {
                        (a, b)
                    }
                    _ => {
                        let basis = pool.resolve(pool.len() / 2)?;
                        let c1 = create(
                            &mut log,
                            tree,
                            &mut pool,
                            &mut binds,
                            &mut sink,
                            &mut next_lid,
                            Place::LastChildOf(node_ref(basis)),
                        )?;
                        let c2 = create(
                            &mut log,
                            tree,
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
                    tree,
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
                let target = pool.resolve(i)?;
                let place = if tree.parent(target) == Some(tree.root())
                    || tree.parent(target).is_none()
                {
                    Place::LastChildOf(node_ref(target))
                } else {
                    Place::After(node_ref(target))
                };
                create(
                    &mut log,
                    tree,
                    &mut pool,
                    &mut binds,
                    &mut sink,
                    &mut next_lid,
                    place,
                )?;
            }
            ScriptOp::PrependChild(i) => {
                let place = Place::FirstChildOf(node_ref(pool.resolve(i)?));
                create(
                    &mut log,
                    tree,
                    &mut pool,
                    &mut binds,
                    &mut sink,
                    &mut next_lid,
                    place,
                )?;
            }
            ScriptOp::AppendChild(i) => {
                let place = Place::LastChildOf(node_ref(pool.resolve(i)?));
                create(
                    &mut log,
                    tree,
                    &mut pool,
                    &mut binds,
                    &mut sink,
                    &mut next_lid,
                    place,
                )?;
            }
            ScriptOp::DeleteSubtree(i) => {
                let target = pool.resolve(i)?;
                if Some(target) == tree.document_element() || pool.len() <= 2 {
                    continue;
                }
                let m = Mutation::Delete {
                    target: node_ref(target),
                };
                apply_mutation_dyn(tree, None, Some(&mut pool), &mut binds, &m, &mut sink)?;
                log.push(m);
            }
        }
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::querycache::ShadowScheme;
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
    fn validator_keeps_results_the_parser_can_read_back() {
        let tree = docs::book();
        let doc = NodeRef::Node(tree.root());
        let book = NodeRef::Node(tree.document_element().expect("book"));
        let title = NodeRef::Node(first_named(&tree, "title"));
        let publisher = NodeRef::Node(first_named(&tree, "publisher"));
        let of_kind = |pred: fn(&NodeKind) -> bool| {
            NodeRef::Node(
                tree.preorder()
                    .find(|&n| pred(tree.kind(n)))
                    .expect("present"),
            )
        };
        let text = of_kind(NodeKind::is_text);
        let attr = of_kind(NodeKind::is_attribute);
        let element = |id, place| Mutation::CreateElement {
            id: LogId(id),
            name: "x".into(),
            place,
        };
        let node = |id, kind, place| Mutation::CreateNode {
            id: LogId(id),
            kind,
            place,
        };
        let comment = || NodeKind::Comment { value: "c".into() };
        let move_to = |target, place| Mutation::MoveSubtree { target, place };
        // No element left under the document node.
        let no_root = [
            vec![Mutation::Delete { target: book }],
            vec![
                Mutation::Replace {
                    target: book,
                    id: LogId(0),
                    name: "tome".into(),
                },
                Mutation::Delete {
                    target: NodeRef::New(LogId(0)),
                },
            ],
        ];
        for ops in no_root {
            let log = MutationLog::from(ops);
            assert_eq!(
                validate(&log, &tree),
                Err(TreeError::RootImmutable),
                "{log:?}"
            );
        }
        let invalid = [
            // a second element under the document node
            vec![element(0, Place::After(book))],
            vec![element(0, Place::Before(book))],
            vec![element(0, Place::LastChildOf(doc))],
            vec![Mutation::AppendChildren {
                parent: doc,
                ids: vec![LogId(0)],
                name: "x".into(),
            }],
            vec![move_to(title, Place::After(book))],
            // text at the document level
            vec![node(0, NodeKind::text("t"), Place::FirstChildOf(doc))],
            // a node under a leaf
            vec![element(0, Place::LastChildOf(text))],
            vec![node(0, comment(), Place::FirstChildOf(attr))],
            vec![Mutation::AppendChildren {
                parent: attr,
                ids: vec![LogId(0)],
                name: "x".into(),
            }],
            vec![move_to(publisher, Place::LastChildOf(text))],
            vec![
                node(0, NodeKind::text("t"), Place::LastChildOf(book)),
                element(1, Place::FirstChildOf(NodeRef::New(LogId(0)))),
            ],
            vec![
                node(0, comment(), Place::LastChildOf(book)),
                move_to(title, Place::LastChildOf(NodeRef::New(LogId(0)))),
            ],
        ];
        for ops in invalid {
            let log = MutationLog::from(ops);
            assert!(
                matches!(validate(&log, &tree), Err(TreeError::Invariant(_))),
                "{log:?}"
            );
        }

        // The rule holds for the result, not for each step: each of
        // these passes through or ends at the document level and leaves
        // one root element the parser reads back.
        let new0 = NodeRef::New(LogId(0));
        let children = |n: NodeRef| match n {
            NodeRef::Node(n) => tree.children(n).map(NodeRef::Node).collect::<Vec<_>>(),
            NodeRef::New(_) => Vec::new(),
        };
        // rename the document element, as flux lowers `rename`
        let mut rename = vec![element(0, Place::After(book))];
        rename.extend(
            children(book)
                .into_iter()
                .map(|c| move_to(c, Place::LastChildOf(new0))),
        );
        rename.push(Mutation::Delete { target: book });
        let valid = [
            rename,
            vec![
                Mutation::Replace {
                    target: book,
                    id: LogId(0),
                    name: "tome".into(),
                },
                element(1, Place::LastChildOf(new0)),
            ],
            // wrap the document element in a new one
            vec![
                element(0, Place::Before(book)),
                move_to(book, Place::LastChildOf(new0)),
            ],
            // promote a child to document element
            vec![
                move_to(title, Place::After(book)),
                Mutation::Delete { target: book },
            ],
            vec![
                node(0, comment(), Place::Before(book)),
                node(
                    1,
                    NodeKind::Pi {
                        target: "p".into(),
                        data: "d".into(),
                    },
                    Place::LastChildOf(doc),
                ),
            ],
        ];
        for ops in valid {
            let log = MutationLog::from(ops);
            let mut tree = tree.clone();
            let (mut scheme, mut labeling) = session_for(&tree);
            apply_log(&mut tree, &mut scheme, &mut labeling, &log)
                .unwrap_or_else(|e| panic!("{log:?}: {e}"));
            let bytes = serialize_compact(&tree);
            let back = xupd_xmldom::parse(&bytes).unwrap_or_else(|e| panic!("{bytes}: {e}"));
            assert_eq!(serialize_compact(&back), bytes);
            assert_eq!(labeling.len(), tree.len());
        }
    }

    /// Content that would serialize to bytes the parser rejects or
    /// reads back differently is refused; the same names, attributes
    /// and values in legal shapes apply and round-trip.
    #[test]
    fn validator_rejects_content_the_parser_cannot_read_back() {
        let tree = docs::book();
        let book = NodeRef::Node(tree.document_element().expect("book"));
        let title = first_named(&tree, "title");
        let genre = tree
            .children(title)
            .find(|&c| tree.kind(c).is_attribute())
            .expect("title has @genre");
        let (title, genre) = (NodeRef::Node(title), NodeRef::Node(genre));
        let publisher = NodeRef::Node(first_named(&tree, "publisher"));
        let text = NodeRef::Node(
            tree.preorder()
                .find(|&n| tree.kind(n).is_text())
                .expect("book has text"),
        );
        let element = |name: &str| Mutation::CreateElement {
            id: LogId(0),
            name: name.into(),
            place: Place::LastChildOf(book),
        };
        let node = |id, kind, at| Mutation::CreateNode {
            id: LogId(id),
            kind,
            place: Place::LastChildOf(at),
        };
        let attribute = |name: &str| NodeKind::attribute(name, "v");
        let pi = |target: &str, data: &str| NodeKind::Pi {
            target: target.into(),
            data: data.into(),
        };
        let comment = |value: &str| NodeKind::Comment {
            value: value.into(),
        };
        let invalid = [
            vec![element("")],
            vec![element("a b")],
            vec![element("1x")],
            vec![node(0, NodeKind::element("e?"), book)],
            vec![Mutation::Replace {
                target: title,
                id: LogId(0),
                name: "a>".into(),
            }],
            vec![Mutation::AppendChildren {
                parent: book,
                ids: vec![LogId(0)],
                name: String::new(),
            }],
            vec![node(0, attribute("a b"), publisher)],
            vec![node(0, pi("p q", "d"), book)],
            vec![node(0, pi("xml", "version=\"1.0\""), book)],
            vec![node(0, pi("XmL", ""), book)],
            vec![node(0, pi("p", "a?>b"), book)],
            vec![node(0, comment("a--b"), book)],
            vec![node(0, comment("a-"), book)],
            // whitespace the parser drops
            vec![node(0, NodeKind::text("  "), book)],
            vec![Mutation::SetText {
                target: text,
                text: " \n".into(),
            }],
            vec![node(0, pi("p", " d"), book)],
            vec![node(0, pi("p", "\td"), book)],
            vec![node(0, pi("p", "d\u{a0}"), book)],
            // a second attribute of one name, beside a pre-batch one or
            // another created one, or moved in beside it
            vec![node(0, attribute("genre"), title)],
            vec![
                node(0, attribute("a"), publisher),
                node(1, attribute("a"), publisher),
            ],
            vec![
                node(0, attribute("genre"), publisher),
                Mutation::MoveSubtree {
                    target: genre,
                    place: Place::FirstChildOf(publisher),
                },
            ],
        ];
        for ops in invalid {
            let log = MutationLog::from(ops);
            assert!(
                matches!(validate(&log, &tree), Err(TreeError::Invariant(_))),
                "{log:?}"
            );
        }
        let valid = [
            vec![element("_x-1.y"), node(1, comment("a-b"), book)],
            vec![node(0, pi("p", "a?b>c"), book), node(1, pi("xml-stylesheet", ""), book)],
            vec![
                node(0, NodeKind::text(" a "), book),
                node(1, pi("p", "a b"), book),
                node(2, comment(" "), book),
                Mutation::SetText {
                    target: text,
                    text: String::new(),
                },
            ],
            // the old attribute goes before a new one of its name comes
            vec![
                Mutation::Delete { target: genre },
                node(0, attribute("genre"), title),
            ],
            vec![
                Mutation::MoveSubtree {
                    target: genre,
                    place: Place::LastChildOf(publisher),
                },
                node(0, attribute("genre"), title),
            ],
            // an attribute on an element the batch deletes is no clash
            vec![
                node(0, attribute("genre"), title),
                Mutation::Delete { target: title },
            ],
        ];
        for ops in valid {
            let log = MutationLog::from(ops);
            let mut tree = tree.clone();
            let (mut scheme, mut labeling) = session_for(&tree);
            apply_log(&mut tree, &mut scheme, &mut labeling, &log)
                .unwrap_or_else(|e| panic!("{log:?}: {e}"));
            let bytes = serialize_compact(&tree);
            let back = xupd_xmldom::parse(&bytes).unwrap_or_else(|e| panic!("{bytes}: {e}"));
            assert_eq!(serialize_compact(&back), bytes);
        }
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

    /// `batch_of_in_place` emits the log `batch_of` emits and leaves
    /// the tree exactly as it found it, `batch_of_on_index` emits it
    /// too, and that log applied as one batch ends where the per-op
    /// driver does, for every script kind: Zigzag checks its pair on
    /// the live tree, MixedDelete deletes. A long MixedDelete script on
    /// an XMark-like tree also deletes elements the script made.
    #[test]
    fn batch_of_matches_per_op_driver() {
        // (tree, script, whether its deletes must hit script-made elements)
        let mut inputs: Vec<(XmlTree, Script, bool)> = ScriptKind::ALL
            .into_iter()
            .map(|kind| {
                let script = Script::generate(kind, 120, 80, 13);
                (docs::random_tree(11, 80), script, false)
            })
            .collect();
        let xmark = docs::xmark_like(17, 60);
        let script = Script::generate(ScriptKind::MixedDelete, 300, xmark.len(), 29);
        inputs.push((xmark, script, true));
        for (base, script, deletes_made) in inputs {
            let kind = script.kind.name();
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
            let state = |t: &XmlTree| (serialize_compact(t), t.revision(), t.id_bound(), t.len());
            let before = state(&batched_tree);
            let log = batch_of_in_place(&script, &mut batched_tree).expect("translates");
            assert_eq!(state(&batched_tree), before, "{kind} tree restored");
            assert_eq!(
                log,
                batch_of(&script, &batched_tree).expect("translates"),
                "{kind} logs agree"
            );
            let index =
                PreorderIndex::encode(ShadowScheme::default(), &batched_tree).expect("encodes");
            assert_eq!(
                log,
                batch_of_on_index(&script, &mut batched_tree, &index).expect("translates"),
                "{kind} log on the index agrees"
            );
            assert_eq!(state(&batched_tree), before, "{kind} tree restored");
            if deletes_made {
                let made = log.iter().any(|m| match m {
                    Mutation::Delete { target } => matches!(target, NodeRef::New(_)),
                    _ => false,
                });
                assert!(made, "deletes hit script-made elements");
            }
            apply_log(&mut batched_tree, &mut scheme_b, &mut labeling_b, &log)
                .expect("batched");

            assert_eq!(
                serialize_compact(&per_op_tree),
                serialize_compact(&batched_tree),
                "{kind} trees agree"
            );
        }
    }

    /// An index made for another tree state is refused before the
    /// translation touches the tree.
    #[test]
    fn batch_of_on_index_rejects_an_index_of_another_tree_state() {
        let mut tree = docs::xmark_like(5, 40);
        let index = PreorderIndex::encode(ShadowScheme::default(), &tree).expect("encodes");
        let script = Script::generate(ScriptKind::MixedDelete, 60, tree.len(), 3);
        assert_eq!(
            batch_of_on_index(&script, &mut tree, &index).expect("current index"),
            batch_of(&script, &tree).expect("translates")
        );
        // a text write moves the revision as much as a structural edit
        let text = tree
            .preorder()
            .find(|&n| tree.kind(n).is_text())
            .expect("a text node");
        *tree.kind_mut(text) = NodeKind::Text {
            value: "changed".to_string(),
        };
        let state = |t: &XmlTree| (serialize_compact(t), t.revision(), t.id_bound());
        let before = state(&tree);
        let err = batch_of_on_index(&script, &mut tree, &index).unwrap_err();
        assert!(matches!(err, TreeError::Invariant(_)), "{err}");
        assert_eq!(state(&tree), before, "tree untouched");
    }
}
