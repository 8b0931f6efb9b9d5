//! The arena-allocated ordered XML tree and its structural update
//! operations.
//!
//! All structural mutations the paper classifies (§3.1: *structural
//! updates* — insertion and deletion of leaf nodes, internal nodes and
//! subtrees) are provided as O(1) pointer surgery, plus O(subtree) deletion.
//! Content updates (renaming, changing text) never disturb node identity or
//! order, matching the paper's observation that only structural updates
//! stress a labelling scheme.

use crate::error::TreeError;
use crate::node::{NodeId, NodeKind};
use crate::traverse::{Postorder, Preorder};
use std::cmp::Ordering;

#[derive(Clone, Debug)]
struct NodeData {
    kind: NodeKind,
    parent: Option<NodeId>,
    first_child: Option<NodeId>,
    last_child: Option<NodeId>,
    prev_sibling: Option<NodeId>,
    next_sibling: Option<NodeId>,
    alive: bool,
}

/// A node's state apart from its kind: all `Copy`, so the undo journal
/// saves it without allocating.
#[derive(Clone, Copy, Debug)]
struct Links {
    parent: Option<NodeId>,
    first_child: Option<NodeId>,
    last_child: Option<NodeId>,
    prev_sibling: Option<NodeId>,
    next_sibling: Option<NodeId>,
    alive: bool,
}

impl NodeData {
    fn links(&self) -> Links {
        Links {
            parent: self.parent,
            first_child: self.first_child,
            last_child: self.last_child,
            prev_sibling: self.prev_sibling,
            next_sibling: self.next_sibling,
            alive: self.alive,
        }
    }

    fn set_links(&mut self, links: Links) {
        self.parent = links.parent;
        self.first_child = links.first_child;
        self.last_child = links.last_child;
        self.prev_sibling = links.prev_sibling;
        self.next_sibling = links.next_sibling;
        self.alive = links.alive;
    }
}

/// An open undo journal: what [`XmlTree::end_undo`] needs to put the
/// tree back as [`XmlTree::begin_undo`] found it.
#[derive(Debug)]
struct Undo {
    /// `nodes.len()`, the live count and the revision at open. Nodes at
    /// or past `len` were created by the batch.
    len: usize,
    alive: u32,
    revision: u32,
    /// Bit `i` is set once node `i`'s links are in `links`.
    saved: Vec<u64>,
    /// Each pre-batch node's links before its first write.
    links: Vec<(NodeId, Links)>,
    /// Kinds before each `kind_mut`, in call order.
    kinds: Vec<(NodeId, NodeKind)>,
}

/// An ordered rooted tree over [`NodeKind`] nodes.
///
/// The tree always contains a single [`NodeKind::Document`] root created by
/// [`XmlTree::new`]. Node ids are dense arena indices and are never reused
/// after deletion, so side tables keyed by [`NodeId`] stay sound across
/// arbitrary update sequences.
#[derive(Debug)]
pub struct XmlTree {
    nodes: Vec<NodeData>,
    /// Live node count, `u32` like [`NodeId`]: with the revision it
    /// fills one word, so the revision does not grow the struct.
    alive: u32,
    /// Bumped by every mutation; see [`XmlTree::revision`].
    revision: u32,
    /// The journal [`XmlTree::begin_undo`] opened, if any.
    undo: Option<Box<Undo>>,
}

impl Clone for XmlTree {
    /// A copy of the tree state; the copy has no undo journal open.
    fn clone(&self) -> Self {
        XmlTree {
            nodes: self.nodes.clone(),
            alive: self.alive,
            revision: self.revision,
            undo: None,
        }
    }
}

impl Default for XmlTree {
    fn default() -> Self {
        Self::new()
    }
}

impl XmlTree {
    /// Create a tree holding only the document root.
    pub fn new() -> Self {
        XmlTree {
            nodes: vec![NodeData {
                kind: NodeKind::Document,
                parent: None,
                first_child: None,
                last_child: None,
                prev_sibling: None,
                next_sibling: None,
                alive: true,
            }],
            alive: 1,
            revision: 0,
            undo: None,
        }
    }

    /// The document root id (always the same for the life of the tree).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    /// Number of live nodes, including the document root.
    #[inline]
    pub fn len(&self) -> usize {
        self.alive as usize
    }

    /// True when only the document root exists.
    pub fn is_empty(&self) -> bool {
        self.alive <= 1
    }

    /// Total ids ever issued (live + dead). Useful to size side tables.
    #[inline]
    pub fn id_bound(&self) -> usize {
        self.nodes.len()
    }

    /// Is `id` a live node of this tree?
    #[inline]
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.nodes.get(id.index()).is_some_and(|n| n.alive)
    }

    fn get(&self, id: NodeId) -> &NodeData {
        let n = &self.nodes[id.index()];
        debug_assert!(n.alive, "access to dead node {id:?}");
        n
    }

    /// The tree state's version: bumped by every mutation (all of them
    /// create nodes, retire them, or go through `get_mut`), carried
    /// along by `clone` and put back by a rolled-back undo journal.
    /// Artifacts derived from one state — an analyzed batch plan —
    /// record it so they can refuse to run on another. It wraps after
    /// 2³² mutations, so two states that far apart share a revision.
    #[inline]
    pub fn revision(&self) -> u32 {
        self.revision
    }

    fn get_mut(&mut self, id: NodeId) -> &mut NodeData {
        self.revision = self.revision.wrapping_add(1);
        self.save_links(id);
        let n = &mut self.nodes[id.index()];
        debug_assert!(n.alive, "access to dead node {id:?}");
        n
    }

    /// The node's kind.
    #[inline]
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.get(id).kind
    }

    /// Mutable access to the node's kind — this is a *content update* in
    /// the paper's taxonomy and never affects labels.
    #[inline]
    pub fn kind_mut(&mut self, id: NodeId) -> &mut NodeKind {
        if let Some(undo) = self.undo.as_deref_mut() {
            if id.index() < undo.len {
                undo.kinds.push((id, self.nodes[id.index()].kind.clone()));
            }
        }
        &mut self.get_mut(id).kind
    }

    /// Start an undo journal. Until [`XmlTree::end_undo`], the first
    /// write to each node that exists now saves its links, and every
    /// [`XmlTree::kind_mut`] saves the kind it hands out, so a rollback
    /// costs the nodes a batch wrote rather than a copy of the tree.
    /// Opening a journal while one is open discards the open one.
    pub fn begin_undo(&mut self) {
        let len = self.nodes.len();
        self.undo = Some(Box::new(Undo {
            len,
            alive: self.alive,
            revision: self.revision,
            saved: vec![0; len.div_ceil(64)],
            links: Vec::new(),
            kinds: Vec::new(),
        }));
    }

    /// Close the journal [`XmlTree::begin_undo`] opened. With `keep`
    /// every write since stays; without it the tree is put back as it
    /// was then — nodes created since are dropped, and every saved kind
    /// and link, the live count and the revision are restored. Does
    /// nothing when no journal is open.
    pub fn end_undo(&mut self, keep: bool) {
        let Some(undo) = self.undo.take() else {
            return;
        };
        if keep {
            return;
        }
        self.nodes.truncate(undo.len);
        for (id, links) in undo.links {
            self.nodes[id.index()].set_links(links);
        }
        // Newest first, so a node written twice ends on its first save.
        for (id, kind) in undo.kinds.into_iter().rev() {
            self.nodes[id.index()].kind = kind;
        }
        self.alive = undo.alive;
        self.revision = undo.revision;
    }

    /// Journal hook, run before every write to a node's links: the
    /// first write to a pre-batch node saves them.
    fn save_links(&mut self, id: NodeId) {
        let Some(undo) = self.undo.as_deref_mut() else {
            return;
        };
        let i = id.index();
        if i >= undo.len {
            return;
        }
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if undo.saved[word] & bit == 0 {
            undo.saved[word] |= bit;
            undo.links.push((id, self.nodes[i].links()));
        }
    }

    /// Parent, if attached and not the root.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.get(id).parent
    }

    /// First child in document order.
    #[inline]
    pub fn first_child(&self, id: NodeId) -> Option<NodeId> {
        self.get(id).first_child
    }

    /// Last child in document order.
    #[inline]
    pub fn last_child(&self, id: NodeId) -> Option<NodeId> {
        self.get(id).last_child
    }

    /// Previous sibling.
    #[inline]
    pub fn prev_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.get(id).prev_sibling
    }

    /// Next sibling.
    #[inline]
    pub fn next_sibling(&self, id: NodeId) -> Option<NodeId> {
        self.get(id).next_sibling
    }

    /// Allocate a new, detached node of the given kind.
    pub fn create(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData {
            kind,
            parent: None,
            first_child: None,
            last_child: None,
            prev_sibling: None,
            next_sibling: None,
            alive: true,
        });
        self.alive += 1;
        self.revision = self.revision.wrapping_add(1);
        id
    }

    fn check_attachable(&self, child: NodeId, anchor: NodeId) -> Result<(), TreeError> {
        if !self.is_alive(child) {
            return Err(TreeError::DeadNode(child));
        }
        if !self.is_alive(anchor) {
            return Err(TreeError::DeadNode(anchor));
        }
        if child == self.root() {
            return Err(TreeError::RootImmutable);
        }
        if self.get(child).parent.is_some() {
            return Err(TreeError::AlreadyAttached(child));
        }
        // Walk up from the anchor: the child must not be one of its
        // ancestors (or the anchor itself).
        let mut cur = Some(anchor);
        while let Some(a) = cur {
            if a == child {
                return Err(TreeError::WouldCycle(child));
            }
            cur = self.get(a).parent;
        }
        Ok(())
    }

    /// Append `child` as the last child of `parent`.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) -> Result<(), TreeError> {
        self.check_attachable(child, parent)?;
        let old_last = self.get(parent).last_child;
        {
            let c = self.get_mut(child);
            c.parent = Some(parent);
            c.prev_sibling = old_last;
            c.next_sibling = None;
        }
        match old_last {
            Some(l) => self.get_mut(l).next_sibling = Some(child),
            None => self.get_mut(parent).first_child = Some(child),
        }
        self.get_mut(parent).last_child = Some(child);
        Ok(())
    }

    /// Insert `child` as the first child of `parent`.
    pub fn prepend_child(&mut self, parent: NodeId, child: NodeId) -> Result<(), TreeError> {
        self.check_attachable(child, parent)?;
        let old_first = self.get(parent).first_child;
        {
            let c = self.get_mut(child);
            c.parent = Some(parent);
            c.prev_sibling = None;
            c.next_sibling = old_first;
        }
        match old_first {
            Some(f) => self.get_mut(f).prev_sibling = Some(child),
            None => self.get_mut(parent).last_child = Some(child),
        }
        self.get_mut(parent).first_child = Some(child);
        Ok(())
    }

    /// Insert `child` immediately before `sibling` under the same parent.
    pub fn insert_before(&mut self, sibling: NodeId, child: NodeId) -> Result<(), TreeError> {
        self.check_attachable(child, sibling)?;
        let parent = self
            .get(sibling)
            .parent
            .ok_or(TreeError::NoParent(sibling))?;
        let prev = self.get(sibling).prev_sibling;
        {
            let c = self.get_mut(child);
            c.parent = Some(parent);
            c.prev_sibling = prev;
            c.next_sibling = Some(sibling);
        }
        self.get_mut(sibling).prev_sibling = Some(child);
        match prev {
            Some(p) => self.get_mut(p).next_sibling = Some(child),
            None => self.get_mut(parent).first_child = Some(child),
        }
        Ok(())
    }

    /// Insert `child` immediately after `sibling` under the same parent.
    pub fn insert_after(&mut self, sibling: NodeId, child: NodeId) -> Result<(), TreeError> {
        self.check_attachable(child, sibling)?;
        let parent = self
            .get(sibling)
            .parent
            .ok_or(TreeError::NoParent(sibling))?;
        let next = self.get(sibling).next_sibling;
        {
            let c = self.get_mut(child);
            c.parent = Some(parent);
            c.prev_sibling = Some(sibling);
            c.next_sibling = next;
        }
        self.get_mut(sibling).next_sibling = Some(child);
        match next {
            Some(n) => self.get_mut(n).prev_sibling = Some(child),
            None => self.get_mut(parent).last_child = Some(child),
        }
        Ok(())
    }

    /// Detach `id` from its parent, keeping its subtree intact. The node
    /// may later be re-attached anywhere (subtree move).
    pub fn detach(&mut self, id: NodeId) -> Result<(), TreeError> {
        if !self.is_alive(id) {
            return Err(TreeError::DeadNode(id));
        }
        if id == self.root() {
            return Err(TreeError::RootImmutable);
        }
        let (parent, prev, next) = {
            let n = self.get(id);
            (n.parent, n.prev_sibling, n.next_sibling)
        };
        let Some(parent) = parent else {
            return Ok(()); // already detached
        };
        match prev {
            Some(p) => self.get_mut(p).next_sibling = next,
            None => self.get_mut(parent).first_child = next,
        }
        match next {
            Some(nx) => self.get_mut(nx).prev_sibling = prev,
            None => self.get_mut(parent).last_child = prev,
        }
        let n = self.get_mut(id);
        n.parent = None;
        n.prev_sibling = None;
        n.next_sibling = None;
        Ok(())
    }

    /// Delete the subtree rooted at `id`, retiring every id in it.
    /// Returns the number of nodes removed.
    pub fn remove_subtree(&mut self, id: NodeId) -> Result<usize, TreeError> {
        self.detach(id)?;
        let doomed: Vec<NodeId> = Preorder::from(self, id).collect();
        for d in &doomed {
            self.save_links(*d);
            let n = &mut self.nodes[d.index()];
            n.alive = false;
            n.parent = None;
            n.first_child = None;
            n.last_child = None;
            n.prev_sibling = None;
            n.next_sibling = None;
        }
        self.alive -= doomed.len() as u32;
        self.revision = self.revision.wrapping_add(1);
        Ok(doomed.len())
    }

    /// Iterator over the children of `id` in document order.
    pub fn children(&self, id: NodeId) -> Children<'_> {
        Children {
            tree: self,
            next: self.first_child(id),
        }
    }

    /// Number of children of `id`.
    pub fn child_count(&self, id: NodeId) -> usize {
        self.children(id).count()
    }

    /// Preorder (document-order) traversal of the whole tree, including the
    /// document root.
    pub fn preorder(&self) -> Preorder<'_> {
        Preorder::from(self, self.root())
    }

    /// Preorder traversal of the subtree rooted at `id`.
    pub fn preorder_from(&self, id: NodeId) -> Preorder<'_> {
        Preorder::from(self, id)
    }

    /// Postorder traversal of the whole tree.
    pub fn postorder(&self) -> Postorder<'_> {
        Postorder::from(self, self.root())
    }

    /// Nesting depth: the root is at depth 0, its children at depth 1, …
    /// This is the ground truth the *Level Encoding* property checker
    /// compares labels against.
    pub fn depth(&self, id: NodeId) -> u32 {
        let mut d = 0;
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            d += 1;
            cur = self.parent(p);
        }
        d
    }

    /// Ground-truth ancestor test (strict: a node is not its own ancestor).
    pub fn is_ancestor(&self, anc: NodeId, desc: NodeId) -> bool {
        let mut cur = self.parent(desc);
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }

    /// Ground-truth document-order comparison by comparing root paths.
    ///
    /// An ancestor precedes its descendants (preorder convention, as in the
    /// paper's pre-labelled figures).
    pub fn doc_cmp(&self, a: NodeId, b: NodeId) -> Ordering {
        if a == b {
            return Ordering::Equal;
        }
        let pa = self.root_path(a);
        let pb = self.root_path(b);
        // Compare child-index paths lexicographically; a prefix (ancestor)
        // sorts first.
        pa.cmp(&pb)
    }

    /// Child-index path from the root to `id` (root has the empty path).
    pub fn root_path(&self, id: NodeId) -> Vec<u32> {
        let mut rev = Vec::new();
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            rev.push(self.child_index(cur));
            cur = p;
        }
        rev.reverse();
        rev
    }

    /// 0-based position of `id` among its siblings (0 for a detached node
    /// or the root).
    pub fn child_index(&self, id: NodeId) -> u32 {
        let mut i = 0;
        let mut cur = self.prev_sibling(id);
        while let Some(p) = cur {
            i += 1;
            cur = self.prev_sibling(p);
        }
        i
    }

    /// Number of nodes in the subtree rooted at `id` (including `id`).
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.preorder_from(id).count()
    }

    /// All live node ids in document order. Allocates; intended for tests
    /// and checkers, not hot paths.
    pub fn ids_in_doc_order(&self) -> Vec<NodeId> {
        self.preorder().collect()
    }

    /// The single element child of the document root, if present (the
    /// document element).
    pub fn document_element(&self) -> Option<NodeId> {
        self.children(self.root())
            .find(|&c| self.kind(c).is_element())
    }

    /// Concatenated text content of the subtree rooted at `id`, in document
    /// order (attribute values excluded, like XPath `string()` on elements).
    pub fn text_content(&self, id: NodeId) -> String {
        let mut out = String::new();
        for n in self.preorder_from(id) {
            if let NodeKind::Text { value } = self.kind(n) {
                out.push_str(value);
            }
        }
        out
    }

    /// Find the value of the attribute `name` on element `id`.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        self.children(id).find_map(|c| match self.kind(c) {
            NodeKind::Attribute { name: n, value } if n == name => Some(value.as_str()),
            _ => None,
        })
    }

    /// Exhaustively check the doubly-linked structural invariants. Used by
    /// tests and failure-injection suites; O(n).
    pub fn validate(&self) -> Result<(), TreeError> {
        let mut seen = 0usize;
        for (i, n) in self.nodes.iter().enumerate() {
            if !n.alive {
                continue;
            }
            seen += 1;
            let id = NodeId(i as u32);
            // parent/child linkage
            if let Some(fc) = n.first_child {
                if self.nodes[fc.index()].parent != Some(id) {
                    return Err(TreeError::Invariant(format!(
                        "first child of {id} does not point back"
                    )));
                }
                if self.nodes[fc.index()].prev_sibling.is_some() {
                    return Err(TreeError::Invariant(format!(
                        "first child of {id} has a prev sibling"
                    )));
                }
            }
            if let Some(lc) = n.last_child {
                if self.nodes[lc.index()].next_sibling.is_some() {
                    return Err(TreeError::Invariant(format!(
                        "last child of {id} has a next sibling"
                    )));
                }
            }
            if n.first_child.is_some() != n.last_child.is_some() {
                return Err(TreeError::Invariant(format!(
                    "{id} has mismatched first/last child"
                )));
            }
            // sibling chain symmetric
            if let Some(ns) = n.next_sibling {
                if self.nodes[ns.index()].prev_sibling != Some(id) {
                    return Err(TreeError::Invariant(format!(
                        "next sibling of {id} does not point back"
                    )));
                }
                if self.nodes[ns.index()].parent != n.parent {
                    return Err(TreeError::Invariant(format!(
                        "siblings of {id} disagree on parent"
                    )));
                }
            }
            // child chain reaches last_child
            let mut cur = n.first_child;
            let mut prev = None;
            while let Some(c) = cur {
                if !self.nodes[c.index()].alive {
                    return Err(TreeError::Invariant(format!("dead child under {id}")));
                }
                prev = cur;
                cur = self.nodes[c.index()].next_sibling;
            }
            if prev != n.last_child {
                return Err(TreeError::Invariant(format!(
                    "child chain of {id} does not end at last_child"
                )));
            }
        }
        if seen != self.alive as usize {
            return Err(TreeError::Invariant(format!(
                "alive count {} != scanned {seen}",
                self.alive
            )));
        }
        Ok(())
    }
}

/// Iterator over the children of a node. See [`XmlTree::children`].
pub struct Children<'a> {
    tree: &'a XmlTree,
    next: Option<NodeId>,
}

impl Iterator for Children<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = self.tree.next_sibling(cur);
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn elem(t: &mut XmlTree, name: &str) -> NodeId {
        t.create(NodeKind::element(name))
    }

    #[test]
    fn new_tree_has_only_root() {
        let t = XmlTree::new();
        assert_eq!(t.len(), 1);
        assert!(t.is_empty());
        assert_eq!(t.kind(t.root()), &NodeKind::Document);
        t.validate().unwrap();
    }

    #[test]
    fn append_and_order() {
        let mut t = XmlTree::new();
        let r = t.root();
        let a = elem(&mut t, "a");
        let b = elem(&mut t, "b");
        let c = elem(&mut t, "c");
        t.append_child(r, a).unwrap();
        t.append_child(a, b).unwrap();
        t.append_child(a, c).unwrap();
        assert_eq!(t.children(a).collect::<Vec<_>>(), vec![b, c]);
        assert_eq!(t.ids_in_doc_order(), vec![r, a, b, c]);
        assert_eq!(t.doc_cmp(b, c), Ordering::Less);
        assert_eq!(t.doc_cmp(a, b), Ordering::Less, "ancestor first");
        assert_eq!(t.doc_cmp(c, c), Ordering::Equal);
        t.validate().unwrap();
    }

    #[test]
    fn prepend_insert_before_after() {
        let mut t = XmlTree::new();
        let r = t.root();
        let p = elem(&mut t, "p");
        t.append_child(r, p).unwrap();
        let b = elem(&mut t, "b");
        t.append_child(p, b).unwrap();
        let a = elem(&mut t, "a");
        t.prepend_child(p, a).unwrap();
        let c = elem(&mut t, "c");
        t.insert_after(b, c).unwrap();
        let ab = elem(&mut t, "ab");
        t.insert_before(b, ab).unwrap();
        let names: Vec<_> = t
            .children(p)
            .map(|n| t.kind(n).name().unwrap().to_string())
            .collect();
        assert_eq!(names, ["a", "ab", "b", "c"]);
        assert_eq!(t.child_index(b), 2);
        t.validate().unwrap();
    }

    #[test]
    fn detach_and_reattach_moves_subtree() {
        let mut t = XmlTree::new();
        let r = t.root();
        let a = elem(&mut t, "a");
        let b = elem(&mut t, "b");
        let c = elem(&mut t, "c");
        t.append_child(r, a).unwrap();
        t.append_child(a, b).unwrap();
        t.append_child(b, c).unwrap();
        t.detach(b).unwrap();
        assert_eq!(t.children(a).count(), 0);
        assert_eq!(t.parent(b), None);
        assert!(t.is_alive(c));
        t.append_child(r, b).unwrap();
        assert_eq!(t.ids_in_doc_order(), vec![r, a, b, c]);
        t.validate().unwrap();
    }

    #[test]
    fn remove_subtree_retires_ids() {
        let mut t = XmlTree::new();
        let r = t.root();
        let a = elem(&mut t, "a");
        let b = elem(&mut t, "b");
        let c = elem(&mut t, "c");
        t.append_child(r, a).unwrap();
        t.append_child(a, b).unwrap();
        t.append_child(b, c).unwrap();
        let removed = t.remove_subtree(b).unwrap();
        assert_eq!(removed, 2);
        assert!(!t.is_alive(b));
        assert!(!t.is_alive(c));
        assert!(t.is_alive(a));
        assert_eq!(t.len(), 2);
        t.validate().unwrap();
    }

    #[test]
    fn root_is_immutable() {
        let mut t = XmlTree::new();
        let r = t.root();
        assert_eq!(t.detach(r), Err(TreeError::RootImmutable));
        assert_eq!(t.remove_subtree(r), Err(TreeError::RootImmutable));
        let a = elem(&mut t, "a");
        t.append_child(r, a).unwrap();
        assert_eq!(t.append_child(a, r), Err(TreeError::RootImmutable));
    }

    #[test]
    fn cycle_rejected() {
        let mut t = XmlTree::new();
        let r = t.root();
        let a = elem(&mut t, "a");
        let b = elem(&mut t, "b");
        t.append_child(r, a).unwrap();
        t.append_child(a, b).unwrap();
        t.detach(a).unwrap();
        assert_eq!(t.append_child(b, a), Err(TreeError::WouldCycle(a)));
        assert_eq!(t.append_child(a, a), Err(TreeError::WouldCycle(a)));
    }

    #[test]
    fn double_attach_rejected() {
        let mut t = XmlTree::new();
        let r = t.root();
        let a = elem(&mut t, "a");
        t.append_child(r, a).unwrap();
        assert_eq!(t.append_child(r, a), Err(TreeError::AlreadyAttached(a)));
    }

    #[test]
    fn insert_relative_to_detached_sibling_fails() {
        let mut t = XmlTree::new();
        let a = elem(&mut t, "a");
        let b = elem(&mut t, "b");
        assert_eq!(t.insert_before(a, b), Err(TreeError::NoParent(a)));
        assert_eq!(t.insert_after(a, b), Err(TreeError::NoParent(a)));
    }

    #[test]
    fn dead_node_operations_fail() {
        let mut t = XmlTree::new();
        let r = t.root();
        let a = elem(&mut t, "a");
        t.append_child(r, a).unwrap();
        t.remove_subtree(a).unwrap();
        let b = elem(&mut t, "b");
        assert_eq!(t.append_child(a, b), Err(TreeError::DeadNode(a)));
        assert_eq!(t.detach(a), Err(TreeError::DeadNode(a)));
    }

    #[test]
    fn depth_and_ancestry() {
        let mut t = XmlTree::new();
        let r = t.root();
        let a = elem(&mut t, "a");
        let b = elem(&mut t, "b");
        let c = elem(&mut t, "c");
        t.append_child(r, a).unwrap();
        t.append_child(a, b).unwrap();
        t.append_child(b, c).unwrap();
        assert_eq!(t.depth(r), 0);
        assert_eq!(t.depth(a), 1);
        assert_eq!(t.depth(c), 3);
        assert!(t.is_ancestor(a, c));
        assert!(t.is_ancestor(r, c));
        assert!(!t.is_ancestor(c, a));
        assert!(!t.is_ancestor(a, a), "strict ancestry");
    }

    #[test]
    fn attribute_and_text_accessors() {
        let mut t = XmlTree::new();
        let r = t.root();
        let e = elem(&mut t, "title");
        t.append_child(r, e).unwrap();
        let at = t.create(NodeKind::attribute("genre", "Fantasy"));
        t.append_child(e, at).unwrap();
        let tx = t.create(NodeKind::text("Wayfarer"));
        t.append_child(e, tx).unwrap();
        assert_eq!(t.attribute(e, "genre"), Some("Fantasy"));
        assert_eq!(t.attribute(e, "missing"), None);
        assert_eq!(t.text_content(e), "Wayfarer");
    }

    #[test]
    fn doc_cmp_across_branches() {
        let mut t = XmlTree::new();
        let r = t.root();
        let a = elem(&mut t, "a");
        let b = elem(&mut t, "b");
        t.append_child(r, a).unwrap();
        t.append_child(r, b).unwrap();
        let a1 = elem(&mut t, "a1");
        t.append_child(a, a1).unwrap();
        // a1 (deep in first branch) precedes b (second branch)
        assert_eq!(t.doc_cmp(a1, b), Ordering::Less);
        assert_eq!(t.doc_cmp(b, a1), Ordering::Greater);
    }

    #[test]
    fn every_mutation_moves_the_revision_and_clones_keep_it() {
        let mut t = XmlTree::new();
        let r = t.root();
        let mut seen = vec![t.revision()];
        let a = elem(&mut t, "a");
        seen.push(t.revision());
        t.append_child(r, a).unwrap();
        seen.push(t.revision());
        *t.kind_mut(a) = NodeKind::element("b");
        seen.push(t.revision());
        t.detach(a).unwrap();
        seen.push(t.revision());
        t.remove_subtree(a).unwrap();
        seen.push(t.revision());
        assert!(seen.windows(2).all(|w| w[0] < w[1]), "{seen:?}");
        assert_eq!(t.clone().revision(), t.revision());
        let _ = t.ids_in_doc_order();
        assert_eq!(t.revision(), *seen.last().unwrap(), "reads leave it alone");
    }

    /// `root > a > (b > c > e, d > t)`, with `t` a text node.
    fn journal_fixture() -> (XmlTree, [NodeId; 5]) {
        let mut t = XmlTree::new();
        let r = t.root();
        let [a, b, c, d, e] = ["a", "b", "c", "d", "e"].map(|n| elem(&mut t, n));
        let tx = t.create(NodeKind::text("old"));
        t.append_child(r, a).unwrap();
        t.append_child(a, b).unwrap();
        t.append_child(b, c).unwrap();
        // `e` is written only by the removal of `c`'s subtree
        t.append_child(c, e).unwrap();
        t.append_child(a, d).unwrap();
        t.append_child(d, tx).unwrap();
        (t, [a, b, c, d, tx])
    }

    /// Every kind of write a batch makes, on both pre-batch nodes and
    /// nodes the batch creates.
    fn journal_edits(t: &mut XmlTree, [a, b, c, d, tx]: [NodeId; 5]) {
        let x = elem(t, "x");
        t.append_child(a, x).unwrap();
        let y = elem(t, "y");
        t.prepend_child(b, y).unwrap();
        let z = elem(t, "z");
        t.insert_before(d, z).unwrap();
        let w = elem(t, "w");
        t.insert_after(c, w).unwrap();
        let x1 = elem(t, "x1");
        t.append_child(x, x1).unwrap();
        t.detach(b).unwrap();
        t.append_child(d, b).unwrap();
        t.remove_subtree(c).unwrap();
        t.remove_subtree(z).unwrap();
        *t.kind_mut(tx) = NodeKind::text("new");
        *t.kind_mut(tx) = NodeKind::text("newer");
        *t.kind_mut(y) = NodeKind::element("y2");
    }

    #[test]
    fn rolled_back_journal_restores_the_tree_exactly() {
        let (mut t, ids) = journal_fixture();
        let before = t.clone();
        t.begin_undo();
        journal_edits(&mut t, ids);
        assert_ne!(
            crate::serialize_compact(&t),
            crate::serialize_compact(&before)
        );
        t.end_undo(false);
        assert_eq!(
            crate::serialize_compact(&t),
            crate::serialize_compact(&before)
        );
        assert_eq!(t.revision(), before.revision());
        assert_eq!(t.len(), before.len());
        assert_eq!(t.id_bound(), before.id_bound());
        assert_eq!(format!("{:?}", t.nodes), format!("{:?}", before.nodes));
        t.validate().unwrap();
        // no journal stays open: the next write is not recorded
        assert!(t.undo.is_none());
        let e = elem(&mut t, "e");
        assert_eq!(
            e.index(),
            before.id_bound(),
            "ids of dropped nodes are reissued"
        );
    }

    #[test]
    fn committed_journal_keeps_the_edits() {
        let (mut plain, ids) = journal_fixture();
        journal_edits(&mut plain, ids);
        let (mut t, ids) = journal_fixture();
        t.begin_undo();
        journal_edits(&mut t, ids);
        t.end_undo(true);
        assert_eq!(
            crate::serialize_compact(&t),
            crate::serialize_compact(&plain)
        );
        assert_eq!(t.revision(), plain.revision());
        assert_eq!(format!("{:?}", t.nodes), format!("{:?}", plain.nodes));
        t.validate().unwrap();
        // closing with no journal open is a no-op
        t.end_undo(false);
        assert_eq!(
            crate::serialize_compact(&t),
            crate::serialize_compact(&plain)
        );
    }

    #[test]
    fn a_clone_has_no_journal_open() {
        let (mut t, [a, ..]) = journal_fixture();
        t.begin_undo();
        t.detach(a).unwrap();
        let copy = t.clone();
        assert!(copy.undo.is_none());
        assert_eq!(copy.revision(), t.revision());
        t.end_undo(false);
        assert_eq!(copy.parent(a), None, "the copy kept the edit");
    }

    #[test]
    fn subtree_size_counts_self() {
        let mut t = XmlTree::new();
        let r = t.root();
        let a = elem(&mut t, "a");
        let b = elem(&mut t, "b");
        t.append_child(r, a).unwrap();
        t.append_child(a, b).unwrap();
        assert_eq!(t.subtree_size(a), 2);
        assert_eq!(t.subtree_size(r), 3);
    }
}
