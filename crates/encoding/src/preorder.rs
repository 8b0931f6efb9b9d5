//! The preorder index: the scheme-independent half of Definition 2's
//! encoding. Row `i` is the `i`-th node in document order, and the index
//! holds what no labelling scheme captures: each row's node kind (type,
//! name and content), its parent, the [`Topology`] sidecar and the
//! [`NameIndex`]. It carries no label: ancestry is preorder interval
//! containment on the topology, so the XPath evaluator, the query cache,
//! the analyzer and flux lowering all run on this one type.
//! [`EncodedDocument`](crate::EncodedDocument) adds a scheme's label
//! column on top.
//!
//! Each row remembers which [`NodeId`] produced it
//! ([`PreorderIndex::source_id`]): node ids are never reused across
//! deletions, so the id is a stable node identity across encodings of
//! the same evolving tree. That identity lets an index follow a batch of
//! structural edits in place ([`PreorderIndex::splice`]) instead of being
//! encoded afresh, and the splice keeps its run list
//! ([`PreorderIndex::splice_runs`]), the old-row-to-new-row map the
//! incremental query cache renumbers its result rows through.
//!
//! Axes run on the topology: ancestry is an O(1) interval test,
//! `child`/sibling axes are CSR slice walks, and the range axes cost time
//! proportional to their answers. [`PreorderIndex::children_via_scan`]
//! keeps the full-table scan as the reference the differential suites
//! and the scan-vs-index benchmark compare against.

use crate::index::NameIndex;
use crate::topology::Topology;
use xupd_xmldom::{NodeId, NodeKind, TreeError, XmlTree};

/// How the last [`PreorderIndex::splice`] numbered the new index: every
/// new row was either carried over from the old index or read fresh from
/// the tree. Together the kept runs and the fresh ranges cover the new
/// rows once, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpliceRuns<'a> {
    /// Kept runs `(old, new, len)`: old rows `old..old + len` are new
    /// rows `new..new + len`. Both columns increase along the list, so
    /// a sorted list of old rows renumbers in one merge. An old row no
    /// kept run carries was deleted or moved.
    pub kept: &'a [(usize, usize, usize)],
    /// Fresh row ranges `(start, end)`, half-open and in order: each is
    /// one created or moved subtree, read from the tree.
    pub fresh: &'a [(usize, usize)],
}

/// The buffers behind [`SpliceRuns`], kept across splices so that a
/// splice allocates only when it finds more runs than any before it.
#[derive(Debug, Clone, Default)]
struct RunList {
    kept: Vec<(usize, usize, usize)>,
    fresh: Vec<(usize, usize)>,
    /// The root node of each fresh range, parallel to `fresh`.
    roots: Vec<NodeId>,
}

/// A document's preorder index: node kinds, parents and the structural
/// sidecars in document order, with no label column. Its
/// [`revision`](Self::revision) names the tree state it describes, and
/// every consumer rejects an index made for another state.
#[derive(Debug, Clone)]
pub struct PreorderIndex {
    /// Node type, name and content per row.
    kinds: Vec<NodeKind>,
    /// Parents, depths, extents and CSR children.
    topo: Topology,
    names: NameIndex,
    /// Source tree node id per row, in document order.
    source_ids: Vec<NodeId>,
    /// Reverse map: `row_of[id.index()]` is the row encoding that node,
    /// `usize::MAX` for ids outside this document.
    row_of: Vec<usize>,
    /// [`XmlTree::revision`] of the tree state the index describes.
    revision: u32,
    /// The last splice's runs; empty after an encode.
    runs: RunList,
}

impl PreorderIndex {
    /// Index `tree` in document order, building the [`Topology`] and
    /// [`NameIndex`] in the same pass. Errors only on a malformed tree,
    /// whose parent references the topology refuses.
    pub fn encode(tree: &XmlTree) -> Result<Self, TreeError> {
        let order: Vec<NodeId> = tree.ids_in_doc_order();
        let mut row_of = vec![usize::MAX; tree.id_bound()];
        // The kind column, the largest one, is pushed rather than
        // collected to its exact size: it keeps the spare capacity that
        // doubling leaves (as the id column from `ids_in_doc_order`
        // does), so a growing document's splices fill that room instead
        // of reallocating the column on its first growing batch.
        let mut kinds: Vec<NodeKind> = Vec::new();
        for (i, &id) in order.iter().enumerate() {
            row_of[id.index()] = i;
            kinds.push(tree.kind(id).clone());
        }
        let topo = Topology::from_parents(
            order
                .iter()
                .map(|&id| tree.parent(id).map(|p| row_of[p.index()]))
                .collect(),
        )?;
        let names = NameIndex::from_kinds(kinds.iter());
        Ok(PreorderIndex {
            kinds,
            topo,
            names,
            source_ids: order,
            row_of,
            revision: tree.revision(),
            runs: RunList::default(),
        })
    }

    /// Bring the index up to date with `tree` after a batch of
    /// structural edits, in place instead of re-encoding it.
    ///
    /// `cut` holds the pre-batch rows of every subtree root the batch
    /// deleted or moved. Created nodes need no list: node ids are never
    /// reused, so they are the live ids at or past the id bound the
    /// index was last built for. Finding what changed costs O(batch):
    /// the splice walks the post-batch tree only through the
    /// ancestors-or-self of every changed child list, emitting each
    /// untouched subtree as one block of old rows and each created or
    /// moved subtree as fresh rows read from the tree. The rest is
    /// O(n) shifting: kept rows move to their new positions without
    /// cloning their kinds, then one pass sets `row_of` and writes each
    /// row's parent into the [`Topology`]'s own column, and the topology
    /// and [`NameIndex`] are rebuilt into the buffers they already
    /// hold. The result equals [`encode`](Self::encode) of `tree` row
    /// for row, and [`splice_runs`](Self::splice_runs) then tells which
    /// old row each new row was.
    ///
    /// Text writes to nodes inside kept blocks are not seen here; patch
    /// them afterwards with [`patch_text`](Self::patch_text). Errors
    /// when the edits do not account for `tree` (a deleted, moved or
    /// created node left out); the index is consumed, so encode afresh
    /// then.
    pub fn splice(mut self, tree: &XmlTree, cut: &[usize]) -> Result<Self, TreeError> {
        let mut runs = std::mem::take(&mut self.runs);
        self.find_runs(tree, cut, &mut runs)?;
        let (n_old, n_new) = (self.kinds.len(), tree.len());

        // Retire the ids of every row no kept run carries over: deleted
        // nodes, and moved ones (re-entered below from the tree).
        let mut from = 0;
        for &(old, _, len) in &runs.kept {
            self.retire(from..old);
            from = old + len;
        }
        self.retire(from..n_old);

        // Move the kept runs. Their new positions increase with their
        // old ones, so runs shifted left can move front to back and runs
        // shifted right back to front: neither pass lands on a row that
        // has not moved yet. Swaps carry each kind over without a clone.
        if n_new > n_old {
            // Placeholders: every one is overwritten below.
            self.kinds.resize(n_new, NodeKind::Document);
            self.source_ids.resize(n_new, tree.root());
        }
        for &(old, new, len) in &runs.kept {
            if new < old {
                for j in 0..len {
                    self.move_row(old + j, new + j);
                }
            }
        }
        for &(old, new, len) in runs.kept.iter().rev() {
            if new > old {
                for j in (0..len).rev() {
                    self.move_row(old + j, new + j);
                }
            }
        }
        for (&(start, _), &root) in runs.fresh.iter().zip(&runs.roots) {
            for (k, id) in tree.preorder_from(root).enumerate() {
                self.kinds[start + k] = tree.kind(id).clone();
                self.source_ids[start + k] = id;
            }
        }
        self.kinds.truncate(n_new);
        self.source_ids.truncate(n_new);

        // One pass in document order: a parent's row is always set
        // before its children look it up.
        let bad = |what: &str| TreeError::Invariant(format!("splice: {what}"));
        self.row_of.resize(tree.id_bound(), usize::MAX);
        let parents = self.topo.parents_mut();
        parents.clear();
        for i in 0..n_new {
            let id = self.source_ids[i];
            if !tree.is_alive(id) {
                return Err(bad("a kept row's node is gone"));
            }
            let parent = match tree.parent(id) {
                None if i == 0 => None,
                None => return Err(bad("a non-root row has no parent")),
                Some(p) => match self.row_of[p.index()] {
                    pr if pr < i && self.source_ids[pr] == p => Some(pr),
                    _ => return Err(bad("a row precedes its parent")),
                },
            };
            self.row_of[id.index()] = i;
            parents.push(parent);
        }
        self.topo.rebuild()?;
        self.names.rebuild(self.kinds.iter());
        self.revision = tree.revision();
        self.runs = runs;
        Ok(self)
    }

    /// Forget which rows encode the nodes of `rows`.
    fn retire(&mut self, rows: std::ops::Range<usize>) {
        for &id in &self.source_ids[rows] {
            self.row_of[id.index()] = usize::MAX;
        }
    }

    /// Move row `from` to `to`; whatever `to` held (a row that is gone
    /// or has already moved) lands in `from`.
    fn move_row(&mut self, from: usize, to: usize) {
        self.kinds.swap(from, to);
        self.source_ids[to] = self.source_ids[from];
    }

    /// Fill `runs` with the run list of a splice, in new document
    /// order: the walk [`splice`](Self::splice) describes. Errors when
    /// the runs cannot be right — a live node with no row that was not
    /// created, kept rows out of their old order, or runs that do not
    /// cover the tree.
    fn find_runs(
        &self,
        tree: &XmlTree,
        cut: &[usize],
        runs: &mut RunList,
    ) -> Result<(), TreeError> {
        let bad = |what: &str| TreeError::Invariant(format!("splice: {what}"));
        // Roots read fresh from the tree: created nodes and moved roots.
        let mut fresh: Vec<NodeId> = (self.row_of.len()..tree.id_bound())
            .map(NodeId::from_index)
            .filter(|&id| tree.is_alive(id))
            .collect();
        // Nodes whose child list changed: the parent of every fresh root
        // and the surviving pre-batch parent of every cut root.
        let mut open: Vec<NodeId> = Vec::new();
        for &row in cut {
            let id = *self
                .source_ids
                .get(row)
                .ok_or_else(|| bad("cut row out of range"))?;
            if tree.is_alive(id) {
                fresh.push(id);
            }
            if let Some(p) = self.topo.parent(row).map(|p| self.source_ids[p]) {
                if tree.is_alive(p) {
                    open.push(p);
                }
            }
        }
        open.extend(fresh.iter().filter_map(|&id| tree.parent(id)));
        for k in 0..open.len() {
            let mut cur = tree.parent(open[k]);
            while let Some(p) = cur {
                open.push(p);
                cur = tree.parent(p);
            }
        }
        open.sort_unstable();
        open.dedup();
        fresh.sort_unstable();
        fresh.dedup();

        // Walk the post-batch tree, descending only into open nodes.
        runs.kept.clear();
        runs.fresh.clear();
        runs.roots.clear();
        let (mut kept_end, mut total) = (0, 0);
        let mut stack: Vec<NodeId> = Vec::new();
        let mut next = Some(tree.root());
        loop {
            let Some(node) = next else {
                match stack.pop() {
                    Some(p) => {
                        next = tree.next_sibling(p);
                        continue;
                    }
                    None => break,
                }
            };
            if fresh.binary_search(&node).is_ok() {
                let len = tree.subtree_size(node);
                runs.fresh.push((total, total + len));
                runs.roots.push(node);
                total += len;
                next = tree.next_sibling(node);
                continue;
            }
            let row = self
                .row_of_source(node)
                .ok_or_else(|| bad("a live node has no row and was not created"))?;
            let is_open = open.binary_search(&node).is_ok();
            let len = if is_open {
                1
            } else {
                self.topo.extent(row) - row
            };
            if row < kept_end {
                return Err(bad("kept rows out of their old order"));
            }
            match runs.kept.last_mut() {
                Some((old, new, l)) if *old + *l == row && *new + *l == total => *l += len,
                _ => runs.kept.push((row, total, len)),
            }
            total += len;
            kept_end = row + len;
            if is_open {
                stack.push(node);
                next = tree.first_child(node);
            } else {
                next = tree.next_sibling(node);
            }
        }
        if total != tree.len() {
            return Err(bad("runs do not cover the tree"));
        }
        Ok(())
    }

    /// The run list of the last [`splice`](Self::splice): which old row
    /// each new row was, and which new rows were read fresh from the
    /// tree. A caller holding results in the old rows renumbers them
    /// through [`SpliceRuns::kept`] and re-derives what lies in
    /// [`SpliceRuns::fresh`]. Both lists are empty after
    /// [`encode`](Self::encode); [`patch_text`](Self::patch_text)
    /// renumbers nothing and leaves them as they were.
    pub fn splice_runs(&self) -> SpliceRuns<'_> {
        SpliceRuns {
            kept: &self.runs.kept,
            fresh: &self.runs.fresh,
        }
    }

    /// Bring the index up to date with `tree` after edits that changed
    /// only the text of the nodes in `written`: each one's row takes
    /// its value from the tree (a node the tree no longer holds is
    /// skipped), and the index records `tree`'s revision. A text write
    /// changes no topology and no name bucket, so no rebuild is needed.
    /// With `written` empty it only records the revision, for edits
    /// that cancelled out. Errors when a live node in `written` has no
    /// row or is not a text node.
    pub fn patch_text(&mut self, tree: &XmlTree, written: &[NodeId]) -> Result<(), TreeError> {
        for &id in written.iter().filter(|&&id| tree.is_alive(id)) {
            let row = self
                .row_of_source(id)
                .ok_or(TreeError::DanglingNodeId(id))?;
            match (&mut self.kinds[row], tree.kind(id)) {
                (NodeKind::Text { value }, NodeKind::Text { value: text }) => {
                    value.clone_from(text);
                }
                (other, _) => {
                    return Err(TreeError::Invariant(format!(
                        "patch_text target row {row} is {other:?}, not a text node"
                    )))
                }
            }
        }
        self.revision = tree.revision();
        Ok(())
    }

    /// The [`XmlTree::revision`] of the tree state this index describes:
    /// set by [`encode`](Self::encode), [`splice`](Self::splice) and
    /// [`patch_text`](Self::patch_text).
    pub fn revision(&self) -> u32 {
        self.revision
    }

    /// Number of rows (= nodes).
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// True when the index is empty (never the case for a well-formed
    /// document, which has at least the document root).
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Node type, name and content of row `i`.
    pub fn kind(&self, i: usize) -> &NodeKind {
        &self.kinds[i]
    }

    /// The structural sidecar: parents, depths, extents, CSR children.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The element/attribute name index.
    pub fn name_index(&self) -> &NameIndex {
        &self.names
    }

    /// Index of the document root row (always 0 — first in document
    /// order).
    pub fn root(&self) -> usize {
        0
    }

    /// Depth of row `i` (document root = 0).
    pub fn depth(&self, i: usize) -> u32 {
        self.topo.depth(i)
    }

    /// Is row `a` a strict ancestor of row `b`? O(1) interval
    /// containment on the pre-order extents.
    pub fn is_ancestor(&self, a: usize, b: usize) -> bool {
        self.topo.is_ancestor(a, b)
    }

    /// Parent of a row.
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.topo.parent(i)
    }

    /// Children of a row, in document order — a CSR slice, no
    /// allocation.
    pub fn children(&self, i: usize) -> &[usize] {
        self.topo.children(i)
    }

    /// Children computed by the reference full-table scan of the parent
    /// column (what [`children`](Self::children) did before the CSR
    /// arrays) — kept for differential tests and the scan-vs-index
    /// benchmarks.
    pub fn children_via_scan(&self, i: usize) -> Vec<usize> {
        (0..self.len())
            .filter(|&j| self.topo.parent(j) == Some(i))
            .collect()
    }

    /// Strict descendants of a row, in document order: the contiguous
    /// extent range, materialized.
    pub fn descendants(&self, i: usize) -> Vec<usize> {
        self.topo.descendant_range(i).collect()
    }

    /// Strict descendants as a range — the allocation-free form.
    pub fn descendant_range(&self, i: usize) -> std::ops::Range<usize> {
        self.topo.descendant_range(i)
    }

    /// Strict ancestors of a row, root first.
    pub fn ancestors(&self, i: usize) -> Vec<usize> {
        let mut up = Vec::new();
        let mut cur = self.topo.parent(i);
        while let Some(p) = cur {
            up.push(p);
            cur = self.topo.parent(p);
        }
        up.reverse();
        up
    }

    /// XPath `following` axis: after `i` in document order, excluding
    /// descendants — exactly the row suffix past `i`'s extent.
    pub fn following(&self, i: usize) -> Vec<usize> {
        (self.topo.extent(i)..self.len()).collect()
    }

    /// XPath `preceding` axis: before `i` in document order, excluding
    /// ancestors — an O(1) extent test per candidate.
    pub fn preceding(&self, i: usize) -> Vec<usize> {
        (0..i).filter(|&j| self.topo.extent(j) <= i).collect()
    }

    /// Following siblings of `i`, in document order: the tail of the
    /// parent's CSR slice.
    pub fn following_siblings(&self, i: usize) -> &[usize] {
        match (self.topo.parent(i), self.topo.child_position(i)) {
            (Some(p), Some(pos)) => &self.topo.children(p)[pos + 1..],
            _ => &[],
        }
    }

    /// Preceding siblings of `i`, in document order: the head of the
    /// parent's CSR slice.
    pub fn preceding_siblings(&self, i: usize) -> &[usize] {
        match (self.topo.parent(i), self.topo.child_position(i)) {
            (Some(p), Some(pos)) => &self.topo.children(p)[..pos],
            _ => &[],
        }
    }

    /// Attribute children of `i`.
    pub fn attributes(&self, i: usize) -> Vec<usize> {
        self.topo
            .children(i)
            .iter()
            .copied()
            .filter(|&j| self.kinds[j].is_attribute())
            .collect()
    }

    /// The XPath string value of a row: concatenated descendant text for
    /// elements, own value for attributes/text/comments/PIs. Walks the
    /// extent range directly — no descendant set is materialized.
    pub fn string_value(&self, i: usize) -> String {
        match &self.kinds[i] {
            NodeKind::Document | NodeKind::Element { .. } => {
                let mut out = String::new();
                for j in self.topo.descendant_range(i) {
                    if let NodeKind::Text { value } = &self.kinds[j] {
                        out.push_str(value);
                    }
                }
                out
            }
            other => other.value().unwrap_or("").to_string(),
        }
    }

    /// The value of attribute `name` on element row `i` — a borrow into
    /// the index, probing the CSR children directly (no intermediate
    /// `Vec`, no cloned `String`).
    pub fn attribute_value(&self, i: usize, name: &str) -> Option<&str> {
        self.topo
            .children(i)
            .iter()
            .find_map(|&j| match &self.kinds[j] {
                NodeKind::Attribute { name: n, value } if n == name => Some(value.as_str()),
                _ => None,
            })
    }

    /// The source-tree [`NodeId`] row `i` encodes. Node ids are never
    /// reused by [`xupd_xmldom::XmlTree`], so this is a stable identity
    /// across re-encodings of the same evolving tree.
    pub fn source_id(&self, i: usize) -> NodeId {
        self.source_ids[i]
    }

    /// The row encoding source node `id`, if that node is part of this
    /// document. O(1) — a direct table probe.
    pub fn row_of_source(&self, id: NodeId) -> Option<usize> {
        match self.row_of.get(id.index()) {
            Some(&r) if r != usize::MAX => Some(r),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_xmldom::sample::figure1_document;

    #[test]
    fn axes_match_tree_ground_truth() {
        let tree = figure1_document();
        let index = PreorderIndex::encode(&tree).unwrap();
        assert_eq!(index.len(), tree.len());
        let order = tree.ids_in_doc_order();
        for (i, &id) in order.iter().enumerate() {
            // children
            let kid_names: Vec<_> = index
                .children(i)
                .iter()
                .map(|&j| index.kind(j).name().unwrap_or("").to_string())
                .collect();
            let tree_kids: Vec<_> = tree
                .children(id)
                .map(|c| tree.kind(c).name().unwrap_or("").to_string())
                .collect();
            assert_eq!(kid_names, tree_kids);
            assert_eq!(index.children(i), index.children_via_scan(i).as_slice());
            // descendant count and depth
            assert_eq!(index.descendants(i).len(), tree.subtree_size(id) - 1);
            assert_eq!(index.depth(i), tree.depth(id));
            // following/preceding partition
            let f = index.following(i).len();
            let p = index.preceding(i).len();
            let anc = index.ancestors(i).len();
            let desc = index.descendants(i).len();
            assert_eq!(f + p + anc + desc + 1, index.len());
        }
    }

    #[test]
    fn sibling_axes_are_csr_slices() {
        let tree = figure1_document();
        let index = PreorderIndex::encode(&tree).unwrap();
        for i in 0..index.len() {
            let fs = index.following_siblings(i);
            let ps = index.preceding_siblings(i);
            match index.parent(i) {
                None => {
                    assert!(fs.is_empty());
                    assert!(ps.is_empty());
                }
                Some(p) => {
                    let mut all = ps.to_vec();
                    all.push(i);
                    all.extend_from_slice(fs);
                    assert_eq!(all, index.children(p));
                }
            }
        }
    }

    #[test]
    fn string_values_and_attributes() {
        let tree = figure1_document();
        let index = PreorderIndex::encode(&tree).unwrap();
        // find the title element row
        let title = (0..index.len())
            .find(|&i| index.kind(i).name() == Some("title"))
            .unwrap();
        assert_eq!(index.string_value(title), "Wayfarer");
        assert_eq!(index.attribute_value(title, "genre"), Some("Fantasy"));
        assert_eq!(index.attribute_value(title, "nope"), None);
        // whole-document string value concatenates all text
        let all = index.string_value(index.root());
        assert!(all.contains("Wayfarer") && all.contains("USA"));
    }

    #[test]
    fn source_ids_round_trip_and_text_patch() {
        let tree = figure1_document();
        let mut index = PreorderIndex::encode(&tree).unwrap();
        let order = tree.ids_in_doc_order();
        for (i, &id) in order.iter().enumerate() {
            assert_eq!(index.source_id(i), id);
            assert_eq!(index.row_of_source(id), Some(i));
        }
        let out_of_range = NodeId::from_index(tree.id_bound() + 5);
        assert_eq!(index.row_of_source(out_of_range), None);

        let title_text = (0..index.len())
            .find(|&i| index.kind(i).value() == Some("Wayfarer") && index.kind(i).is_text())
            .unwrap();
        let mut edited = tree.clone();
        let text_id = index.source_id(title_text);
        *edited.kind_mut(text_id) = NodeKind::Text {
            value: "Sojourner".to_string(),
        };
        assert_ne!(index.revision(), edited.revision());
        index.patch_text(&edited, &[text_id]).unwrap();
        assert_eq!(index.revision(), edited.revision());
        assert_eq!(index.kind(title_text).value(), Some("Sojourner"));
        let title = index.parent(title_text).unwrap();
        assert_eq!(index.string_value(title), "Sojourner");
        let title_id = index.source_id(title);
        assert!(
            index.patch_text(&edited, &[title_id]).is_err(),
            "element row"
        );
    }
}
