//! The preorder index: the scheme-independent structure of Definition
//! 2's encoding. Row `i` is the `i`-th node in document order, and the
//! index holds the [`NodeId`] each row encodes, the [`Topology`] sidecar
//! (which holds the parent column) and the [`NameIndex`]. It holds no
//! node content and no label. Content (node type, name, value) stays in
//! the tree's node table and is read by source id, as
//! `tree.kind(index.source_id(row))`, so every reader that needs it
//! takes the [`XmlTree`] the index describes. The labels are the
//! scheme's: a [`DynScheme`] session holds them by node id, and the
//! `*_via_labels` methods read them through each row's
//! [`source_id`](PreorderIndex::source_id). Ancestry is preorder
//! interval containment on the topology, so the XPath evaluator, the
//! query cache, the analyzer and flux lowering all run on this one type.
//!
//! Node ids are never reused across deletions, so the source id is a
//! stable node identity across encodings of the same evolving tree.
//! That identity lets an index follow a batch of structural edits in
//! place ([`PreorderIndex::splice`]) instead of being encoded afresh,
//! and the splice keeps its run list ([`PreorderIndex::splice_runs`]),
//! the old-row-to-new-row map the incremental query cache renumbers its
//! result rows through. A batch that only writes text moves no row, so
//! the index only records the new revision
//! ([`PreorderIndex::follow_text`]).
//!
//! Axes run on the topology: ancestry is an O(1) interval test, the
//! `child`/sibling axes step through the extents from child to child,
//! and the range axes cost time proportional to their answers.
//! [`PreorderIndex::children_via_scan`] and the label-algebra axes
//! ([`PreorderIndex::is_ancestor_via_labels`] and the other
//! `*_via_labels` methods) keep the full-table scans as the reference
//! the differential suites and the scan-vs-index benchmarks compare
//! against.

use crate::index::NameIndex;
use crate::topology::{row32, Topology};
use xupd_labelcore::{DynScheme, Relation};
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

/// `row_of`'s entry for a node id no row encodes.
const NO_ROW: u32 = u32::MAX;

/// A document's preorder index: parents, source ids and the structural
/// sidecars in document order, with no content and no label column.
/// Every per-node column holds 4-byte entries: [`NodeId`]s are `u32`
/// indices, so rows fit in `u32` too, and encode and splice refuse a
/// tree whose id bound does not.
/// Its [`revision`](Self::revision) names the tree state it describes,
/// and every consumer rejects an index made for another state.
#[derive(Debug, Clone)]
pub struct PreorderIndex {
    /// Parents and extents.
    topo: Topology,
    names: NameIndex,
    /// Source tree node id per row, in document order.
    source_ids: Vec<NodeId>,
    /// Reverse map: `row_of[id.index()]` is the row encoding that node,
    /// `NO_ROW` for ids outside this document.
    row_of: Vec<u32>,
    /// [`XmlTree::revision`] of the tree state the index describes.
    revision: u32,
    /// The last splice's runs; empty after an encode.
    runs: RunList,
}

impl PreorderIndex {
    /// Index `tree` in document order: its node ids become the rows,
    /// and the pass that ends every [`splice`](Self::splice) builds the
    /// rest. Errors on a malformed tree, whose parent references that
    /// pass refuses, and on a tree whose id bound does not fit the
    /// `u32` columns.
    pub fn encode(tree: &XmlTree) -> Result<Self, TreeError> {
        row32(tree.id_bound())?;
        let mut index = PreorderIndex {
            topo: Topology::default(),
            names: NameIndex::default(),
            source_ids: tree.ids_in_doc_order(),
            row_of: Vec::new(),
            revision: tree.revision(),
            runs: RunList::default(),
        };
        index.index_rows(tree)?;
        Ok(index)
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
    /// O(n) shifting: each kept run's source ids move to their new
    /// positions in one copy, then the pass shared with
    /// [`encode`](Self::encode) sets `row_of`, writes each row's parent
    /// into the [`Topology`]'s own column, and rebuilds the extents and
    /// the [`NameIndex`] into the buffers they already hold. The result
    /// equals [`encode`](Self::encode) of `tree` row for row, and
    /// [`splice_runs`](Self::splice_runs) then tells which old row each
    /// new row was.
    ///
    /// Text the batch wrote needs nothing here: content is read from
    /// the tree. Errors when the edits do not account for `tree` (a
    /// deleted, moved or created node left out) or its id bound no
    /// longer fits the `u32` columns; the index is consumed, so encode
    /// afresh then.
    pub fn splice(mut self, tree: &XmlTree, cut: &[usize]) -> Result<Self, TreeError> {
        row32(tree.id_bound())?;
        let mut runs = std::mem::take(&mut self.runs);
        self.find_runs(tree, cut, &mut runs)?;
        let (n_old, n_new) = (self.len(), tree.len());

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
        // has not moved yet.
        let ids = &mut self.source_ids;
        if n_new > n_old {
            // Placeholders: every one is overwritten below.
            ids.resize(n_new, tree.root());
        }
        for &(old, new, len) in &runs.kept {
            if new < old {
                ids.copy_within(old..old + len, new);
            }
        }
        for &(old, new, len) in runs.kept.iter().rev() {
            if new > old {
                ids.copy_within(old..old + len, new);
            }
        }
        for (&(start, _), &root) in runs.fresh.iter().zip(&runs.roots) {
            for (k, id) in tree.preorder_from(root).enumerate() {
                ids[start + k] = id;
            }
        }
        ids.truncate(n_new);

        self.index_rows(tree)?;
        self.runs = runs;
        Ok(self)
    }

    /// The pass that ends both [`encode`](Self::encode) and
    /// [`splice`](Self::splice), once `source_ids` lists `tree`'s nodes
    /// in document order: one pass in that order sets each node's
    /// `row_of` entry and writes its row's parent, checked, into the
    /// [`Topology`] (a parent's row is always set before its children
    /// look it up); then the extents and the [`NameIndex`] are rebuilt
    /// into the buffers they already hold, and the index records
    /// `tree`'s revision.
    fn index_rows(&mut self, tree: &XmlTree) -> Result<(), TreeError> {
        let bad = |what: &str| TreeError::Invariant(format!("preorder index: {what}"));
        self.row_of.resize(tree.id_bound(), NO_ROW);
        self.topo.clear_parents();
        for (i, row) in (0..self.source_ids.len()).zip(0..) {
            let id = self.source_ids[i];
            if !tree.is_alive(id) {
                return Err(bad("a row's node is gone"));
            }
            let parent = match tree.parent(id) {
                None if i == 0 => None,
                None => return Err(bad("a non-root row has no parent")),
                Some(p) => match self.row_of[p.index()] {
                    pr if (pr as usize) < i && self.source_ids[pr as usize] == p => Some(pr),
                    _ => return Err(bad("a row precedes its parent")),
                },
            };
            self.row_of[id.index()] = row;
            self.topo.push_parent(parent);
        }
        self.topo.rebuild()?;
        self.names.rebuild(tree, &self.source_ids);
        self.revision = tree.revision();
        Ok(())
    }

    /// Forget which rows encode the nodes of `rows`.
    fn retire(&mut self, rows: std::ops::Range<usize>) {
        for &id in &self.source_ids[rows] {
            self.row_of[id.index()] = NO_ROW;
        }
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
    /// [`encode`](Self::encode); [`follow_text`](Self::follow_text)
    /// renumbers nothing and leaves them as they were.
    pub fn splice_runs(&self) -> SpliceRuns<'_> {
        SpliceRuns {
            kept: &self.runs.kept,
            fresh: &self.runs.fresh,
        }
    }

    /// Bring the index up to date with `tree` after edits that changed
    /// only the text of the nodes in `written`, or nothing at all (an
    /// empty `written`): text is the tree's, and a text write moves no
    /// row, parent or name, so the index only records `tree`'s
    /// revision. Errors when a live node in `written` has no row or is
    /// not a text node; a node the tree no longer holds is skipped.
    pub fn follow_text(&mut self, tree: &XmlTree, written: &[NodeId]) -> Result<(), TreeError> {
        for &id in written.iter().filter(|&&id| tree.is_alive(id)) {
            let row = self
                .row_of_source(id)
                .ok_or(TreeError::DanglingNodeId(id))?;
            if !tree.kind(id).is_text() {
                return Err(TreeError::Invariant(format!(
                    "text write target row {row} is not a text node"
                )));
            }
        }
        self.revision = tree.revision();
        Ok(())
    }

    /// The [`XmlTree::revision`] of the tree state this index describes:
    /// set by [`encode`](Self::encode), [`splice`](Self::splice) and
    /// [`follow_text`](Self::follow_text).
    pub fn revision(&self) -> u32 {
        self.revision
    }

    /// Refuse an index made for another state of `tree` than its
    /// current one ([`TreeError::Invariant`]): every reader that
    /// resolves rows against the live tree checks this first.
    pub fn check_current(&self, tree: &XmlTree) -> Result<(), TreeError> {
        if self.revision == tree.revision() {
            Ok(())
        } else {
            Err(TreeError::Invariant(
                "preorder index was made for another tree state".to_string(),
            ))
        }
    }

    /// Number of rows (= nodes).
    pub fn len(&self) -> usize {
        self.source_ids.len()
    }

    /// True when the index is empty (never the case for a well-formed
    /// document, which has at least the document root).
    pub fn is_empty(&self) -> bool {
        self.source_ids.is_empty()
    }

    /// The structural sidecar: parents and extents, and the
    /// `child`/sibling axes they give.
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

    /// Is row `a` a strict ancestor of row `b`? O(1) interval
    /// containment on the pre-order extents.
    pub fn is_ancestor(&self, a: usize, b: usize) -> bool {
        self.topo.is_ancestor(a, b)
    }

    /// Parent of a row.
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.topo.parent(i)
    }

    /// Children computed by the reference full-table scan of the parent
    /// column — the reference [`Topology::children`] is checked against
    /// in the differential tests and the scan-vs-index benchmarks.
    pub fn children_via_scan(&self, i: usize) -> Vec<usize> {
        (0..self.len())
            .filter(|&j| self.topo.parent(j) == Some(i))
            .collect()
    }

    /// Ancestry answered the pre-topology way: `labels`' label algebra
    /// when its scheme supports it, otherwise the parent-reference
    /// chain, the supplementary information §2.4 says the encoding must
    /// carry when the labelling scheme does not. `labels` must label
    /// the tree this index describes; a row whose node it does not
    /// label is an error.
    ///
    /// Kept as the explicit reference path: the framework checkers
    /// measure *scheme* capability (Figure 7's XPath column) and the
    /// differential property suite pins this equal to
    /// [`is_ancestor`](Self::is_ancestor) for every scheme.
    pub fn is_ancestor_via_labels(
        &self,
        labels: &dyn DynScheme,
        a: usize,
        b: usize,
    ) -> Result<bool, TreeError> {
        let (x, y) = (self.source_id(a), self.source_id(b));
        if let Some(ans) = labels.relation_nodes(Relation::AncestorDescendant, x, y)? {
            return Ok(ans);
        }
        let mut cur = self.parent(b);
        while let Some(p) = cur {
            if p == a {
                return Ok(true);
            }
            cur = self.parent(p);
        }
        Ok(false)
    }

    /// Descendants computed by the reference label-algebra scan.
    pub fn descendants_via_labels(
        &self,
        labels: &dyn DynScheme,
        i: usize,
    ) -> Result<Vec<usize>, TreeError> {
        rows_where(0..self.len(), |j| {
            Ok(j != i && self.is_ancestor_via_labels(labels, i, j)?)
        })
    }

    /// `following` computed by the reference label-algebra scan.
    pub fn following_via_labels(
        &self,
        labels: &dyn DynScheme,
        i: usize,
    ) -> Result<Vec<usize>, TreeError> {
        rows_where(i + 1..self.len(), |j| {
            Ok(!self.is_ancestor_via_labels(labels, i, j)?)
        })
    }

    /// `preceding` computed by the reference label-algebra scan.
    pub fn preceding_via_labels(
        &self,
        labels: &dyn DynScheme,
        i: usize,
    ) -> Result<Vec<usize>, TreeError> {
        rows_where(0..i, |j| Ok(!self.is_ancestor_via_labels(labels, j, i)?))
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

    /// The XPath string value of row `i`, with content read from `tree`,
    /// the tree this index describes: concatenated descendant text for
    /// elements, own value for attributes/text/comments/PIs. Walks the
    /// extent range's source ids directly — no descendant set is
    /// materialized.
    pub fn string_value(&self, tree: &XmlTree, i: usize) -> String {
        match tree.kind(self.source_ids[i]) {
            NodeKind::Document | NodeKind::Element { .. } => {
                let mut out = String::new();
                for &id in &self.source_ids[self.topo.descendant_range(i)] {
                    if let NodeKind::Text { value } = tree.kind(id) {
                        out.push_str(value);
                    }
                }
                out
            }
            other => other.value().unwrap_or("").to_string(),
        }
    }

    /// The value of attribute `name` on element row `i`, read from
    /// `tree`, the tree this index describes — a borrow into the tree,
    /// probing the children as the topology steps through them (no
    /// intermediate `Vec`, no cloned `String`).
    pub fn attribute_value<'t>(&self, tree: &'t XmlTree, i: usize, name: &str) -> Option<&'t str> {
        self.topo
            .children(i)
            .find_map(|j| match tree.kind(self.source_ids[j]) {
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
            Some(&r) if r != NO_ROW => Some(r as usize),
            _ => None,
        }
    }
}

/// The rows of `rows` that `keep` accepts, in order; the first error
/// `keep` returns ends the scan.
fn rows_where(
    rows: std::ops::Range<usize>,
    keep: impl Fn(usize) -> Result<bool, TreeError>,
) -> Result<Vec<usize>, TreeError> {
    rows.filter_map(|j| keep(j).map(|hit| hit.then_some(j)).transpose())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;
    use xupd_labelcore::SchemeSession;
    use xupd_schemes::containment::sector::Sector;
    use xupd_schemes::prefix::dewey::DeweyId;
    use xupd_xmldom::sample::figure1_document;

    #[test]
    fn rows_are_in_document_order() {
        let tree = figure1_document();
        let index = PreorderIndex::encode(&tree).unwrap();
        let mut labels = SchemeSession::new(DeweyId::new());
        labels.label_tree(&tree).unwrap();
        assert_eq!(index.len(), tree.len());
        for i in 1..index.len() {
            let order = labels.cmp_nodes(index.source_id(i - 1), index.source_id(i));
            assert_eq!(order.unwrap(), Ordering::Less);
        }
    }

    #[test]
    fn topology_axes_agree_with_label_path_for_sector() {
        // Sector answers ancestry from labels; the topology must give
        // byte-identical axes to the label-algebra reference path.
        let tree = figure1_document();
        let index = PreorderIndex::encode(&tree).unwrap();
        let mut labels = SchemeSession::new(Sector::new());
        labels.label_tree(&tree).unwrap();
        for i in 0..index.len() {
            let descendants = index.descendants_via_labels(&labels, i).unwrap();
            assert_eq!(index.descendants(i), descendants);
            let following = index.following_via_labels(&labels, i).unwrap();
            assert_eq!(index.following(i), following);
            let preceding = index.preceding_via_labels(&labels, i).unwrap();
            assert_eq!(index.preceding(i), preceding);
            for j in 0..index.len() {
                let by_labels = index.is_ancestor_via_labels(&labels, i, j).unwrap();
                assert_eq!(index.is_ancestor(i, j), by_labels);
            }
        }
    }

    #[test]
    fn axes_match_tree_ground_truth() {
        let tree = figure1_document();
        let index = PreorderIndex::encode(&tree).unwrap();
        assert_eq!(index.len(), tree.len());
        let order = tree.ids_in_doc_order();
        for (i, &id) in order.iter().enumerate() {
            // children
            let topo = index.topology();
            let kid_names: Vec<_> = topo
                .children(i)
                .map(|j| tree.kind(index.source_id(j)).name().unwrap_or(""))
                .collect();
            let tree_kids: Vec<_> = tree
                .children(id)
                .map(|c| tree.kind(c).name().unwrap_or(""))
                .collect();
            assert_eq!(kid_names, tree_kids);
            let kids: Vec<usize> = topo.children(i).collect();
            assert_eq!(kids, index.children_via_scan(i));
            // descendant count, and depth as the ancestor chain
            assert_eq!(index.descendants(i).len(), tree.subtree_size(id) - 1);
            assert_eq!(index.ancestors(i).len(), tree.depth(id) as usize);
            // following/preceding partition
            let f = index.following(i).len();
            let p = index.preceding(i).len();
            let anc = index.ancestors(i).len();
            let desc = index.descendants(i).len();
            assert_eq!(f + p + anc + desc + 1, index.len());
        }
    }

    #[test]
    fn sibling_axes_split_the_parents_children() {
        let tree = figure1_document();
        let index = PreorderIndex::encode(&tree).unwrap();
        let topo = index.topology();
        for i in 0..index.len() {
            let fs: Vec<usize> = topo.following_siblings(i).collect();
            let ps: Vec<usize> = topo.preceding_siblings(i).collect();
            match index.parent(i) {
                None => {
                    assert!(fs.is_empty());
                    assert!(ps.is_empty());
                }
                Some(p) => {
                    let mut all = ps;
                    all.push(i);
                    all.extend(fs);
                    assert_eq!(all, topo.children(p).collect::<Vec<_>>());
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
            .find(|&i| tree.kind(index.source_id(i)).name() == Some("title"))
            .unwrap();
        assert_eq!(index.string_value(&tree, title), "Wayfarer");
        assert_eq!(
            index.attribute_value(&tree, title, "genre"),
            Some("Fantasy")
        );
        assert_eq!(index.attribute_value(&tree, title, "nope"), None);
        // whole-document string value concatenates all text
        let all = index.string_value(&tree, index.root());
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

        let text_id = tree
            .preorder()
            .find(|&id| tree.kind(id).is_text() && tree.kind(id).value() == Some("Wayfarer"))
            .unwrap();
        let title_text = index.row_of_source(text_id).unwrap();
        let mut edited = tree.clone();
        *edited.kind_mut(text_id) = NodeKind::Text {
            value: "Sojourner".to_string(),
        };
        assert_ne!(index.revision(), edited.revision());
        index.follow_text(&edited, &[text_id]).unwrap();
        assert_eq!(index.revision(), edited.revision());
        let title = index.parent(title_text).unwrap();
        assert_eq!(index.string_value(&edited, title), "Sojourner");

        // refused: a written node that is not a text node, and a live
        // one with no row
        let title_id = index.source_id(title);
        assert!(
            index.follow_text(&edited, &[title_id]).is_err(),
            "element row"
        );
        let loose = edited.create(NodeKind::Text {
            value: "loose".to_string(),
        });
        assert!(
            matches!(
                index.follow_text(&edited, &[loose]),
                Err(TreeError::DanglingNodeId(id)) if id == loose
            ),
            "live node with no row"
        );
    }
}
