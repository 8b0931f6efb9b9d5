//! The node table: an [`EncodedDocument`] is the self-contained encoding
//! of Definition 2 — once built, neither the original tree nor its node
//! ids are needed to answer queries. Each row does remember which
//! [`NodeId`] produced it ([`EncodedDocument::source_id`]): node ids are
//! never reused across deletions, so the id is a stable node identity
//! across encodings of the same evolving tree. That identity lets a
//! table follow a batch of structural edits in place
//! ([`EncodedDocument::splice`]) instead of being encoded afresh, and
//! the splice keeps its run list ([`EncodedDocument::splice_runs`]), the
//! old-row-to-new-row map the incremental query cache renumbers its
//! result rows through.
//!
//! Axis evaluation runs on the [`Topology`] sidecar built at encode
//! time: ancestry is an O(1) interval test, `child`/sibling axes are CSR
//! slice walks, and the range axes cost time proportional to their
//! answers. The raw label-algebra path survives as
//! [`EncodedDocument::is_ancestor_via_labels`] (plus the `*_via_labels`
//! reference axes) because the framework checkers measure what the
//! labelling *scheme* can answer, not what the encoding can — a
//! differential property suite pins the two paths equivalent.

use crate::index::NameIndex;
use crate::topology::Topology;
use std::cmp::Ordering;
use xupd_labelcore::{Labeling, LabelingScheme, Relation};
use xupd_xmldom::{NodeId, NodeKind, TreeError, XmlTree};

/// One row of the encoding table (cf. Figure 2's columns: label, node
/// type, parent, name, value — type/name/value live in [`NodeKind`]).
#[derive(Debug, Clone)]
pub struct Row<L> {
    /// The node's label under the chosen labelling scheme.
    pub label: L,
    /// Node type, name and content.
    pub kind: NodeKind,
    /// Row index of the parent (like Figure 2's `Parent(Pre)` column,
    /// which stores the parent's label value). `None` for the document
    /// root.
    pub parent: Option<usize>,
}

/// How the last [`EncodedDocument::splice`] numbered the new table:
/// every new row was either carried over from the old table or read
/// fresh from the tree. Together the kept runs and the fresh ranges
/// cover the new rows once, in order.
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

/// A labelled, self-contained encoding of one document. Rows are stored
/// in document order (row index = document-order position).
#[derive(Debug, Clone)]
pub struct EncodedDocument<S: LabelingScheme> {
    scheme: S,
    rows: Vec<Row<S::Label>>,
    topo: Topology,
    index: NameIndex,
    /// Source tree node id per row, in document order.
    source_ids: Vec<NodeId>,
    /// Reverse map: `row_of[id.index()]` is the row encoding that node,
    /// `usize::MAX` for ids outside this document.
    row_of: Vec<usize>,
    /// [`XmlTree::revision`] of the tree state the table encodes.
    revision: u32,
    /// The last splice's runs; empty after an encode.
    runs: RunList,
}

impl<S: LabelingScheme> EncodedDocument<S> {
    /// Label `tree` with `scheme` and extract the node table, building
    /// the [`Topology`] sidecar and [`NameIndex`] in the same pass.
    ///
    /// Errors propagate scheme-level protocol failures ([`TreeError`]);
    /// encoding a well-formed tree with any in-repo scheme succeeds.
    pub fn encode(mut scheme: S, tree: &XmlTree) -> Result<Self, TreeError> {
        let labeling: Labeling<S::Label> = scheme.label_tree(tree)?;
        let order: Vec<NodeId> = tree.ids_in_doc_order();
        let mut index_of = vec![usize::MAX; tree.id_bound()];
        for (i, &id) in order.iter().enumerate() {
            index_of[id.index()] = i;
        }
        let rows = order
            .iter()
            .map(|&id| {
                Ok(Row {
                    label: labeling.req(id)?.clone(),
                    kind: tree.kind(id).clone(),
                    parent: tree.parent(id).map(|p| index_of[p.index()]),
                })
            })
            .collect::<Result<Vec<_>, TreeError>>()?;
        let parents: Vec<Option<usize>> = rows.iter().map(|r| r.parent).collect();
        let topo = Topology::from_parents(&parents)?;
        let index = NameIndex::from_kinds(rows.iter().map(|r| &r.kind));
        Ok(EncodedDocument {
            scheme,
            rows,
            topo,
            index,
            source_ids: order,
            row_of: index_of,
            revision: tree.revision(),
            runs: RunList::default(),
        })
    }

    /// Bring the table up to date with `tree` after a batch of
    /// structural edits, in place instead of re-encoding it.
    ///
    /// `cut` holds the pre-batch rows of every subtree root the batch
    /// deleted or moved. Created nodes need no list: node ids are never
    /// reused, so they are the live ids at or past the id bound the
    /// table was last built for. Finding what changed costs O(batch):
    /// the splice walks the post-batch tree only through the
    /// ancestors-or-self of every changed child list, emitting each
    /// untouched subtree as one block of old rows and each created or
    /// moved subtree as fresh rows read from the tree. The rest is
    /// O(n) shifting: kept rows move to their new positions without
    /// cloning their kinds, then one pass sets `row_of`, parents and
    /// labels, and the [`Topology`] and [`NameIndex`] are rebuilt into
    /// the buffers they already hold. The result equals
    /// [`encode`](Self::encode) of `tree` row for row, and
    /// [`splice_runs`](Self::splice_runs) then tells which old row each
    /// new row was.
    ///
    /// Text writes to nodes inside kept blocks are not seen here; patch
    /// them afterwards with [`patch_text`](Self::patch_text). Labels
    /// are not carried over: `label(i)` gives the label of new row `i`,
    /// so the splice suits schemes whose label is a function of the row
    /// position. Errors when the edits do not account for `tree` (a
    /// deleted, moved or created node left out); the table is consumed,
    /// so encode afresh then.
    pub fn splice(
        mut self,
        tree: &XmlTree,
        cut: &[usize],
        mut label: impl FnMut(usize) -> S::Label,
    ) -> Result<Self, TreeError> {
        let mut runs = std::mem::take(&mut self.runs);
        self.find_runs(tree, cut, &mut runs)?;
        let (n_old, n_new) = (self.rows.len(), tree.len());

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
            let filler = Row {
                label: label(0),
                kind: NodeKind::Document,
                parent: None,
            };
            self.rows.resize(n_new, filler);
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
                self.rows[start + k].kind = tree.kind(id).clone();
                self.source_ids[start + k] = id;
            }
        }
        self.rows.truncate(n_new);
        self.source_ids.truncate(n_new);

        // One pass in document order: a parent's row is always set
        // before its children look it up.
        let bad = |what: &str| TreeError::Invariant(format!("splice: {what}"));
        self.row_of.resize(tree.id_bound(), usize::MAX);
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
            let row = &mut self.rows[i];
            row.parent = parent;
            row.label = label(i);
        }
        self.topo.rebuild(self.rows.iter().map(|r| r.parent))?;
        self.index.rebuild(self.rows.iter().map(|r| &r.kind));
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
        self.rows.swap(from, to);
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
            if let Some(p) = self.rows[row].parent.map(|p| self.source_ids[p]) {
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

    /// Number of rows (= nodes).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table is empty (never the case for a well-formed
    /// document, which has at least the document root).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row access.
    pub fn row(&self, i: usize) -> &Row<S::Label> {
        &self.rows[i]
    }

    /// All rows in document order.
    pub fn rows(&self) -> &[Row<S::Label>] {
        &self.rows
    }

    /// The labelling scheme this table was encoded with.
    pub fn scheme(&self) -> &S {
        &self.scheme
    }

    /// The structural sidecar index built at encode time.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The element/attribute name index built at encode time.
    pub fn name_index(&self) -> &NameIndex {
        &self.index
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

    /// Document-order comparison of two rows by their labels.
    pub fn cmp_doc(&self, a: usize, b: usize) -> Ordering {
        self.scheme
            .cmp_doc(&self.rows[a].label, &self.rows[b].label)
    }

    /// Is row `a` a strict ancestor of row `b`? O(1) interval
    /// containment on the pre-order extents.
    pub fn is_ancestor(&self, a: usize, b: usize) -> bool {
        self.topo.is_ancestor(a, b)
    }

    /// Ancestry answered the pre-topology way: the scheme's label
    /// algebra when the scheme supports it, otherwise the table's
    /// parent-reference chain — the supplementary information §2.4 says
    /// the encoding must carry when the labelling scheme does not.
    ///
    /// Kept as the explicit reference path: the framework checkers
    /// measure *scheme* capability (Figure 7's XPath column) and the
    /// differential property suite pins this equal to
    /// [`is_ancestor`](Self::is_ancestor) for every scheme.
    pub fn is_ancestor_via_labels(&self, a: usize, b: usize) -> bool {
        if let Some(ans) = self.scheme.relation(
            Relation::AncestorDescendant,
            &self.rows[a].label,
            &self.rows[b].label,
        ) {
            return ans;
        }
        let mut cur = self.rows[b].parent;
        while let Some(p) = cur {
            if p == a {
                return true;
            }
            cur = self.rows[p].parent;
        }
        false
    }

    /// Parent of a row.
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.rows[i].parent
    }

    /// Children of a row, in document order — a CSR slice, no
    /// allocation.
    pub fn children(&self, i: usize) -> &[usize] {
        self.topo.children(i)
    }

    /// Children computed by the reference full-table scan (what
    /// [`children`](Self::children) did before the topology index) —
    /// kept for differential tests and the scan-vs-index benchmarks.
    pub fn children_via_scan(&self, i: usize) -> Vec<usize> {
        (0..self.rows.len())
            .filter(|&j| self.rows[j].parent == Some(i))
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

    /// Descendants computed by the reference label-algebra scan.
    pub fn descendants_via_labels(&self, i: usize) -> Vec<usize> {
        (0..self.rows.len())
            .filter(|&j| j != i && self.is_ancestor_via_labels(i, j))
            .collect()
    }

    /// Strict ancestors of a row, root first.
    pub fn ancestors(&self, i: usize) -> Vec<usize> {
        let mut up = Vec::new();
        let mut cur = self.rows[i].parent;
        while let Some(p) = cur {
            up.push(p);
            cur = self.rows[p].parent;
        }
        up.reverse();
        up
    }

    /// XPath `following` axis: after `i` in document order, excluding
    /// descendants — exactly the row suffix past `i`'s extent.
    pub fn following(&self, i: usize) -> Vec<usize> {
        (self.topo.extent(i)..self.rows.len()).collect()
    }

    /// `following` computed by the reference label-algebra scan.
    pub fn following_via_labels(&self, i: usize) -> Vec<usize> {
        (i + 1..self.rows.len())
            .filter(|&j| !self.is_ancestor_via_labels(i, j))
            .collect()
    }

    /// XPath `preceding` axis: before `i` in document order, excluding
    /// ancestors — an O(1) extent test per candidate.
    pub fn preceding(&self, i: usize) -> Vec<usize> {
        (0..i).filter(|&j| self.topo.extent(j) <= i).collect()
    }

    /// `preceding` computed by the reference label-algebra scan.
    pub fn preceding_via_labels(&self, i: usize) -> Vec<usize> {
        (0..i)
            .filter(|&j| !self.is_ancestor_via_labels(j, i))
            .collect()
    }

    /// Following siblings of `i`, in document order: the tail of the
    /// parent's CSR slice.
    pub fn following_siblings(&self, i: usize) -> &[usize] {
        match (self.rows[i].parent, self.topo.child_position(i)) {
            (Some(p), Some(pos)) => {
                let sibs = self.topo.children(p);
                &sibs[pos + 1..]
            }
            _ => &[],
        }
    }

    /// Preceding siblings of `i`, in document order: the head of the
    /// parent's CSR slice.
    pub fn preceding_siblings(&self, i: usize) -> &[usize] {
        match (self.rows[i].parent, self.topo.child_position(i)) {
            (Some(p), Some(pos)) => {
                let sibs = self.topo.children(p);
                &sibs[..pos]
            }
            _ => &[],
        }
    }

    /// Attribute children of `i`.
    pub fn attributes(&self, i: usize) -> Vec<usize> {
        self.topo
            .children(i)
            .iter()
            .copied()
            .filter(|&j| self.rows[j].kind.is_attribute())
            .collect()
    }

    /// The XPath string value of a row: concatenated descendant text for
    /// elements, own value for attributes/text/comments/PIs. Walks the
    /// extent range directly — no descendant set is materialized.
    pub fn string_value(&self, i: usize) -> String {
        match &self.rows[i].kind {
            NodeKind::Document | NodeKind::Element { .. } => {
                let mut out = String::new();
                for j in self.topo.descendant_range(i) {
                    if let NodeKind::Text { value } = &self.rows[j].kind {
                        out.push_str(value);
                    }
                }
                out
            }
            other => other.value().unwrap_or("").to_string(),
        }
    }

    /// The value of attribute `name` on element row `i` — a borrow into
    /// the table, probing the CSR children directly (no intermediate
    /// `Vec`, no cloned `String`).
    pub fn attribute_value(&self, i: usize, name: &str) -> Option<&str> {
        self.topo
            .children(i)
            .iter()
            .find_map(|&j| match &self.rows[j].kind {
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

    /// Bring the table up to date with `tree` after edits that changed
    /// only the text of the nodes in `written`: each one's row takes
    /// its value from the tree (a node the tree no longer holds is
    /// skipped), and the table records `tree`'s revision. A text write
    /// changes no label, no topology and no name bucket, so no rebuild
    /// is needed. With `written` empty it only records the revision,
    /// for edits that cancelled out. Errors when a live node in
    /// `written` has no row or is not a text node.
    pub fn patch_text(&mut self, tree: &XmlTree, written: &[NodeId]) -> Result<(), TreeError> {
        for &id in written.iter().filter(|&&id| tree.is_alive(id)) {
            let row = self
                .row_of_source(id)
                .ok_or(TreeError::DanglingNodeId(id))?;
            match (&mut self.rows[row].kind, tree.kind(id)) {
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

    /// The [`XmlTree::revision`] of the tree state this table encodes:
    /// set by [`encode`](Self::encode), [`splice`](Self::splice) and
    /// [`patch_text`](Self::patch_text).
    pub fn revision(&self) -> u32 {
        self.revision
    }

    /// Total label storage in bits — the per-scheme cost Figure 7's
    /// *Compact Enc.* column talks about, observable per document here.
    pub fn total_label_bits(&self) -> u64 {
        use xupd_labelcore::Label;
        self.rows.iter().map(|r| r.label.size_bits()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_schemes::containment::accel::XPathAccelerator;
    use xupd_schemes::containment::sector::Sector;
    use xupd_schemes::prefix::dewey::DeweyId;
    use xupd_xmldom::sample::figure1_document;

    #[test]
    fn rows_are_in_document_order() {
        let tree = figure1_document();
        let enc = EncodedDocument::encode(DeweyId::new(), &tree).unwrap();
        assert_eq!(enc.len(), tree.len());
        for i in 1..enc.len() {
            assert_eq!(enc.cmp_doc(i - 1, i), Ordering::Less);
        }
    }

    #[test]
    fn axes_match_tree_ground_truth() {
        let tree = figure1_document();
        let enc = EncodedDocument::encode(DeweyId::new(), &tree).unwrap();
        let order = tree.ids_in_doc_order();
        for (i, &id) in order.iter().enumerate() {
            // children
            let kid_names: Vec<_> = enc
                .children(i)
                .iter()
                .map(|&j| enc.row(j).kind.name().unwrap_or("").to_string())
                .collect();
            let tree_kids: Vec<_> = tree
                .children(id)
                .map(|c| tree.kind(c).name().unwrap_or("").to_string())
                .collect();
            assert_eq!(kid_names, tree_kids);
            // descendant count and depth
            assert_eq!(enc.descendants(i).len(), tree.subtree_size(id) - 1);
            assert_eq!(enc.depth(i), tree.depth(id));
            // following/preceding partition
            let f = enc.following(i).len();
            let p = enc.preceding(i).len();
            let anc = enc.ancestors(i).len();
            let desc = enc.descendants(i).len();
            assert_eq!(f + p + anc + desc + 1, enc.len());
        }
    }

    #[test]
    fn topology_axes_agree_with_label_path_for_sector() {
        // Sector answers ancestry from labels; the topology must give
        // byte-identical axes to the label-algebra reference path.
        let tree = figure1_document();
        let enc = EncodedDocument::encode(Sector::new(), &tree).unwrap();
        for i in 0..enc.len() {
            assert_eq!(enc.descendants(i), enc.descendants_via_labels(i));
            assert_eq!(enc.children(i), enc.children_via_scan(i).as_slice());
            assert_eq!(enc.following(i), enc.following_via_labels(i));
            assert_eq!(enc.preceding(i), enc.preceding_via_labels(i));
            for j in 0..enc.len() {
                assert_eq!(enc.is_ancestor(i, j), enc.is_ancestor_via_labels(i, j));
            }
        }
    }

    #[test]
    fn sibling_axes_are_csr_slices() {
        let tree = figure1_document();
        let enc = EncodedDocument::encode(DeweyId::new(), &tree).unwrap();
        for i in 0..enc.len() {
            let fs = enc.following_siblings(i);
            let ps = enc.preceding_siblings(i);
            match enc.parent(i) {
                None => {
                    assert!(fs.is_empty());
                    assert!(ps.is_empty());
                }
                Some(p) => {
                    let mut all = ps.to_vec();
                    all.push(i);
                    all.extend_from_slice(fs);
                    assert_eq!(all, enc.children(p));
                }
            }
        }
    }

    #[test]
    fn string_values_and_attributes() {
        let tree = figure1_document();
        let enc = EncodedDocument::encode(XPathAccelerator::new(), &tree).unwrap();
        // find the title element row
        let title = (0..enc.len())
            .find(|&i| enc.row(i).kind.name() == Some("title"))
            .unwrap();
        assert_eq!(enc.string_value(title), "Wayfarer");
        assert_eq!(enc.attribute_value(title, "genre"), Some("Fantasy"));
        assert_eq!(enc.attribute_value(title, "nope"), None);
        // whole-document string value concatenates all text
        let all = enc.string_value(enc.root());
        assert!(all.contains("Wayfarer") && all.contains("USA"));
    }

    #[test]
    fn source_ids_round_trip_and_text_patch() {
        let tree = figure1_document();
        let mut enc = EncodedDocument::encode(DeweyId::new(), &tree).unwrap();
        let order = tree.ids_in_doc_order();
        for (i, &id) in order.iter().enumerate() {
            assert_eq!(enc.source_id(i), id);
            assert_eq!(enc.row_of_source(id), Some(i));
        }
        let out_of_range = NodeId::from_index(tree.id_bound() + 5);
        assert_eq!(enc.row_of_source(out_of_range), None);

        let title_text = (0..enc.len())
            .find(|&i| enc.row(i).kind.value() == Some("Wayfarer") && enc.row(i).kind.is_text())
            .unwrap();
        let mut edited = tree.clone();
        let text_id = enc.source_id(title_text);
        *edited.kind_mut(text_id) = NodeKind::Text {
            value: "Sojourner".to_string(),
        };
        assert_ne!(enc.revision(), edited.revision());
        enc.patch_text(&edited, &[text_id]).unwrap();
        assert_eq!(enc.revision(), edited.revision());
        assert_eq!(enc.row(title_text).kind.value(), Some("Sojourner"));
        let title = enc.parent(title_text).unwrap();
        assert_eq!(enc.string_value(title), "Sojourner");
        let title_id = enc.source_id(title);
        assert!(enc.patch_text(&edited, &[title_id]).is_err(), "element row");
    }

    #[test]
    fn label_bits_accounting() {
        let tree = figure1_document();
        let enc = EncodedDocument::encode(XPathAccelerator::new(), &tree).unwrap();
        assert_eq!(enc.total_label_bits(), enc.len() as u64 * 160);
    }
}
