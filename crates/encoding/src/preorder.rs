//! The preorder index: the scheme-independent structure of Definition
//! 2's encoding. Row `i` is the `i`-th node in document order, and the
//! index holds, per row, the [`NodeId`] it encodes, its parent row and
//! its pre-order subtree extent, beside the [`NameIndex`]: Figure 2's
//! pre/post/parent table, with the extent in place of the post rank. It
//! holds no node content and no label. Content (node type, name, value)
//! stays in the tree's node table and is read by source id, as
//! `tree.kind(index.source_id(row))`, so every reader that needs it
//! takes the [`XmlTree`] the index describes. The labels are the
//! scheme's: a [`DynScheme`] session holds them by node id, and the
//! `*_via_labels` methods read them through each row's
//! [`source_id`](PreorderIndex::source_id). The XPath evaluator, the
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
//! Every structural axis has one implementation here, on the parent and
//! extent columns. The strict descendants of row `i` are exactly rows
//! `i+1..extent(i)`, so ancestry is the O(1) interval test
//! `a < b < extent(a)` (the interval containment the ancestry-labeling
//! literature formalizes, cf. Fraigniaud & Korman), `descendant` is a
//! range, `following` the suffix past the extent, `preceding` an O(1)
//! test per candidate row and `ancestor` the parent chain. Row `i`'s
//! first child is row `i + 1` and each child's extent is its next
//! sibling's row, so the `child` and sibling axes step from child to
//! child in time proportional to the children they visit, with no child
//! list stored. [`PreorderIndex::children_via_scan`] and the
//! label-algebra axes ([`PreorderIndex::is_ancestor_via_labels`] and the
//! other `*_via_labels` methods) keep the full-table scans as the
//! reference the differential suites and the scan-vs-index benchmarks
//! compare against: whether a labelling scheme can answer ancestry from
//! its labels alone stays a property of the scheme (Figure 7's *XPath
//! Evaluations* column).

use crate::index::NameIndex;
use std::ops::Range;
use xupd_labelcore::{DynScheme, Relation};
use xupd_xmldom::{NodeId, NodeKind, TreeError, XmlTree};

/// Is row `i` inside one of the half-open `(start, end)` intervals?
/// The intervals must be sorted by start and disjoint. One binary
/// search — shared by the scoped evaluator and the query cache.
pub fn row_in_extents(extents: &[(usize, usize)], i: usize) -> bool {
    let k = extents.partition_point(|&(start, _)| start <= i);
    k > 0 && i < extents[k - 1].1
}

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

/// The entry for no row: `row_of`'s for a node id no row encodes, and
/// the parent column's for the root row.
const NO_ROW: u32 = u32::MAX;

/// Row `i` as a `u32` column entry; a table that needs `u32::MAX` rows
/// or more is refused, since `NO_ROW` is that sentinel.
fn row32(i: usize) -> Result<u32, TreeError> {
    u32::try_from(i)
        .ok()
        .filter(|&r| r < NO_ROW)
        .ok_or_else(|| TreeError::Invariant(format!("{i} rows do not fit a u32 column")))
}

/// A document's preorder index: source ids, parents and extents in
/// document order, and the name buckets, with no content and no label
/// column. Every per-node column holds 4-byte entries: [`NodeId`]s are
/// `u32` indices, so rows fit in `u32` too, and encode and splice refuse
/// a tree whose id bound does not. The root's parent entry is a
/// sentinel, so an absent parent costs no tag.
/// Its [`revision`](Self::revision) names the tree state it describes,
/// and every consumer rejects an index made for another state.
#[derive(Debug, Clone)]
pub struct PreorderIndex {
    /// Source tree node id per row, in document order.
    source_ids: Vec<NodeId>,
    /// Parent row per row; `NO_ROW` for the root.
    parent: Vec<u32>,
    /// `extent[i]` is one past the last row of `i`'s subtree: the
    /// strict descendants of `i` are exactly rows `i+1..extent[i]`.
    extent: Vec<u32>,
    names: NameIndex,
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
    /// rest. Errors on a malformed tree, whose links that pass refuses,
    /// and on a tree whose id bound does not fit the `u32` columns.
    pub fn encode(tree: &XmlTree) -> Result<Self, TreeError> {
        row32(tree.id_bound())?;
        let mut index = PreorderIndex {
            source_ids: tree.ids_in_doc_order(),
            parent: Vec::new(),
            extent: Vec::new(),
            names: NameIndex::default(),
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
    /// index was last built for. The splice walks the post-batch tree
    /// only through the ancestors-or-self of every changed child list,
    /// emitting each untouched subtree as one block of old rows and each
    /// created or moved subtree as fresh rows read from the tree. That
    /// walk is not O(batch): it visits every child of every open node,
    /// so an edit under a node with many children (XMark's `people` or
    /// `open_auctions`) visits all of them, where a walk that jumped
    /// over runs of untouched siblings would not. The rest is O(n)
    /// shifting: each kept run's source ids move to their new positions
    /// in one copy, then the pass shared with [`encode`](Self::encode)
    /// checks the rows against the tree and rewrites `row_of`, the
    /// parent and extent columns and the [`NameIndex`] into the buffers
    /// they already hold. The result equals [`encode`](Self::encode) of
    /// `tree` row for row, and [`splice_runs`](Self::splice_runs) then
    /// tells which old row each new row was.
    ///
    /// Text the batch wrote needs nothing here: content is read from
    /// the tree. Errors when the edits do not account for `tree` (a
    /// deleted, moved or created node left out, so that the rows would
    /// not be its document order) or its id bound no longer fits the
    /// `u32` columns; the index is consumed, so encode afresh then.
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
    /// [`splice`](Self::splice), once `source_ids` lists what should be
    /// `tree`'s nodes in document order. One pass in that order checks
    /// each row against the tree and writes its columns: the node's
    /// `row_of` entry, the row's parent and the extents of the rows it
    /// ends. The rows open before row `i` are row `i − 1` and its
    /// ancestors. `i`'s parent must be one of them, every open row below
    /// the parent ends at `i`, and the last row ended there must be
    /// `i`'s previous sibling in the tree, or none when `i` is a first
    /// child, so a node out of its document order is refused. Rows
    /// still open after the last row end at the table's length. Then
    /// the [`NameIndex`] is rebuilt into the buffers it already holds,
    /// and the index records `tree`'s revision.
    fn index_rows(&mut self, tree: &XmlTree) -> Result<(), TreeError> {
        let bad = |what: &str| TreeError::Invariant(format!("preorder index: {what}"));
        let n = row32(self.source_ids.len())?;
        self.row_of.resize(tree.id_bound(), NO_ROW);
        self.parent.clear();
        self.extent.clear();
        for row in 0..n {
            let id = self.source_ids[row as usize];
            if !tree.is_alive(id) {
                return Err(bad("a row's node is gone"));
            }
            let parent = match tree.parent(id) {
                None if row == 0 => NO_ROW,
                None => return Err(bad("a non-root row has no parent")),
                Some(p) => {
                    let pr = self.row_of[p.index()];
                    if pr >= row || self.source_ids[pr as usize] != p {
                        return Err(bad("a row precedes its parent"));
                    }
                    // End the open rows below the parent, deepest first.
                    let (mut open, mut ended) = (row - 1, None);
                    while open > pr {
                        self.extent[open as usize] = row;
                        ended = Some(open);
                        open = self.parent[open as usize];
                    }
                    let prev = ended.map(|r| self.source_ids[r as usize]);
                    if open != pr || prev != tree.prev_sibling(id) {
                        return Err(bad("a row is out of document order"));
                    }
                    pr
                }
            };
            self.row_of[id.index()] = row;
            self.parent.push(parent);
            // The row ends at `n` unless a later row ends it.
            self.extent.push(n);
        }
        self.names.rebuild(tree, &self.source_ids);
        self.revision = tree.revision();
        Ok(())
    }

    /// Forget which rows encode the nodes of `rows`.
    fn retire(&mut self, rows: Range<usize>) {
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
            if let Some(p) = self.parent(row).map(|p| self.source_ids[p]) {
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
            let len = if is_open { 1 } else { self.extent(row) - row };
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

    /// The element/attribute name index.
    pub fn name_index(&self) -> &NameIndex {
        &self.names
    }

    /// Index of the document root row (always 0 — first in document
    /// order).
    pub fn root(&self) -> usize {
        0
    }

    /// Parent row of `i`.
    pub fn parent(&self, i: usize) -> Option<usize> {
        match self.parent[i] {
            NO_ROW => None,
            p => Some(p as usize),
        }
    }

    /// One past the last row of `i`'s subtree.
    pub fn extent(&self, i: usize) -> usize {
        self.extent[i] as usize
    }

    /// The strict descendants of `i`, in document order: a contiguous
    /// row range.
    pub fn descendant_range(&self, i: usize) -> Range<usize> {
        i + 1..self.extent(i)
    }

    /// Is row `a` a strict ancestor of row `b`? O(1) interval
    /// containment on the pre-order extents.
    pub fn is_ancestor(&self, a: usize, b: usize) -> bool {
        a < b && b < self.extent(a)
    }

    /// Does the subtree rooted at `i` (self included) overlap any of the
    /// half-open row intervals in `extents`? The intervals must be
    /// sorted and disjoint — the form the incremental query cache's
    /// impact analysis produces. One binary search: find the first
    /// interval ending after `i`, and check it starts before the
    /// subtree ends.
    pub(crate) fn subtree_intersects(&self, i: usize, extents: &[(usize, usize)]) -> bool {
        let hi = self.extent(i);
        let k = extents.partition_point(|&(_, end)| end <= i);
        k < extents.len() && extents[k].0 < hi
    }

    /// XPath `ancestor` axis: the strict ancestors of `i`, nearest
    /// first, up the parent chain.
    pub fn ancestors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.parent(i), move |&p| self.parent(p))
    }

    /// XPath `following` axis: after `i` in document order, excluding
    /// descendants — exactly the row suffix past `i`'s extent.
    pub fn following(&self, i: usize) -> Range<usize> {
        self.extent(i)..self.len()
    }

    /// XPath `preceding` axis, in document order: before `i`, excluding
    /// ancestors — an O(1) extent test per candidate.
    pub fn preceding(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        (0..i).filter(move |&j| self.extent(j) <= i)
    }

    /// Children of `i` in document order: from row `i + 1`, each step
    /// jumps over one child's subtree to the next, until `i`'s extent.
    pub fn children(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.siblings_from(i + 1, self.extent(i))
    }

    /// Following siblings of `i`, in document order: the parent's
    /// children from `i`'s extent on.
    pub fn following_siblings(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let end = self.parent(i).map_or(0, |p| self.extent(p));
        self.siblings_from(self.extent(i), end)
    }

    /// Preceding siblings of `i`, in document order: the parent's
    /// children before `i`.
    pub fn preceding_siblings(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let start = self.parent(i).map_or(i, |p| p + 1);
        self.siblings_from(start, i)
    }

    /// The rows `first`, `extent(first)`, … that lie before `end`: the
    /// children of one parent, when `first` is one of them (or `end`)
    /// and `end` is a sibling's row or the parent's extent. The bound is
    /// checked before a row's extent is read, so the walk never reads
    /// past the last row.
    fn siblings_from(&self, first: usize, end: usize) -> impl Iterator<Item = usize> + '_ {
        let mut next = first;
        std::iter::from_fn(move || {
            let row = next;
            (row < end).then(|| {
                next = self.extent(row);
                row
            })
        })
    }

    /// Children computed by the reference full-table scan of the parent
    /// column — the reference [`children`](Self::children) is checked
    /// against in the differential tests and the scan-vs-index
    /// benchmarks.
    pub fn children_via_scan(&self, i: usize) -> Vec<usize> {
        (0..self.len())
            .filter(|&j| self.parent(j) == Some(i))
            .collect()
    }

    /// Ancestry answered without the extents: `labels`' label algebra
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
        Ok(self.ancestors(b).any(|p| p == a))
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

    /// The XPath string value of row `i`, with content read from `tree`,
    /// the tree this index describes: concatenated descendant text for
    /// elements, own value for attributes/text/comments/PIs. Walks the
    /// extent range's source ids directly — no descendant set is
    /// materialized.
    pub fn string_value(&self, tree: &XmlTree, i: usize) -> String {
        match tree.kind(self.source_ids[i]) {
            NodeKind::Document | NodeKind::Element { .. } => {
                let mut out = String::new();
                for &id in &self.source_ids[self.descendant_range(i)] {
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
    /// probing the children as [`children`](Self::children) steps
    /// through them (no intermediate `Vec`, no cloned `String`).
    pub fn attribute_value<'t>(&self, tree: &'t XmlTree, i: usize, name: &str) -> Option<&'t str> {
        self.children(i)
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
    rows: Range<usize>,
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
    use xupd_xmldom::TreeBuilder;

    /// A small hand-checked shape, rows in document order:
    ///
    /// ```text
    /// 0 #document
    /// ├── 1 <a>
    /// │   ├── 2 <b>
    /// │   └── 3 <c>
    /// └── 4 <!--d-->
    /// ```
    fn sample() -> (XmlTree, PreorderIndex) {
        let tree = TreeBuilder::new()
            .open("a")
            .open("b")
            .close()
            .open("c")
            .close()
            .close()
            .comment("d")
            .finish();
        let index = PreorderIndex::encode(&tree).unwrap();
        (tree, index)
    }

    /// Every row's rows on one axis, collected.
    fn per_row<I: Iterator<Item = usize>>(
        index: &PreorderIndex,
        axis: impl Fn(usize) -> I,
    ) -> Vec<Vec<usize>> {
        (0..index.len()).map(|i| axis(i).collect()).collect()
    }

    #[test]
    fn hand_checked_shape() {
        let (_, t) = sample();
        assert_eq!(t.len(), 5);
        assert_eq!(
            (0..5).map(|i| t.extent(i)).collect::<Vec<_>>(),
            [5, 4, 3, 4, 5]
        );
        assert_eq!(
            per_row(&t, |i| t.children(i)),
            [vec![1, 4], vec![2, 3], vec![], vec![], vec![]]
        );
        // A row's position among its parent's children is the count of
        // its preceding siblings; the following ones make up the rest.
        let position = |i: usize| t.preceding_siblings(i).count();
        assert_eq!((0..5).map(position).collect::<Vec<_>>(), [0, 0, 0, 1, 1]);
        assert_eq!(
            per_row(&t, |i| t.preceding_siblings(i)),
            [vec![], vec![], vec![], vec![2], vec![1]]
        );
        assert_eq!(
            per_row(&t, |i| t.following_siblings(i)),
            [vec![], vec![4], vec![3], vec![], vec![]]
        );

        assert!(t.is_ancestor(0, 3));
        assert!(t.is_ancestor(1, 2));
        assert!(!t.is_ancestor(1, 4));
        assert!(!t.is_ancestor(2, 3), "siblings");
        assert!(!t.is_ancestor(3, 1), "descendant is not ancestor");
        assert!(!t.is_ancestor(2, 2), "strict");
        assert_eq!(t.ancestors(3).collect::<Vec<_>>(), [1, 0], "nearest first");

        assert_eq!(t.descendant_range(0), 1..5);
        assert_eq!(t.descendant_range(1), 2..4);
        assert_eq!(t.descendant_range(2), 3..3);
        assert_eq!(t.following(2), 3..5);
        assert_eq!(t.following(1), 4..5);
        assert_eq!(t.preceding(4).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(t.preceding(3).collect::<Vec<_>>(), [2]);
    }

    #[test]
    fn a_document_of_only_its_root() {
        let t = PreorderIndex::encode(&XmlTree::new()).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.extent(0), 1);
        assert_eq!(t.parent(0), None);
        assert_eq!(t.children(0).count(), 0);
        assert_eq!(t.following_siblings(0).count(), 0);
        assert_eq!(t.preceding_siblings(0).count(), 0);
        assert_eq!(t.ancestors(0).count(), 0);
        assert!(t.following(0).is_empty());
        assert_eq!(t.preceding(0).count(), 0);
    }

    #[test]
    fn interval_helpers() {
        let (_, t) = sample();
        let ex = [(1usize, 3usize), (4, 5)];
        assert!(row_in_extents(&ex, 1));
        assert!(row_in_extents(&ex, 2));
        assert!(!row_in_extents(&ex, 3));
        assert!(row_in_extents(&ex, 4));
        assert!(!row_in_extents(&ex, 0));
        assert!(!row_in_extents(&[], 0));
        // subtree of 1 covers rows [1, 4)
        assert!(t.subtree_intersects(1, &[(0, 2)]));
        assert!(t.subtree_intersects(1, &[(3, 4)]));
        assert!(!t.subtree_intersects(1, &[(4, 5)]));
        assert!(t.subtree_intersects(0, &[(4, 5)]));
        assert!(
            !t.subtree_intersects(2, &[(0, 2), (4, 5)]),
            "subtree of 2 is [2, 3)"
        );
        assert!(t.subtree_intersects(2, &[(0, 3)]));
        assert!(!t.subtree_intersects(4, &[]));
    }

    #[test]
    fn every_column_holds_four_byte_rows() {
        let (_, t) = sample();
        assert_eq!(std::mem::size_of_val(&t.parent[0]), 4);
        assert_eq!(std::mem::size_of_val(&t.extent[0]), 4);
        assert_eq!(std::mem::size_of_val(&t.row_of[0]), 4);
        assert_eq!(t.parent(0), None, "the root's sentinel reads as no parent");
        assert_eq!(row32(u32::MAX as usize - 1), Ok(u32::MAX - 1));
        assert!(row32(u32::MAX as usize).is_err(), "the sentinel is no row");
        assert!(row32(1 << 32).is_err(), "no row wraps");
    }

    /// The element named `name`, found by a scan.
    fn named(tree: &XmlTree, name: &str) -> NodeId {
        tree.preorder()
            .find(|&id| tree.kind(id).name() == Some(name))
            .unwrap()
    }

    /// Equal rows, parents and extents.
    fn same_rows(a: &PreorderIndex, b: &PreorderIndex) -> bool {
        a.len() == b.len()
            && (0..a.len()).all(|i| {
                (a.source_id(i), a.parent(i), a.extent(i))
                    == (b.source_id(i), b.parent(i), b.extent(i))
            })
    }

    #[test]
    fn splice_refuses_an_unreported_move_to_another_parent() {
        let mut tree = xupd_xmldom::parse("<r><p2><x/></p2><p1><a/></p1></r>").unwrap();
        let index = PreorderIndex::encode(&tree).unwrap();
        let a = named(&tree, "a");
        let a_row = index.row_of_source(a).unwrap();
        tree.detach(a).unwrap();
        tree.append_child(named(&tree, "p2"), a).unwrap();
        assert!(
            index.clone().splice(&tree, &[]).is_err(),
            "the move left out would make p2's extent cover p1"
        );
        let spliced = index.splice(&tree, &[a_row]).unwrap();
        assert!(same_rows(&spliced, &PreorderIndex::encode(&tree).unwrap()));
    }

    #[test]
    fn splice_refuses_an_unreported_reorder_of_siblings() {
        let mut tree = xupd_xmldom::parse("<r><a/><b/></r>").unwrap();
        let index = PreorderIndex::encode(&tree).unwrap();
        let (a, b) = (named(&tree, "a"), named(&tree, "b"));
        let b_row = index.row_of_source(b).unwrap();
        tree.detach(b).unwrap();
        tree.insert_before(a, b).unwrap();
        assert!(
            index.clone().splice(&tree, &[]).is_err(),
            "the rows would keep a before b"
        );
        let spliced = index.splice(&tree, &[b_row]).unwrap();
        assert!(same_rows(&spliced, &PreorderIndex::encode(&tree).unwrap()));
    }

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
        // Sector answers ancestry from labels; the index must give
        // identical axes to the label-algebra reference path.
        let tree = figure1_document();
        let index = PreorderIndex::encode(&tree).unwrap();
        let mut labels = SchemeSession::new(Sector::new());
        labels.label_tree(&tree).unwrap();
        for i in 0..index.len() {
            let descendants = index.descendants_via_labels(&labels, i).unwrap();
            assert_eq!(index.descendant_range(i).collect::<Vec<_>>(), descendants);
            let following = index.following_via_labels(&labels, i).unwrap();
            assert_eq!(index.following(i).collect::<Vec<_>>(), following);
            let preceding = index.preceding_via_labels(&labels, i).unwrap();
            assert_eq!(index.preceding(i).collect::<Vec<_>>(), preceding);
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
            let kid_names: Vec<_> = index
                .children(i)
                .map(|j| tree.kind(index.source_id(j)).name().unwrap_or(""))
                .collect();
            let tree_kids: Vec<_> = tree
                .children(id)
                .map(|c| tree.kind(c).name().unwrap_or(""))
                .collect();
            assert_eq!(kid_names, tree_kids);
            let kids: Vec<usize> = index.children(i).collect();
            assert_eq!(kids, index.children_via_scan(i));
            // descendant count, and depth as the ancestor chain
            let desc = index.descendant_range(i).len();
            let anc = index.ancestors(i).count();
            assert_eq!(desc, tree.subtree_size(id) - 1);
            assert_eq!(anc, tree.depth(id) as usize);
            // following/preceding partition
            let f = index.following(i).len();
            let p = index.preceding(i).count();
            assert_eq!(f + p + anc + desc + 1, index.len());
        }
    }

    #[test]
    fn sibling_axes_split_the_parents_children() {
        let tree = figure1_document();
        let index = PreorderIndex::encode(&tree).unwrap();
        for i in 0..index.len() {
            let fs: Vec<usize> = index.following_siblings(i).collect();
            let ps: Vec<usize> = index.preceding_siblings(i).collect();
            match index.parent(i) {
                None => {
                    assert!(fs.is_empty());
                    assert!(ps.is_empty());
                }
                Some(p) => {
                    let mut all = ps;
                    all.push(i);
                    all.extend(fs);
                    assert_eq!(all, index.children(p).collect::<Vec<_>>());
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
