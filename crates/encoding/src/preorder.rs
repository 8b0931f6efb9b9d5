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
//! result rows through. Encode and splice are one walk over the tree in
//! document order: it writes every column and the name buckets, and
//! reads the run list off each node's previous `row_of` entry, which a
//! splice first clears for the subtrees the batch cut. A batch that only
//! writes text moves no row, so the index only records the new revision
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
    /// The last walk's runs: the last splice's, or after an encode one
    /// fresh range over every row.
    runs: RunList,
}

impl PreorderIndex {
    /// Index `tree` in document order: the walk that ends every
    /// [`splice`](Self::splice), run on an empty index, so that every
    /// node is read fresh. Errors on a tree whose id bound does not fit
    /// the `u32` columns.
    pub fn encode(tree: &XmlTree) -> Result<Self, TreeError> {
        // Each column starts at the capacity row-by-row growth would
        // reach: later splices grow into that slack, and the walk
        // regrows no column while the name buckets grow beside it.
        let rows = tree.len().next_power_of_two();
        let mut index = PreorderIndex {
            source_ids: Vec::with_capacity(rows),
            parent: Vec::with_capacity(rows),
            extent: Vec::with_capacity(rows),
            names: NameIndex::default(),
            row_of: Vec::new(),
            revision: tree.revision(),
            runs: RunList::default(),
        };
        index.walk(tree, 0)?;
        Ok(index)
    }

    /// Bring the index up to date with `tree` after a batch of
    /// structural edits, in place instead of re-encoding it.
    ///
    /// `cut` holds the pre-batch rows of every subtree root the batch
    /// deleted or moved; cut subtrees may nest. Created nodes need no
    /// list: node ids are never reused, so a node with no row is new to
    /// the index. The splice forgets the rows of every cut subtree, then
    /// runs the walk [`encode`](Self::encode) runs, which reads each
    /// node's previous row off `row_of` as it writes the new one: a node
    /// that still has a row is kept, and one without is read fresh. So
    /// the result equals [`encode`](Self::encode) of `tree` row for row,
    /// and [`splice_runs`](Self::splice_runs) then tells which old row
    /// each new row was. The walk visits every node and writes every
    /// column into the buffer it already holds: O(n) with no per-row
    /// allocation.
    ///
    /// Text the batch wrote needs nothing here: content is read from
    /// the tree. Errors when the edits do not account for `tree` (a
    /// deleted or moved node left out of `cut`, so that the kept rows
    /// would not be in their old order, a kept node would sit under a
    /// fresh one, or a kept node would be gone), when a cut row lies
    /// outside the index, or when `tree`'s id bound no longer fits the
    /// `u32` columns; the index is consumed, so encode afresh then.
    pub fn splice(mut self, tree: &XmlTree, cut: &[usize]) -> Result<Self, TreeError> {
        let mut forgotten = 0;
        for &root in cut {
            let Some(&end) = self.extent.get(root) else {
                return Err(TreeError::Invariant(
                    "splice: cut row out of range".to_string(),
                ));
            };
            for &id in &self.source_ids[root..end as usize] {
                let row = &mut self.row_of[id.index()];
                if *row != NO_ROW {
                    *row = NO_ROW;
                    forgotten += 1;
                }
            }
        }
        let kept = self.len() - forgotten;
        self.walk(tree, kept)?;
        Ok(self)
    }

    /// The one pass that builds the index, for both
    /// [`encode`](Self::encode) and [`splice`](Self::splice): `tree`'s
    /// nodes in document order become the rows. Per node it writes the
    /// row's source id, the node's `row_of` entry, the row's parent and
    /// name-bucket entry, and the extents of the rows it ends (the rows
    /// open before row `i` are row `i − 1` and its ancestors, and every
    /// one below `i`'s parent ends at `i`); rows still open after the
    /// last one end at the table's length. The run list comes from each
    /// node's previous `row_of` entry. A node without one is fresh: it
    /// extends the last fresh range when its parent lies inside that
    /// range, which then ends at `i`, and starts a new range otherwise,
    /// so each range is one created or moved subtree. A node with one is
    /// kept, extending the last kept run when it continues it on both
    /// sides. Errors when the kept rows are not `expect_kept` rows in
    /// their old order, each under a kept parent.
    fn walk(&mut self, tree: &XmlTree, expect_kept: usize) -> Result<(), TreeError> {
        let bad = |what: &str| TreeError::Invariant(format!("splice: {what}"));
        row32(tree.id_bound())?;
        self.row_of.resize(tree.id_bound(), NO_ROW);
        self.source_ids.clear();
        self.parent.clear();
        self.extent.clear();
        self.names.clear();
        let mut runs = std::mem::take(&mut self.runs);
        runs.kept.clear();
        runs.fresh.clear();
        let mut kept = 0;
        let mut len = 0;
        for id in tree.preorder() {
            let i = len;
            let pr = tree.parent(id).map_or(NO_ROW, |p| self.row_of[p.index()]);
            end_rows(&self.parent, &mut self.extent, i, pr);
            let (row, at) = (i as usize, pr as usize);
            // Is the parent in the last fresh range, which ends here?
            let under_fresh = runs
                .fresh
                .last()
                .is_some_and(|&(s, e)| e == row && (s..e).contains(&at));
            match std::mem::replace(&mut self.row_of[id.index()], i) {
                NO_ROW => match runs.fresh.last_mut() {
                    Some((_, e)) if under_fresh => *e += 1,
                    _ => runs.fresh.push((row, row + 1)),
                },
                old => {
                    let old = old as usize;
                    if runs.kept.last().is_some_and(|&(o, _, l)| old < o + l) {
                        return Err(bad("kept rows out of their old order"));
                    }
                    if under_fresh {
                        return Err(bad("a kept node under a fresh one"));
                    }
                    match runs.kept.last_mut() {
                        Some((o, r, l)) if *o + *l == old && *r + *l == row => *l += 1,
                        _ => runs.kept.push((old, row, 1)),
                    }
                    kept += 1;
                }
            }
            self.source_ids.push(id);
            self.parent.push(pr);
            // Open until a later row, or the end of the walk, ends it.
            self.extent.push(NO_ROW);
            self.names.push(i, tree.kind(id));
            len += 1;
        }
        end_rows(&self.parent, &mut self.extent, len, NO_ROW);
        if kept != expect_kept {
            return Err(bad("a kept node left the tree"));
        }
        self.names.drop_empty();
        self.runs = runs;
        self.revision = tree.revision();
        Ok(())
    }

    /// The run list of the last [`splice`](Self::splice): which old row
    /// each new row was, and which new rows were read fresh from the
    /// tree. A caller holding results in the old rows renumbers them
    /// through [`SpliceRuns::kept`] and re-derives what lies in
    /// [`SpliceRuns::fresh`]. After [`encode`](Self::encode) every row
    /// reads as fresh, one range `(0, len)`;
    /// [`follow_text`](Self::follow_text) renumbers nothing and leaves
    /// the list as it was.
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

/// End at row `at` the rows still open below row `above`: row `at − 1`
/// and its ancestors, deepest first, up the parent column. `above` must
/// be one of them, or [`NO_ROW`] to end them all.
fn end_rows(parent: &[u32], extent: &mut [u32], at: u32, above: u32) {
    let Some(mut open) = at.checked_sub(1) else {
        return;
    };
    while open != above {
        extent[open as usize] = at;
        open = parent[open as usize];
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
    fn splice_refuses_an_unreported_move_under_a_created_node() {
        let mut tree = xupd_xmldom::parse("<r><a/><b/></r>").unwrap();
        let index = PreorderIndex::encode(&tree).unwrap();
        let (a, b) = (named(&tree, "a"), named(&tree, "b"));
        let b_row = index.row_of_source(b).unwrap();
        let c = tree.create(NodeKind::Element {
            name: "c".to_string(),
        });
        tree.append_child(a, c).unwrap();
        tree.detach(b).unwrap();
        tree.append_child(c, b).unwrap();
        assert!(
            index.clone().splice(&tree, &[]).is_err(),
            "b would keep its row under a fresh parent"
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
