//! The topology sidecar: constant-time structural navigation over a
//! document-order node table.
//!
//! §2.3 frames the encoding scheme as the place where a repository
//! trades update cost for query speed. The [`Topology`] index is that
//! trade made concrete on the query side: one extra pass at encode time
//! buys
//!
//! * **O(1) ancestry** — rows are in pre-order, so the strict
//!   descendants of row `i` are exactly the contiguous range
//!   `i+1..extent(i)`; `a` is an ancestor of `b` iff `a < b < extent(a)`
//!   (the interval-containment idea the ancestry-labeling literature
//!   formalizes, cf. Fraigniaud & Korman);
//! * **CSR children** — each row's children sit in one contiguous slice
//!   of `child_rows`, so the `child`/sibling axes are slice walks, not
//!   table scans;
//! * **answer-proportional range axes** — `descendant` is a range,
//!   `following` is the suffix `extent(i)..len`, and `preceding` needs
//!   only an O(1) test per candidate row.
//!
//! The index captures *structure only*. Whether a labelling **scheme**
//! can answer ancestry from its labels alone remains a property of the
//! scheme (the Figure 7 *XPath Evaluations* column); the framework
//! checkers keep exercising that raw label algebra via
//! [`EncodedDocument::is_ancestor_via_labels`](crate::table::EncodedDocument::is_ancestor_via_labels),
//! and a differential property suite pins the two paths equivalent.

use xupd_xmldom::{NodeId, TreeError};

/// Is row `i` inside one of the half-open `(start, end)` intervals?
/// The intervals must be sorted by start and disjoint. One binary
/// search — shared by the scoped evaluator and the query cache.
pub fn row_in_extents(extents: &[(usize, usize)], i: usize) -> bool {
    let k = extents.partition_point(|&(start, _)| start <= i);
    k > 0 && i < extents[k - 1].1
}

/// Structural index over a document-order table: parent, depth,
/// pre-order subtree extents and CSR children arrays. Its parent column
/// is the [`PreorderIndex`](crate::PreorderIndex)'s only one.
///
/// Built by [`Topology::from_parents`] in O(n). When the table changes
/// shape (a splice after a structural batch), the splice writes the new
/// parents into the column this index holds and recomputes the rest in
/// place, into the buffers it already holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Topology {
    parent: Vec<Option<usize>>,
    depth: Vec<u32>,
    /// `extent[i]` is one past the last row of `i`'s subtree: strict
    /// descendants of `i` are exactly rows `i+1..extent[i]`.
    extent: Vec<usize>,
    /// CSR offsets into `child_rows`; length `n + 1`.
    child_start: Vec<usize>,
    /// Children of every row, concatenated in document order.
    child_rows: Vec<usize>,
}

impl Topology {
    /// Build the index from per-row parent references, where row indices
    /// are document-order (pre-order) positions.
    ///
    /// Construction is infallible over well-formed tables (the only kind
    /// [`PreorderIndex::encode`](crate::PreorderIndex::encode) produces). A malformed
    /// input — a non-root row without a parent, a parent reference that
    /// is not an earlier row, or a parented root — threads out as a
    /// [`TreeError`] rather than a panic.
    pub fn from_parents(parents: Vec<Option<usize>>) -> Result<Topology, TreeError> {
        let mut topo = Topology {
            parent: parents,
            ..Topology::default()
        };
        topo.rebuild()?;
        Ok(topo)
    }

    /// The parent column, for a caller that rewrites it in place and
    /// then calls [`rebuild`](Self::rebuild).
    pub(crate) fn parents_mut(&mut self) -> &mut Vec<Option<usize>> {
        &mut self.parent
    }

    /// Recompute depth, extents and CSR children from the parent column
    /// the index holds, reusing every buffer: once the table has reached
    /// its size this allocates nothing. On a malformed column the same
    /// [`TreeError`] as [`from_parents`](Self::from_parents) comes back
    /// and the index is left unusable.
    pub(crate) fn rebuild(&mut self) -> Result<(), TreeError> {
        let parent = &self.parent;
        let n = parent.len();
        if parent.first().is_some_and(Option::is_some) {
            return Err(TreeError::Invariant(
                "row 0 (document root) must have no parent".into(),
            ));
        }
        for (i, p) in parent.iter().enumerate().skip(1) {
            match p {
                None => return Err(TreeError::MissingParent(NodeId::from_index(i))),
                Some(p) if *p >= i => {
                    return Err(TreeError::DanglingNodeId(NodeId::from_index(*p)))
                }
                Some(_) => {}
            }
        }

        // depth: parents precede children in document order.
        self.depth.clear();
        self.depth.resize(n, 0);
        for (i, p) in parent.iter().enumerate().skip(1) {
            if let Some(p) = *p {
                self.depth[i] = self.depth[p] + 1;
            }
        }

        // extent: reverse pass — every row's extent is final before its
        // parent is visited, because children have larger indices.
        self.extent.clear();
        self.extent.extend(1..=n);
        for i in (1..n).rev() {
            if let Some(p) = parent[i] {
                if self.extent[i] > self.extent[p] {
                    self.extent[p] = self.extent[i];
                }
            }
        }

        // CSR: count, prefix-sum, then fill in document order using each
        // row's own offset as its cursor — afterwards `child_start[p]`
        // holds where `p + 1`'s slice starts, so one shift puts the
        // offsets back without a second cursor array.
        let starts = &mut self.child_start;
        starts.clear();
        starts.resize(n + 1, 0);
        for p in parent.iter().skip(1).flatten() {
            starts[p + 1] += 1;
        }
        for i in 0..n {
            starts[i + 1] += starts[i];
        }
        self.child_rows.clear();
        self.child_rows.resize(starts[n], 0);
        for (i, p) in parent.iter().enumerate().skip(1) {
            if let Some(p) = p {
                self.child_rows[starts[*p]] = i;
                starts[*p] += 1;
            }
        }
        for i in (1..=n).rev() {
            starts[i] = starts[i - 1];
        }
        starts[0] = 0;
        Ok(())
    }

    /// Number of rows covered.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True when the index covers no rows.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Parent row of `i`.
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.parent[i]
    }

    /// Depth of row `i` (root = 0).
    pub fn depth(&self, i: usize) -> u32 {
        self.depth[i]
    }

    /// One past the last row of `i`'s subtree.
    pub fn extent(&self, i: usize) -> usize {
        self.extent[i]
    }

    /// The strict descendants of `i` as a contiguous row range.
    pub fn descendant_range(&self, i: usize) -> std::ops::Range<usize> {
        i + 1..self.extent[i]
    }

    /// Children of `i` in document order, as a CSR slice.
    pub fn children(&self, i: usize) -> &[usize] {
        &self.child_rows[self.child_start[i]..self.child_start[i + 1]]
    }

    /// O(1) interval-containment ancestry: is `a` a strict ancestor of
    /// `b`?
    pub fn is_ancestor(&self, a: usize, b: usize) -> bool {
        a < b && b < self.extent[a]
    }

    /// Position of `i` among its parent's children (None for the root).
    /// Binary search over the parent's CSR slice — children are sorted
    /// by construction.
    pub fn child_position(&self, i: usize) -> Option<usize> {
        let p = self.parent[i]?;
        let siblings = self.children(p);
        Some(siblings.partition_point(|&c| c < i))
    }

    /// Does the subtree rooted at `i` (self included) overlap any of the
    /// half-open row intervals in `extents`? The intervals must be
    /// sorted and disjoint — the form the incremental query cache's
    /// impact analysis produces. One binary search: find the first
    /// interval ending after `i`, and check it starts before the
    /// subtree ends.
    pub fn subtree_intersects(&self, i: usize, extents: &[(usize, usize)]) -> bool {
        let hi = self.extent[i];
        let k = extents.partition_point(|&(_, end)| end <= i);
        k < extents.len() && extents[k].0 < hi
    }

    /// Raw CSR offsets (`len + 1` entries) — exposed for golden tests.
    pub fn child_start(&self) -> &[usize] {
        &self.child_start
    }

    /// Raw CSR children array — exposed for golden tests.
    pub fn child_rows(&self) -> &[usize] {
        &self.child_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small hand-checked shape:
    ///
    /// ```text
    /// 0
    /// ├── 1
    /// │   ├── 2
    /// │   └── 3
    /// └── 4
    /// ```
    fn sample() -> Topology {
        Topology::from_parents(vec![None, Some(0), Some(1), Some(1), Some(0)]).unwrap()
    }

    #[test]
    fn extents_depths_and_children() {
        let t = sample();
        assert_eq!(t.len(), 5);
        assert_eq!(
            (0..5).map(|i| t.extent(i)).collect::<Vec<_>>(),
            [5, 4, 3, 4, 5]
        );
        assert_eq!(
            (0..5).map(|i| t.depth(i)).collect::<Vec<_>>(),
            [0, 1, 2, 2, 1]
        );
        assert_eq!(t.children(0), [1, 4]);
        assert_eq!(t.children(1), [2, 3]);
        assert_eq!(t.children(2), Vec::<usize>::new().as_slice());
        assert_eq!(t.child_start(), [0, 2, 4, 4, 4, 4]);
        assert_eq!(t.child_rows(), [1, 4, 2, 3]);
    }

    #[test]
    fn interval_ancestry() {
        let t = sample();
        assert!(t.is_ancestor(0, 3));
        assert!(t.is_ancestor(1, 2));
        assert!(!t.is_ancestor(1, 4));
        assert!(!t.is_ancestor(2, 3), "siblings");
        assert!(!t.is_ancestor(3, 1), "descendant is not ancestor");
        assert!(!t.is_ancestor(2, 2), "strict");
    }

    #[test]
    fn child_positions() {
        let t = sample();
        assert_eq!(t.child_position(0), None);
        assert_eq!(t.child_position(1), Some(0));
        assert_eq!(t.child_position(4), Some(1));
        assert_eq!(t.child_position(2), Some(0));
        assert_eq!(t.child_position(3), Some(1));
    }

    #[test]
    fn descendant_ranges() {
        let t = sample();
        assert_eq!(t.descendant_range(0), 1..5);
        assert_eq!(t.descendant_range(1), 2..4);
        assert_eq!(t.descendant_range(2), 3..3);
    }

    #[test]
    fn empty_and_singleton() {
        let t = Topology::from_parents(vec![]).unwrap();
        assert!(t.is_empty());
        assert_eq!(t.child_start(), [0]);
        let t = Topology::from_parents(vec![None]).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.extent(0), 1);
        assert_eq!(t.children(0), Vec::<usize>::new().as_slice());
    }

    #[test]
    fn interval_helpers() {
        let t = sample();
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
    fn rebuild_in_place_matches_a_fresh_build() {
        let shapes: [&[Option<usize>]; 4] = [
            &[None, Some(0), Some(1), Some(1), Some(0)],
            &[None, Some(0), Some(0), Some(2), Some(3), Some(2), Some(0)],
            &[None],
            &[None, Some(0), Some(1)],
        ];
        let mut t = sample();
        for parents in shapes {
            t.parent.clear();
            t.parent.extend_from_slice(parents);
            t.rebuild().unwrap();
            assert_eq!(
                t,
                Topology::from_parents(parents.to_vec()).unwrap(),
                "{parents:?}"
            );
        }
        t.parent = vec![None, Some(1)];
        assert!(t.rebuild().is_err());
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(matches!(
            Topology::from_parents(vec![Some(0)]),
            Err(TreeError::Invariant(_))
        ));
        assert!(matches!(
            Topology::from_parents(vec![None, None]),
            Err(TreeError::MissingParent(_))
        ));
        assert!(matches!(
            Topology::from_parents(vec![None, Some(1)]),
            Err(TreeError::DanglingNodeId(_))
        ));
        assert!(matches!(
            Topology::from_parents(vec![None, Some(2), Some(0)]),
            Err(TreeError::DanglingNodeId(_))
        ));
    }
}
