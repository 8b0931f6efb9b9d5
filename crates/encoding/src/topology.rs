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
//! checkers grade that raw label algebra, the preorder index keeps it
//! as a reference path over a scheme session's labels
//! ([`PreorderIndex::is_ancestor_via_labels`](crate::PreorderIndex::is_ancestor_via_labels)),
//! and a differential property suite pins the two paths equivalent.

use xupd_xmldom::{NodeId, TreeError};

/// Is row `i` inside one of the half-open `(start, end)` intervals?
/// The intervals must be sorted by start and disjoint. One binary
/// search — shared by the scoped evaluator and the query cache.
pub fn row_in_extents(extents: &[(usize, usize)], i: usize) -> bool {
    let k = extents.partition_point(|&(start, _)| start <= i);
    k > 0 && i < extents[k - 1].1
}

/// The parent column's entry for the root row, which has no parent.
const NO_PARENT: u32 = u32::MAX;

/// Structural index over a document-order table: parent, pre-order
/// subtree extents and CSR children arrays. Its parent column
/// is the [`PreorderIndex`](crate::PreorderIndex)'s only one.
///
/// Every column holds `u32` rows, 4 bytes an entry: rows number the
/// nodes of a tree whose [`NodeId`]s are `u32` too, and a table of
/// `u32::MAX` rows or more is refused. The root's parent entry is a
/// sentinel, so an absent parent costs no tag either.
///
/// Built by [`Topology::from_parents`] in O(n). When the table changes
/// shape (a splice after a structural batch), the splice writes the new
/// parents into the column this index holds and recomputes the rest in
/// place, into the buffers it already holds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Topology {
    /// Parent row per row; `NO_PARENT` for the root.
    parent: Vec<u32>,
    /// `extent[i]` is one past the last row of `i`'s subtree: strict
    /// descendants of `i` are exactly rows `i+1..extent[i]`.
    extent: Vec<u32>,
    /// CSR offsets into `child_rows`; length `n + 1`.
    child_start: Vec<u32>,
    /// Children of every row, concatenated in document order.
    child_rows: Vec<u32>,
}

impl Topology {
    /// Build the index from per-row parent references, where row indices
    /// are document-order (pre-order) positions. The references are
    /// written straight into the `u32` column, with no staging table.
    ///
    /// Construction is infallible over well-formed tables (the only kind
    /// [`PreorderIndex::encode`](crate::PreorderIndex::encode) produces). A malformed
    /// input — a non-root row without a parent, a parent reference that
    /// is not an earlier row, a parented root, or `u32::MAX` rows or
    /// more — threads out as a [`TreeError`] rather than a panic.
    pub fn from_parents(
        parents: impl IntoIterator<Item = Option<usize>>,
    ) -> Result<Topology, TreeError> {
        let parents = parents.into_iter();
        let mut topo = Topology::default();
        topo.parent.reserve_exact(parents.size_hint().0);
        for p in parents {
            // `rebuild` refuses a parented root and a reference that is
            // not an earlier row.
            topo.parent.push(match p {
                None => NO_PARENT,
                Some(p) => row32(p)?,
            });
        }
        topo.rebuild()?;
        Ok(topo)
    }

    /// Clear the parent column for a caller that then pushes each row's
    /// parent in document order ([`push_parent`](Self::push_parent)) and
    /// calls [`rebuild`](Self::rebuild).
    pub(crate) fn clear_parents(&mut self) {
        self.parent.clear();
    }

    /// Append the next row's parent row (`None` for the root).
    pub(crate) fn push_parent(&mut self, parent: Option<u32>) {
        self.parent.push(parent.unwrap_or(NO_PARENT));
    }

    /// Recompute extents and CSR children from the parent column
    /// the index holds, reusing every buffer: once the table has reached
    /// its size this allocates nothing. On a malformed column the same
    /// [`TreeError`] as [`from_parents`](Self::from_parents) comes back
    /// and the index is left unusable.
    pub(crate) fn rebuild(&mut self) -> Result<(), TreeError> {
        let parent = &self.parent;
        let n = parent.len();
        let n32 = row32(n)?;
        if parent.first().is_some_and(|&p| p != NO_PARENT) {
            return Err(TreeError::Invariant(
                "row 0 (document root) must have no parent".into(),
            ));
        }
        for (i, &p) in parent.iter().enumerate().skip(1) {
            if p == NO_PARENT {
                return Err(TreeError::MissingParent(NodeId::from_index(i)));
            }
            if p as usize >= i {
                return Err(TreeError::DanglingNodeId(NodeId::from_index(p as usize)));
            }
        }

        // extent: reverse pass — every row's extent is final before its
        // parent is visited, because children have larger indices.
        self.extent.clear();
        self.extent.extend(1..=n32);
        for i in (1..n).rev() {
            let p = parent[i] as usize;
            if self.extent[i] > self.extent[p] {
                self.extent[p] = self.extent[i];
            }
        }

        // CSR: count, prefix-sum, then fill in document order using each
        // row's own offset as its cursor — afterwards `child_start[p]`
        // holds where `p + 1`'s slice starts, so one shift puts the
        // offsets back without a second cursor array.
        let starts = &mut self.child_start;
        starts.clear();
        starts.resize(n + 1, 0);
        for &p in parent.iter().skip(1) {
            starts[p as usize + 1] += 1;
        }
        for i in 0..n {
            starts[i + 1] += starts[i];
        }
        self.child_rows.clear();
        self.child_rows.resize(starts[n] as usize, 0);
        for (i, &p) in (1..n32).zip(parent.iter().skip(1)) {
            let cursor = &mut starts[p as usize];
            self.child_rows[*cursor as usize] = i;
            *cursor += 1;
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
        match self.parent[i] {
            NO_PARENT => None,
            p => Some(p as usize),
        }
    }

    /// One past the last row of `i`'s subtree.
    pub fn extent(&self, i: usize) -> usize {
        self.extent[i] as usize
    }

    /// The strict descendants of `i` as a contiguous row range.
    pub fn descendant_range(&self, i: usize) -> std::ops::Range<usize> {
        i + 1..self.extent(i)
    }

    /// Children of `i` in document order, as a CSR slice.
    pub fn children(&self, i: usize) -> &[u32] {
        &self.child_rows[self.child_start[i] as usize..self.child_start[i + 1] as usize]
    }

    /// O(1) interval-containment ancestry: is `a` a strict ancestor of
    /// `b`?
    pub fn is_ancestor(&self, a: usize, b: usize) -> bool {
        a < b && b < self.extent(a)
    }

    /// Position of `i` among its parent's children (None for the root).
    /// Binary search over the parent's CSR slice — children are sorted
    /// by construction.
    pub fn child_position(&self, i: usize) -> Option<usize> {
        let siblings = self.children(self.parent(i)?);
        Some(siblings.partition_point(|&c| (c as usize) < i))
    }

    /// Does the subtree rooted at `i` (self included) overlap any of the
    /// half-open row intervals in `extents`? The intervals must be
    /// sorted and disjoint — the form the incremental query cache's
    /// impact analysis produces. One binary search: find the first
    /// interval ending after `i`, and check it starts before the
    /// subtree ends.
    pub fn subtree_intersects(&self, i: usize, extents: &[(usize, usize)]) -> bool {
        let hi = self.extent(i);
        let k = extents.partition_point(|&(_, end)| end <= i);
        k < extents.len() && extents[k].0 < hi
    }

    /// Raw CSR offsets (`len + 1` entries) — exposed for golden tests.
    pub fn child_start(&self) -> &[u32] {
        &self.child_start
    }

    /// Raw CSR children array — exposed for golden tests.
    pub fn child_rows(&self) -> &[u32] {
        &self.child_rows
    }
}

/// Row `i` as a `u32` column entry; a table that needs `u32::MAX` rows
/// or more is refused, since the root's parent entry is that sentinel.
pub(crate) fn row32(i: usize) -> Result<u32, TreeError> {
    u32::try_from(i)
        .ok()
        .filter(|&r| r < NO_PARENT)
        .ok_or_else(|| TreeError::Invariant(format!("{i} rows do not fit a u32 column")))
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
    fn extents_and_children() {
        let t = sample();
        assert_eq!(t.len(), 5);
        assert_eq!(
            (0..5).map(|i| t.extent(i)).collect::<Vec<_>>(),
            [5, 4, 3, 4, 5]
        );
        assert_eq!(t.children(0), [1, 4]);
        assert_eq!(t.children(1), [2, 3]);
        assert!(t.children(2).is_empty());
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
        assert!(t.children(0).is_empty());
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
            t.clear_parents();
            for p in parents {
                t.push_parent(p.map(|p| p as u32));
            }
            t.rebuild().unwrap();
            assert_eq!(
                t,
                Topology::from_parents(parents.iter().copied()).unwrap(),
                "{parents:?}"
            );
        }
        t.parent = vec![NO_PARENT, 1];
        assert!(t.rebuild().is_err());
    }

    #[test]
    fn every_column_holds_four_byte_rows() {
        let t = sample();
        assert_eq!(std::mem::size_of_val(&t.parent[0]), 4);
        assert_eq!(std::mem::size_of_val(&t.extent[0]), 4);
        assert_eq!(std::mem::size_of_val(&t.child_start[0]), 4);
        assert_eq!(std::mem::size_of_val(&t.child_rows[0]), 4);
        assert_eq!(t.parent(0), None, "the root's sentinel reads as no parent");
        assert_eq!(row32(u32::MAX as usize - 1), Ok(u32::MAX - 1));
        assert!(row32(u32::MAX as usize).is_err(), "the sentinel is no row");
        assert!(row32(1 << 32).is_err(), "no row wraps");
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
