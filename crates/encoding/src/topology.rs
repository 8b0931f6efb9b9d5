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
//! * **children from the extents** — `i`'s first child is row `i + 1`
//!   and each child's extent is its next sibling's row, so the
//!   `child`/sibling axes step from child to child in time proportional
//!   to the children they visit, with no child list stored (the
//!   pre/post/parent table of Definition 2 and XPath Accelerator keeps
//!   none either);
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

/// Structural index over a document-order table: each row's parent and
/// pre-order subtree extent, and nothing else. Its parent column is the
/// [`PreorderIndex`](crate::PreorderIndex)'s only one.
///
/// Both columns hold `u32` rows, 4 bytes an entry: rows number the
/// nodes of a tree whose [`NodeId`]s are `u32` too, and a table of
/// `u32::MAX` rows or more is refused. The root's parent entry is a
/// sentinel, so an absent parent costs no tag either.
///
/// The [`PreorderIndex`](crate::PreorderIndex) writes each row's parent
/// in document order and then derives the extents, in O(n) and into the
/// buffers the index already holds, both when it encodes a tree and
/// when it splices one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Topology {
    /// Parent row per row; `NO_PARENT` for the root.
    parent: Vec<u32>,
    /// `extent[i]` is one past the last row of `i`'s subtree: strict
    /// descendants of `i` are exactly rows `i+1..extent[i]`.
    extent: Vec<u32>,
}

impl Topology {
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

    /// Recompute the extents from the parent column the index holds,
    /// reusing the buffer: once the table has reached its size this
    /// allocates nothing. A malformed column — a non-root row without a
    /// parent, a parent that is not an earlier row, a parented root, or
    /// `u32::MAX` rows or more — comes back as a [`TreeError`] rather
    /// than a panic, and leaves the index unusable.
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

        // Reverse pass: every row's extent is final before its parent
        // is visited, because children have larger indices.
        self.extent.clear();
        self.extent.extend(1..=n32);
        for i in (1..n).rev() {
            let p = parent[i] as usize;
            if self.extent[i] > self.extent[p] {
                self.extent[p] = self.extent[i];
            }
        }
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

    /// O(1) interval-containment ancestry: is `a` a strict ancestor of
    /// `b`?
    pub fn is_ancestor(&self, a: usize, b: usize) -> bool {
        a < b && b < self.extent(a)
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

    /// The index the preorder index builds from these parent rows.
    fn from_parents(parents: &[Option<u32>]) -> Result<Topology, TreeError> {
        let mut topo = Topology::default();
        for &p in parents {
            topo.push_parent(p);
        }
        topo.rebuild()?;
        Ok(topo)
    }

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
        from_parents(&[None, Some(0), Some(1), Some(1), Some(0)]).unwrap()
    }

    #[test]
    fn extents_and_children() {
        let t = sample();
        assert_eq!(t.len(), 5);
        assert_eq!(
            (0..5).map(|i| t.extent(i)).collect::<Vec<_>>(),
            [5, 4, 3, 4, 5]
        );
        let children: Vec<Vec<usize>> = (0..5).map(|i| t.children(i).collect()).collect();
        assert_eq!(children, [vec![1, 4], vec![2, 3], vec![], vec![], vec![]]);
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
        // A row's position among its parent's children is the count of
        // its preceding siblings; the following ones make up the rest.
        let t = sample();
        let position = |i: usize| t.preceding_siblings(i).count();
        assert_eq!((0..5).map(position).collect::<Vec<_>>(), [0, 0, 0, 1, 1]);
        let preceding: Vec<Vec<usize>> =
            (0..5).map(|i| t.preceding_siblings(i).collect()).collect();
        assert_eq!(preceding, [vec![], vec![], vec![], vec![2], vec![1]]);
        let following: Vec<Vec<usize>> =
            (0..5).map(|i| t.following_siblings(i).collect()).collect();
        assert_eq!(following, [vec![], vec![4], vec![3], vec![], vec![]]);
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
        let t = from_parents(&[]).unwrap();
        assert!(t.is_empty());
        let t = from_parents(&[None]).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.extent(0), 1);
        assert_eq!(t.children(0).count(), 0);
        assert_eq!(t.following_siblings(0).count(), 0);
        assert_eq!(t.preceding_siblings(0).count(), 0);
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
        let shapes: [&[Option<u32>]; 4] = [
            &[None, Some(0), Some(1), Some(1), Some(0)],
            &[None, Some(0), Some(0), Some(2), Some(3), Some(2), Some(0)],
            &[None],
            &[None, Some(0), Some(1)],
        ];
        let mut t = sample();
        for parents in shapes {
            t.clear_parents();
            for &p in parents {
                t.push_parent(p);
            }
            t.rebuild().unwrap();
            assert_eq!(t, from_parents(parents).unwrap(), "{parents:?}");
        }
        t.parent = vec![NO_PARENT, 1];
        assert!(t.rebuild().is_err());
    }

    #[test]
    fn every_column_holds_four_byte_rows() {
        let t = sample();
        assert_eq!(
            std::mem::size_of::<Topology>(),
            2 * std::mem::size_of::<Vec<u32>>(),
            "the index holds its parent and extent columns and nothing else"
        );
        assert_eq!(std::mem::size_of_val(&t.parent[0]), 4);
        assert_eq!(std::mem::size_of_val(&t.extent[0]), 4);
        assert_eq!(t.parent(0), None, "the root's sentinel reads as no parent");
        assert_eq!(row32(u32::MAX as usize - 1), Ok(u32::MAX - 1));
        assert!(row32(u32::MAX as usize).is_err(), "the sentinel is no row");
        assert!(row32(1 << 32).is_err(), "no row wraps");
    }

    #[test]
    fn malformed_inputs_error() {
        assert!(matches!(
            from_parents(&[Some(0)]),
            Err(TreeError::Invariant(_))
        ));
        assert!(matches!(
            from_parents(&[None, None]),
            Err(TreeError::MissingParent(_))
        ));
        assert!(matches!(
            from_parents(&[None, Some(1)]),
            Err(TreeError::DanglingNodeId(_))
        ));
        assert!(matches!(
            from_parents(&[None, Some(2), Some(0)]),
            Err(TreeError::DanglingNodeId(_))
        ));
    }
}
