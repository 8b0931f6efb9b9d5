//! Generic machinery shared by the one-component-per-level prefix schemes:
//! DeweyID, DLN, LSDX, ImprovedBinary, QED, CDQS and Vector from Figure 7,
//! and CDBS, Com-D and DDE from §6. ORDPATH keeps its own flat label.
//!
//! A [`PathLabel`] is the sequence of sibling codes along the root path;
//! document order is lexicographic (prefix-smaller) over that sequence,
//! ancestor-descendant is a strict prefix test, parent-child additionally
//! checks length, and level is the component count — exactly the hybrid
//! order / path-vector behaviour §3.1.2 describes.
//!
//! Each concrete scheme supplies a [`SiblingAlgebra`]: how to bulk-label a
//! sibling list and how to produce a code for an insertion, possibly
//! demanding renumbering (which is what separates the persistent schemes
//! from DeweyID/DLN in Figure 7's *Persistent Labels* column). Two hooks
//! let an algebra answer less than its path could: `level_of_path` for
//! *Level Enc.* and `ancestry_only` for *XPath Eval.* — Vector's published
//! order labels give neither depth nor parent and sibling tests.

use std::cmp::Ordering;
use std::fmt::Debug;
use xupd_labelcore::{
    InsertReport, Label, Labeling, LabelingScheme, Relation, SchemeDescriptor, SchemeStats,
};
use xupd_xmldom::{NodeId, TreeError, XmlTree};

/// Outcome of asking an algebra for an insertion code.
#[derive(Debug, Clone)]
pub enum CodeOutcome<C> {
    /// A code strictly between the neighbours — no existing label touched.
    Fresh(C),
    /// No such code exists; the inserted node and all *following* siblings
    /// must be renumbered (DeweyID's behaviour, §3.1.2).
    RenumberFollowing,
    /// The encoding is exhausted (§4 overflow); the whole sibling list
    /// must be renumbered.
    RenumberAll,
}

/// The per-sibling-list code algebra a prefix scheme plugs into
/// [`PrefixScheme`].
pub trait SiblingAlgebra {
    /// The sibling-code type (one component of a [`PathLabel`]).
    type Code: Clone + Eq + Ord + Debug;

    /// Scheme name (Figure 7 row).
    fn name(&self) -> &'static str;

    /// Static descriptor (classification + declared Figure 7 row).
    fn descriptor(&self) -> SchemeDescriptor;

    /// True when the algebra's code decisions depend only on the
    /// `(left, right)` neighbour codes passed in — no hidden temporal
    /// state — so footprint-disjoint edits commute label-for-label.
    /// Mirrors [`xupd_labelcore::LabelingScheme::order_independent`];
    /// conservative default: `false`.
    fn order_independent(&self) -> bool {
        false
    }

    /// True when inserting a sibling never rewrites neighbour codes
    /// (`insert` always returns `CodeOutcome::Fresh`), so a created
    /// subtree that is later deleted leaves zero residue on surviving
    /// labels. Mirrors
    /// [`xupd_labelcore::LabelingScheme::cancellation_neutral`];
    /// conservative default: `false`.
    fn cancellation_neutral(&self) -> bool {
        false
    }

    /// Codes for `n` fresh siblings in document order.
    fn bulk(&mut self, n: usize, stats: &mut SchemeStats) -> Vec<Self::Code>;

    /// A code for one node inserted between `left` and `right` (either
    /// may be absent at the ends of the sibling list).
    fn insert(
        &mut self,
        left: Option<&Self::Code>,
        right: Option<&Self::Code>,
        stats: &mut SchemeStats,
    ) -> CodeOutcome<Self::Code>;

    /// Codes for `count` siblings that follow `after` (used by
    /// [`CodeOutcome::RenumberFollowing`]). The default delegates to
    /// repeated end-insertion.
    fn tail(
        &mut self,
        after: Option<&Self::Code>,
        count: usize,
        stats: &mut SchemeStats,
    ) -> Vec<Self::Code> {
        let mut out: Vec<Self::Code> = Vec::with_capacity(count);
        let mut prev = after.cloned();
        for _ in 0..count {
            match self.insert(prev.as_ref(), None, stats) {
                CodeOutcome::Fresh(c) => {
                    prev = Some(c.clone());
                    out.push(c);
                }
                _ => {
                    debug_assert!(false, "end-insertion always has room");
                    break;
                }
            }
        }
        out
    }

    /// Storage size of one code in bits.
    fn code_bits(code: &Self::Code) -> u64;

    /// Rendering of one code (for the paper-figure displays).
    fn code_display(code: &Self::Code) -> String;

    /// Level derived from a path of `len` components; default: the
    /// component count (document root = 0).
    fn level_of_path(path_len: usize) -> Option<u32> {
        Some(path_len as u32)
    }

    /// True when the labels answer ancestor-descendant only, and
    /// parent-child and sibling queries are unsupported (`None`);
    /// default: `false`.
    fn ancestry_only() -> bool {
        false
    }

    /// An algebra variant with its encoding budget tightened so §4
    /// overflow becomes reachable within a test-size workload; `None`
    /// when the standard budget is already reachable or no budget exists.
    fn overflow_audit_algebra(&self) -> Option<Self>
    where
        Self: Sized,
    {
        None
    }

    /// Rendering of a whole path; default: dot-joined components (the
    /// Dewey/ORDPATH/ImprovedBinary figure style). LSDX overrides this to
    /// produce the paper's `2ab.b` style.
    fn path_display(path: &[Self::Code]) -> String {
        if path.is_empty() {
            return "∅".to_string();
        }
        path.iter()
            .map(|c| Self::code_display(c))
            .collect::<Vec<_>>()
            .join(".")
    }
}

/// A prefix label: the sibling codes along the root path. The document
/// root carries the empty path.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PathLabel<C> {
    /// Sibling codes from the root down to this node.
    pub components: Vec<C>,
}

impl<C: Clone> PathLabel<C> {
    /// The document root's label.
    pub fn root() -> Self {
        PathLabel {
            components: Vec::new(),
        }
    }

    /// This path extended by one child code. Allocates the child path at
    /// its exact final length so the clone-then-push pattern never pays a
    /// second (doubling) allocation.
    pub fn child(&self, code: C) -> Self {
        let mut components = Vec::with_capacity(self.components.len() + 1);
        components.extend_from_slice(&self.components);
        components.push(code);
        PathLabel { components }
    }

    /// The last component (the node's own sibling code); `None` for the
    /// root.
    pub fn own_code(&self) -> Option<&C> {
        self.components.last()
    }

    /// Is `self` a strict prefix of `other` (the ancestor test)?
    pub fn is_strict_prefix_of(&self, other: &PathLabel<C>) -> bool
    where
        C: Eq,
    {
        self.components.len() < other.components.len()
            && other.components[..self.components.len()] == self.components[..]
    }
}

/// Wrapper implementing [`Label`] for a path over an algebra's code type.
/// (A newtype per algebra keeps `size_bits`/`display` resolvable without
/// threading the algebra through every label.)
pub struct AlgPath<A: SiblingAlgebra> {
    /// The underlying component path.
    pub path: PathLabel<A::Code>,
}

// Manual impls: the derives would demand bounds on `A` itself, but only
// `A::Code` (already `Clone + Eq + Ord + Debug` by the trait definition)
// participates.
impl<A: SiblingAlgebra> Clone for AlgPath<A> {
    fn clone(&self) -> Self {
        AlgPath {
            path: self.path.clone(),
        }
    }
}
impl<A: SiblingAlgebra> PartialEq for AlgPath<A> {
    fn eq(&self, other: &Self) -> bool {
        self.path == other.path
    }
}
impl<A: SiblingAlgebra> Eq for AlgPath<A> {}
impl<A: SiblingAlgebra> PartialOrd for AlgPath<A> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<A: SiblingAlgebra> Ord for AlgPath<A> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.path.components.cmp(&other.path.components)
    }
}
impl<A: SiblingAlgebra> Debug for AlgPath<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", Label::display(self))
    }
}

impl<A: SiblingAlgebra> Label for AlgPath<A> {
    fn size_bits(&self) -> u64 {
        self.path.components.iter().map(|c| A::code_bits(c)).sum()
    }

    fn display(&self) -> String {
        A::path_display(&self.path.components)
    }
}

/// A complete [`LabelingScheme`] assembled from a [`SiblingAlgebra`].
pub struct PrefixScheme<A: SiblingAlgebra> {
    algebra: A,
    stats: SchemeStats,
}

impl<A: SiblingAlgebra + Clone> Clone for PrefixScheme<A> {
    fn clone(&self) -> Self {
        PrefixScheme {
            algebra: self.algebra.clone(),
            stats: self.stats.clone(),
        }
    }
}

impl<A: SiblingAlgebra> PrefixScheme<A> {
    /// Wrap an algebra.
    pub fn from_algebra(algebra: A) -> Self {
        PrefixScheme {
            algebra,
            stats: SchemeStats::default(),
        }
    }

    fn label_children(
        &mut self,
        tree: &XmlTree,
        parent: NodeId,
        parent_path: &PathLabel<A::Code>,
        labeling: &mut Labeling<AlgPath<A>>,
    ) {
        let n = tree.children(parent).count();
        if n == 0 {
            return;
        }
        let codes = self.algebra.bulk(n, &mut self.stats);
        debug_assert_eq!(codes.len(), n);
        for (child, code) in tree.children(parent).zip(codes) {
            let path = parent_path.child(code);
            self.label_children(tree, child, &path, labeling);
            labeling.set(child, AlgPath { path });
        }
    }

    /// Re-root the subtree at `node` onto `new_path`, preserving each
    /// descendant's own sibling code. Appends every node whose label
    /// actually changed (other than `skip`) to `changed`.
    fn rebase_subtree(
        &mut self,
        tree: &XmlTree,
        labeling: &mut Labeling<AlgPath<A>>,
        node: NodeId,
        new_path: PathLabel<A::Code>,
        skip: NodeId,
        changed: &mut Vec<NodeId>,
    ) {
        let old = labeling.get(node).cloned();
        if old.as_ref().map(|l| &l.path) != Some(&new_path) {
            if node != skip && old.is_some() {
                changed.push(node);
                self.stats.relabeled_nodes += 1;
            }
            labeling.set(
                node,
                AlgPath {
                    path: new_path.clone(),
                },
            );
        }
        for child in tree.children(node) {
            // an unlabelled child is part of a graft batch still being
            // inserted — it will receive its label in its own turn
            let Some(own) = labeling.get(child).and_then(|l| l.path.own_code().cloned()) else {
                continue;
            };
            let child_path = new_path.child(own);
            self.rebase_subtree(tree, labeling, child, child_path, skip, changed);
        }
    }
}

impl<A: SiblingAlgebra> LabelingScheme for PrefixScheme<A> {
    type Label = AlgPath<A>;

    fn name(&self) -> &'static str {
        self.algebra.name()
    }

    fn descriptor(&self) -> SchemeDescriptor {
        self.algebra.descriptor()
    }

    fn order_independent(&self) -> bool {
        self.algebra.order_independent()
    }

    fn cancellation_neutral(&self) -> bool {
        self.algebra.cancellation_neutral()
    }

    fn label_tree(&mut self, tree: &XmlTree) -> Result<Labeling<AlgPath<A>>, TreeError> {
        let mut labeling = Labeling::with_capacity_for(tree);
        let root_path = PathLabel::root();
        self.label_children(tree, tree.root(), &root_path, &mut labeling);
        labeling.set(tree.root(), AlgPath { path: root_path });
        Ok(labeling)
    }

    fn on_insert(
        &mut self,
        tree: &XmlTree,
        labeling: &mut Labeling<AlgPath<A>>,
        node: NodeId,
    ) -> Result<InsertReport, TreeError> {
        let parent = tree.parent(node).ok_or(TreeError::MissingParent(node))?;
        let parent_path = labeling.req(parent)?.path.clone();
        // An unlabelled neighbour is a node of the same graft batch that
        // has not been "inserted" yet (subtree insertion serialises nodes
        // one at a time, §3.1.2) — treat it as absent.
        let left_code = tree
            .prev_sibling(node)
            .and_then(|s| labeling.get(s))
            .and_then(|l| l.path.own_code().cloned());
        let right_code = tree
            .next_sibling(node)
            .and_then(|s| labeling.get(s))
            .and_then(|l| l.path.own_code().cloned());
        match self
            .algebra
            .insert(left_code.as_ref(), right_code.as_ref(), &mut self.stats)
        {
            CodeOutcome::Fresh(code) => {
                labeling.set(
                    node,
                    AlgPath {
                        path: parent_path.child(code),
                    },
                );
                Ok(InsertReport::clean())
            }
            CodeOutcome::RenumberFollowing => {
                // The inserted node and everything after it get fresh tail
                // codes following the left neighbour.
                let mut affected = vec![node];
                let mut cur = tree.next_sibling(node);
                while let Some(s) = cur {
                    affected.push(s);
                    cur = tree.next_sibling(s);
                }
                let codes = self
                    .algebra
                    .tail(left_code.as_ref(), affected.len(), &mut self.stats);
                let mut changed = Vec::new();
                for (sib, code) in affected.into_iter().zip(codes) {
                    let path = parent_path.child(code);
                    self.rebase_subtree(tree, labeling, sib, path, node, &mut changed);
                }
                Ok(InsertReport {
                    relabeled: changed,
                    overflowed: false,
                })
            }
            CodeOutcome::RenumberAll => {
                self.stats.overflow_events += 1;
                let n = tree.children(parent).count();
                let codes = self.algebra.bulk(n, &mut self.stats);
                let mut changed = Vec::new();
                for (sib, code) in tree.children(parent).zip(codes) {
                    let path = parent_path.child(code);
                    self.rebase_subtree(tree, labeling, sib, path, node, &mut changed);
                }
                Ok(InsertReport {
                    relabeled: changed,
                    overflowed: true,
                })
            }
        }
    }

    fn cmp_doc(&self, a: &AlgPath<A>, b: &AlgPath<A>) -> Ordering {
        a.path.components.cmp(&b.path.components)
    }

    fn relation(&self, rel: Relation, a: &AlgPath<A>, b: &AlgPath<A>) -> Option<bool> {
        let (pa, pb) = (&a.path, &b.path);
        match rel {
            Relation::AncestorDescendant => Some(pa.is_strict_prefix_of(pb)),
            _ if A::ancestry_only() => None,
            Relation::ParentChild => {
                Some(pa.is_strict_prefix_of(pb) && pb.components.len() == pa.components.len() + 1)
            }
            Relation::Sibling => {
                if pa.components.is_empty() || pb.components.is_empty() {
                    return Some(false);
                }
                let la = pa.components.len();
                let lb = pb.components.len();
                Some(
                    la == lb
                        && pa.components[..la - 1] == pb.components[..lb - 1]
                        && pa.components[la - 1] != pb.components[lb - 1],
                )
            }
        }
    }

    fn level(&self, a: &AlgPath<A>) -> Option<u32> {
        A::level_of_path(a.path.components.len())
    }

    fn stats(&self) -> &SchemeStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }

    fn overflow_audit_instance(&self) -> Option<Self> {
        self.algebra
            .overflow_audit_algebra()
            .map(PrefixScheme::from_algebra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefix::dewey::DeweyId;
    use xupd_xmldom::sample::figure1_document;

    #[test]
    fn path_label_prefix_and_child() {
        let root: PathLabel<u32> = PathLabel::root();
        let a = root.child(1);
        let b = a.child(2);
        assert!(root.is_strict_prefix_of(&a));
        assert!(a.is_strict_prefix_of(&b));
        assert!(!b.is_strict_prefix_of(&a));
        assert!(!a.is_strict_prefix_of(&a));
        assert_eq!(b.own_code(), Some(&2));
        assert_eq!(root.own_code(), None);
    }

    #[test]
    fn generic_scheme_labels_fig1_in_doc_order() {
        let tree = figure1_document();
        let mut scheme = DeweyId::new();
        let labeling = scheme.label_tree(&tree).unwrap();
        assert_eq!(labeling.len(), tree.len());
        let order = tree.ids_in_doc_order();
        for w in order.windows(2) {
            assert_eq!(
                scheme.cmp_doc(labeling.req(w[0]).unwrap(), labeling.req(w[1]).unwrap()),
                Ordering::Less
            );
        }
        assert!(labeling.find_duplicate().is_none());
    }

    #[test]
    fn generic_relations_match_tree_ground_truth() {
        let tree = figure1_document();
        let mut scheme = DeweyId::new();
        let labeling = scheme.label_tree(&tree).unwrap();
        let all = tree.ids_in_doc_order();
        for &x in &all {
            for &y in &all {
                if x == y {
                    continue;
                }
                let (lx, ly) = (labeling.req(x).unwrap(), labeling.req(y).unwrap());
                assert_eq!(
                    scheme.relation(Relation::AncestorDescendant, lx, ly),
                    Some(tree.is_ancestor(x, y))
                );
                assert_eq!(
                    scheme.relation(Relation::ParentChild, lx, ly),
                    Some(tree.parent(y) == Some(x))
                );
                let siblings = tree.parent(x).is_some() && tree.parent(x) == tree.parent(y);
                assert_eq!(scheme.relation(Relation::Sibling, lx, ly), Some(siblings));
            }
        }
    }

    #[test]
    fn generic_level_matches_depth() {
        let tree = figure1_document();
        let mut scheme = DeweyId::new();
        let labeling = scheme.label_tree(&tree).unwrap();
        for id in tree.ids_in_doc_order() {
            assert_eq!(
                scheme.level(labeling.req(id).unwrap()),
                Some(tree.depth(id))
            );
        }
    }
}
