//! A live demonstration of the §5.1 *Orthogonal Labelling Scheme*
//! property: "the labelling scheme may be applied to and used in
//! conjunction with existing containment schemes, prefix schemes and
//! prime number based schemes".
//!
//! Orthogonality is a design property, not a workload-measurable one —
//! what *can* be demonstrated is composition: an order-code algebra that
//! plugs into a host scheme of a different family. [`OrderCode`] is that
//! pluggable algebra (implemented by QED's quaternary codes and the
//! Vector codes — exactly the schemes Figure 7 marks `F`), and
//! [`CodedContainment`] is a containment host whose begin/end *positions*
//! are order codes instead of integers: insertions splice new positions
//! between existing ones with no gaps and no relabelling, fixing the
//! containment family's biggest weakness.
//!
//! The measured matrix's *Orthogonal* cell is `F` exactly when the
//! scheme's code algebra has an [`OrderCode`] implementation here — i.e.
//! when the composition genuinely exists in this codebase, not merely on
//! paper.

use std::cmp::Ordering;
use xupd_labelcore::quaternary::{qinsert, QCode};
use xupd_labelcore::VectorCode;
use xupd_xmldom::{NodeId, TreeError, XmlTree};

/// A host-independent, totally ordered, infinitely splittable position
/// code — the algebra a scheme must expose to be *orthogonal*.
pub trait OrderCode: Clone + Eq + std::fmt::Debug {
    /// A position strictly between `left` and `right` (absent bounds mean
    /// the open ends of the position space). Must always succeed for
    /// overflow-free algebras; `None` models encoding exhaustion.
    fn between(left: Option<&Self>, right: Option<&Self>) -> Option<Self>;

    /// Total order of positions.
    fn cmp_code(&self, other: &Self) -> Ordering;

    /// `n` fresh positions in ascending order for bulk labelling, or
    /// `None` when the algebra's encoding space is exhausted. The default
    /// chains [`OrderCode::between`]; algebras with compact bulk
    /// generators override it.
    fn bulk(n: usize) -> Option<Vec<Self>> {
        let mut out: Vec<Self> = Vec::with_capacity(n);
        for _ in 0..n {
            let next = Self::between(out.last(), None)?;
            out.push(next);
        }
        Some(out)
    }
}

impl OrderCode for QCode {
    fn between(left: Option<&QCode>, right: Option<&QCode>) -> Option<QCode> {
        Some(qinsert(left, right))
    }

    fn cmp_code(&self, other: &QCode) -> Ordering {
        self.cmp(other)
    }

    fn bulk(n: usize) -> Option<Vec<QCode>> {
        let mut stats = xupd_labelcore::SchemeStats::default();
        Some(xupd_labelcore::quaternary::bulk_cdqs(n, &mut stats))
    }
}

impl OrderCode for VectorCode {
    fn between(left: Option<&VectorCode>, right: Option<&VectorCode>) -> Option<VectorCode> {
        let l = left.copied().unwrap_or(VectorCode::LOW);
        let r = right.copied().unwrap_or(VectorCode::HIGH);
        l.mediant(&r)
    }

    fn cmp_code(&self, other: &VectorCode) -> Ordering {
        self.cmp_gradient(other)
    }

    fn bulk(n: usize) -> Option<Vec<VectorCode>> {
        // gradients 1, 2, …, n
        Some((1..=n as u64).map(|k| VectorCode::new(1, k)).collect())
    }
}

/// A containment (begin/end) labelling whose positions are order codes:
/// the composition §4 describes ("orthogonal to the different
/// classifications … they may be applied to and used in conjunction with
/// existing containment schemes").
#[derive(Debug, Clone)]
pub struct CodedContainment<C: OrderCode> {
    labels: Vec<Option<(C, C)>>,
}

impl<C: OrderCode> CodedContainment<C> {
    /// Label every node of `tree` with `(begin, end)` order codes by one
    /// depth-first pass, drawing positions from the algebra's bulk
    /// generator (2 positions per node: its begin and end). Errors when
    /// the algebra cannot produce enough positions.
    pub fn label(tree: &XmlTree) -> Result<Self, TreeError> {
        let mut labels: Vec<Option<(C, C)>> = vec![None; tree.id_bound()];
        let mut positions = C::bulk(2 * tree.len())
            .ok_or_else(|| TreeError::Invariant("order-code algebra exhausted in bulk".into()))?
            .into_iter();
        let mut begins: Vec<(NodeId, C)> = Vec::new();
        Self::walk(tree, tree.root(), &mut positions, &mut begins, &mut labels)?;
        debug_assert!(begins.is_empty());
        Ok(CodedContainment { labels })
    }

    fn walk(
        tree: &XmlTree,
        node: NodeId,
        positions: &mut impl Iterator<Item = C>,
        begins: &mut Vec<(NodeId, C)>,
        labels: &mut Vec<Option<(C, C)>>,
    ) -> Result<(), TreeError> {
        let begin = positions
            .next()
            .ok_or_else(|| TreeError::Invariant("position stream exhausted".into()))?;
        begins.push((node, begin));
        for child in tree.children(node) {
            Self::walk(tree, child, positions, begins, labels)?;
        }
        let (id, begin) = begins
            .pop()
            .ok_or_else(|| TreeError::Invariant("unbalanced begin/end walk".into()))?;
        debug_assert_eq!(id, node);
        let end = positions
            .next()
            .ok_or_else(|| TreeError::Invariant("position stream exhausted".into()))?;
        labels[node.index()] = Some((begin, end));
        Ok(())
    }

    /// The `(begin, end)` codes of `node`.
    pub fn get(&self, node: NodeId) -> Option<&(C, C)> {
        self.labels.get(node.index()).and_then(|s| s.as_ref())
    }

    /// Containment ancestor test over order codes.
    pub fn is_ancestor(&self, a: NodeId, b: NodeId) -> bool {
        match (self.get(a), self.get(b)) {
            (Some((ab, ae)), Some((bb, be))) => {
                ab.cmp_code(bb) == Ordering::Less && be.cmp_code(ae) == Ordering::Less
            }
            _ => false,
        }
    }

    /// Document-order comparison by begin code.
    pub fn cmp_doc(&self, a: NodeId, b: NodeId) -> Ordering {
        match (self.get(a), self.get(b)) {
            (Some((ab, _)), Some((bb, _))) => ab.cmp_code(bb),
            _ => Ordering::Equal,
        }
    }

    /// Splice `(begin, end)` codes for a node newly attached to `tree` —
    /// between its neighbours' codes, with **no relabelling**: the
    /// composition inherits the order-code algebra's persistence, which
    /// is the practical payoff of orthogonality. Errors when the node is
    /// detached, a neighbour is unlabelled, or the algebra's encoding
    /// space is exhausted.
    pub fn insert(&mut self, tree: &XmlTree, node: NodeId) -> Result<(), TreeError> {
        let parent = tree.parent(node).ok_or(TreeError::MissingParent(node))?;
        let req = |labels: &Self, n: NodeId| {
            labels.get(n).cloned().ok_or(TreeError::Unlabeled(n))
        };
        let left = match tree.prev_sibling(node) {
            Some(s) => req(self, s)?.1,
            None => req(self, parent)?.0,
        };
        let right = match tree.next_sibling(node) {
            Some(s) => Some(req(self, s)?.0),
            None => Some(req(self, parent)?.1),
        };
        let exhausted = || TreeError::Invariant("order-code algebra exhausted".into());
        let begin = C::between(Some(&left), right.as_ref()).ok_or_else(exhausted)?;
        let end = C::between(Some(&begin), right.as_ref()).ok_or_else(exhausted)?;
        if self.labels.len() <= node.index() {
            self.labels.resize(node.index() + 1, None);
        }
        self.labels[node.index()] = Some((begin, end));
        Ok(())
    }
}

/// Which roster schemes expose an [`OrderCode`] algebra — the measured
/// *Orthogonal* verdict. QED, CDQS (the quaternary algebra) and Vector:
/// exactly Figure 7's `F` entries — plus QED∘Containment, which *is* the
/// composition the property promises.
pub fn has_order_code_algebra(scheme_name: &str) -> bool {
    matches!(scheme_name, "QED" | "CDQS" | "Vector" | "QED∘Containment")
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_workloads::docs;
    use xupd_xmldom::NodeKind;

    fn check_host<C: OrderCode>() {
        let mut tree = docs::random_tree(5, 150);
        let mut host: CodedContainment<C> = CodedContainment::label(&tree).unwrap();
        // containment semantics match tree ground truth
        let all = tree.ids_in_doc_order();
        for &u in &all {
            for &v in &all {
                if u != v {
                    assert_eq!(host.is_ancestor(u, v), tree.is_ancestor(u, v));
                }
            }
        }
        // 100 insertions splice in with no relabelling and stay correct
        let pool: Vec<_> = tree
            .preorder()
            .filter(|&n| tree.kind(n).is_element())
            .collect();
        for (i, &target) in pool.iter().take(100).enumerate() {
            let node = tree.create(NodeKind::element("x"));
            if i % 2 == 0 {
                tree.prepend_child(target, node).unwrap();
            } else {
                tree.append_child(target, node).unwrap();
            }
            host.insert(&tree, node).unwrap();
        }
        let order = tree.ids_in_doc_order();
        for w in order.windows(2) {
            assert_eq!(host.cmp_doc(w[0], w[1]), Ordering::Less);
        }
        for &u in order.iter().step_by(7) {
            for &v in order.iter().step_by(11) {
                if u != v {
                    assert_eq!(host.is_ancestor(u, v), tree.is_ancestor(u, v));
                }
            }
        }
    }

    #[test]
    fn qed_codes_compose_with_a_containment_host() {
        check_host::<QCode>();
    }

    #[test]
    fn vector_codes_compose_with_a_containment_host() {
        check_host::<VectorCode>();
    }

    #[test]
    fn orthogonal_roster_matches_figure7() {
        for name in ["QED", "CDQS", "Vector"] {
            assert!(has_order_code_algebra(name));
        }
        for name in ["DeweyID", "Ordpath", "ImprovedBinary", "XRel", "LSDX"] {
            assert!(!has_order_code_algebra(name));
        }
    }
}
