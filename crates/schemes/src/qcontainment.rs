//! Containment over order codes — the §4 orthogonality claim as a
//! first-class scheme.
//!
//! "The QED labelling scheme is orthogonal to the different
//! classifications of labelling schemes" (§4): its quaternary codes can
//! replace the integer begin/end positions of a containment scheme
//! (§3.1.1). [`CodedContainment`] is that containment host, generic over
//! an [`OrderCode`] algebra. It keeps the containment family's query
//! algebra — ancestor by interval containment, document order by begin
//! position, parent-child via a stored level — while escaping the
//! family's fatal weakness: because a fresh code always exists strictly
//! between any two codes, insertions never relabel.
//!
//! Orthogonality is a design property; what can be shown is that the
//! composition exists. QED's quaternary codes and the Vector codes
//! implement [`OrderCode`] — the algebras of the schemes Figure 7 marks
//! `F` for *Orthogonal* — and the framework's measured *Orthogonal* cell
//! is `F` exactly for the schemes built on one of them.
//!
//! The roster's `QED∘Containment` row is [`QedContainment`], the QED
//! instance. It is not a Figure 7 row (the paper discusses the
//! composition but grades only the base schemes); it is included as an
//! extension so the framework can measure what the composition buys.

use std::cmp::Ordering;
use std::fmt;
use std::marker::PhantomData;
use xupd_labelcore::quaternary::{bulk_cdqs, qinsert, QCode};
use xupd_labelcore::{
    Compliance, EncodingRep, InsertReport, Label, Labeling, LabelingScheme, OrderKind, Relation,
    SchemeDescriptor, SchemeStats, VectorCode,
};
use xupd_xmldom::{NodeId, TreeError, XmlTree};

/// A host-independent, totally ordered, infinitely splittable position
/// code: the algebra a scheme must expose to be *orthogonal*.
pub trait OrderCode: Clone + Eq + fmt::Debug + fmt::Display {
    /// The descriptor of [`CodedContainment`] over this algebra.
    const CONTAINMENT: SchemeDescriptor;

    /// A position strictly between `left` and `right` (absent bounds mean
    /// the open ends of the position space), or `None` when the
    /// algebra's encoding space is exhausted.
    fn between(left: Option<&Self>, right: Option<&Self>) -> Option<Self>;

    /// Total order of positions.
    fn cmp_code(&self, other: &Self) -> Ordering;

    /// `n` fresh positions in ascending order for bulk labelling, or
    /// `None` when the encoding space is exhausted. Divisions and
    /// recursive calls count into `stats`.
    fn bulk(n: usize, stats: &mut SchemeStats) -> Option<Vec<Self>>;

    /// Storage size in bits.
    fn size_bits(&self) -> u64;
}

impl OrderCode for QCode {
    const CONTAINMENT: SchemeDescriptor = SchemeDescriptor {
        name: "QED∘Containment",
        citation: "[14]+[9]",
        order: OrderKind::Global,
        encoding: EncodingRep::Variable,
        // Not a Figure 7 row; declared from the composition's design:
        // containment query algebra + QED update algebra.
        declared: [
            Compliance::Full,    // Persistent (between-codes always exist)
            Compliance::Partial, // XPath (ancestor + parent; no sibling)
            Compliance::Full,    // Level (stored)
            Compliance::Full,    // Overflow (separator storage)
            Compliance::Full,    // Orthogonal (it IS the composition)
            Compliance::None,    // Compact (two codes per node + skew growth)
            Compliance::None,    // Division (CDQS bulk spreading divides)
            Compliance::None,    // Recursion (CDQS bulk is recursive)
        ],
        in_figure7: false,
    };

    fn between(left: Option<&QCode>, right: Option<&QCode>) -> Option<QCode> {
        Some(qinsert(left, right))
    }

    fn cmp_code(&self, other: &QCode) -> Ordering {
        self.cmp(other)
    }

    /// The compact CDQS generator.
    fn bulk(n: usize, stats: &mut SchemeStats) -> Option<Vec<QCode>> {
        Some(bulk_cdqs(n, stats))
    }

    fn size_bits(&self) -> u64 {
        QCode::size_bits(self)
    }
}

impl OrderCode for VectorCode {
    const CONTAINMENT: SchemeDescriptor = SchemeDescriptor {
        name: "Vector∘Containment",
        citation: "[27]+[9]",
        order: OrderKind::Global,
        encoding: EncodingRep::Variable,
        // Containment query algebra + Vector update algebra.
        declared: [
            Compliance::Full,    // Persistent (a mediant always lies between)
            Compliance::Partial, // XPath (ancestor + parent; no sibling)
            Compliance::Full,    // Level (stored)
            Compliance::Full,    // Overflow (as Vector declares it)
            Compliance::Full,    // Orthogonal (it IS the composition)
            Compliance::None,    // Compact (two codes per node)
            Compliance::Full,    // Division (gradients 1..n, no division)
            Compliance::Full,    // Recursion (bulk is one loop)
        ],
        in_figure7: false,
    };

    fn between(left: Option<&VectorCode>, right: Option<&VectorCode>) -> Option<VectorCode> {
        let l = left.copied().unwrap_or(VectorCode::LOW);
        let r = right.copied().unwrap_or(VectorCode::HIGH);
        l.mediant(&r)
    }

    fn cmp_code(&self, other: &VectorCode) -> Ordering {
        self.cmp_gradient(other)
    }

    /// Gradients 1, 2, …, n.
    fn bulk(n: usize, _stats: &mut SchemeStats) -> Option<Vec<VectorCode>> {
        Some((1..=n as u64).map(|k| VectorCode::new(1, k)).collect())
    }

    fn size_bits(&self) -> u64 {
        VectorCode::size_bits(self)
    }
}

/// A containment label whose begin/end positions are order codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region<C> {
    /// Region begin code.
    pub begin: C,
    /// Region end code.
    pub end: C,
    /// Nesting depth (document root = 0).
    pub level: u32,
}

impl<C: OrderCode> PartialOrd for Region<C> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Begin, then end, then level, each code by [`OrderCode::cmp_code`].
impl<C: OrderCode> Ord for Region<C> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.begin
            .cmp_code(&other.begin)
            .then_with(|| self.end.cmp_code(&other.end))
            .then(self.level.cmp(&other.level))
    }
}

impl<C: OrderCode> Label for Region<C> {
    fn size_bits(&self) -> u64 {
        self.begin.size_bits() + self.end.size_bits() + 32
    }

    fn display(&self) -> String {
        format!("[{},{})@{}", self.begin, self.end, self.level)
    }
}

/// The containment scheme over the order-code algebra `C`.
#[derive(Debug, Clone, Default)]
pub struct CodedContainment<C> {
    stats: SchemeStats,
    code: PhantomData<C>,
}

/// The roster's QED∘Containment scheme.
pub type QedContainment = CodedContainment<QCode>;

impl<C: OrderCode> CodedContainment<C> {
    /// A fresh composed scheme.
    pub fn new() -> Self {
        CodedContainment {
            stats: SchemeStats::default(),
            code: PhantomData,
        }
    }
}

fn exhausted() -> TreeError {
    TreeError::Invariant("order-code algebra exhausted".into())
}

impl<C: OrderCode> LabelingScheme for CodedContainment<C> {
    type Label = Region<C>;

    fn name(&self) -> &'static str {
        C::CONTAINMENT.name
    }

    // Labels for footprint-disjoint edits depend only on surrounding
    // structure, never on edit order; claim pinned empirically for the
    // roster's QED instance by
    // crates/framework/tests/analysis_differential.rs.
    fn order_independent(&self) -> bool {
        true
    }

    // Insertions never rewrite neighbour labels, so a cancelled
    // create+delete leaves zero residue; pinned empirically for the
    // roster's QED instance by
    // crates/framework/tests/analysis_differential.rs.
    fn cancellation_neutral(&self) -> bool {
        true
    }

    fn descriptor(&self) -> SchemeDescriptor {
        C::CONTAINMENT
    }

    fn label_tree(&mut self, tree: &XmlTree) -> Result<Labeling<Region<C>>, TreeError> {
        // 2 positions per node, drawn from the bulk generator in one
        // preorder pass: a node takes its begin when it opens and its end
        // when the walk leaves its subtree.
        let mut labeling = Labeling::with_capacity_for(tree);
        let mut positions = C::bulk(2 * tree.len(), &mut self.stats)
            .ok_or_else(exhausted)?
            .into_iter();
        let mut next = || positions.next().ok_or_else(exhausted);
        let mut open: Vec<(NodeId, C)> = Vec::new();
        for node in tree.preorder().map(Some).chain([None]) {
            // Close every open node that is not `node`'s parent; after
            // the last node, close them all.
            let parent = node.and_then(|n| tree.parent(n));
            while let Some((n, begin)) = open.pop_if(|(top, _)| Some(*top) != parent) {
                let level = open.len() as u32;
                labeling.set(
                    n,
                    Region {
                        begin,
                        end: next()?,
                        level,
                    },
                );
            }
            if let Some(n) = node {
                open.push((n, next()?));
            }
        }
        Ok(labeling)
    }

    fn on_insert(
        &mut self,
        tree: &XmlTree,
        labeling: &mut Labeling<Region<C>>,
        node: NodeId,
    ) -> Result<InsertReport, TreeError> {
        let parent = tree.parent(node).ok_or(TreeError::MissingParent(node))?;
        // unlabelled neighbours belong to the same graft batch: absent
        let left = match tree.prev_sibling(node).and_then(|s| labeling.get(s)) {
            Some(l) => l.end.clone(),
            None => labeling.req(parent)?.begin.clone(),
        };
        let right = match tree.next_sibling(node).and_then(|s| labeling.get(s)) {
            Some(l) => l.begin.clone(),
            None => labeling.req(parent)?.end.clone(),
        };
        let begin = C::between(Some(&left), Some(&right)).ok_or_else(exhausted)?;
        let end = C::between(Some(&begin), Some(&right)).ok_or_else(exhausted)?;
        let level = labeling.req(parent)?.level + 1;
        labeling.set(node, Region { begin, end, level });
        Ok(InsertReport::clean())
    }

    fn cmp_doc(&self, a: &Region<C>, b: &Region<C>) -> Ordering {
        a.begin.cmp_code(&b.begin).then(b.end.cmp_code(&a.end))
    }

    fn relation(&self, rel: Relation, a: &Region<C>, b: &Region<C>) -> Option<bool> {
        let contains = a.begin.cmp_code(&b.begin).is_lt() && b.end.cmp_code(&a.end).is_lt();
        match rel {
            Relation::AncestorDescendant => Some(contains),
            Relation::ParentChild => Some(contains && b.level == a.level + 1),
            Relation::Sibling => None,
        }
    }

    fn level(&self, a: &Region<C>) -> Option<u32> {
        Some(a.level)
    }

    fn stats(&self) -> &SchemeStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_workloads::docs;
    use xupd_xmldom::sample::figure1_document;
    use xupd_xmldom::NodeKind;

    /// Labels compare in document order, and the containment algebra
    /// answers ancestor, parent and level as the tree does.
    fn assert_matches_tree<C: OrderCode>(
        scheme: &CodedContainment<C>,
        tree: &XmlTree,
        labeling: &Labeling<Region<C>>,
        step: usize,
    ) {
        let order = tree.ids_in_doc_order();
        for w in order.windows(2) {
            let (a, b) = (labeling.req(w[0]).unwrap(), labeling.req(w[1]).unwrap());
            assert_eq!(scheme.cmp_doc(a, b), Ordering::Less);
        }
        for &u in order.iter().step_by(step) {
            let lu = labeling.req(u).unwrap();
            assert_eq!(scheme.level(lu), Some(tree.depth(u)));
            for &v in order.iter().filter(|&&v| v != u) {
                let lv = labeling.req(v).unwrap();
                assert_eq!(
                    scheme.relation(Relation::AncestorDescendant, lu, lv),
                    Some(tree.is_ancestor(u, v))
                );
                assert_eq!(
                    scheme.relation(Relation::ParentChild, lu, lv),
                    Some(tree.parent(v) == Some(u))
                );
            }
        }
    }

    /// The containment semantics match the tree after bulk labelling,
    /// and 100 insertions splice in with no relabelling.
    fn check_host<C: OrderCode>() {
        let mut tree = docs::random_tree(5, 150);
        let mut scheme = CodedContainment::<C>::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        assert_matches_tree(&scheme, &tree, &labeling, 1);
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
            let rep = scheme.on_insert(&tree, &mut labeling, node).unwrap();
            assert!(rep.relabeled.is_empty());
        }
        assert_matches_tree(&scheme, &tree, &labeling, 7);
    }

    #[test]
    fn qed_codes_compose_with_a_containment_host() {
        check_host::<QCode>();
        assert_eq!(QedContainment::new().name(), "QED∘Containment");
    }

    #[test]
    fn vector_codes_compose_with_a_containment_host() {
        check_host::<VectorCode>();
        assert_eq!(
            CodedContainment::<VectorCode>::new().name(),
            "Vector∘Containment"
        );
    }

    #[test]
    fn skewed_storm_never_relabels_nor_overflows() {
        // The §4 payoff: a containment-family scheme that survives the
        // §3.1.1 killer workload untouched.
        let mut tree = figure1_document();
        let mut scheme = QedContainment::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let book = tree.document_element().unwrap();
        let first = tree.first_child(book).unwrap();
        let snapshot: Vec<_> = tree
            .ids_in_doc_order()
            .into_iter()
            .map(|n| (n, labeling.req(n).unwrap().clone()))
            .collect();
        let mut front = first;
        for _ in 0..500 {
            let x = tree.create(NodeKind::element("x"));
            tree.insert_before(front, x).unwrap();
            let rep = scheme.on_insert(&tree, &mut labeling, x).unwrap();
            assert!(rep.relabeled.is_empty());
            assert!(!rep.overflowed);
            front = x;
        }
        for (n, old) in snapshot {
            assert_eq!(labeling.req(n).unwrap(), &old);
        }
        assert!(labeling.find_duplicate().is_none());
        let order = tree.ids_in_doc_order();
        for w in order.windows(2) {
            assert_eq!(
                scheme.cmp_doc(labeling.req(w[0]).unwrap(), labeling.req(w[1]).unwrap()),
                Ordering::Less
            );
        }
    }
}
