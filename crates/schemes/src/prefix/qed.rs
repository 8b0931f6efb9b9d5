//! QED (Li & Ling, CIKM 2005 — \[14\] in the paper).
//!
//! Quaternary positional codes over `{1,2,3}` with the 2-bit `00` pattern
//! reserved as storage separator: code sizes are never stored in a
//! fixed-width field, so QED *completely avoids* the §4 overflow problem
//! and never relabels — the `F`s in Figure 7's *Persistent*, *Overflow*
//! and *Orthogonal* columns. Its weaknesses are the recursive bulk
//! algorithm with third-position computations (the `N`s in *Division* and
//! *Recursion*) and rapid label growth under skewed insertion (the `N` in
//! *Compact Enc.*, measured by the P3 growth benchmark).

use super::path::{CodeOutcome, PrefixScheme, SiblingAlgebra};
use xupd_labelcore::quaternary::{bulk_qed, qinsert, QCode};
use xupd_labelcore::{EncodingRep, OrderKind, SchemeDescriptor, SchemeStats};

/// The QED sibling algebra.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct QedAlgebra;

impl SiblingAlgebra for QedAlgebra {
    type Code = QCode;

    fn name(&self) -> &'static str {
        "QED"
    }

    // Labels for footprint-disjoint edits depend only on surrounding
    // structure, never on edit order; claim pinned empirically by
    // crates/framework/tests/analysis_differential.rs.
    fn order_independent(&self) -> bool {
        true
    }

    // Insertions never rewrite neighbour labels, so a cancelled
    // create+delete leaves zero residue; pinned empirically by
    // crates/framework/tests/analysis_differential.rs.
    fn cancellation_neutral(&self) -> bool {
        true
    }

    fn descriptor(&self) -> SchemeDescriptor {
        SchemeDescriptor {
            name: "QED",
            citation: "[14]",
            order: OrderKind::Hybrid,
            encoding: EncodingRep::Variable,
            // Figure 7 row: Hybrid Variable F F F F F N N N
            declared: SchemeDescriptor::declared_from_letters("FFFFFNNN"),
            in_figure7: true,
        }
    }

    fn bulk(&mut self, n: usize, stats: &mut SchemeStats) -> Vec<QCode> {
        bulk_qed(n, stats)
    }

    fn insert(
        &mut self,
        left: Option<&QCode>,
        right: Option<&QCode>,
        stats: &mut SchemeStats,
    ) -> CodeOutcome<QCode> {
        if left.is_some() && right.is_some() {
            // The original GetOneThirdAndTwoThirdCode computes weighted
            // third-points over code values; our rule-based construction
            // mirrors one value division per between-code.
            stats.divisions += 1;
        }
        CodeOutcome::Fresh(qinsert(left, right))
    }

    fn code_bits(code: &QCode) -> u64 {
        code.size_bits()
    }

    fn code_display(code: &QCode) -> String {
        code.to_string()
    }
}

/// The QED labelling scheme (prefix application).
pub type Qed = PrefixScheme<QedAlgebra>;

impl Qed {
    /// A fresh QED scheme.
    pub fn new() -> Self {
        PrefixScheme::from_algebra(QedAlgebra)
    }
}

impl Default for Qed {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;
    use xupd_labelcore::{Label, LabelingScheme, Relation};
    use xupd_xmldom::sample::{figure1_document, figure3_shape};
    use xupd_xmldom::{NodeKind, XmlTree};

    #[test]
    fn never_relabels_under_any_insertion_pattern() {
        let (mut tree, nodes) = figure3_shape();
        let mut scheme = Qed::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let originals: Vec<_> = nodes
            .iter()
            .map(|&n| (n, labeling.req(n).unwrap().clone()))
            .collect();
        // before-first, after-last, between, deep — 200 mixed insertions
        let mut target = nodes[1];
        for i in 0..200 {
            let x = tree.create(NodeKind::element("x"));
            match i % 4 {
                0 => tree.insert_before(target, x).unwrap(),
                1 => tree.insert_after(target, x).unwrap(),
                2 => tree.prepend_child(target, x).unwrap(),
                _ => tree.append_child(target, x).unwrap(),
            }
            let rep = scheme.on_insert(&tree, &mut labeling, x).unwrap();
            assert!(rep.relabeled.is_empty());
            assert!(!rep.overflowed);
            if i % 7 == 0 {
                target = x;
            }
        }
        for (n, old) in originals {
            assert_eq!(labeling.req(n).unwrap(), &old, "label of {n} must persist");
        }
        assert_eq!(scheme.stats().overflow_events, 0);
        assert_eq!(scheme.stats().relabeled_nodes, 0);
        assert!(labeling.find_duplicate().is_none());
    }

    #[test]
    fn order_and_relations_on_figure1() {
        let tree = figure1_document();
        let mut scheme = Qed::new();
        let labeling = scheme.label_tree(&tree).unwrap();
        let all = tree.ids_in_doc_order();
        for w in all.windows(2) {
            assert_eq!(
                scheme.cmp_doc(labeling.req(w[0]).unwrap(), labeling.req(w[1]).unwrap()),
                Ordering::Less
            );
        }
        for &x in &all {
            for &y in &all {
                if x == y {
                    continue;
                }
                assert_eq!(
                    scheme.relation(
                        Relation::AncestorDescendant,
                        labeling.req(x).unwrap(),
                        labeling.req(y).unwrap()
                    ),
                    Some(tree.is_ancestor(x, y))
                );
            }
        }
    }

    #[test]
    fn skewed_insertion_grows_roughly_linearly_in_code_length() {
        // §4: "in the case that nodes are repeatedly inserted at a fixed
        // position, the size of the QED-Prefix label increases rapidly".
        let mut tree = XmlTree::new();
        let r = tree.root();
        let p = tree.create(NodeKind::element("p"));
        tree.append_child(r, p).unwrap();
        let first = tree.create(NodeKind::element("a"));
        tree.append_child(p, first).unwrap();
        let mut scheme = Qed::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let mut front = first;
        for _ in 0..100 {
            let x = tree.create(NodeKind::element("x"));
            tree.insert_before(front, x).unwrap();
            scheme.on_insert(&tree, &mut labeling, x).unwrap();
            front = x;
        }
        let bits = labeling.req(front).unwrap().size_bits();
        assert!(
            bits >= 100,
            "after 100 skewed inserts the front label is large, got {bits} bits"
        );
    }

    #[test]
    fn level_is_path_length() {
        let tree = figure1_document();
        let mut scheme = Qed::new();
        let labeling = scheme.label_tree(&tree).unwrap();
        for id in tree.ids_in_doc_order() {
            assert_eq!(
                scheme.level(labeling.req(id).unwrap()),
                Some(tree.depth(id))
            );
        }
    }
}
