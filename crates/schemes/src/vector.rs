//! The Vector labelling scheme (Xu, Bao & Ling, DEXA 2007 — \[27\] in the
//! paper).
//!
//! Order labels are `(x, y)` vectors compared by gradient via
//! cross-multiplication (no division — Figure 7's `F` in *Division
//! Comp.*); insertion takes the mediant of the neighbours, so no existing
//! label ever changes and the growth rate under skewed insertion is far
//! slower than QED's (the paper's §4 empirical note, reproduced by the P3
//! growth benchmark).
//!
//! Applied here in its prefix form, as a [`SiblingAlgebra`] of the shared
//! prefix host: a label is the vector path from the root, giving
//! ancestor-descendant by prefix while each component keeps the vector
//! algebra. The paper classifies Vector's *XPath Eval.* as `P` and
//! *Level Enc.* as `N` — the pure order-label form it evaluates carries
//! no structure — so this scheme deliberately reports sibling/level
//! queries as unsupported even though the path form could answer them,
//! keeping the measured matrix aligned with what the published scheme
//! offers.
//!
//! Components exhausting 64 bits (Fibonacci-like zigzag insertion) are
//! detected and the sibling list is renumbered with an overflow event —
//! the paper's open question about Vector's UTF-8 delimiter handling
//! beyond 2²¹ is surfaced by [`xupd_labelcore::VectorCode::exceeds_utf8`].

use crate::prefix::path::{CodeOutcome, PrefixScheme, SiblingAlgebra};
use crate::qcontainment::OrderCode;
use xupd_labelcore::vectorcode::bulk_vector;
use xupd_labelcore::{EncodingRep, OrderKind, SchemeDescriptor, SchemeStats, VectorCode};

/// The Vector sibling algebra.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VectorAlgebra;

impl SiblingAlgebra for VectorAlgebra {
    type Code = VectorCode;

    fn name(&self) -> &'static str {
        "Vector"
    }

    // Labels for footprint-disjoint edits depend only on surrounding
    // structure, never on edit order; claim pinned empirically by
    // crates/framework/tests/analysis_differential.rs.
    fn order_independent(&self) -> bool {
        true
    }

    // Not cancellation-neutral (the trait default): an insert whose
    // mediant would pass 64 bits renumbers every sibling, so a cancelled
    // create+delete can leave a surviving sibling relabelled; the zigzag
    // battery in crates/framework/tests/analysis_differential.rs shows
    // it from 120 creates.

    fn descriptor(&self) -> SchemeDescriptor {
        SchemeDescriptor {
            name: "Vector",
            citation: "[27]",
            order: OrderKind::Hybrid,
            encoding: EncodingRep::Variable,
            // Figure 7 row: Hybrid Variable F P N F F F F N
            declared: SchemeDescriptor::declared_from_letters("FPNFFFFN"),
            in_figure7: true,
        }
    }

    /// Recursive mediant splitting between the virtual bounds.
    fn bulk(&mut self, n: usize, stats: &mut SchemeStats) -> Vec<VectorCode> {
        bulk_vector(n, &mut stats.recursive_calls)
    }

    /// The mediant of the neighbours, [`VectorCode::LOW`] and
    /// [`VectorCode::HIGH`] standing in at the ends; when a component
    /// would exceed 64 bits, the whole sibling list is renumbered.
    fn insert(
        &mut self,
        left: Option<&VectorCode>,
        right: Option<&VectorCode>,
        _stats: &mut SchemeStats,
    ) -> CodeOutcome<VectorCode> {
        match VectorCode::between(left, right) {
            Some(code) => CodeOutcome::Fresh(code),
            None => CodeOutcome::RenumberAll,
        }
    }

    fn code_bits(code: &VectorCode) -> u64 {
        code.size_bits()
    }

    fn code_display(code: &VectorCode) -> String {
        code.to_string()
    }

    // Level Enc. = N: the evaluated scheme does not expose depth.
    fn level_of_path(_path_len: usize) -> Option<u32> {
        None
    }

    // The prefix application does give ancestor-descendant; the
    // published order-label scheme stops there (XPath Eval. = P).
    fn ancestry_only() -> bool {
        true
    }
}

/// The Vector labelling scheme (prefix application).
pub type VectorScheme = PrefixScheme<VectorAlgebra>;

impl VectorScheme {
    /// A fresh Vector scheme.
    pub fn new() -> Self {
        PrefixScheme::from_algebra(VectorAlgebra)
    }
}

impl Default for VectorScheme {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering;
    use xupd_labelcore::{Label, LabelingScheme, Relation};
    use xupd_xmldom::sample::figure1_document;
    use xupd_xmldom::{NodeKind, TreeBuilder};

    #[test]
    fn order_and_ancestry_on_figure1() {
        let tree = figure1_document();
        let mut scheme = VectorScheme::new();
        let labeling = scheme.label_tree(&tree).unwrap();
        let all = tree.ids_in_doc_order();
        for w in all.windows(2) {
            assert_eq!(
                scheme.cmp_doc(labeling.req(w[0]).unwrap(), labeling.req(w[1]).unwrap()),
                Ordering::Less
            );
        }
        for &u in &all {
            for &v in &all {
                if u == v {
                    continue;
                }
                assert_eq!(
                    scheme.relation(
                        Relation::AncestorDescendant,
                        labeling.req(u).unwrap(),
                        labeling.req(v).unwrap()
                    ),
                    Some(tree.is_ancestor(u, v))
                );
            }
        }
    }

    #[test]
    fn mediant_insertions_never_relabel() {
        let mut tree = figure1_document();
        let mut scheme = VectorScheme::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let book = tree.document_element().unwrap();
        let first = tree.first_child(book).unwrap();
        let mut front = first;
        for _ in 0..1000 {
            let x = tree.create(NodeKind::element("x"));
            tree.insert_before(front, x).unwrap();
            let rep = scheme.on_insert(&tree, &mut labeling, x).unwrap();
            assert!(rep.relabeled.is_empty());
            assert!(!rep.overflowed);
            front = x;
        }
        assert_eq!(scheme.stats().relabeled_nodes, 0);
        assert!(labeling.find_duplicate().is_none());
    }

    #[test]
    fn skewed_growth_is_much_slower_than_qed() {
        // The paper (§4/§5): "under skewed insertions … the vector label
        // growth rate is much slower than QED under similar conditions".
        use crate::prefix::qed::Qed;
        let build = || TreeBuilder::new().open("r").leaf("a", "").close().finish();
        let mut tv = build();
        let mut tq = build();
        let mut vs = VectorScheme::new();
        let mut qs = Qed::new();
        let mut lv = vs.label_tree(&tv).unwrap();
        let mut lq = qs.label_tree(&tq).unwrap();
        let fv = {
            let re = tv.document_element().unwrap();
            tv.first_child(re).unwrap()
        };
        let fq = {
            let re = tq.document_element().unwrap();
            tq.first_child(re).unwrap()
        };
        let (mut frontv, mut frontq) = (fv, fq);
        for _ in 0..300 {
            let xv = tv.create(NodeKind::element("x"));
            tv.insert_before(frontv, xv).unwrap();
            vs.on_insert(&tv, &mut lv, xv).unwrap();
            frontv = xv;
            let xq = tq.create(NodeKind::element("x"));
            tq.insert_before(frontq, xq).unwrap();
            qs.on_insert(&tq, &mut lq, xq).unwrap();
            frontq = xq;
        }
        let vbits = lv.req(frontv).unwrap().size_bits();
        let qbits = lq.req(frontq).unwrap().size_bits();
        assert!(
            vbits * 4 < qbits,
            "vector {vbits} bits should be ≪ qed {qbits} bits"
        );
    }

    #[test]
    fn zigzag_exhaustion_triggers_overflow_and_recovers() {
        let mut tree = TreeBuilder::new()
            .open("r")
            .leaf("a", "")
            .leaf("b", "")
            .close()
            .finish();
        let mut scheme = VectorScheme::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let re = tree.document_element().unwrap();
        // Alternating nested insertion (always between the two newest
        // nodes) grows components Fibonacci-fast.
        let mut left = tree.first_child(re).unwrap();
        let mut right = tree.next_sibling(left).unwrap();
        let mut overflowed = false;
        for i in 0..300 {
            let x = tree.create(NodeKind::element("x"));
            tree.insert_after(left, x).unwrap();
            let rep = scheme.on_insert(&tree, &mut labeling, x).unwrap();
            if rep.overflowed {
                overflowed = true;
                break;
            }
            if i % 2 == 0 {
                right = x;
            } else {
                left = x;
            }
            let _ = right;
        }
        assert!(overflowed, "u64 components must exhaust under zigzag");
        let order = tree.ids_in_doc_order();
        for w in order.windows(2) {
            assert_eq!(
                scheme.cmp_doc(labeling.req(w[0]).unwrap(), labeling.req(w[1]).unwrap()),
                Ordering::Less
            );
        }
    }
}
