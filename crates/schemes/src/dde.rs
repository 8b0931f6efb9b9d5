//! DDE — "From Dewey to a Fully Dynamic XML Labeling Scheme" (Xu, Ling,
//! Wu & Bao, SIGMOD 2009 — \[28\] in the paper).
//!
//! One of the two schemes §6 names for the paper's follow-up evaluation.
//! DDE keeps Dewey's path structure (so ancestor / parent / sibling /
//! level all work) but makes each component a ratio-ordered pair: the
//! initial children are `1, 2, …, n` (denominator 1, printing exactly
//! like Dewey), and an insertion between neighbours takes the component
//! **mediant** — so no insertion ever touches an existing label. Division
//! never happens (ratio comparison is cross-multiplication) and initial
//! labelling is a single streaming pass.

use crate::prefix::path::{CodeOutcome, PrefixScheme, SiblingAlgebra};
use std::cmp::Ordering;
use xupd_labelcore::{
    Compliance, EncodingRep, OrderKind, SchemeDescriptor, SchemeStats, VectorCode,
};

/// A DDE component: a vector ordered by gradient, printed `num` or
/// `num/den`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DdeCode(pub VectorCode);

impl PartialOrd for DdeCode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DdeCode {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.cmp_gradient(&other.0)
    }
}

/// The DDE sibling algebra.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DdeAlgebra;

impl SiblingAlgebra for DdeAlgebra {
    type Code = DdeCode;

    fn name(&self) -> &'static str {
        "DDE"
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
    // it from 91 creates.

    fn descriptor(&self) -> SchemeDescriptor {
        SchemeDescriptor {
            name: "DDE",
            citation: "[28]",
            order: OrderKind::Hybrid,
            encoding: EncodingRep::Variable,
            // Not a Figure 7 row; declared from the SIGMOD 2009 claims.
            declared: [
                Compliance::Full, // Persistent (mediants never relabel)
                Compliance::Full, // XPath (full Dewey structure)
                Compliance::Full, // Level
                Compliance::Full, // Overflow (fully dynamic claim)
                Compliance::None, // Orthogonal (inherently prefix)
                Compliance::Full, // Compact (Dewey-equal before updates)
                Compliance::Full, // Division (cross-multiplication)
                Compliance::Full, // Recursion (streaming init)
            ],
            in_figure7: false,
        }
    }

    fn bulk(&mut self, n: usize, _stats: &mut SchemeStats) -> Vec<DdeCode> {
        // Exactly Dewey: i/1 for the i-th child. Single pass, no
        // recursion, no division.
        (1..=n as u64)
            .map(|i| DdeCode(VectorCode::new(1, i)))
            .collect()
    }

    fn insert(
        &mut self,
        left: Option<&DdeCode>,
        right: Option<&DdeCode>,
        _stats: &mut SchemeStats,
    ) -> CodeOutcome<DdeCode> {
        let l = left.map(|c| c.0).unwrap_or(VectorCode::LOW);
        let r = right.map(|c| c.0).unwrap_or(VectorCode::HIGH);
        match l.mediant(&r) {
            Some(m) => CodeOutcome::Fresh(DdeCode(m)),
            // The "fully dynamic" claim meets 64-bit reality: zigzag
            // insertion exhausts the components (cf. the paper's §4
            // scepticism about Vector's encoding) — renumber.
            None => CodeOutcome::RenumberAll,
        }
    }

    fn code_bits(code: &DdeCode) -> u64 {
        code.0.size_bits()
    }

    fn code_display(code: &DdeCode) -> String {
        let v = code.0;
        if v.x == 1 {
            v.y.to_string()
        } else {
            format!("{}/{}", v.y, v.x)
        }
    }
}

/// The DDE labelling scheme.
pub type Dde = PrefixScheme<DdeAlgebra>;

impl Dde {
    /// A fresh DDE scheme.
    pub fn new() -> Self {
        PrefixScheme::from_algebra(DdeAlgebra)
    }
}

impl Default for Dde {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_labelcore::{Label, LabelingScheme, Relation};
    use xupd_xmldom::sample::figure3_shape;
    use xupd_xmldom::{NodeKind, XmlTree};

    #[test]
    fn initial_labels_print_exactly_like_dewey() {
        let (tree, nodes) = figure3_shape();
        let mut scheme = Dde::new();
        let labeling = scheme.label_tree(&tree).unwrap();
        let shown: Vec<String> = nodes
            .iter()
            .map(|&n| labeling.req(n).unwrap().display())
            .collect();
        assert_eq!(
            shown,
            ["1", "1.1", "1.1.1", "1.1.2", "1.2", "1.2.1", "1.3", "1.3.1", "1.3.2", "1.3.3"]
        );
    }

    #[test]
    fn insertions_are_persistent_and_ordered() {
        let (mut tree, nodes) = figure3_shape();
        let mut scheme = Dde::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let snapshot: Vec<_> = nodes
            .iter()
            .map(|&n| (n, labeling.req(n).unwrap().clone()))
            .collect();
        for (i, &n) in nodes.iter().enumerate().take(6) {
            let x = tree.create(NodeKind::element("x"));
            if i % 2 == 0 {
                tree.insert_before(n, x).unwrap();
            } else {
                tree.insert_after(n, x).unwrap();
            }
            let rep = scheme.on_insert(&tree, &mut labeling, x).unwrap();
            assert!(rep.relabeled.is_empty());
        }
        for (n, old) in snapshot {
            assert_eq!(labeling.req(n).unwrap(), &old);
        }
        let order = tree.ids_in_doc_order();
        for w in order.windows(2) {
            assert_eq!(
                scheme.cmp_doc(labeling.req(w[0]).unwrap(), labeling.req(w[1]).unwrap()),
                Ordering::Less
            );
        }
    }

    #[test]
    fn full_xpath_relations_like_dewey() {
        let (tree, _) = figure3_shape();
        let mut scheme = Dde::new();
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
            }
        }
        for &x in &all {
            assert_eq!(scheme.level(labeling.req(x).unwrap()), Some(tree.depth(x)));
        }
    }

    #[test]
    fn between_insert_prints_as_a_ratio() {
        let mut tree = XmlTree::new();
        let r = tree.root();
        let p = tree.create(NodeKind::element("p"));
        tree.append_child(r, p).unwrap();
        let a = tree.create(NodeKind::element("a"));
        let b = tree.create(NodeKind::element("b"));
        tree.append_child(p, a).unwrap();
        tree.append_child(p, b).unwrap();
        let mut scheme = Dde::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let x = tree.create(NodeKind::element("x"));
        tree.insert_after(a, x).unwrap();
        scheme.on_insert(&tree, &mut labeling, x).unwrap();
        // mediant of 1/1 and 2/1 is 3/2
        assert_eq!(labeling.req(x).unwrap().display(), "1.3/2");
    }
}
