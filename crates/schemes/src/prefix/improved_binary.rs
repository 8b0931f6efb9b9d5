//! ImprovedBinary (Li & Ling, DASFAA 2005 — \[13\] in the paper).
//!
//! Binary-string positional identifiers assigned by the recursive
//! `Labelling` algorithm with `AssignMiddleSelfLabel`; all three insertion
//! cases of §3.1.2 produce fresh codes, so labels are persistent — but the
//! scheme stores each code's length and is therefore still subject to the
//! §4 overflow problem once the length field saturates. We model a
//! configurable length-field width (default 8 bits ⇒ codes longer than
//! 255 bits overflow), after which the sibling list must be relabelled.

use super::path::{CodeOutcome, PrefixScheme, SiblingAlgebra};
use xupd_labelcore::bitstring::{between, bulk_binary, BitString};
use xupd_labelcore::{EncodingRep, OrderKind, SchemeDescriptor, SchemeStats};

/// Maximum code length representable by the stored length field, in bits.
const DEFAULT_LENGTH_FIELD_CAPACITY: usize = 255;

/// The ImprovedBinary sibling algebra.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImprovedBinaryAlgebra {
    /// Codes longer than this overflow the stored length field and force a
    /// sibling-list relabel (§4).
    pub max_code_bits: usize,
}

impl Default for ImprovedBinaryAlgebra {
    fn default() -> Self {
        ImprovedBinaryAlgebra {
            max_code_bits: DEFAULT_LENGTH_FIELD_CAPACITY,
        }
    }
}

impl SiblingAlgebra for ImprovedBinaryAlgebra {
    type Code = BitString;

    fn name(&self) -> &'static str {
        "ImprovedBinary"
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
            name: "ImprovedBinary",
            citation: "[13]",
            order: OrderKind::Hybrid,
            encoding: EncodingRep::Variable,
            // Figure 7 row: Hybrid Variable F F F N N N N N
            declared: SchemeDescriptor::declared_from_letters("FFFNNNNN"),
            in_figure7: true,
        }
    }

    fn bulk(&mut self, n: usize, stats: &mut SchemeStats) -> Vec<BitString> {
        bulk_binary(n, stats)
    }

    fn insert(
        &mut self,
        left: Option<&BitString>,
        right: Option<&BitString>,
        stats: &mut SchemeStats,
    ) -> CodeOutcome<BitString> {
        if left.is_some() && right.is_some() {
            // AssignMiddleSelfLabel performs the value-midpoint
            // computation the original formulation divides for.
            stats.divisions += 1;
        }
        let code = between(left, right);
        if code.bit_len() > self.max_code_bits {
            CodeOutcome::RenumberAll
        } else {
            CodeOutcome::Fresh(code)
        }
    }

    fn code_bits(code: &BitString) -> u64 {
        // The code itself plus an 8-bit stored length field (the
        // variable-length storage model of §4).
        code.bit_len() as u64 + 8
    }

    fn overflow_audit_algebra(&self) -> Option<Self> {
        Some(ImprovedBinaryAlgebra { max_code_bits: 64 })
    }

    fn code_display(code: &BitString) -> String {
        code.to_string()
    }
}

/// The ImprovedBinary labelling scheme.
pub type ImprovedBinary = PrefixScheme<ImprovedBinaryAlgebra>;

impl ImprovedBinary {
    /// A fresh ImprovedBinary scheme with the default length-field
    /// capacity.
    pub fn new() -> Self {
        PrefixScheme::from_algebra(ImprovedBinaryAlgebra::default())
    }

    /// A scheme whose length field saturates at `max_code_bits` — the
    /// failure-injection knob for the overflow checker.
    pub fn with_max_code_bits(max_code_bits: usize) -> Self {
        PrefixScheme::from_algebra(ImprovedBinaryAlgebra { max_code_bits })
    }
}

impl Default for ImprovedBinary {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_labelcore::{Label, LabelingScheme};
    use xupd_xmldom::sample::figure3_shape;
    use xupd_xmldom::{NodeKind, XmlTree};

    #[test]
    fn root_children_match_figure6_scheme() {
        // Figure 6's root has children 01, 0101, 011.
        let (tree, nodes) = figure3_shape();
        let mut scheme = ImprovedBinary::new();
        let labeling = scheme.label_tree(&tree).unwrap();
        let root_elem = nodes[0];
        let kids: Vec<String> = tree
            .children(root_elem)
            .map(|c| {
                labeling
                    .req(c)
                    .unwrap()
                    .path
                    .own_code()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(kids, ["01", "0101", "011"]);
    }

    #[test]
    fn insertions_are_persistent() {
        let mut tree = XmlTree::new();
        let r = tree.root();
        let p = tree.create(NodeKind::element("p"));
        tree.append_child(r, p).unwrap();
        let a = tree.create(NodeKind::element("a"));
        let b = tree.create(NodeKind::element("b"));
        tree.append_child(p, a).unwrap();
        tree.append_child(p, b).unwrap();
        let mut scheme = ImprovedBinary::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let before_a = labeling.req(a).unwrap().clone();
        let before_b = labeling.req(b).unwrap().clone();
        for _ in 0..10 {
            let x = tree.create(NodeKind::element("x"));
            tree.insert_after(a, x).unwrap();
            let rep = scheme.on_insert(&tree, &mut labeling, x).unwrap();
            assert!(rep.relabeled.is_empty());
            assert!(!rep.overflowed);
        }
        assert_eq!(labeling.req(a).unwrap(), &before_a);
        assert_eq!(labeling.req(b).unwrap(), &before_b);
        assert_eq!(scheme.stats().relabeled_nodes, 0);
    }

    #[test]
    fn length_field_overflow_forces_relabel() {
        // Shrink the length field so the overflow problem (§4) fires
        // quickly under skewed insertion before the first child.
        let mut tree = XmlTree::new();
        let r = tree.root();
        let p = tree.create(NodeKind::element("p"));
        tree.append_child(r, p).unwrap();
        let first = tree.create(NodeKind::element("a"));
        tree.append_child(p, first).unwrap();
        let mut scheme = ImprovedBinary::with_max_code_bits(12);
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let mut overflowed = false;
        let mut front = first;
        for _ in 0..40 {
            let x = tree.create(NodeKind::element("x"));
            tree.insert_before(front, x).unwrap();
            let rep = scheme.on_insert(&tree, &mut labeling, x).unwrap();
            front = x;
            if rep.overflowed {
                overflowed = true;
                break;
            }
        }
        assert!(overflowed, "1-bit-per-insert growth must hit the cap");
        assert!(scheme.stats().overflow_events > 0);
    }

    #[test]
    fn audit_instance_narrows_the_length_field() {
        let audit = ImprovedBinaryAlgebra::default().overflow_audit_algebra();
        assert_eq!(audit, Some(ImprovedBinaryAlgebra { max_code_bits: 64 }));
    }

    #[test]
    fn labels_sorted_and_unique_after_random_script() {
        let (mut tree, nodes) = figure3_shape();
        let mut scheme = ImprovedBinary::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        // Deterministic little script: insert around each original node.
        for (i, &n) in nodes.iter().enumerate() {
            let x = tree.create(NodeKind::element("x"));
            if i % 3 == 0 {
                tree.insert_before(n, x).unwrap();
            } else if i % 3 == 1 {
                tree.insert_after(n, x).unwrap();
            } else {
                tree.prepend_child(n, x).unwrap();
            }
            scheme.on_insert(&tree, &mut labeling, x).unwrap();
        }
        assert!(labeling.find_duplicate().is_none());
        let order = tree.ids_in_doc_order();
        for w in order.windows(2) {
            assert!(
                scheme.cmp_doc(labeling.req(w[0]).unwrap(), labeling.req(w[1]).unwrap())
                    == std::cmp::Ordering::Less,
                "{} !< {}",
                labeling.req(w[0]).unwrap().display(),
                labeling.req(w[1]).unwrap().display()
            );
        }
    }
}
