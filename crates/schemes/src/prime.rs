//! The Prime Number labelling scheme (Wu, Lee & Hsu, ICDE 2004 — \[25\] in
//! the paper; named in §6 as follow-up evaluation work).
//!
//! Every node is assigned a distinct prime `p(v)`; its label is the pair
//! `(p(v), product of primes along the root path)`. Structure queries are
//! arithmetic on the products:
//!
//! * ancestor: `label(a).product` divides `label(b).product`;
//! * parent:  `a.product × b.prime = b.product`;
//! * sibling: equal parent products (`a.product / a.prime`).
//!
//! Document order is *not* in the product: the published scheme keeps a
//! global **simultaneous congruence** (SC) value, maintained by the
//! Chinese Remainder Theorem, with `order(v) = SC mod p(v)`. Updating
//! order touches only SC — labels are fully persistent — but the SC
//! recomputation after an insertion is Θ(document), which this
//! implementation models by rebuilding the per-prime order table from the
//! tree (counted as relabels? no — labels never change; the cost appears
//! as update latency in the benchmarks, exactly the trade-off the scheme
//! makes).
//!
//! Products outgrow machine words within a few levels, hence the
//! [`BigUint`] substrate.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use xupd_labelcore::biguint::BigUint;
use xupd_labelcore::{
    Compliance, EncodingRep, InsertReport, Label, Labeling, LabelingScheme, OrderKind, Relation,
    SchemeDescriptor, SchemeStats,
};
use xupd_xmldom::{NodeId, TreeError, XmlTree};

/// A prime-scheme label: the node's own prime and the root-path product.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimeLabel {
    /// The node's self prime (1 for the document root).
    pub prime: u64,
    /// Product of self primes along the root path.
    pub product: BigUint,
}

impl PartialOrd for PrimeLabel {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PrimeLabel {
    // An arbitrary-but-total order for indexing/dedup; document order
    // lives in the scheme's SC table.
    fn cmp(&self, other: &Self) -> Ordering {
        self.product
            .cmp(&other.product)
            .then(self.prime.cmp(&other.prime))
    }
}

impl Label for PrimeLabel {
    fn size_bits(&self) -> u64 {
        64 + self.product.bit_len()
    }

    fn display(&self) -> String {
        format!("{}⟨{}⟩", self.prime, self.product)
    }
}

/// The Prime Number labelling scheme.
#[derive(Debug, Clone)]
pub struct Prime {
    stats: SchemeStats,
    next_candidate: u64,
    /// order(v) = SC mod p(v) in the published scheme; modelled as the
    /// per-prime order table the congruence encodes. A `BTreeMap` keeps
    /// iteration deterministic (lint rule R2).
    sc_order: BTreeMap<u64, u64>,
}

impl Default for Prime {
    fn default() -> Self {
        Self::new()
    }
}

impl Prime {
    /// A fresh Prime scheme.
    pub fn new() -> Self {
        Prime {
            stats: SchemeStats::default(),
            next_candidate: 2,
            sc_order: BTreeMap::new(),
        }
    }

    fn next_prime(&mut self) -> u64 {
        loop {
            let c = self.next_candidate;
            self.next_candidate += 1;
            if is_prime(c) {
                return c;
            }
        }
    }

    /// Rebuild the SC order table — the CRT recomputation the published
    /// scheme performs after a structural update.
    fn recompute_sc(&mut self, tree: &XmlTree, labeling: &Labeling<PrimeLabel>) {
        self.sc_order.clear();
        for (i, id) in tree.preorder().enumerate() {
            if let Some(l) = labeling.get(id) {
                self.sc_order.insert(l.prime, i as u64);
            }
        }
    }
}

/// Trial-division primality — candidate primes stay small (one per node).
fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    if n.is_multiple_of(2) {
        return n == 2;
    }
    let mut d = 3;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 2;
    }
    true
}

impl LabelingScheme for Prime {
    type Label = PrimeLabel;

    fn name(&self) -> &'static str {
        "Prime"
    }

    fn descriptor(&self) -> SchemeDescriptor {
        SchemeDescriptor {
            name: "Prime",
            citation: "[25]",
            order: OrderKind::Global,
            encoding: EncodingRep::Variable,
            // Not a Figure 7 row; declared from the ICDE 2004 claims.
            declared: [
                Compliance::Full, // Persistent (SC absorbs all updates)
                Compliance::Full, // XPath (divisibility algebra)
                Compliance::None, // Level (not in the label)
                Compliance::Full, // Overflow (labels never change; only
                // the SC value regrows)
                Compliance::None, // Orthogonal
                Compliance::None, // Compact (products grow fast)
                Compliance::Full, // Division (assignment multiplies
                // only; §5.1 scopes the property to
                // labelling and updates — the
                // divisibility tests are query-time)
                Compliance::Full, // Recursion (streaming assignment)
            ],
            in_figure7: false,
        }
    }

    fn label_tree(&mut self, tree: &XmlTree) -> Result<Labeling<PrimeLabel>, TreeError> {
        let mut labeling = Labeling::with_capacity_for(tree);
        labeling.set(
            tree.root(),
            PrimeLabel {
                prime: 1,
                product: BigUint::one(),
            },
        );
        for node in tree.preorder() {
            if node == tree.root() {
                continue;
            }
            let parent = tree.parent(node).ok_or(TreeError::MissingParent(node))?;
            let parent_product = labeling.req(parent)?.product.clone();
            let p = self.next_prime();
            labeling.set(
                node,
                PrimeLabel {
                    prime: p,
                    product: parent_product.mul_small(p),
                },
            );
        }
        self.recompute_sc(tree, &labeling);
        Ok(labeling)
    }

    fn on_insert(
        &mut self,
        tree: &XmlTree,
        labeling: &mut Labeling<PrimeLabel>,
        node: NodeId,
    ) -> Result<InsertReport, TreeError> {
        let parent = tree.parent(node).ok_or(TreeError::MissingParent(node))?;
        let parent_product = labeling.req(parent)?.product.clone();
        let p = self.next_prime();
        labeling.set(
            node,
            PrimeLabel {
                prime: p,
                product: parent_product.mul_small(p),
            },
        );
        // Labels untouched; only the simultaneous congruence is rebuilt.
        self.recompute_sc(tree, labeling);
        Ok(InsertReport::clean())
    }

    fn on_delete(&mut self, tree: &XmlTree, labeling: &mut Labeling<PrimeLabel>, node: NodeId) {
        for d in tree.preorder_from(node) {
            if let Some(l) = labeling.remove(d) {
                self.sc_order.remove(&l.prime);
            }
        }
    }

    fn cmp_doc(&self, a: &PrimeLabel, b: &PrimeLabel) -> Ordering {
        let oa = self.sc_order.get(&a.prime);
        let ob = self.sc_order.get(&b.prime);
        oa.cmp(&ob)
    }

    fn relation(&self, rel: Relation, a: &PrimeLabel, b: &PrimeLabel) -> Option<bool> {
        // Divisibility tests divide — the scheme's documented cost.
        match rel {
            Relation::AncestorDescendant => {
                Some(a.product < b.product && b.product.is_multiple_of(&a.product))
            }
            Relation::ParentChild => {
                Some(a.product.mul_small(b.prime) == b.product && a.prime != b.prime)
            }
            Relation::Sibling => {
                if a.prime == b.prime || a.prime == 1 || b.prime == 1 {
                    return Some(false);
                }
                let (qa, ra) = a.product.divrem(&BigUint::from_u64(a.prime));
                let (qb, rb) = b.product.divrem(&BigUint::from_u64(b.prime));
                Some(ra.is_zero() && rb.is_zero() && qa == qb)
            }
        }
    }

    fn level(&self, _a: &PrimeLabel) -> Option<u32> {
        None
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
    use xupd_xmldom::sample::figure1_document;
    use xupd_xmldom::NodeKind;

    #[test]
    fn divisibility_gives_ancestry() {
        let tree = figure1_document();
        let mut scheme = Prime::new();
        let labeling = scheme.label_tree(&tree).unwrap();
        let all = tree.ids_in_doc_order();
        for &u in &all {
            for &v in &all {
                if u == v {
                    continue;
                }
                let (lu, lv) = (labeling.req(u).unwrap(), labeling.req(v).unwrap());
                assert_eq!(
                    scheme.relation(Relation::AncestorDescendant, lu, lv),
                    Some(tree.is_ancestor(u, v)),
                    "{u} vs {v}"
                );
                assert_eq!(
                    scheme.relation(Relation::ParentChild, lu, lv),
                    Some(tree.parent(v) == Some(u))
                );
                let sib = tree.parent(u).is_some() && tree.parent(u) == tree.parent(v);
                assert_eq!(scheme.relation(Relation::Sibling, lu, lv), Some(sib));
            }
        }
    }

    #[test]
    fn labels_persist_under_insertion_order_follows_sc() {
        let mut tree = figure1_document();
        let mut scheme = Prime::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let snapshot: Vec<_> = tree
            .ids_in_doc_order()
            .into_iter()
            .map(|n| (n, labeling.req(n).unwrap().clone()))
            .collect();
        let book = tree.document_element().unwrap();
        let first = tree.first_child(book).unwrap();
        for _ in 0..5 {
            let x = tree.create(NodeKind::element("x"));
            tree.insert_before(first, x).unwrap();
            let rep = scheme.on_insert(&tree, &mut labeling, x).unwrap();
            assert!(rep.relabeled.is_empty(), "labels never change");
        }
        for (n, old) in snapshot {
            assert_eq!(labeling.req(n).unwrap(), &old);
        }
        // order reflects the rebuilt congruence
        let order = tree.ids_in_doc_order();
        for w in order.windows(2) {
            assert_eq!(
                scheme.cmp_doc(labeling.req(w[0]).unwrap(), labeling.req(w[1]).unwrap()),
                Ordering::Less
            );
        }
    }

    #[test]
    fn sc_order_table_golden() {
        // The congruence table is a BTreeMap so its iteration order is the
        // ascending prime sequence, independent of insertion order or any
        // hasher. Pin the full table for Figure 1: primes are handed out
        // in preorder (root keeps 1), orders are preorder ranks over all
        // sixteen nodes (document root, ten labelled nodes, five texts).
        let tree = figure1_document();
        let mut scheme = Prime::new();
        let _labeling = scheme.label_tree(&tree).unwrap();
        let table: Vec<(u64, u64)> = scheme.sc_order.iter().map(|(&p, &o)| (p, o)).collect();
        assert_eq!(
            table,
            vec![
                (1, 0),
                (2, 1),
                (3, 2),
                (5, 3),
                (7, 4),
                (11, 5),
                (13, 6),
                (17, 7),
                (19, 8),
                (23, 9),
                (29, 10),
                (31, 11),
                (37, 12),
                (41, 13),
                (43, 14),
                (47, 15),
            ]
        );
    }

    #[test]
    fn products_outgrow_u64_down_a_deep_path() {
        let mut tree = xupd_xmldom::XmlTree::new();
        let mut cur = tree.root();
        for i in 0..25 {
            let n = tree.create(NodeKind::element(format!("d{i}")));
            tree.append_child(cur, n).unwrap();
            cur = n;
        }
        let mut scheme = Prime::new();
        let labeling = scheme.label_tree(&tree).unwrap();
        assert!(
            labeling.req(cur).unwrap().product.bit_len() > 64,
            "deep products need the BigUint substrate"
        );
    }
}
