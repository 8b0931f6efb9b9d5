//! Invariant verification against tree ground truth.
//!
//! Definition 1 requires unique, order-bearing labels; the *XPath
//! Evaluations* and *Level Encoding* properties additionally require that
//! relation and depth answers derived from labels alone are *correct*.
//! These verifiers compare a live labelling with the
//! [`XmlTree`] ground truth.
//!
//! Everything here interrogates the scheme's label algebra directly
//! (`scheme.relation(rel, lx, ly)` over label pairs) — deliberately
//! *not* the `Topology` sidecar the encoding layer uses to accelerate
//! queries. The framework measures what the **labels** can answer;
//! structural indexes would answer everything and mask the difference
//! Figure 7 exists to show.

use std::cmp::Ordering;
use xupd_labelcore::{DynScheme, Relation};
use xupd_testkit::TestRng;
use xupd_xmldom::{TreeError, XmlTree};

/// Per-relation verification outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RelationCheck {
    /// The scheme answered (returned `Some`) for at least one pair.
    pub supported: bool,
    /// Number of answers disagreeing with tree ground truth.
    pub mismatches: usize,
    /// Pairs checked.
    pub checked: usize,
}

/// Whole-labelling verification outcome.
#[derive(Debug, Clone, Default)]
pub struct VerifyOutcome {
    /// Consecutive document-order pairs whose labels do not compare
    /// `Less` — must be zero for a sound scheme.
    pub order_violations: usize,
    /// Two live nodes share a label (the LSDX failure mode).
    pub duplicate_labels: bool,
    /// Ancestor-descendant relation check.
    pub ancestor: RelationCheck,
    /// Parent-child relation check.
    pub parent: RelationCheck,
    /// Sibling relation check.
    pub sibling: RelationCheck,
    /// Level support: `Some(mismatches)` when the scheme answers level
    /// queries, `None` when unsupported.
    pub level: Option<usize>,
}

impl VerifyOutcome {
    /// No order violations, no duplicates, no wrong relation or level
    /// answers (unsupported is fine — wrong is not).
    pub fn is_sound(&self) -> bool {
        self.order_violations == 0
            && !self.duplicate_labels
            && self.ancestor.mismatches == 0
            && self.parent.mismatches == 0
            && self.sibling.mismatches == 0
            && self.level.unwrap_or(0) == 0
    }

    /// Merge another outcome (from a different workload) into this one.
    pub fn absorb(&mut self, other: &VerifyOutcome) {
        self.order_violations += other.order_violations;
        self.duplicate_labels |= other.duplicate_labels;
        for (a, b) in [
            (&mut self.ancestor, &other.ancestor),
            (&mut self.parent, &other.parent),
            (&mut self.sibling, &other.sibling),
        ] {
            a.supported |= b.supported;
            a.mismatches += b.mismatches;
            a.checked += b.checked;
        }
        self.level = match (self.level, other.level) {
            (Some(a), Some(b)) => Some(a + b),
            (Some(a), None) | (None, Some(a)) => Some(a),
            (None, None) => None,
        };
    }
}

/// Verify the `session`'s labelling against `tree`: full document-order
/// scan, duplicate detection, and `sample_pairs` random node pairs for
/// each relation plus level checks. A caller holding a typed scheme and
/// labelling passes `&SessionMut::new(&mut scheme, &mut labeling)`.
///
/// Errors with [`TreeError::Unlabeled`] when a live node has no label —
/// a broken labelling that the soundness counters cannot meaningfully
/// grade.
pub fn verify_dyn(
    tree: &XmlTree,
    session: &dyn DynScheme,
    sample_pairs: usize,
    seed: u64,
) -> Result<VerifyOutcome, TreeError> {
    let mut out = VerifyOutcome::default();
    let order = tree.ids_in_doc_order();

    for w in order.windows(2) {
        if session.cmp_nodes(w[0], w[1])? != Ordering::Less {
            out.order_violations += 1;
        }
    }
    out.duplicate_labels = session.has_duplicate_labels();

    let mut rng = TestRng::seed_from_u64(seed ^ 0xfeed);
    let mut level_mismatches: Option<usize> = None;
    for _ in 0..sample_pairs {
        let x = order[rng.gen_range(0..order.len())];
        let y = order[rng.gen_range(0..order.len())];
        if x == y {
            continue;
        }
        let truths = [
            (Relation::AncestorDescendant, tree.is_ancestor(x, y)),
            (Relation::ParentChild, tree.parent(y) == Some(x)),
            (
                Relation::Sibling,
                tree.parent(x).is_some() && tree.parent(x) == tree.parent(y),
            ),
        ];
        for (rel, truth) in truths {
            let check = match rel {
                Relation::AncestorDescendant => &mut out.ancestor,
                Relation::ParentChild => &mut out.parent,
                Relation::Sibling => &mut out.sibling,
            };
            if let Some(ans) = session.relation_nodes(rel, x, y)? {
                check.supported = true;
                check.checked += 1;
                if ans != truth {
                    check.mismatches += 1;
                }
            }
        }
        if let Some(lv) = session.level_node(x)? {
            let slot = level_mismatches.get_or_insert(0);
            if lv != tree.depth(x) {
                *slot += 1;
            }
        }
    }
    out.level = level_mismatches;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_labelcore::{LabelingScheme, SessionMut};
    use xupd_schemes::containment::sector::Sector;
    use xupd_schemes::prefix::dewey::DeweyId;
    use xupd_workloads::docs;

    #[test]
    fn dewey_verifies_fully_sound() {
        let tree = docs::random_tree(2, 200);
        let mut scheme = DeweyId::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let v = verify_dyn(&tree, &SessionMut::new(&mut scheme, &mut labeling), 400, 1).unwrap();
        assert!(v.is_sound(), "{v:?}");
        assert!(v.ancestor.supported && v.parent.supported && v.sibling.supported);
        assert_eq!(v.level, Some(0));
    }

    #[test]
    fn sector_reports_partial_support() {
        let tree = docs::random_tree(3, 200);
        let mut scheme = Sector::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let v = verify_dyn(&tree, &SessionMut::new(&mut scheme, &mut labeling), 400, 2).unwrap();
        assert!(v.is_sound(), "{v:?}");
        assert!(v.ancestor.supported);
        assert!(!v.parent.supported);
        assert!(!v.sibling.supported);
        assert_eq!(v.level, None);
    }

    #[test]
    fn absorb_combines_outcomes() {
        let mut a = VerifyOutcome::default();
        let mut b = VerifyOutcome::default();
        b.order_violations = 2;
        b.ancestor.supported = true;
        b.ancestor.checked = 10;
        b.level = Some(1);
        a.absorb(&b);
        assert_eq!(a.order_violations, 2);
        assert!(a.ancestor.supported);
        assert_eq!(a.level, Some(1));
        assert!(!a.is_sound());
    }
}
