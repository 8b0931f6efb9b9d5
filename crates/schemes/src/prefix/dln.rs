//! DLN — Dynamic Level Numbering (Böhme & Rahm, DIWeb 2004 — \[3\] in the
//! paper).
//!
//! "Conceptually similar to ORDPATH … adopts a fixed bit-length for
//! component values and supports arbitrary insertions through the addition
//! of suffix values between any two consecutive positional identifiers.
//! However, under frequent updates, the fixed label size may overflow"
//! (§3.1.2). A DLN component is a chain of fixed-width sub-ids
//! (`2/1/3` — sublevels separated by `/`); insertion first tries to
//! increment, then to open a sublevel, and renumbers the sibling list when
//! the fixed width is exhausted.

use super::path::{CodeOutcome, PrefixScheme, SiblingAlgebra};
use std::fmt;
use xupd_labelcore::{EncodingRep, OrderKind, SchemeDescriptor, SchemeStats, SmallVec};

/// Width of one sub-id in bits (fixed-length encoding). Sub-ids run
/// 1..=2^W − 1; 0 is reserved so an absent sublevel compares below every
/// present one.
const SUB_ID_BITS: u32 = 8;

/// Sub-id chain storage: chains of up to 6 sublevels stay inline, so
/// cloning a typical code during renumbering never allocates.
type DlnSubs = SmallVec<u32, 6>;

/// One DLN component: a chain of fixed-width sub-ids, e.g. `2/1`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DlnCode {
    subs: DlnSubs,
}

impl DlnCode {
    fn single(v: u32) -> Self {
        DlnCode {
            subs: DlnSubs::from_slice(&[v]),
        }
    }

    #[cfg(test)]
    fn chain(subs: &[u32]) -> Self {
        DlnCode {
            subs: DlnSubs::from_slice(subs),
        }
    }

    /// The sub-id chain.
    pub fn subs(&self) -> &[u32] {
        &self.subs
    }
}

impl fmt::Display for DlnCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.subs.iter().map(|s| s.to_string()).collect();
        f.write_str(&parts.join("/"))
    }
}

/// The DLN sibling algebra.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DlnAlgebra {
    /// Largest representable sub-id (fixed width ⇒ overflow beyond it).
    pub max_sub_id: u32,
}

impl Default for DlnAlgebra {
    fn default() -> Self {
        DlnAlgebra {
            max_sub_id: (1 << SUB_ID_BITS) - 1,
        }
    }
}

impl DlnAlgebra {
    /// A code strictly between `l` and `r`, or `None` when the encoding
    /// offers no room (the DLN weakness).
    fn mid(&self, l: &DlnCode, r: &DlnCode) -> Option<DlnCode> {
        debug_assert!(l < r);
        // 1) increment the last sub-id of l (sub-id lists are non-empty
        // by construction)
        let mut cand = l.clone();
        if let Some(last) = cand.subs.last_mut() {
            if *last < self.max_sub_id {
                *last += 1;
                if &cand < r {
                    return Some(cand);
                }
            }
        }
        // 2) open a sublevel under l
        let mut cand = l.clone();
        cand.subs.push(1);
        if &cand < r {
            return Some(cand);
        }
        // r <= l/1 means r == l/1 exactly (r > l forces r to extend l);
        // no room at this width.
        None
    }
}

impl SiblingAlgebra for DlnAlgebra {
    type Code = DlnCode;

    fn name(&self) -> &'static str {
        "DLN"
    }

    // Labels for footprint-disjoint edits depend only on surrounding
    // structure, never on edit order; claim pinned empirically by
    // crates/framework/tests/analysis_differential.rs.
    fn order_independent(&self) -> bool {
        true
    }

    fn descriptor(&self) -> SchemeDescriptor {
        SchemeDescriptor {
            name: "DLN",
            citation: "[3]",
            order: OrderKind::Hybrid,
            encoding: EncodingRep::Fixed,
            // Figure 7 row: Hybrid Fixed N F F N N N F F
            declared: SchemeDescriptor::declared_from_letters("NFFNNNFF"),
            in_figure7: true,
        }
    }

    fn bulk(&mut self, n: usize, _stats: &mut SchemeStats) -> Vec<DlnCode> {
        // Streaming single pass; ordinals beyond the fixed width spill
        // into sublevels of the last representable ordinal.
        let mut out = Vec::with_capacity(n);
        let max = u64::from(self.max_sub_id);
        for i in 1..=n as u64 {
            if i <= max {
                out.push(DlnCode::single(i as u32));
            } else {
                // max, max/1, max/2, ..., max/max, max/max/1, ...
                let mut rem = i - max;
                let mut subs = DlnSubs::from_slice(&[self.max_sub_id]);
                while rem > max {
                    subs.push(self.max_sub_id);
                    rem -= max;
                }
                subs.push(rem as u32);
                out.push(DlnCode { subs });
            }
        }
        out
    }

    fn insert(
        &mut self,
        left: Option<&DlnCode>,
        right: Option<&DlnCode>,
        _stats: &mut SchemeStats,
    ) -> CodeOutcome<DlnCode> {
        match (left, right) {
            (None, None) => CodeOutcome::Fresh(DlnCode::single(1)),
            (Some(l), None) => {
                // append: increment the FIRST sub-id when possible, else
                // chain a sublevel on the last representable ordinal.
                let first = l.subs[0];
                if first < self.max_sub_id {
                    CodeOutcome::Fresh(DlnCode::single(first + 1))
                } else {
                    let mut subs = l.subs.clone();
                    if subs.last().is_some_and(|&x| x < self.max_sub_id) {
                        let m = subs.len() - 1;
                        subs[m] += 1;
                        CodeOutcome::Fresh(DlnCode { subs })
                    } else {
                        subs.push(1);
                        CodeOutcome::Fresh(DlnCode { subs })
                    }
                }
            }
            (None, Some(r)) => {
                // prepend: decrement when possible; sub-ids start at 1 and
                // there is nothing below `1`, so prepending before it
                // exhausts the width.
                let first = r.subs[0];
                if first > 1 {
                    CodeOutcome::Fresh(DlnCode::single(first - 1))
                } else {
                    CodeOutcome::RenumberAll
                }
            }
            (Some(l), Some(r)) => match self.mid(l, r) {
                Some(c) => CodeOutcome::Fresh(c),
                None => CodeOutcome::RenumberAll,
            },
        }
    }

    fn code_bits(code: &DlnCode) -> u64 {
        // Fixed width per sub-id plus one continuation bit each (the
        // fixed-length encoding model of the DLN paper).
        code.subs.len() as u64 * (u64::from(SUB_ID_BITS) + 1)
    }

    fn code_display(code: &DlnCode) -> String {
        code.to_string()
    }
}

/// The DLN labelling scheme.
pub type Dln = PrefixScheme<DlnAlgebra>;

impl Dln {
    /// A fresh DLN scheme with 8-bit sub-ids.
    pub fn new() -> Self {
        PrefixScheme::from_algebra(DlnAlgebra::default())
    }
}

impl Default for Dln {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_labelcore::{Label, LabelingScheme};
    use xupd_xmldom::{NodeKind, TreeBuilder};

    #[test]
    fn mid_prefers_increment_then_sublevel() {
        let a = DlnAlgebra::default();
        // between 2 and 5 → 3
        assert_eq!(
            a.mid(&DlnCode::single(2), &DlnCode::single(5)).unwrap(),
            DlnCode::single(3)
        );
        // between 2 and 3 → 2/1
        assert_eq!(
            a.mid(&DlnCode::single(2), &DlnCode::single(3)).unwrap(),
            DlnCode::chain(&[2, 1])
        );
        // between 2 and 2/1 → dead end (no room at this width)
        assert_eq!(a.mid(&DlnCode::single(2), &DlnCode::chain(&[2, 1])), None);
        // between 2/1 and 3 → 2/2
        assert_eq!(
            a.mid(&DlnCode::chain(&[2, 1]), &DlnCode::single(3))
                .unwrap(),
            DlnCode::chain(&[2, 2])
        );
    }

    #[test]
    fn sublevel_dead_end_renumbers() {
        let mut tree = TreeBuilder::new()
            .open("r")
            .leaf("a", "")
            .leaf("b", "")
            .close()
            .finish();
        let mut scheme = Dln::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let root_elem = tree.document_element().unwrap();
        let a = tree.children(root_elem).next().unwrap();
        // repeatedly insert right after `a`: 1, 2 → 1/1, then between 1
        // and 1/1 → dead end → renumber
        let mut overflowed = false;
        for _ in 0..5 {
            let x = tree.create(NodeKind::element("x"));
            tree.insert_after(a, x).unwrap();
            let rep = scheme.on_insert(&tree, &mut labeling, x).unwrap();
            if rep.overflowed {
                overflowed = true;
                break;
            }
        }
        assert!(overflowed, "DLN must hit its sublevel dead end");
        assert!(scheme.stats().overflow_events > 0);
        // after renumbering, order still holds
        let order = tree.ids_in_doc_order();
        for w in order.windows(2) {
            assert_eq!(
                scheme.cmp_doc(labeling.req(w[0]).unwrap(), labeling.req(w[1]).unwrap()),
                std::cmp::Ordering::Less
            );
        }
    }

    #[test]
    fn bulk_spills_into_sublevels_beyond_width() {
        let mut a = DlnAlgebra { max_sub_id: 3 };
        let mut stats = SchemeStats::default();
        let codes = a.bulk(8, &mut stats);
        let shown: Vec<String> = codes.iter().map(|c| c.to_string()).collect();
        assert_eq!(
            shown,
            ["1", "2", "3", "3/1", "3/2", "3/3", "3/3/1", "3/3/2"]
        );
        for w in codes.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn display_renders_dewey_like_paths() {
        let tree = TreeBuilder::new()
            .open("r")
            .open("a")
            .leaf("b", "")
            .close()
            .close()
            .finish();
        let mut scheme = Dln::new();
        let labeling = scheme.label_tree(&tree).unwrap();
        let root_elem = tree.document_element().unwrap();
        let a = tree.children(root_elem).next().unwrap();
        let b = tree.children(a).next().unwrap();
        assert_eq!(labeling.req(b).unwrap().display(), "1.1.1");
    }
}
