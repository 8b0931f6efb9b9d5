//! CDBS — Compact Dynamic Binary String (Li, Ling & Hu, ICDE 2006 —
//! \[15\] in the paper; a §6/§4 extension, not a Figure 7 row).
//!
//! "A highly compact adaptation of the ImprovedBinary labelling scheme
//! with more efficient update costs. However, these improvements were made
//! possible through the use of fixed length bit encoding of the labels and
//! thus, are subject to the overflow problem" (§4). We model exactly that:
//! the compact binary algebra of ImprovedBinary with an even-spread bulk
//! assignment, stored in fixed-width cells — codes outgrowing the cell
//! trigger an overflow relabel.

use super::path::{CodeOutcome, PrefixScheme, SiblingAlgebra};
use xupd_labelcore::bitstring::{between, BitString};
use xupd_labelcore::{Compliance, EncodingRep, OrderKind, SchemeDescriptor, SchemeStats};

/// Default fixed storage cell per code, in bits.
const DEFAULT_CELL_BITS: usize = 32;

/// The CDBS sibling algebra.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CdbsAlgebra {
    /// Fixed cell width; codes longer than this overflow.
    pub cell_bits: usize,
}

impl Default for CdbsAlgebra {
    fn default() -> Self {
        CdbsAlgebra {
            cell_bits: DEFAULT_CELL_BITS,
        }
    }
}

impl SiblingAlgebra for CdbsAlgebra {
    type Code = BitString;

    fn name(&self) -> &'static str {
        "CDBS"
    }

    // Labels for footprint-disjoint edits depend only on surrounding
    // structure, never on edit order; claim pinned empirically by
    // crates/framework/tests/analysis_differential.rs.
    fn order_independent(&self) -> bool {
        true
    }

    // Not cancellation-neutral (the trait default): an insert that
    // overflows the fixed cell renumbers every sibling, so a cancelled
    // create+delete can leave a surviving sibling relabelled; the zigzag
    // battery in crates/framework/tests/analysis_differential.rs shows
    // it from 40 creates.

    fn descriptor(&self) -> SchemeDescriptor {
        SchemeDescriptor {
            name: "CDBS",
            citation: "[15]",
            order: OrderKind::Hybrid,
            encoding: EncodingRep::Fixed,
            // Not a Figure 7 row; declared from the §4 prose: persistent
            // until overflow (P), full XPath/level, subject to overflow
            // (N), not orthogonal (binary-specific), compact (F), one
            // division per even spread (N), single pass (F).
            declared: [
                Compliance::Partial, // Persistent: until the cell overflows
                Compliance::Full,    // XPath evaluations
                Compliance::Full,    // Level encoding
                Compliance::None,    // Overflow problem
                Compliance::None,    // Orthogonal
                Compliance::Full,    // Compact encoding
                Compliance::None,    // Division computation
                Compliance::Full,    // Recursion (streaming bulk)
            ],
            in_figure7: false,
        }
    }

    fn bulk(&mut self, n: usize, stats: &mut SchemeStats) -> Vec<BitString> {
        // Even spreading over the smallest binary length whose code space
        // holds n codes: codes are the length-L bitstrings ending in 1,
        // evenly spaced by rank (one division per code — the CDBS papers'
        // compactness trick). 2^(L-1) codes of length L end in 1.
        if n == 0 {
            return Vec::new();
        }
        let mut len = 1usize;
        let mut cap: u128 = 1;
        while cap < n as u128 {
            len += 1;
            cap <<= 1;
        }
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            stats.divisions += 1;
            let rank = (i as u128 * cap) / n as u128;
            // Build length-`len` code: (len-1) free bits from rank, then 1.
            let mut code = BitString::empty();
            for pos in (0..len - 1).rev() {
                code.push(((rank >> pos) & 1) as u8);
            }
            code.push(1);
            out.push(code);
        }
        out
    }

    fn insert(
        &mut self,
        left: Option<&BitString>,
        right: Option<&BitString>,
        stats: &mut SchemeStats,
    ) -> CodeOutcome<BitString> {
        if left.is_some() && right.is_some() {
            stats.divisions += 1;
        }
        let code = between(left, right);
        if code.bit_len() > self.cell_bits {
            CodeOutcome::RenumberAll
        } else {
            CodeOutcome::Fresh(code)
        }
    }

    fn code_bits(_code: &BitString) -> u64 {
        // Fixed-width cell regardless of code length — the whole point of
        // CDBS and the root of its overflow problem.
        DEFAULT_CELL_BITS as u64
    }

    fn code_display(code: &BitString) -> String {
        code.to_string()
    }
}

/// The CDBS labelling scheme.
pub type Cdbs = PrefixScheme<CdbsAlgebra>;

impl Cdbs {
    /// A fresh CDBS scheme with 32-bit cells.
    pub fn new() -> Self {
        PrefixScheme::from_algebra(CdbsAlgebra::default())
    }

    /// A scheme with custom cell width (failure-injection knob).
    pub fn with_cell_bits(cell_bits: usize) -> Self {
        PrefixScheme::from_algebra(CdbsAlgebra { cell_bits })
    }
}

impl Default for Cdbs {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_labelcore::LabelingScheme;
    use xupd_xmldom::{NodeKind, TreeBuilder};

    #[test]
    fn bulk_codes_sorted_unique_end_in_one() {
        let mut a = CdbsAlgebra::default();
        let mut stats = SchemeStats::default();
        for n in [1usize, 2, 3, 7, 8, 9, 100] {
            let codes = a.bulk(n, &mut stats);
            assert_eq!(codes.len(), n);
            for w in codes.windows(2) {
                assert!(w[0] < w[1]);
            }
            for c in &codes {
                assert_eq!(c.last(), Some(1));
            }
        }
    }

    #[test]
    fn overflow_fires_when_cell_exhausted() {
        let mut tree = TreeBuilder::new().open("r").leaf("a", "").close().finish();
        let mut scheme = Cdbs::with_cell_bits(10);
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let root_elem = tree.document_element().unwrap();
        let first = tree.children(root_elem).next().unwrap();
        let mut front = first;
        let mut overflowed = false;
        for _ in 0..30 {
            let x = tree.create(NodeKind::element("x"));
            tree.insert_before(front, x).unwrap();
            let rep = scheme.on_insert(&tree, &mut labeling, x).unwrap();
            front = x;
            if rep.overflowed {
                overflowed = true;
                break;
            }
        }
        assert!(overflowed, "fixed cells must overflow under skew");
    }

    #[test]
    fn bulk_is_compact_fixed_cells() {
        let mut b = TreeBuilder::new().open("r");
        for i in 0..100 {
            b = b.leaf(format!("c{i}"), "");
        }
        let tree = b.close().finish();
        let mut scheme = Cdbs::new();
        let labeling = scheme.label_tree(&tree).unwrap();
        // every label is a whole number of fixed 32-bit cells
        for (_, l) in labeling.iter() {
            assert_eq!(xupd_labelcore::Label::size_bits(l) % 32, 0);
        }
    }
}
