//! Vector order codes (Xu, Bao & Ling, DEXA 2007 — \[27\] in the paper).
//!
//! A vector code is a pair `(x, y)` ordered by the **gradient** `y/x`.
//! Division is never performed: `G(A) < G(B) ⟺ y_A·x_B < y_B·x_A`
//! (cross-multiplication), the property the paper highlights and the
//! reason Vector earns `F` in the *Division Comp.* column of Figure 7.
//!
//! Insertion between neighbours is the **mediant** `(x_A+x_B, y_A+y_B)`,
//! whose gradient always lies strictly between — by Stern–Brocot theory an
//! unbounded number of insertions fit between any two codes without
//! relabelling, and under *skewed* insertion (always at the same position)
//! components grow only linearly, which is why the paper reports Vector's
//! label growth is much slower than QED's under skewed insertions (§4).
//!
//! Components are stored as UTF-8-style varints ([`crate::varint`]);
//! arithmetic is checked so that exhaustion of the 64-bit component space
//! is surfaced as an overflow event instead of silent wrap-around —
//! mirroring the paper's open question about Vector's delimiter encoding
//! beyond 2²¹.

use crate::varint;
use std::cmp::Ordering;
use std::fmt;

/// A vector order code `(x, y)` compared by gradient `y/x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VectorCode {
    /// Denominator component.
    pub x: u64,
    /// Numerator component.
    pub y: u64,
}

impl VectorCode {
    /// The virtual lower bound `(1, 0)` (gradient 0).
    pub const LOW: VectorCode = VectorCode { x: 1, y: 0 };
    /// The virtual upper bound `(0, 1)` (gradient ∞).
    pub const HIGH: VectorCode = VectorCode { x: 0, y: 1 };

    /// Construct a code.
    pub fn new(x: u64, y: u64) -> Self {
        VectorCode { x, y }
    }

    /// Gradient comparison via cross-multiplication (no division). The
    /// products are taken in 128 bits so comparison itself can never
    /// overflow.
    pub fn cmp_gradient(&self, other: &VectorCode) -> Ordering {
        let lhs = u128::from(self.y) * u128::from(other.x);
        let rhs = u128::from(other.y) * u128::from(self.x);
        lhs.cmp(&rhs)
    }

    /// The mediant `(x₁+x₂, y₁+y₂)`, strictly between the operands by
    /// gradient. Returns `None` if a component would exceed 64 bits —
    /// the component-space exhaustion the framework's overflow checker
    /// watches for.
    pub fn mediant(&self, other: &VectorCode) -> Option<VectorCode> {
        Some(VectorCode {
            x: self.x.checked_add(other.x)?,
            y: self.y.checked_add(other.y)?,
        })
    }

    /// Storage size in bits: both components as UTF-8-style varints.
    pub fn size_bits(&self) -> u64 {
        8 * (u64::from(varint::encoded_len(self.x)) + u64::from(varint::encoded_len(self.y)))
    }

    /// Does either component exceed the single-UTF-8-unit capacity (2²¹)
    /// the paper questions?
    pub fn exceeds_utf8(&self) -> bool {
        varint::exceeds_utf8(self.x) || varint::exceeds_utf8(self.y)
    }
}

/// Gradient order, ties broken by `x` and then `y` so the order agrees
/// with `Eq`. Codes of one sibling list never share a gradient (a
/// mediant lies strictly between its neighbours), so on them this is
/// the gradient order.
impl Ord for VectorCode {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_gradient(other)
            .then(self.x.cmp(&other.x))
            .then(self.y.cmp(&other.y))
    }
}

impl PartialOrd for VectorCode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for VectorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// Assign `n` sibling codes between the virtual bounds by recursive
/// mediant splitting (the scheme's recursive `Labelling` algorithm —
/// Vector's `N` in the *Recursion Alg.* column). Increment
/// `recursive_calls` once per split.
pub fn bulk_vector(n: usize, recursive_calls: &mut u64) -> Vec<VectorCode> {
    let mut out = vec![VectorCode::LOW; n];
    split(
        &mut out,
        0,
        n,
        VectorCode::LOW,
        VectorCode::HIGH,
        recursive_calls,
    );
    out
}

fn split(
    out: &mut [VectorCode],
    lo: usize,
    hi: usize,
    left: VectorCode,
    right: VectorCode,
    recursive_calls: &mut u64,
) {
    if lo >= hi {
        return;
    }
    *recursive_calls += 1;
    let mid_idx = lo + (hi - lo) / 2;
    // Bulk splitting between the virtual bounds keeps every component
    // ≤ n + 1, far below u64 range for any allocatable n, so saturation
    // never actually engages — it just keeps the routine total.
    let mid = VectorCode {
        x: left.x.saturating_add(right.x),
        y: left.y.saturating_add(right.y),
    };
    out[mid_idx] = mid;
    split(out, lo, mid_idx, left, mid, recursive_calls);
    split(out, mid_idx + 1, hi, mid, right, recursive_calls);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_order() {
        assert_eq!(
            VectorCode::LOW.cmp_gradient(&VectorCode::HIGH),
            Ordering::Less
        );
    }

    #[test]
    fn total_order_refines_the_gradient_and_agrees_with_eq() {
        let codes = [
            VectorCode::LOW,
            VectorCode::new(2, 1),
            VectorCode::new(1, 1),
            VectorCode::new(2, 2),
            VectorCode::new(1, 2),
            VectorCode::HIGH,
        ];
        for a in codes {
            for b in codes {
                assert_eq!(a.cmp(&b) == Ordering::Equal, a == b, "{a} vs {b}");
                if a.cmp_gradient(&b) != Ordering::Equal {
                    assert_eq!(a.cmp(&b), a.cmp_gradient(&b), "{a} vs {b}");
                }
            }
        }
        assert!(codes.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn mediant_is_strictly_between() {
        let a = VectorCode::new(2, 1);
        let b = VectorCode::new(1, 1);
        let m = a.mediant(&b).unwrap();
        assert_eq!(m, VectorCode::new(3, 2));
        assert_eq!(a.cmp_gradient(&m), Ordering::Less);
        assert_eq!(m.cmp_gradient(&b), Ordering::Less);
    }

    #[test]
    fn cross_multiplication_matches_float_gradients() {
        let codes = [
            VectorCode::new(1, 1),
            VectorCode::new(2, 1),
            VectorCode::new(1, 2),
            VectorCode::new(3, 2),
            VectorCode::new(5, 3),
        ];
        for a in codes {
            for b in codes {
                let by_cross = a.cmp_gradient(&b);
                let ga = a.y as f64 / a.x as f64;
                let gb = b.y as f64 / b.x as f64;
                let by_float = ga.partial_cmp(&gb).unwrap();
                assert_eq!(by_cross, by_float, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn comparison_never_overflows_even_at_u64_max() {
        let a = VectorCode::new(u64::MAX, u64::MAX - 1);
        let b = VectorCode::new(u64::MAX - 1, u64::MAX);
        assert_eq!(a.cmp_gradient(&b), Ordering::Less);
        assert_eq!(b.cmp_gradient(&a), Ordering::Greater);
        assert_eq!(a.cmp_gradient(&a), Ordering::Equal);
    }

    #[test]
    fn skewed_insertion_grows_linearly() {
        // Insert always before the current first sibling: after k
        // insertions the code is (k+1, y0) — linear component growth,
        // hence logarithmic bit growth. This is the paper's P3 claim seed.
        let first = VectorCode::new(1, 1);
        let mut cur = first;
        for k in 1..=1000u64 {
            cur = VectorCode::LOW.mediant(&cur).unwrap();
            assert_eq!(cur, VectorCode::new(1 + k, 1));
        }
        assert!(cur.size_bits() <= 40, "still tiny after 1000 inserts");
    }

    #[test]
    fn zigzag_insertion_grows_fibonacci_and_overflows_u64() {
        // Alternating nested insertion produces Fibonacci-growing
        // components: u64 exhausts after ~90 steps. The checked mediant
        // must report it rather than wrap.
        let mut a = VectorCode::new(1, 1);
        let mut b = VectorCode::new(1, 2);
        let mut steps = 0;
        while let Some(m) = a.mediant(&b) {
            a = b;
            b = m;
            steps += 1;
            assert!(steps < 200, "must overflow well before 200 steps");
        }
        assert!(steps > 60, "u64 holds ~90 Fibonacci steps, got {steps}");
    }

    #[test]
    fn bulk_vector_sorted_unique() {
        let mut rc = 0;
        for n in [0usize, 1, 2, 3, 10, 100] {
            let codes = bulk_vector(n, &mut rc);
            assert_eq!(codes.len(), n);
            for w in codes.windows(2) {
                assert_eq!(w[0].cmp_gradient(&w[1]), Ordering::Less);
            }
        }
        assert!(rc > 0);
    }

    #[test]
    fn size_accounting_uses_varints() {
        assert_eq!(VectorCode::new(1, 1).size_bits(), 16);
        assert_eq!(VectorCode::new(200, 1).size_bits(), 24);
        assert!(VectorCode::new(1 << 22, 1).exceeds_utf8());
        assert!(!VectorCode::new((1 << 21) - 1, 1).exceeds_utf8());
    }
}
