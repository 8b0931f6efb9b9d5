//! A small arbitrary-precision unsigned integer, just large enough for the
//! prime-number labelling scheme (Wu, Lee & Hsu, ICDE 2004 — \[25\] in the
//! paper, listed in §6 as future evaluation work).
//!
//! Prime labels are products of primes along the root path, so they
//! outgrow `u128` within a few tree levels; the scheme's ancestor test is
//! divisibility, so we need multiplication, division/remainder and
//! comparison. Implemented as base-2³² limbs, little-endian; correctness
//! over speed — label algebra dominates neither the benchmarks nor the
//! checkers.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer (little-endian 32-bit limbs,
/// no leading zero limbs; zero is the empty limb vector).
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BigUint {
    limbs: Vec<u32>,
}

impl BigUint {
    /// Zero.
    pub fn zero() -> Self {
        BigUint::default()
    }

    /// One.
    pub fn one() -> Self {
        BigUint::from_u64(1)
    }

    /// From a 64-bit value.
    pub fn from_u64(v: u64) -> Self {
        let mut limbs = Vec::new();
        if v != 0 {
            limbs.push(v as u32);
            if v >> 32 != 0 {
                limbs.push((v >> 32) as u32);
            }
        }
        BigUint { limbs }
    }

    /// Is this zero?
    pub fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// Bit length (0 for zero).
    pub fn bit_len(&self) -> u64 {
        match self.limbs.last() {
            None => 0,
            Some(&top) => {
                (self.limbs.len() as u64 - 1) * 32 + (32 - u64::from(top.leading_zeros()))
            }
        }
    }

    fn normalize(&mut self) {
        while self.limbs.last() == Some(&0) {
            self.limbs.pop();
        }
    }

    /// `self * small`.
    pub fn mul_small(&self, small: u64) -> BigUint {
        if small == 0 || self.is_zero() {
            return BigUint::zero();
        }
        // multiply by the low and high 32-bit halves
        let lo = small as u32;
        let hi = (small >> 32) as u32;
        let mut out = self.mul_u32(lo);
        if hi != 0 {
            let mut shifted = self.mul_u32(hi);
            shifted.shl_limbs(1);
            out = out.add(&shifted);
        }
        out
    }

    fn mul_u32(&self, m: u32) -> BigUint {
        let mut limbs = Vec::with_capacity(self.limbs.len() + 1);
        let mut carry: u64 = 0;
        for &l in &self.limbs {
            let prod = u64::from(l) * u64::from(m) + carry;
            limbs.push(prod as u32);
            carry = prod >> 32;
        }
        if carry != 0 {
            limbs.push(carry as u32);
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    fn shl_limbs(&mut self, n: usize) {
        if self.is_zero() {
            return;
        }
        let mut limbs = vec![0u32; n];
        limbs.extend_from_slice(&self.limbs);
        self.limbs = limbs;
    }

    /// `self + other`.
    pub fn add(&self, other: &BigUint) -> BigUint {
        let (a, b) = (&self.limbs, &other.limbs);
        let mut limbs = Vec::with_capacity(a.len().max(b.len()) + 1);
        let mut carry: u64 = 0;
        for i in 0..a.len().max(b.len()) {
            let x = u64::from(a.get(i).copied().unwrap_or(0));
            let y = u64::from(b.get(i).copied().unwrap_or(0));
            let s = x + y + carry;
            limbs.push(s as u32);
            carry = s >> 32;
        }
        if carry != 0 {
            limbs.push(carry as u32);
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// `self - other`; `None` if it would underflow.
    pub fn checked_sub(&self, other: &BigUint) -> Option<BigUint> {
        if self < other {
            return None;
        }
        let mut limbs = Vec::with_capacity(self.limbs.len());
        let mut borrow: i64 = 0;
        for i in 0..self.limbs.len() {
            let x = i64::from(self.limbs[i]);
            let y = i64::from(other.limbs.get(i).copied().unwrap_or(0));
            let mut d = x - y - borrow;
            if d < 0 {
                d += 1 << 32;
                borrow = 1;
            } else {
                borrow = 0;
            }
            limbs.push(d as u32);
        }
        debug_assert_eq!(borrow, 0);
        let mut out = BigUint { limbs };
        out.normalize();
        Some(out)
    }

    /// Shift left by `bits`.
    pub fn shl(&self, bits: u64) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let limb_shift = (bits / 32) as usize;
        let bit_shift = (bits % 32) as u32;
        let mut limbs = vec![0u32; limb_shift];
        if bit_shift == 0 {
            limbs.extend_from_slice(&self.limbs);
        } else {
            let mut carry: u32 = 0;
            for &l in &self.limbs {
                limbs.push((l << bit_shift) | carry);
                carry = (u64::from(l) >> (32 - bit_shift)) as u32;
            }
            if carry != 0 {
                limbs.push(carry);
            }
        }
        let mut out = BigUint { limbs };
        out.normalize();
        out
    }

    /// Test bit `i` (0 = least significant).
    fn bit(&self, i: u64) -> bool {
        let limb = (i / 32) as usize;
        let off = (i % 32) as u32;
        self.limbs.get(limb).is_some_and(|&l| (l >> off) & 1 == 1)
    }

    /// Schoolbook binary long division: `(self / divisor, self % divisor)`.
    ///
    /// # Panics
    /// Panics on division by zero.
    pub fn divrem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        let n = self.bit_len();
        let mut quotient_bits = vec![false; n as usize];
        let mut rem = BigUint::zero();
        for i in (0..n).rev() {
            // rem = rem*2 + bit_i(self)
            rem = rem.shl(1);
            if self.bit(i) {
                rem = rem.add(&BigUint::one());
            }
            if let Some(r) = rem.checked_sub(divisor) {
                rem = r;
                quotient_bits[i as usize] = true;
            }
        }
        // assemble quotient
        let mut q = BigUint::zero();
        for (i, &b) in quotient_bits.iter().enumerate() {
            if b {
                q = q.add(&BigUint::one().shl(i as u64));
            }
        }
        (q, rem)
    }

    /// Is `self` an exact multiple of `other`? (The prime scheme's
    /// ancestor test.)
    pub fn is_multiple_of(&self, other: &BigUint) -> bool {
        if other.is_zero() {
            return self.is_zero();
        }
        self.divrem(other).1.is_zero()
    }

    /// `self % m` as u64, for moduli that fit in u64 (used by the prime
    /// scheme's simultaneous-congruence order numbers).
    pub fn rem_u64(&self, m: u64) -> u64 {
        assert!(m != 0, "modulo zero");
        let mut rem: u128 = 0;
        for &l in self.limbs.iter().rev() {
            rem = ((rem << 32) | u128::from(l)) % u128::from(m);
        }
        rem as u64
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        match self.limbs.len().cmp(&other.limbs.len()) {
            Ordering::Equal => {
                for (a, b) in self.limbs.iter().rev().zip(other.limbs.iter().rev()) {
                    match a.cmp(b) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                Ordering::Equal
            }
            ord => ord,
        }
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return f.write_str("0");
        }
        // Repeated division by 10^9.
        let chunk = BigUint::from_u64(1_000_000_000);
        let mut v = self.clone();
        let mut parts: Vec<u64> = Vec::new();
        while !v.is_zero() {
            let (q, r) = v.divrem(&chunk);
            parts.push(r.rem_u64(1_000_000_000));
            v = q;
        }
        let mut out = String::new();
        for (i, p) in parts.iter().rev().enumerate() {
            if i == 0 {
                out.push_str(&p.to_string());
            } else {
                out.push_str(&format!("{p:09}"));
            }
        }
        f.write_str(&out)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_u64_round_trips_small_values() {
        for v in [0u64, 1, 2, 1000, u32::MAX as u64, u64::MAX] {
            let b = BigUint::from_u64(v);
            assert_eq!(b.rem_u64(u64::MAX), v % u64::MAX);
        }
    }

    #[test]
    fn ordering() {
        let a = BigUint::from_u64(5);
        let b = BigUint::from_u64(7);
        let c = BigUint::from_u64(u64::MAX).mul_small(3);
        assert!(a < b);
        assert!(b < c);
        assert_eq!(a.cmp(&a), Ordering::Equal);
        assert!(BigUint::zero() < a);
    }

    #[test]
    fn add_sub_round_trip() {
        let a = BigUint::from_u64(u64::MAX);
        let b = BigUint::from_u64(12345);
        let s = a.add(&b);
        assert_eq!(s.checked_sub(&b).unwrap(), a);
        assert_eq!(s.checked_sub(&a).unwrap(), b);
        assert!(b.checked_sub(&a).is_none());
    }

    #[test]
    fn divrem_matches_u128() {
        let cases = [
            (1000u64, 7u64),
            (u64::MAX, 3),
            (123456789012345678, 97),
            (5, 10),
        ];
        for (x, y) in cases {
            let (q, r) = BigUint::from_u64(x).divrem(&BigUint::from_u64(y));
            assert_eq!(q.to_string(), (x / y).to_string(), "{x}/{y}");
            assert_eq!(r.to_string(), (x % y).to_string(), "{x}%{y}");
        }
    }

    #[test]
    fn big_product_divisibility() {
        // product of the first primes is divisible by every prefix product
        let primes = [
            2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
        ];
        let mut acc = BigUint::one();
        let mut prefixes = vec![acc.clone()];
        for &p in &primes {
            acc = acc.mul_small(p);
            prefixes.push(acc.clone());
        }
        assert!(acc.bit_len() > 64, "outgrew u64 as intended");
        for pre in &prefixes {
            assert!(acc.is_multiple_of(pre));
        }
        // and not divisible by a foreign prime
        assert!(!acc.is_multiple_of(&BigUint::from_u64(67)));
    }

    #[test]
    fn rem_u64_matches_direct() {
        let v = BigUint::from_u64(u64::MAX).mul_small(u64::MAX);
        // (2^64-1)^2 mod 1e9+7
        let m = 1_000_000_007u64;
        let direct = {
            let x = u128::from(u64::MAX) % u128::from(m);
            (x * x % u128::from(m)) as u64
        };
        assert_eq!(v.rem_u64(m), direct);
    }

    #[test]
    fn display_large_decimal() {
        let v = BigUint::from_u64(10).mul_small(u64::MAX);
        assert_eq!(v.to_string(), (u128::from(u64::MAX) * 10).to_string());
        assert_eq!(BigUint::zero().to_string(), "0");
    }

    #[test]
    fn shl_and_bits() {
        let v = BigUint::one().shl(100);
        assert_eq!(v.bit_len(), 101);
        assert!(v.bit(100));
        assert!(!v.bit(99));
        assert!(!v.bit(101));
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn divide_by_zero_panics() {
        BigUint::one().divrem(&BigUint::zero());
    }
}
