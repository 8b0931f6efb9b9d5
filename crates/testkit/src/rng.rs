//! Deterministic, seedable PRNG: SplitMix64 seeding a xoshiro256++ core.
//!
//! This is the single randomness source for the whole workspace — every
//! workload generator, verifier and property test draws from it, so a
//! `(seed, draw sequence)` pair pins a run bit-for-bit on every platform.
//! The generator is *not* cryptographic and must never be used for
//! anything security-sensitive; its job is replayable measurement.
//!
//! The surface mirrors the handful of `rand` calls the repo used before
//! going hermetic: [`TestRng::seed_from_u64`], [`TestRng::gen_range`],
//! [`TestRng::gen_bool`], [`TestRng::choose`], [`TestRng::shuffle`].

use std::ops::Range;

/// xoshiro256++ generator with SplitMix64 seeding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestRng {
    s: [u64; 4],
}

/// One SplitMix64 step: advances `state` and returns the next output.
/// Used to expand a 64-bit seed into the 256-bit xoshiro state, per the
/// reference implementation's seeding recommendation.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl TestRng {
    /// Expand `seed` through SplitMix64 into a full xoshiro256++ state.
    /// Any seed is fine, including 0 (SplitMix64 never yields the
    /// all-zero state that would trap xoshiro).
    pub fn seed_from_u64(seed: u64) -> TestRng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        TestRng { s }
    }

    /// Next raw 64-bit output (xoshiro256++ scrambler).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform draw below `bound` (> 0) via Lemire's multiply-shift with
    /// rejection — unbiased for every bound.
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // threshold = 2^64 mod bound, computed without u128 division
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let m = u128::from(x) * u128::from(bound);
            if (m as u64) >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `range` (half-open, `start < end` required).
    pub fn gen_range<T: RangeInt>(&mut self, range: Range<T>) -> T {
        let lo = range.start.to_u64();
        let hi = range.end.to_u64();
        assert!(lo < hi, "gen_range requires a non-empty range");
        T::from_u64(lo + self.below(hi - lo))
    }

    /// Bernoulli draw: `true` with probability `p` (clamped to [0, 1]).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p >= 1.0 {
            return true;
        }
        if p <= 0.0 {
            return false;
        }
        // compare against p scaled into the full 64-bit range
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < p
    }

    /// Uniformly chosen element of `slice`, `None` when empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.gen_range(0..slice.len())])
        }
    }

    /// Fisher–Yates shuffle, in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.gen_range(0..i + 1);
            slice.swap(i, j);
        }
    }

    /// Fork a stream-independent child generator: used by the property
    /// harness to give every case its own replayable stream.
    pub fn fork(&mut self) -> TestRng {
        TestRng::seed_from_u64(self.next_u64())
    }
}

/// Integer types [`TestRng::gen_range`] accepts. All ranges are mapped
/// through `u64`, which every unsigned type used in this workspace fits.
pub trait RangeInt: Copy {
    /// Widen to the sampling domain.
    fn to_u64(self) -> u64;
    /// Narrow back (the sampled value is always in range by
    /// construction).
    fn from_u64(v: u64) -> Self;
}

macro_rules! range_int {
    ($($t:ty),+) => {$(
        impl RangeInt for $t {
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )+};
}

range_int!(u8, u16, u32, u64, usize);

// Signed types map through an order-preserving bijection (offset by the
// sign bit), so ranges spanning zero sample correctly.
macro_rules! range_int_signed {
    ($($t:ty),+) => {$(
        impl RangeInt for $t {
            fn to_u64(self) -> u64 {
                (self as i64 as u64) ^ (1 << 63)
            }
            fn from_u64(v: u64) -> Self {
                (v ^ (1 << 63)) as i64 as $t
            }
        }
    )+};
}

range_int_signed!(i8, i16, i32, i64, isize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = TestRng::seed_from_u64(7);
        let mut b = TestRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = TestRng::seed_from_u64(8);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn known_answer_vector() {
        // Pin the exact stream: any change to seeding or the core breaks
        // every seed-deterministic number in EXPERIMENTS.md.
        let mut r = TestRng::seed_from_u64(0);
        let got: Vec<u64> = (0..4).map(|_| r.next_u64()).collect();
        assert_eq!(
            got,
            [
                5987356902031041503,
                7051070477665621255,
                6633766593972829180,
                211316841551650330
            ]
        );
    }

    #[test]
    fn gen_range_stays_in_bounds_and_hits_ends() {
        let mut r = TestRng::seed_from_u64(1);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = r.gen_range(10usize..15);
            assert!((10..15).contains(&v));
            seen[v - 10] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values reachable");
    }

    #[test]
    fn gen_range_narrow_types() {
        let mut r = TestRng::seed_from_u64(2);
        for _ in 0..100 {
            let b = r.gen_range(0u8..4);
            assert!(b < 4);
            let w = r.gen_range(1u32..5);
            assert!((1..5).contains(&w));
        }
    }

    #[test]
    fn gen_range_signed_spans_zero() {
        let mut r = TestRng::seed_from_u64(6);
        let mut seen_neg = false;
        let mut seen_pos = false;
        for _ in 0..500 {
            let v = r.gen_range(-5i32..5);
            assert!((-5..5).contains(&v));
            seen_neg |= v < 0;
            seen_pos |= v > 0;
        }
        assert!(seen_neg && seen_pos);
    }

    #[test]
    fn gen_bool_is_calibrated() {
        let mut r = TestRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((2200..2800).contains(&hits), "got {hits} / 10000");
        assert!(r.gen_bool(1.0));
        assert!(!r.gen_bool(0.0));
    }

    #[test]
    fn choose_and_shuffle() {
        let mut r = TestRng::seed_from_u64(4);
        assert_eq!(r.choose::<u8>(&[]), None);
        let pool = [1, 2, 3];
        for _ in 0..50 {
            assert!(pool.contains(r.choose(&pool).unwrap()));
        }
        let mut v: Vec<u32> = (0..20).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
        assert_ne!(v, sorted, "20 elements almost surely move");
    }

    #[test]
    fn fork_produces_independent_streams() {
        let mut parent = TestRng::seed_from_u64(9);
        let mut kid_a = parent.fork();
        let mut kid_b = parent.fork();
        assert_ne!(kid_a.next_u64(), kid_b.next_u64());
    }
}
