//! HDR-style fixed-bucket latency histogram.
//!
//! `bench_store` and the fleet replay driver record one latency value
//! per store operation; at p999 over hundreds of thousands of ops a
//! sorted-`Vec` percentile would dominate the measurement itself. This
//! histogram is the classic HdrHistogram bucket layout cut down to the
//! workspace's needs:
//!
//! * **fixed memory** — [`BUCKETS`] `u64` counters regardless of how
//!   many values are recorded;
//! * **bounded relative error** — values below 64 are exact; above
//!   that, each power-of-two octave splits into 32 sub-buckets, so a
//!   reported quantile is at most one sub-bucket (≤ 1/32 ≈ 3.2%) above
//!   the true value;
//! * **deterministic merge** — [`LatencyHistogram::merge`] is
//!   element-wise counter addition: associative, commutative, and
//!   independent of recording order, which is what per-lane histograms
//!   fanned across pool workers need to combine into one stable report.
//!
//! Values are dimensionless `u64`s; every current caller records
//! nanoseconds.

/// Exact buckets for values `0..LINEAR_MAX`.
const LINEAR_MAX: u64 = 64;
/// Sub-buckets per octave above the linear range (2^5).
const SUB_BITS: u32 = 5;
const SUB_COUNT: usize = 1 << SUB_BITS; // 32
/// Octaves above the linear range: msb 6 ..= 63.
const OCTAVES: usize = 58;
/// Total bucket count (64 linear + 58 octaves × 32 sub-buckets).
pub const BUCKETS: usize = LINEAR_MAX as usize + OCTAVES * SUB_COUNT;

/// Fixed-bucket histogram with HdrHistogram-style resolution decay.
#[derive(Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    /// Exact largest recorded value (bucket upper bounds round up).
    max: u64,
    /// Exact smallest recorded value.
    min: u64,
    /// Sum of recorded values (u128: 2^64 ns of total latency overflows
    /// u64 after ~584 years of accumulated ops, but merges add sums).
    sum: u128,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.total)
            .field("min", &self.min)
            .field("p50", &self.quantile(0.50))
            .field("p99", &self.quantile(0.99))
            .field("p999", &self.quantile(0.999))
            .field("max", &self.max)
            .finish()
    }
}

/// Bucket index for a value.
fn index_of(v: u64) -> usize {
    if v < LINEAR_MAX {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= 6 here
    let sub = ((v >> (msb - SUB_BITS)) as usize) & (SUB_COUNT - 1);
    LINEAR_MAX as usize + (msb as usize - 6) * SUB_COUNT + sub
}

/// Highest value that lands in bucket `i` — what quantiles report, so a
/// quantile never under-states the true value.
fn upper_bound(i: usize) -> u64 {
    if i < LINEAR_MAX as usize {
        return i as u64;
    }
    let rel = i - LINEAR_MAX as usize;
    let msb = (rel / SUB_COUNT + 6) as u32;
    let sub = (rel % SUB_COUNT) as u64;
    let lo = (1u64 << msb) + (sub << (msb - SUB_BITS));
    lo + ((1u64 << (msb - SUB_BITS)) - 1)
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
            min: u64::MAX,
            sum: 0,
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.counts[index_of(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
        self.min = self.min.min(v);
        self.sum += u128::from(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    /// Arithmetic mean of recorded values (0 when empty).
    pub fn mean(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            (self.sum / u128::from(self.total)) as u64
        }
    }

    /// The nearest-rank `q`-quantile (`0.0..=1.0`): the smallest bucket
    /// upper bound `v` such that at least `ceil(q · count)` recorded
    /// values are ≤ `v`. Within one sub-bucket (≤ 1/32 relative) of the
    /// exact nearest-rank value; `quantile(1.0)` reports the exact max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return self.max;
        }
        let target = ((q * self.total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                // never report past the true extremes
                return upper_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Fold `other` into `self`: element-wise counter addition, exact
    /// min/max/sum combination. Associative and commutative, so lanes
    /// can merge in any grouping and produce identical counters.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }

    /// The raw bucket counters (test / serialization seam).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::TestRng;

    /// Exact nearest-rank quantile over a value list — the oracle.
    fn exact_quantile(values: &mut [u64], q: f64) -> u64 {
        values.sort_unstable();
        let n = values.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        values[rank - 1]
    }

    #[test]
    fn bucket_layout_round_trips() {
        // every value's bucket upper bound is >= the value and within
        // one sub-bucket width of it
        for v in (0u64..4096).chain([1 << 20, (1 << 20) + 12345, u64::MAX / 2, u64::MAX]) {
            let i = index_of(v);
            let ub = upper_bound(i);
            assert!(ub >= v, "upper bound covers the value: v={v}, ub={ub}");
            if v >= LINEAR_MAX {
                let width = ub - upper_bound(i - 1);
                assert!(
                    ub - v < width,
                    "v={v} lands in its own bucket (ub={ub}, width={width})"
                );
                assert!(
                    (ub - v) as f64 <= v as f64 / 32.0 + 1.0,
                    "relative error bounded: v={v}, ub={ub}"
                );
            } else {
                assert_eq!(ub, v, "linear range is exact");
            }
        }
        assert!(index_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn quantiles_match_exact_nearest_rank_within_bound() {
        let mut rng = TestRng::seed_from_u64(0x4157);
        let mut h = LatencyHistogram::new();
        let mut values: Vec<u64> = Vec::new();
        for _ in 0..10_000 {
            // log-uniform-ish latencies from 10ns to ~100ms
            let mag = rng.gen_range(1..27u32);
            let v = (1u64 << mag) + rng.gen_range(0..(1u64 << mag));
            h.record(v);
            values.push(v);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_quantile(&mut values.clone(), q);
            let got = h.quantile(q);
            assert!(got >= exact, "q={q}: {got} under-states exact {exact}");
            assert!(
                got as f64 <= exact as f64 * (1.0 + 1.0 / 32.0) + 1.0,
                "q={q}: {got} over-states exact {exact} beyond the bucket bound"
            );
        }
        assert_eq!(h.quantile(1.0), *values.iter().max().unwrap(), "p100 exact");
        assert_eq!(h.count(), 10_000);
    }

    #[test]
    fn small_exact_cases() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!((h.min(), h.max(), h.mean()), (0, 0, 0));
        for v in [1u64, 2, 3, 4, 5] {
            h.record(v);
        }
        // linear range: exact nearest-rank answers
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(0.2), 1);
        assert_eq!(h.quantile(0.5), 3);
        assert_eq!(h.quantile(0.8), 4);
        assert_eq!(h.quantile(1.0), 5);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 5);
        assert_eq!(h.mean(), 3);
    }

    #[test]
    fn merge_is_associative_and_order_independent() {
        let mut rng = TestRng::seed_from_u64(0x1234);
        let mut parts: Vec<LatencyHistogram> = Vec::new();
        for _ in 0..3 {
            let mut h = LatencyHistogram::new();
            for _ in 0..500 {
                h.record(rng.gen_range(0..1_000_000));
            }
            parts.push(h);
        }
        let [a, b, c] = [&parts[0], &parts[1], &parts[2]];

        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(b);
        left.merge(c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(c);
        let mut right = a.clone();
        right.merge(&bc);
        // c ⊕ b ⊕ a (commuted)
        let mut rev = c.clone();
        rev.merge(b);
        rev.merge(a);

        for other in [&right, &rev] {
            assert_eq!(left.counts(), other.counts());
            assert_eq!(left.count(), other.count());
            assert_eq!(left.min(), other.min());
            assert_eq!(left.max(), other.max());
            assert_eq!(left.mean(), other.mean());
        }
        // merged quantiles agree with recording everything into one
        let mut one = LatencyHistogram::new();
        for p in &parts {
            one.merge(p);
        }
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(one.quantile(q), left.quantile(q));
        }
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = LatencyHistogram::new();
        h.record(42);
        h.record(9000);
        let before = (h.counts().to_vec(), h.min(), h.max(), h.count());
        h.merge(&LatencyHistogram::new());
        assert_eq!(
            (h.counts().to_vec(), h.min(), h.max(), h.count()),
            before,
            "empty merge changes nothing"
        );
    }
}
