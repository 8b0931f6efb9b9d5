//! Wall-clock micro-benchmark harness: warmup, N timed iterations,
//! median/p90 summary, JSON emission into `results/BENCH_<suite>.json`.
//!
//! The harness is intentionally simple — no statistical outlier
//! modelling, just enough repetitions to make medians stable — because
//! the repo's perf trajectory compares *shapes and orderings* between
//! commits, per DESIGN.md, not absolute nanoseconds. Iteration counts
//! can be raised for quieter numbers via `XUPD_BENCH_ITERS`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Instant;

pub use std::hint::black_box;

/// Timing summary of one benchmark case.
///
/// The run-order times are sorted **once**, lazily, into a private
/// cache; every summary statistic (median, p90, min, max) reads that
/// shared sorted slice instead of re-sorting a clone per accessor.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Case name, e.g. `update/random/QED/100`.
    pub name: String,
    /// Per-iteration wall-clock times, nanoseconds, in run order.
    /// Private so the sorted cache can never go stale.
    times_ns: Vec<u64>,
    /// Per-iteration allocation-event deltas (empty or all-zero when the
    /// binary did not install the counting allocator).
    allocs: Vec<u64>,
    /// Per-iteration allocated-byte deltas.
    alloc_bytes: Vec<u64>,
    /// Lazily sorted copy of `times_ns`, shared by all summary stats.
    sorted: OnceLock<Vec<u64>>,
}

impl Sample {
    /// A sample from per-iteration times in run order (no allocation
    /// counts — they report as zero).
    pub fn new(name: impl Into<String>, times_ns: Vec<u64>) -> Sample {
        Sample::with_allocs(name, times_ns, Vec::new(), Vec::new())
    }

    /// A sample carrying per-iteration allocation deltas next to the
    /// times (same run order).
    pub fn with_allocs(
        name: impl Into<String>,
        times_ns: Vec<u64>,
        allocs: Vec<u64>,
        alloc_bytes: Vec<u64>,
    ) -> Sample {
        Sample {
            name: name.into(),
            times_ns,
            allocs,
            alloc_bytes,
            sorted: OnceLock::new(),
        }
    }

    /// Per-iteration wall-clock times, nanoseconds, in run order.
    pub fn times_ns(&self) -> &[u64] {
        &self.times_ns
    }

    fn sorted(&self) -> &[u64] {
        self.sorted.get_or_init(|| {
            let mut t = self.times_ns.clone();
            t.sort_unstable();
            t
        })
    }

    /// Median iteration time.
    pub fn median_ns(&self) -> u64 {
        let t = self.sorted();
        let n = t.len();
        if n == 0 {
            return 0;
        }
        if n % 2 == 1 {
            t[n / 2]
        } else {
            (t[n / 2 - 1] + t[n / 2]) / 2
        }
    }

    /// 90th-percentile iteration time (nearest-rank).
    pub fn p90_ns(&self) -> u64 {
        let t = self.sorted();
        if t.is_empty() {
            return 0;
        }
        let rank = (t.len() * 9).div_ceil(10);
        t[rank.saturating_sub(1)]
    }

    /// Fastest iteration.
    pub fn min_ns(&self) -> u64 {
        self.sorted().first().copied().unwrap_or(0)
    }

    /// Slowest iteration.
    pub fn max_ns(&self) -> u64 {
        self.sorted().last().copied().unwrap_or(0)
    }

    /// Arithmetic mean iteration time.
    pub fn mean_ns(&self) -> u64 {
        if self.times_ns.is_empty() {
            return 0;
        }
        (self.times_ns.iter().map(|&t| u128::from(t)).sum::<u128>() / self.times_ns.len() as u128)
            as u64
    }

    /// Median allocation events per iteration (0 when not counted).
    pub fn allocs(&self) -> u64 {
        median_of(&self.allocs)
    }

    /// Median allocated bytes per iteration (0 when not counted).
    pub fn alloc_bytes(&self) -> u64 {
        median_of(&self.alloc_bytes)
    }
}

fn median_of(values: &[u64]) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2
    }
}

/// A benchmark suite: register cases with [`Harness::bench`], then
/// [`Harness::finish`] to print the table and write the JSON artifact.
#[derive(Debug)]
pub struct Harness {
    suite: String,
    warmup_iters: u32,
    timed_iters: u32,
    samples: Vec<Sample>,
}

impl Harness {
    /// New suite with the default schedule (3 warmup, 15 timed
    /// iterations; override the timed count with `XUPD_BENCH_ITERS`).
    pub fn new(suite: &str) -> Harness {
        let timed = std::env::var("XUPD_BENCH_ITERS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(15);
        Harness::with_schedule(suite, 3, timed)
    }

    /// New suite with an explicit warmup/timed schedule.
    pub fn with_schedule(suite: &str, warmup_iters: u32, timed_iters: u32) -> Harness {
        assert!(timed_iters > 0);
        Harness {
            suite: suite.to_string(),
            warmup_iters,
            timed_iters,
            samples: Vec::new(),
        }
    }

    /// Run one case: `warmup` untimed calls, then the timed iterations.
    /// The closure's return value is passed through [`black_box`] so the
    /// optimiser cannot delete the measured work.
    pub fn bench<R, F: FnMut() -> R>(&mut self, name: &str, f: F) {
        let sample = self.bench_case(name, f);
        self.push(sample);
    }

    /// Measure one case and return its [`Sample`] without recording or
    /// printing anything. Takes `&self`, so per-scheme cases can run on
    /// `xupd-exec` pool workers concurrently — allocation deltas are
    /// per-thread, so each worker's counts cover only its own closure —
    /// and the completed samples are [`Harness::push`]ed on the driving
    /// thread in roster order for deterministic output.
    pub fn bench_case<R, F: FnMut() -> R>(&self, name: &str, mut f: F) -> Sample {
        for _ in 0..self.warmup_iters {
            black_box(f());
        }
        let mut times = Vec::with_capacity(self.timed_iters as usize);
        let mut allocs = Vec::with_capacity(self.timed_iters as usize);
        let mut alloc_bytes = Vec::with_capacity(self.timed_iters as usize);
        for _ in 0..self.timed_iters {
            let (e0, b0) = crate::alloc::counts();
            let start = Instant::now();
            black_box(f());
            let elapsed = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            let (e1, b1) = crate::alloc::counts();
            times.push(elapsed);
            allocs.push(e1 - e0);
            alloc_bytes.push(b1 - b0);
        }
        Sample::with_allocs(name, times, allocs, alloc_bytes)
    }

    /// Record a completed sample: print its summary line and append it
    /// to the suite in push order.
    pub fn push(&mut self, sample: Sample) {
        println!(
            "{:<48} median {:>12}  p90 {:>12}",
            sample.name,
            fmt_ns(sample.median_ns()),
            fmt_ns(sample.p90_ns())
        );
        self.samples.push(sample);
    }

    /// Render the whole suite as JSON (stable field order, no external
    /// serializer).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"suite\": {},", json_str(&self.suite));
        let _ = writeln!(out, "  \"warmup_iters\": {},", self.warmup_iters);
        let _ = writeln!(out, "  \"timed_iters\": {},", self.timed_iters);
        out.push_str("  \"samples\": [\n");
        for (i, s) in self.samples.iter().enumerate() {
            let times: Vec<String> = s.times_ns.iter().map(|t| t.to_string()).collect();
            let _ = write!(
                out,
                "    {{\"name\": {}, \"median_ns\": {}, \"p90_ns\": {}, \
                 \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \
                 \"allocs\": {}, \"alloc_bytes\": {}, \"times_ns\": [{}]}}",
                json_str(&s.name),
                s.median_ns(),
                s.p90_ns(),
                s.mean_ns(),
                s.min_ns(),
                s.max_ns(),
                s.allocs(),
                s.alloc_bytes(),
                times.join(", ")
            );
            out.push_str(if i + 1 < self.samples.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Print the summary footer and write
    /// `<results_dir>/BENCH_<suite>.json`, creating the directory if
    /// needed. Returns the written path.
    pub fn finish(self) -> std::io::Result<PathBuf> {
        let dir = results_dir();
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.suite));
        std::fs::write(&path, self.to_json())?;
        println!(
            "\n{}: {} cases, {} timed iters each -> {}",
            self.suite,
            self.samples.len(),
            self.timed_iters,
            path.display()
        );
        Ok(path)
    }
}

/// Nanoseconds on a monotonic clock, for per-operation latency
/// measurements that cannot flow through [`Harness::bench`] (the store
/// fleet driver times each op inside a pool worker). This module is the
/// only place allowed to touch the wall clock (lint rule R3), so every
/// other crate takes its timestamps from here. The epoch is the first
/// call in the process; only differences are meaningful.
pub fn monotonic_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now()
        .duration_since(epoch)
        .as_nanos()
        .min(u128::from(u64::MAX)) as u64
}

/// The `results/` directory: `XUPD_RESULTS_DIR` when set, otherwise the
/// nearest ancestor of the current directory that already contains
/// `results/`, otherwise `./results`.
pub fn results_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("XUPD_RESULTS_DIR") {
        return PathBuf::from(dir);
    }
    let mut cur = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let cand = cur.join("results");
        if cand.is_dir() {
            return cand;
        }
        if !cur.pop() {
            return PathBuf::from("results");
        }
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Check `path` exists relative to the located results dir — helper for
/// smoke tests of emitted artifacts.
pub fn results_file(name: &str) -> PathBuf {
    results_dir().join(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(times: &[u64]) -> Sample {
        Sample::new("s", times.to_vec())
    }

    #[test]
    fn summary_statistics() {
        let s = sample(&[5, 1, 4, 2, 3]);
        assert_eq!(s.median_ns(), 3);
        assert_eq!(s.min_ns(), 1);
        assert_eq!(s.max_ns(), 5);
        assert_eq!(s.mean_ns(), 3);
        assert_eq!(s.p90_ns(), 5);
        let even = sample(&[1, 2, 3, 4]);
        assert_eq!(even.median_ns(), 2);
        let ten = sample(&[10, 20, 30, 40, 50, 60, 70, 80, 90, 100]);
        assert_eq!(ten.p90_ns(), 90);
    }

    #[test]
    fn summary_stats_share_one_sorted_slice() {
        // Regression: each stat used to sort a fresh clone; now the
        // first accessor sorts once and the rest read the same cache.
        let s = sample(&[5, 1, 4, 2, 3]);
        assert!(s.sorted.get().is_none(), "cache starts empty");
        let _ = s.median_ns();
        let first = s.sorted.get().map(Vec::as_ptr);
        assert!(first.is_some(), "first stat populated the cache");
        let _ = (s.p90_ns(), s.min_ns(), s.max_ns());
        assert_eq!(s.sorted.get().map(Vec::as_ptr), first, "no re-sort");
        assert_eq!(s.sorted.get().unwrap(), &[1, 2, 3, 4, 5]);
        assert_eq!(s.times_ns(), &[5, 1, 4, 2, 3], "run order preserved");
    }

    #[test]
    fn harness_runs_warmup_plus_timed() {
        let mut calls = 0u32;
        let mut h = Harness::with_schedule("unit", 2, 5);
        h.bench("counter", || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 7);
        assert_eq!(h.samples.len(), 1);
        assert_eq!(h.samples[0].times_ns.len(), 5);
    }

    #[test]
    fn bench_case_measures_without_recording() {
        let h = Harness::with_schedule("unit_case", 1, 4);
        let mut calls = 0u32;
        let s = h.bench_case("case", || {
            calls += 1;
            calls
        });
        assert_eq!(calls, 5, "1 warmup + 4 timed");
        assert_eq!(s.times_ns.len(), 4);
        assert_eq!(h.samples.len(), 0, "bench_case does not record");
        let mut h = h;
        h.push(s);
        assert_eq!(h.samples.len(), 1);
        assert_eq!(h.samples[0].name, "case");
    }

    #[test]
    fn json_is_well_formed_enough() {
        let mut h = Harness::with_schedule("unit_json", 0, 3);
        h.bench("a/b \"quoted\"", || 1 + 1);
        let json = h.to_json();
        assert!(json.contains("\"suite\": \"unit_json\""));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"median_ns\""));
        assert!(json.contains("\"allocs\""));
        assert!(json.contains("\"alloc_bytes\""));
        // balanced braces/brackets (cheap well-formedness check)
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn alloc_medians_come_from_per_iteration_deltas() {
        let s = Sample::with_allocs("s", vec![1, 2, 3], vec![4, 10, 6], vec![40, 100, 60]);
        assert_eq!(s.allocs(), 6);
        assert_eq!(s.alloc_bytes(), 60);
        // plain Sample::new reports zeros, not garbage
        let plain = Sample::new("p", vec![1, 2, 3]);
        assert_eq!(plain.allocs(), 0);
        assert_eq!(plain.alloc_bytes(), 0);
    }

    #[test]
    fn results_dir_env_override() {
        // no env mutation (tests run in parallel): just exercise the
        // lookup path
        let d = results_dir();
        assert!(d.ends_with("results") || d.is_dir());
        assert!(results_file("BENCH_x.json")
            .to_string_lossy()
            .contains("BENCH_x.json"));
    }
}
