//! # xupd-testkit — hermetic test & bench substrate
//!
//! The workspace's only randomness, property-testing and benchmarking
//! layer, with **zero external dependencies** — the repo must build and
//! verify with `CARGO_NET_OFFLINE=true` and an empty registry cache
//! (EXPERIMENTS.md's reproducibility contract).
//!
//! Three modules:
//!
//! * [`rng`] — deterministic SplitMix64-seeded xoshiro256++
//!   ([`rng::TestRng`]): the single seed-replayable randomness source
//!   for workload generators and verifiers.
//! * [`prop`] — a bounded property-testing harness (generator
//!   combinators, the [`props!`] macro, greedy shrinking, failure-seed
//!   reporting) that the former proptest suites run on.
//! * [`mod@bench`] — a wall-clock micro-bench harness (warmup, timed
//!   iterations, median/p90, JSON emitted into
//!   `results/BENCH_<suite>.json`) that the former criterion benches
//!   run on, as plain offline binaries. It also hosts
//!   [`bench::monotonic_ns`], the workspace's single sanctioned
//!   monotonic clock (lint rule R3 bans ambient clocks everywhere
//!   else).
//! * [`hist`] — an HDR-style fixed-bucket latency histogram
//!   ([`hist::LatencyHistogram`]: `record`/`quantile`/`merge`) for the
//!   store fleet benches, where per-op latencies at p999 volume would
//!   drown a sorted-vector percentile.
//!
//! Replaying a property failure: the panic report prints the failing
//! case's seed; rerun with `XUPD_PROP_SEED=<seed> cargo test <name>`.

pub mod alloc;
pub mod bench;
pub mod hist;
pub mod prop;
pub mod rng;

pub use hist::LatencyHistogram;
pub use rng::TestRng;
