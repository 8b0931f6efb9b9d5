//! Fleet workloads: many user sessions over a store of documents.
//!
//! The store benchmark (PR 9) needs a workload one level above a single
//! [`Script`]: *N* concurrent user sessions, each cycling through
//! open-document / query / batch-update / close against a fleet of
//! documents whose popularity is Zipf-skewed — a handful of hot
//! documents absorb most of the traffic, the long tail is cold. This
//! module generates that workload as **pure data**: a single
//! canonical, totally ordered stream of [`FleetOp`]s, deterministic for
//! a given [`FleetConfig`].
//!
//! The canonical stream is the determinism anchor for the concurrent
//! store: executors may run sessions on any number of workers, but the
//! per-document subsequence of this stream fixes each document's
//! mutation order, so the final fleet state is byte-identical at any
//! `XUPD_THREADS`. Interleaving across sessions is itself randomized
//! (seeded), so the stream genuinely mixes sessions rather than
//! concatenating them.

use crate::script::{Script, ScriptKind};
use xupd_testkit::TestRng;

/// Shape of a generated fleet workload. All fields feed the seeded
/// generator; two equal configs produce byte-identical op streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Master seed; forked per session and per script.
    pub seed: u64,
    /// Concurrent user sessions.
    pub sessions: usize,
    /// Documents in the fleet (ids `0..docs`).
    pub docs: usize,
    /// Open → … → close cycles per session.
    pub visits_per_session: usize,
    /// Query/update operations between each open and close.
    pub ops_per_visit: usize,
    /// Probability an inner operation is a batch update (the rest are
    /// queries).
    pub update_fraction: f64,
    /// Operations per update script.
    pub script_len: usize,
    /// Registered query classes per document; [`FleetOpKind::Query`]
    /// carries an index `0..query_classes`.
    pub query_classes: usize,
    /// Zipf exponent for document popularity (0.0 = uniform; ~1.0 =
    /// classic web-like skew). Document 0 is the hottest.
    pub zipf_s: f64,
}

impl FleetConfig {
    /// A small mixed fleet: quick enough for tests, busy enough to
    /// exercise every op class on every shard.
    pub fn small(seed: u64) -> FleetConfig {
        FleetConfig {
            seed,
            sessions: 8,
            docs: 24,
            visits_per_session: 6,
            ops_per_visit: 5,
            update_fraction: 0.4,
            script_len: 6,
            query_classes: 3,
            zipf_s: 1.0,
        }
    }

    /// The benchmark fleet: enough sessions and documents for stable
    /// throughput and tail-latency numbers.
    pub fn bench(seed: u64) -> FleetConfig {
        FleetConfig {
            seed,
            sessions: 32,
            docs: 96,
            visits_per_session: 12,
            ops_per_visit: 8,
            update_fraction: 0.35,
            script_len: 8,
            query_classes: 3,
            zipf_s: 1.1,
        }
    }
}

/// What a session does at one step of its visit.
#[derive(Debug, Clone, PartialEq)]
pub enum FleetOpKind {
    /// Begin a visit to the document (the store materializes/pins it).
    Open,
    /// Serve the registered query class with this index.
    Query(usize),
    /// Apply this update script as one atomic mutation-log batch.
    Update(Script),
    /// End the visit.
    Close,
}

impl FleetOpKind {
    /// Stable class name for reports and histograms.
    pub fn class(&self) -> &'static str {
        match self {
            FleetOpKind::Open => "open",
            FleetOpKind::Query(_) => "query",
            FleetOpKind::Update(_) => "update",
            FleetOpKind::Close => "close",
        }
    }
}

/// One operation in the canonical fleet stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOp {
    /// Originating session (`0..config.sessions`).
    pub session: u32,
    /// Target document (`0..config.docs`).
    pub doc: u32,
    /// The operation.
    pub kind: FleetOpKind,
}

/// A generated fleet workload: the canonical op stream plus the config
/// that produced it.
#[derive(Debug, Clone)]
pub struct FleetWorkload {
    /// The generating configuration.
    pub config: FleetConfig,
    /// The canonical, totally ordered operation stream.
    pub ops: Vec<FleetOp>,
}

/// Cumulative Zipf distribution over `n` ranks with exponent `s`:
/// `cdf[i]` is the probability of drawing a rank `<= i`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for i in 0..n {
        acc += 1.0 / ((i + 1) as f64).powf(s);
        cdf.push(acc);
    }
    let total = acc.max(f64::MIN_POSITIVE);
    for c in &mut cdf {
        *c /= total;
    }
    cdf
}

/// A uniform draw in `[0, 1)` from the top 53 bits of the generator.
fn unit(rng: &mut TestRng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Draw a rank from the CDF by binary search.
fn sample_cdf(cdf: &[f64], u: f64) -> usize {
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// The update-scenario mix sessions draw from. Zigzag and PrependStorm
/// are left to the adversarial batteries; a fleet mixes the paper's
/// §5.1 scenarios plus deletions.
const FLEET_SCRIPT_KINDS: [ScriptKind; 5] = [
    ScriptKind::Random,
    ScriptKind::Uniform,
    ScriptKind::Skewed,
    ScriptKind::AppendOnly,
    ScriptKind::MixedDelete,
];

impl FleetWorkload {
    /// Generate the canonical op stream for `config`. Deterministic:
    /// equal configs yield equal streams, independent of platform and
    /// of however the stream is later executed.
    pub fn generate(config: FleetConfig) -> FleetWorkload {
        let docs = config.docs.max(1);
        let cdf = zipf_cdf(docs, config.zipf_s.max(0.0));
        let mut master = TestRng::seed_from_u64(config.seed ^ 0xf1ee_7000);

        // Per-session op queues, each from its own forked generator so
        // session contents don't depend on interleaving decisions.
        let mut queues: Vec<std::collections::VecDeque<FleetOp>> = (0..config.sessions)
            .map(|s| {
                let mut rng = master.fork();
                let mut q = std::collections::VecDeque::new();
                for _ in 0..config.visits_per_session {
                    let doc = sample_cdf(&cdf, unit(&mut rng)) as u32;
                    let at = |kind| FleetOp {
                        session: s as u32,
                        doc,
                        kind,
                    };
                    q.push_back(at(FleetOpKind::Open));
                    for _ in 0..config.ops_per_visit {
                        if unit(&mut rng) < config.update_fraction {
                            let kind = *rng.choose(&FLEET_SCRIPT_KINDS).unwrap();
                            let script =
                                Script::generate(kind, config.script_len, 64, rng.next_u64());
                            q.push_back(at(FleetOpKind::Update(script)));
                        } else {
                            let class = if config.query_classes > 1 {
                                rng.gen_range(0..config.query_classes)
                            } else {
                                0
                            };
                            q.push_back(at(FleetOpKind::Query(class)));
                        }
                    }
                    q.push_back(at(FleetOpKind::Close));
                }
                q
            })
            .collect();

        // Canonical interleave: repeatedly pick a random non-empty
        // session and emit its next op. The master generator makes the
        // mix deterministic; per-session order is preserved.
        let total: usize = queues.iter().map(|q| q.len()).sum();
        let mut ops = Vec::with_capacity(total);
        let mut live: Vec<usize> = (0..queues.len())
            .filter(|&s| !queues[s].is_empty())
            .collect();
        while !live.is_empty() {
            let slot = master.gen_range(0..live.len());
            let s = live[slot];
            ops.push(queues[s].pop_front().unwrap());
            if queues[s].is_empty() {
                live.swap_remove(slot);
            }
        }
        FleetWorkload { config, ops }
    }

    /// Count of ops per class name, for reports.
    pub fn class_counts(&self) -> std::collections::BTreeMap<&'static str, usize> {
        let mut counts = std::collections::BTreeMap::new();
        for op in &self.ops {
            *counts.entry(op.kind.class()).or_insert(0) += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = FleetWorkload::generate(FleetConfig::small(7));
        let b = FleetWorkload::generate(FleetConfig::small(7));
        assert_eq!(a.ops, b.ops);
        let c = FleetWorkload::generate(FleetConfig::small(8));
        assert_ne!(a.ops, c.ops, "seed changes the stream");
    }

    #[test]
    fn sessions_are_well_formed_open_close_cycles() {
        let w = FleetWorkload::generate(FleetConfig::small(3));
        let cfg = w.config;
        for s in 0..cfg.sessions as u32 {
            let mine: Vec<&FleetOp> = w.ops.iter().filter(|op| op.session == s).collect();
            assert_eq!(
                mine.len(),
                cfg.visits_per_session * (cfg.ops_per_visit + 2),
                "session {s} emits every op"
            );
            let mut open: Option<u32> = None;
            for op in mine {
                match &op.kind {
                    FleetOpKind::Open => {
                        assert!(open.is_none(), "no nested opens");
                        open = Some(op.doc);
                    }
                    FleetOpKind::Close => {
                        assert_eq!(open.take(), Some(op.doc), "close matches open");
                    }
                    FleetOpKind::Query(class) => {
                        assert_eq!(open, Some(op.doc), "query inside a visit");
                        assert!(*class < cfg.query_classes);
                    }
                    FleetOpKind::Update(script) => {
                        assert_eq!(open, Some(op.doc), "update inside a visit");
                        assert_eq!(script.ops.len(), cfg.script_len);
                    }
                }
            }
            assert!(open.is_none(), "session ends closed");
        }
    }

    #[test]
    fn popularity_is_zipf_skewed() {
        let mut cfg = FleetConfig::small(11);
        cfg.sessions = 64;
        cfg.visits_per_session = 16;
        let w = FleetWorkload::generate(cfg);
        let mut visits = vec![0usize; cfg.docs];
        for op in &w.ops {
            if op.kind == FleetOpKind::Open {
                visits[op.doc as usize] += 1;
            }
        }
        let head: usize = visits[..cfg.docs / 4].iter().sum();
        let tail: usize = visits[cfg.docs - cfg.docs / 4..].iter().sum();
        assert!(
            head > 3 * tail.max(1),
            "hot quartile ({head}) dominates cold quartile ({tail})"
        );
        // every doc id stays in range
        assert!(w.ops.iter().all(|op| (op.doc as usize) < cfg.docs));
    }

    #[test]
    fn stream_mixes_sessions_rather_than_concatenating() {
        let w = FleetWorkload::generate(FleetConfig::small(5));
        let switches = w
            .ops
            .windows(2)
            .filter(|p| p[0].session != p[1].session)
            .count();
        assert!(
            switches > w.config.sessions * 4,
            "interleave switches sessions often ({switches})"
        );
    }

    #[test]
    fn class_counts_pair_every_open_with_a_close() {
        let w = FleetWorkload::generate(FleetConfig::small(9));
        let counts = w.class_counts();
        assert_eq!(
            counts["open"], counts["close"],
            "every open has a matching close"
        );
        assert!(counts["query"] > 0 && counts["update"] > 0);
    }

    #[test]
    fn zipf_cdf_shape() {
        let cdf = zipf_cdf(10, 1.0);
        assert_eq!(cdf.len(), 10);
        assert!((cdf[9] - 1.0).abs() < 1e-12, "normalized");
        assert!(cdf.windows(2).all(|w| w[1] >= w[0]), "monotone");
        // rank 0 mass is the largest single step
        let mass0 = cdf[0];
        assert!(mass0 > cdf[9] - cdf[8]);
        // uniform when s = 0
        let flat = zipf_cdf(4, 0.0);
        assert!((flat[0] - 0.25).abs() < 1e-12);
        // degenerate inputs stay in range
        assert_eq!(sample_cdf(&cdf, 0.999_999_999), 9);
        assert_eq!(sample_cdf(&cdf, 0.0), 0);
    }
}
