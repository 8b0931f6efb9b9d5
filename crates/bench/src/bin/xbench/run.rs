//! The untraced repetitions and the correctness gate.
//!
//! One repetition builds a fresh store from one stream's freshly
//! generated documents (timed as set-up) and replays that stream's ops
//! back to back on the calling thread: a closed loop with one client,
//! the way an embedded store's callers wait on each call. A round runs
//! every stream once. The number of rounds follows from `--seconds`
//! alone (see [`rounds_for`]), so a run does the same work on any
//! commit and any machine.
//!
//! Every repetition of a stream replays the same ops from the same
//! state, so each op's service time is taken as the fastest of its
//! repetitions: outside load on a shared host only ever adds time, and
//! a burst of it that slows one repetition does not reach the result.
//! Percentiles are then taken over those per-op times, exactly (raw
//! samples, no histogram buckets).

use xupd_encoding::parse_xpath;
use xupd_flux::StoreUpdate;
use xupd_framework::{Document, QueryCache};
use xupd_schemes::prefix::qed::Qed;
use xupd_store::{Store, StoreConfig};
use xupd_testkit::bench::monotonic_ns;
use xupd_workloads::{FleetOpKind, FleetWorkload};
use xupd_xmldom::serialize_compact;

use crate::allocated;
use crate::mirror::Mirror;
use crate::workload::{Ops, Stream, QUERY_CLASSES};

/// Every workload's streams are sized so that one round takes about
/// this long on the reference machine (see README.md).
pub const ROUND_SECONDS: f64 = 5.0;

/// Fewest rounds a run makes: best-of-three per op, and two final
/// states at least for the determinism check.
pub const MIN_ROUNDS: usize = 3;

/// Rounds for a run of about `seconds`.
pub fn rounds_for(seconds: f64) -> usize {
    ((seconds / ROUND_SECONDS).round() as usize).max(MIN_ROUNDS)
}

/// One repetition of one stream.
#[derive(Debug, Default)]
struct Rep {
    update_ns: Vec<u64>,
    update_alloc_bytes: u64,
    attempted: u64,
    failed: u64,
}

impl Rep {
    /// Record one update; `alloc_bytes` is read before this call, whose
    /// push may grow `update_ns`.
    fn record_update(&mut self, ns: u64, alloc_bytes: u64) {
        self.update_alloc_bytes += alloc_bytes;
        self.update_ns.push(ns);
    }
}

/// What one stream's repetitions measured.
#[derive(Debug, Default)]
pub struct StreamSamples {
    /// Per repetition, the service time of each update op, in stream
    /// order.
    pub update_ns: Vec<Vec<u64>>,
    /// Per repetition, the wall time of the replay (set-up excluded).
    pub replay_ns: Vec<u64>,
    /// Bytes allocated inside the update calls, all repetitions.
    pub update_alloc_bytes: u64,
    /// Ops attempted, all repetitions.
    pub attempted: u64,
    /// Ops the store rejected, all repetitions.
    pub failed: u64,
    /// Digest of each repetition's final `Store::state_dump`.
    pub digests: Vec<u64>,
}

impl StreamSamples {
    /// Each update op's service time: the fastest of its repetitions.
    pub fn update_best(&self) -> Vec<u64> {
        per_op_min(&self.update_ns)
    }
}

/// Element-wise minimum across repetitions.
pub fn per_op_min<R: AsRef<[u64]>>(reps: &[R]) -> Vec<u64> {
    let ops = reps.iter().map(|r| r.as_ref().len()).min().unwrap_or(0);
    (0..ops)
        .map(|i| reps.iter().map(|r| r.as_ref()[i]).min().unwrap_or(0))
        .collect()
}

/// What the untraced repetitions measured.
pub struct Measured {
    /// Set-up time of each repetition: generate documents +
    /// `Store::build`.
    pub setup_ns: Vec<u64>,
    /// Per stream, in stream order.
    pub streams: Vec<StreamSamples>,
    /// `VmHWM` after the last repetition, KiB.
    pub peak_rss_kib: u64,
    /// Stream 0's store after its last repetition.
    pub store: Store<Qed>,
}

impl Measured {
    /// Ops attempted, all streams.
    pub fn attempted(&self) -> u64 {
        self.streams.iter().map(|s| s.attempted).sum()
    }

    /// Ops rejected, all streams.
    pub fn failed(&self) -> u64 {
        self.streams.iter().map(|s| s.failed).sum()
    }
}

/// Run `rounds` rounds over `streams`, calling `after_round` at the end
/// of each.
pub fn measure(
    streams: &[Stream],
    rounds: usize,
    mut after_round: impl FnMut() -> Result<(), String>,
) -> Result<Measured, String> {
    let config = StoreConfig::fleet();
    let mut samples: Vec<StreamSamples> =
        streams.iter().map(|_| StreamSamples::default()).collect();
    let mut setup_ns = Vec::new();
    let mut last = None;
    for _ in 0..rounds {
        // Stream 0 runs last, so its store is the one left for the gate.
        for k in (1..streams.len()).chain([0]) {
            // Free the previous store first, so two never coexist.
            drop(last.take());
            let t0 = monotonic_ns();
            let trees = streams[k].documents();
            let store = Store::build(&Qed::new(), &config, &trees).map_err(|e| e.to_string())?;
            let setup = monotonic_ns() - t0;
            drop(trees);

            let ops = streams[k].ops();
            let t0 = monotonic_ns();
            let rep = replay(&store, &ops);
            let replay_ns = monotonic_ns() - t0;
            drop(ops);

            setup_ns.push(setup);
            let s = &mut samples[k];
            s.update_ns.push(rep.update_ns);
            s.replay_ns.push(replay_ns);
            s.update_alloc_bytes += rep.update_alloc_bytes;
            s.attempted += rep.attempted;
            s.failed += rep.failed;
            s.digests.push(fnv1a(store.state_dump().as_bytes()));
            last = Some(store);
        }
        after_round()?;
    }
    Ok(Measured {
        setup_ns,
        streams: samples,
        peak_rss_kib: read_peak_rss_kib()?,
        store: last.ok_or("a run needs at least one round")?,
    })
}

fn replay(store: &Store<Qed>, ops: &Ops) -> Rep {
    let mut m = Rep::default();
    match ops {
        Ops::Fleet(fleet) => {
            for op in &fleet.ops {
                let outcome = match &op.kind {
                    FleetOpKind::Open => store.open_doc(op.doc),
                    FleetOpKind::Query(class) => store.serve_query(op.doc, *class).map(drop),
                    FleetOpKind::Update(script) => {
                        let a = allocated();
                        let t0 = monotonic_ns();
                        let outcome = store.apply_script(op.doc, script).map(drop);
                        m.record_update(monotonic_ns() - t0, allocated() - a);
                        outcome
                    }
                    FleetOpKind::Close => store.close_doc(op.doc),
                };
                m.attempted += 1;
                m.failed += u64::from(outcome.is_err());
            }
        }
        Ops::Flux(rounds) => {
            for round in *rounds {
                for (doc, src) in (0u32..).zip(round) {
                    let a = allocated();
                    let t0 = monotonic_ns();
                    let outcome = store.update(doc, src).map(drop);
                    m.record_update(monotonic_ns() - t0, allocated() - a);
                    m.attempted += 1;
                    m.failed += u64::from(outcome.is_err());
                    for class in 0..QUERY_CLASSES {
                        let outcome = store.serve_query(doc, class);
                        m.attempted += 1;
                        m.failed += u64::from(outcome.is_err());
                    }
                }
            }
        }
    }
    m
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The process's peak resident set (`VmHWM`), KiB.
fn read_peak_rss_kib() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The correctness gate over the untraced run. Returns one message per
/// failed check; empty means correct.
///
/// * every repetition of a stream ended in the same state (digest of
///   the state dump: tree bytes, per-document counters, cache
///   counters);
/// * in stream 0's final store, every document's labelling verifies
///   sound, and every cached query result (rows and strings) equals a
///   fresh registration on the final tree;
/// * on fleet workloads, every final tree of stream 0 equals the tree
///   the per-op script driver (`Document::apply`) produces from the
///   same scripts — an oracle that shares neither `batch_of` nor the
///   analyzer with the store's path.
pub fn gate(stream0: &Stream, m: &Measured) -> Vec<String> {
    let mut failures = Vec::new();
    for (k, s) in m.streams.iter().enumerate() {
        if s.digests.windows(2).any(|w| w[0] != w[1]) {
            failures.push(format!(
                "stream {k}: repetitions diverged: {:x?}",
                s.digests
            ));
        }
    }
    let exprs = StoreConfig::fleet().query_exprs;
    m.store.for_each_doc(|id, slot| {
        let doc = slot.doc();
        match doc.verify() {
            Ok(v) if v.is_sound() => {}
            Ok(_) => failures.push(format!("doc {id}: labelling is not sound")),
            Err(e) => failures.push(format!("doc {id}: verify failed: {e}")),
        }
        for (q, expr) in exprs.iter().enumerate() {
            let mut fresh = QueryCache::new();
            let registered = parse_xpath(expr).map_err(|e| e.to_string()).and_then(|x| {
                fresh
                    .register(&x, true, doc.tree())
                    .map_err(|e| e.to_string())
            });
            match registered {
                Ok(f) => {
                    if doc.cached_rows(q) != Some(fresh.rows(f))
                        || doc.cached_strings_ref(q) != Some(fresh.strings(f))
                    {
                        failures.push(format!(
                            "doc {id}: cached {expr} differs from a fresh evaluation"
                        ));
                    }
                }
                Err(e) => failures.push(format!("doc {id}: cannot evaluate {expr}: {e}")),
            }
        }
    });
    if let Ops::Fleet(fleet) = stream0.ops() {
        failures.extend(fleet_oracle(stream0, &fleet, &m.store));
    }
    failures
}

fn fleet_oracle(stream: &Stream, fleet: &FleetWorkload, store: &Store<Qed>) -> Vec<String> {
    let mut oracle = Vec::new();
    for tree in stream.documents() {
        match Document::encode(Qed::new(), &tree) {
            Ok(d) => oracle.push(d),
            Err(e) => return vec![format!("oracle cannot label a document: {e}")],
        }
    }
    for op in &fleet.ops {
        if let (FleetOpKind::Update(script), Some(d)) = (&op.kind, oracle.get_mut(op.doc as usize))
        {
            if let Err(e) = d.apply(script) {
                return vec![format!("oracle rejected a script on doc {}: {e}", op.doc)];
            }
        }
    }
    let mut failures = Vec::new();
    store.for_each_doc(|id, slot| {
        let same = oracle
            .get(id as usize)
            .is_some_and(|d| serialize_compact(d.tree()) == serialize_compact(slot.doc().tree()));
        if !same {
            failures.push(format!("doc {id}: tree differs from the per-op driver"));
        }
    });
    failures
}

/// The traced mirror must end where the store ended: same tree bytes
/// and same cache counters on every document, and in each repetition
/// as many rejected batches as one repetition of stream 0 had failed
/// ops.
pub fn gate_mirror(mirror: &Mirror, m: &Measured) -> Vec<String> {
    let (store, stream0) = (&m.store, &m.streams[0]);
    let mut failures = Vec::new();
    if mirror.len() != store.len() {
        failures.push(format!(
            "mirror has {} documents, store {}",
            mirror.len(),
            store.len()
        ));
        return failures;
    }
    let store_failed = stream0.failed / stream0.replay_ns.len().max(1) as u64;
    if mirror.counters.rejected != store_failed * mirror.reps as u64 {
        failures.push(format!(
            "mirror rejected {} batches in {} repetitions, store failed {store_failed} ops in one",
            mirror.counters.rejected, mirror.reps
        ));
    }
    store.for_each_doc(|id, slot| {
        let i = id as usize;
        if serialize_compact(mirror.tree(i)) != serialize_compact(slot.doc().tree()) {
            failures.push(format!("doc {id}: mirror tree differs from the store"));
        }
        if mirror.cache_stats(i) != *slot.doc().cache_stats() {
            failures.push(format!(
                "doc {id}: mirror cache counters differ from the store"
            ));
        }
    });
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_op_min_drops_slowed_repetitions() {
        let reps = vec![vec![10, 20, 30], vec![11, 900, 31], vec![12, 21, 900]];
        assert_eq!(per_op_min(&reps), vec![10, 20, 30]);
        assert!(per_op_min::<Vec<u64>>(&[]).is_empty());
    }

    #[test]
    fn oracle_rejects_a_store_that_missed_its_updates() {
        let streams = crate::workload::Workload::FleetSmall.streams(3, false);
        let Ops::Fleet(fleet) = streams[0].ops() else {
            panic!("fleet workloads have fleet streams");
        };
        let trees = streams[0].documents();
        let untouched = Store::build(&Qed::new(), &StoreConfig::fleet(), &trees).expect("store");
        assert!(!fleet_oracle(&streams[0], &fleet, &untouched).is_empty());
        let m = measure(&streams, MIN_ROUNDS, || Ok(())).expect("run");
        assert!(fleet_oracle(&streams[0], &fleet, &m.store).is_empty());
    }

    #[test]
    fn rounds_follow_seconds_alone() {
        assert_eq!(rounds_for(0.0), MIN_ROUNDS);
        assert_eq!(rounds_for(15.0), 3);
        assert_eq!(rounds_for(40.0), 8);
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn peak_rss_is_readable_and_positive() {
        assert!(read_peak_rss_kib().expect("VmHWM") > 0);
    }
}
