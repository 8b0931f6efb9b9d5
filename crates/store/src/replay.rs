//! Fleet replay: canonical op stream → sharded writer lanes.
//!
//! The [`FleetWorkload`] is one totally ordered op stream. Replay
//! projects it onto the store's shards — every op goes to the lane
//! owning its document, **in stream order** — and runs the lanes on the
//! [`xupd_exec`] pool, lane `l` in group `l % workers`, one group per
//! pool thread. A group runs its ops in stream order, so every document
//! sees exactly its canonical op subsequence at any worker count, which
//! is the whole determinism argument:
//!
//! > final state = fold(per-doc op subsequence) — independent of how
//! > lanes interleave on workers.
//!
//! [`replay_reference`] is the spec executor: a plain sequential loop
//! over the canonical stream on the calling thread. The differential
//! suite compares [`Store::state_dump`] after a concurrent replay
//! against the dump after a reference replay of a fresh store — they
//! must be byte-identical at any `XUPD_THREADS`.
//!
//! Timing (latency histograms, busy nanoseconds, wall time) is
//! measurement, not state: it feeds reports and never the dump.

use crate::store::Store;
use xupd_labelcore::LabelingScheme;
use xupd_testkit::bench::monotonic_ns;
use xupd_testkit::LatencyHistogram;
use xupd_workloads::{FleetOp, FleetOpKind, FleetWorkload};

/// The four store op classes, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// Begin a visit.
    Open,
    /// Registered query served through the lane.
    Query,
    /// Atomic mutation-log batch.
    Update,
    /// End a visit.
    Close,
}

impl OpClass {
    /// All classes, in report order.
    pub const ALL: [OpClass; 4] = [
        OpClass::Open,
        OpClass::Query,
        OpClass::Update,
        OpClass::Close,
    ];

    /// Stable name, matching [`FleetOpKind::class`].
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Open => "open",
            OpClass::Query => "query",
            OpClass::Update => "update",
            OpClass::Close => "close",
        }
    }

    /// Histogram slot.
    pub fn index(self) -> usize {
        match self {
            OpClass::Open => 0,
            OpClass::Query => 1,
            OpClass::Update => 2,
            OpClass::Close => 3,
        }
    }

    /// Class of a fleet op.
    pub fn of(kind: &FleetOpKind) -> OpClass {
        match kind {
            FleetOpKind::Open => OpClass::Open,
            FleetOpKind::Query(_) => OpClass::Query,
            FleetOpKind::Update(_) => OpClass::Update,
            FleetOpKind::Close => OpClass::Close,
        }
    }
}

/// Measurements of one writer lane.
#[derive(Debug, Clone)]
pub struct LaneMetrics {
    /// Per-class service-time histograms (op start → op completion,
    /// nanoseconds), indexed by [`OpClass::index`]. Queue wait is
    /// excluded: a replay offers the whole trace at once, so
    /// submit-to-completion time would measure the backlog, not the
    /// store.
    pub per_class: [LatencyHistogram; 4],
    /// Total service time spent executing this lane's ops.
    pub busy_ns: u64,
    /// Ops executed.
    pub ops: u64,
}

impl LaneMetrics {
    fn new() -> LaneMetrics {
        LaneMetrics {
            per_class: std::array::from_fn(|_| LatencyHistogram::new()),
            busy_ns: 0,
            ops: 0,
        }
    }
}

/// What a replay measured. State lives in the [`Store`]; this is
/// timing only.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Per-lane measurements, indexed by shard.
    pub lanes: Vec<LaneMetrics>,
    /// Wall time of the whole replay, first op to last.
    pub wall_ns: u64,
    /// Pool threads the replay ran on (1 = inline on the caller).
    pub workers: usize,
}

impl ReplayReport {
    /// Ops executed across all lanes.
    pub fn total_ops(&self) -> u64 {
        self.lanes.iter().map(|l| l.ops).sum()
    }

    /// Total service time across all lanes — the single-threaded cost
    /// of the workload.
    pub fn busy_total_ns(&self) -> u64 {
        self.lanes.iter().map(|l| l.busy_ns).sum()
    }

    /// One class's latency distribution merged across lanes
    /// (deterministic merge — lane order does not matter).
    pub fn class_histogram(&self, class: OpClass) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for lane in &self.lanes {
            h.merge(&lane.per_class[class.index()]);
        }
        h
    }

    /// Modelled makespan at `workers` threads: lanes are bound to
    /// workers round-robin (`lane % workers`, the placement
    /// [`replay_concurrent`] uses) and a worker's finish time is the sum
    /// of its lanes' busy time. `modelled_makespan_ns(1)` equals
    /// [`ReplayReport::busy_total_ns`]. This is the machine-independent
    /// scaling figure single-CPU CI reports alongside measured wall
    /// time.
    pub fn modelled_makespan_ns(&self, workers: usize) -> u64 {
        let workers = workers.max(1).min(self.lanes.len().max(1));
        let mut per_worker = vec![0u64; workers];
        for (lane, m) in self.lanes.iter().enumerate() {
            per_worker[lane % workers] += m.busy_ns;
        }
        per_worker.into_iter().max().unwrap_or(0)
    }

    /// Throughput in ops per second over the measured wall time.
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.total_ops() as f64 * 1e9 / self.wall_ns as f64
        }
    }
}

/// Execute one fleet op against the store and record its service time
/// into `lane`. Rejections are counted on the document (deterministic),
/// never raised: a fleet replay is a workload, not a validator.
fn run_op<S: LabelingScheme + Clone + 'static>(
    store: &Store<S>,
    op: &FleetOp,
    lane: &mut LaneMetrics,
) {
    let t0 = monotonic_ns();
    let outcome = match &op.kind {
        FleetOpKind::Open => store.open_doc(op.doc),
        FleetOpKind::Query(class) => store.serve_query(op.doc, *class).map(|_| ()),
        FleetOpKind::Update(script) => store.apply_script(op.doc, script).map(|_| ()),
        FleetOpKind::Close => store.close_doc(op.doc),
    };
    if outcome.is_err() {
        store.count_error(op.doc);
    }
    let dt = monotonic_ns().saturating_sub(t0);
    lane.busy_ns += dt;
    lane.ops += 1;
    lane.per_class[OpClass::of(&op.kind).index()].record(dt);
}

/// The spec executor: run the canonical stream sequentially on the
/// calling thread, in stream order. Lane metrics are still recorded
/// per shard so the modelled makespan can be computed from a reference
/// run.
pub fn replay_reference<S: LabelingScheme + Clone + 'static>(
    store: &Store<S>,
    fleet: &FleetWorkload,
) -> ReplayReport {
    let mut lanes: Vec<LaneMetrics> = (0..store.shards()).map(|_| LaneMetrics::new()).collect();
    let t_begin = monotonic_ns();
    for op in &fleet.ops {
        run_op(store, op, &mut lanes[store.shard_of(op.doc)]);
    }
    ReplayReport {
        lanes,
        wall_ns: monotonic_ns().saturating_sub(t_begin),
        workers: 1,
    }
}

/// Replay the canonical stream through per-shard writer lanes on
/// `min(workers, shards)` pool threads ([`xupd_exec::par_map_with`]).
/// Lane `l` belongs to group `l % workers`, the placement
/// [`ReplayReport::modelled_makespan_ns`] models; each group runs its
/// ops in stream order on one thread, so every document executes its
/// canonical subsequence regardless of `workers`. Histograms record
/// per-op service time (see [`LaneMetrics::per_class`]).
///
/// # Panics
///
/// A panicking op follows the pool's contract: it ends its group's run,
/// the other groups finish, and the payload of the lowest-numbered
/// panicking group is re-raised here. At width 1 every op runs inline
/// and a panic propagates at once, as under [`replay_reference`]. The
/// store stays usable afterwards: its locks recover from poisoning, and
/// a batch that panicked was rolled back before the panic left its
/// document.
pub fn replay_concurrent<S>(store: &Store<S>, fleet: &FleetWorkload, workers: usize) -> ReplayReport
where
    S: LabelingScheme + Clone + 'static,
    Store<S>: Sync,
{
    let lane_count = store.shards();
    let workers = workers.clamp(1, lane_count);
    let t_begin = monotonic_ns();
    let mut groups: Vec<Vec<&FleetOp>> = vec![Vec::new(); workers];
    for op in &fleet.ops {
        groups[store.shard_of(op.doc) % workers].push(op);
    }
    let ran = xupd_exec::par_map_with(workers, &groups, |ops| {
        let mut lanes: Vec<LaneMetrics> = (0..lane_count).map(|_| LaneMetrics::new()).collect();
        for op in ops {
            run_op(store, op, &mut lanes[store.shard_of(op.doc)]);
        }
        lanes
    });
    let wall_ns = monotonic_ns().saturating_sub(t_begin);
    ReplayReport {
        lanes: (0..lane_count)
            .map(|lane| ran[lane % workers][lane].clone())
            .collect(),
        wall_ns,
        workers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::StoreConfig;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use xupd_framework::Document;
    use xupd_labelcore::{InsertReport, Labeling, Relation, SchemeDescriptor, SchemeStats};
    use xupd_schemes::prefix::qed::Qed;
    use xupd_workloads::{docs, FleetConfig};
    use xupd_xmldom::{NodeId, TreeError, XmlTree};

    fn fleet_store<S: LabelingScheme + Clone + 'static>(
        scheme: &S,
        shards: usize,
        docs_n: usize,
    ) -> Store<S> {
        let trees: Vec<XmlTree> = (0..docs_n as u64)
            .map(|i| docs::xmark_like(i, 30))
            .collect();
        let mut cfg = StoreConfig::fleet();
        cfg.shards = shards;
        Store::build(scheme, &cfg, &trees).unwrap()
    }

    /// State matches the reference at every width, and every lane's
    /// metrics come from the group that ran it: a lane counts exactly
    /// the fleet ops placed on its shard, and its class histograms count
    /// each of those ops once.
    #[test]
    fn concurrent_replay_matches_reference_state() {
        let fleet = FleetWorkload::generate(FleetConfig::small(21));
        let reference = fleet_store(&Qed::new(), 4, fleet.config.docs);
        let ref_report = replay_reference(&reference, &fleet);
        let expected = reference.state_dump();

        for workers in [1, 2, 3, 8] {
            let store = fleet_store(&Qed::new(), 4, fleet.config.docs);
            let report = replay_concurrent(&store, &fleet, workers);
            assert_eq!(
                store.state_dump(),
                expected,
                "state diverged at {workers} workers"
            );
            assert_eq!(report.total_ops(), ref_report.total_ops());
            assert_eq!(report.workers, workers.min(4));
            for (shard, lane) in report.lanes.iter().enumerate() {
                let placed = fleet
                    .ops
                    .iter()
                    .filter(|op| store.shard_of(op.doc) == shard)
                    .count();
                assert_eq!(
                    lane.ops as usize, placed,
                    "{workers} workers: lane {shard} ops"
                );
                let recorded: u64 = lane.per_class.iter().map(LatencyHistogram::count).sum();
                assert_eq!(
                    recorded, lane.ops,
                    "{workers} workers: lane {shard} histograms"
                );
            }
        }
    }

    const INSERT_PANIC: &str = "injected panic after an insert label write";

    /// QED whose `panic_at`-th `on_insert`, counted across all clones,
    /// panics after writing its label.
    #[derive(Clone)]
    struct PanicAt {
        inner: Qed,
        inserts: Arc<AtomicUsize>,
        panic_at: usize,
    }

    impl LabelingScheme for PanicAt {
        type Label = <Qed as LabelingScheme>::Label;

        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn descriptor(&self) -> SchemeDescriptor {
            self.inner.descriptor()
        }
        fn label_tree(&mut self, tree: &XmlTree) -> Result<Labeling<Self::Label>, TreeError> {
            self.inner.label_tree(tree)
        }
        fn on_insert(
            &mut self,
            tree: &XmlTree,
            labeling: &mut Labeling<Self::Label>,
            node: NodeId,
        ) -> Result<InsertReport, TreeError> {
            let report = self.inner.on_insert(tree, labeling, node);
            if self.inserts.fetch_add(1, Ordering::Relaxed) + 1 == self.panic_at {
                panic!("{INSERT_PANIC}");
            }
            report
        }
        fn on_delete(
            &mut self,
            tree: &XmlTree,
            labeling: &mut Labeling<Self::Label>,
            node: NodeId,
        ) {
            self.inner.on_delete(tree, labeling, node);
        }
        fn cmp_doc(&self, a: &Self::Label, b: &Self::Label) -> std::cmp::Ordering {
            self.inner.cmp_doc(a, b)
        }
        fn relation(&self, rel: Relation, a: &Self::Label, b: &Self::Label) -> Option<bool> {
            self.inner.relation(rel, a, b)
        }
        fn level(&self, a: &Self::Label) -> Option<u32> {
            self.inner.level(a)
        }
        fn stats(&self) -> &SchemeStats {
            self.inner.stats()
        }
        fn reset_stats(&mut self) {
            self.inner.reset_stats();
        }
        fn order_independent(&self) -> bool {
            self.inner.order_independent()
        }
        fn cancellation_neutral(&self) -> bool {
            self.inner.cancellation_neutral()
        }
    }

    /// A scheme panic mid-replay reaches the caller inline and on the
    /// pool, and leaves a store whose locks, labels and caches are sound.
    #[test]
    fn a_panicking_op_reaches_the_caller_and_leaves_the_store_sound() {
        let fleet = FleetWorkload::generate(FleetConfig::small(21));
        let exprs = StoreConfig::fleet().query_exprs;
        for workers in [1, 4] {
            let scheme = PanicAt {
                inner: Qed::new(),
                inserts: Arc::new(AtomicUsize::new(0)),
                panic_at: 40,
            };
            let store = fleet_store(&scheme, 4, fleet.config.docs);
            let payload = catch_unwind(AssertUnwindSafe(|| {
                replay_concurrent(&store, &fleet, workers)
            }))
            .expect_err("the injected panic reaches the caller");
            assert_eq!(
                payload.downcast_ref::<String>().map(String::as_str),
                Some(INSERT_PANIC),
                "{workers} workers: unexpected payload"
            );
            // the panicking op poisoned its slot's lock; reads recover it
            assert!(!store.state_dump().is_empty());
            store.for_each_doc(|id, slot| {
                let doc = slot.doc();
                assert!(
                    doc.verify().unwrap().is_sound(),
                    "{workers} workers: doc {id} unsound"
                );
                let mut fresh = Document::encode(Qed::new(), doc.tree()).unwrap();
                for (q, expr) in exprs.iter().enumerate() {
                    let f = fresh.register_query(expr, true).unwrap();
                    assert_eq!(
                        doc.cached_rows(q),
                        fresh.cached_rows(f),
                        "{workers} workers: doc {id} {expr} rows"
                    );
                    assert_eq!(
                        doc.cached_strings_ref(q),
                        fresh.cached_strings_ref(f),
                        "{workers} workers: doc {id} {expr} strings"
                    );
                }
            });
        }
    }

    #[test]
    fn report_counts_match_the_workload() {
        let fleet = FleetWorkload::generate(FleetConfig::small(2));
        let store = fleet_store(&Qed::new(), 3, fleet.config.docs);
        let report = replay_reference(&store, &fleet);
        assert_eq!(report.total_ops() as usize, fleet.ops.len());
        let counts = fleet.class_counts();
        for class in OpClass::ALL {
            let h = report.class_histogram(class);
            assert_eq!(
                h.count() as usize,
                counts.get(class.name()).copied().unwrap_or(0),
                "{} histogram covers every op",
                class.name()
            );
            if !h.is_empty() {
                assert!(h.quantile(0.999) >= h.quantile(0.5));
            }
        }
        // no rejected ops in a generated fleet
        store.for_each_doc(|_, slot| assert_eq!(slot.stats().errors, 0));
    }

    #[test]
    fn modelled_makespan_scales_down_with_workers() {
        let fleet = FleetWorkload::generate(FleetConfig::small(33));
        let store = fleet_store(&Qed::new(), 8, fleet.config.docs);
        let report = replay_reference(&store, &fleet);
        let m1 = report.modelled_makespan_ns(1);
        assert_eq!(m1, report.busy_total_ns());
        let m4 = report.modelled_makespan_ns(4);
        assert!(m4 <= m1, "makespan never grows with workers");
        assert!(m4 >= m1 / 8, "bounded by perfect scaling over lanes");
        assert!(report.ops_per_sec() > 0.0);
    }
}
