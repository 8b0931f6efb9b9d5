//! The traced repetitions.
//!
//! The bench keeps its own mirror of every store document (`XmlTree` +
//! QED labelling + `QueryCache`) and replays the op stream against it,
//! calling the library's public functions in exactly the order the
//! store calls them:
//!
//! * fleet update (`Store::apply_script` → `Document::apply_log`):
//!   `batch_of` → `analyze` → `execution_order(false, neutral)` →
//!   `mutations::apply_log` → `QueryCache::absorb` (skipped when the
//!   effective order is empty);
//! * flux update (`StoreUpdate::update` → `Document::apply_planned`):
//!   `FluxProgram::parse` → `check` → `lower::lower` → `analyze` →
//!   `apply_plan_with_dyn` → `granted` / `execution_order` → `absorb`;
//! * query (`Store::serve_query`): `QueryCache::hit`.
//!
//! Each call is a span under its op's span. Probe spans repeat, from
//! outside, a call a stage makes inside itself (validation, the
//! rollback tree clone, the rollback label snapshot), so the stage's
//! cost can be split without touching library code; a stage's self
//! time excludes its probes. Open and close only bump store counters
//! and have no mirror.

use std::hint::black_box;

use xupd_encoding::{parse_xpath, XPathExpr};
use xupd_flux::{lower, FluxProgram};
use xupd_framework::analysis::{analyze, apply_plan_with_dyn, AnalyzedPlan, ApplyOptions};
use xupd_framework::driver::DriveStats;
use xupd_framework::mutations::{self, batch_of, MutationLog};
use xupd_framework::{CacheStats, QueryCache, QueryId};
use xupd_labelcore::{DynScheme, Labeling, LabelingScheme, SessionMut};
use xupd_schemes::prefix::qed::Qed;
use xupd_testkit::bench::monotonic_ns;
use xupd_workloads::{FleetOpKind, Script};
use xupd_xmldom::XmlTree;

use crate::allocated;
use crate::trace::{SpanId, Tracer};
use crate::workload::{Ops, Stream, QUERY_CLASSES};

/// Op span names.
pub const OP_UPDATE: &str = "op.update";
/// Op span name of a lane query.
pub const OP_QUERY: &str = "op.query";

/// Stage spans that turn an op's input into a `MutationLog`.
pub const COMPILE: [&str; 4] = [
    "mutations.batch_of",
    "flux.parse",
    "flux.check",
    "flux.lower",
];
/// The analyzer stage.
pub const ANALYZE: &str = "analysis.analyze";
/// Choosing the effective op order from the plan.
pub const ORDER: &str = "analysis.execution_order";
/// Stage spans that apply a log to the tree and labelling.
pub const APPLY: [&str; 2] = ["mutations.apply_log", "analysis.apply_plan"];
/// Query cache maintenance after a batch.
pub const ABSORB: &str = "querycache.absorb";
/// A cached read.
pub const HIT: &str = "querycache.hit";

/// Probe: `mutations::validate` on the batch.
pub const PROBE_VALIDATE: &str = "probe.validate";
/// Probe: `XmlTree::clone` of the document.
pub const PROBE_TREE_CLONE: &str = "probe.tree_clone";
/// Probe: `DynScheme::save_state` on a `SessionMut` (the rollback
/// snapshot of scheme and labelling).
pub const PROBE_SAVE_STATE: &str = "probe.save_state";

/// Every stage span of an update, in path order.
pub const UPDATE_STAGES: [&str; 9] = [
    COMPILE[0], COMPILE[1], COMPILE[2], COMPILE[3], ANALYZE, ORDER, APPLY[0], APPLY[1], ABSORB,
];

/// Allocation slots, indexed like [`Counters::alloc_bytes`].
const A_COMPILE: usize = 0;
const A_ANALYZE: usize = 1;
const A_APPLY: usize = 2;
const A_ABSORB: usize = 3;

type Label = <Qed as LabelingScheme>::Label;

/// Deterministic work counts of the traced repetition, summed over its
/// update batches (`peak_label_bits` is a maximum).
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Update ops replayed.
    pub batches: u64,
    /// Batches rejected at compile, validation or apply.
    pub rejected: u64,
    /// Mutations in the compiled logs.
    pub log_ops: u64,
    /// Document size (nodes) when each batch arrived.
    pub doc_nodes: u64,
    /// Nodes inserted.
    pub inserts: u64,
    /// Subtrees deleted.
    pub deletes: u64,
    /// Labels the scheme rewrote.
    pub relabeled: u64,
    /// Largest label seen at any apply checkpoint, bits.
    pub peak_label_bits: u64,
    /// Analyzer dependency/conflict edges.
    pub edges: u64,
    /// Analyzer independent components.
    pub components: u64,
    /// Sum over batches of edges / (k(k−1)/2), for batches with k ≥ 2.
    pub density_sum: f64,
    /// Batches that contributed to `density_sum`.
    pub density_batches: u64,
    /// Batches the query cache absorbed.
    pub absorbed: u64,
    /// Absorbed batches that were text-only.
    pub text_only: u64,
    /// Query × batch outcomes kept verbatim.
    pub unaffected: u64,
    /// Query × batch outcomes delta-repaired.
    pub repaired: u64,
    /// Query × batch outcomes fully re-evaluated.
    pub rebuilt: u64,
    /// Rows spliced in by repairs.
    pub spliced_rows: u64,
    /// Bytes allocated by compile, analyze, apply and absorb.
    pub alloc_bytes: [u64; 4],
}

impl Counters {
    fn record_batch(&mut self, log: &MutationLog, plan: Option<&AnalyzedPlan>, stats: &DriveStats) {
        self.log_ops += log.len() as u64;
        self.inserts += stats.inserts as u64;
        self.deletes += stats.deletes as u64;
        self.relabeled += stats.relabeled;
        self.peak_label_bits = self.peak_label_bits.max(stats.peak_label_bits);
        if let Some(plan) = plan {
            self.edges += plan.edges.len() as u64;
            self.components += plan.components.len() as u64;
            let k = log.len() as f64;
            if log.len() >= 2 {
                self.density_sum += plan.edges.len() as f64 / (k * (k - 1.0) / 2.0);
                self.density_batches += 1;
            }
        }
    }
}

/// Set-up time of the mirror, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Generating the documents.
    pub generate_ns: u64,
    /// `LabelingScheme::label_tree` over every document.
    pub label_ns: u64,
    /// `QueryCache::register` of every query on every document.
    pub register_ns: u64,
}

struct MirrorDoc {
    tree: XmlTree,
    scheme: Qed,
    labeling: Labeling<Label>,
    cache: QueryCache,
    queries: Vec<QueryId>,
}

/// The bench's mirror of one stream's documents, and everything its
/// traced repetitions recorded.
pub struct Mirror {
    /// The store's registered queries, in class order.
    queries: Vec<XPathExpr>,
    /// The documents of the last repetition.
    docs: Vec<MirrorDoc>,
    /// Repetitions replayed, each from freshly built documents.
    pub reps: usize,
    /// Every span of every repetition, in begin order.
    pub tracer: Tracer,
    /// Work counts, summed over the repetitions.
    pub counters: Counters,
    /// Set-up split, summed over the repetitions.
    pub setup: SetupTimes,
}

impl Mirror {
    /// A mirror with no repetitions yet. `exprs` are the store's
    /// registered queries, in class order.
    pub fn new(exprs: &[String]) -> Result<Mirror, String> {
        let queries = exprs
            .iter()
            .map(|e| parse_xpath(e))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("query does not parse: {e}"))?;
        Ok(Mirror {
            queries,
            docs: Vec::new(),
            reps: 0,
            tracer: Tracer::default(),
            counters: Counters::default(),
            setup: SetupTimes::default(),
        })
    }

    /// Replay `stream` once, traced, from freshly built documents.
    pub fn replay(&mut self, stream: &Stream) -> Result<(), String> {
        self.docs.clear();
        self.docs = build_docs(stream, &self.queries, &mut self.setup)?;
        self.reps += 1;
        let (docs, t, c) = (&mut self.docs, &mut self.tracer, &mut self.counters);
        match stream.ops() {
            Ops::Fleet(fleet) => {
                for op in &fleet.ops {
                    let doc = mirror_doc(docs, op.doc as usize)?;
                    match &op.kind {
                        FleetOpKind::Query(class) => doc.query(t, *class)?,
                        FleetOpKind::Update(script) => doc.fleet_update(t, c, script),
                        FleetOpKind::Open | FleetOpKind::Close => {}
                    }
                }
            }
            Ops::Flux(rounds) => {
                for round in rounds {
                    for (i, src) in round.iter().enumerate() {
                        let doc = mirror_doc(docs, i)?;
                        doc.flux_update(t, c, src);
                        for class in 0..QUERY_CLASSES {
                            doc.query(t, class)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Documents mirrored.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// The mirrored tree of `doc`.
    pub fn tree(&self, doc: usize) -> &XmlTree {
        &self.docs[doc].tree
    }

    /// The mirrored cache counters of `doc`.
    pub fn cache_stats(&self, doc: usize) -> CacheStats {
        *self.docs[doc].cache.stats()
    }
}

/// Generate `stream`'s documents, label them and register `queries` on
/// each, adding the time of each layer to `setup`.
fn build_docs(
    stream: &Stream,
    queries: &[XPathExpr],
    setup: &mut SetupTimes,
) -> Result<Vec<MirrorDoc>, String> {
    let t0 = monotonic_ns();
    let trees = stream.documents();
    setup.generate_ns += monotonic_ns() - t0;
    let mut docs = Vec::with_capacity(trees.len());
    for tree in trees {
        let mut scheme = Qed::new();
        let t0 = monotonic_ns();
        let labeling = scheme.label_tree(&tree).map_err(|e| e.to_string())?;
        setup.label_ns += monotonic_ns() - t0;
        let mut cache = QueryCache::new();
        let t0 = monotonic_ns();
        let ids = queries
            .iter()
            .map(|x| cache.register(x, true, &tree))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        setup.register_ns += monotonic_ns() - t0;
        docs.push(MirrorDoc {
            tree,
            scheme,
            labeling,
            cache,
            queries: ids,
        });
    }
    Ok(docs)
}

fn mirror_doc(docs: &mut [MirrorDoc], i: usize) -> Result<&mut MirrorDoc, String> {
    docs.get_mut(i)
        .ok_or_else(|| format!("op names document {i}, outside the fleet"))
}

impl MirrorDoc {
    /// `Store::serve_query` → `Document::query_cached`.
    fn query(&mut self, t: &mut Tracer, class: usize) -> Result<(), String> {
        let q = *self
            .queries
            .get(class)
            .ok_or_else(|| format!("unknown query class {class}"))?;
        let op = t.begin(OP_QUERY, 0);
        let s = t.begin(HIT, op);
        if self.cache.is_stale() {
            self.cache.refresh(&self.tree).map_err(|e| e.to_string())?;
        }
        black_box(self.cache.hit(q).len());
        t.end(s);
        t.end(op);
        Ok(())
    }

    /// `Store::apply_script`: `batch_of`, then `Document::apply_log`.
    fn fleet_update(&mut self, t: &mut Tracer, c: &mut Counters, script: &Script) {
        let op = t.begin(OP_UPDATE, 0);
        c.batches += 1;
        c.doc_nodes += self.tree.len() as u64;
        let s = t.begin(COMPILE[0], op);
        let a = allocated();
        let log = batch_of(script, &self.tree);
        c.alloc_bytes[A_COMPILE] += allocated() - a;
        t.probe(PROBE_TREE_CLONE, s, || self.tree.clone());
        t.end(s);
        match log {
            Ok(log) => self.apply_log(t, c, op, &log),
            Err(_) => c.rejected += 1,
        }
        t.end(op);
    }

    /// `Document::apply_log`. A stale cache takes the document's fast
    /// path: no analysis, no absorb.
    fn apply_log(&mut self, t: &mut Tracer, c: &mut Counters, op: SpanId, log: &MutationLog) {
        let plan = if self.cache.is_stale() {
            None
        } else {
            match self.analyze(t, c, op, log) {
                Some(plan) => Some(plan),
                None => return,
            }
        };
        let effective = plan.as_ref().map(|plan| {
            let s = t.begin(ORDER, op);
            let order = plan.execution_order(false, self.scheme.cancellation_neutral());
            t.end(s);
            order
        });
        let s = t.begin(APPLY[0], op);
        t.probe(PROBE_VALIDATE, s, || mutations::validate(log, &self.tree));
        let a = allocated();
        let stats = mutations::apply_log(&mut self.tree, &mut self.scheme, &mut self.labeling, log);
        c.alloc_bytes[A_APPLY] += allocated() - a;
        self.probe_rollback(t, s);
        t.end(s);
        let Ok(stats) = stats else {
            c.rejected += 1;
            return;
        };
        c.record_batch(log, plan.as_ref(), &stats);
        match (plan, effective) {
            (Some(plan), Some(effective)) => self.absorb(t, c, op, log, &plan, &effective),
            _ => self.cache.mark_stale(),
        }
    }

    /// `StoreUpdate::update`: parse outside the lock, then
    /// `FluxProgram::compile` (check, lower, analyze) and
    /// `Document::apply_planned` under it.
    fn flux_update(&mut self, t: &mut Tracer, c: &mut Counters, src: &str) {
        let op = t.begin(OP_UPDATE, 0);
        c.batches += 1;
        c.doc_nodes += self.tree.len() as u64;
        match self.flux_compile(t, c, op, src) {
            Some((log, plan)) => self.apply_planned(t, c, op, &log, &plan),
            None => c.rejected += 1,
        }
        t.end(op);
    }

    fn flux_compile(
        &mut self,
        t: &mut Tracer,
        c: &mut Counters,
        op: SpanId,
        src: &str,
    ) -> Option<(MutationLog, AnalyzedPlan)> {
        let s = t.begin(COMPILE[1], op);
        let a = allocated();
        let program = FluxProgram::parse(src);
        c.alloc_bytes[A_COMPILE] += allocated() - a;
        t.end(s);
        let program = program.ok()?;

        let s = t.begin(COMPILE[2], op);
        let a = allocated();
        let clean = program.check().is_empty();
        c.alloc_bytes[A_COMPILE] += allocated() - a;
        t.end(s);
        if !clean {
            return None;
        }

        let s = t.begin(COMPILE[3], op);
        let a = allocated();
        let log = lower::lower(program.stmts(), &self.tree);
        c.alloc_bytes[A_COMPILE] += allocated() - a;
        t.end(s);
        let log = log.ok()?;

        let plan = self.analyze(t, c, op, &log)?;
        Some((log, plan))
    }

    /// `Document::apply_planned` under `ApplyOptions::default()`.
    fn apply_planned(
        &mut self,
        t: &mut Tracer,
        c: &mut Counters,
        op: SpanId,
        log: &MutationLog,
        plan: &AnalyzedPlan,
    ) {
        let opts = ApplyOptions::default();
        let s = t.begin(APPLY[1], op);
        let a = allocated();
        let stats = {
            let mut session = SessionMut::new(&mut self.scheme, &mut self.labeling);
            apply_plan_with_dyn(&mut self.tree, &mut session, log, plan, opts)
        };
        c.alloc_bytes[A_APPLY] += allocated() - a;
        self.probe_rollback(t, s);
        t.end(s);
        let Ok(stats) = stats else {
            c.rejected += 1;
            return;
        };
        c.record_batch(log, Some(plan), &stats);

        let s = t.begin(ORDER, op);
        let (reorder, cancel) = opts.granted(
            self.scheme.order_independent(),
            self.scheme.cancellation_neutral(),
        );
        let effective = plan.execution_order(reorder, cancel);
        t.end(s);
        self.absorb(t, c, op, log, plan, &effective);
    }

    fn analyze(
        &mut self,
        t: &mut Tracer,
        c: &mut Counters,
        op: SpanId,
        log: &MutationLog,
    ) -> Option<AnalyzedPlan> {
        let s = t.begin(ANALYZE, op);
        let a = allocated();
        let plan = analyze(log, &self.tree);
        c.alloc_bytes[A_ANALYZE] += allocated() - a;
        t.probe(PROBE_VALIDATE, s, || mutations::validate(log, &self.tree));
        t.end(s);
        if plan.is_err() {
            c.rejected += 1;
        }
        plan.ok()
    }

    /// The two rollback snapshots an atomic apply takes before its
    /// first mutation, probed on the post-batch state: probing first
    /// would warm the caches the stage then runs in.
    fn probe_rollback(&mut self, t: &mut Tracer, stage: SpanId) {
        t.probe(PROBE_TREE_CLONE, stage, || self.tree.clone());
        t.probe(PROBE_SAVE_STATE, stage, || {
            SessionMut::new(&mut self.scheme, &mut self.labeling).save_state()
        });
    }

    /// `Document::maintain_after_apply`'s cache half.
    fn absorb(
        &mut self,
        t: &mut Tracer,
        c: &mut Counters,
        op: SpanId,
        log: &MutationLog,
        plan: &AnalyzedPlan,
        effective: &[usize],
    ) {
        if effective.is_empty() || self.cache.is_stale() {
            return;
        }
        let s = t.begin(ABSORB, op);
        let a = allocated();
        let impact = self.cache.absorb(log, plan, effective, &self.tree);
        c.alloc_bytes[A_ABSORB] += allocated() - a;
        t.end(s);
        match impact {
            Ok(i) => {
                c.absorbed += 1;
                c.text_only += u64::from(i.text_only);
                c.unaffected += i.unaffected as u64;
                c.repaired += i.repaired as u64;
                c.rebuilt += i.rebuilt as u64;
                c.spliced_rows += i.spliced_rows;
            }
            Err(_) => self.cache.mark_stale(),
        }
    }
}
