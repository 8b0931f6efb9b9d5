//! # xupd-bench — the benchmark and table-regeneration harness
//!
//! One regenerator per paper artifact (the experiment index lives in
//! DESIGN.md §5):
//!
//! | Artifact | Regenerator |
//! |---|---|
//! | Figure 1 (pre/post tree) + Figure 2 (encoding table) | `cargo run --bin figures` |
//! | Figures 3–6 (DeweyID / ORDPATH / LSDX / ImprovedBinary trees) | `cargo run --bin figures` |
//! | Figure 7 (evaluation matrix, declared + measured) | `cargo run --bin figure7` |
//! | P1/P2 (update cost, relabelling, overflow events) | `cargo run --bin update_cost_table`, `cargo run --bin bench_update_cost` |
//! | P3 (label-size growth, QED vs Vector under skew) | `cargo run --bin growth_table`, `cargo run --bin bench_label_growth` |
//! | P5 (XPath evaluation over the encoding) | `cargo run --bin bench_query_eval` |
//! | bulk-labelling throughput (all schemes) | `cargo run --bin bench_bulk_labeling` |
//!
//! The timing binaries (`bench_*`) run on `xupd_testkit::bench` —
//! warmup + timed iterations, median/p90 — and emit JSON artifacts into
//! `results/BENCH_*.json`, so the repo's perf trajectory is tracked
//! offline with no external harness. The library part hosts the
//! measurement helpers the table and timing binaries share, so numbers
//! in tables and benches come from one code path.

use xupd_labelcore::DynScheme;
use xupd_schemes::SchemeEntry;
use xupd_workloads::{Script, ScriptKind};
use xupd_xmldom::XmlTree;

/// Size series of one scheme under one workload: total label bits after
/// every `step` operations.
#[derive(Debug, Clone)]
pub struct GrowthSeries {
    /// Scheme name.
    pub scheme: &'static str,
    /// Workload kind.
    pub kind: ScriptKind,
    /// `(ops applied, total label bits, max label bits)` checkpoints.
    pub points: Vec<(usize, u64, u64)>,
    /// Relabels observed across the run.
    pub relabels: u64,
    /// Overflow events observed across the run.
    pub overflows: u64,
}

/// Drive `ops` operations of `kind` against the `session`'s scheme on a
/// copy of `base`, checkpointing label sizes every `step` ops. The
/// registry battery fans this out over the `xupd-exec` pool; a typed
/// scheme is measured through `&mut SchemeSession::new(scheme)`. Tables
/// and benches share this one driver, so their numbers cannot diverge.
pub fn growth_series_session(
    session: &mut dyn DynScheme,
    base: &XmlTree,
    kind: ScriptKind,
    ops: usize,
    step: usize,
    seed: u64,
) -> GrowthSeries {
    let name = session.name();
    let mut tree = base.clone();
    session.label_tree(&tree).expect("bulk labelling");
    let mut points = vec![(0usize, session.total_bits(), session.max_bits())];
    let mut relabels = 0u64;
    let mut overflows = 0u64;
    let mut applied = 0usize;
    while applied < ops {
        let chunk = step.min(ops - applied);
        let script = Script::generate(kind, chunk, tree.len(), seed ^ applied as u64);
        let stats = xupd_framework::driver::run_script_dyn(&mut tree, session, &script)
            .expect("benchmark scripts drive live trees");
        relabels += stats.relabeled;
        overflows += stats.overflow_events;
        applied += chunk;
        points.push((applied, session.total_bits(), session.max_bits()));
    }
    GrowthSeries {
        scheme: name,
        kind,
        points,
        relabels,
        overflows,
    }
}

/// Measure a [`GrowthSeries`] for every registry entry, one pool worker
/// per scheme, results in roster order (order-preserving `par_map`).
pub fn growth_battery(
    entries: &[SchemeEntry],
    base: &XmlTree,
    kind: ScriptKind,
    ops: usize,
    step: usize,
    seed: u64,
) -> Vec<GrowthSeries> {
    xupd_exec::par_map(entries, |entry| {
        let mut session = entry.session();
        growth_series_session(session.as_mut(), base, kind, ops, step, seed)
    })
}

/// Render a growth table: one row per scheme, end-state total bits, max
/// label bits, relabels and overflow events.
pub fn render_growth_table(kind: ScriptKind, series: &[GrowthSeries]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "Workload: {} — label storage after the full run\n",
        kind.name()
    ));
    out.push_str(&format!(
        "{:<18} {:>12} {:>12} {:>10} {:>10}\n",
        "Scheme", "total bits", "max bits", "relabels", "overflows"
    ));
    out.push_str(&"-".repeat(68));
    out.push('\n');
    for s in series {
        let (_, total, max) = *s.points.last().expect("at least the initial point");
        out.push_str(&format!(
            "{:<18} {:>12} {:>12} {:>10} {:>10}\n",
            s.scheme, total, max, s.relabels, s.overflows
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_labelcore::SchemeSession;
    use xupd_schemes::prefix::qed::Qed;
    use xupd_schemes::vector::VectorScheme;
    use xupd_workloads::docs;

    #[test]
    fn growth_series_checkpoints_accumulate() {
        let base = docs::wide(20);
        let s = growth_series_session(
            &mut SchemeSession::new(Qed::new()),
            &base,
            ScriptKind::Skewed,
            100,
            25,
            1,
        );
        assert_eq!(s.points.len(), 5); // 0,25,50,75,100
        assert!(s.points.last().unwrap().1 > s.points[0].1);
        assert_eq!(s.relabels, 0);
    }

    #[test]
    fn p3_vector_grows_slower_than_qed_under_skew() {
        // The reproduction of the paper's §4/§5 claim, at harness level.
        let base = docs::wide(20);
        let qed = growth_series_session(
            &mut SchemeSession::new(Qed::new()),
            &base,
            ScriptKind::Skewed,
            300,
            100,
            1,
        );
        let vec = growth_series_session(
            &mut SchemeSession::new(VectorScheme::new()),
            &base,
            ScriptKind::Skewed,
            300,
            100,
            1,
        );
        let qed_max = qed.points.last().unwrap().2;
        let vec_max = vec.points.last().unwrap().2;
        assert!(
            vec_max * 4 < qed_max,
            "vector max {vec_max} bits ≪ qed max {qed_max} bits"
        );
    }

    #[test]
    fn render_table_lists_schemes() {
        let base = docs::wide(10);
        let series = growth_battery(
            &xupd_schemes::registry_figure7(),
            &base,
            ScriptKind::Random,
            30,
            30,
            42,
        );
        let table = render_growth_table(ScriptKind::Random, &series);
        assert!(table.contains("QED"));
        assert!(table.contains("Vector"));
        assert_eq!(series.len(), 12);
    }
}
