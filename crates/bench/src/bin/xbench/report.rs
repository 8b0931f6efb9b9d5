//! Metrics: their names and units, how each is computed, and the two
//! output forms (one human line per metric, one JSON object last).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::mirror::{
    Mirror, ABSORB, ANALYZE, APPLY, COMPILE, HIT, OP_UPDATE, PROBE_SAVE_STATE, PROBE_TREE_CLONE,
    PROBE_VALIDATE, UPDATE_STAGES,
};
use crate::run::{per_op_min, Measured, StreamSamples};
use crate::trace::{span_cost_ns, stage_sums, totals_by_name, Totals};

/// End-to-end metrics (`--trace 0`), in print order: name and unit.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("update_alloc_kb", "KiB"),
];

/// Per-layer metrics (`--trace 1`), in print order: name and unit.
/// Times and counts are means per update batch unless the name says
/// otherwise; see README.md.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("store.ops_per_s", "ops/s"),
    ("store.update_p50_us", "us"),
    ("store.update_p99_us", "us"),
    ("log.compile_us", "us"),
    ("analysis.analyze_us", "us"),
    ("log.apply_us", "us"),
    ("querycache.absorb_us", "us"),
    ("querycache.hit_ns", "ns"),
    ("probe.validate_us", "us"),
    ("probe.tree_clone_us", "us"),
    ("probe.save_state_us", "us"),
    ("mutations.log_ops", "count"),
    ("xmldom.doc_nodes", "count"),
    ("schemes.inserts", "count"),
    ("schemes.deletes", "count"),
    ("schemes.relabeled", "count"),
    ("schemes.peak_label_bits", "bits"),
    ("analysis.edges", "count"),
    ("analysis.components", "count"),
    ("analysis.edge_density", "ratio"),
    ("querycache.unaffected", "count"),
    ("querycache.repaired", "count"),
    ("querycache.rebuilt", "count"),
    ("querycache.incremental_frac", "ratio"),
    ("querycache.text_only_frac", "ratio"),
    ("querycache.spliced_rows", "count"),
    ("log.compile_alloc_kb", "KiB"),
    ("analysis.analyze_alloc_kb", "KiB"),
    ("log.apply_alloc_kb", "KiB"),
    ("querycache.absorb_alloc_kb", "KiB"),
    ("setup.generate_ms", "ms"),
    ("schemes.label_tree_ms", "ms"),
    ("querycache.register_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value, unrounded.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value.
    pub samples: u64,
}

/// `a / b`, or 0 when nothing was measured.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Quantile `q` of `sorted`, reading each sample as a clock tick that
/// covers `[v − ½, v + ½)`: the sample at position `q·n` has value `v`
/// and sits in a run of equal samples; the result moves across the tick
/// in proportion to the position inside that run (the grouped-data
/// median). Fast ops tie on whole nanoseconds, and a plain order
/// statistic would then read the same tick run after run.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * n as f64;
    let v = sorted[(pos as usize).min(n - 1)];
    let first = sorted.partition_point(|&x| x < v);
    let end = sorted.partition_point(|&x| x <= v);
    let within = ((pos - first as f64) / (end - first) as f64).clamp(0.0, 1.0);
    v as f64 - 0.5 + within
}

/// Name the values in declaration order, so a metric can never be
/// printed under the wrong unit or left out.
fn named(decl: &[(&'static str, &'static str)], values: Vec<(f64, u64)>) -> Vec<Metric> {
    assert_eq!(decl.len(), values.len(), "one value per declared metric");
    decl.iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name,
            value,
            unit,
            samples,
        })
        .collect()
}

/// The end-to-end metrics of the untraced repetitions: set-up time
/// (median over every repetition), peak memory, and the bytes one
/// update allocates (mean over every update of every repetition).
pub fn end_to_end(m: &Measured) -> Vec<Metric> {
    let mut setup = m.setup_ns.clone();
    setup.sort_unstable();
    let updates: u64 = m
        .streams
        .iter()
        .flat_map(|s| &s.update_ns)
        .map(|r| r.len() as u64)
        .sum();
    let alloc: u64 = m.streams.iter().map(|s| s.update_alloc_bytes).sum();
    named(
        &END_TO_END,
        vec![
            (quantile(&setup, 0.5) / 1e9, setup.len() as u64),
            (m.peak_rss_kib as f64 / 1024.0, 1),
            (ratio(alloc as f64, updates as f64) / 1024.0, updates),
        ],
    )
}

/// The store layer's service times, unbounded (see README.md): update
/// latency percentiles over every update of every stream, each update's
/// time being the fastest of its repetitions, and throughput as every
/// stream's ops over the sum of every stream's fastest replay.
fn store_times(m: &Measured) -> [(f64, u64); 3] {
    let mut update: Vec<u64> = m
        .streams
        .iter()
        .flat_map(StreamSamples::update_best)
        .collect();
    update.sort_unstable();
    let (mut ops, mut wall_ns) = (0.0, 0.0);
    for s in &m.streams {
        let reps = s.replay_ns.len() as f64;
        ops += ratio((s.attempted - s.failed) as f64, reps);
        wall_ns += s.replay_ns.iter().copied().min().unwrap_or(0) as f64;
    }
    let nu = update.len() as u64;
    [
        (ratio(ops * 1e9, wall_ns), m.attempted()),
        (quantile(&update, 0.5) / 1e3, nu),
        (quantile(&update, 0.99) / 1e3, nu),
    ]
}

/// The store layer's service times from the untraced repetitions, then
/// the per-layer metrics of the traced repetitions of stream 0. `m` also
/// supplies that stream's untraced update times, which coverage and
/// overhead are taken against.
pub fn per_layer(m: &Measured, mirror: &Mirror) -> Vec<Metric> {
    let spans = mirror.tracer.spans();
    let totals: BTreeMap<&str, Totals> = totals_by_name(spans);
    let c = &mirror.counters;
    let batches = c.batches as f64;
    let per_batch = |x: f64| ratio(x, batches);
    let self_us = |names: &[&str]| {
        let ns: u64 = names
            .iter()
            .filter_map(|n| totals.get(n))
            .map(|t| t.self_ns)
            .sum();
        per_batch(ns as f64) / 1e3
    };
    // Coverage sets each update's stage sum against its untraced time,
    // both the fastest of their repetitions, so load on a shared host
    // that slows one repetition does not tilt the ratio.
    let untraced_ns = m.streams[0].update_best().iter().sum::<u64>() as f64;
    let traced = stage_sums(spans, OP_UPDATE, &UPDATE_STAGES);
    let one_rep = (traced.len() / mirror.reps.max(1)).max(1);
    let traced_ns = per_op_min(&traced.chunks(one_rep).collect::<Vec<_>>())
        .iter()
        .sum::<u64>() as f64;
    // Tracing adds the recording of each update's op and stage spans.
    let update_spans: u64 = UPDATE_STAGES
        .iter()
        .chain([&OP_UPDATE])
        .filter_map(|n| totals.get(n))
        .map(|t| t.count)
        .sum();
    let overhead_ns = update_spans as f64 * span_cost_ns() / mirror.reps.max(1) as f64;
    let hit = totals.get(HIT).copied().unwrap_or_default();
    let outcomes = (c.unaffected + c.repaired + c.rebuilt) as f64;
    let kib = |bytes: u64| per_batch(bytes as f64) / 1024.0;
    let b = c.batches;
    let (reps, docs) = (mirror.reps as u64, mirror.len() as u64);
    // Set-up times are per build of the mirror.
    let setup_ms = |ns: u64| ratio(ns as f64, reps as f64) / 1e6;
    let [ops_per_s, update_p50, update_p99] = store_times(m);
    named(
        &PER_LAYER,
        vec![
            ops_per_s,
            update_p50,
            update_p99,
            (self_us(&COMPILE), b),
            (self_us(&[ANALYZE]), b),
            (self_us(&APPLY), b),
            (self_us(&[ABSORB]), b),
            (ratio(hit.self_ns as f64, hit.count as f64), hit.count),
            (self_us(&[PROBE_VALIDATE]), b),
            (self_us(&[PROBE_TREE_CLONE]), b),
            (self_us(&[PROBE_SAVE_STATE]), b),
            (per_batch(c.log_ops as f64), b),
            (per_batch(c.doc_nodes as f64), b),
            (per_batch(c.inserts as f64), b),
            (per_batch(c.deletes as f64), b),
            (per_batch(c.relabeled as f64), b),
            (c.peak_label_bits as f64, b),
            (per_batch(c.edges as f64), b),
            (per_batch(c.components as f64), b),
            (
                ratio(c.density_sum, c.density_batches as f64),
                c.density_batches,
            ),
            (per_batch(c.unaffected as f64), b),
            (per_batch(c.repaired as f64), b),
            (per_batch(c.rebuilt as f64), b),
            (
                ratio((c.unaffected + c.repaired) as f64, outcomes),
                outcomes as u64,
            ),
            (ratio(c.text_only as f64, c.absorbed as f64), c.absorbed),
            (per_batch(c.spliced_rows as f64), b),
            (kib(c.alloc_bytes[0]), b),
            (kib(c.alloc_bytes[1]), b),
            (kib(c.alloc_bytes[2]), b),
            (kib(c.alloc_bytes[3]), b),
            (setup_ms(mirror.setup.generate_ns), reps),
            (setup_ms(mirror.setup.label_ns), reps * docs),
            (setup_ms(mirror.setup.register_ns), reps * docs),
            (ratio(traced_ns, untraced_ns), one_rep as u64),
            (ratio(overhead_ns, untraced_ns), update_spans),
        ],
    )
}

/// One line per metric: `name value unit (n=samples)`.
pub fn render_lines(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for m in metrics {
        let _ = writeln!(out, "{} {} {} (n={})", m.name, m.value, m.unit, m.samples);
    }
    out
}

/// The result object the benchmark prints last.
pub fn render_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_spreads_ties_across_their_tick() {
        let v = [10, 20, 30, 40, 50];
        assert_eq!(quantile(&v, 0.5), 30.0);
        assert_eq!(quantile(&v, 0.0), 9.5);
        assert_eq!(quantile(&v, 1.0), 50.5);
        // four of six samples tie at 1: the median is 3/4 into that tick
        assert_eq!(quantile(&[1, 1, 1, 1, 2, 2], 0.5), 1.25);
        assert_eq!(quantile(&[1, 1, 1, 2, 2, 2], 0.5), 1.5);
        assert_eq!(quantile(&[7], 0.99), 7.49);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_has_exactly_the_result_keys() {
        let ms = vec![
            Metric {
                name: "setup_s",
                value: 0.25,
                unit: "s",
                samples: 3,
            },
            Metric {
                name: "ops_per_s",
                value: 1234.5,
                unit: "ops/s",
                samples: 9,
            },
        ];
        assert_eq!(
            render_json(true, 9, 0, &ms),
            "{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 1234.5, \"unit\": \"ops/s\"}}}"
        );
        assert_eq!(render_lines(&ms[..1]), "setup_s 0.25 s (n=3)\n");
    }
}
