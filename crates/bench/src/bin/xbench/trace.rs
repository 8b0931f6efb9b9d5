//! In-memory spans for the traced repetition.
//!
//! The recorder is single-threaded and strictly nested: a span ends
//! before its parent does, and the children of one span never overlap.
//! Spans stay in memory until the run ends and are then written out as
//! JSON lines (see README.md for the format).

use std::collections::BTreeMap;
use std::fs;
use std::io::{BufWriter, Write};
use std::path::Path;

use xupd_testkit::bench::monotonic_ns;

/// Span identifier; ids start at 1 and `0` means "no parent".
pub type SpanId = u32;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// This span's id.
    pub id: SpanId,
    /// The span that caused it, or 0 for an op span.
    pub parent: SpanId,
    /// What was timed: `op.*` for an op, a module-qualified function
    /// for a stage, `probe.*` for a probe.
    pub name: &'static str,
    /// Start, nanoseconds on the process's monotonic clock.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span recorder.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
}

impl Tracer {
    /// Open a span under `parent` (0 for none).
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let id = SpanId::try_from(self.spans.len() + 1).expect("fewer than 2^32 spans");
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: monotonic_ns(),
            end_ns: 0,
        });
        id
    }

    /// Close span `id`.
    pub fn end(&mut self, id: SpanId) {
        let now = monotonic_ns();
        self.spans[id as usize - 1].end_ns = now;
    }

    /// Time one extra call of `f` as a probe under `parent`. A probe
    /// repeats, from outside, a call the library makes inside a stage,
    /// so that stage's cost can be split without touching library code.
    pub fn probe<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) {
        let id = self.begin(name, parent);
        std::hint::black_box(f());
        self.end(id);
    }

    /// Every span recorded so far, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }

    /// Write the trace to `path`, creating its directory.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        self.write_jsonl(&mut out)?;
        out.flush()
    }
}

/// What recording one span (a `begin` and its `end`) costs, ns: the
/// mean over a burst of empty spans on a fresh recorder.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 1 << 16;
    let mut t = Tracer::default();
    let t0 = monotonic_ns();
    for _ in 0..N {
        let s = t.begin("probe.empty", 0);
        t.end(s);
    }
    (monotonic_ns() - t0) as f64 / f64::from(N)
}

/// Self time of every span (same order as `spans`): its duration minus
/// the durations of its direct children. Children never overlap, so
/// their durations sum to the part of the interval they cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != 0 {
            covered[s.parent as usize - 1] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// For each span named `op`, in begin order, the summed self time of
/// its direct children named in `stages`.
pub fn stage_sums(spans: &[Span], op: &str, stages: &[&str]) -> Vec<u64> {
    let mut sums = vec![0u64; spans.len()];
    for (s, own) in spans.iter().zip(self_times(spans)) {
        if s.parent != 0 && stages.contains(&s.name) {
            sums[s.parent as usize - 1] += own;
        }
    }
    spans
        .iter()
        .zip(sums)
        .filter(|(s, _)| s.name == op)
        .map(|(_, sum)| sum)
        .collect()
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// Aggregate a trace by span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) > stage [10,70) > probe [10,30); stage2 [70,95)
        let spans = vec![
            span(1, 0, "op.update", 0, 100),
            span(2, 1, "analysis.analyze", 10, 70),
            span(3, 2, "probe.validate", 10, 30),
            span(4, 1, "querycache.absorb", 70, 95),
        ];
        assert_eq!(self_times(&spans), vec![15, 40, 20, 25]);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["analysis.analyze"],
            Totals {
                count: 1,
                total_ns: 60,
                self_ns: 40
            }
        );
        // the op's self time is the glue between stages; its duration
        // still includes the probe nested two levels down
        assert_eq!(totals["op.update"].total_ns, 100);
        assert_eq!(totals["op.update"].self_ns, 15);
        // per op: the stages' self times, probes excluded
        let stages = ["analysis.analyze", "querycache.absorb"];
        assert_eq!(stage_sums(&spans, "op.update", &stages), vec![40 + 25]);
        assert_eq!(stage_sums(&spans, "op.update", &stages[1..]), vec![25]);
        assert!(stage_sums(&spans, "op.query", &stages).is_empty());
    }

    #[test]
    fn probes_are_excluded_from_their_stage_and_summed_per_name() {
        let spans = vec![
            span(1, 0, "op.update", 0, 50),
            span(2, 1, "mutations.apply_log", 0, 50),
            span(3, 2, "probe.validate", 0, 5),
            span(4, 2, "probe.tree_clone", 5, 12),
            span(5, 2, "probe.save_state", 12, 20),
            span(6, 0, "op.update", 60, 90),
            span(7, 6, "mutations.apply_log", 60, 90),
            span(8, 7, "probe.validate", 60, 64),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(totals["mutations.apply_log"].self_ns, 30 + 26);
        assert_eq!(totals["probe.validate"].count, 2);
        assert_eq!(totals["probe.validate"].self_ns, 9);
        assert_eq!(totals["op.update"].self_ns, 0);
    }

    #[test]
    fn recorder_nests_and_writes_one_line_per_span() {
        let mut t = Tracer::default();
        let op = t.begin("op.query", 0);
        let hit = t.begin("querycache.hit", op);
        t.end(hit);
        t.probe("probe.validate", op, || 7);
        t.end(op);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[2].parent), (op, op));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns);

        let mut out = Vec::new();
        t.write_jsonl(&mut out).expect("write to memory");
        let text = String::from_utf8(out).expect("ascii");
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("{\"id\":1,\"parent\":0,\"name\":\"op.query\",\"start_ns\":"));
    }

    #[test]
    fn recording_a_span_costs_something() {
        assert!(span_cost_ns() > 0.0);
    }
}
