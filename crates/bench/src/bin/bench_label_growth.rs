//! P3 — label-growth measurement as a timed harness: drives the skewed
//! and prepend storms against the headline pair (QED vs Vector) plus the
//! compact schemes, so one offline run regenerates both the timing and —
//! via the printed summary — the growth shape the paper relays from
//! \[27\].
//!
//! Offline harness (formerly a criterion bench):
//!
//! ```text
//! cargo run --release -p xupd-bench --bin bench_label_growth
//! ```
//!
//! Emits `results/BENCH_label_growth.json`.

use xupd_bench::growth_series_session;
use xupd_labelcore::{DynScheme, SchemeSession};
use xupd_schemes::prefix::cdqs::Cdqs;
use xupd_schemes::prefix::qed::Qed;
use xupd_schemes::vector::VectorScheme;
use xupd_testkit::bench::{black_box, Harness};
use xupd_workloads::{docs, ScriptKind};

// Count allocation events per bench iteration (reported as
// `allocs`/`alloc_bytes` in the emitted JSON).
xupd_testkit::install_counting_allocator!();

fn main() {
    let mut h = Harness::new("label_growth");
    let base = docs::wide(50);
    let series = |session: &mut dyn DynScheme, kind: ScriptKind, ops: usize, step: usize| {
        growth_series_session(session, &base, kind, ops, step, 1)
    };
    for kind in [ScriptKind::Skewed, ScriptKind::PrependStorm] {
        for ops in [200usize, 400] {
            h.bench(&format!("growth/qed/{}/{ops}", kind.name()), || {
                black_box(series(&mut SchemeSession::new(Qed::new()), kind, ops, ops))
            });
            h.bench(&format!("growth/cdqs/{}/{ops}", kind.name()), || {
                black_box(series(&mut SchemeSession::new(Cdqs::new()), kind, ops, ops))
            });
            h.bench(&format!("growth/vector/{}/{ops}", kind.name()), || {
                black_box(series(
                    &mut SchemeSession::new(VectorScheme::new()),
                    kind,
                    ops,
                    ops,
                ))
            });
        }
    }

    // Print the headline comparison once per run so the series is
    // recorded alongside the timings (paper-shape check: Vector ≪ QED).
    let qed = series(
        &mut SchemeSession::new(Qed::new()),
        ScriptKind::Skewed,
        400,
        100,
    );
    let vec = series(
        &mut SchemeSession::new(VectorScheme::new()),
        ScriptKind::Skewed,
        400,
        100,
    );
    println!("\nP3 headline (max label bits under 400 skewed inserts):");
    for (q, v) in qed.points.iter().zip(&vec.points) {
        println!("  ops={:<4} qed={:<6} vector={}", q.0, q.2, v.2);
    }

    h.finish().expect("write results/BENCH_label_growth.json");
}
