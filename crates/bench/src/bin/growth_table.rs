//! Regenerates the P3 experiment (DESIGN.md §5): label-size growth of
//! every scheme under the paper's update scenarios (random / uniform /
//! skewed / prepend-storm / zigzag), including the §4 claim that Vector
//! grows much slower than QED under skewed insertion.
//!
//! ```text
//! cargo run --release --bin growth_table [ops]
//! ```

use xupd_bench::{growth_battery, render_growth_table};
use xupd_labelcore::SchemeSession;
use xupd_workloads::{docs, ScriptKind};

fn main() {
    let ops: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(500);
    let base = docs::random_tree(0x9e0, 500);
    println!(
        "P3 — label-size growth, {} ops per workload on a 500-node document\n",
        ops
    );
    // Full roster, one pool worker per scheme, series in roster order.
    let entries = xupd_schemes::registry();
    for kind in [
        ScriptKind::Random,
        ScriptKind::Uniform,
        ScriptKind::Skewed,
        ScriptKind::PrependStorm,
        ScriptKind::Zigzag,
    ] {
        let series = growth_battery(&entries, &base, kind, ops, ops, 42);
        println!("{}", render_growth_table(kind, &series));
    }

    // The headline P3 series: skewed growth of QED vs Vector, max label
    // bits at checkpoints (the shape the Vector paper [27] reports and
    // this paper relays in §4).
    println!("P3 headline — QED vs Vector max label bits under skewed insertion");
    println!("{:<8} {:>10} {:>10}", "ops", "QED", "Vector");
    let qed = xupd_bench::growth_series_session(
        &mut SchemeSession::new(xupd_schemes::prefix::qed::Qed::new()),
        &base,
        ScriptKind::Skewed,
        ops,
        (ops / 10).max(1),
        42,
    );
    let vec = xupd_bench::growth_series_session(
        &mut SchemeSession::new(xupd_schemes::vector::VectorScheme::new()),
        &base,
        ScriptKind::Skewed,
        ops,
        (ops / 10).max(1),
        42,
    );
    for (q, v) in qed.points.iter().zip(&vec.points) {
        println!("{:<8} {:>10} {:>10}", q.0, q.2, v.2);
    }
}
