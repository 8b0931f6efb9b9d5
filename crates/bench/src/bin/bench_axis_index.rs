//! Per-axis micro-costs of the preorder index's extent-backed axes
//! versus the preserved label-algebra/parent-chain reference path — the
//! encoding-layer half of the §2.3 trade, one axis at a time.
//!
//! For each of `descendants`, `following`, `children` and `is_ancestor`
//! there are two cases:
//!
//! * `<axis>/scan` — the `*_via_labels` / full-table reference
//!   implementation (what the encoding shipped before the extents),
//!   reading QED labels through a scheme session, or the parent column
//!   for `children`;
//! * `<axis>/topology` — the index's extent-backed axis (`children`
//!   steps from child to child through the extents), its rows collected
//!   into a `Vec` like the reference's for `descendants` and
//!   `following`. The sample names predate the index's columns and
//!   stay so the committed baselines line up.
//!
//! Context rows sweep the document (every `STRIDE`-th row) so the costs
//! aren't dominated by the root's giant subtree.
//!
//! ```text
//! cargo run --release -p xupd-bench --bin bench_axis_index
//! ```
//!
//! Emits `results/BENCH_axis_index.json`.

use xupd_encoding::PreorderIndex;
use xupd_labelcore::{DynScheme, SchemeSession};
use xupd_schemes::prefix::qed::Qed;
use xupd_testkit::bench::{black_box, Harness};
use xupd_workloads::docs;

// Count allocation events per bench iteration (reported as
// `allocs`/`alloc_bytes` in the emitted JSON).
xupd_testkit::install_counting_allocator!();

const STRIDE: usize = 17;

fn main() {
    let mut h = Harness::new("axis_index");
    let tree = docs::xmark_like(11, 240);
    let index = PreorderIndex::encode(&tree).unwrap();
    let mut labels = SchemeSession::new(Qed::new());
    labels.label_tree(&tree).unwrap();
    let n = index.len();
    let contexts: Vec<usize> = (0..n).step_by(STRIDE).collect();
    println!(
        "document: {n} rows, {} context rows (stride {STRIDE})",
        contexts.len()
    );

    h.bench("descendants/scan", || {
        let mut total = 0usize;
        for &c in &contexts {
            total += black_box(index.descendants_via_labels(&labels, c).unwrap()).len();
        }
        total
    });
    h.bench("descendants/topology", || {
        let mut total = 0usize;
        for &c in &contexts {
            total += black_box(index.descendant_range(c).collect::<Vec<_>>()).len();
        }
        total
    });

    h.bench("following/scan", || {
        let mut total = 0usize;
        for &c in &contexts {
            total += black_box(index.following_via_labels(&labels, c).unwrap()).len();
        }
        total
    });
    h.bench("following/topology", || {
        let mut total = 0usize;
        for &c in &contexts {
            total += black_box(index.following(c).collect::<Vec<_>>()).len();
        }
        total
    });

    h.bench("children/scan", || {
        let mut total = 0usize;
        for &c in &contexts {
            total += black_box(index.children_via_scan(c)).len();
        }
        total
    });
    h.bench("children/topology", || {
        let mut total = 0usize;
        for &c in &contexts {
            total += black_box(index.children(c).count());
        }
        total
    });

    // is_ancestor over the full context × context pair grid.
    h.bench("is_ancestor/labels", || {
        let mut hits = 0usize;
        for &a in &contexts {
            for &b in &contexts {
                hits += usize::from(black_box(
                    index.is_ancestor_via_labels(&labels, a, b).unwrap(),
                ));
            }
        }
        hits
    });
    h.bench("is_ancestor/topology", || {
        let mut hits = 0usize;
        for &a in &contexts {
            for &b in &contexts {
                hits += usize::from(black_box(index.is_ancestor(a, b)));
            }
        }
        hits
    });

    h.finish().expect("write results/BENCH_axis_index.json");
}
