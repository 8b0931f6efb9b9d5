//! Per-axis micro-costs of the topology sidecar versus the preserved
//! label-algebra/parent-chain reference path — the encoding-layer half
//! of the §2.3 trade, one axis at a time.
//!
//! For each of `descendants`, `following`, `children` and `is_ancestor`
//! there are two cases:
//!
//! * `<axis>/scan` — the `*_via_labels` / full-table reference
//!   implementation (what the encoding shipped before the topology
//!   index; still the path the framework checkers grade schemes on);
//! * `<axis>/topology` — the CSR/extent-backed axis.
//!
//! Context rows sweep the document (every `STRIDE`-th row) so the costs
//! aren't dominated by the root's giant subtree.
//!
//! ```text
//! cargo run --release -p xupd-bench --bin bench_axis_index
//! ```
//!
//! Emits `results/BENCH_axis_index.json`.

use xupd_encoding::EncodedDocument;
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
    let doc = EncodedDocument::encode(Qed::new(), &tree).unwrap();
    let index = doc.index();
    let n = index.len();
    let contexts: Vec<usize> = (0..n).step_by(STRIDE).collect();
    println!(
        "document: {n} rows, {} context rows (stride {STRIDE})",
        contexts.len()
    );

    h.bench("descendants/scan", || {
        let mut total = 0usize;
        for &c in &contexts {
            total += black_box(doc.descendants_via_labels(c)).len();
        }
        total
    });
    h.bench("descendants/topology", || {
        let mut total = 0usize;
        for &c in &contexts {
            total += black_box(index.descendants(c)).len();
        }
        total
    });

    h.bench("following/scan", || {
        let mut total = 0usize;
        for &c in &contexts {
            total += black_box(doc.following_via_labels(c)).len();
        }
        total
    });
    h.bench("following/topology", || {
        let mut total = 0usize;
        for &c in &contexts {
            total += black_box(index.following(c)).len();
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
            total += black_box(index.children(c)).len();
        }
        total
    });

    // is_ancestor over the full context × context pair grid.
    h.bench("is_ancestor/labels", || {
        let mut hits = 0usize;
        for &a in &contexts {
            for &b in &contexts {
                hits += usize::from(black_box(doc.is_ancestor_via_labels(a, b)));
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
