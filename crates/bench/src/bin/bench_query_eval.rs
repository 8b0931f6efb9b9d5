//! P5 — XPath evaluation over the encoding scheme. Since the preorder
//! index gained its extents, every axis runs on interval-containment
//! ancestry and children stepped through the extents; the `xpath` case
//! therefore measures the streaming evaluator (NameIndex buckets ∩
//! extent ranges) rather than the historical full-table label-algebra
//! scans — compare against the seed medians in EXPERIMENTS.md for the
//! before/after. The evaluator reads only the preorder index and the
//! tree's node content, which no labelling scheme changes, so one case
//! times it for every scheme.
//!
//! The `descendant-name/*` cases keep the §2.3 trade visible on one
//! query shape:
//!
//! * `scan` — the preserved label-algebra reference path (what every
//!   axis cost before the extents), reading QED labels through
//!   a scheme session;
//! * `index` — `NameIndex::descendants_named`: bucket ∩ extent range
//!   via two binary searches;
//! * `streaming` — the full parsed-XPath evaluator on the same query.
//!
//! Offline harness (formerly a criterion bench):
//!
//! ```text
//! cargo run --release -p xupd-bench --bin bench_query_eval
//! ```
//!
//! Emits `results/BENCH_query_eval.json`.

use xupd_encoding::{parse_xpath, PreorderIndex};
use xupd_labelcore::{DynScheme, SchemeSession};
use xupd_schemes::prefix::qed::Qed;
use xupd_testkit::bench::{black_box, Harness};
use xupd_workloads::docs;

// Count allocation events per bench iteration (reported as
// `allocs`/`alloc_bytes` in the emitted JSON).
xupd_testkit::install_counting_allocator!();

const QUERIES: [&str; 4] = [
    "/site/regions/europe/item",
    "//item/name",
    "//person/@id",
    "//open_auction/bidder/following-sibling::*",
];

/// The §2.3 trade-off, timed on `//item`: the label-algebra scan the
/// encoding used before the extents, the name-index probe, and
/// the streaming evaluator end to end.
fn bench_scan_vs_indexed(h: &mut Harness) {
    let tree = docs::xmark_like(7, 300);
    let index = PreorderIndex::encode(&tree).unwrap();
    let mut labels = SchemeSession::new(Qed::new());
    labels.label_tree(&tree).unwrap();
    let expr = parse_xpath("//item").unwrap();
    let idx = index.name_index();
    let root = index.root();

    h.bench("descendant-name/scan", || {
        // reference path: full table, label-algebra ancestry per row
        let hits: Vec<usize> = (0..index.len())
            .filter(|&i| {
                let kind = tree.kind(index.source_id(i));
                kind.is_element()
                    && kind.name() == Some("item")
                    && index.is_ancestor_via_labels(&labels, root, i).unwrap()
            })
            .collect();
        black_box(hits).len()
    });
    h.bench("descendant-name/index", || {
        black_box(idx.descendants_named(&index, root, "item")).len()
    });
    h.bench("descendant-name/streaming", || {
        black_box(expr.evaluate(&tree, &index)).len()
    });
}

fn main() {
    let mut h = Harness::new("query_eval");
    let tree = docs::xmark_like(7, 150);
    let index = PreorderIndex::encode(&tree).unwrap();
    let exprs: Vec<_> = QUERIES.iter().map(|q| parse_xpath(q).unwrap()).collect();
    h.bench("xpath", || {
        let mut total = 0usize;
        for e in &exprs {
            // lint:allow(R10): this bench *measures* raw evaluation cost
            total += black_box(e.evaluate(&tree, &index)).len();
        }
        total
    });
    bench_scan_vs_indexed(&mut h);
    h.finish().expect("write results/BENCH_query_eval.json");
}
