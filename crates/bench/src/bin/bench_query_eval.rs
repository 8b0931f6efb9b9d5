//! P5 — XPath evaluation over the encoding scheme, per labelling
//! scheme. Since the topology sidecar landed, every axis runs on
//! interval-containment ancestry and CSR children; the per-scheme
//! `xpath/<scheme>` cases therefore measure the streaming evaluator
//! (NameIndex buckets ∩ extent ranges) rather than the historical
//! full-table label-algebra scans — compare against the seed medians in
//! EXPERIMENTS.md for the before/after. The evaluator reads only the
//! preorder index, which is the same for every scheme, so the twelve
//! cases time one evaluator over twelve identical indexes; the roster
//! stays so that the sample names stay comparable across commits.
//!
//! The `descendant-name/*` cases keep the §2.3 trade visible on one
//! query shape:
//!
//! * `scan` — the preserved label-algebra reference path (what every
//!   axis cost before the topology index);
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

use xupd_encoding::{document_registry_figure7, parse_xpath, EncodedDocument};
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
/// encoding used before the topology sidecar, the name-index probe, and
/// the streaming evaluator end to end.
fn bench_scan_vs_indexed(h: &mut Harness) {
    let tree = docs::xmark_like(7, 300);
    let doc = EncodedDocument::encode(Qed::new(), &tree).unwrap();
    let index = doc.index();
    let expr = parse_xpath("//item").unwrap();
    let idx = index.name_index();
    let root = index.root();

    h.bench("descendant-name/scan", || {
        // reference path: full table, label-algebra ancestry per row
        let hits: Vec<usize> = (0..index.len())
            .filter(|&i| {
                let kind = index.kind(i);
                kind.is_element()
                    && kind.name() == Some("item")
                    && doc.is_ancestor_via_labels(root, i)
            })
            .collect();
        black_box(hits).len()
    });
    h.bench("descendant-name/index", || {
        black_box(idx.descendants_named(index, root, "item")).len()
    });
    h.bench("descendant-name/streaming", || {
        black_box(expr.evaluate(index)).len()
    });
}

fn main() {
    let mut h = Harness::new("query_eval");
    let tree = docs::xmark_like(7, 150);
    // One erased encoded document per Figure 7 scheme, each scheme's
    // case timed on its own pool worker, samples pushed in roster order.
    let entries = document_registry_figure7();
    let samples = xupd_exec::par_map(&entries, |entry| {
        let doc = (entry.encode)(&tree).unwrap();
        let exprs: Vec<_> = QUERIES.iter().map(|q| parse_xpath(q).unwrap()).collect();
        h.bench_case(&format!("xpath/{}", entry.name()), || {
            let mut total = 0usize;
            for e in &exprs {
                // lint:allow(R10): this bench *measures* raw evaluation cost
                total += black_box(e.evaluate(doc.index())).len();
            }
            total
        })
    });
    for sample in samples {
        h.push(sample);
    }
    bench_scan_vs_indexed(&mut h);
    h.finish().expect("write results/BENCH_query_eval.json");
}
