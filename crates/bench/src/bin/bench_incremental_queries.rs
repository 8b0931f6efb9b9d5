//! P10 — incremental XPath result maintenance vs. re-evaluate-all.
//!
//! 64 queries are registered once; a mixed update stream (≈70%
//! text-only batches, ≈25% localized structural batches, ≈5% empty
//! batches) is then replayed at batch sizes 1, 16 and 256, and after
//! every batch all 64 result sets are served. Two clients per scheme:
//!
//! * `incremental/<scheme>/b<N>` — the [`QueryCache`] path: analyze
//!   the log against the cache's own preorder index, absorb the
//!   footprint (keep / delta-repair / rebuild per query), serve from
//!   the cache;
//! * `reevaluate/<scheme>/b<N>` — the pre-cache client: discard the
//!   snapshot, re-encode the document under the scheme's real labels
//!   and re-evaluate all 64 queries from scratch.
//!
//! The `unaffected/<scheme>` probe isolates the fast path: a cache of
//! rows-only queries absorbing genuine text-only batches — every query
//! classifies unaffected, no table is rebuilt, no result is touched.
//!
//! Both clients replay the *same* pre-generated logs from the same
//! base tree, so the work difference is purely the maintenance
//! strategy. Each scheme's cases run on their own `xupd-exec` pool
//! worker; samples are pushed in roster order so the emitted JSON is
//! deterministic at any `XUPD_THREADS`.
//!
//! Offline harness:
//!
//! ```text
//! cargo run --release -p xupd-bench --bin bench_incremental_queries
//! ```
//!
//! Emits `results/BENCH_incremental_queries.json` and prints a ≥2×
//! wins tally (re-evaluate median / incremental median per scheme at
//! batch size 16).

use xupd_encoding::{document_registry, parse_xpath, XPathExpr};
use xupd_framework::analysis::analyze_in;
use xupd_framework::mutations::{
    apply_log, apply_log_dyn, LogId, Mutation, MutationLog, NodeRef, Place,
};
use xupd_framework::querycache::QueryCache;
use xupd_labelcore::LabelingScheme;
use xupd_schemes::prefix::qed::Qed;
use xupd_schemes::registry;
use xupd_testkit::bench::{black_box, Harness};
use xupd_workloads::docs;
use xupd_xmldom::{NodeId, NodeKind, XmlTree};

// Count allocation events per bench iteration (reported as
// `allocs`/`alloc_bytes` in the emitted JSON).
xupd_testkit::install_counting_allocator!();

/// Batches per replayed stream — long enough that the cache's one-time
/// registration pass amortizes and the steady-state per-batch costs
/// dominate both clients.
const BATCHES: usize = 48;
/// Ops per batch under comparison (1 = the per-edit client).
const SIZES: [usize; 3] = [1, 16, 256];

/// The 64 registered queries: mostly fully-named downward paths (the
/// shapes impact analysis can keep or repair), plus a tail of
/// subtree-positional and upward queries that always rebuild.
fn queries() -> Vec<(XPathExpr, bool)> {
    let mut texts: Vec<(String, bool)> = Vec::new();
    let regions = ["africa", "asia", "europe", "namerica"];
    for r in &regions {
        texts.push((format!("/site/regions/{r}/item"), false));
        texts.push((format!("/site/regions/{r}//name"), true));
        texts.push((format!("/site/regions/{r}/item/quantity"), false));
    }
    for k in 1..=8 {
        texts.push((format!("/site/people/person[{k}]"), false));
        texts.push((format!("/site/people/person[{k}]/name"), true));
    }
    for i in 0..8 {
        texts.push((format!("//item[@id='item0_{i}']"), true));
    }
    for k in 1..=8 {
        texts.push((format!("/site/open_auctions/open_auction[{k}]/initial"), false));
    }
    for r in &regions {
        texts.push((format!("/site/regions/{r}/item/name"), false));
    }
    texts.push(("//item".to_string(), false));
    texts.push(("//item".to_string(), true));
    texts.push(("//person/name".to_string(), true));
    texts.push(("//person/emailaddress".to_string(), false));
    texts.push(("//bidder/increase".to_string(), false));
    texts.push(("//open_auction/initial".to_string(), true));
    texts.push(("/site/people//name".to_string(), false));
    texts.push(("//item/@id".to_string(), false));
    // always-dirty tail: subtree-positional, wildcard, upward, lateral
    for k in 1..=4 {
        texts.push((format!("/site/descendant::open_auction[{k}]"), false));
    }
    texts.push(("/site/regions/*".to_string(), false));
    texts.push(("//quantity/..".to_string(), false));
    texts.push(("//name/following-sibling::*".to_string(), false));
    texts.push(("//description/text()".to_string(), true));
    assert_eq!(texts.len(), 64, "query roster must stay at 64");
    texts
        .into_iter()
        .map(|(t, ws)| (parse_xpath(&t).unwrap(), ws))
        .collect()
}

fn text_ids(tree: &XmlTree) -> Vec<NodeId> {
    tree.ids_in_doc_order()
        .into_iter()
        .filter(|&id| matches!(tree.kind(id), NodeKind::Text { .. }))
        .collect()
}

fn element_ids(tree: &XmlTree) -> Vec<NodeId> {
    tree.ids_in_doc_order()
        .into_iter()
        .filter(|&id| tree.kind(id).is_element())
        .collect()
}

/// Pre-generate the mixed update stream against a scratch replica so
/// every client replays byte-identical logs. Mix per 20 batches:
/// 14 text-only, 5 localized structural, 1 empty (70/25/5).
fn generate_traffic(base: &XmlTree, size: usize) -> Vec<MutationLog> {
    let mut scratch = base.clone();
    let mut scheme = Qed::new();
    let mut labeling = scheme.label_tree(&scratch).unwrap();
    let mut logs = Vec::with_capacity(BATCHES);
    for round in 0..BATCHES {
        let log = match round % 20 {
            r if r < 14 => {
                // text-only: rewrite `size` text nodes, rotating
                // a rotating window of distinct targets (size is
                // always well below the text-node count)
                let ids = text_ids(&scratch);
                let ops: Vec<Mutation> = (0..size)
                    .map(|j| {
                        let id = ids[(round * 31 + j) % ids.len()];
                        Mutation::SetText {
                            target: NodeRef::Node(id),
                            text: format!("w{round}-{j}"),
                        }
                    })
                    .collect();
                MutationLog::from(ops)
            }
            r if r < 19 => {
                // localized structural: `size` fresh elements spread
                // over 8 rotating hosts — footprints stay a handful of
                // extents, so most registered queries are untouched
                let elems = element_ids(&scratch);
                let ops: Vec<Mutation> = (0..size)
                    .map(|j| {
                        let host = elems[(round * 13 + (j % 8) * 97 + 5) % elems.len()];
                        Mutation::CreateElement {
                            id: LogId(j as u32),
                            name: "probe".to_string(),
                            place: Place::LastChildOf(NodeRef::Node(host)),
                        }
                    })
                    .collect();
                MutationLog::from(ops)
            }
            _ => MutationLog::from(Vec::new()),
        };
        apply_log(&mut scratch, &mut scheme, &mut labeling, &log).unwrap();
        logs.push(log);
    }
    logs
}

fn main() {
    let mut h = Harness::new("incremental_queries");
    // Large enough that full re-evaluation is the dominant cost — the
    // regime incremental maintenance exists for.
    let base = docs::xmark_like(0x1C4, 600);
    let qs = queries();
    let entries = registry();
    let docs_reg = document_registry();
    assert_eq!(entries.len(), 17);
    assert_eq!(docs_reg.len(), entries.len());
    for (a, b) in entries.iter().zip(&docs_reg) {
        assert_eq!(a.name(), b.name(), "roster order mismatch");
    }
    let pairs: Vec<(usize, usize)> = (0..entries.len())
        .flat_map(|i| SIZES.iter().map(move |&s| (i, s)))
        .collect();

    // traffic is shared per batch size across all schemes and clients
    let traffic: Vec<(usize, Vec<MutationLog>)> = SIZES
        .iter()
        .map(|&s| (s, generate_traffic(&base, s)))
        .collect();
    let stream = |size: usize| -> &[MutationLog] {
        traffic
            .iter()
            .find(|(s, _)| *s == size)
            .map(|(_, logs)| logs.as_slice())
            .unwrap()
    };

    // (scheme, size, incremental median, reevaluate median)
    let mut medians: Vec<(&'static str, usize, u64, u64)> = Vec::new();

    let per_case = xupd_exec::par_map(&pairs, |&(i, size)| {
        let entry = &entries[i];
        let doc_entry = &docs_reg[i];
        let logs = stream(size);

        let incremental = h.bench_case(&format!("incremental/{}/b{size}", entry.name()), || {
            let mut tree = base.clone();
            let mut session = entry.session();
            session.label_tree(&tree).unwrap();
            let mut cache = QueryCache::new();
            for (e, ws) in &qs {
                cache.register(e, *ws, &tree).unwrap();
            }
            let mut served = 0usize;
            for log in logs {
                let plan = analyze_in(log, &tree, cache.index(&tree).unwrap()).unwrap();
                let effective = plan.execution_order(false, session.cancellation_neutral());
                apply_log_dyn(&mut tree, session.as_mut(), log).unwrap();
                cache.absorb(log, &plan, &effective, &tree).unwrap();
                for q in 0..qs.len() {
                    served += cache.hit(q).len() + cache.strings(q).len();
                }
            }
            black_box(served)
        });

        let reevaluate = h.bench_case(&format!("reevaluate/{}/b{size}", entry.name()), || {
            let mut tree = base.clone();
            let mut session = entry.session();
            session.label_tree(&tree).unwrap();
            let mut served = 0usize;
            for log in logs {
                apply_log_dyn(&mut tree, session.as_mut(), log).unwrap();
                // snapshot discarded: re-encode under the scheme's real
                // labels, re-evaluate everything
                let doc = (doc_entry.encode)(&tree).unwrap();
                for (e, ws) in &qs {
                    let rows = doc.evaluate(e);
                    if *ws {
                        for &r in &rows {
                            served += doc.string_value(r).len();
                        }
                    }
                    served += rows.len();
                }
            }
            black_box(served)
        });

        (incremental, reevaluate)
    });
    for ((i, size), (inc, reev)) in pairs.iter().zip(per_case) {
        medians.push((entries[*i].name(), *size, inc.median_ns(), reev.median_ns()));
        h.push(inc);
        h.push(reev);
    }

    // The unaffected fast path, isolated: rows-only queries, genuine
    // text-only traffic — absorb must touch nothing.
    let probes = xupd_exec::par_map(&entries, |entry| {
        let mut tree = base.clone();
        let mut session = entry.session();
        session.label_tree(&tree).unwrap();
        let mut cache = QueryCache::new();
        let rows_only: Vec<XPathExpr> = ["//item", "//person/name", "//bidder/increase"]
            .iter()
            .map(|q| parse_xpath(q).unwrap())
            .collect();
        for e in &rows_only {
            cache.register(e, false, &tree).unwrap();
        }
        let targets = text_ids(&tree);
        let mut round = 0u64;
        h.bench_case(&format!("unaffected/{}", entry.name()), || {
            round += 1;
            let ops: Vec<Mutation> = targets
                .iter()
                .step_by(16)
                .map(|&id| Mutation::SetText {
                    target: NodeRef::Node(id),
                    text: format!("probe-{round}"),
                })
                .collect();
            let log = MutationLog::from(ops);
            let plan = analyze_in(&log, &tree, cache.index(&tree).unwrap()).unwrap();
            let effective = plan.execution_order(false, session.cancellation_neutral());
            apply_log_dyn(&mut tree, session.as_mut(), &log).unwrap();
            let impact = cache.absorb(&log, &plan, &effective, &tree).unwrap();
            assert_eq!(impact.unaffected, 3, "probe queries must all be kept");
            let mut served = 0usize;
            for q in 0..3 {
                served += cache.hit(q).len();
            }
            black_box(served)
        })
    });
    for p in probes {
        h.push(p);
    }

    // wins tally at every batch size: re-evaluate median over
    // incremental median, counting schemes at ≥2×
    for &size in &SIZES {
        let mut wins = 0usize;
        let mut total = 0usize;
        for &(_, s, inc, reev) in &medians {
            if s == size {
                total += 1;
                if reev >= inc.saturating_mul(2) {
                    wins += 1;
                }
            }
        }
        println!("incremental ≥2× wins at b{size}: {wins}/{total}");
    }
    h.finish()
        .expect("write results/BENCH_incremental_queries.json");
}
