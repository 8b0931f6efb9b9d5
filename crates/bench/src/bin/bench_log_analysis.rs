//! P9 — static mutation-log analysis: what a certificate costs to
//! compute and what consuming one buys.
//!
//! Two questions, two case families:
//!
//! * `analysis/overhead/<n>` — the cost of `analyze_in` itself on
//!   batches of 1, 16 and 256 ops (scheme-independent: analysis runs
//!   once per batch, before any labelling work), against a preorder
//!   index encoded outside the timed region, as a `Document` runs it;
//!   `analysis/index_encode` times that encode, the cost a document
//!   pays once and then keeps current.
//! * `apply/{seq,plan,coalesced}/<scheme>` — sequential `apply_log_dyn`
//!   vs. the certificate consumers on a redundancy-laden batch
//!   (redundant writes + cancelling create/delete scratch subtrees in
//!   every section). The coalesce payoff is also reported as *work
//!   shed*: inserts+deletes skipped relative to sequential apply.
//!
//! ```text
//! cargo run --release -p xupd-bench --bin bench_log_analysis
//! ```
//!
//! Emits `results/BENCH_log_analysis.json`.

use xupd_framework::analysis::{analyze, analyze_in, apply_plan_with_dyn, ApplyOptions};
use xupd_framework::mutations::{
    apply_log_dyn, batch_of, LogId, Mutation, MutationLog, NodeRef, Place,
};
use xupd_framework::PreorderIndex;
use xupd_schemes::registry;
use xupd_testkit::bench::{black_box, Harness};
use xupd_workloads::{docs, Script, ScriptKind};
use xupd_xmldom::{parse, NodeId, NodeKind, XmlTree};

xupd_testkit::install_counting_allocator!();

/// Batch sizes for the analysis-overhead cases.
const SIZES: [usize; 3] = [1, 16, 256];
/// Independent document sections in the redundancy-laden batch.
const SECTIONS: usize = 8;

fn elems(t: &XmlTree, name: &str) -> Vec<NodeId> {
    t.ids_in_doc_order()
        .into_iter()
        .filter(|&id| matches!(t.kind(id), NodeKind::Element { name: e } if e == name))
        .collect()
}

fn texts(t: &XmlTree) -> Vec<NodeId> {
    t.ids_in_doc_order()
        .into_iter()
        .filter(|&id| matches!(t.kind(id), NodeKind::Text { .. }))
        .collect()
}

/// `2 * SECTIONS` disjoint `<s>` subtrees, two keyed texts each: even
/// sections take the real edits, odd sections host the cancelling
/// scratch subtrees. (The batch layer keys inserts by the parent's
/// whole subtree extent, so a scratch create sharing a section with a
/// surviving create would — correctly, conservatively — be lumped into
/// the survivor's component and stop being a nil certificate.)
fn sections_doc() -> XmlTree {
    let mut src = String::from("<r>");
    for i in 0..2 * SECTIONS {
        let a = 2 * i;
        let b = 2 * i + 1;
        src.push_str(&format!("<s><k>t{a}</k><k>t{b}</k></s>"));
    }
    src.push_str("</r>");
    parse(&src).unwrap()
}

/// Per real (even) section: one real text edit, one provably redundant
/// rewrite, one surviving insert. Per scratch (odd) section: a
/// two-node scratch subtree that cancels to nothing. Every section is
/// independent; the redundant-write and nil-component certificates
/// shed a third of the ops.
fn sections_log(t: &XmlTree) -> MutationLog {
    let s = elems(t, "s");
    let tx = texts(t);
    let mut edits = Vec::new();
    let mut next_id = 0u32;
    for i in 0..SECTIONS {
        let real = 2 * i;
        let scratch = 2 * i + 1;
        edits.push(Mutation::SetText {
            target: NodeRef::Node(tx[2 * real]),
            text: format!("X{i}"),
        });
        edits.push(Mutation::SetText {
            target: NodeRef::Node(tx[2 * real + 1]),
            text: format!("t{}", 2 * real + 1),
        });
        edits.push(Mutation::CreateElement {
            id: LogId(next_id),
            name: "m".into(),
            place: Place::FirstChildOf(NodeRef::Node(s[real])),
        });
        let tmp = next_id + 1;
        edits.push(Mutation::CreateElement {
            id: LogId(tmp),
            name: "tmp".into(),
            place: Place::LastChildOf(NodeRef::Node(s[scratch])),
        });
        edits.push(Mutation::CreateElement {
            id: LogId(tmp + 1),
            name: "inner".into(),
            place: Place::FirstChildOf(NodeRef::New(LogId(tmp))),
        });
        edits.push(Mutation::Delete {
            target: NodeRef::New(LogId(tmp)),
        });
        next_id += 3;
    }
    MutationLog::from(edits)
}

fn main() {
    let mut h = Harness::new("log_analysis");

    // -----------------------------------------------------------------
    // Analysis overhead per batch size (scheme-independent).
    // -----------------------------------------------------------------
    let big_base = docs::random_tree(0xA11A, 300);
    let index = PreorderIndex::encode(&big_base).unwrap();
    let script = Script::generate(ScriptKind::Random, 256, 300, 17);
    for n in SIZES {
        let sub = Script {
            kind: script.kind,
            ops: script.ops[..n].to_vec(),
        };
        let log = batch_of(&sub, &big_base).unwrap();
        let sample = h.bench_case(&format!("analysis/overhead/{n}"), || {
            black_box(analyze_in(&log, &big_base, &index).unwrap().len())
        });
        println!(
            "analyze({n} ops): {:.1} ns/op median",
            sample.median_ns() as f64 / n as f64
        );
        h.push(sample);
    }
    let sample = h.bench_case("analysis/index_encode", || {
        black_box(PreorderIndex::encode(&big_base).unwrap().len())
    });
    println!(
        "index encode ({} nodes): {} ns median",
        big_base.len(),
        sample.median_ns()
    );
    h.push(sample);

    // -----------------------------------------------------------------
    // Certificate consumers vs. sequential apply, per scheme.
    // -----------------------------------------------------------------
    let base = sections_doc();
    let log = sections_log(&base);
    let plan = analyze(&log, &base).unwrap();
    assert!(
        plan.components.len() >= SECTIONS,
        "sections are independent"
    );
    assert_eq!(
        plan.nil_components.len(),
        SECTIONS,
        "one scratch per section"
    );

    let entries = registry();
    // (scheme, seq ns, coalesced ns, work shed) for the summary tally
    let mut rows: Vec<(&'static str, u64, u64, usize)> = Vec::new();

    let per_scheme = xupd_exec::par_map(&entries, |entry| {
        let mut samples = Vec::new();
        let run_seq = || {
            let mut tree = base.clone();
            let mut session = (entry.factory)();
            session.label_tree(&tree).unwrap();
            apply_log_dyn(&mut tree, session.as_mut(), &log).unwrap()
        };
        let run_plan = || {
            let mut tree = base.clone();
            let mut session = (entry.factory)();
            session.label_tree(&tree).unwrap();
            apply_plan_with_dyn(
                &mut tree,
                session.as_mut(),
                &log,
                &plan,
                ApplyOptions::analyzed(),
            )
            .unwrap()
        };
        let run_coalesced = || {
            let mut tree = base.clone();
            let mut session = (entry.factory)();
            session.label_tree(&tree).unwrap();
            apply_plan_with_dyn(
                &mut tree,
                session.as_mut(),
                &log,
                &plan,
                ApplyOptions::coalesced(),
            )
            .unwrap()
        };
        let name = entry.name();
        samples.push(h.bench_case(&format!("apply/seq/{name}"), || black_box(run_seq())));
        samples.push(h.bench_case(&format!("apply/plan/{name}"), || black_box(run_plan())));
        samples.push(h.bench_case(&format!("apply/coalesced/{name}"), || {
            black_box(run_coalesced())
        }));
        // Work shed by the coalescing certificate (0 for schemes that
        // don't claim both order_independent and cancellation_neutral).
        let seq_stats = run_seq();
        let co_stats = run_coalesced();
        let shed = (seq_stats.inserts + seq_stats.deletes) - (co_stats.inserts + co_stats.deletes);
        (name, samples, shed)
    });

    for (name, samples, shed) in per_scheme {
        let seq = samples[0].median_ns();
        let coal = samples[2].median_ns();
        rows.push((name, seq, coal, shed));
        for sample in samples {
            h.push(sample);
        }
    }

    // -----------------------------------------------------------------
    // Summary table.
    // -----------------------------------------------------------------
    let wins = rows.iter().filter(|(_, seq, coal, _)| coal < seq).count();
    println!(
        "\ncoalesced apply beats sequential on {wins}/{} schemes ({}-op batch, {} certified droppable):",
        rows.len(),
        6 * SECTIONS,
        4 * SECTIONS
    );
    for (name, seq, coal, shed) in &rows {
        let speedup = *seq as f64 / (*coal).max(1) as f64;
        println!(
            "  {name:<16} seq {seq:>10}ns  coalesced {coal:>10}ns  ({speedup:.2}x, {shed} insert/delete work shed)"
        );
    }

    h.finish().expect("write results/BENCH_log_analysis.json");
}
