//! P12 — flux DSL compile+apply vs. a hand-built mutation log.
//!
//! Two program styles, each applied two ways per scheme:
//!
//! * **hand** — the expert client: targets resolved ahead of time, the
//!   `MutationLog` assembled directly, analyzed and applied through
//!   `apply_plan_with_dyn` under `ApplyOptions::analyzed()`;
//! * **flux** — the DSL client: the equivalent program *source text*
//!   is lexed, parsed, statically checked, lowered against the live
//!   tree and applied through the identical plan path — the whole
//!   compiler runs inside the timed region.
//!
//! Both clients read one preorder index of the base tree, encoded
//! outside the timed region, as a `Document` holds it: the hand log is
//! analyzed against it and the program is compiled against it.
//!
//! The primary family (`flux/dsl` vs `flux/hand`) is the DSL's batch
//! idiom — one `for /r/s do … end` comprehension fanning out to every
//! section, 3 ops per section — where compilation is O(program), not
//! O(batch), so its cost amortizes exactly as the batch grows. The
//! secondary family (`flux/enum` vs `flux/hand-enum`) spells every op
//! as its own statement with a positional path: that prices the
//! per-statement compiler path (one XPath parse + one resolution per
//! statement), the worst case for the front end.
//!
//! Both clients produce identical logs (asserted per batch size before
//! timing starts), so the measured gap is purely the compiler.
//! The acceptance line: flux within 1.2× of hand at batch ≥ 16 on a
//! majority of schemes (primary family).
//!
//! Each scheme's cases run on their own `xupd-exec` pool worker;
//! samples are pushed in roster order so the emitted JSON is
//! byte-identical at any `XUPD_THREADS`.
//!
//! ```text
//! cargo run --release -p xupd-bench --bin bench_flux
//! ```
//!
//! Emits `results/BENCH_flux.json` and prints the ratio table.

use std::fmt::Write as _;
use xupd_flux::FluxProgram;
use xupd_framework::analysis::{analyze_in, apply_plan_with_dyn, ApplyOptions};
use xupd_framework::mutations::{LogId, Mutation, MutationLog, NodeRef, Place};
use xupd_framework::{PreorderIndex, ShadowScheme};
use xupd_testkit::bench::{black_box, Harness};
use xupd_xmldom::{NodeId, NodeKind, XmlTree};

// Count allocation events per bench iteration (reported as
// `allocs`/`alloc_bytes` in the emitted JSON).
xupd_testkit::install_counting_allocator!();

/// Section counts; each section contributes `OPS_PER_SECTION` ops, so
/// the batch sizes are 3 / 48 / 192 — the acceptance criterion reads
/// the batches ≥ 16.
const SECTIONS: [usize; 3] = [1, 16, 64];
/// Ops emitted per section by both program styles.
const OPS_PER_SECTION: usize = 3;

/// The batch idiom: one comprehension, every section, 3 ops each.
const DSL_PROGRAM: &str = "for /r/s do \
     insert <item>v</item> into .; \
     set ./x/text() to \"w\"; \
     delete ./y; \
     end";

/// `<r> (<s><x>t</x><y/></s> × n) </r>`.
fn base_tree(n: usize) -> XmlTree {
    let mut src = String::from("<r>");
    for _ in 0..n {
        src.push_str("<s><x>t</x><y/></s>");
    }
    src.push_str("</r>");
    xupd_xmldom::parse(&src).expect("static document")
}

/// Per-section resolved targets: `(s, x's text child, y)`.
fn targets(tree: &XmlTree) -> Vec<(NodeId, NodeId, NodeId)> {
    let root = tree.document_element().expect("document element");
    tree.children(root)
        .filter(|&s| tree.kind(s).is_element())
        .map(|s| {
            let mut elems = tree.children(s).filter(|&c| tree.kind(c).is_element());
            let x = elems.next().expect("x child");
            let y = elems.next().expect("y child");
            let t = tree
                .children(x)
                .find(|&c| tree.kind(c).is_text())
                .expect("text child");
            (s, t, y)
        })
        .collect()
}

/// The enumerated style: every op its own statement, positional paths.
fn enum_source(n: usize) -> String {
    let mut src = String::new();
    for i in 1..=n {
        let _ = writeln!(src, "insert <item>v</item> into /r/s[{i}];");
        let _ = writeln!(src, "set /r/s[{i}]/x/text() to \"w\";");
        let _ = writeln!(src, "delete /r/s[{i}]/y;");
    }
    src
}

/// The expert client's log — also the byte-level ground truth both
/// program styles must compile to. `LogId`s follow the compiler's
/// allocation order.
fn hand_log(targets: &[(NodeId, NodeId, NodeId)]) -> MutationLog {
    let mut log = MutationLog::default();
    let mut next = 0u32;
    for &(s, t, y) in targets {
        let el = LogId(next);
        let txt = LogId(next + 1);
        next += 2;
        log.push(Mutation::CreateElement {
            id: el,
            name: "item".to_string(),
            place: Place::LastChildOf(NodeRef::Node(s)),
        });
        log.push(Mutation::CreateNode {
            id: txt,
            kind: NodeKind::text("v"),
            place: Place::LastChildOf(NodeRef::New(el)),
        });
        log.push(Mutation::SetText {
            target: NodeRef::Node(t),
            text: "w".to_string(),
        });
        log.push(Mutation::Delete {
            target: NodeRef::Node(y),
        });
    }
    log
}

fn main() {
    let mut h = Harness::new("flux");
    let entries = xupd_schemes::registry();

    // Identical compilation is a precondition of the comparison: assert
    // both styles against the ground-truth log, outside timing.
    for n in SECTIONS {
        let tree = base_tree(n);
        let index = PreorderIndex::encode(ShadowScheme::default(), &tree).unwrap();
        let hand = hand_log(&targets(&tree));
        for (style, src) in [("dsl", DSL_PROGRAM.to_string()), ("enum", enum_source(n))] {
            let program = FluxProgram::parse(&src).expect("well-formed source");
            let compiled = program.compile(&tree, &index).expect("clean program");
            assert_eq!(
                compiled.log, hand,
                "flux {style} and hand logs must be identical at {n} sections"
            );
        }
    }

    // (scheme, style, batch ops, hand median, flux median)
    let mut medians: Vec<(&'static str, &'static str, usize, u64, u64)> = Vec::new();

    let per_scheme = xupd_exec::par_map(&entries, |entry| {
        let mut samples = Vec::new();
        let mut session = entry.session();
        for n in SECTIONS {
            let tree = base_tree(n);
            let index = PreorderIndex::encode(ShadowScheme::default(), &tree).unwrap();
            let hand = hand_log(&targets(&tree));
            let ops = n * OPS_PER_SECTION;
            let enum_src = enum_source(n);
            samples.push(h.bench_case(&format!("flux/hand/{}/{ops}", entry.name()), || {
                let mut t = tree.clone();
                session.label_tree(&t).unwrap();
                let log = black_box(hand.clone());
                let plan = analyze_in(&log, &t, &index).unwrap();
                let opts = ApplyOptions::analyzed();
                black_box(apply_plan_with_dyn(&mut t, session.as_mut(), &log, &plan, opts).unwrap())
            }));
            for (style, src) in [("dsl", DSL_PROGRAM), ("enum", enum_src.as_str())] {
                samples.push(h.bench_case(
                    &format!("flux/{style}/{}/{ops}", entry.name()),
                    || {
                        let mut t = tree.clone();
                        session.label_tree(&t).unwrap();
                        let program = FluxProgram::parse(src).unwrap();
                        let compiled = program.compile(&t, &index).unwrap();
                        black_box(
                            apply_plan_with_dyn(
                                &mut t,
                                session.as_mut(),
                                &compiled.log,
                                &compiled.plan,
                                ApplyOptions::analyzed(),
                            )
                            .unwrap(),
                        )
                    },
                ));
            }
        }
        (entry.name(), samples)
    });

    for (name, samples) in per_scheme {
        for (si, n) in SECTIONS.iter().enumerate() {
            let ops = n * OPS_PER_SECTION;
            let hand = samples[3 * si].median_ns();
            let dsl = samples[3 * si + 1].median_ns();
            let enumerated = samples[3 * si + 2].median_ns();
            medians.push((name, "dsl", ops, hand, dsl));
            medians.push((name, "enum", ops, hand, enumerated));
        }
        for sample in samples {
            h.push(sample);
        }
    }

    println!("\nflux-vs-hand medians (ratio = flux/hand):");
    for &(name, style, ops, hand, flux) in &medians {
        let ratio = flux as f64 / hand.max(1) as f64;
        println!(
            "  {name:<16} {style:<5} batch={ops:<4} hand {hand:>10}ns  flux {flux:>10}ns  {ratio:.2}x"
        );
    }
    for n in SECTIONS.iter().skip(1) {
        let ops = n * OPS_PER_SECTION;
        let rows: Vec<_> = medians
            .iter()
            .filter(|m| m.1 == "dsl" && m.2 == ops)
            .collect();
        let within = rows
            .iter()
            .filter(|(_, _, _, hand, flux)| *flux as f64 <= 1.2 * (*hand).max(1) as f64)
            .count();
        println!(
            "batch {ops}: flux (dsl) within 1.2x of hand on {within}/{} schemes",
            rows.len()
        );
    }

    h.finish().expect("write results/BENCH_flux.json");
}
