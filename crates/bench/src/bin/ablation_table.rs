//! Ablation study over the design knobs DESIGN.md calls out: how the
//! encoding budgets that cause the §4 overflow problem trade space
//! headroom against relabelling churn.
//!
//! * XRel's gap factor (sparse allocation: bigger gaps postpone
//!   relabelling longer — §3.1.1's "only postpone the relabelling
//!   process until the interval gaps have been consumed");
//! * CDBS's fixed cell width (the fixed-length encoding that §4 blames
//!   for its overflow);
//! * ImprovedBinary's length-field capacity (the variable-length
//!   overflow §4 describes).
//!
//! ```text
//! cargo run --release --bin ablation_table [ops]
//! ```

use xupd_framework::driver::run_script_dyn;
use xupd_labelcore::{LabelingScheme, SessionMut};
use xupd_schemes::containment::xrel::XRel;
use xupd_schemes::prefix::cdbs::Cdbs;
use xupd_schemes::prefix::improved_binary::ImprovedBinary;
use xupd_workloads::{docs, Script, ScriptKind};
use xupd_xmldom::XmlTree;

struct Outcome {
    knob: String,
    relabels: u64,
    overflows: u64,
    end_max_bits: u64,
}

fn run<S: LabelingScheme + Clone + 'static>(
    mut scheme: S,
    base: &XmlTree,
    ops: usize,
    knob: String,
) -> Outcome {
    let mut tree = base.clone();
    let mut labeling = scheme.label_tree(&tree).unwrap();
    let script = Script::generate(ScriptKind::Skewed, ops, tree.len(), 5);
    let stats = run_script_dyn(
        &mut tree,
        &mut SessionMut::new(&mut scheme, &mut labeling),
        &script,
    )
    .unwrap();
    Outcome {
        knob,
        relabels: stats.relabeled,
        overflows: stats.overflow_events,
        end_max_bits: stats.end_max_bits,
    }
}

fn print_table(title: &str, rows: &[Outcome]) {
    println!("{title}");
    println!(
        "{:<16} {:>10} {:>10} {:>12}",
        "knob", "relabels", "overflows", "max bits"
    );
    println!("{}", "-".repeat(52));
    for r in rows {
        println!(
            "{:<16} {:>10} {:>10} {:>12}",
            r.knob, r.relabels, r.overflows, r.end_max_bits
        );
    }
    println!();
}

fn main() {
    let ops: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(400);
    let base = docs::random_tree(0xAB1A, 400);
    println!("Ablations under a {ops}-op skewed storm on a 400-node document\n");

    let xrel: Vec<Outcome> = [2u64, 4, 8, 16, 32, 64]
        .into_iter()
        .map(|gap| run(XRel::with_gap(gap), &base, ops, format!("gap={gap}")))
        .collect();
    print_table("XRel — gap factor (sparse allocation)", &xrel);

    let cdbs: Vec<Outcome> = [8usize, 16, 32, 64, 128]
        .into_iter()
        .map(|bits| {
            run(
                Cdbs::with_cell_bits(bits),
                &base,
                ops,
                format!("cell={bits}b"),
            )
        })
        .collect();
    print_table("CDBS — fixed cell width", &cdbs);

    let ib: Vec<Outcome> = [16usize, 32, 64, 128, 255]
        .into_iter()
        .map(|bits| {
            run(
                ImprovedBinary::with_max_code_bits(bits),
                &base,
                ops,
                format!("len≤{bits}b"),
            )
        })
        .collect();
    print_table("ImprovedBinary — length-field capacity", &ib);

    println!(
        "Reading: larger budgets postpone the first overflow (fewer events)\n\
         but pay for it in label size — the §4 trade-off, quantified."
    );
}
