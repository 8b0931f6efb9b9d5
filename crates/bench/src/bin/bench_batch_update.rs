//! P8 — batched vs. per-op update cost through the mutation-log API.
//!
//! The same 256-op workload is applied in batches of 1, 16 and 256
//! mutations: each batch is translated with `batch_of_in_place` on the
//! live tree (the store's compile path) and applied atomically with
//! `apply_log_dyn`. Batch size 1 is the per-op client (one validation
//! pass, one element-pool scan, and one translation journal plus one
//! pair of apply journals *per edit*); larger batches amortise all
//! three, which is exactly the saving the batch API exists to buy. A
//! `driver` reference case runs the classic per-op `run_script_dyn`
//! driver on the identical script for context.
//!
//! Each scheme's cases run on their own `xupd-exec` pool worker; samples
//! are pushed in roster order so the emitted JSON is byte-identical at
//! any `XUPD_THREADS`.
//!
//! Offline harness:
//!
//! ```text
//! cargo run --release -p xupd-bench --bin bench_batch_update
//! ```
//!
//! Emits `results/BENCH_batch_update.json` and prints a batched-wins
//! tally (size-256 median vs. size-1 median per scheme).

use xupd_framework::driver::run_script_dyn;
use xupd_framework::mutations::{apply_log_dyn, batch_of_in_place};
use xupd_testkit::bench::{black_box, Harness};
use xupd_workloads::{docs, Script, ScriptKind};

// Count allocation events per bench iteration (reported as
// `allocs`/`alloc_bytes` in the emitted JSON).
xupd_testkit::install_counting_allocator!();

/// Total mutations per iteration; also the largest batch size.
const OPS: usize = 256;
/// Batch sizes under comparison (1 = the per-op client).
const SIZES: [usize; 3] = [1, 16, 256];

/// Apply `script` in consecutive chunks of `size` ops, translating each
/// chunk on the live tree and applying it atomically.
fn run_chunked(
    tree: &mut xupd_xmldom::XmlTree,
    session: &mut dyn xupd_labelcore::DynScheme,
    script: &Script,
    size: usize,
) {
    for chunk in script.ops.chunks(size) {
        let sub = Script {
            kind: script.kind,
            ops: chunk.to_vec(),
        };
        let log = batch_of_in_place(&sub, tree).unwrap();
        apply_log_dyn(tree, session, &log).unwrap();
    }
}

fn main() {
    let mut h = Harness::new("batch_update");
    let base = docs::random_tree(0xBA7C, 300);
    let entries = xupd_schemes::registry();
    let script = Script::generate(ScriptKind::Random, OPS, base.len(), 13);

    // (scheme, size-1 median, size-256 median) for the wins tally
    let mut medians: Vec<(&'static str, u64, u64)> = Vec::new();

    let per_scheme = xupd_exec::par_map(&entries, |entry| {
        let mut samples = Vec::new();
        let mut session = entry.session();
        samples.push(h.bench_case(
            &format!("batch/driver/{}/{OPS}", entry.name()),
            || {
                let mut tree = base.clone();
                session.label_tree(&tree).unwrap();
                black_box(run_script_dyn(&mut tree, session.as_mut(), &script).unwrap())
            },
        ));
        for size in SIZES {
            samples.push(h.bench_case(
                &format!("batch/logged/{}/{size}", entry.name()),
                || {
                    let mut tree = base.clone();
                    session.label_tree(&tree).unwrap();
                    run_chunked(&mut tree, session.as_mut(), &script, size);
                    black_box(tree.len())
                },
            ));
        }
        (entry.name(), samples)
    });

    for (name, samples) in per_scheme {
        let one = samples[1].median_ns();
        let big = samples[3].median_ns();
        medians.push((name, one, big));
        for sample in samples {
            h.push(sample);
        }
    }

    let wins = medians.iter().filter(|(_, one, big)| big < one).count();
    println!("\nbatched (256) beats per-op (1) on {wins}/{} schemes:", medians.len());
    for (name, one, big) in &medians {
        let speedup = *big as f64 / (*one).max(1) as f64;
        println!(
            "  {name:<14} per-op {one:>12}ns  batched {big:>12}ns  ({:.2}x)",
            1.0 / speedup.max(f64::MIN_POSITIVE)
        );
    }

    h.finish().expect("write results/BENCH_batch_update.json");
}
