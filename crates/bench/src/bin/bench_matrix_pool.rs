//! P7: wall-clock of the full-roster checker battery (`measure`)
//! across `xupd-exec` pool widths, plus the per-scheme serial costs the
//! pool schedules over.
//!
//! The battery is seventeen independent per-scheme batteries, so the
//! achievable speedup at `w` workers is bounded by the list-scheduling
//! makespan `max(longest scheme, total / w)` — printed below as the
//! *modelled* speedup next to the measured one. On a single-CPU host
//! the measured column stays ~1x (threads time-slice one core); the
//! modelled column is what the same schedule delivers once `w` cores
//! exist.
//!
//! ```text
//! cargo run --release -p xupd-bench --bin bench_matrix_pool
//! ```

use xupd_framework::measure;
use xupd_schemes::registry;
use xupd_testkit::bench::{black_box, Harness};

xupd_testkit::install_counting_allocator!();

const WIDTHS: [usize; 4] = [1, 2, 4, 8];

fn main() {
    let mut h = Harness::new("matrix_pool");

    // Whole-battery wall clock at each pool width.
    for workers in WIDTHS {
        h.bench(&format!("measure_all/threads/{workers}"), || {
            black_box(measure(registry(), workers)).expect("battery is sound")
        });
    }

    // Per-scheme serial cost: one single-entry roster at a time, on the
    // inline sequential path.
    let names: Vec<&'static str> = registry().iter().map(|e| e.name()).collect();
    let mut serial_ns: Vec<(String, u64)> = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let sample = h.bench_case(&format!("battery/{name}"), || {
            let entry = registry().swap_remove(i);
            black_box(measure(vec![entry], 1)).expect("battery is sound")
        });
        serial_ns.push((sample.name.clone(), sample.median_ns()));
        h.push(sample);
    }

    // List-scheduling model over the measured serial costs.
    let total: u64 = serial_ns.iter().map(|(_, ns)| ns).sum();
    let longest = serial_ns.iter().map(|(_, ns)| *ns).max().unwrap_or(0);
    println!(
        "\nserial battery total {:.1} ms, longest scheme {:.1} ms",
        ms(total),
        ms(longest)
    );
    for workers in WIDTHS {
        let makespan = longest.max(total / workers as u64);
        println!(
            "  modelled makespan @ {workers} worker(s): {:>7.1} ms  (speedup {:.2}x)",
            ms(makespan),
            total as f64 / makespan as f64
        );
    }

    h.finish().expect("results dir is writable");
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
