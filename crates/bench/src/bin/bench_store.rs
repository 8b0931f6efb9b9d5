//! P11: fleet throughput and per-op tail latency of the sharded
//! concurrent document store.
//!
//! One seeded [`FleetWorkload`] (32 sessions, Zipf-skewed documents,
//! mixed open / query / batch-update / close) replays against fresh
//! stores three ways:
//!
//! * **reference** — the sequential spec executor, whose per-lane busy
//!   time feeds the machine-independent modelled makespan at each
//!   worker count (with fewer cores than workers, threads time-slice
//!   and measured wall cannot show the scaling — same convention as
//!   `bench_matrix_pool`);
//! * **concurrent @ 1 and 4 workers** — per-shard writer lanes grouped
//!   onto `xupd-exec` pool threads (lane `l` on thread `l % workers`),
//!   per-op service time (op start → completion; time spent waiting
//!   for the thread's earlier ops excluded) into per-class HDR
//!   histograms (p50/p99/p999);
//! * **reader storm** — concurrent `query_now` readers over the final
//!   fleet, pinning that snapshot-isolated reads trigger zero snapshot
//!   rebuilds.
//!
//! Emits `results/BENCH_store.json` (custom schema: throughput +
//! per-class latency quantiles per executor configuration).
//!
//! ```text
//! cargo run --release -p xupd-bench --bin bench_store
//! ```

use std::fmt::Write as _;

use xupd_schemes::prefix::qed::Qed;
use xupd_store::{replay_concurrent, replay_reference, OpClass, ReplayReport, Store, StoreConfig};
use xupd_testkit::bench::{monotonic_ns, results_dir};
use xupd_testkit::LatencyHistogram;
use xupd_workloads::{docs, FleetConfig, FleetWorkload};
use xupd_xmldom::XmlTree;

const MODEL_WIDTHS: [usize; 4] = [1, 2, 4, 8];
const MEASURED_WIDTHS: [usize; 2] = [1, 4];

fn fleet_trees(n: usize) -> Vec<XmlTree> {
    (0..n as u64).map(|i| docs::xmark_like(i, 40)).collect()
}

fn iters() -> u32 {
    std::env::var("XUPD_BENCH_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
}

/// Per-class quantile row rendered into the JSON and the table.
fn class_json(class: OpClass, h: &LatencyHistogram) -> String {
    format!(
        "{{\"class\": \"{}\", \"count\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
         \"p999_ns\": {}, \"mean_ns\": {}, \"max_ns\": {}}}",
        class.name(),
        h.count(),
        h.quantile(0.50),
        h.quantile(0.99),
        h.quantile(0.999),
        h.mean(),
        h.max()
    )
}

fn print_classes(label: &str, merged: &[(OpClass, LatencyHistogram)]) {
    for (class, h) in merged {
        println!(
            "  {label:<16} {:<7} n={:<6} p50 {:>9} ns  p99 {:>10} ns  p999 {:>10} ns",
            class.name(),
            h.count(),
            h.quantile(0.50),
            h.quantile(0.99),
            h.quantile(0.999),
        );
    }
}

/// Histograms of every class merged across a run's lanes.
fn merged_classes(report: &ReplayReport) -> Vec<(OpClass, LatencyHistogram)> {
    OpClass::ALL
        .iter()
        .map(|&c| (c, report.class_histogram(c)))
        .collect()
}

fn classes_json(merged: &[(OpClass, LatencyHistogram)]) -> String {
    let rows: Vec<String> = merged.iter().map(|(c, h)| class_json(*c, h)).collect();
    format!("[{}]", rows.join(", "))
}

fn main() {
    let fleet = FleetWorkload::generate(FleetConfig::bench(0x570e));
    let trees = fleet_trees(fleet.config.docs);
    let cfg = StoreConfig::fleet();
    let iters = iters();
    println!(
        "fleet: {} sessions x {} visits over {} docs -> {} ops ({} shards, {} iters)",
        fleet.config.sessions,
        fleet.config.visits_per_session,
        fleet.config.docs,
        fleet.ops.len(),
        cfg.shards,
        iters,
    );

    // ---- reference executor: service times + modelled scaling ----
    let mut ref_best: Option<ReplayReport> = None;
    let mut ref_classes: Vec<(OpClass, LatencyHistogram)> = OpClass::ALL
        .iter()
        .map(|&c| (c, LatencyHistogram::new()))
        .collect();
    for _ in 0..iters {
        let store = Store::build(&Qed::new(), &cfg, &trees).expect("fleet builds");
        let report = replay_reference(&store, &fleet);
        for (slot, (_, h)) in merged_classes(&report).iter().zip(ref_classes.iter_mut()) {
            h.merge(&slot.1);
        }
        if ref_best
            .as_ref()
            .map_or(true, |b| report.wall_ns < b.wall_ns)
        {
            ref_best = Some(report);
        }
    }
    let ref_best = ref_best.expect("at least one iteration");
    println!(
        "\nreference (sequential): wall {:.2} ms, {:.0} ops/sec",
        ms(ref_best.wall_ns),
        ref_best.ops_per_sec()
    );
    print_classes("reference", &ref_classes);

    let busy = ref_best.busy_total_ns();
    let mut model_json = String::from("{");
    for (i, w) in MODEL_WIDTHS.iter().enumerate() {
        let makespan = ref_best.modelled_makespan_ns(*w);
        println!(
            "  modelled makespan @ {w} worker(s): {:>8.2} ms  (speedup {:.2}x)",
            ms(makespan),
            busy as f64 / makespan.max(1) as f64
        );
        let _ = write!(model_json, "\"{w}\": {makespan}");
        if i + 1 < MODEL_WIDTHS.len() {
            model_json.push_str(", ");
        }
    }
    model_json.push('}');
    let modelled_x4 = busy as f64 / ref_best.modelled_makespan_ns(4).max(1) as f64;

    // ---- concurrent lanes at measured widths ----
    let mut concurrent_json: Vec<String> = Vec::new();
    let mut final_store: Option<Store<Qed>> = None;
    for &workers in &MEASURED_WIDTHS {
        let mut best: Option<ReplayReport> = None;
        let mut classes: Vec<(OpClass, LatencyHistogram)> = OpClass::ALL
            .iter()
            .map(|&c| (c, LatencyHistogram::new()))
            .collect();
        for _ in 0..iters {
            let store = Store::build(&Qed::new(), &cfg, &trees).expect("fleet builds");
            let report = replay_concurrent(&store, &fleet, workers);
            for (slot, (_, h)) in merged_classes(&report).iter().zip(classes.iter_mut()) {
                h.merge(&slot.1);
            }
            if best.as_ref().map_or(true, |b| report.wall_ns < b.wall_ns) {
                best = Some(report);
            }
            final_store = Some(store);
        }
        let best = best.expect("at least one iteration");
        println!(
            "\nconcurrent @ {} worker(s): wall {:.2} ms, {:.0} ops/sec",
            best.workers,
            ms(best.wall_ns),
            best.ops_per_sec()
        );
        print_classes(&format!("lanes/{workers}"), &classes);
        concurrent_json.push(format!(
            "{{\"workers\": {}, \"wall_ns\": {}, \"ops_per_sec\": {:.1}, \
             \"busy_ns\": {}, \"classes\": {}}}",
            best.workers,
            best.wall_ns,
            best.ops_per_sec(),
            best.busy_total_ns(),
            classes_json(&classes)
        ));
    }

    // ---- reader storm over the final fleet state ----
    let store = final_store.expect("a concurrent run completed");
    let mut rebuilds_before = 0u64;
    store.for_each_doc(|_, slot| rebuilds_before += slot.doc().snapshot_rebuilds());
    let doc_ids: Vec<u32> = (0..fleet.config.docs as u32).collect();
    let t0 = monotonic_ns();
    let per_doc_reads: Vec<u64> = xupd_exec::par_map(&doc_ids, |&doc| {
        let mut served = 0u64;
        for _round in 0..200 {
            for class in 0..store.query_classes() {
                if store.query_now(doc, class).is_some() {
                    served += 1;
                }
            }
        }
        served
    });
    let storm_ns = monotonic_ns().saturating_sub(t0);
    let reads: u64 = per_doc_reads.iter().sum();
    let mut rebuilds_after = 0u64;
    store.for_each_doc(|_, slot| rebuilds_after += slot.doc().snapshot_rebuilds());
    assert_eq!(
        rebuilds_before, rebuilds_after,
        "snapshot-isolated readers must not rebuild snapshots"
    );
    println!(
        "\nreader storm: {reads} cached reads in {:.2} ms ({:.0} reads/sec), 0 snapshot rebuilds",
        ms(storm_ns),
        reads as f64 * 1e9 / storm_ns.max(1) as f64
    );

    // ---- artifact ----
    let mut counts_json = String::from("{");
    let counts = fleet.class_counts();
    for (i, (name, n)) in counts.iter().enumerate() {
        let _ = write!(counts_json, "\"{name}\": {n}");
        if i + 1 < counts.len() {
            counts_json.push_str(", ");
        }
    }
    counts_json.push('}');

    let json = format!(
        "{{\n  \"suite\": \"store\",\n  \"iters\": {iters},\n  \"fleet\": {{\"sessions\": {}, \
         \"docs\": {}, \"shards\": {}, \"total_ops\": {}, \"classes\": {counts_json}}},\n  \
         \"reference\": {{\"wall_ns\": {}, \"busy_ns\": {busy}, \"ops_per_sec\": {:.1}, \
         \"classes\": {}, \"modelled_makespan_ns\": {model_json}, \
         \"modelled_speedup_at_4\": {modelled_x4:.2}}},\n  \
         \"concurrent\": [{}],\n  \
         \"reader_storm\": {{\"reads\": {reads}, \"wall_ns\": {storm_ns}, \
         \"snapshot_rebuilds\": {rebuilds_after}}}\n}}\n",
        fleet.config.sessions,
        fleet.config.docs,
        cfg.shards,
        fleet.ops.len(),
        ref_best.wall_ns,
        ref_best.ops_per_sec(),
        classes_json(&ref_classes),
        concurrent_json.join(", "),
    );
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("results dir creatable");
    let path = dir.join("BENCH_store.json");
    std::fs::write(&path, json).expect("results dir writable");
    println!(
        "\nstore: modelled speedup at 4 workers {modelled_x4:.2}x -> {}",
        path.display()
    );
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
