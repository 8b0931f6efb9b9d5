//! xbench — one end-to-end benchmark for the store and flux write
//! paths, with a per-stage trace taken from outside the library.
//!
//! ```text
//! cargo run --release -q --offline --manifest-path crates/bench/src/bin/xbench/Cargo.toml -- \
//!     --workload fleet-small [--seed 22286] [--seconds 15] [--trace 0|1]
//! ```
//!
//! One process, one thread. It replays each of the workload's streams
//! against a fresh `Store`, round after round (`--seconds` sets how
//! many rounds), checks the results, and prints one
//! `name value unit (n=samples)` line per metric followed by a JSON
//! result object as the last line. With `--trace 1` it also replays
//! stream 0 once more after every round against its own traced mirror
//! of the documents, prints the per-layer metrics instead of the
//! end-to-end ones, and
//! writes the spans to `target/xbench/trace-<workload>-<seed>.jsonl`.
//! It exits non-zero if any correctness check fails. README.md
//! describes the metrics and the workloads.

mod mirror;
mod report;
mod run;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use xupd_store::StoreConfig;

use crate::mirror::Mirror;
use crate::report::Metric;
use crate::workload::{Workload, DEFAULT_SEED};

// Allocation counts come from the testkit counting allocator.
xupd_testkit::install_counting_allocator!();

/// Bytes allocated on this thread so far.
fn allocated() -> u64 {
    xupd_testkit::alloc::counts().1
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds: f64 = 15.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds >= 0.0 && seconds.is_finite()) {
        return Err(format!("bad value for --seconds: {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Everything one invocation reports.
struct Outcome {
    /// Failed correctness checks; empty means correct.
    failures: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    mirror: Option<Mirror>,
}

/// Run one workload. `full` selects the benchmark size (the unit tests
/// run the reduced size).
fn bench(args: &Args, full: bool) -> Result<Outcome, String> {
    let streams = args.workload.streams(args.seed, full);
    let mut mirror = if args.trace {
        Some(Mirror::new(&StoreConfig::fleet().query_exprs)?)
    } else {
        None
    };
    // The traced repetitions of stream 0 run one after each round, so
    // they meet the same load on the host as the untraced ones.
    let measured = run::measure(&streams, run::rounds_for(args.seconds), || {
        mirror.as_mut().map_or(Ok(()), |m| m.replay(&streams[0]))
    })?;
    let mut failures = run::gate(&streams[0], &measured);
    let metrics = match &mirror {
        Some(mirror) => {
            failures.extend(run::gate_mirror(mirror, &measured));
            report::per_layer(&measured, mirror)
        }
        None => report::end_to_end(&measured),
    };
    Ok(Outcome {
        failures,
        attempted: measured.attempted(),
        failed: measured.failed(),
        metrics,
        mirror,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match bench(&args, true) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(mirror) = &outcome.mirror {
        let path = PathBuf::from("target/xbench").join(format!(
            "trace-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        if let Err(e) = mirror.tracer.save(&path) {
            eprintln!("xbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("xbench: spans written to {}", path.display());
    }
    for f in &outcome.failures {
        eprintln!("xbench: correctness check failed: {f}");
    }
    let correct = outcome.failures.is_empty();
    print!("{}", report::render_lines(&outcome.metrics));
    println!(
        "{}",
        report::render_json(correct, outcome.attempted, outcome.failed, &outcome.metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 7,
            seconds: 0.0,
            trace,
        }
    }

    #[test]
    fn command_line_is_parsed_and_checked() {
        let v = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert_eq!(
            parse_args(&v("--workload flux-batch --seed 3 --seconds 2 --trace 1")),
            Ok(Args {
                workload: Workload::FluxBatch,
                seed: 3,
                seconds: 2.0,
                trace: true
            })
        );
        let d = parse_args(&v("--workload read-mostly")).expect("defaults");
        assert_eq!((d.seed, d.seconds, d.trace), (DEFAULT_SEED, 15.0, false));
        for bad in [
            "",
            "--workload nope",
            "--workload fleet-small --trace 2",
            "--workload fleet-small --seconds -1",
            "--workload fleet-small --seed",
            "--workload fleet-small --verbose 1",
        ] {
            assert!(parse_args(&v(bad)).is_err(), "{bad:?} must be rejected");
        }
    }

    /// Every workload, reduced, passes the whole gate — the traced
    /// mirror included — and reports every metric with a finite value.
    #[test]
    fn reduced_runs_pass_the_correctness_gate() {
        for w in Workload::ALL {
            let o = bench(&args(w, true), false).expect("run");
            assert!(o.failures.is_empty(), "{}: {:?}", w.name(), o.failures);
            assert_eq!(o.failed, 0, "{}: no op may fail", w.name());
            assert!(o.attempted > 0);
            assert!(o.metrics.iter().all(|m| m.value.is_finite()));
            let m = o.mirror.expect("traced run keeps its mirror");
            assert!(m.counters.batches > 0 && m.counters.rejected == 0);

            let o = bench(&args(w, false), false).expect("run");
            assert!(o.failures.is_empty(), "{}: {:?}", w.name(), o.failures);
            assert!(
                o.metrics.iter().all(|m| m.value > 0.0),
                "{}: {:?}",
                w.name(),
                o.metrics
            );
        }
    }

    /// A mirror that replayed another stream does not match the store.
    #[test]
    fn gate_catches_a_diverged_mirror() {
        let streams = Workload::FleetSmall.streams(1, false);
        let measured = run::measure(&streams, run::MIN_ROUNDS, || Ok(())).expect("run");
        let mut mirror = Mirror::new(&StoreConfig::fleet().query_exprs).expect("queries parse");
        mirror.replay(&streams[1]).expect("mirror");
        assert!(!run::gate_mirror(&mirror, &measured).is_empty());
    }

    /// The names this binary prints are exactly the names
    /// `BENCHMARK.json` declares, and so are the workload names.
    #[test]
    fn printed_metrics_match_benchmark_json() {
        // The manifest is this package's or xupd-bench's; the repository
        // root is an ancestor of both.
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .map(|d| d.join("BENCHMARK.json"))
            .find(|p| p.is_file())
            .expect("BENCHMARK.json at the repository root");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let section = |key: &str, next: Option<&str>| -> BTreeSet<String> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let end = next.map_or(json.len(), |n| {
                start
                    + json[start..]
                        .find(&format!("\"{n}\""))
                        .expect("next section")
            });
            json[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("closing quote")].to_string())
                .collect()
        };
        let names = |decl: &[(&str, &str)]| -> BTreeSet<String> {
            decl.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(
            section("workloads", Some("end_to_end")),
            names(&Workload::ALL.map(|w| (w.name(), "")))
        );
        assert_eq!(
            section("end_to_end", Some("per_layer")),
            names(&report::END_TO_END)
        );
        assert_eq!(section("per_layer", None), names(&report::PER_LAYER));

        let printed = |trace| -> BTreeSet<String> {
            let o = bench(&args(Workload::FleetSmall, trace), false).expect("run");
            o.metrics.iter().map(|m| m.name.to_string()).collect()
        };
        assert_eq!(printed(false), names(&report::END_TO_END));
        assert_eq!(printed(true), names(&report::PER_LAYER));
    }
}
