//! Regenerates the paper's Figure 7: the declared evaluation matrix
//! (transcribed) next to this reproduction's *measured* matrix, with the
//! §5.2 ranking, all declared-vs-measured divergences, and soundness
//! findings (LSDX's uniqueness failures).
//!
//! ```text
//! cargo run --release --bin figure7 [--all]
//! ```
//!
//! `--all` extends the roster with the §6 schemes (CDBS, Com-D, Prime,
//! DDE) the paper announces as future evaluation work.

use xupd_framework::{measure, Figure7Report};
use xupd_schemes::{registry, registry_figure7};

fn main() {
    let all = std::env::args().any(|a| a == "--all");
    let entries = if all { registry() } else { registry_figure7() };
    let results =
        measure(entries, xupd_exec::worker_count()).expect("checker battery drives live trees");
    let report = Figure7Report::new(results);
    println!("{}", report.render());
}
