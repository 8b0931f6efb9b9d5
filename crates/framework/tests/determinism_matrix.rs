//! Determinism of the parallel checker battery.
//!
//! The Figure 7 battery fans out one scheme per pool task; this suite
//! pins the contract that the worker count is unobservable in the
//! results: `measure` outcomes over the full and the Figure 7 roster —
//! and the rendered reports written to `results/figure7*.txt` — are
//! identical for 1, 2 and 8 workers. The width is passed explicitly so
//! the test does not mutate process environment (`XUPD_THREADS` is read
//! by concurrently running tests).

use xupd_framework::{measure, Figure7Report};
use xupd_schemes::{registry, registry_figure7};

#[test]
fn measure_figure7_is_identical_at_any_worker_count() {
    let baseline = measure(registry_figure7(), 1).unwrap();
    let baseline_render = Figure7Report::new(baseline.clone()).render();
    assert_eq!(baseline.len(), 12);
    for workers in [2, 8] {
        let got = measure(registry_figure7(), workers).unwrap();
        assert_eq!(
            format!("{baseline:?}"),
            format!("{got:?}"),
            "results diverged at {workers} workers"
        );
        assert_eq!(
            baseline_render,
            Figure7Report::new(got).render(),
            "figure7 render diverged at {workers} workers"
        );
    }
}

#[test]
fn measure_all_is_identical_at_any_worker_count() {
    let baseline = measure(registry(), 1).unwrap();
    let baseline_render = Figure7Report::new(baseline.clone()).render();
    assert_eq!(baseline.len(), 17);
    for workers in [2, 8] {
        let got = measure(registry(), workers).unwrap();
        assert_eq!(
            format!("{baseline:?}"),
            format!("{got:?}"),
            "results diverged at {workers} workers"
        );
        assert_eq!(
            baseline_render,
            Figure7Report::new(got).render(),
            "figure7_all render diverged at {workers} workers"
        );
    }
}
