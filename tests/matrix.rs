//! Integration tests for experiment F7 (DESIGN.md): the Figure 7
//! evaluation matrix — declared transcription, measured battery, and the
//! declared-vs-measured agreement contract.
//!
//! These are the headline reproduction assertions: if a code change
//! breaks a scheme's behaviour, the measured matrix shifts and this
//! suite pins down exactly which cell moved.

use xml_update_props::exec::worker_count;
use xml_update_props::framework::{declared_figure7, measure, Figure7Report};
use xml_update_props::labelcore::{Compliance, Property};
use xml_update_props::schemes::registry_figure7;

#[test]
fn declared_matrix_is_the_papers_figure7() {
    let m = declared_figure7();
    let letters: Vec<(String, String)> = m
        .rows
        .iter()
        .map(|r| {
            (
                r.descriptor.name.to_string(),
                r.cells.iter().map(|c| c.letter()).collect(),
            )
        })
        .collect();
    let expected = [
        ("XPath Accelerator", "NPFNNFFF"),
        ("XRel", "NPFNNFFF"),
        ("Sector", "NPNNNPFN"),
        ("QRS", "NPNNNPFF"),
        ("DeweyID", "NFFNNNFF"),
        ("Ordpath", "FFFNNNNF"),
        ("DLN", "NFFNNNFF"),
        ("LSDX", "NFFNNNFF"),
        ("ImprovedBinary", "FFFNNNNN"),
        ("QED", "FFFFFNNN"),
        ("CDQS", "FFFFFFNN"),
        ("Vector", "FPNFFFFN"),
    ];
    for ((name, letters), (ename, eletters)) in letters.iter().zip(expected) {
        assert_eq!(name, ename);
        assert_eq!(letters, eletters, "{name}");
    }
}

/// The pool is invisible in the output: the measured battery renders the
/// identical report at every worker count (`XUPD_THREADS` ∈ {1, 2, 8}).
/// One worker takes the inline sequential path, so this also pins the
/// parallel runs to the pre-pool byte stream.
#[test]
fn measured_matrix_identical_at_any_worker_count() {
    let render =
        |workers: usize| Figure7Report::new(measure(registry_figure7(), workers).unwrap()).render();
    let sequential = render(1);
    for workers in [2, 8] {
        assert_eq!(
            render(workers),
            sequential,
            "matrix diverges at {workers} workers"
        );
    }
}

/// The full measured run is the expensive part; compute once, assert
/// everything on it.
#[test]
fn measured_matrix_agreement_contract() {
    let report = Figure7Report::new(measure(registry_figure7(), worker_count()).unwrap());

    // headline agreement bar
    let (agree, total) = report.agreement();
    assert_eq!(total, 96);
    assert!(
        agree >= 85,
        "declared-vs-measured agreement regressed: {agree}/{total}\n{:#?}",
        report.divergences()
    );

    // the Division and Recursion columns agree perfectly — they are the
    // purely algorithmic judgments our instrumentation mirrors exactly
    for (d, m) in report.results() {
        for p in [Property::NoDivision, Property::NonRecursive] {
            assert_eq!(
                d.declared_for(p),
                m.cell(p),
                "{}: {} mismatch",
                d.name,
                p.column_header()
            );
        }
    }

    // XPath Evaluations and Level Encoding also agree perfectly — for
    // every *sound* scheme. LSDX is exempt: its label collisions make
    // relation answers on collided pairs wrong, so its measured XPath
    // grade depends on which pairs the verifier samples (under the
    // hermetic testkit RNG it samples a collided pair and grades P).
    for (d, m) in report.results() {
        for p in [Property::XPathEvaluations, Property::LevelEncoding] {
            if d.name == "LSDX" && p == Property::XPathEvaluations {
                continue;
            }
            assert_eq!(
                d.declared_for(p),
                m.cell(p),
                "{}: {} mismatch",
                d.name,
                p.column_header()
            );
        }
    }

    // the expected, documented divergences — and no others outside the
    // Compact column (the judgment EXPERIMENTS.md explains cannot be
    // reconstructed from size measurements alone)
    for div in report.divergences() {
        match (div.scheme, div.property) {
            // our checkers cannot fault LSDX's persistence (its declared
            // N reflects deletion-reassignment semantics)…
            ("LSDX", Property::PersistentLabels) => {
                assert_eq!(div.measured, Compliance::Full);
            }
            // …its collided labels give wrong relation answers when the
            // verifier samples a collided pair (the flip side of the
            // soundness finding that disqualifies it)…
            ("LSDX", Property::XPathEvaluations) => {
                assert_eq!(div.measured, Compliance::Partial);
            }
            // …and the zigzag probe vindicates the paper's §4 doubt
            // about Vector's overflow claim.
            ("Vector", Property::OverflowFree) => {
                assert_eq!(div.measured, Compliance::None);
            }
            (_, Property::CompactEncoding) => {}
            (scheme, prop) => {
                panic!(
                    "unexpected divergence: {scheme} on {}",
                    prop.column_header()
                )
            }
        }
    }

    // §5.2: CDQS satisfies the greatest number of properties — true in
    // the measured matrix too, once unsound schemes are disqualified.
    let measured = report.measured();
    let unsound: Vec<&str> = report
        .soundness_findings()
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let best_sound = measured
        .ranking()
        .into_iter()
        .find(|(n, _)| !unsound.contains(n))
        .expect("a sound scheme exists");
    assert_eq!(best_sound.0, "CDQS");

    // LSDX is the only scheme with soundness findings (its documented
    // uniqueness collisions, §3.1.2)
    assert_eq!(unsound, vec!["LSDX"]);
}
