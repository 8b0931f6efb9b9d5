//! Declared-vs-measured agreement reporting — the reproduction's
//! headline artifact (EXPERIMENTS.md row F7).

use crate::checkers::Measured;
use crate::matrix::{measured_matrix, EvaluationMatrix, MatrixRow};
use std::fmt::Write;
use xupd_labelcore::{Compliance, Property, SchemeDescriptor};

/// A single declared-vs-measured disagreement.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Scheme name.
    pub scheme: &'static str,
    /// The property on which the verdicts differ.
    pub property: Property,
    /// The paper's Figure 7 letter.
    pub declared: Compliance,
    /// This reproduction's measured letter.
    pub measured: Compliance,
}

/// The full declared-vs-measured comparison.
#[derive(Debug, Clone)]
pub struct Figure7Report {
    results: Vec<(SchemeDescriptor, Measured)>,
}

impl Figure7Report {
    /// Build from checker results (see [`crate::matrix::measure_figure7`]).
    pub fn new(results: Vec<(SchemeDescriptor, Measured)>) -> Self {
        Figure7Report { results }
    }

    /// The underlying per-scheme results.
    pub fn results(&self) -> &[(SchemeDescriptor, Measured)] {
        &self.results
    }

    /// The declared matrix restricted to the compared schemes.
    pub fn declared(&self) -> EvaluationMatrix {
        EvaluationMatrix {
            title: "Declared (paper Figure 7)".to_string(),
            rows: self
                .results
                .iter()
                .map(|(d, _)| MatrixRow {
                    cells: d.declared,
                    descriptor: d.clone(),
                })
                .collect(),
        }
    }

    /// The measured matrix.
    pub fn measured(&self) -> EvaluationMatrix {
        measured_matrix(&self.results)
    }

    /// Every cell where measured ≠ declared.
    pub fn divergences(&self) -> Vec<Divergence> {
        let mut out = Vec::new();
        for (d, m) in &self.results {
            for (i, &p) in Property::ALL.iter().enumerate() {
                if d.declared[i] != m.cells[i] {
                    out.push(Divergence {
                        scheme: d.name,
                        property: p,
                        declared: d.declared[i],
                        measured: m.cells[i],
                    });
                }
            }
        }
        out
    }

    /// Agreement ratio over all graded cells.
    pub fn agreement(&self) -> (usize, usize) {
        let total = self.results.len() * Property::ALL.len();
        let agree = total - self.divergences().len();
        (agree, total)
    }

    /// Soundness findings (order violations, duplicate labels, wrong
    /// relation answers) per scheme — the framework's "is the scheme even
    /// usable" output; LSDX's uniqueness failures surface here.
    pub fn soundness_findings(&self) -> Vec<(&'static str, Vec<String>)> {
        self.results
            .iter()
            .filter(|(_, m)| !m.notes.is_empty())
            .map(|(d, m)| (d.name, m.notes.clone()))
            .collect()
    }

    /// Render the full report: both matrices, the ranking, divergences
    /// and soundness findings.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.declared().render());
        out.push('\n');
        out.push_str(&self.measured().render());
        out.push('\n');

        let (agree, total) = self.agreement();
        let _ = writeln!(out, "Agreement: {agree}/{total} graded cells");

        let divs = self.divergences();
        if divs.is_empty() {
            out.push_str("No divergences.\n");
        } else {
            out.push_str("Divergences (declared → measured):\n");
            for d in &divs {
                let _ = writeln!(
                    out,
                    "  {:<18} {:<20} {} → {}",
                    d.scheme,
                    d.property.column_header(),
                    d.declared,
                    d.measured
                );
            }
        }

        out.push_str("\nRanking by measured score (§5.2 analysis; unsound schemes\n");
        out.push_str("disqualified, as the paper disqualifies LSDX in §3.1.2):\n");
        let unsound: Vec<&str> = self
            .results
            .iter()
            .filter(|(_, m)| !m.notes.is_empty())
            .map(|(d, _)| d.name)
            .collect();
        for (name, score) in self.measured().ranking() {
            if unsound.contains(&name) {
                let _ = writeln!(
                    out,
                    "   -  {name} (disqualified: uniqueness/order violations)"
                );
            } else {
                let _ = writeln!(out, "  {score:>2}  {name}");
            }
        }

        let findings = self.soundness_findings();
        if !findings.is_empty() {
            out.push_str("\nSoundness findings:\n");
            for (name, notes) in findings {
                for n in notes {
                    let _ = writeln!(out, "  {name}: {n}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::measure_session;
    use xupd_labelcore::SchemeSession;
    use xupd_schemes::prefix::cdqs::Cdqs;
    use xupd_schemes::prefix::qed::Qed;

    fn small_report() -> Figure7Report {
        let qed = Qed::new();
        let cdqs = Cdqs::new();
        let results = vec![
            (
                xupd_labelcore::LabelingScheme::descriptor(&qed),
                measure_session(&mut SchemeSession::new(qed)).unwrap(),
            ),
            (
                xupd_labelcore::LabelingScheme::descriptor(&cdqs),
                measure_session(&mut SchemeSession::new(cdqs)).unwrap(),
            ),
        ];
        Figure7Report::new(results)
    }

    #[test]
    fn qed_family_report_agreement() {
        let r = small_report();
        let (agree, total) = r.agreement();
        assert_eq!(total, 16);
        // QED agrees on everything; CDQS's sole divergence is Compact
        // (declared F, measured from skewed growth).
        let divs = r.divergences();
        assert!(agree >= 15, "{divs:?}");
        for d in divs {
            assert_eq!(d.scheme, "CDQS");
            assert_eq!(d.property, Property::CompactEncoding);
        }
    }

    #[test]
    fn render_includes_agreement_line() {
        let r = small_report();
        let s = r.render();
        assert!(s.contains("Agreement:"), "{s}");
        assert!(s.contains("Ranking"), "{s}");
    }
}
