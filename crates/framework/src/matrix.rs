//! The Figure 7 evaluation matrix: declared (transcribed from the paper)
//! and measured (from the [`crate::checkers`] battery), with rendering.

use crate::checkers::{measure_session, Measured};
use xupd_labelcore::{Compliance, SchemeDescriptor};
use xupd_schemes::{registry, registry_figure7, SchemeEntry};
use xupd_xmldom::TreeError;

/// One matrix row: descriptive columns plus eight graded cells.
#[derive(Debug, Clone)]
pub struct MatrixRow {
    /// Scheme descriptor (name, citation, order kind, encoding rep,
    /// declared cells).
    pub descriptor: SchemeDescriptor,
    /// The graded cells this row displays (declared or measured).
    pub cells: [Compliance; 8],
}

impl MatrixRow {
    /// §5.2 score: sum of compliance scores over the eight cells.
    pub fn score(&self) -> u32 {
        self.cells.iter().map(|c| c.score()).sum()
    }
}

/// A rendered evaluation matrix.
#[derive(Debug, Clone)]
pub struct EvaluationMatrix {
    /// Matrix title (shown in the rendering).
    pub title: String,
    /// Rows in paper order.
    pub rows: Vec<MatrixRow>,
}

impl EvaluationMatrix {
    /// Render as an aligned ASCII table in the paper's column order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{}\n", self.title));
        let headers = [
            "Labelling Scheme",
            "Doc. Order",
            "Enc. Rep.",
            "Persistent",
            "XPath Eval.",
            "Level Enc.",
            "Overflow",
            "Orthogonal",
            "Compact",
            "Division",
            "Recursion",
        ];
        let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
        let mut body: Vec<Vec<String>> = Vec::new();
        for row in &self.rows {
            let d = &row.descriptor;
            let mut cols = vec![
                format!("{} {}", d.name, d.citation),
                d.order.to_string(),
                d.encoding.to_string(),
            ];
            cols.extend(row.cells.iter().map(|c| c.to_string()));
            for (i, c) in cols.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
            body.push(cols);
        }
        let fmt_row = |cols: &[String]| -> String {
            cols.iter()
                .enumerate()
                .map(|(i, c)| format!("{:<w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let header_cols: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
        out.push_str(&fmt_row(&header_cols));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for cols in &body {
            out.push_str(&fmt_row(cols));
            out.push('\n');
        }
        out
    }

    /// Schemes ranked by §5.2 score, best first (the paper's "CDQS
    /// satisfies the greater number of properties" analysis).
    pub fn ranking(&self) -> Vec<(&'static str, u32)> {
        let mut v: Vec<(&'static str, u32)> = self
            .rows
            .iter()
            .map(|r| (r.descriptor.name, r.score()))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        v
    }
}

/// The paper's Figure 7, transcribed: twelve rows of declared compliance.
pub fn declared_figure7() -> EvaluationMatrix {
    EvaluationMatrix {
        title: "Figure 7 — declared evaluation framework (transcribed from the paper)".to_string(),
        rows: registry_figure7()
            .into_iter()
            .map(|e| MatrixRow {
                cells: e.descriptor.declared,
                descriptor: e.descriptor,
            })
            .collect(),
    }
}

/// Run the checker battery over `entries` on `workers` pool threads
/// (schemes are independent, so the fan-out is per entry). Results come
/// back in roster order regardless of worker count, and **every**
/// failing scheme's error is reported — unlike the retired visitor
/// collector, which parked only the first.
pub fn measure_entries_threads(
    entries: Vec<SchemeEntry>,
    workers: usize,
) -> (
    Vec<(SchemeDescriptor, Measured)>,
    Vec<(SchemeDescriptor, TreeError)>,
) {
    let outcomes = xupd_exec::par_map_with(workers, &entries, |entry| {
        let mut session = entry.session();
        measure_session(session.as_mut())
    });
    let mut results = Vec::new();
    let mut errors = Vec::new();
    for (entry, outcome) in entries.into_iter().zip(outcomes) {
        match outcome {
            Ok(m) => results.push((entry.descriptor, m)),
            Err(e) => errors.push((entry.descriptor, e)),
        }
    }
    (results, errors)
}

fn first_error_or(
    (results, mut errors): (
        Vec<(SchemeDescriptor, Measured)>,
        Vec<(SchemeDescriptor, TreeError)>,
    ),
) -> Result<Vec<(SchemeDescriptor, Measured)>, TreeError> {
    if errors.is_empty() {
        Ok(results)
    } else {
        Err(errors.remove(0).1)
    }
}

/// Run the checker battery over the twelve Figure 7 schemes, in
/// parallel on the [`xupd_exec`] pool.
pub fn measure_figure7() -> Result<Vec<(SchemeDescriptor, Measured)>, TreeError> {
    measure_figure7_threads(xupd_exec::worker_count())
}

/// [`measure_figure7`] with an explicit worker count.
pub fn measure_figure7_threads(
    workers: usize,
) -> Result<Vec<(SchemeDescriptor, Measured)>, TreeError> {
    first_error_or(measure_entries_threads(registry_figure7(), workers))
}

/// Run the checker battery over the full roster, in parallel on the
/// [`xupd_exec`] pool.
pub fn measure_all() -> Result<Vec<(SchemeDescriptor, Measured)>, TreeError> {
    measure_all_threads(xupd_exec::worker_count())
}

/// [`measure_all`] with an explicit worker count.
pub fn measure_all_threads(
    workers: usize,
) -> Result<Vec<(SchemeDescriptor, Measured)>, TreeError> {
    first_error_or(measure_entries_threads(registry(), workers))
}

/// Build the measured matrix from checker results.
pub fn measured_matrix(results: &[(SchemeDescriptor, Measured)]) -> EvaluationMatrix {
    EvaluationMatrix {
        title: "Measured evaluation framework (this reproduction's checker battery)".to_string(),
        rows: results
            .iter()
            .map(|(d, m)| MatrixRow {
                descriptor: d.clone(),
                cells: m.cells,
            })
            .collect(),
    }
}

/// The paper's Figure 7 letters, verbatim, keyed by scheme name — the
/// golden transcription the descriptor tables are tested against.
pub const FIGURE7_GOLDEN: [(&str, &str, &str, &str); 12] = [
    ("XPath Accelerator", "Global", "Fixed", "NPFNNFFF"),
    ("XRel", "Global", "Fixed", "NPFNNFFF"),
    ("Sector", "Hybrid", "Fixed", "NPNNNPFN"),
    ("QRS", "Global", "Fixed", "NPNNNPFF"),
    ("DeweyID", "Hybrid", "Variable", "NFFNNNFF"),
    ("Ordpath", "Hybrid", "Variable", "FFFNNNNF"),
    ("DLN", "Hybrid", "Fixed", "NFFNNNFF"),
    ("LSDX", "Hybrid", "Variable", "NFFNNNFF"),
    ("ImprovedBinary", "Hybrid", "Variable", "FFFNNNNN"),
    ("QED", "Hybrid", "Variable", "FFFFFNNN"),
    ("CDQS", "Hybrid", "Variable", "FFFFFFNN"),
    ("Vector", "Hybrid", "Variable", "FPNFFFFN"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_matrix_matches_the_papers_figure7_verbatim() {
        let m = declared_figure7();
        assert_eq!(m.rows.len(), 12);
        for (row, (name, order, enc, letters)) in m.rows.iter().zip(FIGURE7_GOLDEN) {
            let d = &row.descriptor;
            assert_eq!(d.name, name);
            assert_eq!(d.order.to_string(), order, "{name}");
            assert_eq!(d.encoding.to_string(), enc, "{name}");
            let got: String = row.cells.iter().map(|c| c.letter()).collect();
            assert_eq!(got, letters, "{name}");
            assert!(d.in_figure7);
        }
    }

    #[test]
    fn cdqs_tops_the_declared_ranking() {
        // §5.2: "the CDQS labelling scheme satisfies the greater number
        // of properties and thus, may be considered … most generic".
        let m = declared_figure7();
        let ranking = m.ranking();
        assert_eq!(ranking[0].0, "CDQS");
    }

    #[test]
    fn figure7_row_uniqueness_claim_checked() {
        // §5.2 claims "No two labelling schemes share the same
        // properties" — but on the paper's own table two pairs are
        // letter-for-letter identical: XPath Accelerator ≡ XRel and
        // DeweyID ≡ LSDX (DLN matches them on letters but differs in the
        // Encoding column). This test pins down that reproduction
        // finding; see EXPERIMENTS.md (F7 notes).
        let m = declared_figure7();
        let mut identical = Vec::new();
        for (i, a) in m.rows.iter().enumerate() {
            for b in m.rows.iter().skip(i + 1) {
                let same = a.cells == b.cells
                    && a.descriptor.order == b.descriptor.order
                    && a.descriptor.encoding == b.descriptor.encoding;
                if same {
                    identical.push((a.descriptor.name, b.descriptor.name));
                }
            }
        }
        assert_eq!(
            identical,
            vec![("XPath Accelerator", "XRel"), ("DeweyID", "LSDX")],
            "the paper's uniqueness claim holds except for these two pairs"
        );
    }

    #[test]
    fn render_contains_all_scheme_names() {
        let m = declared_figure7();
        let s = m.render();
        for (name, ..) in FIGURE7_GOLDEN {
            assert!(s.contains(name), "{name} missing from rendering");
        }
    }
}
