//! Workspace walking, report assembly and serialization (text + JSON).

use crate::rules::{check_source, rule_name, FileCtx, Finding, ALL_RULES};
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A finding plus the source line it sits on, for terminal rendering.
#[derive(Debug, Clone)]
pub struct RenderedFinding {
    /// The finding itself.
    pub finding: Finding,
    /// The full source line (trailing newline stripped).
    pub source_line: String,
}

/// A `lint:allow` comment that covered no finding — stale, or the rule id
/// is misspelled.
#[derive(Debug, Clone)]
pub struct UnusedSuppression {
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// Rule id named by the comment.
    pub rule: String,
}

/// Everything one lint run learned about the workspace.
#[derive(Debug, Default)]
pub struct WorkspaceReport {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// All findings, suppressed ones included (see
    /// [`Finding::is_unsuppressed`]).
    pub findings: Vec<RenderedFinding>,
    /// Stale suppression comments.
    pub unused_suppressions: Vec<UnusedSuppression>,
}

impl WorkspaceReport {
    /// Findings not covered by a suppression.
    pub fn unsuppressed(&self) -> impl Iterator<Item = &RenderedFinding> {
        self.findings.iter().filter(|f| f.finding.is_unsuppressed())
    }

    /// Count of findings not covered by a suppression.
    pub fn unsuppressed_count(&self) -> usize {
        self.unsuppressed().count()
    }

    /// Count of suppressed findings.
    pub fn suppressed_count(&self) -> usize {
        self.findings.len() - self.unsuppressed_count()
    }

    /// Per-rule `(unsuppressed, suppressed)` counts, in `ALL_RULES` order.
    pub fn per_rule(&self) -> Vec<(&'static str, usize, usize)> {
        ALL_RULES
            .iter()
            .map(|r| {
                let un = self
                    .findings
                    .iter()
                    .filter(|f| f.finding.rule == *r && f.finding.is_unsuppressed())
                    .count();
                let sup = self
                    .findings
                    .iter()
                    .filter(|f| f.finding.rule == *r && !f.finding.is_unsuppressed())
                    .count();
                (*r, un, sup)
            })
            .collect()
    }

    /// Human-readable report: unsuppressed findings with source context,
    /// then the suppression ledger, then a per-rule summary table.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in self.unsuppressed() {
            let fd = &f.finding;
            let _ = writeln!(
                out,
                "{}:{}:{}: {} {}: {}",
                fd.path,
                fd.line,
                fd.col,
                fd.rule,
                rule_name(fd.rule),
                fd.message
            );
            let _ = writeln!(out, "    | {}", f.source_line.trim_end());
            let caret_pad = " ".repeat((fd.col as usize).saturating_sub(1));
            let _ = writeln!(out, "    | {caret_pad}^");
        }
        let suppressed: Vec<_> = self
            .findings
            .iter()
            .filter(|f| !f.finding.is_unsuppressed())
            .collect();
        if !suppressed.is_empty() {
            let _ = writeln!(out, "suppressed findings ({}):", suppressed.len());
            for f in &suppressed {
                let fd = &f.finding;
                let why = fd.suppressed_by.as_deref().unwrap_or("");
                let _ = writeln!(
                    out,
                    "  {}:{}: {} {} — allowed: {}",
                    fd.path, fd.line, fd.rule, fd.message, why
                );
            }
        }
        for u in &self.unused_suppressions {
            let _ = writeln!(
                out,
                "warning: {}:{}: lint:allow({}) matched no finding (stale?)",
                u.path, u.line, u.rule
            );
        }
        let _ = writeln!(
            out,
            "xupd-lint: {} file(s) scanned, {} unsuppressed finding(s), {} suppressed",
            self.files_scanned,
            self.unsuppressed_count(),
            self.suppressed_count()
        );
        for (rule, un, sup) in self.per_rule() {
            let _ = writeln!(
                out,
                "  {rule} {:<26} unsuppressed {un:>3}   suppressed {sup:>3}",
                rule_name(rule)
            );
        }
        out
    }

    /// Deterministic machine-readable summary (hand-rolled JSON — the
    /// workspace is dependency-free by design).
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(
            out,
            "  \"findings_unsuppressed\": {},",
            self.unsuppressed_count()
        );
        let _ = writeln!(
            out,
            "  \"findings_suppressed\": {},",
            self.suppressed_count()
        );
        let _ = writeln!(
            out,
            "  \"suppressions_unused\": {},",
            self.unused_suppressions.len()
        );
        out.push_str("  \"rules\": {\n");
        let per_rule = self.per_rule();
        for (i, (rule, un, sup)) in per_rule.iter().enumerate() {
            let comma = if i + 1 < per_rule.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    \"{rule}\": {{\"name\": \"{}\", \"unsuppressed\": {un}, \"suppressed\": {sup}}}{comma}",
                rule_name(rule)
            );
        }
        out.push_str("  },\n");
        out.push_str("  \"findings\": [\n");
        let unsup: Vec<_> = self.unsuppressed().collect();
        for (i, f) in unsup.iter().enumerate() {
            let fd = &f.finding;
            let comma = if i + 1 < unsup.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \"message\": \"{}\", \"snippet\": \"{}\"}}{comma}",
                json_escape(&fd.path),
                fd.line,
                fd.col,
                fd.rule,
                json_escape(&fd.message),
                json_escape(f.source_line.trim_end())
            );
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &["target", ".git", "results", "node_modules"];

/// Collect every `.rs` file under `root`, workspace-relative, sorted —
/// the scan order (and therefore the report) is deterministic.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = fs::read_dir(&dir)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(|e| e.file_name());
        for e in entries {
            let path = e.path();
            let name = e.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Lint one file that is already in memory. `rel_path` decides which
/// rules apply (see [`FileCtx::classify`]).
pub fn check_file_source(src: &str, rel_path: &str, report: &mut WorkspaceReport) {
    let ctx = FileCtx::classify(rel_path);
    let (findings, unused) = check_source(src, &ctx);
    let lines: Vec<&str> = src.lines().collect();
    for f in findings {
        let source_line = lines
            .get((f.line as usize).saturating_sub(1))
            .copied()
            .unwrap_or("")
            .to_string();
        report.findings.push(RenderedFinding {
            finding: f,
            source_line,
        });
    }
    for s in unused {
        report.unused_suppressions.push(UnusedSuppression {
            path: ctx.path.clone(),
            line: s.line,
            rule: s.rule,
        });
    }
    report.files_scanned += 1;
}

/// Lint every `.rs` file in the workspace rooted at `root`.
pub fn check_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let mut report = WorkspaceReport::default();
    for path in collect_rs_files(root)? {
        let src = fs::read_to_string(&path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        check_file_source(&src, &rel, &mut report);
    }
    // Deterministic ordering regardless of filesystem quirks.
    report.findings.sort_by(|a, b| {
        (
            &a.finding.path,
            a.finding.line,
            a.finding.col,
            a.finding.rule,
        )
            .cmp(&(
                &b.finding.path,
                b.finding.line,
                b.finding.col,
                b.finding.rule,
            ))
    });
    report
        .unused_suppressions
        .sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(report)
}

/// Climb from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut cur = Some(start.to_path_buf());
    while let Some(dir) = cur {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        cur = dir.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_counts_and_json_shape() {
        let mut rep = WorkspaceReport::default();
        check_file_source(
            "fn f(x: Option<u8>) -> u8 { x.unwrap() }",
            "crates/xmldom/src/a.rs",
            &mut rep,
        );
        assert_eq!(rep.files_scanned, 1);
        assert_eq!(rep.unsuppressed_count(), 1);
        let json = rep.render_json();
        assert!(json.contains("\"findings_unsuppressed\": 1"), "{json}");
        assert!(json.contains("\"rule\": \"R1\""), "{json}");
        assert!(
            json.contains("\"snippet\": \"fn f(x: Option<u8>) -> u8 { x.unwrap() }\""),
            "machine-readable findings carry the source line: {json}"
        );
        let text = rep.render_text();
        assert!(text.contains("no-panic-paths"), "{text}");
        assert!(text.contains("x.unwrap()"), "source context: {text}");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn workspace_root_discovery() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("inside the workspace");
        assert!(root.join("crates").is_dir());
    }
}
