//! The rule engine: walks a token stream produced by [`crate::lexer`] and
//! reports findings for the workspace's five static invariants.
//!
//! | id | name                       | invariant |
//! |----|----------------------------|-----------|
//! | R1 | no-panic-paths             | no `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/`unimplemented!` in library code of the result-producing crates |
//! | R2 | deterministic-collections  | no `HashMap`/`HashSet` in crates that feed `results/*` (iteration order is unspecified) |
//! | R3 | no-ambient-entropy         | no `Instant::now`/`SystemTime`/`thread_rng`-style ambient clocks or RNGs outside `testkit::bench` |
//! | R4 | scheme-completeness        | no `todo!`/`unimplemented!` inside a `LabelingScheme` impl in `xupd-schemes` |
//! | R5 | forbid-unsafe              | no `unsafe` anywhere in the workspace |
//! | R6 | no-per-op-preorder-rebuild | no `.preorder()` full-tree scan inside a per-op replay loop (a `for` loop whose header mentions `ops`) — rebuildable state must be maintained incrementally |
//! | R7 | no-raw-thread-spawn        | no `thread::spawn`/`scope.spawn` callees outside `crates/exec` — all fan-out goes through the `xupd-exec` pool so `XUPD_THREADS` governs every worker |
//! | R8 | no-direct-batch-mutation   | no direct structural tree mutation (`append_child`, `detach`, `remove_subtree`, ...) inside a per-op replay loop — multi-op edits must flow through `MutationLog` so validation and atomicity cannot be bypassed |
//! | R9 | no-unanalyzed-reorder      | no hand permutation or splitting (`.sort*`, `.swap`, `.reverse`, `.rotate_*`, `.retain`, `.drain`, `.split_off`, `.shuffle`) of a mutation-log op vector (receiver named `ops`/`log`/`mutations`) — reordering is only sound under an `AnalyzedPlan` certificate |
//! | R10 | no-uncached-reevaluate    | no `.evaluate(` call inside a query-batch loop (a `for` loop whose header mentions `queries`/`exprs`) outside `framework::querycache` and its bench baseline — registered query sets must be served through the incremental `QueryCache`, not re-evaluated wholesale per batch |
//! | R12 | no-raw-script-in-tests    | no hand-built `ScriptOp` variants in test code of the `results/*`-feeding crates — ad-hoc op lists silently drift from the generated-workload distributions the differential suites certify; drive tests through `Script::generate` or a flux DSL program (the reference differential drivers are path-exempt) |

use crate::lexer::{scan, Suppression, TokKind, Token};

/// Crates whose library code must be panic-free (R1): everything on the
/// path from a parsed document to a `results/*` byte.
pub const R1_CRATES: &[&str] = &[
    "xmldom",
    "labelcore",
    "schemes",
    "encoding",
    "framework",
    "store",
    "flux",
];

/// Crates whose code must iterate deterministically (R2): the R1 set plus
/// the workload generators and the bench/report drivers that serialize
/// `results/*`.
pub const R2_CRATES: &[&str] = &[
    "xmldom",
    "labelcore",
    "schemes",
    "encoding",
    "framework",
    "workloads",
    "bench",
    "store",
    "flux",
    "xml-update-props",
];

/// All rule ids, in report order.
pub const ALL_RULES: &[&str] = &[
    "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "R10", "R12",
];

/// Structural tree mutators that R8 forbids calling directly inside a
/// per-op replay loop — the batch API (`MutationLog`) is the only
/// sanctioned multi-op edit path.
/// Single-sourced from [`xupd_xmldom::STRUCTURAL_MUTATORS`] so the lint
/// and the analyzer's footprint table can never drift from the tree's
/// actual mutator surface.
pub const R8_MUTATORS: &[&str] = xupd_xmldom::STRUCTURAL_MUTATORS;

/// Slice permuters/splitters that R9 forbids calling on a mutation-log
/// op vector: anything that changes op order or removes ops without an
/// analyzer certificate silently forfeits the byte-identical-replay
/// guarantee the differential suite pins.
pub const R9_PERMUTERS: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "swap",
    "reverse",
    "rotate_left",
    "rotate_right",
    "retain",
    "drain",
    "split_off",
    "shuffle",
];

/// Receiver idents R9 treats as mutation-log op vectors.
pub const R9_RECEIVERS: &[&str] = &["ops", "log", "mutations"];

/// The reference differential drivers allowed to hand-build `ScriptOp`
/// lists (R12): they *are* the executable specification of op
/// addressing, so their op construction is the oracle, not a drift
/// hazard. Everything else drives tests through `Script::generate` or
/// a flux DSL program.
pub const R12_EXEMPT_PATHS: &[&str] = &[
    "crates/framework/tests/driver_differential.rs",
    "tests/determinism.rs",
    "tests/properties.rs",
];

/// Loop-header idents R10 treats as registered query batches.
pub const R10_RECEIVERS: &[&str] = &["queries", "exprs"];

/// The two modules allowed to evaluate inside a query-batch loop: the
/// query cache (rebuild/repair *is* its sanctioned evaluation path) and
/// the incremental-maintenance bench (its re-evaluate client is the
/// measured counter-example the cache is compared against).
pub const R10_EXEMPT_PATHS: &[&str] = &[
    "crates/framework/src/querycache.rs",
    "crates/bench/src/bin/bench_incremental_queries.rs",
];

/// Human name for a rule id.
pub fn rule_name(id: &str) -> &'static str {
    match id {
        "R1" => "no-panic-paths",
        "R2" => "deterministic-collections",
        "R3" => "no-ambient-entropy",
        "R4" => "scheme-completeness",
        "R5" => "forbid-unsafe",
        "R6" => "no-per-op-preorder-rebuild",
        "R7" => "no-raw-thread-spawn",
        "R8" => "no-direct-batch-mutation",
        "R9" => "no-unanalyzed-reorder",
        "R10" => "no-uncached-reevaluate",
        "R12" => "no-raw-script-in-tests",
        _ => "unknown-rule",
    }
}

/// Where a file sits in the workspace — drives which rules apply.
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Workspace-relative path, `/`-separated (used in reports).
    pub path: String,
    /// Owning crate (`xmldom`, `schemes`, ... or `xml-update-props` for
    /// the root package). Empty when outside any crate.
    pub crate_name: String,
    /// True for test/bench/bin/example code, where R1 and R2 do not
    /// apply: `tests/`, `benches/`, `examples/`, `src/bin/`, `src/main.rs`
    /// and `build.rs` paths.
    pub is_test_code: bool,
    /// True only for `crates/testkit/src/bench.rs`, the single module
    /// allowed to read the wall clock (R3).
    pub is_bench_harness: bool,
}

impl FileCtx {
    /// Classify a workspace-relative path.
    pub fn classify(rel_path: &str) -> FileCtx {
        let path = rel_path.replace('\\', "/");
        let parts: Vec<&str> = path.split('/').collect();
        let crate_name = match parts.as_slice() {
            ["crates", name, ..] => (*name).to_string(),
            ["src", ..] | ["tests", ..] | ["examples", ..] => "xml-update-props".to_string(),
            _ => String::new(),
        };
        let in_dir = |d: &str| parts.iter().any(|p| *p == d);
        let is_test_code = in_dir("tests")
            || in_dir("benches")
            || in_dir("examples")
            || path.contains("src/bin/")
            || path.ends_with("src/main.rs")
            || path.ends_with("build.rs");
        FileCtx {
            is_bench_harness: path == "crates/testkit/src/bench.rs",
            path,
            crate_name,
            is_test_code,
        }
    }
}

/// One rule violation (before suppression matching).
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id (`R1` ... `R5`).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based byte column.
    pub col: u32,
    /// What was found, e.g. `.unwrap() call in library code`.
    pub message: String,
    /// Justification text when a `lint:allow` covered this finding.
    pub suppressed_by: Option<String>,
}

impl Finding {
    /// True when no suppression covered this finding.
    pub fn is_unsuppressed(&self) -> bool {
        self.suppressed_by.is_none()
    }
}

/// Scan one file's source and return all findings (suppressed ones
/// included, marked). Also returns the suppressions that matched nothing,
/// so the caller can report stale `lint:allow` comments.
pub fn check_source(src: &str, ctx: &FileCtx) -> (Vec<Finding>, Vec<Suppression>) {
    let scanned = scan(src);
    let toks = &scanned.tokens;
    let in_cfg_test = cfg_test_mask(toks, src);
    let in_scheme_impl = labeling_scheme_impl_mask(toks, src);
    let in_ops_loop = for_loop_mask(toks, src, &["ops"]);
    let in_query_loop = for_loop_mask(toks, src, R10_RECEIVERS);

    let mut findings: Vec<Finding> = Vec::new();
    let r1_applies = !ctx.is_test_code && R1_CRATES.iter().any(|c| *c == ctx.crate_name.as_str());
    let r2_applies = !ctx.is_test_code && R2_CRATES.iter().any(|c| *c == ctx.crate_name.as_str());
    let r3_applies = !ctx.is_bench_harness;
    let r4_applies = ctx.crate_name == "schemes";
    // R6 applies to test code too (differential/reference drivers live in
    // tests/ and must opt out explicitly via lint:allow).
    let r6_applies = R2_CRATES.iter().any(|c| *c == ctx.crate_name.as_str());
    // R7 applies everywhere except the pool crate itself, test code
    // included: a raw spawn in a test escapes XUPD_THREADS just the same.
    let r7_applies = ctx.crate_name != "exec";
    // R8 applies to test code too (reference drivers replay per-op by
    // design and must opt out explicitly via lint:allow), but not to
    // xmldom itself (the tree's own test/doc code exercises its API).
    let r8_applies =
        R2_CRATES.iter().any(|c| *c == ctx.crate_name.as_str()) && ctx.crate_name != "xmldom";
    // R9 applies to test code too — the differential suite's value rests
    // on never hand-permuting op vectors, so even tests must go through
    // analyzer certificates (or opt out explicitly via lint:allow).
    let r9_applies = R2_CRATES.iter().any(|c| *c == ctx.crate_name.as_str());
    // R10 applies to test code too — oracle/differential drivers that
    // legitimately pay full re-evaluation opt out via lint:allow — but
    // not to the cache itself or to its measured re-evaluate baseline.
    let r10_applies = R2_CRATES.iter().any(|c| *c == ctx.crate_name.as_str())
        && !R10_EXEMPT_PATHS.iter().any(|p| ctx.path == *p);
    // R12 applies ONLY to test code of the results-feeding crates —
    // library code (the workloads generator, the driver, the mutation
    // batcher) legitimately matches on ScriptOp — and not to the
    // reference differential drivers, which are the executable spec.
    let r12_applies = ctx.is_test_code
        && ctx.crate_name != "workloads"
        && R2_CRATES.iter().any(|c| *c == ctx.crate_name.as_str())
        && !R12_EXEMPT_PATHS.iter().any(|p| ctx.path == *p);

    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        let text = t.text(src);
        let lib_code = !in_cfg_test[i];

        // R1 — panic paths in library code.
        if r1_applies && lib_code {
            match text {
                "unwrap" | "expect" => {
                    let method_call = i > 0
                        && toks[i - 1].kind == TokKind::Punct
                        && toks[i - 1].text(src) == "."
                        && next_is(toks, src, i, "(");
                    if method_call {
                        push(&mut findings, "R1", ctx, t, format!(".{text}() call"));
                    }
                }
                "panic" | "unreachable" | "todo" | "unimplemented" => {
                    if next_is(toks, src, i, "!") {
                        push(&mut findings, "R1", ctx, t, format!("{text}! macro"));
                    }
                }
                _ => {}
            }
        }

        // R2 — nondeterministic hash collections.
        if r2_applies && lib_code && (text == "HashMap" || text == "HashSet") {
            push(
                &mut findings,
                "R2",
                ctx,
                t,
                format!(
                    "{text} has unspecified iteration order; use BTree{}",
                    &text[4..]
                ),
            );
        }

        // R3 — ambient clocks / entropy (applies to test code too: the
        // suite must be reproducible end to end).
        if r3_applies
            && matches!(
                text,
                "Instant" | "SystemTime" | "thread_rng" | "ThreadRng" | "from_entropy"
            )
        {
            push(
                &mut findings,
                "R3",
                ctx,
                t,
                format!("ambient clock/entropy source `{text}`"),
            );
        }

        // R4 — incomplete LabelingScheme impls.
        if r4_applies
            && in_scheme_impl[i]
            && matches!(text, "todo" | "unimplemented")
            && next_is(toks, src, i, "!")
        {
            push(
                &mut findings,
                "R4",
                ctx,
                t,
                format!("{text}! inside a LabelingScheme impl"),
            );
        }

        // R5 — unsafe, everywhere, no exemptions for test code.
        if text == "unsafe" {
            push(
                &mut findings,
                "R5",
                ctx,
                t,
                "unsafe block or fn".to_string(),
            );
        }

        // R6 — full-tree `.preorder()` rebuild inside a per-op replay
        // loop. `.preorder_from(subtree)` is a different ident and stays
        // legal: subtree-proportional work is what delete paths need.
        if r6_applies
            && in_ops_loop[i]
            && text == "preorder"
            && i > 0
            && toks[i - 1].kind == TokKind::Punct
            && toks[i - 1].text(src) == "."
            && next_is(toks, src, i, "(")
        {
            push(
                &mut findings,
                "R6",
                ctx,
                t,
                ".preorder() full-tree scan inside a per-op loop; maintain the state incrementally"
                    .to_string(),
            );
        }

        // R8 — direct structural mutation inside a per-op replay loop.
        // The method-call shape (`.name(`) keeps definitions and doc
        // words legal; the for-ops mask scopes the rule to replay loops,
        // where bypassing `MutationLog` skips validation and atomicity.
        if r8_applies
            && in_ops_loop[i]
            && R8_MUTATORS.contains(&text)
            && i > 0
            && toks[i - 1].kind == TokKind::Punct
            && toks[i - 1].text(src) == "."
            && next_is(toks, src, i, "(")
        {
            push(
                &mut findings,
                "R8",
                ctx,
                t,
                format!(".{text}() in a per-op loop; batch the edits through MutationLog"),
            );
        }

        // R9 — hand permutation/splitting of a mutation-log op vector.
        // The shape `ops.sort(`/`log.drain(`/`mutations.retain(` — an
        // identifier receiver, so field accesses like `plan.ops.sort(`
        // are caught too (the receiver ident before the dot is `ops`).
        if r9_applies
            && R9_PERMUTERS.contains(&text)
            && i > 1
            && toks[i - 1].kind == TokKind::Punct
            && toks[i - 1].text(src) == "."
            && toks[i - 2].kind == TokKind::Ident
            && R9_RECEIVERS.contains(&toks[i - 2].text(src))
            && next_is(toks, src, i, "(")
        {
            push(
                &mut findings,
                "R9",
                ctx,
                t,
                format!(
                    ".{text}() permutes a mutation-log op vector; reorder only \
                     through a framework::analysis certificate"
                ),
            );
        }

        // R10 — wholesale re-evaluation of a registered query batch.
        // The method-call shape (`.evaluate(`) inside a for loop whose
        // header names a query collection is the discard-and-recompute
        // anti-pattern the incremental QueryCache replaces: footprint
        // classification keeps/repairs results instead.
        if r10_applies
            && in_query_loop[i]
            && text == "evaluate"
            && i > 0
            && toks[i - 1].kind == TokKind::Punct
            && toks[i - 1].text(src) == "."
            && next_is(toks, src, i, "(")
        {
            push(
                &mut findings,
                "R10",
                ctx,
                t,
                ".evaluate() re-runs a whole query batch; serve registered queries \
                 through framework::querycache"
                    .to_string(),
            );
        }

        // R12 — hand-built ScriptOp variants in test code. The path
        // shape (`ScriptOp ::`) catches construction and matching of
        // raw op lists in ordinary tests; generated workloads
        // (`Script::generate`) or flux DSL programs keep test inputs on
        // the certified distributions.
        if r12_applies && text == "ScriptOp" && next_is(toks, src, i, ":") {
            push(
                &mut findings,
                "R12",
                ctx,
                t,
                "raw ScriptOp in test code; generate scripts via Script::generate \
                 or compile a flux DSL program"
                    .to_string(),
            );
        }

        // R7 — raw thread spawns outside the pool crate. `::` lexes as
        // two `:` puncts, so `thread::spawn` has `:` as the previous
        // token and `scope.spawn` has `.`.
        if r7_applies
            && text == "spawn"
            && i > 0
            && toks[i - 1].kind == TokKind::Punct
            && matches!(toks[i - 1].text(src), "." | ":")
            && next_is(toks, src, i, "(")
        {
            push(
                &mut findings,
                "R7",
                ctx,
                t,
                "raw thread spawn; route fan-out through xupd_exec::par_map".to_string(),
            );
        }
    }

    let unused = apply_suppressions(&mut findings, scanned.suppressions);
    (findings, unused)
}

fn push(out: &mut Vec<Finding>, rule: &'static str, ctx: &FileCtx, t: &Token, what: String) {
    out.push(Finding {
        rule,
        path: ctx.path.clone(),
        line: t.line,
        col: t.col,
        message: what,
        suppressed_by: None,
    });
}

fn next_is(toks: &[Token], src: &str, i: usize, punct: &str) -> bool {
    toks.get(i + 1)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text(src) == punct)
}

/// Match findings against `// lint:allow(<rule>): ...` comments. A
/// suppression covers findings of its rule on its own line and the next
/// source line. Returns the suppressions that covered nothing.
fn apply_suppressions(findings: &mut [Finding], sups: Vec<Suppression>) -> Vec<Suppression> {
    let mut used = vec![false; sups.len()];
    for f in findings.iter_mut() {
        for (si, s) in sups.iter().enumerate() {
            if s.rule == f.rule && (f.line == s.line || f.line == s.line + 1) {
                f.suppressed_by = Some(s.justification.clone());
                used[si] = true;
                break;
            }
        }
    }
    sups.into_iter()
        .zip(used)
        .filter_map(|(s, u)| (!u).then_some(s))
        .collect()
}

/// Mask of tokens that sit inside a `#[cfg(test)]`-gated item (the
/// attribute itself included). The scanner skips such regions for R1/R2:
/// test-only code may panic and may hash.
fn cfg_test_mask(toks: &[Token], src: &str) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if let Some(attr_end) = match_cfg_test_attr(toks, src, i) {
            // Absorb any further attributes on the same item.
            let mut j = attr_end;
            while let Some(e) = match_any_attr(toks, src, j + 1) {
                j = e;
            }
            // Skip the gated item: to the matching `}` of its first brace,
            // or to a `;` for brace-less items (`use`, `mod x;`).
            let mut k = j + 1;
            let mut end = toks.len().saturating_sub(1);
            while k < toks.len() {
                let tt = toks[k].text(src);
                if toks[k].kind == TokKind::Punct && tt == "{" {
                    end = match_close(toks, src, k, "{", "}");
                    break;
                }
                if toks[k].kind == TokKind::Punct && tt == ";" {
                    end = k;
                    break;
                }
                k += 1;
            }
            for m in mask.iter_mut().take(end + 1).skip(i) {
                *m = true;
            }
            i = end + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// If the tokens at `i` begin a `#[cfg(...test...)]` attribute (and it is
/// not `cfg(not(...))`), return the index of its closing `]`.
fn match_cfg_test_attr(toks: &[Token], src: &str, i: usize) -> Option<usize> {
    if !(toks[i].kind == TokKind::Punct && toks[i].text(src) == "#") {
        return None;
    }
    let open = toks.get(i + 1)?;
    if !(open.kind == TokKind::Punct && open.text(src) == "[") {
        return None;
    }
    let close = match_close(toks, src, i + 1, "[", "]");
    let span = &toks[i + 2..close];
    let has = |name: &str| {
        span.iter()
            .any(|t| t.kind == TokKind::Ident && t.text(src) == name)
    };
    if has("cfg") && has("test") && !has("not") {
        Some(close)
    } else {
        None
    }
}

/// If the tokens at `i` begin any `#[...]` attribute, return the index of
/// its closing `]`.
fn match_any_attr(toks: &[Token], src: &str, i: usize) -> Option<usize> {
    let hash = toks.get(i)?;
    let open = toks.get(i + 1)?;
    if hash.kind == TokKind::Punct
        && hash.text(src) == "#"
        && open.kind == TokKind::Punct
        && open.text(src) == "["
    {
        Some(match_close(toks, src, i + 1, "[", "]"))
    } else {
        None
    }
}

/// Index of the bracket matching the opener at `open_idx` (returns the
/// last token when unbalanced — the region then runs to end of file,
/// which is the conservative choice for a skip mask).
fn match_close(toks: &[Token], src: &str, open_idx: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open_idx) {
        if t.kind == TokKind::Punct {
            let tt = t.text(src);
            if tt == open {
                depth += 1;
            } else if tt == close {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Mask of tokens inside the body of any `for` loop whose header (the
/// tokens between `for` and the body `{`) mentions one of `needles` —
/// e.g. `ops` for the driver-style per-op replay shape
/// (`for (i, op) in script.ops...`), or `queries`/`exprs` for a
/// query-batch loop.
fn for_loop_mask(toks: &[Token], src: &str, needles: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text(src) == "for" {
            let mut saw_needle = false;
            let mut j = i + 1;
            while j < toks.len() {
                let t = &toks[j];
                if t.kind == TokKind::Punct && t.text(src) == "{" {
                    break;
                }
                if t.kind == TokKind::Ident && needles.contains(&t.text(src)) {
                    saw_needle = true;
                }
                j += 1;
            }
            if saw_needle && j < toks.len() {
                let end = match_close(toks, src, j, "{", "}");
                for m in mask.iter_mut().take(end + 1).skip(j) {
                    *m = true;
                }
                // do not jump past `end`: nested needle loops inside the
                // body would be re-masked identically anyway
            }
        }
        i += 1;
    }
    mask
}

/// Mask of tokens inside `impl ... LabelingScheme for ... { ... }` bodies.
fn labeling_scheme_impl_mask(toks: &[Token], src: &str) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && toks[i].text(src) == "impl" {
            // Look at the header: tokens up to the body `{`.
            let mut saw_trait = false;
            let mut saw_for = false;
            let mut j = i + 1;
            while j < toks.len() {
                let t = &toks[j];
                let tt = t.text(src);
                if t.kind == TokKind::Punct && tt == "{" {
                    break;
                }
                if t.kind == TokKind::Ident && tt == "LabelingScheme" {
                    saw_trait = true;
                }
                if t.kind == TokKind::Ident && tt == "for" && saw_trait {
                    saw_for = true;
                }
                j += 1;
            }
            if saw_trait && saw_for && j < toks.len() {
                let end = match_close(toks, src, j, "{", "}");
                for m in mask.iter_mut().take(end + 1).skip(j) {
                    *m = true;
                }
                i = end + 1;
                continue;
            }
        }
        i += 1;
    }
    mask
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lib_ctx(path: &str) -> FileCtx {
        FileCtx::classify(path)
    }

    fn unsuppressed(src: &str, path: &str) -> Vec<Finding> {
        let (f, _) = check_source(src, &lib_ctx(path));
        f.into_iter().filter(|f| f.is_unsuppressed()).collect()
    }

    #[test]
    fn classify_paths() {
        let c = FileCtx::classify("crates/xmldom/src/tree.rs");
        assert_eq!(c.crate_name, "xmldom");
        assert!(!c.is_test_code);
        assert!(FileCtx::classify("crates/xmldom/tests/t.rs").is_test_code);
        assert!(FileCtx::classify("crates/bench/src/bin/figure7.rs").is_test_code);
        assert!(FileCtx::classify("tests/matrix.rs").is_test_code);
        assert!(FileCtx::classify("examples/quickstart.rs").is_test_code);
        assert!(FileCtx::classify("crates/testkit/src/bench.rs").is_bench_harness);
        assert_eq!(
            FileCtx::classify("src/lib.rs").crate_name,
            "xml-update-props"
        );
    }

    #[test]
    fn r1_flags_panics_in_library_code_only() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(unsuppressed(src, "crates/xmldom/src/a.rs").len(), 1);
        // not an R1 crate
        assert!(unsuppressed(src, "crates/testkit/src/a.rs").is_empty());
        // test path
        assert!(unsuppressed(src, "crates/xmldom/tests/a.rs").is_empty());
    }

    #[test]
    fn r1_ignores_cfg_test_blocks() {
        let src = r#"
            pub fn ok() {}
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { Some(1).unwrap(); panic!("boom"); }
            }
        "#;
        assert!(unsuppressed(src, "crates/schemes/src/a.rs").is_empty());
    }

    #[test]
    fn r1_unwrap_or_else_is_fine() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap_or_else(|| 0) }";
        assert!(unsuppressed(src, "crates/xmldom/src/a.rs").is_empty());
    }

    #[test]
    fn r2_flags_hash_collections() {
        let src = "use std::collections::HashMap; pub struct S { m: HashMap<u8, u8> }";
        let f = unsuppressed(src, "crates/encoding/src/a.rs");
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|f| f.rule == "R2"));
        // BTreeMap is the endorsed replacement
        let ok = "use std::collections::BTreeMap; pub struct S { m: BTreeMap<u8, u8> }";
        assert!(unsuppressed(ok, "crates/encoding/src/a.rs").is_empty());
    }

    #[test]
    fn r3_flags_clocks_everywhere_but_bench_harness() {
        let src = "fn f() { let t = std::time::Instant::now(); }";
        assert_eq!(unsuppressed(src, "crates/framework/src/a.rs").len(), 1);
        assert_eq!(unsuppressed(src, "tests/a.rs").len(), 1, "tests too");
        assert!(unsuppressed(src, "crates/testkit/src/bench.rs").is_empty());
    }

    #[test]
    fn r4_flags_todo_in_scheme_impls() {
        let src = r#"
            impl LabelingScheme for Foo {
                fn level(&self, _a: &L) -> Option<u32> { todo!() }
            }
        "#;
        let f = unsuppressed(src, "crates/schemes/src/foo.rs");
        // R1 fires on todo! in library code, and R4 on todo! in the impl.
        assert!(f.iter().any(|f| f.rule == "R4"), "{f:?}");
        // outside a LabelingScheme impl no R4
        let other = "fn f() { todo!() }";
        let f = unsuppressed(other, "crates/schemes/src/foo.rs");
        assert!(f.iter().all(|f| f.rule != "R4"));
    }

    #[test]
    fn r5_flags_unsafe_even_in_tests() {
        let src = "fn f() { unsafe { std::hint::unreachable_unchecked() } }";
        assert_eq!(
            unsuppressed(src, "crates/testkit/tests/a.rs")
                .iter()
                .filter(|f| f.rule == "R5")
                .count(),
            1
        );
    }

    #[test]
    fn r6_flags_preorder_rebuild_in_per_op_loops() {
        let src = r#"
            fn run(tree: &XmlTree, script: &Script) {
                for (i, op) in script.ops.iter().enumerate() {
                    let pool: Vec<NodeId> = tree.preorder().collect();
                }
            }
        "#;
        let f = unsuppressed(src, "crates/framework/src/driver.rs");
        assert_eq!(f.iter().filter(|f| f.rule == "R6").count(), 1, "{f:?}");
        // applies to test code too — reference drivers must opt out
        let f = unsuppressed(src, "crates/framework/tests/t.rs");
        assert_eq!(f.iter().filter(|f| f.rule == "R6").count(), 1);
        // but not outside the R2 crate set
        assert!(unsuppressed(src, "crates/testkit/src/x.rs").is_empty());
    }

    #[test]
    fn r6_leaves_legitimate_traversals_alone() {
        // preorder_from is subtree-proportional: legal in delete paths
        let sub = r#"
            fn run(script: &Script) {
                for op in script.ops.iter() {
                    for d in tree.preorder_from(node) { remove(d); }
                }
            }
        "#;
        assert!(unsuppressed(sub, "crates/framework/src/driver.rs").is_empty());
        // a .preorder() outside any per-op loop is fine (one-time build)
        let build = "fn build(tree: &XmlTree) { let v: Vec<_> = tree.preorder().collect(); }";
        assert!(unsuppressed(build, "crates/framework/src/driver.rs").is_empty());
        // a for loop without `ops` in its header is not a replay loop
        let other = "fn f() { for x in items { let v: Vec<_> = tree.preorder().collect(); } }";
        assert!(unsuppressed(other, "crates/framework/src/driver.rs").is_empty());
    }

    #[test]
    fn r7_flags_raw_spawns_outside_the_pool_crate() {
        let free = "fn f() { std::thread::spawn(|| {}); }";
        let f = unsuppressed(free, "crates/framework/src/a.rs");
        assert_eq!(f.iter().filter(|f| f.rule == "R7").count(), 1, "{f:?}");
        // scoped-spawn method calls are raw spawns too
        let scoped = "fn f(s: &Scope) { s.spawn(|| {}); }";
        let f = unsuppressed(scoped, "tests/a.rs");
        assert_eq!(f.iter().filter(|f| f.rule == "R7").count(), 1);
        // test code gets no exemption — a raw spawn escapes XUPD_THREADS
        let f = unsuppressed(free, "crates/bench/src/bin/b.rs");
        assert_eq!(f.iter().filter(|f| f.rule == "R7").count(), 1);
    }

    #[test]
    fn r7_leaves_the_pool_crate_and_non_calls_alone() {
        let free = "fn f() { std::thread::spawn(|| {}); }";
        assert!(unsuppressed(free, "crates/exec/src/lib.rs").is_empty());
        assert!(unsuppressed(free, "crates/exec/tests/pool.rs").is_empty());
        // `spawn` as a plain ident (fn name, doc word) is not a call site
        let def = "fn spawn_workers(n: usize) { let spawn = n; }";
        assert!(unsuppressed(def, "crates/framework/src/a.rs").is_empty());
    }

    #[test]
    fn r8_flags_direct_mutation_in_per_op_loops() {
        let src = r#"
            fn run(tree: &mut XmlTree, script: &Script) {
                for (i, op) in script.ops.iter().enumerate() {
                    let n = tree.create(NodeKind::element("x"));
                    tree.append_child(parent, n).unwrap();
                }
            }
        "#;
        let f = unsuppressed(src, "crates/framework/src/checkers.rs");
        assert_eq!(f.iter().filter(|f| f.rule == "R8").count(), 1, "{f:?}");
        // test code gets no exemption — reference drivers opt out via
        // lint:allow instead
        let f = unsuppressed(src, "crates/framework/tests/t.rs");
        assert_eq!(f.iter().filter(|f| f.rule == "R8").count(), 1);
        // the driver and the mutation-log module get no exemption either
        for path in [
            "crates/framework/src/driver.rs",
            "crates/framework/src/mutations.rs",
        ] {
            let f = unsuppressed(src, path);
            assert_eq!(f.iter().filter(|f| f.rule == "R8").count(), 1, "{path}");
        }
        // the tree crate itself and everything outside the R2 set are exempt
        assert!(unsuppressed(src, "crates/xmldom/src/tree.rs")
            .iter()
            .all(|f| f.rule != "R8"));
        assert!(unsuppressed(src, "crates/testkit/src/x.rs").is_empty());
    }

    #[test]
    fn r8_leaves_non_loop_and_non_call_uses_alone() {
        // one-off edits outside a replay loop are not batch bypasses
        let build = "fn f(tree: &mut XmlTree) { tree.append_child(p, n); }";
        assert!(unsuppressed(build, "crates/framework/src/checkers.rs")
            .iter()
            .all(|f| f.rule != "R8"));
        // a for loop without `ops` in its header is not a replay loop
        let other = "fn f() { for x in items { tree.remove_subtree(x); } }";
        assert!(unsuppressed(other, "crates/framework/src/checkers.rs")
            .iter()
            .all(|f| f.rule != "R8"));
        // `detach` as a plain ident (fn name) is not a call site
        let def = "fn detach_all(n: usize) { let detach = n; }";
        assert!(unsuppressed(def, "crates/framework/src/checkers.rs").is_empty());
    }

    #[test]
    fn r8_mutator_list_is_single_sourced() {
        // the lint's list IS the tree crate's list — drift is impossible,
        // and this pins the expected surface so an accidental rename in
        // xmldom is noticed here too
        assert_eq!(R8_MUTATORS, xupd_xmldom::STRUCTURAL_MUTATORS);
        assert_eq!(R8_MUTATORS.len(), 6);
        assert!(R8_MUTATORS.contains(&"append_child"));
        assert!(R8_MUTATORS.contains(&"remove_subtree"));
    }

    #[test]
    fn r9_flags_permutation_of_op_vectors() {
        let src = "fn f(log: &mut MutationLog) { log.ops.sort_by_key(|m| m.rank()); }";
        let f = unsuppressed(src, "crates/framework/src/checkers.rs");
        assert_eq!(f.iter().filter(|f| f.rule == "R9").count(), 1, "{f:?}");
        // applies to test code too — differential tests must only use
        // analyzer-certified orders
        let f = unsuppressed(src, "crates/framework/tests/t.rs");
        assert_eq!(f.iter().filter(|f| f.rule == "R9").count(), 1);
        // every permuter in the list is caught
        for m in [
            "swap",
            "reverse",
            "rotate_left",
            "retain",
            "drain",
            "split_off",
        ] {
            let src = format!("fn f() {{ ops.{m}(0); }}");
            let f = unsuppressed(&src, "crates/framework/src/checkers.rs");
            assert_eq!(f.iter().filter(|f| f.rule == "R9").count(), 1, "{m}");
        }
        // the analyzer and the mutation-log module get no exemption
        for path in [
            "crates/framework/src/analysis.rs",
            "crates/framework/src/mutations.rs",
        ] {
            let f = unsuppressed(src, path);
            assert_eq!(f.iter().filter(|f| f.rule == "R9").count(), 1, "{path}");
        }
        // outside the R2 crate set the rule does not apply
        assert!(unsuppressed(src, "crates/testkit/src/x.rs").is_empty());
    }

    #[test]
    fn r9_leaves_other_receivers_and_non_calls_alone() {
        // sorting something that is not an op vector is fine
        let other = "fn f(mut v: Vec<u32>) { v.sort(); names.sort_by_key(|n| n.len()); }";
        assert!(unsuppressed(other, "crates/framework/src/checkers.rs").is_empty());
        // `sort` as a plain ident (fn name, local) is not a call site
        let def = "fn sort_plans(n: usize) { let sort = n; }";
        assert!(unsuppressed(def, "crates/framework/src/checkers.rs").is_empty());
        // iterating or indexing the op vector is fine — only permuters fire
        let read = "fn f(log: &MutationLog) { for m in log.ops.iter() { use_op(m); } }";
        assert!(unsuppressed(read, "crates/framework/src/checkers.rs")
            .iter()
            .all(|f| f.rule != "R9"));
    }

    #[test]
    fn r10_flags_reevaluation_of_query_batches() {
        let src = r#"
            fn serve(doc: &Doc, queries: &[XPathExpr]) {
                for e in queries {
                    let rows = doc.evaluate(e);
                }
            }
        "#;
        let f = unsuppressed(src, "crates/framework/src/checkers.rs");
        assert_eq!(f.iter().filter(|f| f.rule == "R10").count(), 1, "{f:?}");
        // `exprs` is a query-batch receiver too, test code included
        let alt = "fn f() { for e in &exprs { doc.evaluate(e); } }";
        let f = unsuppressed(alt, "crates/encoding/tests/t.rs");
        assert_eq!(f.iter().filter(|f| f.rule == "R10").count(), 1);
        // the cache itself and its measured baseline are exempt
        assert!(unsuppressed(src, "crates/framework/src/querycache.rs")
            .iter()
            .all(|f| f.rule != "R10"));
        assert!(
            unsuppressed(src, "crates/bench/src/bin/bench_incremental_queries.rs")
                .iter()
                .all(|f| f.rule != "R10")
        );
        // outside the R2 crate set the rule does not apply
        assert!(unsuppressed(src, "crates/testkit/src/x.rs").is_empty());
    }

    #[test]
    fn r10_leaves_single_evaluations_and_other_loops_alone() {
        // a one-off evaluation outside a query-batch loop is fine
        let single = "fn f() { let rows = doc.evaluate(&expr); }";
        assert!(unsuppressed(single, "crates/framework/src/checkers.rs").is_empty());
        // a loop over something else is not a query batch
        let other = "fn f() { for x in items { doc.evaluate(&x.expr); } }";
        assert!(unsuppressed(other, "crates/framework/src/checkers.rs").is_empty());
        // `evaluate` as a plain ident (fn name, local) is not a call site
        let def = "fn evaluate_all(queries: &[Q]) { for q in queries { run(q); } }";
        assert!(unsuppressed(def, "crates/framework/src/checkers.rs").is_empty());
        // an explicit lint:allow covers an oracle that must pay full cost
        let allowed =
            "fn f() { for e in &exprs {\n    // lint:allow(R10): oracle\n    doc.evaluate(e);\n} }";
        let (f, unused) = check_source(allowed, &lib_ctx("crates/framework/tests/t.rs"));
        assert!(f.iter().all(|f| !f.is_unsuppressed()), "{f:?}");
        assert!(unused.is_empty());
    }

    #[test]
    fn r12_flags_raw_script_ops_in_test_code_only() {
        let src = "fn t() { let op = ScriptOp::InsertBefore(3); }";
        // ordinary test code in the R2 crate set is flagged
        for path in [
            "crates/framework/tests/a.rs",
            "crates/flux/tests/a.rs",
            "tests/a.rs",
        ] {
            let f = unsuppressed(src, path);
            assert_eq!(
                f.iter().filter(|f| f.rule == "R12").count(),
                1,
                "{path}: {f:?}"
            );
        }
        // library code may construct and match ops — that is its job
        assert!(unsuppressed(src, "crates/workloads/src/script.rs").is_empty());
        assert!(unsuppressed(src, "crates/framework/src/driver.rs").is_empty());
        // the workloads crate's own tests exercise the generator surface
        assert!(unsuppressed(src, "crates/workloads/tests/t.rs").is_empty());
        // the reference differential drivers are the executable spec
        for path in R12_EXEMPT_PATHS {
            assert!(
                unsuppressed(src, path).iter().all(|f| f.rule != "R12"),
                "{path}"
            );
        }
        // outside the R2 crate set the rule does not apply
        assert!(unsuppressed(src, "crates/testkit/tests/t.rs").is_empty());
        // `ScriptOp` as a bare ident (imports, type positions) is fine
        let import = "use xupd_workloads::{Script, ScriptOp}; fn t(op: &ScriptOp) {}";
        assert!(unsuppressed(import, "crates/framework/tests/a.rs").is_empty());
    }

    #[test]
    fn flux_is_in_the_result_feeding_crate_sets() {
        assert!(R1_CRATES.contains(&"flux"));
        assert!(R2_CRATES.contains(&"flux"));
        // and therefore R1 fires on panic paths in its library code
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() }";
        assert_eq!(unsuppressed(src, "crates/flux/src/a.rs").len(), 1);
    }

    #[test]
    fn suppression_covers_next_line_and_is_counted() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    // lint:allow(R1): caller checked is_some\n    x.unwrap()\n}";
        let (f, unused) = check_source(src, &lib_ctx("crates/xmldom/src/a.rs"));
        assert_eq!(f.len(), 1);
        assert!(!f[0].is_unsuppressed());
        assert!(unused.is_empty());
    }

    #[test]
    fn wrong_rule_suppression_does_not_cover() {
        let src =
            "fn f(x: Option<u8>) -> u8 {\n    // lint:allow(R2): wrong rule\n    x.unwrap()\n}";
        let (f, unused) = check_source(src, &lib_ctx("crates/xmldom/src/a.rs"));
        assert!(f[0].is_unsuppressed());
        assert_eq!(unused.len(), 1);
    }
}
