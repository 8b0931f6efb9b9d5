//! Fixture tests for every lint rule: a positive fixture that must
//! produce a finding, a suppressed fixture that must be covered by its
//! `lint:allow`, and a clean fixture that must pass — plus end-to-end
//! runs of the `xupd-lint` binary and a self-check that the workspace
//! itself is lint-clean.
//!
//! The fixtures live in string literals, not on-disk `.rs` files: the
//! lexer never looks inside strings, so the violating constructs here
//! are invisible to the workspace scan that the self-check performs.

use std::path::Path;
use std::process::Command;
use xupd_lint::{check_source, check_workspace, find_workspace_root, FileCtx, Finding};

/// A library path in an R1+R2 crate — the strictest context.
const LIB_PATH: &str = "crates/xmldom/src/fixture.rs";
/// A test path — R1/R2 exempt, R3/R5 still apply.
const TEST_PATH: &str = "crates/testkit/tests/fixture.rs";

fn all(src: &str, path: &str) -> Vec<Finding> {
    check_source(src, &FileCtx::classify(path)).0
}

fn unsuppressed(src: &str, path: &str) -> Vec<Finding> {
    all(src, path)
        .into_iter()
        .filter(Finding::is_unsuppressed)
        .collect()
}

// ---------------------------------------------------------------- R1

#[test]
fn r1_positive_unwrap_in_library_code() {
    let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }";
    let f = unsuppressed(src, LIB_PATH);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "R1");
    assert_eq!(f[0].line, 1);
}

#[test]
fn r1_positive_panic_macro() {
    let src = "pub fn f() { panic!(\"boom\") }";
    let f = unsuppressed(src, LIB_PATH);
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "R1");
}

#[test]
fn r1_suppressed() {
    let src = "pub fn f(x: Option<u8>) -> u8 {\n    // lint:allow(R1): caller guarantees is_some\n    x.unwrap()\n}";
    let (findings, unused) = check_source(src, &FileCtx::classify(LIB_PATH));
    assert_eq!(findings.len(), 1);
    assert!(!findings[0].is_unsuppressed(), "covered by the allow");
    assert_eq!(
        findings[0].suppressed_by.as_deref(),
        Some("caller guarantees is_some")
    );
    assert!(unused.is_empty(), "the suppression is not stale");
}

#[test]
fn r1_clean() {
    let src = "pub fn f(x: Option<u8>) -> u8 { x.unwrap_or_default() }";
    assert!(unsuppressed(src, LIB_PATH).is_empty());
    // the same panic is fine in test code
    let panicky = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }";
    assert!(unsuppressed(panicky, TEST_PATH).is_empty());
}

// ---------------------------------------------------------------- R2

#[test]
fn r2_positive_hashmap() {
    let src = "use std::collections::HashMap;\npub struct S { m: HashMap<u8, u8> }";
    let f = unsuppressed(src, LIB_PATH);
    assert_eq!(f.len(), 2, "use + field: {f:?}");
    assert!(f.iter().all(|f| f.rule == "R2"));
}

#[test]
fn r2_suppressed() {
    let src = "// lint:allow(R2): never iterated, lookup only\nuse std::collections::HashSet;";
    let (findings, unused) = check_source(src, &FileCtx::classify(LIB_PATH));
    assert_eq!(findings.len(), 1);
    assert!(!findings[0].is_unsuppressed());
    assert!(unused.is_empty());
}

#[test]
fn r2_clean() {
    let src = "use std::collections::BTreeMap;\npub struct S { m: BTreeMap<u8, u8> }";
    assert!(unsuppressed(src, LIB_PATH).is_empty());
}

// ---------------------------------------------------------------- R3

#[test]
fn r3_positive_instant_even_in_tests() {
    let src = "fn f() { let t = std::time::Instant::now(); }";
    for path in [LIB_PATH, TEST_PATH] {
        let f = unsuppressed(src, path);
        assert_eq!(f.len(), 1, "{path}: {f:?}");
        assert_eq!(f[0].rule, "R3");
    }
}

#[test]
fn r3_suppressed() {
    let src = "fn f() {\n    // lint:allow(R3): coarse timeout, not in any result\n    let t = std::time::Instant::now();\n}";
    let (findings, unused) = check_source(src, &FileCtx::classify(LIB_PATH));
    assert_eq!(findings.len(), 1);
    assert!(!findings[0].is_unsuppressed());
    assert!(unused.is_empty());
}

#[test]
fn r3_clean_in_bench_harness() {
    let src = "fn f() { let t = std::time::Instant::now(); }";
    assert!(unsuppressed(src, "crates/testkit/src/bench.rs").is_empty());
}

// ---------------------------------------------------------------- R4

#[test]
fn r4_positive_todo_in_scheme_impl() {
    let src =
        "impl LabelingScheme for Foo {\n    fn level(&self, _a: &L) -> Option<u32> { todo!() }\n}";
    let f = unsuppressed(src, "crates/schemes/src/foo.rs");
    assert!(f.iter().any(|f| f.rule == "R4"), "{f:?}");
}

#[test]
fn r4_suppressed() {
    // todo! in a scheme impl fires both R4 and R1, so it needs one allow
    // per rule: R4 on the line above, R1 trailing on the line itself
    // (a suppression covers its own line and the next).
    let src = "impl LabelingScheme for Foo {\n    // lint:allow(R4): stub pending follow-up issue\n    fn level(&self, _a: &L) -> Option<u32> { todo!() } // lint:allow(R1): same stub\n}";
    let (findings, unused) = check_source(src, &FileCtx::classify("crates/schemes/src/foo.rs"));
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(
        findings.iter().all(|f| !f.is_unsuppressed()),
        "both rules covered: {findings:?}"
    );
    assert!(unused.is_empty());
}

#[test]
fn r4_clean_outside_scheme_impl() {
    let src = "impl Display for Foo { fn fmt(&self) { } }";
    assert!(all(src, "crates/schemes/src/foo.rs")
        .iter()
        .all(|f| f.rule != "R4"));
}

// ---------------------------------------------------------------- R5

#[test]
fn r5_positive_unsafe_even_in_tests() {
    let src = "fn f() { unsafe { core::hint::unreachable_unchecked() } }";
    for path in [LIB_PATH, TEST_PATH] {
        let f = unsuppressed(src, path);
        assert!(
            f.iter().any(|f| f.rule == "R5"),
            "{path}: unsafe must always flag: {f:?}"
        );
    }
}

#[test]
fn r5_suppressed() {
    let src = "// lint:allow(R5): audited, required for FFI\nfn f() { unsafe { } }";
    let (findings, unused) = check_source(src, &FileCtx::classify(TEST_PATH));
    let r5: Vec<_> = findings.iter().filter(|f| f.rule == "R5").collect();
    assert_eq!(r5.len(), 1);
    assert!(!r5[0].is_unsuppressed());
    assert!(unused.is_empty());
}

#[test]
fn r5_clean() {
    let src = "pub fn f() -> u8 { 7 }";
    assert!(unsuppressed(src, TEST_PATH).is_empty());
}

// ---------------------------------------------------------------- R6

/// A framework path: R6 applies even under tests/ (reference replay
/// drivers must opt out explicitly).
const DRIVER_TEST_PATH: &str = "crates/framework/tests/fixture.rs";

#[test]
fn r6_positive_preorder_rebuild_in_per_op_loop() {
    let src = "fn run(script: &Script) {\n    for op in script.ops.iter() {\n        let pool: Vec<NodeId> = tree.preorder().collect();\n    }\n}";
    for path in ["crates/framework/src/driver.rs", DRIVER_TEST_PATH] {
        let f = unsuppressed(src, path);
        assert_eq!(f.len(), 1, "{path}: {f:?}");
        assert_eq!(f[0].rule, "R6");
    }
}

#[test]
fn r6_suppressed() {
    let src = "fn run(script: &Script) {\n    for op in script.ops.iter() {\n        // lint:allow(R6): reference driver kept for differential testing\n        let pool: Vec<NodeId> = tree.preorder().collect();\n    }\n}";
    let (findings, unused) = check_source(src, &FileCtx::classify(DRIVER_TEST_PATH));
    assert_eq!(findings.len(), 1);
    assert!(!findings[0].is_unsuppressed());
    assert!(unused.is_empty());
}

#[test]
fn r6_clean() {
    // subtree-proportional traversal inside the loop is legal
    let sub = "fn run(script: &Script) {\n    for op in script.ops.iter() {\n        for d in tree.preorder_from(node) { labeling.remove(d); }\n    }\n}";
    assert!(unsuppressed(sub, DRIVER_TEST_PATH).is_empty());
    // one-time pool build outside any per-op loop is legal
    let build = "fn build(tree: &XmlTree) { let v: Vec<_> = tree.preorder().collect(); }";
    assert!(unsuppressed(build, "crates/framework/src/driver.rs").is_empty());
    // outside the R2 crate set the rule does not apply at all
    let src = "fn run(script: &Script) {\n    for op in script.ops.iter() {\n        let pool: Vec<NodeId> = tree.preorder().collect();\n    }\n}";
    assert!(unsuppressed(src, "crates/testkit/src/x.rs").is_empty());
}

// ---------------------------------------------------------------- R9

#[test]
fn r9_positive_sorting_an_op_vector() {
    let src = "fn canonical(log: &mut MutationLog) {\n    log.ops.sort_by_key(|m| rank(m));\n}";
    for path in ["crates/framework/src/planner.rs", DRIVER_TEST_PATH] {
        let f = unsuppressed(src, path);
        assert_eq!(f.len(), 1, "{path}: {f:?}");
        assert_eq!(f[0].rule, "R9");
        assert_eq!(f[0].line, 2);
    }
}

#[test]
fn r9_positive_splitting_an_op_vector() {
    let src = "fn shard(mut ops: Vec<Mutation>) -> Vec<Mutation> { ops.split_off(4) }";
    let f = unsuppressed(src, "crates/bench/src/lib.rs");
    assert_eq!(f.len(), 1, "{f:?}");
    assert_eq!(f[0].rule, "R9");
}

#[test]
fn r9_suppressed() {
    let src = "fn scramble(mut ops: Vec<Mutation>) {\n    // lint:allow(R9): adversarial fixture exercising divergence on purpose\n    ops.reverse();\n}";
    let (findings, unused) = check_source(src, &FileCtx::classify(DRIVER_TEST_PATH));
    assert_eq!(findings.len(), 1);
    assert!(!findings[0].is_unsuppressed());
    assert!(unused.is_empty());
}

#[test]
fn r9_clean() {
    // no path is exempt: a reorder in the analyzer or the mutation-log
    // module fires like anywhere else
    let src = "fn canonical(log: &mut MutationLog) {\n    log.ops.sort_by_key(|m| rank(m));\n}";
    for path in [
        "crates/framework/src/analysis.rs",
        "crates/framework/src/mutations.rs",
    ] {
        let f = unsuppressed(src, path);
        assert_eq!(f.len(), 1, "{path}: {f:?}");
        assert_eq!(f[0].rule, "R9");
    }
    // reading the op vector is always fine
    let read = "fn f(log: &MutationLog) { let n = log.ops.len(); }";
    assert!(unsuppressed(read, "crates/framework/src/planner.rs").is_empty());
    // permuting a non-log vector is always fine
    let other = "fn f(mut names: Vec<String>) { names.sort(); }";
    assert!(unsuppressed(other, "crates/framework/src/planner.rs").is_empty());
}

// ---------------------------------------------------------------- R10

#[test]
fn r10_positive_reevaluating_a_query_batch() {
    let src = "fn serve(doc: &Doc) {\n    for e in &queries {\n        let rows = doc.evaluate(e);\n    }\n}";
    for path in ["crates/framework/src/planner.rs", DRIVER_TEST_PATH] {
        let f = unsuppressed(src, path);
        assert_eq!(f.len(), 1, "{path}: {f:?}");
        assert_eq!(f[0].rule, "R10");
        assert_eq!(f[0].line, 3);
    }
}

#[test]
fn r10_suppressed() {
    let src = "fn oracle(doc: &Doc) {\n    for e in &exprs {\n        // lint:allow(R10): differential oracle must pay full re-evaluation\n        let rows = doc.evaluate(e);\n    }\n}";
    let (findings, unused) = check_source(src, &FileCtx::classify(DRIVER_TEST_PATH));
    assert_eq!(findings.len(), 1);
    assert!(!findings[0].is_unsuppressed());
    assert!(unused.is_empty());
}

#[test]
fn r10_clean() {
    let src = "fn serve(doc: &Doc) {\n    for e in &queries {\n        let rows = doc.evaluate(e);\n    }\n}";
    // the cache itself implements the sanctioned evaluation path
    assert!(unsuppressed(src, "crates/framework/src/querycache.rs").is_empty());
    // the bench's re-evaluate client is the measured counter-example
    assert!(unsuppressed(src, "crates/bench/src/bin/bench_incremental_queries.rs").is_empty());
    // a single evaluation outside a query-batch loop is fine
    let single = "fn f(doc: &Doc) { let rows = doc.evaluate(&expr); }";
    assert!(unsuppressed(single, "crates/framework/src/planner.rs").is_empty());
    // a loop over something else is not a query batch
    let other = "fn f(doc: &Doc) { for s in &shards { doc.evaluate(&s.expr); } }";
    assert!(unsuppressed(other, "crates/framework/src/planner.rs").is_empty());
    // outside the R2 crate set the rule does not apply at all
    assert!(unsuppressed(src, "crates/testkit/src/x.rs").is_empty());
}

// ------------------------------------------------- JSON findings shape

/// The machine-readable findings schema is stable: file/line/col/rule/
/// message/snippet, in that key order, one object per line.
#[test]
fn json_findings_schema_is_stable() {
    use xupd_lint::report::{check_file_source, WorkspaceReport};
    let mut rep = WorkspaceReport::default();
    check_file_source(
        "fn f(mut ops: Vec<Mutation>) { ops.reverse(); }",
        "crates/framework/src/planner.rs",
        &mut rep,
    );
    assert_eq!(rep.unsuppressed_count(), 1);
    let json = rep.render_json();
    let expected = "    {\"file\": \"crates/framework/src/planner.rs\", \"line\": 1, \
                    \"col\": 36, \"rule\": \"R9\", \"message\": \".reverse() permutes a \
                    mutation-log op vector; reorder only through a framework::analysis \
                    certificate\", \"snippet\": \"fn f(mut ops: Vec<Mutation>) { ops.reverse(); }\"}";
    assert!(
        json.contains(expected),
        "stable finding object shape:\n{json}"
    );
    assert!(
        json.contains("\"R9\": {\"name\": \"no-unanalyzed-reorder\""),
        "{json}"
    );
}

// -------------------------------------------------- stale suppressions

#[test]
fn stale_suppression_is_reported_not_silently_dropped() {
    let src = "// lint:allow(R1): nothing here panics anymore\npub fn f() -> u8 { 7 }";
    let (findings, unused) = check_source(src, &FileCtx::classify(LIB_PATH));
    assert!(findings.is_empty());
    assert_eq!(unused.len(), 1);
    assert_eq!(unused[0].rule, "R1");
}

// ------------------------------------------------- binary end-to-end

fn lint_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_xupd-lint"))
}

fn tmp_file(name: &str, contents: &str) -> std::path::PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(dir).expect("target tmpdir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write fixture");
    path
}

#[test]
fn binary_fails_on_seeded_violation() {
    // R5 applies regardless of path classification, so a seeded unsafe
    // block must make the tool exit non-zero.
    let bad = tmp_file("seeded_violation.rs", "pub fn f() { unsafe { } }\n");
    let out = lint_bin().arg(&bad).output().expect("run xupd-lint");
    assert!(
        !out.status.success(),
        "seeded violation must fail the lint: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("R5"), "{stdout}");
    assert!(stdout.contains("1 unsuppressed finding"), "{stdout}");
}

#[test]
fn binary_passes_clean_file() {
    let ok = tmp_file("seeded_clean.rs", "pub fn f() -> u8 { 7 }\n");
    let out = lint_bin().arg(&ok).output().expect("run xupd-lint");
    assert!(
        out.status.success(),
        "clean file must pass: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn binary_passes_suppressed_finding_and_prints_ledger() {
    let sup = tmp_file(
        "seeded_suppressed.rs",
        "// lint:allow(R5): fixture exercising the suppression ledger\npub fn f() { unsafe { } }\n",
    );
    let out = lint_bin().arg(&sup).output().expect("run xupd-lint");
    assert!(
        out.status.success(),
        "suppressed finding must not fail the lint: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("suppressed findings (1)"), "{stdout}");
    assert!(
        stdout.contains("fixture exercising the suppression ledger"),
        "justification is printed: {stdout}"
    );
}

// -------------------------------------------------------- self-check

/// The workspace itself must be lint-clean: zero unsuppressed findings
/// and zero stale suppressions. This is the in-tree twin of the
/// `scripts/ci.sh` gating step.
#[test]
fn workspace_self_check_is_clean() {
    let root =
        find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("inside the workspace");
    let report = check_workspace(&root).expect("workspace scan");
    assert!(report.files_scanned > 50, "sanity: whole tree was scanned");
    assert_eq!(
        report.unsuppressed_count(),
        0,
        "unsuppressed findings:\n{}",
        report.render_text()
    );
    assert!(
        report.unused_suppressions.is_empty(),
        "stale lint:allow comments:\n{}",
        report.render_text()
    );
}

/// The binary agrees with the library self-check: `--workspace` exits 0
/// on this tree and writes the JSON summary where it is told to.
#[test]
fn binary_workspace_run_is_green() {
    let root =
        find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR"))).expect("inside the workspace");
    let json = Path::new(env!("CARGO_TARGET_TMPDIR")).join("lint_selfcheck.json");
    let out = lint_bin()
        .arg("--workspace")
        .arg("--json")
        .arg(&json)
        .current_dir(&root)
        .output()
        .expect("run xupd-lint --workspace");
    assert!(
        out.status.success(),
        "workspace must be lint-clean: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let summary = std::fs::read_to_string(&json).expect("JSON summary written");
    assert!(
        summary.contains("\"findings_unsuppressed\": 0"),
        "{summary}"
    );
}
