//! The `xupd` command line, run as a process: the exit status and
//! output of a query that matches, one that does not parse, and a
//! `query` command with no XPath; and of `flux-check` on a clean
//! program, on one that does not parse, on one the static pass rejects,
//! on one whose target matches no node, and with no program.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run `xupd <file> <args>` on a one-title document written to a file
/// of its own, named after `case`, so parallel tests never share one.
fn xupd(case: &str, args: &[&str]) -> Output {
    let file = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("xupd_cli_{case}.xml"));
    std::fs::write(&file, "<book><title>Wayfarer</title></book>").unwrap();
    Command::new(env!("CARGO_BIN_EXE_xupd"))
        .arg(&file)
        .args(args)
        .output()
        .unwrap()
}

/// Run `xupd <file> flux-check <program>` with `src` written to a
/// program file of its own, named after `case`; returns the program
/// file's path with the output.
fn flux_check(case: &str, src: &str) -> (String, Output) {
    let program = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("xupd_cli_{case}.flux"));
    std::fs::write(&program, src).unwrap();
    let program = program.to_str().unwrap().to_string();
    let out = xupd(case, &["flux-check", &program]);
    (program, out)
}

/// The lines `flux-check` printed, each checked to name the program.
fn findings(program: &str, out: &Output) -> Vec<String> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|line| line.strip_prefix(program).expect(line).to_string())
        .collect()
}

#[test]
fn a_clean_flux_program_checks_ok_and_exits_0() {
    let (program, out) = flux_check("flux_clean", "insert <note/> into /book;");
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(findings(&program, &out), [": ok"]);
}

#[test]
fn a_flux_syntax_error_prints_one_finding_and_exits_1() {
    let (program, out) = flux_check("flux_syntax", "insert <p> into /book;");
    assert_eq!(out.status.code(), Some(1));
    let found = findings(&program, &out);
    assert_eq!(found.len(), 1, "{found:?}");
    assert!(found[0].contains(": F00"), "{found:?}");
}

#[test]
fn a_write_into_a_deleted_subtree_reports_f006_and_exits_1() {
    let src = "delete /book/title; set /book/title/text() to \"x\";";
    let (program, out) = flux_check("flux_f006", src);
    assert_eq!(out.status.code(), Some(1));
    let found = findings(&program, &out);
    assert!(found.iter().any(|f| f.contains(" F006 ")), "{found:?}");
}

#[test]
fn a_target_that_matches_nothing_reports_f010_and_exits_1() {
    let (program, out) = flux_check("flux_f010", "delete /book/nothing;");
    assert_eq!(out.status.code(), Some(1));
    let found = findings(&program, &out);
    assert!(found.iter().any(|f| f.contains(" F010 ")), "{found:?}");
}

#[test]
fn flux_check_without_a_program_exits_2() {
    let out = xupd("flux_bare", &["flux-check"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn a_query_that_does_not_parse_exits_1() {
    let out = xupd("malformed", &["query", "//a["]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("XPath error"), "{stderr}");
    assert!(out.stdout.is_empty(), "no hit count for a query never run");
}

#[test]
fn a_query_prints_its_hits_and_exits_0() {
    let out = xupd("title", &["query", "//title"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("1 hit(s)\n"), "{stdout}");
    assert!(stdout.contains("Wayfarer"), "{stdout}");
}

#[test]
fn a_query_without_an_xpath_exits_2() {
    let out = xupd("bare", &["query"]);
    assert_eq!(out.status.code(), Some(2));
}
