//! The `xupd` command line, run as a process: the exit status and
//! output of a query that matches, one that does not parse, and a
//! `query` command with no XPath.

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
