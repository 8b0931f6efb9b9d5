//! Golden diagnostics + parser robustness for the flux DSL.
//!
//! The golden half pins the *exact* rendered form (`line:col: CODE
//! message`) of one representative program per failure class F001–F012
//! and F020 — spans, codes and wording are all part of the tool's
//! contract (editors and CI logs parse them), so any drift must be a
//! conscious diff in this file.
//!
//! The property half feeds the parser arbitrarily mutated source bytes
//! (overwrites, insertions, deletions of valid programs) through the
//! shrinking harness: the front end must always return diagnostics,
//! never panic — the lexer's char-boundary discipline is exactly what
//! this pins.

use xupd_flux::FluxProgram;
use xupd_framework::PreorderIndex;
use xupd_testkit::prop::{any_u64, from_slice, mutate_bytes, vecs, Config};
use xupd_testkit::{prop_assert, props};
use xupd_xmldom::XmlTree;

/// The document the lowering-stage goldens (F010–F012, F020) compile
/// against.
fn fixture() -> XmlTree {
    xupd_xmldom::parse(r#"<r><s id="0"><a>t</a><b/></s><s id="1"><a>u</a></s><t/></r>"#)
        .expect("static fixture")
}

/// The fixture's preorder index, as a `Document` holds it.
fn index_of(tree: &XmlTree) -> PreorderIndex {
    PreorderIndex::encode(tree).expect("index encodes")
}

/// Every diagnostic the front end (parse + static check) reports for
/// `src`, rendered.
fn static_renders(src: &str) -> Vec<String> {
    match FluxProgram::parse(src) {
        Ok(p) => p.check().iter().map(|d| d.render()).collect(),
        Err(ds) => ds.iter().map(|d| d.render()).collect(),
    }
}

/// Every diagnostic the full compile pipeline reports for `src`
/// against the fixture document, rendered.
fn compile_renders(src: &str) -> Vec<String> {
    let program = match FluxProgram::parse(src) {
        Ok(p) => p,
        Err(ds) => return ds.iter().map(|d| d.render()).collect(),
    };
    let tree = fixture();
    match program.compile(&tree, &index_of(&tree)) {
        Ok(_) => Vec::new(),
        Err(ds) => ds.iter().map(|d| d.render()).collect(),
    }
}

// ---------------------------------------------------------------------
// Golden renders, one representative per failure class.
// ---------------------------------------------------------------------

#[test]
fn golden_static_diagnostics() {
    let goldens: &[(&str, &[&str])] = &[
        // F001: syntax — truncated statement and unknown keyword.
        ("delete", &["1:7: F001 expected a path"]),
        (
            "upsert <a/> into /r",
            &["1:1: F001 unknown statement keyword \"upsert\""],
        ),
        // F002: malformed XPath inside a path argument.
        ("delete /a[", &["1:8: F002 invalid path \"/a[\": missing ']'"]),
        // F003: malformed tree literal — unbalanced, then unparseable.
        ("insert <p><n> into /r", &["1:8: F003 unbalanced XML tree literal"]),
        (
            "insert <a b=/> into /r",
            &["1:8: F003 invalid tree literal: line 1, column 6: expected quote"],
        ),
        // F004: relative path outside a `for` body.
        (
            "delete ./x",
            &["1:8: F004 relative path \"./x\" is only allowed inside a `for` body"],
        ),
        // F005: shape — second line, pinning multi-line span tracking.
        (
            "insert <m/> into /r;\nset /r/s to \"x\"",
            &["2:5: F005 set target \"/r/s\" must end in a text() step"],
        ),
        // F006: write into a consumed subtree.
        (
            "delete /r/s;\nset /r/s/a/text() to \"v\"",
            &["2:5: F006 path \"/r/s/a/text()\" was consumed by an earlier `delete` statement"],
        ),
        // F007: double write to one text slot.
        (
            "set /r/s/text() to \"a\"; set /r/s/text() to \"b\"",
            &["1:29: F007 text slot \"/r/s/text()\" is already written by an earlier `set` statement"],
        ),
        // F008: move into the moved subtree.
        (
            "move /r/s into /r/s/x",
            &["1:16: F008 destination \"/r/s/x\" lies inside the moved subtree \"/r/s\""],
        ),
        // F009: root mutation.
        ("rename /. to z", &["1:8: F009 cannot rename the document root"]),
    ];
    for (src, want) in goldens {
        assert_eq!(static_renders(src), *want, "source: {src:?}");
    }
}

#[test]
fn golden_lowering_diagnostics() {
    let goldens: &[(&str, &[&str])] = &[
        // F010: strict match — a direct target matching nothing.
        ("delete /r/nope", &["1:8: F010 path \"/r/nope\" matched no node"]),
        // F011: kind guard — statically clean (the `.` anchor has no
        // text() step for the shape pass to see), dynamically a text
        // node cannot hold children.
        (
            "for /r/s[1]/a/text() do insert <m/> into . end",
            &["1:42: F011 insert destination \".\" cannot hold children"],
        ),
        // F012: ambiguous move destination.
        (
            "move /r/t into /r/s",
            &["1:16: F012 move destination \"/r/s\" is ambiguous (2 matches)"],
        ),
        // F020: statically invisible conflict (the `//s` delete is not
        // a literal path, so the sequence pass must let it through)
        // caught by the shadow-simulation validator.
        (
            "delete //s; set /r/s[1]/a/text() to \"v\"",
            &["1:1: F020 compiled log rejected by validator: conflicting writes: node n5 was already consumed by the batch"],
        ),
    ];
    for (src, want) in goldens {
        assert_eq!(compile_renders(src), *want, "source: {src:?}");
    }
}

#[test]
fn clean_programs_render_nothing() {
    assert!(static_renders("insert <m/> into /r/s; delete /r/t").is_empty());
    assert!(compile_renders("for /r/s do insert <m/> into . end").is_empty());
}

// ---------------------------------------------------------------------
// Robustness: the front end never panics, whatever the bytes.
// ---------------------------------------------------------------------

/// Valid programs the mutator starts from — every statement form, so
/// mutations explore every parser path.
const BASES: &[&str] = &[
    "insert <m><n>v</n></m> first into /r/s[2];",
    "delete /r/s; replace /r/t with <z>w</z>;",
    "rename /r/s to q; move /r/s/a after /r/t;",
    "set /r/s/a/text() to \"w\";",
    "for /r/s do insert <f/> into .; set ./a/text() to \"x\"; end",
    "# comment\ndelete /r/s[1]/@id;",
];

props! {
    config = Config::with_cases(512);

    fn parser_never_panics_on_mutated_source(
        base in from_slice(BASES),
        edits in vecs(any_u64(), 0, 12),
    ) {
        let mut bytes = base.as_bytes().to_vec();
        for e in edits {
            mutate_bytes(&mut bytes, e);
        }
        let src = String::from_utf8_lossy(&bytes).into_owned();
        // Any outcome is fine; panicking is not (the harness converts
        // panics into failures and shrinks the edit list).
        match FluxProgram::parse(&src) {
            Ok(p) => {
                let _ = p.check();
                let tree = fixture();
                let _ = p.compile(&tree, &index_of(&tree));
            }
            Err(ds) => prop_assert!(!ds.is_empty(), "error with no diagnostics"),
        }
    }
}
