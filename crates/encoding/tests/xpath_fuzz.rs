//! Hostile input for the XPath front end: valid expressions with a few
//! bytes overwritten, inserted or deleted must never panic the parser,
//! and whatever it accepts must evaluate without panicking too. The
//! edit list shrinks, so a failure reports the few bytes that matter.

use xupd_encoding::{parse_xpath, PreorderIndex};
use xupd_testkit::prop::{any_u64, from_slice, mutate_bytes, vecs, Config};
use xupd_testkit::{prop_assert, props};
use xupd_workloads::docs;

/// Valid expressions the mutator starts from — every axis, node test
/// and predicate form the grammar has, so edits reach every branch.
const BASES: &[&str] = &[
    "/site/regions/*",
    "//item[@id='item0_0']",
    "//description/text()",
    "/site/open_auctions/open_auction[2]",
    "/site/descendant::item[3]",
    "//name/following-sibling::*",
    "//quantity/..",
    "//item/@id",
    "/site/people//name",
    "//person/ancestor::*[1]/preceding-sibling::node()",
    "/site/self::site/descendant-or-self::node()/following::*",
    "//item[@id=\"a]b\"]/attribute::*",
    "./child::item/parent::*/preceding::name",
];

props! {
    config = Config::with_cases(2048);

    fn parse_xpath_never_panics_on_mutated_input(
        base in from_slice(BASES),
        edits in vecs(any_u64(), 1, 12),
    ) {
        let mut bytes = base.as_bytes().to_vec();
        for e in edits {
            mutate_bytes(&mut bytes, e);
        }
        let src = String::from_utf8_lossy(&bytes).into_owned();
        // Rejecting is fine; panicking is not (the harness turns a panic
        // into a failure and shrinks the edit list).
        if let Ok(expr) = parse_xpath(&src) {
            let tree = docs::xmark_like(3, 9);
            let doc = PreorderIndex::encode(&tree);
            prop_assert!(doc.is_ok(), "fixture encodes");
            if let Ok(doc) = doc {
                let rows = expr.evaluate(&tree, &doc);
                prop_assert!(rows.iter().all(|&r| r < doc.len()), "rows inside the table");
            }
        }
    }
}
