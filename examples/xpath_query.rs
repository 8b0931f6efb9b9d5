//! Full pipeline on a realistic document: generate an XMark-flavoured
//! auction document, encode it under several labelling schemes, run the
//! same XPath queries against each encoding and verify every scheme
//! returns identical answers — the encoding scheme (Definition 2) makes
//! query results independent of the labelling scheme underneath.
//!
//! One erased encoded document per Figure 7 scheme, each queried on its
//! own `xupd-exec` pool worker, answers collected in roster order.
//!
//! ```text
//! cargo run --release --example xpath_query
//! ```

use xml_update_props::encoding::{document_registry_figure7, parse_xpath};
use xml_update_props::exec::par_map;
use xml_update_props::workloads::docs;

const QUERIES: [&str; 5] = [
    "/site/regions/*/item/name",
    "//person[@id=\"person3\"]/name",
    "//open_auction/bidder/increase",
    "//item[2]",
    "//emailaddress/..",
];

fn main() {
    let tree = docs::xmark_like(2024, 120);
    println!(
        "XMark-flavoured document: {} nodes. Querying under every Figure 7 scheme…\n",
        tree.len()
    );
    let answers: Vec<(&'static str, Vec<Vec<String>>)> =
        par_map(&document_registry_figure7(), |entry| {
            let enc = (entry.encode)(&tree).expect("encodable document");
            let index = enc.index();
            let per_query: Vec<Vec<String>> = QUERIES
                .iter()
                .map(|q| {
                    let expr = parse_xpath(q).expect("query parses");
                    expr.evaluate(index)
                        .into_iter()
                        .map(|i| index.string_value(i))
                        .collect()
                })
                .collect();
            (entry.name(), per_query)
        });

    // All schemes must agree with the first.
    let (ref_name, ref_answers) = &answers[0];
    for (name, per_query) in &answers[1..] {
        assert_eq!(
            per_query, ref_answers,
            "{name} disagrees with {ref_name} — encoding must be scheme-independent"
        );
    }
    println!(
        "All {} schemes returned identical result sets. Samples (via {ref_name}):\n",
        answers.len()
    );
    for (q, vals) in QUERIES.iter().zip(ref_answers) {
        println!("  {q}");
        println!("    → {} hit(s)", vals.len());
        for v in vals.iter().take(3) {
            let shown: String = v.chars().take(60).collect();
            println!("      \"{shown}\"");
        }
    }
}
