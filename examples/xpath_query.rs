//! Full pipeline on a realistic document: generate an XMark-flavoured
//! auction document, encode it once as a preorder index, run XPath
//! queries against it, and check that every Figure 7 scheme's labels
//! order each answer in document order. The encoding scheme
//! (Definition 2) puts the structure in the index, reads node kinds,
//! names and content from the tree by node id and leaves the labels to
//! the scheme, so query results are independent of the labelling scheme
//! underneath.
//!
//! Each scheme labels the document in a session of its own, on its own
//! `xupd-exec` pool worker; results come back in roster order.
//!
//! ```text
//! cargo run --release --example xpath_query
//! ```

use std::cmp::Ordering;
use xml_update_props::encoding::{parse_xpath, PreorderIndex};
use xml_update_props::exec::par_map;
use xml_update_props::schemes::registry_figure7;
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
        "XMark-flavoured document: {} nodes. Querying its preorder index…\n",
        tree.len()
    );
    let index = PreorderIndex::encode(&tree).expect("encodable document");
    let answers: Vec<Vec<usize>> = QUERIES
        .iter()
        .map(|q| {
            parse_xpath(q)
                .expect("query parses")
                .evaluate(&tree, &index)
        })
        .collect();

    // Every scheme's labels must order every answer.
    let schemes: Vec<&'static str> = par_map(&registry_figure7(), |entry| {
        let mut labels = entry.session();
        labels.label_tree(&tree).expect("labellable document");
        for rows in &answers {
            for pair in rows.windows(2) {
                let (a, b) = (index.source_id(pair[0]), index.source_id(pair[1]));
                assert_eq!(
                    labels.cmp_nodes(a, b).expect("labelled rows"),
                    Ordering::Less,
                    "{} misorders rows {pair:?}",
                    entry.name()
                );
            }
        }
        entry.name()
    });
    println!(
        "The labels of all {} Figure 7 schemes order every answer. Samples:\n",
        schemes.len()
    );
    for (q, rows) in QUERIES.iter().zip(&answers) {
        println!("  {q}");
        println!("    → {} hit(s)", rows.len());
        for &row in rows.iter().take(3) {
            let shown: String = index.string_value(&tree, row).chars().take(60).collect();
            println!("      \"{shown}\"");
        }
    }
}
