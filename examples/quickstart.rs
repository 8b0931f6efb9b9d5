//! Quickstart: parse a document, label it with a dynamic scheme, update
//! it without relabelling, and query it through the encoding — all via
//! the prelude's unified `Document` facade (one handle bundles the live
//! tree, the scheme, its labelling and the lazily-encoded query
//! snapshot) and the flux update DSL.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use xml_update_props::labelcore::Label;
use xml_update_props::prelude::*;
use xml_update_props::schemes::prefix::qed::Qed;
use xml_update_props::xmldom::serialize_pretty;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Parse the paper's Figure 1 sample document.
    let tree = xmldom_parse(xml_update_props::xmldom::sample::FIGURE1_XML)?;
    println!("Parsed {} nodes.\n", tree.len());

    // 2. Label it with QED — a scheme that never relabels (§4) — behind
    //    the facade.
    let mut doc = Document::encode(Qed::new(), &tree)?;
    println!("QED labels (document order):");
    for id in doc.tree().ids_in_doc_order() {
        if let Some(name) = doc.tree().kind(id).name() {
            println!("  {:<12} {}", name, doc.labeling().req(id)?.display());
        }
    }

    // 3. Structural update, written in the flux DSL: the program is
    //    statically checked, compiled to one atomic mutation log against
    //    the current tree, and applied. QED splices fresh labels between
    //    neighbours — no existing label changes.
    let stats = doc.update(r#"insert <appendix/> after /book/title;"#)?;
    println!(
        "\nInserted {} element(s) — {} existing labels touched.",
        stats.inserts, stats.relabeled
    );
    assert_eq!(stats.relabeled, 0);

    // 4. Query through the encoding scheme (Definition 2). The facade
    //    re-encodes the updated tree lazily, once.
    let hits = doc.xpath("/book/publisher/editor/name")?;
    for h in hits {
        println!(
            "XPath /book/publisher/editor/name → \"{}\"",
            doc.encoded()?.index().string_value(h)
        );
    }

    // 5. An unsound program never reaches the tree: the static checker
    //    rejects it with a span-carrying diagnostic first.
    let err = doc
        .update("delete /book/title; set /book/title/text() to \"x\";")
        .unwrap_err();
    println!("\nRejected before apply: {err}");

    // 6. The labelling still matches tree ground truth, and the document
    //    is still a well-formed XML text.
    assert!(doc.verify()?.is_sound());
    println!("\nSerialized:\n{}", serialize_pretty(doc.tree()));
    Ok(())
}
