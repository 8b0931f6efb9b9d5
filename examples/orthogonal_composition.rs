//! The §5.1 *Orthogonal Labelling Scheme* property, live: QED's
//! quaternary order codes plugged into a **containment** host, giving a
//! begin/end interval scheme that — unlike every integer-position
//! containment scheme of §3.1.1 — absorbs unlimited insertions with no
//! gaps and no relabelling.
//!
//! Also demonstrates the storage layer behind the claim: the packed
//! `00`-separated bitstream of §4, round-tripped.
//!
//! ```text
//! cargo run --release --example orthogonal_composition
//! ```

use std::cmp::Ordering;
use xml_update_props::labelcore::qstorage::{pack_separated, unpack_separated};
use xml_update_props::labelcore::{LabelingScheme, QCode, Relation};
use xml_update_props::schemes::qcontainment::QedContainment;
use xml_update_props::workloads::docs;
use xml_update_props::xmldom::NodeKind;

fn main() {
    // A containment labelling whose positions are QED codes.
    let mut tree = docs::book();
    let mut scheme = QedContainment::new();
    let mut labeling = scheme.label_tree(&tree).expect("labelled");

    println!("QED ∘ containment — begin/end codes of the sample document:\n");
    for n in tree.ids_in_doc_order() {
        if let Some(name) = tree.kind(n).name() {
            let region = labeling.req(n).expect("labelled");
            println!("  {:<10} [{}, {})", name, region.begin, region.end);
        }
    }

    // 1000 insertions at one fixed position — the workload that forces
    // every integer containment scheme of §3.1.1 to relabel — splice in
    // with zero relabelling.
    let book = tree.document_element().expect("book");
    let anchor = tree.first_child(book).expect("title");
    for _ in 0..1000 {
        let n = tree.create(NodeKind::element("x"));
        tree.insert_before(anchor, n).expect("live");
        let report = scheme.on_insert(&tree, &mut labeling, n).expect("splice");
        assert!(report.relabeled.is_empty());
    }
    // verify order + containment survived
    let label = |n| labeling.req(n).expect("labelled");
    let order = tree.ids_in_doc_order();
    for w in order.windows(2) {
        assert_eq!(scheme.cmp_doc(label(w[0]), label(w[1])), Ordering::Less);
    }
    for &n in order.iter().step_by(97) {
        let contained = scheme.relation(Relation::AncestorDescendant, label(book), label(n));
        assert_eq!(contained, Some(tree.is_ancestor(book, n)));
    }
    println!(
        "\n1000 skewed insertions absorbed: document order and containment\n\
         intact, zero existing labels changed — the §5.1 orthogonality\n\
         payoff (compare §3.1.1's Θ(n)-relabelling integer intervals)."
    );

    // The storage layer (§4): codes of wildly different lengths pack
    // into one bitstream delimited only by the reserved 00 symbol.
    let begins: Vec<QCode> = order.iter().map(|&n| label(n).begin.clone()).collect();
    let stream = pack_separated(&begins);
    let back = unpack_separated(&stream).expect("well-formed stream");
    assert_eq!(back, begins);
    println!(
        "\nStorage: {} begin-codes packed into {} bits ({} bytes) with 2-bit\n\
         separators and no length fields — nothing that can overflow (§4).",
        begins.len(),
        stream.len_bits(),
        stream.as_bytes().len()
    );
}
