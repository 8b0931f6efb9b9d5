//! Differential property suite for the encoding-layer acceleration:
//! every axis computed through the [`Topology`] sidecar must equal the
//! same axis computed through the label-algebra/parent-chain reference
//! path, for all 17 roster schemes, over random tree shapes — plus
//! golden tests pinning the extents and CSR arrays for the Figure 1
//! document.
//!
//! This is the contract the tentpole optimisation rests on: the
//! topology index may make queries faster, but it must never change a
//! single observable answer.

use std::cmp::Ordering;
use xupd_encoding::{
    document_registry, parse_xpath, DocSchemeEntry, EncodedDocument, PreorderIndex, Topology,
    XPathExpr,
};
use xupd_labelcore::LabelingScheme;
use xupd_schemes::prefix::dewey::DeweyId;
use xupd_schemes::prefix::qed::Qed;
use xupd_testkit::prop::{ints, Config};
use xupd_testkit::{prop_assert, prop_assert_eq, props};
use xupd_workloads::docs;
use xupd_xmldom::XmlTree;

const TAGS: [&str; 4] = ["a", "b", "c", "d"];

/// Diff every topology-backed axis against its label-algebra /
/// parent-chain reference on one tree under one scheme, and check that
/// the labels sit on their rows: each row's label orders before the
/// next row's. Mismatches come back as human-readable strings.
fn axis_diff(entry: &DocSchemeEntry, tree: &XmlTree) -> Vec<String> {
    let name = entry.name();
    let mut failures = Vec::new();
    let enc = match (entry.encode)(tree) {
        Ok(e) => e,
        Err(e) => {
            failures.push(format!("{name}: encode failed: {e}"));
            return failures;
        }
    };
    let index = enc.index();
    for i in 0..index.len() {
        if i > 0 && enc.cmp_doc(i - 1, i) != Ordering::Less {
            failures.push(format!("{name}: cmp_doc({}, {i})", i - 1));
        }
        if index.descendants(i) != enc.descendants_via_labels(i) {
            failures.push(format!("{name}: descendants({i})"));
        }
        if index.children(i) != index.children_via_scan(i).as_slice() {
            failures.push(format!("{name}: children({i})"));
        }
        if index.following(i) != enc.following_via_labels(i) {
            failures.push(format!("{name}: following({i})"));
        }
        if index.preceding(i) != enc.preceding_via_labels(i) {
            failures.push(format!("{name}: preceding({i})"));
        }
        for j in 0..index.len() {
            if index.is_ancestor(i, j) != enc.is_ancestor_via_labels(i, j) {
                failures.push(format!("{name}: is_ancestor({i},{j})"));
            }
        }
    }
    failures
}

props! {
    config = Config::with_cases(48);

    fn topology_axes_equal_label_algebra_axes(seed in ints(0u64..1_000_000), n in ints(2usize..48)) {
        let tree = docs::random_tagged_tree(seed, n, &TAGS);
        let entries = document_registry();
        let failures: Vec<String> = xupd_exec::par_map(&entries, |entry| axis_diff(entry, &tree))
            .into_iter()
            .flatten()
            .collect();
        prop_assert_eq!(entries.len(), 17, "every roster scheme diffed");
        prop_assert!(failures.is_empty(), "axis mismatches: {:?}", failures);
    }

    fn sibling_axes_partition_parents_children(seed in ints(0u64..1_000_000), n in ints(2usize..60)) {
        let tree = docs::random_tagged_tree(seed, n, &TAGS);
        let index = PreorderIndex::encode(&tree).unwrap();
        for i in 0..index.len() {
            let mut assembled = index.preceding_siblings(i).to_vec();
            assembled.push(i);
            assembled.extend_from_slice(index.following_siblings(i));
            match index.parent(i) {
                None => prop_assert_eq!(assembled, vec![i], "root has no siblings"),
                Some(p) => prop_assert_eq!(assembled.as_slice(), index.children(p)),
            }
        }
    }

    fn streaming_evaluator_equals_reference(seed in ints(0u64..1_000_000), n in ints(4usize..60)) {
        let tree = docs::random_tagged_tree(seed, n, &TAGS);
        let queries = [
            "//a", "//b/c", "//a//b", "/root/a", "//c/..",
            "//b/ancestor::*", "//a/following-sibling::*", "//c/preceding::*",
            "//a/@id", "//b[1]", "//a/descendant-or-self::a", "//d/text()",
        ];
        for q in queries {
            let expr = parse_xpath(q).unwrap();
            let qed = EncodedDocument::encode(Qed::new(), &tree).unwrap();
            prop_assert_eq!(
                // lint:allow(R10): evaluator-vs-reference property needs both sides
                expr.evaluate(qed.index()),
                evaluate_reference(&expr, &qed),
                "query {} diverged (QED)", q
            );
            let dewey = EncodedDocument::encode(DeweyId::new(), &tree).unwrap();
            prop_assert_eq!(
                // lint:allow(R10): evaluator-vs-reference property needs both sides
                expr.evaluate(dewey.index()),
                evaluate_reference(&expr, &dewey),
                "query {} diverged (DeweyID)", q
            );
        }
    }

    fn string_value_concatenates_extent_text(seed in ints(0u64..1_000_000), n in ints(2usize..60)) {
        let tree = docs::random_tagged_tree(seed, n, &TAGS);
        let enc = EncodedDocument::encode(DeweyId::new(), &tree).unwrap();
        let index = enc.index();
        for i in 0..index.len() {
            if index.kind(i).is_element() {
                // reference: concatenated text over the label-path
                // descendant set
                let mut expect = String::new();
                for j in enc.descendants_via_labels(i) {
                    if index.kind(j).is_text() {
                        expect.push_str(index.kind(j).value().unwrap_or(""));
                    }
                }
                prop_assert_eq!(index.string_value(i), expect);
            }
        }
    }
}

/// The pre-topology evaluator, preserved verbatim as the reference:
/// per-context axis enumeration over the label-algebra paths, full
/// sort+dedup after every step.
fn evaluate_reference<S: LabelingScheme>(expr: &XPathExpr, enc: &EncodedDocument<S>) -> Vec<usize> {
    use xupd_encoding::xpath::{Axis, NodeTest, Pred};

    fn test_matches(doc: &PreorderIndex, i: usize, axis: Axis, test: &NodeTest) -> bool {
        let kind = doc.kind(i);
        match test {
            NodeTest::AnyNode => true,
            NodeTest::Text => kind.is_text(),
            NodeTest::Any => {
                if axis == Axis::Attribute {
                    kind.is_attribute()
                } else {
                    kind.is_element()
                }
            }
            NodeTest::Name(name) => {
                if axis == Axis::Attribute {
                    kind.is_attribute() && kind.name() == Some(name)
                } else {
                    kind.is_element() && kind.name() == Some(name)
                }
            }
        }
    }

    let doc = enc.index();
    let mut context: Vec<usize> = vec![doc.root()];
    for step in expr.steps() {
        let mut next: Vec<usize> = Vec::new();
        for &ctx in &context {
            let mut candidates: Vec<usize> = match step.axis {
                Axis::Child => doc.children_via_scan(ctx),
                Axis::Descendant => enc.descendants_via_labels(ctx),
                Axis::DescendantOrSelf => {
                    let mut v = vec![ctx];
                    v.extend(enc.descendants_via_labels(ctx));
                    v
                }
                Axis::Parent => doc.parent(ctx).into_iter().collect(),
                Axis::Ancestor => doc.ancestors(ctx),
                Axis::Following => enc.following_via_labels(ctx),
                Axis::Preceding => enc.preceding_via_labels(ctx),
                Axis::FollowingSibling => doc.following_siblings(ctx).to_vec(),
                Axis::PrecedingSibling => doc.preceding_siblings(ctx).to_vec(),
                Axis::Attribute => doc.attributes(ctx),
                Axis::SelfAxis => vec![ctx],
            };
            candidates.retain(|&i| test_matches(doc, i, step.axis, &step.test));
            for pred in &step.preds {
                match pred {
                    Pred::Position(k) => {
                        candidates = candidates
                            .into_iter()
                            .enumerate()
                            .filter(|(pos, _)| pos + 1 == *k)
                            .map(|(_, i)| i)
                            .collect();
                    }
                    Pred::AttrEq(name, value) => {
                        candidates
                            .retain(|&i| doc.attribute_value(i, name) == Some(value.as_str()));
                    }
                }
            }
            next.extend(candidates);
        }
        next.sort_unstable();
        next.dedup();
        context = next;
    }
    context
}

// ---------- goldens: the Figure 1 document, row by row ---------------

/// Figure 1 document-order rows (16 nodes): #doc, book, title, @genre,
/// "Wayfarer", author, "Matthew Dickens", publisher, editor, name,
/// "Destiny Image", address, "USA", edition, @year, "1.0".
#[test]
fn figure1_topology_golden() {
    let tree = xupd_xmldom::sample::figure1_document();
    let index = PreorderIndex::encode(&tree).unwrap();
    let t = index.topology();
    assert_eq!(index.len(), 16);
    assert_eq!(
        (0..16).map(|i| t.extent(i)).collect::<Vec<_>>(),
        [16, 16, 5, 4, 5, 7, 7, 16, 13, 11, 11, 13, 13, 16, 15, 16]
    );
    assert_eq!(
        (0..16).map(|i| t.depth(i)).collect::<Vec<_>>(),
        [0, 1, 2, 3, 3, 2, 3, 2, 3, 4, 5, 4, 5, 3, 4, 4]
    );
    assert_eq!(
        t.child_start(),
        [0, 1, 4, 6, 6, 6, 7, 7, 9, 11, 12, 12, 13, 13, 15, 15, 15]
    );
    assert_eq!(
        t.child_rows(),
        [1, 2, 5, 7, 3, 4, 6, 8, 13, 9, 11, 10, 12, 14, 15]
    );
}

#[test]
fn figure1_topology_rebuilds_from_parents() {
    // The sidecar is a pure function of the parent column.
    let tree = xupd_xmldom::sample::figure1_document();
    let index = PreorderIndex::encode(&tree).unwrap();
    let parents: Vec<Option<usize>> = (0..index.len()).map(|i| index.parent(i)).collect();
    let rebuilt = Topology::from_parents(parents).unwrap();
    assert_eq!(&rebuilt, index.topology());
}
