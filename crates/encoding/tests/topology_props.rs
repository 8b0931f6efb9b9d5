//! Differential property suite for the encoding-layer acceleration:
//! every axis the preorder index computes from its parent and extent
//! columns must equal the same axis computed through the
//! label-algebra/parent-chain reference path, for all 17 roster
//! schemes, over random tree shapes — plus a golden test pinning the
//! extents and every row's children for the Figure 1 document.
//!
//! This is the contract the index rests on: its axes may make queries
//! faster, but they must never change a single observable answer.

use std::cmp::Ordering;
use xupd_encoding::{parse_xpath, PreorderIndex, XPathExpr};
use xupd_labelcore::{DynScheme, SchemeSession};
use xupd_schemes::prefix::dewey::DeweyId;
use xupd_schemes::prefix::qed::Qed;
use xupd_schemes::SchemeEntry;
use xupd_testkit::prop::{ints, Config};
use xupd_testkit::{prop_assert, prop_assert_eq, props};
use xupd_workloads::docs;
use xupd_xmldom::XmlTree;

const TAGS: [&str; 4] = ["a", "b", "c", "d"];

/// Diff every extent-backed axis of `index` against its label-algebra
/// / parent-chain reference over one scheme's labels of `tree`, and
/// check that the labels sit on their rows: each row's label orders
/// before the next row's. Mismatches come back as human-readable
/// strings.
fn axis_diff(entry: &SchemeEntry, tree: &XmlTree, index: &PreorderIndex) -> Vec<String> {
    let name = entry.name();
    let mut session = entry.session();
    if let Err(e) = session.label_tree(tree) {
        return vec![format!("{name}: labelling failed: {e}")];
    }
    let labels = session.as_ref();
    let mut failures = Vec::new();
    for i in 0..index.len() {
        if i > 0 {
            let order = labels.cmp_nodes(index.source_id(i - 1), index.source_id(i));
            if order.ok() != Some(Ordering::Less) {
                failures.push(format!("{name}: cmp_nodes({}, {i})", i - 1));
            }
        }
        let descendants = index.descendant_range(i).collect();
        if index.descendants_via_labels(labels, i).ok() != Some(descendants) {
            failures.push(format!("{name}: descendants({i})"));
        }
        if index.children(i).collect::<Vec<_>>() != index.children_via_scan(i) {
            failures.push(format!("{name}: children({i})"));
        }
        if index.following_via_labels(labels, i).ok() != Some(index.following(i).collect()) {
            failures.push(format!("{name}: following({i})"));
        }
        if index.preceding_via_labels(labels, i).ok() != Some(index.preceding(i).collect()) {
            failures.push(format!("{name}: preceding({i})"));
        }
        for j in 0..index.len() {
            if index.is_ancestor_via_labels(labels, i, j).ok() != Some(index.is_ancestor(i, j)) {
                failures.push(format!("{name}: is_ancestor({i},{j})"));
            }
        }
    }
    failures
}

/// A session of `scheme` holding its labels of `tree`.
fn labelled<S>(scheme: S, tree: &XmlTree) -> SchemeSession<S>
where
    S: xupd_labelcore::LabelingScheme + Clone + 'static,
{
    let mut session = SchemeSession::new(scheme);
    session.label_tree(tree).unwrap();
    session
}

props! {
    config = Config::with_cases(48);

    fn topology_axes_equal_label_algebra_axes(seed in ints(0u64..1_000_000), n in ints(2usize..48)) {
        let tree = docs::random_tagged_tree(seed, n, &TAGS);
        let index = PreorderIndex::encode(&tree).unwrap();
        let entries = xupd_schemes::registry();
        let failures: Vec<String> = xupd_exec::par_map(&entries, |entry| axis_diff(entry, &tree, &index))
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
            let mut assembled: Vec<usize> = index.preceding_siblings(i).collect();
            assembled.push(i);
            assembled.extend(index.following_siblings(i));
            match index.parent(i) {
                None => prop_assert_eq!(assembled, vec![i], "root has no siblings"),
                Some(p) => prop_assert_eq!(assembled, index.children(p).collect::<Vec<_>>()),
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
        let index = PreorderIndex::encode(&tree).unwrap();
        let sessions: [(&str, &dyn DynScheme); 2] = [
            ("QED", &labelled(Qed::new(), &tree)),
            ("DeweyID", &labelled(DeweyId::new(), &tree)),
        ];
        for q in queries {
            let expr = parse_xpath(q).unwrap();
            // lint:allow(R10): evaluator-vs-reference property needs both sides
            let streamed = expr.evaluate(&tree, &index);
            for (name, labels) in sessions {
                prop_assert_eq!(
                    streamed,
                    evaluate_reference(&expr, &tree, &index, labels),
                    "query {} diverged ({})", q, name
                );
            }
        }
    }

    fn string_value_concatenates_extent_text(seed in ints(0u64..1_000_000), n in ints(2usize..60)) {
        let tree = docs::random_tagged_tree(seed, n, &TAGS);
        let index = PreorderIndex::encode(&tree).unwrap();
        let labels = labelled(DeweyId::new(), &tree);
        let kind = |row: usize| tree.kind(index.source_id(row));
        for i in 0..index.len() {
            if kind(i).is_element() {
                // reference: concatenated text over the label-path
                // descendant set
                let mut expect = String::new();
                for j in index.descendants_via_labels(&labels, i).unwrap() {
                    if kind(j).is_text() {
                        expect.push_str(kind(j).value().unwrap_or(""));
                    }
                }
                prop_assert_eq!(index.string_value(&tree, i), expect);
            }
        }
    }
}

/// The evaluator as it was before the extents, preserved as the
/// reference: per-context axis enumeration over the label-algebra
/// paths, full sort+dedup after every step.
fn evaluate_reference(
    expr: &XPathExpr,
    tree: &XmlTree,
    doc: &PreorderIndex,
    labels: &dyn DynScheme,
) -> Vec<usize> {
    use xupd_encoding::xpath::{Axis, NodeTest, Pred};

    let test_matches = |i: usize, axis: Axis, test: &NodeTest| -> bool {
        let kind = tree.kind(doc.source_id(i));
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
    };

    let mut context: Vec<usize> = vec![doc.root()];
    for step in expr.steps() {
        let mut next: Vec<usize> = Vec::new();
        for &ctx in &context {
            let mut candidates: Vec<usize> = match step.axis {
                Axis::Child => doc.children_via_scan(ctx),
                Axis::Descendant => doc.descendants_via_labels(labels, ctx).unwrap(),
                Axis::DescendantOrSelf => {
                    let mut v = vec![ctx];
                    v.extend(doc.descendants_via_labels(labels, ctx).unwrap());
                    v
                }
                Axis::Parent => doc.parent(ctx).into_iter().collect(),
                Axis::Ancestor => {
                    let mut up: Vec<usize> = doc.ancestors(ctx).collect();
                    up.reverse();
                    up
                }
                Axis::Following => doc.following_via_labels(labels, ctx).unwrap(),
                Axis::Preceding => doc.preceding_via_labels(labels, ctx).unwrap(),
                Axis::FollowingSibling => doc.following_siblings(ctx).collect(),
                Axis::PrecedingSibling => doc.preceding_siblings(ctx).collect(),
                Axis::Attribute => doc
                    .children_via_scan(ctx)
                    .into_iter()
                    .filter(|&j| tree.kind(doc.source_id(j)).is_attribute())
                    .collect(),
                Axis::SelfAxis => vec![ctx],
            };
            candidates.retain(|&i| test_matches(i, step.axis, &step.test));
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
                        candidates.retain(|&i| {
                            doc.attribute_value(tree, i, name) == Some(value.as_str())
                        });
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
    assert_eq!(index.len(), 16);
    assert_eq!(
        (0..16).map(|i| index.extent(i)).collect::<Vec<_>>(),
        [16, 16, 5, 4, 5, 7, 7, 16, 13, 11, 11, 13, 13, 16, 15, 16]
    );
    assert_eq!(
        (0..16)
            .map(|i| index.ancestors(i).count())
            .collect::<Vec<_>>(),
        [0, 1, 2, 3, 3, 2, 3, 2, 3, 4, 5, 4, 5, 3, 4, 4],
        "depths, as ancestor chains"
    );
    let none: &[usize] = &[];
    assert_eq!(
        (0..16)
            .map(|i| index.children(i).collect::<Vec<_>>())
            .collect::<Vec<_>>(),
        [
            &[1][..],
            &[2, 5, 7],
            &[3, 4],
            none,
            none,
            &[6],
            none,
            &[8, 13],
            &[9, 11],
            &[10],
            none,
            &[12],
            none,
            &[14, 15],
            none,
            none,
        ],
        "every row's children"
    );
}
