//! Property-based tests (on the hermetic `xupd-testkit` harness) over
//! the whole stack: arbitrary documents and update scripts must
//! preserve the Definition 1 invariants for every scheme, and
//! parse/serialize must round-trip.

use xml_update_props::framework::driver::run_script_dyn;
use xml_update_props::framework::verify::verify_dyn;
use xml_update_props::labelcore::{DynScheme, LabelingScheme, SessionMut};
use xml_update_props::workloads::{docs, Script, ScriptKind, ScriptOp};
use xml_update_props::xmldom::{parse, serialize_compact, NodeKind, TreeBuilder, XmlTree};
use xupd_testkit::prop::{ascii_strings, ints, map, tree_shapes, vecs, Config, Gen};
use xupd_testkit::{prop_assert, prop_assert_eq, props};

// ---------- arbitrary documents ------------------------------------

/// A tree shape encoded as a sequence of builder moves: `true` opens a
/// child, `false` closes (ignored at the root).
fn arb_tree() -> impl Gen<Value = XmlTree> {
    map(tree_shapes(1, 120), |moves| {
        let mut b = TreeBuilder::new().open("r");
        let mut depth = 1usize;
        for (i, open) in moves.into_iter().enumerate() {
            if open && depth < 12 {
                b = b.open(format!("e{i}"));
                depth += 1;
            } else if depth > 1 {
                b = b.close();
                depth -= 1;
            }
        }
        for _ in 0..depth {
            b = b.close();
        }
        b.finish()
    })
}

/// Arbitrary update scripts as (kind, target) pairs.
fn arb_script() -> impl Gen<Value = Script> {
    map(vecs((ints(0u8..5), ints(0usize..64)), 1, 60), |raw| {
        Script {
            kind: ScriptKind::Random,
            ops: raw
                .into_iter()
                .map(|(k, t)| match k {
                    0 => ScriptOp::InsertBefore(t),
                    1 => ScriptOp::InsertAfter(t),
                    2 => ScriptOp::PrependChild(t),
                    3 => ScriptOp::AppendChild(t),
                    _ => ScriptOp::DeleteSubtree(t),
                })
                .collect(),
        }
    })
}

// ---------- parser/serializer round-trip ----------------------------

props! {
    config = Config::with_cases(64);

    fn serialize_parse_round_trip(tree in arb_tree()) {
        let text = serialize_compact(&tree);
        let back = parse(&text).expect("serialized documents re-parse");
        prop_assert_eq!(serialize_compact(&back), text);
        prop_assert_eq!(back.len(), tree.len());
    }

    fn text_and_attr_escaping_round_trips(
        value in ascii_strings(0, 40),  // printable ASCII incl. <>&"'
        attr in ascii_strings(0, 40),
    ) {
        let tree = TreeBuilder::new()
            .open("e")
            .attr("a", attr.clone())
            .text(value.clone())
            .close()
            .finish();
        let text = serialize_compact(&tree);
        let back = parse(&text).expect("escaped output re-parses");
        let e = back.document_element().unwrap();
        prop_assert_eq!(back.attribute(e, "a").unwrap(), attr.as_str());
        let text: String = back
            .children(e)
            .filter_map(|c| match back.kind(c) {
                NodeKind::Text { value } => Some(value.as_str()),
                _ => None,
            })
            .collect();
        prop_assert_eq!(text, value);
    }
}

// ---------- scheme invariants under arbitrary scripts ----------------

macro_rules! scheme_invariant_props {
    ($($test_name:ident => $make:expr),+ $(,)?) => {$(
        props! {
            config = Config::with_cases(24);

            fn $test_name(tree in arb_tree(), script in arb_script()) {
                let mut tree = tree;
                let mut scheme = $make;
                let mut labeling = scheme.label_tree(&tree).expect("initial labelling");
                let mut session = SessionMut::new(&mut scheme, &mut labeling);
                run_script_dyn(&mut tree, &mut session, &script).expect("script drives");
                tree.validate().expect("tree invariants");
                prop_assert_eq!(session.labeled_len(), tree.len());
                let v = verify_dyn(&tree, &session, 120, 7).expect("verifiable labelling");
                prop_assert!(v.is_sound(), "{}: {:?}", session.name(), v);
            }
        }
    )+};
}

scheme_invariant_props! {
    accel_invariants => xml_update_props::schemes::containment::accel::XPathAccelerator::new(),
    xrel_invariants => xml_update_props::schemes::containment::xrel::XRel::new(),
    sector_invariants => xml_update_props::schemes::containment::sector::Sector::new(),
    qrs_invariants => xml_update_props::schemes::containment::qrs::Qrs::new(),
    dewey_invariants => xml_update_props::schemes::prefix::dewey::DeweyId::new(),
    ordpath_invariants => xml_update_props::schemes::prefix::ordpath::OrdPath::new(),
    dln_invariants => xml_update_props::schemes::prefix::dln::Dln::new(),
    improved_binary_invariants => xml_update_props::schemes::prefix::improved_binary::ImprovedBinary::new(),
    qed_invariants => xml_update_props::schemes::prefix::qed::Qed::new(),
    cdbs_invariants => xml_update_props::schemes::prefix::cdbs::Cdbs::new(),
    cdqs_invariants => xml_update_props::schemes::prefix::cdqs::Cdqs::new(),
    vector_invariants => xml_update_props::schemes::vector::VectorScheme::new(),
    prime_invariants => xml_update_props::schemes::prime::Prime::new(),
    dde_invariants => xml_update_props::schemes::dde::Dde::new(),
}

// ---------- persistence property for the overflow-free family --------

macro_rules! persistent_props {
    ($($test_name:ident => $make:expr),+ $(,)?) => {$(
        props! {
            config = Config::with_cases(24);

            fn $test_name(tree in arb_tree(), script in arb_script()) {
                let mut tree = tree;
                let mut scheme = $make;
                let mut labeling = scheme.label_tree(&tree).expect("initial labelling");
                let mut session = SessionMut::new(&mut scheme, &mut labeling);
                let stats =
                    run_script_dyn(&mut tree, &mut session, &script).expect("script drives");
                prop_assert_eq!(stats.relabeled, 0, "{} must never relabel", session.name());
                prop_assert_eq!(stats.overflow_events, 0);
            }
        }
    )+};
}

persistent_props! {
    qed_never_relabels => xml_update_props::schemes::prefix::qed::Qed::new(),
    cdqs_never_relabels => xml_update_props::schemes::prefix::cdqs::Cdqs::new(),
    prime_never_relabels => xml_update_props::schemes::prime::Prime::new(),
}

// ---------- LSDX: collisions may happen, but order-of-live-uniques ----

props! {
    config = Config::with_cases(24);

    /// Even when LSDX collides, it must never do so on append-only
    /// scripts (its safe region).
    fn lsdx_append_only_is_collision_free(tree in arb_tree(), n in ints(1usize..50)) {
        let mut tree = tree;
        let mut scheme = xml_update_props::schemes::prefix::lsdx::Lsdx::new();
        let mut labeling = scheme.label_tree(&tree).expect("initial labelling");
        let script = Script {
            kind: ScriptKind::AppendOnly,
            ops: (0..n).map(ScriptOp::AppendChild).collect(),
        };
        run_script_dyn(&mut tree, &mut SessionMut::new(&mut scheme, &mut labeling), &script)
            .expect("script drives");
        prop_assert!(labeling.find_duplicate().is_none());
    }
}

// ---------- deletion keeps labelling in sync --------------------------

props! {
    config = Config::with_cases(32);

    fn deletion_sync(tree in arb_tree(), seeds in vecs(ints(0usize..64), 1, 19)) {
        let mut tree = tree;
        let mut scheme = xml_update_props::schemes::prefix::qed::Qed::new();
        let mut labeling = scheme.label_tree(&tree).expect("initial labelling");
        let script = Script {
            kind: ScriptKind::MixedDelete,
            ops: seeds.into_iter().map(ScriptOp::DeleteSubtree).collect(),
        };
        run_script_dyn(&mut tree, &mut SessionMut::new(&mut scheme, &mut labeling), &script)
            .expect("script drives");
        // every live node labelled, no label for dead nodes
        prop_assert_eq!(labeling.len(), tree.len());
        for (id, _) in labeling.iter() {
            prop_assert!(tree.is_alive(id));
        }
    }
}

// ---------- the sample document is untouched by any of this ----------

#[test]
fn sample_doc_assumptions() {
    let tree = docs::book();
    assert_eq!(tree.len(), 16); // 1 root + 8 elements + 2 attrs + 5 text
}
