//! Cross-crate integration: every scheme × every workload keeps the
//! Definition 1 invariants, and the encoding/XPath layer answers on one
//! preorder index whatever the labelling scheme underneath, each
//! scheme's labels ordering those answers.
//!
//! The batteries iterate the object-safe scheme registry
//! (`schemes::registry()`, whose sessions hold each scheme's labels)
//! and fan out one pool worker per scheme via `exec::par_map` — results
//! come back in roster order, so assertions are deterministic at any
//! `XUPD_THREADS`.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt::Write;
use xml_update_props::encoding::reconstruct::reconstruct;
use xml_update_props::encoding::{parse_xpath, PreorderIndex};
use xml_update_props::exec::par_map;
use xml_update_props::framework::driver::run_script_dyn;
use xml_update_props::framework::mutations::{
    apply_log_dyn, LogId, Mutation, MutationLog, NodeRef, Place,
};
use xml_update_props::framework::verify::verify_dyn;
use xml_update_props::labelcore::{Compliance, DynScheme, Property};
use xml_update_props::schemes::{registry, registry_figure7};
use xml_update_props::workloads::{docs, Script, ScriptKind};
use xml_update_props::xmldom::{serialize_compact, NodeId, NodeKind, XmlTree};

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

/// The encoding layer is scheme-independent: the queries run once, on
/// the preorder index every scheme shares, and each Figure 7 scheme's
/// labels order every answer in document order.
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
    let index = PreorderIndex::encode(&tree).unwrap();
    let answers: Vec<Vec<usize>> = queries
        .iter()
        .map(|q| parse_xpath(q).unwrap().evaluate(&tree, &index))
        .collect();
    // some query returned several rows (the test is non-vacuous)
    assert!(answers.iter().any(|rows| rows.len() > 1));

    let entries = registry_figure7();
    let failures: Vec<String> = par_map(&entries, |entry| {
        let mut labels = entry.session();
        labels.label_tree(&tree).unwrap();
        let mut out = Vec::new();
        for (q, rows) in queries.iter().zip(&answers) {
            for pair in rows.windows(2) {
                let (a, b) = (index.source_id(pair[0]), index.source_id(pair[1]));
                if labels.cmp_nodes(a, b).ok() != Some(Ordering::Less) {
                    out.push(format!("{}: {q}: rows {pair:?} out of order", entry.name()));
                }
            }
        }
        out
    })
    .into_iter()
    .flatten()
    .collect();
    assert_eq!(entries.len(), 12);
    assert!(failures.is_empty(), "{failures:?}");
}

/// Reconstruction round-trip: document → index → reconstruct →
/// serialize equals the original serialization, and every scheme labels
/// the reconstruction row for row as it labels the original.
#[test]
fn reconstruction_round_trip_every_scheme() {
    let tree = docs::xmark_like(8, 45);
    let index = PreorderIndex::encode(&tree).unwrap();
    let back = reconstruct(&tree, &index).unwrap();
    assert_eq!(serialize_compact(&back), serialize_compact(&tree));
    let back_index = PreorderIndex::encode(&back).unwrap();

    let entries = registry();
    let failures: Vec<&'static str> = par_map(&entries, |entry| {
        let labels_by_row = |tree: &XmlTree, index: &PreorderIndex| -> Vec<String> {
            let mut labels = entry.session();
            labels.label_tree(tree).unwrap();
            (0..index.len())
                .map(|i| labels.label_display(index.source_id(i)).unwrap())
                .collect()
        };
        (labels_by_row(&tree, &index) != labels_by_row(&back, &back_index)).then(|| entry.name())
    })
    .into_iter()
    .flatten()
    .collect();
    assert_eq!(entries.len(), 17);
    assert!(
        failures.is_empty(),
        "labels differ after the round trip: {failures:?}"
    );
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

/// `donor`'s subtree at `root` as one log, §3.1.2's "serialised as a
/// sequence of nodes": one create per node in the donor's preorder, the
/// root at `place` and every other node as the last child of its
/// parent's copy.
fn graft_log(donor: &XmlTree, root: NodeId, place: Place) -> MutationLog {
    let mut ids = vec![LogId(0); donor.id_bound()];
    let mut log = MutationLog::new();
    for (i, node) in donor.preorder_from(root).enumerate() {
        let id = LogId(i as u32);
        ids[node.index()] = id;
        let place = match donor.parent(node) {
            Some(p) if node != root => Place::LastChildOf(NodeRef::New(ids[p.index()])),
            _ => place,
        };
        log.push(match donor.kind(node) {
            NodeKind::Element { name } => Mutation::CreateElement {
                id,
                name: name.clone(),
                place,
            },
            kind => Mutation::CreateNode {
                id,
                kind: kind.clone(),
                place,
            },
        });
    }
    log
}

/// Subtree insertion (the paper's third structural-update class,
/// §3.1.2's "serialised as a sequence of nodes and inserted
/// individually") works for every scheme and preserves order: each
/// graft is one log of creates in the donor's preorder. A scheme that
/// declares Persistent Labels `F` keeps every bystander label
/// bit-identical across the three grafts (EXPERIMENTS A3).
#[test]
fn subtree_grafting_all_schemes() {
    let entries = registry();
    let failures: Vec<String> = par_map(&entries, |entry| {
        let name = entry.name();
        let mut session = entry.session();
        let mut tree = docs::book();
        session.label_tree(&tree).unwrap();
        let before = session.labels_display();
        let donor = docs::xmark_like(4, 12);
        let donor_root = donor.document_element().unwrap();

        // graft in three positions: append, prepend, between
        let book = tree.document_element().unwrap();
        let mut graft = |tree: &mut XmlTree, place| {
            let log = graft_log(&donor, donor_root, place);
            apply_log_dyn(tree, session.as_mut(), &log).unwrap();
        };
        graft(&mut tree, Place::LastChildOf(NodeRef::Node(book)));
        let first = tree.first_child(book).unwrap();
        graft(&mut tree, Place::Before(NodeRef::Node(first)));
        let second = tree.next_sibling(tree.first_child(book).unwrap()).unwrap();
        graft(&mut tree, Place::After(NodeRef::Node(second)));

        if session.labeled_len() != tree.len() {
            return Some(format!("{name}: label count mismatch"));
        }
        if entry.descriptor.declared_for(Property::PersistentLabels) == Compliance::Full {
            let after: HashMap<usize, String> = session.labels_display().into_iter().collect();
            if let Some((n, old)) = before.iter().find(|(n, old)| after.get(n) != Some(old)) {
                return Some(format!("{name}: bystander {n} relabelled from {old}"));
            }
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

/// FNV-1a digest of each scheme's labels after
/// [`labels_are_pinned_for_every_scheme`]'s scripts, in roster order.
const LABEL_DIGESTS: [(&str, u64); 17] = [
    ("XPath Accelerator", 0x19e4_604b_78db_09fb),
    ("XRel", 0x2504_e976_1af0_5415),
    ("Sector", 0xeacb_7dc5_3b69_367a),
    ("QRS", 0xd9d6_bfe2_6ca8_66ff),
    ("DeweyID", 0x44b1_9edf_c72c_4176),
    ("Ordpath", 0x73cf_8386_ced1_993b),
    ("DLN", 0x00d6_f075_8557_0f89),
    ("LSDX", 0x39d0_fb09_7673_f4bc),
    ("ImprovedBinary", 0xff04_de3e_4c28_cada),
    ("QED", 0x2024_464a_3b11_c66a),
    ("CDQS", 0x7dd4_5193_af4e_d2a0),
    ("Vector", 0xe4b0_a737_d96c_4a92),
    ("CDBS", 0x5e0a_1503_9929_78c0),
    ("Com-D", 0x22ac_5a36_e00d_19fd),
    ("Prime", 0x10cc_893f_3bc6_2556),
    ("DDE", 0x5a87_48b2_fd3d_aeb9),
    ("QED∘Containment", 0x9e83_6468_f1a1_b071),
];

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Label a copy of `base`, run `ops` ops of `kind` on it and append the
/// run's relabel, overflow and peak-size counters and every label to
/// `out`.
fn render_run(
    session: &mut dyn DynScheme,
    base: &XmlTree,
    (kind, ops, seed): (ScriptKind, usize, u64),
    out: &mut String,
) {
    let mut tree = base.clone();
    session.label_tree(&tree).unwrap();
    let script = Script::generate(kind, ops, tree.len(), seed);
    let s = run_script_dyn(&mut tree, session, &script).unwrap();
    let name = kind.name();
    let (relabeled, overflows, peak) = (s.relabeled, s.overflow_events, s.peak_label_bits);
    writeln!(out, "{name} {relabeled} {overflows} {peak}").unwrap();
    for (id, label) in session.labels_display() {
        writeln!(out, "{id} {label}").unwrap();
    }
}

/// Every scheme's label strings are pinned: after each standard script
/// on the checker's standard document, and after the checker's
/// adversarial battery on its overflow audit instance (the session
/// itself when the scheme has none), the labels and the runs'
/// counters hash to the pinned digest. A change to a
/// scheme's code algebra or to the host it runs on fails here even when
/// the store digests, which hash no label, stay put.
#[test]
fn labels_are_pinned_for_every_scheme() {
    let entries = registry();
    let digests = par_map(&entries, |entry| {
        let mut session = entry.session();
        let mut out = String::new();
        let standard = docs::random_tree(0xD0C, 300);
        for (i, kind) in ScriptKind::ALL.into_iter().enumerate() {
            render_run(
                session.as_mut(),
                &standard,
                (kind, 150, 100 + i as u64),
                &mut out,
            );
        }
        let mut audit = session.overflow_audit_instance();
        let target = match audit.as_deref_mut() {
            Some(a) => a,
            None => session.as_mut(),
        };
        let wide = docs::wide(20);
        for run in [
            (ScriptKind::Skewed, 600, 201),
            (ScriptKind::PrependStorm, 600, 204),
            (ScriptKind::Zigzag, 300, 202),
            (ScriptKind::AppendOnly, 300, 203),
        ] {
            render_run(target, &wide, run, &mut out);
        }
        (entry.name(), fnv1a(out.as_bytes()))
    });
    let render = |rows: &[(&str, u64)]| -> Vec<String> {
        rows.iter().map(|(n, d)| format!("{n} {d:#018x}")).collect()
    };
    assert_eq!(render(&digests), render(&LABEL_DIGESTS));
}
