//! Differential soundness suite for `framework::analysis`.
//!
//! Every certificate the analyzer issues is checked against sequential
//! in-order application across the whole 17-scheme roster:
//!
//! * [`apply_plan_with_dyn`] under [`ApplyOptions::analyzed`]
//!   (skip-revalidation + redundant-write drops + canonical reorder
//!   when the scheme is order-independent) must match `apply_log_dyn`
//!   byte-for-byte: document bytes, doc-order labels, and work stats
//!   (`peak_label_bits` excepted — its checkpoints sample different
//!   instants).
//! * Under [`ApplyOptions::coalesced`] (plus nil-component
//!   cancellation) it must match on document bytes and labels; its work
//!   counters intentionally shrink — that is the certificate's point.
//!
//! The suite also pins the capability claims themselves: the roster's
//! `order_independent` split is asserted, and the canonical order is
//! required to genuinely permute on a multi-component batch (a reorder
//! "certificate" that always echoes input order would be vacuous).

use std::collections::BTreeMap;

use xupd_framework::analysis::{analyze, apply_plan_with_dyn, ApplyOptions};
use xupd_framework::driver::DriveStats;
use xupd_framework::mutations::{
    apply_log_dyn, batch_of, LogId, Mutation, MutationLog, NodeRef, Place,
};
use xupd_labelcore::DynScheme;
use xupd_schemes::registry;
use xupd_workloads::{docs, Script, ScriptKind};
use xupd_xmldom::{parse, serialize_compact, NodeId, NodeKind, XmlTree};

/// Labels rendered in document order (arena ids differ between runs
/// that create nodes in different orders, so id-order comparison would
/// be meaningless).
fn doc_order_labels(tree: &XmlTree, session: &dyn DynScheme) -> Vec<String> {
    let by_id: BTreeMap<usize, String> = session.labels_display().into_iter().collect();
    tree.ids_in_doc_order()
        .into_iter()
        .map(|n| by_id.get(&n.index()).cloned().unwrap_or_default())
        .collect()
}

fn assert_stats_eq_minus_peak(a: &DriveStats, b: &DriveStats, ctx: &str) {
    assert_eq!(a.inserts, b.inserts, "{ctx}: inserts");
    assert_eq!(a.deletes, b.deletes, "{ctx}: deletes");
    assert_eq!(a.relabeled, b.relabeled, "{ctx}: relabeled");
    assert_eq!(a.overflow_events, b.overflow_events, "{ctx}: overflow");
    assert_eq!(a.end_mean_bits, b.end_mean_bits, "{ctx}: end_mean_bits");
    assert_eq!(a.end_max_bits, b.end_max_bits, "{ctx}: end_max_bits");
}

struct Outcome {
    bytes: String,
    labels: Vec<String>,
    stats: DriveStats,
}

fn run_seq(factory: fn() -> Box<dyn DynScheme>, base: &XmlTree, log: &MutationLog) -> Outcome {
    let mut tree = base.clone();
    let mut session = factory();
    session.label_tree(&tree).unwrap();
    let stats = apply_log_dyn(&mut tree, session.as_mut(), log).unwrap();
    Outcome {
        bytes: serialize_compact(&tree),
        labels: doc_order_labels(&tree, session.as_ref()),
        stats,
    }
}

/// Run the full certificate battery for one (base, log) pair across
/// every scheme in the roster.
fn certificate_battery(base: &XmlTree, log: &MutationLog, ctx: &str) {
    let plan = analyze(log, base).unwrap();
    let entries = registry();
    assert_eq!(entries.len(), 17);
    let checked = xupd_exec::par_map(&entries, |entry| {
        let seq = run_seq(entry.factory, base, log);

        // analyzed order: byte-identical on every observable.
        let mut tree = base.clone();
        let mut session = (entry.factory)();
        session.label_tree(&tree).unwrap();
        let stats = apply_plan_with_dyn(
            &mut tree,
            session.as_mut(),
            log,
            &plan,
            ApplyOptions::analyzed(),
        )
        .unwrap();
        let name = entry.name();
        assert_eq!(
            seq.bytes,
            serialize_compact(&tree),
            "{ctx}/{name}: plan bytes"
        );
        assert_eq!(
            seq.labels,
            doc_order_labels(&tree, session.as_ref()),
            "{ctx}/{name}: plan labels"
        );
        assert_stats_eq_minus_peak(&seq.stats, &stats, &format!("{ctx}/{name}: plan"));

        // coalesced order: bytes and labels still identical; work
        // counters may legitimately shrink.
        let mut tree = base.clone();
        let mut session = (entry.factory)();
        session.label_tree(&tree).unwrap();
        let co_stats = apply_plan_with_dyn(
            &mut tree,
            session.as_mut(),
            log,
            &plan,
            ApplyOptions::coalesced(),
        )
        .unwrap();
        assert_eq!(
            seq.bytes,
            serialize_compact(&tree),
            "{ctx}/{name}: coalesced bytes"
        );
        assert_eq!(
            seq.labels,
            doc_order_labels(&tree, session.as_ref()),
            "{ctx}/{name}: coalesced labels"
        );
        assert!(
            co_stats.inserts <= seq.stats.inserts && co_stats.deletes <= seq.stats.deletes,
            "{ctx}/{name}: coalescing may only shed work"
        );

        name
    });
    assert_eq!(checked.len(), 17);
}

fn script_battery(kind: ScriptKind, ops: usize, seed: u64) {
    let nodes = 60;
    let tree = docs::random_tree(seed, nodes);
    let script = Script::generate(kind, ops, nodes, seed);
    let log = batch_of(&script, &tree).unwrap();
    certificate_battery(&tree, &log, &format!("{kind:?}/{seed}"));
}

#[test]
fn random_scripts_roundtrip_all_schemes() {
    script_battery(ScriptKind::Random, 40, 9101);
    script_battery(ScriptKind::Random, 40, 9102);
}

#[test]
fn delete_heavy_scripts_roundtrip_all_schemes() {
    script_battery(ScriptKind::MixedDelete, 60, 9201);
    script_battery(ScriptKind::MixedDelete, 60, 9202);
}

#[test]
fn append_scripts_roundtrip_all_schemes() {
    script_battery(ScriptKind::AppendOnly, 30, 9301);
}

// ---------------------------------------------------------------------
// Hand-built multi-component batch: certificates must be non-trivial.
// ---------------------------------------------------------------------

fn sections_doc() -> XmlTree {
    parse(concat!(
        "<r>",
        "<s><k>a</k><k>b</k></s>",
        "<s><k>c</k><k>d</k></s>",
        "<s><k>e</k><k>f</k></s>",
        "<s><k>g</k><k>h</k></s>",
        "</r>"
    ))
    .unwrap()
}

fn elems(t: &XmlTree, name: &str) -> Vec<NodeId> {
    t.ids_in_doc_order()
        .into_iter()
        .filter(|&id| matches!(t.kind(id), NodeKind::Element { name: e } if e == name))
        .collect()
}

fn texts(t: &XmlTree) -> Vec<NodeId> {
    t.ids_in_doc_order()
        .into_iter()
        .filter(|&id| matches!(t.kind(id), NodeKind::Text { .. }))
        .collect()
}

/// Disjoint-section batch with a redundant write and a cancelling
/// create+delete component.
fn sections_log(t: &XmlTree) -> MutationLog {
    let s = elems(t, "s");
    let k = elems(t, "k");
    let tx = texts(t);
    MutationLog::from(vec![
        // Section 3: text edit, then a no-op rewrite of section 0's
        // first text node ("a" -> "a", provably redundant).
        Mutation::SetText {
            target: NodeRef::Node(tx[6]),
            text: "G".into(),
        },
        Mutation::SetText {
            target: NodeRef::Node(tx[0]),
            text: "a".into(),
        },
        // Section 1: create under <s>, delete its first <k>.
        Mutation::CreateElement {
            id: LogId(0),
            name: "n".into(),
            place: Place::LastChildOf(NodeRef::Node(s[1])),
        },
        Mutation::Delete {
            target: NodeRef::Node(k[2]),
        },
        // Section 2: a scratch subtree that cancels to nothing.
        Mutation::CreateElement {
            id: LogId(1),
            name: "tmp".into(),
            place: Place::LastChildOf(NodeRef::Node(s[2])),
        },
        Mutation::CreateElement {
            id: LogId(2),
            name: "inner".into(),
            place: Place::FirstChildOf(NodeRef::New(LogId(1))),
        },
        Mutation::Delete {
            target: NodeRef::New(LogId(1)),
        },
        // Section 0: structural edit far from the no-op text write.
        Mutation::CreateElement {
            id: LogId(3),
            name: "m".into(),
            place: Place::FirstChildOf(NodeRef::Node(s[0])),
        },
    ])
}

#[test]
fn certificates_are_nontrivial_and_sound() {
    let t = sections_doc();
    let log = sections_log(&t);
    let plan = analyze(&log, &t).unwrap();

    // Non-trivial: several independent components, a genuine
    // permutation, a redundant write, and a nil component.
    assert!(
        plan.components.len() >= 4,
        "components: {:?}",
        plan.components
    );
    let identity: Vec<usize> = (0..log.len()).collect();
    assert_ne!(plan.canonical, identity, "canonical order must permute");
    assert_eq!(plan.redundant, vec![1]);
    assert_eq!(plan.nil_components.len(), 1);

    certificate_battery(&t, &log, "sections");
}

#[test]
fn roster_capability_split_is_pinned() {
    // The order-independent claims are scheme code; this differential
    // suite is what licenses them. Pin the exact split so a new or
    // changed scheme must consciously re-justify its claim here.
    let mut independent = Vec::new();
    let mut sensitive = Vec::new();
    let mut neutral = Vec::new();
    for entry in registry() {
        let session = entry.session();
        if session.order_independent() {
            independent.push(entry.name());
        } else {
            sensitive.push(entry.name());
        }
        if session.cancellation_neutral() {
            // the optimizer only consults the flag when both hold, so a
            // neutral-but-order-sensitive claim would be dead code
            assert!(
                session.order_independent(),
                "{}: cancellation_neutral without order_independent",
                entry.name()
            );
            neutral.push(entry.name());
        }
    }
    assert_eq!(
        sensitive,
        vec!["XPath Accelerator", "XRel", "QRS", "Prime"],
        "order-sensitive schemes"
    );
    assert_eq!(independent.len(), 13, "order-independent schemes");
    // Sector (interval respacing), DeweyID and DLN (sibling renumber on
    // tight inserts) are order-independent but NOT cancellation-neutral:
    // their insert path can rewrite surviving neighbours, so a cancelled
    // create+delete leaves observable residue.
    assert_eq!(
        neutral,
        vec![
            "Ordpath",
            "LSDX",
            "ImprovedBinary",
            "QED",
            "CDQS",
            "Vector",
            "CDBS",
            "Com-D",
            "DDE",
            "QED∘Containment",
        ],
        "cancellation-neutral schemes"
    );
}
