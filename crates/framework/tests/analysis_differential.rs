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
//! Last, the analyzer's whole output (plans and errors) on a fixed
//! battery of script translations and random logs is pinned to one
//! digest.

use std::collections::BTreeMap;

use xupd_encoding::PreorderIndex;
use xupd_framework::analysis::{
    analyze, analyze_in, apply_plan_with_dyn, AnalyzedPlan, ApplyOptions,
};
use xupd_framework::driver::DriveStats;
use xupd_framework::mutations::{
    apply_log_dyn, batch_of, LogId, Mutation, MutationLog, NodeRef, Place,
};
use xupd_labelcore::DynScheme;
use xupd_schemes::registry;
use xupd_testkit::TestRng;
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

// ---------------------------------------------------------------------
// Cancelled creates: a nil component must leave no residue under a
// `cancellation_neutral` claim, even when its creates overflow a code.
// ---------------------------------------------------------------------

/// `k` `CreateElement`s between `a` and `b`, then a `Delete` of each:
/// create `i` goes right after the current left node, which starts at
/// `a` and becomes the new node after every even `i`, so the creates
/// zigzag into ever tighter gaps and one nil component holds them all.
fn zigzag_log(a: NodeId, k: u32) -> MutationLog {
    let mut left = NodeRef::Node(a);
    let mut ops = Vec::new();
    for i in 0..k {
        ops.push(Mutation::CreateElement {
            id: LogId(i),
            name: "n".into(),
            place: Place::After(left),
        });
        if i % 2 == 0 {
            left = NodeRef::New(LogId(i));
        }
    }
    ops.extend((0..k).map(|i| Mutation::Delete {
        target: NodeRef::New(LogId(i)),
    }));
    MutationLog::from(ops)
}

/// Apply `log` to a copy of `base` labelled by `session`: the bytes and
/// document-order labels, or `None` when the apply fails.
fn bytes_and_labels(
    mut session: Box<dyn DynScheme>,
    base: &XmlTree,
    log: &MutationLog,
    plan: Option<&AnalyzedPlan>,
) -> Option<(String, Vec<String>)> {
    let mut tree = base.clone();
    session.label_tree(&tree).ok()?;
    match plan {
        None => apply_log_dyn(&mut tree, session.as_mut(), log).ok()?,
        Some(plan) => apply_plan_with_dyn(
            &mut tree,
            session.as_mut(),
            log,
            plan,
            ApplyOptions::coalesced(),
        )
        .ok()?,
    };
    Some((
        serialize_compact(&tree),
        doc_order_labels(&tree, session.as_ref()),
    ))
}

#[test]
fn cancelled_zigzag_creates_leave_no_residue() {
    // Coalescing skips the nil component only for a scheme that claims
    // `cancellation_neutral`; every scheme, and its overflow-audit
    // instance where it has one, must then end where sequential apply
    // does. A claim made by an algebra whose insert can renumber the
    // siblings on overflow fails here once the zigzag reaches it.
    let base = parse("<r><a/><b/></r>").unwrap();
    let a = elems(&base, "a")[0];
    let entries = registry();
    assert_eq!(entries.len(), 17);
    let (mut compared, mut differ) = (0, Vec::new());
    for k in [40, 91, 120, 200] {
        let log = zigzag_log(a, k);
        let plan = analyze(&log, &base).unwrap();
        assert_eq!(plan.nil_components.len(), 1, "k = {k}: one nil component");
        let outcomes = xupd_exec::par_map(&entries, |entry| {
            let mut out = Vec::new();
            for audit in [false, true] {
                let session = || {
                    let s = (entry.factory)();
                    if audit {
                        s.overflow_audit_instance()
                    } else {
                        Some(s)
                    }
                };
                let (Some(seq_s), Some(co_s)) = (session(), session()) else {
                    continue;
                };
                let seq = bytes_and_labels(seq_s, &base, &log, None);
                let co = bytes_and_labels(co_s, &base, &log, Some(&plan));
                if let (Some(seq), Some(co)) = (seq, co) {
                    let audit = if audit { " (audit)" } else { "" };
                    out.push((format!("k = {k}, {}{audit}", entry.name()), seq == co));
                }
            }
            out
        });
        for (ctx, same) in outcomes.into_iter().flatten() {
            compared += 1;
            if !same {
                differ.push(ctx);
            }
        }
    }
    assert!(compared >= 4 * 17, "only {compared} pairs compared");
    assert!(
        differ.is_empty(),
        "coalesced bytes or labels differ from sequential: {differ:#?}"
    );
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
    // tight inserts), and Vector, CDBS and DDE (sibling renumber when a
    // code overflows) are order-independent but NOT cancellation-neutral:
    // their insert path can rewrite surviving neighbours, so a cancelled
    // create+delete leaves observable residue
    // (`cancelled_zigzag_creates_leave_no_residue` shows it for the
    // last three).
    assert_eq!(
        neutral,
        vec![
            "Ordpath",
            "LSDX",
            "ImprovedBinary",
            "QED",
            "CDQS",
            "Com-D",
            "QED∘Containment",
        ],
        "cancellation-neutral schemes"
    );
}

// ---------------------------------------------------------------------
// The analyzer's output, pinned across a battery of accepted and
// rejected logs.
// ---------------------------------------------------------------------

/// One random log over `tree`: element and text creates, text writes on
/// pre-batch and batch-made text (sometimes of the value the node
/// already holds), deletes, replaces and moves, each aimed at a
/// pre-batch node or a node the log made earlier. Most targets are
/// elements; one in ten pre-batch picks is any node, the document node
/// included, so the log is often rejected.
fn random_log(tree: &XmlTree, rng: &mut TestRng) -> MutationLog {
    let order = tree.ids_in_doc_order();
    let of_kind = |pred: fn(&NodeKind) -> bool| -> Vec<NodeId> {
        order
            .iter()
            .copied()
            .filter(|&n| pred(tree.kind(n)))
            .collect()
    };
    let (elements, texts) = (of_kind(NodeKind::is_element), of_kind(NodeKind::is_text));
    // batch-made elements and text nodes
    let (mut made, mut made_texts): (Vec<LogId>, Vec<LogId>) = (Vec::new(), Vec::new());
    let mut ops = Vec::new();
    for next in 0..rng.gen_range(1..10u32) {
        let pick = |rng: &mut TestRng, made: &[LogId]| {
            if !made.is_empty() && rng.gen_bool(0.4) {
                NodeRef::New(made[rng.gen_range(0..made.len())])
            } else if rng.gen_bool(0.9) {
                NodeRef::Node(elements[rng.gen_range(0..elements.len())])
            } else {
                NodeRef::Node(order[rng.gen_range(0..order.len())])
            }
        };
        let place = |rng: &mut TestRng, made: &[LogId]| {
            let at = pick(rng, made);
            match rng.gen_range(0..4u32) {
                0 => Place::FirstChildOf(at),
                1 => Place::LastChildOf(at),
                2 => Place::Before(at),
                _ => Place::After(at),
            }
        };
        let id = LogId(next);
        let name = ["p", "q", "item"][rng.gen_range(0..3usize)].to_string();
        let op = match rng.gen_range(0..8u32) {
            0 | 1 => {
                made.push(id);
                Mutation::CreateElement {
                    id,
                    name,
                    place: place(rng, &made[..made.len() - 1]),
                }
            }
            2 => {
                made_texts.push(id);
                Mutation::CreateNode {
                    id,
                    kind: NodeKind::text(format!("t{next}")),
                    place: place(rng, &made),
                }
            }
            3 if !made_texts.is_empty() && rng.gen_bool(0.5) => Mutation::SetText {
                target: NodeRef::New(made_texts[rng.gen_range(0..made_texts.len())]),
                text: format!("w{next}"),
            },
            3 if !texts.is_empty() => {
                let t = texts[rng.gen_range(0..texts.len())];
                let text = match tree.kind(t) {
                    NodeKind::Text { value } if rng.gen_bool(0.3) => value.clone(),
                    _ => format!("w{next}"),
                };
                Mutation::SetText {
                    target: NodeRef::Node(t),
                    text,
                }
            }
            4 | 5 => Mutation::Delete {
                target: pick(rng, &made),
            },
            6 => {
                let target = pick(rng, &made);
                made.push(id);
                Mutation::Replace { target, id, name }
            }
            _ => Mutation::MoveSubtree {
                target: pick(rng, &made),
                place: place(rng, &made),
            },
        };
        ops.push(op);
    }
    MutationLog::from(ops)
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Every plan and every error `analyze_in` returns on a fixed battery
/// hashes to one pinned digest: for seeds 0..12, on an XMark-like, a
/// random and the book document, each script kind's 40-op translation
/// and 400 random logs (`random_log`). The digest covers the `Debug`
/// form of the whole result (footprints, edges, components, canonical
/// order, redundant writes, nil components, or the error), so a change
/// to how the analyzer walks a log that moves any of them fails here.
#[test]
fn analysis_output_is_pinned_across_the_battery() {
    let (mut digest, mut accepted, mut rejected) = (0xcbf2_9ce4_8422_2325u64, 0, 0);
    let (mut edges, mut nil) = (0, 0);
    for seed in 0..12u64 {
        let trees = [
            docs::xmark_like(seed, 60),
            docs::random_tree(seed, 200),
            docs::book(),
        ];
        for (t, tree) in trees.iter().enumerate() {
            let index = PreorderIndex::encode(tree).unwrap();
            let elements = tree
                .preorder()
                .filter(|&n| tree.kind(n).is_element())
                .count();
            let mut logs: Vec<MutationLog> = ScriptKind::ALL
                .into_iter()
                .map(|kind| {
                    let script = Script::generate(kind, 40, elements, seed);
                    batch_of(&script, tree).unwrap()
                })
                .collect();
            let mut rng = TestRng::seed_from_u64(seed * 3 + t as u64);
            logs.extend((0..400).map(|_| random_log(tree, &mut rng)));
            for log in &logs {
                let result = analyze_in(log, tree, &index);
                match &result {
                    Ok(plan) => {
                        accepted += 1;
                        edges += plan.edges.len();
                        nil += plan.nil_components.len();
                    }
                    Err(_) => rejected += 1,
                }
                digest = fnv1a(digest, format!("{result:?}").as_bytes());
            }
        }
    }
    assert_eq!(
        (accepted, rejected, edges, nil),
        (9189, 5463, 173076, 408),
        "battery shape"
    );
    assert_eq!(format!("{digest:016x}"), "3ecbde4a826a1b1b", "plan digest");
}
