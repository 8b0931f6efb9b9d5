//! Property tests for the mutation-log validator, on the hermetic
//! `xupd-testkit` harness (shrinking, seed-replayable).
//!
//! The corruption properties start from a *well-formed* log (a script
//! translated by `batch_of`), break it in one specific way — dangling
//! `NodeId`, duplicate create, write-after-delete — and assert that
//! validation rejects it with exactly the right [`TreeError`] variant
//! and that atomic application leaves the tree and labelling untouched.
//! The arbitrary-log property throws random (mostly ill-formed) logs of
//! every mutation shape at a tree with text and attribute nodes: a log
//! the validator accepts must apply and leave a well-formed, fully
//! labelled document with one root element, only comments and PIs
//! beside it and only elements as other parents, and a log it rejects
//! must fail to apply with the same error and change nothing.

use xupd_framework::mutations::{
    apply_log, batch_of, validate, LogId, Mutation, MutationLog, NodeRef, Place,
};
use xupd_labelcore::{DynScheme, LabelingScheme, SessionMut};
use xupd_schemes::prefix::qed::Qed;
use xupd_testkit::prop::{from_slice, ints, map, vecs, Config, Gen};
use xupd_testkit::{prop_assert, prop_assert_eq, prop_assume, props};
use xupd_workloads::{docs, Script, ScriptKind};
use xupd_xmldom::{serialize_compact, NodeId, NodeKind, TreeError, XmlTree};

// ---------- generators ----------------------------------------------

const KINDS: [ScriptKind; 4] = [
    ScriptKind::Random,
    ScriptKind::Skewed,
    ScriptKind::MixedDelete,
    ScriptKind::AppendOnly,
];

/// A base document and a well-formed log over it.
fn well_formed(kind: ScriptKind, ops: usize, seed: u64) -> (XmlTree, MutationLog) {
    let tree = docs::random_tree(seed, 50);
    let script = Script::generate(kind, ops, 50, seed ^ 0xA5A5);
    let log = batch_of(&script, &tree).expect("driver scripts translate");
    (tree, log)
}

/// Tag alphabet of the arbitrary-log property's documents.
const TAGS: [&str; 3] = ["a", "b", "c"];

/// A pre-existing node three times in four (an id past the tree's
/// arena is dangling), else one of the log's four create ids.
fn arb_ref() -> impl Gen<Value = NodeRef> {
    map((ints(0u32..64), ints(0u32..4)), |(v, tag)| {
        if tag < 3 {
            NodeRef::Node(NodeId::from_index(v as usize))
        } else {
            NodeRef::New(LogId(v % 4))
        }
    })
}

fn arb_place() -> impl Gen<Value = Place> {
    map((arb_ref(), ints(0u32..4)), |(r, tag)| match tag {
        0 => Place::FirstChildOf(r),
        1 => Place::LastChildOf(r),
        2 => Place::Before(r),
        _ => Place::After(r),
    })
}

fn arb_kind() -> impl Gen<Value = NodeKind> {
    map(
        (ints(0u32..6), vecs(from_slice(&['a', 'b', 'ß', '中']), 0, 6)),
        |(tag, chars)| {
            let s: String = chars.into_iter().collect();
            match tag {
                0 => NodeKind::Document,
                1 => NodeKind::element(format!("e{s}")),
                2 => NodeKind::Attribute {
                    name: format!("a{s}"),
                    value: s.clone(),
                },
                3 => NodeKind::Text { value: s },
                4 => NodeKind::Comment { value: s },
                _ => NodeKind::Pi {
                    target: format!("p{s}"),
                    data: s.clone(),
                },
            }
        },
    )
}

/// One arbitrary mutation of any of the seven variants, well-formedness
/// not required; create ids are drawn from `0..4`.
fn arb_mutation() -> impl Gen<Value = Mutation> {
    map(
        (
            ints(0u32..7),
            (arb_ref(), arb_place(), arb_kind()),
            (ints(0u32..4), vecs(ints(0u32..4), 0, 5)),
            vecs(from_slice(&['x', 'y', 'µ']), 0, 5),
        ),
        |(tag, (r, place, kind), (id, ids), chars)| {
            let name: String = chars.into_iter().collect();
            match tag {
                0 => Mutation::CreateElement {
                    id: LogId(id),
                    name,
                    place,
                },
                1 => Mutation::CreateNode {
                    id: LogId(id),
                    kind,
                    place,
                },
                2 => Mutation::SetText {
                    target: r,
                    text: name,
                },
                3 => Mutation::Replace {
                    target: r,
                    id: LogId(id),
                    name,
                },
                4 => Mutation::Delete { target: r },
                5 => Mutation::AppendChildren {
                    parent: r,
                    ids: ids.into_iter().map(LogId).collect(),
                    name,
                },
                _ => Mutation::MoveSubtree { target: r, place },
            }
        },
    )
}

// ---------- the reject-and-leave-untouched helper -------------------

/// Assert `log` is rejected with `expect_err` and that atomic
/// application changes nothing: same tree bytes, same labels.
fn assert_rejected(
    tree: &XmlTree,
    log: &MutationLog,
    check: impl Fn(&TreeError) -> bool,
) -> Result<(), String> {
    let err = match validate(log, tree) {
        Err(e) => e,
        Ok(()) => return Err("validator accepted a corrupted log".to_string()),
    };
    if !check(&err) {
        return Err(format!("wrong rejection variant: {err:?}"));
    }

    let mut applied = tree.clone();
    let mut scheme = Qed::new();
    let mut labeling = scheme.label_tree(&applied).expect("labelable");
    let before_tree = serialize_compact(&applied);
    let before_len = labeling.len();
    let apply_err = match apply_log(&mut applied, &mut scheme, &mut labeling, log) {
        Err(e) => e,
        Ok(_) => return Err("apply_log accepted a corrupted log".to_string()),
    };
    if apply_err != err {
        return Err(format!("validate/apply disagree: {err:?} vs {apply_err:?}"));
    }
    if serialize_compact(&applied) != before_tree {
        return Err("tree changed under a rejected batch".to_string());
    }
    if labeling.len() != before_len {
        return Err("labeling changed under a rejected batch".to_string());
    }
    Ok(())
}

props! {
    config = Config::with_cases(96);

    /// Retargeting any mutation at an out-of-arena `NodeId` is rejected
    /// as dangling, without touching the tree.
    fn dangling_node_id_is_rejected(
        kind in from_slice(&KINDS),
        ops in ints(1usize..40),
        seed in ints(0u64..1000),
        pick in ints(0usize..4096),
    ) {
        let (tree, log) = well_formed(kind, ops, seed);
        prop_assume!(!log.is_empty());
        let dead = NodeId::from_index(tree.id_bound() + 1 + pick % 37);
        let at = pick % log.len();
        let mut ops_vec: Vec<Mutation> = log.iter().cloned().collect();
        ops_vec[at] = match ops_vec[at].clone() {
            Mutation::CreateElement { id, name, .. } => Mutation::CreateElement {
                id, name, place: Place::LastChildOf(NodeRef::Node(dead)),
            },
            Mutation::Delete { .. } => Mutation::Delete { target: NodeRef::Node(dead) },
            other => {
                // scripts only emit creates and deletes; anything else
                // means the translation changed under us
                return xupd_testkit::prop::Outcome::Fail(format!("unexpected op {other:?}"));
            }
        };
        let corrupted = MutationLog::from(ops_vec);
        let outcome = assert_rejected(&tree, &corrupted, |e| *e == TreeError::DanglingNodeId(dead));
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    /// Re-using an already-created `LogId` is rejected as a duplicate
    /// create, without touching the tree.
    fn duplicate_create_is_rejected(
        kind in from_slice(&KINDS),
        ops in ints(1usize..40),
        seed in ints(1000u64..2000),
    ) {
        let (tree, log) = well_formed(kind, ops, seed);
        let first_create = log.iter().find_map(|m| match m {
            Mutation::CreateElement { id, .. } => Some(*id),
            _ => None,
        });
        prop_assume!(first_create.is_some());
        let dup = first_create.expect("checked");
        let root = tree.document_element().expect("non-empty");
        let mut ops_vec: Vec<Mutation> = log.iter().cloned().collect();
        ops_vec.push(Mutation::CreateElement {
            id: dup,
            name: "dup".into(),
            place: Place::LastChildOf(NodeRef::Node(root)),
        });
        let corrupted = MutationLog::from(ops_vec);
        let outcome = assert_rejected(&tree, &corrupted, |e| *e == TreeError::DuplicateCreate(dup.0));
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    /// Writing at (or under) a node the batch already deleted is
    /// rejected as a conflicting write, without touching the tree.
    fn write_after_delete_is_rejected(
        kind in from_slice(&KINDS),
        ops in ints(1usize..40),
        seed in ints(2000u64..3000),
        fresh in ints(900u32..1000),
    ) {
        let (tree, log) = well_formed(kind, ops, seed);
        let deleted = log.iter().find_map(|m| match m {
            Mutation::Delete { target: NodeRef::Node(n) } => Some(*n),
            _ => None,
        });
        prop_assume!(deleted.is_some());
        let victim = deleted.expect("checked");
        let mut ops_vec: Vec<Mutation> = log.iter().cloned().collect();
        ops_vec.push(Mutation::CreateElement {
            id: LogId(fresh),
            name: "late".into(),
            place: Place::LastChildOf(NodeRef::Node(victim)),
        });
        let corrupted = MutationLog::from(ops_vec);
        let outcome = assert_rejected(&tree, &corrupted, |e| *e == TreeError::ConflictingWrite(victim));
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }

    /// Well-formed driver translations always validate cleanly.
    fn driver_translations_validate(
        kind in from_slice(&KINDS),
        ops in ints(0usize..60),
        seed in ints(3000u64..4000),
    ) {
        let (tree, log) = well_formed(kind, ops, seed);
        prop_assert!(validate(&log, &tree).is_ok());
    }
}

props! {
    config = Config::with_cases(4096);

    /// Any log either validates and then applies to a well-formed,
    /// fully labelled document with one root element, only comments
    /// and PIs beside it and every other node under an element — the
    /// structural half of a document the parser can read back; names
    /// and attribute uniqueness are not checked — or is rejected by
    /// `apply_log` with the validator's error, leaving tree bytes and
    /// labels as they were.
    fn arbitrary_logs_apply_or_change_nothing(
        seed in ints(0u64..1000),
        log_ops in vecs(arb_mutation(), 1, 8),
    ) {
        let mut tree = docs::random_tagged_tree(seed, 40, &TAGS);
        let log = MutationLog::from(log_ops);
        let mut scheme = Qed::new();
        let mut labeling = scheme.label_tree(&tree).expect("labelable");
        let before_tree = serialize_compact(&tree);
        let before_labels = SessionMut::new(&mut scheme, &mut labeling).labels_display();
        let verdict = validate(&log, &tree);
        let applied = apply_log(&mut tree, &mut scheme, &mut labeling, &log);
        match verdict {
            Ok(()) => {
                prop_assert!(applied.is_ok(), "validated log failed: {applied:?}");
                prop_assert!(tree.validate().is_ok(), "{:?}", tree.validate());
                for n in tree.preorder() {
                    prop_assert!(labeling.get(n).is_some(), "{n} is unlabelled");
                    let Some(p) = tree.parent(n) else { continue };
                    let (kind, parent) = (tree.kind(n), tree.kind(p));
                    if p == tree.root() {
                        prop_assert!(
                            matches!(
                                kind,
                                NodeKind::Element { .. } | NodeKind::Comment { .. } | NodeKind::Pi { .. }
                            ),
                            "{kind:?} at the document level"
                        );
                    } else {
                        prop_assert!(parent.is_element(), "{n} sits under {parent:?}");
                    }
                }
                let root_elements = tree
                    .children(tree.root())
                    .filter(|&c| tree.kind(c).is_element())
                    .count();
                prop_assert_eq!(root_elements, 1, "one root element");
            }
            Err(e) => {
                prop_assert_eq!(applied.err(), Some(e));
                prop_assert_eq!(serialize_compact(&tree), before_tree);
                prop_assert_eq!(
                    SessionMut::new(&mut scheme, &mut labeling).labels_display(),
                    before_labels
                );
            }
        }
    }
}
