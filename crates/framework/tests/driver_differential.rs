//! Differential regression test for the script walker.
//!
//! The library resolves script ops in one walker, which keeps the
//! live-element pool incrementally across ops and runs in two modes:
//! with a labelling session as the per-op driver (`run_script_dyn`),
//! and with none as the script translation (`batch_of_in_place`), whose
//! log `apply_log_dyn` then applies as one batch. This test replays the
//! same scripts through a reference driver that recomputes the pool
//! with a full preorder scan before every op and edits the tree
//! directly (the pre-optimisation behaviour, kept here as the
//! executable specification of the op-addressing semantics). Both
//! walker modes must end with the reference's tree bytes and final
//! labels, for all 17 roster schemes. The per-op run must also match
//! its [`DriveStats`] exactly; the batched run matches every total but
//! `peak_label_bits`, which a batch checkpoints every 25 mutations, not
//! every 25 script ops (see `mutation_log_differential`). Since both
//! modes share the walker, comparing them with each other cannot catch
//! an addressing bug; only this reference can. Schemes are independent,
//! so the battery fans out per scheme on the `xupd-exec` pool.

use xupd_framework::driver::{run_script_dyn, DriveStats};
use xupd_framework::mutations::{apply_log_dyn, batch_of_in_place};
use xupd_labelcore::DynScheme;
use xupd_schemes::{registry, SchemeEntry};
use xupd_workloads::{docs, Script, ScriptOp};
use xupd_xmldom::{serialize_compact, NodeId, NodeKind, TreeError, XmlTree};

/// The pre-optimisation driver: element pool rebuilt from scratch before
/// every op. Semantics must match `run_script_dyn` exactly.
fn run_script_reference(
    tree: &mut XmlTree,
    session: &mut dyn DynScheme,
    script: &Script,
) -> Result<DriveStats, TreeError> {
    const CHECKPOINT_EVERY: usize = 25;
    let mut stats = DriveStats::default();
    let mut zig: Option<(NodeId, NodeId)> = None;
    let mut zig_step = 0usize;

    let apply_insert = |tree: &XmlTree,
                        session: &mut dyn DynScheme,
                        node: NodeId,
                        stats: &mut DriveStats|
     -> Result<(), TreeError> {
        let report = session.on_insert(tree, node)?;
        stats.inserts += 1;
        stats.relabeled += report.relabeled.len() as u64;
        if report.overflowed {
            stats.overflow_events += 1;
        }
        Ok(())
    };

    for (op_idx, op) in script.ops.iter().enumerate() {
        let pool: Vec<NodeId> = tree
            // lint:allow(R6): the reference per-op-rebuild driver the incremental pool is differentially tested against
            .preorder()
            .filter(|&n| tree.kind(n).is_element())
            .collect();
        if pool.is_empty() {
            break;
        }
        let resolve = |i: usize| pool[i % pool.len()];
        match *op {
            ScriptOp::InsertBefore(i) => {
                let target = resolve(i);
                let node = tree.create(NodeKind::element("u"));
                if tree.parent(target) == Some(tree.root()) || tree.parent(target).is_none() {
                    // lint:allow(R8): the reference per-op driver the MutationLog batch path is differentially tested against
                    tree.prepend_child(target, node)?;
                } else {
                    // lint:allow(R8): the reference per-op driver the MutationLog batch path is differentially tested against
                    tree.insert_before(target, node)?;
                }
                apply_insert(tree, session, node, &mut stats)?;
            }
            ScriptOp::InsertAfter(i) if i == usize::MAX => {
                let (a, b) = match zig {
                    Some((a, b))
                        if tree.is_alive(a)
                            && tree.is_alive(b)
                            && tree.next_sibling(a) == Some(b) =>
                    {
                        (a, b)
                    }
                    _ => {
                        let base = resolve(pool.len() / 2);
                        let c1 = tree.create(NodeKind::element("u"));
                        // lint:allow(R8): the reference per-op driver the MutationLog batch path is differentially tested against
                        tree.append_child(base, c1)?;
                        apply_insert(tree, session, c1, &mut stats)?;
                        let c2 = tree.create(NodeKind::element("u"));
                        // lint:allow(R8): the reference per-op driver the MutationLog batch path is differentially tested against
                        tree.append_child(base, c2)?;
                        apply_insert(tree, session, c2, &mut stats)?;
                        (c1, c2)
                    }
                };
                let node = tree.create(NodeKind::element("u"));
                // lint:allow(R8): the reference per-op driver the MutationLog batch path is differentially tested against
                tree.insert_after(a, node)?;
                apply_insert(tree, session, node, &mut stats)?;
                zig = Some(if zig_step.is_multiple_of(2) {
                    (a, node)
                } else {
                    (node, b)
                });
                zig_step += 1;
            }
            ScriptOp::InsertAfter(i) => {
                let target = resolve(i);
                let node = tree.create(NodeKind::element("u"));
                if tree.parent(target) == Some(tree.root()) || tree.parent(target).is_none() {
                    // lint:allow(R8): the reference per-op driver the MutationLog batch path is differentially tested against
                    tree.append_child(target, node)?;
                } else {
                    // lint:allow(R8): the reference per-op driver the MutationLog batch path is differentially tested against
                    tree.insert_after(target, node)?;
                }
                apply_insert(tree, session, node, &mut stats)?;
            }
            ScriptOp::PrependChild(i) => {
                let target = resolve(i);
                let node = tree.create(NodeKind::element("u"));
                // lint:allow(R8): the reference per-op driver the MutationLog batch path is differentially tested against
                tree.prepend_child(target, node)?;
                apply_insert(tree, session, node, &mut stats)?;
            }
            ScriptOp::AppendChild(i) => {
                let target = resolve(i);
                let node = tree.create(NodeKind::element("u"));
                // lint:allow(R8): the reference per-op driver the MutationLog batch path is differentially tested against
                tree.append_child(target, node)?;
                apply_insert(tree, session, node, &mut stats)?;
            }
            ScriptOp::DeleteSubtree(i) => {
                let target = resolve(i);
                if Some(target) == tree.document_element() || pool.len() <= 2 {
                    continue;
                }
                session.on_delete(tree, target);
                // lint:allow(R8): the reference per-op driver the MutationLog batch path is differentially tested against
                tree.remove_subtree(target)?;
                stats.deletes += 1;
            }
        }
        if op_idx % CHECKPOINT_EVERY == 0 {
            stats.peak_label_bits = stats.peak_label_bits.max(session.max_bits());
        }
    }
    stats.peak_label_bits = stats.peak_label_bits.max(session.max_bits());
    stats.end_mean_bits = session.mean_bits();
    stats.end_max_bits = session.max_bits();
    Ok(stats)
}

/// How a run replays the script.
#[derive(Debug, Clone, Copy)]
enum Mode {
    /// [`run_script_reference`], the executable specification.
    Reference,
    /// The walker with a session: `run_script_dyn`.
    PerOp,
    /// The walker with none, `batch_of_in_place`, then `apply_log_dyn`.
    Batched,
}

/// One run's observable outcome: the drive evidence, every final label
/// rendered to its display form, and the final tree bytes.
#[derive(Debug)]
struct Outcome {
    stats: DriveStats,
    labels: Vec<(usize, String)>,
    tree: String,
}

fn run_one(entry: &SchemeEntry, script: &Script, seed: u64, nodes: usize, mode: Mode) -> Outcome {
    let mut session = entry.session();
    let mut tree = docs::random_tree(seed, nodes);
    session.label_tree(&tree).unwrap();
    let stats = match mode {
        Mode::Reference => run_script_reference(&mut tree, session.as_mut(), script),
        Mode::PerOp => run_script_dyn(&mut tree, session.as_mut(), script),
        Mode::Batched => batch_of_in_place(script, &mut tree)
            .and_then(|log| apply_log_dyn(&mut tree, session.as_mut(), &log)),
    }
    .unwrap_or_else(|e| panic!("{}: {mode:?} run failed: {e}", entry.name()));
    Outcome {
        stats,
        labels: session.labels_display(),
        tree: serialize_compact(&tree),
    }
}

fn diff_scripts(kind: xupd_workloads::ScriptKind, ops: usize, seed: u64) {
    let nodes = 110;
    let script = Script::generate(kind, ops, nodes, seed);
    let entries = registry();
    let outcomes = xupd_exec::par_map(&entries, |entry| {
        let run = |mode| run_one(entry, &script, seed, nodes, mode);
        (
            entry.name(),
            run(Mode::Reference),
            run(Mode::PerOp),
            run(Mode::Batched),
        )
    });

    assert_eq!(outcomes.len(), 17);
    let peakless = |s: &DriveStats| DriveStats {
        peak_label_bits: 0,
        ..s.clone()
    };
    for (name, reference, per_op, batched) in &outcomes {
        for (mode, outcome) in [(Mode::PerOp, per_op), (Mode::Batched, batched)] {
            assert_eq!(
                outcome.tree, reference.tree,
                "{name}: {mode:?} tree diverged under {kind:?}"
            );
            assert_eq!(
                outcome.labels, reference.labels,
                "{name}: {mode:?} final labeling diverged under {kind:?}"
            );
        }
        assert_eq!(
            per_op.stats, reference.stats,
            "{name}: per-op drive stats diverged under {kind:?}"
        );
        assert_eq!(
            peakless(&batched.stats),
            peakless(&reference.stats),
            "{name}: batched drive stats diverged under {kind:?}"
        );
    }
}

#[test]
fn incremental_pool_matches_per_op_rebuild_random() {
    diff_scripts(xupd_workloads::ScriptKind::Random, 60, 11);
    diff_scripts(xupd_workloads::ScriptKind::Random, 60, 12);
}

#[test]
fn incremental_pool_matches_per_op_rebuild_skewed() {
    diff_scripts(xupd_workloads::ScriptKind::Skewed, 60, 21);
}

#[test]
fn incremental_pool_matches_per_op_rebuild_mixed_delete() {
    diff_scripts(xupd_workloads::ScriptKind::MixedDelete, 80, 31);
    diff_scripts(xupd_workloads::ScriptKind::MixedDelete, 80, 32);
}

#[test]
fn incremental_pool_matches_per_op_rebuild_zigzag() {
    diff_scripts(xupd_workloads::ScriptKind::Zigzag, 60, 41);
}
