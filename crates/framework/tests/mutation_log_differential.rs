//! Differential battery for the mutation-log batch API.
//!
//! For every registry scheme × several random scripts, the whole script
//! is translated into **one** [`MutationLog`] on the live tree
//! (`batch_of_in_place`, the store's compile path) and applied
//! atomically (`apply_log_dyn`); the result must be indistinguishable
//! from the per-op `run_script_dyn` driver: identical final tree bytes,
//! identical label renderings, identical `DriveStats` totals. Schemes
//! are independent, so the battery fans out per scheme on the
//! `xupd-exec` pool and is `XUPD_THREADS`-invariant.
//!
//! `peak_label_bits` is deliberately excluded from the comparison: the
//! per-op driver checkpoints it every 25 *script ops* while the batch
//! driver checkpoints every 25 *mutations*, and one op can expand to
//! zero (skipped delete) or three (zigzag init) mutations. Every
//! monotonic total — inserts, deletes, relabeled, overflow_events, end
//! sizes — must still agree exactly.

use xupd_framework::driver::{run_script_dyn, DriveStats};
use xupd_framework::mutations::{apply_log_dyn, batch_of_in_place};
use xupd_schemes::{registry, SchemeEntry};
use xupd_workloads::{docs, Script, ScriptKind};
use xupd_xmldom::serialize_compact;

/// The stats fields both drivers must agree on (everything but peak).
#[derive(Debug, PartialEq)]
struct Totals {
    inserts: usize,
    deletes: usize,
    relabeled: u64,
    overflow_events: u64,
    end_mean_bits: f64,
    end_max_bits: u64,
}

impl From<DriveStats> for Totals {
    fn from(s: DriveStats) -> Self {
        Totals {
            inserts: s.inserts,
            deletes: s.deletes,
            relabeled: s.relabeled,
            overflow_events: s.overflow_events,
            end_mean_bits: s.end_mean_bits,
            end_max_bits: s.end_max_bits,
        }
    }
}

#[derive(Debug, PartialEq)]
struct Outcome {
    totals: Totals,
    labels: Vec<(usize, String)>,
    tree: String,
}

fn run_per_op(entry: &SchemeEntry, script: &Script, seed: u64, nodes: usize) -> Outcome {
    let mut session = entry.session();
    let mut tree = docs::random_tree(seed, nodes);
    session.label_tree(&tree).unwrap();
    let stats = run_script_dyn(&mut tree, session.as_mut(), script).unwrap();
    Outcome {
        totals: stats.into(),
        labels: session.labels_display(),
        tree: serialize_compact(&tree),
    }
}

fn run_batched(entry: &SchemeEntry, script: &Script, seed: u64, nodes: usize) -> Outcome {
    let mut session = entry.session();
    let mut tree = docs::random_tree(seed, nodes);
    session.label_tree(&tree).unwrap();
    let log = batch_of_in_place(script, &mut tree).unwrap();
    let stats = apply_log_dyn(&mut tree, session.as_mut(), &log).unwrap();
    Outcome {
        totals: stats.into(),
        labels: session.labels_display(),
        tree: serialize_compact(&tree),
    }
}

fn diff_scripts(kind: ScriptKind, ops: usize, seed: u64) {
    let nodes = 90;
    let script = Script::generate(kind, ops, nodes, seed);
    let entries = registry();
    let outcomes = xupd_exec::par_map(&entries, |entry| {
        (
            entry.name(),
            run_batched(entry, &script, seed, nodes),
            run_per_op(entry, &script, seed, nodes),
        )
    });

    assert_eq!(outcomes.len(), 17, "whole roster covered");
    for (name, batched, per_op) in &outcomes {
        assert_eq!(
            batched.totals, per_op.totals,
            "{name}: drive totals diverged under {kind:?}"
        );
        assert_eq!(
            batched.labels, per_op.labels,
            "{name}: final labeling diverged under {kind:?}"
        );
        assert_eq!(
            batched.tree, per_op.tree,
            "{name}: final tree diverged under {kind:?}"
        );
    }
}

#[test]
fn batched_matches_per_op_random() {
    diff_scripts(ScriptKind::Random, 70, 101);
    diff_scripts(ScriptKind::Random, 70, 102);
}

#[test]
fn batched_matches_per_op_skewed() {
    diff_scripts(ScriptKind::Skewed, 60, 111);
}

#[test]
fn batched_matches_per_op_mixed_delete() {
    diff_scripts(ScriptKind::MixedDelete, 90, 121);
    diff_scripts(ScriptKind::MixedDelete, 90, 122);
}

#[test]
fn batched_matches_per_op_zigzag() {
    diff_scripts(ScriptKind::Zigzag, 60, 131);
}

#[test]
fn batched_matches_per_op_append_only() {
    diff_scripts(ScriptKind::AppendOnly, 50, 141);
}
