//! Atomicity fault-injection battery for both batch entry points,
//! `apply_log_dyn` and `apply_plan_with_dyn`.
//!
//! A [`FaultAfter`] session wrapper forwards every `DynScheme` call to a
//! real registry session but makes the k-th `on_insert` fail — by
//! returning `Err`, or by panicking. Applying a batch through it must
//! leave the tree (its bytes and its revision) and the labelling
//! identical to their pre-batch state — for every scheme in the roster
//! and several fault positions, including k = 0 (the very first insert
//! fails). A panic must still reach the caller, after the rollback.
//! After the rollback the restored session must still be fully usable:
//! re-applying the same batch with the fault disarmed — through the
//! same plan, which the restored revision must still accept — has to
//! match a control session that never faulted and applied the batch
//! the same way.

use std::any::Any;
use std::cmp::Ordering;
use std::panic::{catch_unwind, AssertUnwindSafe};

use xupd_framework::analysis::{analyze, apply_plan_with_dyn, AnalyzedPlan, ApplyOptions};
use xupd_framework::driver::DriveStats;
use xupd_framework::mutations::{apply_log_dyn, batch_of, Mutation, MutationLog};
use xupd_labelcore::{DynScheme, InsertReport, Relation, SchemeDescriptor, SchemeStats};
use xupd_schemes::registry;
use xupd_workloads::{docs, Script, ScriptKind};
use xupd_xmldom::{serialize_compact, NodeId, TreeError, XmlTree};

/// How the injected fault surfaces from `on_insert`.
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// Return `Err(TreeError::Invariant)`.
    Error,
    /// Panic.
    Panic,
}

/// Forwarding wrapper that fails the (`budget`+1)-th `on_insert`.
struct FaultAfter {
    inner: Box<dyn DynScheme>,
    /// Successful inserts remaining before the injected failure; `None`
    /// disarms the fault entirely.
    budget: Option<usize>,
    fault: Fault,
}

impl DynScheme for FaultAfter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn descriptor(&self) -> SchemeDescriptor {
        self.inner.descriptor()
    }
    fn label_tree(&mut self, tree: &XmlTree) -> Result<(), TreeError> {
        self.inner.label_tree(tree)
    }
    fn on_insert(&mut self, tree: &XmlTree, node: NodeId) -> Result<InsertReport, TreeError> {
        if let Some(left) = self.budget.as_mut() {
            if *left == 0 {
                match self.fault {
                    Fault::Error => {
                        return Err(TreeError::Invariant("injected mid-batch fault".to_string()))
                    }
                    Fault::Panic => panic!("injected mid-batch panic"),
                }
            }
            *left -= 1;
        }
        self.inner.on_insert(tree, node)
    }
    fn on_delete(&mut self, tree: &XmlTree, node: NodeId) {
        self.inner.on_delete(tree, node);
    }
    fn cmp_nodes(&self, a: NodeId, b: NodeId) -> Result<Ordering, TreeError> {
        self.inner.cmp_nodes(a, b)
    }
    fn relation_nodes(
        &self,
        rel: Relation,
        a: NodeId,
        b: NodeId,
    ) -> Result<Option<bool>, TreeError> {
        self.inner.relation_nodes(rel, a, b)
    }
    fn level_node(&self, a: NodeId) -> Result<Option<u32>, TreeError> {
        self.inner.level_node(a)
    }
    fn stats(&self) -> &SchemeStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
    fn overflow_audit_instance(&self) -> Option<Box<dyn DynScheme>> {
        self.inner.overflow_audit_instance()
    }
    fn labeled_len(&self) -> usize {
        self.inner.labeled_len()
    }
    fn total_bits(&self) -> u64 {
        self.inner.total_bits()
    }
    fn mean_bits(&self) -> f64 {
        self.inner.mean_bits()
    }
    fn max_bits(&self) -> u64 {
        self.inner.max_bits()
    }
    fn has_duplicate_labels(&self) -> bool {
        self.inner.has_duplicate_labels()
    }
    fn label_bits(&self, node: NodeId) -> Result<u64, TreeError> {
        self.inner.label_bits(node)
    }
    fn label_display(&self, node: NodeId) -> Result<String, TreeError> {
        self.inner.label_display(node)
    }
    fn labels_display(&self) -> Vec<(usize, String)> {
        self.inner.labels_display()
    }
    fn order_independent(&self) -> bool {
        self.inner.order_independent()
    }
    fn cancellation_neutral(&self) -> bool {
        self.inner.cancellation_neutral()
    }
    fn save_state(&self) -> Box<dyn Any> {
        self.inner.save_state()
    }
    fn restore_state(&mut self, state: Box<dyn Any>) -> bool {
        self.inner.restore_state(state)
    }
}

/// Every observable of the update state at one instant.
#[derive(Debug, PartialEq)]
struct Observables {
    tree: String,
    revision: u32,
    labels: Vec<(usize, String)>,
}

fn observe(tree: &XmlTree, session: &dyn DynScheme) -> Observables {
    Observables {
        tree: serialize_compact(tree),
        revision: tree.revision(),
        labels: session.labels_display(),
    }
}

/// The batch entry point a battery drives.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// `apply_log_dyn`: validate, then apply in log order.
    Sequential,
    /// `apply_plan_with_dyn` under these options, through a plan made
    /// for the pre-batch tree.
    Planned(ApplyOptions),
}

impl Entry {
    fn apply(
        self,
        tree: &mut XmlTree,
        session: &mut dyn DynScheme,
        log: &MutationLog,
        plan: &AnalyzedPlan,
    ) -> Result<DriveStats, TreeError> {
        match self {
            Entry::Sequential => apply_log_dyn(tree, session, log),
            Entry::Planned(opts) => apply_plan_with_dyn(tree, session, log, plan, opts),
        }
    }
}

fn fault_battery(
    kind: ScriptKind,
    ops: usize,
    seed: u64,
    fault_at: usize,
    fault: Fault,
    entry_point: Entry,
) {
    let nodes = 60;
    let script = Script::generate(kind, ops, nodes, seed);
    let entries = registry();
    assert_eq!(entries.len(), 17, "whole roster covered");

    let checked = xupd_exec::par_map(&entries, |entry| {
        let mut tree = docs::random_tree(seed, nodes);
        let log = batch_of(&script, &tree).unwrap();
        let plan = analyze(&log, &tree).unwrap();
        let inserts = log
            .iter()
            .filter(|m| {
                matches!(
                    m,
                    Mutation::CreateElement { .. }
                        | Mutation::CreateNode { .. }
                        | Mutation::Replace { .. }
                )
            })
            .count();
        assert!(
            fault_at < inserts,
            "{}: fault position {fault_at} beyond the {inserts} inserts",
            entry.name()
        );

        let mut session = FaultAfter {
            inner: entry.session(),
            budget: Some(fault_at),
            fault,
        };
        session.label_tree(&tree).unwrap();
        let before = observe(&tree, &session);

        match fault {
            Fault::Error => {
                let err = entry_point
                    .apply(&mut tree, &mut session, &log, &plan)
                    .unwrap_err();
                assert!(
                    matches!(err, TreeError::Invariant(ref msg) if msg.contains("injected")),
                    "{}: unexpected failure {err:?}",
                    entry.name()
                );
            }
            Fault::Panic => {
                let payload = catch_unwind(AssertUnwindSafe(|| {
                    entry_point.apply(&mut tree, &mut session, &log, &plan)
                }))
                .expect_err("the injected panic reaches the caller");
                assert_eq!(
                    payload.downcast_ref::<&str>(),
                    Some(&"injected mid-batch panic"),
                    "{}: unexpected panic payload",
                    entry.name()
                );
            }
        }
        let after = observe(&tree, &session);
        assert_eq!(
            before,
            after,
            "{}: a failed batch left observable state behind",
            entry.name()
        );

        // the restored session is not just byte-identical but usable:
        // disarm the fault and the same batch must match a session that
        // never faulted
        session.budget = None;
        entry_point
            .apply(&mut tree, &mut session, &log, &plan)
            .unwrap();

        let mut control_tree = docs::random_tree(seed, nodes);
        let mut control = entry.session();
        control.label_tree(&control_tree).unwrap();
        let control_plan = analyze(&log, &control_tree).unwrap();
        entry_point
            .apply(&mut control_tree, control.as_mut(), &log, &control_plan)
            .unwrap();
        assert_eq!(
            serialize_compact(&tree),
            serialize_compact(&control_tree),
            "{}: post-rollback replay diverged from control tree",
            entry.name()
        );
        assert_eq!(
            session.labels_display(),
            control.labels_display(),
            "{}: post-rollback replay diverged from control labels",
            entry.name()
        );
        entry.name()
    });
    assert_eq!(checked.len(), 17);
}

#[test]
fn first_insert_fault_rolls_back_every_scheme() {
    for entry in [Entry::Sequential, Entry::Planned(ApplyOptions::analyzed())] {
        fault_battery(ScriptKind::Random, 40, 7001, 0, Fault::Error, entry);
    }
}

#[test]
fn mid_batch_fault_rolls_back_every_scheme() {
    for entry in [Entry::Sequential, Entry::Planned(ApplyOptions::analyzed())] {
        fault_battery(ScriptKind::Random, 40, 7002, 11, Fault::Error, entry);
    }
}

#[test]
fn late_fault_rolls_back_every_scheme_under_deletes() {
    for entry in [Entry::Sequential, Entry::Planned(ApplyOptions::coalesced())] {
        fault_battery(ScriptKind::MixedDelete, 60, 7003, 23, Fault::Error, entry);
    }
}

/// A panic inside a scheme mid-batch rolls back exactly like an `Err`,
/// then keeps unwinding.
#[test]
fn mid_batch_panic_rolls_back_every_scheme() {
    for entry in [Entry::Sequential, Entry::Planned(ApplyOptions::analyzed())] {
        fault_battery(ScriptKind::Random, 40, 7004, 11, Fault::Panic, entry);
    }
}
