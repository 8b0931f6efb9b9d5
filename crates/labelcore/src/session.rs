//! Object-safe scheme sessions: [`DynScheme`] erases the heterogeneous
//! `LabelingScheme::Label` types behind a NodeId-addressed surface.
//!
//! A *session* bundles a scheme instance with the [`Labeling`] it
//! maintains, so callers that don't care about the concrete label type —
//! the registry (`xupd_schemes::registry`), the parallel checker
//! battery, the benches — can hold `Box<dyn DynScheme>` values and drive
//! the full protocol (bulk labelling, per-update labelling, relation
//! queries, size accounting) through dynamic dispatch. The typed
//! [`LabelingScheme`] API stays the implementation substrate; the
//! framework's driver, verifier and checkers exist once, written against
//! this trait, with no typed twins.
//!
//! [`SchemeSession`] owns its scheme + labelling (what registry
//! factories return, and what a `Document` holds); [`SessionMut`]
//! borrows both, for a caller that keeps a typed scheme and labelling
//! of its own and wants to hand them to one of those functions. Both
//! get their [`DynScheme`] implementation from one blanket impl over
//! [`SessionParts`], so the two can never drift.

use crate::label::{Label, Labeling};
use crate::properties::SchemeDescriptor;
use crate::scheme::{InsertReport, LabelingScheme, Relation};
use crate::stats::SchemeStats;
use std::cmp::Ordering;
use xupd_xmldom::{NodeId, TreeError, XmlTree};

/// Object-safe view of a labelling scheme *session* (scheme + its live
/// [`Labeling`]). Node-addressed where [`LabelingScheme`] is
/// label-addressed; every relation/order/level answer still comes from
/// the scheme's label algebra alone — the labelling only resolves
/// `NodeId → label`.
pub trait DynScheme {
    /// Scheme name as in Figure 7.
    fn name(&self) -> &'static str;

    /// Static self-description including the declared Figure 7 row.
    fn descriptor(&self) -> SchemeDescriptor;

    /// Bulk-label every live node of `tree`, replacing the session's
    /// labelling.
    fn label_tree(&mut self, tree: &XmlTree) -> Result<(), TreeError>;

    /// Label `node`, which has just been attached to `tree` (see
    /// [`LabelingScheme::on_insert`]).
    fn on_insert(&mut self, tree: &XmlTree, node: NodeId) -> Result<InsertReport, TreeError>;

    /// Drop labels for `node`'s still-attached subtree (see
    /// [`LabelingScheme::on_delete`]).
    fn on_delete(&mut self, tree: &XmlTree, node: NodeId);

    /// Document-order comparison of two labelled nodes, from their
    /// labels alone.
    fn cmp_nodes(&self, a: NodeId, b: NodeId) -> Result<Ordering, TreeError>;

    /// `rel(a, b)` from the two nodes' labels alone; `Ok(None)` when the
    /// scheme cannot answer that relation from labels.
    fn relation_nodes(
        &self,
        rel: Relation,
        a: NodeId,
        b: NodeId,
    ) -> Result<Option<bool>, TreeError>;

    /// The node's depth from its label alone (`Ok(None)` when the scheme
    /// does not encode level).
    fn level_node(&self, a: NodeId) -> Result<Option<u32>, TreeError>;

    /// Instrumentation counters accumulated so far.
    fn stats(&self) -> &SchemeStats;

    /// Reset instrumentation counters.
    fn reset_stats(&mut self);

    /// A fresh session over the scheme's tightened-budget audit variant
    /// (see [`LabelingScheme::overflow_audit_instance`]).
    fn overflow_audit_instance(&self) -> Option<Box<dyn DynScheme>>;

    /// Number of labelled nodes.
    fn labeled_len(&self) -> usize;

    /// Total label storage in bits.
    fn total_bits(&self) -> u64;

    /// Mean label size in bits (0.0 when empty).
    fn mean_bits(&self) -> f64;

    /// Largest label size in bits (0 when empty).
    fn max_bits(&self) -> u64;

    /// Two live nodes share a label (the LSDX failure mode).
    fn has_duplicate_labels(&self) -> bool;

    /// Storage footprint of one node's label.
    fn label_bits(&self, node: NodeId) -> Result<u64, TreeError>;

    /// Human-readable rendering of one node's label.
    fn label_display(&self, node: NodeId) -> Result<String, TreeError>;

    /// Every `(node index, label rendering)` pair, in id order — the
    /// observable the differential suites compare across drivers.
    fn labels_display(&self) -> Vec<(usize, String)>;

    /// Whether footprint-disjoint edits commute byte-for-byte under this
    /// scheme (see [`LabelingScheme::order_independent`]). The batch
    /// analyzer consults this before consuming reorder/parallel
    /// certificates; `false` forces original-order application.
    fn order_independent(&self) -> bool;

    /// Whether insert-then-delete of a scratch subtree leaves zero
    /// label residue (see [`LabelingScheme::cancellation_neutral`]).
    /// Consulted together with [`DynScheme::order_independent`] before
    /// the optimizer cancels statically-nil edit groups.
    fn cancellation_neutral(&self) -> bool;

    /// Snapshot the session's full state (scheme internals + labelling)
    /// as an opaque token. Paired with [`DynScheme::restore_state`], this
    /// is what gives batch application its all-or-nothing semantics: a
    /// snapshot taken before the batch restores the labelling *and* any
    /// scheme-internal allocator state byte-for-byte, which an undo-log
    /// replay could not (relabelling schemes would re-derive different
    /// labels).
    fn save_state(&self) -> Box<dyn std::any::Any>;

    /// Restore a snapshot produced by [`DynScheme::save_state`] on the
    /// same session type. Returns `false` (leaving the session untouched)
    /// when the token came from a different concrete session.
    fn restore_state(&mut self, state: Box<dyn std::any::Any>) -> bool;
}

/// Field access powering the blanket [`DynScheme`] impl. Implemented by
/// the owning [`SchemeSession`] and the borrowing [`SessionMut`]; not
/// intended for implementation outside this module.
pub trait SessionParts {
    /// The concrete scheme type.
    type Scheme: LabelingScheme;

    /// The scheme instance.
    fn scheme(&self) -> &Self::Scheme;
    /// The scheme instance, mutably.
    fn scheme_mut(&mut self) -> &mut Self::Scheme;
    /// The session's labelling.
    fn labeling(&self) -> &Labeling<<Self::Scheme as LabelingScheme>::Label>;
    /// The session's labelling, mutably.
    fn labeling_mut(&mut self) -> &mut Labeling<<Self::Scheme as LabelingScheme>::Label>;
    /// Replace the session's labelling wholesale (bulk labelling).
    fn replace_labeling(&mut self, labeling: Labeling<<Self::Scheme as LabelingScheme>::Label>);
}

/// An owning session: a scheme plus the labelling it maintains. What
/// the scheme registry's factories hand out.
#[derive(Debug, Clone)]
pub struct SchemeSession<S: LabelingScheme> {
    scheme: S,
    labeling: Labeling<S::Label>,
}

impl<S: LabelingScheme> SchemeSession<S> {
    /// A session with an empty labelling; call
    /// [`DynScheme::label_tree`] to populate it.
    pub fn new(scheme: S) -> Self {
        SchemeSession {
            scheme,
            labeling: Labeling::new(),
        }
    }

    /// The typed labelling (for callers that know `S`).
    pub fn typed_labeling(&self) -> &Labeling<S::Label> {
        &self.labeling
    }

    /// The typed scheme (for callers that know `S`).
    pub fn typed_scheme(&self) -> &S {
        &self.scheme
    }
}

impl<S: LabelingScheme> SessionParts for SchemeSession<S> {
    type Scheme = S;

    fn scheme(&self) -> &S {
        &self.scheme
    }
    fn scheme_mut(&mut self) -> &mut S {
        &mut self.scheme
    }
    fn labeling(&self) -> &Labeling<S::Label> {
        &self.labeling
    }
    fn labeling_mut(&mut self) -> &mut Labeling<S::Label> {
        &mut self.labeling
    }
    fn replace_labeling(&mut self, labeling: Labeling<S::Label>) {
        self.labeling = labeling;
    }
}

/// A borrowing session over caller-owned scheme + labelling: how a
/// caller holding the typed pair reaches the [`DynScheme`]-written
/// driver, verifier and batch appliers without giving up ownership.
#[derive(Debug)]
pub struct SessionMut<'a, S: LabelingScheme> {
    scheme: &'a mut S,
    labeling: &'a mut Labeling<S::Label>,
}

impl<'a, S: LabelingScheme> SessionMut<'a, S> {
    /// Borrow `scheme` and `labeling` as one session.
    pub fn new(scheme: &'a mut S, labeling: &'a mut Labeling<S::Label>) -> Self {
        SessionMut { scheme, labeling }
    }
}

impl<S: LabelingScheme> SessionParts for SessionMut<'_, S> {
    type Scheme = S;

    fn scheme(&self) -> &S {
        self.scheme
    }
    fn scheme_mut(&mut self) -> &mut S {
        self.scheme
    }
    fn labeling(&self) -> &Labeling<S::Label> {
        self.labeling
    }
    fn labeling_mut(&mut self) -> &mut Labeling<S::Label> {
        self.labeling
    }
    fn replace_labeling(&mut self, labeling: Labeling<S::Label>) {
        *self.labeling = labeling;
    }
}

impl<T: SessionParts> DynScheme for T
where
    T::Scheme: Clone + 'static,
{
    fn name(&self) -> &'static str {
        self.scheme().name()
    }

    fn descriptor(&self) -> SchemeDescriptor {
        self.scheme().descriptor()
    }

    fn label_tree(&mut self, tree: &XmlTree) -> Result<(), TreeError> {
        let labeling = self.scheme_mut().label_tree(tree)?;
        self.replace_labeling(labeling);
        Ok(())
    }

    fn on_insert(&mut self, tree: &XmlTree, node: NodeId) -> Result<InsertReport, TreeError> {
        // Split-borrow through a single &mut self: take the labelling
        // out, run the scheme against it, put it back.
        let mut labeling = std::mem::take(self.labeling_mut());
        let report = self.scheme_mut().on_insert(tree, &mut labeling, node);
        self.replace_labeling(labeling);
        report
    }

    fn on_delete(&mut self, tree: &XmlTree, node: NodeId) {
        let mut labeling = std::mem::take(self.labeling_mut());
        self.scheme_mut().on_delete(tree, &mut labeling, node);
        self.replace_labeling(labeling);
    }

    fn cmp_nodes(&self, a: NodeId, b: NodeId) -> Result<Ordering, TreeError> {
        let la = self.labeling().req(a)?;
        let lb = self.labeling().req(b)?;
        Ok(self.scheme().cmp_doc(la, lb))
    }

    fn relation_nodes(
        &self,
        rel: Relation,
        a: NodeId,
        b: NodeId,
    ) -> Result<Option<bool>, TreeError> {
        let la = self.labeling().req(a)?;
        let lb = self.labeling().req(b)?;
        Ok(self.scheme().relation(rel, la, lb))
    }

    fn level_node(&self, a: NodeId) -> Result<Option<u32>, TreeError> {
        Ok(self.scheme().level(self.labeling().req(a)?))
    }

    fn stats(&self) -> &SchemeStats {
        self.scheme().stats()
    }

    fn reset_stats(&mut self) {
        self.scheme_mut().reset_stats();
    }

    fn overflow_audit_instance(&self) -> Option<Box<dyn DynScheme>> {
        self.scheme()
            .overflow_audit_instance()
            .map(|s| Box::new(SchemeSession::new(s)) as Box<dyn DynScheme>)
    }

    fn labeled_len(&self) -> usize {
        self.labeling().len()
    }

    fn total_bits(&self) -> u64 {
        self.labeling().total_bits()
    }

    fn mean_bits(&self) -> f64 {
        self.labeling().mean_bits()
    }

    fn max_bits(&self) -> u64 {
        self.labeling().max_bits()
    }

    fn has_duplicate_labels(&self) -> bool {
        self.labeling().find_duplicate().is_some()
    }

    fn label_bits(&self, node: NodeId) -> Result<u64, TreeError> {
        Ok(self.labeling().req(node)?.size_bits())
    }

    fn label_display(&self, node: NodeId) -> Result<String, TreeError> {
        Ok(self.labeling().req(node)?.display())
    }

    fn labels_display(&self) -> Vec<(usize, String)> {
        self.labeling()
            .iter()
            .map(|(id, l)| (id.index(), l.display()))
            .collect()
    }

    fn order_independent(&self) -> bool {
        self.scheme().order_independent()
    }

    fn cancellation_neutral(&self) -> bool {
        self.scheme().cancellation_neutral()
    }

    fn save_state(&self) -> Box<dyn std::any::Any> {
        Box::new((self.scheme().clone(), self.labeling().clone()))
    }

    fn restore_state(&mut self, state: Box<dyn std::any::Any>) -> bool {
        type Snap<S> = (S, Labeling<<S as LabelingScheme>::Label>);
        match state.downcast::<Snap<T::Scheme>>() {
            Ok(snap) => {
                let (scheme, labeling) = *snap;
                *self.scheme_mut() = scheme;
                self.replace_labeling(labeling);
                true
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_xmldom::NodeKind;

    // The Midpoint test scheme from `crate::scheme::tests` is private;
    // a tiny preorder-position scheme suffices to exercise the session
    // plumbing end to end.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    struct Seq(u64);

    impl Label for Seq {
        fn size_bits(&self) -> u64 {
            64
        }
        fn display(&self) -> String {
            format!("{}", self.0)
        }
    }

    #[derive(Default, Clone)]
    struct SeqScheme {
        stats: SchemeStats,
        next: u64,
    }

    impl LabelingScheme for SeqScheme {
        type Label = Seq;

        fn name(&self) -> &'static str {
            "Seq(test)"
        }

        fn descriptor(&self) -> SchemeDescriptor {
            use crate::properties::{Compliance, EncodingRep, OrderKind};
            SchemeDescriptor {
                name: "Seq(test)",
                citation: "[test]",
                order: OrderKind::Global,
                encoding: EncodingRep::Fixed,
                declared: [Compliance::None; 8],
                in_figure7: false,
            }
        }

        fn label_tree(&mut self, tree: &XmlTree) -> Result<Labeling<Seq>, TreeError> {
            let mut l = Labeling::with_capacity_for(tree);
            // widely spaced so single-node inserts can squeeze between
            for (i, id) in tree.preorder().enumerate() {
                l.set(id, Seq(i as u64 * 1000));
                self.next = self.next.max(i as u64 * 1000 + 1000);
            }
            Ok(l)
        }

        fn on_insert(
            &mut self,
            _tree: &XmlTree,
            labeling: &mut Labeling<Seq>,
            node: NodeId,
        ) -> Result<InsertReport, TreeError> {
            labeling.set(node, Seq(self.next));
            self.next += 1000;
            Ok(InsertReport::clean())
        }

        fn cmp_doc(&self, a: &Seq, b: &Seq) -> Ordering {
            a.cmp(b)
        }

        fn relation(&self, _rel: Relation, _a: &Seq, _b: &Seq) -> Option<bool> {
            None
        }

        fn level(&self, _a: &Seq) -> Option<u32> {
            None
        }

        fn stats(&self) -> &SchemeStats {
            &self.stats
        }

        fn reset_stats(&mut self) {
            self.stats.reset();
        }
    }

    fn two_node_tree() -> (XmlTree, NodeId) {
        let mut tree = XmlTree::new();
        let r = tree.root();
        let a = tree.create(NodeKind::element("a"));
        tree.append_child(r, a).unwrap();
        (tree, a)
    }

    #[test]
    fn owning_session_round_trip() {
        let (mut tree, a) = two_node_tree();
        let mut session: Box<dyn DynScheme> = Box::new(SchemeSession::new(SeqScheme::default()));
        session.label_tree(&tree).unwrap();
        assert_eq!(session.labeled_len(), 2);
        assert_eq!(session.name(), "Seq(test)");
        assert!(!session.has_duplicate_labels());
        assert_eq!(session.cmp_nodes(tree.root(), a).unwrap(), Ordering::Less);
        assert_eq!(
            session
                .relation_nodes(Relation::ParentChild, tree.root(), a)
                .unwrap(),
            None
        );
        assert_eq!(session.level_node(a).unwrap(), None);

        let b = tree.create(NodeKind::element("b"));
        tree.append_child(a, b).unwrap();
        let report = session.on_insert(&tree, b).unwrap();
        assert!(report.relabeled.is_empty());
        assert_eq!(session.labeled_len(), 3);

        session.on_delete(&tree, a);
        tree.remove_subtree(a).unwrap();
        assert_eq!(session.labeled_len(), 1);
        assert_eq!(session.labels_display(), vec![(0, "0".to_string())]);
        assert_eq!(session.label_bits(tree.root()).unwrap(), 64);
        assert_eq!(session.max_bits(), 64);
        assert!(session.overflow_audit_instance().is_none());
    }

    #[test]
    fn borrowing_session_mutates_caller_state() {
        let (mut tree, a) = two_node_tree();
        let mut scheme = SeqScheme::default();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let b = tree.create(NodeKind::element("b"));
        tree.append_child(a, b).unwrap();
        {
            let mut session = SessionMut::new(&mut scheme, &mut labeling);
            let dyn_session: &mut dyn DynScheme = &mut session;
            dyn_session.on_insert(&tree, b).unwrap();
        }
        // the caller-owned labelling saw the insert
        assert_eq!(labeling.len(), 3);
        assert!(labeling.req(b).is_ok());
    }

    #[test]
    fn save_restore_round_trips_scheme_and_labeling() {
        let (mut tree, a) = two_node_tree();
        let mut session: Box<dyn DynScheme> = Box::new(SchemeSession::new(SeqScheme::default()));
        session.label_tree(&tree).unwrap();
        let snap = session.save_state();
        let before = session.labels_display();

        let b = tree.create(NodeKind::element("b"));
        tree.append_child(a, b).unwrap();
        session.on_insert(&tree, b).unwrap();
        assert_ne!(session.labels_display(), before);

        assert!(session.restore_state(snap), "token matches session type");
        assert_eq!(session.labels_display(), before);
        // scheme internals restored too: re-inserting hands out the same
        // counter value the pre-snapshot state would have
        let report = session.on_insert(&tree, b).unwrap();
        assert!(report.relabeled.is_empty());
        assert_eq!(session.labeled_len(), 3);
    }

    #[test]
    fn restore_rejects_foreign_tokens() {
        let (tree, _) = two_node_tree();
        let mut session = SchemeSession::new(SeqScheme::default());
        DynScheme::label_tree(&mut session, &tree).unwrap();
        let before = session.labels_display();
        assert!(!session.restore_state(Box::new(42u32)), "foreign token");
        assert_eq!(session.labels_display(), before, "session untouched");
    }

    #[test]
    fn unlabeled_nodes_error_not_panic() {
        let (tree, a) = two_node_tree();
        let session = SchemeSession::new(SeqScheme::default());
        // no label_tree call: every node-addressed query errors
        let dyn_session: &dyn DynScheme = &session;
        assert!(matches!(
            dyn_session.cmp_nodes(tree.root(), a),
            Err(TreeError::Unlabeled(_))
        ));
        assert!(dyn_session.label_display(a).is_err());
    }
}
