//! The [`Label`] trait and the [`Labeling`] side table mapping tree nodes
//! to their labels.

use std::cmp::Ordering;
use std::fmt::Debug;
use std::num::NonZeroU32;
use xupd_xmldom::{NodeId, TreeError, XmlTree};

/// A node label as assigned by a labelling scheme (Definition 1 of the
/// paper: unique identifiers that facilitate node ordering).
///
/// `Ord` on a label type is **document order** for labels produced by the
/// same scheme instance over the same document — every scheme's label type
/// implements its own comparison algebra (lexicographic for prefix/QED
/// codes, gradient comparison for vector codes, numeric for containment).
pub trait Label: Clone + Eq + Ord + Debug {
    /// Storage footprint of this label in bits, under the scheme's storage
    /// model (e.g. 2 bits per quaternary symbol plus a 2-bit separator for
    /// QED; UTF-8-style varints for vector components). This feeds the
    /// *Compact Encoding* measurements.
    fn size_bits(&self) -> u64;

    /// Human-readable rendering matching the paper's figures where
    /// applicable (e.g. `1.5.2.1` for ORDPATH, `0101.011` for
    /// ImprovedBinary, `2ab.c` for LSDX).
    fn display(&self) -> String;
}

/// A side table assigning a label to each (live) node of an [`XmlTree`].
///
/// Backed by a dense vector indexed by [`NodeId`], because node ids are
/// never reused by the tree.
#[derive(Debug)]
pub struct Labeling<L> {
    slots: Vec<Option<L>>,
    /// Count of `Some` slots, maintained by `set`/`remove` so `len` and
    /// `is_empty` (called per checkpoint in the update driver) are O(1)
    /// instead of a scan over the whole id space.
    live: usize,
    /// Label-size summary, or `None` when the size metrics must scan.
    sizes: Option<LabelSizes>,
    /// The journal [`Labeling::begin_undo`] opened, if any.
    undo: Option<Box<Undo<L>>>,
}

/// Running label sizes: what [`Labeling::total_bits`],
/// [`Labeling::max_bits`] and [`Labeling::mean_bits`] read instead of
/// scanning every label. Built by the first [`Labeling::begin_undo`]
/// (set-up and bulk labelling never pay for it), kept current by `set`
/// and `remove`, and dropped when the last label of the largest size
/// leaves, because the next largest is unknown without a scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LabelSizes {
    total: u64,
    max: u64,
    /// Labels of exactly `max` bits.
    at_max: NonZeroU32,
}

impl LabelSizes {
    /// One pass over `labels`; `None` when there are none.
    fn scan<'a, L: Label + 'a>(labels: impl Iterator<Item = &'a L>) -> Option<Self> {
        let (mut total, mut max, mut at_max) = (0u64, 0u64, 0u32);
        for bits in labels.map(Label::size_bits) {
            total += bits;
            match bits.cmp(&max) {
                Ordering::Greater => (max, at_max) = (bits, 1),
                Ordering::Equal => at_max += 1,
                Ordering::Less => {}
            }
        }
        NonZeroU32::new(at_max).map(|at_max| LabelSizes { total, max, at_max })
    }

    /// Count a label of `bits` in.
    fn with(self, bits: u64) -> Option<Self> {
        let total = self.total.checked_add(bits)?;
        match bits.cmp(&self.max) {
            Ordering::Greater => Some(LabelSizes {
                total,
                max: bits,
                at_max: NonZeroU32::MIN,
            }),
            Ordering::Equal => Some(LabelSizes {
                total,
                at_max: self.at_max.checked_add(1)?,
                ..self
            }),
            Ordering::Less => Some(LabelSizes { total, ..self }),
        }
    }

    /// Count a label of `bits` out; `None` once no label has the
    /// largest size.
    fn without(self, bits: u64) -> Option<Self> {
        let total = self.total.checked_sub(bits)?;
        match bits.cmp(&self.max) {
            Ordering::Less => Some(LabelSizes { total, ..self }),
            Ordering::Equal => NonZeroU32::new(self.at_max.get() - 1).map(|at_max| LabelSizes {
                total,
                at_max,
                ..self
            }),
            Ordering::Greater => None,
        }
    }
}

/// An open undo journal: what [`Labeling::end_undo`] needs to put the
/// labelling back as [`Labeling::begin_undo`] found it.
#[derive(Debug)]
struct Undo<L> {
    /// `slots.len()`, the live count and the size summary at open.
    /// Slots at or past `len` were created since.
    len: usize,
    live: usize,
    sizes: Option<LabelSizes>,
    /// Bit `i` is set once slot `i` is in `slots`.
    saved: Vec<u64>,
    /// Each pre-journal slot's content before its first write.
    slots: Vec<(usize, Option<L>)>,
}

impl<L: Label> Clone for Labeling<L> {
    /// A copy of the labels; the copy has no undo journal open.
    fn clone(&self) -> Self {
        Labeling {
            slots: self.slots.clone(),
            live: self.live,
            sizes: self.sizes,
            undo: None,
        }
    }
}

impl<L: Label> Default for Labeling<L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L: Label> Labeling<L> {
    /// An empty labelling.
    pub fn new() -> Self {
        Labeling {
            slots: Vec::new(),
            live: 0,
            sizes: None,
            undo: None,
        }
    }

    /// Pre-size for a tree's id space.
    pub fn with_capacity_for(tree: &XmlTree) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(tree.id_bound(), || None);
        Labeling {
            slots,
            ..Self::new()
        }
    }

    /// The label of `id`, if assigned.
    pub fn get(&self, id: NodeId) -> Option<&L> {
        self.slots.get(id.index()).and_then(|s| s.as_ref())
    }

    /// The label of `id`, required to exist.
    ///
    /// Schemes guarantee every live node is labelled, so a miss indicates
    /// a driver bug — surfaced as [`TreeError::Unlabeled`] rather than a
    /// panic, per the workspace panic policy (R1).
    pub fn req(&self, id: NodeId) -> Result<&L, TreeError> {
        self.get(id).ok_or(TreeError::Unlabeled(id))
    }

    /// Assign (or replace) the label of `id`. Returns the previous label.
    #[inline]
    pub fn set(&mut self, id: NodeId, label: L) -> Option<L> {
        let i = id.index();
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || None);
        }
        if self.undo.is_some() || self.sizes.is_some() {
            return self.set_tracked(i, label);
        }
        let prev = self.slots[i].replace(label);
        if prev.is_none() {
            self.live += 1;
        }
        prev
    }

    /// [`Labeling::set`] while a journal or the size summary must see
    /// the write. Kept out of line so the plain path — bulk labelling,
    /// shadow encodes, the containment schemes' per-insert recomputes —
    /// stays as small as it was.
    #[inline(never)]
    fn set_tracked(&mut self, i: usize, label: L) -> Option<L> {
        self.save(i);
        let bits = self.sizes.map(|_| label.size_bits());
        let prev = self.slots[i].replace(label);
        if prev.is_none() {
            self.live += 1;
        }
        if let (Some(sizes), Some(bits)) = (self.sizes, bits) {
            match prev.as_ref().map(Label::size_bits) {
                // a same-size relabel, the containment schemes' usual
                // write, leaves the summary as it is
                Some(old) if old == bits => {}
                Some(old) => self.sizes = sizes.with(bits).and_then(|s| s.without(old)),
                None => self.sizes = sizes.with(bits),
            }
        }
        prev
    }

    /// Remove the label of `id` (on node deletion).
    pub fn remove(&mut self, id: NodeId) -> Option<L> {
        self.save(id.index());
        let prev = self.slots.get_mut(id.index()).and_then(|s| s.take());
        if let Some(old) = &prev {
            self.live -= 1;
            self.sizes = self.sizes.and_then(|s| s.without(old.size_bits()));
        }
        prev
    }

    /// Start an undo journal. Until [`Labeling::end_undo`], the first
    /// `set` or `remove` of each slot that exists now saves what it held
    /// — once, however often a relabelling scheme rewrites the slot — so
    /// a rollback costs the slots a batch wrote rather than a copy of the
    /// labelling. Also builds the label-size summary if it is absent, so
    /// the size metrics stop scanning. Opening a journal while one is
    /// open discards the open one.
    pub fn begin_undo(&mut self) {
        if self.sizes.is_none() {
            self.sizes = LabelSizes::scan(self.slots.iter().flatten());
        }
        let len = self.slots.len();
        self.undo = Some(Box::new(Undo {
            len,
            live: self.live,
            sizes: self.sizes,
            saved: vec![0; len.div_ceil(64)],
            slots: Vec::new(),
        }));
    }

    /// Close the journal [`Labeling::begin_undo`] opened. With `keep`
    /// every write since stays; without it the labelling is put back as
    /// it was then — slots created since are dropped, and every saved
    /// slot, the live count and the size summary are restored. Does
    /// nothing when no journal is open.
    pub fn end_undo(&mut self, keep: bool) {
        let Some(undo) = self.undo.take() else {
            return;
        };
        if keep {
            return;
        }
        self.slots.truncate(undo.len);
        for (i, old) in undo.slots {
            self.slots[i] = old;
        }
        self.live = undo.live;
        self.sizes = undo.sizes;
    }

    /// Journal hook, run before every write to slot `i`: the first write
    /// to a pre-journal slot saves what it held.
    fn save(&mut self, i: usize) {
        let Some(undo) = self.undo.as_deref_mut() else {
            return;
        };
        if i >= undo.len {
            return;
        }
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if undo.saved[word] & bit == 0 {
            undo.saved[word] |= bit;
            undo.slots.push((i, self.slots[i].clone()));
        }
    }

    /// Number of labelled nodes. O(1).
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no node is labelled. O(1).
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Iterate `(NodeId, &L)` over all labelled nodes in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &L)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|l| (NodeId::from_index(i), l)))
    }

    /// Total storage of all labels in bits (the *Compact Encoding* metric).
    /// O(1) while the size summary is present, a scan otherwise; both
    /// give the same integer.
    pub fn total_bits(&self) -> u64 {
        match self.sizes {
            Some(sizes) => sizes.total,
            None => self.iter().map(|(_, l)| l.size_bits()).sum(),
        }
    }

    /// Mean label size in bits (0.0 when empty).
    pub fn mean_bits(&self) -> f64 {
        let n = self.len();
        if n == 0 {
            0.0
        } else {
            self.total_bits() as f64 / n as f64
        }
    }

    /// Largest label size in bits (0 when empty). O(1) while the size
    /// summary is present, a scan otherwise.
    pub fn max_bits(&self) -> u64 {
        match self.sizes {
            Some(sizes) => sizes.max,
            None => self.iter().map(|(_, l)| l.size_bits()).max().unwrap_or(0),
        }
    }

    /// Check label uniqueness — Definition 1 requires it, and LSDX-style
    /// collision bugs violate it. Returns a violating pair if any.
    pub fn find_duplicate(&self) -> Option<(NodeId, NodeId)> {
        let mut seen: Vec<(&L, NodeId)> = self.iter().map(|(id, l)| (l, id)).collect();
        seen.sort_by(|a, b| a.0.cmp(b.0));
        for w in seen.windows(2) {
            if w[0].0 == w[1].0 {
                return Some((w[0].1, w[1].1));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial label for exercising the side table.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    struct IntLabel(u64);

    impl Label for IntLabel {
        fn size_bits(&self) -> u64 {
            64
        }
        fn display(&self) -> String {
            self.0.to_string()
        }
    }

    #[test]
    fn set_get_remove() {
        let mut l: Labeling<IntLabel> = Labeling::new();
        let a = NodeId::from_index(3);
        assert!(l.get(a).is_none());
        assert!(l.set(a, IntLabel(7)).is_none());
        assert_eq!(l.get(a), Some(&IntLabel(7)));
        assert_eq!(l.set(a, IntLabel(9)), Some(IntLabel(7)));
        assert_eq!(l.remove(a), Some(IntLabel(9)));
        assert!(l.is_empty());
    }

    #[test]
    fn iter_and_metrics() {
        let mut l: Labeling<IntLabel> = Labeling::new();
        l.set(NodeId::from_index(0), IntLabel(1));
        l.set(NodeId::from_index(5), IntLabel(2));
        assert_eq!(l.len(), 2);
        assert_eq!(l.total_bits(), 128);
        assert_eq!(l.mean_bits(), 64.0);
        assert_eq!(l.max_bits(), 64);
        let ids: Vec<_> = l.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, vec![0, 5]);
    }

    #[test]
    fn duplicate_detection() {
        let mut l: Labeling<IntLabel> = Labeling::new();
        l.set(NodeId::from_index(0), IntLabel(1));
        l.set(NodeId::from_index(1), IntLabel(2));
        assert!(l.find_duplicate().is_none());
        l.set(NodeId::from_index(2), IntLabel(1));
        let (a, b) = l.find_duplicate().unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn req_errors_on_missing() {
        let l: Labeling<IntLabel> = Labeling::new();
        let id = NodeId::from_index(0);
        assert_eq!(l.req(id), Err(TreeError::Unlabeled(id)));
        let mut l = l;
        l.set(id, IntLabel(1));
        assert_eq!(l.req(id), Ok(&IntLabel(1)));
    }

    /// A label as large as its value, to exercise the size summary.
    #[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
    struct Bits(u64);

    impl Label for Bits {
        fn size_bits(&self) -> u64 {
            self.0
        }
        fn display(&self) -> String {
            self.0.to_string()
        }
    }

    /// `(total, max)` by a full scan, never the summary.
    fn scanned(l: &Labeling<Bits>) -> (u64, u64) {
        let sizes = || l.iter().map(|(_, b)| b.size_bits());
        (sizes().sum(), sizes().max().unwrap_or(0))
    }

    /// Every observable of a labelling, read through its public API.
    fn observe(l: &Labeling<Bits>) -> (Vec<(NodeId, Bits)>, usize, u64, u64, f64) {
        let labels = l.iter().map(|(id, b)| (id, b.clone())).collect();
        (labels, l.len(), l.total_bits(), l.max_bits(), l.mean_bits())
    }

    #[test]
    fn summary_tracks_sets_and_removes_and_drops_with_the_last_max() {
        let mut l: Labeling<Bits> = Labeling::new();
        let id = NodeId::from_index;
        l.set(id(0), Bits(8));
        l.set(id(1), Bits(8));
        l.set(id(2), Bits(4));
        assert_eq!(l.sizes, None, "set-up never builds the summary");
        l.begin_undo();
        let summary = |total, max, at_max| {
            NonZeroU32::new(at_max).map(|at_max| LabelSizes { total, max, at_max })
        };
        assert_eq!(l.sizes, summary(20, 8, 2));
        l.set(id(3), Bits(2));
        assert_eq!(l.sizes, summary(22, 8, 2));
        l.set(id(1), Bits(8));
        assert_eq!(l.sizes, summary(22, 8, 2), "same-size relabel");
        l.remove(id(0));
        assert_eq!(l.sizes, summary(14, 8, 1));
        l.set(id(2), Bits(9));
        assert_eq!(l.sizes, summary(19, 9, 1));
        l.set(id(2), Bits(1));
        assert_eq!(l.sizes, None, "the last max-sized label left");
        assert_eq!((l.total_bits(), l.max_bits()), (11, 8), "metrics scan");
        l.end_undo(true);
        l.begin_undo();
        assert_eq!(l.sizes, summary(11, 8, 1), "the next open rebuilds it");
        l.end_undo(true);
    }

    #[test]
    fn rolled_back_relabelling_restores_every_slot_once_saved() {
        let mut l: Labeling<Bits> = Labeling::new();
        for i in 0..100 {
            l.set(NodeId::from_index(i), Bits(i as u64 % 7));
        }
        l.remove(NodeId::from_index(50));
        let before = l.clone();
        l.begin_undo();
        // a relabelling scheme rewrites every slot on every insert
        for round in 0..5u64 {
            for i in 0..100 + round as usize {
                l.set(NodeId::from_index(i), Bits(round + i as u64 % 11));
            }
            l.remove(NodeId::from_index(round as usize * 3));
        }
        l.set(NodeId::from_index(300), Bits(70));
        let saved = l.undo.as_ref().map(|u| u.slots.len());
        assert_eq!(saved, Some(100), "each pre-journal slot saved once");
        l.end_undo(false);
        assert_eq!(observe(&l), observe(&before));
        assert_eq!(l.sizes, LabelSizes::scan(before.slots.iter().flatten()));
        assert!(l.undo.is_none());
        assert!(l.clone().undo.is_none());
    }

    use xupd_testkit::prop::{ints, vecs, Config};
    use xupd_testkit::{prop_assert, prop_assert_eq, props};

    props! {
        config = Config::with_cases(150);

        /// The maintained live count always equals the count a full scan
        /// of the slot vector would produce, under any interleaving of
        /// set (fresh), set (replace) and remove.
        fn len_matches_scanned_count(ops in vecs(ints(0u32..1000), 0, 80)) {
            let mut l: Labeling<IntLabel> = Labeling::new();
            for op in ops {
                let id = NodeId::from_index((op % 16) as usize);
                if op % 3 == 0 {
                    l.remove(id);
                } else {
                    l.set(id, IntLabel(u64::from(op)));
                }
                let scanned = l.iter().count();
                prop_assert_eq!(l.len(), scanned);
                prop_assert!(l.is_empty() == (scanned == 0));
            }
        }

        /// Under any interleaving of set (fresh), set (relabel) and
        /// remove inside a journal, the summary, while present, equals a
        /// fresh scan, and the size metrics equal a scan either way; a
        /// rollback then restores every observable of the labelling.
        fn journal_and_summary_match_a_scan(ops in vecs(ints(0u32..1000), 0, 80)) {
            let mut l: Labeling<Bits> = Labeling::new();
            for i in 0..8 {
                l.set(NodeId::from_index(i), Bits(i as u64 % 5));
            }
            let before = l.clone();
            l.begin_undo();
            for op in ops {
                let id = NodeId::from_index((op % 16) as usize);
                if op % 3 == 0 {
                    l.remove(id);
                } else {
                    l.set(id, Bits(u64::from(op / 16 % 9)));
                }
                if l.sizes.is_some() {
                    prop_assert_eq!(l.sizes, LabelSizes::scan(l.slots.iter().flatten()));
                }
                prop_assert_eq!((l.total_bits(), l.max_bits()), scanned(&l));
            }
            l.end_undo(false);
            prop_assert_eq!(observe(&l), observe(&before));
        }
    }
}
