//! # Static mutation-log analysis: footprints, conflicts, certificates
//!
//! The paper's central complaint (§6) is that XML update mechanisms make
//! edits *opaque*: nothing about an update reveals what it will touch
//! until it has touched it. This module makes the effect of a validated
//! [`MutationLog`] analyzable **before** it is applied, in the spirit of
//! FLUX's static update analysis (Cheney, arXiv 0807.1211) and the
//! update/query independence test of Genevès–Layaïda–Quint (arXiv
//! 0811.4324), adapted to the log model of PR 6:
//!
//! 1. **Footprints** — every op is abstracted to the log ids it creates
//!    and uses, the sibling *gaps* it writes (keyed by `(parent,
//!    left-slot)` against the pre-batch document), the text points it
//!    overwrites, the subtree *extents* it deletes or moves (resolved as
//!    contiguous preorder ranges through the document's
//!    [`PreorderIndex`], the query cache's table), and a
//!    conservative relabel *region* (the anchor's parent extent — wide
//!    enough to absorb sibling-renumber ripples of prefix schemes).
//! 2. **Conflict graph** — ops `i < j` are connected by dependency
//!    edges (`j` uses an id `i` creates) and conflict edges carrying a
//!    named taxonomy ([`ConflictKind`]): structural overlap,
//!    write-after-delete, text/text, move-into-deleted, and
//!    ancestor/descendant extent overlap.
//! 3. **Certificates** — from the graph the analyzer derives redundant
//!    no-op text writes, whole create+delete *nil components* that
//!    cancel, a canonical topological reorder, and a partition into
//!    provably independent groups of ops ([`AnalyzedPlan::components`]).
//!
//! The pass walks the log once. Each op first passes the validator's
//! shadow simulation of the batch, the one
//! [`crate::mutations::validate`] steps through, and only then is its
//! footprint read; after the last op the shadow checks the batch's
//! result and says which made nodes it no longer holds, which is what
//! the nil-component certificate asks. So a log the analyzer accepts
//! is exactly a log the validator accepts.
//!
//! Certificates are consumed by [`apply_plan_with_dyn`], the batch
//! optimizer: under [`ApplyOptions`] it runs a log in the certified
//! order, through the same atomic-apply loop as
//! [`crate::mutations::apply_log_dyn`] but without validating again.
//! A plan is valid only for the tree state it was computed on: it
//! records that state's [`XmlTree::revision`], and
//! [`apply_plan_with_dyn`] refuses to run it on any other.
//!
//! ## Soundness
//!
//! The analysis is deliberately conservative: it must preserve *labels
//! and evidence counters*, not just document bytes, because the
//! differential suite (`tests/analysis_differential.rs`) compares all of
//! them across the whole scheme roster. Reordering is additionally
//! gated on [`DynScheme::order_independent`]: schemes whose labels
//! encode insertion *history* (Prime's temporal prime counter, the
//! containment family's global interval renumbering) refuse the
//! certificate and run in original order — which is always safe.

use std::collections::{BTreeMap, BTreeSet};

use xupd_labelcore::DynScheme;
use xupd_xmldom::{NodeId, NodeKind, TreeError, XmlTree};

use crate::driver::DriveStats;
use crate::mutations::{apply_atomic, LogId, Mutation, MutationLog, NodeRef, Place, Shadow};
use xupd_encoding::PreorderIndex;

// ---------------------------------------------------------------------
// Footprint lattice primitives.
// ---------------------------------------------------------------------

/// A contiguous preorder range `[start, end)` of pre-batch rows — the
/// resolved form of a subtree in the [`PreorderIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Extent {
    /// First preorder row of the subtree (the subtree root).
    pub start: u32,
    /// One past the last preorder row of the subtree.
    pub end: u32,
}

impl Extent {
    /// Does the range cover preorder row `p`?
    pub fn contains(&self, p: u32) -> bool {
        self.start <= p && p < self.end
    }

    /// Do the two ranges share any row? Subtree extents are laminar, so
    /// overlap implies one contains the other.
    pub fn overlaps(&self, other: &Extent) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// The left boundary of a sibling gap in the pre-batch document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum GapSlot {
    /// The gap before the parent's first child.
    Start,
    /// The gap immediately after the child at this preorder row.
    AfterNode(u32),
    /// The slot currently occupied by the child at this row: a
    /// `Replace` writes *in place*, so it collides with neither of the
    /// insertion gaps flanking its target. (Inserts that anchor on the
    /// replaced node itself are caught earlier as write-after-delete.)
    Own(u32),
}

/// A structural write target: one sibling gap, keyed by the parent's
/// preorder row and the left slot. Two ops that realize the same key
/// write the *same* child-list position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct GapKey {
    /// Preorder row of the parent whose child list is written.
    pub parent: u32,
    /// Left boundary of the written gap.
    pub left: GapSlot,
}

/// A text-write point: either a pre-batch text node (by preorder row)
/// or a node the batch itself creates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PointRef {
    /// Pre-existing text node, by preorder row.
    Pre(u32),
    /// Batch-created node, by log id.
    New(u32),
}

/// The read/write footprint of one mutation, fully resolved against the
/// pre-batch document.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpFootprint {
    /// Log ids this op binds.
    pub creates: Vec<LogId>,
    /// Log ids of earlier ops this op references.
    pub uses: Vec<LogId>,
    /// Sibling gaps written (creates, moves, replaces).
    pub gap_writes: Vec<GapKey>,
    /// Text points overwritten.
    pub text_writes: Vec<PointRef>,
    /// Pre-batch rows read as anchors or targets.
    pub anchor_reads: Vec<u32>,
    /// Subtree extents this op deletes (Delete, Replace).
    pub deleted_extents: Vec<Extent>,
    /// Subtree extents this op detaches and re-attaches (MoveSubtree).
    pub moved_extents: Vec<Extent>,
    /// Conservative relabel regions: the anchor-parent extents inside
    /// which every structural ripple of this op (sibling renumbering
    /// included) is contained. New-anchored ops inherit their host
    /// creator's regions so nothing escapes the graph. Only the
    /// conflict graph reads them; the query cache classifies by the
    /// deleted, moved and created subtrees themselves.
    pub regions: Vec<Extent>,
}

// ---------------------------------------------------------------------
// Conflict taxonomy and graph.
// ---------------------------------------------------------------------

/// Why two ops cannot be freely reordered or separated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ConflictKind {
    /// Both ops write the same sibling gap or overlapping relabel
    /// regions under the same parent neighbourhood.
    StructuralOverlap,
    /// One op reads or writes a node the other op's delete consumes.
    WriteAfterDelete,
    /// Both ops overwrite the same text point.
    TextText,
    /// A move's destination lands inside a subtree the other op
    /// deletes.
    MoveIntoDeleted,
    /// Deleted/moved subtree extents overlap (ancestor/descendant or
    /// equal), or such an extent overlaps the other op's relabel
    /// region.
    ExtentOverlap,
}

impl ConflictKind {
    /// Stable display name used in reports and benches.
    pub fn name(&self) -> &'static str {
        match self {
            ConflictKind::StructuralOverlap => "structural-overlap",
            ConflictKind::WriteAfterDelete => "write-after-delete",
            ConflictKind::TextText => "text-text",
            ConflictKind::MoveIntoDeleted => "move-into-deleted",
            ConflictKind::ExtentOverlap => "extent-overlap",
        }
    }
}

/// Why edge `from → to` constrains the pair's relative order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// `to` references a log id `from` creates.
    Dependency,
    /// The footprints collide; the taxonomy names how.
    Conflict(ConflictKind),
}

/// One ordered edge of the dependency/conflict graph. `from < to`
/// always holds: edges point forward in original log order, so the
/// graph is acyclic by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Earlier op (original index).
    pub from: usize,
    /// Later op (original index).
    pub to: usize,
    /// What couples the pair.
    pub kind: EdgeKind,
}

// ---------------------------------------------------------------------
// The analyzed plan: footprints + graph + certificates.
// ---------------------------------------------------------------------

/// The analyzer's output over one validated log: per-op footprints, the
/// dependency/conflict graph, and the derived certificates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzedPlan {
    /// Number of ops the plan covers (must match the log at apply
    /// time).
    len: usize,
    /// [`XmlTree::revision`] of the tree the plan was computed on (must
    /// match the tree at apply time).
    revision: u32,
    /// Per-op footprints, in log order.
    pub footprints: Vec<OpFootprint>,
    /// Dependency/conflict edges, `from < to`.
    pub edges: Vec<Edge>,
    /// Partition of `0..len` into provably independent components:
    /// no edge crosses components. Components are ordered by smallest
    /// member; members are in original order.
    pub components: Vec<Vec<usize>>,
    /// A canonical topological order of the graph: structure-building
    /// ops first (creates, then moves, replaces, deletes, text), ties
    /// broken by region start then original index. Respects every
    /// edge.
    pub canonical: Vec<usize>,
    /// Ops that are provably no-ops on every observable (a `SetText`
    /// writing the value the pre-batch node already holds, outside any
    /// deleted extent's shadow or not — either way droppable).
    pub redundant: Vec<usize>,
    /// Indices into `components` whose net effect on the document is
    /// nil: every created node is deleted again inside the component,
    /// and no pre-existing node is written, moved, or deleted.
    /// Cancelling them is a coalescing certificate — valid for
    /// document bytes and labels, though work counters shrink. The
    /// optimizer only consumes it for schemes claiming both
    /// [`order_independent`](DynScheme::order_independent) and
    /// [`cancellation_neutral`](DynScheme::cancellation_neutral):
    /// schemes whose insert path rewrites neighbour labels (Sector's
    /// interval respacing, DeweyID/DLN sibling renumbering) make a
    /// cancelled create+delete observable on surviving nodes.
    pub nil_components: Vec<usize>,
}

impl AnalyzedPlan {
    /// Number of ops covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for the empty plan.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// [`XmlTree::revision`] of the tree state the plan was made for.
    pub(crate) fn revision(&self) -> u32 {
        self.revision
    }

    /// The execution order the optimizer is certified to use. With
    /// `reorder` (granted when the session's scheme is
    /// [`order_independent`](DynScheme::order_independent)) the
    /// canonical topological order is used; otherwise original order.
    /// Redundant no-op writes are dropped in both cases; nil
    /// components are dropped only when `cancel` is also granted.
    pub fn execution_order(&self, reorder: bool, cancel: bool) -> Vec<usize> {
        let dropped: BTreeSet<usize> = self
            .redundant
            .iter()
            .copied()
            .chain(if cancel {
                self.nil_components
                    .iter()
                    .flat_map(|&c| self.components[c].iter().copied())
                    .collect::<Vec<_>>()
            } else {
                Vec::new()
            })
            .collect();
        let base: Vec<usize> = if reorder {
            self.canonical.clone()
        } else {
            (0..self.len).collect()
        };
        base.into_iter().filter(|i| !dropped.contains(i)).collect()
    }
}

// ---------------------------------------------------------------------
// Rows and extents read off the document's preorder index.
// ---------------------------------------------------------------------

/// The preorder row of pre-batch node `n` in `index`.
fn row(index: &PreorderIndex, n: NodeId) -> Result<u32, TreeError> {
    index
        .row_of_source(n)
        .map(|r| r as u32)
        .ok_or(TreeError::DanglingNodeId(n))
}

/// The subtree extent of pre-batch row `row` in `index`.
fn extent(index: &PreorderIndex, row: u32) -> Extent {
    Extent {
        start: row,
        end: index.extent(row as usize) as u32,
    }
}

/// Scratch state threaded through footprint extraction. Where a batch's
/// made nodes end up, and which of them it deletes, is the validator's
/// [`Shadow`]'s to know; the builder keeps only the regions each made
/// id hands on to the ops that anchor on it.
struct FootprintBuilder<'t> {
    tree: &'t XmlTree,
    idx: &'t PreorderIndex,
    /// Regions inherited by ids created under batch-made hosts.
    regions_of_new: BTreeMap<LogId, Vec<Extent>>,
}

impl<'t> FootprintBuilder<'t> {
    fn new(tree: &'t XmlTree, idx: &'t PreorderIndex) -> FootprintBuilder<'t> {
        FootprintBuilder {
            tree,
            idx,
            regions_of_new: BTreeMap::new(),
        }
    }

    /// Record a pre-batch node read (anchor or target).
    fn read(&self, fp: &mut OpFootprint, n: NodeId) -> Result<u32, TreeError> {
        let row = row(self.idx, n)?;
        fp.anchor_reads.push(row);
        Ok(row)
    }

    /// The row of pre-batch node `n`'s parent.
    fn parent_row(&self, n: NodeId) -> Result<u32, TreeError> {
        row(self.idx, self.tree.parent(n).ok_or(TreeError::NoParent(n))?)
    }

    /// Write the gap after `left` under pre-batch row `parent`, and push
    /// the parent's extent as the op's relabel region.
    fn gap(&self, fp: &mut OpFootprint, parent: u32, left: GapSlot) {
        fp.gap_writes.push(GapKey { parent, left });
        fp.regions.push(extent(self.idx, parent));
    }

    /// The gap slot after pre-batch node `n`, or the start slot.
    fn slot_after(&self, n: Option<NodeId>) -> Result<GapSlot, TreeError> {
        Ok(match n {
            Some(n) => GapSlot::AfterNode(row(self.idx, n)?),
            None => GapSlot::Start,
        })
    }

    /// Use batch-made id `l`, inheriting the regions it was made in.
    fn uses(&self, fp: &mut OpFootprint, l: LogId) {
        fp.uses.push(l);
        if let Some(rs) = self.regions_of_new.get(&l) {
            fp.regions.extend(rs.iter().copied());
        }
    }

    /// Make `id`, handing it this op's regions.
    fn creates(&mut self, fp: &mut OpFootprint, id: LogId) {
        fp.creates.push(id);
        self.regions_of_new.insert(id, fp.regions.clone());
    }

    /// Resolve `place` into gap/region/read facts on `fp`.
    fn place_footprint(&self, fp: &mut OpFootprint, place: Place) -> Result<(), TreeError> {
        match (place, place.anchor()) {
            (_, NodeRef::New(l)) => self.uses(fp, l),
            (Place::FirstChildOf(_), NodeRef::Node(p)) => {
                let prow = self.read(fp, p)?;
                self.gap(fp, prow, GapSlot::Start);
            }
            (Place::LastChildOf(_), NodeRef::Node(p)) => {
                let prow = self.read(fp, p)?;
                let left = self.slot_after(self.tree.last_child(p))?;
                self.gap(fp, prow, left);
            }
            (Place::Before(_), NodeRef::Node(s)) => {
                self.read(fp, s)?;
                let prow = self.parent_row(s)?;
                let left = self.slot_after(self.tree.prev_sibling(s))?;
                self.gap(fp, prow, left);
            }
            (Place::After(_), NodeRef::Node(s)) => {
                let srow = self.read(fp, s)?;
                let prow = self.parent_row(s)?;
                self.gap(fp, prow, GapSlot::AfterNode(srow));
            }
        }
        Ok(())
    }

    /// Footprint one mutation the shadow has accepted, handing regions
    /// on to the ids it makes as the scan walks the log in order.
    fn footprint(&mut self, m: &Mutation) -> Result<OpFootprint, TreeError> {
        let mut fp = OpFootprint::default();
        match m {
            Mutation::CreateElement { id, place, .. } | Mutation::CreateNode { id, place, .. } => {
                self.place_footprint(&mut fp, *place)?;
                self.creates(&mut fp, *id);
            }
            Mutation::SetText { target, .. } => match target {
                NodeRef::Node(t) => {
                    let row = self.read(&mut fp, *t)?;
                    fp.text_writes.push(PointRef::Pre(row));
                }
                NodeRef::New(l) => {
                    self.uses(&mut fp, *l);
                    fp.text_writes.push(PointRef::New(l.0));
                }
            },
            Mutation::Replace { target, id, .. } => {
                match target {
                    NodeRef::Node(t) => {
                        let trow = self.read(&mut fp, *t)?;
                        fp.deleted_extents.push(extent(self.idx, trow));
                        let prow = self.parent_row(*t)?;
                        self.gap(&mut fp, prow, GapSlot::Own(trow));
                    }
                    NodeRef::New(l) => self.uses(&mut fp, *l),
                }
                self.creates(&mut fp, *id);
            }
            Mutation::Delete { target } => match target {
                NodeRef::Node(t) => {
                    let trow = self.read(&mut fp, *t)?;
                    fp.deleted_extents.push(extent(self.idx, trow));
                    fp.regions.push(extent(self.idx, self.parent_row(*t)?));
                }
                NodeRef::New(l) => self.uses(&mut fp, *l),
            },
            Mutation::MoveSubtree { target, place } => {
                self.place_footprint(&mut fp, *place)?;
                match target {
                    NodeRef::Node(t) => {
                        let trow = self.read(&mut fp, *t)?;
                        fp.moved_extents.push(extent(self.idx, trow));
                        fp.regions.push(extent(self.idx, self.parent_row(*t)?));
                    }
                    NodeRef::New(l) => self.uses(&mut fp, *l),
                }
            }
        }
        Ok(fp)
    }
}

// ---------------------------------------------------------------------
// The analysis pass.
// ---------------------------------------------------------------------

/// Every pre-batch row an op's footprint *references* (anchors, targets,
/// text points, gap parents). Allocation-free: `classify` runs once per
/// potentially coupled pair, so per-call Vecs would dominate the scan.
fn referenced_rows(fp: &OpFootprint) -> impl Iterator<Item = u32> + '_ {
    fp.anchor_reads
        .iter()
        .copied()
        .chain(fp.gap_writes.iter().map(|g| g.parent))
        .chain(fp.text_writes.iter().filter_map(|t| match t {
            PointRef::Pre(r) => Some(*r),
            PointRef::New(_) => None,
        }))
}

/// Conservative per-op hulls for the pair scan: the smallest row
/// interval covering every pre-batch row the footprint mentions
/// (anchors, gap parents, text points, deleted/moved extents, relabel
/// regions) and the smallest log-id interval covering creates ∪ uses.
///
/// Every [`classify`] edge needs either two footprints that mention a
/// common pre-batch row neighbourhood (all five conflict kinds compare
/// rows drawn from the sets above) or a shared log id (dependencies,
/// and text/text on a batch-created point — `SetText` on a `New` ref
/// records the id in `uses`). Disjoint hulls on *both* axes therefore
/// prove the pair edge-free, and the O(k²) scan can skip `classify`
/// entirely — turning the common case (localized batches with disjoint
/// footprints) into a cheap interval test per pair.
#[derive(Clone, Copy)]
struct PairBounds {
    /// Row hull `[row_lo, row_hi)`; empty when `row_lo >= row_hi`.
    row_lo: u32,
    row_hi: u32,
    /// Log-id hull `[id_lo, id_hi]`; empty when `id_lo > id_hi`.
    id_lo: u32,
    id_hi: u32,
}

impl PairBounds {
    fn of(fp: &OpFootprint) -> PairBounds {
        let mut b = PairBounds {
            row_lo: u32::MAX,
            row_hi: 0,
            id_lo: u32::MAX,
            id_hi: 0,
        };
        let mut row = |r: u32| {
            b.row_lo = b.row_lo.min(r);
            b.row_hi = b.row_hi.max(r.saturating_add(1));
        };
        for &r in &fp.anchor_reads {
            row(r);
        }
        for g in &fp.gap_writes {
            row(g.parent);
        }
        for t in &fp.text_writes {
            if let PointRef::Pre(r) = t {
                row(*r);
            }
        }
        for e in fp
            .deleted_extents
            .iter()
            .chain(fp.moved_extents.iter())
            .chain(fp.regions.iter())
        {
            if e.start < e.end {
                b.row_lo = b.row_lo.min(e.start);
                b.row_hi = b.row_hi.max(e.end);
            }
        }
        for l in fp.creates.iter().chain(fp.uses.iter()) {
            b.id_lo = b.id_lo.min(l.0);
            b.id_hi = b.id_hi.max(l.0);
        }
        b
    }

    /// Can ops with these hulls possibly produce an edge? False only
    /// when both the row hulls and the id hulls are provably disjoint.
    fn may_conflict(&self, other: &PairBounds) -> bool {
        let rows = self.row_lo < other.row_hi && other.row_lo < self.row_hi;
        let ids = self.id_lo <= other.id_hi && other.id_lo <= self.id_hi;
        rows || ids
    }
}

/// Classify the coupling between ops `i < j`, if any. Precedence:
/// dependency, text/text, move-into-deleted, write-after-delete,
/// extent overlap, structural overlap.
fn classify(
    a: &OpFootprint,
    b: &OpFootprint,
    b_is_move: bool,
    a_is_move: bool,
) -> Option<EdgeKind> {
    // Dependency: b uses an id a creates (forward refs only).
    if b.uses.iter().any(|u| a.creates.contains(u)) {
        return Some(EdgeKind::Dependency);
    }
    // Text/text: same point written twice.
    if a.text_writes.iter().any(|t| b.text_writes.contains(t)) {
        return Some(EdgeKind::Conflict(ConflictKind::TextText));
    }
    // Move-into-deleted: a move's destination gap parent sits inside
    // the other op's deleted extent.
    let move_into = |mv: &OpFootprint, del: &OpFootprint| {
        mv.gap_writes
            .iter()
            .any(|g| del.deleted_extents.iter().any(|e| e.contains(g.parent)))
    };
    if (b_is_move && move_into(b, a)) || (a_is_move && move_into(a, b)) {
        return Some(EdgeKind::Conflict(ConflictKind::MoveIntoDeleted));
    }
    // Write-after-delete: one op references a row the other deletes.
    let touches_deleted = |x: &OpFootprint, del: &OpFootprint| {
        referenced_rows(x).any(|r| del.deleted_extents.iter().any(|e| e.contains(r)))
    };
    if touches_deleted(a, b) || touches_deleted(b, a) {
        return Some(EdgeKind::Conflict(ConflictKind::WriteAfterDelete));
    }
    // Extent overlap: deleted/moved extents collide with each other or
    // with the other op's relabel regions.
    fn extents(x: &OpFootprint) -> impl Iterator<Item = &Extent> + '_ {
        x.deleted_extents.iter().chain(x.moved_extents.iter())
    }
    if extents(a).any(|x| extents(b).any(|y| x.overlaps(y)))
        || extents(a).any(|x| b.regions.iter().any(|y| x.overlaps(y)))
        || extents(b).any(|x| a.regions.iter().any(|y| x.overlaps(y)))
    {
        return Some(EdgeKind::Conflict(ConflictKind::ExtentOverlap));
    }
    // Structural overlap: same gap key, or overlapping relabel
    // regions.
    if a.gap_writes.iter().any(|g| b.gap_writes.contains(g))
        || a.regions
            .iter()
            .any(|x| b.regions.iter().any(|y| x.overlaps(y)))
    {
        return Some(EdgeKind::Conflict(ConflictKind::StructuralOverlap));
    }
    None
}

fn class_rank(m: &Mutation) -> u8 {
    match m {
        Mutation::CreateElement { .. } | Mutation::CreateNode { .. } => 0,
        Mutation::MoveSubtree { .. } => 1,
        Mutation::Replace { .. } => 2,
        Mutation::Delete { .. } => 3,
        Mutation::SetText { .. } => 4,
    }
}

/// Minimal-key Kahn topological sort: among ready ops, emit the one
/// with the smallest (class rank, region start, original index) key —
/// a *canonical* order that genuinely regroups work (creates first,
/// region-major) instead of echoing the input order.
fn canonical_order(ops: &[Mutation], fps: &[OpFootprint], edges: &[Edge]) -> Vec<usize> {
    let n = ops.len();
    let mut indegree = vec![0usize; n];
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in edges {
        indegree[e.to] += 1;
        succ[e.from].push(e.to);
    }
    let key = |i: usize| {
        let start = fps[i]
            .regions
            .iter()
            .map(|r| r.start)
            .min()
            .unwrap_or(u32::MAX);
        (class_rank(&ops[i]), start, i)
    };
    let mut ready: BTreeSet<(u8, u32, usize)> =
        (0..n).filter(|&i| indegree[i] == 0).map(key).collect();
    let mut out = Vec::with_capacity(n);
    while let Some(&k) = ready.iter().next() {
        ready.remove(&k);
        let i = k.2;
        out.push(i);
        for &j in &succ[i] {
            indegree[j] -= 1;
            if indegree[j] == 0 {
                ready.insert(key(j));
            }
        }
    }
    out
}

/// Union-find over op indices.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n).collect(),
        }
    }
    fn find(&mut self, i: usize) -> usize {
        let mut r = i;
        while self.parent[r] != r {
            r = self.parent[r];
        }
        let mut cur = i;
        while self.parent[cur] != r {
            let next = self.parent[cur];
            self.parent[cur] = r;
            cur = next;
        }
        r
    }
    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

/// Run the full static analysis over a log against `index`, the
/// document's preorder index of `tree`, in one walk: each op is checked
/// by the validator's shadow simulation and then footprinted, and the
/// result-level checks follow the last op, so a rejected log fails with
/// [`validate`](crate::mutations::validate)'s error. Then build the
/// dependency/conflict graph and derive every certificate. Pure — tree
/// and index are only read. An index made for another tree state is
/// rejected with [`TreeError::Invariant`].
pub fn analyze_in(
    log: &MutationLog,
    tree: &XmlTree,
    index: &PreorderIndex,
) -> Result<AnalyzedPlan, TreeError> {
    index.check_current(tree)?;
    let n = log.len();
    let ops = log.ops();

    let mut shadow = Shadow::new(tree);
    let mut builder = FootprintBuilder::new(tree, index);
    let mut footprints = Vec::with_capacity(n);
    for m in ops {
        shadow.step(m)?;
        footprints.push(builder.footprint(m)?);
    }
    shadow.finish()?;

    // Graph: every pair, forward edges only. The hull prefilter keeps
    // the scan quadratic only in *potentially coupled* pairs — for
    // disjoint-footprint batches each pair costs two interval tests.
    let bounds: Vec<PairBounds> = footprints.iter().map(PairBounds::of).collect();
    let is_move: Vec<bool> = ops
        .iter()
        .map(|m| matches!(m, Mutation::MoveSubtree { .. }))
        .collect();
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if !bounds[i].may_conflict(&bounds[j]) {
                continue;
            }
            if let Some(kind) = classify(&footprints[i], &footprints[j], is_move[j], is_move[i]) {
                edges.push(Edge {
                    from: i,
                    to: j,
                    kind,
                });
            }
        }
    }

    // Components.
    let mut dsu = Dsu::new(n);
    for e in &edges {
        dsu.union(e.from, e.to);
    }
    let mut by_root: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..n {
        let r = dsu.find(i);
        by_root.entry(r).or_default().push(i);
    }
    let components: Vec<Vec<usize>> = by_root.into_values().collect();

    // Certificate: canonical topological order.
    let canonical = canonical_order(ops, &footprints, &edges);

    // Certificate: redundant no-op text writes.
    let mut redundant = Vec::new();
    for (i, m) in ops.iter().enumerate() {
        if let Mutation::SetText {
            target: NodeRef::Node(t),
            text,
        } = m
        {
            if tree.is_alive(*t) {
                if let NodeKind::Text { value } = tree.kind(*t) {
                    if value == text {
                        redundant.push(i);
                    }
                }
            }
        }
    }

    // Certificate: nil components (create+delete cancellation): no
    // member deletes, moves or writes a pre-batch node, and every node
    // the members make is gone from the batch's result.
    let touches_pre = |fp: &OpFootprint| {
        !fp.deleted_extents.is_empty()
            || !fp.moved_extents.is_empty()
            || fp.text_writes.iter().any(|t| matches!(t, PointRef::Pre(_)))
    };
    let nil_components = components
        .iter()
        .enumerate()
        .filter(|(_, members)| {
            let fps = || members.iter().map(|&i| &footprints[i]);
            !fps().any(touches_pre)
                && fps().any(|fp| !fp.creates.is_empty())
                && fps()
                    .flat_map(|fp| &fp.creates)
                    .all(|&l| shadow.consumed(NodeRef::New(l)))
        })
        .map(|(c, _)| c)
        .collect();

    Ok(AnalyzedPlan {
        len: n,
        revision: tree.revision(),
        footprints,
        edges,
        components,
        canonical,
        redundant,
        nil_components,
    })
}

/// [`analyze_in`] against a preorder index encoded from `tree` for this
/// call alone.
pub fn analyze(log: &MutationLog, tree: &XmlTree) -> Result<AnalyzedPlan, TreeError> {
    analyze_in(log, tree, &PreorderIndex::encode(tree)?)
}

// ---------------------------------------------------------------------
// Certificate consumer: the batch optimizer.
// ---------------------------------------------------------------------

/// How a validated log should be applied through its analyzed plan —
/// the one knob set of the write path (`Document::apply_planned`, the
/// flux DSL's `update`). Each certificate is *requested* here and
/// *granted* only when the session's scheme claims the matching
/// capability, so an option set is always safe to pass: on a scheme
/// without the capability it degrades to sequential order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ApplyOptions {
    /// Request the canonical reorder certificate (granted only for
    /// [`order_independent`](DynScheme::order_independent) schemes).
    pub reorder: bool,
    /// Request nil-component cancellation (granted only when the
    /// scheme also claims
    /// [`cancellation_neutral`](DynScheme::cancellation_neutral)).
    pub coalesce: bool,
}

impl Default for ApplyOptions {
    fn default() -> Self {
        ApplyOptions::analyzed()
    }
}

impl ApplyOptions {
    /// Original op order, no cancellation — byte- and counter-identical
    /// to [`apply_log_dyn`](crate::mutations::apply_log_dyn) modulo
    /// `peak_label_bits` sampling instants.
    pub fn sequential() -> ApplyOptions {
        ApplyOptions {
            reorder: false,
            coalesce: false,
        }
    }

    /// Request the canonical reorder. Work counters (`inserts`,
    /// `deletes`, `relabeled`) still match sequential apply exactly.
    /// This is the default.
    pub fn analyzed() -> ApplyOptions {
        ApplyOptions {
            reorder: true,
            coalesce: false,
        }
    }

    /// Request reorder *and* nil-component cancellation: nil components
    /// are skipped entirely when the scheme claims both capabilities.
    /// Document bytes and final labels match sequential apply; the work
    /// counters intentionally shrink — that saved work is the coalesce
    /// ratio the bench reports.
    pub fn coalesced() -> ApplyOptions {
        ApplyOptions {
            reorder: true,
            coalesce: true,
        }
    }

    /// Intersect the requested certificates with the scheme's declared
    /// capabilities, yielding the `(reorder, cancel)` pair actually
    /// granted. Cancellation additionally requires reorder, matching
    /// [`AnalyzedPlan::execution_order`]'s contract.
    pub fn granted(self, order_independent: bool, cancellation_neutral: bool) -> (bool, bool) {
        let reorder = self.reorder && order_independent;
        let cancel = self.coalesce && reorder && cancellation_neutral;
        (reorder, cancel)
    }
}

/// Apply `log` through `plan` in the order certified by `opts` and the
/// session's capabilities. The plan must have been computed by
/// [`analyze`] for this log on this exact tree state; anything else is
/// rejected with [`TreeError::Invariant`] before the tree is touched.
/// The analysis already validated the log, so it is not validated
/// again; redundant no-op writes are dropped. Atomic like
/// [`apply_log_dyn`](crate::mutations::apply_log_dyn): any failure rolls
/// tree and session back.
pub fn apply_plan_with_dyn(
    tree: &mut XmlTree,
    session: &mut dyn DynScheme,
    log: &MutationLog,
    plan: &AnalyzedPlan,
    opts: ApplyOptions,
) -> Result<DriveStats, TreeError> {
    if plan.len != log.len() {
        return Err(TreeError::Invariant(
            "analyzed plan does not cover this log".to_string(),
        ));
    }
    if plan.revision != tree.revision() {
        return Err(TreeError::Invariant(
            "analyzed plan was made for another tree state".to_string(),
        ));
    }
    let (reorder, cancel) =
        opts.granted(session.order_independent(), session.cancellation_neutral());
    let order = plan.execution_order(reorder, cancel);
    let ops = log.ops();
    apply_atomic(tree, session, order.iter().map(|&i| &ops[i]))
}

// ---------------------------------------------------------------------
// Tests.
// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_xmldom::parse;

    fn doc() -> XmlTree {
        parse("<r><a><x>1</x><y>2</y></a><b><z>3</z></b><c/></r>").unwrap()
    }

    fn elem(n: &XmlTree, name: &str) -> NodeId {
        n.ids_in_doc_order()
            .into_iter()
            .find(|&id| matches!(n.kind(id), NodeKind::Element { name: e } if e == name))
            .unwrap()
    }

    fn text_node(n: &XmlTree, value: &str) -> NodeId {
        n.ids_in_doc_order()
            .into_iter()
            .find(|&id| matches!(n.kind(id), NodeKind::Text { value: v } if v == value))
            .unwrap()
    }

    #[test]
    fn disjoint_subtree_edits_partition() {
        let t = doc();
        let log = MutationLog::from(vec![
            Mutation::CreateElement {
                id: LogId(0),
                name: "p".into(),
                place: Place::LastChildOf(NodeRef::Node(elem(&t, "a"))),
            },
            Mutation::CreateElement {
                id: LogId(1),
                name: "q".into(),
                place: Place::LastChildOf(NodeRef::Node(elem(&t, "b"))),
            },
            Mutation::SetText {
                target: NodeRef::Node(text_node(&t, "3")),
                text: "30".into(),
            },
        ]);
        let plan = analyze(&log, &t).unwrap();
        // a-create is independent of the b-subtree pair; the SetText
        // inside <b> shares no footprint with the structural create
        // under <b> (text points don't collide with sibling gaps), so
        // all three ops are mutually independent here.
        assert_eq!(plan.components, vec![vec![0], vec![1], vec![2]]);
        assert!(plan.edges.is_empty());
    }

    #[test]
    fn same_parent_creates_conflict_structurally() {
        let t = doc();
        let a = elem(&t, "a");
        let log = MutationLog::from(vec![
            Mutation::CreateElement {
                id: LogId(0),
                name: "p".into(),
                place: Place::FirstChildOf(NodeRef::Node(a)),
            },
            Mutation::CreateElement {
                id: LogId(1),
                name: "q".into(),
                place: Place::LastChildOf(NodeRef::Node(a)),
            },
        ]);
        let plan = analyze(&log, &t).unwrap();
        assert_eq!(plan.components.len(), 1);
        assert!(matches!(
            plan.edges[0].kind,
            EdgeKind::Conflict(ConflictKind::StructuralOverlap)
        ));
    }

    /// The hull prefilter in `analyze` must be invisible: its edge set
    /// is pinned to the unfiltered all-pairs `classify` scan on a
    /// mixed batch exercising every op family (creates under shared
    /// and distinct parents, text on pre-batch and batch-created
    /// points, delete, move).
    #[test]
    fn pair_prefilter_matches_brute_force_scan() {
        let t =
            parse("<r><a><x>1</x><y>2</y></a><b><z>3</z></b><c><w>4</w></c><d/><e/></r>").unwrap();
        let log = MutationLog::from(vec![
            Mutation::CreateElement {
                id: LogId(0),
                name: "p".into(),
                place: Place::LastChildOf(NodeRef::Node(elem(&t, "a"))),
            },
            Mutation::CreateElement {
                id: LogId(1),
                name: "q".into(),
                place: Place::LastChildOf(NodeRef::Node(elem(&t, "a"))),
            },
            Mutation::CreateNode {
                id: LogId(2),
                kind: NodeKind::Text {
                    value: String::new(),
                },
                place: Place::FirstChildOf(NodeRef::Node(elem(&t, "d"))),
            },
            Mutation::SetText {
                target: NodeRef::New(LogId(2)),
                text: "fresh".into(),
            },
            Mutation::SetText {
                target: NodeRef::Node(text_node(&t, "3")),
                text: "30".into(),
            },
            Mutation::Delete {
                target: NodeRef::Node(elem(&t, "c")),
            },
            Mutation::MoveSubtree {
                target: NodeRef::Node(elem(&t, "b")),
                place: Place::LastChildOf(NodeRef::Node(elem(&t, "e"))),
            },
        ]);
        let plan = analyze(&log, &t).unwrap();
        let ops: Vec<&Mutation> = log.iter().collect();
        let mut brute = Vec::new();
        for i in 0..ops.len() {
            for j in (i + 1)..ops.len() {
                let a_mv = matches!(ops[i], Mutation::MoveSubtree { .. });
                let b_mv = matches!(ops[j], Mutation::MoveSubtree { .. });
                if let Some(kind) = classify(&plan.footprints[i], &plan.footprints[j], b_mv, a_mv) {
                    brute.push(Edge {
                        from: i,
                        to: j,
                        kind,
                    });
                }
            }
        }
        assert!(!brute.is_empty(), "scenario must produce real edges");
        assert_eq!(plan.edges, brute);
        // And the filter genuinely skips pairs here: the two disjoint
        // creates (ops 0/2) must share neither rows nor ids.
        let b0 = PairBounds::of(&plan.footprints[0]);
        let b2 = PairBounds::of(&plan.footprints[2]);
        assert!(!b0.may_conflict(&b2));
    }

    #[test]
    fn write_after_delete_is_named() {
        let t = doc();
        let log = MutationLog::from(vec![
            Mutation::Delete {
                target: NodeRef::Node(elem(&t, "a")),
            },
            Mutation::SetText {
                target: NodeRef::Node(text_node(&t, "1")),
                text: "10".into(),
            },
        ]);
        // Invalid as a batch (writes a consumed node) — analyze must
        // reject it exactly like validate does.
        assert!(analyze(&log, &t).is_err());
    }

    /// Each batch below couples its two ops with exactly one edge, of
    /// the named kind. `TextText` has no case: `validate` rejects a
    /// second write to one text point, so no valid batch carries it.
    #[test]
    fn analyze_names_each_conflict_kind() {
        let t = doc();
        let delete = |name: &str| Mutation::Delete {
            target: NodeRef::Node(elem(&t, name)),
        };
        let cases = [
            (
                Mutation::MoveSubtree {
                    target: NodeRef::Node(elem(&t, "c")),
                    place: Place::LastChildOf(NodeRef::Node(elem(&t, "a"))),
                },
                delete("a"),
                ConflictKind::MoveIntoDeleted,
            ),
            (
                Mutation::SetText {
                    target: NodeRef::Node(text_node(&t, "3")),
                    text: "30".into(),
                },
                delete("b"),
                ConflictKind::WriteAfterDelete,
            ),
            (
                Mutation::CreateElement {
                    id: LogId(0),
                    name: "p".into(),
                    place: Place::After(NodeRef::Node(elem(&t, "b"))),
                },
                delete("a"),
                ConflictKind::ExtentOverlap,
            ),
        ];
        for (first, second, kind) in cases {
            let plan = analyze(&MutationLog::from(vec![first, second]), &t).unwrap();
            let edge = Edge {
                from: 0,
                to: 1,
                kind: EdgeKind::Conflict(kind),
            };
            assert_eq!(plan.edges, vec![edge], "{}", kind.name());
        }
    }

    #[test]
    fn redundant_settext_detected() {
        let t = doc();
        let log = MutationLog::from(vec![Mutation::SetText {
            target: NodeRef::Node(text_node(&t, "2")),
            text: "2".into(),
        }]);
        let plan = analyze(&log, &t).unwrap();
        assert_eq!(plan.redundant, vec![0]);
    }

    #[test]
    fn create_delete_cancellation() {
        let t = doc();
        let log = MutationLog::from(vec![
            Mutation::CreateElement {
                id: LogId(0),
                name: "tmp".into(),
                place: Place::LastChildOf(NodeRef::Node(elem(&t, "c"))),
            },
            Mutation::CreateElement {
                id: LogId(1),
                name: "inner".into(),
                place: Place::FirstChildOf(NodeRef::New(LogId(0))),
            },
            Mutation::Delete {
                target: NodeRef::New(LogId(0)),
            },
        ]);
        let plan = analyze(&log, &t).unwrap();
        assert_eq!(plan.components.len(), 1);
        assert_eq!(plan.nil_components, vec![0]);
    }

    #[test]
    fn escaped_creation_is_not_nil() {
        let t = doc();
        let log = MutationLog::from(vec![
            Mutation::CreateElement {
                id: LogId(0),
                name: "tmp".into(),
                place: Place::LastChildOf(NodeRef::Node(elem(&t, "c"))),
            },
            Mutation::CreateElement {
                id: LogId(1),
                name: "keeper".into(),
                place: Place::FirstChildOf(NodeRef::New(LogId(0))),
            },
            // The inner node escapes before its host dies.
            Mutation::MoveSubtree {
                target: NodeRef::New(LogId(1)),
                place: Place::LastChildOf(NodeRef::Node(elem(&t, "b"))),
            },
            Mutation::Delete {
                target: NodeRef::New(LogId(0)),
            },
        ]);
        let plan = analyze(&log, &t).unwrap();
        assert!(plan.nil_components.is_empty());
    }

    #[test]
    fn canonical_order_respects_edges_and_regroups() {
        let t = doc();
        let log = MutationLog::from(vec![
            Mutation::SetText {
                target: NodeRef::Node(text_node(&t, "3")),
                text: "z".into(),
            },
            Mutation::CreateElement {
                id: LogId(0),
                name: "p".into(),
                place: Place::LastChildOf(NodeRef::Node(elem(&t, "c"))),
            },
        ]);
        let plan = analyze(&log, &t).unwrap();
        // Independent text write and create: canonical order puts the
        // structure-building op first.
        assert_eq!(plan.canonical, vec![1, 0]);
        // Every edge is respected by construction (none here).
        assert!(plan.edges.is_empty());
    }

    #[test]
    fn index_of_another_tree_state_is_rejected() {
        let mut t = doc();
        let index = PreorderIndex::encode(&t).unwrap();
        let log = MutationLog::from(vec![Mutation::Delete {
            target: NodeRef::Node(elem(&t, "c")),
        }]);
        assert_eq!(
            analyze_in(&log, &t, &index).unwrap(),
            analyze(&log, &t).unwrap()
        );
        // a text write moves the revision as much as a structural edit
        *t.kind_mut(text_node(&t, "1")) = NodeKind::Text {
            value: "10".to_string(),
        };
        let err = analyze_in(&log, &t, &index).unwrap_err();
        assert!(matches!(err, TreeError::Invariant(_)), "{err}");
    }

    #[test]
    fn plan_len_mismatch_is_rejected() {
        let mut t = doc();
        let log = MutationLog::from(vec![Mutation::Delete {
            target: NodeRef::Node(elem(&t, "c")),
        }]);
        let plan = analyze(&log, &t).unwrap();
        let mut session = xupd_schemes::registry()[0].session();
        session.label_tree(&t).unwrap();
        let other = MutationLog::new();
        let err = apply_plan_with_dyn(
            &mut t,
            session.as_mut(),
            &other,
            &plan,
            ApplyOptions::default(),
        );
        assert!(matches!(err, Err(TreeError::Invariant(_))));
    }
}
