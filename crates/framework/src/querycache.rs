//! Incremental XPath result maintenance: footprint-driven cache
//! invalidation instead of whole-snapshot discard.
//!
//! A [`QueryCache`] holds materialized result sets (preorder row
//! positions, plus string values where requested) for a registered set
//! of compiled XPath queries, and keeps them exact across
//! [`MutationLog`] batches by *impact
//! analysis* instead of wholesale re-evaluation. Genevès, Layaïda and
//! Quint (arXiv 0811.4324) decide statically whether an evolution can
//! affect a query; here the same decision runs dynamically per batch,
//! by intersecting the batch's aggregate write footprint — the touched
//! extents, deleted/moved subtrees and relabel regions
//! [`analyze`](crate::analysis::analyze) already computes — with each
//! query's static [`AccessPattern`] (name tests resolved through the
//! [`NameIndex`] buckets, axis reach as extent intervals).
//!
//! Every registered query lands in one of three classes per batch:
//!
//! * **unaffected** — the cached rows and strings are provably still
//!   exact: the query's name tests never occur inside any touched
//!   extent (old or new coordinates), every cached row precedes the
//!   first touched row (so no preorder shift reaches it), and — when
//!   strings are cached — no cached result's subtree overlaps a
//!   touched extent or a surviving text write. Kept verbatim, zero
//!   work.
//! * **repairable** — the plan is downward-only with no positional
//!   predicate on a subtree-wide axis
//!   ([`AccessPattern::repair_safe`]): results outside the touched
//!   extents are membership-stable, so the old rows are remapped
//!   through their stable [`NodeId`]s, rows falling inside touched
//!   extents are dropped, and a scoped
//!   [`AccessPattern::evaluate_within`] over just the touched extents
//!   produces the splice. Strings are recomputed only for fresh rows
//!   and for kept rows whose subtree overlaps a touched extent or a
//!   text write.
//! * **dirty** — anything else (upward/lateral axes, touched coverage
//!   over half the document): full re-evaluation, the correct
//!   fallback.
//!
//! The cache evaluates against its own **shadow table**: an
//! [`EncodedDocument`] under a private unit-label scheme whose labels
//! are plain preorder positions. The streaming evaluator never reads
//! labels (axes run on the [`Topology`](xupd_encoding::Topology)
//! sidecar), so results are identical to evaluating the document's
//! real snapshot — but keeping the shadow current never pays the
//! document's actual label algebra. A structural batch splices the
//! shadow in place ([`EncodedDocument::splice`]): finding what the
//! batch changed costs O(batch), through its exact edits (deleted and
//! moved subtree roots, created nodes), not its relabel regions; the
//! rest is O(n) shifting of the rows that stayed, with no per-row
//! allocation. A text-only batch patches text rows in place. The full
//! re-encode is left for registration, [`QueryCache::refresh`], and
//! the fallback when a splice finds its input inconsistent.
//!
//! Staleness safety: the cache only ever serves results derived from
//! the shadow table of the current tree. Updates that bypass the
//! mutation-log path (the raw script driver) mark the cache stale;
//! a stale cache refuses incremental maintenance and fully refreshes
//! on the next read. The differential suite
//! (`crates/framework/tests/querycache_differential.rs`) pins every
//! served result byte-identical to a fresh evaluation.

use crate::analysis::{AnalyzedPlan, PointRef};
use crate::mutations::{Mutation, MutationLog, NodeRef};
use std::cmp::Ordering;
use xupd_encoding::{row_in_extents, AccessPattern, EncodedDocument, NameIndex, XPathExpr};
use xupd_labelcore::{
    Compliance, EncodingRep, InsertReport, Label, Labeling, LabelingScheme, OrderKind, Relation,
    SchemeDescriptor, SchemeStats,
};
use xupd_xmldom::{NodeId, TreeError, XmlTree};

// ---------------------------------------------------------------------
// The shadow scheme
// ---------------------------------------------------------------------

/// Label of the shadow table: the node's preorder position. Never
/// consulted by the evaluator — it exists to satisfy the encoding
/// table's scheme parameter at near-zero cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct ShadowLabel(u32);

impl Label for ShadowLabel {
    fn size_bits(&self) -> u64 {
        32
    }
    fn display(&self) -> String {
        self.0.to_string()
    }
}

/// The cache's private labelling scheme: plain preorder enumeration.
/// One O(n) pass per (re)build, no order codes, no prime products, no
/// bit strings — the whole point of the shadow table is that query
/// maintenance never pays the document's real label algebra.
#[derive(Debug, Clone, Default)]
struct ShadowScheme {
    stats: SchemeStats,
}

impl LabelingScheme for ShadowScheme {
    type Label = ShadowLabel;

    fn name(&self) -> &'static str {
        "Shadow(querycache)"
    }

    fn descriptor(&self) -> SchemeDescriptor {
        SchemeDescriptor {
            name: "Shadow(querycache)",
            citation: "[internal]",
            order: OrderKind::Global,
            encoding: EncodingRep::Fixed,
            declared: [Compliance::None; 8],
            in_figure7: false,
        }
    }

    fn label_tree(&mut self, tree: &XmlTree) -> Result<Labeling<ShadowLabel>, TreeError> {
        let mut l = Labeling::with_capacity_for(tree);
        for (i, id) in tree.ids_in_doc_order().into_iter().enumerate() {
            l.set(id, ShadowLabel(i as u32));
        }
        Ok(l)
    }

    fn on_insert(
        &mut self,
        tree: &XmlTree,
        labeling: &mut Labeling<ShadowLabel>,
        node: NodeId,
    ) -> Result<InsertReport, TreeError> {
        // The cache never drives per-op inserts — it splices the
        // shadow once per structural batch, relabelling every row by
        // its new position — but the scheme protocol must still hold
        // for standalone use: renumber.
        if !tree.is_alive(node) {
            return Err(TreeError::DanglingNodeId(node));
        }
        for (i, id) in tree.ids_in_doc_order().into_iter().enumerate() {
            labeling.set(id, ShadowLabel(i as u32));
        }
        Ok(InsertReport::clean())
    }

    fn cmp_doc(&self, a: &ShadowLabel, b: &ShadowLabel) -> Ordering {
        a.cmp(b)
    }

    fn relation(&self, _rel: Relation, _a: &ShadowLabel, _b: &ShadowLabel) -> Option<bool> {
        None
    }

    fn level(&self, _a: &ShadowLabel) -> Option<u32> {
        None
    }

    fn stats(&self) -> &SchemeStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

// ---------------------------------------------------------------------
// Public observability types
// ---------------------------------------------------------------------

/// Identifier returned by [`QueryCache::register`]; stable for the
/// cache's lifetime.
pub type QueryId = usize;

/// What one batch did to one registered query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    /// Cached rows and strings kept verbatim — zero work.
    Unaffected,
    /// Delta-repaired: remap survivors, splice a scoped re-evaluation
    /// of the touched extents.
    Repaired,
    /// Fully re-evaluated.
    Rebuilt,
}

/// Per-batch impact summary returned by [`QueryCache::absorb`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchImpact {
    /// The batch only rewrote pre-existing text nodes: the shadow was
    /// patched in place, no structural maintenance ran.
    pub text_only: bool,
    /// Queries kept verbatim.
    pub unaffected: usize,
    /// Queries delta-repaired.
    pub repaired: usize,
    /// Queries fully re-evaluated.
    pub rebuilt: usize,
    /// Cached rows dropped by repairs (deleted or re-derived).
    pub dropped_rows: u64,
    /// Rows spliced in by scoped re-evaluation.
    pub spliced_rows: u64,
    /// Per-query classification, indexed by [`QueryId`].
    pub classes: Vec<QueryClass>,
}

/// Cumulative cache counters, observable alongside the document's
/// `snapshot_rebuilds`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cached reads served ([`QueryCache::hit`]).
    pub hits: u64,
    /// Batches absorbed incrementally.
    pub batches_absorbed: u64,
    /// Query×batch outcomes kept verbatim.
    pub unaffected: u64,
    /// Query×batch outcomes delta-repaired.
    pub repaired: u64,
    /// Query×batch outcomes fully re-evaluated (includes stale-refresh
    /// rebuilds).
    pub rebuilt: u64,
    /// Rows dropped across all repairs.
    pub repair_dropped_rows: u64,
    /// Rows spliced in across all repairs.
    pub repair_spliced_rows: u64,
    /// String values recomputed outside full rebuilds.
    pub string_patches: u64,
}

struct CachedQuery {
    pattern: AccessPattern,
    want_strings: bool,
    rows: Vec<usize>,
    /// Parallel to `rows` when `want_strings`, empty otherwise.
    strings: Vec<String>,
    /// Test seam: force the unaffected classification regardless of
    /// impact — exists so the differential suite can prove a
    /// misclassification is observable.
    force_unaffected: bool,
}

/// Materialized result sets for registered XPath queries, maintained
/// incrementally across mutation-log batches. See the module docs for
/// the classification lattice and the repair algorithm.
#[derive(Default)]
pub struct QueryCache {
    shadow: Option<EncodedDocument<ShadowScheme>>,
    queries: Vec<CachedQuery>,
    stats: CacheStats,
    stale: bool,
}

impl QueryCache {
    /// An empty cache.
    pub fn new() -> Self {
        QueryCache::default()
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// True when no query is registered.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// True when an un-analyzed update bypassed the cache and the next
    /// read must fully refresh.
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    /// Record that the tree changed outside the mutation-log path. The
    /// cache serves nothing until [`refresh`](Self::refresh) runs.
    pub fn mark_stale(&mut self) {
        self.stale = true;
    }

    /// Register a parsed query; the result set is materialized
    /// immediately against `tree`. With `want_strings`, XPath string
    /// values are cached alongside the rows.
    pub fn register(
        &mut self,
        expr: &XPathExpr,
        want_strings: bool,
        tree: &XmlTree,
    ) -> Result<QueryId, TreeError> {
        let pattern = expr.access_pattern();
        if self.stale {
            self.refresh(tree)?;
        }
        if self.shadow.is_none() {
            self.shadow = Some(EncodedDocument::encode(ShadowScheme::default(), tree)?);
        }
        let (rows, strings) = match &self.shadow {
            Some(shadow) => {
                let rows = pattern.evaluate(shadow);
                let strings = if want_strings {
                    rows.iter().map(|&r| shadow.string_value(r)).collect()
                } else {
                    Vec::new()
                };
                (rows, strings)
            }
            None => {
                return Err(TreeError::Invariant(
                    "query cache shadow table missing after build".to_string(),
                ))
            }
        };
        self.queries.push(CachedQuery {
            pattern,
            want_strings,
            rows,
            strings,
            force_unaffected: false,
        });
        Ok(self.queries.len() - 1)
    }

    /// The cached result rows of `q` (preorder positions into the
    /// current document), counting a cache hit.
    pub fn hit(&mut self, q: QueryId) -> &[usize] {
        self.stats.hits += 1;
        self.rows(q)
    }

    /// The cached result rows of `q` without counting a hit.
    pub fn rows(&self, q: QueryId) -> &[usize] {
        self.queries.get(q).map_or(&[], |c| c.rows.as_slice())
    }

    /// The cached string values of `q` (empty unless registered with
    /// `want_strings`).
    pub fn strings(&self, q: QueryId) -> &[String] {
        self.queries.get(q).map_or(&[], |c| c.strings.as_slice())
    }

    /// Test seam: force `q` to classify as unaffected on every
    /// subsequent batch. Exists so the differential suite can prove
    /// that a deliberately corrupted classification is caught — never
    /// use outside tests.
    #[doc(hidden)]
    pub fn force_unaffected(&mut self, q: QueryId, on: bool) {
        if let Some(c) = self.queries.get_mut(q) {
            c.force_unaffected = on;
        }
    }

    /// Rebuild the shadow table and every result set from scratch
    /// against `tree`, clearing staleness. The heavy-handed fallback —
    /// [`absorb`](Self::absorb) is the incremental path.
    pub fn refresh(&mut self, tree: &XmlTree) -> Result<(), TreeError> {
        let shadow = EncodedDocument::encode(ShadowScheme::default(), tree)?;
        for q in &mut self.queries {
            rebuild_query(q, &shadow, &mut self.stats);
        }
        self.shadow = Some(shadow);
        self.stale = false;
        Ok(())
    }

    /// Absorb one applied batch: classify every registered query
    /// against the batch's write footprint and do the minimum
    /// maintenance its class allows.
    ///
    /// `plan` must be the [`analyze`](crate::analysis::analyze) result
    /// of `log` against the *pre-batch* tree, `effective` the op
    /// indices that actually executed
    /// (`plan.execution_order(false, scheme.cancellation_neutral())`),
    /// and `tree` the *post-batch* tree. A stale cache refreshes fully
    /// instead.
    pub fn absorb(
        &mut self,
        log: &MutationLog,
        plan: &AnalyzedPlan,
        effective: &[usize],
        tree: &XmlTree,
    ) -> Result<BatchImpact, TreeError> {
        let n = self.queries.len();
        if n == 0 {
            // Nothing to maintain; drop the shadow so a later
            // registration re-encodes against the current tree.
            self.shadow = None;
            return Ok(BatchImpact::default());
        }
        if self.stale || self.shadow.is_none() {
            self.refresh(tree)?;
            return Ok(BatchImpact {
                rebuilt: n,
                classes: vec![QueryClass::Rebuilt; n],
                ..BatchImpact::default()
            });
        }
        self.stats.batches_absorbed += 1;
        if effective.is_empty() {
            // Zero effective ops: nothing observable changed.
            self.stats.unaffected += n as u64;
            return Ok(BatchImpact {
                text_only: true,
                unaffected: n,
                classes: vec![QueryClass::Unaffected; n],
                ..BatchImpact::default()
            });
        }
        let ops: Vec<&Mutation> = log.iter().collect();
        let text_only = effective.iter().all(|&i| {
            matches!(
                ops.get(i),
                Some(Mutation::SetText {
                    target: NodeRef::Node(_),
                    ..
                })
            )
        });
        if text_only {
            self.absorb_text(&ops, effective)
        } else {
            self.absorb_structural(plan, effective, tree)
        }
    }

    /// Text-only fast path: patch the shadow rows in place (topology,
    /// name buckets and row positions are all untouched by text
    /// writes), then refresh only the cached strings whose result
    /// subtree contains a written row.
    fn absorb_text(
        &mut self,
        ops: &[&Mutation],
        effective: &[usize],
    ) -> Result<BatchImpact, TreeError> {
        let shadow = match self.shadow.as_mut() {
            Some(s) => s,
            None => {
                return Err(TreeError::Invariant(
                    "text absorb without a shadow table".to_string(),
                ))
            }
        };
        let mut touched: Vec<usize> = Vec::with_capacity(effective.len());
        for &i in effective {
            if let Some(Mutation::SetText { target, text }) = ops.get(i) {
                if let NodeRef::Node(id) = target {
                    match shadow.row_of_source(*id) {
                        Some(row) => {
                            shadow.patch_text(row, text)?;
                            touched.push(row);
                        }
                        None => {
                            return Err(TreeError::Invariant(
                                "text write target missing from shadow table".to_string(),
                            ))
                        }
                    }
                }
            }
        }
        touched.sort_unstable();
        touched.dedup();

        let shadow = match self.shadow.as_ref() {
            Some(s) => s,
            None => {
                return Err(TreeError::Invariant(
                    "shadow table vanished mid-absorb".to_string(),
                ))
            }
        };
        let mut impact = BatchImpact {
            text_only: true,
            ..BatchImpact::default()
        };
        for q in &mut self.queries {
            if q.force_unaffected || !q.want_strings {
                impact.unaffected += 1;
                impact.classes.push(QueryClass::Unaffected);
                self.stats.unaffected += 1;
                continue;
            }
            // Result indices whose subtree contains a written row: the
            // containing results are exactly the ancestors-or-self of
            // each written row, probed against the sorted result set.
            let mut refresh: Vec<usize> = Vec::new();
            for &t in &touched {
                let mut cur = Some(t);
                while let Some(p) = cur {
                    if let Ok(k) = q.rows.binary_search(&p) {
                        refresh.push(k);
                    }
                    cur = shadow.topology().parent(p);
                }
            }
            refresh.sort_unstable();
            refresh.dedup();
            if refresh.is_empty() {
                impact.unaffected += 1;
                impact.classes.push(QueryClass::Unaffected);
                self.stats.unaffected += 1;
            } else {
                for &k in &refresh {
                    q.strings[k] = shadow.string_value(q.rows[k]);
                }
                self.stats.string_patches += refresh.len() as u64;
                self.stats.repaired += 1;
                impact.repaired += 1;
                impact.classes.push(QueryClass::Repaired);
            }
        }
        Ok(impact)
    }

    /// Structural path: read the batch's footprint and every query's
    /// pre-batch facts off the old shadow, splice the shadow over the
    /// batch's edits (re-encoding it only when the splice finds an
    /// inconsistency), derive the touched extents in new coordinates,
    /// and classify every query.
    fn absorb_structural(
        &mut self,
        plan: &AnalyzedPlan,
        effective: &[usize],
        tree: &XmlTree,
    ) -> Result<BatchImpact, TreeError> {
        let old = match self.shadow.take() {
            Some(s) => s,
            None => {
                return Err(TreeError::Invariant(
                    "structural absorb without a shadow table".to_string(),
                ))
            }
        };

        // Old coordinates first: the splice overwrites them.
        let Footprint {
            mut raw,
            cut,
            texts,
        } = Footprint::read(plan, effective, &old);
        let old_roots: Vec<usize> = raw.iter().map(|&(s, _)| s).collect();
        let root_ids: Vec<NodeId> = old_roots.iter().map(|&s| old.source_id(s)).collect();
        let touched_old = merge_intervals(&mut raw);
        let cover_old: usize = touched_old.iter().map(|&(s, e)| e - s).sum();
        let dirty_old = 2 * cover_old >= old.len().max(1);
        let before: Vec<Before> = self
            .queries
            .iter()
            .map(|q| Before {
                names_clear: names_clear(&q.pattern, old.name_index(), &touched_old),
                ancestor_hit: q.want_strings && ancestor_hit(&old, &old_roots, &q.rows),
                ids: (q.pattern.repair_safe() && !dirty_old)
                    .then(|| q.rows.iter().map(|&r| old.source_id(r)).collect()),
            })
            .collect();

        let new = match splice_shadow(old, tree, &cut, &texts) {
            Ok(new) => new,
            Err(_) => EncodedDocument::encode(ShadowScheme::default(), tree)?,
        };

        // New coordinates: map each touched subtree root through its
        // stable NodeId and take its extent in the new encoding (a
        // region can only grow or shrink around the same root; deleted
        // roots simply vanish).
        let mut new_raw: Vec<(usize, usize)> = root_ids
            .iter()
            .filter_map(|&id| new.row_of_source(id).map(|r| (r, new.topology().extent(r))))
            .collect();
        let new_roots: Vec<usize> = new_raw.iter().map(|&(s, _)| s).collect();
        let touched_new = merge_intervals(&mut new_raw);

        // Pre-existing text rows written by the batch, new coordinates
        // (created text nodes already live inside touched extents).
        let mut text_new: Vec<usize> = texts
            .iter()
            .filter_map(|&id| new.row_of_source(id))
            .collect();
        text_new.sort_unstable();
        text_new.dedup();

        // First preorder row any structural effect can reach: the
        // prefix before it is bit-identical in both coordinate systems.
        let t_min = touched_old
            .first()
            .map(|&(s, _)| s)
            .into_iter()
            .chain(touched_new.first().map(|&(s, _)| s))
            .min();
        let no_touch = touched_old.is_empty() && touched_new.is_empty();
        let cover_new: usize = touched_new.iter().map(|&(s, e)| e - s).sum();
        let dirty_all = dirty_old || 2 * cover_new >= new.len().max(1);

        let mut impact = BatchImpact::default();
        for (q, b) in self.queries.iter_mut().zip(&before) {
            if q.force_unaffected {
                impact.unaffected += 1;
                impact.classes.push(QueryClass::Unaffected);
                self.stats.unaffected += 1;
                continue;
            }
            // --- unaffected? ---
            let name_safe = no_touch
                || (b.names_clear && names_clear(&q.pattern, new.name_index(), &touched_new));
            let pos_stable = match t_min {
                None => true,
                Some(t) => q.rows.last().map_or(true, |&r| r < t),
            };
            let strings_ok = !q.want_strings
                || (!b.ancestor_hit
                    && !ancestor_hit(&new, &new_roots, &q.rows)
                    && !text_hit(&new, &text_new, &q.rows));
            if name_safe && pos_stable && strings_ok {
                impact.unaffected += 1;
                impact.classes.push(QueryClass::Unaffected);
                self.stats.unaffected += 1;
                continue;
            }
            // --- repairable? ---
            if no_touch {
                // No structural footprint at all (defensive: text
                // writes folded into a structural batch) — rows are
                // stable, only strings need refreshing.
                let patched = refresh_strings(q, &new, &text_new);
                self.stats.string_patches += patched;
                self.stats.repaired += 1;
                impact.repaired += 1;
                impact.classes.push(QueryClass::Repaired);
                continue;
            }
            match &b.ids {
                Some(ids) if !dirty_all => {
                    let (dropped, spliced, patched) =
                        repair_query(q, ids, &new, &touched_new, &text_new);
                    self.stats.repaired += 1;
                    self.stats.repair_dropped_rows += dropped;
                    self.stats.repair_spliced_rows += spliced;
                    self.stats.string_patches += patched;
                    impact.repaired += 1;
                    impact.dropped_rows += dropped;
                    impact.spliced_rows += spliced;
                    impact.classes.push(QueryClass::Repaired);
                }
                // --- dirty: full re-evaluation ---
                _ => {
                    rebuild_query(q, &new, &mut self.stats);
                    impact.rebuilt += 1;
                    impact.classes.push(QueryClass::Rebuilt);
                }
            }
        }
        self.shadow = Some(new);
        Ok(impact)
    }
}

/// What a structural batch wrote, read off the plan in the pre-batch
/// shadow's coordinates.
struct Footprint {
    /// Touched extents: relabel regions (each = the extent of the node
    /// whose child list changes, so every sibling ripple is inside),
    /// deleted subtrees and moved subtrees.
    raw: Vec<(usize, usize)>,
    /// Rows of the deleted and moved subtree roots: what a splice cuts.
    cut: Vec<usize>,
    /// Pre-batch text nodes the batch wrote.
    texts: Vec<NodeId>,
}

impl Footprint {
    fn read(
        plan: &AnalyzedPlan,
        effective: &[usize],
        old: &EncodedDocument<ShadowScheme>,
    ) -> Footprint {
        let mut fp = Footprint {
            raw: Vec::new(),
            cut: Vec::new(),
            texts: Vec::new(),
        };
        for op in effective.iter().filter_map(|&i| plan.footprints.get(i)) {
            let cut = op.deleted_extents.iter().chain(&op.moved_extents);
            fp.raw.extend(
                op.regions
                    .iter()
                    .chain(cut.clone())
                    .map(|e| (e.start as usize, e.end as usize)),
            );
            fp.cut.extend(cut.map(|e| e.start as usize));
            fp.texts
                .extend(op.text_writes.iter().filter_map(|t| match t {
                    PointRef::Pre(row) => Some(old.source_id(*row as usize)),
                    PointRef::New(_) => None,
                }));
        }
        fp
    }
}

/// One query's classification facts in pre-batch coordinates, taken
/// before the splice overwrites the old shadow.
struct Before {
    /// It is fully named and its name tests miss every touched extent
    /// of the old table.
    names_clear: bool,
    /// A cached result is a strict ancestor of a touched root.
    ancestor_hit: bool,
    /// The node id of every cached row, kept for a repair: present for
    /// repair-safe queries unless the old footprint already covers half
    /// the document (which rules a repair out).
    ids: Option<Vec<NodeId>>,
}

/// The post-batch shadow, spliced from the pre-batch one: cut the
/// deleted and moved subtrees, read created and moved ones from the
/// tree, then patch the text the batch wrote into kept rows (a splice
/// does not see it). Errors on any inconsistency; the caller encodes
/// afresh then.
fn splice_shadow(
    old: EncodedDocument<ShadowScheme>,
    tree: &XmlTree,
    cut: &[usize],
    texts: &[NodeId],
) -> Result<EncodedDocument<ShadowScheme>, TreeError> {
    let mut new = old.splice(tree, cut, |i| ShadowLabel(i as u32))?;
    for &id in texts {
        if let Some(row) = new.row_of_source(id) {
            new.patch_text(row, tree.kind(id).value().unwrap_or_default())?;
        }
    }
    Ok(new)
}

/// Merge possibly-overlapping intervals into a sorted disjoint cover.
fn merge_intervals(raw: &mut Vec<(usize, usize)>) -> Vec<(usize, usize)> {
    raw.sort_unstable();
    let mut merged: Vec<(usize, usize)> = Vec::with_capacity(raw.len());
    for &(s, e) in raw.iter() {
        if s >= e {
            continue;
        }
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Is the pattern fully named, with every element and attribute name it
/// tests absent from every touched extent?
fn names_clear(pattern: &AccessPattern, index: &NameIndex, extents: &[(usize, usize)]) -> bool {
    pattern.fully_named()
        && pattern.element_names().iter().all(|n| {
            extents
                .iter()
                .all(|&(s, e)| index.elements_in_range(n, s, e).is_empty())
        })
        && pattern.attribute_names().iter().all(|n| {
            extents
                .iter()
                .all(|&(s, e)| index.attributes_in_range(n, s, e).is_empty())
        })
}

/// Does any strict ancestor of a touched root appear in the sorted
/// result set? (Such a result's string value spans the touched
/// subtree.)
fn ancestor_hit(doc: &EncodedDocument<ShadowScheme>, roots: &[usize], rows: &[usize]) -> bool {
    let topo = doc.topology();
    roots.iter().any(|&root| {
        let mut cur = topo.parent(root);
        while let Some(p) = cur {
            if rows.binary_search(&p).is_ok() {
                return true;
            }
            cur = topo.parent(p);
        }
        false
    })
}

/// Does any written text row sit inside (or at) a cached result's
/// subtree? Equivalently: is any ancestor-or-self of a written row a
/// cached result?
fn text_hit(doc: &EncodedDocument<ShadowScheme>, text_rows: &[usize], rows: &[usize]) -> bool {
    let topo = doc.topology();
    text_rows.iter().any(|&t| {
        let mut cur = Some(t);
        while let Some(p) = cur {
            if rows.binary_search(&p).is_ok() {
                return true;
            }
            cur = topo.parent(p);
        }
        false
    })
}

/// Refresh the strings of results whose subtree contains a written text
/// row; rows are untouched. Returns the number recomputed.
fn refresh_strings(
    q: &mut CachedQuery,
    doc: &EncodedDocument<ShadowScheme>,
    text_rows: &[usize],
) -> u64 {
    if !q.want_strings {
        return 0;
    }
    let topo = doc.topology();
    let mut refresh: Vec<usize> = Vec::new();
    for &t in text_rows {
        let mut cur = Some(t);
        while let Some(p) = cur {
            if let Ok(k) = q.rows.binary_search(&p) {
                refresh.push(k);
            }
            cur = topo.parent(p);
        }
    }
    refresh.sort_unstable();
    refresh.dedup();
    for &k in &refresh {
        q.strings[k] = doc.string_value(q.rows[k]);
    }
    refresh.len() as u64
}

/// The delta repair: remap surviving rows through their stable node
/// ids (`ids`, parallel to the cached rows), drop rows that died or
/// fell inside a touched extent, splice in a scoped re-evaluation of
/// exactly the touched extents, and refresh only the strings the batch
/// can have changed. Returns
/// `(dropped, spliced, strings_patched)`.
fn repair_query(
    q: &mut CachedQuery,
    ids: &[NodeId],
    new: &EncodedDocument<ShadowScheme>,
    touched_new: &[(usize, usize)],
    text_new: &[usize],
) -> (u64, u64, u64) {
    // (new_row, old result index for string reuse); survivors outside
    // the touched extents keep their relative order, so this stays
    // sorted.
    let mut kept: Vec<(usize, Option<usize>)> = Vec::with_capacity(q.rows.len());
    let mut dropped = 0u64;
    for (i, &id) in ids.iter().enumerate() {
        match new.row_of_source(id) {
            None => dropped += 1,
            Some(nr) if row_in_extents(touched_new, nr) => dropped += 1,
            Some(nr) => kept.push((nr, Some(i))),
        }
    }
    let fresh = q.pattern.evaluate_within(new, touched_new);
    let spliced = fresh.len() as u64;

    let mut merged: Vec<(usize, Option<usize>)> = Vec::with_capacity(kept.len() + fresh.len());
    {
        let mut a = kept.into_iter().peekable();
        let mut b = fresh.into_iter().peekable();
        loop {
            match (a.peek().copied(), b.peek().copied()) {
                (Some((ra, _)), Some(rb)) => {
                    if ra < rb {
                        merged.push((ra, a.next().and_then(|(_, s)| s)));
                    } else {
                        merged.push((rb, None));
                        b.next();
                    }
                }
                (Some((ra, _)), None) => {
                    merged.push((ra, a.next().and_then(|(_, s)| s)));
                }
                (None, Some(rb)) => {
                    merged.push((rb, None));
                    b.next();
                }
                (None, None) => break,
            }
        }
    }

    let mut patched = 0u64;
    if q.want_strings {
        let topo = new.topology();
        let mut strings = Vec::with_capacity(merged.len());
        for &(nr, src) in &merged {
            let reusable = match src {
                Some(i) => {
                    // A kept row's cached string survives unless its
                    // subtree overlaps a touched extent or contains a
                    // written text row.
                    let end = topo.extent(nr);
                    let k = text_new.partition_point(|&t| t < nr);
                    let text_inside = k < text_new.len() && text_new[k] < end;
                    if topo.subtree_intersects(nr, touched_new) || text_inside {
                        None
                    } else {
                        Some(i)
                    }
                }
                None => None,
            };
            match reusable {
                Some(i) => strings.push(std::mem::take(&mut q.strings[i])),
                None => {
                    patched += 1;
                    strings.push(new.string_value(nr));
                }
            }
        }
        q.strings = strings;
    }
    q.rows = merged.iter().map(|&(r, _)| r).collect();
    (dropped, spliced, patched)
}

/// Full re-evaluation of one query against `doc`.
fn rebuild_query(
    q: &mut CachedQuery,
    doc: &EncodedDocument<ShadowScheme>,
    stats: &mut CacheStats,
) {
    q.rows = q.pattern.evaluate(doc);
    if q.want_strings {
        q.strings = q.rows.iter().map(|&r| doc.string_value(r)).collect();
    }
    stats.rebuilt += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze;
    use crate::mutations::{apply_log_dyn, validate, LogId, Place};
    use std::cell::RefCell;
    use std::collections::BTreeMap;
    use xupd_labelcore::{DynScheme, SchemeSession};
    use xupd_schemes::prefix::qed::Qed;
    use xupd_testkit::prop::{self, any_u64, ints, vecs, Config, Outcome};
    use xupd_testkit::rng::TestRng;
    use xupd_workloads::docs;
    use xupd_xmldom::NodeKind;

    const NAMES: [&str; 4] = ["item", "name", "description", "x"];

    /// How often the property must see each op kind (counted over the
    /// effective ops of every applied batch), and how many batches.
    const WANT: [(&str, usize); 9] = [
        ("batches", 600),
        ("CreateElement", 100),
        ("AppendChildren", 100),
        ("CreateNode", 100),
        ("Delete", 100),
        ("Replace", 100),
        ("MoveSubtree", 100),
        ("create-then-move", 20),
        ("SetText", 100),
    ];

    /// One random batch over `tree` mixing every edit a splice has to
    /// follow: element, run and text creates, deletes, replaces, moves
    /// of pre-batch and batch-made subtrees (a create, then a move of
    /// the new node, then a move of an old subtree under it) and text
    /// writes. A drawn op is kept only if the log still validates.
    fn random_batch(tree: &XmlTree, rng: &mut TestRng) -> MutationLog {
        let order = tree.ids_in_doc_order();
        let elements: Vec<NodeId> = order
            .iter()
            .copied()
            .filter(|&id| tree.kind(id).is_element())
            .collect();
        let texts: Vec<NodeId> = order
            .iter()
            .copied()
            .filter(|&id| tree.kind(id).is_text())
            .collect();
        let mut made: Vec<LogId> = Vec::new();
        let mut next = 0u32;
        let mut log = MutationLog::new();
        for _ in 0..rng.gen_range(1..9usize) {
            let anchor = |rng: &mut TestRng| {
                if made.is_empty() || rng.gen_bool(0.7) {
                    NodeRef::Node(elements[rng.gen_range(0..elements.len())])
                } else {
                    NodeRef::New(made[rng.gen_range(0..made.len())])
                }
            };
            let place = |rng: &mut TestRng| {
                let at = anchor(rng);
                match rng.gen_range(0..4u32) {
                    0 => Place::FirstChildOf(at),
                    1 => Place::LastChildOf(at),
                    2 => Place::Before(at),
                    _ => Place::After(at),
                }
            };
            let name = NAMES[rng.gen_range(0..NAMES.len())].to_string();
            let id = LogId(next);
            let ops = match rng.gen_range(0..9u32) {
                0 => vec![Mutation::CreateElement {
                    id,
                    name,
                    place: place(rng),
                }],
                1 => vec![Mutation::CreateNode {
                    id,
                    kind: NodeKind::Text {
                        value: format!("new{}", next),
                    },
                    place: place(rng),
                }],
                2 => vec![Mutation::AppendChildren {
                    parent: anchor(rng),
                    ids: (0..rng.gen_range(1..4u32))
                        .map(|k| LogId(next + k))
                        .collect(),
                    name,
                }],
                3 | 4 if !texts.is_empty() => vec![Mutation::SetText {
                    target: NodeRef::Node(texts[rng.gen_range(0..texts.len())]),
                    text: format!("w{}", rng.gen_range(0..1000u32)),
                }],
                5 => vec![Mutation::Delete {
                    target: anchor(rng),
                }],
                6 => vec![Mutation::Replace {
                    target: anchor(rng),
                    id,
                    name,
                }],
                7 => vec![Mutation::MoveSubtree {
                    target: anchor(rng),
                    place: place(rng),
                }],
                _ => {
                    let first = place(rng);
                    let then = place(rng);
                    vec![
                        Mutation::CreateElement {
                            id,
                            name,
                            place: first,
                        },
                        Mutation::MoveSubtree {
                            target: NodeRef::New(id),
                            place: then,
                        },
                        Mutation::MoveSubtree {
                            target: anchor(rng),
                            place: Place::LastChildOf(NodeRef::New(id)),
                        },
                    ]
                }
            };
            let mut trial = log.clone();
            for m in &ops {
                trial.push(m.clone());
            }
            if validate(&trial, tree).is_err() {
                continue;
            }
            log = trial;
            for m in &ops {
                match m {
                    Mutation::CreateElement { id, .. } | Mutation::Replace { id, .. } => {
                        made.push(*id)
                    }
                    Mutation::AppendChildren { ids, .. } => made.extend(ids.iter().copied()),
                    _ => {}
                }
            }
            next += 4;
        }
        log
    }

    fn tally(counts: &mut BTreeMap<&'static str, usize>, log: &MutationLog, effective: &[usize]) {
        let ops: Vec<&Mutation> = log.iter().collect();
        let mut created: Vec<LogId> = Vec::new();
        for m in effective.iter().filter_map(|&i| ops.get(i)) {
            let kind = match m {
                Mutation::CreateElement { id, .. } => {
                    created.push(*id);
                    "CreateElement"
                }
                Mutation::CreateNode { .. } => "CreateNode",
                Mutation::AppendChildren { .. } => "AppendChildren",
                Mutation::Delete { .. } => "Delete",
                Mutation::Replace { .. } => "Replace",
                Mutation::SetText { .. } => "SetText",
                Mutation::MoveSubtree {
                    target: NodeRef::New(l),
                    ..
                } if created.contains(l) => "create-then-move",
                Mutation::MoveSubtree { .. } => "MoveSubtree",
            };
            *counts.entry(kind).or_default() += 1;
        }
        *counts.entry("batches").or_default() += 1;
    }

    /// Row-for-row equality with a fresh encode: kinds, parents, labels,
    /// source ids, `row_of` below the id bound, topology and name
    /// buckets (bucket maps compare equal only if the spliced one kept
    /// no empty bucket, since a fresh index has none).
    fn same_as_fresh(
        spliced: &EncodedDocument<ShadowScheme>,
        tree: &XmlTree,
    ) -> Result<(), String> {
        let fresh = EncodedDocument::encode(ShadowScheme::default(), tree)
            .map_err(|e| format!("fresh encode: {e:?}"))?;
        if spliced.len() != fresh.len() {
            return Err(format!("{} rows, fresh {}", spliced.len(), fresh.len()));
        }
        for i in 0..fresh.len() {
            let (a, b) = (spliced.row(i), fresh.row(i));
            if a.kind != b.kind || a.parent != b.parent || a.label != b.label {
                return Err(format!("row {i}: {a:?} vs fresh {b:?}"));
            }
            if spliced.source_id(i) != fresh.source_id(i) {
                return Err(format!("row {i}: source id differs"));
            }
        }
        for k in 0..tree.id_bound() {
            let id = NodeId::from_index(k);
            if spliced.row_of_source(id) != fresh.row_of_source(id) {
                return Err(format!("row_of({k}) differs"));
            }
        }
        if spliced.topology() != fresh.topology() {
            return Err("topology differs".to_string());
        }
        if spliced.name_index() != fresh.name_index() {
            return Err("name buckets differ".to_string());
        }
        Ok(())
    }

    #[test]
    fn spliced_shadow_equals_fresh_encode() {
        let counts = RefCell::new(BTreeMap::new());
        prop::check(
            "querycache_spliced_shadow_equals_fresh_encode",
            &Config::with_cases(64),
            &(ints(0u64..1000), vecs(any_u64(), 1, 24)),
            |(doc_seed, batch_seeds)| {
                let mut tree = docs::xmark_like(doc_seed, 12 + (doc_seed % 24) as usize);
                let mut session = SchemeSession::new(Qed::new());
                if let Err(e) = session.label_tree(&tree) {
                    return Outcome::Fail(format!("label: {e:?}"));
                }
                let mut shadow = match EncodedDocument::encode(ShadowScheme::default(), &tree) {
                    Ok(s) => s,
                    Err(e) => return Outcome::Fail(format!("encode: {e:?}")),
                };
                for (b, seed) in batch_seeds.into_iter().enumerate() {
                    let log = random_batch(&tree, &mut TestRng::seed_from_u64(seed));
                    let plan = match analyze(&log, &tree) {
                        Ok(p) => p,
                        Err(e) => return Outcome::Fail(format!("batch {b}: analyze: {e:?}")),
                    };
                    let effective = plan.execution_order(false, session.cancellation_neutral());
                    if apply_log_dyn(&mut tree, &mut session, &log).is_err() {
                        continue;
                    }
                    let fp = Footprint::read(&plan, &effective, &shadow);
                    shadow = match splice_shadow(shadow, &tree, &fp.cut, &fp.texts) {
                        Ok(s) => s,
                        Err(e) => {
                            return Outcome::Fail(format!(
                                "batch {b}: splice refused: {e:?}; log {log:?}"
                            ))
                        }
                    };
                    if let Err(e) = same_as_fresh(&shadow, &tree) {
                        return Outcome::Fail(format!("batch {b}: {e}; log {log:?}"));
                    }
                    tally(&mut counts.borrow_mut(), &log, &effective);
                }
                Outcome::Pass
            },
        );
        let counts = counts.into_inner();
        for (kind, at_least) in WANT {
            let seen = counts.get(kind).copied().unwrap_or(0);
            assert!(seen >= at_least, "{kind}: {seen} < {at_least}");
        }
    }

    #[test]
    fn absorb_falls_back_to_encode_when_the_splice_input_is_inconsistent() {
        let mut tree = docs::xmark_like(5, 24);
        let mut session = SchemeSession::new(Qed::new());
        session.label_tree(&tree).unwrap();
        let exprs: Vec<XPathExpr> = ["//item", "/site/regions/*", "//description//text()"]
            .iter()
            .map(|e| xupd_encoding::parse_xpath(e).unwrap())
            .collect();
        let mut cache = QueryCache::new();
        for e in &exprs {
            cache.register(e, true, &tree).unwrap();
        }
        let item = tree
            .ids_in_doc_order()
            .into_iter()
            .find(|&id| tree.kind(id).name() == Some("item"))
            .unwrap();
        let log = MutationLog::from(vec![Mutation::Delete {
            target: NodeRef::Node(item),
        }]);
        let mut plan = analyze(&log, &tree).unwrap();
        let effective = plan.execution_order(false, session.cancellation_neutral());
        apply_log_dyn(&mut tree, &mut session, &log).unwrap();

        // Drop the deleted extent from the plan: the relabel region
        // around it still covers the classification, but the splice is
        // no longer told about the node that went away.
        for fp in &mut plan.footprints {
            fp.deleted_extents.clear();
        }
        let old = cache.shadow.clone().unwrap();
        let fp = Footprint::read(&plan, &effective, &old);
        assert!(
            splice_shadow(old, &tree, &fp.cut, &fp.texts).is_err(),
            "the splice must notice a deletion it was not told about"
        );

        cache.absorb(&log, &plan, &effective, &tree).unwrap();
        same_as_fresh(cache.shadow.as_ref().unwrap(), &tree).unwrap();
        let fresh = EncodedDocument::encode(ShadowScheme::default(), &tree).unwrap();
        for (q, e) in exprs.iter().enumerate() {
            let rows = e.evaluate(&fresh);
            let strings: Vec<String> = rows.iter().map(|&r| fresh.string_value(r)).collect();
            assert_eq!(cache.rows(q), rows.as_slice(), "query {q} rows");
            assert_eq!(cache.strings(q), strings.as_slice(), "query {q} strings");
        }
    }
}
