//! Incremental XPath result maintenance: footprint-driven cache
//! invalidation instead of whole-snapshot discard.
//!
//! A [`QueryCache`] holds materialized result sets (preorder row
//! positions, plus string values where requested) for a registered set
//! of compiled XPath queries, and keeps them exact across
//! [`MutationLog`] batches by *impact analysis* instead of wholesale
//! re-evaluation. Genevès, Layaïda and Quint (arXiv 0811.4324) decide
//! statically whether an evolution can affect a query, from what the
//! query reads and what the update writes; here the same decision runs
//! dynamically per batch. The write set is the batch's exact edits: the
//! deleted and moved subtrees the splice cuts, in pre-batch rows, and
//! the created and moved subtrees it reads fresh, in post-batch rows
//! ([`SpliceRuns`]). The read set is each query's static
//! [`AccessPattern`]: its name tests, resolved through the
//! [`NameIndex`] buckets, and its axis shape.
//!
//! Every registered query lands in one of three classes per batch:
//!
//! * **unaffected** — membership and cached strings are unchanged. A
//!   batch with no cut and no fresh subtree moved no row, and every
//!   query keeps its members. Otherwise a fully named query none of
//!   whose names occurs in a cut or fresh subtree keeps them,
//!   positional predicates included: a position counts only nodes that
//!   match the step's name, and every such node kept its parent, its
//!   ancestors and its document order. Its rows are renumbered in place
//!   through the splice's kept runs, one merge of two sorted lists;
//!   nothing is evaluated.
//! * **repaired** — rows or strings were patched, not re-derived. A
//!   name-safe query whose cached string covers an edit has that string
//!   recomputed. A downward-only query without positional predicates
//!   ([`AccessPattern::repair_safe`] and not
//!   [`AccessPattern::has_positional`]) keeps every member a kept run
//!   carries, since its membership reads only a node's ancestors, their
//!   names and their attributes, and a kept node's ancestors are the
//!   ones it had. Rows of cut subtrees are dropped, the rest renumbered
//!   in place, and a scoped [`AccessPattern::evaluate_within`] over the
//!   fresh ranges supplies the new members. A repair needs the edits to
//!   cover under half the document, and no cut or fresh root to be an
//!   attribute that a `[@name="v"]` predicate reads: such an attribute
//!   decides the membership of kept nodes under its parent. Whether a
//!   root is one is read off the name buckets (a row is an attribute
//!   named `n` exactly when it sits in `n`'s bucket), since a deleted
//!   root's content is gone with it.
//! * **rebuilt** — anything else (upward or lateral axes, or a
//!   positional query whose names the batch hit, whose repair would
//!   need the changed parents' child lists): full re-evaluation, the
//!   correct fallback.
//!
//! Strings follow one rule. A row is *string-dirty* when it is a strict
//! ancestor of a cut root or of a fresh root, or an ancestor-or-self of
//! a text node the batch wrote; one sorted list of them is built per
//! batch and shared by every query. A cached string is recomputed
//! exactly when its row is string-dirty, or fresh.
//!
//! The cache evaluates against its **shadow**, the document's one
//! [`PreorderIndex`]: the structure of the encoding, holding source
//! ids, parents, extents and the [`NameIndex`], with no content and no
//! label column. Node tests and string values read each row's content
//! from the tree by source id. The streaming evaluator never reads a
//! label (ancestry is preorder interval containment on the extents),
//! so results are the same under every labelling scheme, and keeping
//! the shadow current never pays the document's label algebra. The
//! analyzer resolves footprints on the same index
//! ([`analyze_in`](crate::analysis::analyze_in)), flux lowering
//! resolves paths on it, `Document::xpath` evaluates on it and
//! `Document::reconstruct` rebuilds the tree from it, so it is kept
//! current whether or not a query is registered
//! ([`QueryCache::index`] builds it on first need). It records the
//! [`XmlTree::revision`] it describes, and every consumer rejects an
//! index made for another tree state; [`QueryCache::absorb`] likewise
//! refuses a plan made for another state, before anything changes.
//!
//! A structural batch splices the shadow in place
//! ([`PreorderIndex::splice`]), told its exact edits (deleted and moved
//! subtree roots; created nodes are the ones with no row). The splice
//! is one O(n) walk over the post-batch tree that rewrites every column
//! into the buffers it holds, with no per-row allocation, and reads the
//! run list off each node's previous row as it goes.
//! A text-only batch moves no row, so it takes the same path with an
//! empty structural write set: no cut, no fresh range, and one kept run
//! over every row. The shadow leaves every column alone and only
//! records the new revision ([`PreorderIndex::follow_text`]), since the
//! text lives in the tree, and each query's strings over a written text
//! row are recomputed; a batch with zero effective ops only records the
//! revision. The full re-encode is left for the first need,
//! [`QueryCache::refresh`], and the fallback when a splice refuses its
//! input, which also rebuilds every query.
//!
//! Staleness safety: the cache only ever serves results derived from
//! the shadow of the current tree, and it is stale exactly when it
//! holds no shadow: before anything indexed a tree, after an update
//! that bypassed the mutation-log path (the raw script driver drops the
//! shadow), and after an upkeep that returned an `Err` or panicked once
//! the batch had passed [`QueryCache::absorb`]'s refusal checks, since
//! upkeep takes the shadow out before its first write and puts it back
//! after the last query is classified. A stale cache serves nothing and
//! fully refreshes on the next mutable read or batch. The differential
//! suite (`crates/framework/tests/querycache_differential.rs`) pins
//! every served result byte-identical to a fresh evaluation.

use crate::analysis::{AnalyzedPlan, PointRef};
use crate::mutations::{Mutation, MutationLog, NodeRef};
use xupd_encoding::xpath::Pred;
use xupd_encoding::{
    row_in_extents, AccessPattern, NameIndex, PreorderIndex, SpliceRuns, XPathExpr,
};
use xupd_xmldom::{NodeId, TreeError, XmlTree};

// ---------------------------------------------------------------------
// Public observability types
// ---------------------------------------------------------------------

/// Identifier returned by [`QueryCache::register`]; stable for the
/// cache's lifetime.
pub type QueryId = usize;

/// What one batch did to one registered query: to its membership and
/// to its cached strings.
///
/// A query whose rows a batch only shifted, renumbered through the
/// splice's run list, counts as [`Unaffected`](Self::Unaffected), not
/// as a class of its own: a class says what happened to membership and
/// strings, and a shift changes neither. A fourth class would also
/// change [`BatchImpact`], [`CacheStats`] and the store's `state_dump`
/// format, and the end-to-end benchmark's `querycache.incremental_frac`
/// sums these three.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    /// Membership and every cached string unchanged. Nothing was
    /// evaluated; where the batch shifted the rows, they were
    /// renumbered in place through the splice's kept runs.
    Unaffected,
    /// Patched: rows of cut subtrees dropped, the rest renumbered, a
    /// scoped re-evaluation of the fresh rows merged in, and the
    /// string-dirty strings recomputed — or, for a query whose members
    /// the batch left alone, only the strings.
    Repaired,
    /// Fully re-evaluated.
    Rebuilt,
}

/// Per-batch impact summary returned by [`QueryCache::absorb`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchImpact {
    /// The batch only rewrote pre-existing text nodes, or changed
    /// nothing: the shadow only recorded the new revision, and no row
    /// moved, so no query was renumbered.
    pub text_only: bool,
    /// Queries whose membership and strings the batch left as they
    /// were (rows renumbered in place where the batch shifted them).
    pub unaffected: usize,
    /// Queries patched.
    pub repaired: usize,
    /// Queries fully re-evaluated.
    pub rebuilt: usize,
    /// Cached rows dropped by repairs (their subtree was cut).
    pub dropped_rows: u64,
    /// Rows spliced in by scoped re-evaluation.
    pub spliced_rows: u64,
    /// Per-query classification, indexed by [`QueryId`].
    pub classes: Vec<QueryClass>,
}

impl BatchImpact {
    /// Count one query's class here and in the cumulative `stats`.
    fn count(&mut self, class: QueryClass, stats: &mut CacheStats) {
        match class {
            QueryClass::Unaffected => {
                self.unaffected += 1;
                stats.unaffected += 1;
            }
            QueryClass::Repaired => {
                self.repaired += 1;
                stats.repaired += 1;
            }
            QueryClass::Rebuilt => {
                self.rebuilt += 1;
                stats.rebuilt += 1;
            }
        }
        self.classes.push(class);
    }
}

/// Cumulative cache counters. Read-only accessors move none of them,
/// which is how the store's concurrent readers are pinned.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cached reads served ([`QueryCache::hit`]).
    pub hits: u64,
    /// Batches absorbed incrementally (a batch with zero effective
    /// ops changes nothing and is not counted).
    pub batches_absorbed: u64,
    /// Query×batch outcomes with membership and strings unchanged.
    pub unaffected: u64,
    /// Query×batch outcomes patched.
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
/// incrementally across mutation-log batches, over the document's
/// [`PreorderIndex`]. See the module docs for the three classes and
/// the repair algorithm.
#[derive(Default)]
pub struct QueryCache {
    shadow: Option<PreorderIndex>,
    queries: Vec<CachedQuery>,
    stats: CacheStats,
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

    /// True when the cache holds no index, so it must fully refresh
    /// before it serves again: nothing has indexed a tree yet, an
    /// un-analyzed update bypassed it, or an upkeep failed or panicked
    /// after the batch reached the tree.
    pub fn is_stale(&self) -> bool {
        self.shadow.is_none()
    }

    /// Record that the tree changed outside the mutation-log path: the
    /// index is dropped, and the cache serves nothing until
    /// [`refresh`](Self::refresh) encodes one.
    pub fn mark_stale(&mut self) {
        self.shadow = None;
    }

    /// Does the cache hold an index of `tree` as it is now, with every
    /// cached result exact?
    pub fn is_current(&self, tree: &XmlTree) -> bool {
        self.shadow
            .as_ref()
            .is_some_and(|s| s.revision() == tree.revision())
    }

    /// The preorder index of `tree`, encoded on first need and
    /// [refreshed](Self::refresh) when it is not current.
    pub fn index(&mut self, tree: &XmlTree) -> Result<&PreorderIndex, TreeError> {
        if !self.is_current(tree) {
            self.refresh(tree)?;
        }
        self.shadow.as_ref().ok_or_else(|| {
            TreeError::Invariant("query cache index missing after a refresh".to_string())
        })
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
        let index = self.index(tree)?;
        let mut q = CachedQuery {
            pattern: expr.access_pattern(),
            want_strings,
            rows: Vec::new(),
            strings: Vec::new(),
            force_unaffected: false,
        };
        rebuild_query(&mut q, tree, index);
        self.queries.push(q);
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

    /// Rebuild the shadow and every result set from scratch against
    /// `tree`. The old index is dropped first, so the cache is stale
    /// until the last query is rebuilt. The heavy-handed fallback —
    /// [`absorb`](Self::absorb) is the incremental path.
    pub fn refresh(&mut self, tree: &XmlTree) -> Result<(), TreeError> {
        self.shadow = None;
        let shadow = PreorderIndex::encode(tree)?;
        for q in &mut self.queries {
            rebuild_query(q, tree, &shadow);
        }
        self.stats.rebuilt += self.queries.len() as u64;
        self.shadow = Some(shadow);
        Ok(())
    }

    /// [`refresh`](Self::refresh), reported as a batch that rebuilt
    /// every query.
    fn rebuild_all(&mut self, tree: &XmlTree) -> Result<BatchImpact, TreeError> {
        self.refresh(tree)?;
        let n = self.queries.len();
        Ok(BatchImpact {
            rebuilt: n,
            classes: vec![QueryClass::Rebuilt; n],
            ..BatchImpact::default()
        })
    }

    /// Absorb one applied batch: bring the index up to the post-batch
    /// tree, classify every registered query against the batch's edits
    /// and do the minimum maintenance its class allows. The index is
    /// kept whether or not any query is registered.
    ///
    /// `plan` must be the [`analyze_in`](crate::analysis::analyze_in)
    /// result of `log` against the *pre-batch* tree, `effective` the op
    /// indices that actually executed, in any order (the cache reads
    /// them as a set: `plan.execution_order(false, neutral)` or the
    /// order [`Document::apply_planned`](crate::Document::apply_planned)
    /// was granted), and `tree` the *post-batch* tree. A plan that does
    /// not cover `log`, or was made for another tree state than the one
    /// the index describes (another revision, or rows outside the
    /// index), is refused with [`TreeError::Invariant`] before anything
    /// changes, and so is a text-only batch whose writes the index
    /// cannot follow ([`PreorderIndex::follow_text`]). A batch with zero
    /// effective ops changed nothing: the index only records the new
    /// revision and no counter moves. A cache without an index (a stale
    /// one) refreshes fully instead, unless no query is registered: then
    /// the index is encoded on next need. Past the refusals, upkeep
    /// takes the index out of the cache and puts it back once the last
    /// query is classified, so a panic or an `Err` in between leaves a
    /// cache that serves nothing and refreshes on next need.
    pub fn absorb(
        &mut self,
        log: &MutationLog,
        plan: &AnalyzedPlan,
        effective: &[usize],
        tree: &XmlTree,
    ) -> Result<BatchImpact, TreeError> {
        let n = self.queries.len();
        let Some(mut index) = self.shadow.take() else {
            return if n == 0 {
                Ok(BatchImpact::default())
            } else {
                self.rebuild_all(tree)
            };
        };
        let ops = log.ops();
        let text_only = effective.iter().all(|&i| {
            matches!(
                ops.get(i),
                Some(Mutation::SetText {
                    target: NodeRef::Node(_),
                    ..
                })
            )
        });
        let checked = Footprint::read(log, plan, effective, &index).and_then(|fp| {
            if text_only {
                index.follow_text(tree, &fp.texts)?;
            }
            Ok(fp)
        });
        // A refusal, or a batch that changed nothing, puts the index back.
        let fp = match checked {
            Ok(fp) if !effective.is_empty() => fp,
            other => {
                self.shadow = Some(index);
                return other.map(|_| BatchImpact {
                    text_only: true,
                    unaffected: n,
                    classes: vec![QueryClass::Unaffected; n],
                    ..BatchImpact::default()
                });
            }
        };
        let impact = self.maintain(index, fp, text_only, tree)?;
        self.stats.batches_absorbed += 1;
        Ok(impact)
    }

    /// The one upkeep path, on the index `old` that
    /// [`absorb`](Self::absorb) took out of the cache: read the batch's
    /// cut subtrees and each query's name hits off it, splice it over
    /// the batch's edits (re-encoding it and rebuilding every query when
    /// the splice refuses its input), then classify every query by the
    /// cut and fresh subtrees and renumber or repair its rows through
    /// the splice's runs. A text-only batch moved no row: its run list
    /// is one kept run over every row, and no row is renumbered. The
    /// index goes back into the cache after the last query is classified.
    fn maintain(
        &mut self,
        old: PreorderIndex,
        mut fp: Footprint,
        text_only: bool,
        tree: &XmlTree,
    ) -> Result<BatchImpact, TreeError> {
        // Old coordinates first: the splice overwrites them.
        let roots = fp.roots();
        let cut = merge_intervals(&mut fp.cut);
        let scoped_old = 2 * cover(&cut) < old.len().max(1);
        // Per query: are its names clear of the cut, and does one of its
        // `[@name="v"]` predicates read a cut root? No cut: (true, false).
        let old_side: Vec<(bool, bool)> = if fp.cut.is_empty() {
            Vec::new()
        } else {
            self.queries
                .iter()
                .map(|q| {
                    let names = old.name_index();
                    (
                        names_clear(&q.pattern, names, &cut),
                        predicate_reads(&q.pattern, names, &fp.cut),
                    )
                })
                .collect()
        };
        // The string-dirty list is built only when a query caches strings.
        let strings = self.queries.iter().any(|q| q.want_strings);
        let mut dirty: Vec<usize> = Vec::new();
        if strings {
            for &r in &roots {
                push_ancestors(&old, old.parent(r), &mut dirty);
            }
            dirty.sort_unstable();
            dirty.dedup();
        }

        #[cfg(test)]
        tests::fault_point(tests::Phase::BeforeSplice);
        let new = if text_only {
            old
        } else {
            match old.splice(tree, &roots) {
                Ok(new) => new,
                Err(_) => return self.rebuild_all(tree),
            }
        };
        #[cfg(test)]
        tests::fault_point(tests::Phase::AfterSplice);

        let identity = [(0, 0, new.len())];
        let runs = if text_only {
            SpliceRuns {
                kept: &identity,
                fresh: &[],
            }
        } else {
            new.splice_runs()
        };
        // New coordinates: the kept strict ancestors of the cut roots,
        // the strict ancestors of the fresh roots, and every
        // ancestor-or-self of a written text row outside the fresh
        // ranges (fresh rows get fresh strings anyway).
        if strings {
            renumber(&mut dirty, &mut Vec::new(), runs.kept);
            for &(start, _) in runs.fresh {
                push_ancestors(&new, new.parent(start), &mut dirty);
            }
            for row in fp.texts.iter().filter_map(|&id| new.row_of_source(id)) {
                if !row_in_extents(runs.fresh, row) {
                    push_ancestors(&new, Some(row), &mut dirty);
                }
            }
            dirty.sort_unstable();
            dirty.dedup();
        }
        let scoped = scoped_old && 2 * cover(runs.fresh) < new.len().max(1);

        let mut impact = BatchImpact {
            text_only,
            ..BatchImpact::default()
        };
        for (i, q) in self.queries.iter_mut().enumerate() {
            let (clear, reads_cut) = old_side.get(i).copied().unwrap_or((true, false));
            let class = if q.force_unaffected {
                QueryClass::Unaffected
            } else if clear && names_clear(&q.pattern, new.name_index(), runs.fresh) {
                if !text_only {
                    renumber(&mut q.rows, &mut q.strings, runs.kept);
                }
                let patched = patch_strings(q, tree, &new, &dirty);
                self.stats.string_patches += patched;
                if patched == 0 {
                    QueryClass::Unaffected
                } else {
                    QueryClass::Repaired
                }
            } else if scoped
                && q.pattern.repair_safe()
                && !q.pattern.has_positional()
                && !reads_cut
                && !predicate_reads(&q.pattern, new.name_index(), runs.fresh)
            {
                let (dropped, spliced, patched) = repair_query(q, tree, &new, runs, &dirty);
                self.stats.repair_dropped_rows += dropped;
                self.stats.repair_spliced_rows += spliced;
                self.stats.string_patches += patched;
                impact.dropped_rows += dropped;
                impact.spliced_rows += spliced;
                QueryClass::Repaired
            } else {
                rebuild_query(q, tree, &new);
                QueryClass::Rebuilt
            };
            impact.count(class, &mut self.stats);
            #[cfg(test)]
            tests::fault_point(tests::Phase::BetweenQueries);
        }
        self.shadow = Some(new);
        Ok(impact)
    }
}

/// What a batch cut and wrote, read off the plan in the pre-batch
/// shadow's coordinates.
struct Footprint {
    /// Extents of the deleted and moved subtrees: the old rows no kept
    /// run of the splice carries. Each extent starts at its root.
    cut: Vec<(usize, usize)>,
    /// Pre-batch text nodes the batch wrote.
    texts: Vec<NodeId>,
}

impl Footprint {
    /// The roots of the cut subtrees: what the splice is told.
    fn roots(&self) -> Vec<usize> {
        self.cut.iter().map(|&(s, _)| s).collect()
    }

    /// Errors when the plan does not cover `log`, or was made for a tree
    /// the index `old` does not describe: another revision, or a row
    /// outside `old` even where the revision matches (a revision counts
    /// one tree's mutations).
    fn read(
        log: &MutationLog,
        plan: &AnalyzedPlan,
        effective: &[usize],
        old: &PreorderIndex,
    ) -> Result<Footprint, TreeError> {
        if plan.len() != log.len() {
            return Err(TreeError::Invariant(
                "analyzed plan does not cover this log".to_string(),
            ));
        }
        if plan.revision() != old.revision() {
            return Err(TreeError::Invariant(
                "analyzed plan was made for another tree state".to_string(),
            ));
        }
        let outside = || TreeError::Invariant("plan rows lie outside the index".to_string());
        let mut fp = Footprint {
            cut: Vec::new(),
            texts: Vec::new(),
        };
        for op in effective.iter().filter_map(|&i| plan.footprints.get(i)) {
            for e in op.deleted_extents.iter().chain(&op.moved_extents) {
                if e.end as usize > old.len() {
                    return Err(outside());
                }
                fp.cut.push((e.start as usize, e.end as usize));
            }
            for t in &op.text_writes {
                if let PointRef::Pre(row) = *t {
                    let row = row as usize;
                    if row >= old.len() {
                        return Err(outside());
                    }
                    fp.texts.push(old.source_id(row));
                }
            }
        }
        Ok(fp)
    }
}

/// Merge possibly-overlapping intervals into a sorted disjoint cover.
fn merge_intervals(raw: &mut [(usize, usize)]) -> Vec<(usize, usize)> {
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

/// Rows covered by sorted disjoint half-open intervals.
fn cover(ranges: &[(usize, usize)]) -> usize {
    ranges.iter().map(|&(s, e)| e - s).sum()
}

/// Is every extent clear of the pattern: none at all, or a fully named
/// pattern none of whose element and attribute names occurs in one?
fn names_clear(pattern: &AccessPattern, index: &NameIndex, extents: &[(usize, usize)]) -> bool {
    if extents.is_empty() {
        return true;
    }
    if !pattern.fully_named() {
        return false;
    }
    pattern
        .element_names()
        .iter()
        .all(|n| misses(index.elements(n), extents))
        && pattern
            .attribute_names()
            .iter()
            .all(|n| misses(index.attributes(n), extents))
}

/// Does no row of the sorted `rows` fall inside the sorted disjoint
/// half-open `extents`? Walks the shorter list and binary-searches the
/// other: a batch of many small edits meets a name's bucket, and a few
/// large ones a long bucket.
fn misses(rows: &[u32], extents: &[(usize, usize)]) -> bool {
    if rows.len() <= extents.len() {
        rows.iter().all(|&r| !row_in_extents(extents, r as usize))
    } else {
        extents.iter().all(|&(s, e)| {
            let k = rows.partition_point(|&r| (r as usize) < s);
            rows.get(k).is_none_or(|&r| r as usize >= e)
        })
    }
}

/// Does a `[@name="v"]` predicate of the pattern read an attribute
/// that roots one of `extents`? A row is an attribute named `n` exactly
/// when it sits in `n`'s attribute bucket of `names`.
fn predicate_reads(pattern: &AccessPattern, names: &NameIndex, extents: &[(usize, usize)]) -> bool {
    pattern
        .plan()
        .iter()
        .flat_map(|step| &step.preds)
        .any(|p| match p {
            Pred::AttrEq(n, _) => {
                let bucket = names.attributes(n);
                extents
                    .iter()
                    .any(|(root, _)| bucket.binary_search_by_key(root, |&r| r as usize).is_ok())
            }
            Pred::Position(_) => false,
        })
}

/// Push `from` and every ancestor above it onto `out`: how each
/// contribution to a batch's string-dirty list is found.
fn push_ancestors(doc: &PreorderIndex, from: Option<usize>, out: &mut Vec<usize>) {
    if let Some(row) = from {
        out.push(row);
        out.extend(doc.ancestors(row));
    }
}

/// Recompute the cached strings whose row is in the sorted
/// string-dirty list `dirty`. Returns how many were recomputed.
fn patch_strings(q: &mut CachedQuery, tree: &XmlTree, doc: &PreorderIndex, dirty: &[usize]) -> u64 {
    if !q.want_strings {
        return 0;
    }
    let mut patched = 0;
    for &row in dirty {
        if let Ok(k) = q.rows.binary_search(&row) {
            q.strings[k] = doc.string_value(tree, row);
            patched += 1;
        }
    }
    patched
}

/// Renumber sorted old rows in place through a splice's kept runs,
/// dropping the rows no kept run carries; `strings` is parallel to
/// `rows` or empty. Rows and runs are both sorted, so this is one
/// merge. Returns how many rows were dropped.
fn renumber(
    rows: &mut Vec<usize>,
    strings: &mut Vec<String>,
    kept: &[(usize, usize, usize)],
) -> u64 {
    let parallel = strings.len() == rows.len();
    let (mut w, mut k) = (0, 0);
    for i in 0..rows.len() {
        let row = rows[i];
        while kept.get(k).is_some_and(|&(old, _, len)| old + len <= row) {
            k += 1;
        }
        if let Some(&(old, new, _)) = kept.get(k).filter(|&&(old, _, _)| old <= row) {
            rows[w] = new + (row - old);
            if parallel {
                strings.swap(w, i);
            }
            w += 1;
        }
    }
    let dropped = (rows.len() - w) as u64;
    rows.truncate(w);
    if parallel {
        strings.truncate(w);
    }
    dropped
}

/// The delta repair of a downward-only query without positional
/// predicates: drop the rows of cut subtrees and renumber the rest in
/// place, recompute the string-dirty strings, then merge in a scoped
/// re-evaluation of the fresh ranges, back to front in the same
/// buffers. Returns `(dropped, spliced, strings_patched)`.
fn repair_query(
    q: &mut CachedQuery,
    tree: &XmlTree,
    new: &PreorderIndex,
    runs: SpliceRuns<'_>,
    dirty: &[usize],
) -> (u64, u64, u64) {
    let dropped = renumber(&mut q.rows, &mut q.strings, runs.kept);
    #[cfg(test)]
    tests::fault_point(tests::Phase::MidRepair);
    let mut patched = patch_strings(q, tree, new, dirty);
    let fresh = q.pattern.evaluate_within(tree, new, runs.fresh);
    if !fresh.is_empty() {
        let (mut i, mut j) = (q.rows.len(), fresh.len());
        q.rows.resize(i + j, 0);
        if q.want_strings {
            q.strings.resize(i + j, String::new());
        }
        // Kept and fresh rows never coincide; fill from the back.
        while j > 0 {
            let w = i + j - 1;
            if i > 0 && q.rows[i - 1] > fresh[j - 1] {
                i -= 1;
                q.rows[w] = q.rows[i];
                if q.want_strings {
                    q.strings.swap(w, i);
                }
            } else {
                j -= 1;
                q.rows[w] = fresh[j];
                if q.want_strings {
                    q.strings[w] = new.string_value(tree, fresh[j]);
                    patched += 1;
                }
            }
        }
    }
    (dropped, fresh.len() as u64, patched)
}

/// Full re-evaluation of one query against `tree`'s index `doc`.
fn rebuild_query(q: &mut CachedQuery, tree: &XmlTree, doc: &PreorderIndex) {
    q.rows = q.pattern.evaluate(tree, doc);
    if q.want_strings {
        q.strings = q.rows.iter().map(|&r| doc.string_value(tree, r)).collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze, analyze_in};
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

    /// Where in upkeep a fault point sits.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub(super) enum Phase {
        /// The cut is read off the old index; the splice has not run
        /// (a text-only batch's index already records its revision).
        BeforeSplice,
        /// The index is spliced, or follows a text-only batch; no query
        /// is renumbered or patched yet.
        AfterSplice,
        /// After each query's class is counted: with two queries
        /// registered, between the first one's renumbering or string
        /// patch and the second one's.
        BetweenQueries,
        /// Inside a delta repair: the kept rows are renumbered, the
        /// fresh rows not merged in yet.
        MidRepair,
    }

    thread_local! {
        /// Armed by a test: the next [`fault_point`] of this phase on
        /// this thread panics.
        static FAULT_ARMED: std::cell::Cell<Option<Phase>> = const { std::cell::Cell::new(None) };
    }

    /// A fault point upkeep passes at `phase`: panics once when armed
    /// for it.
    pub(super) fn fault_point(phase: Phase) {
        if FAULT_ARMED.with(|armed| armed.get() == Some(phase)) {
            FAULT_ARMED.with(|armed| armed.set(None));
            panic!("injected fault at {phase:?}");
        }
    }

    /// How often the property must see each op kind (counted over the
    /// effective ops of every applied batch), and how many batches.
    const WANT: [(&str, usize); 8] = [
        ("batches", 600),
        ("CreateElement", 100),
        ("CreateNode", 100),
        ("Delete", 100),
        ("Replace", 100),
        ("MoveSubtree", 100),
        ("create-then-move", 20),
        ("SetText", 100),
    ];

    /// One random batch over `tree` mixing every edit a splice has to
    /// follow: element creates (at any place, and once more as a last
    /// child), text creates, deletes, replaces, moves
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
                2 => vec![Mutation::CreateElement {
                    id,
                    name,
                    place: Place::LastChildOf(anchor(rng)),
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

    /// Row-for-row equality with a fresh encode: source ids (equal ids
    /// under one tree mean equal content), parents, extents, `row_of`
    /// below the id bound and name buckets (bucket maps compare equal
    /// only if the spliced one kept no empty bucket, since a fresh index
    /// has none).
    fn same_as_fresh(spliced: &PreorderIndex, tree: &XmlTree) -> Result<(), String> {
        let fresh = PreorderIndex::encode(tree).map_err(|e| format!("fresh encode: {e:?}"))?;
        if spliced.len() != fresh.len() {
            return Err(format!("{} rows, fresh {}", spliced.len(), fresh.len()));
        }
        for i in 0..fresh.len() {
            let (a, b) = (spliced.source_id(i), fresh.source_id(i));
            if a != b
                || spliced.parent(i) != fresh.parent(i)
                || spliced.extent(i) != fresh.extent(i)
            {
                return Err(format!("row {i}: {a:?} vs fresh {b:?}"));
            }
        }
        for k in 0..tree.id_bound() {
            let id = NodeId::from_index(k);
            if spliced.row_of_source(id) != fresh.row_of_source(id) {
                return Err(format!("row_of({k}) differs"));
            }
        }
        if spliced.name_index() != fresh.name_index() {
            return Err("name buckets differ".to_string());
        }
        Ok(())
    }

    /// The last splice's run list, checked against the tables on both
    /// sides: every kept old row maps to the new row with the same
    /// source id, the fresh ranges hold exactly the rows of created and
    /// moved nodes (new ids, or old rows inside a `cut` extent), each
    /// fresh range is one subtree whose root's parent lies outside every
    /// fresh range, and the runs cover the new table once, in order.
    fn runs_are_exact(
        old: &PreorderIndex,
        new: &PreorderIndex,
        cut: &[(usize, usize)],
    ) -> Result<(), String> {
        let runs = new.splice_runs();
        let mut pieces: Vec<(usize, usize)> = runs.fresh.to_vec();
        let (mut old_end, mut new_end) = (0, 0);
        for &(o, n, len) in runs.kept {
            if o < old_end || n < new_end || len == 0 {
                return Err(format!("kept run ({o}, {n}, {len}) out of order or empty"));
            }
            (old_end, new_end) = (o + len, n + len);
            for j in 0..len {
                if old.source_id(o + j) != new.source_id(n + j) {
                    return Err(format!("kept old row {} is not new row {}", o + j, n + j));
                }
            }
            pieces.push((n, n + len));
        }
        if runs.fresh.windows(2).any(|w| w[0].1 > w[1].0) {
            return Err(format!("fresh ranges out of order: {:?}", runs.fresh));
        }
        for &(s, e) in runs.fresh {
            let outside = new.parent(s).is_none_or(|p| !row_in_extents(runs.fresh, p));
            if new.extent(s) != e || !outside {
                return Err(format!("fresh range ({s}, {e}) is not one subtree"));
            }
        }
        pieces.sort_unstable();
        let mut at = 0;
        for (s, e) in pieces {
            if s != at || e <= s {
                return Err(format!(
                    "runs do not tile the table at row {at}: ({s}, {e})"
                ));
            }
            at = e;
        }
        if at != new.len() {
            return Err(format!("runs cover {at} of {} rows", new.len()));
        }
        for i in 0..new.len() {
            let made_or_moved = old
                .row_of_source(new.source_id(i))
                .is_none_or(|r| cut.iter().any(|&(s, e)| s <= r && r < e));
            if row_in_extents(runs.fresh, i) != made_or_moved {
                return Err(format!(
                    "row {i}: fresh {}, created or moved {made_or_moved}",
                    row_in_extents(runs.fresh, i)
                ));
            }
        }
        Ok(())
    }

    /// After every batch of a run, the spliced shadow equals a fresh
    /// encode, its run list maps each old row to its new one
    /// ([`runs_are_exact`]), and the plan analyzed against it — the
    /// document's standing index — equals the plan analyzed against a
    /// freshly encoded index, field for field (footprints, edges,
    /// components, canonical order, redundant ops and nil components).
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
                let mut shadow = match PreorderIndex::encode(&tree) {
                    Ok(s) => s,
                    Err(e) => return Outcome::Fail(format!("encode: {e:?}")),
                };
                for (b, seed) in batch_seeds.into_iter().enumerate() {
                    let log = random_batch(&tree, &mut TestRng::seed_from_u64(seed));
                    let plan = match analyze_in(&log, &tree, &shadow) {
                        Ok(p) => p,
                        Err(e) => return Outcome::Fail(format!("batch {b}: analyze: {e:?}")),
                    };
                    match analyze(&log, &tree) {
                        Ok(fresh) if fresh == plan => {}
                        other => {
                            return Outcome::Fail(format!(
                                "batch {b}: plan on the spliced index {plan:?}, \
                                 on a fresh one {other:?}; log {log:?}"
                            ))
                        }
                    }
                    let effective = plan.execution_order(false, session.cancellation_neutral());
                    if apply_log_dyn(&mut tree, &mut session, &log).is_err() {
                        continue;
                    }
                    let fp = match Footprint::read(&log, &plan, &effective, &shadow) {
                        Ok(fp) => fp,
                        Err(e) => return Outcome::Fail(format!("batch {b}: footprint: {e:?}")),
                    };
                    let old = shadow.clone();
                    shadow = match shadow.splice(&tree, &fp.roots()) {
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
                    if let Err(e) = runs_are_exact(&old, &shadow, &fp.cut) {
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

        // Drop the deleted extent from the plan: the splice is no longer
        // told about the node that went away, so it refuses, and the
        // cache encodes afresh and rebuilds every query.
        for fp in &mut plan.footprints {
            fp.deleted_extents.clear();
        }
        let old = cache.shadow.clone().unwrap();
        let fp = Footprint::read(&log, &plan, &effective, &old).unwrap();
        assert!(
            old.splice(&tree, &fp.roots()).is_err(),
            "the splice must notice a deletion it was not told about"
        );

        let impact = cache.absorb(&log, &plan, &effective, &tree).unwrap();
        assert_eq!(impact.classes, vec![QueryClass::Rebuilt; exprs.len()]);
        same_as_fresh(cache.shadow.as_ref().unwrap(), &tree).unwrap();
        let fresh = PreorderIndex::encode(&tree).unwrap();
        for (q, e) in exprs.iter().enumerate() {
            let rows = e.evaluate(&tree, &fresh);
            let strings: Vec<String> = rows.iter().map(|&r| fresh.string_value(&tree, r)).collect();
            assert_eq!(cache.rows(q), rows.as_slice(), "query {q} rows");
            assert_eq!(cache.strings(q), strings.as_slice(), "query {q} strings");
        }
    }

    /// Two fresh roots that sit next to each other in document order
    /// are two fresh ranges: an element created as `y`'s last child and
    /// then an attribute created as `item`'s last child. The predicate
    /// check reads each range's root only, so a single range starting
    /// at the element would miss the attribute that now makes `item` a
    /// member, and the repair would keep the empty answer.
    #[test]
    fn a_predicate_reads_the_second_of_two_adjacent_fresh_roots() {
        use crate::document::Document;

        let tree = xupd_xmldom::parse("<r><item><y/></item></r>").unwrap();
        let mut doc = Document::encode(Qed::new(), &tree).unwrap();
        let q = doc.register_query(r#"//item[@id="x"]"#, true).unwrap();
        assert_eq!(doc.cached_rows(q), Some(&[][..]));
        let named = |name: &str| {
            tree.preorder()
                .find(|&id| tree.kind(id).name() == Some(name))
                .unwrap()
        };
        let log = MutationLog::from(vec![
            Mutation::CreateElement {
                id: LogId(0),
                name: "e".to_string(),
                place: Place::LastChildOf(NodeRef::Node(named("y"))),
            },
            Mutation::CreateNode {
                id: LogId(1),
                kind: NodeKind::Attribute {
                    name: "id".to_string(),
                    value: "x".to_string(),
                },
                place: Place::LastChildOf(NodeRef::Node(named("item"))),
            },
        ]);
        doc.apply_log(&log).unwrap();
        let fresh = PreorderIndex::encode(doc.tree()).unwrap();
        let want = xupd_encoding::parse_xpath(r#"//item[@id="x"]"#)
            .unwrap()
            .evaluate(doc.tree(), &fresh);
        assert_eq!(want.len(), 1, "item is a member now");
        assert_eq!(doc.cached_rows(q), Some(want.as_slice()));
    }

    /// A text-only batch moves no row: the index's source ids, parents,
    /// extents, `row_of` and name buckets keep their pre-batch values
    /// and only the revision moves, while string values and the cached
    /// strings show the new text, read from the tree.
    #[test]
    fn text_only_batches_move_only_the_revision() {
        let mut tree = docs::xmark_like(9, 40);
        let mut session = SchemeSession::new(Qed::new());
        session.label_tree(&tree).unwrap();
        let mut cache = QueryCache::new();
        let expr = xupd_encoding::parse_xpath("//item/name").unwrap();
        let q = cache.register(&expr, true, &tree).unwrap();
        let before = cache.shadow.clone().unwrap();
        let name_row = cache.rows(q)[0];
        let text = before
            .descendant_range(name_row)
            .map(|r| before.source_id(r))
            .find(|&id| tree.kind(id).is_text())
            .unwrap();
        let log = MutationLog::from(vec![Mutation::SetText {
            target: NodeRef::Node(text),
            text: "rewritten".to_string(),
        }]);
        let plan = analyze(&log, &tree).unwrap();
        let effective = plan.execution_order(false, session.cancellation_neutral());
        apply_log_dyn(&mut tree, &mut session, &log).unwrap();
        let impact = cache.absorb(&log, &plan, &effective, &tree).unwrap();
        assert!(impact.text_only);
        assert_eq!(impact.classes, [QueryClass::Repaired]);

        let after = cache.shadow.as_ref().unwrap();
        assert_ne!(after.revision(), before.revision());
        assert_eq!(after.revision(), tree.revision());
        assert_eq!(after.len(), before.len());
        for i in 0..before.len() {
            assert_eq!(after.source_id(i), before.source_id(i), "row {i}");
            assert_eq!(after.parent(i), before.parent(i), "row {i}");
            assert_eq!(after.extent(i), before.extent(i), "row {i}");
        }
        for k in 0..tree.id_bound() {
            let id = NodeId::from_index(k);
            assert_eq!(after.row_of_source(id), before.row_of_source(id), "id {k}");
        }
        assert_eq!(after.name_index(), before.name_index());
        assert_eq!(after.string_value(&tree, name_row), "rewritten");
        assert_eq!(cache.strings(q)[0], "rewritten");
    }

    /// A batch that moves no row leaves every query unaffected, fully
    /// named or not: a text-only batch, and, under DeweyID, which is not
    /// cancellation-neutral, a batch that creates an `item` and deletes
    /// it again, whose two ops both run and neither cut nor add a row.
    #[test]
    fn a_batch_that_moves_no_row_leaves_every_query_unaffected() {
        use xupd_schemes::prefix::dewey::DeweyId;

        const EXPRS: [&str; 4] = ["//*", "//item/name", "/site/regions/*[1]", "//name/.."];
        let exprs: Vec<XPathExpr> = EXPRS
            .iter()
            .map(|e| xupd_encoding::parse_xpath(e).unwrap())
            .collect();
        let mut tree = docs::xmark_like(9, 40);
        let mut session = SchemeSession::new(DeweyId::new());
        session.label_tree(&tree).unwrap();
        assert!(!session.cancellation_neutral());
        let mut cache = QueryCache::new();
        for e in &exprs {
            cache.register(e, false, &tree).unwrap();
        }
        let named = |tree: &XmlTree, name: &str| {
            tree.preorder()
                .find(|&id| tree.kind(id).name() == Some(name))
                .unwrap()
        };
        for k in 0..2 {
            let log = if k == 0 {
                let name = named(&tree, "name");
                let text = tree.children(name).find(|&id| tree.kind(id).is_text());
                MutationLog::from(vec![Mutation::SetText {
                    target: NodeRef::Node(text.unwrap()),
                    text: "rewritten".to_string(),
                }])
            } else {
                MutationLog::from(vec![
                    Mutation::CreateElement {
                        id: LogId(0),
                        name: "item".to_string(),
                        place: Place::FirstChildOf(NodeRef::Node(named(&tree, "regions"))),
                    },
                    Mutation::Delete {
                        target: NodeRef::New(LogId(0)),
                    },
                ])
            };
            let plan = analyze(&log, &tree).unwrap();
            let effective = plan.execution_order(false, session.cancellation_neutral());
            if k == 1 {
                assert_eq!(effective, [0, 1], "both ops of the nil component run");
            }
            apply_log_dyn(&mut tree, &mut session, &log).unwrap();
            let impact = cache.absorb(&log, &plan, &effective, &tree).unwrap();
            assert_eq!(impact.text_only, k == 0, "batch {k}");
            assert_eq!(impact.classes, [QueryClass::Unaffected; 4], "batch {k}");
            let fresh = PreorderIndex::encode(&tree).unwrap();
            for (q, e) in exprs.iter().enumerate() {
                let want = e.evaluate(&tree, &fresh);
                assert_eq!(cache.rows(q), want.as_slice(), "batch {k}: {}", EXPRS[q]);
            }
        }
    }

    /// A plan made on another document is refused before any footprint
    /// is read, and the index and every cached query stay as they were.
    /// The plan's rows lie past the book's, so reading its footprints
    /// on the book's index would index out of bounds.
    #[test]
    fn absorb_refuses_a_plan_made_for_another_tree_state() {
        let book = docs::book();
        let mut cache = QueryCache::new();
        for e in ["//title", "//author", "/book//text()"] {
            cache
                .register(&xupd_encoding::parse_xpath(e).unwrap(), true, &book)
                .unwrap();
        }
        let before: Vec<(Vec<usize>, Vec<String>)> = (0..cache.len())
            .map(|q| (cache.rows(q).to_vec(), cache.strings(q).to_vec()))
            .collect();
        let stats = *cache.stats();

        let mut other = docs::xmark_like(5, 60);
        let order = other.ids_in_doc_order();
        let last_text = *order
            .iter()
            .rev()
            .find(|&&id| other.kind(id).is_text())
            .unwrap();
        let last_item = *order
            .iter()
            .rev()
            .find(|&&id| other.kind(id).name() == Some("item"))
            .unwrap();
        let log = MutationLog::from(vec![
            Mutation::SetText {
                target: NodeRef::Node(last_text),
                text: "elsewhere".to_string(),
            },
            Mutation::Delete {
                target: NodeRef::Node(last_item),
            },
        ]);
        let plan = analyze(&log, &other).unwrap();
        let mut session = SchemeSession::new(Qed::new());
        session.label_tree(&other).unwrap();
        let effective = plan.execution_order(false, session.cancellation_neutral());
        apply_log_dyn(&mut other, &mut session, &log).unwrap();

        let refused = |r: Result<BatchImpact, TreeError>| matches!(r, Err(TreeError::Invariant(_)));
        assert!(refused(cache.absorb(&log, &plan, &effective, &book)));
        assert!(refused(cache.absorb(&log, &plan, &effective, &other)));
        // a plan for another log is refused too
        let short = MutationLog::from(vec![]);
        assert!(refused(cache.absorb(&short, &plan, &[], &book)));

        assert!(
            cache.is_current(&book),
            "the index still describes the book"
        );
        assert_eq!(*cache.stats(), stats);
        for (q, (rows, strings)) in before.iter().enumerate() {
            assert_eq!(cache.rows(q), rows.as_slice(), "query {q} rows");
            assert_eq!(cache.strings(q), strings.as_slice(), "query {q} strings");
        }

        // A revision counts one tree's mutations, so another document
        // can share it: bring the book to the plan's revision. The
        // plan's rows then lie outside the book's index, which is
        // refused too, before the index is touched.
        let mut book = book;
        let text = book
            .ids_in_doc_order()
            .into_iter()
            .find(|&id| book.kind(id).is_text())
            .unwrap();
        while book.revision() != plan.revision() {
            *book.kind_mut(text) = NodeKind::Text {
                value: "again".to_string(),
            };
        }
        cache.refresh(&book).unwrap();
        let stats = *cache.stats();
        assert!(refused(cache.absorb(&log, &plan, &effective, &book)));
        assert!(cache.is_current(&book), "the index survives the refusal");
        assert_eq!(*cache.stats(), stats);
    }

    /// A panic in upkeep, after the batch committed to the tree and
    /// labels, leaves a cache that refuses to serve rather than one
    /// serving the pre-batch rows or strings, whichever phase it hits:
    /// before the splice, after it, between two queries' renumbering,
    /// inside a delta repair (the batch's cut and fresh items take that
    /// path), and on a text-only batch before and after the index
    /// follows its text, or between two queries' string patches. The
    /// next read refreshes, and the next batch is absorbed exactly.
    #[test]
    fn a_panic_in_any_upkeep_phase_leaves_the_cache_stale() {
        use crate::document::Document;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        const EXPRS: [&str; 2] = ["//item", "//name"];
        /// Rows and strings of every query on a fresh encoding.
        fn fresh(tree: &XmlTree) -> Vec<(Vec<usize>, Vec<String>)> {
            let index = PreorderIndex::encode(tree).unwrap();
            EXPRS
                .iter()
                .map(|e| {
                    let rows = xupd_encoding::parse_xpath(e)
                        .unwrap()
                        .evaluate(tree, &index);
                    let strings = rows.iter().map(|&r| index.string_value(tree, r)).collect();
                    (rows, strings)
                })
                .collect()
        }
        /// A batch that deletes the first item and appends an item with
        /// a name under `regions`: it cuts and adds rows of both queries.
        fn batch(tree: &XmlTree) -> MutationLog {
            let order = tree.ids_in_doc_order();
            let named = |name: &str| {
                order
                    .iter()
                    .copied()
                    .find(|&id| tree.kind(id).name() == Some(name))
                    .unwrap()
            };
            MutationLog::from(vec![
                Mutation::Delete {
                    target: NodeRef::Node(named("item")),
                },
                Mutation::CreateElement {
                    id: LogId(0),
                    name: "item".to_string(),
                    place: Place::LastChildOf(NodeRef::Node(named("regions"))),
                },
                Mutation::CreateElement {
                    id: LogId(1),
                    name: "name".to_string(),
                    place: Place::LastChildOf(NodeRef::New(LogId(0))),
                },
            ])
        }

        /// A text-only batch that rewrites the text of the first `name`
        /// inside an `item`: it dirties a string of both queries.
        fn text_batch(tree: &XmlTree) -> MutationLog {
            let named = |from: NodeId, name: &str| {
                tree.preorder_from(from)
                    .find(|&id| tree.kind(id).name() == Some(name))
                    .unwrap()
            };
            let name = named(named(tree.root(), "item"), "name");
            let text = tree.children(name).find(|&id| tree.kind(id).is_text());
            MutationLog::from(vec![Mutation::SetText {
                target: NodeRef::Node(text.unwrap()),
                text: format!("rewritten at {}", tree.revision()),
            }])
        }

        /// Makes a case's batch for the document's current tree.
        type MakeBatch = fn(&XmlTree) -> MutationLog;
        let cases: [(Phase, MakeBatch); 7] = [
            (Phase::BeforeSplice, batch),
            (Phase::AfterSplice, batch),
            (Phase::BetweenQueries, batch),
            (Phase::MidRepair, batch),
            (Phase::BeforeSplice, text_batch),
            (Phase::AfterSplice, text_batch),
            (Phase::BetweenQueries, text_batch),
        ];
        for (k, (phase, batch)) in cases.into_iter().enumerate() {
            let at = format!("case {k}, {phase:?}");
            let mut doc = Document::encode(Qed::new(), &docs::xmark_like(23, 70)).unwrap();
            for e in EXPRS {
                doc.register_query(e, true).unwrap();
            }
            let before: Vec<usize> = (0..EXPRS.len())
                .map(|q| doc.cached_rows(q).unwrap().len())
                .collect();

            FAULT_ARMED.with(|armed| armed.set(Some(phase)));
            let log = batch(doc.tree());
            let outcome = catch_unwind(AssertUnwindSafe(|| doc.apply_log(&log)));
            assert!(outcome.is_err(), "{at}: the fault point fired");
            assert_eq!(FAULT_ARMED.with(|armed| armed.get()), None);
            for q in 0..EXPRS.len() {
                assert_eq!(doc.cached_rows(q), None, "{at}: query {q} refused");
                assert_eq!(doc.cached_strings_ref(q), None, "{at}: query {q}");
            }
            let want = fresh(doc.tree());
            for (q, (rows, strings)) in want.iter().enumerate() {
                assert_eq!(rows.len(), before[q], "{at}: as many rows as before");
                assert_eq!(doc.query_cached(q).unwrap(), rows.as_slice(), "{at}");
                assert_eq!(doc.cached_strings_ref(q), Some(strings.as_slice()));
            }

            let log = batch(doc.tree());
            doc.apply_log(&log).unwrap();
            let want = fresh(doc.tree());
            for (q, (rows, strings)) in want.iter().enumerate() {
                assert_eq!(
                    doc.cached_rows(q),
                    Some(rows.as_slice()),
                    "{at}: next batch"
                );
                assert_eq!(doc.cached_strings_ref(q), Some(strings.as_slice()));
            }
        }
    }
}
