//! The unified `Document` facade.
//!
//! The crates expose the full pipeline as separate entry points —
//! `EncodedDocument::encode`, `parse_xpath` + `XPathExpr::evaluate`,
//! `run_script_dyn`, `verify_dyn`, `reconstruct` — each with its own
//! state to thread. [`Document`] bundles them behind one handle:
//!
//! ```
//! use xupd_framework::Document;
//! use xupd_schemes::prefix::qed::Qed;
//! use xupd_workloads::{docs, Script, ScriptKind};
//!
//! let tree = docs::book();
//! let mut doc = Document::encode(Qed::new(), &tree).unwrap();
//! let hits = doc.xpath("//title").unwrap();
//! assert_eq!(hits.len(), 1);
//! let script = Script::generate(ScriptKind::Random, 20, doc.tree().len(), 9);
//! doc.apply(&script).unwrap();
//! assert!(doc.verify().unwrap().is_sound());
//! let rebuilt = doc.reconstruct().unwrap();
//! assert_eq!(rebuilt.len(), doc.tree().len());
//! ```
//!
//! The document owns a live [`XmlTree`] plus one [`SchemeSession`] (the
//! scheme and its labelling), updated incrementally by
//! [`Document::apply`]; every verify and write path hands that session
//! to the framework function as it is.
//!
//! Queries, the analyzer, flux compiles and script compiles all read one
//! structure: the document's [`PreorderIndex`], the [`QueryCache`]'s
//! shadow table. It is encoded on first need ([`Document::xpath`],
//! [`Document::register_query`], [`Document::tree_with_index`],
//! [`Document::compile_script`]) and
//! then kept current by every analyzed batch — spliced after a
//! structural batch, patched after a text-only one — whether or not a
//! query is registered. Registered queries are maintained
//! incrementally over it instead of being re-evaluated per batch.
//!
//! The labelled snapshot under the document's own scheme is built only
//! for [`Document::encoded`] and [`Document::reconstruct`], lazily:
//! calls between two updates share one snapshot. A batch with zero
//! effective ops (empty, all-redundant, or a cancelled create/delete
//! component under a cancellation-neutral scheme) leaves it standing;
//! any other batch drops it.

use crate::analysis::{self, AnalyzedPlan, ApplyOptions};
use crate::driver::{run_script_dyn, DriveStats};
use crate::mutations::{self, MutationLog};
use crate::querycache::{CacheStats, PreorderIndex, QueryCache, QueryId};
use crate::verify::{verify_dyn, VerifyOutcome};
use std::fmt;
use xupd_encoding::{parse_xpath, EncodedDocument, XPathError};
use xupd_labelcore::{DynScheme, Labeling, LabelingScheme, SchemeSession};
use xupd_workloads::Script;
use xupd_xmldom::{TreeError, XmlTree};

/// Random node pairs sampled by [`Document::verify`] for each relation.
const VERIFY_SAMPLE_PAIRS: usize = 300;
/// RNG seed for [`Document::verify`] sampling — fixed so facade
/// verification is reproducible.
const VERIFY_SEED: u64 = 0xFACADE;

/// Any error a facade operation can surface: a tree/labelling error or
/// an XPath parse error.
#[derive(Debug)]
pub enum DocumentError {
    /// Tree or labelling failure.
    Tree(TreeError),
    /// XPath expression did not parse.
    XPath(XPathError),
}

impl fmt::Display for DocumentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DocumentError::Tree(e) => write!(f, "{e}"),
            DocumentError::XPath(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for DocumentError {}

impl From<TreeError> for DocumentError {
    fn from(e: TreeError) -> Self {
        DocumentError::Tree(e)
    }
}

impl From<XPathError> for DocumentError {
    fn from(e: XPathError) -> Self {
        DocumentError::XPath(e)
    }
}

/// A labelled XML document under one scheme: live tree + labelling for
/// updates and verification, a preorder index for queries and analysis,
/// and a lazily encoded labelled snapshot.
pub struct Document<S: LabelingScheme + Clone + 'static> {
    tree: XmlTree,
    session: SchemeSession<S>,
    snapshot: Option<EncodedDocument<S>>,
    /// How many times the lazy labelled snapshot has been (re)built —
    /// one per first [`Document::encoded`] call after an update,
    /// however many ops the update batched.
    snapshot_rebuilds: u64,
    /// The preorder index, and the result sets of registered queries
    /// maintained over it.
    cache: QueryCache,
}

impl<S: LabelingScheme + Clone + 'static> Document<S> {
    /// Label a copy of `tree` under `scheme`.
    pub fn encode(scheme: S, tree: &XmlTree) -> Result<Self, TreeError> {
        let tree = tree.clone();
        let mut session = SchemeSession::new(scheme);
        session.label_tree(&tree)?;
        Ok(Document {
            tree,
            session,
            snapshot: None,
            snapshot_rebuilds: 0,
            cache: QueryCache::new(),
        })
    }

    /// The live tree.
    pub fn tree(&self) -> &XmlTree {
        &self.tree
    }

    /// The scheme instance.
    pub fn scheme(&self) -> &S {
        self.session.typed_scheme()
    }

    /// The live labelling.
    pub fn labeling(&self) -> &Labeling<S::Label> {
        self.session.typed_labeling()
    }

    /// The labelled snapshot of the current tree, building it on first
    /// use after an update. Its rows are numbered like the preorder
    /// index, so the rows [`Document::xpath`] returns address it.
    pub fn encoded(&mut self) -> Result<&EncodedDocument<S>, TreeError> {
        match self.snapshot {
            Some(ref enc) => Ok(enc),
            None => {
                let enc = EncodedDocument::encode(self.scheme().clone(), &self.tree)?;
                self.snapshot_rebuilds += 1;
                Ok(self.snapshot.insert(enc))
            }
        }
    }

    /// The live tree with its preorder index, encoding the index first
    /// if the document holds no current one.
    pub fn tree_with_index(&mut self) -> Result<(&XmlTree, &PreorderIndex), TreeError> {
        let index = self.cache.index(&self.tree)?;
        Ok((&self.tree, index))
    }

    /// Evaluate an XPath expression against the current tree, on the
    /// preorder index. Returns matching row indices in document order;
    /// they address [`Document::encoded`] too.
    pub fn xpath(&mut self, expr: &str) -> Result<Vec<usize>, DocumentError> {
        let expr = parse_xpath(expr)?;
        Ok(expr.evaluate(self.cache.index(&self.tree)?))
    }

    /// Replay an update script against the live tree through the
    /// scheme's insertion/deletion path, dropping the labelled
    /// snapshot. Scripts bypass the mutation-log analyzer, so the
    /// query cache is marked stale and the index and every query are
    /// rebuilt on next need — incremental maintenance needs a
    /// footprint.
    pub fn apply(&mut self, script: &Script) -> Result<DriveStats, TreeError> {
        self.snapshot = None;
        self.cache.mark_stale();
        run_script_dyn(&mut self.tree, &mut self.session, script)
    }

    /// Translate an update script into one [`MutationLog`] against the
    /// live tree, as [`mutations::batch_of_in_place`] does, but ranking
    /// the elements by the preorder index's element list instead of a
    /// scan of the tree, so the translation costs O(script). The index
    /// is encoded first if the document holds no current one, as
    /// [`Document::xpath`] does; the [`Document::apply_log`] that
    /// follows then takes the analyzed path. The translation runs on
    /// the document's own tree under an undo journal it rolls back, so
    /// it copies nothing, and the tree's bytes and revision come back
    /// exactly — the index, the registered queries and the labelled
    /// snapshot all stay current for that apply.
    pub fn compile_script(&mut self, script: &Script) -> Result<MutationLog, TreeError> {
        let index = self.cache.index(&self.tree)?;
        mutations::batch_of_on_index(script, &mut self.tree, index)
    }

    /// Apply a [`MutationLog`] atomically against the live tree, in log
    /// order: validated up front, all-or-nothing on failure. A rejected
    /// batch changes nothing — snapshot, index and cache stay put. When
    /// the document holds a current preorder index, the batch is
    /// analyzed against it (which validates it) and applied through
    /// [`Document::apply_planned`] under [`ApplyOptions::sequential`],
    /// which keeps the index current. Otherwise it goes straight to
    /// [`mutations::apply_log_dyn`] with no analysis, and the labelled
    /// snapshot is dropped.
    pub fn apply_log(&mut self, log: &MutationLog) -> Result<DriveStats, TreeError> {
        if !self.cache.is_current(&self.tree) {
            // No index to keep: skip the analysis pass entirely so a
            // document nothing queries pays only the apply.
            let stats = mutations::apply_log_dyn(&mut self.tree, &mut self.session, log)?;
            self.snapshot = None;
            self.cache.mark_stale();
            return Ok(stats);
        }
        let plan = analysis::analyze_in(log, &self.tree, self.cache.index(&self.tree)?)?;
        self.apply_planned(log, &plan, ApplyOptions::sequential())
    }

    /// Apply a [`MutationLog`] through a plan [`analysis::analyze_in`]
    /// made for it on the current tree — the write path for compiled
    /// flux programs, whose compilation already analyzed the log. A
    /// plan for another log or another tree state is rejected before
    /// anything changes. Certificates requested in `opts` are granted
    /// only where the scheme's capabilities allow (see
    /// [`ApplyOptions`]).
    ///
    /// Upkeep is footprint-driven: a batch with zero effective ops
    /// leaves the labelled snapshot standing, any other batch drops it,
    /// and the [`QueryCache`] absorbs the batch from the same plan —
    /// splicing or patching the index and keeping, repairing or
    /// rebuilding each registered query.
    pub fn apply_planned(
        &mut self,
        log: &MutationLog,
        plan: &AnalyzedPlan,
        opts: ApplyOptions,
    ) -> Result<DriveStats, TreeError> {
        let stats =
            analysis::apply_plan_with_dyn(&mut self.tree, &mut self.session, log, plan, opts)?;
        // Nil components leave no trace under a cancellation-neutral
        // scheme, so they count as not executed whether or not `opts`
        // skipped them.
        let neutral = self.session.cancellation_neutral();
        let (reorder, _) = opts.granted(self.session.order_independent(), neutral);
        let effective = plan.execution_order(reorder, neutral);
        if !effective.is_empty() {
            self.snapshot = None;
        }
        // Absorb failures (unreachable in practice) degrade to a stale
        // cache, never to a wrong answer.
        if !self.cache.is_stale() && self.cache.absorb(log, plan, &effective, &self.tree).is_err()
        {
            self.cache.mark_stale();
        }
        Ok(stats)
    }

    /// Register an XPath query for incremental maintenance: the result
    /// set is materialized now and kept exact across every
    /// [`Document::apply_log`] batch by impact analysis. With
    /// `want_strings`, XPath string values are cached alongside the
    /// rows.
    pub fn register_query(
        &mut self,
        expr: &str,
        want_strings: bool,
    ) -> Result<QueryId, DocumentError> {
        let expr = parse_xpath(expr)?;
        Ok(self.cache.register(&expr, want_strings, &self.tree)?)
    }

    /// Read-only cached result rows of a registered query: served
    /// straight from the [`QueryCache`] with **no** side effects — no
    /// index or snapshot build, no cache refresh, no hit counting. Returns
    /// `None` when the cache is stale (an untracked [`Document::apply`]
    /// script ran) or `q` was never registered; the caller must then
    /// take the mutable [`Document::query_cached`] path.
    ///
    /// This is the store's concurrent read path: any number of readers
    /// can share `&Document` without ever triggering the redundant
    /// rebuilds an `&mut` accessor would race to perform.
    pub fn cached_rows(&self, q: QueryId) -> Option<&[usize]> {
        (!self.cache.is_stale() && q < self.cache.len()).then(|| self.cache.rows(q))
    }

    /// Read-only cached string values of a registered query (see
    /// [`Document::cached_rows`]; empty unless registered with
    /// `want_strings`).
    pub fn cached_strings_ref(&self, q: QueryId) -> Option<&[String]> {
        (!self.cache.is_stale() && q < self.cache.len()).then(|| self.cache.strings(q))
    }

    /// The maintained result rows of a registered query (preorder
    /// positions, which address [`Document::encoded`] too), served
    /// from the cache —
    /// no re-evaluation unless an untracked update forced a refresh.
    pub fn query_cached(&mut self, q: QueryId) -> Result<&[usize], TreeError> {
        if self.cache.is_stale() {
            self.cache.refresh(&self.tree)?;
        }
        Ok(self.cache.hit(q))
    }

    /// Cumulative cache counters, alongside
    /// [`Document::snapshot_rebuilds`].
    pub fn cache_stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// How many times the lazy labelled snapshot has been (re)built.
    pub fn snapshot_rebuilds(&self) -> u64 {
        self.snapshot_rebuilds
    }

    /// Verify the live labelling against tree ground truth (document
    /// order, duplicates, sampled relation and level answers).
    pub fn verify(&self) -> Result<VerifyOutcome, TreeError> {
        verify_dyn(&self.tree, &self.session, VERIFY_SAMPLE_PAIRS, VERIFY_SEED)
    }

    /// Rebuild an [`XmlTree`] from the encoded snapshot alone — the
    /// round-trip the paper's reconstruction property asks for.
    pub fn reconstruct(&mut self) -> Result<XmlTree, TreeError> {
        let enc = self.encoded()?;
        xupd_encoding::reconstruct::reconstruct(enc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_schemes::prefix::dewey::DeweyId;
    use xupd_schemes::prefix::qed::Qed;
    use xupd_workloads::{docs, Script, ScriptKind};

    #[test]
    fn facade_round_trip_queries_updates_and_verifies() {
        let tree = docs::xmark_like(41, 80);
        let mut doc = Document::encode(Qed::new(), &tree).unwrap();
        let before = doc.xpath("//item").unwrap();
        assert!(!before.is_empty());

        let script = Script::generate(ScriptKind::Random, 40, doc.tree().len(), 5);
        let stats = doc.apply(&script).unwrap();
        assert_eq!(stats.inserts, 40);
        assert!(doc.verify().unwrap().is_sound());

        // snapshot rebuilt after the update: the new nodes are visible
        let rebuilt = doc.reconstruct().unwrap();
        assert_eq!(rebuilt.len(), doc.tree().len());
    }

    #[test]
    fn snapshot_is_reused_between_updates() {
        let tree = docs::book();
        let mut doc = Document::encode(DeweyId::new(), &tree).unwrap();
        let a = doc.encoded().unwrap() as *const _;
        doc.xpath("//title").unwrap();
        let b = doc.encoded().unwrap() as *const _;
        assert_eq!(a, b, "no re-encode without an update");
        doc.apply(&Script::generate(ScriptKind::AppendOnly, 3, tree.len(), 1))
            .unwrap();
        let c = doc.encoded().unwrap() as *const _;
        assert!(doc.tree().len() > tree.len());
        let _ = c; // rebuilt lazily; contents now include the appended nodes
        assert_eq!(doc.encoded().unwrap().len(), doc.tree().len());
    }

    #[test]
    fn batch_apply_invalidates_snapshot_exactly_once() {
        use crate::mutations::{batch_of, Mutation, MutationLog, NodeRef};
        use xupd_xmldom::NodeId;

        let tree = docs::random_tree(3, 60);
        let mut doc = Document::encode(Qed::new(), &tree).unwrap();
        doc.encoded().unwrap();
        assert_eq!(doc.snapshot_rebuilds(), 1, "initial lazy build");
        doc.xpath("//e1").unwrap();
        assert_eq!(doc.snapshot_rebuilds(), 1, "xpath reads the index");

        // a 100-op batch costs exactly one rebuild, observed only when
        // the next call forces the lazy snapshot
        let script = Script::generate(ScriptKind::Random, 100, tree.len(), 8);
        let log = batch_of(&script, doc.tree()).unwrap();
        assert!(log.len() >= 90, "most ops survive the skip rules");
        doc.apply_log(&log).unwrap();
        assert_eq!(doc.snapshot_rebuilds(), 1, "invalidation alone is free");
        doc.xpath("//e1").unwrap();
        doc.encoded().unwrap();
        doc.reconstruct().unwrap();
        assert_eq!(doc.snapshot_rebuilds(), 2, "one rebuild per batch");

        // a rejected batch changes nothing and keeps the snapshot
        let bad = MutationLog::from(vec![Mutation::Delete {
            target: NodeRef::Node(NodeId::from_index(doc.tree().id_bound() + 9)),
        }]);
        doc.apply_log(&bad).unwrap_err();
        doc.encoded().unwrap();
        assert_eq!(doc.snapshot_rebuilds(), 2, "rejected batch is free too");
    }

    #[test]
    fn compile_script_keeps_the_index_and_the_batch_is_absorbed() {
        let tree = docs::xmark_like(5, 60);
        let mut doc = Document::encode(Qed::new(), &tree).unwrap();
        let q = doc.register_query("//item", true).unwrap();
        doc.encoded().unwrap();
        let rows = doc.tree_with_index().unwrap().1.rows().as_ptr();
        let (rebuilds, absorbed) = (doc.snapshot_rebuilds(), doc.cache_stats().batches_absorbed);

        let script = Script::generate(ScriptKind::MixedDelete, 40, doc.tree().len(), 4);
        let log = doc.compile_script(&script).unwrap();
        assert!(!log.is_empty());
        assert!(doc.cache.is_current(&doc.tree), "the index is still current");
        assert_eq!(doc.tree_with_index().unwrap().1.rows().as_ptr(), rows, "nothing re-encoded");
        assert!(doc.snapshot.is_some(), "the snapshot stands");
        assert_eq!(doc.snapshot_rebuilds(), rebuilds);

        // the following apply takes the analyzed path and is absorbed
        doc.apply_log(&log).unwrap();
        assert_eq!(doc.cache_stats().batches_absorbed, absorbed + 1);
        assert!(!doc.cache.is_stale());
        let fresh = doc.xpath("//item").unwrap();
        assert_eq!(doc.query_cached(q).unwrap(), fresh.as_slice());

        // With no current index — a fresh document nothing has queried,
        // or one an untracked script left stale — the compile encodes
        // the index first, emits the scan-based translation's log, and
        // the apply that follows is analyzed and absorbed all the same.
        let fresh_doc = Document::encode(Qed::new(), &tree).unwrap();
        let mut stale_doc = Document::encode(Qed::new(), &tree).unwrap();
        let q = stale_doc.register_query("//item", true).unwrap();
        stale_doc
            .apply(&Script::generate(ScriptKind::Random, 10, tree.len(), 6))
            .unwrap();
        for (name, mut doc, q) in [("fresh", fresh_doc, None), ("stale", stale_doc, Some(q))] {
            assert!(!doc.cache.is_current(&doc.tree), "{name}: no current index");
            let absorbed = doc.cache_stats().batches_absorbed;
            let log = doc.compile_script(&script).unwrap();
            assert!(doc.cache.is_current(&doc.tree), "{name}: index encoded");
            let scanned = mutations::batch_of_in_place(&script, &mut doc.tree().clone()).unwrap();
            assert_eq!(log, scanned, "{name}: logs agree");

            doc.apply_log(&log).unwrap();
            assert_eq!(doc.cache_stats().batches_absorbed, absorbed + 1, "{name}");
            let expr = parse_xpath("//item").unwrap();
            let fresh = expr.evaluate(doc.encoded().unwrap());
            assert_eq!(doc.xpath("//item").unwrap(), fresh, "{name}: index rows");
            if let Some(q) = q {
                assert_eq!(doc.query_cached(q).unwrap(), fresh.as_slice(), "{name}");
            }
        }
    }

    #[test]
    fn noop_batches_do_not_invalidate_snapshot() {
        use crate::mutations::{LogId, Mutation, MutationLog, NodeRef, Place};
        use xupd_xmldom::NodeKind;

        let tree = docs::book();
        let mut doc = Document::encode(Qed::new(), &tree).unwrap();
        doc.xpath("//title").unwrap();
        doc.encoded().unwrap();
        assert_eq!(doc.snapshot_rebuilds(), 1, "initial lazy build");

        // an empty batch has zero effective ops
        doc.apply_log(&MutationLog::from(Vec::new())).unwrap();
        doc.encoded().unwrap();
        assert_eq!(doc.snapshot_rebuilds(), 1, "empty batch is a no-op");

        // a redundant text write (same value) is certified no-op
        let (text_id, text_val) = doc
            .tree()
            .ids_in_doc_order()
            .into_iter()
            .find_map(|id| match doc.tree().kind(id) {
                NodeKind::Text { value } => Some((id, value.clone())),
                _ => None,
            })
            .unwrap();
        doc.apply_log(&MutationLog::from(vec![Mutation::SetText {
            target: NodeRef::Node(text_id),
            text: text_val,
        }]))
        .unwrap();
        doc.encoded().unwrap();
        assert_eq!(doc.snapshot_rebuilds(), 1, "redundant write is a no-op");

        // a cancelled create+delete component leaves zero residue under
        // a cancellation-neutral scheme (Qed)
        assert!(doc.scheme().cancellation_neutral());
        let root_el = doc.xpath("/book").unwrap()[0];
        let root_id = doc.encoded().unwrap().source_id(root_el);
        doc.apply_log(&MutationLog::from(vec![
            Mutation::CreateElement {
                id: LogId(0),
                name: "tmp".to_string(),
                place: Place::LastChildOf(NodeRef::Node(root_id)),
            },
            Mutation::Delete {
                target: NodeRef::New(LogId(0)),
            },
        ]))
        .unwrap();
        doc.encoded().unwrap();
        assert_eq!(doc.snapshot_rebuilds(), 1, "cancelled component is a no-op");
        // it moved the tree's revision, and the index records that
        assert!(doc.cache.is_current(&doc.tree), "index kept across the no-op");

        // ...but a real structural edit still invalidates exactly once
        doc.apply_log(&MutationLog::from(vec![Mutation::CreateElement {
            id: LogId(0),
            name: "appendix".to_string(),
            place: Place::LastChildOf(NodeRef::Node(root_id)),
        }]))
        .unwrap();
        doc.encoded().unwrap();
        assert_eq!(doc.snapshot_rebuilds(), 2, "structural batch invalidates");
    }

    #[test]
    fn text_only_batches_patch_the_index_and_drop_the_snapshot() {
        use crate::mutations::{Mutation, MutationLog, NodeRef};

        let tree = docs::book();
        let mut doc = Document::encode(Qed::new(), &tree).unwrap();
        let title_row = doc.xpath("//title").unwrap()[0];
        let enc = doc.encoded().unwrap();
        let text_row = enc
            .descendant_range(title_row)
            .find(|&r| matches!(enc.row(r).kind, xupd_xmldom::NodeKind::Text { .. }))
            .unwrap();
        let text_id = enc.source_id(text_row);
        assert_eq!(doc.snapshot_rebuilds(), 1);
        let rows = doc.tree_with_index().unwrap().1.rows().as_ptr();

        doc.apply_log(&MutationLog::from(vec![Mutation::SetText {
            target: NodeRef::Node(text_id),
            text: "Growing Up With a Dream".to_string(),
        }]))
        .unwrap();
        // same index rows, new content — no re-encode happened
        let index = doc.tree_with_index().unwrap().1;
        assert_eq!(index.rows().as_ptr(), rows, "text batch patches the index in place");
        assert_eq!(index.string_value(title_row), "Growing Up With a Dream");
        assert!(doc.snapshot.is_none(), "text batch drops the snapshot");
        let enc = doc.encoded().unwrap();
        assert_eq!(enc.string_value(title_row), "Growing Up With a Dream");
        assert_eq!(doc.snapshot_rebuilds(), 2);
        assert!(doc.verify().unwrap().is_sound());
    }

    #[test]
    fn xpath_reads_the_index_and_builds_no_snapshot() {
        let tree = docs::xmark_like(7, 40);
        let mut doc = Document::encode(Qed::new(), &tree).unwrap();
        let paths = ["//item", "/site/regions/*", "//item/@id", "//name/..", "//text()"];
        let rows: Vec<Vec<usize>> = paths.iter().map(|p| doc.xpath(p).unwrap()).collect();
        assert_eq!(doc.snapshot_rebuilds(), 0, "xpath builds no labelled snapshot");
        for (p, rows) in paths.iter().zip(&rows) {
            let expr = parse_xpath(p).unwrap();
            assert_eq!(rows, &expr.evaluate(doc.encoded().unwrap()), "{p}");
        }
        assert_eq!(doc.snapshot_rebuilds(), 1);
    }

    #[test]
    fn registered_queries_survive_batches_and_stay_exact() {
        use crate::mutations::{LogId, Mutation, MutationLog, NodeRef, Place};

        let tree = docs::xmark_like(23, 70);
        let mut doc = Document::encode(Qed::new(), &tree).unwrap();
        let q = doc.register_query("//item", true).unwrap();
        let base = doc.query_cached(q).unwrap().to_vec();
        assert_eq!(base, doc.xpath("//item").unwrap());

        // structural batch: cached rows track the fresh evaluation
        let region = doc.xpath("//regions").unwrap()[0];
        let region_id = doc.encoded().unwrap().source_id(region);
        doc.apply_log(&MutationLog::from(vec![Mutation::CreateElement {
            id: LogId(0),
            name: "item".to_string(),
            place: Place::FirstChildOf(NodeRef::Node(region_id)),
        }]))
        .unwrap();
        let cached = doc.query_cached(q).unwrap().to_vec();
        assert_eq!(cached, doc.xpath("//item").unwrap());
        assert_eq!(cached.len(), base.len() + 1);

        // script path bypasses the analyzer: cache goes stale, then a
        // cached read refreshes and is exact again
        doc.apply(&Script::generate(ScriptKind::Random, 15, doc.tree().len(), 3))
            .unwrap();
        assert!(doc.cache.is_stale());
        let cached = doc.query_cached(q).unwrap().to_vec();
        assert_eq!(cached, doc.xpath("//item").unwrap());
        assert!(doc.cache_stats().hits >= 2);
    }

    #[test]
    fn read_only_accessors_never_rebuild_the_snapshot() {
        use crate::mutations::{LogId, Mutation, MutationLog, NodeRef, Place};

        let tree = docs::xmark_like(11, 60);
        let mut doc = Document::encode(Qed::new(), &tree).unwrap();
        let q = doc.register_query("//item", true).unwrap();
        let oracle = doc.xpath("//item").unwrap();
        assert_eq!(doc.snapshot_rebuilds(), 0, "xpath builds no snapshot");

        // a structural batch discards the snapshot and repairs the cache
        let region_id = {
            let region = doc.xpath("//regions").unwrap()[0];
            doc.encoded().unwrap().source_id(region)
        };
        doc.apply_log(&MutationLog::from(vec![Mutation::CreateElement {
            id: LogId(0),
            name: "item".to_string(),
            place: Place::FirstChildOf(NodeRef::Node(region_id)),
        }]))
        .unwrap();
        assert!(doc.snapshot.is_none(), "structural batch dropped it");

        // concurrent-reader shape: many cached reads off &Document fan
        // out on the pool — none of them may rebuild the snapshot
        let rebuilds_before = doc.snapshot_rebuilds();
        let shared = &doc;
        let reads: Vec<usize> = (0..64).collect();
        let row_counts = xupd_exec::par_map(&reads, |_| {
            let rows = shared.cached_rows(q).expect("cache is fresh");
            let strings = shared.cached_strings_ref(q).expect("cache is fresh");
            assert_eq!(rows.len(), strings.len());
            rows.len()
        });
        assert!(row_counts.iter().all(|&n| n == oracle.len() + 1));
        assert_eq!(
            doc.snapshot_rebuilds(),
            rebuilds_before,
            "read-only accessors triggered zero snapshot rebuilds"
        );
        assert!(doc.snapshot.is_none(), "still no snapshot built");

        // the cached rows match a fresh evaluation on the snapshot
        let fresh = parse_xpath("//item").unwrap().evaluate(doc.encoded().unwrap());
        assert_eq!(doc.cached_rows(q).unwrap(), fresh.as_slice());
        assert_eq!(doc.snapshot_rebuilds(), rebuilds_before + 1);

        // stale cache (script path) makes the read-only view refuse
        doc.apply(&Script::generate(ScriptKind::Random, 5, doc.tree().len(), 2))
            .unwrap();
        assert!(doc.cached_rows(q).is_none(), "stale cache is not served");
        assert!(doc.cached_strings_ref(q).is_none());
        // unregistered ids are None, not empty slices
        assert!(doc.query_cached(q).is_ok(), "mut path refreshes");
        assert!(doc.cached_rows(q + 99).is_none());
    }

    #[test]
    fn stale_plan_is_rejected_before_anything_changes() {
        use crate::mutations::{LogId, Mutation, MutationLog, NodeRef, Place};
        use xupd_xmldom::serialize_compact;

        let tree = xupd_xmldom::parse("<r><a><b/></a><c/><d><b/></d></r>").unwrap();
        let mut doc = Document::encode(Qed::new(), &tree).unwrap();
        let q = doc.register_query("//b", false).unwrap();
        let mut node = |path: &str| {
            let row = doc.xpath(path).unwrap()[0];
            doc.encoded().unwrap().source_id(row)
        };
        let (a, c) = (node("/r/a"), node("/r/c"));
        let insert = MutationLog::from(vec![Mutation::CreateElement {
            id: LogId(0),
            name: "b".to_string(),
            place: Place::LastChildOf(NodeRef::Node(c)),
        }]);
        let stale = analysis::analyze(&insert, doc.tree()).unwrap();

        // moving <c> before <a> shifts every row the plan resolved
        doc.apply_log(&MutationLog::from(vec![Mutation::MoveSubtree {
            target: NodeRef::Node(c),
            place: Place::Before(NodeRef::Node(a)),
        }]))
        .unwrap();
        let before = serialize_compact(doc.tree());
        let err = doc
            .apply_planned(&insert, &stale, ApplyOptions::sequential())
            .unwrap_err();
        assert!(matches!(err, TreeError::Invariant(_)), "{err}");
        assert_eq!(serialize_compact(doc.tree()), before, "nothing applied");
        let fresh = doc.xpath("//b").unwrap();
        assert_eq!(doc.query_cached(q).unwrap(), fresh.as_slice());

        // a plan made for the current state applies and keeps the cache exact
        let plan = analysis::analyze(&insert, doc.tree()).unwrap();
        doc.apply_planned(&insert, &plan, ApplyOptions::sequential())
            .unwrap();
        let fresh = doc.xpath("//b").unwrap();
        assert_eq!(fresh.len(), 3);
        assert_eq!(doc.query_cached(q).unwrap(), fresh.as_slice());
    }

    #[test]
    fn xpath_parse_errors_surface_as_document_errors() {
        let tree = docs::book();
        let mut doc = Document::encode(Qed::new(), &tree).unwrap();
        let err = doc.xpath("//[broken").unwrap_err();
        assert!(matches!(err, DocumentError::XPath(_)), "{err}");
    }
}
