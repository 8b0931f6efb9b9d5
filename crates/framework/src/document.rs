//! The unified `Document` facade.
//!
//! The crates expose the full pipeline as separate entry points —
//! `PreorderIndex::encode`, `parse_xpath` + `XPathExpr::evaluate`,
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
//! Queries, the analyzer, flux compiles, script compiles and
//! reconstruction all read one encoding, keyed by node id: the
//! session's labels, the document's [`PreorderIndex`] (structure only),
//! which the [`QueryCache`] keeps, and the live tree's node table
//! (content). The document holds no second copy of either labels or
//! content. The index is encoded on first need
//! ([`Document::xpath`], [`Document::register_query`],
//! [`Document::tree_with_index`], [`Document::compile_script`],
//! [`Document::apply_log`], [`Document::reconstruct`]) and then kept
//! current by every analyzed batch — spliced after a structural batch,
//! only re-stamped after a text-only one or one with zero effective
//! ops — whether or not a query is registered.
//! Registered queries are maintained incrementally over it instead of
//! being re-evaluated per batch.

use crate::analysis::{self, AnalyzedPlan, ApplyOptions};
use crate::driver::{run_script_dyn, DriveStats};
use crate::mutations::{self, MutationLog};
use crate::querycache::{CacheStats, QueryCache, QueryId};
use crate::verify::{verify_dyn, VerifyOutcome};
use std::fmt;
use xupd_encoding::{parse_xpath, PreorderIndex, XPathError};
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
/// updates and verification, and a preorder index for queries,
/// analysis and reconstruction.
pub struct Document<S: LabelingScheme + Clone + 'static> {
    tree: XmlTree,
    session: SchemeSession<S>,
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

    /// The live tree with its preorder index, encoding the index first
    /// if the document holds no current one. The rows
    /// [`Document::xpath`] returns address the index.
    pub fn tree_with_index(&mut self) -> Result<(&XmlTree, &PreorderIndex), TreeError> {
        let index = self.cache.index(&self.tree)?;
        Ok((&self.tree, index))
    }

    /// Evaluate an XPath expression against the current tree, on the
    /// preorder index. Returns matching row indices in document order;
    /// they address [`Document::tree_with_index`]'s index too.
    pub fn xpath(&mut self, expr: &str) -> Result<Vec<usize>, DocumentError> {
        let expr = parse_xpath(expr)?;
        Ok(expr.evaluate(&self.tree, self.cache.index(&self.tree)?))
    }

    /// Replay an update script against the live tree through the
    /// scheme's insertion/deletion path. Scripts bypass the
    /// mutation-log analyzer, so the query cache is marked stale and the
    /// index and every query are rebuilt on next need — incremental
    /// maintenance needs a footprint.
    pub fn apply(&mut self, script: &Script) -> Result<DriveStats, TreeError> {
        self.cache.mark_stale();
        run_script_dyn(&mut self.tree, &mut self.session, script)
    }

    /// Translate an update script into one [`MutationLog`] against the
    /// live tree, as [`mutations::batch_of_in_place`] does, but ranking
    /// the elements by the preorder index's element list instead of a
    /// scan of the tree, so the translation costs O(script). The index
    /// is encoded first if the document holds no current one, as
    /// [`Document::xpath`] does, and the [`Document::apply_log`] that
    /// follows analyzes against it. The translation runs on the
    /// document's own tree under an undo journal it rolls back, so it
    /// copies nothing, and the tree's bytes and revision come back
    /// exactly — the index and the registered queries both stay current
    /// for that apply.
    pub fn compile_script(&mut self, script: &Script) -> Result<MutationLog, TreeError> {
        let index = self.cache.index(&self.tree)?;
        mutations::batch_of_on_index(script, &mut self.tree, index)
    }

    /// Apply a [`MutationLog`] atomically against the live tree, in log
    /// order: validated up front, all-or-nothing on failure. A rejected
    /// batch changes nothing — index and cache stay put. The batch is
    /// analyzed against the preorder index (which validates it),
    /// encoding the index first if the document holds no current one,
    /// as [`Document::xpath`] does, and applied through
    /// [`Document::apply_planned`] under [`ApplyOptions::sequential`],
    /// which keeps the index current.
    pub fn apply_log(&mut self, log: &MutationLog) -> Result<DriveStats, TreeError> {
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
    /// Upkeep is footprint-driven: the [`QueryCache`] absorbs the batch
    /// from the same plan — splicing the index after a structural batch
    /// and keeping, repairing or rebuilding each registered query. A
    /// text-only batch, or one with zero effective ops, only re-stamps
    /// the index.
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
        // Absorb failures (unreachable in practice) degrade to a stale
        // cache, never to a wrong answer; so does a panic inside absorb,
        // which raises the flag once the batch passes its checks.
        if !self.cache.is_stale()
            && self
                .cache
                .absorb(log, plan, &effective, &self.tree)
                .is_err()
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
    /// index build, no cache refresh, no hit counting. Returns
    /// `None` when the cache is stale (an untracked [`Document::apply`]
    /// script ran, or a batch's cache upkeep failed or panicked) or `q`
    /// was never registered; the caller must then take the mutable
    /// [`Document::query_cached`] path.
    ///
    /// This is the store's concurrent read path: any number of readers
    /// can share `&Document` without ever triggering the redundant
    /// refreshes an `&mut` accessor would race to perform.
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
    /// positions into [`Document::tree_with_index`]'s index), served
    /// from the cache — no re-evaluation unless an untracked update
    /// forced a refresh.
    pub fn query_cached(&mut self, q: QueryId) -> Result<&[usize], TreeError> {
        if self.cache.is_stale() {
            self.cache.refresh(&self.tree)?;
        }
        Ok(self.cache.hit(q))
    }

    /// Cumulative cache counters.
    pub fn cache_stats(&self) -> &CacheStats {
        self.cache.stats()
    }

    /// Verify the live labelling against tree ground truth (document
    /// order, duplicates, sampled relation and level answers).
    pub fn verify(&self) -> Result<VerifyOutcome, TreeError> {
        verify_dyn(&self.tree, &self.session, VERIFY_SAMPLE_PAIRS, VERIFY_SEED)
    }

    /// Rebuild an [`XmlTree`] from the encoding — the round-trip the
    /// paper's reconstruction property asks for: structure from the
    /// preorder index, content from the tree's node table by node id.
    /// No label is read; the index is encoded first if the document
    /// holds no current one.
    pub fn reconstruct(&mut self) -> Result<XmlTree, TreeError> {
        xupd_encoding::reconstruct::reconstruct(&self.tree, self.cache.index(&self.tree)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_schemes::prefix::dewey::DeweyId;
    use xupd_schemes::prefix::qed::Qed;
    use xupd_workloads::{docs, Script, ScriptKind};
    use xupd_xmldom::{serialize_compact, NodeKind};

    /// Where the index keeps its element list, a buffer a splice
    /// reuses: the same address after a call exactly when the call
    /// encoded no new index.
    fn index_ptr<S: LabelingScheme + Clone + 'static>(doc: &mut Document<S>) -> *const u32 {
        doc.tree_with_index()
            .unwrap()
            .1
            .name_index()
            .all_elements()
            .as_ptr()
    }

    /// `expr` evaluated on a fresh encoding of the document's tree.
    fn fresh_rows<S: LabelingScheme + Clone + 'static>(
        doc: &Document<S>,
        expr: &str,
    ) -> Vec<usize> {
        let index = PreorderIndex::encode(doc.tree()).unwrap();
        parse_xpath(expr).unwrap().evaluate(doc.tree(), &index)
    }

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

        // index re-encoded after the update: the new nodes are visible
        let rebuilt = doc.reconstruct().unwrap();
        assert_eq!(rebuilt.len(), doc.tree().len());
    }

    #[test]
    fn index_is_reused_between_updates() {
        let tree = docs::book();
        let mut doc = Document::encode(DeweyId::new(), &tree).unwrap();
        doc.xpath("//title").unwrap();
        let a = index_ptr(&mut doc);
        doc.reconstruct().unwrap();
        doc.xpath("//title").unwrap();
        assert_eq!(index_ptr(&mut doc), a, "no re-encode without an update");
        doc.apply(&Script::generate(ScriptKind::AppendOnly, 3, tree.len(), 1))
            .unwrap();
        assert!(doc.tree().len() > tree.len());
        // encoded again lazily; it now includes the appended nodes
        assert_eq!(doc.tree_with_index().unwrap().1.len(), doc.tree().len());
    }

    #[test]
    fn batch_apply_is_absorbed_exactly_once() {
        use crate::mutations::{batch_of, Mutation, MutationLog, NodeRef};
        use xupd_xmldom::NodeId;

        let tree = docs::random_tree(3, 60);
        let mut doc = Document::encode(Qed::new(), &tree).unwrap();
        doc.xpath("//e1").unwrap();

        // a 100-op batch is absorbed once, however many ops it holds
        let script = Script::generate(ScriptKind::Random, 100, tree.len(), 8);
        let log = batch_of(&script, doc.tree()).unwrap();
        assert!(log.len() >= 90, "most ops survive the skip rules");
        doc.apply_log(&log).unwrap();
        assert_eq!(
            doc.cache_stats().batches_absorbed,
            1,
            "one absorb per batch"
        );
        assert_eq!(doc.xpath("//e1").unwrap(), fresh_rows(&doc, "//e1"));
        let back = doc.reconstruct().unwrap();
        assert_eq!(serialize_compact(&back), serialize_compact(doc.tree()));

        // a rejected batch changes nothing and keeps the index
        let ptr = index_ptr(&mut doc);
        let bad = MutationLog::from(vec![Mutation::Delete {
            target: NodeRef::Node(NodeId::from_index(doc.tree().id_bound() + 9)),
        }]);
        doc.apply_log(&bad).unwrap_err();
        assert_eq!(
            index_ptr(&mut doc),
            ptr,
            "rejected batch re-encodes nothing"
        );
        assert_eq!(doc.cache_stats().batches_absorbed, 1, "nor is it absorbed");
    }

    #[test]
    fn apply_log_on_an_unqueried_document_encodes_the_index_once() {
        let tree = docs::xmark_like(13, 60);
        let mut doc = Document::encode(Qed::new(), &tree).unwrap();
        assert!(!doc.cache.is_current(&doc.tree), "nothing has queried it");

        let script = Script::generate(ScriptKind::MixedDelete, 30, tree.len(), 7);
        let log = mutations::batch_of(&script, doc.tree()).unwrap();
        doc.apply_log(&log).unwrap();
        assert_eq!(
            doc.cache_stats().batches_absorbed,
            1,
            "the batch was absorbed"
        );
        assert!(
            doc.cache.is_current(&doc.tree),
            "the index followed the batch"
        );
        let ptr = index_ptr(&mut doc);
        let runs = doc.tree_with_index().unwrap().1.splice_runs();
        assert!(!runs.kept.is_empty(), "spliced, not encoded a second time");

        for p in ["//item", "/site/regions/*", "//item/@id", "//text()"] {
            assert_eq!(doc.xpath(p).unwrap(), fresh_rows(&doc, p), "{p}");
        }
        assert_eq!(index_ptr(&mut doc), ptr, "xpath reads the spliced index");
    }

    #[test]
    fn compile_script_keeps_the_index_and_the_batch_is_absorbed() {
        let tree = docs::xmark_like(5, 60);
        let mut doc = Document::encode(Qed::new(), &tree).unwrap();
        let q = doc.register_query("//item", true).unwrap();
        let ptr = index_ptr(&mut doc);
        let absorbed = doc.cache_stats().batches_absorbed;

        let script = Script::generate(ScriptKind::MixedDelete, 40, doc.tree().len(), 4);
        let log = doc.compile_script(&script).unwrap();
        assert!(!log.is_empty());
        assert!(
            doc.cache.is_current(&doc.tree),
            "the index is still current"
        );
        assert_eq!(index_ptr(&mut doc), ptr, "nothing re-encoded");

        // the following apply is analyzed and absorbed
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
            let fresh = fresh_rows(&doc, "//item");
            assert_eq!(doc.xpath("//item").unwrap(), fresh, "{name}: index rows");
            if let Some(q) = q {
                assert_eq!(doc.query_cached(q).unwrap(), fresh.as_slice(), "{name}");
            }
        }
    }

    #[test]
    fn noop_batches_keep_the_index() {
        use crate::mutations::{LogId, Mutation, MutationLog, NodeRef, Place};

        let tree = docs::book();
        let mut doc = Document::encode(Qed::new(), &tree).unwrap();
        doc.xpath("//title").unwrap();
        let ptr = index_ptr(&mut doc);

        // an empty batch has zero effective ops
        doc.apply_log(&MutationLog::from(Vec::new())).unwrap();
        assert_eq!(index_ptr(&mut doc), ptr, "empty batch is a no-op");

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
        assert_eq!(index_ptr(&mut doc), ptr, "redundant write is a no-op");

        // a cancelled create+delete component leaves zero residue under
        // a cancellation-neutral scheme (Qed)
        assert!(doc.scheme().cancellation_neutral());
        let root_el = doc.xpath("/book").unwrap()[0];
        let root_id = doc.tree_with_index().unwrap().1.source_id(root_el);
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
        assert_eq!(index_ptr(&mut doc), ptr, "cancelled component is a no-op");
        // it moved the tree's revision, and the index records that
        assert!(
            doc.cache.is_current(&doc.tree),
            "index kept across the no-op"
        );
        assert_eq!(
            doc.cache_stats().batches_absorbed,
            0,
            "no-ops absorb nothing"
        );

        // ...but a real structural edit is absorbed, exactly once
        doc.apply_log(&MutationLog::from(vec![Mutation::CreateElement {
            id: LogId(0),
            name: "appendix".to_string(),
            place: Place::LastChildOf(NodeRef::Node(root_id)),
        }]))
        .unwrap();
        assert_eq!(doc.cache_stats().batches_absorbed, 1, "structural batch");
        assert_eq!(
            doc.xpath("//appendix").unwrap(),
            fresh_rows(&doc, "//appendix")
        );
    }

    #[test]
    fn text_only_batches_patch_the_index() {
        use crate::mutations::{Mutation, MutationLog, NodeRef};

        let tree = docs::book();
        let mut doc = Document::encode(Qed::new(), &tree).unwrap();
        let title_row = doc.xpath("//title").unwrap()[0];
        let (tree, index) = doc.tree_with_index().unwrap();
        let text_id = index
            .descendant_range(title_row)
            .map(|r| index.source_id(r))
            .find(|&id| tree.kind(id).is_text())
            .unwrap();
        let ptr = index_ptr(&mut doc);

        doc.apply_log(&MutationLog::from(vec![Mutation::SetText {
            target: NodeRef::Node(text_id),
            text: "Growing Up With a Dream".to_string(),
        }]))
        .unwrap();
        // same index rows, new content — no re-encode happened
        assert_eq!(
            index_ptr(&mut doc),
            ptr,
            "text batch keeps the index in place"
        );
        assert_eq!(doc.cache_stats().batches_absorbed, 1);
        let (tree, index) = doc.tree_with_index().unwrap();
        let title = index.string_value(tree, title_row);
        assert_eq!(title, "Growing Up With a Dream");
        let fresh = PreorderIndex::encode(tree).unwrap();
        assert_eq!(fresh.string_value(tree, title_row), title);
        assert!(doc.verify().unwrap().is_sound());
    }

    #[test]
    fn xpath_reads_one_index() {
        let tree = docs::xmark_like(7, 40);
        let mut doc = Document::encode(Qed::new(), &tree).unwrap();
        let paths = [
            "//item",
            "/site/regions/*",
            "//item/@id",
            "//name/..",
            "//text()",
        ];
        let ptr = index_ptr(&mut doc);
        let rows: Vec<Vec<usize>> = paths.iter().map(|p| doc.xpath(p).unwrap()).collect();
        assert_eq!(index_ptr(&mut doc), ptr, "every query read one index");
        assert_eq!(
            *doc.cache_stats(),
            CacheStats::default(),
            "and moved no counter"
        );
        for (p, rows) in paths.iter().zip(&rows) {
            assert_eq!(rows, &fresh_rows(&doc, p), "{p}");
        }
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
        let region_id = doc.tree_with_index().unwrap().1.source_id(region);
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
        doc.apply(&Script::generate(
            ScriptKind::Random,
            15,
            doc.tree().len(),
            3,
        ))
        .unwrap();
        assert!(doc.cache.is_stale());
        let cached = doc.query_cached(q).unwrap().to_vec();
        assert_eq!(cached, doc.xpath("//item").unwrap());
        assert!(doc.cache_stats().hits >= 2);
    }

    #[test]
    fn read_only_accessors_move_no_cache_counter() {
        use crate::mutations::{LogId, Mutation, MutationLog, NodeRef, Place};

        let tree = docs::xmark_like(11, 60);
        let mut doc = Document::encode(Qed::new(), &tree).unwrap();
        let q = doc.register_query("//item", true).unwrap();
        let oracle = doc.xpath("//item").unwrap();

        // a structural batch repairs the cache
        let region_id = {
            let region = doc.xpath("//regions").unwrap()[0];
            doc.tree_with_index().unwrap().1.source_id(region)
        };
        doc.apply_log(&MutationLog::from(vec![Mutation::CreateElement {
            id: LogId(0),
            name: "item".to_string(),
            place: Place::FirstChildOf(NodeRef::Node(region_id)),
        }]))
        .unwrap();

        // concurrent-reader shape: many cached reads off &Document fan
        // out on the pool — none of them may move a cache counter or
        // re-encode the index
        let stats = *doc.cache_stats();
        let ptr = index_ptr(&mut doc);
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
            *doc.cache_stats(),
            stats,
            "read-only accessors moved no counter"
        );
        assert_eq!(index_ptr(&mut doc), ptr, "nor re-encoded the index");

        // the cached rows match a fresh evaluation
        assert_eq!(
            doc.cached_rows(q).unwrap(),
            fresh_rows(&doc, "//item").as_slice()
        );

        // stale cache (script path) makes the read-only view refuse
        doc.apply(&Script::generate(
            ScriptKind::Random,
            5,
            doc.tree().len(),
            2,
        ))
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
            doc.tree_with_index().unwrap().1.source_id(row)
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
