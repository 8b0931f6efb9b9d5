//! The sharded document store.
//!
//! A [`Store`] holds a fleet of [`Document`]s hash-partitioned across a
//! fixed number of **shards**. Each document lives behind its own
//! `RwLock`, so:
//!
//! * **writes** are serialized per shard by the replay driver (one
//!   writer lane per shard, each lane's ops run in stream order on one
//!   pool thread; see [`crate::replay`]) and apply validated
//!   [`MutationLog`] batches through the analyzed
//!   [`Document::apply_log`] path — never raw tree edits;
//! * **reads** ([`Store::query_now`]) take a per-document read lock and
//!   serve registered queries from the document's maintained
//!   [`QueryCache`](xupd_framework::QueryCache) via the non-invalidating
//!   [`Document::cached_rows`] accessor — an in-flight write to one
//!   document never blocks readers of any other document, and a reader
//!   never triggers a snapshot rebuild.
//!
//! Placement is `splitmix64(doc_id) % shards`: deterministic across
//! runs and platforms (no `DefaultHasher`), and independent of worker
//! count, so the canonical op stream projects onto identical per-lane
//! sequences everywhere.
//!
//! [`Store::state_dump`] serializes every document (compact XML bytes,
//! per-document [`DocStats`], cache counters) in document-id order —
//! the byte string the differential suite compares across executor
//! widths.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use xupd_framework::document::{Document, DocumentError};
use xupd_framework::driver::DriveStats;
use xupd_framework::{AnalyzedPlan, ApplyOptions, MutationLog, PreorderIndex, QueryId};
use xupd_labelcore::LabelingScheme;
use xupd_workloads::Script;
use xupd_xmldom::{serialize_compact, TreeError, XmlTree};

/// `splitmix64` — the shard placement hash. Fixed constants, no
/// process-seeded state, identical on every platform.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Recover a lock from a poisoned state: the protected data is a
/// document slot whose invariants hold between operations, and the
/// replay driver re-raises worker panics itself — so the store keeps
/// serving rather than cascading the panic.
fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(PoisonError::into_inner)
}

fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(PoisonError::into_inner)
}

/// Store-level failure.
#[derive(Debug)]
pub enum StoreError {
    /// The document id is not in the fleet.
    UnknownDoc(u32),
    /// The query class index exceeds the registered classes.
    UnknownQuery(usize),
    /// A tree / labelling operation failed.
    Tree(TreeError),
    /// Registering a query failed (bad expression).
    Document(DocumentError),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::UnknownDoc(id) => write!(f, "unknown document {id}"),
            StoreError::UnknownQuery(c) => write!(f, "unknown query class {c}"),
            StoreError::Tree(e) => write!(f, "{e}"),
            StoreError::Document(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<TreeError> for StoreError {
    fn from(e: TreeError) -> StoreError {
        StoreError::Tree(e)
    }
}

impl From<DocumentError> for StoreError {
    fn from(e: DocumentError) -> StoreError {
        StoreError::Document(e)
    }
}

/// Deterministic per-document counters: everything here is a function
/// of the document's canonical op subsequence, never of timing, so the
/// differential suite compares them byte-for-byte across widths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DocStats {
    /// Visits begun ([`FleetOpKind::Open`](xupd_workloads::FleetOpKind)).
    pub opens: u64,
    /// Visits ended.
    pub closes: u64,
    /// Registered queries served through a writer lane.
    pub queries: u64,
    /// Total result rows those queries returned.
    pub rows_served: u64,
    /// Mutation-log batches applied.
    pub batches: u64,
    /// Nodes inserted across all batches.
    pub inserts: u64,
    /// Subtrees deleted across all batches.
    pub deletes: u64,
    /// Label relabelings the scheme performed.
    pub relabeled: u64,
    /// Operations rejected (validation failures) — counted, not fatal.
    pub errors: u64,
}

impl DocStats {
    fn absorb_batch(&mut self, d: &DriveStats) {
        self.batches += 1;
        self.inserts += d.inserts as u64;
        self.deletes += d.deletes as u64;
        self.relabeled += d.relabeled;
    }
}

/// One document plus its registered query handles and counters.
pub struct DocSlot<S: LabelingScheme + Clone + 'static> {
    doc: Document<S>,
    queries: Vec<QueryId>,
    stats: DocStats,
}

impl<S: LabelingScheme + Clone + 'static> DocSlot<S> {
    /// Read access to the document.
    pub fn doc(&self) -> &Document<S> {
        &self.doc
    }

    /// The slot's counters.
    pub fn stats(&self) -> DocStats {
        self.stats
    }
}

/// Store construction parameters.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Shard count (= writer lanes). Clamped to at least 1.
    pub shards: usize,
    /// XPath expressions registered on every document at build time;
    /// fleet `Query(class)` ops index into this list.
    pub query_exprs: Vec<String>,
}

impl StoreConfig {
    /// The fleet default: 8 shards, the three query classes the
    /// XMark-flavoured fleet documents answer.
    pub fn fleet() -> StoreConfig {
        StoreConfig {
            shards: 8,
            query_exprs: vec![
                "//item".to_string(),
                "//name".to_string(),
                "//person".to_string(),
            ],
        }
    }
}

/// The sharded fleet of documents. See the module docs for the
/// concurrency contract.
pub struct Store<S: LabelingScheme + Clone + 'static> {
    shards: Vec<BTreeMap<u32, RwLock<DocSlot<S>>>>,
    query_classes: usize,
}

impl<S: LabelingScheme + Clone + 'static> Store<S> {
    /// Build a store over `trees` (document ids are the indices),
    /// labelling each under a clone of `scheme` and registering every
    /// configured query class with string values cached.
    pub fn build(scheme: &S, config: &StoreConfig, trees: &[XmlTree]) -> Result<Store<S>, StoreError> {
        let shard_count = config.shards.max(1);
        let mut shards: Vec<BTreeMap<u32, RwLock<DocSlot<S>>>> =
            (0..shard_count).map(|_| BTreeMap::new()).collect();
        for (i, tree) in trees.iter().enumerate() {
            let id = i as u32;
            let mut doc = Document::encode(scheme.clone(), tree)?;
            let mut queries = Vec::with_capacity(config.query_exprs.len());
            for expr in &config.query_exprs {
                queries.push(doc.register_query(expr, true)?);
            }
            let slot = DocSlot {
                doc,
                queries,
                stats: DocStats::default(),
            };
            shards[shard_of(id, shard_count)].insert(id, RwLock::new(slot));
        }
        Ok(Store {
            shards,
            query_classes: config.query_exprs.len(),
        })
    }

    /// Shard count (= writer lanes).
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Documents in the fleet.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True when the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Registered query classes per document.
    pub fn query_classes(&self) -> usize {
        self.query_classes
    }

    /// The shard (writer lane) owning `doc`.
    pub fn shard_of(&self, doc: u32) -> usize {
        shard_of(doc, self.shards.len())
    }

    fn slot(&self, doc: u32) -> Result<&RwLock<DocSlot<S>>, StoreError> {
        self.shards[self.shard_of(doc)]
            .get(&doc)
            .ok_or(StoreError::UnknownDoc(doc))
    }

    /// Begin a visit: bumps the open counter. (Documents are resident;
    /// open/close model session pinning, not paging.)
    pub fn open_doc(&self, doc: u32) -> Result<(), StoreError> {
        let slot = self.slot(doc)?;
        write_lock(slot).stats.opens += 1;
        Ok(())
    }

    /// End a visit.
    pub fn close_doc(&self, doc: u32) -> Result<(), StoreError> {
        let slot = self.slot(doc)?;
        write_lock(slot).stats.closes += 1;
        Ok(())
    }

    /// Serve a registered query through the writer lane: counts a
    /// cache hit, returns the row count. Must only run on the
    /// document's lane — the mutable cache path is not for concurrent
    /// readers (they use [`Store::query_now`]).
    pub fn serve_query(&self, doc: u32, class: usize) -> Result<usize, StoreError> {
        let slot = self.slot(doc)?;
        let mut g = write_lock(slot);
        let q = *g.queries.get(class).ok_or(StoreError::UnknownQuery(class))?;
        let rows = g.doc.query_cached(q)?.len();
        g.stats.queries += 1;
        g.stats.rows_served += rows as u64;
        Ok(rows)
    }

    /// Apply an update script as one atomic mutation-log batch, under
    /// one write lock: the script is translated on the document's own
    /// tree ([`Document::compile_script`], which rolls its edits back
    /// and copies nothing) and applied through [`Document::apply_log`],
    /// which validates it once, applies it in log order and maintains
    /// the query cache. Returns the batch's [`DriveStats`].
    pub fn apply_script(&self, doc: u32, script: &Script) -> Result<DriveStats, StoreError> {
        let slot = self.slot(doc)?;
        let mut g = write_lock(slot);
        let log = g.doc.compile_script(script)?;
        let stats = g.doc.apply_log(&log)?;
        g.stats.absorb_batch(&stats);
        Ok(stats)
    }

    /// Compile-then-apply under one write lock: `compile` sees the
    /// document's current tree and its preorder index, and returns a
    /// `(log, plan)` pair, which is applied through
    /// [`Document::apply_planned`] under [`ApplyOptions::default`]
    /// before the lock is released — so the tree the log was compiled
    /// against is exactly the tree it mutates. This is the seam the
    /// flux DSL's `Store::update` rides on; the error type is generic
    /// so compiler diagnostics pass through unwrapped.
    pub fn update_with<E, F>(&self, doc: u32, compile: F) -> Result<DriveStats, E>
    where
        E: From<StoreError>,
        F: FnOnce(&XmlTree, &PreorderIndex) -> Result<(MutationLog, AnalyzedPlan), E>,
    {
        let slot = self.slot(doc).map_err(E::from)?;
        let mut g = write_lock(slot);
        let (tree, index) = g.doc.tree_with_index().map_err(StoreError::from)?;
        let (log, plan) = compile(tree, index)?;
        let stats = g
            .doc
            .apply_planned(&log, &plan, ApplyOptions::default())
            .map_err(StoreError::from)?;
        g.stats.absorb_batch(&stats);
        Ok(stats)
    }

    /// Snapshot-isolated concurrent read: the registered query's
    /// current row count served from the maintained cache under a
    /// **read** lock, with no snapshot rebuild and no counter updates.
    /// Returns `None` if the document is unknown, the class is out of
    /// range, or the cache is stale (never happens on the mutation-log
    /// path).
    pub fn query_now(&self, doc: u32, class: usize) -> Option<usize> {
        let slot = self.shards[self.shard_of(doc)].get(&doc)?;
        let g = read_lock(slot);
        let q = *g.queries.get(class)?;
        g.doc.cached_rows(q).map(<[usize]>::len)
    }

    /// Fold `f` over every document in id order (read locks).
    pub fn for_each_doc<F: FnMut(u32, &DocSlot<S>)>(&self, mut f: F) {
        let mut ids: Vec<u32> = self
            .shards
            .iter()
            .flat_map(|s| s.keys().copied())
            .collect();
        ids.sort_unstable();
        for id in ids {
            if let Ok(slot) = self.slot(id) {
                f(id, &read_lock(slot));
            }
        }
    }

    /// Serialize the full store state — per document: compact XML
    /// bytes, [`DocStats`], cache counters, snapshot rebuild count — in
    /// document-id order. Two runs that executed the same canonical
    /// per-document op sequences produce byte-identical dumps,
    /// whatever the executor width.
    pub fn state_dump(&self) -> String {
        let mut out = String::new();
        self.for_each_doc(|id, slot| {
            let c = slot.doc.cache_stats();
            let s = slot.stats;
            let _ = writeln!(
                out,
                "doc {id} shard={shard} nodes={nodes} rebuilds={rb} \
                 stats[opens={opens} closes={closes} queries={queries} rows={rows} \
                 batches={batches} inserts={ins} deletes={del} relabeled={rel} errors={err}] \
                 cache[hits={hits} absorbed={abs} unaffected={una} repaired={rep} rebuilt={reb}]",
                shard = self.shard_of(id),
                nodes = slot.doc.tree().len(),
                rb = slot.doc.snapshot_rebuilds(),
                opens = s.opens,
                closes = s.closes,
                queries = s.queries,
                rows = s.rows_served,
                batches = s.batches,
                ins = s.inserts,
                del = s.deletes,
                rel = s.relabeled,
                err = s.errors,
                hits = c.hits,
                abs = c.batches_absorbed,
                una = c.unaffected,
                rep = c.repaired,
                reb = c.rebuilt,
            );
            out.push_str(&serialize_compact(slot.doc.tree()));
            out.push('\n');
        });
        out
    }

    /// Count a rejected operation against the document (deterministic:
    /// rejection is a function of the op and the document state).
    pub(crate) fn count_error(&self, doc: u32) {
        if let Ok(slot) = self.slot(doc) {
            write_lock(slot).stats.errors += 1;
        }
    }
}

/// Deterministic shard placement.
fn shard_of(doc: u32, shards: usize) -> usize {
    (splitmix64(u64::from(doc)) % shards.max(1) as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_schemes::prefix::qed::Qed;
    use xupd_workloads::{docs, ScriptKind};

    fn small_store() -> Store<Qed> {
        let trees: Vec<XmlTree> = (0..12).map(|i| docs::xmark_like(i, 40)).collect();
        let mut cfg = StoreConfig::fleet();
        cfg.shards = 4;
        Store::build(&Qed::new(), &cfg, &trees).unwrap()
    }

    #[test]
    fn placement_is_deterministic_and_total() {
        let store = small_store();
        assert_eq!(store.len(), 12);
        assert_eq!(store.shards(), 4);
        for doc in 0..12u32 {
            assert_eq!(store.shard_of(doc), shard_of(doc, 4));
            assert!(store.shard_of(doc) < 4);
            assert!(store.slot(doc).is_ok());
        }
        assert!(matches!(store.slot(99), Err(StoreError::UnknownDoc(99))));
        // splitmix spreads 12 docs over more than one shard
        let distinct: std::collections::BTreeSet<usize> =
            (0..12u32).map(|d| store.shard_of(d)).collect();
        assert!(distinct.len() > 1);
    }

    #[test]
    fn write_path_maintains_queries_and_stats() {
        let store = small_store();
        store.open_doc(3).unwrap();
        let before = store.serve_query(3, 0).unwrap();
        let script = Script::generate(ScriptKind::AppendOnly, 4, 40, 9);
        store.apply_script(3, &script).unwrap();
        let after = store.serve_query(3, 0).unwrap();
        assert!(after >= before, "cache tracked the batch");
        store.close_doc(3).unwrap();

        let s = read_lock(store.slot(3).unwrap()).stats;
        assert_eq!((s.opens, s.closes, s.queries, s.batches), (1, 1, 2, 1));
        assert_eq!(s.inserts, 4);
        assert_eq!(s.rows_served, (before + after) as u64);

        // concurrent read path agrees and performs no rebuilds
        assert_eq!(store.query_now(3, 0), Some(after));
        assert_eq!(store.query_now(3, 99), None);
        assert_eq!(store.query_now(99, 0), None);
        store.for_each_doc(|id, slot| {
            if id == 3 {
                assert_eq!(slot.doc().snapshot_rebuilds(), 0, "no snapshot ever built");
            }
        });
    }

    #[test]
    fn state_dump_is_stable_and_ordered() {
        let store = small_store();
        store.apply_script(1, &Script::generate(ScriptKind::Random, 5, 40, 2))
            .unwrap();
        let a = store.state_dump();
        let b = store.state_dump();
        assert_eq!(a, b, "dump is a pure read");
        let ids: Vec<&str> = a
            .lines()
            .filter(|l| l.starts_with("doc "))
            .map(|l| l.split_whitespace().nth(1).unwrap())
            .collect();
        assert_eq!(ids.len(), 12);
        assert!(ids.windows(2).all(|w| w[0].parse::<u32>().unwrap()
            < w[1].parse::<u32>().unwrap()));
        assert!(a.contains("<"), "dump embeds serialized documents");
    }

    #[test]
    fn unknown_query_class_is_an_error_not_a_panic() {
        let store = small_store();
        assert!(matches!(
            store.serve_query(0, 77).unwrap_err(),
            StoreError::UnknownQuery(77)
        ));
        let err = format!("{}", StoreError::UnknownDoc(5));
        assert!(err.contains("5"));
    }
}
