//! # xupd-framework — the paper's evaluation framework, made executable
//!
//! *Desirable Properties for XML Update Mechanisms* contributes "a
//! template of properties that are representative of the characteristics
//! of a good dynamic labelling scheme" (§1.1) and applies it as the
//! Figure 7 evaluation matrix. This crate turns that template into
//! executable machinery:
//!
//! * [`driver`] — replays [`xupd_workloads::Script`]s against any
//!   [`xupd_labelcore::LabelingScheme`], collecting relabel / overflow /
//!   size evidence;
//! * [`verify`] — invariant verification: document order, label
//!   uniqueness, relation and level correctness against tree ground
//!   truth;
//! * [`checkers`] — one empirical checker per §5.1 property, combined
//!   into a measured compliance row per scheme;
//! * [`orthogonal`] — a live demonstration of the *Orthogonal* property:
//!   a containment host parameterised by any order-code algebra;
//! * [`matrix`] — the declared Figure 7 matrix (transcribed from the
//!   paper) and the measured matrix, with rendering;
//! * [`report`] — declared-vs-measured agreement reporting (the
//!   reproduction's headline output);
//! * [`document`] — the unified [`Document`] facade over encode /
//!   query / update / verify / reconstruct;
//! * [`mutations`] — the batched, atomic, replayable [`MutationLog`]
//!   update API: validation before any state change and all-or-nothing
//!   application;
//! * [`analysis`] — the static analyzer over validated logs: per-op
//!   read/write footprints, a dependency/conflict graph with a named
//!   taxonomy, and certificates (no-op detection, coalescing, a
//!   canonical reorder, a partition into independent components)
//!   consumed by the batch optimizer;
//! * [`querycache`] — incremental XPath result maintenance: registered
//!   queries are classified per batch (unaffected / repairable / dirty)
//!   by intersecting the analyzer's write footprint with each query's
//!   static access pattern, so cached result sets are kept, delta-
//!   repaired or rebuilt — never discarded wholesale. It keeps the
//!   document's one [`PreorderIndex`] (re-exported from
//!   `xupd-encoding`), which the analyzer, flux lowering and
//!   [`Document::xpath`] read too.
//!
//! The checker battery fans out per scheme on the `xupd-exec` scoped
//! pool (schemes are independent); results and renders are identical at
//! any `XUPD_THREADS` setting.

pub mod analysis;
pub mod checkers;
pub mod document;
pub mod driver;
pub mod matrix;
pub mod mutations;
pub mod orthogonal;
pub mod querycache;
pub mod report;
pub mod verify;

pub use analysis::{
    analyze, analyze_in, apply_plan_with_dyn, AnalyzedPlan, ApplyOptions, ConflictKind, Edge,
    EdgeKind, Extent, GapKey, GapSlot, OpFootprint, PointRef, MUTATOR_FOOTPRINTS,
};
pub use checkers::{measure_session, Evidence, Measured};
pub use document::{Document, DocumentError};
pub use matrix::{declared_figure7, measure, EvaluationMatrix, MatrixRow};
pub use mutations::{
    apply_log, apply_log_dyn, batch_of, validate, LogId, Mutation, MutationLog, NodeRef, Place,
};
pub use querycache::{BatchImpact, CacheStats, QueryCache, QueryClass, QueryId};
pub use report::Figure7Report;
pub use xupd_encoding::PreorderIndex;
