//! # xupd-flux — a FLUX-style typed update DSL over mutation logs
//!
//! The paper's §3 surveys update-language proposals and singles out
//! FLUX-style statically checked updates as the desirable shape: say
//! *what* changes declaratively, reject unsound programs **before**
//! touching the document, and compile the rest to a certified batch.
//! This crate is that front end for the repo's [`MutationLog`] engine:
//!
//! ```text
//!   source ─lex/parse→ Vec<Stmt> ─check→ diagnostics (F001..F012)
//!          ─lower→ MutationLog ─analyze→ AnalyzedPlan
//!          ─apply_planned→ Document / Store
//! ```
//!
//! * [`lexer`] / [`parser`] — hand-rolled, span-carrying, panic-free
//!   on arbitrary byte soup;
//! * [`check`] — the static pass: shape errors (F005), root mutations
//!   (F009), write-after-consumed (F006), double text writes (F007),
//!   move-into-own-subtree (F008), all reported with source spans;
//! * [`lower`] — snapshot (XQuery-Update-style) semantics: every path
//!   resolves against the *original* tree, on the document's
//!   [`PreorderIndex`] with the same evaluator every query uses, and
//!   the whole program becomes one atomic log;
//! * [`DocumentUpdate`] / [`StoreUpdate`] — `doc.update("...")` /
//!   `store.update(id, "...")` extension traits that hand the compiled
//!   log and its plan to `Document::apply_planned` under
//!   [`ApplyOptions::default`].
//!
//! Statically rejected programs are *also* dynamically rejected: every
//! check in [`check`] has a lowering-, validator- or apply-time
//! counterpart, so skipping the checker can never smuggle an unsound
//! edit through (the property suite proves exactly that by lowering
//! checker-rejected programs with [`lower::lower_in`]).

pub mod ast;
pub mod check;
pub mod diag;
pub mod lexer;
pub mod lower;
pub mod parser;

use xupd_framework::analysis::{self, AnalyzedPlan, ApplyOptions};
use xupd_framework::document::{Document, DocumentError};
use xupd_framework::driver::DriveStats;
use xupd_framework::mutations::MutationLog;
use xupd_framework::PreorderIndex;
use xupd_labelcore::LabelingScheme;
use xupd_store::{Store, StoreError};
use xupd_xmldom::XmlTree;

pub use ast::{InsertPos, PathArg, Stmt, TreeArg};
pub use diag::{Diagnostic, Span};

/// A parsed flux program: the source text plus its statement list.
/// Parsing alone only guarantees syntax (F001–F004); call
/// [`FluxProgram::check`] for the static pass or go straight to
/// [`FluxProgram::compile`], which runs it.
#[derive(Debug, Clone)]
pub struct FluxProgram {
    src: String,
    stmts: Vec<Stmt>,
}

/// A compiled update: the validated [`MutationLog`] plus its eager
/// [`AnalyzedPlan`], ready for [`Document::apply_planned`] (no
/// re-analysis at apply time).
#[derive(Debug, Clone)]
pub struct CompiledUpdate {
    /// The mutation batch — identical to what a careful caller
    /// would hand-build against the same tree.
    pub log: MutationLog,
    /// The analyzer's certificate bundle over `log`.
    pub plan: AnalyzedPlan,
}

impl FluxProgram {
    /// Parse `src`. Syntax and path/tree-literal errors (F001–F004)
    /// are fatal here; the deeper static checks run in
    /// [`FluxProgram::check`].
    pub fn parse(src: &str) -> Result<FluxProgram, Vec<Diagnostic>> {
        match parser::parse(src) {
            Ok(stmts) => Ok(FluxProgram {
                src: src.to_string(),
                stmts,
            }),
            Err(d) => Err(vec![d]),
        }
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.src
    }

    /// The parsed statements.
    pub fn stmts(&self) -> &[Stmt] {
        &self.stmts
    }

    /// Run the static checking pass; empty means clean.
    pub fn check(&self) -> Vec<Diagnostic> {
        check::check(&self.stmts)
    }

    /// Compile against `tree`, whose preorder index is `index`: static
    /// check, snapshot lowering (F010–F012 strict-match and kind
    /// errors), then validation + analysis of the produced log (a
    /// rejection there is F020: a conflict the static pass cannot see,
    /// or an edit at the document level that would leave no single
    /// root element). An index made for another tree state is rejected
    /// before lowering, as F020 too.
    pub fn compile(
        &self,
        tree: &XmlTree,
        index: &PreorderIndex,
    ) -> Result<CompiledUpdate, Vec<Diagnostic>> {
        let diags = self.check();
        if !diags.is_empty() {
            return Err(diags);
        }
        let log = lower::lower_in(&self.stmts, tree, index).map_err(|d| vec![d])?;
        let plan = analysis::analyze_in(&log, tree, index).map_err(|e| {
            vec![Diagnostic::new(
                "F020",
                Span::at(&self.src, 0, 0),
                format!("compiled log rejected by validator: {e}"),
            )]
        })?;
        Ok(CompiledUpdate { log, plan })
    }
}

/// Everything `update` can report: static/compile diagnostics or a
/// document/store failure at apply time.
#[derive(Debug)]
pub enum FluxError {
    /// Compilation rejected the program; at least one diagnostic.
    Static(Vec<Diagnostic>),
    /// The document apply path failed.
    Document(DocumentError),
    /// The store apply path failed.
    Store(StoreError),
}

impl std::fmt::Display for FluxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FluxError::Static(ds) => {
                let mut first = true;
                for d in ds {
                    if !first {
                        writeln!(f)?;
                    }
                    first = false;
                    write!(f, "{d}")?;
                }
                Ok(())
            }
            FluxError::Document(e) => write!(f, "{e}"),
            FluxError::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FluxError {}

impl From<Vec<Diagnostic>> for FluxError {
    fn from(ds: Vec<Diagnostic>) -> FluxError {
        FluxError::Static(ds)
    }
}

impl From<DocumentError> for FluxError {
    fn from(e: DocumentError) -> FluxError {
        FluxError::Document(e)
    }
}

impl From<StoreError> for FluxError {
    fn from(e: StoreError) -> FluxError {
        FluxError::Store(e)
    }
}

/// `doc.update("insert <x/> into /r;")` — compile a flux program
/// against the document's current tree and its preorder index, and
/// apply it atomically.
/// Defined as an extension trait because `Document` lives below this
/// crate in the dependency order.
pub trait DocumentUpdate {
    /// Compile + apply under [`ApplyOptions::default`] (analyzed
    /// order).
    fn update(&mut self, src: &str) -> Result<DriveStats, FluxError>;
}

impl<S: LabelingScheme + Clone + 'static> DocumentUpdate for Document<S> {
    fn update(&mut self, src: &str) -> Result<DriveStats, FluxError> {
        let program = FluxProgram::parse(src)?;
        let (tree, index) = self
            .tree_with_index()
            .map_err(|e| FluxError::Document(DocumentError::Tree(e)))?;
        let compiled = program.compile(tree, index)?;
        self.apply_planned(&compiled.log, &compiled.plan, ApplyOptions::default())
            .map_err(|e| FluxError::Document(DocumentError::Tree(e)))
    }
}

/// `store.update(doc, "…")` — compile against the target document's
/// tree and preorder index **under its write lock** (via
/// [`Store::update_with`]) so the snapshot the program sees is exactly
/// the tree it mutates.
pub trait StoreUpdate {
    /// Compile + apply under [`ApplyOptions::default`].
    fn update(&self, doc: u32, src: &str) -> Result<DriveStats, FluxError>;
}

impl<S: LabelingScheme + Clone + 'static> StoreUpdate for Store<S> {
    fn update(&self, doc: u32, src: &str) -> Result<DriveStats, FluxError> {
        let program = FluxProgram::parse(src)?;
        self.update_with(doc, |tree, index| {
            let c = program.compile(tree, index)?;
            Ok((c.log, c.plan))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_schemes::prefix::qed::Qed;

    fn doc() -> Document<Qed> {
        let tree = xupd_xmldom::parse("<r><a>one</a><b/></r>").unwrap();
        Document::encode(Qed::new(), &tree).unwrap()
    }

    #[test]
    fn document_update_round_trip() {
        let mut d = doc();
        d.update("insert <c n=\"1\">two</c> into /r; set /r/a/text() to \"ONE\";")
            .unwrap();
        let out = xupd_xmldom::serialize_compact(d.tree());
        assert!(out.contains("<c n=\"1\">two</c>"), "{out}");
        assert!(out.contains("<a>ONE</a>"), "{out}");
        assert!(d.verify().unwrap().is_sound());
    }

    #[test]
    fn static_rejection_is_reported_not_applied() {
        let mut d = doc();
        let before = xupd_xmldom::serialize_compact(d.tree());
        let err = d.update("delete /r/a; set /r/a/text() to \"x\";");
        match err {
            Err(FluxError::Static(ds)) => assert_eq!(ds[0].code, "F006"),
            other => panic!("expected static rejection, got {other:?}"),
        }
        assert_eq!(before, xupd_xmldom::serialize_compact(d.tree()));
    }

    #[test]
    fn document_level_edits_are_rejected_and_change_nothing() {
        for src in [
            "delete /r;",
            "insert <x/> after /r;",
            "insert <x/> before /r;",
            "move /r/a after /r;",
            "insert <x/> into /.;",
        ] {
            let mut d = doc();
            let before = xupd_xmldom::serialize_compact(d.tree());
            match d.update(src) {
                Err(FluxError::Static(ds)) => assert_eq!(ds[0].code, "F020", "{src}"),
                other => panic!("{src}: expected F020, got {other:?}"),
            }
            assert_eq!(before, xupd_xmldom::serialize_compact(d.tree()), "{src}");
        }
    }

    #[test]
    fn document_level_edits_that_keep_one_root_apply() {
        for (src, want) in [
            ("rename /r to q;", "<q><a>one</a><b/></q>"),
            ("delete /r; insert <m/> into /.;", "<m/>"),
            ("move /r/a into /.; delete /r;", "<a>one</a>"),
        ] {
            let mut d = doc();
            d.update(src).unwrap_or_else(|e| panic!("{src}: {e:?}"));
            let out = xupd_xmldom::serialize_compact(d.tree());
            assert_eq!(out, want, "{src}");
            let back = xupd_xmldom::parse(&out).unwrap_or_else(|e| panic!("{src}: {e}"));
            assert_eq!(xupd_xmldom::serialize_compact(&back), out, "{src}");
            assert!(d.verify().unwrap().is_sound(), "{src}");
        }
    }

    #[test]
    fn compiled_update_matches_hand_built_source_of_truth() {
        let mut d = doc();
        let p = FluxProgram::parse("delete /r/b;").unwrap();
        let (tree, index) = d.tree_with_index().unwrap();
        let c = p.compile(tree, index).unwrap();
        assert_eq!(c.log.len(), 1);
        assert_eq!(c.plan.len(), c.log.len());
    }

    #[test]
    fn compile_rejects_an_index_of_another_tree_state() {
        let mut d = doc();
        let stale = d.tree_with_index().unwrap().1.clone();
        d.update("set /r/a/text() to \"ONE\";").unwrap();
        let p = FluxProgram::parse("delete /r/b;").unwrap();
        let ds = p.compile(d.tree(), &stale).unwrap_err();
        assert_eq!(ds[0].code, "F020", "{ds:?}");
        let (tree, index) = d.tree_with_index().unwrap();
        assert_eq!(p.compile(tree, index).unwrap().log.len(), 1);
    }

    #[test]
    fn flux_error_display_lists_all_diagnostics() {
        let ds = vec![
            Diagnostic::new("F005", Span::at("x", 0, 1), "one"),
            Diagnostic::new("F007", Span::at("x", 0, 1), "two"),
        ];
        let msg = format!("{}", FluxError::Static(ds));
        assert!(msg.contains("F005") && msg.contains("F007"), "{msg}");
        assert_eq!(msg.lines().count(), 2);
    }
}
