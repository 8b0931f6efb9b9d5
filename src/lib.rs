//! # xml-update-props
//!
//! An executable reproduction of *Desirable Properties for XML Update
//! Mechanisms* (O'Connor & Roantree, EDBT 2010 workshop "Updates in XML").
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`xmldom`] — the ordered XML tree substrate, parser and serializer;
//! * [`labelcore`] — label algebra primitives and the [`labelcore::LabelingScheme`] trait;
//! * [`schemes`] — the twelve surveyed dynamic labelling schemes plus the
//!   paper's §6 future-work schemes (Prime, DDE) and compact variants;
//! * [`framework`] — the paper's contribution: the ten desirable
//!   properties, the Figure 7 evaluation matrix, and empirical checkers
//!   that measure a scheme's compliance instead of trusting its claims;
//! * [`encoding`] — the XML encoding scheme (Definition 2 / Figure 2) with
//!   an XPath-subset evaluator and full document reconstruction;
//! * [`workloads`] — deterministic document generators and update
//!   workloads (random / uniform / skewed insertions);
//! * [`exec`] — the hermetic scoped thread pool the scheme batteries fan
//!   out on (`XUPD_THREADS=1` reproduces sequential output byte for
//!   byte);
//! * [`store`] — the sharded concurrent document store: per-shard
//!   writer lanes, snapshot-isolated reads, and the deterministic fleet
//!   replay whose final state is byte-identical at any worker count;
//! * [`flux`] — the FLUX-style typed update DSL: statically checked
//!   update programs compiled to certified mutation logs.
//!
//! For day-to-day use, `use xml_update_props::prelude::*;` pulls in the
//! handful of types almost every caller needs. See `README.md` for a
//! tour and `examples/` for runnable entry points.

pub use xupd_encoding as encoding;
pub use xupd_exec as exec;
pub use xupd_flux as flux;
pub use xupd_framework as framework;
pub use xupd_labelcore as labelcore;
pub use xupd_schemes as schemes;
pub use xupd_store as store;
pub use xupd_workloads as workloads;
pub use xupd_xmldom as xmldom;

/// The common surface in one import: document + store facades, the
/// update DSL, the mutation-log machinery, the scheme registry, and the
/// error types those entry points return.
///
/// ```
/// use xml_update_props::prelude::*;
///
/// let tree = xmldom_parse("<r><a>one</a></r>").unwrap();
/// let mut doc = Document::encode(xupd_schemes::prefix::qed::Qed::new(), &tree).unwrap();
/// doc.update("insert <b/> into /r;").unwrap();
/// assert!(doc.verify().unwrap().is_sound());
/// ```
pub mod prelude {
    pub use xupd_encoding::{parse_xpath, XPathExpr};
    pub use xupd_flux::{
        CompiledUpdate, Diagnostic, DocumentUpdate, FluxError, FluxProgram, StoreUpdate,
    };
    pub use xupd_framework::{
        ApplyOptions, Document, DocumentError, Mutation, MutationLog, NodeRef, Place,
    };
    pub use xupd_labelcore::LabelingScheme;
    pub use xupd_schemes::{registry, registry_figure7};
    pub use xupd_store::{Store, StoreConfig, StoreError};
    pub use xupd_workloads::{docs, Script, ScriptKind};
    pub use xupd_xmldom::{parse as xmldom_parse, serialize_compact, TreeError, XmlTree};
}
