//! # xupd-encoding — the XML encoding scheme (Definition 2 of the paper)
//!
//! "An XML encoding scheme codifies the structure of the node sequence in
//! the XML tree and the properties and content of each node" (§2.3). It
//! is built **on top of** a labelling scheme and augments labels with the
//! node type, names and content that no labelling scheme captures, so
//! that (a) full XPath query evaluation and (b) full reconstruction of
//! the textual document become possible.
//!
//! * [`preorder`] — [`PreorderIndex`]: the scheme-independent half,
//!   one row per node in document order (kind, parent, source node id)
//!   with the [`Topology`] and [`NameIndex`] sidecars; every structural
//!   axis, the XPath evaluator and reconstruction run on it, and a
//!   splice follows a batch of edits in place;
//! * [`table`] — [`EncodedDocument`]: a preorder index plus one label
//!   per row under any [`xupd_labelcore::LabelingScheme`]; it adds only
//!   what reads labels — label document order and the `*_via_labels`
//!   reference axes the framework checkers and the differential
//!   property suite exercise;
//! * [`topology`] — [`Topology`]: the structural sidecar index built at
//!   encode time and rebuilt in place by a splice (pre-order subtree
//!   extents, CSR children arrays, depth and the index's parent
//!   column);
//! * [`xpath`] — a parser and streaming evaluator for the XPath subset
//!   used by the examples and benchmarks (child/descendant/parent/
//!   ancestor/sibling/following/preceding/attribute axes, name and text
//!   tests, positional and attribute-value predicates); name-test steps
//!   on the descendant/child axes route through the [`NameIndex`]
//!   buckets intersected with extent ranges;
//! * [`reconstruct`] — rebuilds the [`xupd_xmldom::XmlTree`] (and hence
//!   the textual document) from the preorder index alone;
//! * [`index`] — a name index accelerating `//name` lookups: one
//!   `BTreeMap` lookup per name, then two binary searches on the
//!   context's extent range (the query/update trade §2.3 describes);
//! * [`figure2`] — the paper's Figure 2 table for the Figure 1 sample
//!   document, golden-tested cell by cell.

pub mod erased;
pub mod figure2;
pub mod index;
pub mod preorder;
pub mod reconstruct;
pub mod table;
pub mod topology;
pub mod xpath;

pub use erased::{document_registry, document_registry_figure7, DocSchemeEntry, DynDocument};
pub use index::NameIndex;
pub use preorder::{PreorderIndex, SpliceRuns};
pub use table::EncodedDocument;
pub use topology::{row_in_extents, Topology};
pub use xpath::{parse_xpath, AccessPattern, XPathError, XPathExpr};
