//! # xupd-encoding — the XML encoding scheme (Definition 2 of the paper)
//!
//! "An XML encoding scheme codifies the structure of the node sequence in
//! the XML tree and the properties and content of each node" (§2.3). It
//! is built **on top of** a labelling scheme and augments labels with the
//! node type, names and content that no labelling scheme captures, so
//! that (a) full XPath query evaluation and (b) full reconstruction of
//! the textual document become possible.
//!
//! The encoding has three parts, all keyed by node id. The labels are
//! the labelling scheme's: a [`xupd_labelcore::DynScheme`] session holds
//! them. The content (node type, names and values) is the tree's: the
//! [`xupd_xmldom::XmlTree`] node table holds it, and nothing copies it.
//! The structure is this crate's:
//!
//! * [`preorder`] — [`PreorderIndex`]: one row per node in document
//!   order (source node id, parent row and pre-order subtree extent)
//!   with the [`NameIndex`] sidecar. It holds the one implementation of
//!   every structural axis: ancestry is an interval test on the
//!   extents, and the child and sibling axes step through them. The
//!   XPath evaluator and reconstruction run on it, reading content from
//!   the tree by each row's source id; encode and splice build it in
//!   one shared pass, and a splice follows a batch of edits in place.
//!   Its `*_via_labels` methods read a session's labels through the
//!   same ids: the label-algebra reference axes the differential
//!   property suite pins equal to the index's;
//! * [`xpath`] — a parser and streaming evaluator for the XPath subset
//!   used by the examples and benchmarks (child/descendant/parent/
//!   ancestor/sibling/following/preceding/attribute axes, name and text
//!   tests, positional and attribute-value predicates); name-test steps
//!   on the descendant/child axes route through the [`NameIndex`]
//!   buckets intersected with extent ranges;
//! * [`reconstruct`] — rebuilds the [`xupd_xmldom::XmlTree`] (and hence
//!   the textual document) from the preorder index's structure and the
//!   node table's content;
//! * [`index`] — a name index accelerating `//name` lookups: one
//!   `BTreeMap` lookup per name, then two binary searches on the
//!   context's extent range (the query/update trade §2.3 describes);
//! * [`figure2`] — the paper's Figure 2 table for the Figure 1 sample
//!   document, golden-tested cell by cell.

pub mod figure2;
pub mod index;
pub mod preorder;
pub mod reconstruct;
pub mod xpath;

pub use index::NameIndex;
pub use preorder::{row_in_extents, PreorderIndex, SpliceRuns};
pub use xpath::{parse_xpath, AccessPattern, XPathError, XPathExpr};
