//! # xupd-xmldom — ordered XML tree substrate
//!
//! The XPath data model, and every labelling scheme surveyed in *Desirable
//! Properties for XML Update Mechanisms* (O'Connor & Roantree, EDBT 2010),
//! is defined over an **ordered rooted tree** representation of an XML
//! document, not over the textual document itself (§2.1 of the paper).
//!
//! This crate provides that substrate:
//!
//! * [`XmlTree`] — an arena-allocated ordered tree with O(1) structural
//!   update operations (insert first/last child, insert before/after a
//!   sibling, detach, delete subtree);
//! * [`NodeKind`] — the node taxonomy of the XPath data model (document,
//!   element, attribute, text, comment, processing instruction);
//! * a hand-written XML [`parser`] and [`serializer`] sufficient for the
//!   documents used throughout the reproduction (elements, attributes,
//!   text, CDATA, comments, processing instructions, the five predefined
//!   entities and numeric character references);
//! * ground-truth structural queries ([`XmlTree::doc_cmp`],
//!   [`XmlTree::is_ancestor`], [`XmlTree::depth`], axis enumeration) that
//!   the labelling-scheme property checkers compare against;
//! * the paper's Figure 1 sample document ([`sample::figure1_document`]),
//!   which several golden tests reproduce label-for-label.
//!
//! Attributes are modelled as ordinary nodes that sort before their owner
//! element's other children, exactly as in the paper's Figure 1(b)/Figure 2,
//! where the `genre` attribute receives its own pre/post label.
//!
//! ```
//! use xupd_xmldom::{parse, serialize_compact};
//!
//! let tree = parse("<a x=\"1\"><b>hi</b></a>").unwrap();
//! assert_eq!(serialize_compact(&tree), "<a x=\"1\"><b>hi</b></a>");
//! ```

pub mod builder;
pub mod error;
pub mod node;
pub mod parser;
pub mod sample;
pub mod serializer;
pub mod traverse;
pub mod tree;

/// The names of [`XmlTree`]'s structural mutator methods — the calls
/// that change tree shape (as opposed to node content). This is the
/// single source of truth consumed by both `xupd-lint`'s
/// `no-direct-batch-mutation` rule (R8 forbids calling these in per-op
/// replay loops outside the sanctioned edit paths) and the batch
/// analyzer's write-footprint table in `xupd_framework::analysis`; a
/// sync test on each side keeps them from drifting.
pub const STRUCTURAL_MUTATORS: &[&str] = &[
    "append_child",
    "prepend_child",
    "insert_before",
    "insert_after",
    "detach",
    "remove_subtree",
];

pub use builder::TreeBuilder;
pub use error::{ParseError, TreeError};
pub use node::{NodeId, NodeKind};
pub use parser::{is_name, parse};
pub use serializer::{serialize_compact, serialize_pretty};
pub use traverse::{Postorder, Preorder};
pub use tree::XmlTree;
