//! Error types for tree manipulation and XML parsing.

use crate::node::NodeId;
use std::fmt;

/// Errors raised by structural operations on an [`crate::XmlTree`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// The node id refers to a deleted node.
    DeadNode(NodeId),
    /// Attempted to detach, delete or re-parent the document root.
    RootImmutable,
    /// Attempted to attach a node that is already attached somewhere.
    AlreadyAttached(NodeId),
    /// Attempted to attach a node under (or next to) itself or its own
    /// descendant, which would create a cycle.
    WouldCycle(NodeId),
    /// The reference sibling has no parent (is detached), so there is no
    /// position "before"/"after" it.
    NoParent(NodeId),
    /// A structural invariant check failed; carries a human-readable
    /// description. Only produced by [`crate::XmlTree::validate`].
    Invariant(String),
    /// A node that the caller's invariants require to have a parent is
    /// detached (e.g. a freshly inserted node handed to a labelling
    /// scheme before being attached).
    MissingParent(NodeId),
    /// A node id that does not denote a live node was handed to an API
    /// that requires one (out of the arena's id space, or retired).
    DanglingNodeId(NodeId),
    /// A live node unexpectedly has no label in a labelling side table
    /// that is supposed to cover every live node.
    Unlabeled(NodeId),
    /// A batch log creates the same log-local id twice (carries the raw
    /// log id, which shares no namespace with [`NodeId`]).
    DuplicateCreate(u32),
    /// A batch log writes to a node it has already consumed (deleted or
    /// replaced it, or one of its ancestors) earlier in the same batch.
    ConflictingWrite(NodeId),
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::DeadNode(id) => write!(f, "node {id} has been deleted"),
            TreeError::RootImmutable => write!(f, "the document root cannot be moved or deleted"),
            TreeError::AlreadyAttached(id) => {
                write!(f, "node {id} is already attached to a parent")
            }
            TreeError::WouldCycle(id) => {
                write!(f, "attaching node {id} here would create a cycle")
            }
            TreeError::NoParent(id) => write!(f, "node {id} is detached; no sibling position"),
            TreeError::Invariant(msg) => write!(f, "tree invariant violated: {msg}"),
            TreeError::MissingParent(id) => write!(f, "node {id} unexpectedly has no parent"),
            TreeError::DanglingNodeId(id) => {
                write!(f, "node id {id} is dangling (dead or out of range)")
            }
            TreeError::Unlabeled(id) => write!(f, "node {id} has no label"),
            TreeError::DuplicateCreate(lid) => {
                write!(f, "log id #{lid} is created more than once in the batch")
            }
            TreeError::ConflictingWrite(id) => {
                write!(
                    f,
                    "conflicting writes: node {id} was already consumed by the batch"
                )
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// Errors raised by the XML parser, with byte offset and 1-based line/column
/// of the offending input position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub kind: ParseErrorKind,
    /// Byte offset into the input.
    pub offset: usize,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column number (in bytes).
    pub column: usize,
}

/// The specific parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Input ended in the middle of a construct.
    UnexpectedEof(&'static str),
    /// A tag, attribute or PI target name was empty or started with an
    /// invalid character.
    InvalidName,
    /// Expected a specific token (e.g. `=` after an attribute name).
    Expected(&'static str),
    /// A closing tag did not match the innermost open element.
    MismatchedClose {
        /// Name the parser expected to be closed.
        expected: String,
        /// Name found in the closing tag.
        found: String,
    },
    /// Text or markup found after the document element closed, or a closing
    /// tag with no element open.
    TrailingContent,
    /// An entity reference was malformed or unknown (only the five
    /// predefined entities and numeric character references are supported).
    BadEntity(String),
    /// The same attribute appears twice on one element.
    DuplicateAttribute(String),
    /// The document contained no element at all.
    NoDocumentElement,
    /// A numeric character reference does not denote a valid char.
    BadCharRef(u32),
    /// An internal parser invariant failed (a tree attach or UTF-8
    /// re-slice that is unreachable for well-formed parser state). Never
    /// produced by malformed *input*; surfacing it as an error instead of
    /// panicking keeps the parser total.
    Internal(&'static str),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, column {}: ", self.line, self.column)?;
        match &self.kind {
            ParseErrorKind::UnexpectedEof(ctx) => write!(f, "unexpected end of input in {ctx}"),
            ParseErrorKind::InvalidName => write!(f, "invalid name"),
            ParseErrorKind::Expected(tok) => write!(f, "expected {tok}"),
            ParseErrorKind::MismatchedClose { expected, found } => {
                write!(
                    f,
                    "mismatched closing tag: expected </{expected}>, found </{found}>"
                )
            }
            ParseErrorKind::TrailingContent => write!(f, "content after document element"),
            ParseErrorKind::BadEntity(e) => write!(f, "unknown or malformed entity '&{e};'"),
            ParseErrorKind::DuplicateAttribute(a) => write!(f, "duplicate attribute '{a}'"),
            ParseErrorKind::NoDocumentElement => write!(f, "document has no root element"),
            ParseErrorKind::BadCharRef(v) => write!(f, "invalid character reference #{v}"),
            ParseErrorKind::Internal(msg) => write!(f, "internal parser invariant violated: {msg}"),
        }
    }
}

impl std::error::Error for ParseError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let e = ParseError {
            kind: ParseErrorKind::Expected(">"),
            offset: 10,
            line: 2,
            column: 3,
        };
        let s = e.to_string();
        assert!(s.contains("line 2"), "{s}");
        assert!(s.contains("expected >"), "{s}");
    }

    /// Every `TreeError` variant has a distinct, non-empty rendering.
    #[test]
    fn tree_error_display_all_variants() {
        let id = NodeId(3);
        let cases: Vec<(TreeError, &str)> = vec![
            (TreeError::DeadNode(id), "deleted"),
            (TreeError::RootImmutable, "root"),
            (TreeError::AlreadyAttached(id), "already attached"),
            (TreeError::WouldCycle(id), "cycle"),
            (TreeError::NoParent(id), "no sibling position"),
            (TreeError::Invariant("x".into()), "invariant"),
            (TreeError::MissingParent(id), "no parent"),
            (TreeError::DanglingNodeId(id), "dangling"),
            (TreeError::Unlabeled(id), "no label"),
            (TreeError::DuplicateCreate(3), "created more than once"),
            (TreeError::ConflictingWrite(id), "conflicting writes"),
        ];
        let mut renderings = Vec::new();
        for (e, needle) in cases {
            let s = e.to_string();
            assert!(s.contains(needle), "{e:?} → {s}");
            renderings.push(s);
        }
        renderings.sort();
        renderings.dedup();
        assert_eq!(renderings.len(), 11, "renderings are distinct");
        // id-carrying variants name the node
        assert!(TreeError::DeadNode(id).to_string().contains("n3"));
        assert!(TreeError::MissingParent(id).to_string().contains("n3"));
        assert!(TreeError::DanglingNodeId(id).to_string().contains("n3"));
        assert!(TreeError::Unlabeled(id).to_string().contains("n3"));
        assert!(TreeError::DuplicateCreate(3).to_string().contains("#3"));
        assert!(TreeError::ConflictingWrite(id).to_string().contains("n3"));
    }

    /// Every `ParseErrorKind` variant has a distinct, non-empty rendering.
    #[test]
    fn parse_error_display_all_variants() {
        let kinds: Vec<(ParseErrorKind, &str)> = vec![
            (ParseErrorKind::UnexpectedEof("comment"), "end of input"),
            (ParseErrorKind::InvalidName, "invalid name"),
            (ParseErrorKind::Expected(">"), "expected >"),
            (
                ParseErrorKind::MismatchedClose {
                    expected: "a".into(),
                    found: "b".into(),
                },
                "</a>",
            ),
            (ParseErrorKind::TrailingContent, "after document element"),
            (ParseErrorKind::BadEntity("nope".into()), "&nope;"),
            (ParseErrorKind::DuplicateAttribute("x".into()), "'x'"),
            (ParseErrorKind::NoDocumentElement, "no root element"),
            (ParseErrorKind::BadCharRef(0xD800), "#55296"),
            (ParseErrorKind::Internal("attach"), "internal"),
        ];
        let mut renderings = Vec::new();
        for (kind, needle) in kinds {
            let s = ParseError {
                kind,
                offset: 0,
                line: 1,
                column: 1,
            }
            .to_string();
            assert!(s.contains(needle), "{s}");
            renderings.push(s);
        }
        renderings.sort();
        renderings.dedup();
        assert_eq!(renderings.len(), 10, "renderings are distinct");
    }
}
