//! A fluent builder for constructing documents programmatically, used by
//! workload generators and tests where going through the parser would be
//! wasteful.

use crate::node::{NodeId, NodeKind};
use crate::tree::XmlTree;

/// Builds an [`XmlTree`] with a cursor-based API.
///
/// ```
/// use xupd_xmldom::{TreeBuilder, serialize_compact};
///
/// let tree = TreeBuilder::new()
///     .open("book")
///     .attr("isbn", "123")
///     .open("title").text("Wayfarer").close()
///     .close()
///     .finish();
/// assert_eq!(
///     serialize_compact(&tree),
///     "<book isbn=\"123\"><title>Wayfarer</title></book>"
/// );
/// ```
pub struct TreeBuilder {
    tree: XmlTree,
    stack: Vec<NodeId>,
}

impl Default for TreeBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TreeBuilder {
    /// Start a new document.
    pub fn new() -> Self {
        let tree = XmlTree::new();
        let root = tree.root();
        TreeBuilder {
            tree,
            stack: vec![root],
        }
    }

    fn cursor(&self) -> NodeId {
        // The stack is seeded with the root and close() never pops the
        // last entry, so the fallback is unreachable; the root is the
        // safe degenerate cursor.
        self.stack
            .last()
            .copied()
            .unwrap_or_else(|| self.tree.root())
    }

    /// Create a node of `kind` and attach it under the cursor. The
    /// attach is infallible by construction (fresh detached node, live
    /// anchor): checked in debug builds rather than panicking in release.
    fn append(&mut self, kind: NodeKind) -> NodeId {
        let n = self.tree.create(kind);
        let attached = self.tree.append_child(self.cursor(), n);
        debug_assert!(attached.is_ok(), "fresh node attaches under live cursor");
        n
    }

    /// Open a child element and move the cursor into it.
    pub fn open(mut self, name: impl Into<String>) -> Self {
        let e = self.append(NodeKind::element(name));
        self.stack.push(e);
        self
    }

    /// Close the current element, moving the cursor back to its parent.
    ///
    /// # Panics
    /// Panics if no element is open.
    pub fn close(mut self) -> Self {
        assert!(self.stack.len() > 1, "close() with no open element");
        self.stack.pop();
        self
    }

    /// Add an attribute to the current element.
    pub fn attr(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.append(NodeKind::attribute(name, value));
        self
    }

    /// Add a text child to the current element.
    pub fn text(mut self, value: impl Into<String>) -> Self {
        self.append(NodeKind::text(value));
        self
    }

    /// Add a comment child.
    pub fn comment(mut self, value: impl Into<String>) -> Self {
        self.append(NodeKind::comment(value));
        self
    }

    /// Add a processing-instruction child.
    pub fn pi(mut self, target: impl Into<String>, data: impl Into<String>) -> Self {
        self.append(NodeKind::pi(target, data));
        self
    }

    /// Shorthand: `open(name).text(value).close()`.
    pub fn leaf(self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.open(name).text(value).close()
    }

    /// Finish building.
    ///
    /// # Panics
    /// Panics if elements are still open.
    pub fn finish(self) -> XmlTree {
        assert!(
            self.stack.len() == 1,
            "finish() with {} unclosed element(s)",
            self.stack.len() - 1
        );
        self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serializer::serialize_compact;

    #[test]
    fn nested_structure() {
        let t = TreeBuilder::new()
            .open("a")
            .open("b")
            .leaf("c", "x")
            .close()
            .comment("done")
            .close()
            .finish();
        assert_eq!(serialize_compact(&t), "<a><b><c>x</c></b><!--done--></a>");
        t.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn finish_panics_on_open_element() {
        let _ = TreeBuilder::new().open("a").finish();
    }

    #[test]
    #[should_panic(expected = "no open element")]
    fn close_panics_at_root() {
        let _ = TreeBuilder::new().close();
    }
}
