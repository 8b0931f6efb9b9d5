//! Node identifiers and the XPath node taxonomy.

use std::fmt;
use std::num::NonZeroU32;

/// A stable handle to a node inside an [`crate::XmlTree`] arena.
///
/// Identifiers are never reused: deleting a subtree retires its ids
/// permanently. This keeps external side tables (such as a labelling-scheme
/// assignment) trivially correct — a stale id can be detected, never
/// silently aliased to a new node.
///
/// The id stores its arena index plus one in a [`NonZeroU32`], so an
/// `Option<NodeId>` is 4 bytes like the id itself: the tree's five
/// links per node and every side table of optional ids pay no tag.
/// Arena indices run below `u32::MAX`; an index at or past that bound
/// saturates to the last id, index `u32::MAX - 1`, and never wraps onto
/// a small id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(NonZeroU32);

impl NodeId {
    /// The document root's id, index 0.
    pub(crate) const ROOT: NodeId = NodeId(NonZeroU32::MIN);

    /// The arena index backing this id.
    #[inline]
    pub fn index(self) -> usize {
        (self.0.get() - 1) as usize
    }

    /// Rebuild an id from a raw arena index. Intended for side tables that
    /// store dense per-node data; passing an index that was never issued by
    /// the owning tree yields an id the tree will report as dead. An index
    /// of `u32::MAX` or more saturates to index `u32::MAX - 1`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        let index = u32::try_from(index).unwrap_or(u32::MAX);
        NodeId(NonZeroU32::MIN.saturating_add(index))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.index())
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.index())
    }
}

/// The node kinds of the XPath data model.
///
/// The paper's tree model (Figure 1(b), Figure 2) gives attributes their own
/// labelled nodes, ordered before the element's other children; we follow
/// that convention.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// The document root. Exactly one per tree; it is created with the tree
    /// and can never be detached or deleted.
    Document,
    /// An element node, e.g. `<book>`.
    Element {
        /// Tag name.
        name: String,
    },
    /// An attribute node, e.g. `genre="Fantasy"`.
    Attribute {
        /// Attribute name.
        name: String,
        /// Attribute value (entity-decoded).
        value: String,
    },
    /// A text node. Consecutive text is merged by the parser.
    Text {
        /// Character data (entity-decoded).
        value: String,
    },
    /// A comment node, `<!-- ... -->`.
    Comment {
        /// Comment body.
        value: String,
    },
    /// A processing instruction, `<?target data?>`.
    Pi {
        /// PI target.
        target: String,
        /// PI data (may be empty).
        data: String,
    },
}

impl NodeKind {
    /// Convenience constructor for an element node.
    pub fn element(name: impl Into<String>) -> Self {
        NodeKind::Element { name: name.into() }
    }

    /// Convenience constructor for an attribute node.
    pub fn attribute(name: impl Into<String>, value: impl Into<String>) -> Self {
        NodeKind::Attribute {
            name: name.into(),
            value: value.into(),
        }
    }

    /// Convenience constructor for a text node.
    pub fn text(value: impl Into<String>) -> Self {
        NodeKind::Text {
            value: value.into(),
        }
    }

    /// Convenience constructor for a comment node.
    pub fn comment(value: impl Into<String>) -> Self {
        NodeKind::Comment {
            value: value.into(),
        }
    }

    /// Convenience constructor for a processing-instruction node.
    pub fn pi(target: impl Into<String>, data: impl Into<String>) -> Self {
        NodeKind::Pi {
            target: target.into(),
            data: data.into(),
        }
    }

    /// True for [`NodeKind::Element`].
    pub fn is_element(&self) -> bool {
        matches!(self, NodeKind::Element { .. })
    }

    /// True for [`NodeKind::Attribute`].
    pub fn is_attribute(&self) -> bool {
        matches!(self, NodeKind::Attribute { .. })
    }

    /// True for [`NodeKind::Text`].
    pub fn is_text(&self) -> bool {
        matches!(self, NodeKind::Text { .. })
    }

    /// The element or attribute name, if this kind carries one.
    pub fn name(&self) -> Option<&str> {
        match self {
            NodeKind::Element { name } | NodeKind::Attribute { name, .. } => Some(name),
            NodeKind::Pi { target, .. } => Some(target),
            _ => None,
        }
    }

    /// The textual value carried by this node, if any (attribute value,
    /// text content, comment body or PI data).
    pub fn value(&self) -> Option<&str> {
        match self {
            NodeKind::Attribute { value, .. }
            | NodeKind::Text { value }
            | NodeKind::Comment { value } => Some(value),
            NodeKind::Pi { data, .. } => Some(data),
            _ => None,
        }
    }

    /// Short type tag used by the encoding-scheme table (Figure 2 column
    /// "Node Type").
    pub fn type_tag(&self) -> &'static str {
        match self {
            NodeKind::Document => "Document",
            NodeKind::Element { .. } => "Element",
            NodeKind::Attribute { .. } => "Attribute",
            NodeKind::Text { .. } => "Text",
            NodeKind::Comment { .. } => "Comment",
            NodeKind::Pi { .. } => "PI",
        }
    }
}

impl fmt::Debug for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeKind::Document => write!(f, "#document"),
            NodeKind::Element { name } => write!(f, "<{name}>"),
            NodeKind::Attribute { name, value } => write!(f, "@{name}={value:?}"),
            NodeKind::Text { value } => write!(f, "#text({value:?})"),
            NodeKind::Comment { value } => write!(f, "<!--{value}-->"),
            NodeKind::Pi { target, data } => write!(f, "<?{target} {data}?>"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_through_index() {
        let id = NodeId::from_index(42);
        assert_eq!(NodeId::from_index(id.index()), id);
        let last = u32::MAX as usize - 1;
        for i in [0, 1, 42, last] {
            assert_eq!(NodeId::from_index(i).index(), i);
        }
        assert_eq!(NodeId::ROOT, NodeId::from_index(0));
        // Past the id bound the index saturates; it never wraps onto a
        // small id (a truncating cast made `1 << 32` the root).
        for i in [u32::MAX as usize, 1 << 32, (1 << 32) + 7, usize::MAX] {
            assert_eq!(NodeId::from_index(i).index(), last, "{i}");
        }
    }

    #[test]
    fn an_optional_id_costs_no_more_than_an_id() {
        assert_eq!(std::mem::size_of::<NodeId>(), 4);
        assert_eq!(std::mem::size_of::<Option<NodeId>>(), 4);
    }

    #[test]
    fn ids_sort_by_index() {
        // The splice binary-searches sorted ids, so id order must be
        // index order.
        let mut ids: Vec<NodeId> = [9, 0, u32::MAX as usize - 1, 3, 1]
            .into_iter()
            .map(NodeId::from_index)
            .collect();
        ids.sort_unstable();
        let order: Vec<usize> = ids.iter().map(|id| id.index()).collect();
        assert_eq!(order, [0, 1, 3, 9, u32::MAX as usize - 1]);
    }

    #[test]
    fn kind_constructors_and_accessors() {
        let e = NodeKind::element("book");
        assert!(e.is_element());
        assert_eq!(e.name(), Some("book"));
        assert_eq!(e.value(), None);
        assert_eq!(e.type_tag(), "Element");

        let a = NodeKind::attribute("genre", "Fantasy");
        assert!(a.is_attribute());
        assert_eq!(a.name(), Some("genre"));
        assert_eq!(a.value(), Some("Fantasy"));

        let t = NodeKind::text("Wayfarer");
        assert!(t.is_text());
        assert_eq!(t.value(), Some("Wayfarer"));
        assert_eq!(t.name(), None);

        let c = NodeKind::comment("note");
        assert_eq!(c.value(), Some("note"));
        assert_eq!(c.type_tag(), "Comment");

        let p = NodeKind::pi("xml-stylesheet", "href=x");
        assert_eq!(p.name(), Some("xml-stylesheet"));
        assert_eq!(p.value(), Some("href=x"));
        assert_eq!(p.type_tag(), "PI");
    }

    #[test]
    fn debug_formats_are_compact() {
        assert_eq!(format!("{:?}", NodeKind::element("a")), "<a>");
        assert_eq!(format!("{:?}", NodeId::from_index(7)), "n7");
        assert_eq!(NodeId::from_index(7).to_string(), "n7");
    }
}
