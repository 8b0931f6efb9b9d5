//! Serialization of an [`XmlTree`] back to textual XML.
//!
//! Definition 2 of the paper requires that an encoding scheme "permit the
//! full reconstruction of the textual XML document"; the serializer is the
//! final step of that reconstruction and is exercised by the round-trip
//! tests in `xupd-encoding`.

use crate::node::{NodeId, NodeKind};
use crate::tree::XmlTree;
use std::fmt::Write;

/// Serialize the whole document on one line, no added whitespace.
pub fn serialize_compact(tree: &XmlTree) -> String {
    let mut out = String::new();
    for child in tree.children(tree.root()) {
        write_node(tree, child, &mut out, None, 0);
    }
    out
}

/// Serialize with two-space indentation. Text-bearing elements are kept on
/// one line so that text content is not polluted with indentation.
pub fn serialize_pretty(tree: &XmlTree) -> String {
    let mut out = String::new();
    for child in tree.children(tree.root()) {
        write_node(tree, child, &mut out, Some("  "), 0);
        out.push('\n');
    }
    out
}

fn write_node(tree: &XmlTree, id: NodeId, out: &mut String, indent: Option<&str>, depth: usize) {
    match tree.kind(id) {
        NodeKind::Document => {
            for c in tree.children(id) {
                write_node(tree, c, out, indent, depth);
            }
        }
        NodeKind::Element { name } => {
            // An empty text node writes nothing, so it does not keep
            // its element from self-closing: the parser reads neither
            // back.
            let (attrs, children): (Vec<NodeId>, Vec<NodeId>) = tree
                .children(id)
                .filter(|&c| !matches!(tree.kind(c), NodeKind::Text { value } if value.is_empty()))
                .partition(|&c| tree.kind(c).is_attribute());
            out.push('<');
            out.push_str(name);
            for a in attrs {
                if let NodeKind::Attribute { name, value } = tree.kind(a) {
                    // fmt::Write to String is infallible
                    let _ = write!(out, " {name}=\"{}\"", escape_attr(value));
                }
            }
            if children.is_empty() {
                out.push_str("/>");
                return;
            }
            out.push('>');
            let inline = indent.is_none()
                || children
                    .iter()
                    .all(|&c| matches!(tree.kind(c), NodeKind::Text { .. }));
            for &c in &children {
                if !inline {
                    out.push('\n');
                    push_indent(out, indent, depth + 1);
                }
                write_node(tree, c, out, indent, depth + 1);
            }
            if !inline {
                out.push('\n');
                push_indent(out, indent, depth);
            }
            out.push_str("</");
            out.push_str(name);
            out.push('>');
        }
        NodeKind::Attribute { .. } => {
            // Attributes detached from an element context serialize to
            // nothing; they are emitted inside their owner's start tag.
        }
        NodeKind::Text { value } => out.push_str(&escape_text(value)),
        NodeKind::Comment { value } => {
            out.push_str("<!--");
            out.push_str(value);
            out.push_str("-->");
        }
        NodeKind::Pi { target, data } => {
            out.push_str("<?");
            out.push_str(target);
            if !data.is_empty() {
                out.push(' ');
                out.push_str(data);
            }
            out.push_str("?>");
        }
    }
}

fn push_indent(out: &mut String, indent: Option<&str>, depth: usize) {
    if let Some(unit) = indent {
        for _ in 0..depth {
            out.push_str(unit);
        }
    }
}

/// Escape character data for element content.
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            _ => out.push(c),
        }
    }
    out
}

/// Escape an attribute value for double-quoted output.
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn compact_round_trip() {
        let src = "<a x=\"1\"><b>hi</b><c/><!--n--><?p d?></a>";
        let t = parse(src).unwrap();
        assert_eq!(serialize_compact(&t), src);
    }

    #[test]
    fn escaping_round_trip() {
        let src = "<a x=\"&lt;&quot;&amp;\">a &amp; b &lt; c</a>";
        let t = parse(src).unwrap();
        let out = serialize_compact(&t);
        let t2 = parse(&out).unwrap();
        let a = t2.document_element().unwrap();
        assert_eq!(t2.attribute(a, "x"), Some("<\"&"));
        let text = t2.last_child(a).unwrap();
        assert_eq!(t2.kind(text), &NodeKind::text("a & b < c"));
    }

    #[test]
    fn self_closing_for_empty_elements() {
        let t = parse("<a><b></b></a>").unwrap();
        assert_eq!(serialize_compact(&t), "<a><b/></a>");
    }

    #[test]
    fn empty_text_writes_nothing_and_keeps_self_closing() {
        let mut t = parse("<a><b>x</b><c>y<d/></c></a>").unwrap();
        for n in t.ids_in_doc_order() {
            if let NodeKind::Text { value } = t.kind_mut(n) {
                value.clear();
            }
        }
        let out = serialize_compact(&t);
        assert_eq!(out, "<a><b/><c><d/></c></a>");
        assert_eq!(serialize_compact(&parse(&out).unwrap()), out);
    }

    #[test]
    fn pretty_indents_structure() {
        let t = parse("<a><b>x</b><c><d/></c></a>").unwrap();
        let pretty = serialize_pretty(&t);
        assert!(pretty.contains("\n  <b>x</b>"), "{pretty}");
        assert!(pretty.contains("\n    <d/>"), "{pretty}");
        // pretty output re-parses to an equivalent compact form
        let t2 = parse(&pretty).unwrap();
        assert_eq!(serialize_compact(&t2), serialize_compact(&t));
    }
}
