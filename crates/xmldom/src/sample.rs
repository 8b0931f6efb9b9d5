//! The paper's running example: the sample XML file of Figure 1(a) and its
//! ten-node tree of Figure 1(b).
//!
//! Several golden tests (Figures 1–6) and the Figure 2 encoding table are
//! phrased over exactly this document, so it lives in the substrate crate
//! where every other crate can reach it.

use crate::builder::TreeBuilder;
use crate::node::NodeId;
use crate::tree::XmlTree;

/// The textual document of Figure 1(a).
pub const FIGURE1_XML: &str = r#"<book>
<title genre="Fantasy"> Wayfarer </title>
<author> Matthew Dickens </author>
<publisher>
<editor>
<name> Destiny Image </name>
<address> USA </address>
</editor>
<edition year="2004"> 1.0 </edition>
</publisher>
</book>"#;

/// Build the Figure 1(b) tree programmatically: ten labelled nodes, with
/// text leaves carrying the data values.
///
/// The paper's figure labels only the ten *structural* nodes (elements and
/// attributes) — text leaves "are considered by the XML encoding scheme and
/// not the labelling scheme" (§3.1.1). [`figure1_labelled_nodes`] returns
/// those ten nodes in the paper's preorder.
pub fn figure1_document() -> XmlTree {
    TreeBuilder::new()
        .open("book")
        .open("title")
        .attr("genre", "Fantasy")
        .text("Wayfarer")
        .close()
        .leaf("author", "Matthew Dickens")
        .open("publisher")
        .open("editor")
        .leaf("name", "Destiny Image")
        .leaf("address", "USA")
        .close()
        .open("edition")
        .attr("year", "2004")
        .text("1.0")
        .close()
        .close()
        .close()
        .finish()
}

/// The ten nodes of Figure 1(b) in the paper's preorder:
/// book, title, @genre, author, publisher, editor, name, address, edition,
/// @year.
pub fn figure1_labelled_nodes(tree: &XmlTree) -> Vec<NodeId> {
    // The labelled nodes are exactly the element and attribute nodes, in
    // document order.
    tree.preorder()
        .filter(|&n| {
            let k = tree.kind(n);
            k.is_element() || k.is_attribute()
        })
        .collect()
}

/// The paper's Figure 1(b) expected (pre, post) label pairs, in the order
/// returned by [`figure1_labelled_nodes`].
pub const FIGURE1_PRE_POST: [(u64, u64); 10] = [
    (0, 9), // book
    (1, 1), // title
    (2, 0), // @genre
    (3, 2), // author
    (4, 8), // publisher
    (5, 5), // editor
    (6, 3), // name
    (7, 4), // address
    (8, 7), // edition
    (9, 6), // @year
];

/// One row of the paper's Figure 2 encoding table:
/// (pre, post, node type, parent pre, name, value).
pub type Figure2Row = (
    u64,
    u64,
    &'static str,
    Option<u64>,
    &'static str,
    &'static str,
);

/// The rows of the paper's Figure 2 encoding table.
pub const FIGURE2_ROWS: [Figure2Row; 10] = [
    (0, 9, "Element", None, "book", ""),
    (1, 1, "Element", Some(0), "title", "Wayfarer"),
    (2, 0, "Attribute", Some(1), "genre", "Fantasy"),
    (3, 2, "Element", Some(0), "author", "Matthew Dickens"),
    (4, 8, "Element", Some(0), "publisher", ""),
    (5, 5, "Element", Some(4), "editor", ""),
    (6, 3, "Element", Some(5), "name", "Destiny Image"),
    (7, 4, "Element", Some(5), "address", "USA"),
    (8, 7, "Element", Some(4), "edition", "1.0"),
    (9, 6, "Attribute", Some(8), "year", "2004"),
];

/// A ten-node abstract tree with the same *shape* as Figures 3–6 of the
/// paper (root with three children; first child has one child (plus, in
/// Figure 1, an attribute); the shapes used by the DeweyID / ORDPATH /
/// LSDX / ImprovedBinary illustrations).
///
/// Figures 3–6 all draw the same silhouette: a root, three children, and
/// under them the leaf rows shown in each figure. Returns the tree and the
/// nodes in document order (root first).
pub fn figure3_shape() -> (XmlTree, Vec<NodeId>) {
    // Shape from Figure 3 (DeweyID): root 1 with children 1.1, 1.2, 1.3;
    // 1.1 has children 1.1.1, 1.1.2; 1.2 has child 1.2.1; 1.3 has children
    // 1.3.1, 1.3.2, 1.3.3.
    let t = TreeBuilder::new()
        .open("r")
        .open("a")
        .open("a1")
        .close()
        .open("a2")
        .close()
        .close()
        .open("b")
        .open("b1")
        .close()
        .close()
        .open("c")
        .open("c1")
        .close()
        .open("c2")
        .close()
        .open("c3")
        .close()
        .close()
        .close()
        .finish();
    let nodes = t.preorder().filter(|&n| t.kind(n).is_element()).collect();
    (t, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn parsed_figure1_matches_programmatic_figure1() {
        let parsed = parse(FIGURE1_XML).unwrap();
        let built = figure1_document();
        // Same structural skeleton: compare (kind tag, name, depth) in
        // document order over labelled nodes.
        let sig = |t: &XmlTree| -> Vec<(String, String, u32)> {
            figure1_labelled_nodes(t)
                .into_iter()
                .map(|n| {
                    (
                        t.kind(n).type_tag().to_string(),
                        t.kind(n).name().unwrap_or("").to_string(),
                        t.depth(n),
                    )
                })
                .collect()
        };
        assert_eq!(sig(&parsed), sig(&built));
    }

    #[test]
    fn figure1_pre_post_golden() {
        let t = figure1_document();
        let nodes = figure1_labelled_nodes(&t);
        assert_eq!(nodes.len(), 10);
        // Ranks computed over the labelled (element+attribute) nodes only,
        // exactly as the paper's figure does.
        let book = nodes[0];
        let pre_seq: Vec<_> = t
            .preorder_from(book)
            .filter(|&n| t.kind(n).is_element() || t.kind(n).is_attribute())
            .collect();
        let post_seq: Vec<_> = crate::traverse::Postorder::from(&t, book)
            .filter(|&n| t.kind(n).is_element() || t.kind(n).is_attribute())
            .collect();
        for (i, &n) in nodes.iter().enumerate() {
            let pre = pre_seq.iter().position(|&x| x == n).unwrap() as u64;
            let post = post_seq.iter().position(|&x| x == n).unwrap() as u64;
            assert_eq!((pre, post), FIGURE1_PRE_POST[i], "node {i}");
        }
    }

    #[test]
    fn figure3_shape_has_ten_element_nodes() {
        let (t, nodes) = figure3_shape();
        assert_eq!(nodes.len(), 10);
        t.validate().unwrap();
        // root has 3 children, first child 2, second 1, third 3
        let root = nodes[0];
        let kids: Vec<_> = t.children(root).collect();
        assert_eq!(kids.len(), 3);
        assert_eq!(t.child_count(kids[0]), 2);
        assert_eq!(t.child_count(kids[1]), 1);
        assert_eq!(t.child_count(kids[2]), 3);
    }
}
