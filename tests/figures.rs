//! Golden tests for the paper's Figures 1–6 (experiment ids F1–F6 in
//! DESIGN.md): the worked labelled trees in the paper are exact expected
//! output for our implementations.

use xml_update_props::encoding::figure2::figure2_table;
use xml_update_props::labelcore::{Label, LabelingScheme};
use xml_update_props::schemes::prefix::dewey::DeweyId;
use xml_update_props::schemes::prefix::improved_binary::ImprovedBinary;
use xml_update_props::schemes::prefix::lsdx::Lsdx;
use xml_update_props::schemes::prefix::ordpath::OrdPath;
use xml_update_props::xmldom::sample::{
    figure1_document, figure1_labelled_nodes, figure3_shape, FIGURE1_PRE_POST, FIGURE1_XML,
    FIGURE2_ROWS,
};
use xml_update_props::xmldom::{parse, NodeId, NodeKind, XmlTree};

/// F1 — Figure 1(b): pre/post labels of the sample document's ten
/// element/attribute nodes.
#[test]
fn figure1_pre_post_labels_golden() {
    let tree = parse(FIGURE1_XML).expect("sample parses");
    let nodes = figure1_labelled_nodes(&tree);
    assert_eq!(nodes.len(), 10);
    let pre_seq = nodes.clone();
    let post_seq: Vec<NodeId> = tree.postorder().filter(|n| nodes.contains(n)).collect();
    for (i, &n) in nodes.iter().enumerate() {
        let pre = pre_seq.iter().position(|&x| x == n).unwrap() as u64;
        let post = post_seq.iter().position(|&x| x == n).unwrap() as u64;
        assert_eq!(
            (pre, post),
            FIGURE1_PRE_POST[i],
            "node {} ({:?})",
            i,
            tree.kind(n)
        );
    }
}

/// F2 — Figure 2: the encoding table, cell for cell.
#[test]
fn figure2_encoding_table_golden() {
    let rows = figure2_table(&figure1_document());
    assert_eq!(rows.len(), FIGURE2_ROWS.len());
    for (row, &(pre, post, ty, parent, name, value)) in rows.iter().zip(&FIGURE2_ROWS) {
        assert_eq!(
            (row.pre, row.post, row.node_type.as_str(), row.parent_pre),
            (pre, post, ty, parent),
            "{name}"
        );
        assert_eq!(row.name, name);
        assert_eq!(row.value, value);
    }
}

fn labelled_display<S: LabelingScheme>(mut scheme: S) -> (XmlTree, Vec<String>) {
    let (tree, nodes) = figure3_shape();
    let labeling = scheme.label_tree(&tree).unwrap();
    let shown = nodes
        .iter()
        .map(|&n| labeling.req(n).unwrap().display())
        .collect();
    (tree, shown)
}

/// F3 — Figure 3: the DeweyID labelled tree.
#[test]
fn figure3_deweyid_golden() {
    let (_, shown) = labelled_display(DeweyId::new());
    assert_eq!(
        shown,
        ["1", "1.1", "1.1.1", "1.1.2", "1.2", "1.2.1", "1.3", "1.3.1", "1.3.2", "1.3.3"]
    );
}

/// F4 — Figure 4: ORDPATH initial odd labels plus the three grey
/// insertions (right: +2; left: −2 giving `…,-1`; between: caret `2.1`).
#[test]
fn figure4_ordpath_golden() {
    let (_, shown) = labelled_display(OrdPath::new());
    assert_eq!(
        shown,
        ["1", "1.1", "1.1.1", "1.1.3", "1.3", "1.3.1", "1.5", "1.5.1", "1.5.3", "1.5.5"]
    );

    // the grey nodes on a two-child sibling list, as in the figure's
    // third subtree
    let mut tree = XmlTree::new();
    let root = tree.create(NodeKind::element("r"));
    tree.append_child(tree.root(), root).unwrap();
    let c1 = tree.create(NodeKind::element("c1"));
    let c2 = tree.create(NodeKind::element("c2"));
    tree.append_child(root, c1).unwrap();
    tree.append_child(root, c2).unwrap();
    let mut scheme = OrdPath::new();
    let mut labeling = scheme.label_tree(&tree).unwrap();

    let right = tree.create(NodeKind::element("right"));
    tree.append_child(root, right).unwrap();
    scheme.on_insert(&tree, &mut labeling, right).unwrap();
    assert_eq!(
        labeling.req(right).unwrap().display(),
        "1.5",
        "rightmost + 2"
    );

    let left = tree.create(NodeKind::element("left"));
    tree.prepend_child(root, left).unwrap();
    scheme.on_insert(&tree, &mut labeling, left).unwrap();
    assert_eq!(
        labeling.req(left).unwrap().display(),
        "1.-1",
        "leftmost − 2"
    );

    let mid = tree.create(NodeKind::element("mid"));
    tree.insert_after(c1, mid).unwrap();
    scheme.on_insert(&tree, &mut labeling, mid).unwrap();
    assert_eq!(labeling.req(mid).unwrap().display(), "1.2.1", "careting-in");
}

/// F5 — Figure 5: LSDX initial letters and the three grey insertions
/// (before-first prefixes `a`; after-last increments; between extends).
#[test]
fn figure5_lsdx_golden() {
    let (tree, shown) = labelled_display(Lsdx::new());
    // root 1a.b; its children use b, c, d as in the figure's 1a.b/1a.c/1a.d
    assert_eq!(shown[0], "1a.b");
    assert_eq!(&shown[1], "2ab.b");
    let root_elem = tree.document_element().unwrap();
    let kids: Vec<NodeId> = tree.children(root_elem).collect();
    assert_eq!(kids.len(), 3);

    let mut tree = tree;
    let mut scheme = Lsdx::new();
    let mut labeling = scheme.label_tree(&tree).unwrap();

    // before the first grandchild → positional id "ab" (figure: 2ab.ab)
    let first_kid = kids[0];
    let gfirst = tree.first_child(first_kid).unwrap();
    let b = tree.create(NodeKind::element("before"));
    tree.insert_before(gfirst, b).unwrap();
    scheme.on_insert(&tree, &mut labeling, b).unwrap();
    assert_eq!(
        labeling.req(b).unwrap().path.own_code().unwrap(),
        "ab",
        "prefixing an a"
    );

    // after the last child of the second kid → increment (figure: 2ac.c)
    let second = kids[1];
    let a = tree.create(NodeKind::element("after"));
    tree.append_child(second, a).unwrap();
    scheme.on_insert(&tree, &mut labeling, a).unwrap();
    assert_eq!(labeling.req(a).unwrap().path.own_code().unwrap(), "c");

    // between the third kid's first two children → "bb" (figure: 2ad.bb)
    let third = kids[2];
    let tfirst = tree.first_child(third).unwrap();
    let m = tree.create(NodeKind::element("mid"));
    tree.insert_after(tfirst, m).unwrap();
    scheme.on_insert(&tree, &mut labeling, m).unwrap();
    assert_eq!(labeling.req(m).unwrap().path.own_code().unwrap(), "bb");
}

/// F6 — Figure 6: ImprovedBinary initial codes 01 / 0101 / 011 and the
/// three grey insertions 0101.001, 0101.011, 011.0101-style.
#[test]
fn figure6_improved_binary_golden() {
    let (tree, _) = figure3_shape();
    let mut scheme = ImprovedBinary::new();
    let mut labeling = scheme.label_tree(&tree).unwrap();
    let root_elem = tree.document_element().unwrap();
    let kids: Vec<NodeId> = tree.children(root_elem).collect();
    let codes: Vec<String> = kids
        .iter()
        .map(|&k| {
            labeling
                .req(k)
                .unwrap()
                .path
                .own_code()
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(codes, ["01", "0101", "011"]);

    let mut tree = tree;
    // before first child of the 0101 node → its 01 becomes 001
    let second = kids[1];
    let sfirst = tree.first_child(second).unwrap();
    let before = tree.create(NodeKind::element("before"));
    tree.insert_before(sfirst, before).unwrap();
    scheme.on_insert(&tree, &mut labeling, before).unwrap();
    assert_eq!(
        labeling
            .req(before)
            .unwrap()
            .path
            .own_code()
            .unwrap()
            .to_string(),
        "001"
    );

    // after last child of the 0101 node → 01 + 1 = 011
    let after = tree.create(NodeKind::element("after"));
    tree.append_child(second, after).unwrap();
    scheme.on_insert(&tree, &mut labeling, after).unwrap();
    assert_eq!(
        labeling
            .req(after)
            .unwrap()
            .path
            .own_code()
            .unwrap()
            .to_string(),
        "011"
    );

    // between two children of the 011 node → AssignMiddleSelfLabel
    let third = kids[2];
    let tfirst = tree.first_child(third).unwrap();
    let mid = tree.create(NodeKind::element("mid"));
    tree.insert_after(tfirst, mid).unwrap();
    scheme.on_insert(&tree, &mut labeling, mid).unwrap();
    let mid_code = labeling
        .req(mid)
        .unwrap()
        .path
        .own_code()
        .unwrap()
        .to_string();
    // strictly between its neighbours, ends in 1 (the scheme invariant)
    let left_code = labeling
        .req(tfirst)
        .unwrap()
        .path
        .own_code()
        .unwrap()
        .to_string();
    assert!(left_code < mid_code);
    assert!(mid_code.ends_with('1'));
}
