//! Reconstruction of the textual document from the encoding alone —
//! Definition 2 requires that "the XML encoding scheme should also permit
//! the full reconstruction of the textual XML document". The encoding's
//! structure is the preorder index's and its content the tree's node
//! table's, both keyed by node id.

use crate::preorder::PreorderIndex;
use xupd_xmldom::{NodeId, TreeError, XmlTree};

/// Rebuild an [`XmlTree`] from Definition 2's encoding of `tree`: the
/// structure from the preorder index, the content from `tree`'s node
/// table by each row's source id. Rows are in document order, so a
/// single forward pass with parent references reproduces the exact
/// tree; combined with [`xupd_xmldom::serialize_compact`] this yields
/// the textual document. The tree's own links are never followed, and
/// labels play no part.
///
/// Errors when the index was made for another state of `tree`, or on a
/// corrupt index (a parent reference that does not precede its child);
/// any index [`PreorderIndex::encode`] produced for `tree` as it is
/// reconstructs cleanly.
pub fn reconstruct(tree: &XmlTree, index: &PreorderIndex) -> Result<XmlTree, TreeError> {
    index.check_current(tree)?;
    let mut out = XmlTree::new();
    let mut id_of: Vec<NodeId> = Vec::with_capacity(index.len());
    for i in 0..index.len() {
        match index.parent(i) {
            None => {
                // the document root row; already exists
                id_of.push(out.root());
            }
            Some(p) => {
                let node = out.create(tree.kind(index.source_id(i)).clone());
                out.append_child(id_of[p], node)?;
                id_of.push(node);
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_workloads::docs;
    use xupd_xmldom::{parse, serialize_compact};

    #[test]
    fn figure1_round_trip() {
        let tree = docs::book();
        let original = serialize_compact(&tree);
        let back = reconstruct(&tree, &PreorderIndex::encode(&tree).unwrap()).unwrap();
        assert_eq!(serialize_compact(&back), original);
        back.validate().unwrap();
    }

    #[test]
    fn textual_parse_encode_reconstruct_round_trip() {
        let src = "<a x=\"1\"><b>text &amp; more</b><!--c--><d><e y='2'/></d></a>";
        let tree = parse(src).unwrap();
        let back = reconstruct(&tree, &PreorderIndex::encode(&tree).unwrap()).unwrap();
        let out = serialize_compact(&back);
        assert_eq!(parse(&out).unwrap().len(), tree.len());
        assert_eq!(out, serialize_compact(&tree));
    }

    #[test]
    fn an_index_of_another_tree_state_is_refused() {
        let tree = docs::book();
        let index = PreorderIndex::encode(&tree).unwrap();
        let mut edited = tree.clone();
        let text = edited
            .preorder()
            .find(|&n| edited.kind(n).is_text())
            .unwrap();
        edited.remove_subtree(text).unwrap();
        assert!(matches!(
            reconstruct(&edited, &index),
            Err(TreeError::Invariant(_))
        ));
    }

    #[test]
    fn xmark_round_trip() {
        let tree = docs::xmark_like(3, 60);
        let back = reconstruct(&tree, &PreorderIndex::encode(&tree).unwrap()).unwrap();
        assert_eq!(serialize_compact(&back), serialize_compact(&tree));
    }
}
