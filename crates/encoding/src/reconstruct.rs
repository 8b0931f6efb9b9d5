//! Reconstruction of the textual document from the encoding alone —
//! Definition 2 requires that "the XML encoding scheme should also permit
//! the full reconstruction of the textual XML document".

use crate::preorder::PreorderIndex;
use xupd_xmldom::{NodeId, TreeError, XmlTree};

/// Rebuild an [`XmlTree`] from the preorder index. Rows are in document
/// order, so a single forward pass with parent references reproduces the
/// exact tree; combined with [`xupd_xmldom::serialize_compact`] this
/// yields the textual document. Labels play no part: the index holds
/// every node's kind and parent.
///
/// Errors only on a corrupt index (a parent reference that does not
/// precede its child); any index produced by
/// [`PreorderIndex::encode`] reconstructs cleanly.
pub fn reconstruct(index: &PreorderIndex) -> Result<XmlTree, TreeError> {
    let mut tree = XmlTree::new();
    let mut id_of: Vec<NodeId> = Vec::with_capacity(index.len());
    for i in 0..index.len() {
        match index.parent(i) {
            None => {
                // the document root row; already exists
                id_of.push(tree.root());
            }
            Some(p) => {
                let node = tree.create(index.kind(i).clone());
                tree.append_child(id_of[p], node)?;
                id_of.push(node);
            }
        }
    }
    Ok(tree)
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
        let back = reconstruct(&PreorderIndex::encode(&tree).unwrap()).unwrap();
        assert_eq!(serialize_compact(&back), original);
        back.validate().unwrap();
    }

    #[test]
    fn textual_parse_encode_reconstruct_round_trip() {
        let src = "<a x=\"1\"><b>text &amp; more</b><!--c--><d><e y='2'/></d></a>";
        let tree = parse(src).unwrap();
        let back = reconstruct(&PreorderIndex::encode(&tree).unwrap()).unwrap();
        let out = serialize_compact(&back);
        assert_eq!(parse(&out).unwrap().len(), tree.len());
        assert_eq!(out, serialize_compact(&tree));
    }

    #[test]
    fn xmark_round_trip() {
        let tree = docs::xmark_like(3, 60);
        let back = reconstruct(&PreorderIndex::encode(&tree).unwrap()).unwrap();
        assert_eq!(serialize_compact(&back), serialize_compact(&tree));
    }
}
