//! XPath Accelerator (Grust, SIGMOD 2002 — \[9\] in the paper).
//!
//! Pure pre/post/level labels with **no gaps**: the canonical static
//! containment scheme. Evaluating a major-axis location step is a
//! rectangular region query in the pre/post plane; ancestor-descendant
//! and (with level) parent-child are decidable from labels, but sibling
//! identity is not — the `P` in Figure 7's *XPath Eval.* column.
//!
//! Every insertion shifts the preorder rank of all following nodes and
//! the postorder rank of all ancestors and following nodes: the scheme
//! relabels Θ(n) nodes per update, which is exactly why §3.1.1 rules
//! global-order schemes unsuitable for dynamic documents.

use std::cmp::Ordering;
use xupd_labelcore::{
    EncodingRep, InsertReport, Label, Labeling, LabelingScheme, OrderKind, Relation,
    SchemeDescriptor, SchemeStats,
};
use xupd_xmldom::{NodeId, TreeError, XmlTree};

/// A pre/post/level label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PrePostLabel {
    /// Preorder rank (document order).
    pub pre: u64,
    /// Postorder rank.
    pub post: u64,
    /// Nesting depth (document root = 0).
    pub level: u32,
}

impl Label for PrePostLabel {
    fn size_bits(&self) -> u64 {
        64 + 64 + 32
    }

    fn display(&self) -> String {
        format!("{},{}", self.pre, self.post)
    }
}

/// The XPath Accelerator labelling scheme.
#[derive(Debug, Clone, Default)]
pub struct XPathAccelerator {
    stats: SchemeStats,
}

impl XPathAccelerator {
    /// A fresh scheme.
    pub fn new() -> Self {
        XPathAccelerator::default()
    }

    fn compute(tree: &XmlTree) -> Labeling<PrePostLabel> {
        let mut labeling = Labeling::with_capacity_for(tree);
        let mut posts = vec![0u64; tree.id_bound()];
        for (i, id) in tree.postorder().enumerate() {
            posts[id.index()] = i as u64;
        }
        for (i, id) in tree.preorder().enumerate() {
            labeling.set(
                id,
                PrePostLabel {
                    pre: i as u64,
                    post: posts[id.index()],
                    level: tree.depth(id),
                },
            );
        }
        labeling
    }
}

impl LabelingScheme for XPathAccelerator {
    type Label = PrePostLabel;

    fn name(&self) -> &'static str {
        "XPath Accelerator"
    }

    fn descriptor(&self) -> SchemeDescriptor {
        SchemeDescriptor {
            name: "XPath Accelerator",
            citation: "[9]",
            order: OrderKind::Global,
            encoding: EncodingRep::Fixed,
            // Figure 7 row: Global Fixed N P F N N F F F
            declared: SchemeDescriptor::declared_from_letters("NPFNNFFF"),
            in_figure7: true,
        }
    }

    fn label_tree(&mut self, tree: &XmlTree) -> Result<Labeling<PrePostLabel>, TreeError> {
        // Two streaming traversals; no recursion, no division.
        Ok(Self::compute(tree))
    }

    fn on_insert(
        &mut self,
        tree: &XmlTree,
        labeling: &mut Labeling<PrePostLabel>,
        node: NodeId,
    ) -> Result<InsertReport, TreeError> {
        // Gap-free global ranks: recompute, report every changed label.
        let fresh = Self::compute(tree);
        let mut relabeled = Vec::new();
        for (id, new_label) in fresh.iter() {
            let changed = labeling.get(id).is_some_and(|old| old != new_label);
            if changed && id != node {
                relabeled.push(id);
                self.stats.relabeled_nodes += 1;
            }
            labeling.set(id, *new_label);
        }
        Ok(InsertReport {
            relabeled,
            overflowed: false,
        })
    }

    fn on_delete(&mut self, tree: &XmlTree, labeling: &mut Labeling<PrePostLabel>, node: NodeId) {
        for d in tree.preorder_from(node) {
            labeling.remove(d);
        }
        // Deletions also shift global ranks; the scheme relabels
        // the survivors on the next read. We fold it in eagerly.
        // (Relabels from deletions are counted like insertions.)
    }

    fn cmp_doc(&self, a: &PrePostLabel, b: &PrePostLabel) -> Ordering {
        a.pre.cmp(&b.pre)
    }

    fn relation(&self, rel: Relation, a: &PrePostLabel, b: &PrePostLabel) -> Option<bool> {
        match rel {
            Relation::AncestorDescendant => Some(a.pre < b.pre && b.post < a.post),
            Relation::ParentChild => {
                Some(a.pre < b.pre && b.post < a.post && b.level == a.level + 1)
            }
            // Sibling identity is not decidable from pre/post/level pairs.
            Relation::Sibling => None,
        }
    }

    fn level(&self, a: &PrePostLabel) -> Option<u32> {
        Some(a.level)
    }

    fn stats(&self) -> &SchemeStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_xmldom::sample::{figure1_document, figure1_labelled_nodes, FIGURE1_PRE_POST};
    use xupd_xmldom::NodeKind;

    #[test]
    fn figure1_pre_post_labels() {
        // The whole-tree labelling includes the document root; the
        // paper's figure ranks only the ten element/attribute nodes, so
        // compare after normalising out the root and text leaves.
        let tree = figure1_document();
        let mut scheme = XPathAccelerator::new();
        let labeling = scheme.label_tree(&tree).unwrap();
        let nodes = figure1_labelled_nodes(&tree);
        // rank the labelled nodes among themselves by (pre, post)
        let mut by_pre: Vec<NodeId> = nodes.clone();
        by_pre.sort_by_key(|&n| labeling.req(n).unwrap().pre);
        let mut by_post: Vec<NodeId> = nodes.clone();
        by_post.sort_by_key(|&n| labeling.req(n).unwrap().post);
        for (i, &n) in nodes.iter().enumerate() {
            let pre = by_pre.iter().position(|&x| x == n).unwrap() as u64;
            let post = by_post.iter().position(|&x| x == n).unwrap() as u64;
            assert_eq!((pre, post), FIGURE1_PRE_POST[i], "node {i}");
        }
    }

    #[test]
    fn dietz_ancestor_test_from_labels() {
        let tree = figure1_document();
        let mut scheme = XPathAccelerator::new();
        let labeling = scheme.label_tree(&tree).unwrap();
        let all = tree.ids_in_doc_order();
        for &u in &all {
            for &v in &all {
                if u == v {
                    continue;
                }
                assert_eq!(
                    scheme.relation(
                        Relation::AncestorDescendant,
                        labeling.req(u).unwrap(),
                        labeling.req(v).unwrap()
                    ),
                    Some(tree.is_ancestor(u, v))
                );
                assert_eq!(
                    scheme.relation(
                        Relation::ParentChild,
                        labeling.req(u).unwrap(),
                        labeling.req(v).unwrap()
                    ),
                    Some(tree.parent(v) == Some(u))
                );
            }
        }
    }

    #[test]
    fn every_insertion_relabels_many_nodes() {
        let mut tree = figure1_document();
        let mut scheme = XPathAccelerator::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let book = tree.document_element().unwrap();
        let first = tree.first_child(book).unwrap();
        let x = tree.create(NodeKind::element("x"));
        tree.insert_before(first, x).unwrap();
        let rep = scheme.on_insert(&tree, &mut labeling, x).unwrap();
        assert!(
            rep.relabeled.len() >= 10,
            "a front insertion shifts nearly every node, got {}",
            rep.relabeled.len()
        );
        // order still correct afterwards
        let order = tree.ids_in_doc_order();
        for w in order.windows(2) {
            assert_eq!(
                scheme.cmp_doc(labeling.req(w[0]).unwrap(), labeling.req(w[1]).unwrap()),
                Ordering::Less
            );
        }
    }

    #[test]
    fn sibling_relation_unsupported() {
        let tree = figure1_document();
        let mut scheme = XPathAccelerator::new();
        let labeling = scheme.label_tree(&tree).unwrap();
        let book = tree.document_element().unwrap();
        let a = tree.first_child(book).unwrap();
        let b = tree.next_sibling(a).unwrap();
        assert_eq!(
            scheme.relation(
                Relation::Sibling,
                labeling.req(a).unwrap(),
                labeling.req(b).unwrap()
            ),
            None
        );
    }
}
