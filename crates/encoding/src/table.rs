//! The labelled encoding of Definition 2: an [`EncodedDocument`] is a
//! document's [`PreorderIndex`] (node kinds, parents, topology, name
//! index) plus one label per row under a labelling scheme. The index is
//! what the encoding scheme adds on top of the labelling scheme (§2.3):
//! node type, names and content. The label column is what the scheme
//! itself contributes. Once built, neither the original tree nor its
//! node ids are needed to answer queries or to reconstruct the text.
//!
//! Each label is attached to its row through the row's source node id,
//! so row `i` carries the label the scheme gave the `i`-th node in
//! document order. Structural queries read only the index
//! ([`EncodedDocument::index`]); the methods here are the ones that read
//! labels: document order by label ([`EncodedDocument::cmp_doc`]) and
//! the label-algebra reference axes
//! ([`EncodedDocument::is_ancestor_via_labels`] and the other
//! `*_via_labels` methods). The framework checkers measure what the
//! labelling *scheme* can answer through them, and a differential
//! property suite pins them equal to the index's topology axes.

use crate::preorder::PreorderIndex;
use std::cmp::Ordering;
use xupd_labelcore::{LabelingScheme, Relation};
use xupd_xmldom::{TreeError, XmlTree};

/// A labelled, self-contained encoding of one document: its preorder
/// index plus a label column under scheme `S`, row `i`'s label at
/// position `i`.
#[derive(Debug, Clone)]
pub struct EncodedDocument<S: LabelingScheme> {
    scheme: S,
    index: PreorderIndex,
    labels: Vec<S::Label>,
}

impl<S: LabelingScheme> EncodedDocument<S> {
    /// Label `tree` with `scheme`, index it, and attach each node's
    /// label to its row by source node id.
    ///
    /// Errors propagate scheme-level protocol failures ([`TreeError`]);
    /// encoding a well-formed tree with any in-repo scheme succeeds.
    pub fn encode(mut scheme: S, tree: &XmlTree) -> Result<Self, TreeError> {
        let labeling = scheme.label_tree(tree)?;
        let index = PreorderIndex::encode(tree)?;
        let labels = (0..index.len())
            .map(|i| labeling.req(index.source_id(i)).cloned())
            .collect::<Result<Vec<_>, TreeError>>()?;
        Ok(EncodedDocument {
            scheme,
            index,
            labels,
        })
    }

    /// The scheme-independent half: kinds, parents, topology, names.
    pub fn index(&self) -> &PreorderIndex {
        &self.index
    }

    /// Document-order comparison of two rows by their labels.
    pub fn cmp_doc(&self, a: usize, b: usize) -> Ordering {
        self.scheme.cmp_doc(&self.labels[a], &self.labels[b])
    }

    /// Ancestry answered the pre-topology way: the scheme's label
    /// algebra when the scheme supports it, otherwise the index's
    /// parent-reference chain — the supplementary information §2.4 says
    /// the encoding must carry when the labelling scheme does not.
    ///
    /// Kept as the explicit reference path: the framework checkers
    /// measure *scheme* capability (Figure 7's XPath column) and the
    /// differential property suite pins this equal to
    /// [`PreorderIndex::is_ancestor`] for every scheme.
    pub fn is_ancestor_via_labels(&self, a: usize, b: usize) -> bool {
        if let Some(ans) = self.scheme.relation(
            Relation::AncestorDescendant,
            &self.labels[a],
            &self.labels[b],
        ) {
            return ans;
        }
        let mut cur = self.index.parent(b);
        while let Some(p) = cur {
            if p == a {
                return true;
            }
            cur = self.index.parent(p);
        }
        false
    }

    /// Descendants computed by the reference label-algebra scan.
    pub fn descendants_via_labels(&self, i: usize) -> Vec<usize> {
        (0..self.labels.len())
            .filter(|&j| j != i && self.is_ancestor_via_labels(i, j))
            .collect()
    }

    /// `following` computed by the reference label-algebra scan.
    pub fn following_via_labels(&self, i: usize) -> Vec<usize> {
        (i + 1..self.labels.len())
            .filter(|&j| !self.is_ancestor_via_labels(i, j))
            .collect()
    }

    /// `preceding` computed by the reference label-algebra scan.
    pub fn preceding_via_labels(&self, i: usize) -> Vec<usize> {
        (0..i)
            .filter(|&j| !self.is_ancestor_via_labels(j, i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_schemes::containment::sector::Sector;
    use xupd_schemes::prefix::dewey::DeweyId;
    use xupd_xmldom::sample::figure1_document;

    #[test]
    fn rows_are_in_document_order() {
        let tree = figure1_document();
        let enc = EncodedDocument::encode(DeweyId::new(), &tree).unwrap();
        assert_eq!(enc.index().len(), tree.len());
        for i in 1..enc.index().len() {
            assert_eq!(enc.cmp_doc(i - 1, i), Ordering::Less);
        }
    }

    #[test]
    fn topology_axes_agree_with_label_path_for_sector() {
        // Sector answers ancestry from labels; the topology must give
        // byte-identical axes to the label-algebra reference path.
        let tree = figure1_document();
        let enc = EncodedDocument::encode(Sector::new(), &tree).unwrap();
        let index = enc.index();
        for i in 0..index.len() {
            assert_eq!(index.descendants(i), enc.descendants_via_labels(i));
            assert_eq!(index.following(i), enc.following_via_labels(i));
            assert_eq!(index.preceding(i), enc.preceding_via_labels(i));
            for j in 0..index.len() {
                assert_eq!(index.is_ancestor(i, j), enc.is_ancestor_via_labels(i, j));
            }
        }
    }
}
