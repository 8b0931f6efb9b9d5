//! Object-safe encoded documents and the scheme→document registry.
//!
//! [`EncodedDocument`] is generic over its scheme's label type, so a
//! battery that encodes one document per roster scheme can't hold the
//! results in one collection. [`DynDocument`] erases the label type.
//! Only the label column depends on the scheme, so the trait has just
//! the methods that read labels, plus [`DynDocument::index`] for
//! everything structural (axes, XPath, reconstruction), which the
//! [`PreorderIndex`] answers for every scheme alike.
//! [`document_registry`] / [`document_registry_figure7`] expose one
//! `fn(&XmlTree) -> Result<Box<dyn DynDocument>, TreeError>` encoder per
//! roster scheme — what the query benches, the CLI and the topology
//! differential suite fan out over.
//!
//! This module lives in `xupd-encoding` (not `xupd-schemes`) because
//! the encoding crate already depends on the schemes crate; the
//! document registry is generated from the same
//! `xupd_schemes::with_scheme_roster!` roster macro the scheme registry
//! uses, so the two can never drift.

use crate::preorder::PreorderIndex;
use crate::table::EncodedDocument;
use std::cmp::Ordering;
use xupd_labelcore::{LabelingScheme, SchemeDescriptor};
use xupd_schemes::with_scheme_roster;
use xupd_xmldom::{TreeError, XmlTree};

/// Object-safe view of an encoded document. Node handles are row
/// indices in document order, the same for every scheme, so answers
/// can be compared across schemes.
///
/// The `*_via_labels` methods are the label-algebra reference paths;
/// the index's own axes go through the `Topology` sidecar.
/// Differential suites diff the two.
pub trait DynDocument: Send {
    /// The preorder index: kinds, parents, topology and names.
    fn index(&self) -> &PreorderIndex;
    /// Document-order comparison from the two rows' labels.
    fn cmp_doc(&self, a: usize, b: usize) -> Ordering;
    /// Ancestor test via the scheme's label algebra (parent-chain
    /// fallback when unsupported).
    fn is_ancestor_via_labels(&self, a: usize, b: usize) -> bool;
    /// Descendant rows via the label algebra (reference path).
    fn descendants_via_labels(&self, i: usize) -> Vec<usize>;
    /// Following rows via the label algebra (reference path).
    fn following_via_labels(&self, i: usize) -> Vec<usize>;
    /// Preceding rows via the label algebra (reference path).
    fn preceding_via_labels(&self, i: usize) -> Vec<usize>;
}

impl<S: LabelingScheme + Send> DynDocument for EncodedDocument<S>
where
    S::Label: Send,
{
    fn index(&self) -> &PreorderIndex {
        EncodedDocument::index(self)
    }
    fn cmp_doc(&self, a: usize, b: usize) -> Ordering {
        EncodedDocument::cmp_doc(self, a, b)
    }
    fn is_ancestor_via_labels(&self, a: usize, b: usize) -> bool {
        EncodedDocument::is_ancestor_via_labels(self, a, b)
    }
    fn descendants_via_labels(&self, i: usize) -> Vec<usize> {
        EncodedDocument::descendants_via_labels(self, i)
    }
    fn following_via_labels(&self, i: usize) -> Vec<usize> {
        EncodedDocument::following_via_labels(self, i)
    }
    fn preceding_via_labels(&self, i: usize) -> Vec<usize> {
        EncodedDocument::preceding_via_labels(self, i)
    }
}

/// One roster row of the document registry: the scheme's descriptor
/// plus an encoder producing an erased document over any tree.
#[derive(Clone)]
pub struct DocSchemeEntry {
    /// The scheme's declared Figure 7 row and metadata.
    pub descriptor: SchemeDescriptor,
    /// Encode `tree` under a fresh instance of the scheme.
    pub encode: fn(&XmlTree) -> Result<Box<dyn DynDocument>, TreeError>,
}

impl DocSchemeEntry {
    /// The scheme's Figure 7 name.
    pub fn name(&self) -> &'static str {
        self.descriptor.name
    }
}

impl std::fmt::Debug for DocSchemeEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DocSchemeEntry")
            .field("descriptor", &self.descriptor)
            .finish_non_exhaustive()
    }
}

macro_rules! doc_entries_vec {
    ($($ty:ty),+ $(,)?) => {
        vec![
            $(
                DocSchemeEntry {
                    descriptor: <$ty>::new().descriptor(),
                    encode: |tree| {
                        EncodedDocument::encode(<$ty>::new(), tree)
                            .map(|doc| Box::new(doc) as Box<dyn DynDocument>)
                    },
                },
            )+
        ]
    };
}

/// Per-scheme document encoders for the twelve Figure 7 schemes, in the
/// paper's row order.
pub fn document_registry_figure7() -> Vec<DocSchemeEntry> {
    with_scheme_roster!(figure7, doc_entries_vec)
}

/// Per-scheme document encoders for the full roster (Figure 7 + §6
/// extensions).
pub fn document_registry() -> Vec<DocSchemeEntry> {
    with_scheme_roster!(all, doc_entries_vec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_workloads::docs;

    #[test]
    fn registries_cover_the_rosters_in_order() {
        let f7: Vec<&str> = document_registry_figure7()
            .iter()
            .map(|e| e.name())
            .collect();
        assert_eq!(f7, xupd_schemes::FIGURE7_ORDER);
        assert_eq!(document_registry().len(), 17);
    }

    #[test]
    fn erased_document_answers_match_names() {
        let tree = docs::book();
        for entry in document_registry_figure7() {
            let doc = (entry.encode)(&tree).unwrap();
            assert_eq!(doc.index().len(), tree.len());
            assert_eq!(doc.index().root(), 0);
            let rebuilt = crate::reconstruct::reconstruct(doc.index()).unwrap();
            assert_eq!(rebuilt.len(), tree.len());
        }
    }
}
