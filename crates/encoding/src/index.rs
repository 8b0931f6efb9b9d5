//! A name index over the encoding table — the classic accompaniment to a
//! labelling scheme in an XML repository (§2.3: the encoding scheme
//! stores whatever "extra information" the workload justifies, trading
//! update cost for query speed).
//!
//! The index maps element/attribute names to their rows in document
//! order, so a `//name` query becomes one hash lookup plus an ancestry
//! filter over the scheme's label algebra — instead of a full table
//! scan. It must be rebuilt (or maintained) across updates, which is
//! precisely the "slower update performance" §2.3 warns the designer
//! about; the benchmarks quantify the other side of the trade.

use crate::table::EncodedDocument;
use std::collections::BTreeMap;
use xupd_labelcore::LabelingScheme;
use xupd_xmldom::NodeKind;

/// Element and attribute name index: name → row indices in document
/// order.
/// `BTreeMap` rather than `HashMap` so that iteration over the index is
/// deterministic (lint rule R2) — anything feeding golden outputs must
/// not depend on hash order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameIndex {
    elements: BTreeMap<String, Vec<usize>>,
    attributes: BTreeMap<String, Vec<usize>>,
    /// Every element row, whatever its name, in document order.
    all_elements: Vec<u32>,
}

impl NameIndex {
    /// Build the index over an encoded document in one pass.
    pub fn build<S: LabelingScheme>(doc: &EncodedDocument<S>) -> Self {
        Self::from_kinds((0..doc.len()).map(|i| &doc.row(i).kind))
    }

    /// Build the index from per-row node kinds in document order — the
    /// form [`EncodedDocument::encode`] uses so the table can carry its
    /// own index.
    pub fn from_kinds<'a>(kinds: impl Iterator<Item = &'a NodeKind>) -> Self {
        let mut idx = NameIndex::default();
        idx.rebuild(kinds);
        idx
    }

    /// Re-index per-row node kinds in document order in place: every
    /// bucket and the element list keep their buffers, a name is
    /// allocated only the first time it is seen, and names that no
    /// longer occur are dropped.
    pub(crate) fn rebuild<'a>(&mut self, kinds: impl Iterator<Item = &'a NodeKind>) {
        for rows in self
            .elements
            .values_mut()
            .chain(self.attributes.values_mut())
        {
            rows.clear();
        }
        self.all_elements.clear();
        for (i, kind) in kinds.enumerate() {
            let (map, name) = match kind {
                NodeKind::Element { name } => {
                    // Rows fit in 32 bits, as the node ids they encode do.
                    self.all_elements.push(i as u32);
                    (&mut self.elements, name)
                }
                NodeKind::Attribute { name, .. } => (&mut self.attributes, name),
                _ => continue,
            };
            match map.get_mut(name.as_str()) {
                Some(rows) => rows.push(i),
                None => {
                    map.insert(name.clone(), vec![i]);
                }
            }
        }
        self.elements.retain(|_, rows| !rows.is_empty());
        self.attributes.retain(|_, rows| !rows.is_empty());
    }

    /// All element rows with this name, in document order.
    pub fn elements(&self, name: &str) -> &[usize] {
        self.elements.get(name).map_or(&[], Vec::as_slice)
    }

    /// Every element row in document order: entry `k` is the row of
    /// the document's `k`-th element. Kept current by
    /// [`EncodedDocument::splice`] like the name buckets, so a caller
    /// that ranks elements by document order reads the ranking here
    /// instead of scanning the tree.
    pub fn all_elements(&self) -> &[u32] {
        &self.all_elements
    }

    /// All attribute rows with this name, in document order.
    pub fn attributes(&self, name: &str) -> &[usize] {
        self.attributes.get(name).map_or(&[], Vec::as_slice)
    }

    /// `//name` under a context row: the indexed rows intersected with
    /// the context's pre-order extent range via two binary searches —
    /// a point lookup plus O(log bucket + answer), no table scan.
    pub fn descendants_named<S: LabelingScheme>(
        &self,
        doc: &EncodedDocument<S>,
        context: usize,
        name: &str,
    ) -> Vec<usize> {
        let bucket = self.elements(name);
        let range = doc.descendant_range(context);
        let lo = bucket.partition_point(|&i| i < range.start);
        let hi = bucket.partition_point(|&i| i < range.end);
        bucket[lo..hi].to_vec()
    }

    /// Every indexed element name with its occurrence count, in the
    /// index's iteration order — lexicographic, because the backing map
    /// is a `BTreeMap` (pinned by a golden test; lint rule R2).
    pub fn element_names(&self) -> impl Iterator<Item = (&str, usize)> {
        self.elements.iter().map(|(k, v)| (k.as_str(), v.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_xpath;
    use crate::table::EncodedDocument;
    use xupd_schemes::prefix::qed::Qed;
    use xupd_workloads::docs;

    #[test]
    fn index_matches_scan() {
        let tree = docs::xmark_like(11, 60);
        let doc = EncodedDocument::encode(Qed::new(), &tree).unwrap();
        let idx = NameIndex::build(&doc);
        // indexed //item == evaluator //item
        let via_index = idx.descendants_named(&doc, doc.root(), "item");
        let via_xpath = parse_xpath("//item").unwrap().evaluate(&doc);
        assert_eq!(via_index, via_xpath);
        assert!(!via_index.is_empty());
        // the element list is the tree's elements in document order
        let elements: Vec<_> = tree
            .preorder()
            .filter(|&n| tree.kind(n).is_element())
            .collect();
        let via_rows: Vec<_> = idx
            .all_elements()
            .iter()
            .map(|&r| doc.source_id(r as usize))
            .collect();
        assert_eq!(via_rows, elements);
    }

    #[test]
    fn scoped_lookup_filters_by_ancestry() {
        let tree = docs::xmark_like(11, 60);
        let doc = EncodedDocument::encode(Qed::new(), &tree).unwrap();
        let idx = NameIndex::build(&doc);
        // names exist under both /site/regions items and /site/people
        let all_names = idx.elements("name").len();
        let people = parse_xpath("/site/people").unwrap().evaluate(&doc)[0];
        let people_names = idx.descendants_named(&doc, people, "name");
        assert!(!people_names.is_empty());
        assert!(people_names.len() < all_names, "scoping filtered some");
        // agreement with the evaluator on the scoped query
        let via_xpath = parse_xpath("/site/people//name").unwrap().evaluate(&doc);
        assert_eq!(people_names, via_xpath);
    }

    #[test]
    fn iteration_order_golden() {
        // The index iterates in BTreeMap (lexicographic) order — never
        // hash order. Pin the exact sequence for the Figure 1 document so
        // any regression to an order-unspecified map fails loudly.
        let tree = docs::book();
        let doc = EncodedDocument::encode(Qed::new(), &tree).unwrap();
        let idx = NameIndex::build(&doc);
        let names: Vec<(&str, usize)> = idx.element_names().collect();
        assert_eq!(
            names,
            vec![
                ("address", 1),
                ("author", 1),
                ("book", 1),
                ("edition", 1),
                ("editor", 1),
                ("name", 1),
                ("publisher", 1),
                ("title", 1),
            ]
        );
    }

    #[test]
    fn rebuild_in_place_matches_a_fresh_index() {
        let big = EncodedDocument::encode(Qed::new(), &docs::xmark_like(11, 60)).unwrap();
        let small = EncodedDocument::encode(Qed::new(), &docs::book()).unwrap();
        let mut idx = NameIndex::build(&big);
        assert!(idx.elements("item").len() > 1);
        idx.rebuild(small.rows().iter().map(|r| &r.kind));
        assert_eq!(idx, NameIndex::build(&small));
        assert!(
            idx.elements("item").is_empty(),
            "a name that left is dropped"
        );
        idx.rebuild(big.rows().iter().map(|r| &r.kind));
        assert_eq!(idx, NameIndex::build(&big));
    }

    #[test]
    fn attribute_lookup() {
        let tree = docs::book();
        let doc = EncodedDocument::encode(Qed::new(), &tree).unwrap();
        let idx = NameIndex::build(&doc);
        assert_eq!(idx.attributes("genre").len(), 1);
        assert_eq!(idx.attributes("year").len(), 1);
        assert!(idx.attributes("missing").is_empty());
        assert!(idx.elements("missing").is_empty());
        assert_eq!(idx.element_names().count(), 8);
    }
}
