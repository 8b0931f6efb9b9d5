//! A name index over the preorder index — the classic accompaniment to
//! a labelling scheme in an XML repository (§2.3: the encoding scheme
//! stores whatever "extra information" the workload justifies, trading
//! update cost for query speed).
//!
//! The index maps element/attribute names to their rows in document
//! order, so a `//name` query under a context row becomes one
//! `BTreeMap` lookup plus two binary searches that cut the bucket down
//! to the context's pre-order extent range — instead of a full table
//! scan. The walk that builds the [`PreorderIndex`] fills the buckets
//! as it writes the rows, in document order, on every encode and every
//! structural splice: the index clears them (keeping their buffers),
//! pushes each element and attribute row as it reaches it, and drops
//! the names left with no row. That refill is precisely the "slower
//! update performance" §2.3 warns the designer about; the benchmarks
//! quantify the other side of the trade.

use crate::preorder::PreorderIndex;
use std::collections::BTreeMap;
use xupd_xmldom::NodeKind;

/// Element and attribute name index: name → row indices in document
/// order, as `u32` like every column of the [`PreorderIndex`].
/// `BTreeMap` rather than `HashMap` so that iteration over the index is
/// deterministic (lint rule R2) — anything feeding golden outputs must
/// not depend on hash order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameIndex {
    elements: BTreeMap<String, Vec<u32>>,
    attributes: BTreeMap<String, Vec<u32>>,
    /// Every element row, whatever its name, in document order.
    all_elements: Vec<u32>,
}

impl NameIndex {
    /// Empty every bucket and the element list, keeping their buffers:
    /// the first of the three steps the walk that builds a
    /// [`PreorderIndex`] takes here.
    pub(crate) fn clear(&mut self) {
        for rows in self
            .elements
            .values_mut()
            .chain(self.attributes.values_mut())
        {
            rows.clear();
        }
        self.all_elements.clear();
    }

    /// Index row `row`, a node of kind `kind`, after every row before it;
    /// a name is allocated only the first time it is seen.
    pub(crate) fn push(&mut self, row: u32, kind: &NodeKind) {
        let (map, name) = match kind {
            NodeKind::Element { name } => {
                self.all_elements.push(row);
                (&mut self.elements, name)
            }
            NodeKind::Attribute { name, .. } => (&mut self.attributes, name),
            _ => return,
        };
        match map.get_mut(name.as_str()) {
            Some(rows) => rows.push(row),
            None => {
                map.insert(name.clone(), vec![row]);
            }
        }
    }

    /// Drop the buckets the walk left empty: the names that no longer
    /// occur.
    pub(crate) fn drop_empty(&mut self) {
        self.elements.retain(|_, rows| !rows.is_empty());
        self.attributes.retain(|_, rows| !rows.is_empty());
    }

    /// All element rows with this name, in document order.
    pub fn elements(&self, name: &str) -> &[u32] {
        self.elements.get(name).map_or(&[], Vec::as_slice)
    }

    /// Every element row in document order: entry `k` is the row of
    /// the document's `k`-th element. Kept current by
    /// [`PreorderIndex::splice`] like the name buckets, so a caller
    /// that ranks elements by document order reads the ranking here
    /// instead of scanning the tree.
    pub fn all_elements(&self) -> &[u32] {
        &self.all_elements
    }

    /// All attribute rows with this name, in document order.
    pub fn attributes(&self, name: &str) -> &[u32] {
        self.attributes.get(name).map_or(&[], Vec::as_slice)
    }

    /// `//name` under a context row: the indexed rows intersected with
    /// the context's pre-order extent range via two binary searches —
    /// a point lookup plus O(log bucket + answer), no table scan.
    pub fn descendants_named(&self, doc: &PreorderIndex, context: usize, name: &str) -> Vec<usize> {
        let bucket = self.elements(name);
        let range = doc.descendant_range(context);
        let lo = bucket.partition_point(|&i| (i as usize) < range.start);
        let hi = bucket.partition_point(|&i| (i as usize) < range.end);
        bucket[lo..hi].iter().map(|&i| i as usize).collect()
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
    use xupd_workloads::docs;

    #[test]
    fn index_matches_scan() {
        let tree = docs::xmark_like(11, 60);
        let doc = PreorderIndex::encode(&tree).unwrap();
        let idx = doc.name_index();
        // indexed //item == evaluator //item
        let via_index = idx.descendants_named(&doc, doc.root(), "item");
        let via_xpath = parse_xpath("//item").unwrap().evaluate(&tree, &doc);
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
        let doc = PreorderIndex::encode(&tree).unwrap();
        let idx = doc.name_index();
        // names exist under both /site/regions items and /site/people
        let all_names = idx.elements("name").len();
        let people = parse_xpath("/site/people").unwrap().evaluate(&tree, &doc)[0];
        let people_names = idx.descendants_named(&doc, people, "name");
        assert!(!people_names.is_empty());
        assert!(people_names.len() < all_names, "scoping filtered some");
        // agreement with the evaluator on the scoped query
        let via_xpath = parse_xpath("/site/people//name")
            .unwrap()
            .evaluate(&tree, &doc);
        assert_eq!(people_names, via_xpath);
    }

    #[test]
    fn iteration_order_golden() {
        // The index iterates in BTreeMap (lexicographic) order — never
        // hash order. Pin the exact sequence for the Figure 1 document so
        // any regression to an order-unspecified map fails loudly.
        let tree = docs::book();
        let doc = PreorderIndex::encode(&tree).unwrap();
        let idx = doc.name_index();
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
    fn a_splice_refills_the_buckets_in_place() {
        let mut tree = docs::xmark_like(11, 60);
        let index = PreorderIndex::encode(&tree).unwrap();
        let items = index.name_index().elements("item").to_vec();
        assert!(items.len() > 1);
        // Delete every item, front to back; each cut row is the item's
        // row before the batch.
        for &row in &items {
            tree.remove_subtree(index.source_id(row as usize)).unwrap();
        }
        let cut: Vec<usize> = items.iter().map(|&r| r as usize).collect();
        let spliced = index.splice(&tree, &cut).unwrap();
        let fresh = PreorderIndex::encode(&tree).unwrap();
        assert!(
            spliced.name_index().elements("item").is_empty(),
            "a name that left is dropped"
        );
        assert_eq!(spliced.name_index(), fresh.name_index());
    }

    #[test]
    fn buckets_hold_four_byte_rows() {
        let tree = docs::xmark_like(11, 60);
        let doc = PreorderIndex::encode(&tree).unwrap();
        let idx = doc.name_index();
        for bucket in idx.elements.values().chain(idx.attributes.values()) {
            assert_eq!(std::mem::size_of_val(bucket.as_slice()), 4 * bucket.len());
        }
        assert_eq!(
            std::mem::size_of_val(idx.all_elements()),
            4 * idx.all_elements().len()
        );
        assert!(!idx.attributes.is_empty());
    }

    #[test]
    fn attribute_lookup() {
        let tree = docs::book();
        let doc = PreorderIndex::encode(&tree).unwrap();
        let idx = doc.name_index();
        assert_eq!(idx.attributes("genre").len(), 1);
        assert_eq!(idx.attributes("year").len(), 1);
        assert!(idx.attributes("missing").is_empty());
        assert!(idx.elements("missing").is_empty());
        assert_eq!(idx.element_names().count(), 8);
    }
}
