//! Tree traversals (§3.1.1 of the paper).
//!
//! Preorder visits a node before its children; parsing an XML document in
//! document order *is* a preorder traversal, so preorder rank is the
//! canonical document order. Postorder visits a node after its children.
//! Containment labelling schemes are built directly on these two ranks:
//! `u` is an ancestor of `v` iff `pre(u) < pre(v)` and `post(v) < post(u)`
//! (Dietz's observation, \[6\] in the paper).

use crate::node::NodeId;
use crate::tree::XmlTree;

/// Preorder (document-order) iterator over a subtree.
pub struct Preorder<'a> {
    tree: &'a XmlTree,
    start: NodeId,
    next: Option<NodeId>,
}

impl<'a> Preorder<'a> {
    /// Traverse the subtree rooted at `start` (inclusive).
    pub fn from(tree: &'a XmlTree, start: NodeId) -> Self {
        Preorder {
            tree,
            start,
            next: Some(start),
        }
    }
}

impl Iterator for Preorder<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        // descend, else advance to next sibling, else climb until a sibling
        // exists — stopping at the subtree root.
        self.next = if let Some(c) = self.tree.first_child(cur) {
            Some(c)
        } else {
            let mut up = cur;
            loop {
                if up == self.start {
                    break None;
                }
                if let Some(s) = self.tree.next_sibling(up) {
                    break Some(s);
                }
                match self.tree.parent(up) {
                    Some(p) => up = p,
                    None => break None,
                }
            }
        };
        Some(cur)
    }
}

/// Postorder iterator over a subtree.
pub struct Postorder<'a> {
    tree: &'a XmlTree,
    start: NodeId,
    next: Option<NodeId>,
}

impl<'a> Postorder<'a> {
    /// Traverse the subtree rooted at `start` (inclusive).
    pub fn from(tree: &'a XmlTree, start: NodeId) -> Self {
        // The first postorder node is the leftmost leaf.
        let mut first = start;
        while let Some(c) = tree.first_child(first) {
            first = c;
        }
        Postorder {
            tree,
            start,
            next: Some(first),
        }
    }
}

impl Iterator for Postorder<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.next?;
        self.next = if cur == self.start {
            None
        } else if let Some(s) = self.tree.next_sibling(cur) {
            // descend to the leftmost leaf of the next sibling
            let mut d = s;
            while let Some(c) = self.tree.first_child(d) {
                d = c;
            }
            Some(d)
        } else {
            self.tree.parent(cur)
        };
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;

    /// Build the 10-node tree of the paper's Figure 1(b).
    fn fig1() -> (XmlTree, Vec<NodeId>) {
        let mut t = XmlTree::new();
        let book = t.create(NodeKind::element("book"));
        t.append_child(t.root(), book).unwrap();
        let title = t.create(NodeKind::element("title"));
        t.append_child(book, title).unwrap();
        let genre = t.create(NodeKind::attribute("genre", "Fantasy"));
        t.append_child(title, genre).unwrap();
        let author = t.create(NodeKind::element("author"));
        t.append_child(book, author).unwrap();
        let publisher = t.create(NodeKind::element("publisher"));
        t.append_child(book, publisher).unwrap();
        let editor = t.create(NodeKind::element("editor"));
        t.append_child(publisher, editor).unwrap();
        let name = t.create(NodeKind::element("name"));
        t.append_child(editor, name).unwrap();
        let address = t.create(NodeKind::element("address"));
        t.append_child(editor, address).unwrap();
        let edition = t.create(NodeKind::element("edition"));
        t.append_child(publisher, edition).unwrap();
        let year = t.create(NodeKind::attribute("year", "2004"));
        t.append_child(edition, year).unwrap();
        (
            t,
            vec![
                book, title, genre, author, publisher, editor, name, address, edition, year,
            ],
        )
    }

    #[test]
    fn figure1_pre_post_ranks() {
        // The paper's Figure 1(b) labels (pre, post), computed over the ten
        // document nodes (the document root excluded, as in the figure).
        let (t, nodes) = fig1();
        let expected_pre_post: &[(u64, u64)] = &[
            (0, 9), // book
            (1, 1), // title
            (2, 0), // genre
            (3, 2), // author
            (4, 8), // publisher
            (5, 5), // editor
            (6, 3), // name
            (7, 4), // address
            (8, 7), // edition
            (9, 6), // year
        ];
        let book = nodes[0];
        let pre: Vec<NodeId> = Preorder::from(&t, book).collect();
        let post: Vec<NodeId> = Postorder::from(&t, book).collect();
        for (i, &(ep, epost)) in expected_pre_post.iter().enumerate() {
            let node = nodes[i];
            let p = pre.iter().position(|&n| n == node).unwrap() as u64;
            let q = post.iter().position(|&n| n == node).unwrap() as u64;
            assert_eq!((p, q), (ep, epost), "node index {i}");
        }
    }

    #[test]
    fn preorder_matches_doc_cmp() {
        let (t, _) = fig1();
        let order = t.ids_in_doc_order();
        for w in order.windows(2) {
            assert_eq!(t.doc_cmp(w[0], w[1]), std::cmp::Ordering::Less);
        }
    }

    #[test]
    fn postorder_visits_parents_after_children() {
        let (t, _) = fig1();
        let post: Vec<NodeId> = t.postorder().collect();
        for (i, &n) in post.iter().enumerate() {
            if let Some(p) = t.parent(n) {
                let pi = post.iter().position(|&x| x == p).unwrap();
                assert!(pi > i, "parent must come after child in postorder");
            }
        }
    }

    #[test]
    fn dietz_containment_property() {
        // u ancestor of v ⟺ pre(u) < pre(v) ∧ post(v) < post(u)
        let (t, _) = fig1();
        let pre: std::collections::HashMap<_, _> =
            t.preorder().enumerate().map(|(i, n)| (n, i)).collect();
        let post: std::collections::HashMap<_, _> =
            t.postorder().enumerate().map(|(i, n)| (n, i)).collect();
        let all = t.ids_in_doc_order();
        for &u in &all {
            for &v in &all {
                if u == v {
                    continue;
                }
                let by_rank = pre[&u] < pre[&v] && post[&v] < post[&u];
                assert_eq!(by_rank, t.is_ancestor(u, v), "{u:?} vs {v:?}");
            }
        }
    }

    #[test]
    fn subtree_preorder_stays_in_subtree() {
        let (t, nodes) = fig1();
        let publisher = nodes[4];
        let sub: Vec<NodeId> = t.preorder_from(publisher).collect();
        assert_eq!(sub.len(), 6); // publisher, editor, name, address, edition, year
        for &n in &sub[1..] {
            assert!(t.is_ancestor(publisher, n));
        }
    }
}
