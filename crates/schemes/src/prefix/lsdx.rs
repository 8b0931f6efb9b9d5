//! LSDX (Duong & Zhang, ADC 2005 — \[7\] in the paper).
//!
//! Labels combine the node's level with letter-string positional
//! identifiers (Figure 5: `0a`, `1a.b`, `2ab.b`, …). During construction
//! the first child uses `b` (reserving `a` for insertions before it);
//! after `z` comes `zb`; prepending prefixes an `a`; appending increments
//! the last letter; between-insertion extends the left neighbour.
//!
//! §3.1.2 records that LSDX "do\[es\] not always produce unique node labels
//! for several corner-case update scenarios and therefore \[is\] unsuitable
//! for use as \[a\] dynamic labelling scheme" (collisions catalogued by Sans
//! & Laurent, PVLDB 2008 — \[19\]). This implementation is deliberately
//! faithful to the published rules, so those collisions are *reproducible*
//! — see `collision_corner_case` below and the framework's uniqueness
//! checker.
//!
//! LSDX labels are also not persistent across deletions: the paper notes
//! "labels are not persistent and may be reassigned upon deletion", which
//! falls out naturally here because the generation rules regenerate the
//! same strings.

use super::path::{CodeOutcome, PrefixScheme, SiblingAlgebra};
use xupd_labelcore::{EncodingRep, OrderKind, SchemeDescriptor, SchemeStats};

/// Increment a positional identifier for append/bulk: bump the final
/// letter, or append `b` after a `z`.
pub(crate) fn increment(s: &str) -> String {
    let mut out = s.to_string();
    match out.pop() {
        Some('z') => {
            out.push('z');
            out.push('b');
        }
        Some(c) => out.push((c as u8 + 1) as char),
        None => out.push('b'),
    }
    out
}

/// The published LSDX generation rules shared by LSDX and Com-D.
pub(crate) fn lsdx_bulk(n: usize) -> Vec<String> {
    let mut out = Vec::with_capacity(n);
    let mut cur = String::new();
    for _ in 0..n {
        cur = increment(&cur);
        out.push(cur.clone());
    }
    out
}

/// The published LSDX insertion rules. Returns a positional identifier
/// that the naive rules produce — which in corner cases **collides** with
/// an existing neighbour, exactly the flaw the paper reports.
pub(crate) fn lsdx_insert(left: Option<&String>, right: Option<&String>) -> String {
    match (left, right) {
        (None, None) => "b".to_string(),
        // append after last: lexicographically increment the last letter
        (Some(l), None) => increment(l),
        // before first: prefix an `a`
        (None, Some(r)) => format!("a{r}"),
        // between: grow from the left neighbour so the result sorts after
        // it; the naive fallback can collide with `right`.
        (Some(l), Some(r)) => {
            let bumped = increment(l);
            if &bumped < r {
                return bumped;
            }
            // "greater than its left neighbour and less than its right
            // neighbour" — extend left with `b`. When right IS l+"b" the
            // rule set offers nothing strictly between: the collision.
            format!("{l}b")
        }
    }
}

/// The LSDX sibling algebra (letter-string codes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LsdxAlgebra {
    /// Longest positional identifier the stored length field can
    /// describe; beyond it the sibling list is renumbered (§4 overflow,
    /// which hits variable-length schemes through their length fields).
    pub max_chars: usize,
}

impl Default for LsdxAlgebra {
    fn default() -> Self {
        LsdxAlgebra { max_chars: 255 }
    }
}

impl SiblingAlgebra for LsdxAlgebra {
    type Code = String;

    fn name(&self) -> &'static str {
        "LSDX"
    }

    // Labels for footprint-disjoint edits depend only on surrounding
    // structure, never on edit order; claim pinned empirically by
    // crates/framework/tests/analysis_differential.rs.
    fn order_independent(&self) -> bool {
        true
    }

    // Insertions never rewrite neighbour labels, so a cancelled
    // create+delete leaves zero residue; pinned empirically by
    // crates/framework/tests/analysis_differential.rs.
    fn cancellation_neutral(&self) -> bool {
        true
    }

    fn descriptor(&self) -> SchemeDescriptor {
        SchemeDescriptor {
            name: "LSDX",
            citation: "[7]",
            order: OrderKind::Hybrid,
            encoding: EncodingRep::Variable,
            // Figure 7 row: Hybrid Variable N F F N N N F F
            declared: SchemeDescriptor::declared_from_letters("NFFNNNFF"),
            in_figure7: true,
        }
    }

    fn bulk(&mut self, n: usize, _stats: &mut SchemeStats) -> Vec<String> {
        lsdx_bulk(n)
    }

    fn insert(
        &mut self,
        left: Option<&String>,
        right: Option<&String>,
        _stats: &mut SchemeStats,
    ) -> CodeOutcome<String> {
        let code = lsdx_insert(left, right);
        if code.len() > self.max_chars {
            CodeOutcome::RenumberAll
        } else {
            CodeOutcome::Fresh(code)
        }
    }

    fn code_bits(code: &String) -> u64 {
        8 * code.len() as u64
    }

    fn code_display(code: &String) -> String {
        code.clone()
    }

    fn path_display(path: &[String]) -> String {
        lsdx_path_display(path)
    }
}

/// Paper-style rendering: `{level}{ancestor ids}.{own id}` (Figure 5's
/// `2ab.b`). The document root (empty path) renders as the paper's `0a`.
pub(crate) fn lsdx_path_display(path: &[String]) -> String {
    match path.len() {
        0 => "0a".to_string(),
        n => {
            let level = n;
            let prefix: String = std::iter::once("a".to_string())
                .chain(path[..n - 1].iter().cloned())
                .collect();
            format!("{level}{prefix}.{}", path[n - 1])
        }
    }
}

/// The LSDX labelling scheme.
pub type Lsdx = PrefixScheme<LsdxAlgebra>;

impl Lsdx {
    /// A fresh LSDX scheme.
    pub fn new() -> Self {
        PrefixScheme::from_algebra(LsdxAlgebra::default())
    }
}

impl Default for Lsdx {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xupd_labelcore::{Label, LabelingScheme};
    use xupd_xmldom::sample::figure3_shape;
    use xupd_xmldom::{NodeKind, XmlTree};

    #[test]
    fn bulk_letters_follow_the_paper() {
        assert_eq!(lsdx_bulk(4), ["b", "c", "d", "e"]);
        // after z comes zb
        let codes = lsdx_bulk(30);
        assert_eq!(codes[24], "z");
        assert_eq!(codes[25], "zb");
        assert_eq!(codes[26], "zc");
        for w in codes.windows(2) {
            assert!(w[0] < w[1], "{} < {}", w[0], w[1]);
        }
    }

    #[test]
    fn figure5_insertion_rules() {
        // before first child b → ab  (figure's 2ab.ab from 2ab.b)
        assert_eq!(lsdx_insert(None, Some(&"b".into())), "ab");
        // after last child b → c    (figure's 2ac.c from 2ac.b)
        assert_eq!(lsdx_insert(Some(&"b".into()), None), "c");
        // between b and c → bb      (figure's 2ad.bb between .b and .c)
        assert_eq!(lsdx_insert(Some(&"b".into()), Some(&"c".into())), "bb");
    }

    #[test]
    fn figure5_tree_labels() {
        // Figure 5's initial tree: root 0a, children 1a.b / 1a.c / 1a.d.
        let (tree, nodes) = figure3_shape();
        let mut scheme = Lsdx::new();
        let labeling = scheme.label_tree(&tree).unwrap();
        // the element root is the document root's only child: id "b"
        let root_elem = nodes[0];
        let kids: Vec<String> = tree
            .children(root_elem)
            .map(|c| labeling.req(c).unwrap().path.own_code().unwrap().clone())
            .collect();
        assert_eq!(kids, ["b", "c", "d"]);
    }

    #[test]
    fn collision_corner_case_reproduced() {
        // b, c siblings. Insert between → bb. Insert between b and bb:
        // the published rules produce bb again — the uniqueness violation
        // §3.1.2 disqualifies LSDX for.
        let mut tree = XmlTree::new();
        let r = tree.root();
        let p = tree.create(NodeKind::element("p"));
        tree.append_child(r, p).unwrap();
        let a = tree.create(NodeKind::element("a"));
        let b = tree.create(NodeKind::element("b"));
        tree.append_child(p, a).unwrap();
        tree.append_child(p, b).unwrap();
        let mut scheme = Lsdx::new();
        let mut labeling = scheme.label_tree(&tree).unwrap();
        let x = tree.create(NodeKind::element("x"));
        tree.insert_after(a, x).unwrap();
        scheme.on_insert(&tree, &mut labeling, x).unwrap();
        assert_eq!(labeling.req(x).unwrap().path.own_code().unwrap(), "bb");
        let y = tree.create(NodeKind::element("y"));
        tree.insert_after(a, y).unwrap();
        scheme.on_insert(&tree, &mut labeling, y).unwrap();
        assert_eq!(
            labeling.req(y).unwrap().path.own_code().unwrap(),
            "bb",
            "naive rules reproduce the published collision"
        );
        assert!(
            labeling.find_duplicate().is_some(),
            "uniqueness violated, as the paper reports"
        );
    }

    #[test]
    fn paper_style_display() {
        let (tree, nodes) = figure3_shape();
        let mut scheme = Lsdx::new();
        let labeling = scheme.label_tree(&tree).unwrap();
        // grandchild display uses level + ancestor ids + dot + own id
        let root_elem = nodes[0];
        let first_child = tree.children(root_elem).next().unwrap();
        let grandchild = tree.children(first_child).next().unwrap();
        let display = labeling.req(grandchild).unwrap().display();
        assert_eq!(display, "3abb.b");
        assert_eq!(labeling.req(root_elem).unwrap().display(), "1a.b");
    }

    #[test]
    fn level_matches_depth() {
        let (tree, _) = figure3_shape();
        let mut scheme = Lsdx::new();
        let labeling = scheme.label_tree(&tree).unwrap();
        for id in tree.ids_in_doc_order() {
            assert_eq!(
                scheme.level(labeling.req(id).unwrap()),
                Some(tree.depth(id))
            );
        }
    }
}
