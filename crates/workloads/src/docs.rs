//! Deterministic document generators.

use xupd_testkit::TestRng;
use xupd_xmldom::{NodeKind, TreeBuilder, XmlTree};

/// The paper's Figure 1 sample book document.
pub fn book() -> XmlTree {
    xupd_xmldom::sample::figure1_document()
}

/// A single root with `fanout` leaf children — stresses sibling-code
/// allocation.
pub fn wide(fanout: usize) -> XmlTree {
    let mut b = TreeBuilder::new().open("root");
    for i in 0..fanout {
        b = b.open("item").attr("id", i.to_string()).close();
    }
    b.close().finish()
}

/// A single chain of `depth` nested elements — stresses path length and
/// the prime scheme's products.
pub fn deep(depth: usize) -> XmlTree {
    let mut tree = XmlTree::new();
    let mut cur = tree.root();
    for i in 0..depth {
        let n = tree.create(NodeKind::element(format!("level{i}")));
        tree.append_child(cur, n).expect("cur is live");
        cur = n;
    }
    tree
}

/// A random-shaped tree with `n` element nodes: each new node attaches
/// under a uniformly random existing element, keeping depth moderate.
/// Deterministic for a given `seed`.
pub fn random_tree(seed: u64, n: usize) -> XmlTree {
    let mut rng = TestRng::seed_from_u64(seed);
    let mut tree = XmlTree::new();
    let root = tree.create(NodeKind::element("root"));
    tree.append_child(tree.root(), root).expect("root live");
    let mut elements = vec![root];
    for i in 1..n {
        // Bias towards recent nodes for natural document shapes, but cap
        // depth to keep the Sector scheme's arcs splittable.
        let parent = loop {
            let idx = if rng.gen_bool(0.5) {
                elements.len() - 1 - rng.gen_range(0..elements.len().min(8))
            } else {
                rng.gen_range(0..elements.len())
            };
            let cand = elements[idx];
            if tree.depth(cand) < 10 {
                break cand;
            }
        };
        let node = tree.create(NodeKind::element(format!("e{i}")));
        tree.append_child(parent, node).expect("parent live");
        elements.push(node);
    }
    tree
}

/// A random-shaped tree like [`random_tree`], but element names drawn
/// from a small repeated tag alphabet (so per-name index buckets hold
/// many rows), with occasional `id` attributes and text leaves — the
/// shape the encoding-layer differential property tests want: every
/// node kind present, non-trivial name buckets, random topology.
/// Deterministic for a given `seed`.
pub fn random_tagged_tree(seed: u64, n: usize, tags: &[&str]) -> XmlTree {
    let mut rng = TestRng::seed_from_u64(seed);
    let mut tree = XmlTree::new();
    let root = tree.create(NodeKind::element("root"));
    tree.append_child(tree.root(), root).expect("root live");
    let mut elements = vec![root];
    for i in 1..n {
        let parent = loop {
            let idx = if rng.gen_bool(0.5) {
                elements.len() - 1 - rng.gen_range(0..elements.len().min(8))
            } else {
                rng.gen_range(0..elements.len())
            };
            let cand = elements[idx];
            if tree.depth(cand) < 10 {
                break cand;
            }
        };
        let tag = tags[rng.gen_range(0..tags.len().max(1))];
        let node = tree.create(NodeKind::element(tag));
        tree.append_child(parent, node).expect("parent live");
        if rng.gen_bool(0.3) {
            let attr = tree.create(NodeKind::attribute("id", format!("n{i}")));
            tree.append_child(node, attr).expect("node live");
        }
        if rng.gen_bool(0.3) {
            let text = tree.create(NodeKind::text(format!("t{i}")));
            tree.append_child(node, text).expect("node live");
        }
        elements.push(node);
    }
    tree
}

/// An XMark-flavoured auction document: `site` with `regions`, `people`
/// and `open_auctions` sections, text values and attributes — the
/// realistic-shape workload the paper's motivation (XML repositories in
/// industry) calls for. Deterministic for a given `seed`; `scale` is
/// roughly the number of items + people + auctions.
pub fn xmark_like(seed: u64, scale: usize) -> XmlTree {
    let mut rng = TestRng::seed_from_u64(seed);
    let per_section = (scale / 3).max(1);
    let mut b = TreeBuilder::new().open("site");

    b = b.open("regions");
    let region_names = ["africa", "asia", "europe", "namerica"];
    let mut region_open = 0usize;
    for (ri, name) in region_names.iter().enumerate() {
        b = b.open(*name);
        let items = per_section / region_names.len() + usize::from(ri == 0);
        for i in 0..items.max(1) {
            let id = format!("item{ri}_{i}");
            b = b
                .open("item")
                .attr("id", &id)
                .leaf("name", format!("Item {i} of {name}"))
                .open("description")
                .leaf("text", lorem(&mut rng))
                .close()
                .leaf("quantity", (rng.gen_range(1..5u32)).to_string())
                .close();
            region_open += 1;
        }
        b = b.close();
    }
    b = b.close();

    b = b.open("people");
    for i in 0..per_section {
        b = b
            .open("person")
            .attr("id", format!("person{i}"))
            .leaf("name", format!("Person #{i}"))
            .leaf("emailaddress", format!("mailto:p{i}@example.org"))
            .close();
    }
    b = b.close();

    b = b.open("open_auctions");
    for i in 0..per_section {
        b = b
            .open("open_auction")
            .attr("id", format!("auction{i}"))
            .leaf(
                "initial",
                format!("{}.{:02}", rng.gen_range(1..200), rng.gen_range(0..100)),
            )
            .open("bidder")
            .leaf("increase", format!("{}.00", rng.gen_range(1..20)))
            .close()
            .leaf("itemref", format!("item0_{}", i % region_open.max(1)))
            .close();
    }
    b = b.close();

    b.close().finish()
}

fn lorem(rng: &mut TestRng) -> String {
    const WORDS: [&str; 12] = [
        "lorem",
        "ipsum",
        "dolor",
        "sit",
        "amet",
        "consectetur",
        "adipiscing",
        "elit",
        "sed",
        "do",
        "eiusmod",
        "tempor",
    ];
    let n = rng.gen_range(3..10);
    (0..n)
        .map(|_| WORDS[rng.gen_range(0..WORDS.len())])
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wide_has_fanout_children() {
        let t = wide(50);
        let root = t.document_element().unwrap();
        assert_eq!(t.child_count(root), 50);
        t.validate().unwrap();
    }

    #[test]
    fn deep_has_depth() {
        let t = deep(30);
        let deepest = t.preorder().last().unwrap();
        assert_eq!(t.depth(deepest), 30);
        t.validate().unwrap();
    }

    #[test]
    fn random_tree_is_deterministic_and_bounded() {
        let a = random_tree(42, 500);
        let b = random_tree(42, 500);
        assert_eq!(a.len(), b.len());
        let sig = |t: &XmlTree| -> Vec<u32> { t.preorder().map(|n| t.depth(n)).collect() };
        assert_eq!(sig(&a), sig(&b));
        assert!(a.preorder().all(|n| a.depth(n) <= 10));
        a.validate().unwrap();
        let c = random_tree(43, 500);
        assert_ne!(sig(&a), sig(&c), "different seeds differ");
    }

    #[test]
    fn random_tagged_tree_repeats_tags_and_mixes_kinds() {
        let tags = ["a", "b", "c"];
        let t = random_tagged_tree(9, 120, &tags);
        let u = random_tagged_tree(9, 120, &tags);
        assert_eq!(t.len(), u.len(), "deterministic");
        let mut per_tag = [0usize; 3];
        let (mut attrs, mut texts) = (0usize, 0usize);
        for n in t.preorder() {
            let k = t.kind(n);
            if let Some(pos) = tags.iter().position(|&tag| k.name() == Some(tag)) {
                per_tag[pos] += 1;
            }
            attrs += usize::from(k.is_attribute());
            texts += usize::from(k.is_text());
        }
        assert!(
            per_tag.iter().all(|&c| c > 5),
            "buckets non-trivial: {per_tag:?}"
        );
        assert!(attrs > 5 && texts > 5, "attrs {attrs}, texts {texts}");
        t.validate().unwrap();
    }

    #[test]
    fn xmark_like_has_expected_sections() {
        let t = xmark_like(7, 90);
        let site = t.document_element().unwrap();
        let sections: Vec<&str> = t.children(site).filter_map(|c| t.kind(c).name()).collect();
        assert_eq!(sections, ["regions", "people", "open_auctions"]);
        assert!(t.len() > 300, "realistic size, got {}", t.len());
        t.validate().unwrap();
        // round-trips through the serializer and parser
        let text = xupd_xmldom::serialize_compact(&t);
        let back = xupd_xmldom::parse(&text).unwrap();
        assert_eq!(back.len(), t.len());
    }
}
