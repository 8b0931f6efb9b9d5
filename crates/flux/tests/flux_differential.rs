//! Differential soundness suite for the flux compiler.
//!
//! Three oracles, each pinning one leg of the compilation contract:
//!
//! * **Hand-built log equality** — a fixture program and the expert
//!   client's hand-assembled [`MutationLog`] must be equal: the
//!   compiler adds nothing and loses nothing.
//! * **Plan apply ≡ sequential apply** — for random generated
//!   programs, applying the compiled log through its certified
//!   [`AnalyzedPlan`] must leave byte-identical trees, identical
//!   label renderings and identical work counters versus the plain
//!   sequential `apply_log_dyn`, for **every** scheme in the
//!   17-scheme registry (coalesced apply must match bytes and labels
//!   too). Schemes are independent, so the battery fans out on the
//!   `xupd-exec` pool and is `XUPD_THREADS`-invariant.
//! * **No false accepts** — every program the static checker rejects
//!   must also fail dynamically when lowered without the checker
//!   (`lower::lower_in`): at lowering (the kind guards), in the
//!   shadow-simulation validator, or at atomic apply — and the
//!   document must be left untouched. A checker whose rejections the
//!   runtime would have permitted is lying about its necessity.
//!
//! Lowering resolves paths with the same evaluator every query uses,
//! on the document's preorder index, so there is no second path
//! evaluator to hold equal to it.

use xupd_flux::{lower, DocumentUpdate, FluxProgram};
use xupd_framework::analysis::{apply_plan_with_dyn, ApplyOptions};
use xupd_framework::mutations::{
    self, apply_log_dyn, LogId, Mutation, MutationLog, NodeRef, Place,
};
use xupd_framework::{Document, PreorderIndex};
use xupd_schemes::prefix::qed::Qed;
use xupd_schemes::registry;
use xupd_xmldom::{serialize_compact, NodeKind, XmlTree};

// Per-thread allocation counts, so a test can tell whether reading a
// document's index encoded it.
xupd_testkit::install_counting_allocator!();

// ---------------------------------------------------------------------
// Deterministic program generator (splitmix64 — no external RNG).
// ---------------------------------------------------------------------

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// The preorder index of `tree`, as a `Document` holds it.
fn index_of(tree: &XmlTree) -> PreorderIndex {
    PreorderIndex::encode(tree).expect("index encodes")
}

/// `<r>` + 2–4 sections + a single `<t/>` landing pad. Every section
/// has an `id` attribute, a text-bearing `<a>`, an empty `<b/>`, and
/// even sections a nested `<c><d>x</d></c>`.
fn base_doc(rng: &mut Rng) -> (XmlTree, usize) {
    let sections = 2 + rng.below(3);
    let mut src = String::from("<r>");
    for i in 0..sections {
        src.push_str(&format!("<s id=\"{i}\"><a>t{i}</a><b/>"));
        if i % 2 == 0 {
            src.push_str("<c><d>x</d></c>");
        }
        src.push_str("</s>");
    }
    src.push_str("<t/></r>");
    (xupd_xmldom::parse(&src).expect("static doc"), sections)
}

/// 1–4 statements drawn from every statement form, with section
/// indices kept in range so most programs compile; the rest (strict-
/// match misses, accidental F006/F007 conflicts) are skipped by the
/// caller and only their *count* is bounded.
fn gen_program(rng: &mut Rng, sections: usize) -> String {
    let n = 1 + rng.below(4);
    let mut src = String::new();
    for k in 0..n {
        let i = 1 + rng.below(sections);
        let stmt = match rng.below(8) {
            0 => {
                let pos = ["into", "first into", "before", "after"][rng.below(4)];
                format!("insert <m{k}>v</m{k}> {pos} /r/s[{i}];\n")
            }
            1 => format!("delete /r/s[{i}]/b;\n"),
            2 => format!("replace /r/s[{i}]/a with <z>w</z>;\n"),
            3 => format!("rename /r/s[{i}] to q{k};\n"),
            4 => format!("move /r/s[{i}]/b into /r/t;\n"),
            5 => format!("set /r/s[{i}]/a/text() to \"w{k}\";\n"),
            6 => "for /r/s do insert <f/> into . end\n".to_string(),
            _ => format!("insert <m{k}/> after /r/t;\n"),
        };
        src.push_str(&stmt);
    }
    src
}

// ---------------------------------------------------------------------
// 1. Hand-built log equality.
// ---------------------------------------------------------------------

#[test]
fn compiled_log_matches_hand_built_log() {
    let tree = xupd_xmldom::parse("<r><s><x>one</x><y/></s><s><x>two</x><y/></s></r>").unwrap();
    let program = FluxProgram::parse(
        "for /r/s do insert <item>v</item> into .; set ./x/text() to \"w\"; delete ./y; end",
    )
    .expect("well-formed source");
    let compiled = program
        .compile(&tree, &index_of(&tree))
        .expect("clean program");

    // The expert client's log, mirroring the compiler's LogId
    // allocation order (two fresh ids per section).
    let root = tree.document_element().unwrap();
    let mut hand = MutationLog::default();
    let mut next = 0u32;
    for s in tree.children(root).filter(|&n| tree.kind(n).is_element()) {
        let mut elems = tree.children(s).filter(|&c| tree.kind(c).is_element());
        let x = elems.next().unwrap();
        let y = elems.next().unwrap();
        let t = tree.children(x).find(|&c| tree.kind(c).is_text()).unwrap();
        let el = LogId(next);
        let txt = LogId(next + 1);
        next += 2;
        hand.push(Mutation::CreateElement {
            id: el,
            name: "item".to_string(),
            place: Place::LastChildOf(NodeRef::Node(s)),
        });
        hand.push(Mutation::CreateNode {
            id: txt,
            kind: NodeKind::text("v"),
            place: Place::LastChildOf(NodeRef::New(el)),
        });
        hand.push(Mutation::SetText {
            target: NodeRef::Node(t),
            text: "w".to_string(),
        });
        hand.push(Mutation::Delete {
            target: NodeRef::Node(y),
        });
    }

    assert_eq!(
        compiled.log, hand,
        "compiled and hand-built logs must be identical"
    );
}

// ---------------------------------------------------------------------
// 2. Plan apply ≡ sequential apply, across the whole roster.
// ---------------------------------------------------------------------

#[test]
fn plan_apply_matches_sequential_apply_across_roster() {
    let entries = registry();
    assert_eq!(entries.len(), 17, "whole roster covered");

    let mut compiled_programs = Vec::new();
    let mut skipped = 0usize;
    for seed in 0..24u64 {
        let mut rng = Rng(0xf1u64 ^ (seed << 8));
        let (tree, sections) = base_doc(&mut rng);
        let src = gen_program(&mut rng, sections);
        let program = match FluxProgram::parse(&src) {
            Ok(p) => p,
            Err(ds) => panic!("generated source failed to parse: {ds:?}\n{src}"),
        };
        match program.compile(&tree, &index_of(&tree)) {
            Ok(c) => compiled_programs.push((tree, c.log, c.plan)),
            // Strict-match misses and accidental static conflicts are
            // legitimate rejections — skip, but bound their rate below.
            Err(_) => skipped += 1,
        }
    }
    assert!(
        compiled_programs.len() >= 8,
        "generator too conflict-prone: only {} of 24 programs compiled ({skipped} skipped)",
        compiled_programs.len()
    );

    // Labels compared per *document position*, not per arena index:
    // reordered apply allocates fresh arena ids in a different order,
    // but an order-independent scheme must still label the (byte-
    // identical) final document identically.
    fn doc_order_labels(tree: &XmlTree, session: &dyn xupd_labelcore::DynScheme) -> Vec<String> {
        tree.ids_in_doc_order()
            .into_iter()
            .map(|n| session.label_display(n).unwrap())
            .collect()
    }

    for (tree, log, plan) in &compiled_programs {
        let outcomes = xupd_exec::par_map(&entries, |entry| {
            // Sequential reference.
            let mut seq_session = entry.session();
            let mut seq_tree = tree.clone();
            seq_session.label_tree(&seq_tree).unwrap();
            let seq_stats = apply_log_dyn(&mut seq_tree, seq_session.as_mut(), log).unwrap();

            // Certified-plan path.
            let mut plan_session = entry.session();
            let mut plan_tree = tree.clone();
            plan_session.label_tree(&plan_tree).unwrap();
            let plan_stats = apply_plan_with_dyn(
                &mut plan_tree,
                plan_session.as_mut(),
                log,
                plan,
                ApplyOptions::analyzed(),
            )
            .unwrap();

            // Coalesced path: bytes and labels must still match (work
            // counters intentionally shrink, so they are not compared).
            let mut co_session = entry.session();
            let mut co_tree = tree.clone();
            co_session.label_tree(&co_tree).unwrap();
            apply_plan_with_dyn(
                &mut co_tree,
                co_session.as_mut(),
                log,
                plan,
                ApplyOptions::coalesced(),
            )
            .unwrap();

            (
                entry.name(),
                (
                    serialize_compact(&seq_tree),
                    doc_order_labels(&seq_tree, seq_session.as_ref()),
                    (seq_stats.inserts, seq_stats.deletes, seq_stats.relabeled),
                ),
                (
                    serialize_compact(&plan_tree),
                    doc_order_labels(&plan_tree, plan_session.as_ref()),
                    (plan_stats.inserts, plan_stats.deletes, plan_stats.relabeled),
                ),
                (
                    serialize_compact(&co_tree),
                    doc_order_labels(&co_tree, co_session.as_ref()),
                ),
            )
        });
        for (name, seq, plan_out, co) in outcomes {
            assert_eq!(seq.0, plan_out.0, "{name}: tree bytes diverged");
            assert_eq!(seq.1, plan_out.1, "{name}: label renderings diverged");
            assert_eq!(seq.2, plan_out.2, "{name}: work counters diverged");
            assert_eq!(seq.0, co.0, "{name}: coalesced tree bytes diverged");
            assert_eq!(seq.1, co.1, "{name}: coalesced labels diverged");
        }
    }
}

// ---------------------------------------------------------------------
// 3. No false accepts: static rejection ⇒ dynamic rejection.
// ---------------------------------------------------------------------

#[test]
fn no_false_accepts() {
    // Every template trips the static checker; `{i}` is substituted
    // with a random in-range section index per round.
    const TEMPLATES: &[&str] = &[
        // F006: write after consume.
        "delete /r/s[{i}]; set /r/s[{i}]/a/text() to \"v\"",
        "replace /r/s[{i}] with <z/>; delete /r/s[{i}]",
        "rename /r/s[{i}] to q; delete /r/s[{i}]",
        "delete /r/s[{i}]; insert <m/> into /r/s[{i}]",
        // F007: double text-slot write.
        "set /r/s[{i}]/a/text() to \"a\"; set /r/s[{i}]/a/text() to \"b\"",
        // F008: move into own subtree.
        "move /r/s[{i}] into /r/s[{i}]/a",
        "move /r/s[{i}] before /r/s[{i}]/a",
        // F009: root mutation.
        "delete /.",
        "rename /. to z",
        "insert <m/> before /.",
        "for /. do delete . end",
        // F005: shape violations.
        "set /r/s[{i}] to \"x\"",
        "insert <m/> into /r/s[{i}]/a/text()",
        "rename /r/s[{i}]/a/text() to q",
        "delete /r/s[{i}]/@id",
        "move /r/s[{i}] into /r/s[{i}]/a/text()",
    ];

    for seed in 0..4u64 {
        let mut rng = Rng(0xace_u64 ^ seed);
        let (tree, sections) = base_doc(&mut rng);
        let original = serialize_compact(&tree);
        for template in TEMPLATES {
            let i = 1 + rng.below(sections);
            let src = template.replace("{i}", &i.to_string());
            let program = FluxProgram::parse(&src)
                .unwrap_or_else(|ds| panic!("template must parse: {src:?}: {ds:?}"));
            assert!(
                !program.check().is_empty(),
                "template must be statically rejected: {src:?}"
            );

            // Force the program past the checker; *something* dynamic
            // must stop it, and the document must survive untouched.
            let dynamic_reject = match lower::lower_in(program.stmts(), &tree, &index_of(&tree)) {
                Err(_) => true, // lowering guard (F010/F011/F012)
                Ok(log) => {
                    if mutations::validate(&log, &tree).is_err() {
                        true // shadow-simulation validator
                    } else {
                        let mut scratch = tree.clone();
                        let mut scheme = Qed::new();
                        let mut labeling = Default::default();
                        let failed =
                            mutations::apply_log(&mut scratch, &mut scheme, &mut labeling, &log)
                                .is_err();
                        assert_eq!(
                            serialize_compact(&scratch),
                            original,
                            "atomic apply must roll back on failure: {src:?}"
                        );
                        failed // atomic apply
                    }
                }
            };
            assert!(
                dynamic_reject,
                "statically rejected program was dynamically accepted: {src:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// 4. The index a document keeps.
// ---------------------------------------------------------------------

/// Row-for-row equality of two preorder indexes of one tree: source
/// ids (equal ids under one tree mean equal content), parents,
/// extents, name buckets and revision.
fn assert_same_index(kept: &PreorderIndex, fresh: &PreorderIndex, ctx: &str) {
    assert_eq!(kept.len(), fresh.len(), "{ctx}: row count");
    for i in 0..fresh.len() {
        let (a, b) = (kept.source_id(i), fresh.source_id(i));
        assert!(
            a == b && kept.parent(i) == fresh.parent(i) && kept.extent(i) == fresh.extent(i),
            "{ctx}: row {i}: {a:?} vs fresh {b:?}"
        );
    }
    assert!(
        kept.name_index() == fresh.name_index(),
        "{ctx}: name buckets"
    );
    assert_eq!(kept.revision(), fresh.revision(), "{ctx}: revision");
}

/// A document with no registered query keeps its preorder index across
/// flux batches: reading the index after a batch encodes nothing, and
/// the index equals a fresh encode of the tree.
#[test]
fn unqueried_document_keeps_its_index_across_flux_batches() {
    let mut checked = 0usize;
    for seed in 0..24u64 {
        let mut rng = Rng(0x1de_u64 ^ (seed << 8));
        let (tree, sections) = base_doc(&mut rng);
        let mut doc = Document::encode(Qed::new(), &tree).expect("labels");
        for _ in 0..6 {
            let src = gen_program(&mut rng, sections);
            if doc.update(&src).is_err() {
                continue;
            }
            let allocs = xupd_testkit::alloc::counts().0;
            let (tree, index) = doc.tree_with_index().expect("index");
            assert_eq!(
                xupd_testkit::alloc::counts().0,
                allocs,
                "the index was encoded again after {src:?}"
            );
            assert_same_index(index, &index_of(tree), &src);
            checked += 1;
        }
    }
    assert!(checked >= 40, "only {checked} batches applied");
}
