//! Differential soundness suite for `framework::querycache`.
//!
//! The incremental maintenance contract is absolute: after any absorbed
//! batch, every registered query's cached rows and strings must be
//! byte-identical to a from-scratch evaluation against the current
//! tree. The suite drives a standalone [`QueryCache`] through mixed
//! batch sequences (structural scripts, localized hand-built edits,
//! subtree moves across and within parents, create-then-move chains,
//! structural batches that also rewrite pre-batch text, text-only
//! rewrites, redundant writes, empty logs) across the whole
//! 17-scheme roster on the `xupd-exec` pool — each scheme computes its
//! own `effective` set from its own `cancellation_neutral` claim, so
//! the cache sees exactly what that scheme's optimizer would feed it.
//!
//! Beyond agreement, the suite pins that the classification lattice is
//! non-trivial (a fixed scenario must produce real counts of all three
//! classes — a cache that classified everything "dirty" would pass the
//! agreement check while delivering zero speedup) and, via the
//! shrinking property harness, that a deliberately corrupted
//! classification (forcing "unaffected" on an affected query) is
//! *caught* by the same byte-identity check — evidence the oracle has
//! teeth.

use xupd_encoding::{parse_xpath, EncodedDocument, XPathExpr};
use xupd_framework::analysis::analyze;
use xupd_framework::mutations::{apply_log_dyn, batch_of, LogId, Mutation, MutationLog, NodeRef, Place};
use xupd_framework::querycache::{QueryCache, QueryClass};
use xupd_labelcore::{DynScheme, SchemeSession};
use xupd_schemes::prefix::qed::Qed;
use xupd_schemes::registry;
use xupd_testkit::prop::{self, Config, Outcome};
use xupd_workloads::{docs, Script, ScriptKind};
use xupd_xmldom::{NodeId, NodeKind, XmlTree};

/// The query roster: (expression, want_strings). Spans the lattice —
/// fully-named repair-safe paths, attribute steps, wildcard and text()
/// tests (not name-safe), positional predicates on child and descendant
/// axes, and upward/lateral axes that can never be repaired.
fn roster() -> Vec<(&'static str, bool)> {
    vec![
        ("//item", false),
        ("//item", true),
        ("/site/people//name", true),
        ("//person/name", false),
        ("//item/@id", false),
        ("/site/regions/*", false),
        ("//description/text()", true),
        ("//item[@id='item0_0']", true),
        ("/site/open_auctions/open_auction[2]", false),
        ("/site/descendant::item[3]", false),
        ("//name/following-sibling::*", false),
        ("//quantity/..", true),
    ]
}

fn parsed_roster() -> Vec<(XPathExpr, bool)> {
    roster()
        .into_iter()
        .map(|(e, ws)| (parse_xpath(e).unwrap(), ws))
        .collect()
}

/// From-scratch oracle: encode the current tree fresh and evaluate
/// every expression against it. Preorder rows are scheme-independent,
/// so any scheme works as the oracle encoding; strings come from the
/// same `string_value` the cache serves.
fn fresh_eval(exprs: &[(XPathExpr, bool)], tree: &XmlTree) -> Vec<(Vec<usize>, Vec<String>)> {
    let doc = EncodedDocument::encode(Qed::new(), tree).unwrap();
    let mut out = Vec::with_capacity(exprs.len());
    for (e, want_strings) in exprs {
        // lint:allow(R10): the differential oracle must pay full re-evaluation
        let rows = e.evaluate(&doc);
        let strings = if *want_strings {
            rows.iter().map(|&r| doc.string_value(r)).collect()
        } else {
            Vec::new()
        };
        out.push((rows, strings));
    }
    out
}

fn assert_cache_matches(cache: &QueryCache, exprs: &[(XPathExpr, bool)], tree: &XmlTree, ctx: &str) {
    let oracle = fresh_eval(exprs, tree);
    for (q, (rows, strings)) in oracle.iter().enumerate() {
        assert_eq!(cache.rows(q), rows.as_slice(), "{ctx}: query {q} rows");
        assert_eq!(cache.strings(q), strings.as_slice(), "{ctx}: query {q} strings");
    }
}

/// All alive text-node ids in document order.
fn text_ids(tree: &XmlTree) -> Vec<NodeId> {
    tree.ids_in_doc_order()
        .into_iter()
        .filter(|&id| matches!(tree.kind(id), NodeKind::Text { .. }))
        .collect()
}

/// A text-only batch: rewrite every `stride`-th text node; when
/// `redundant`, write back the value already held (certified no-op).
fn text_log(tree: &XmlTree, stride: usize, redundant: bool) -> MutationLog {
    let ids = text_ids(tree);
    let ops: Vec<Mutation> = ids
        .iter()
        .step_by(stride.max(1))
        .map(|&id| {
            let text = if redundant {
                match tree.kind(id) {
                    NodeKind::Text { value } => value.clone(),
                    _ => String::new(),
                }
            } else {
                format!("rewritten-{}", id.index())
            };
            Mutation::SetText {
                target: NodeRef::Node(id),
                text,
            }
        })
        .collect();
    MutationLog::from(ops)
}

/// A localized structural batch: one new <item> (with a name leaf)
/// prepended inside the first <africa> region — touches one region
/// extent and nothing else, the shape repair is built for.
fn localized_log(tree: &XmlTree) -> MutationLog {
    let africa = tree
        .ids_in_doc_order()
        .into_iter()
        .find(|&id| matches!(tree.kind(id), NodeKind::Element { name } if name == "africa"))
        .unwrap();
    MutationLog::from(vec![
        Mutation::CreateElement {
            id: LogId(0),
            name: "item".to_string(),
            place: Place::FirstChildOf(NodeRef::Node(africa)),
        },
        Mutation::CreateElement {
            id: LogId(1),
            name: "name".to_string(),
            place: Place::FirstChildOf(NodeRef::New(LogId(0))),
        },
    ])
}

/// A tail edit: one new element inside the *last* open auction. Every
/// query whose results precede the auctions section keeps its rows at
/// stable preorder positions — the unaffected sweet spot.
fn tail_log(tree: &XmlTree) -> MutationLog {
    let last_auction = tree
        .ids_in_doc_order()
        .into_iter()
        .filter(|&id| matches!(tree.kind(id), NodeKind::Element { name } if name == "open_auction"))
        .last()
        .unwrap();
    MutationLog::from(vec![Mutation::CreateElement {
        id: LogId(0),
        name: "note".to_string(),
        place: Place::FirstChildOf(NodeRef::Node(last_auction)),
    }])
}

/// A fleet-style insert: one empty `u` appended as the last child of
/// the document element. The parent whose child list changes is the
/// document element, so the batch's relabel region is the whole
/// document; its edits are one fresh row.
fn fleet_append_log(tree: &XmlTree) -> MutationLog {
    MutationLog::from(vec![Mutation::CreateElement {
        id: LogId(0),
        name: "u".to_string(),
        place: Place::LastChildOf(NodeRef::Node(tree.document_element().unwrap())),
    }])
}

/// A new `open_auction` before the second one: the new node becomes
/// `open_auction[2]`, so that query must not keep its old member.
fn auction_before_second_log(tree: &XmlTree) -> MutationLog {
    MutationLog::from(vec![Mutation::CreateElement {
        id: LogId(0),
        name: "open_auction".to_string(),
        place: Place::Before(NodeRef::Node(named(tree, "open_auction")[1])),
    }])
}

/// The `id` attribute whose value is `value`.
fn id_attribute(tree: &XmlTree, value: &str) -> NodeId {
    tree.ids_in_doc_order()
        .into_iter()
        .find(|&id| {
            matches!(tree.kind(id), NodeKind::Attribute { name, value: v } if name == "id" && v == value)
        })
        .unwrap_or_else(|| panic!("no id=\"{value}\" attribute"))
}

/// Delete the `id="item0_0"` attribute: the attribute is the cut root,
/// and the item it sat on stays, so `//item[@id='item0_0']` loses a
/// member outside every cut or fresh subtree.
fn drop_item_id_log(tree: &XmlTree) -> MutationLog {
    MutationLog::from(vec![Mutation::Delete {
        target: NodeRef::Node(id_attribute(tree, "item0_0")),
    }])
}

/// Give the first item without an `id` the attribute `id="item0_0"`:
/// a fresh attribute root that makes a kept item a member.
fn give_item_id_log(tree: &XmlTree) -> MutationLog {
    let bare = named(tree, "item")
        .into_iter()
        .find(|&item| {
            !tree
                .children(item)
                .any(|c| matches!(tree.kind(c), NodeKind::Attribute { name, .. } if name == "id"))
        })
        .unwrap_or_else(|| panic!("every item has an id"));
    MutationLog::from(vec![Mutation::CreateNode {
        id: LogId(0),
        kind: NodeKind::Attribute {
            name: "id".to_string(),
            value: "item0_0".to_string(),
        },
        place: Place::FirstChildOf(NodeRef::Node(bare)),
    }])
}

/// Element nodes named `name`, in document order.
fn named(tree: &XmlTree, name: &str) -> Vec<NodeId> {
    tree.ids_in_doc_order()
        .into_iter()
        .filter(|&id| matches!(tree.kind(id), NodeKind::Element { name: n } if n == name))
        .collect()
}

/// The first `item` under the region element `region`.
fn first_item_of(tree: &XmlTree, region: &str) -> NodeId {
    let region = named(tree, region)[0];
    tree.children(region)
        .find(|&c| matches!(tree.kind(c), NodeKind::Element { name } if name == "item"))
        .unwrap_or_else(|| panic!("no item left in the region"))
}

/// Move the first africa item to the end of asia: a subtree leaves one
/// region and lands in another.
fn move_across_regions_log(tree: &XmlTree) -> MutationLog {
    MutationLog::from(vec![Mutation::MoveSubtree {
        target: NodeRef::Node(first_item_of(tree, "africa")),
        place: Place::LastChildOf(NodeRef::Node(named(tree, "asia")[0])),
    }])
}

/// Move the last person before the first one: a reorder under one
/// parent.
fn move_before_sibling_log(tree: &XmlTree) -> MutationLog {
    let people = named(tree, "person");
    MutationLog::from(vec![Mutation::MoveSubtree {
        target: NodeRef::Node(people[people.len() - 1]),
        place: Place::Before(NodeRef::Node(people[0])),
    }])
}

/// Create an item in europe, move the new item to namerica, then move
/// an old asia item under it.
fn create_move_move_log(tree: &XmlTree) -> MutationLog {
    MutationLog::from(vec![
        Mutation::CreateElement {
            id: LogId(0),
            name: "item".to_string(),
            place: Place::FirstChildOf(NodeRef::Node(named(tree, "europe")[0])),
        },
        Mutation::MoveSubtree {
            target: NodeRef::New(LogId(0)),
            place: Place::LastChildOf(NodeRef::Node(named(tree, "namerica")[0])),
        },
        Mutation::MoveSubtree {
            target: NodeRef::Node(first_item_of(tree, "asia")),
            place: Place::FirstChildOf(NodeRef::New(LogId(0))),
        },
    ])
}

/// Move the first auction behind the last one, then delete a person.
fn move_then_delete_log(tree: &XmlTree) -> MutationLog {
    let auctions = named(tree, "open_auction");
    MutationLog::from(vec![
        Mutation::MoveSubtree {
            target: NodeRef::Node(auctions[0]),
            place: Place::After(NodeRef::Node(auctions[auctions.len() - 1])),
        },
        Mutation::Delete {
            target: NodeRef::Node(named(tree, "person")[1]),
        },
    ])
}

/// Give the first description a direct text child, so
/// `//description/text()` caches a result (with its string).
fn description_text_log(tree: &XmlTree) -> MutationLog {
    MutationLog::from(vec![Mutation::CreateNode {
        id: LogId(0),
        kind: NodeKind::Text {
            value: "note".to_string(),
        },
        place: Place::FirstChildOf(NodeRef::Node(named(tree, "description")[0])),
    }])
}

/// A structural batch that also rewrites pre-batch text: an item
/// created in africa, plus new values for the cached
/// `//description/text()` result and for the first item's name, which
/// sits under cached `//item` strings.
fn structural_with_text_log(tree: &XmlTree) -> MutationLog {
    let description = named(tree, "description")[0];
    let cached_text = tree
        .children(description)
        .find(|&c| matches!(tree.kind(c), NodeKind::Text { .. }))
        .unwrap_or_else(|| panic!("the description text was not created"));
    let name = named(tree, "name")[0];
    let name_text = tree
        .first_child(name)
        .unwrap_or_else(|| panic!("a name without text"));
    MutationLog::from(vec![
        Mutation::CreateElement {
            id: LogId(0),
            name: "item".to_string(),
            place: Place::FirstChildOf(NodeRef::Node(named(tree, "africa")[0])),
        },
        Mutation::SetText {
            target: NodeRef::Node(cached_text),
            text: "rewritten note".to_string(),
        },
        Mutation::SetText {
            target: NodeRef::Node(name_text),
            text: "renamed".to_string(),
        },
    ])
}

/// Drive one scheme through the full batch sequence, checking
/// byte-identity after every absorb. Returns the per-class tallies.
fn drive_scheme(
    session: &mut dyn DynScheme,
    base: &XmlTree,
    exprs: &[(XPathExpr, bool)],
    ctx: &str,
) -> (usize, usize, usize) {
    let mut tree = base.clone();
    session.label_tree(&tree).unwrap();
    let mut cache = QueryCache::new();
    for (e, ws) in exprs {
        cache.register(e, *ws, &tree).unwrap();
    }
    assert_cache_matches(&cache, exprs, &tree, &format!("{ctx}/initial"));

    let mut tally = (0usize, 0usize, 0usize);
    let mut round = 0usize;
    let mut absorb = |log: &MutationLog,
                      tree: &mut XmlTree,
                      session: &mut dyn DynScheme,
                      cache: &mut QueryCache,
                      tag: &str| {
        round += 1;
        let plan = analyze(log, tree).unwrap();
        let effective = plan.execution_order(false, session.cancellation_neutral());
        apply_log_dyn(tree, session, log).unwrap();
        let impact = cache.absorb(log, &plan, &effective, tree).unwrap();
        tally.0 += impact.unaffected;
        tally.1 += impact.repaired;
        tally.2 += impact.rebuilt;
        assert_cache_matches(cache, exprs, tree, &format!("{ctx}/round{round}-{tag}"));
        impact
    };

    // 1. localized structural edit (the repair sweet spot)
    absorb(&localized_log(&tree), &mut tree, session, &mut cache, "localized");
    // 2. text-only rewrite sweep
    absorb(&text_log(&tree, 3, false), &mut tree, session, &mut cache, "text");
    // 3. random structural script
    let script = Script::generate(ScriptKind::Random, 25, tree.len(), 4242);
    let log = batch_of(&script, &tree).unwrap();
    absorb(&log, &mut tree, session, &mut cache, "random");
    // 4. redundant text writes (zero effective ops)
    absorb(&text_log(&tree, 2, true), &mut tree, session, &mut cache, "redundant");
    // 5. empty batch
    absorb(&MutationLog::from(Vec::new()), &mut tree, session, &mut cache, "empty");
    // 6. delete-heavy script
    let script = Script::generate(ScriptKind::MixedDelete, 30, tree.len(), 4243);
    let log = batch_of(&script, &tree).unwrap();
    absorb(&log, &mut tree, session, &mut cache, "deletes");
    // 7. a subtree moves from one region to another
    absorb(&move_across_regions_log(&tree), &mut tree, session, &mut cache, "move-across");
    // 8. a subtree moves before a sibling under the same parent
    absorb(&move_before_sibling_log(&tree), &mut tree, session, &mut cache, "move-before");
    // 9. create, move the new node, move an old subtree under it
    absorb(&create_move_move_log(&tree), &mut tree, session, &mut cache, "create-move-move");
    // 10. a move, then a delete
    absorb(&move_then_delete_log(&tree), &mut tree, session, &mut cache, "move-delete");
    // 11-12. a direct description text, then a structural batch that
    // also rewrites it and other pre-batch text under cached results
    absorb(&description_text_log(&tree), &mut tree, session, &mut cache, "description-text");
    absorb(&structural_with_text_log(&tree), &mut tree, session, &mut cache, "structural+text");
    // 13. a fleet-style append under the document element
    absorb(&fleet_append_log(&tree), &mut tree, session, &mut cache, "fleet-append");
    // 14. a new second auction: the positional query's names are hit,
    // so it is re-derived, not renumbered
    let impact = absorb(&auction_before_second_log(&tree), &mut tree, session, &mut cache, "auction-2");
    let second = roster()
        .iter()
        .position(|&(e, _)| e == "/site/open_auctions/open_auction[2]")
        .unwrap();
    assert_eq!(impact.classes[second], QueryClass::Rebuilt, "{ctx}: open_auction[2]");
    // 15-16. an attribute that a `[@id=...]` predicate reads is deleted
    // from a kept item, then created on another one
    absorb(&drop_item_id_log(&tree), &mut tree, session, &mut cache, "drop-id");
    absorb(&give_item_id_log(&tree), &mut tree, session, &mut cache, "give-id");

    tally
}

#[test]
fn cached_results_match_fresh_eval_across_roster() {
    let base = docs::xmark_like(31, 72);
    let exprs = parsed_roster();
    let entries = registry();
    assert_eq!(entries.len(), 17);
    let tallies = xupd_exec::par_map(&entries, |entry| {
        let mut session = entry.session();
        let name = entry.name();
        drive_scheme(session.as_mut(), &base, &exprs, name)
    });
    assert_eq!(tallies.len(), 17);
    for (unaffected, repaired, rebuilt) in tallies {
        // every run must exercise the whole lattice, not degenerate to
        // one class
        assert!(unaffected > 0, "no unaffected outcomes");
        assert!(repaired > 0, "no repaired outcomes");
        assert!(rebuilt > 0, "no rebuilt outcomes");
    }
}

#[test]
fn classification_counts_are_pinned_on_fixed_scenario() {
    // One tail insert against the fixed document, Qed effective set:
    // the per-query classes are deterministic — pin them so a
    // regression that silently downgrades everything to "dirty" (still
    // correct, zero speedup) fails loudly. The edit sits in the last
    // auction and creates a `note`, a name no query tests.
    let base = docs::xmark_like(31, 72);
    let exprs = parsed_roster();
    let mut session: Box<dyn DynScheme> = Box::new(SchemeSession::new(Qed::new()));
    let mut tree = base.clone();
    session.label_tree(&tree).unwrap();
    let mut cache = QueryCache::new();
    for (e, ws) in &exprs {
        cache.register(e, *ws, &tree).unwrap();
    }
    let log = tail_log(&tree);
    let plan = analyze(&log, &tree).unwrap();
    let effective = plan.execution_order(false, session.cancellation_neutral());
    apply_log_dyn(&mut tree, session.as_mut(), &log).unwrap();
    let impact = cache.absorb(&log, &plan, &effective, &tree).unwrap();
    assert!(!impact.text_only);
    use QueryClass::{Rebuilt, Repaired, Unaffected};
    // The batch's only edit is the fresh `note` row; its strict
    // ancestors (the last auction, `open_auctions`, `site`, the
    // document node) are its string-dirty rows.
    let want = [
        // //item: fully named, no `item` in the fresh row
        Unaffected,
        // //item with strings: no item is string-dirty
        Unaffected,
        // /site/people//name: `site` is an ancestor of the edit but not
        // inside it, and no `name` is string-dirty
        Unaffected,
        // //person/name
        Unaffected,
        // //item/@id
        Unaffected,
        // /site/regions/*: a wildcard is not name-safe; repair-safe, so
        // the fresh row is re-evaluated (it yields nothing)
        Repaired,
        // //description/text(): a text() test, repaired the same way
        Repaired,
        // //item[@id='item0_0']: fully named, no `item` or `@id` hit
        Unaffected,
        // open_auction[2]: positional but name-safe, since a position
        // counts only `open_auction` nodes and none was cut or created
        Unaffected,
        // /site/descendant::item[3]: likewise name-safe
        Unaffected,
        // //name/following-sibling::*: lateral axis and a wildcard
        Rebuilt,
        // //quantity/..: upward axis and a node() test
        Rebuilt,
    ];
    assert_eq!(impact.classes, want, "{impact:?}");
    assert_eq!(
        (impact.unaffected, impact.repaired, impact.rebuilt),
        (8, 2, 2),
        "counts follow the classes"
    );
    // the lateral-axis and descendant-positional queries can never be
    // repaired
    let never_repair = [
        "/site/descendant::item[3]",
        "//name/following-sibling::*",
        "//quantity/..",
    ];
    for (q, (text, _)) in roster().iter().enumerate() {
        if never_repair.contains(text) {
            assert_ne!(
                impact.classes[q],
                QueryClass::Repaired,
                "{text} must not be classified repairable"
            );
        }
    }
    assert_cache_matches(&cache, &exprs, &tree, "pinned");

    // a text-only follow-up: rows never move, only strings refresh
    let log = text_log(&tree, 5, false);
    let plan = analyze(&log, &tree).unwrap();
    let effective = plan.execution_order(false, session.cancellation_neutral());
    apply_log_dyn(&mut tree, session.as_mut(), &log).unwrap();
    let impact = cache.absorb(&log, &plan, &effective, &tree).unwrap();
    assert!(impact.text_only);
    assert_eq!(impact.rebuilt, 0, "text batches never rebuild: {impact:?}");
    assert!(impact.unaffected > 0);
    assert_cache_matches(&cache, &exprs, &tree, "pinned-text");
}

// ---------------------------------------------------------------------
// Corrupted classification must be caught by the byte-identity oracle.
// ---------------------------------------------------------------------

/// Force the "unaffected" class on `//item` (strings cached), then
/// apply an edit that inserts an item at a generated position. The
/// stale cache must disagree with fresh evaluation — if it doesn't,
/// the differential harness has no teeth and this property fails.
#[test]
fn corrupted_classification_is_caught() {
    let gen = prop::ints(0usize..4);
    prop::check(
        "querycache_corrupted_classification_is_caught",
        &Config::with_cases(24),
        &gen,
        |region_idx| {
            let tree0 = docs::xmark_like(77, 64);
            let regions: Vec<NodeId> = tree0
                .ids_in_doc_order()
                .into_iter()
                .filter(|&id| {
                    matches!(tree0.kind(id), NodeKind::Element { name }
                        if ["africa", "asia", "europe", "namerica"].contains(&name.as_str()))
                })
                .collect();
            let mut tree = tree0.clone();
            let mut session: Box<dyn DynScheme> = Box::new(SchemeSession::new(Qed::new()));
            session.label_tree(&tree).unwrap();
            let mut cache = QueryCache::new();
            let expr = parse_xpath("//item").unwrap();
            let q = cache.register(&expr, true, &tree).unwrap();
            let before = cache.rows(q).to_vec();

            // corrupt: this query now always claims "unaffected"
            cache.force_unaffected(q, true);

            let log = MutationLog::from(vec![Mutation::CreateElement {
                id: LogId(0),
                name: "item".to_string(),
                place: Place::FirstChildOf(NodeRef::Node(regions[region_idx])),
            }]);
            let plan = analyze(&log, &tree).unwrap();
            let effective = plan.execution_order(false, session.cancellation_neutral());
            apply_log_dyn(&mut tree, session.as_mut(), &log).unwrap();
            let impact = cache.absorb(&log, &plan, &effective, &tree).unwrap();
            if impact.classes[q] != QueryClass::Unaffected {
                return Outcome::Fail("forced class was not honored".to_string());
            }

            // the corrupted cache must now be observably wrong
            let doc = EncodedDocument::encode(Qed::new(), &tree).unwrap();
            // oracle re-evaluation inside the corruption check
            let fresh = expr.evaluate(&doc);
            if fresh.len() != before.len() + 1 {
                return Outcome::Fail(format!(
                    "insert must grow //item: {} -> {}",
                    before.len(),
                    fresh.len()
                ));
            }
            if cache.rows(q) == fresh.as_slice() {
                return Outcome::Fail(
                    "corrupted classification went undetected: cached rows \
                     match fresh evaluation despite a skipped repair"
                        .to_string(),
                );
            }

            // un-corrupt and absorb a follow-up batch: the cache must
            // converge back to exactness via its own classification
            cache.force_unaffected(q, false);
            let log2 = text_log(&tree, 4, false);
            let plan2 = analyze(&log2, &tree).unwrap();
            let effective2 = plan2.execution_order(false, session.cancellation_neutral());
            apply_log_dyn(&mut tree, session.as_mut(), &log2).unwrap();
            // text batches keep the stale rows (by design: absorb
            // trusts prior state) — a refresh is the recovery path
            cache.absorb(&log2, &plan2, &effective2, &tree).unwrap();
            cache.refresh(&tree).unwrap();
            let doc = EncodedDocument::encode(Qed::new(), &tree).unwrap();
            // oracle re-evaluation after recovery
            let fresh = expr.evaluate(&doc);
            if cache.rows(q) != fresh.as_slice() {
                return Outcome::Fail("refresh did not restore exactness".to_string());
            }
            Outcome::Pass
        },
    );
}
