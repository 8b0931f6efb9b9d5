//! Robustness: the parser must never panic — arbitrary input either
//! parses or returns a positioned error; valid documents round-trip.
//! Runs on the hermetic `xupd-testkit` harness; 256 cases per property
//! (2048 for the mutated documents), panics are caught, shrunk and
//! reported with the reproducing seed.

use xupd_testkit::prop::{any_strings, any_u64, ints, mutate_bytes, strings, vecs, Config};
use xupd_testkit::{prop_assert, prop_assert_eq, props};
use xupd_xmldom::sample::figure1_document;
use xupd_xmldom::{parse, serialize_compact, serialize_pretty};

/// A hand-written seed that reaches the parser branches the Figure 1
/// document does not: an XML declaration, a comment, a processing
/// instruction, a CDATA section, entity and character references, and
/// attributes in both quote styles.
const HAND_SEED: &str = concat!(
    r#"<?xml version="1.0"?><!-- catalogue --><catalog kind='hand' note="a &amp; b">"#,
    r#"<?render fast?><item id="i&#49;" ref='x&quot;y'><![CDATA[x < y && z]]></item>"#,
    r#"<title>Tom &lt;&apos;s&apos;&gt; &#x41;<!--inner--></title></catalog>"#,
);

/// The valid documents the mutator starts from: the Figure 1 sample
/// serialized compact and pretty, and [`HAND_SEED`].
fn seed_documents() -> [String; 3] {
    let figure1 = figure1_document();
    [
        serialize_compact(&figure1),
        serialize_pretty(&figure1),
        HAND_SEED.to_string(),
    ]
}

props! {
    config = Config::with_cases(256);

    /// No input panics the parser.
    fn parser_never_panics(input in any_strings(0, 200)) {
        let _ = parse(&input);
    }

    /// XML-ish soup (angle brackets, quotes, entities) never panics.
    fn xmlish_soup_never_panics(input in strings("<>/=\"'&;abcdefghijklmnopqrstuvwxyz0123456789 []!?-", 0, 200)) {
        let _ = parse(&input);
    }

    /// Anything that parses also serializes and re-parses to the same
    /// compact form (idempotent normal form).
    fn parse_is_idempotent_on_its_own_output(input in strings("<>/=\"'&;abcdefghijklmnopqrstuvwxyz0123456789 ", 0, 200)) {
        if let Ok(tree) = parse(&input) {
            let out = serialize_compact(&tree);
            let again = parse(&out).expect("serializer output re-parses");
            prop_assert_eq!(serialize_compact(&again), out);
        }
    }
}

props! {
    config = Config::with_cases(2048);

    /// Hostile bytes: a valid document with a few bytes overwritten,
    /// inserted or deleted never panics the parser, and whatever it
    /// accepts serializes, re-parses and serializes to the same bytes.
    /// The edit list shrinks, so a failure reports the bytes that matter.
    fn mutated_documents_never_panic_and_round_trip(
        seed in ints(0usize..3),
        edits in vecs(any_u64(), 1, 12),
    ) {
        let mut bytes = seed_documents()[seed].clone().into_bytes();
        for e in edits {
            mutate_bytes(&mut bytes, e);
        }
        let src = String::from_utf8_lossy(&bytes).into_owned();
        if let Ok(tree) = parse(&src) {
            let out = serialize_compact(&tree);
            let again = parse(&out);
            prop_assert!(again.is_ok(), "serializer output re-parses: {}", out);
            if let Ok(again) = again {
                prop_assert_eq!(serialize_compact(&again), out);
            }
        }
    }
}

/// Every seed is valid and already round-trips, so a failure of the
/// property above comes from the mutation, not from its starting point.
#[test]
fn seed_documents_parse_and_round_trip() {
    for (k, seed) in seed_documents().iter().enumerate() {
        let tree = parse(seed).unwrap_or_else(|e| panic!("seed {k}: {e}"));
        let out = serialize_compact(&tree);
        assert_eq!(serialize_compact(&parse(&out).unwrap()), out, "seed {k}");
    }
    let hand = parse(HAND_SEED).unwrap();
    let kinds: Vec<&str> = hand.preorder().map(|n| hand.kind(n).type_tag()).collect();
    for want in ["Comment", "PI", "Attribute", "Text"] {
        assert!(kinds.contains(&want), "hand seed holds a {want}: {kinds:?}");
    }
}
