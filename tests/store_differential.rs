//! Store differential suite: the concurrent sharded replay must leave
//! the fleet in **byte-identical** state to the sequential reference
//! executor, at every worker width, for every scheme in the roster.
//!
//! This is the store-level analogue of the cross-scheme differential:
//! the canonical op stream fixes each document's op subsequence, a lane
//! runs its ops in stream order, placement is deterministic — so
//! `Store::state_dump`
//! (serialized document bytes + per-document stats + cache counters)
//! must not depend on `XUPD_THREADS` at all. The reference dumps are
//! also pinned by digest, so a change to the write path that moves any
//! scheme's final state fails here even when it moves every width alike.

use xml_update_props::labelcore::LabelingScheme;
use xml_update_props::schemes::containment::accel::XPathAccelerator;
use xml_update_props::schemes::prefix::dewey::DeweyId;
use xml_update_props::schemes::prefix::qed::Qed;
use xml_update_props::schemes::vector::VectorScheme;
use xml_update_props::store::{replay_concurrent, replay_reference, Store, StoreConfig};
use xml_update_props::workloads::{docs, FleetConfig, FleetWorkload};
use xml_update_props::xmldom::XmlTree;

/// The widths the suite pins: inline, small, oversubscribed.
const WIDTHS: [usize; 3] = [1, 2, 8];

/// FNV-1a digest of each scheme's reference `state_dump` for the fleet
/// [`assert_width_invariant`] replays, in roster order.
const PINNED_DIGESTS: [(&str, u64); 17] = [
    ("XPath Accelerator", 0x5abf_8866_570a_ff3c),
    ("XRel", 0x75af_34d8_62c2_f198),
    ("Sector", 0x80c4_300d_c9f6_60e9),
    ("QRS", 0x0f71_d9ec_53b1_8533),
    ("DeweyID", 0x11d8_3997_f01a_f5b9),
    ("Ordpath", 0x6d98_92e3_36ab_ecd9),
    ("DLN", 0x1e8f_a17e_317d_b3ad),
    ("LSDX", 0x6d98_92e3_36ab_ecd9),
    ("ImprovedBinary", 0x6d98_92e3_36ab_ecd9),
    ("QED", 0x6d98_92e3_36ab_ecd9),
    ("CDQS", 0x6d98_92e3_36ab_ecd9),
    ("Vector", 0x6d98_92e3_36ab_ecd9),
    ("CDBS", 0x57e4_a934_27c3_a14b),
    ("Com-D", 0x6d98_92e3_36ab_ecd9),
    ("Prime", 0x6d98_92e3_36ab_ecd9),
    ("DDE", 0x6d98_92e3_36ab_ecd9),
    ("QED∘Containment", 0x6d98_92e3_36ab_ecd9),
];

fn fleet_trees(n: usize) -> Vec<XmlTree> {
    (0..n as u64).map(|i| docs::xmark_like(i, 35)).collect()
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Replay the same seeded fleet against fresh stores at every width and
/// diff the full state dump against the reference executor's, which is
/// returned.
fn assert_width_invariant<S>(scheme: S, label: &str) -> String
where
    S: LabelingScheme + Clone + 'static,
    Store<S>: Sync,
{
    let fleet = FleetWorkload::generate(FleetConfig::small(0xD1FF));
    let trees = fleet_trees(fleet.config.docs);
    let mut cfg = StoreConfig::fleet();
    cfg.shards = 6;

    let reference = Store::build(&scheme, &cfg, &trees).unwrap();
    let ref_report = replay_reference(&reference, &fleet);
    let expected = reference.state_dump();
    assert!(
        expected.lines().filter(|l| l.starts_with("doc ")).count() == fleet.config.docs,
        "{label}: dump covers the whole fleet"
    );

    for workers in WIDTHS {
        let store = Store::build(&scheme, &cfg, &trees).unwrap();
        let report = replay_concurrent(&store, &fleet, workers);
        let dump = store.state_dump();
        assert_eq!(
            dump, expected,
            "{label}: state diverged from reference at {workers} workers"
        );
        assert_eq!(
            report.total_ops() as usize,
            fleet.ops.len(),
            "{label}: every op executed at {workers} workers"
        );
    }
    assert_eq!(ref_report.total_ops() as usize, fleet.ops.len());
    expected
}

#[test]
fn qed_fleet_state_is_width_invariant() {
    assert_width_invariant(Qed::new(), "QED");
}

#[test]
fn dewey_fleet_state_is_width_invariant() {
    assert_width_invariant(DeweyId::new(), "DeweyID");
}

#[test]
fn accel_fleet_state_is_width_invariant() {
    assert_width_invariant(XPathAccelerator::new(), "XPathAccelerator");
}

#[test]
fn vector_fleet_state_is_width_invariant() {
    assert_width_invariant(VectorScheme::new(), "Vector");
}

/// A roster scheme's name and a run that checks its width invariance
/// and returns the digest of its reference dump.
type Runner = (&'static str, fn() -> u64);

/// One [`Runner`] per roster scheme.
macro_rules! roster_runners {
    ($($ty:ty),+ $(,)?) => {
        vec![$((
            <$ty>::new().descriptor().name,
            (|| {
                let name = <$ty>::new().descriptor().name;
                fnv1a(assert_width_invariant(<$ty>::new(), name).as_bytes())
            }) as fn() -> u64,
        )),+]
    };
}

/// Every scheme in the roster is width-invariant on the fleet, and its
/// reference state matches the pinned digest.
#[test]
fn every_scheme_fleet_state_is_width_invariant_and_pinned() {
    let runners: Vec<Runner> = xupd_schemes::with_scheme_roster!(all, roster_runners);
    let digests = xml_update_props::exec::par_map(&runners, |(name, run)| (*name, run()));
    let render = |rows: &[(&str, u64)]| -> Vec<String> {
        rows.iter().map(|(n, d)| format!("{n} {d:#018x}")).collect()
    };
    assert_eq!(render(&digests), render(&PINNED_DIGESTS));
}

/// Two identically seeded concurrent replays agree with each other,
/// not just with the reference — no hidden ambient state.
#[test]
fn repeated_concurrent_replays_are_byte_identical() {
    let fleet = FleetWorkload::generate(FleetConfig::small(7));
    let trees = fleet_trees(fleet.config.docs);
    let cfg = StoreConfig::fleet();
    let dump_at = |workers: usize| {
        let store = Store::build(&Qed::new(), &cfg, &trees).unwrap();
        replay_concurrent(&store, &fleet, workers);
        store.state_dump()
    };
    let first = dump_at(8);
    assert_eq!(first, dump_at(8), "same width, same bytes");
    assert_eq!(first, dump_at(2), "different width, same bytes");
}

/// The dump carries real update effects: batches landed, queries were
/// served, documents grew — the differential is not comparing empty
/// stores.
#[test]
fn fleet_replay_actually_exercises_the_store() {
    let fleet = FleetWorkload::generate(FleetConfig::small(5));
    let trees = fleet_trees(fleet.config.docs);
    let store = Store::build(&Qed::new(), &StoreConfig::fleet(), &trees).unwrap();
    replay_reference(&store, &fleet);

    let mut batches = 0u64;
    let mut queries = 0u64;
    let mut grew = 0usize;
    store.for_each_doc(|id, slot| {
        let s = slot.stats();
        batches += s.batches;
        queries += s.queries;
        assert_eq!(
            s.errors, 0,
            "doc {id}: no rejected ops in a generated fleet"
        );
        if slot.doc().tree().len() > trees[id as usize].len() {
            grew += 1;
        }
    });
    let counts = fleet.class_counts();
    assert_eq!(batches as usize, counts["update"]);
    assert_eq!(queries as usize, counts["query"]);
    assert!(grew > 0, "insert-heavy scripts grew at least one document");
}
