//! The four workloads and the seeded inputs they replay.
//!
//! Every workload runs QED documents from `docs::xmark_like` in a store
//! built with `StoreConfig::fleet()` (8 shards; queries `//item`,
//! `//name`, `//person`). A workload is a fixed number of independent
//! **streams**, each a set of documents plus an op stream; the seed
//! fixes every stream's content, never its shape. Fleet streams come
//! from the library's `FleetWorkload` generator, whose op mix (update
//! share, script kinds, visits to the hottest document) varies with its
//! seed; averaging over several streams keeps a run's numbers from
//! depending on which seed it drew.

use xupd_testkit::TestRng;
use xupd_workloads::{docs, FleetConfig, FleetWorkload};
use xupd_xmldom::XmlTree;

/// Seed used when `--seed` is not given (0x570e).
pub const DEFAULT_SEED: u64 = 22286;

/// Registered query classes per document (`StoreConfig::fleet()`).
pub const QUERY_CLASSES: usize = 3;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The published store mix over small documents.
    FleetSmall,
    /// The same mix over few large documents.
    FleetLarge,
    /// Almost only lane queries.
    ReadMostly,
    /// Large flux programs compiled and applied through the store.
    FluxBatch,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::FleetSmall,
        Workload::FleetLarge,
        Workload::ReadMostly,
        Workload::FluxBatch,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetSmall => "fleet-small",
            Workload::FleetLarge => "fleet-large",
            Workload::ReadMostly => "read-mostly",
            Workload::FluxBatch => "flux-batch",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generate the streams for `seed`. `full` selects the benchmark
    /// size; the reduced size keeps every code path but runs in well
    /// under a second, for the unit tests.
    pub fn streams(self, seed: u64, full: bool) -> Vec<Stream> {
        let mut rng = TestRng::seed_from_u64(seed ^ 0x0b5e_55ed);
        let (count, doc_scale, shape) = match self {
            Workload::FleetSmall => (12, 40, FleetConfig::bench(0)),
            Workload::FleetLarge => (
                8,
                1200,
                FleetConfig {
                    docs: 16,
                    sessions: 16,
                    visits_per_session: 3,
                    ..FleetConfig::bench(0)
                },
            ),
            Workload::ReadMostly => (
                8,
                40,
                FleetConfig {
                    update_fraction: 0.02,
                    ops_per_visit: 48,
                    visits_per_session: 48,
                    ..FleetConfig::bench(0)
                },
            ),
            Workload::FluxBatch => {
                let (docs, rounds, doc_scale) = if full { (8, 40, 600) } else { (2, 4, 60) };
                let count = if full { 4 } else { 2 };
                return (0..count)
                    .map(|_| flux_stream(&mut rng, docs, rounds, doc_scale))
                    .collect();
            }
        };
        let (count, doc_scale, shape) = if full {
            (count, doc_scale, shape)
        } else {
            let shape = FleetConfig {
                docs: shape.docs.min(6),
                sessions: 4,
                visits_per_session: 3,
                ..shape
            };
            (2, doc_scale.min(60), shape)
        };
        (0..count)
            .map(|_| {
                let cfg = FleetConfig {
                    seed: rng.next_u64(),
                    ..shape
                };
                Stream {
                    doc_seeds: (0..cfg.docs).map(|_| rng.next_u64()).collect(),
                    doc_scale,
                    recipe: Recipe::Fleet(cfg),
                }
            })
            .collect()
    }
}

/// How a stream's ops are made.
#[derive(Debug, Clone)]
pub enum Recipe {
    /// `FleetWorkload::generate` of this config.
    Fleet(FleetConfig),
    /// `programs[round][doc]`: each round updates every document with
    /// its flux program, then serves every query class on it.
    Flux(Vec<Vec<String>>),
}

/// A stream's ops, ready to replay.
pub enum Ops<'a> {
    /// A canonical fleet op stream (open / query / update / close).
    Fleet(FleetWorkload),
    /// See [`Recipe::Flux`].
    Flux(&'a [Vec<String>]),
}

/// One stream: documents plus the ops replayed against them. Both are
/// generated again for every repetition, so only one stream's inputs
/// are in memory at a time; documents are part of the measured set-up,
/// ops are not.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Seed of each document; document ids are the indices.
    pub doc_seeds: Vec<u64>,
    /// `xmark_like` scale of every document.
    pub doc_scale: usize,
    /// How the ops are made.
    pub recipe: Recipe,
}

impl Stream {
    /// Generate the documents.
    pub fn documents(&self) -> Vec<XmlTree> {
        self.doc_seeds
            .iter()
            .map(|&s| docs::xmark_like(s, self.doc_scale))
            .collect()
    }

    /// Generate the ops.
    pub fn ops(&self) -> Ops<'_> {
        match &self.recipe {
            Recipe::Fleet(cfg) => Ops::Fleet(FleetWorkload::generate(*cfg)),
            Recipe::Flux(programs) => Ops::Flux(programs),
        }
    }
}

/// A flux stream. Each round gives every document one program from
/// four `for … do … end` templates — two that insert structure, two
/// text-only rewrites — in rotation, so every seed applies each
/// template equally often; the seed picks the rotation, the region and
/// the values.
fn flux_stream(rng: &mut TestRng, docs: usize, rounds: usize, doc_scale: usize) -> Stream {
    const REGIONS: [&str; 4] = ["africa", "asia", "europe", "namerica"];
    let doc_seeds: Vec<u64> = (0..docs).map(|_| rng.next_u64()).collect();
    let offset = rng.gen_range(0..4usize);
    let programs = (0..rounds)
        .map(|round| {
            (0..docs)
                .map(|doc| {
                    let v = rng.next_u64() % 100_000;
                    match (round + doc + offset) % 4 {
                        0 => format!(
                            "for /site/people/person do insert <watch>w{round}-{v}</watch> into . end"
                        ),
                        1 => {
                            let region = REGIONS[rng.gen_range(0..REGIONS.len())];
                            format!(
                                "for /site/regions/{region}/item do \
                                 insert <bid>b{round}-{v}</bid> first into ./description end"
                            )
                        }
                        2 => format!(
                            "for /site/regions/*/item do set ./quantity/text() to \"{round}-{v}\" end"
                        ),
                        _ => format!(
                            "for /site/open_auctions/open_auction do \
                             set ./initial/text() to \"{round}.{v}\" end"
                        ),
                    }
                })
                .collect()
        })
        .collect();
    Stream {
        doc_seeds,
        doc_scale,
        recipe: Recipe::Flux(programs),
    }
}
