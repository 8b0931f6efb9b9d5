//! # xupd-store — a sharded concurrent document store
//!
//! The paper's update mechanisms are judged per document; this crate
//! scales them to a *fleet*: thousands of
//! [`Document`](xupd_framework::Document)s behind one [`Store`], hash-partitioned across shards, written through
//! serialized per-shard lanes and read through snapshot-isolated
//! per-document read locks.
//!
//! * [`store`] — the [`Store`] itself: deterministic `splitmix64`
//!   placement, per-document `RwLock` slots, the lane write API
//!   (validated [`MutationLog`](xupd_framework::MutationLog) batches
//!   through the analyzed apply path, cache-maintained queries), the
//!   non-blocking [`Store::query_now`] read path, and the byte-stable
//!   [`Store::state_dump`] the differential suite compares;
//! * [`replay`] — execution of a [`FleetWorkload`](xupd_workloads::FleetWorkload)
//!   against a store: [`replay_reference`] (the sequential spec
//!   executor) and [`replay_concurrent`] (per-shard writer lanes grouped
//!   onto the [`xupd_exec`] pool), plus per-op-class latency histograms
//!   and the modelled-makespan scaling figure.
//!
//! **Determinism contract.** Final store state is a fold of each
//! document's canonical op subsequence. Placement is deterministic,
//! a lane runs its ops in stream order, and one lane owns all of a
//! document's ops — so the state dump is byte-identical at any
//! `XUPD_THREADS`. Timing (histograms, wall/busy nanoseconds) is
//! measurement, never state.

pub mod replay;
pub mod store;

pub use replay::{replay_concurrent, replay_reference, LaneMetrics, OpClass, ReplayReport};
pub use store::{DocSlot, DocStats, Store, StoreConfig, StoreError};
