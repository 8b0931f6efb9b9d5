//! # xupd-exec — the hermetic execution substrate
//!
//! A dependency-free, unsafe-free scoped thread pool on [`std::thread`],
//! built for the one parallelism shape this workspace has: independent
//! per-scheme batteries fanned out over a fixed item list. The only
//! primitive is [`par_map`], which preserves input order in its results
//! and propagates the first panic **by input index**, not by wall-clock
//! arrival — so a parallel run fails exactly like the sequential run
//! would have. A fallible battery maps to `Result`s and collects them in
//! input order, which surfaces the lowest-index error.
//!
//! ## Determinism contract
//!
//! * Results come back in input order regardless of which worker ran
//!   what.
//! * With one worker (`XUPD_THREADS=1`, a single-CPU box, or a
//!   single-item input) the closure runs inline on the calling thread in
//!   input order — byte-for-byte the pre-pool behaviour.
//! * A panic in any closure is re-raised on the caller with the payload
//!   of the **lowest-index** panicking item; every other item still
//!   runs to completion first (workers never abandon the queue).
//!
//! Worker count comes from `XUPD_THREADS` when set (minimum 1),
//! otherwise [`std::thread::available_parallelism`]. Code outside this
//! crate must not call `std::thread::spawn` directly — lint rule R7
//! enforces pool-only concurrency.
//!
//! Besides the scoped one-shot [`par_map`], the crate provides
//! [`shard::ShardExecutor`] — long-lived workers draining per-lane FIFO
//! queues — for the document store's serialized per-shard writer lanes.

pub mod shard;

pub use shard::ShardExecutor;

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Parse a `XUPD_THREADS`-style override. `None`/unparsable/zero falls
/// back to `fallback`.
fn parse_threads(val: Option<&str>, fallback: usize) -> usize {
    match val.and_then(|v| v.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => fallback,
    }
}

/// The pool's worker count: `XUPD_THREADS` when set to a positive
/// integer, otherwise the machine's available parallelism.
pub fn worker_count() -> usize {
    let fallback = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    parse_threads(std::env::var("XUPD_THREADS").ok().as_deref(), fallback)
}

/// Apply `f` to every item, using the pool sized by [`worker_count`].
/// Results are in input order; the first (lowest-index) panic is
/// re-raised after all items ran.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_with(worker_count(), items, f)
}

/// [`par_map`] with an explicit worker count — the determinism tests
/// drive this directly so they need not mutate process environment.
pub fn par_map_with<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len());
    if workers <= 1 {
        // Sequential fast path: inline on the caller, no catch_unwind,
        // no worker threads — byte-reproduces pre-pool behaviour.
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let mut collected: Vec<(usize, std::thread::Result<R>)> = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut got: Vec<(usize, std::thread::Result<R>)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        got.push((i, catch_unwind(AssertUnwindSafe(|| f(item)))));
                    }
                    got
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(part) => collected.extend(part),
                // Workers wrap every closure call in catch_unwind, so a
                // join error is a harness bug; re-raise it as-is.
                Err(payload) => resume_unwind(payload),
            }
        }
    });
    collected.sort_by_key(|(i, _)| *i);

    let mut out = Vec::with_capacity(items.len());
    for (_, r) in collected {
        match r {
            Ok(v) => out.push(v),
            Err(payload) => resume_unwind(payload),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_input_order() {
        let items: Vec<usize> = (0..100).collect();
        for workers in [1, 2, 3, 8, 64] {
            let out = par_map_with(workers, &items, |&i| i * 2);
            assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_and_one_item_inputs() {
        let none: Vec<u32> = Vec::new();
        assert!(par_map_with(8, &none, |&i| i).is_empty());
        assert_eq!(par_map_with(8, &[7u32], |&i| i + 1), vec![8]);
    }

    #[test]
    fn more_tasks_than_workers_all_run() {
        let items: Vec<u64> = (0..257).collect();
        let ran = AtomicU64::new(0);
        let out = par_map_with(4, &items, |&i| {
            ran.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 257);
        assert_eq!(ran.load(Ordering::Relaxed), 257);
    }

    #[test]
    fn panic_propagates_lowest_index_payload() {
        let items: Vec<usize> = (0..32).collect();
        let caught = std::panic::catch_unwind(|| {
            par_map_with(4, &items, |&i| {
                if i == 20 || i == 5 {
                    panic!("boom at {i}");
                }
                i
            })
        });
        let payload = caught.expect_err("must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert_eq!(msg, "boom at 5", "lowest-index panic wins");
    }

    #[test]
    fn sequential_path_taken_for_one_worker() {
        // With one worker the closure runs on the calling thread.
        let caller = std::thread::current().id();
        let items = [0u8; 8];
        let on_caller = par_map_with(1, &items, |_| std::thread::current().id() == caller);
        assert!(on_caller.iter().all(|&b| b));
    }

    #[test]
    fn env_override_parsing() {
        assert_eq!(parse_threads(Some("4"), 9), 4);
        assert_eq!(parse_threads(Some(" 2 "), 9), 2);
        assert_eq!(parse_threads(Some("0"), 9), 9);
        assert_eq!(parse_threads(Some("nope"), 9), 9);
        assert_eq!(parse_threads(None, 9), 9);
        assert!(worker_count() >= 1);
    }
}
