//! A Cilk-Plus-style *eager* fork-join runtime: the baseline the paper
//! compares heartbeat scheduling against (§4).
//!
//! Cilk performs **initial decomposition**: every `cilk_spawn` creates a
//! task immediately, and `cilk_for` divides its range into `8P` chunks
//! up front by recursive binary splitting (the granularity heuristic the
//! paper's §4.3 discusses — the one that backfires on
//! `floyd-warshall-1K`). Task-creation cost is therefore paid on every
//! fork point of the program, independent of whether the parallelism was
//! worth manifesting; heartbeat scheduling's whole contribution is
//! making that cost proportional to elapsed time instead.
//!
//! The runtime reuses the `tpal-rt` worker pool (work-stealing deques,
//! helping joins) with heartbeats disabled, so measured differences
//! between the two systems come from the scheduling policy, not from
//! unrelated engineering.
//!
//! # Example
//!
//! ```
//! use tpal_cilk::CilkRuntime;
//!
//! let cilk = CilkRuntime::new(2);
//! let total = cilk.run(|ctx| {
//!     tpal_cilk::cilk_reduce(ctx, 0..10_000, 0i64, &|_, i, acc| acc + i as i64, &|a, b| a + b)
//! });
//! assert_eq!(total, (0..10_000i64).sum());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;
use std::time::Duration;

use tpal_rt::{HeartbeatSource, RtConfig, RtStats, Runtime, WorkerCtx};

/// The eager fork-join runtime.
pub struct CilkRuntime {
    rt: Runtime,
}

impl CilkRuntime {
    /// Creates a runtime with `workers` worker threads (heartbeats
    /// disabled: Cilk does not interrupt).
    pub fn new(workers: usize) -> CilkRuntime {
        CilkRuntime {
            rt: Runtime::new(
                RtConfig::default()
                    .workers(workers)
                    .source(HeartbeatSource::Disabled)
                    // Irrelevant under Disabled, set for clarity.
                    .heartbeat(Duration::from_micros(100)),
            ),
        }
    }

    /// Runs `f` on a worker, blocking until it completes.
    pub fn run<F, T>(&self, f: F) -> T
    where
        F: FnOnce(&WorkerCtx<'_>) -> T + Send,
        T: Send,
    {
        self.rt.run(f)
    }

    /// Instrumentation counters (`tasks_created` counts every spawn —
    /// the Figure 15a quantity for Cilk).
    pub fn stats(&self) -> RtStats {
        self.rt.stats()
    }

    /// Resets the counters between benchmark trials.
    pub fn reset_stats(&self) {
        self.rt.reset_stats()
    }

    /// The worker count `P`.
    pub fn workers(&self) -> usize {
        self.rt.workers()
    }
}

/// `cilk_spawn f(); g(); cilk_sync` — `spawned` is forked as a task
/// immediately; `cont` runs inline; both results are returned after the
/// implicit sync.
pub fn cilk_spawn2<A, B, RA, RB>(ctx: &WorkerCtx<'_>, spawned: A, cont: B) -> (RA, RB)
where
    A: FnOnce(&WorkerCtx<'_>) -> RA + Send,
    RA: Send,
    B: FnOnce(&WorkerCtx<'_>) -> RB,
{
    // tpal-rt's eager primitive forks its second argument.
    let (rb, ra) = ctx.spawn2(cont, spawned);
    (ra, rb)
}

/// The `cilk_for` grain: `max(1, n / 8P)` (Cilk Plus's loop granularity
/// heuristic, §4.3).
pub fn cilk_grain(n: usize, workers: usize) -> usize {
    (n / (8 * workers.max(1))).max(1)
}

/// `cilk_for`: eagerly divides `range` into `8P` chunks by recursive
/// binary splitting, then runs chunks serially.
pub fn cilk_for<B>(ctx: &WorkerCtx<'_>, range: Range<usize>, body: &B)
where
    B: Fn(&WorkerCtx<'_>, usize) + Sync,
{
    let grain = cilk_grain(range.len(), ctx.pool_size());
    cilk_for_grained(ctx, range, grain, body);
}

/// `cilk_for` with an explicit grain (for granularity ablations).
pub fn cilk_for_grained<B>(ctx: &WorkerCtx<'_>, range: Range<usize>, grain: usize, body: &B)
where
    B: Fn(&WorkerCtx<'_>, usize) + Sync,
{
    if range.len() <= grain.max(1) {
        for i in range {
            body(ctx, i);
        }
        return;
    }
    let mid = range.start + range.len() / 2;
    let (lo, hi) = (range.start..mid, mid..range.end);
    cilk_spawn2(
        ctx,
        move |ctx| cilk_for_grained(ctx, hi, grain, body),
        move |ctx| cilk_for_grained(ctx, lo, grain, body),
    );
}

/// A `cilk_for` with a reducer (the `reducer_opadd` pattern of §3.1):
/// chunks fold locally from `identity`; partials combine with `merge`.
pub fn cilk_reduce<T, B, M>(
    ctx: &WorkerCtx<'_>,
    range: Range<usize>,
    identity: T,
    body: &B,
    merge: &M,
) -> T
where
    T: Send + Clone,
    B: Fn(&WorkerCtx<'_>, usize, T) -> T + Sync,
    M: Fn(T, T) -> T + Sync,
{
    let grain = cilk_grain(range.len(), ctx.pool_size());
    cilk_reduce_grained(ctx, range, grain, identity, body, merge)
}

/// [`cilk_reduce`] with an explicit grain.
pub fn cilk_reduce_grained<T, B, M>(
    ctx: &WorkerCtx<'_>,
    range: Range<usize>,
    grain: usize,
    identity: T,
    body: &B,
    merge: &M,
) -> T
where
    T: Send + Clone,
    B: Fn(&WorkerCtx<'_>, usize, T) -> T + Sync,
    M: Fn(T, T) -> T + Sync,
{
    if range.len() <= grain.max(1) {
        let mut acc = identity;
        for i in range {
            acc = body(ctx, i, acc);
        }
        return acc;
    }
    let mid = range.start + range.len() / 2;
    let (lo, hi) = (range.start..mid, mid..range.end);
    let idl = identity.clone();
    let (ra, rb) = cilk_spawn2(
        ctx,
        move |ctx| cilk_reduce_grained(ctx, hi, grain, identity, body, merge),
        move |ctx| cilk_reduce_grained(ctx, lo, grain, idl, body, merge),
    );
    merge(rb, ra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn grain_heuristic() {
        assert_eq!(cilk_grain(1600, 2), 100);
        assert_eq!(cilk_grain(10, 15), 1);
        assert_eq!(cilk_grain(0, 4), 1);
    }

    #[test]
    fn spawn2_returns_both() {
        let cilk = CilkRuntime::new(2);
        let (a, b) = cilk.run(|ctx| cilk_spawn2(ctx, |_| 6, |_| 7));
        assert_eq!((a, b), (6, 7));
        assert!(cilk.stats().tasks_created >= 1);
    }

    #[test]
    fn cilk_for_covers_range() {
        let cilk = CilkRuntime::new(3);
        let n = 100_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        cilk.run(|ctx| {
            cilk_for(ctx, 0..n, &|_, i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            })
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn cilk_reduce_sums() {
        let cilk = CilkRuntime::new(2);
        let n = 1_000_000usize;
        let s =
            cilk.run(|ctx| cilk_reduce(ctx, 0..n, 0u64, &|_, i, a| a + i as u64, &|a, b| a + b));
        assert_eq!(s, (n as u64 - 1) * n as u64 / 2);
    }

    #[test]
    fn eager_task_count_follows_8p() {
        let cilk = CilkRuntime::new(2);
        cilk.reset_stats();
        cilk.run(|ctx| {
            cilk_reduce(
                ctx,
                0..100_000usize,
                0u64,
                &|_, i, a| a + i as u64,
                &|a, b| a + b,
            )
        });
        let tasks = cilk.stats().tasks_created;
        // Binary splitting to 8P=16 chunks creates 15 spawns.
        assert!(
            (10..=31).contains(&tasks),
            "expected ~15 spawns, got {tasks}"
        );
    }

    #[test]
    fn recursive_spawn_fib() {
        fn fib(ctx: &WorkerCtx<'_>, n: u64) -> u64 {
            if n < 2 {
                return n;
            }
            let (a, b) = cilk_spawn2(ctx, |ctx| fib(ctx, n - 1), |ctx| fib(ctx, n - 2));
            a + b
        }
        let cilk = CilkRuntime::new(2);
        cilk.reset_stats();
        assert_eq!(cilk.run(|ctx| fib(ctx, 20)), 6765);
        // One spawn per internal node: Cilk pays task creation everywhere.
        assert!(cilk.stats().tasks_created > 6000);
    }
}
