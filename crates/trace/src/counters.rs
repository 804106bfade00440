//! Always-on atomic scheduler counters.
//!
//! These migrated here from `tpal-rt`'s private `stats` module: the
//! cheap cumulative counters a runtime keeps even when event recording
//! is off, snapshot as [`SchedStats`]. The event layer ([`crate::event`])
//! supersedes them for anything time-resolved; the counters remain the
//! zero-configuration path the benches read between trials.

use std::sync::atomic::{AtomicU64, Ordering};

/// One worker's private scheduler counters, padded and aligned to a
/// cache line so adjacent shards never false-share. Increments are
/// single-writer in the steady state (each worker touches only its own
/// shard), making them plain relaxed read-modify-writes on an exclusive
/// line.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CounterShard {
    /// Heartbeat events that performed a promotion.
    pub promotions: AtomicU64,
    /// Tasks actually created (promoted latent calls and loop splits).
    pub tasks_created: AtomicU64,
    /// Successful steals landed by this worker (thief-side count).
    pub steals: AtomicU64,
    /// Heartbeat flags observed (serviced) at promotion points.
    pub heartbeats_serviced: AtomicU64,
}

impl CounterShard {
    fn snapshot(&self, delivered: u64) -> SchedStats {
        SchedStats {
            promotions: self.promotions.load(Ordering::Relaxed),
            tasks_created: self.tasks_created.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            heartbeats_serviced: self.heartbeats_serviced.load(Ordering::Relaxed),
            heartbeats_delivered: delivered,
        }
    }

    fn reset(&self) {
        self.promotions.store(0, Ordering::Relaxed);
        self.tasks_created.store(0, Ordering::Relaxed);
        self.steals.store(0, Ordering::Relaxed);
        self.heartbeats_serviced.store(0, Ordering::Relaxed);
    }
}

/// Per-worker sharded scheduler counters: writes go to the caller's own
/// [`CounterShard`]; reads aggregate across shards.
///
/// Heartbeat *delivery* is intentionally not here: delivery is counted
/// per worker (each delivery targets one worker's heartbeat cell), so
/// the owner passes the summed value to [`ShardedCounters::snapshot`] —
/// and must reset those per-worker cells alongside
/// [`ShardedCounters::reset`], or post-reset Fig.-10 serviced/delivered
/// ratios are computed against a stale cumulative denominator.
#[derive(Debug)]
pub struct ShardedCounters {
    shards: Box<[CounterShard]>,
}

impl ShardedCounters {
    /// Counters with one shard per worker (at least one).
    pub fn new(workers: usize) -> ShardedCounters {
        ShardedCounters {
            shards: (0..workers.max(1))
                .map(|_| CounterShard::default())
                .collect(),
        }
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Worker `id`'s private shard — the only shard that worker should
    /// ever increment.
    #[inline]
    pub fn shard(&self, id: usize) -> &CounterShard {
        &self.shards[id]
    }

    /// The aggregate snapshot: sums every shard (individual relaxed
    /// loads; exact once the workers are quiescent). `delivered` is the
    /// per-worker delivery total supplied by the owner.
    pub fn snapshot(&self, delivered: u64) -> SchedStats {
        let mut total = SchedStats {
            heartbeats_delivered: delivered,
            ..SchedStats::default()
        };
        for s in self.shards.iter() {
            total.promotions += s.promotions.load(Ordering::Relaxed);
            total.tasks_created += s.tasks_created.load(Ordering::Relaxed);
            total.steals += s.steals.load(Ordering::Relaxed);
            total.heartbeats_serviced += s.heartbeats_serviced.load(Ordering::Relaxed);
        }
        total
    }

    /// Per-shard snapshots, indexed by worker. `delivered[i]` supplies
    /// worker `i`'s delivery count (missing entries read as 0).
    pub fn per_worker(&self, delivered: &[u64]) -> Vec<SchedStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, s)| s.snapshot(delivered.get(i).copied().unwrap_or(0)))
            .collect()
    }

    /// Zeroes every shard (between benchmark trials). The owner must
    /// also reset its per-worker delivery counters — see the type-level
    /// note.
    pub fn reset(&self) {
        for s in self.shards.iter() {
            s.reset();
        }
    }
}

/// A snapshot of a runtime's scheduler counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Heartbeat events that performed a promotion.
    pub promotions: u64,
    /// Tasks actually created (promoted latent calls and loop splits) —
    /// the paper's Figure 15a quantity.
    pub tasks_created: u64,
    /// Successful steals between workers.
    pub steals: u64,
    /// Heartbeat flags observed (serviced) at promotion points.
    pub heartbeats_serviced: u64,
    /// Heartbeats delivered by the source (ping signals sent or local
    /// timer expirations) — with `heartbeats_serviced`, the Figure 10
    /// quantities.
    pub heartbeats_delivered: u64,
}

impl SchedStats {
    /// Serviced heartbeats as a fraction of delivered ones (Fig. 10's
    /// service ratio; 1.0 when nothing was delivered).
    pub fn service_ratio(&self) -> f64 {
        if self.heartbeats_delivered == 0 {
            1.0
        } else {
            self.heartbeats_serviced as f64 / self.heartbeats_delivered as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_reset_round_trip() {
        let c = ShardedCounters::new(1);
        c.shard(0).promotions.store(3, Ordering::Relaxed);
        c.shard(0).steals.store(7, Ordering::Relaxed);
        let s = c.snapshot(9);
        assert_eq!(s.promotions, 3);
        assert_eq!(s.steals, 7);
        assert_eq!(s.heartbeats_delivered, 9);
        c.reset();
        assert_eq!(c.snapshot(0), SchedStats::default());
    }

    #[test]
    fn sharded_totals_equal_flat_counters() {
        // The sharded layout must aggregate to exactly what one flat
        // counter set would have recorded for the same increments.
        let sharded = ShardedCounters::new(3);
        for (i, n) in [(0usize, 5u64), (1, 7), (2, 11)] {
            sharded.shard(i).promotions.fetch_add(n, Ordering::Relaxed);
            sharded.shard(i).steals.fetch_add(n * 2, Ordering::Relaxed);
        }
        let flat = SchedStats {
            promotions: 23,
            steals: 46,
            heartbeats_delivered: 4,
            ..SchedStats::default()
        };
        assert_eq!(sharded.snapshot(4), flat);
        let per = sharded.per_worker(&[1, 2, 1]);
        assert_eq!(per.len(), 3);
        assert_eq!(per.iter().map(|s| s.promotions).sum::<u64>(), 23);
        assert_eq!(per.iter().map(|s| s.steals).sum::<u64>(), 46);
        assert_eq!(per.iter().map(|s| s.heartbeats_delivered).sum::<u64>(), 4);
        sharded.reset();
        assert_eq!(sharded.snapshot(0), SchedStats::default());
    }

    #[test]
    fn shards_are_cache_line_aligned() {
        assert_eq!(std::mem::align_of::<CounterShard>(), 64);
        assert!(std::mem::size_of::<CounterShard>() >= 64);
        let c = ShardedCounters::new(2);
        let a = c.shard(0) as *const _ as usize;
        let b = c.shard(1) as *const _ as usize;
        assert!(b.abs_diff(a) >= 64, "adjacent shards share a line");
    }

    #[test]
    fn service_ratio_handles_zero_delivery() {
        let s = SchedStats::default();
        assert_eq!(s.service_ratio(), 1.0);
        let s = SchedStats {
            heartbeats_serviced: 3,
            heartbeats_delivered: 4,
            ..SchedStats::default()
        };
        assert!((s.service_ratio() - 0.75).abs() < 1e-12);
    }
}
