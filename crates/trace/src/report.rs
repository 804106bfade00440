//! Paper-figure metrics computed from a recorded trace.
//!
//! [`MetricsReport`] folds one pass over a [`Trace`] into the quantities
//! the paper's evaluation plots: scheduling-overhead fraction (the
//! Fig. 8 polling-overhead axis), delivered-versus-serviced heartbeat
//! rates (Fig. 10), task counts (Fig. 15a), and per-core plus total
//! utilization. [`activity_buckets`] folds the same spans per core and
//! per fixed-width time bucket — the run's activity over time, Figure
//! 12's steady-versus-unsteady picture. Everything derives from the
//! same event stream the Chrome backend renders, so numbers and trace
//! pictures can't drift apart.

use std::fmt::Write as _;

use crate::event::{EventKind, OverheadKind, Trace};

/// Per-core activity totals, in trace time units.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreActivity {
    /// Cycles spent executing task instructions.
    pub work: u64,
    /// Cycles charged to scheduling (fork/steal/join/interrupt).
    pub overhead: u64,
    /// Cycles with nothing to run.
    pub idle: u64,
}

impl CoreActivity {
    /// Total accounted cycles.
    pub fn total(&self) -> u64 {
        self.work + self.overhead + self.idle
    }

    /// Fraction of accounted cycles doing useful work (0 when empty).
    pub fn utilization(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.work as f64 / total as f64
        }
    }
}

/// The trace's activity spans, bucketed per core: `buckets[core][i]`
/// sums what the core did in `[i·bucket, (i+1)·bucket)`, a bucket of 0
/// counting as 1. Spans are charged exactly as the cycle-tick reference
/// simulator charges them live: a work span split at bucket edges (one
/// cycle at a time), overhead and idle whole to the bucket holding
/// their start — for an idle span of `k` steal retries, each retry to
/// the bucket holding *its* start, so a settled retry chain costs
/// O(buckets it spans), not O(retries). A row ends at the last bucket
/// charged; a zero-cycle charge still reaches its bucket.
pub fn activity_buckets(trace: &Trace, bucket: u64) -> Vec<Vec<CoreActivity>> {
    let bucket = bucket.max(1);
    // The bucket holding time `t`, grown into the row on first use.
    fn at(row: &mut Vec<CoreActivity>, bucket: u64, t: u64) -> &mut CoreActivity {
        let idx = (t / bucket) as usize;
        if row.len() <= idx {
            row.resize(idx + 1, CoreActivity::default());
        }
        &mut row[idx]
    }
    // Cycles from `t` up to the next bucket edge.
    let to_edge = |t: u64| (t / bucket + 1) * bucket - t;
    let mut rows = vec![Vec::new(); trace.tracks.len()];
    for (row, track) in rows.iter_mut().zip(&trace.tracks) {
        for e in &track.events {
            match e.kind {
                EventKind::Work { .. } => {
                    let (mut t, mut left) = (e.ts, e.dur);
                    while left > 0 {
                        let n = left.min(to_edge(t));
                        at(row, bucket, t).work += n;
                        t += n;
                        left -= n;
                    }
                }
                EventKind::Overhead { .. } => at(row, bucket, e.ts).overhead += e.dur,
                EventKind::Idle { retries: 0 } => at(row, bucket, e.ts).idle += e.dur,
                EventKind::Idle { retries } => {
                    let cost = e.dur / retries;
                    let (mut t, mut left) = (e.ts, retries);
                    while left > 0 {
                        // The retries that start before the edge: at
                        // cost 0, all of them.
                        let n = if cost == 0 {
                            left
                        } else {
                            to_edge(t).div_ceil(cost).min(left)
                        };
                        at(row, bucket, t).idle += n * cost;
                        t += n * cost;
                        left -= n;
                    }
                }
                _ => {}
            }
        }
    }
    rows
}

/// A summary of one recorded run in paper-figure terms.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsReport {
    /// Trace time unit (`"cycles"` / `"ticks"`).
    pub time_unit: &'static str,
    /// Heartbeat interval ♥ of the run (0 if disabled).
    pub heartbeat: u64,
    /// Scheduling-policy label of the run (empty if untagged), so
    /// side-by-side reports attribute overhead per policy.
    pub policy: String,
    /// Heartbeat-delivery-source label of the run (empty if untagged),
    /// so per-backend overhead comparisons carry their provenance.
    pub source: String,
    /// End of the last recorded event.
    pub makespan: u64,
    /// Activity totals per core, indexed like `trace.tracks`.
    pub per_core: Vec<CoreActivity>,
    /// Successful steals landed per core (thief side), indexed like
    /// `trace.tracks`. Sums to [`MetricsReport::steals`] — on the native
    /// runtime this mirrors the per-worker counter shards, keeping the
    /// sharded counters observable end-to-end.
    pub per_core_steals: Vec<u64>,
    /// Promotions performed per core, indexed like `trace.tracks`.
    /// Sums to [`MetricsReport::promotions`].
    pub per_core_promotions: Vec<u64>,
    /// Overhead cycles broken down by [`OverheadKind`], indexed
    /// Fork/Steal/Join/Interrupt.
    pub overhead_by_kind: [u64; 4],
    /// Tasks created (spawn events) — Fig. 15a.
    pub tasks_created: u64,
    /// Promotions performed at serviced heartbeats.
    pub promotions: u64,
    /// Heartbeats delivered to cores — Fig. 10 numerator's denominator.
    pub heartbeats_delivered: u64,
    /// Heartbeats observed at promotion-ready points — Fig. 10.
    pub heartbeats_serviced: u64,
    /// Successful steals.
    pub steals: u64,
    /// Failed steal attempts (the sum of `Idle.retries`).
    pub failed_steals: u64,
    /// Join stashes (first arrivals).
    pub join_stashes: u64,
    /// Join merges (second arrivals).
    pub join_merges: u64,
    /// Joins that carried straight on (no outstanding partner).
    pub join_continues: u64,
    /// Detached (free-running) tasks spawned.
    pub detaches: u64,
    /// Channel pushes.
    pub chan_pushes: u64,
    /// Channel pops.
    pub chan_pops: u64,
    /// Times a task parked on a full (push) or empty (pop) channel.
    pub chan_blocks: u64,
    /// Parked tasks made runnable again by a channel operation.
    pub chan_wakes: u64,
    /// Per-channel peak occupancy `(channel id, max items in flight)`,
    /// folded causally from push/pop events and sorted by channel id —
    /// the streaming analogue of Fig. 15a's task counts: how much
    /// buffering each pipeline edge actually used.
    pub chan_max_occupancy: Vec<(u32, u64)>,
}

impl MetricsReport {
    /// Computes the report in one pass over `trace`, plus a sort of its
    /// channel pushes and pops.
    pub fn from_trace(trace: &Trace) -> MetricsReport {
        let mut r = MetricsReport {
            time_unit: trace.time_unit,
            heartbeat: trace.heartbeat,
            policy: trace.policy.clone(),
            source: trace.source.clone(),
            makespan: 0,
            per_core: vec![CoreActivity::default(); trace.tracks.len()],
            per_core_steals: vec![0; trace.tracks.len()],
            per_core_promotions: vec![0; trace.tracks.len()],
            overhead_by_kind: [0; 4],
            tasks_created: 0,
            promotions: 0,
            heartbeats_delivered: 0,
            heartbeats_serviced: 0,
            steals: 0,
            failed_steals: 0,
            join_stashes: 0,
            join_merges: 0,
            join_continues: 0,
            detaches: 0,
            chan_pushes: 0,
            chan_pops: 0,
            chan_blocks: 0,
            chan_wakes: 0,
            chan_max_occupancy: Vec::new(),
        };
        // Pushes and pops as `(seq, channel, push)`: occupancy needs them
        // in the run's causal order, since one channel's pushes and pops
        // interleave across cores.
        let mut traffic: Vec<(u64, u32, bool)> = Vec::new();
        for (core, track) in trace.tracks.iter().enumerate() {
            for e in &track.events {
                r.makespan = r.makespan.max(e.ts + e.dur);
                match e.kind {
                    EventKind::Work { .. } => r.per_core[core].work += e.dur,
                    EventKind::Overhead { what } => {
                        r.per_core[core].overhead += e.dur;
                        r.overhead_by_kind[what as usize] += e.dur;
                    }
                    EventKind::Idle { retries } => {
                        r.per_core[core].idle += e.dur;
                        r.failed_steals += retries;
                    }
                    EventKind::TaskSpawn { .. } => r.tasks_created += 1,
                    EventKind::TaskPromote { .. } => {
                        r.promotions += 1;
                        r.per_core_promotions[core] += 1;
                    }
                    EventKind::HeartbeatDelivered => r.heartbeats_delivered += 1,
                    EventKind::HeartbeatServiced => r.heartbeats_serviced += 1,
                    EventKind::Steal { .. } => {
                        r.steals += 1;
                        r.per_core_steals[core] += 1;
                    }
                    EventKind::JoinStash { .. } => r.join_stashes += 1,
                    EventKind::JoinMerge { .. } => r.join_merges += 1,
                    EventKind::JoinContinue { .. } => r.join_continues += 1,
                    EventKind::TaskDetach { .. } => r.detaches += 1,
                    EventKind::ChanPush { ch, .. } => {
                        r.chan_pushes += 1;
                        traffic.push((e.seq, ch, true));
                    }
                    EventKind::ChanPop { ch, .. } => {
                        r.chan_pops += 1;
                        traffic.push((e.seq, ch, false));
                    }
                    EventKind::ChanBlock { .. } => r.chan_blocks += 1,
                    EventKind::ChanResume { .. } => r.chan_wakes += 1,
                    EventKind::TaskEnd { .. } | EventKind::ChanClose { .. } => {}
                }
            }
        }
        if !traffic.is_empty() {
            traffic.sort_unstable_by_key(|&(seq, ..)| seq);
            let mut occ: std::collections::BTreeMap<u32, (u64, u64)> = Default::default();
            for (_, ch, push) in traffic {
                let slot = occ.entry(ch).or_insert((0, 0));
                if push {
                    slot.0 += 1;
                    slot.1 = slot.1.max(slot.0);
                } else {
                    slot.0 = slot.0.saturating_sub(1);
                }
            }
            r.chan_max_occupancy = occ.into_iter().map(|(ch, (_, max))| (ch, max)).collect();
        }
        r
    }

    /// Summed activity across all cores.
    pub fn totals(&self) -> CoreActivity {
        let mut t = CoreActivity::default();
        for c in &self.per_core {
            t.work += c.work;
            t.overhead += c.overhead;
            t.idle += c.idle;
        }
        t
    }

    /// Machine utilization: work cycles over all accounted cycles.
    pub fn utilization(&self) -> f64 {
        self.totals().utilization()
    }

    /// Scheduling overhead as a fraction of work + overhead cycles —
    /// the Fig. 8 overhead axis (idle excluded: it measures load
    /// imbalance, not scheduling cost).
    pub fn overhead_fraction(&self) -> f64 {
        let t = self.totals();
        let busy = t.work + t.overhead;
        if busy == 0 {
            0.0
        } else {
            t.overhead as f64 / busy as f64
        }
    }

    /// Heartbeats delivered per core per ♥ interval of makespan — 1.0
    /// means the nominal delivery rate was achieved (Fig. 10's
    /// delivered axis, normalized).
    pub fn delivered_rate_achieved(&self) -> f64 {
        if self.heartbeat == 0 || self.makespan == 0 || self.per_core.is_empty() {
            return 0.0;
        }
        let expected = (self.makespan as f64 / self.heartbeat as f64) * self.per_core.len() as f64;
        self.heartbeats_delivered as f64 / expected
    }

    /// Serviced heartbeats as a fraction of delivered ones (Fig. 10's
    /// serviced axis; 1.0 when nothing was delivered).
    pub fn service_ratio(&self) -> f64 {
        if self.heartbeats_delivered == 0 {
            1.0
        } else {
            self.heartbeats_serviced as f64 / self.heartbeats_delivered as f64
        }
    }

    /// A plain-text rendering (the `--profile` / bench-report output).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let t = self.totals();
        let policy = if self.policy.is_empty() {
            String::new()
        } else {
            format!(", policy {}", self.policy)
        };
        let source = if self.source.is_empty() {
            String::new()
        } else {
            format!(", source {}", self.source)
        };
        let _ = writeln!(
            s,
            "trace metrics ({} cores, makespan {} {}, heartbeat {}{policy}{source})",
            self.per_core.len(),
            self.makespan,
            self.time_unit,
            self.heartbeat
        );
        let _ = writeln!(
            s,
            "  activity: work {} / overhead {} / idle {}  (utilization {:.1}%, overhead {:.2}%)",
            t.work,
            t.overhead,
            t.idle,
            100.0 * self.utilization(),
            100.0 * self.overhead_fraction()
        );
        let _ = writeln!(
            s,
            "  overhead by kind: fork {} / steal {} / join {} / interrupt {}",
            self.overhead_by_kind[OverheadKind::Fork as usize],
            self.overhead_by_kind[OverheadKind::Steal as usize],
            self.overhead_by_kind[OverheadKind::Join as usize],
            self.overhead_by_kind[OverheadKind::Interrupt as usize],
        );
        let _ = writeln!(
            s,
            "  heartbeats: delivered {} ({:.2}x nominal), serviced {} (ratio {:.2})",
            self.heartbeats_delivered,
            self.delivered_rate_achieved(),
            self.heartbeats_serviced,
            self.service_ratio()
        );
        let _ = writeln!(
            s,
            "  tasks: created {} / promotions {} / steals {} (failed {}) / join stash {} merge {} continue {}",
            self.tasks_created,
            self.promotions,
            self.steals,
            self.failed_steals,
            self.join_stashes,
            self.join_merges,
            self.join_continues
        );
        if self.detaches + self.chan_pushes + self.chan_pops > 0 {
            let _ = writeln!(
                s,
                "  channels: detached {} / pushes {} / pops {} / blocks {} / wakes {}",
                self.detaches, self.chan_pushes, self.chan_pops, self.chan_blocks, self.chan_wakes
            );
            for (ch, max) in &self.chan_max_occupancy {
                let _ = writeln!(s, "  channel {ch}: peak occupancy {max}");
            }
        }
        for (i, c) in self.per_core.iter().enumerate() {
            let _ = writeln!(
                s,
                "  core {i}: work {} / overhead {} / idle {}  ({:.1}%)  steals {} promotions {}",
                c.work,
                c.overhead,
                c.idle,
                100.0 * c.utilization(),
                self.per_core_steals[i],
                self.per_core_promotions[i]
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceBuilder;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new(2, "cycles", 10);
        b.record(0, 0, 30, EventKind::Work { task: 0 });
        b.record(0, 30, 0, EventKind::HeartbeatDelivered);
        b.record(0, 30, 0, EventKind::HeartbeatServiced);
        b.record(0, 30, 0, EventKind::TaskPromote { task: 0 });
        b.record(
            0,
            30,
            0,
            EventKind::TaskSpawn {
                parent: 0,
                child: 1,
            },
        );
        b.record(
            0,
            30,
            4,
            EventKind::Overhead {
                what: OverheadKind::Fork,
            },
        );
        b.record(1, 0, 34, EventKind::Idle { retries: 2 });
        b.record(1, 34, 0, EventKind::Steal { victim: 0 });
        b.record(
            1,
            34,
            2,
            EventKind::Overhead {
                what: OverheadKind::Steal,
            },
        );
        b.record(1, 36, 4, EventKind::Work { task: 1 });
        b.record(0, 34, 6, EventKind::Work { task: 0 });
        b.record(0, 40, 0, EventKind::HeartbeatDelivered);
        b.record(0, 40, 0, EventKind::TaskEnd { task: 0 });
        b.finish()
    }

    #[test]
    fn counts_and_activity_fold_correctly() {
        let r = MetricsReport::from_trace(&sample());
        assert_eq!(r.makespan, 40);
        assert_eq!(
            r.per_core[0],
            CoreActivity {
                work: 36,
                overhead: 4,
                idle: 0
            }
        );
        assert_eq!(
            r.per_core[1],
            CoreActivity {
                work: 4,
                overhead: 2,
                idle: 34
            }
        );
        assert_eq!(r.overhead_by_kind, [4, 2, 0, 0]);
        assert_eq!(r.tasks_created, 1);
        assert_eq!(r.promotions, 1);
        assert_eq!(r.heartbeats_delivered, 2);
        assert_eq!(r.heartbeats_serviced, 1);
        assert_eq!(r.steals, 1);
        assert_eq!(r.failed_steals, 2);
        assert_eq!(r.per_core_steals, vec![0, 1]);
        assert_eq!(r.per_core_promotions, vec![1, 0]);
        assert_eq!(r.per_core_steals.iter().sum::<u64>(), r.steals);
        assert_eq!(r.per_core_promotions.iter().sum::<u64>(), r.promotions);
        assert_eq!(r.totals().total(), 80);
        assert!((r.utilization() - 0.5).abs() < 1e-12);
        assert!((r.overhead_fraction() - 6.0 / 46.0).abs() < 1e-12);
        assert!((r.service_ratio() - 0.5).abs() < 1e-12);
        // 2 delivered vs expected 40/10 * 2 cores = 8 -> 0.25.
        assert!((r.delivered_rate_achieved() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_yields_neutral_ratios() {
        let r = MetricsReport::from_trace(&TraceBuilder::new(1, "cycles", 0).finish());
        assert_eq!(r.utilization(), 0.0);
        assert_eq!(r.overhead_fraction(), 0.0);
        assert_eq!(r.service_ratio(), 1.0);
        assert_eq!(r.delivered_rate_achieved(), 0.0);
    }

    #[test]
    fn render_mentions_key_quantities() {
        let text = MetricsReport::from_trace(&sample()).render();
        assert!(text.contains("utilization 50.0%"));
        assert!(text.contains("serviced 1"));
        assert!(text.contains("steals 1 (failed 2)"), "{text}");
        assert!(text.contains("core 1:"));
        assert!(!text.contains("policy"), "untagged traces omit the field");
        assert!(!text.contains("source"), "untagged traces omit the field");
    }

    #[test]
    fn channel_metrics_fold_and_render() {
        let mut b = TraceBuilder::new(2, "cycles", 10);
        b.record(
            0,
            0,
            0,
            EventKind::TaskDetach {
                parent: 0,
                child: 1,
            },
        );
        b.record(1, 1, 0, EventKind::ChanPush { ch: 1, task: 1 });
        b.record(1, 2, 0, EventKind::ChanPush { ch: 1, task: 1 });
        b.record(
            1,
            3,
            0,
            EventKind::ChanBlock {
                ch: 1,
                task: 1,
                push: true,
            },
        );
        b.record(0, 4, 0, EventKind::ChanPop { ch: 1, task: 0 });
        b.record(0, 4, 0, EventKind::ChanResume { ch: 1, task: 1 });
        b.record(0, 5, 0, EventKind::ChanPop { ch: 1, task: 0 });
        b.record(1, 6, 0, EventKind::ChanClose { ch: 1, task: 1 });
        let r = MetricsReport::from_trace(&b.finish());
        assert_eq!(r.detaches, 1);
        assert_eq!(r.chan_pushes, 2);
        assert_eq!(r.chan_pops, 2);
        assert_eq!(r.chan_blocks, 1);
        assert_eq!(r.chan_wakes, 1);
        // Two pushes land (causally) before the first pop: peak 2.
        assert_eq!(r.chan_max_occupancy, vec![(1, 2)]);
        let text = r.render();
        assert!(text.contains("pushes 2"), "{text}");
        assert!(text.contains("channel 1: peak occupancy 2"), "{text}");
    }

    #[test]
    fn fork_join_reports_omit_channel_lines() {
        let text = MetricsReport::from_trace(&sample()).render();
        assert!(!text.contains("channels:"), "{text}");
    }

    #[test]
    fn render_attributes_policy_when_tagged() {
        let trace = TraceBuilder::new(1, "cycles", 10)
            .policy("eager/uniform")
            .finish();
        let r = MetricsReport::from_trace(&trace);
        assert_eq!(r.policy, "eager/uniform");
        assert!(r.render().contains("policy eager/uniform"));
    }

    #[test]
    fn render_attributes_source_when_tagged() {
        let trace = TraceBuilder::new(1, "cycles", 10)
            .source("timer-signal")
            .finish();
        let r = MetricsReport::from_trace(&trace);
        assert_eq!(r.source, "timer-signal");
        assert!(r.render().contains("source timer-signal"));
    }

    /// The bucket holding time `t`, as the cycle-tick reference
    /// simulator charges it live: the per-step oracle the fold must equal.
    fn charge(row: &mut Vec<CoreActivity>, bucket: u64, t: u64) -> &mut CoreActivity {
        let idx = (t / bucket) as usize;
        if row.len() <= idx {
            row.resize(idx + 1, CoreActivity::default());
        }
        &mut row[idx]
    }

    fn one_span(ts: u64, dur: u64, kind: EventKind) -> Trace {
        let mut b = TraceBuilder::new(1, "cycles", 0);
        b.record(0, ts, dur, kind);
        b.finish()
    }

    #[test]
    fn buckets_accumulate() {
        let mut b = TraceBuilder::new(2, "cycles", 0);
        b.record(0, 0, 80, EventKind::Work { task: 0 });
        b.record(0, 50, 20, EventKind::Idle { retries: 0 });
        let steal = EventKind::Overhead {
            what: OverheadKind::Steal,
        };
        b.record(1, 150, 10, steal);
        let t = activity_buckets(&b.finish(), 100);
        assert_eq!(t[0].len(), 1);
        assert_eq!((t[0][0].work, t[0][0].overhead, t[0][0].idle), (80, 0, 20));
        assert_eq!(t[1].len(), 2);
        assert_eq!(t[1][0], CoreActivity::default());
        assert_eq!((t[1][1].work, t[1][1].overhead, t[1][1].idle), (0, 10, 0));
    }

    /// Spans that start mid-bucket, end mid-bucket, cover whole
    /// buckets, or sit inside one bucket: work splits at the edges cycle
    /// by cycle, overhead and idle go whole to the bucket of their start.
    #[test]
    fn record_span_matches_per_cycle_recording() {
        let fork = EventKind::Overhead {
            what: OverheadKind::Fork,
        };
        let spans = [
            (0usize, 7u64, 250u64, EventKind::Work { task: 0 }), // crosses 3 edges
            (0, 95, 10, fork),                                   // straddles one edge
            (1, 40, 5, EventKind::Work { task: 1 }),             // within one bucket
            (1, 100, 100, EventKind::Idle { retries: 0 }),       // exactly one bucket
            (1, 199, 1, EventKind::Work { task: 2 }),            // one cycle at a bucket's end
        ];
        let mut b = TraceBuilder::new(2, "cycles", 0);
        let mut want = vec![Vec::new(); 2];
        for &(core, ts, dur, kind) in &spans {
            b.record(core, ts, dur, kind);
            let row = &mut want[core];
            match kind {
                EventKind::Work { .. } => {
                    (ts..ts + dur).for_each(|t| charge(row, 100, t).work += 1)
                }
                EventKind::Overhead { .. } => charge(row, 100, ts).overhead += dur,
                _ => charge(row, 100, ts).idle += dur,
            }
        }
        assert_eq!(activity_buckets(&b.finish(), 100), want);
    }

    /// A work span of no cycles charges nothing, not even an empty
    /// bucket at its start.
    #[test]
    fn record_span_of_zero_cycles_records_nothing() {
        let got = activity_buckets(&one_span(5, 0, EventKind::Work { task: 0 }), 10);
        assert!(got[0].is_empty(), "{got:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// For arbitrary (start, cycles, bucket size), a work span of
        /// `cycles` buckets as `cycles` one-cycle charges — the
        /// equivalence between the simulator's merged work spans and the
        /// reference engine's cycle-by-cycle charging.
        #[test]
        fn record_span_equals_per_cycle_record(
            start in 0u64..10_000,
            cycles in 0u64..2_000,
            bucket in 1u64..512,
        ) {
            let mut want = Vec::new();
            for t in start..start + cycles {
                charge(&mut want, bucket, t).work += 1;
            }
            let got = activity_buckets(&one_span(start, cycles, EventKind::Work { task: 0 }), bucket);
            proptest::prop_assert_eq!(&got[0], &want);
        }

        /// An idle span of `count` retries buckets as `count` charges of
        /// `cycles` each, one per retry at its own start — what lets the
        /// simulator record a parked core's settled retries as one span.
        /// A span of no retries is a plain idle span, charged whole.
        #[test]
        fn record_chain_equals_per_retry_record(
            start in 0u64..10_000,
            cycles in 0u64..200,
            count in 0u64..500,
            bucket in 1u64..512,
        ) {
            let mut want = Vec::new();
            if count == 0 {
                charge(&mut want, bucket, start);
            }
            for i in 0..count {
                charge(&mut want, bucket, start + i * cycles).idle += cycles;
            }
            let idle = EventKind::Idle { retries: count };
            let got = activity_buckets(&one_span(start, cycles * count, idle), bucket);
            proptest::prop_assert_eq!(&got[0], &want);
        }
    }
}
