//! Per-core activity timelines.
//!
//! When [`SimConfig::record_timeline`](crate::SimConfig) is set, each
//! core's cycles are bucketed into *work* (instruction execution),
//! *overhead* (fork, steal, join, interrupt servicing), and *idle* —
//! by [`Sim`](crate::Sim) from the trace it records
//! ([`Timeline::from_trace`]), by the cycle-tick
//! [`SimRef`](crate::SimRef) as it goes — and
//! the outcome carries a [`Timeline`] that renders as a text Gantt
//! chart — the visual counterpart of Figure 12's "steady versus
//! unsteady" promotion picture, and the quickest way to see ramp-up,
//! starvation, or a flooded scheduler at a glance.

/// Cycle classification within one bucket of one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bucket {
    /// Cycles spent executing instructions.
    pub work: u64,
    /// Cycles charged to fork/steal/join/interrupt costs.
    pub overhead: u64,
    /// Idle cycles (nothing to run, failed steals).
    pub idle: u64,
}

impl Bucket {
    fn total(&self) -> u64 {
        self.work + self.overhead + self.idle
    }
}

/// A per-core, bucketed activity record of one simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Timeline {
    bucket_cycles: u64,
    per_core: Vec<Vec<Bucket>>,
}

impl Timeline {
    pub(crate) fn new(cores: usize, bucket_cycles: u64) -> Timeline {
        Timeline {
            bucket_cycles: bucket_cycles.max(1),
            per_core: vec![Vec::new(); cores],
        }
    }

    #[inline]
    pub(crate) fn record(&mut self, core: usize, time: u64, kind: Activity, cycles: u64) {
        let idx = (time / self.bucket_cycles) as usize;
        let row = &mut self.per_core[core];
        if row.len() <= idx {
            row.resize(idx + 1, Bucket::default());
        }
        let b = &mut row[idx];
        match kind {
            Activity::Work => b.work += cycles,
            Activity::Overhead => b.overhead += cycles,
            Activity::Idle => b.idle += cycles,
        }
    }

    /// Records a contiguous span of `cycles` cycles of `kind` starting at
    /// `start`, splitting it across buckets exactly as `cycles` individual
    /// [`Timeline::record`] calls of one cycle each would — a trace's
    /// work span, however many quanta it merged, lands where the
    /// reference engine's cycle-by-cycle recording puts it.
    fn record_span(&mut self, core: usize, start: u64, kind: Activity, cycles: u64) {
        let mut t = start;
        let mut remaining = cycles;
        while remaining > 0 {
            let bucket_end = (t / self.bucket_cycles + 1) * self.bucket_cycles;
            let chunk = remaining.min(bucket_end - t);
            self.record(core, t, kind, chunk);
            t += chunk;
            remaining -= chunk;
        }
    }

    /// Records `count` back-to-back charges of `cycles` cycles each,
    /// the first at `start`, each whole to the bucket containing its own
    /// start — exactly as `count` [`Timeline::record`] calls would, but
    /// one bucket at a time, so a settled retry chain costs O(buckets it
    /// spans), not O(retries).
    fn record_chain(&mut self, core: usize, start: u64, kind: Activity, cycles: u64, count: u64) {
        let mut t = start;
        let mut left = count;
        while left > 0 {
            let bucket_end = (t / self.bucket_cycles + 1) * self.bucket_cycles;
            // The charges that start in [t, bucket_end): at cost 0, all.
            let n = if cycles == 0 {
                left
            } else {
                (bucket_end - t).div_ceil(cycles).min(left)
            };
            self.record(core, t, kind, n * cycles);
            t += n * cycles;
            left -= n;
        }
    }

    /// Builds the timeline of a recorded structured trace, bucketing the
    /// activity spans exactly as the cycle-tick reference engine does
    /// live: work spans split across bucket boundaries, overhead and
    /// idle charged whole to the bucket containing their start — for an
    /// idle span of several steal retries, each retry to the bucket
    /// containing *its* start. This is how [`Sim`](crate::Sim) honours
    /// `record_timeline`; `timelines_agree_bucket_for_bucket` holds the
    /// result equal to [`SimRef`](crate::SimRef)'s.
    pub fn from_trace(trace: &tpal_trace::Trace, bucket_cycles: u64) -> Timeline {
        let mut tl = Timeline::new(trace.tracks.len(), bucket_cycles);
        for (core, track) in trace.tracks.iter().enumerate() {
            for e in &track.events {
                match e.kind {
                    tpal_trace::EventKind::Work { .. } => {
                        tl.record_span(core, e.ts, Activity::Work, e.dur);
                    }
                    tpal_trace::EventKind::Overhead { .. } => {
                        tl.record(core, e.ts, Activity::Overhead, e.dur);
                    }
                    tpal_trace::EventKind::Idle { retries: 0 } => {
                        tl.record(core, e.ts, Activity::Idle, e.dur);
                    }
                    tpal_trace::EventKind::Idle { retries } => {
                        tl.record_chain(core, e.ts, Activity::Idle, e.dur / retries, retries);
                    }
                    _ => {}
                }
            }
        }
        tl
    }

    /// The bucket size in cycles.
    pub fn bucket_cycles(&self) -> u64 {
        self.bucket_cycles
    }

    /// The recorded buckets of one core.
    pub fn core(&self, core: usize) -> &[Bucket] {
        &self.per_core[core]
    }

    /// Number of cores recorded.
    pub fn cores(&self) -> usize {
        self.per_core.len()
    }

    /// Renders a text Gantt chart, one row per core, `width` columns
    /// spanning the whole run:
    ///
    /// * `#` — the column is ≥ 75% useful work,
    /// * `+` — ≥ 25% work,
    /// * `o` — mostly overhead (fork/steal/join/interrupts),
    /// * `.` — mostly idle,
    /// * ` ` — nothing recorded.
    pub fn render(&self, width: usize) -> String {
        let width = width.max(1);
        let buckets = self.per_core.iter().map(Vec::len).max().unwrap_or(0);
        let mut out = String::new();
        for (c, row) in self.per_core.iter().enumerate() {
            out.push_str(&format!("core {c:>2} |"));
            for col in 0..width {
                // Merge the buckets covered by this column.
                let lo = col * buckets / width;
                let hi = (((col + 1) * buckets).div_ceil(width)).min(buckets);
                let mut merged = Bucket::default();
                for b in row.get(lo..hi).unwrap_or(&[]) {
                    merged.work += b.work;
                    merged.overhead += b.overhead;
                    merged.idle += b.idle;
                }
                let total = merged.total();
                let ch = if total == 0 {
                    ' '
                } else if merged.work * 4 >= total * 3 {
                    '#'
                } else if merged.work * 4 >= total {
                    '+'
                } else if merged.overhead >= merged.idle {
                    'o'
                } else {
                    '.'
                };
                out.push(ch);
            }
            out.push_str("|\n");
        }
        out
    }

    /// Work fraction per column (for plotting or assertions), averaged
    /// over cores.
    pub fn utilization_series(&self, width: usize) -> Vec<f64> {
        let width = width.max(1);
        let buckets = self.per_core.iter().map(Vec::len).max().unwrap_or(0);
        (0..width)
            .map(|col| {
                let lo = col * buckets / width;
                let hi = (((col + 1) * buckets).div_ceil(width)).min(buckets);
                let mut work = 0u64;
                let mut total = 0u64;
                for row in &self.per_core {
                    for b in row.get(lo..hi).unwrap_or(&[]) {
                        work += b.work;
                        total += b.total();
                    }
                }
                if total == 0 {
                    0.0
                } else {
                    work as f64 / total as f64
                }
            })
            .collect()
    }
}

/// What a core spent cycles on (engine-internal classification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activity {
    /// Executing instructions.
    Work,
    /// Fork/steal/join/interrupt charges.
    Overhead,
    /// Nothing to do.
    Idle,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_accumulate() {
        let mut t = Timeline::new(2, 100);
        t.record(0, 0, Activity::Work, 80);
        t.record(0, 50, Activity::Idle, 20);
        t.record(1, 150, Activity::Overhead, 10);
        assert_eq!(t.core(0)[0].work, 80);
        assert_eq!(t.core(0)[0].idle, 20);
        assert_eq!(t.core(1)[1].overhead, 10);
    }

    #[test]
    fn render_shapes() {
        let mut t = Timeline::new(1, 10);
        for i in 0..10 {
            t.record(0, i * 10, Activity::Work, 10);
        }
        for i in 10..20 {
            t.record(0, i * 10, Activity::Idle, 10);
        }
        let s = t.render(20);
        assert!(s.starts_with("core  0 |"));
        let body: String = s.chars().filter(|c| "#+o. ".contains(*c)).collect();
        assert!(body.contains('#'), "{s}");
        assert!(body.contains('.'), "{s}");
    }

    #[test]
    fn record_span_matches_per_cycle_recording() {
        // Spans chosen to start mid-bucket, end mid-bucket, cover whole
        // buckets, and sit entirely inside one bucket.
        let spans = [
            (0usize, 7u64, Activity::Work, 250u64), // crosses 3 boundaries
            (0, 95, Activity::Overhead, 10),        // straddles one boundary
            (1, 40, Activity::Work, 5),             // within one bucket
            (1, 100, Activity::Idle, 100),          // exactly one bucket
            (1, 199, Activity::Work, 1),            // single cycle at bucket end
        ];
        let mut batched = Timeline::new(2, 100);
        let mut reference = Timeline::new(2, 100);
        for &(core, start, kind, cycles) in &spans {
            batched.record_span(core, start, kind, cycles);
            for i in 0..cycles {
                reference.record(core, start + i, kind, 1);
            }
        }
        for core in 0..2 {
            assert_eq!(batched.core(core), reference.core(core), "core {core}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// For arbitrary (start, cycles, bucket size), one `record_span`
        /// call equals `cycles` unit `record` calls — the equivalence the
        /// batching engine's timeline charging rests on.
        #[test]
        fn record_span_equals_per_cycle_record(
            start in 0u64..10_000,
            cycles in 0u64..2_000,
            bucket in 1u64..512,
        ) {
            let mut batched = Timeline::new(1, bucket);
            let mut reference = Timeline::new(1, bucket);
            batched.record_span(0, start, Activity::Work, cycles);
            for i in 0..cycles {
                reference.record(0, start + i, Activity::Work, 1);
            }
            proptest::prop_assert_eq!(batched.core(0), reference.core(0));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// One `record_chain` call equals `count` `record` calls, one
        /// per retry — what lets the engine settle a parked core's
        /// retries, and `from_trace` replay an idle span, arithmetically.
        #[test]
        fn record_chain_equals_per_retry_record(
            start in 0u64..10_000,
            cycles in 0u64..200,
            count in 0u64..500,
            bucket in 1u64..512,
        ) {
            let mut chained = Timeline::new(1, bucket);
            let mut reference = Timeline::new(1, bucket);
            chained.record_chain(0, start, Activity::Idle, cycles, count);
            for i in 0..count {
                reference.record(0, start + i * cycles, Activity::Idle, cycles);
            }
            proptest::prop_assert_eq!(chained.core(0), reference.core(0));
        }
    }

    #[test]
    fn record_span_of_zero_cycles_records_nothing() {
        let mut t = Timeline::new(1, 10);
        t.record_span(0, 5, Activity::Work, 0);
        assert!(t.core(0).is_empty());
    }

    #[test]
    fn utilization_series_bounds() {
        let mut t = Timeline::new(2, 10);
        t.record(0, 0, Activity::Work, 10);
        t.record(1, 0, Activity::Idle, 10);
        let u = t.utilization_series(4);
        assert_eq!(u.len(), 4);
        assert!((u[0] - 0.5).abs() < 1e-9);
    }
}
