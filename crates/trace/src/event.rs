//! The event vocabulary and the two recorders (single-threaded builder
//! for the simulator, shared multi-producer tracer for the runtime).

use std::collections::binary_heap::{BinaryHeap, PeekMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Identifier of a task within one trace. The initial task is 0; every
/// fork and every join resolution (merge or completion) allocates a
/// fresh id, so an id names one contiguous segment of the task DAG.
/// Executors without per-task identity (the native runtime's type-erased
/// jobs) record 0 throughout.
pub type TaskId = u64;

/// What an overhead span was spent on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverheadKind {
    /// Task allocation and deque push (the per-task cost τ).
    Fork,
    /// Successful steal (task migration).
    Steal,
    /// Join resolution (stash or merge).
    Join,
    /// Heartbeat interrupt servicing on the receiving core.
    Interrupt,
}

impl OverheadKind {
    /// A short lower-case label (used as the Chrome event name).
    pub fn label(self) -> &'static str {
        match self {
            OverheadKind::Fork => "fork",
            OverheadKind::Steal => "steal",
            OverheadKind::Join => "join",
            OverheadKind::Interrupt => "interrupt",
        }
    }
}

/// One recorded event. Spans carry their duration in `dur`; instants
/// have `dur == 0`. A [`TraceBuilder`] span is a *maximal contiguous
/// run*: back-to-back `Work` quanta of one task, and back-to-back
/// same-cost failed-steal retries, are one event each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The core executed instructions of `task` for `dur` cycles.
    Work {
        /// The executing task.
        task: TaskId,
    },
    /// The core was charged `dur` cycles of scheduling overhead.
    Overhead {
        /// What the cycles were spent on.
        what: OverheadKind,
    },
    /// The core had nothing to run for `dur` cycles.
    Idle {
        /// Failed steal attempts the span covers, back to back from
        /// `ts`, each `dur / retries` cycles long; 0 for idle time that
        /// is not a steal retry (the cycle a core spends discovering a
        /// channel block).
        retries: u64,
    },
    /// `parent` forked `child` (a task was created — Fig. 15a).
    TaskSpawn {
        /// The forking task.
        parent: TaskId,
        /// The new task.
        child: TaskId,
    },
    /// A pending heartbeat was serviced at a promotion-ready point and
    /// the promotion handler ran (simulator) or a latent entry was
    /// promoted (runtime).
    TaskPromote {
        /// The task that took the beat.
        task: TaskId,
    },
    /// A heartbeat reached this core (timer expiry or ping signal) —
    /// the Fig. 10 *delivered* quantity.
    HeartbeatDelivered,
    /// A heartbeat was observed at a promotion-ready point — the
    /// Fig. 10 *serviced* quantity.
    HeartbeatServiced,
    /// A successful steal landed on this core.
    Steal {
        /// The victim core index.
        victim: u32,
    },
    /// `task` arrived first at its join: it stashed its state on fork
    /// tree node `node` and died.
    JoinStash {
        /// The stashing task.
        task: TaskId,
        /// The fork-tree node holding the stash.
        node: u32,
    },
    /// `task` arrived second at fork-tree node `node`: the pair merged
    /// into `merged`.
    JoinMerge {
        /// The second-arriving task.
        task: TaskId,
        /// The fork-tree node.
        node: u32,
        /// The merged continuation task.
        merged: TaskId,
    },
    /// `task` joined at the record root: the record completed and
    /// `resumed` continues at the continuation label.
    JoinContinue {
        /// The joining task.
        task: TaskId,
        /// The continuation task.
        resumed: TaskId,
    },
    /// `task` executed `halt`.
    TaskEnd {
        /// The halting task.
        task: TaskId,
    },
    /// `parent` spawned free-running `child` via `detach` (no join
    /// record; the child retires through its own `halt`).
    TaskDetach {
        /// The detaching task.
        parent: TaskId,
        /// The new detached task.
        child: TaskId,
    },
    /// `task` pushed an item into channel `ch`.
    ChanPush {
        /// The channel identifier.
        ch: u32,
        /// The pushing task.
        task: TaskId,
    },
    /// `task` popped an item from channel `ch`.
    ChanPop {
        /// The channel identifier.
        ch: u32,
        /// The popping task.
        task: TaskId,
    },
    /// `task` closed channel `ch` (every waiter parked on it wakes).
    ChanClose {
        /// The channel identifier.
        ch: u32,
        /// The closing task.
        task: TaskId,
    },
    /// `task` parked on channel `ch`: a push found it full
    /// (`push == true`) or a pop found it empty (`push == false`).
    ChanBlock {
        /// The channel identifier.
        ch: u32,
        /// The parked task.
        task: TaskId,
        /// `true` for a blocked push, `false` for a blocked pop.
        push: bool,
    },
    /// A channel operation made parked `task` runnable again (it
    /// re-enters a deque and retries its channel instruction). Rendered
    /// as `chan-wake`.
    ChanResume {
        /// The channel identifier.
        ch: u32,
        /// The woken task.
        task: TaskId,
    },
}

/// One recorded event: a kind plus where and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global record-order sequence number (monotone across tracks; the
    /// causal order of the run).
    pub seq: u64,
    /// Start time, in the trace's time unit (simulator: cycles;
    /// runtime: timestamp ticks since runtime start).
    pub ts: u64,
    /// Duration for span kinds; 0 for instants.
    pub dur: u64,
    /// What happened.
    pub kind: EventKind,
}

/// The events of one core or worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Track {
    /// Display name (`core 3`, `worker 1`).
    pub name: String,
    /// Events in record order, i.e. ascending `seq` (what
    /// [`Trace::causal_order`] merges on). Both recorders also produce
    /// ascending `ts` per track in the steady state, but only `seq` is
    /// guaranteed: a lazily settled idle chain is recorded when it is
    /// settled, so it carries a later `seq` than events at greater
    /// timestamps on *other* tracks, and concurrent producers of one
    /// runtime track may publish out of clock order.
    pub events: Vec<TraceEvent>,
}

/// A complete recorded trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// The unit `ts`/`dur` are measured in (`"cycles"` or `"ticks"`).
    pub time_unit: &'static str,
    /// The heartbeat interval ♥ of the run, in the same unit (0 when
    /// heartbeats were disabled).
    pub heartbeat: u64,
    /// The scheduling-policy label of the run (`"heartbeat/uniform"`,
    /// `"eager/sequence"`, …) so reports attribute overhead per policy;
    /// empty when the recorder was not tagged.
    pub policy: String,
    /// The heartbeat-delivery-source label of the run (`"ping"`,
    /// `"local-timer"`, `"timer-signal"`, …) so per-backend overhead is
    /// attributable from the trace alone; empty when untagged.
    pub source: String,
    /// One track per core/worker.
    pub tracks: Vec<Track>,
}

impl Trace {
    /// The events `keep` selects, across all tracks, in global causal
    /// (sequence) order: a lazy k-way merge of the tracks, each already
    /// in `seq` order, so nothing is copied or sorted and a consumer
    /// pays the merge only for the events it folds.
    pub fn causal_order<F: Fn(&EventKind) -> bool>(&self, keep: F) -> CausalOrder<'_, F> {
        let mut heads = BinaryHeap::with_capacity(self.tracks.len());
        for track in &self.tracks {
            let mut rest = track.events.iter();
            if let Some(next) = rest.find(|e| keep(&e.kind)) {
                heads.push(Head { next, rest });
            }
        }
        CausalOrder { keep, heads }
    }

    /// The end of the last event — the makespan the trace covers.
    pub fn makespan(&self) -> u64 {
        self.tracks
            .iter()
            .flat_map(|t| t.events.iter())
            .map(|e| e.ts + e.dur)
            .max()
            .unwrap_or(0)
    }

    /// Total number of recorded events.
    pub fn len(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// Whether no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One track's position in a [`CausalOrder`] merge; ordered so that
/// the smallest `seq` is the max-heap's top.
struct Head<'a> {
    next: &'a TraceEvent,
    rest: std::slice::Iter<'a, TraceEvent>,
}

impl PartialEq for Head<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.next.seq == other.next.seq
    }
}

impl Eq for Head<'_> {}

impl PartialOrd for Head<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Head<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.next.seq.cmp(&self.next.seq)
    }
}

/// The iterator behind [`Trace::causal_order`].
pub struct CausalOrder<'a, F> {
    keep: F,
    heads: BinaryHeap<Head<'a>>,
}

impl<'a, F: Fn(&EventKind) -> bool> Iterator for CausalOrder<'a, F> {
    type Item = &'a TraceEvent;

    fn next(&mut self) -> Option<&'a TraceEvent> {
        let mut top = self.heads.peek_mut()?;
        let event = top.next;
        // Replacing the top in place costs one sift, and none when the
        // same track stays earliest (a core's events come in runs).
        match top.rest.find(|e| (self.keep)(&e.kind)) {
            Some(next) => top.next = next,
            None => {
                PeekMut::pop(top);
            }
        }
        Some(event)
    }
}

/// Single-threaded trace recorder (the simulator's: one owner, per-core
/// buffers, sequence numbers handed out in program order).
#[derive(Debug)]
pub struct TraceBuilder {
    time_unit: &'static str,
    heartbeat: u64,
    policy: String,
    source: String,
    tracks: Vec<Vec<TraceEvent>>,
    next_seq: u64,
}

impl TraceBuilder {
    /// A builder with `tracks` empty tracks.
    pub fn new(tracks: usize, time_unit: &'static str, heartbeat: u64) -> TraceBuilder {
        TraceBuilder {
            time_unit,
            heartbeat,
            policy: String::new(),
            source: String::new(),
            tracks: vec![Vec::new(); tracks],
            next_seq: 0,
        }
    }

    /// Tags the trace with the run's scheduling-policy label.
    pub fn policy(mut self, label: impl Into<String>) -> TraceBuilder {
        self.policy = label.into();
        self
    }

    /// Tags the trace with the run's heartbeat-delivery-source label.
    pub fn source(mut self, label: impl Into<String>) -> TraceBuilder {
        self.source = label.into();
        self
    }

    /// Records one event on `track`. A span that continues the track's
    /// last event — the same task's `Work`, or failed-steal retries of
    /// the same cost, starting exactly where it ended — extends that
    /// event in place, so trace size follows scheduling decisions, not
    /// how finely the recorder happened to slice time. The extended
    /// event keeps its `seq`: any instant by that task (spawn, join,
    /// channel operation) lands on this track and would have ended the
    /// run, so no per-task fold can tell the pieces from the whole.
    #[inline]
    pub fn record(&mut self, track: usize, ts: u64, dur: u64, kind: EventKind) {
        let events = &mut self.tracks[track];
        if let Some(last) = events.last_mut() {
            if last.ts + last.dur == ts {
                match (&mut last.kind, kind) {
                    (EventKind::Work { task: a }, EventKind::Work { task: b }) if *a == b => {
                        last.dur += dur;
                        return;
                    }
                    (EventKind::Idle { retries: a }, EventKind::Idle { retries: b })
                        if *a > 0
                            && b > 0
                            && u128::from(last.dur) * u128::from(b)
                                == u128::from(dur) * u128::from(*a) =>
                    {
                        *a += b;
                        last.dur += dur;
                        return;
                    }
                    _ => {}
                }
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        events.push(TraceEvent { seq, ts, dur, kind });
    }

    /// Finishes the trace, naming tracks `core 0`, `core 1`, …
    pub fn finish(self) -> Trace {
        Trace {
            time_unit: self.time_unit,
            heartbeat: self.heartbeat,
            policy: self.policy,
            source: self.source,
            tracks: self
                .tracks
                .into_iter()
                .enumerate()
                .map(|(i, events)| Track {
                    name: format!("core {i}"),
                    events,
                })
                .collect(),
        }
    }
}

/// Multi-producer trace recorder (the native runtime's): one locked
/// event log per worker track, plus a global sequence number. A track's
/// producers are its own worker and the ping thread's rare deliveries,
/// so its lock is uncontended.
#[derive(Debug)]
pub struct SharedTracer {
    time_unit: &'static str,
    heartbeat: u64,
    policy: String,
    source: String,
    tracks: Vec<Mutex<Vec<TraceEvent>>>,
    next_seq: AtomicU64,
}

impl SharedTracer {
    /// A tracer with `tracks` empty per-worker logs.
    pub fn new(tracks: usize, time_unit: &'static str, heartbeat: u64) -> SharedTracer {
        SharedTracer {
            time_unit,
            heartbeat,
            policy: String::new(),
            source: String::new(),
            tracks: (0..tracks).map(|_| Mutex::default()).collect(),
            next_seq: AtomicU64::new(0),
        }
    }

    /// Tags collected traces with the run's scheduling-policy label.
    pub fn policy(mut self, label: impl Into<String>) -> SharedTracer {
        self.policy = label.into();
        self
    }

    /// Tags collected traces with the run's heartbeat-source label.
    pub fn source(mut self, label: impl Into<String>) -> SharedTracer {
        self.source = label.into();
        self
    }

    /// Records one event on `track`: safe from any thread, but never
    /// from a signal handler, which may interrupt the lock's holder.
    #[inline]
    pub fn record(&self, track: usize, ts: u64, dur: u64, kind: EventKind) {
        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let mut events = self.tracks[track].lock().expect("trace lock poisoned");
        events.push(TraceEvent { seq, ts, dur, kind });
    }

    /// Drains every recorded event into a [`Trace`], track `i` named
    /// `worker i` and in global sequence order. Concurrent producers of
    /// one track may push out of `seq` order, so a track is sorted when —
    /// and only when — that happened. Events recorded after collection
    /// begins may land in either this trace or the next.
    pub fn collect(&self) -> Trace {
        let drain = |(i, track): (usize, &Mutex<Vec<TraceEvent>>)| {
            let mut events = std::mem::take(&mut *track.lock().expect("trace lock poisoned"));
            if !events.is_sorted_by_key(|e| e.seq) {
                events.sort_unstable_by_key(|e| e.seq);
            }
            let name = format!("worker {i}");
            Track { name, events }
        };
        Trace {
            time_unit: self.time_unit,
            heartbeat: self.heartbeat,
            policy: self.policy.clone(),
            source: self.source.clone(),
            tracks: self.tracks.iter().enumerate().map(drain).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_global_seq() {
        let mut b = TraceBuilder::new(2, "cycles", 100);
        b.record(1, 5, 0, EventKind::HeartbeatDelivered);
        b.record(0, 5, 3, EventKind::Idle { retries: 1 });
        b.record(1, 6, 0, EventKind::TaskEnd { task: 0 });
        let t = b.finish();
        assert_eq!(t.len(), 3);
        let order: Vec<_> = t.causal_order(|_| true).collect();
        assert_eq!(order[0].kind, EventKind::HeartbeatDelivered);
        assert_eq!(order[1].kind, EventKind::Idle { retries: 1 });
        assert_eq!(order[2].kind, EventKind::TaskEnd { task: 0 });
        assert_eq!(t.makespan(), 8);
        assert_eq!(t.tracks[0].name, "core 0");
    }

    #[test]
    fn builder_extends_contiguous_spans_in_place() {
        let work = |task| EventKind::Work { task };
        let idle = |retries| EventKind::Idle { retries };
        let mut b = TraceBuilder::new(1, "cycles", 0);
        b.record(0, 0, 5, work(1));
        b.record(0, 5, 3, work(1)); // continues the run
        b.record(0, 8, 2, work(2)); // another task
        b.record(0, 11, 2, work(2)); // a gap
        b.record(0, 13, 100, idle(2));
        b.record(0, 113, 50, idle(1)); // same 50-cycle retries
        b.record(0, 163, 30, idle(1)); // another cost
        b.record(0, 193, 1, idle(0)); // not a retry
        b.record(0, 194, 1, idle(0));
        b.record(0, 195, 4, work(3));
        b.record(0, 199, 0, EventKind::TaskEnd { task: 3 });
        b.record(0, 199, 4, work(3)); // an instant ended the run
        let got: Vec<(u64, u64, u64, EventKind)> = b.finish().tracks[0]
            .events
            .iter()
            .map(|e| (e.seq, e.ts, e.dur, e.kind))
            .collect();
        assert_eq!(
            got,
            [
                (0, 0, 8, work(1)),
                (1, 8, 2, work(2)),
                (2, 11, 2, work(2)),
                (3, 13, 150, idle(3)),
                (4, 163, 30, idle(1)),
                (5, 193, 1, idle(0)),
                (6, 194, 1, idle(0)),
                (7, 195, 4, work(3)),
                (8, 199, 0, EventKind::TaskEnd { task: 3 }),
                (9, 199, 4, work(3)),
            ]
        );
    }

    #[test]
    fn causal_order_merges_only_kept_events() {
        let mut b = TraceBuilder::new(3, "cycles", 0);
        for i in 0..30u64 {
            // Track 2 records only spans, so it never enters the merge.
            let track = if i % 5 == 0 { 2 } else { (i % 2) as usize };
            let kind = if track == 2 || i % 3 == 0 {
                EventKind::Overhead {
                    what: OverheadKind::Join,
                }
            } else {
                EventKind::TaskEnd { task: i }
            };
            b.record(track, i, 0, kind);
        }
        let t = b.finish();
        let all: Vec<u64> = t.causal_order(|_| true).map(|e| e.seq).collect();
        assert_eq!(all, (0..30).collect::<Vec<u64>>());
        let ends: Vec<u64> = t
            .causal_order(|k| matches!(k, EventKind::TaskEnd { .. }))
            .map(|e| e.seq)
            .collect();
        let expect: Vec<u64> = (0..30).filter(|i| i % 5 != 0 && i % 3 != 0).collect();
        assert_eq!(ends, expect);
        assert_eq!(t.causal_order(|_| false).count(), 0);
    }

    #[test]
    fn shared_tracer_collects_and_drains() {
        let tr = SharedTracer::new(2, "ticks", 0);
        tr.record(0, 1, 0, EventKind::HeartbeatServiced);
        tr.record(1, 2, 4, EventKind::Work { task: 0 });
        let t = tr.collect();
        assert_eq!(t.len(), 2);
        assert_eq!(t.tracks[1].name, "worker 1");
        assert!(tr.collect().is_empty(), "collect drains");
    }

    #[test]
    fn shared_tracer_crosses_chunk_boundaries() {
        let tr = SharedTracer::new(1, "ticks", 0);
        let n = 785;
        for i in 0..n as u64 {
            tr.record(0, i, 0, EventKind::HeartbeatDelivered);
        }
        let t = tr.collect();
        assert_eq!(t.len(), n);
        // In-order single-producer: seq and ts both monotone.
        for (i, e) in t.tracks[0].events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.ts, i as u64);
        }
        assert!(tr.collect().is_empty(), "collect drains");
    }

    #[test]
    fn shared_tracer_concurrent_producers_lose_nothing() {
        // Several threads hammer the same two tracks (the worker + ping
        // thread shape, amplified): every recorded event must come back
        // exactly once, sorted by seq within its track.
        let tr = std::sync::Arc::new(SharedTracer::new(2, "ticks", 0));
        let threads = 4;
        let per_thread = 2_000;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let tr = std::sync::Arc::clone(&tr);
                std::thread::spawn(move || {
                    for i in 0..per_thread {
                        tr.record(t % 2, i as u64, 0, EventKind::Steal { victim: t as u32 });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let t = tr.collect();
        assert_eq!(t.len(), threads * per_thread);
        let mut seqs: Vec<u64> = t
            .tracks
            .iter()
            .flat_map(|tr| tr.events.iter().map(|e| e.seq))
            .collect();
        seqs.sort_unstable();
        let expect: Vec<u64> = (0..(threads * per_thread) as u64).collect();
        assert_eq!(seqs, expect, "every seq exactly once");
        for track in &t.tracks {
            assert!(track.events.windows(2).all(|w| w[0].seq < w[1].seq));
        }
    }

    #[test]
    fn policy_tag_flows_into_traces() {
        let t = TraceBuilder::new(1, "cycles", 8)
            .policy("eager/sequence")
            .finish();
        assert_eq!(t.policy, "eager/sequence");
        let tr = SharedTracer::new(1, "ticks", 8).policy("never/uniform");
        assert_eq!(tr.collect().policy, "never/uniform");
        assert_eq!(tr.collect().policy, "never/uniform", "tag survives drains");
        assert_eq!(TraceBuilder::new(1, "cycles", 0).finish().policy, "");
    }

    #[test]
    fn source_tag_flows_into_traces() {
        let t = TraceBuilder::new(1, "cycles", 8).source("ping").finish();
        assert_eq!(t.source, "ping");
        let tr = SharedTracer::new(1, "ticks", 8).source("timer-signal");
        assert_eq!(tr.collect().source, "timer-signal");
        assert_eq!(tr.collect().source, "timer-signal", "tag survives drains");
        assert_eq!(TraceBuilder::new(1, "cycles", 0).finish().source, "");
    }

    #[test]
    fn empty_trace_reports_zero_makespan() {
        let t = TraceBuilder::new(1, "cycles", 0).finish();
        assert!(t.is_empty());
        assert_eq!(t.makespan(), 0);
    }
}
