//! TASKPROF-style work/span profiler.
//!
//! Folds the recorded task DAG (spawn / work / join events, in global
//! causal order) into the classic performance-model quantities: total
//! **work** T₁ (all executed cycles), critical-path **span** T∞, and
//! **available parallelism** T₁/T∞ — the on-the-fly DAG fold of Yoga &
//! Nagarakatte's TASKPROF, applied to a recorded trace instead of live
//! execution.
//!
//! The fold keeps one running span value per live task id:
//!
//! * `Work { task }` adds its duration to the task's span (and to total
//!   work);
//! * `TaskSpawn` starts the child at the parent's current span (fork
//!   costs both branches the prefix);
//! * `JoinStash` parks the first arrival's span on the fork-tree node;
//! * `JoinMerge` resumes the merged task at the *maximum* of both
//!   arrivals — the critical path through a join is the slower branch;
//! * `JoinContinue` carries the span across a record-root join;
//! * `TaskEnd` closes the fold: the halting task's span is the
//!   program's.
//!
//! This mirrors exactly the relative work/span threading the simulator
//! machine does internally (fork prefix capture, join max-merge with
//! τ = 0), so for simulator traces the profile can be cross-checked
//! against the machine's own totals — a differential test this repo
//! runs in `tpal-sim`.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::event::{EventKind, TaskId, Trace};

/// Work/span totals folded from one trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkSpanProfile {
    /// Total executed cycles across all tasks (T₁).
    pub work: u64,
    /// Critical-path length in cycles (T∞).
    pub span: u64,
    /// Tasks observed (spawns + the initial task).
    pub tasks: u64,
    /// Whether a `TaskEnd` was seen (an unfinished trace reports the
    /// running maximum span instead of the halting task's).
    pub complete: bool,
}

/// Whether the fold reads events of `kind`: only those enter the causal
/// merge. Exhaustive, so a new kind has to choose a side.
fn folded(kind: &EventKind) -> bool {
    match kind {
        EventKind::Work { .. }
        | EventKind::TaskSpawn { .. }
        | EventKind::JoinStash { .. }
        | EventKind::JoinMerge { .. }
        | EventKind::JoinContinue { .. }
        | EventKind::TaskEnd { .. }
        | EventKind::TaskDetach { .. }
        | EventKind::ChanPush { .. }
        | EventKind::ChanPop { .. } => true,
        EventKind::Overhead { .. }
        | EventKind::Idle { .. }
        | EventKind::TaskPromote { .. }
        | EventKind::HeartbeatDelivered
        | EventKind::HeartbeatServiced
        | EventKind::ChanClose { .. }
        | EventKind::ChanBlock { .. }
        | EventKind::ChanResume { .. }
        | EventKind::Steal { .. } => false,
    }
}

impl WorkSpanProfile {
    /// Available parallelism T₁/T∞ (0 when the span is 0).
    pub fn parallelism(&self) -> f64 {
        if self.span == 0 {
            0.0
        } else {
            self.work as f64 / self.span as f64
        }
    }

    /// Folds the task events of `trace` in causal order.
    pub fn from_trace(trace: &Trace) -> WorkSpanProfile {
        // Running span per live task; task 0 (the initial task) starts
        // implicitly at 0 via the entry API.
        let mut span: HashMap<TaskId, u64> = HashMap::new();
        // First-arrival spans parked on fork-tree nodes.
        let mut stash: HashMap<u32, u64> = HashMap::new();
        // Running maximum producer span per channel: a pop causally
        // depends on the pushes that filled the buffer, so the
        // consumer's critical path is at least the producers' at push
        // time. (Conservative for deep buffers — it uses the slowest
        // push seen so far, not the matching item's — but exact for
        // the rendezvous-like small capacities streaming stages use.)
        let mut chan_span: HashMap<u32, u64> = HashMap::new();
        let mut p = WorkSpanProfile {
            work: 0,
            span: 0,
            tasks: 1,
            complete: false,
        };
        let mut max_span = 0u64;
        for e in trace.causal_order(folded) {
            match e.kind {
                EventKind::Work { task } => {
                    p.work += e.dur;
                    let s = span.entry(task).or_insert(0);
                    *s += e.dur;
                    max_span = max_span.max(*s);
                }
                EventKind::TaskSpawn { parent, child } => {
                    p.tasks += 1;
                    let s = span.get(&parent).copied().unwrap_or(0);
                    span.insert(child, s);
                }
                EventKind::JoinStash { task, node } => {
                    let s = span.remove(&task).unwrap_or(0);
                    stash.insert(node, s);
                }
                EventKind::JoinMerge { task, node, merged } => {
                    let a = span.remove(&task).unwrap_or(0);
                    let b = stash.remove(&node).unwrap_or(0);
                    let s = a.max(b);
                    span.insert(merged, s);
                    max_span = max_span.max(s);
                }
                EventKind::JoinContinue { task, resumed } => {
                    let s = span.remove(&task).unwrap_or(0);
                    span.insert(resumed, s);
                }
                EventKind::TaskEnd { task } => {
                    p.span = span.remove(&task).unwrap_or(0);
                    p.complete = true;
                }
                EventKind::TaskDetach { parent, child } => {
                    // A detached child forks the DAG exactly like a
                    // spawn; it just never joins back.
                    p.tasks += 1;
                    let s = span.get(&parent).copied().unwrap_or(0);
                    span.insert(child, s);
                }
                EventKind::ChanPush { ch, task } => {
                    let s = span.get(&task).copied().unwrap_or(0);
                    let slot = chan_span.entry(ch).or_insert(0);
                    *slot = (*slot).max(s);
                }
                EventKind::ChanPop { ch, task } => {
                    let produced = chan_span.get(&ch).copied().unwrap_or(0);
                    let s = span.entry(task).or_insert(0);
                    *s = (*s).max(produced);
                    max_span = max_span.max(*s);
                }
                // Everything `folded` keeps out of the merge.
                _ => {}
            }
        }
        if !p.complete {
            p.span = max_span;
        }
        p
    }

    /// A plain-text rendering (the `--profile` output).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "work/span profile: work {} span {} parallelism {:.2} tasks {}{}",
            self.work,
            self.span,
            self.parallelism(),
            self.tasks,
            if self.complete {
                ""
            } else {
                " (incomplete trace)"
            }
        );
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceBuilder;

    /// A two-way fork/join: task 0 works 10, forks 1, both work (child
    /// 7 on core 1, parent 5 on core 0), child stashes, parent merges
    /// into task 2, which works 3 and halts.
    fn forked() -> Trace {
        let mut b = TraceBuilder::new(2, "cycles", 0);
        b.record(0, 0, 10, EventKind::Work { task: 0 });
        b.record(
            0,
            10,
            0,
            EventKind::TaskSpawn {
                parent: 0,
                child: 1,
            },
        );
        b.record(1, 10, 0, EventKind::Steal { victim: 0 });
        b.record(1, 10, 7, EventKind::Work { task: 1 });
        b.record(0, 10, 5, EventKind::Work { task: 0 });
        b.record(0, 15, 0, EventKind::JoinStash { task: 0, node: 0 });
        b.record(
            1,
            17,
            0,
            EventKind::JoinMerge {
                task: 1,
                node: 0,
                merged: 2,
            },
        );
        b.record(1, 17, 3, EventKind::Work { task: 2 });
        b.record(1, 20, 0, EventKind::TaskEnd { task: 2 });
        b.finish()
    }

    #[test]
    fn fork_join_takes_max_branch() {
        let p = WorkSpanProfile::from_trace(&forked());
        assert_eq!(p.work, 25);
        // 10 prefix + max(5, 7) + 3 tail.
        assert_eq!(p.span, 20);
        assert_eq!(p.tasks, 2);
        assert!(p.complete);
        assert!((p.parallelism() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn serial_trace_has_parallelism_one() {
        let mut b = TraceBuilder::new(1, "cycles", 0);
        b.record(0, 0, 42, EventKind::Work { task: 0 });
        b.record(0, 42, 0, EventKind::TaskEnd { task: 0 });
        let p = WorkSpanProfile::from_trace(&b.finish());
        assert_eq!(p.work, 42);
        assert_eq!(p.span, 42);
        assert_eq!(p.tasks, 1);
        assert!((p.parallelism() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn join_continue_carries_span() {
        let mut b = TraceBuilder::new(1, "cycles", 0);
        b.record(0, 0, 4, EventKind::Work { task: 0 });
        b.record(
            0,
            4,
            0,
            EventKind::JoinContinue {
                task: 0,
                resumed: 1,
            },
        );
        b.record(0, 4, 6, EventKind::Work { task: 1 });
        b.record(0, 10, 0, EventKind::TaskEnd { task: 1 });
        let p = WorkSpanProfile::from_trace(&b.finish());
        assert_eq!(p.span, 10);
        assert!(p.complete);
    }

    #[test]
    fn incomplete_trace_reports_running_span() {
        let mut b = TraceBuilder::new(1, "cycles", 0);
        b.record(0, 0, 9, EventKind::Work { task: 0 });
        let p = WorkSpanProfile::from_trace(&b.finish());
        assert_eq!(p.span, 9);
        assert!(!p.complete);
    }
}
