//! Unified trace/profiling layer for the TPAL simulator and native
//! runtime.
//!
//! The paper's entire evaluation (§7, Figures 8–15) is read off
//! instrumentation: heartbeat delivery and service rates, task-creation
//! counts, per-core utilization, steady-versus-unsteady promotion. This
//! crate is the one event vocabulary both executors speak, so every
//! figure-analogue is computed from the same recorded stream instead of
//! ad-hoc counters scattered per crate.
//!
//! # Event model
//!
//! A [`Trace`] is a set of per-core (per-worker) [`Track`]s, each a flat
//! vector of [`TraceEvent`]s: *activity spans* (work / overhead / idle,
//! with a duration) and *instants* (task spawn, promotion, steal,
//! heartbeat delivery and service, join transitions, halt). Every event
//! carries a globally monotone sequence number assigned at record time,
//! so the cross-track causal order — which task spawned before which
//! steal observed it — survives even though timestamps tie.
//!
//! Recording is **zero-cost when off**: both executors guard every
//! record site behind one `Option`/`None` check and allocate nothing
//! unless tracing was requested in their configs.
//!
//! # Backends
//!
//! * [`chrome`] — Chrome `trace_event` JSON, loadable in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev), one
//!   track per core. [`chrome::validate`] re-parses a rendered file and
//!   checks the schema invariants (used by CI on a real traced run).
//! * [`report`] — a [`report::MetricsReport`] reproducing the
//!   paper-figure quantities: polling/overhead fraction (Fig. 8),
//!   delivered-versus-serviced heartbeat rates (Fig. 10), task counts
//!   (Fig. 15a), per-core and total utilization (Fig. 15b) — and
//!   [`report::activity_buckets`], the same per-core activity over time.
//! * [`profile`] — a TASKPROF-style fold of the recorded task DAG into
//!   total work, span, and available parallelism (Yoga & Nagarakatte,
//!   "A Fast Causal Profiler for Task Parallel Programs").
//!
//! [`counters`] holds the always-on atomic scheduler counters the native
//! runtime keeps even when event recording is off; they migrated here
//! from `tpal-rt` so snapshot/reset semantics live next to the event
//! layer that supersedes them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod counters;
pub mod event;
pub mod json;
pub mod profile;
pub mod report;

pub use counters::{CounterShard, SchedStats, ShardedCounters};
pub use event::{
    EventKind, OverheadKind, SharedTracer, TaskId, Trace, TraceBuilder, TraceEvent, Track,
};
pub use profile::WorkSpanProfile;
pub use report::MetricsReport;
