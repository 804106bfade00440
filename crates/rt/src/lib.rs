//! The native TPAL heartbeat runtime.
//!
//! This crate is the practical system of §3 of the paper, in Rust: a
//! work-stealing worker pool in which **parallelism stays latent** —
//! parallel loops run as plain serial loops over registers, and
//! `cilk_spawn`-style forks run as plain calls — until a periodic
//! *heartbeat* arrives, at which point the oldest latent opportunity is
//! *promoted* into a real task at a cost amortised against the work done
//! since the previous beat.
//!
//! # Heartbeat delivery
//!
//! The paper drives heartbeats with OS signals plus rollforward
//! compilation, whose whole purpose is to make an asynchronous interrupt
//! take effect exactly at a *promotion-ready program point*. We obtain
//! the identical semantics by polling one relaxed per-worker atomic flag
//! at promotion-ready points (loop iterations and fork points); the
//! paper's §6 measures the cost of such polling at ~2%, and our Figure 8
//! analogue measures ours. Four heartbeat sources are provided, the
//! first two mirroring the paper's §3.2/§5 comparison:
//!
//! * [`HeartbeatSource::PingThread`] — a dedicated thread wakes every ♥
//!   and raises each worker's flag in turn: the Linux `INT-PingThread`
//!   mechanism, with its linear delivery and sleep-granularity jitter.
//! * [`HeartbeatSource::LocalTimer`] — each worker compares the CPU
//!   timestamp counter against its own next deadline: the
//!   Nautilus/APIC-timer mechanism (precise, per-core, no cross-thread
//!   traffic).
//! * [`HeartbeatSource::TimerSignal`] — each worker owns a POSIX
//!   per-thread interval timer whose signal handler raises the flag
//!   asynchronously (the paper's true interrupt-driven delivery; see
//!   [`signal`](crate::timer_signal_supported)); promotion points
//!   collapse to a single relaxed load. Linux-only — elsewhere (or when
//!   the probe fails) the runtime falls back to `PingThread`.
//! * [`HeartbeatSource::Disabled`] — never beats: the serial-by-default
//!   path runs alone (used to measure residual instrumentation cost).
//!
//! # Example
//!
//! ```
//! use tpal_rt::{Runtime, RtConfig};
//!
//! let rt = Runtime::new(RtConfig::default().workers(2));
//! let total = rt.run(|ctx| {
//!     // Latent parallel loop: splits only when a heartbeat fires.
//!     ctx.reduce(0..10_000, 0i64, |_, i, acc| acc + i as i64, |a, b| a + b)
//! });
//! assert_eq!(total, (0..10_000i64).sum());
//! ```

#![warn(missing_docs)]

pub mod channel;
mod heartbeat;
mod job;
mod parallel;
pub mod pool;
pub mod program;
mod signal;
mod stats;

pub use channel::{run_stages, Channel, Deadlock};
pub use heartbeat::HeartbeatSource;
pub use pool::{RtConfig, Runtime, WorkerCtx};
pub use signal::supported as timer_signal_supported;
pub use stats::RtStats;
// The promotion rules themselves live in the shared scheduler kernel;
// re-exported so runtime users need not depend on `tpal-sched` directly.
pub use tpal_sched::Promotion;
