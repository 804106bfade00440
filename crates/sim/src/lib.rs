//! A cycle-level multicore simulator for TPAL programs.
//!
//! The paper evaluates TPAL on a 16-core machine; this crate provides the
//! corresponding substrate as a deterministic discrete-event simulation:
//! `P` virtual cores execute TPAL tasks using the single-step semantics
//! of [`tpal_core::machine`], balanced by per-core work-stealing deques,
//! with heartbeat interrupts raised by a configurable [`InterruptModel`]:
//!
//! * [`InterruptModel::PerCoreTimer`] — each core's local timer raises
//!   the heartbeat flag exactly every ♥ cycles at negligible cost. This
//!   models Nautilus driving the APIC timer and Nemo IPIs (§5).
//! * [`InterruptModel::PingThread`] — a dedicated signaller delivers
//!   interrupts to the cores *sequentially*, each delivery costing
//!   latency plus jitter; when a full round takes longer than ♥ the
//!   target rate is missed, exactly the Linux behaviour of Figure 10.
//! * [`InterruptModel::Disabled`] — no heartbeats: the serial-by-default
//!   code runs unpromoted.
//!
//! As in the paper's §4.2 setup, the signalling agent does not occupy a
//! worker core (the paper reserves core 0 for the ping thread).
//!
//! The simulator reports the makespan in cycles, utilization, task and
//! promotion counts, and achieved-versus-target heartbeat rates — the
//! quantities behind Figures 7, 10, 11, 14, and 15.
//!
//! Two engines implement the same model: [`Sim`], the event-driven
//! production engine (a fixed-slot event calendar — one slot per core's
//! next action and per interrupt source — plus instruction-run batching
//! via [`tpal_core::machine::run_task_until`]), and [`SimRef`],
//! the original one-tick-per-cycle loop kept as the executable
//! specification. They are held observably equivalent — identical
//! makespan, stats, and final registers on every program ×
//! configuration × seed — by the `engine_equivalence` differential
//! tests.
//!
//! # Example
//!
//! ```
//! use tpal_core::programs::prod;
//! use tpal_sim::{InterruptModel, Sim, SimConfig};
//!
//! let program = prod();
//! let mut config = SimConfig::default();
//! config.cores = 4;
//! config.heartbeat = 3_000; // ♥ must amortise the fork cost (§2.2)
//! let mut sim = Sim::new(&program, config);
//! sim.set_reg("a", 500_000).unwrap();
//! sim.set_reg("b", 2).unwrap();
//! let out = sim.run().unwrap();
//! assert_eq!(out.read_reg("c"), Some(1_000_000));
//! assert!(out.stats.forks > 0);
//! assert!(out.speedup_base() > 2.0); // parallel work actually overlapped
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod engine_ref;

pub use engine::{Sim, SimConfig, SimOutcome, SimStats};
pub use engine_ref::SimRef;
// Scheduling decisions (interrupt models, policies, the deterministic
// RNG) live in the shared policy kernel; re-exported here so simulator
// users need not depend on `tpal-sched` directly.
pub use tpal_sched::{Domain, InterruptModel, Promotion, SplitMix64};
// The execution tier (reference / decoded / decoded + loop templates)
// selected via `SimConfig::exec_tier`; re-exported for the same reason.
pub use tpal_core::tier::ExecTier;
