//! # TPAL: Task Parallel Assembly Language & heartbeat scheduling
//!
//! A Rust reproduction of *"Task Parallel Assembly Language for
//! Uncompromising Parallelism"* (Rainey et al., PLDI 2021). This facade
//! crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `tpal-core` | The TPAL ISA, assembler, abstract machine, cost semantics |
//! | [`ir`] | `tpal-ir` | A task-parallel IR with serial / heartbeat / eager lowerings |
//! | [`sim`] | `tpal-sim` | A deterministic multicore simulator with interrupt models |
//! | [`trace`] | `tpal-trace` | Structured scheduling traces, Chrome export, work/span profiling |
//! | [`rt`] | `tpal-rt` | The native heartbeat runtime (threads + work stealing) |
//! | [`serve`] | `tpal-serve` | Simulation-as-a-service: decode cache, admission control, replay |
//! | [`cilk`] | `tpal-cilk` | The eager Cilk-style baseline runtime |
//! | [`deque`] | `tpal-deque` | The Chase–Lev work-stealing deque substrate |
//! | [`workloads`] | `tpal-workloads` | The paper's 12-benchmark suite |
//!
//! See the repository `README.md` for a guided tour, `DESIGN.md` for the
//! system inventory, and `EXPERIMENTS.md` for the reproduction of every
//! table and figure.
//!
//! # Quickstart
//!
//! ```
//! use tpal::rt::{Runtime, RtConfig};
//!
//! let rt = Runtime::new(RtConfig::default().workers(2));
//! let sum = rt.run(|ctx| {
//!     ctx.reduce(0..1_000_000, 0u64, |_, i, acc| acc + i as u64, |a, b| a + b)
//! });
//! assert_eq!(sum, 999_999 * 1_000_000 / 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tpal_cilk as cilk;
pub use tpal_core as core;
pub use tpal_deque as deque;
pub use tpal_ir as ir;
pub use tpal_rt as rt;
pub use tpal_serve as serve;
pub use tpal_sim as sim;
pub use tpal_trace as trace;
pub use tpal_workloads as workloads;
