//! A task-parallel source IR and its lowering to TPAL.
//!
//! This crate plays the role of the compiler pipeline sketched in §3.1 of
//! the paper: a high-level, Cilk-Plus-shaped program — serial statements
//! plus `ParFor` parallel loops (optionally nested), binary fork-join
//! `Par2`, and reducers — is *lowered* to TPAL assembly using the paper's
//! code-versioning technique. Three lowering modes produce three
//! semantically equivalent executables from one source:
//!
//! * [`Mode::Serial`] — parallel constructs erased; the plain serial
//!   program (the paper's `Serial` baseline).
//! * [`Mode::Heartbeat`] — serial-by-default blocks, promotion-ready
//!   program points, heartbeat handler blocks, and parallel blocks, after
//!   Figures 2 (loops) and 22/23 (recursion, with stack frames carrying
//!   promotion-ready marks). Latent parallelism is manifested only when a
//!   heartbeat fires (TPAL proper).
//! * [`Mode::Eager`] — Cilk-style *initial decomposition*: every spawn
//!   forks a task immediately, and parallel loops are eagerly divided
//!   into `8P` chunks by binary splitting (the `cilk_for` grain
//!   heuristic the paper compares against).
//!
//! Heartbeat loops come in the two block styles of the paper's §D.5:
//! [`Mode::Heartbeat`] emits the *reduced* style (one loop block plus a
//! sentinel join record) and [`Mode::HeartbeatExpanded`] the *expanded*
//! style (separate serial and parallel loop blocks, a join-free serial
//! path, duplicated bodies); the block-style ablation of `tpal-bench`'s
//! `figures` table measures the trade.
//!
//! The lowered [`tpal_core::Program`]s run on the reference machine or on
//! the `tpal-sim` multicore simulator. Programs are written either as
//! `.tpl` source text ([`parse_ir`]; the benchmark suite in
//! `tpal-workloads` ships its programs this way) or built with the
//! [`ast`] constructors.
//!
//! # Truth encoding
//!
//! The IR inherits TPAL's truth encoding: comparisons evaluate to **0 for
//! true**, and [`Stmt::If`]/[`Stmt::While`] take the branch when the
//! condition is zero. The `.tpl` operators (`<`, `&&`, `!`, …) and the
//! [`ast::Expr`] helper constructors ([`ast::Expr::lt`],
//! [`ast::Expr::not`], …) handle the encoding.
//!
//! # Example
//!
//! ```
//! use tpal_ir::ast::{Expr, Function, IrProgram, ParFor, Reducer, Stmt};
//! use tpal_ir::lower::{lower, Mode};
//! use tpal_core::machine::{Machine, MachineConfig};
//! use tpal_core::isa::BinOp;
//!
//! // sum = Σ a[i] over a 100-element array, as a parallel loop.
//! let f = Function::new("sum_array", ["a", "n"])
//!     .stmt(Stmt::assign("s", Expr::int(0)))
//!     .stmt(Stmt::ParFor(
//!         ParFor::new("i", Expr::int(0), Expr::var("n"))
//!             .body(vec![Stmt::assign(
//!                 "s",
//!                 Expr::var("s").add(Expr::var("a").load(Expr::var("i"))),
//!             )])
//!             .reducer(Reducer::new("s", BinOp::Add, 0)),
//!     ))
//!     .stmt(Stmt::Return(Expr::var("s")));
//! let ir = IrProgram::new(&f.name).function(f);
//! let lowered = lower(&ir, Mode::Heartbeat).unwrap();
//!
//! let mut m = Machine::new(&lowered.program, MachineConfig::default().with_heartbeat(50));
//! let data: Vec<i64> = (1..=100).collect();
//! let base = m.alloc_array(&data);
//! m.set_reg(&lowered.param_reg("a"), base).unwrap();
//! m.set_reg(&lowered.param_reg("n"), 100).unwrap();
//! let out = m.run().unwrap();
//! assert_eq!(out.read_reg(&lowered.result_reg), Some(5050));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod lower;
pub mod parse;

pub use ast::{CallSpec, Expr, Function, IrProgram, ParFor, ParForNested, Reducer, Stmt};
pub use lower::{lower, LowerError, Lowered, Mode};
pub use parse::{parse_ir, FrontendError};
