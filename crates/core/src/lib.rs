//! The Task Parallel Assembly Language (TPAL).
//!
//! This crate implements the primary contribution of *"Task Parallel
//! Assembly Language for Uncompromising Parallelism"* (Rainey et al.,
//! PLDI 2021): a compact, RISC-like assembly language with **native task
//! parallelism**, specified as an abstract machine, together with the
//! *heartbeat scheduling* execution model that promotes latent parallelism
//! into actual tasks only at periodic heartbeats.
//!
//! The crate contains:
//!
//! * [`isa`] — the instruction set (Figure 1 of the paper, plus the stack
//!   extension of Figure 21): registers, labels, join records, block
//!   annotations (`prppt` promotion-ready program points and `jtppt`
//!   join-target program points), and instructions including `fork`,
//!   `join`, `jralloc`, and the promotion-mark operations.
//! * [`program`] — validated TPAL programs (labelled blocks) and a builder.
//! * [`asm`] — a textual assembler and pretty-printer for the concrete
//!   syntax used in the paper's listings.
//! * [`machine`] — the abstract machine: sequential transitions
//!   (Figures 29 and 31), multi-task parallel evaluation with heartbeat
//!   interrupts and join resolution (Figures 27 and 30), and typed errors.
//! * [`cost`] — the cost semantics of Figure 28: series-parallel cost
//!   graphs summarised as work and span, with the fork-join weight `τ`.
//! * [`programs`] — the paper's example programs (`prod`, `pow`, `fib`),
//!   parsed from the shipped `programs/*.tpal` text, used throughout
//!   tests and documentation.
//!
//! # Truth encoding
//!
//! Following Appendix D of the paper, **zero represents true**: comparison
//! operators produce `0` for true and `1` for false, and `if-jump r, l`
//! branches to `l` when `r` holds zero. This makes `if-jump a, exit` exit a
//! counting loop when `a` reaches zero, exactly as in the paper's listings.
//!
//! # Example
//!
//! Run the paper's running example, `prod` (computes `c = a * b` by
//! repeated addition), with heartbeat-driven promotion:
//!
//! ```
//! use tpal_core::machine::{Machine, MachineConfig};
//! use tpal_core::programs::prod;
//!
//! # fn main() -> Result<(), tpal_core::machine::MachineError> {
//! let program = prod();
//! let mut machine = Machine::new(&program, MachineConfig::default());
//! machine.set_reg("a", 6)?;
//! machine.set_reg("b", 7)?;
//! let outcome = machine.run()?;
//! assert_eq!(outcome.read_reg("c"), Some(42));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
pub mod cost;
pub mod decoded;
pub mod isa;
pub mod machine;
pub mod program;
pub mod programs;
pub mod threaded;
pub mod tier;

pub use decoded::DecodedProgram;
pub use isa::{Annotation, BinOp, Block, Instr, JoinPolicy, Label, Operand, Reg, RegMap};
pub use machine::{Machine, MachineConfig, MachineError, Outcome, Value};
pub use program::{Program, ProgramBuilder, ValidationError};
pub use threaded::ThreadedProgram;
pub use tier::{ExecBackend, ExecTier};
