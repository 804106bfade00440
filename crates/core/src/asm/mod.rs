//! A textual assembler and pretty-printer for TPAL.
//!
//! The concrete syntax follows the paper's listings (Figure 2):
//!
//! ```text
//! // computes c = a * b
//! prod: [.]
//!     r := 0
//!     jump loop
//! exit: [jtppt assoc-comm; {r -> r2}; comb]
//!     c := r
//!     halt
//! loop: [prppt loop_try_promote]
//!     if-jump a, exit
//!     r := r + b
//!     a := a - 1
//!     jump loop
//! ...
//! ```
//!
//! Statements are separated by newlines or semicolons. Identifiers may
//! contain interior hyphens when not surrounded by spaces (`if-jump`,
//! `assoc-comm`, `sp-top`), exactly as in the paper; `a - 1` with spaces
//! is subtraction. Chained operators (`sp-top := sp + top - 1`) expand to
//! a left-associated instruction sequence accumulating in the
//! destination, and are rejected if a later operand would read the
//! already-clobbered destination.
//!
//! An identifier in operand position denotes the block label of that name
//! if one exists, and a register otherwise.
//!
//! # Examples
//!
//! ```
//! use tpal_core::asm;
//! use tpal_core::machine::{Machine, MachineConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = asm::parse_program(
//!     "main: [.]\n  r := 6\n  r := r * 7\n  halt\n",
//! )?;
//! let out = Machine::new(&program, MachineConfig::default()).run()?;
//! assert_eq!(out.read_reg("r"), Some(42));
//! # Ok(())
//! # }
//! ```

mod lexer;
mod parser;
mod printer;

pub use parser::{parse_program, ParseError};
pub use printer::print_program;
