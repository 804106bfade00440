//! Lowering from the task-parallel IR to TPAL.
//!
//! The lowering implements the paper's *code versioning* (§3.1): each
//! parallel construct compiles to serial-by-default blocks plus, in
//! heartbeat mode, promotion-ready program points, handler blocks that
//! manifest latent parallelism, and parallel blocks entered only after a
//! promotion. The calling convention and promotion machinery for
//! recursion follow Appendix B.2: every call pushes a frame; a `Par2`
//! frame additionally carries a promotion-ready mark, the child's entry
//! label and arguments, and the join continuation, so that the *generic*
//! promotion handler can reify the oldest latent call without knowing its
//! site.
//!
//! Frame layouts (offsets from the frame's newest cell):
//!
//! ```text
//! serial call frame: [cont, saved vars…]
//! par2 frame:        [cont, mark, child-entry, join-cont, left-result,
//!                     right-args…, saved vars…]
//! ```
//!
//! See the submodules for the three parallel templates:
//! [`parfor`](self) (loop splitting after Figure 2), `par2` (latent
//! calls after Figures 22/23), and `nested` (the outer-loop-first nest of
//! Appendix B.1).

mod context;
mod nested;
mod par2;
mod parfor;
mod stmts;

use std::fmt;

use tpal_core::program::{Program, ValidationError};

use crate::ast::IrProgram;
pub(crate) use context::Cx;

/// The lowering mode: which executable is produced from the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Erase all parallelism: the serial baseline.
    Serial,
    /// Heartbeat scheduling: serial-by-default with promotion-ready
    /// program points (TPAL proper). Parallel loops use the *reduced*
    /// block style of the paper's §D.5: one loop block shared by the
    /// serial and parallel phases, with a sentinel join record.
    Heartbeat,
    /// Heartbeat scheduling with the *expanded* block style of §D.5:
    /// separate serial and parallel loop blocks, so the never-promoted
    /// path carries no join-record code at all, at the cost of emitting
    /// each loop body twice. (Par2 and nested loops are unaffected.)
    HeartbeatExpanded,
    /// Cilk-style eager decomposition: spawn at every fork point, and
    /// split parallel loops into `8 × workers` chunks up front.
    Eager {
        /// The worker count `P` used by the `8P` grain heuristic.
        workers: u32,
    },
}

impl Mode {
    /// Whether this mode performs heartbeat scheduling (either block
    /// style).
    pub fn is_heartbeat(self) -> bool {
        matches!(self, Mode::Heartbeat | Mode::HeartbeatExpanded)
    }
}

/// An error found while lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LowerError {
    /// A call referenced an unknown function.
    UnknownFunction {
        /// The missing name.
        name: String,
    },
    /// A call passed the wrong number of arguments.
    ArityMismatch {
        /// Callee.
        name: String,
        /// Declared parameter count.
        expected: usize,
        /// Arguments at the call.
        got: usize,
    },
    /// A parallel statement appeared where only serial statements are
    /// allowed (inside a `ParFor` body or the serial sections of a
    /// `ParForNested`).
    NestedParallelism {
        /// Which construct contained it.
        context: &'static str,
    },
    /// The entry function named by the program does not exist.
    MissingEntry {
        /// The entry name.
        name: String,
    },
    /// The generated program failed TPAL validation (a lowering bug;
    /// please report it).
    Validation(ValidationError),
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LowerError::UnknownFunction { name } => write!(f, "unknown function `{name}`"),
            LowerError::ArityMismatch {
                name,
                expected,
                got,
            } => write!(
                f,
                "call to `{name}` passes {got} arguments, expected {expected}"
            ),
            LowerError::NestedParallelism { context } => {
                write!(
                    f,
                    "parallel statement inside {context} (use ParForNested or a callee)"
                )
            }
            LowerError::MissingEntry { name } => write!(f, "entry function `{name}` not found"),
            LowerError::Validation(e) => write!(f, "generated program invalid: {e}"),
        }
    }
}

impl std::error::Error for LowerError {}

impl From<ValidationError> for LowerError {
    fn from(e: ValidationError) -> Self {
        LowerError::Validation(e)
    }
}

/// The result of lowering: a validated TPAL program plus the register
/// names through which the harness passes inputs and reads the result.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// The TPAL program.
    pub program: Program,
    /// Name of the entry function.
    pub entry: String,
    /// Register holding the entry function's return value after `halt`.
    pub result_reg: String,
}

impl Lowered {
    /// The register name carrying the entry parameter `param` (seed it
    /// with [`tpal_core::machine::Machine::set_reg`] before running).
    pub fn param_reg(&self, param: &str) -> String {
        format!("{}.{}", self.entry, param)
    }
}

/// Lowers an IR program to TPAL in the given mode.
///
/// # Errors
///
/// Any [`LowerError`]: unresolved or misused functions, parallelism where
/// only serial statements are allowed, or (indicating a bug in this
/// crate) a generated program that fails validation.
pub fn lower(ir: &IrProgram, mode: Mode) -> Result<Lowered, LowerError> {
    let mut cx = Cx::new(ir, mode);
    let (entry, _) = cx
        .function(&ir.entry)
        .ok_or_else(|| LowerError::MissingEntry {
            name: ir.entry.clone(),
        })?;
    cx.emit_main_wrapper(entry);
    for at in 0..ir.functions.len() {
        cx.lower_function(at)?;
    }
    cx.emit_runtime_blocks();

    Ok(Lowered {
        program: cx.into_program()?,
        entry: ir.entry.clone(),
        result_reg: "result".to_owned(),
    })
}
