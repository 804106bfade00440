//! The TPAL abstract machine.
//!
//! The machine implements the formal model of the paper's Appendix C:
//! sequential transitions over `(pc, H, R, I)` configurations (Figures 29
//! and 31), multi-task evaluation with heartbeat interrupts and join
//! resolution (Figure 30), and the metafunctions of Figure 27.
//!
//! Two levels of API are offered:
//!
//! * [`Machine`] — a ready-to-use executor with a deterministic scheduler,
//!   heartbeat accounting, and cost (work/span) instrumentation. This is
//!   what tests and examples use.
//! * The *micro* interface ([`TaskState`], [`Stores`], [`step_task`],
//!   [`JoinStore`]) — the single-step semantics, exposed so that external
//!   executors (notably the `tpal-sim` multicore simulator) can drive
//!   tasks under their own scheduling, interrupt, and cost models.

mod channel;
mod exec;
pub(crate) mod heap;
mod join;
pub(crate) mod stack;
pub(crate) mod step;
mod value;

pub use channel::{Channel, ChannelStore};
pub use exec::{Beats, ExecStats, Machine, MachineConfig, Outcome, SchedulePolicy};
pub use heap::{Heap, MAX_HEAP_WORDS};
pub use join::{Assoc, JoinId, JoinOutcome, JoinStore};
pub use stack::{PromotionOrder, StackId, StackRef, StackStore, MAX_STACK_CELLS};
pub use step::{
    resolve_join, run_task_until, step_task, JoinResolution, RunPause, StepOutcome, Stores,
    TaskCost, TaskState,
};
pub use value::{MachineError, RegFile, Value};
