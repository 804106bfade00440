//! Execution-tier selection: one enum naming the three interpreter
//! tiers, and a pre-compiled backend that dispatches a task quantum to
//! the selected tier.
//!
//! The three tiers are bit-identical in observable behaviour — same
//! step and cycle accounting, same pause points, same fault positions —
//! and differ only in speed:
//!
//! * [`ExecTier::Reference`] — the specification interpreter
//!   ([`crate::machine::run_task_until`]): one `match` over
//!   [`crate::isa::Instr`] per step, operands read through the register
//!   map each time. Slowest; the semantic ground truth.
//! * [`ExecTier::Decoded`] — the pre-decoded micro-op stream
//!   ([`crate::decoded::DecodedProgram`]): operands resolved at decode
//!   time, hot multi-instruction shapes fused into superinstructions,
//!   dispatched by a `match` over the micro-op enum.
//! * [`ExecTier::Threaded`] — the same micro-op stream and the same
//!   loop with the reduce and guarded-update **loop templates**
//!   installed ([`crate::threaded::ThreadedProgram`]): a recognised
//!   whole loop runs from one dispatch. Level with `Decoded` where no
//!   template applies, an order of magnitude faster where one does; the
//!   default. (The name predates the merge of the two tiers' loops and
//!   goes with the next benchmark change; `Decoded` stays as the
//!   template-free oracle.)
//!
//! Equivalence across the tiers is enforced by three-way differential
//! suites (`engine_equivalence`, `decoded_prop`, `threaded_quantum`).

use crate::decoded::DecodedProgram;
use crate::machine::step::{run_task_until, RunPause, Stores, TaskState};
use crate::machine::MachineError;
use crate::program::Program;
use crate::threaded::ThreadedProgram;

/// Which interpreter tier executes task quanta.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecTier {
    /// The specification interpreter: per-step `match` on [`crate::isa::Instr`].
    Reference,
    /// Pre-decoded micro-ops with fused superinstructions.
    Decoded,
    /// Decoded micro-ops plus whole-loop templates (default).
    #[default]
    Threaded,
}

impl ExecTier {
    /// Parses a tier name as accepted by `--exec-tier`:
    /// `ref`/`reference`, `decoded`, or `threaded`.
    pub fn parse(s: &str) -> Option<ExecTier> {
        match s {
            "ref" | "reference" => Some(ExecTier::Reference),
            "decoded" => Some(ExecTier::Decoded),
            "threaded" => Some(ExecTier::Threaded),
            _ => None,
        }
    }

    /// Canonical short name (`ref`, `decoded`, `threaded`), as used in
    /// bench columns and CLI output.
    pub fn label(self) -> &'static str {
        match self {
            ExecTier::Reference => "ref",
            ExecTier::Decoded => "decoded",
            ExecTier::Threaded => "threaded",
        }
    }

    /// All tiers, slowest first.
    pub const ALL: [ExecTier; 3] = [ExecTier::Reference, ExecTier::Decoded, ExecTier::Threaded];
}

impl std::fmt::Display for ExecTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A program compiled for one execution tier.
///
/// Construction pays the tier's compile cost once (nothing for the
/// reference tier); [`ExecBackend::run_until`] then dispatches each
/// quantum with no per-call branching beyond one enum match.
#[derive(Debug, Clone)]
pub enum ExecBackend {
    /// No pre-compilation; quanta run through the specification interpreter.
    Reference,
    /// Pre-decoded micro-op stream (boxed: its tables are built once per
    /// program and the enum stays one word wide).
    Decoded(Box<DecodedProgram>),
    /// The same stream with loop templates installed.
    Threaded(Box<ThreadedProgram>),
}

impl ExecBackend {
    /// Compiles `program` for the requested tier.
    pub fn new(program: &Program, tier: ExecTier) -> ExecBackend {
        match tier {
            ExecTier::Reference => ExecBackend::Reference,
            ExecTier::Decoded => ExecBackend::Decoded(Box::new(DecodedProgram::decode(program))),
            ExecTier::Threaded => {
                ExecBackend::Threaded(Box::new(ThreadedProgram::compile(program)))
            }
        }
    }

    /// The tier this backend was compiled for.
    pub fn tier(&self) -> ExecTier {
        match self {
            ExecBackend::Reference => ExecTier::Reference,
            ExecBackend::Decoded(_) => ExecTier::Decoded,
            ExecBackend::Threaded(_) => ExecTier::Threaded,
        }
    }

    /// Runs `task` for up to `max_steps` machine steps through this
    /// backend's tier. Semantics are identical across tiers; see
    /// [`crate::machine::run_task_until`] for the contract (`watch`
    /// enables promotion-ready pauses at `prppt` block entries).
    #[inline]
    pub fn run_until(
        &self,
        program: &Program,
        task: &mut TaskState,
        stores: &mut Stores,
        max_steps: u64,
        watch: bool,
    ) -> Result<(u64, RunPause), MachineError> {
        match self {
            ExecBackend::Reference => run_task_until(program, task, stores, max_steps, watch),
            ExecBackend::Decoded(d) => d.run_until(task, stores, max_steps, watch),
            ExecBackend::Threaded(t) => t.run_until(task, stores, max_steps, watch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Value;
    use crate::programs::prod;

    #[test]
    fn parse_and_label_round_trip() {
        for tier in ExecTier::ALL {
            assert_eq!(ExecTier::parse(tier.label()), Some(tier));
        }
        assert_eq!(ExecTier::parse("reference"), Some(ExecTier::Reference));
        assert_eq!(ExecTier::parse("jit"), None);
        assert_eq!(ExecTier::default(), ExecTier::Threaded);
    }

    #[test]
    fn backends_agree_on_prod() {
        let p = prod();
        let mut results = Vec::new();
        for tier in ExecTier::ALL {
            let backend = ExecBackend::new(&p, tier);
            assert_eq!(backend.tier(), tier);
            let mut task = TaskState::new(&p, p.entry());
            task.regs.write(p.reg("a").unwrap(), Value::Int(6));
            task.regs.write(p.reg("b").unwrap(), Value::Int(7));
            let mut stores = Stores::new();
            let r = backend.run_until(&p, &mut task, &mut stores, u64::MAX, false);
            results.push((format!("{r:?}"), task.block, task.instr, task.cycles));
        }
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2]);
    }
}
