//! The reference executor: runs a TPAL program's task set under a
//! deterministic scheduling policy with heartbeat promotion and cost
//! accounting.
//!
//! This executor models a single abstract processor multiplexing the task
//! set (the big-step evaluation of Figure 30 linearised into small steps).
//! The evaluation relation is parameterised by where heartbeats come
//! from ([`Beats`]): [`Machine::run`] counts cycles per task, and the
//! native runtime (`tpal-rt`) drives the same [`Machine::run_with`] from
//! a worker's real-time heartbeat source. True multicore execution, with
//! per-core heartbeat timers, steal costs, and delivery-latency models,
//! lives in the `tpal-sim` crate and reuses the same single-step
//! semantics.

use std::borrow::Cow;
use std::collections::VecDeque;

use crate::cost::CostGraph;
use crate::machine::stack::PromotionOrder;
use crate::machine::step::{
    resolve_join, step_task, JoinResolution, RunPause, StepOutcome, Stores, TaskCost, TaskState,
};
use crate::machine::value::{MachineError, RegFile, Value};
use crate::program::Program;
use crate::tier::{ExecBackend, ExecTier};

/// How the reference executor interleaves runnable tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulePolicy {
    /// After a fork, keep running the parent; children queue FIFO. This is
    /// the serial-like order a single worker produces under work stealing
    /// with no thieves.
    #[default]
    ParentFirst,
    /// After a fork, run the child immediately; the parent queues. (The
    /// depth-first order of Cilk-style continuation stealing.)
    ChildFirst,
    /// Rotate through runnable tasks every `quantum` instructions.
    RoundRobin {
        /// Instructions per turn.
        quantum: u64,
    },
    /// Pick a random runnable task every `quantum` instructions, from a
    /// deterministic seed.
    Random {
        /// RNG seed.
        seed: u64,
        /// Instructions per turn.
        quantum: u64,
    },
}

/// Configuration of a [`Machine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// The heartbeat threshold ♥, in instructions. A task triggers a
    /// heartbeat interrupt at the next promotion-ready program point once
    /// its cycle counter exceeds this. `u64::MAX` disables heartbeats
    /// (serial-by-default execution).
    ///
    /// ♥ must exceed the length of the longest heartbeat-handler *abort*
    /// path in the program, or a task at a promotion-ready point with no
    /// promotable parallelism re-triggers the interrupt forever — the
    /// formal model has the same requirement, which real deployments meet
    /// trivially (♥ ≈ 100µs versus a handler of a few dozen cycles). The
    /// executor's step limit converts such livelocks into
    /// [`MachineError::StepLimitExceeded`].
    pub heartbeat: u64,
    /// The fork-join cost weight τ of the cost semantics (Figure 28),
    /// charged to work and span at every join merge.
    pub tau: u64,
    /// Abort execution after this many total instructions.
    pub step_limit: u64,
    /// Task interleaving policy.
    pub policy: SchedulePolicy,
    /// Build the explicit series-parallel cost graph of the execution
    /// (Figure 28) alongside the incremental work/span counters; the
    /// graph is returned in [`Outcome::cost_graph`]. Costs O(forks)
    /// memory.
    pub build_cost_graph: bool,
    /// Which promotion-ready mark `prmsplit` pops: the paper's
    /// outermost-first policy, or its innermost-first ablation foil.
    pub promotion_order: PromotionOrder,
    /// Which interpreter tier executes straight-line stretches. All
    /// tiers are bit-identical in outcome (see [`crate::tier`]).
    pub exec_tier: ExecTier,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            heartbeat: 100,
            tau: 10,
            step_limit: 500_000_000,
            policy: SchedulePolicy::ParentFirst,
            build_cost_graph: false,
            promotion_order: PromotionOrder::OldestFirst,
            exec_tier: ExecTier::default(),
        }
    }
}

impl MachineConfig {
    /// A configuration with heartbeats disabled: the program runs its
    /// serial-by-default path only.
    pub fn serial() -> Self {
        MachineConfig {
            heartbeat: u64::MAX,
            ..MachineConfig::default()
        }
    }

    /// Sets the heartbeat threshold.
    pub fn with_heartbeat(mut self, heartbeat: u64) -> Self {
        self.heartbeat = heartbeat;
        self
    }

    /// Sets the fork-join cost weight.
    pub fn with_tau(mut self, tau: u64) -> Self {
        self.tau = tau;
        self
    }

    /// Sets the scheduling policy.
    pub fn with_policy(mut self, policy: SchedulePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Enables explicit cost-graph construction.
    pub fn with_cost_graph(mut self) -> Self {
        self.build_cost_graph = true;
        self
    }

    /// Sets the promotion order (default: the paper's outermost-first).
    pub fn with_promotion_order(mut self, order: PromotionOrder) -> Self {
        self.promotion_order = order;
        self
    }

    /// Sets the execution tier (default: threaded).
    pub fn with_exec_tier(mut self, tier: ExecTier) -> Self {
        self.exec_tier = tier;
        self
    }
}

/// Counters collected during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Total instructions executed across all tasks.
    pub instructions: u64,
    /// Number of `fork` instructions executed (tasks created).
    pub forks: u64,
    /// Number of heartbeat interrupts serviced (handler diversions).
    pub promotions: u64,
    /// Number of `join` instructions executed.
    pub joins: u64,
    /// Number of pair merges performed during join resolution.
    pub merges: u64,
    /// High-water mark of simultaneously live tasks.
    pub max_live_tasks: usize,
    /// Number of `detach` instructions executed (detached tasks created).
    pub detaches: u64,
    /// Number of items pushed through channels.
    pub chan_pushes: u64,
    /// Number of items popped from channels.
    pub chan_pops: u64,
    /// Number of times a task parked on a full or empty channel.
    pub chan_blocks: u64,
    /// Detached tasks still live when the machine halted (0 means the
    /// pipeline quiesced: every detached task retired through its own
    /// `halt` before the main task's).
    pub detached_live_at_halt: usize,
}

/// The result of running a machine to completion.
#[derive(Debug, Clone)]
pub struct Outcome {
    final_regs: RegFile,
    reg_names: Vec<String>,
    /// Execution counters.
    pub stats: ExecStats,
    /// Total work per the cost semantics: every instruction weighs 1 and
    /// every fork-join weighs τ.
    pub work: u64,
    /// Critical-path length (span) per the cost semantics.
    pub span: u64,
    /// The explicit cost graph, when
    /// [`MachineConfig::build_cost_graph`] was set. Its
    /// [`CostGraph::work`]/[`CostGraph::span`] at the configured τ equal
    /// [`Outcome::work`]/[`Outcome::span`].
    pub cost_graph: Option<CostGraph>,
}

impl Outcome {
    /// The outcome of a run whose main task `halted` retired with `stats`.
    fn new(program: &Program, mut halted: TaskState, stats: ExecStats) -> Outcome {
        Outcome {
            cost_graph: halted.cost.as_mut().map(TaskCost::flush),
            final_regs: halted.regs,
            reg_names: (0..program.reg_count())
                .map(|i| program.reg_name(crate::isa::Reg(i as u32)).to_owned())
                .collect(),
            stats,
            work: halted.rel_work,
            span: halted.rel_span,
        }
    }

    /// Reads an integer register from the halting task's register file.
    ///
    /// Returns `None` if the name is unknown or the register holds a
    /// non-integer.
    pub fn read_reg(&self, name: &str) -> Option<i64> {
        let idx = self.reg_names.iter().position(|n| n == name)?;
        match self.final_regs.read_raw(crate::isa::Reg(idx as u32)) {
            Value::Int(n) => Some(n),
            _ => None,
        }
    }

    /// The halting task's full register file.
    pub fn final_regs(&self) -> &RegFile {
        &self.final_regs
    }

    /// Average parallelism: work divided by span.
    pub fn parallelism(&self) -> f64 {
        self.work as f64 / self.span.max(1) as f64
    }
}

/// Where a task-set driver's heartbeats come from — the one thing on
/// which the abstract machine ([`Machine::run`]: a per-task cycle
/// counter) and the native runtime (`tpal-rt`: a worker's real-time
/// heartbeat source) differ. Everything else — ready queue, fork/join
/// resolution, channel park/wake, detach accounting, the step limit —
/// is [`Machine::run_with`], once.
pub trait Beats {
    /// Asked before every straight-line stretch of `task`: how many
    /// instructions it may run before the driver must ask again, and
    /// whether the promotion watch is armed for the stretch (the task
    /// then pauses at the next promotion-ready point).
    fn stretch(&mut self, task: &TaskState) -> (u64, bool);

    /// A watched stretch reached a promotion-ready point: divert the
    /// task into its heartbeat handler? After a `false` the driver
    /// steps the task past the point before it asks `stretch` again.
    fn promote(&mut self) -> bool;

    /// Observes the outcome of every instruction the driver steps
    /// singly (fork, join, detach, the channel ops — blocked attempts
    /// included —, allocations, `halt`) before the driver acts on it.
    fn on_step(&mut self, _outcome: &StepOutcome) {}
}

/// The abstract machine's beats: a task is due once its cycle counter
/// exceeds ♥, and a due task always promotes (`[try-promote]`, which
/// resets the counter).
struct CycleBeats(u64);

impl Beats for CycleBeats {
    #[inline]
    fn stretch(&mut self, task: &TaskState) -> (u64, bool) {
        if task.cycles > self.0 {
            (u64::MAX, true)
        } else {
            ((self.0 - task.cycles).saturating_add(1), false)
        }
    }

    #[inline]
    fn promote(&mut self) -> bool {
        true
    }
}

/// A tiny deterministic RNG (SplitMix64) for the random schedule policy;
/// kept internal so core has no external dependencies.
#[derive(Debug, Clone)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The reference executor for TPAL programs.
///
/// See the crate-level example for typical use: construct, seed argument
/// registers with [`Machine::set_reg`], then [`Machine::run`].
#[derive(Debug)]
pub struct Machine<'p> {
    program: &'p Program,
    backend: Cow<'p, ExecBackend>,
    config: MachineConfig,
    stores: Stores,
    initial: Option<TaskState>,
}

impl<'p> Machine<'p> {
    /// Creates a machine whose initial task starts at the program's entry
    /// block, compiling a backend for [`MachineConfig::exec_tier`].
    pub fn new(program: &'p Program, config: MachineConfig) -> Self {
        let backend = Cow::Owned(ExecBackend::new(program, config.exec_tier));
        Machine::build(program, backend, config)
    }

    /// Like [`Machine::new`], but executes through a pre-compiled
    /// `backend` (whose tier supersedes [`MachineConfig::exec_tier`]) —
    /// the decode-once path for callers that run one program many times.
    pub fn with_backend(
        program: &'p Program,
        backend: &'p ExecBackend,
        config: MachineConfig,
    ) -> Self {
        Machine::build(program, Cow::Borrowed(backend), config)
    }

    fn build(program: &'p Program, backend: Cow<'p, ExecBackend>, config: MachineConfig) -> Self {
        let mut initial = TaskState::new(program, program.entry());
        if config.build_cost_graph {
            initial.cost = Some(TaskCost::new());
        }
        let mut stores = Stores::new();
        stores.stacks.set_promotion_order(config.promotion_order);
        Machine {
            program,
            backend,
            config,
            stores,
            initial: Some(initial),
        }
    }

    /// Seeds an integer argument register of the initial task.
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownName`] if the program never names `name`.
    pub fn set_reg(&mut self, name: &str, value: i64) -> Result<(), MachineError> {
        let reg = self.program.reg(name).ok_or(MachineError::UnknownName)?;
        let initial = self.initial.as_mut().expect("machine already run");
        initial.regs.write(reg, Value::Int(value));
        Ok(())
    }

    /// Allocates and initialises a heap array before the run, returning
    /// its base address (typically then seeded into an argument register
    /// with [`Machine::set_reg`]).
    pub fn alloc_array(&mut self, data: &[i64]) -> i64 {
        self.stores.heap.alloc_init(data)
    }

    /// Allocates a zeroed heap array of `len` words before the run.
    pub fn alloc_zeroed(&mut self, len: usize) -> i64 {
        self.stores.heap.alloc(len)
    }

    /// Read access to the machine's heap (e.g. to extract output arrays
    /// after [`Machine::run`]).
    pub fn heap(&self) -> &crate::machine::heap::Heap {
        &self.stores.heap
    }

    /// Runs the machine to completion under the configured
    /// cycle-counter heartbeat ♥.
    ///
    /// # Errors
    ///
    /// Any [`MachineError`] raised by a task; [`MachineError::Deadlock`]
    /// if the task set drains without a `halt`;
    /// [`MachineError::StepLimitExceeded`] if the step limit is hit.
    pub fn run(&mut self) -> Result<Outcome, MachineError> {
        self.run_with(&mut CycleBeats(self.config.heartbeat))
    }

    /// The task-set driver: [`Machine::run`] with heartbeats drawn from
    /// `beats` instead of the cycle counter ([`MachineConfig::heartbeat`]
    /// is not consulted). τ, the step limit, the schedule policy and the
    /// promotion order apply whatever the source.
    ///
    /// # Errors
    ///
    /// As [`Machine::run`].
    pub fn run_with<B: Beats>(&mut self, beats: &mut B) -> Result<Outcome, MachineError> {
        let program = self.program;
        let config = self.config;
        let backend: &ExecBackend = &self.backend;
        let stores = &mut self.stores;
        let mut stats = ExecStats::default();
        let mut rng = match config.policy {
            SchedulePolicy::Random { seed, .. } => SplitMix64(seed ^ 0xA076_1D64_78BD_642F),
            _ => SplitMix64(0),
        };
        let quantum = match config.policy {
            SchedulePolicy::RoundRobin { quantum } | SchedulePolicy::Random { quantum, .. } => {
                quantum
            }
            _ => u64::MAX,
        };

        let mut queue: VecDeque<TaskState> = VecDeque::new();
        queue.push_back(self.initial.take().expect("machine already run"));

        // Tasks parked on a channel, in park order, each with its
        // channel and direction (`true`: a pusher blocked on a full
        // channel; `false`: a popper blocked on an empty one). Wakes are
        // FIFO per channel and direction, so the interleaving is
        // deterministic.
        let mut parked: VecDeque<(i64, bool, TaskState)> = VecDeque::new();
        // Requeues the longest-parked `push`-direction waiter on `ch`.
        let wake = |parked: &mut VecDeque<(i64, bool, TaskState)>,
                    queue: &mut VecDeque<TaskState>,
                    ch: i64,
                    push: bool| {
            let i = parked.iter().position(|&(c, p, _)| c == ch && p == push);
            if let Some((_, _, t)) = i.and_then(|i| parked.remove(i)) {
                queue.push_back(t);
            }
            i.is_some()
        };
        // Schedules a new child per policy: run it now (the parent
        // queues) or queue it.
        let child_first = config.policy == SchedulePolicy::ChildFirst;
        let spawn = |queue: &mut VecDeque<TaskState>, task: &mut TaskState, child: TaskState| {
            if child_first {
                queue.push_front(std::mem::replace(task, child));
            } else {
                queue.push_back(child);
            }
        };
        // Live detached tasks (quiescence counter).
        let mut detached_live: usize = 0;

        'outer: while let Some(mut task) = {
            // Pick the next task per policy.
            if matches!(config.policy, SchedulePolicy::Random { .. }) && queue.len() > 1 {
                let i = rng.below(queue.len());
                queue.swap(0, i);
            }
            queue.pop_front()
        } {
            let mut slice: u64 = 0;
            // The beat source declined the point the task is paused at.
            let mut declined = false;
            // Straight-line stretches run batched through the execution
            // tier; the batch budget is the least of the three events a
            // per-step loop would notice — the beat source's next look
            // (cycle-counter expiry, or a real-time poll), the end of
            // the scheduling slice, and the global step limit. The limit
            // clamps every stretch, watched or not, so a program with no
            // boundary and no promotion-ready point still stops.
            'inner: loop {
                let (until_beat, watch) = beats.stretch(&task);
                let until_quantum = if queue.is_empty() {
                    u64::MAX
                } else {
                    quantum.saturating_sub(slice).max(1)
                };
                let until_limit = config
                    .step_limit
                    .saturating_add(1)
                    .saturating_sub(stats.instructions);
                let max_steps = until_beat.min(until_quantum).min(until_limit);
                // A declined point is stepped past unwatched, whatever
                // the source answers now: a source still due would
                // otherwise pause here again with no step taken, which
                // the step limit cannot end.
                let (max_steps, watch) = if std::mem::take(&mut declined) {
                    (max_steps.min(1), false)
                } else {
                    (max_steps, watch)
                };

                let (steps, pause) =
                    backend.run_until(program, &mut task, stores, max_steps, watch)?;
                stats.instructions += steps;
                // The one step-limit check: boundary instructions below
                // are caught here on the next stretch, whose budget
                // `until_limit` has by then clamped to zero.
                if stats.instructions > config.step_limit {
                    return Err(MachineError::StepLimitExceeded {
                        limit: config.step_limit,
                    });
                }
                slice += steps;

                match pause {
                    RunPause::Quantum => {}
                    RunPause::PromotionReady => {
                        if beats.promote() {
                            let handler = task
                                .at_promotion_point(program)
                                .expect("PromotionReady pause implies a prppt entry");
                            task.divert_to_handler(handler);
                            stats.promotions += 1;
                        } else {
                            declined = true;
                        }
                    }
                    RunPause::Boundary => {
                        let outcome = step_task(program, &mut task, stores)?;
                        beats.on_step(&outcome);
                        let detach = matches!(outcome, StepOutcome::Detached { .. });
                        match outcome {
                            StepOutcome::Ran => {}
                            StepOutcome::Halted => {
                                stats.instructions += 1;
                                if task.detached {
                                    // A detached task's halt retires only
                                    // itself; the machine continues.
                                    detached_live -= 1;
                                    continue 'outer;
                                }
                                stats.detached_live_at_halt = detached_live;
                                return Ok(Outcome::new(program, task, stats));
                            }
                            StepOutcome::Forked { child } | StepOutcome::Detached { child } => {
                                // A spawn is live, as are the running and
                                // the parked tasks.
                                if detach {
                                    stats.detaches += 1;
                                    detached_live += 1;
                                } else {
                                    stats.forks += 1;
                                }
                                spawn(&mut queue, &mut task, *child);
                                stats.max_live_tasks =
                                    stats.max_live_tasks.max(queue.len() + 1 + parked.len());
                            }
                            StepOutcome::Joined { jr } => {
                                stats.instructions += 1;
                                stats.joins += 1;
                                match resolve_join(program, task, jr, stores, config.tau)? {
                                    JoinResolution::TaskDied => continue 'outer,
                                    JoinResolution::Merged(resumed) => {
                                        stats.merges += 1;
                                        task = *resumed;
                                    }
                                    JoinResolution::Completed(resumed) => task = *resumed,
                                }
                                continue 'inner;
                            }
                            StepOutcome::ChanPushed { ch } => {
                                // One item appeared: wake the oldest
                                // parked popper of this channel, if any.
                                stats.chan_pushes += 1;
                                wake(&mut parked, &mut queue, ch, false);
                            }
                            StepOutcome::ChanPopped { ch } => {
                                // One slot freed: wake the oldest parked
                                // pusher of this channel, if any.
                                stats.chan_pops += 1;
                                wake(&mut parked, &mut queue, ch, true);
                            }
                            StepOutcome::ChanClosed { ch } => {
                                // Wake everyone parked on the channel:
                                // poppers first (they drain the buffer),
                                // then pushers (they fault on retry).
                                while wake(&mut parked, &mut queue, ch, false) {}
                                while wake(&mut parked, &mut queue, ch, true) {}
                            }
                            StepOutcome::ChanBlocked { ch, push } => {
                                // Not a step: park the task until a
                                // partner wakes it.
                                stats.chan_blocks += 1;
                                parked.push_back((ch, push, task));
                                continue 'outer;
                            }
                        }
                        stats.instructions += 1;
                        slice += 1;
                    }
                }
                if slice >= quantum && !queue.is_empty() {
                    queue.push_back(task);
                    continue 'outer;
                }
            }
        }
        // The ready queue drained without a `halt`.
        Err(MachineError::Deadlock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instr, Operand};
    use crate::program::ProgramBuilder;

    fn const_program(n: i64) -> Program {
        let mut b = ProgramBuilder::new();
        let r = b.reg("r");
        b.block(
            "main",
            vec![
                Instr::Move {
                    dst: r,
                    src: Operand::Int(n),
                },
                Instr::Halt,
            ],
        );
        b.build().unwrap()
    }

    #[test]
    fn run_constant_program() {
        let p = const_program(99);
        let mut m = Machine::new(&p, MachineConfig::default());
        let out = m.run().unwrap();
        assert_eq!(out.read_reg("r"), Some(99));
        assert_eq!(out.stats.instructions, 2);
        assert_eq!(out.work, 2);
        assert_eq!(out.span, 2);
    }

    #[test]
    fn set_reg_unknown_name() {
        let p = const_program(0);
        let mut m = Machine::new(&p, MachineConfig::default());
        assert!(matches!(
            m.set_reg("nope", 1),
            Err(MachineError::UnknownName)
        ));
    }

    #[test]
    fn step_limit_enforced() {
        // An infinite loop.
        let mut b = ProgramBuilder::new();
        let l = b.label("spin");
        b.block(
            "spin",
            vec![Instr::Jump {
                target: Operand::Label(l),
            }],
        );
        let p = b.build().unwrap();
        let config = MachineConfig {
            step_limit: 1000,
            ..MachineConfig::default()
        };
        assert!(matches!(
            Machine::new(&p, config).run(),
            Err(MachineError::StepLimitExceeded { limit: 1000 })
        ));

        // A beat source that has armed the watch and asks for no budget
        // of its own (the native runtime's, once a beat is due): the
        // limit clamps the stretch although no promotion-ready point
        // will ever end it.
        struct Armed;
        impl Beats for Armed {
            fn stretch(&mut self, _: &TaskState) -> (u64, bool) {
                (u64::MAX, true)
            }
            fn promote(&mut self) -> bool {
                false
            }
        }
        assert!(matches!(
            Machine::new(&p, config).run_with(&mut Armed),
            Err(MachineError::StepLimitExceeded { limit: 1000 })
        ));
        // The same source at a promotion-ready point it keeps declining
        // while staying armed: the driver steps the task past the point
        // rather than pausing at it again, so the limit still ends it.
        let src = "spin: [prppt h]\n    jump spin\nh: [.]\n    halt\n";
        let p = crate::asm::parse_program(src).unwrap();
        assert!(matches!(
            Machine::new(&p, config).run_with(&mut Armed),
            Err(MachineError::StepLimitExceeded { limit: 1000 })
        ));
    }

    #[test]
    fn outcome_parallelism_is_work_over_span() {
        let p = const_program(0);
        let out = Machine::new(&p, MachineConfig::default()).run().unwrap();
        assert!((out.parallelism() - 1.0).abs() < 1e-9);
    }

    fn pipeline_src() -> &'static str {
        r#"
main: [.]
    c := chmake 2
    detach producer
    s := 0
    k := 0
    jump consume
consume: [.]
    t := k < 5
    if-jump t, do_pop
    halt
do_pop: [.]
    v := chpop c
    s := s + v
    k := k + 1
    jump consume
producer: [.]
    i := 0
    jump produce
produce: [.]
    t2 := i < 5
    if-jump t2, do_push
    chclose c
    halt
do_push: [.]
    chpush c, i
    i := i + 1
    jump produce
"#
    }

    /// A producer-consumer pipeline over a capacity-2 channel: the
    /// detached producer pushes 0..5 and retires; the main task pops
    /// and sums. Both blocking directions are exercised (the channel
    /// fills while the consumer runs behind, and empties while the
    /// producer is parked), on every tier and under every policy.
    #[test]
    fn channel_pipeline_with_detached_producer() {
        let p = crate::asm::parse_program(pipeline_src()).unwrap();
        for tier in ExecTier::ALL {
            for policy in [
                SchedulePolicy::ParentFirst,
                SchedulePolicy::ChildFirst,
                SchedulePolicy::RoundRobin { quantum: 3 },
                SchedulePolicy::Random {
                    seed: 7,
                    quantum: 2,
                },
            ] {
                let mut m = Machine::new(
                    &p,
                    MachineConfig::default()
                        .with_policy(policy)
                        .with_exec_tier(tier),
                );
                let out = m.run().unwrap();
                assert_eq!(out.read_reg("s"), Some(10), "tier {tier} policy {policy:?}");
                assert_eq!(out.stats.detaches, 1);
                assert_eq!(out.stats.chan_pushes, 5);
                assert_eq!(out.stats.chan_pops, 5);
                assert_eq!(out.stats.detached_live_at_halt, 0, "pipeline quiesced");
            }
        }
    }

    /// Popping past a closed, drained channel faults deterministically.
    #[test]
    fn pop_after_close_drains_then_faults() {
        let src = r#"
main: [.]
    c := chmake 4
    chpush c, 1
    chpush c, 2
    chclose c
    a := chpop c
    b := chpop c
    x := chpop c
    halt
"#;
        let p = crate::asm::parse_program(src).unwrap();
        for tier in ExecTier::ALL {
            let mut m = Machine::new(&p, MachineConfig::default().with_exec_tier(tier));
            assert_eq!(m.run().unwrap_err(), MachineError::ChannelClosed, "{tier}");
        }
    }

    /// A pop with no partner parks the only task: deadlock, not a hang.
    #[test]
    fn channel_deadlock_detected() {
        let src = "main: [.]\n    c := chmake 1\n    v := chpop c\n    halt\n";
        let p = crate::asm::parse_program(src).unwrap();
        let mut m = Machine::new(&p, MachineConfig::default());
        assert_eq!(m.run().unwrap_err(), MachineError::Deadlock);
    }

    /// Push on a closed channel faults; capacity must be positive.
    #[test]
    fn channel_misuse_faults() {
        let src = "main: [.]\n    c := chmake 1\n    chclose c\n    chpush c, 9\n    halt\n";
        let p = crate::asm::parse_program(src).unwrap();
        assert_eq!(
            Machine::new(&p, MachineConfig::default())
                .run()
                .unwrap_err(),
            MachineError::ChannelClosed
        );
        let src = "main: [.]\n    c := chmake 0\n    halt\n";
        let p = crate::asm::parse_program(src).unwrap();
        assert_eq!(
            Machine::new(&p, MachineConfig::default())
                .run()
                .unwrap_err(),
            MachineError::BadChannelCapacity { cap: 0 }
        );
    }
}
