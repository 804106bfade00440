//! Running TPAL programs on the native runtime.
//!
//! [`Runtime::run_program`] interprets a [`Program`] on a worker thread
//! with **real-time heartbeats**: instead of the abstract machine's
//! cycle-counter heartbeat ([`tpal_core::machine::MachineConfig`]), the
//! interpreter polls the worker's actual heartbeat source (local timer
//! or ping thread) between instruction chunks, and arms the
//! promotion-ready *watch* only once a beat is due — the same
//! signal-at-prppt semantics the paper obtains with rollforward
//! compilation. Straight-line stretches run through the configured
//! execution tier ([`RtConfig::exec_tier`]): reference, decoded
//! micro-ops, or decoded micro-ops plus loop templates, all bit-identical
//! in outcome.
//!
//! Task management is deliberately local (a FIFO of ready tasks on the
//! interpreting worker, as in [`tpal_core::machine::Machine`]): TPAL
//! stores are single-threaded by construction, so promoted tasks
//! interleave on one worker while the pool's other workers keep serving
//! native (closure-level) jobs. Cross-worker TPAL execution is the
//! simulator's domain (`tpal-sim`), where costs are modelled rather
//! than measured.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;

use tpal_core::machine::{
    resolve_join, step_task, JoinResolution, MachineError, RunPause, StepOutcome, Stores,
    TaskState, Value,
};
use tpal_core::program::Program;
use tpal_core::tier::ExecBackend;
use tpal_trace::EventKind;

use crate::pool::{Runtime, WorkerCtx};

/// Instructions executed between heartbeat polls while the watch is
/// unarmed. Polls are further subsampled by the worker's local-timer
/// skip counter, so the per-chunk cost is one counter decrement.
const POLL_CHUNK: u64 = 1_000;

/// Abort threshold, matching `MachineConfig::default().step_limit`.
const STEP_LIMIT: u64 = 500_000_000;

/// The fork-join cost weight τ charged at join merges, matching
/// `MachineConfig::default().tau`.
const TAU: u64 = 10;

/// Counters from one [`Runtime::run_program`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Instructions executed, over all tasks.
    pub instructions: u64,
    /// Heartbeats observed by the interpreter (watch armings).
    pub heartbeats: u64,
    /// Promotions: diversions into a `prppt` heartbeat handler.
    pub promotions: u64,
    /// `fork` instructions executed.
    pub forks: u64,
    /// `join` instructions executed.
    pub joins: u64,
    /// `detach` instructions executed.
    pub detaches: u64,
    /// Items appended by `chpush`.
    pub chan_pushes: u64,
    /// Items removed by `chpop`.
    pub chan_pops: u64,
    /// Blocked channel attempts (full push or empty pop) that parked
    /// the task. Blocked attempts execute no instruction.
    pub chan_blocks: u64,
    /// Detached tasks still running (or ready) when the root halted.
    pub detached_live_at_halt: u64,
}

/// The result of running a TPAL program on the runtime.
#[derive(Debug, Clone)]
pub struct ProgramOutcome {
    /// Execution counters.
    pub stats: ProgramStats,
    final_regs: Vec<(String, Value)>,
}

impl ProgramOutcome {
    /// Reads an integer register of the halting task by name.
    pub fn read_reg(&self, name: &str) -> Option<i64> {
        self.final_regs.iter().find_map(|(n, v)| {
            if n == name {
                match v {
                    Value::Int(i) => Some(*i),
                    _ => None,
                }
            } else {
                None
            }
        })
    }
}

impl Runtime {
    /// Runs a TPAL program to `halt` on a worker, with heartbeats from
    /// the runtime's real heartbeat source and straight-line execution
    /// through the configured tier ([`RtConfig::exec_tier`]).
    ///
    /// `args` seeds integer argument registers of the initial task.
    ///
    /// # Errors
    ///
    /// Any [`MachineError`] raised by a task;
    /// [`MachineError::UnknownName`] for an unknown register name in
    /// `args`; [`MachineError::Deadlock`] if the task set drains without
    /// a `halt`.
    pub fn run_program(
        &self,
        program: &Program,
        args: &[(&str, i64)],
    ) -> Result<ProgramOutcome, MachineError> {
        let backend = ExecBackend::new(program, self.exec_tier());
        self.run_program_with(program, &backend, args)
    }

    /// Like [`Runtime::run_program`], but executes through a
    /// pre-compiled backend instead of compiling one per call — the
    /// decode-once path for services that run one validated program
    /// many times (`tpal-serve`). The backend's tier overrides the
    /// runtime's configured [`RtConfig::exec_tier`] for this run;
    /// outcomes are bit-identical across tiers either way.
    pub fn run_program_with(
        &self,
        program: &Program,
        backend: &ExecBackend,
        args: &[(&str, i64)],
    ) -> Result<ProgramOutcome, MachineError> {
        let mut initial = TaskState::new(program, program.entry());
        for (name, value) in args {
            let reg = program.reg(name).ok_or(MachineError::UnknownName)?;
            initial.regs.write(reg, Value::Int(*value));
        }
        self.run(move |ctx| run_program_on(ctx, program, backend, initial))
    }
}

/// The interpreter driver: runs on one worker, polling its heartbeat.
fn run_program_on(
    ctx: &WorkerCtx<'_>,
    program: &Program,
    backend: &ExecBackend,
    initial: TaskState,
) -> Result<ProgramOutcome, MachineError> {
    let mut stores = Stores::new();
    let mut stats = ProgramStats::default();
    let mut queue: VecDeque<TaskState> = VecDeque::new();
    queue.push_back(initial);
    // Tasks parked on a full push / empty pop, in park (FIFO) order —
    // the native interpreter always wakes the longest-parked waiter,
    // matching the abstract machine's deterministic single-queue wake.
    let mut parked_push: VecDeque<(i64, TaskState)> = VecDeque::new();
    let mut parked_pop: VecDeque<(i64, TaskState)> = VecDeque::new();
    // Free-running `detach` tasks still live; the run ends at the root
    // task's halt regardless, but the counter keeps accounting honest.
    let mut detached_live: u64 = 0;
    let mut halted: Option<TaskState> = None;

    /// Requeues the longest-parked waiter on `ch`, if any.
    fn wake_one(
        list: &mut VecDeque<(i64, TaskState)>,
        ch: i64,
        queue: &mut VecDeque<TaskState>,
    ) -> bool {
        match list.iter().position(|(c, _)| *c == ch) {
            Some(pos) => {
                let (_, t) = list.remove(pos).expect("position is in bounds");
                queue.push_back(t);
                true
            }
            None => false,
        }
    }
    // Set when a heartbeat was observed and the watch is armed; cleared
    // once the beat is consumed by a promotion attempt at a `prppt`.
    let mut armed = false;

    'outer: while let Some(mut task) = queue.pop_front() {
        'inner: loop {
            if !armed && ctx.heartbeat_due() {
                armed = true;
                stats.heartbeats += 1;
                ctx.shared
                    .counters
                    .shard(ctx.id)
                    .heartbeats_serviced
                    .fetch_add(1, Ordering::Relaxed);
                ctx.shared.trace_event(ctx.id, EventKind::HeartbeatServiced);
            }
            let max_steps = if armed { u64::MAX } else { POLL_CHUNK };
            let (steps, pause) =
                backend.run_until(program, &mut task, &mut stores, max_steps, armed)?;
            stats.instructions += steps;
            if stats.instructions > STEP_LIMIT {
                return Err(MachineError::StepLimitExceeded { limit: STEP_LIMIT });
            }
            match pause {
                RunPause::Quantum => {}
                RunPause::PromotionReady => {
                    // Only an armed watch pauses here; the beat is
                    // consumed either way (one attempt per beat).
                    armed = false;
                    if ctx.attempt_promotion(true) {
                        let handler = task
                            .at_promotion_point(program)
                            .expect("PromotionReady pause implies a prppt entry");
                        task.divert_to_handler(handler);
                        stats.promotions += 1;
                        ctx.shared
                            .counters
                            .shard(ctx.id)
                            .promotions
                            .fetch_add(1, Ordering::Relaxed);
                        ctx.shared
                            .trace_event(ctx.id, EventKind::TaskPromote { task: 0 });
                    }
                    // Declined: fall through; the next run_until is
                    // unwatched, so the task moves past the point.
                }
                RunPause::Boundary => match step_task(program, &mut task, &mut stores)? {
                    StepOutcome::Ran => stats.instructions += 1,
                    StepOutcome::Halted => {
                        stats.instructions += 1;
                        if task.detached {
                            // A detached task retiring does not end the
                            // run; the root task's halt does.
                            detached_live -= 1;
                            continue 'outer;
                        }
                        halted = Some(task);
                        break 'outer;
                    }
                    StepOutcome::Forked { child } => {
                        stats.instructions += 1;
                        stats.forks += 1;
                        ctx.shared
                            .counters
                            .shard(ctx.id)
                            .tasks_created
                            .fetch_add(1, Ordering::Relaxed);
                        queue.push_back(*child);
                    }
                    StepOutcome::Detached { child } => {
                        stats.instructions += 1;
                        stats.detaches += 1;
                        detached_live += 1;
                        ctx.shared
                            .counters
                            .shard(ctx.id)
                            .tasks_created
                            .fetch_add(1, Ordering::Relaxed);
                        ctx.shared.trace_event(
                            ctx.id,
                            EventKind::TaskDetach {
                                parent: 0,
                                child: 0,
                            },
                        );
                        queue.push_back(*child);
                    }
                    StepOutcome::ChanPushed { ch } => {
                        stats.instructions += 1;
                        stats.chan_pushes += 1;
                        ctx.shared.trace_event(
                            ctx.id,
                            EventKind::ChanPush {
                                ch: ch as u32,
                                task: 0,
                            },
                        );
                        wake_one(&mut parked_pop, ch, &mut queue);
                    }
                    StepOutcome::ChanPopped { ch } => {
                        stats.instructions += 1;
                        stats.chan_pops += 1;
                        ctx.shared.trace_event(
                            ctx.id,
                            EventKind::ChanPop {
                                ch: ch as u32,
                                task: 0,
                            },
                        );
                        wake_one(&mut parked_push, ch, &mut queue);
                    }
                    StepOutcome::ChanClosed { ch } => {
                        stats.instructions += 1;
                        ctx.shared.trace_event(
                            ctx.id,
                            EventKind::ChanClose {
                                ch: ch as u32,
                                task: 0,
                            },
                        );
                        // Close wakes every waiter: poppers first (they
                        // drain the buffer, then fault), then pushers
                        // (they fault on retry).
                        while wake_one(&mut parked_pop, ch, &mut queue) {}
                        while wake_one(&mut parked_push, ch, &mut queue) {}
                    }
                    StepOutcome::ChanBlocked { ch, push } => {
                        // The op did not step (no instruction charged);
                        // park the task at the same position for retry.
                        stats.chan_blocks += 1;
                        ctx.shared.trace_event(
                            ctx.id,
                            EventKind::ChanBlock {
                                ch: ch as u32,
                                task: 0,
                                push,
                            },
                        );
                        if push {
                            parked_push.push_back((ch, task));
                        } else {
                            parked_pop.push_back((ch, task));
                        }
                        continue 'outer;
                    }
                    StepOutcome::Joined { jr } => {
                        stats.instructions += 1;
                        stats.joins += 1;
                        match resolve_join(program, task, jr, &mut stores, TAU)? {
                            JoinResolution::TaskDied => continue 'outer,
                            JoinResolution::Merged(resumed)
                            | JoinResolution::Completed(resumed) => {
                                task = *resumed;
                                continue 'inner;
                            }
                        }
                    }
                },
            }
        }
    }

    let task = match halted {
        Some(t) => t,
        None => return Err(MachineError::Deadlock),
    };
    stats.detached_live_at_halt = detached_live;
    let final_regs = (0..program.reg_count())
        .map(|i| {
            let r = tpal_core::isa::Reg::from_index(i);
            (
                program.reg_name(r).to_owned(),
                task.regs.read(r).unwrap_or(Value::Uninit),
            )
        })
        .collect();
    Ok(ProgramOutcome { stats, final_regs })
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use tpal_core::machine::{Machine, MachineConfig};
    use tpal_core::programs::{fib, prod};
    use tpal_core::tier::ExecTier;

    use crate::{HeartbeatSource, RtConfig, Runtime};

    /// Every tier computes the same results as the abstract machine,
    /// under real heartbeats.
    #[test]
    fn run_program_matches_machine_across_tiers() {
        let p = prod();
        let mut m = Machine::new(&p, MachineConfig::default());
        m.set_reg("a", 200).unwrap();
        m.set_reg("b", 3).unwrap();
        let want = m.run().unwrap().read_reg("c").unwrap();

        for tier in ExecTier::ALL {
            let rt = Runtime::new(
                RtConfig::default()
                    .workers(1)
                    .heartbeat(Duration::from_micros(50))
                    .exec_tier(tier),
            );
            let out = rt.run_program(&p, &[("a", 200), ("b", 3)]).unwrap();
            assert_eq!(out.read_reg("c"), Some(want), "tier {tier}");
            assert!(out.stats.instructions > 0);
        }
    }

    /// `fib` forks and joins under heartbeat promotion; the result and
    /// task accounting must be self-consistent on every tier.
    #[test]
    fn run_program_promotes_fib() {
        let p = fib();
        for tier in ExecTier::ALL {
            let rt = Runtime::new(
                RtConfig::default()
                    .workers(1)
                    .heartbeat(Duration::from_micros(20))
                    .exec_tier(tier),
            );
            let out = rt.run_program(&p, &[("n", 15)]).unwrap();
            assert_eq!(out.read_reg("f"), Some(610), "tier {tier}");
            // Every fork is eventually matched by joins on both sides.
            assert!(out.stats.joins >= out.stats.forks);
        }
    }

    /// With heartbeats disabled, the serial-by-default path runs alone:
    /// no promotions, no forks.
    #[test]
    fn run_program_serial_without_heartbeats() {
        let p = prod();
        let rt = Runtime::new(
            RtConfig::default()
                .workers(1)
                .source(HeartbeatSource::Disabled),
        );
        let out = rt.run_program(&p, &[("a", 100), ("b", 2)]).unwrap();
        assert_eq!(out.read_reg("c"), Some(200));
        assert_eq!(out.stats.promotions, 0);
        assert_eq!(out.stats.forks, 0);
    }
}
