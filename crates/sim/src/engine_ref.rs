//! The reference cycle-tick engine.
//!
//! [`SimRef`] is the original simulator loop, kept verbatim: it advances
//! global time one cycle at a time, delivering interrupts and scanning
//! every core each tick. It is O(makespan × cores) regardless of how much
//! actually happens per cycle, which makes it too slow for full-scale
//! experiments — but its semantics are trivially auditable against the
//! paper's scheduling model, so it serves as the executable specification
//! for the event-driven [`Sim`](crate::Sim): the
//! `engine_equivalence` differential suite holds the two engines to
//! identical outcomes (makespan, every counter, final registers) on every
//! program × configuration × seed.

use tpal_core::isa::Reg;
use tpal_core::machine::{
    resolve_join, step_task, JoinResolution, MachineError, StepOutcome, Stores, TaskState, Value,
};
use tpal_core::program::Program;

use tpal_sched::{
    uniform_victim, InterruptModel, PingChain, PromoteState, PromoteStep, SplitMix64,
};
use tpal_trace::report::CoreActivity;

use crate::engine::{SimConfig, SimOutcome, SimStats};

struct Core {
    current: Option<TaskState>,
    deque: std::collections::VecDeque<TaskState>,
    /// Channel wakes not yet made real, in wake order: the core runs
    /// them once its deque is empty, and thieves never see them.
    latent: std::collections::VecDeque<TaskState>,
    busy_until: u64,
    promote: PromoteState,
    next_hb: u64,
}

/// The reference multicore simulator: one global tick per cycle.
///
/// Same observable behaviour as [`Sim`](crate::Sim), and the same
/// set-up and run API apart from tracing: it records no trace, but
/// [`SimRef::run_bucketed`] charges each core's activity to time
/// buckets as it goes. See the module docs for why it is kept.
pub struct SimRef<'p> {
    program: &'p Program,
    config: SimConfig,
    stores: Stores,
    initial: Option<TaskState>,
}

impl<'p> SimRef<'p> {
    /// Creates a simulator whose initial task starts at the program's
    /// entry block on core 0.
    pub fn new(program: &'p Program, config: SimConfig) -> Self {
        assert!(config.cores > 0, "at least one core required");
        let mut stores = Stores::new();
        stores.stacks.set_promotion_order(config.promotion_order);
        SimRef {
            program,
            config,
            stores,
            initial: Some(TaskState::new(program, program.entry())),
        }
    }

    /// Seeds an integer argument register of the initial task.
    ///
    /// # Errors
    ///
    /// [`MachineError::UnknownName`] if the program never names `name`.
    pub fn set_reg(&mut self, name: &str, value: i64) -> Result<(), MachineError> {
        let reg = self.program.reg(name).ok_or(MachineError::UnknownName)?;
        self.initial
            .as_mut()
            .expect("simulation already run")
            .regs
            .write(reg, Value::Int(value));
        Ok(())
    }

    /// Allocates and initialises a heap array before the run.
    pub fn alloc_array(&mut self, data: &[i64]) -> i64 {
        self.stores.heap.alloc_init(data)
    }

    /// Allocates a zeroed heap array before the run.
    pub fn alloc_zeroed(&mut self, len: usize) -> i64 {
        self.stores.heap.alloc(len)
    }

    /// Read access to the heap (e.g. to extract output arrays after the
    /// run).
    pub fn heap(&self) -> &tpal_core::machine::Heap {
        &self.stores.heap
    }

    /// Runs the simulation to `halt`.
    ///
    /// # Errors
    ///
    /// Any [`MachineError`] raised by a task, [`MachineError::Deadlock`]
    /// if all cores go idle with no runnable task before a `halt`, or
    /// [`MachineError::StepLimitExceeded`].
    pub fn run(&mut self) -> Result<SimOutcome, MachineError> {
        Ok(self.run_inner(None)?.0)
    }

    /// Runs the simulation as [`SimRef::run`] does, charging each core's
    /// work, overhead and idle cycles to `bucket`-cycle time buckets (0
    /// counts as 1) the cycle they are spent — the live counterpart of
    /// [`tpal_trace::report::activity_buckets`] over [`Sim`](crate::Sim)'s
    /// trace, which must come out the same.
    ///
    /// # Errors
    ///
    /// As [`SimRef::run`].
    pub fn run_bucketed(
        &mut self,
        bucket: u64,
    ) -> Result<(SimOutcome, Vec<Vec<CoreActivity>>), MachineError> {
        self.run_inner(Some(bucket))
    }

    fn run_inner(
        &mut self,
        bucket: Option<u64>,
    ) -> Result<(SimOutcome, Vec<Vec<CoreActivity>>), MachineError> {
        let cfg = self.config;
        let mut rng = SplitMix64::new(cfg.seed);
        let mut stats = SimStats::default();
        let mut cores: Vec<Core> = (0..cfg.cores)
            .map(|_| Core {
                current: None,
                deque: std::collections::VecDeque::new(),
                latent: std::collections::VecDeque::new(),
                busy_until: 0,
                promote: PromoteState::default(),
                next_hb: cfg.heartbeat,
            })
            .collect();
        cores[0].current = Some(self.initial.take().expect("simulation already run"));

        // Ping-thread signaller state.
        let mut ping = PingChain::new(cfg.heartbeat, cfg.heartbeat);

        let mut now: u64 = 0;
        #[allow(unused_assignments)]
        let mut halted: Option<TaskState> = None;
        let mut live_tasks: usize = 1;
        // Tasks parked on a full channel (pushers) or an empty one
        // (poppers), in park order. A parked task occupies no core and
        // no deque; a matching channel operation wakes it onto the waking
        // core — latent, or queued on its deque under `eager`.
        let mut parked_push: std::collections::VecDeque<(i64, TaskState)> = Default::default();
        let mut parked_pop: std::collections::VecDeque<(i64, TaskState)> = Default::default();
        // Activity charged live per core and time bucket, when asked for.
        let bucket = bucket.map(|b| b.max(1));
        let mut buckets: Vec<Vec<CoreActivity>> = vec![Vec::new(); cfg.cores];
        macro_rules! charge {
            ($core:expr, $field:ident, $cycles:expr) => {
                if let Some(size) = bucket {
                    let row = &mut buckets[$core];
                    let idx = (now / size) as usize;
                    if row.len() <= idx {
                        row.resize(idx + 1, CoreActivity::default());
                    }
                    row[idx].$field += $cycles;
                }
            };
        }

        // Wakes task `$t` onto core `$c`: latent, or queued on its deque
        // when the promotion rule makes every wake real at once.
        macro_rules! wake {
            ($c:expr, $t:expr) => {
                if cfg.promotion.latent_wakes() {
                    cores[$c].latent.push_back($t);
                } else {
                    cores[$c].deque.push_back($t);
                }
                stats.chan_wakes += 1;
            };
        }

        // Wakes the oldest task parked on channel `$ch` onto core `$c`.
        macro_rules! wake_one {
            ($list:expr, $ch:expr, $c:expr) => {
                if let Some(idx) = $list.iter().position(|&(ch2, _)| ch2 == $ch) {
                    let (_, t) = $list.remove(idx).expect("index in range");
                    wake!($c, t);
                }
            };
        }

        // A beat reaching core `$c` makes its latent wakes real, in wake
        // order, when the promotion rule says so.
        macro_rules! release_wakes {
            ($c:expr) => {
                if cfg.promotion.beat_releases_wakes() {
                    let core = &mut cores[$c];
                    core.deque.extend(core.latent.drain(..));
                }
            };
        }

        'sim: loop {
            now += 1;

            // Interrupt delivery.
            match cfg.interrupt {
                InterruptModel::PerCoreTimer { service_cost } => {
                    for ci in 0..cfg.cores {
                        let core = &mut cores[ci];
                        if now >= core.next_hb {
                            core.promote.beat = true;
                            core.next_hb += cfg.heartbeat;
                            core.busy_until = core.busy_until.max(now) + service_cost;
                            stats.heartbeats_delivered += 1;
                            stats.overhead_cycles += service_cost;
                            charge!(ci, overhead, service_cost);
                            release_wakes!(ci);
                        }
                    }
                }
                InterruptModel::PingThread { service_cost, .. } => {
                    if now >= ping.next_time {
                        let ci = ping.next_core;
                        let core = &mut cores[ci];
                        core.promote.beat = true;
                        core.busy_until = core.busy_until.max(now) + service_cost;
                        stats.heartbeats_delivered += 1;
                        stats.overhead_cycles += service_cost;
                        charge!(ci, overhead, service_cost);
                        release_wakes!(ci);
                        let delay = cfg.interrupt.ping_delay(&mut rng);
                        ping.advance(now, cfg.cores, cfg.heartbeat, delay);
                    }
                }
                InterruptModel::Disabled => {}
            }

            let mut all_idle = true;
            for c in 0..cfg.cores {
                if cores[c].busy_until > now {
                    all_idle = false;
                    continue;
                }
                // Acquire work if idle.
                if cores[c].current.is_none() {
                    if let Some(t) = cores[c].deque.pop_back() {
                        cores[c].current = Some(t);
                    } else if let Some(t) = cores[c].latent.pop_front() {
                        // A latent wake is taken as freely as an own pop.
                        cores[c].current = Some(t);
                    } else if cfg.cores > 1 {
                        // Steal from a uniformly random other core's top.
                        let victim = uniform_victim(&mut rng, c, cfg.cores);
                        let stolen = cores[victim].deque.pop_front();
                        match stolen {
                            Some(t) => {
                                cores[c].current = Some(t);
                                cores[c].busy_until = now + cfg.steal_cost;
                                stats.steals += 1;
                                stats.overhead_cycles += cfg.steal_cost;
                                charge!(c, overhead, cfg.steal_cost);
                                all_idle = false;
                                continue;
                            }
                            None => {
                                cores[c].busy_until = now + cfg.steal_retry_cost;
                                stats.failed_steals += 1;
                                stats.idle_cycles += cfg.steal_retry_cost;
                                charge!(c, idle, cfg.steal_retry_cost);
                                continue;
                            }
                        }
                    } else {
                        stats.idle_cycles += 1;
                        charge!(c, idle, 1);
                        continue;
                    }
                }
                all_idle = false;

                let mut task = cores[c].current.take().expect("task present");

                // Scheduling boundary: the promotion rule decides what a
                // promotion-ready point does with the delivered beat
                // (rollforward semantics).
                let promo = cfg.promotion;
                if promo.watch(&cores[c].promote) {
                    if let Some(handler) = task.at_promotion_point(self.program) {
                        match promo.decide(&mut cores[c].promote) {
                            PromoteStep::Divert => {
                                task.divert_to_handler(handler);
                                stats.promotions += 1;
                            }
                            // This engine executes exactly one
                            // instruction below either way, which is all
                            // StepPast asks for.
                            PromoteStep::StepPast | PromoteStep::Run => {}
                        }
                    }
                }

                match step_task(self.program, &mut task, &mut self.stores)? {
                    StepOutcome::Ran => {
                        stats.instructions += 1;
                        stats.work_cycles += 1;
                        charge!(c, work, 1);
                        cores[c].busy_until = now + 1;
                        cores[c].current = Some(task);
                    }
                    StepOutcome::Halted => {
                        stats.instructions += 1;
                        stats.work_cycles += 1;
                        charge!(c, work, 1);
                        if task.detached {
                            // A detached task retires through its own
                            // halt; the run ends at the root task's.
                            live_tasks -= 1;
                            cores[c].busy_until = now + 1;
                        } else {
                            halted = Some(task);
                            break 'sim;
                        }
                    }
                    StepOutcome::Forked { child } => {
                        stats.instructions += 1;
                        stats.work_cycles += 1;
                        charge!(c, work, 1);
                        charge!(c, overhead, cfg.fork_cost);
                        stats.forks += 1;
                        // The diversion produced a task: re-arm the
                        // eager rule's bounce guard.
                        cores[c].promote.on_fork();
                        cores[c].deque.push_back(*child);
                        cores[c].busy_until = now + 1 + cfg.fork_cost;
                        stats.overhead_cycles += cfg.fork_cost;
                        cores[c].current = Some(task);
                        live_tasks += 1;
                        stats.max_live_tasks = stats.max_live_tasks.max(live_tasks);
                    }
                    StepOutcome::Joined { jr } => {
                        stats.instructions += 1;
                        stats.work_cycles += 1;
                        charge!(c, work, 1);
                        charge!(c, overhead, cfg.join_cost);
                        stats.joins += 1;
                        cores[c].busy_until = now + 1 + cfg.join_cost;
                        stats.overhead_cycles += cfg.join_cost;
                        match resolve_join(self.program, task, jr, &mut self.stores, 0)? {
                            JoinResolution::TaskDied => {
                                live_tasks -= 1;
                            }
                            JoinResolution::Merged(t) => {
                                stats.merges += 1;
                                cores[c].current = Some(*t);
                            }
                            JoinResolution::Completed(t) => {
                                cores[c].current = Some(*t);
                            }
                        }
                    }
                    StepOutcome::Detached { child } => {
                        // Same cost shape as a fork — `detach` allocates
                        // and enqueues a task — minus the join record.
                        stats.instructions += 1;
                        stats.work_cycles += 1;
                        charge!(c, work, 1);
                        charge!(c, overhead, cfg.fork_cost);
                        stats.detaches += 1;
                        cores[c].promote.on_fork();
                        cores[c].deque.push_back(*child);
                        cores[c].busy_until = now + 1 + cfg.fork_cost;
                        stats.overhead_cycles += cfg.fork_cost;
                        cores[c].current = Some(task);
                        live_tasks += 1;
                        stats.max_live_tasks = stats.max_live_tasks.max(live_tasks);
                    }
                    StepOutcome::ChanPushed { ch } => {
                        stats.instructions += 1;
                        stats.work_cycles += 1;
                        charge!(c, work, 1);
                        stats.chan_pushes += 1;
                        cores[c].busy_until = now + 1;
                        cores[c].current = Some(task);
                        wake_one!(parked_pop, ch, c);
                    }
                    StepOutcome::ChanPopped { ch } => {
                        stats.instructions += 1;
                        stats.work_cycles += 1;
                        charge!(c, work, 1);
                        stats.chan_pops += 1;
                        cores[c].busy_until = now + 1;
                        cores[c].current = Some(task);
                        wake_one!(parked_push, ch, c);
                    }
                    StepOutcome::ChanClosed { ch } => {
                        stats.instructions += 1;
                        stats.work_cycles += 1;
                        charge!(c, work, 1);
                        cores[c].busy_until = now + 1;
                        cores[c].current = Some(task);
                        // Close wakes every waiter: poppers first (they
                        // drain the buffer or fault), then pushers (they
                        // fault), each cohort in park order.
                        for list in [&mut parked_pop, &mut parked_push] {
                            let mut i = 0;
                            while i < list.len() {
                                if list[i].0 == ch {
                                    let (_, t) = list.remove(i).expect("index in range");
                                    wake!(c, t);
                                } else {
                                    i += 1;
                                }
                            }
                        }
                    }
                    StepOutcome::ChanBlocked { ch, push } => {
                        // The instruction did not execute (the machine
                        // un-counted it); the core spent the cycle
                        // discovering the block and parks the task.
                        stats.chan_blocks += 1;
                        stats.idle_cycles += 1;
                        charge!(c, idle, 1);
                        cores[c].busy_until = now + 1;
                        if push {
                            parked_push.push_back((ch, task));
                        } else {
                            parked_pop.push_back((ch, task));
                        }
                    }
                }
                if stats.instructions > cfg.step_limit {
                    return Err(MachineError::StepLimitExceeded {
                        limit: cfg.step_limit,
                    });
                }
            }

            if all_idle
                && cores
                    .iter()
                    .all(|c| c.current.is_none() && c.deque.is_empty() && c.latent.is_empty())
                && cores.iter().all(|c| c.busy_until <= now)
            {
                return Err(MachineError::Deadlock);
            }

            // Channel deadlock: every remaining task is parked on a
            // channel and no runner exists to wake one — a latent wake is
            // a runner. (The fork-join check above misses this when
            // positive steal-retry charges keep `busy_until` bouncing
            // ahead of `now` forever.)
            if !(parked_push.is_empty() && parked_pop.is_empty())
                && cores
                    .iter()
                    .all(|c| c.current.is_none() && c.deque.is_empty() && c.latent.is_empty())
            {
                return Err(MachineError::Deadlock);
            }
        }

        let halted = halted.expect("loop exits via halt");
        let final_regs = (0..self.program.reg_count())
            .map(|i| {
                let r = Reg::from_index(i);
                (self.program.reg_name(r).to_owned(), halted.regs.read_raw(r))
            })
            .collect();

        let outcome = SimOutcome {
            time: now,
            stats,
            cores: cfg.cores,
            heartbeat: cfg.heartbeat,
            // The reference engine predates structured tracing and keeps
            // the cycle-tick loop minimal; the machine's work/span
            // accounting is engine-independent, so those still apply.
            trace: None,
            work: halted.rel_work,
            span: halted.rel_span,
            final_regs,
        };
        Ok((outcome, buckets))
    }
}
