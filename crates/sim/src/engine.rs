//! The discrete-event multicore engine.
//!
//! [`Sim`] replaces the original cycle-tick loop (preserved as
//! [`SimRef`](crate::SimRef)) with a discrete-event formulation: a
//! fixed-slot event [`Calendar`] orders interrupt deliveries and core
//! actions by `(time, phase, core)`, and between scheduling-relevant
//! boundaries each core executes whole *runs* of straight-line
//! instructions in one [`ExecBackend::run_until`] call over the
//! configured execution tier (reference, decoded micro-ops, or those
//! plus loop templates — compiled once per [`Sim`] and shared by every
//! core and task, see [`SimConfig::exec_tier`]) instead of one
//! `step_task` round-trip per cycle.
//!
//! The calendar holds only what acts: one slot per core for its next
//! action and one for the interrupt source — the ping chain's next
//! delivery, or the timer wave that delivers every core's in-phase local
//! timer in one event. A slot holds at most one key, so the event being
//! handled stays armed in its slot, and handling it ends in one "replace
//! the popped slot" walk up a tournament tree of fan-out 4. Keys are
//! unique and totally ordered, so the calendar yields exactly the
//! sequence any exact priority queue over the same keys would.
//! An idle core — no task, an empty deque — leaves the calendar and
//! becomes a chain of steal retries, settled in place: in O(1) while
//! nothing is queued, retry by retry in `(time, core)` order while tasks
//! are. A running task is run in place, in its core's task slot, and
//! leaves it only when it leaves the core (halt, a stashing join, a
//! channel park). A core alone in the calendar — every other core idle,
//! no idle core able to race it for queued work — whose next action
//! comes before the interrupt source's next delivery handles that action
//! at once without arming its slot, since it is the event the calendar
//! would pop next (the *lone runner*; the calendar counts its armed core
//! slots for this test).
//! Simulated time jumps from event to event, so the cost of a run is
//! O(instructions + events·log cores) rather than
//! O(makespan × cores).
//!
//! The two engines are observably equivalent — identical makespan,
//! [`SimStats`], and final registers for every program × configuration ×
//! seed — which the `engine_equivalence` differential suite enforces.
//! See `DESIGN.md` for the equivalence argument.

use std::collections::VecDeque;

use tpal_core::isa::Reg;
use tpal_core::machine::{
    resolve_join, step_task, Assoc, JoinId, JoinResolution, MachineError, PromotionOrder, RunPause,
    StepOutcome, Stores, TaskState, Value,
};
use tpal_core::program::Program;
use tpal_core::tier::{ExecBackend, ExecTier};

use tpal_sched::{
    uniform_victim, Domain, InterruptModel, PingChain, PromoteState, PromoteStep, Promotion,
    SplitMix64,
};
use tpal_trace::{EventKind, OverheadKind, Trace, TraceBuilder};

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of worker cores `P`.
    pub cores: usize,
    /// The heartbeat interval ♥, in cycles.
    pub heartbeat: u64,
    /// The interrupt mechanism.
    pub interrupt: InterruptModel,
    /// Extra cycles charged for executing `fork` (task allocation and
    /// deque push — the per-task cost τ that heartbeat scheduling
    /// amortises).
    pub fork_cost: u64,
    /// Cycles for a successful steal (task migration).
    pub steal_cost: u64,
    /// Cycles an idle core spends on a failed steal attempt. At least
    /// one on more than one core ([`Sim::with_backend`] panics
    /// otherwise): an idle core is a chain of retries settled in place,
    /// never an action on every cycle.
    pub steal_retry_cost: u64,
    /// Cycles charged for join resolution (stash or merge).
    pub join_cost: u64,
    /// RNG seed (victim selection, delivery jitter).
    pub seed: u64,
    /// Abort after this many executed instructions.
    pub step_limit: u64,
    /// Record a full structured [`Trace`] (task lifecycle events and
    /// per-core activity spans) in the outcome. Off by default: when
    /// off, every record site is one `Option`/`None` branch and nothing
    /// is allocated; when on, time and memory are O(scheduling
    /// decisions) — spans are maximal runs, so neither how long a core
    /// sat idle nor how a task's work was sliced into quanta adds events.
    /// [`tpal_trace::report::activity_buckets`] turns it into per-core
    /// activity over time.
    pub record_trace: bool,
    /// Which promotion-ready mark `prmsplit` pops: the paper's
    /// outermost-first policy (§2.3) or its innermost-first ablation.
    pub promotion_order: PromotionOrder,
    /// When promotion-ready points promote. The default (`heartbeat`)
    /// is the paper's rule; whatever it is, a thief probes one uniformly
    /// random other core, so runs label as `<promotion>/uniform`.
    pub promotion: Promotion,
    /// Which interpreter tier executes task quanta. All tiers are
    /// bit-identical in outcome; they differ only in dispatch speed.
    pub exec_tier: ExecTier,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cores: 15,
            heartbeat: 3_000,
            interrupt: InterruptModel::PerCoreTimer { service_cost: 5 },
            fork_cost: 100,
            steal_cost: 600,
            steal_retry_cost: 50,
            join_cost: 50,
            seed: 0xDEC0DE,
            step_limit: 20_000_000_000,
            record_trace: false,
            promotion_order: PromotionOrder::OldestFirst,
            promotion: Promotion::default(),
            exec_tier: ExecTier::default(),
        }
    }
}

impl SimConfig {
    /// The Linux-like configuration: ping-thread signal delivery.
    pub fn linux(cores: usize, heartbeat: u64) -> Self {
        SimConfig {
            cores,
            heartbeat,
            interrupt: InterruptModel::PingThread {
                latency: 110,
                jitter: 60,
                service_cost: 60,
            },
            ..SimConfig::default()
        }
    }

    /// The Nautilus-like configuration: per-core timer interrupts.
    pub fn nautilus(cores: usize, heartbeat: u64) -> Self {
        SimConfig {
            cores,
            heartbeat,
            interrupt: InterruptModel::PerCoreTimer { service_cost: 5 },
            ..SimConfig::default()
        }
    }

    /// Serial execution: one core, no interrupts.
    pub fn serial() -> Self {
        SimConfig {
            cores: 1,
            interrupt: InterruptModel::Disabled,
            ..SimConfig::default()
        }
    }
}

/// Counters collected by a simulation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Instructions executed (each costs one cycle).
    pub instructions: u64,
    /// Tasks created (`fork` executions — the paper's Figure 15a).
    pub forks: u64,
    /// Heartbeat handler invocations (promotion attempts).
    pub promotions: u64,
    /// `join` instructions executed.
    pub joins: u64,
    /// Pair merges at join resolution.
    pub merges: u64,
    /// Successful steals.
    pub steals: u64,
    /// Failed steal attempts.
    pub failed_steals: u64,
    /// Heartbeat interrupts delivered to cores.
    pub heartbeats_delivered: u64,
    /// Cycles cores spent executing instructions (useful work).
    pub work_cycles: u64,
    /// Cycles lost to fork, steal, join, and interrupt overheads.
    pub overhead_cycles: u64,
    /// Cycles cores sat idle with nothing to run.
    pub idle_cycles: u64,
    /// High-water mark of runnable tasks (running + queued).
    pub max_live_tasks: usize,
    /// Detached (free-running) tasks spawned via `detach`.
    pub detaches: u64,
    /// Channel pushes executed.
    pub chan_pushes: u64,
    /// Channel pops executed.
    pub chan_pops: u64,
    /// Times a task parked on a full (push) or empty (pop) channel.
    pub chan_blocks: u64,
    /// Parked tasks made runnable again by a push, pop, or close.
    pub chan_wakes: u64,
}

/// The outcome of a simulation.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Makespan: simulated cycles from start to `halt`.
    pub time: u64,
    /// Counters.
    pub stats: SimStats,
    /// Cores simulated.
    pub cores: usize,
    /// The heartbeat interval ♥ the run targeted.
    pub heartbeat: u64,
    /// Structured event trace, when [`SimConfig::record_trace`] was set.
    pub trace: Option<Trace>,
    /// Total work T₁ of the computation in cycles (the machine's own
    /// fork/join-threaded accounting, τ = 0 — instruction cycles only).
    pub work: u64,
    /// Critical-path span T∞ in cycles (same accounting).
    pub span: u64,
    pub(crate) final_regs: Vec<(String, Value)>,
}

impl SimOutcome {
    /// Reads an integer register of the halting task.
    pub fn read_reg(&self, name: &str) -> Option<i64> {
        self.final_regs.iter().find_map(|(n, v)| {
            if n == name {
                match v {
                    Value::Int(x) => Some(*x),
                    _ => None,
                }
            } else {
                None
            }
        })
    }

    /// All named registers of the halting task, in declaration order.
    pub fn final_regs(&self) -> &[(String, Value)] {
        &self.final_regs
    }

    /// Utilization: the fraction of core-cycles spent on useful work
    /// (Figure 15b).
    pub fn utilization(&self) -> f64 {
        self.stats.work_cycles as f64 / (self.time.max(1) as f64 * self.cores as f64)
    }

    /// The heartbeat rate actually achieved, as a fraction of the target
    /// rate `cores / ♥` (Figure 10).
    pub fn heartbeat_rate_achieved(&self) -> f64 {
        // Computed in f64: the old integer form `(time / ♥) * cores`
        // truncated time/♥ downward, overstating the achieved fraction
        // for runs that are not a whole number of beats long.
        let target = (self.time as f64 / self.heartbeat.max(1) as f64) * self.cores as f64;
        if target == 0.0 {
            return 1.0;
        }
        self.stats.heartbeats_delivered as f64 / target
    }

    /// The parallelism actually realised: instruction cycles divided by
    /// makespan (equals the speedup over a 1-core run of the same
    /// instruction stream).
    pub fn speedup_base(&self) -> f64 {
        self.stats.work_cycles as f64 / self.time.max(1) as f64
    }

    /// Available parallelism T₁/T∞ of the computation itself (what an
    /// ideal scheduler could exploit, independent of this run's `P`).
    pub fn parallelism(&self) -> f64 {
        self.work as f64 / self.span.max(1) as f64
    }
}

#[derive(Default)]
struct Core {
    /// The running task with its trace id, run in place. It leaves the
    /// slot only when it leaves the core: halt, a join that stashes it,
    /// or a channel park.
    task: Option<(TaskState, u64)>,
    /// Queued tasks, each with its trace id.
    deque: VecDeque<(TaskState, u64)>,
    /// Channel wakes not yet made real, in wake order, each with its
    /// trace id: the core runs them once its deque is empty, thieves
    /// never see them, and they do not count as queued.
    latent: VecDeque<(TaskState, u64)>,
    /// When the core can act next. An idle core's is its next retry
    /// that has not been settled yet.
    busy_until: u64,
    /// Promotion state (delivered-beat flag, eager bounce guard) —
    /// consumed by [`Promotion`].
    promote: PromoteState,
    /// The core is idle — no task, an empty deque — and out of the
    /// calendar: a chain of steal retries (see `Run::retries`).
    idle: bool,
    /// The last run paused right before a boundary instruction, so the
    /// next action can execute it without a zero-step run first.
    at_boundary: bool,
}

/// A scheduled event, ordered by `(time, phase, core)` so that the
/// calendar replays exactly the order the cycle-tick reference visits
/// things within one cycle: first interrupt delivery (phase 0), then the
/// cores in index order (phase 1). Matching that order is what keeps the
/// RNG stream (ping jitter before same-cycle steals, steals by core
/// index) and all shared-store effects identical to
/// [`SimRef`](crate::SimRef).
#[derive(Debug, Clone, Copy)]
struct Event {
    time: u64,
    phase: u8,
    core: u32,
}

const PHASE_INTERRUPT: u8 = 0;
const PHASE_ACTION: u8 = 1;

/// An [`Event`] packed so that integer order is event order: time in
/// the high 64 bits, then phase, then core. The full `u64` time range
/// survives (a replay token may ask for ♥ = `u64::MAX`).
type Key = u128;

/// A cleared slot's key. No event packs to it: a real key's phase field
/// is 0 or 1.
const EMPTY: Key = Key::MAX;

impl Event {
    fn key(self) -> Key {
        (self.time as Key) << 64 | (self.phase as Key) << 32 | self.core as Key
    }

    fn from_key(key: Key) -> Event {
        Event {
            time: (key >> 64) as u64,
            phase: (key >> 32) as u8,
            core: key as u32,
        }
    }
}

fn action_key(core: usize, time: u64) -> Key {
    Event {
        time,
        phase: PHASE_ACTION,
        core: core as u32,
    }
    .key()
}

fn interrupt_key(core: usize, time: u64) -> Key {
    Event {
        time,
        phase: PHASE_INTERRUPT,
        core: core as u32,
    }
    .key()
}

/// The calendar tree's fan-out: arming a slot re-reduces one group of
/// `FANOUT` keys per level, `⌈log₄ slots⌉` groups in all — two for the
/// 16 slots of 15 cores, five for the 257 of 256.
const FANOUT: usize = 4;

/// The event calendar: a fixed set of slots, each armed with one key or
/// cleared, and the earliest armed key on demand. Every slot but the last
/// is a core's; the last is the interrupt source's, and the calendar
/// counts the armed core slots.
///
/// A tournament (winner) tree of fan-out [`FANOUT`] keeps the earliest
/// key at its root: every entry above the leaves holds the earliest key
/// of its group below. Arming a slot is one walk from its leaf to the
/// root, and the group reductions are branch-free, which matters more
/// than their count: which key wins is data, and a mispredicted branch
/// per level costs more than the whole walk.
struct Calendar {
    /// The tree's levels, the leaves (one per slot) first. Entry `j` of
    /// a level above the leaves is the earliest of entries
    /// `FANOUT·j .. FANOUT·(j + 1)` of the level below. Every level is
    /// padded with [`EMPTY`] to whole groups.
    keys: Box<[Key]>,
    /// Where each level below the root starts in `keys`, leaves first.
    levels: Box<[usize]>,
    /// Where the root level starts; its first entry is the earliest key.
    root: usize,
    /// The interrupt source's slot, the last: slots below it are cores'.
    source: usize,
    /// How many core slots (every slot below the source's) are armed.
    armed_cores: usize,
}

impl Calendar {
    fn new(slots: usize) -> Calendar {
        let mut levels = Vec::new();
        let mut len = 0;
        let mut width = slots;
        while width > 1 {
            levels.push(len);
            len += width.div_ceil(FANOUT) * FANOUT;
            width = width.div_ceil(FANOUT);
        }
        Calendar {
            keys: vec![EMPTY; len + FANOUT].into_boxed_slice(),
            levels: levels.into_boxed_slice(),
            root: len,
            source: slots - 1,
            armed_cores: 0,
        }
    }

    /// The earliest armed key, [`EMPTY`] if every slot is cleared.
    fn min_key(&self) -> Key {
        self.keys[self.root]
    }

    /// The earliest armed event, or `None` if every slot is cleared.
    fn min(&self) -> Option<Event> {
        let key = self.min_key();
        // The low word alone tells a cleared slot (all ones) from an
        // event (phase 0 or 1), and reads back one of the two 8-byte
        // stores that wrote the root; a 16-byte load of both would miss
        // store-to-load forwarding.
        (key as u64 != EMPTY as u64).then(|| Event::from_key(key))
    }

    /// The key `slot` holds, [`EMPTY`] if it is cleared. The leaves come
    /// first in `keys`, one per slot.
    fn key(&self, slot: usize) -> Key {
        self.keys[slot]
    }

    /// Arms `slot` at `key` ([`EMPTY`] clears it), replacing what it held.
    fn set(&mut self, slot: usize, key: Key) {
        if slot < self.source {
            let was = self.keys[slot] != EMPTY;
            self.armed_cores = self.armed_cores + usize::from(key != EMPTY) - usize::from(was);
        }
        let mut i = slot;
        let mut key = key;
        for &level in self.levels.iter() {
            self.keys[level + i] = key;
            let group = level + i / FANOUT * FANOUT;
            key = earliest(
                self.keys[group..group + FANOUT]
                    .try_into()
                    .expect("levels are whole groups"),
            );
            i /= FANOUT;
        }
        self.keys[self.root + i] = key;
    }
}

/// The earliest key of one group, reduced pairwise.
#[inline(always)]
fn earliest(g: &[Key; FANOUT]) -> Key {
    g[0].min(g[1]).min(g[2].min(g[3]))
}

/// The multicore simulator. Mirrors the [`tpal_core::machine::Machine`]
/// API: construct, seed inputs, [`Sim::run`].
pub struct Sim<'p> {
    program: &'p Program,
    /// The program compiled for the configured execution tier — once
    /// here, shared by every core and task for the whole run.
    backend: ExecBackend,
    config: SimConfig,
    stores: Stores,
    initial: Option<TaskState>,
    /// What the run's fast paths did.
    #[cfg(test)]
    counts: tests::Counts,
}

impl<'p> Sim<'p> {
    /// Creates a simulator whose initial task starts at the program's
    /// entry block on core 0.
    pub fn new(program: &'p Program, config: SimConfig) -> Self {
        let backend = ExecBackend::new(program, config.exec_tier);
        Sim::with_backend(program, backend, config)
    }

    /// Creates a simulator reusing a pre-compiled execution backend —
    /// the decode-once path for services that run one validated program
    /// many times (`tpal-serve`): the caller pays
    /// [`ExecBackend::new`]'s decode/compile cost once per program and
    /// hands each run a clone of the compiled artifact (a flat-array
    /// memcpy, no re-analysis).
    ///
    /// # Panics
    ///
    /// If `backend` was compiled for a different tier than
    /// `config.exec_tier`, `config.cores` is zero, or a failed steal is
    /// free (`config.steal_retry_cost` zero) on more than one core.
    pub fn with_backend(program: &'p Program, backend: ExecBackend, config: SimConfig) -> Self {
        assert!(config.cores > 0, "at least one core required");
        assert!(
            config.cores == 1 || config.steal_retry_cost > 0,
            "a failed steal must cost at least one cycle"
        );
        assert_eq!(
            backend.tier(),
            config.exec_tier,
            "backend tier must match config.exec_tier"
        );
        let mut stores = Stores::new();
        stores.stacks.set_promotion_order(config.promotion_order);
        Sim {
            program,
            backend,
            config,
            stores,
            initial: Some(TaskState::new(program, program.entry())),
            #[cfg(test)]
            counts: tests::Counts::default(),
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
        let mut run = Run::new(self);
        loop {
            run.race();
            // The calendar can only empty before `halt` if interrupts are
            // disabled and every core is idle on an empty system — no
            // event can ever create work again. (The reference spins
            // forever on that degenerate program; an error is strictly
            // more useful.) The event stays armed while it is handled:
            // each step below re-arms or clears its slot.
            let Some(ev) = run.calendar.min() else {
                return Err(MachineError::Deadlock);
            };
            #[cfg(test)]
            {
                run.counts.pops += 1;
            }
            if ev.phase == PHASE_INTERRUPT {
                run.deliver_beat(ev);
                continue;
            }
            let (c, mut now) = (ev.core as usize, ev.time);
            loop {
                match run.act(c, now)? {
                    Acted::Again => {}
                    Acted::Idle => break,
                    Acted::Halted => return Ok(run.finish(c, now)),
                }
                let next = run.cores[c].busy_until;
                let key = action_key(c, next);
                if run.lone_runner(key) {
                    now = next;
                    continue;
                }
                run.calendar.set(c, key);
                break;
            }
        }
    }
}

/// What a core action leaves behind.
enum Acted {
    /// The core acts again at its `busy_until`.
    Again,
    /// The core went idle: a retry chain, out of the calendar.
    Idle,
    /// The root task halted, and with it the run; it is still in its
    /// core's task slot.
    Halted,
}

/// The run's structured event trace, when [`SimConfig::record_trace`]
/// is set: traced off, a record site is one `None` branch. Every task
/// carries its trace id beside it whether or not tracing is on.
struct Tracer(Option<TraceBuilder>);

impl Tracer {
    #[inline]
    fn record(&mut self, core: usize, ts: u64, dur: u64, kind: EventKind) {
        if let Some(tb) = &mut self.0 {
            tb.record(core, ts, dur, kind);
        }
    }
}

/// The state of one [`Sim::run`], with one method per decision of its
/// event loop.
struct Run<'a> {
    cfg: SimConfig,
    program: &'a Program,
    backend: &'a ExecBackend,
    stores: &'a mut Stores,
    cores: Vec<Core>,
    rng: SplitMix64,
    stats: SimStats,
    /// Core `c`'s next action is slot `c`, and slot `cores` is the
    /// interrupt source's next delivery — the ping chain's, or the timer
    /// wave's (every core's local timer fires in one cycle, in core
    /// order, exactly as the same-time interrupt keys `(t, 0, 0..cores)`
    /// would pop). An idle core's slot, and the source's when interrupts
    /// are disabled, stays cleared.
    calendar: Calendar,
    /// Idle cores — no task, an empty deque — are retry chains, not
    /// calendar events: `busy_until` is the next retry not yet settled,
    /// and `retries` holds one key per idle core. While nothing is
    /// queued every retry is a forced failure, settled lazily in O(1) by
    /// [`Run::settle_idle`], and the keys may be stale; while tasks are
    /// queued the keys are exact and in key order, and [`Run::race`]
    /// settles them retry by retry before each calendar event. A lone
    /// core has nobody to steal from and never idles.
    retries: VecDeque<Key>,
    /// Tasks sitting in deques right now.
    queued: usize,
    /// Latent wakes, on every core.
    latent: usize,
    live_tasks: usize,
    /// Tasks parked on a full channel (pushers) or an empty one
    /// (poppers), in park order, each with its trace id. A parked task
    /// occupies no core and no deque — and is invisible to `queued`, so
    /// idle cores fast-forward right over blocked channel traffic; a
    /// matching channel operation wakes the task onto the waking core as
    /// a latent wake, still invisible to `queued` and to thieves. Only
    /// when the promotion rule makes it real — a beat reaching that core
    /// under `heartbeat`, at once under `eager` — is it queued on the
    /// core's deque, making the idle cores' retries live, exactly like a
    /// fork making work visible.
    parked_push: VecDeque<(i64, TaskState, u64)>,
    parked_pop: VecDeque<(i64, TaskState, u64)>,
    /// Ping-thread signaller state. Unlike the reference (which tests
    /// `now >= ping.next_time` once per cycle), `ping.next_time` here is
    /// always the exact cycle of the next delivery, i.e. already clamped
    /// to be strictly after the previous one.
    ping: PingChain,
    /// Per-core timers all start at ♥ and advance by ♥ together, so one
    /// deadline serves every core.
    next_beat: u64,
    tracer: Tracer,
    next_task_id: u64,
    #[cfg(test)]
    counts: &'a mut tests::Counts,
}

impl<'a> Run<'a> {
    /// Sets up `sim`'s run: its initial task (trace id 0) on core 0,
    /// every core's first action on cycle 1 (the reference's first
    /// tick), and the interrupt source's first delivery.
    fn new(sim: &'a mut Sim<'_>) -> Run<'a> {
        let cfg = sim.config;
        let mut cores: Vec<Core> = (0..cfg.cores).map(|_| Core::default()).collect();
        cores[0].task = Some((sim.initial.take().expect("simulation already run"), 0));
        let ping = PingChain::new(cfg.heartbeat.max(1), cfg.heartbeat);
        let next_beat = cfg.heartbeat;
        let mut calendar = Calendar::new(cfg.cores + 1);
        for c in 0..cfg.cores {
            calendar.set(c, action_key(c, 1));
        }
        match cfg.interrupt {
            InterruptModel::PerCoreTimer { .. } => {
                calendar.set(cfg.cores, interrupt_key(0, next_beat.max(1)));
            }
            InterruptModel::PingThread { .. } => {
                calendar.set(cfg.cores, interrupt_key(ping.next_core, ping.next_time));
            }
            InterruptModel::Disabled => {}
        }
        let tracer = Tracer(cfg.record_trace.then(|| {
            TraceBuilder::new(cfg.cores, "cycles", cfg.heartbeat)
                .policy(cfg.promotion.label(Domain::Sim))
                .source(cfg.interrupt.label())
        }));
        Run {
            cfg,
            program: sim.program,
            backend: &sim.backend,
            stores: &mut sim.stores,
            cores,
            rng: SplitMix64::new(cfg.seed),
            stats: SimStats::default(),
            calendar,
            retries: VecDeque::with_capacity(cfg.cores),
            queued: 0,
            latent: 0,
            live_tasks: 1,
            parked_push: VecDeque::new(),
            parked_pop: VecDeque::new(),
            ping,
            next_beat,
            tracer,
            next_task_id: 1,
            #[cfg(test)]
            counts: &mut sim.counts,
        }
    }

    /// Settles idle core `p`'s pending retries at virtual times strictly
    /// before `bound`, in O(1) — valid while nothing is queued. Each
    /// settled retry charges the same counters as a live failed steal
    /// and advances the RNG stream by its one victim draw — the drawn
    /// victim is unobservable (every deque is empty), but the stream
    /// position is, hence the O(1) `skip`. The whole chain is one trace
    /// span: recording costs O(1) per settled chain however long the
    /// core sat idle.
    fn settle_one(&mut self, p: usize, bound: u64) {
        let next = self.cores[p].busy_until;
        if next < bound {
            let retry = self.cfg.steal_retry_cost;
            let k = (bound - 1 - next) / retry + 1;
            self.rng.skip(k);
            self.stats.failed_steals += k;
            self.stats.idle_cycles += k * retry;
            // Settled retroactively: the span carries a later sequence
            // number than events at greater timestamps on other cores'
            // tracks (never on its own).
            self.tracer
                .record(p, next, k * retry, EventKind::Idle { retries: k });
            self.cores[p].busy_until = next + k * retry;
        }
    }

    /// While nothing is queued, settles every idle core's retries that
    /// virtually precede event `ev`: those before its cycle, and at its
    /// cycle those of cores before an acting one (the reference scans
    /// cores in index order). While tasks are queued [`Run::race`] has
    /// settled them already. Settling is deferred — no steal draw can
    /// happen, so pure skips commute past every other event — to where
    /// the chains become observable: a ping delivery's jitter draw, work
    /// queued, `halt`, and per core a timer beat that shifts its chain.
    fn settle_idle(&mut self, ev: Event) {
        if self.queued == 0 && !self.retries.is_empty() {
            for p in 0..self.cfg.cores {
                if !self.cores[p].idle {
                    continue;
                }
                let bound = if ev.phase == PHASE_ACTION && (p as u32) < ev.core {
                    ev.time + 1
                } else {
                    ev.time
                };
                self.settle_one(p, bound);
            }
        }
    }

    /// Rewrites every idle core's key from its `busy_until` and puts the
    /// keys back in order: when queued work makes the retries live, and
    /// after an interrupt shifts idle cores' retries while they are.
    fn resort_retries(&mut self) {
        for key in self.retries.iter_mut() {
            let p = Event::from_key(*key).core as usize;
            *key = action_key(p, self.cores[p].busy_until);
        }
        self.retries.make_contiguous().sort_unstable();
    }

    /// Adds `key` to the live retries in key order. A failed retry's next
    /// one usually comes after every other: the idle cores retry in turn.
    fn insert_retry(&mut self, key: Key) {
        if self.retries.back().is_none_or(|&last| last < key) {
            self.retries.push_back(key);
        } else {
            let at = self.retries.partition_point(|&k| k < key);
            self.retries.insert(at, key);
        }
    }

    /// Core `c` has no task and nothing of its own to run: it leaves the
    /// calendar as a retry chain whose next attempt is at `t`. That is a
    /// deadlock on a lone core, which has nobody to steal from, and when
    /// every remaining task is parked on a channel with no runner left to
    /// wake one — a latent wake is a runner. Without the second check the
    /// idle chains would follow the interrupt source forever.
    fn go_idle(&mut self, c: usize, t: u64) -> Result<(), MachineError> {
        let chan_deadlock = !(self.parked_push.is_empty() && self.parked_pop.is_empty())
            && self.queued == 0
            && self.latent == 0
            && self.cores.iter().all(|core| core.task.is_none());
        if self.cfg.cores == 1 || chan_deadlock {
            return Err(MachineError::Deadlock);
        }
        self.cores[c].idle = true;
        self.cores[c].busy_until = t;
        self.calendar.set(c, EMPTY);
        self.insert_retry(action_key(c, t));
        Ok(())
    }

    /// Queues `task` on core `c`'s deque during event `ev`. The first
    /// queued task makes the idle cores' retries live: settle them while
    /// they are still forced failures, then order them. Cores after the
    /// acting one in index order may retry at this very cycle and see the
    /// new task, exactly as the reference's in-cycle scan does.
    fn enqueue(&mut self, c: usize, task: TaskState, id: u64, ev: Event) {
        if self.queued == 0 && !self.retries.is_empty() {
            self.settle_idle(ev);
            self.resort_retries();
        }
        self.cores[c].deque.push_back((task, id));
        self.queued += 1;
    }

    /// Wakes the oldest task parked on channel `ch` — a pusher if
    /// `pusher`, else a popper — onto core `c` during event `ev`: latent,
    /// or queued on its deque when the promotion rule makes every wake
    /// real at once. `false` if none is parked there. Inlined into each
    /// of its four call sites: a pipeline hand-off wakes a task on most
    /// boundaries.
    #[inline(always)]
    fn wake_one(&mut self, ch: i64, pusher: bool, c: usize, ev: Event) -> bool {
        let parked = if pusher {
            &mut self.parked_push
        } else {
            &mut self.parked_pop
        };
        let Some(idx) = parked.iter().position(|&(ch2, _, _)| ch2 == ch) else {
            return false;
        };
        let (_, task, id) = parked.remove(idx).expect("index in range");
        if self.cfg.promotion.latent_wakes() {
            self.cores[c].latent.push_back((task, id));
            self.latent += 1;
        } else {
            self.enqueue(c, task, id, ev);
        }
        self.stats.chan_wakes += 1;
        self.tracer.record(
            c,
            ev.time,
            0,
            EventKind::ChanResume {
                ch: ch as u32,
                task: id,
            },
        );
        true
    }

    /// Charges core `c` `cost` cycles of overhead spent on `what` from
    /// cycle `t`.
    fn charge(&mut self, c: usize, t: u64, cost: u64, what: OverheadKind) {
        self.stats.overhead_cycles += cost;
        self.tracer.record(c, t, cost, EventKind::Overhead { what });
    }

    /// Core `c`'s steal attempt at cycle `t`: it draws a uniformly random
    /// other core and takes the top of its deque. A hit makes the core
    /// busy for the steal, a miss for the retry. Returns whether it stole.
    fn steal(&mut self, c: usize, t: u64) -> bool {
        let victim = uniform_victim(&mut self.rng, c, self.cfg.cores);
        let Some(stolen) = self.cores[victim].deque.pop_front() else {
            let retry = self.cfg.steal_retry_cost;
            self.cores[c].busy_until = t + retry;
            self.stats.failed_steals += 1;
            self.stats.idle_cycles += retry;
            self.tracer
                .record(c, t, retry, EventKind::Idle { retries: 1 });
            return false;
        };
        self.queued -= 1;
        self.cores[c].task = Some(stolen);
        self.cores[c].busy_until = t + self.cfg.steal_cost;
        self.stats.steals += 1;
        let victim = victim as u32;
        self.tracer.record(c, t, 0, EventKind::Steal { victim });
        self.charge(c, t, self.cfg.steal_cost, OverheadKind::Steal);
        true
    }

    /// While tasks are queued, the idle cores race for them: settles
    /// every retry that precedes the next calendar event, in `(time,
    /// core)` order. A thief rejoins the calendar, and its next action
    /// bounds the race if it comes first; the race ends early when the
    /// queue empties.
    #[inline]
    fn race(&mut self) {
        if self.queued == 0 || self.retries.is_empty() {
            return;
        }
        let mut bound = self.calendar.min_key();
        while let Some(&key) = self.retries.front() {
            if key >= bound {
                break;
            }
            self.retries.pop_front();
            let Event { time: t, core, .. } = Event::from_key(key);
            let p = core as usize;
            if self.steal(p, t) {
                self.cores[p].idle = false;
                // A core acts at most once per cycle.
                let key = action_key(p, self.cores[p].busy_until.max(t + 1));
                self.calendar.set(p, key);
                bound = bound.min(key);
                if self.queued == 0 {
                    break;
                }
            } else {
                self.insert_retry(action_key(p, self.cores[p].busy_until));
            }
        }
    }

    /// Delivers the interrupt source's event `ev` — to every core for the
    /// timer wave, to the chain's next target for the ping thread — and
    /// re-arms the source.
    fn deliver_beat(&mut self, ev: Event) {
        let now = ev.time;
        let (targets, service_cost) = match self.cfg.interrupt {
            InterruptModel::PerCoreTimer { service_cost } => (0..self.cfg.cores, service_cost),
            InterruptModel::PingThread { service_cost, .. } => {
                // The jitter draw below must land at the right stream
                // position: every idle chain is settled first.
                self.settle_idle(ev);
                (self.ping.next_core..self.ping.next_core + 1, service_cost)
            }
            InterruptModel::Disabled => unreachable!("no interrupt source armed"),
        };
        for ci in targets {
            // An idle core's pending retries are settled first: the
            // service cost shifts the retry pending at delivery time.
            // (While tasks are queued the race has settled them already.)
            if self.cores[ci].idle && self.queued == 0 {
                self.settle_one(ci, now);
            }
            let core = &mut self.cores[ci];
            core.promote.beat = true;
            core.busy_until = core.busy_until.max(now) + service_cost;
            self.stats.heartbeats_delivered += 1;
            self.tracer
                .record(ci, now, 0, EventKind::HeartbeatDelivered);
            self.charge(ci, now, service_cost, OverheadKind::Interrupt);
            // The beat makes the core's latent wakes real, in wake order,
            // if the promotion rule says so.
            if self.cfg.promotion.beat_releases_wakes() {
                while let Some((task, id)) = self.cores[ci].latent.pop_front() {
                    self.latent -= 1;
                    self.enqueue(ci, task, id, ev);
                }
            }
        }
        if self.queued > 0 && !self.retries.is_empty() {
            self.resort_retries();
        }
        let source = self.cfg.cores;
        if let InterruptModel::PingThread { .. } = self.cfg.interrupt {
            let delay = self.cfg.interrupt.ping_delay(&mut self.rng);
            self.ping
                .advance(now, self.cfg.cores, self.cfg.heartbeat, delay);
            self.calendar.set(
                source,
                interrupt_key(self.ping.next_core, self.ping.next_time),
            );
        } else {
            self.next_beat += self.cfg.heartbeat;
            // `.max(now + 1)`: with ♥ = 0 the reference still delivers at
            // most once per cycle.
            self.calendar
                .set(source, interrupt_key(0, self.next_beat.max(now + 1)));
        }
    }

    /// Core `c`'s action at cycle `now`: acquire work, run a stretch, and
    /// apply the boundary it stopped at if that comes this very cycle.
    #[inline]
    fn act(&mut self, c: usize, now: u64) -> Result<Acted, MachineError> {
        #[cfg(test)]
        {
            self.counts.actions += 1;
        }
        // An interrupt pushed the core's busy horizon past the scheduled
        // time: re-arm at the new horizon.
        if self.cores[c].busy_until > now {
            return Ok(Acted::Again);
        }
        if self.cores[c].task.is_none() && !self.acquire(c, now)? {
            return Ok(Acted::Idle);
        }
        if self.boundary_skip(c) {
            return self.apply_boundary(c, now);
        }
        let (steps, pause) = self.run_stretch(c, now)?;
        Ok(match pause {
            RunPause::Quantum | RunPause::PromotionReady => {
                // Re-assess at the end of the run: the pending interrupt
                // (Quantum) or the handler diversion (PromotionReady)
                // happens on the next action.
                self.cores[c].busy_until = now + steps;
                Acted::Again
            }
            RunPause::Boundary if steps > 0 => {
                // The boundary instruction must execute at its own virtual
                // time: deque pushes, join-store transitions and
                // allocations are globally ordered against other cores'
                // events in (now, now + steps].
                self.cores[c].busy_until = now + steps;
                self.cores[c].at_boundary = true;
                Acted::Again
            }
            // The very next instruction is the boundary: execute it this
            // cycle, exactly as the reference does.
            RunPause::Boundary => return self.apply_boundary(c, now),
        })
    }

    /// Gives core `c`, which has no task, one at `now`: its deque's
    /// newest (an own pop is free; the task runs this very cycle), else
    /// its oldest latent wake (so is that). With neither the core goes
    /// idle, its first retry this very action, made before the next
    /// calendar event — thieves emptied the deque it would have popped —
    /// and this is `false`.
    ///
    /// The popped entry moves into the task slot as the `Option` it came
    /// in: unwrapping it and wrapping it again copies it twice more,
    /// through stores that the final copy cannot forward from.
    fn acquire(&mut self, c: usize, now: u64) -> Result<bool, MachineError> {
        let core = &mut self.cores[c];
        core.task = core.deque.pop_back();
        if core.task.is_some() {
            self.queued -= 1;
            return Ok(true);
        }
        core.task = core.latent.pop_front();
        if core.task.is_some() {
            self.latent -= 1;
            return Ok(true);
        }
        self.go_idle(c, now)?;
        Ok(false)
    }

    /// The boundary skip: core `c`'s last run stopped right before a
    /// boundary, and no promotion can be decided there, so a run would
    /// execute nothing — the action executes the boundary at once.
    fn boundary_skip(&mut self, c: usize) -> bool {
        let core = &mut self.cores[c];
        let (task, _) = core.task.as_ref().expect("task present");
        std::mem::take(&mut core.at_boundary)
            && (!self.cfg.promotion.watch(&core.promote)
                || task.at_promotion_point(self.program).is_none())
    }

    /// Runs core `c`'s task from `now` until a scheduling boundary, the
    /// batch horizon or the step limit, and charges what it ran. First
    /// the promotion rule decides what a promotion-ready point does with
    /// a delivered beat (rollforward semantics — promotion happens only
    /// at promotion-ready program points).
    fn run_stretch(&mut self, c: usize, now: u64) -> Result<(u64, RunPause), MachineError> {
        let promo = self.cfg.promotion;
        let core = &mut self.cores[c];
        let (task, id) = core.task.as_mut().expect("task present");
        let id = *id;
        let mut step_past = false;
        if promo.watch(&core.promote) {
            if let Some(handler) = task.at_promotion_point(self.program) {
                match promo.decide(&mut core.promote) {
                    PromoteStep::Divert => {
                        task.divert_to_handler(handler);
                        self.stats.promotions += 1;
                        self.tracer.record(c, now, 0, EventKind::HeartbeatServiced);
                        self.tracer
                            .record(c, now, 0, EventKind::TaskPromote { task: id });
                    }
                    PromoteStep::StepPast => step_past = true,
                    PromoteStep::Run => {}
                }
            }
        }

        // Batch horizon: this core cannot be re-flagged before the
        // next timer wave (PerCoreTimer — the armed deadline is exact)
        // or the signaller's next delivery to *anyone* (PingThread —
        // conservative, since the chain's future targets depend on
        // jitter draws that must stay in delivery order). Interrupts
        // at the horizon sort before the follow-up action, so the
        // flag is seen then.
        let horizon = match self.cfg.interrupt {
            InterruptModel::PerCoreTimer { .. } => self.next_beat.max(now + 1),
            InterruptModel::PingThread { .. } => self.ping.next_time.max(now + 1),
            InterruptModel::Disabled => u64::MAX,
        };
        let allowed = self
            .cfg
            .step_limit
            .saturating_add(1)
            .saturating_sub(self.stats.instructions);
        // A declined point must execute exactly one instruction
        // unwatched (or the watch would pause at it again, forever).
        let max_steps = if step_past {
            1.min(allowed)
        } else {
            (horizon - now).min(allowed)
        };
        let watch = !step_past && promo.watch(&core.promote);
        #[cfg(test)]
        {
            self.counts.run_untils += 1;
        }
        let (steps, pause) =
            self.backend
                .run_until(self.program, task, self.stores, max_steps, watch)?;
        if steps > 0 {
            self.stats.instructions += steps;
            self.stats.work_cycles += steps;
            self.tracer
                .record(c, now, steps, EventKind::Work { task: id });
            if self.stats.instructions > self.cfg.step_limit {
                return Err(MachineError::StepLimitExceeded {
                    limit: self.cfg.step_limit,
                });
            }
        }
        Ok((steps, pause))
    }

    /// Executes the boundary instruction core `c`'s task stands at, this
    /// cycle `now`, and applies its outcome. Every outcome but a
    /// channel block executed the instruction; the core acts again after
    /// the instruction's cycle plus whatever overhead its outcome
    /// charges, or goes idle if its task left and nothing is queued or
    /// latent on it.
    fn apply_boundary(&mut self, c: usize, now: u64) -> Result<Acted, MachineError> {
        // This action as the event that idle chains settle against.
        let ev = Event::from_key(action_key(c, now));
        let (task, id) = self.cores[c].task.as_mut().expect("task present");
        let id = *id;
        let outcome = step_task(self.program, task, self.stores)?;
        if !matches!(outcome, StepOutcome::ChanBlocked { .. }) {
            self.stats.instructions += 1;
            self.stats.work_cycles += 1;
            self.tracer.record(c, now, 1, EventKind::Work { task: id });
        }
        let detach = matches!(outcome, StepOutcome::Detached { .. });
        let mut busy_until = now + 1;
        match outcome {
            StepOutcome::Ran => {} // jralloc / snew / halloc.
            StepOutcome::Halted if task.detached => {
                // A detached task retires through its own halt; the run
                // ends at the root's.
                self.tracer
                    .record(c, now, 0, EventKind::TaskEnd { task: id });
                self.cores[c].task = None;
                self.live_tasks -= 1;
            }
            StepOutcome::Halted => {
                // The counters become the outcome: settle every idle
                // core's retries up to the halt (earlier cores' attempts
                // this very cycle included, as in the reference's
                // in-order scan).
                self.settle_idle(ev);
                self.tracer
                    .record(c, now, 0, EventKind::TaskEnd { task: id });
                return Ok(Acted::Halted);
            }
            StepOutcome::Forked { child } | StepOutcome::Detached { child } => {
                self.spawn(c, *child, id, detach, ev);
                busy_until += self.cfg.fork_cost;
            }
            StepOutcome::Joined { jr } => {
                self.join(c, now, id, jr)?;
                busy_until += self.cfg.join_cost;
            }
            StepOutcome::ChanPushed { ch } => {
                self.stats.chan_pushes += 1;
                let kind = EventKind::ChanPush {
                    ch: ch as u32,
                    task: id,
                };
                self.tracer.record(c, now, 0, kind);
                self.wake_one(ch, false, c, ev);
            }
            StepOutcome::ChanPopped { ch } => {
                self.stats.chan_pops += 1;
                let kind = EventKind::ChanPop {
                    ch: ch as u32,
                    task: id,
                };
                self.tracer.record(c, now, 0, kind);
                self.wake_one(ch, true, c, ev);
            }
            StepOutcome::ChanClosed { ch } => {
                let kind = EventKind::ChanClose {
                    ch: ch as u32,
                    task: id,
                };
                self.tracer.record(c, now, 0, kind);
                // Close wakes every waiter: poppers first (they drain the
                // buffer or fault), then pushers (they fault), each cohort
                // in park order.
                while self.wake_one(ch, false, c, ev) {}
                while self.wake_one(ch, true, c, ev) {}
            }
            StepOutcome::ChanBlocked { ch, push } => {
                // The instruction did not execute (the machine un-counted
                // it); the core spent the cycle discovering the block and
                // parks the task — its task slot is left empty, so the
                // core seeks new work next.
                self.stats.chan_blocks += 1;
                self.stats.idle_cycles += 1;
                self.tracer
                    .record(c, now, 1, EventKind::Idle { retries: 0 });
                let kind = EventKind::ChanBlock {
                    ch: ch as u32,
                    task: id,
                    push,
                };
                self.tracer.record(c, now, 0, kind);
                let (task, _) = self.cores[c].task.take().expect("task present");
                if push {
                    self.parked_push.push_back((ch, task, id));
                } else {
                    self.parked_pop.push_back((ch, task, id));
                }
            }
        }
        if self.stats.instructions > self.cfg.step_limit {
            return Err(MachineError::StepLimitExceeded {
                limit: self.cfg.step_limit,
            });
        }
        if self.cores[c].task.is_none()
            && self.cores[c].deque.is_empty()
            && self.cores[c].latent.is_empty()
        {
            // The task left and nothing is queued or latent here: the
            // core goes idle without an action that would find no work.
            // (With work in its own deque or latent it stays an action:
            // an own pop is free.)
            self.go_idle(c, busy_until)?;
            return Ok(Acted::Idle);
        }
        self.cores[c].busy_until = busy_until;
        Ok(Acted::Again)
    }

    /// Core `c`'s task `id` forked or detached `child` during event `ev`:
    /// the child gets the next trace id and is queued on the core's deque.
    /// `detach` has a fork's cost shape — it allocates and enqueues a task
    /// — minus the join record.
    fn spawn(&mut self, c: usize, child: TaskState, id: u64, detach: bool, ev: Event) {
        let child_id = self.next_task_id;
        self.next_task_id += 1;
        let kind = if detach {
            self.stats.detaches += 1;
            EventKind::TaskDetach {
                parent: id,
                child: child_id,
            }
        } else {
            self.stats.forks += 1;
            EventKind::TaskSpawn {
                parent: id,
                child: child_id,
            }
        };
        self.tracer.record(c, ev.time, 0, kind);
        self.charge(c, ev.time, self.cfg.fork_cost, OverheadKind::Fork);
        // The diversion produced a task: re-arm the eager rule's bounce
        // guard.
        self.cores[c].promote.on_fork();
        self.enqueue(c, child, child_id, ev);
        self.live_tasks += 1;
        self.stats.max_live_tasks = self.stats.max_live_tasks.max(self.live_tasks);
    }

    /// Core `c`'s task `id` executed `join` on record `jr` at `now`: it
    /// leaves the core, and resolution either stashes it or hands the
    /// core the merged or continuing task under a new trace id.
    fn join(&mut self, c: usize, now: u64, id: u64, jr: JoinId) -> Result<(), MachineError> {
        self.charge(c, now, self.cfg.join_cost, OverheadKind::Join);
        self.stats.joins += 1;
        let (task, _) = self.cores[c].task.take().expect("task present");
        // The fork-tree node this task sits on, read before resolution
        // consumes the task (`Root` means a completing join).
        let node = match task.assoc(jr) {
            Some(Assoc::Node { node, .. }) => node.index() as u32,
            _ => 0,
        };
        let kind = match resolve_join(self.program, task, jr, self.stores, 0)? {
            JoinResolution::TaskDied => {
                self.live_tasks -= 1;
                EventKind::JoinStash { task: id, node }
            }
            JoinResolution::Merged(t) => {
                self.stats.merges += 1;
                let merged = self.next_task_id;
                self.next_task_id += 1;
                self.cores[c].task = Some((*t, merged));
                EventKind::JoinMerge {
                    task: id,
                    node,
                    merged,
                }
            }
            JoinResolution::Completed(t) => {
                let resumed = self.next_task_id;
                self.next_task_id += 1;
                self.cores[c].task = Some((*t, resumed));
                EventKind::JoinContinue { task: id, resumed }
            }
        };
        self.tracer.record(c, now, 0, kind);
        Ok(())
    }

    /// The lone runner: no other core is in the calendar, no idle core
    /// can race this one for queued work, and the core's next action
    /// `key` comes before the interrupt source's next delivery — so it is
    /// the event the calendar would pop next, and the loop handles it at
    /// once without arming the core's slot.
    #[inline]
    fn lone_runner(&self, key: Key) -> bool {
        self.calendar.armed_cores == 1
            && (self.queued == 0 || self.retries.is_empty())
            && key < self.calendar.key(self.cfg.cores)
    }

    /// The run's outcome once the root task halted on core `c` at
    /// `end_time`.
    fn finish(mut self, c: usize, end_time: u64) -> SimOutcome {
        let (halted, _) = self.cores[c].task.take().expect("task present");
        let final_regs = (0..self.program.reg_count())
            .map(|i| {
                let r = Reg::from_index(i);
                (self.program.reg_name(r).to_owned(), halted.regs.read_raw(r))
            })
            .collect();
        SimOutcome {
            time: end_time,
            stats: self.stats,
            cores: self.cfg.cores,
            heartbeat: self.cfg.heartbeat,
            trace: self.tracer.0.map(TraceBuilder::finish),
            // The halting task's fork/join-threaded counters are the
            // whole computation's totals (τ = 0 in this engine).
            work: halted.rel_work,
            span: halted.rel_span,
            final_regs,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;

    /// What a run's fast paths did, counted in test builds only.
    #[derive(Debug, Clone, Copy, Default)]
    pub(super) struct Counts {
        /// Events taken from the calendar.
        pub(super) pops: u64,
        /// Core actions handled, lone-runner continuations included.
        pub(super) actions: u64,
        /// [`ExecBackend::run_until`] calls.
        pub(super) run_untils: u64,
    }

    /// A slot's key, laid out as in the engine: the last of `slots` is
    /// the interrupt source's (the timer wave's key), every other slot
    /// is its core's next action, so no two slots share a key.
    fn key_of(slots: usize, slot: usize, time: u64) -> Key {
        if slot == slots - 1 {
            interrupt_key(0, time)
        } else {
            action_key(slot, time)
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        /// Arm a slot, whatever it held.
        Set(usize, u64),
        Clear(usize),
        /// Take the earliest event and re-arm its slot (`Some`) or
        /// clear it — the engine's own step.
        Replace(Option<u64>),
    }

    /// Times that collide often, and times at the very top of the range.
    fn time() -> BoxedStrategy<u64> {
        prop_oneof![
            3 => 0u64..64,
            1 => (0u64..4).prop_map(|k| u64::MAX - k),
            1 => any::<u64>(),
        ]
        .boxed()
    }

    fn op() -> BoxedStrategy<Op> {
        prop_oneof![
            4 => (0usize..1024, time()).prop_map(|(s, t)| Op::Set(s, t)),
            1 => (0usize..1024).prop_map(Op::Clear),
            4 => time().prop_map(|t| Op::Replace(Some(t))),
            1 => Just(Op::Replace(None)),
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The calendar yields exactly the sequence an ordered set of the
        /// same keys does, for any slot count — whole groups or not, one
        /// tree level or five — with the interrupt slot's wave sorting
        /// before the actions of its own cycle; and it reads back each
        /// slot's key and the count of armed core slots (all but the
        /// last) as the slots themselves hold them.
        #[test]
        fn calendar_pops_in_key_order(
            slots in prop_oneof![1usize..=20, 60usize..=70, Just(257usize)],
            ops in proptest::collection::vec(op(), 0..400),
        ) {
            let mut calendar = Calendar::new(slots);
            let mut model = BTreeSet::new();
            let mut armed: Vec<Option<Key>> = vec![None; slots];
            for op in ops {
                let (slot, key) = match op {
                    Op::Set(s, t) => (s % slots, Some(key_of(slots, s % slots, t))),
                    Op::Clear(s) => (s % slots, None),
                    Op::Replace(t) => {
                        let Some(&first) = model.first() else { continue };
                        let slot = armed.iter().position(|&k| k == Some(first)).unwrap();
                        (slot, t.map(|t| key_of(slots, slot, t)))
                    }
                };
                if let Some(old) = armed[slot].take() {
                    model.remove(&old);
                }
                if let Some(key) = key {
                    model.insert(key);
                    armed[slot] = Some(key);
                }
                calendar.set(slot, key.unwrap_or(EMPTY));
                prop_assert_eq!(calendar.min().map(Event::key), model.first().copied());
                prop_assert_eq!(calendar.key(slot), key.unwrap_or(EMPTY));
                prop_assert_eq!(
                    calendar.armed_cores,
                    armed[..slots - 1].iter().filter(|k| k.is_some()).count()
                );
            }
        }
    }

    /// Runs workload `name`'s Quick input, lowered for heartbeat
    /// scheduling, on the default tier at seed 1 on 15 cores with per-core
    /// timers at ♥ = 3000, and returns what the fast paths did.
    fn fast_path_counts(name: &str) -> Counts {
        let spec = tpal_workloads::workload(name)
            .expect("known workload")
            .sim_spec(tpal_workloads::Scale::Quick);
        let lowered = tpal_ir::lower::lower(&spec.ir, tpal_ir::lower::Mode::Heartbeat)
            .expect("the workload lowers");
        let config = SimConfig {
            seed: 1,
            ..SimConfig::nautilus(15, 3_000)
        };
        let mut sim = Sim::new(&lowered.program, config);
        for (param, data) in &spec.input.arrays {
            let base = sim.alloc_array(data);
            sim.set_reg(&lowered.param_reg(param), base).unwrap();
        }
        for (param, v) in &spec.input.ints {
            sim.set_reg(&lowered.param_reg(param), *v).unwrap();
        }
        sim.run().expect("the workload runs");
        sim.counts
    }

    /// The fast paths fire, not just the outcomes match: each bound
    /// fails if one fast path stops. Without the lone runner
    /// `pipeline-tokens` pops about 10 100 events, not 474; without the
    /// boundary skip it calls `run_until` about 10 100 times, not 5 267;
    /// and with idle cores as calendar actions instead of retry chains
    /// it pops 19 737 events and `floyd-warshall-small` 57 539, not 2 257.
    #[test]
    fn fast_paths_fire() {
        let pipeline = fast_path_counts("pipeline-tokens");
        assert!(pipeline.pops <= 600, "pipeline-tokens: {pipeline:?}");
        assert!(
            pipeline.run_untils <= 5_500,
            "pipeline-tokens: {pipeline:?}"
        );
        let floyd = fast_path_counts("floyd-warshall-small");
        assert!(floyd.pops <= 3_000, "floyd-warshall-small: {floyd:?}");
    }

    /// A free failed steal would make an idle core act on every cycle;
    /// idle cores are retry chains instead, so a multicore refuses it.
    #[test]
    #[should_panic(expected = "a failed steal must cost at least one cycle")]
    fn a_free_retry_is_refused_on_a_multicore() {
        let program = tpal_core::programs::prod();
        let config = SimConfig {
            steal_retry_cost: 0,
            ..SimConfig::nautilus(2, 3_000)
        };
        Sim::new(&program, config);
    }

    #[test]
    fn keys_order_by_time_then_phase_then_core() {
        let late = interrupt_key(0, u64::MAX);
        assert!(action_key(7, u64::MAX - 1) < late);
        assert!(late < action_key(0, u64::MAX));
        assert!(interrupt_key(3, 5) < interrupt_key(4, 5));
        // The timer wave delivers to every core before any core acts.
        assert!(interrupt_key(0, 5) < action_key(0, 5));
        assert!(action_key(255, 4) < interrupt_key(0, 5));
        assert!(action_key(255, u64::MAX) < EMPTY);
        let ev = Event::from_key(action_key(255, u64::MAX));
        assert_eq!((ev.time, ev.phase, ev.core), (u64::MAX, PHASE_ACTION, 255));
    }

    #[test]
    fn an_empty_calendar_has_no_event() {
        let mut calendar = Calendar::new(3);
        assert!(calendar.min().is_none());
        calendar.set(2, action_key(2, u64::MAX));
        assert_eq!(calendar.min().map(|ev| ev.time), Some(u64::MAX));
        calendar.set(2, EMPTY);
        assert!(calendar.min().is_none());
    }
}
