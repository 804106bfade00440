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
//! are. Running tasks stay in place beside the cores and leave only when
//! they leave the core (halt, a stashing join, a channel park).
//! Simulated time jumps from event to event, so the cost of a run is
//! O(instructions + events·log cores) rather than
//! O(makespan × cores).
//!
//! The two engines are observably equivalent — identical makespan,
//! [`SimStats`], and final registers for every program × configuration ×
//! seed — which the `engine_equivalence` differential suite enforces.
//! See `DESIGN.md` for the equivalence argument.

use tpal_core::isa::Reg;
use tpal_core::machine::{
    resolve_join, step_task, Assoc, JoinResolution, MachineError, PromotionOrder, RunPause,
    StepOutcome, Stores, TaskState, Value,
};
use tpal_core::program::Program;
use tpal_core::tier::{ExecBackend, ExecTier};

use tpal_sched::{
    uniform_victim, Domain, InterruptModel, PingChain, PromoteState, PromoteStep, Promotion,
    SplitMix64,
};
use tpal_trace::{EventKind, OverheadKind, Trace, TraceBuilder};

use crate::timeline::Timeline;

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
    /// Cycles an idle core spends on a failed steal attempt.
    pub steal_retry_cost: u64,
    /// Cycles charged for join resolution (stash or merge).
    pub join_cost: u64,
    /// RNG seed (victim selection, delivery jitter).
    pub seed: u64,
    /// Abort after this many executed instructions.
    pub step_limit: u64,
    /// Record a per-core activity [`Timeline`] (bucketed at ♥/2 cycles)
    /// in the outcome: the run records a trace, as for `record_trace`,
    /// and buckets it at the end ([`Timeline::from_trace`]).
    pub record_timeline: bool,
    /// Record a full structured [`Trace`] (task lifecycle events and
    /// per-core activity spans) in the outcome. Off by default: when
    /// off, every record site is one `Option`/`None` branch and nothing
    /// is allocated; when on, time and memory are O(scheduling
    /// decisions) — spans are maximal runs, so neither how long a core
    /// sat idle nor how a task's work was sliced into quanta adds events.
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
            record_timeline: false,
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
    /// Per-core activity timeline, when
    /// [`SimConfig::record_timeline`] was set.
    pub timeline: Option<Timeline>,
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

struct Core {
    /// Queued tasks, each with its trace id.
    deque: std::collections::VecDeque<(TaskState, u64)>,
    /// When the core can act next. An idle core's is its next retry
    /// that has not been settled yet.
    busy_until: u64,
    /// Promotion state (delivered-beat flag, eager bounce guard) —
    /// consumed by [`Promotion`].
    promote: PromoteState,
    /// The core is idle — no task, an empty deque — and out of the
    /// calendar: a chain of steal retries (see `Sim::run`).
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
/// cleared, and the earliest armed key on demand.
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

    /// Arms `slot` at `key` ([`EMPTY`] clears it), replacing what it held.
    fn set(&mut self, slot: usize, key: Key) {
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
    /// `config.exec_tier`, or `config.cores` is zero.
    pub fn with_backend(program: &'p Program, backend: ExecBackend, config: SimConfig) -> Self {
        assert!(config.cores > 0, "at least one core required");
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
        let cfg = self.config;
        let mut rng = SplitMix64::new(cfg.seed);
        let mut stats = SimStats::default();
        let mut cores: Vec<Core> = (0..cfg.cores)
            .map(|_| Core {
                deque: std::collections::VecDeque::new(),
                busy_until: 0,
                promote: PromoteState::default(),
                idle: false,
                at_boundary: false,
            })
            .collect();
        // Each core's running task, kept beside `cores` so an action can
        // run it in place while it mutates other cores. A task leaves
        // its slot only when it leaves the core: halt, a join that stashes
        // it, or a channel park.
        let mut running: Vec<Option<TaskState>> = (0..cfg.cores).map(|_| None).collect();
        running[0] = Some(self.initial.take().expect("simulation already run"));
        let mut running_count: usize = 1;

        // Ping-thread signaller state. Unlike the reference (which tests
        // `now >= ping.next_time` once per cycle), `ping.next_time` here
        // is always the exact cycle of the next delivery, i.e. already
        // clamped to be strictly after the previous one.
        let mut ping = PingChain::new(cfg.heartbeat.max(1), cfg.heartbeat);
        // Per-core timers all start at ♥ and advance by ♥ together, so
        // one deadline serves every core.
        let mut next_beat = cfg.heartbeat;

        let mut live_tasks: usize = 1;
        // Tasks sitting in deques right now.
        let mut queued: usize = 0;
        // Idle cores — no task, an empty deque — are retry chains, not
        // calendar events: `busy_until` is the next retry not yet
        // settled, and `retries` holds one key per idle core. While
        // nothing is queued every retry is a forced failure, settled
        // lazily in O(1) by `settle_idle!`, and the keys may be stale;
        // while tasks are queued the keys are exact and in key order, and
        // the loop settles them retry by retry before each calendar event.
        // Only with a positive retry cost on a multicore: a free retry
        // stays a calendar action (the reference's starvation check
        // needs it), and a lone core has nobody to steal from.
        let chains = cfg.cores > 1 && cfg.steal_retry_cost > 0;
        let mut retries: std::collections::VecDeque<Key> =
            std::collections::VecDeque::with_capacity(cfg.cores);
        // Tasks parked on a full channel (pushers) or an empty one
        // (poppers), in park order, each with its trace id. A parked
        // task occupies no core and no deque — and is invisible to
        // `queued`, so idle cores fast-forward right over blocked
        // channel traffic; a matching channel operation re-queues the
        // task on the waking core's deque (and makes the idle cores'
        // retries live, exactly like a fork making work visible).
        let mut parked_push: std::collections::VecDeque<(i64, TaskState, u64)> = Default::default();
        let mut parked_pop: std::collections::VecDeque<(i64, TaskState, u64)> = Default::default();
        // Structured event tracing — the one recording path: a requested
        // timeline is bucketed from the trace after the run. Every task
        // carries its trace id — beside it in a deque or a channel's park
        // list, in `current_id` while it runs — whether or not tracing is
        // on, so the traced-off path pays one `None` branch per record
        // site and nothing else.
        let mut tracer = if cfg.record_trace || cfg.record_timeline {
            Some(
                TraceBuilder::new(cfg.cores, "cycles", cfg.heartbeat)
                    .policy(cfg.promotion.label(Domain::Sim))
                    .source(cfg.interrupt.label()),
            )
        } else {
            None
        };
        let mut next_task_id: u64 = 1; // the initial task is id 0
        let mut current_id: Vec<u64> = vec![0; cfg.cores];
        macro_rules! tev {
            ($core:expr, $ts:expr, $dur:expr, $kind:expr) => {
                if let Some(tb) = &mut tracer {
                    tb.record($core, $ts, $dur, $kind);
                }
            };
        }

        // Settles idle core `$p`'s pending retries at virtual times
        // strictly before `$bound`, in O(1) — valid while nothing is
        // queued. Each settled retry charges the same counters as a live
        // failed steal and advances the RNG stream by its one victim
        // draw — the drawn victim is unobservable (every deque is empty),
        // but the stream position is, hence the O(1) `skip`. The whole
        // chain is one trace span: recording costs O(1) per settled chain
        // however long the core sat idle.
        macro_rules! settle_one {
            ($p:expr, $bound:expr) => {
                let next = cores[$p].busy_until;
                if next < $bound {
                    let retry = cfg.steal_retry_cost;
                    let k = ($bound - 1 - next) / retry + 1;
                    rng.skip(k);
                    stats.failed_steals += k;
                    stats.idle_cycles += k * retry;
                    // Settled retroactively: the span carries a later
                    // sequence number than events at greater timestamps
                    // on other cores' tracks (never on its own).
                    tev!($p, next, k * retry, EventKind::Idle { retries: k });
                    cores[$p].busy_until = next + k * retry;
                }
            };
        }

        // While nothing is queued, settles every idle core's retries that
        // virtually precede event `$ev`. A retry of core `p` carries the
        // key `(t, PHASE_ACTION, p)`, so it precedes the event if
        // `t < $ev.time`, or at `t == $ev.time` when the event is a later
        // core's action (the reference scans cores in index order within
        // a cycle). While tasks are queued the loop has already settled
        // every retry before the event.
        //
        // Settling is *deferred*: while nothing is queued no steal draw
        // can happen, so pure skips commute past every other event.
        // Settling is needed only where the chains become observable —
        // before a ping delivery (its jitter draw must land at the right
        // stream position, and the receiving core's chain shifts), when
        // work is queued (the chains go live again), at `halt` (the
        // counters become the outcome), and, per core, when a timer
        // interrupt shifts that one chain.
        macro_rules! settle_idle {
            ($ev:expr) => {
                if queued == 0 && !retries.is_empty() {
                    for p in 0..cfg.cores {
                        if !cores[p].idle {
                            continue;
                        }
                        let bound = if $ev.phase == PHASE_ACTION && (p as u32) < $ev.core {
                            $ev.time + 1
                        } else {
                            $ev.time
                        };
                        settle_one!(p, bound);
                    }
                }
            };
        }

        // Rewrites every idle core's key from its `busy_until` and puts
        // the keys back in order: when queued work makes the retries live,
        // and after an interrupt shifts idle cores' retries while they are.
        macro_rules! resort_retries {
            () => {
                for key in retries.iter_mut() {
                    let p = Event::from_key(*key).core as usize;
                    *key = action_key(p, cores[p].busy_until);
                }
                retries.make_contiguous().sort_unstable();
            };
        }

        // Adds `$key` to the live retries in key order. A failed retry's
        // next one usually comes after every other: the idle cores retry
        // in turn.
        macro_rules! insert_retry {
            ($key:expr) => {
                let key = $key;
                if retries.back().is_none_or(|&last| last < key) {
                    retries.push_back(key);
                } else {
                    let at = retries.partition_point(|&k| k < key);
                    retries.insert(at, key);
                }
            };
        }

        // The calendar's slots: core `c`'s next action is slot `c`, and
        // slot `cores` is the interrupt source's next delivery — the ping
        // chain's, or the timer wave's (every core's local timer fires in
        // one cycle, in core order, exactly as the same-time interrupt
        // keys `(t, 0, 0..cores)` would pop). An idle core's slot, and
        // the source's when interrupts are disabled, stays cleared. Seed
        // it: every core attempts an action on cycle 1 (the reference's
        // first tick), and the interrupt source fires its first delivery.
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

        // Core `$c` has no task and an empty deque: it leaves the
        // calendar as a retry chain whose next attempt is at `$t`.
        macro_rules! go_idle {
            ($c:expr, $t:expr) => {
                cores[$c].idle = true;
                cores[$c].busy_until = $t;
                calendar.set($c, EMPTY);
                insert_retry!(action_key($c, $t));
            };
        }

        // Channel deadlock: every remaining task is parked on a channel
        // and no runner exists to wake one — without this check the idle
        // chains would follow the interrupt source forever.
        macro_rules! chan_deadlock {
            () => {
                !(parked_push.is_empty() && parked_pop.is_empty())
                    && queued == 0
                    && running_count == 0
            };
        }

        // Queues task `$t` on core `$c`'s deque during event `$ev`. The
        // first queued task makes the idle cores' retries live: settle
        // them while they are still forced failures, then order them.
        // Cores after the acting one in index order may retry at this very
        // cycle and see the new task, exactly as the reference's in-cycle
        // scan does.
        macro_rules! enqueue {
            ($c:expr, $t:expr, $id:expr, $ev:expr) => {
                if queued == 0 && !retries.is_empty() {
                    settle_idle!($ev);
                    resort_retries!();
                }
                cores[$c].deque.push_back(($t, $id));
                queued += 1;
            };
        }

        // Wakes the oldest task parked on channel `$ch` onto core `$c`'s
        // deque; `false` if none is parked there.
        macro_rules! wake_one {
            ($list:expr, $ch:expr, $c:expr, $ev:expr, $now:expr) => {
                if let Some(idx) = $list.iter().position(|&(ch2, _, _)| ch2 == $ch) {
                    let (_, t, tid) = $list.remove(idx).expect("index in range");
                    enqueue!($c, t, tid, $ev);
                    stats.chan_wakes += 1;
                    tev!(
                        $c,
                        $now,
                        0,
                        EventKind::ChanResume {
                            ch: $ch as u32,
                            task: tid
                        }
                    );
                    true
                } else {
                    false
                }
            };
        }

        // Core `$c`'s steal attempt at cycle `$t`: it draws a uniformly
        // random other core and takes the top of its deque. A hit makes
        // the core busy for the steal, a miss for the retry. Evaluates to
        // whether it stole.
        macro_rules! steal {
            ($c:expr, $t:expr) => {{
                let (c, t): (usize, u64) = ($c, $t);
                let victim = uniform_victim(&mut rng, c, cfg.cores);
                match cores[victim].deque.pop_front() {
                    Some((task, id)) => {
                        queued -= 1;
                        running[c] = Some(task);
                        current_id[c] = id;
                        running_count += 1;
                        cores[c].busy_until = t + cfg.steal_cost;
                        stats.steals += 1;
                        stats.overhead_cycles += cfg.steal_cost;
                        tev!(
                            c,
                            t,
                            0,
                            EventKind::Steal {
                                victim: victim as u32
                            }
                        );
                        tev!(
                            c,
                            t,
                            cfg.steal_cost,
                            EventKind::Overhead {
                                what: OverheadKind::Steal
                            }
                        );
                        true
                    }
                    None => {
                        cores[c].busy_until = t + cfg.steal_retry_cost;
                        stats.failed_steals += 1;
                        stats.idle_cycles += cfg.steal_retry_cost;
                        tev!(c, t, cfg.steal_retry_cost, EventKind::Idle { retries: 1 });
                        false
                    }
                }
            }};
        }

        let halted: TaskState;
        let end_time: u64;

        'sim: loop {
            // While tasks are queued, the idle cores race for them: settle
            // every retry that precedes the next calendar event, in
            // `(time, core)` order. A thief rejoins the calendar, and its
            // next action bounds the race if it comes first; the race ends
            // early when the queue empties.
            if queued > 0 && !retries.is_empty() {
                let mut bound = calendar.min_key();
                while let Some(&key) = retries.front() {
                    if key >= bound {
                        break;
                    }
                    retries.pop_front();
                    let Event { time: t, core, .. } = Event::from_key(key);
                    let p = core as usize;
                    if steal!(p, t) {
                        cores[p].idle = false;
                        // A core acts at most once per cycle.
                        let key = action_key(p, cores[p].busy_until.max(t + 1));
                        calendar.set(p, key);
                        bound = bound.min(key);
                        if queued == 0 {
                            break;
                        }
                    } else {
                        insert_retry!(action_key(p, cores[p].busy_until));
                    }
                }
            }

            // The calendar can only empty before `halt` if interrupts are
            // disabled and every core is idle on an empty system — no
            // event can ever create work again. (The reference spins
            // forever on that degenerate program; an error is strictly
            // more useful.) The event stays armed while it is handled:
            // each arm below re-arms or clears its slot.
            let Some(ev) = calendar.min() else {
                return Err(MachineError::Deadlock);
            };
            let now = ev.time;

            if ev.phase == PHASE_INTERRUPT {
                // The receiving cores: every core for the timer wave, the
                // chain's next target for the ping thread — whose jitter
                // draw below must land at the right stream position, so
                // every idle chain is settled first.
                let (targets, service_cost) = match cfg.interrupt {
                    InterruptModel::PerCoreTimer { service_cost } => (0..cfg.cores, service_cost),
                    InterruptModel::PingThread { service_cost, .. } => {
                        settle_idle!(ev);
                        (ping.next_core..ping.next_core + 1, service_cost)
                    }
                    InterruptModel::Disabled => unreachable!("no interrupt source armed"),
                };
                for ci in targets {
                    // An idle core's pending retries are settled first:
                    // the service cost shifts the retry pending at
                    // delivery time. (While tasks are queued the race
                    // has settled them already.)
                    if cores[ci].idle && queued == 0 {
                        settle_one!(ci, now);
                    }
                    let core = &mut cores[ci];
                    core.promote.beat = true;
                    core.busy_until = core.busy_until.max(now) + service_cost;
                    stats.heartbeats_delivered += 1;
                    stats.overhead_cycles += service_cost;
                    tev!(ci, now, 0, EventKind::HeartbeatDelivered);
                    tev!(
                        ci,
                        now,
                        service_cost,
                        EventKind::Overhead {
                            what: OverheadKind::Interrupt
                        }
                    );
                }
                if queued > 0 && !retries.is_empty() {
                    resort_retries!();
                }
                // Re-arm the source.
                if let InterruptModel::PingThread { .. } = cfg.interrupt {
                    let delay = cfg.interrupt.ping_delay(&mut rng);
                    ping.advance(now, cfg.cores, cfg.heartbeat, delay);
                    calendar.set(cfg.cores, interrupt_key(ping.next_core, ping.next_time));
                } else {
                    next_beat += cfg.heartbeat;
                    // `.max(now + 1)`: with ♥ = 0 the reference still
                    // delivers at most once per cycle.
                    calendar.set(cfg.cores, interrupt_key(0, next_beat.max(now + 1)));
                }
                continue;
            }

            // Core action. If an interrupt pushed the core's busy horizon
            // past the scheduled time, re-arm at the new horizon.
            let c = ev.core as usize;
            if cores[c].busy_until > now {
                calendar.set(c, action_key(c, cores[c].busy_until));
                continue;
            }

            // Acquire work if idle.
            if running[c].is_none() {
                if let Some((t, id)) = cores[c].deque.pop_back() {
                    // Own pop is free; the task runs this very cycle.
                    queued -= 1;
                    running[c] = Some(t);
                    current_id[c] = id;
                    running_count += 1;
                } else if chan_deadlock!() {
                    return Err(MachineError::Deadlock);
                } else if chains {
                    // Thieves emptied the deque this core would have
                    // popped: it goes idle, and its first retry is this
                    // very action, made before the next calendar event.
                    go_idle!(c, now);
                    continue;
                } else if cfg.cores > 1 {
                    // A free retry: the core stays in the calendar and
                    // acts at most once per cycle. Then the reference's
                    // end-of-cycle starvation check can fire (all cores
                    // free, empty, and idle this cycle); with a positive
                    // cost the freshly charged `busy_until` always
                    // defeats it there.
                    if !steal!(c, now)
                        && running_count == 0
                        && cores
                            .iter()
                            .all(|k| k.deque.is_empty() && k.busy_until <= now)
                    {
                        return Err(MachineError::Deadlock);
                    }
                    calendar.set(c, action_key(c, cores[c].busy_until.max(now + 1)));
                    continue;
                } else {
                    // Single core, nothing runnable, nothing queued: no
                    // task can ever appear again. (The reference charges
                    // one idle cycle first, but the error discards the
                    // outcome, so nothing observable is lost.)
                    return Err(MachineError::Deadlock);
                }
            }

            let task = running[c].as_mut().expect("task present");
            let promo = cfg.promotion;

            let (steps, pause) = if std::mem::take(&mut cores[c].at_boundary)
                && (!promo.watch(&cores[c].promote)
                    || task.at_promotion_point(self.program).is_none())
            {
                // The last run stopped right before a boundary, and no
                // promotion can be decided here: a run would execute
                // nothing.
                (0, RunPause::Boundary)
            } else {
                // Scheduling boundary: the promotion rule decides what a
                // promotion-ready point does with the delivered beat
                // (rollforward semantics — promotion happens only at
                // promotion-ready program points).
                let mut step_past = false;
                if promo.watch(&cores[c].promote) {
                    if let Some(handler) = task.at_promotion_point(self.program) {
                        match promo.decide(&mut cores[c].promote) {
                            PromoteStep::Divert => {
                                task.divert_to_handler(handler);
                                stats.promotions += 1;
                                tev!(c, now, 0, EventKind::HeartbeatServiced);
                                tev!(
                                    c,
                                    now,
                                    0,
                                    EventKind::TaskPromote {
                                        task: current_id[c]
                                    }
                                );
                            }
                            PromoteStep::StepPast => step_past = true,
                            PromoteStep::Run => {}
                        }
                    }
                }

                // Batch horizon: this core cannot be re-flagged before
                // the next timer wave (PerCoreTimer — the armed deadline
                // is exact) or the signaller's next delivery to *anyone*
                // (PingThread — conservative, since the chain's future
                // targets depend on jitter draws that must stay in
                // delivery order). Interrupts at the horizon sort before
                // the follow-up action, so the flag is seen then.
                let horizon = match cfg.interrupt {
                    InterruptModel::PerCoreTimer { .. } => next_beat.max(now + 1),
                    InterruptModel::PingThread { .. } => ping.next_time.max(now + 1),
                    InterruptModel::Disabled => u64::MAX,
                };
                let allowed = cfg
                    .step_limit
                    .saturating_add(1)
                    .saturating_sub(stats.instructions);
                // A declined point must execute exactly one instruction
                // unwatched (or the watch would pause at it again,
                // forever).
                let max_steps = if step_past {
                    1.min(allowed)
                } else {
                    (horizon - now).min(allowed)
                };
                let watch = !step_past && promo.watch(&cores[c].promote);

                self.backend
                    .run_until(self.program, task, &mut self.stores, max_steps, watch)?
            };
            if steps > 0 {
                stats.instructions += steps;
                stats.work_cycles += steps;
                tev!(
                    c,
                    now,
                    steps,
                    EventKind::Work {
                        task: current_id[c]
                    }
                );
                if stats.instructions > cfg.step_limit {
                    return Err(MachineError::StepLimitExceeded {
                        limit: cfg.step_limit,
                    });
                }
            }

            match pause {
                RunPause::Quantum | RunPause::PromotionReady => {
                    // Re-assess at the end of the run: the pending
                    // interrupt (Quantum) or the handler diversion
                    // (PromotionReady) happens on the next action.
                    cores[c].busy_until = now + steps;
                    calendar.set(c, action_key(c, now + steps));
                }
                RunPause::Boundary if steps > 0 => {
                    // The boundary instruction must execute at its own
                    // virtual time: deque pushes, join-store transitions
                    // and allocations are globally ordered against other
                    // cores' events in (now, now + steps].
                    cores[c].busy_until = now + steps;
                    cores[c].at_boundary = true;
                    calendar.set(c, action_key(c, now + steps));
                }
                RunPause::Boundary => {
                    // The very next instruction is the boundary: execute
                    // it this cycle, exactly as the reference does.
                    let outcome = step_task(self.program, task, &mut self.stores)?;
                    let id = current_id[c];
                    // Every outcome but a block executed the instruction.
                    if !matches!(outcome, StepOutcome::ChanBlocked { .. }) {
                        stats.instructions += 1;
                        stats.work_cycles += 1;
                        tev!(c, now, 1, EventKind::Work { task: id });
                    }
                    let detach = matches!(outcome, StepOutcome::Detached { .. });
                    // The core acts again after the instruction's cycle
                    // plus whatever overhead its outcome charges.
                    let mut busy_until = now + 1;
                    match outcome {
                        StepOutcome::Ran => {} // jralloc / snew / halloc.
                        StepOutcome::Halted if task.detached => {
                            // A detached task retires through its own
                            // halt; the run ends at the root's.
                            tev!(c, now, 0, EventKind::TaskEnd { task: id });
                            running[c] = None;
                            running_count -= 1;
                            live_tasks -= 1;
                        }
                        StepOutcome::Halted => {
                            // The counters become the outcome: settle
                            // every idle core's retries up to the halt
                            // (earlier cores' attempts this very cycle
                            // included, as in the reference's in-order
                            // scan).
                            settle_idle!(ev);
                            tev!(c, now, 0, EventKind::TaskEnd { task: id });
                            halted = running[c].take().expect("task present");
                            end_time = now;
                            break 'sim;
                        }
                        StepOutcome::Forked { child } | StepOutcome::Detached { child } => {
                            // `detach` has a fork's cost shape — it
                            // allocates and enqueues a task — minus the
                            // join record.
                            let child_id = next_task_id;
                            next_task_id += 1;
                            tev!(
                                c,
                                now,
                                0,
                                if detach {
                                    EventKind::TaskDetach {
                                        parent: id,
                                        child: child_id,
                                    }
                                } else {
                                    EventKind::TaskSpawn {
                                        parent: id,
                                        child: child_id,
                                    }
                                }
                            );
                            tev!(
                                c,
                                now,
                                cfg.fork_cost,
                                EventKind::Overhead {
                                    what: OverheadKind::Fork
                                }
                            );
                            if detach {
                                stats.detaches += 1;
                            } else {
                                stats.forks += 1;
                            }
                            // The diversion produced a task: re-arm the
                            // eager rule's bounce guard.
                            cores[c].promote.on_fork();
                            enqueue!(c, *child, child_id, ev);
                            busy_until += cfg.fork_cost;
                            stats.overhead_cycles += cfg.fork_cost;
                            live_tasks += 1;
                            stats.max_live_tasks = stats.max_live_tasks.max(live_tasks);
                        }
                        StepOutcome::Joined { jr } => {
                            tev!(
                                c,
                                now,
                                cfg.join_cost,
                                EventKind::Overhead {
                                    what: OverheadKind::Join
                                }
                            );
                            stats.joins += 1;
                            busy_until += cfg.join_cost;
                            stats.overhead_cycles += cfg.join_cost;
                            // The fork-tree node this task sits on, read
                            // before resolution consumes the task (`Root`
                            // means a completing join).
                            let node = match task.assoc(jr) {
                                Some(Assoc::Node { node, .. }) => node.index() as u32,
                                _ => 0,
                            };
                            let task = running[c].take().expect("task present");
                            match resolve_join(self.program, task, jr, &mut self.stores, 0)? {
                                JoinResolution::TaskDied => {
                                    running_count -= 1;
                                    live_tasks -= 1;
                                    tev!(c, now, 0, EventKind::JoinStash { task: id, node });
                                }
                                JoinResolution::Merged(t) => {
                                    stats.merges += 1;
                                    running[c] = Some(*t);
                                    current_id[c] = next_task_id;
                                    next_task_id += 1;
                                    tev!(
                                        c,
                                        now,
                                        0,
                                        EventKind::JoinMerge {
                                            task: id,
                                            node,
                                            merged: current_id[c]
                                        }
                                    );
                                }
                                JoinResolution::Completed(t) => {
                                    running[c] = Some(*t);
                                    current_id[c] = next_task_id;
                                    next_task_id += 1;
                                    tev!(
                                        c,
                                        now,
                                        0,
                                        EventKind::JoinContinue {
                                            task: id,
                                            resumed: current_id[c]
                                        }
                                    );
                                }
                            }
                        }
                        StepOutcome::ChanPushed { ch } => {
                            stats.chan_pushes += 1;
                            let ch32 = ch as u32;
                            tev!(c, now, 0, EventKind::ChanPush { ch: ch32, task: id });
                            wake_one!(parked_pop, ch, c, ev, now);
                        }
                        StepOutcome::ChanPopped { ch } => {
                            stats.chan_pops += 1;
                            let ch32 = ch as u32;
                            tev!(c, now, 0, EventKind::ChanPop { ch: ch32, task: id });
                            wake_one!(parked_push, ch, c, ev, now);
                        }
                        StepOutcome::ChanClosed { ch } => {
                            let ch32 = ch as u32;
                            tev!(c, now, 0, EventKind::ChanClose { ch: ch32, task: id });
                            // Close wakes every waiter: poppers first
                            // (they drain the buffer or fault), then
                            // pushers (they fault), each cohort in park
                            // order.
                            while wake_one!(parked_pop, ch, c, ev, now) {}
                            while wake_one!(parked_push, ch, c, ev, now) {}
                        }
                        StepOutcome::ChanBlocked { ch, push } => {
                            // The instruction did not execute (the
                            // machine un-counted it); the core spent the
                            // cycle discovering the block and parks the
                            // task — its running slot is left empty, so
                            // the core seeks new work next.
                            stats.chan_blocks += 1;
                            stats.idle_cycles += 1;
                            tev!(c, now, 1, EventKind::Idle { retries: 0 });
                            tev!(
                                c,
                                now,
                                0,
                                EventKind::ChanBlock {
                                    ch: ch as u32,
                                    task: id,
                                    push
                                }
                            );
                            let task = running[c].take().expect("task present");
                            running_count -= 1;
                            if push {
                                parked_push.push_back((ch, task, id));
                            } else {
                                parked_pop.push_back((ch, task, id));
                            }
                        }
                    }
                    if stats.instructions > cfg.step_limit {
                        return Err(MachineError::StepLimitExceeded {
                            limit: cfg.step_limit,
                        });
                    }
                    if running[c].is_none() && cores[c].deque.is_empty() && chains {
                        // The task left and nothing is queued here: the
                        // core goes idle without an action that would
                        // find no work. (With work in its own deque it
                        // stays an action: an own pop is free.)
                        if chan_deadlock!() {
                            return Err(MachineError::Deadlock);
                        }
                        go_idle!(c, busy_until);
                    } else {
                        cores[c].busy_until = busy_until;
                        calendar.set(c, action_key(c, busy_until));
                    }
                }
            }
        }

        let final_regs = (0..self.program.reg_count())
            .map(|i| {
                let r = Reg::from_index(i);
                (self.program.reg_name(r).to_owned(), halted.regs.read_raw(r))
            })
            .collect();

        let trace = tracer.map(TraceBuilder::finish);
        let timeline = trace
            .as_ref()
            .filter(|_| cfg.record_timeline)
            .map(|trace| Timeline::from_trace(trace, (cfg.heartbeat / 2).max(64)));

        Ok(SimOutcome {
            time: end_time,
            stats,
            cores: cfg.cores,
            heartbeat: cfg.heartbeat,
            timeline,
            trace: trace.filter(|_| cfg.record_trace),
            // The halting task's fork/join-threaded counters are the
            // whole computation's totals (τ = 0 in this engine).
            work: halted.rel_work,
            span: halted.rel_span,
            final_regs,
        })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use proptest::prelude::*;

    use super::*;

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
        /// before the actions of its own cycle.
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
            }
        }
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
