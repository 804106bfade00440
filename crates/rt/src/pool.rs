//! The worker pool: threads, deques, stealing, and the heartbeat plumbing.
//!
//! The pool itself is policy-free — it runs type-erased jobs from per-worker
//! Chase–Lev deques with salted-sweep stealing and a global injector for
//! external submissions. The heartbeat/promotion logic lives in
//! `parallel.rs`; the eager Cilk baseline (`tpal-cilk`) reuses this pool
//! with the heartbeat source disabled.

use std::cell::RefCell;
use std::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use tpal_deque::{deque, CachePadded, Injector, Steal, Stealer, Worker};
use tpal_sched::{victim_sequence, Domain, HeartbeatCell, HeartbeatSource, Promotion};
use tpal_trace::{EventKind, SharedTracer, Trace};

use crate::heartbeat::{now_ticks, ticks_per_us};
use crate::job::{Job, ResultLatch};
use crate::stats::{Counters, RtStats};

/// Configuration of a [`Runtime`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtConfig {
    /// Number of worker threads.
    pub workers: usize,
    /// The heartbeat interval ♥.
    pub heartbeat: Duration,
    /// The heartbeat delivery mechanism.
    pub source: HeartbeatSource,
    /// When `true`, heartbeats are delivered and serviced but never
    /// promote — the "Serial, interrupts only" configuration of the
    /// paper's Figures 9 and 13, which isolates the cost of the
    /// interrupt mechanism itself.
    pub suppress_promotions: bool,
    /// Iterations per polling block of latent loops: promotion-ready
    /// points sit between blocks of this many iterations. Small strides
    /// poll (and can promote) at finer granularity but inhibit loop
    /// optimisation — the §6 software-polling trade-off, measured by the
    /// `ablation_polling_stride` bench. With [`RtConfig::poll_adaptive`]
    /// on this is the *floor* (and ramp-up start) of the adaptive block
    /// length; with it off, the exact fixed block length.
    pub poll_stride: usize,
    /// Adaptive poll coarsening: when `true` (the default), loops
    /// calibrate their block length from measured wall time per block,
    /// targeting a fixed number of polls per ♥ — cheap vectorisable
    /// bodies run long branch-free blocks, expensive ones short blocks,
    /// each level of a loop nest its own. When `false`, every block is
    /// exactly [`RtConfig::poll_stride`] iterations (the behaviour the
    /// parity tests pin).
    pub poll_adaptive: bool,
    /// Record structured scheduling events (deliveries, services,
    /// promotions, task creations, steals) into a per-worker trace,
    /// collected with [`Runtime::take_trace`]. Off by default: when off,
    /// every record site is one `None` check and nothing is allocated.
    pub trace: bool,
    /// When poll points attempt promotions (default `heartbeat`; a
    /// thief always sweeps every other worker, so runs label as
    /// `<promotion>/sequence`). [`RtConfig::suppress_promotions`]
    /// overrides it to `never`.
    pub promotion: Promotion,
}

impl Default for RtConfig {
    /// The defaults on one worker per CPU the host makes available.
    fn default() -> Self {
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        RtConfig::with_workers(cpus)
    }
}

impl RtConfig {
    /// The defaults on `n` workers, without asking the host how many
    /// CPUs it has — on Linux that reads the cgroup quota, tens of µs,
    /// which a per-request config cannot afford.
    pub fn with_workers(n: usize) -> Self {
        RtConfig {
            workers: n.max(1),
            heartbeat: Duration::from_micros(100),
            source: HeartbeatSource::LocalTimer,
            suppress_promotions: false,
            poll_stride: 32,
            poll_adaptive: true,
            trace: false,
            promotion: Promotion::Heartbeat,
        }
    }

    /// Sets the worker count.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Sets the heartbeat interval ♥.
    pub fn heartbeat(mut self, d: Duration) -> Self {
        self.heartbeat = d;
        self
    }

    /// Sets the heartbeat source.
    pub fn source(mut self, s: HeartbeatSource) -> Self {
        self.source = s;
        self
    }

    /// Delivers and services heartbeats without promoting (the paper's
    /// "interrupts only" overhead configuration).
    pub fn suppress_promotions(mut self, yes: bool) -> Self {
        self.suppress_promotions = yes;
        self
    }

    /// Sets the loop polling stride (see [`RtConfig::poll_stride`]).
    pub fn poll_stride(mut self, n: usize) -> Self {
        self.poll_stride = n.max(1);
        self
    }

    /// Enables or disables adaptive poll coarsening (see
    /// [`RtConfig::poll_adaptive`]).
    pub fn poll_adaptive(mut self, yes: bool) -> Self {
        self.poll_adaptive = yes;
        self
    }

    /// Enables structured event tracing (see [`RtConfig::trace`]).
    pub fn trace(mut self, yes: bool) -> Self {
        self.trace = yes;
        self
    }

    /// Sets the promotion rule (see [`RtConfig::promotion`]).
    pub fn promotion(mut self, p: Promotion) -> Self {
        self.promotion = p;
        self
    }
}

/// Local-timer fork-point subsampling: at promotion-ready points with no
/// block loop of their own (fork points, one-block loops) the timestamp
/// counter is read only every `POLL_SUBSAMPLE + 1`th call, the others
/// costing a counter decrement. Only `LocalTimer` consults this: the
/// flag-based sources are one relaxed load regardless, paced loop blocks
/// poll unsubsampled (their length already bounds the rate), and `eager`
/// promotes at every poll, so has no cheap path to keep.
const POLL_SUBSAMPLE: u32 = 31;

/// Idle-sleep states of a worker's [`SleepCell`].
const SLEEP_AWAKE: u32 = 0;
const SLEEP_PARKED: u32 = 1;
const SLEEP_NOTIFIED: u32 = 2;

/// One worker's eventcount slot: the sleep state word plus the thread
/// handle a waker unparks. Cache-line-aligned so a waker's CAS on one
/// worker's cell never invalidates a neighbour's line.
#[repr(align(64))]
pub(crate) struct SleepCell {
    state: AtomicU32,
    thread: OnceLock<std::thread::Thread>,
}

impl SleepCell {
    fn new() -> SleepCell {
        SleepCell {
            state: AtomicU32::new(SLEEP_AWAKE),
            thread: OnceLock::new(),
        }
    }
}

/// Per-worker shared state, cache-line-aligned as a false-sharing
/// audit measure: thieves read `stealer`, heartbeat sources write `hb`,
/// and wakers write `sleep` — `repr(align(64))` on the struct plus the
/// aligned `SleepCell` keep one worker's hot words from sharing a line
/// with its neighbour's in the `Vec<WorkerShared>`.
#[repr(align(64))]
pub(crate) struct WorkerShared {
    pub stealer: Stealer<Job>,
    pub hb: HeartbeatCell,
    pub(crate) sleep: SleepCell,
}

pub(crate) struct Shared {
    pub workers: Vec<WorkerShared>,
    /// External-submission queue: one push per [`Runtime::run`], so it
    /// is locked; an idle `find_job` probes it empty with one load.
    pub injector: Injector<Job>,
    /// Number of workers currently registered as parked (or about to
    /// park). Padded: it sits on the producer's `notify` fast path.
    pub(crate) n_sleeping: CachePadded<AtomicU64>,
    pub shutdown: AtomicBool,
    pub counters: Counters,
    /// The *effective* delivery source: a requested `TimerSignal` that
    /// the platform probe rejects resolves to `PingThread` here, at
    /// construction, so every later poll-site match sees the truth.
    pub source: HeartbeatSource,
    pub interval_ticks: u64,
    /// ♥ as wall time (the per-worker interval timers are programmed in
    /// nanoseconds, not ticks).
    pub heartbeat: Duration,
    /// The effective promotion rule ([`RtConfig::suppress_promotions`]
    /// maps to [`Promotion::Never`] at construction).
    pub promotion: Promotion,
    pub poll_stride: usize,
    /// See [`RtConfig::poll_adaptive`].
    pub poll_adaptive: bool,
    /// [`POLL_SUBSAMPLE`], or 0 under `eager`, so that a non-zero
    /// `poll_skip` always means "no beat, no promotion".
    pub poll_subsample: u32,
    /// Sweep salt drawn by thieves, one per round; padded because
    /// concurrent thieves hammer it while stealing.
    pub rng_salt: CachePadded<AtomicU64>,
    /// Structured event recording (None unless [`RtConfig::trace`]).
    pub tracer: Option<SharedTracer>,
    /// Timestamp origin for trace event times.
    pub start_ticks: u64,
}

impl Shared {
    /// Wakes one parked worker after publishing work — the eventcount
    /// notify side. The fast path (no one parked, i.e. every push while
    /// the pool is busy) is one fence plus one relaxed load: no lock,
    /// no CAS, no syscall.
    ///
    /// The `SeqCst` fence pairs with the sleeper's `SeqCst` registration
    /// in `idle_wait`: either this load observes the sleeper count (and
    /// we unpark someone), or the sleeper's registration ordered after
    /// our fence — in which case its pre-park recheck observes the work
    /// we published before calling `notify`. No lost wakeups either way.
    #[inline]
    pub(crate) fn notify(&self) {
        fence(Ordering::SeqCst);
        if self.n_sleeping.0.load(Ordering::Relaxed) == 0 {
            return;
        }
        self.notify_slow();
    }

    /// The slow path: claim one parked worker (PARKED→NOTIFIED) and
    /// unpark it. Scanning is bounded by the worker count and runs only
    /// while some worker is actually asleep.
    #[cold]
    fn notify_slow(&self) {
        for w in &self.workers {
            if w.sleep
                .state
                .compare_exchange(
                    SLEEP_PARKED,
                    SLEEP_NOTIFIED,
                    Ordering::AcqRel,
                    Ordering::Relaxed,
                )
                .is_ok()
            {
                if let Some(t) = w.sleep.thread.get() {
                    t.unpark();
                }
                return;
            }
        }
    }

    /// Wakes every worker (shutdown).
    fn wake_all(&self) {
        for w in &self.workers {
            if let Some(t) = w.sleep.thread.get() {
                t.unpark();
            }
        }
    }

    /// Whether any queued work is currently visible: a non-empty
    /// injector or a non-empty worker deque. Used as the sleeper's
    /// pre-park recheck; spurious `true` costs one extra `find_job`
    /// sweep, spurious `false` cannot happen for work published before
    /// the sleeper registered (see `notify`).
    fn has_visible_work(&self) -> bool {
        !self.injector.is_empty() || self.workers.iter().any(|w| !w.stealer.is_empty())
    }

    /// Records one instant event on `worker`'s track, timestamped in
    /// ticks since runtime start. One `None` check when tracing is off.
    #[inline]
    pub(crate) fn trace_event(&self, worker: usize, kind: EventKind) {
        if let Some(t) = &self.tracer {
            t.record(
                worker,
                now_ticks().saturating_sub(self.start_ticks),
                0,
                kind,
            );
        }
    }
}

thread_local! {
    /// The deque owner handle of the current worker thread (set once at
    /// worker start; `None` on external threads).
    static LOCAL_DEQUE: RefCell<Option<Worker<Job>>> = const { RefCell::new(None) };
}

/// Adaptive loop-pacing state: the current block length and the
/// timestamp of the previous block boundary. `WorkerCtx::pacer` holds
/// the state the next loop to start will adopt; a running loop keeps
/// its own on its stack (see `reduce_blocks`).
#[derive(Clone, Copy)]
pub(crate) struct Pacer {
    /// Iterations per poll block, within
    /// `[poll_stride, MAX_ADAPTIVE_STRIDE]`.
    pub stride: usize,
    /// `now_ticks()` at the previous paced poll (0 = not yet stamped).
    pub last: u64,
    /// Whether this is the state a loop hands the loops its body
    /// starts, rather than the worker's own.
    pub nested: bool,
}

/// A mark of the promotion-ready mark list (Appendix B.2), type-erased:
/// a frame on this worker's stack — a `join2`'s latent branch, a loop's
/// unstarted iterations — and how to reify it as a task on this
/// worker's deque; `promote` returns `false` if nothing is left.
#[derive(Clone, Copy)]
pub(crate) struct LatentSlot {
    pub data: *const (),
    pub promote: unsafe fn(*const (), &WorkerCtx<'_>) -> bool,
}

/// The per-worker execution context handed to all parallel constructs.
///
/// A `WorkerCtx` identifies the worker a computation is currently running
/// on; it is `!Send` by construction (obtained only inside
/// [`Runtime::run`] closures and task bodies).
pub struct WorkerCtx<'a> {
    pub(crate) shared: &'a Shared,
    pub(crate) id: usize,
    /// The promotion-ready mark list: oldest first.
    pub(crate) latent: RefCell<Vec<LatentSlot>>,
    /// Local-timer poll subsampling: remaining polls to skip before the
    /// next timestamp read (keeps the per-iteration cost to a counter
    /// decrement; granularity stays far below ♥).
    pub(crate) poll_skip: std::cell::Cell<u32>,
    /// The pacing state the next loop to start adopts (see [`Pacer`]).
    pub(crate) pacer: std::cell::Cell<Pacer>,
    _not_send: std::marker::PhantomData<*mut ()>,
}

impl<'a> WorkerCtx<'a> {
    fn new(shared: &'a Shared, id: usize) -> Self {
        WorkerCtx {
            shared,
            id,
            latent: RefCell::new(Vec::new()),
            poll_skip: std::cell::Cell::new(0),
            pacer: std::cell::Cell::new(Pacer {
                stride: shared.poll_stride,
                last: 0,
                nested: false,
            }),
            _not_send: std::marker::PhantomData,
        }
    }

    /// The worker's index.
    pub fn worker_id(&self) -> usize {
        self.id
    }

    /// Pushes a job on this worker's deque and wakes a thief.
    pub(crate) fn push_job(&self, job: Job) {
        LOCAL_DEQUE.with(|d| {
            d.borrow()
                .as_ref()
                .expect("push_job outside a worker thread")
                .push(job)
        });
        self.shared.notify();
    }

    /// Pops from the local deque, the injector, or a victim.
    pub(crate) fn find_job(&self) -> Option<Job> {
        if let Some(job) = LOCAL_DEQUE.with(|d| d.borrow().as_ref().and_then(|w| w.pop())) {
            return Some(job);
        }
        if let Some(job) = self.shared.injector.pop() {
            return Some(job);
        }
        let n = self.shared.workers.len();
        if n > 1 {
            // A fresh sweep salt per round keeps concurrent thieves
            // spread over victims.
            let salt = self.shared.rng_salt.0.fetch_add(1, Ordering::Relaxed);
            for v in victim_sequence(self.id, n, salt as usize) {
                loop {
                    match self.shared.workers[v].stealer.steal() {
                        Steal::Success(job) => {
                            self.shared
                                .counters
                                .shard(self.id)
                                .steals
                                .fetch_add(1, Ordering::Relaxed);
                            self.shared
                                .trace_event(self.id, EventKind::Steal { victim: v as u32 });
                            return Some(job);
                        }
                        Steal::Retry => continue,
                        Steal::Empty => break,
                    }
                }
            }
        }
        None
    }

    /// Asks the promotion rule whether this poll point — which observed
    /// a due heartbeat iff `beat` — should attempt a promotion now.
    #[inline]
    pub(crate) fn attempt_promotion(&self, beat: bool) -> bool {
        self.shared.promotion.should_attempt(beat)
    }

    /// Runs queued work until `done` holds (a helping join: never
    /// blocks the worker).
    pub(crate) fn help_until(&self, done: impl Fn() -> bool) {
        while !done() {
            match self.find_job() {
                Some(job) => job.run(self),
                None => std::thread::yield_now(),
            }
        }
    }
}

/// The TPAL heartbeat runtime: a worker pool plus a heartbeat source.
pub struct Runtime {
    shared: Arc<Shared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    ping: Option<std::thread::JoinHandle<()>>,
}

impl Runtime {
    /// Creates the runtime, spawning its workers (and the ping thread,
    /// under [`HeartbeatSource::PingThread`]).
    pub fn new(config: RtConfig) -> Runtime {
        // Calibration is cached process-wide (a OnceLock): only the
        // first Runtime ever constructed pays the 5ms calibration sleep.
        let interval_ticks = (config.heartbeat.as_nanos() as u64).max(1) * ticks_per_us() / 1_000;
        let mut owners = Vec::new();
        let mut workers = Vec::new();
        for _ in 0..config.workers {
            let (w, s) = deque::<Job>();
            owners.push(w);
            workers.push(WorkerShared {
                stealer: s,
                hb: HeartbeatCell::new(),
                sleep: SleepCell::new(),
            });
        }
        // Resolve the delivery source against the platform: a requested
        // `TimerSignal` that the probe rejects (non-Linux, seccomp, …)
        // falls back to `PingThread` — the portable mechanism with the
        // same flag-consumption semantics (documented in `signal.rs`).
        let source = match config.source {
            HeartbeatSource::TimerSignal if !crate::signal::supported() => {
                HeartbeatSource::PingThread
            }
            s => s,
        };
        // The effective rule: `suppress_promotions` is a hard override
        // (the serial-by-default measurement mode) over whatever the
        // config asked for.
        let promotion = if config.suppress_promotions {
            Promotion::Never
        } else {
            config.promotion
        };
        let shared = Arc::new(Shared {
            workers,
            injector: Injector::new(),
            n_sleeping: CachePadded(AtomicU64::new(0)),
            shutdown: AtomicBool::new(false),
            counters: Counters::new(config.workers),
            source,
            interval_ticks: interval_ticks.max(1),
            heartbeat: config.heartbeat,
            promotion,
            poll_stride: config.poll_stride.max(1),
            poll_adaptive: config.poll_adaptive,
            poll_subsample: match promotion {
                Promotion::Eager => 0,
                _ => POLL_SUBSAMPLE,
            },
            rng_salt: CachePadded(AtomicU64::new(0x9E3779B9)),
            tracer: config.trace.then(|| {
                SharedTracer::new(config.workers, "ticks", interval_ticks.max(1))
                    .policy(promotion.label(Domain::Rt))
                    .source(source.label())
            }),
            start_ticks: now_ticks(),
        });

        let mut handles = Vec::new();
        for (id, owner) in owners.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("tpal-worker-{id}"))
                    .spawn(move || worker_main(shared, id, owner))
                    .expect("spawn worker"),
            );
        }

        let ping = match source {
            HeartbeatSource::PingThread => {
                let shared = Arc::clone(&shared);
                let interval = config.heartbeat;
                Some(
                    std::thread::Builder::new()
                        .name("tpal-ping".to_owned())
                        .spawn(move || ping_main(shared, interval))
                        .expect("spawn ping thread"),
                )
            }
            _ => None,
        };

        Runtime {
            shared,
            handles,
            ping,
        }
    }

    /// Runs `f` on a worker and returns its result, blocking the calling
    /// thread until completion (an atomic latch plus `park`; the closure
    /// and its result cross threads in two once-per-run locks).
    pub fn run<F, T>(&self, f: F) -> T
    where
        F: FnOnce(&WorkerCtx<'_>) -> T + Send,
        T: Send,
    {
        struct Root<F, T> {
            f: Mutex<Option<F>>,
            result: Mutex<Option<T>>,
            latch: ResultLatch,
        }
        let root = Root {
            f: Mutex::new(Some(f)),
            result: Mutex::new(None),
            latch: ResultLatch::new(),
        };

        unsafe fn exec<F, T>(data: *mut (), ctx: &WorkerCtx<'_>)
        where
            F: FnOnce(&WorkerCtx<'_>) -> T + Send,
            T: Send,
        {
            // SAFETY: `run` keeps `root` alive until the latch releases.
            let root = unsafe { &*(data as *const Root<F, T>) };
            let f = root.f.lock().expect("root closure lock poisoned").take();
            let t = f.expect("root job ran twice")(ctx);
            *root.result.lock().expect("root result lock poisoned") = Some(t);
            root.latch.set();
        }

        // SAFETY: `root` outlives the job (we block below until the
        // result is published).
        let job = unsafe { Job::new(&root as *const Root<F, T> as *mut (), exec::<F, T>) };
        self.shared.injector.push(job);
        self.shared.notify();

        root.latch.wait();
        let result = root.result.into_inner().expect("root result lock poisoned");
        result.expect("result published")
    }

    /// A snapshot of the runtime's instrumentation counters (the
    /// aggregate over every worker's shard).
    pub fn stats(&self) -> RtStats {
        let delivered: u64 = self
            .shared
            .workers
            .iter()
            .map(|w| w.hb.delivered.load(Ordering::Relaxed))
            .sum();
        self.shared.counters.snapshot(delivered)
    }

    /// Per-worker snapshots of the sharded counters (index = worker id).
    /// The field-wise sums equal [`Runtime::stats`] — counters are
    /// sharded for scalability, not resampled.
    pub fn per_worker_stats(&self) -> Vec<RtStats> {
        let delivered: Vec<u64> = self
            .shared
            .workers
            .iter()
            .map(|w| w.hb.delivered.load(Ordering::Relaxed))
            .collect();
        self.shared.counters.per_worker(&delivered)
    }

    /// Resets the instrumentation counters (between benchmark trials).
    ///
    /// Covers both the shared counters and each worker's per-cell
    /// delivery count — delivery lives on the cells, and a reset that
    /// misses them leaves every later [`Runtime::stats`] snapshot with a
    /// cumulative `heartbeats_delivered` against freshly zeroed serviced
    /// counts (the `stats_reset_isolates_trials` regression test).
    pub fn reset_stats(&self) {
        self.shared.counters.reset();
        for w in &self.shared.workers {
            w.hb.reset_delivery();
        }
    }

    /// Collects and drains the structured event trace. `None` unless the
    /// runtime was built with [`RtConfig::trace`]. Call after `run`
    /// returns: events from still-running jobs may otherwise land in
    /// either this collection or the next.
    pub fn take_trace(&self) -> Option<Trace> {
        self.shared.tracer.as_ref().map(SharedTracer::collect)
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.shared.workers.len()
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wake_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        if let Some(p) = self.ping.take() {
            let _ = p.join();
        }
    }
}

/// Consecutive empty `find_job` rounds spent busy-spinning (with
/// exponentially growing spin batches) before escalating to yields.
const IDLE_SPIN_ROUNDS: u32 = 6;
/// Further rounds spent yielding the CPU before parking.
const IDLE_YIELD_ROUNDS: u32 = 4;

/// One step of the idle protocol: bounded spin with exponential backoff,
/// then yields, then an eventcount park. Returns the updated round
/// counter (reset by the caller when work is found).
///
/// The park leg is the sleeper side of the eventcount: publish PARKED,
/// bump the sleeper count (both `SeqCst`, pairing with `notify`'s
/// fence), then re-check for work that may have been pushed before we
/// registered — only park if the world is still empty. `park_timeout`
/// (rather than `park`) keeps the pool self-healing against any missed
/// edge (and bounds shutdown latency), but wakeups are normally
/// edge-triggered by `notify`.
fn idle_wait(shared: &Shared, id: usize, rounds: u32) -> u32 {
    if rounds < IDLE_SPIN_ROUNDS {
        for _ in 0..(1u32 << rounds) {
            std::hint::spin_loop();
        }
    } else if rounds < IDLE_SPIN_ROUNDS + IDLE_YIELD_ROUNDS {
        std::thread::yield_now();
    } else {
        let cell = &shared.workers[id].sleep;
        cell.state.store(SLEEP_PARKED, Ordering::SeqCst);
        shared.n_sleeping.0.fetch_add(1, Ordering::SeqCst);
        if !shared.shutdown.load(Ordering::Acquire) && !shared.has_visible_work() {
            std::thread::park_timeout(Duration::from_micros(200));
        }
        shared.n_sleeping.0.fetch_sub(1, Ordering::SeqCst);
        // Overwriting a NOTIFIED claim is fine: we are awake and about
        // to sweep for work; at worst a stashed unpark token makes one
        // future park return early.
        cell.state.store(SLEEP_AWAKE, Ordering::Release);
        return rounds;
    }
    rounds + 1
}

fn worker_main(shared: Arc<Shared>, id: usize, owner: Worker<Job>) {
    LOCAL_DEQUE.with(|d| *d.borrow_mut() = Some(owner));
    let ctx = WorkerCtx::new(&shared, id);
    shared.workers[id]
        .sleep
        .thread
        .set(std::thread::current())
        .expect("worker sleep cell initialised once");
    shared.workers[id]
        .hb
        .arm(shared.interval_ticks, now_ticks());
    // Under `TimerSignal`, this worker owns a kernel interval timer that
    // signals this thread every ♥; the RAII guard disarms it before the
    // thread exits (the cell it targets lives in `shared`, which this
    // frame's Arc keeps alive past the guard's drop). `Runtime::new`
    // already resolved unsupported platforms to `PingThread`, so a
    // `None` here (a per-thread failure, e.g. timer exhaustion) leaves
    // just this worker beat-less — correct but unpromoting, a
    // `Disabled` source confined to one worker.
    let _timer = match shared.source {
        HeartbeatSource::TimerSignal => {
            crate::signal::WorkerTimer::install(&shared.workers[id].hb, shared.heartbeat)
        }
        _ => None,
    };

    let mut idle_rounds = 0u32;
    while !shared.shutdown.load(Ordering::Acquire) {
        match ctx.find_job() {
            Some(job) => {
                idle_rounds = 0;
                job.run(&ctx);
            }
            None => idle_rounds = idle_wait(&shared, id, idle_rounds),
        }
    }
    LOCAL_DEQUE.with(|d| *d.borrow_mut() = None);
}

/// Upper bound on one uninterruptible sleep slice of the ping thread.
/// Sleeping a whole ♥ between shutdown checks would make
/// `Runtime::drop` block for up to one full heartbeat period — with a
/// large ♥ (a server building and dropping runtimes per tenant config)
/// that is seconds, not milliseconds. Sub-♥ intervals still sleep their
/// exact duration, so delivery timing below this bound is unchanged.
const PING_SHUTDOWN_POLL: Duration = Duration::from_millis(1);

fn ping_main(shared: Arc<Shared>, interval: Duration) {
    // The Linux INT-PingThread mechanism: wake every ♥ and deliver a
    // signal to each worker in turn (linear delivery; jitter comes from
    // sleep granularity, exactly the effect §4.4 measures).
    'deliver: while !shared.shutdown.load(Ordering::Acquire) {
        // Sleep ♥ in bounded sub-slices so a shutdown raised mid-sleep
        // is observed within PING_SHUTDOWN_POLL, independent of ♥.
        let mut remaining = interval;
        while remaining > Duration::ZERO {
            let slice = remaining.min(PING_SHUTDOWN_POLL);
            std::thread::sleep(slice);
            if shared.shutdown.load(Ordering::Acquire) {
                break 'deliver;
            }
            remaining = remaining.saturating_sub(slice);
        }
        for (i, w) in shared.workers.iter().enumerate() {
            w.hb.raise();
            shared.trace_event(i, EventKind::HeartbeatDelivered);
        }
    }
}

// The victim-order and heartbeat-cell unit tests live with the logic in
// `tpal-sched` (plus a proptest over arbitrary pool shapes there).
