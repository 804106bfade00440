//! The heartbeat parallel constructs: latent fork-join and latent loops.
//!
//! Both constructs are *serial by default*: `join2` runs two closures
//! back to back and `reduce`/`parallel_for` run an ordinary sequential
//! loop. Each puts a mark on the worker's promotion-ready mark list (a
//! fork its latent branch, a loop the iterations it has not started) and
//! polls the heartbeat at its promotion-ready points (the fork point;
//! every loop block). A due beat promotes the **oldest** mark that has
//! anything left (outermost first, Appendix B.2): a latent fork becomes
//! a task, a loop hands off the upper half of its unstarted iterations
//! (Figure 2). So in the sparse matrix–vector nest of §2.3 a beat inside
//! a row's reduction splits the *row loop*, and the row itself only once
//! no two rows are left. Exactly one task is created per beat, so
//! task-creation cost is amortised against ♥ of useful work.

use std::cell::{Cell, UnsafeCell};
use std::ops::Range;
use std::sync::atomic::Ordering;
use std::sync::Mutex;

use tpal_trace::EventKind;

use crate::job::latent_state::{CLAIMED, DONE, LATENT, PROMOTED};
use crate::job::{CountLatch, Job, LatentState};
use crate::pool::{LatentSlot, Pacer, Shared, WorkerCtx};
use crate::HeartbeatSource;

/// Upper bound on the adaptive loop-block length: generous enough that
/// per-block poll overhead vanishes into any real body, small enough
/// that a pacing pathology can never swallow a whole input range.
const MAX_ADAPTIVE_STRIDE: usize = 1 << 16;

/// Poll blocks the pacer aims to fit in each ♥: block wall time targets
/// ~♥/8, bounding beat-detection latency (and eager-split granularity)
/// to a small fraction of the heartbeat either way.
const PACER_BLOCKS_PER_BEAT: u64 = 8;

/// The frame a fork shares with the job that may run its second branch
/// elsewhere: the branch while latent or queued, then its result.
struct Fork<B, RB> {
    state: LatentState,
    b: UnsafeCell<Option<B>>,
    result: UnsafeCell<Option<RB>>,
}

impl<B, RB> Fork<B, RB>
where
    B: FnOnce(&WorkerCtx<'_>) -> RB + Send,
    RB: Send,
{
    fn new(b: B) -> Self {
        Fork {
            state: LatentState::new(),
            b: UnsafeCell::new(Some(b)),
            result: UnsafeCell::new(None),
        }
    }

    /// Takes the branch, for whoever took `state` out of LATENT.
    fn take_b(&self) -> B {
        // SAFETY: exactly one claim wins, so access is exclusive.
        unsafe { (*self.b.get()).take().expect("fork body taken once") }
    }

    /// The job: runs the branch and publishes its result. `data` must
    /// be a `Fork` that `push` queued.
    unsafe fn exec(data: *mut (), ctx: &WorkerCtx<'_>) {
        // SAFETY: `push`'s frame outlives the job (it `join`s), and the
        // result cell is the job's alone until DONE is published.
        let fork = unsafe { &*(data as *const Self) };
        let rb = fork.take_b()(ctx);
        unsafe { *fork.result.get() = Some(rb) };
        fork.state.set_done();
    }

    /// Queues the branch as a task on `ctx`'s deque, for a caller that
    /// took `state` out of LATENT and will `join`.
    fn push(&self, ctx: &WorkerCtx<'_>) {
        // SAFETY: `join` keeps this frame alive until the job is DONE.
        ctx.push_job(unsafe { Job::new(self as *const Self as *mut (), Self::exec) });
    }

    /// The mark's promotion: claim the latent branch and queue it.
    /// `data` must be a `Fork` whose mark is on the list.
    unsafe fn promote(data: *const (), ctx: &WorkerCtx<'_>) -> bool {
        // SAFETY: a listed mark's join2 frame is live; the CAS
        // arbitrates against the owner's inline claim.
        let fork = unsafe { &*(data as *const Self) };
        let won = fork.state.get() == LATENT && fork.state.claim(PROMOTED);
        if won {
            fork.push(ctx);
        }
        won
    }

    /// Helps the pool until the queued branch has run; its result.
    fn join(&self, ctx: &WorkerCtx<'_>) -> RB {
        ctx.help_until(|| self.state.get() == DONE);
        // SAFETY: DONE (acquire) publishes the result.
        unsafe { (*self.result.get()).take().expect("result published") }
    }
}

impl Pacer {
    /// The length of the next loop-poll block. Fixed at
    /// [`RtConfig::poll_stride`](crate::RtConfig) unless adaptive
    /// pacing is on; adaptive blocks grow and shrink geometrically so
    /// each block costs ~♥/[`PACER_BLOCKS_PER_BEAT`] of *measured* wall
    /// time — cheap vectorisable bodies run blocks of tens of thousands
    /// of iterations, expensive bodies stay at the floor — at one
    /// timestamp read per block boundary.
    #[inline]
    fn next_stride(&mut self, shared: &Shared) -> usize {
        let floor = shared.poll_stride;
        if !shared.poll_adaptive {
            return floor;
        }
        let now = crate::heartbeat::now_ticks();
        let elapsed = now.wrapping_sub(self.last);
        let target = (shared.interval_ticks / PACER_BLOCKS_PER_BEAT).max(1);
        if self.last == 0 || elapsed > target.saturating_mul(8) {
            // First block ever, or a stale stamp (the worker was idle
            // or off running other work since this state's last block):
            // restart from the floor rather than shrinking through it.
            self.stride = floor;
        } else if elapsed < target / 2 {
            // Well under budget: doubling can at most double block time,
            // keeping it under `target` — growth never overshoots by
            // more than 2x of the calibration target.
            self.stride = (self.stride * 2).min(MAX_ADAPTIVE_STRIDE.max(floor));
        } else if elapsed > target {
            self.stride = (self.stride / 2).max(floor);
        }
        self.last = now;
        self.stride
    }
}

impl WorkerCtx<'_> {
    /// The raw source poll plus delivery tracing; `true` when a beat is
    /// due (consumes the beat). Every promotion-point path funnels here.
    #[inline]
    fn poll_source(&self) -> bool {
        let due = self.shared.workers[self.id].hb.poll(
            self.shared.source,
            self.shared.interval_ticks,
            crate::heartbeat::now_ticks,
        );
        // A local-timer beat is *delivered* at the expiry poll itself;
        // a timer-signal beat is recorded at the consuming poll too (the
        // signal handler must stay async-signal-safe, so it cannot
        // trace). Ping deliveries are recorded by the ping thread at
        // raise time, on the receiving worker's track.
        if due && self.shared.source != HeartbeatSource::PingThread {
            self.shared
                .trace_event(self.id, EventKind::HeartbeatDelivered);
        }
        due
    }

    /// Polls the heartbeat source at a fork-point-class promotion point;
    /// `true` when a beat is due on this worker (consumes the beat).
    ///
    /// Local-timer polls are subsampled here: the timestamp counter is
    /// read only every 32nd call (`pool::POLL_SUBSAMPLE` + 1), so the common-case cost of ultra-frequent fork points
    /// is one counter decrement — the polling budget the paper's §6
    /// discussion targets. Flag-based sources (`PingThread`,
    /// `TimerSignal`) are a single relaxed load and never subsample.
    #[inline]
    pub fn heartbeat_due(&self) -> bool {
        if self.shared.source == HeartbeatSource::LocalTimer {
            let skip = self.poll_skip.get();
            if skip > 0 {
                self.poll_skip.set(skip - 1);
                return false;
            }
            self.poll_skip.set(self.shared.poll_subsample);
        }
        self.poll_source()
    }

    /// Promotes the oldest mark that still has something to promote —
    /// the one place a promotion is made and accounted. Returns whether
    /// a task was created.
    fn promote_oldest_latent(&self) -> bool {
        // SAFETY: every slot points into a live frame further up this
        // worker's stack (`pop_mark` runs before the frame dies) and was
        // pushed with the `promote` that matches its `data`.
        let promoted = (self.latent.borrow().iter()).any(|s| unsafe { (s.promote)(s.data, self) });
        if promoted {
            // Counter increments land on this worker's private shard: no
            // shared cache line on the poll/promotion path.
            let c = self.shared.counters.shard(self.id);
            c.promotions.fetch_add(1, Ordering::Relaxed);
            c.tasks_created.fetch_add(1, Ordering::Relaxed);
            self.shared
                .trace_event(self.id, EventKind::TaskPromote { task: 0 });
            self.trace_spawn();
        }
        promoted
    }

    fn trace_spawn(&self) {
        let spawn = EventKind::TaskSpawn {
            parent: 0,
            child: 0,
        };
        self.shared.trace_event(self.id, spawn);
    }

    /// Acts on one poll's outcome: accounts a due beat as serviced, then
    /// lets the promotion rule arbitrate — `heartbeat` promotes once per
    /// beat, `eager` at every poll, `never` not at all (the mechanism
    /// without the promotions).
    fn service(&self, beat: bool) -> bool {
        if beat {
            let c = self.shared.counters.shard(self.id);
            c.heartbeats_serviced.fetch_add(1, Ordering::Relaxed);
            self.shared
                .trace_event(self.id, EventKind::HeartbeatServiced);
        }
        self.attempt_promotion(beat) && self.promote_oldest_latent()
    }

    /// Polls at a promotion-ready point with no block loop of its own (a
    /// fork point, a one-block loop): services a due heartbeat and
    /// promotes the oldest mark if the policy says so; whether it did.
    ///
    /// The no-beat path is the one countdown test: `poll_skip` is only
    /// ever non-zero under the local timer with a policy that promotes
    /// on beats alone (see `Shared::poll_subsample`), where a skipped
    /// clock read means no beat and no beat means no promotion.
    #[inline]
    pub fn poll_promote(&self) -> bool {
        let skip = self.poll_skip.get();
        if skip > 0 {
            self.poll_skip.set(skip - 1);
            return false;
        }
        let beat = self.heartbeat_due();
        self.service(beat)
    }

    /// Removes the newest mark, which must be `data`'s: frames push on
    /// entry and pop before they wait or return, as the stack does.
    fn pop_mark(&self, data: *const ()) {
        let slot = self.latent.borrow_mut().pop();
        let slot = slot.expect("mark list imbalance");
        debug_assert!(
            std::ptr::eq(slot.data, data),
            "mark list imbalance: latent frames must nest"
        );
    }

    /// Latent binary fork-join (the `fork`/`join` interface of Figure 3,
    /// with the serial-by-default semantics of Figures 22/23): runs
    /// `a` immediately; `b` stays latent on the mark list and is
    /// executed inline after `a` unless a heartbeat promoted it to a
    /// task in the meantime.
    pub fn join2<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce(&WorkerCtx<'_>) -> RA,
        B: FnOnce(&WorkerCtx<'_>) -> RB + Send,
        RB: Send,
    {
        let fork = Fork::new(b);
        let data = &fork as *const Fork<B, RB> as *const ();
        let promote = Fork::<B, RB>::promote;
        self.latent.borrow_mut().push(LatentSlot { data, promote });
        // The fork point is itself promotion-ready.
        self.poll_promote();
        let ra = a(self);
        self.pop_mark(data);
        if fork.state.claim(CLAIMED) {
            // Still latent: run b inline — the zero-cost serial path.
            (ra, fork.take_b()(self))
        } else {
            // Promoted: help the pool until the task completes.
            (ra, fork.join(self))
        }
    }

    /// A latent parallel loop with a reduction: `acc = body(ctx, i, acc)`
    /// folded over `range`, partial results combined with the associative
    /// and commutative `merge`. Latent like [`WorkerCtx::reduce_blocks`],
    /// which it wraps: a beat promotes the oldest mark, this loop's
    /// unstarted iterations only if nothing older can be promoted.
    ///
    /// The per-index body is convenient but opaque to the optimiser: an
    /// indexed access like `data[i]` keeps its bounds check (the
    /// runtime's block bounds are not provably within `data`), and the
    /// resulting side exit blocks vectorisation of the block loop. Tight
    /// vectorisable kernels should use [`WorkerCtx::reduce_blocks`] and
    /// iterate a slice of the handed block themselves.
    #[inline]
    pub fn reduce<T, B, M>(&self, range: Range<usize>, identity: T, body: B, merge: M) -> T
    where
        T: Send + Clone,
        B: Fn(&WorkerCtx<'_>, usize, T) -> T + Sync,
        M: Fn(T, T) -> T + Sync,
    {
        let fold = move |ctx: &WorkerCtx<'_>, block: Range<usize>, acc| {
            block.fold(acc, |acc, i| body(ctx, i, acc))
        };
        self.reduce_blocks(range, identity, fold, merge)
    }

    /// A latent parallel loop over *blocks* of iterations: the paper's
    /// outlined-loop-body shape. `body` is handed a whole contiguous
    /// sub-range at a time and folds it serially; promotion-ready points
    /// sit exactly at the block boundaries (the back-edge checks of the
    /// paper's compiled loop bodies), so inside a block the body is
    /// ordinary serial code the compiler can optimise — a slice
    /// iterator over the block vectorises just like the serial loop it
    /// replaces, which per-index [`WorkerCtx::reduce`] cannot achieve.
    ///
    /// While it runs, the loop is a mark holding the iterations no block
    /// has started. A promotion — at this loop's block boundaries or at
    /// any poll below them, an inner loop's included — takes the oldest
    /// mark first: a nest hands off outer iterations before it splits an
    /// inner loop, a loop under a latent `join2` the fork before itself.
    ///
    /// Block lengths are chosen by the runtime (the adaptive pacer, or
    /// the fixed `poll_stride`); the body must therefore be oblivious to
    /// block boundaries: `body(ctx, lo..hi, acc)` must equal folding
    /// `body` over any partition of `lo..hi` in order. Pacing follows
    /// the nest: an un-nested loop calibrates the worker's pacer (shared
    /// with the sibling loops a `join2` recursion runs one after
    /// another); a loop in another loop's body starts from what its
    /// previous sibling there ended on and never touches the parent's.
    #[inline]
    pub fn reduce_blocks<T, B, M>(&self, range: Range<usize>, identity: T, body: B, merge: M) -> T
    where
        T: Send + Clone,
        B: Fn(&WorkerCtx<'_>, Range<usize>, T) -> T + Sync,
        M: Fn(T, T) -> T + Sync,
    {
        // A range of at most one block could never be split between its
        // only two polls: it runs serially, behind one poll for *outer*
        // latent parallelism, and sets up nothing. One block is the floor
        // or, for a nested loop, the stride its siblings just paced (an
        // un-nested loop's stride may be stale).
        let pacer = self.pacer.get();
        if range.len() <= self.shared.poll_stride || (pacer.nested && range.len() <= pacer.stride) {
            self.poll_promote();
            return body(self, range, identity);
        }
        struct Ctl<T, B> {
            pending: CountLatch,
            /// Split-off chunks' results, one push per promotion, in any
            /// order: `merge` is required to be associative and commutative.
            partials: Mutex<Vec<T>>,
            identity: T,
            /// Shared by every chunk, on any worker: `B: Sync`.
            body: *const B,
        }

        /// One chunk of the loop, running or queued: `next..hi` are the
        /// iterations no block has started. A running chunk's frame is
        /// its mark; a split-off chunk travels boxed as its job's payload
        /// and becomes the frame of whoever runs it.
        //
        // SAFETY (what `split` and `run_chunk` rely on):
        // * `next` and `hi` are touched only by the worker running the
        //   chunk: promotion runs at that worker's own poll points —
        //   `run_chunk`'s block boundaries and polls deeper in the same
        //   stack while a block's body runs, including polls by jobs the
        //   worker executes inside a `help_until` there — so `run_chunk`
        //   re-reads both after every poll and every block.
        // * The mark is popped before `run_chunk` returns, hence before
        //   a boxed frame is freed and before `reduce_blocks` waits on
        //   `pending`: no job run while waiting sees this loop's mark.
        // * `split` does `pending.add(1)` before it pushes the job, and
        //   `reduce_blocks` returns only once `pending` clears, so `ctl`
        //   outlives every chunk.
        struct Frame<T, B> {
            ctl: *const Ctl<T, B>,
            next: Cell<usize>,
            hi: Cell<usize>,
        }

        /// A split-off chunk's job; `data` must be the box `split` leaked.
        unsafe fn exec_chunk<T, B>(data: *mut (), ctx: &WorkerCtx<'_>)
        where
            T: Send + Clone,
            B: Fn(&WorkerCtx<'_>, Range<usize>, T) -> T + Sync,
        {
            // SAFETY: boxed for this job alone; for `ctl` see `Frame`.
            let frame = unsafe { Box::from_raw(data as *mut Frame<T, B>) };
            let t = run_chunk(ctx, &frame);
            let ctl = unsafe { &*frame.ctl };
            ctl.partials.lock().expect("partials lock poisoned").push(t);
            ctl.pending.done();
        }

        /// The mark's promotion: hand off the upper half of the
        /// unstarted iterations (Figure 2), if there are two or more.
        /// `data` must be a `Frame` whose mark is on the list.
        unsafe fn split<T, B>(data: *const (), ctx: &WorkerCtx<'_>) -> bool
        where
            T: Send + Clone,
            B: Fn(&WorkerCtx<'_>, Range<usize>, T) -> T + Sync,
        {
            // SAFETY: see `Frame`.
            let frame = unsafe { &*(data as *const Frame<T, B>) };
            let (next, hi) = (frame.next.get(), frame.hi.get());
            if hi - next < 2 {
                return false;
            }
            let mid = next + (hi - next) / 2;
            unsafe { &*frame.ctl }.pending.add(1);
            let chunk = Box::new(Frame {
                ctl: frame.ctl,
                next: Cell::new(mid),
                hi: Cell::new(hi),
            });
            ctx.push_job(unsafe { Job::new(Box::into_raw(chunk) as *mut (), exec_chunk::<T, B>) });
            frame.hi.set(mid);
            true
        }

        fn run_chunk<T, B>(ctx: &WorkerCtx<'_>, frame: &Frame<T, B>) -> T
        where
            T: Send + Clone,
            B: Fn(&WorkerCtx<'_>, Range<usize>, T) -> T + Sync,
        {
            // SAFETY: see `Frame`; `run_loop` borrows `body` for as long.
            let ctl = unsafe { &*frame.ctl };
            let body = unsafe { &*ctl.body };
            let mut acc = ctl.identity.clone();
            // This loop paces itself from the state it finds (the
            // worker's, or under another loop's body its previous
            // sibling's) and gives the loops its own body starts a fresh
            // one: a cheap inner row never calibrates this loop's stride.
            let mut pacer = ctx.pacer.replace(Pacer {
                stride: ctx.shared.poll_stride,
                last: 0,
                nested: true,
            });
            let data = frame as *const Frame<T, B> as *const ();
            let promote = split::<T, B>;
            ctx.latent.borrow_mut().push(LatentSlot { data, promote });
            while frame.next.get() < frame.hi.get() {
                let lo = frame.next.get();
                // Promotion-ready points sit between iteration blocks,
                // not single iterations: blocks stay tight loops the
                // compiler can vectorise, keeping the polling substitute
                // for rollforward within the paper's §6 budget. Paced
                // blocks bound the poll rate themselves (~8 per ♥), so
                // they read the source unsubsampled; fixed-stride mode
                // keeps the subsampled cadence the parity tests pin.
                let stride = pacer.next_stride(ctx.shared);
                let beat = if ctx.shared.poll_adaptive {
                    ctx.poll_source()
                } else {
                    ctx.heartbeat_due()
                };
                ctx.service(beat);
                // The promotion may have been this loop's own.
                let stop = frame.hi.get().min(lo + stride);
                frame.next.set(stop);
                acc = body(ctx, lo..stop, acc);
            }
            ctx.pop_mark(data);
            ctx.pacer.set(pacer);
            acc
        }

        /// The general path, out of line so that the one-block path
        /// above inlines into the caller's row loop.
        #[inline(never)]
        fn run_loop<T, B, M>(
            ctx: &WorkerCtx<'_>,
            range: Range<usize>,
            identity: T,
            body: &B,
            merge: &M,
        ) -> T
        where
            T: Send + Clone,
            B: Fn(&WorkerCtx<'_>, Range<usize>, T) -> T + Sync,
            M: Fn(T, T) -> T + Sync,
        {
            let ctl: Ctl<T, B> = Ctl {
                pending: CountLatch::new(),
                partials: Mutex::new(Vec::new()),
                identity,
                body,
            };
            let root = Frame {
                ctl: &ctl,
                next: Cell::new(range.start),
                hi: Cell::new(range.end),
            };
            let acc = run_chunk(ctx, &root);
            ctx.help_until(|| ctl.pending.is_clear());
            let partials = ctl.partials.into_inner().expect("partials lock poisoned");
            partials.into_iter().fold(acc, merge)
        }

        run_loop(self, range, identity, &body, &merge)
    }

    /// A latent parallel loop without a reduction. The body may freely
    /// write to disjoint shared state (e.g. distinct array elements).
    pub fn parallel_for<B>(&self, range: Range<usize>, body: B)
    where
        B: Fn(&WorkerCtx<'_>, usize) + Sync,
    {
        self.reduce(range, (), |ctx, i, ()| body(ctx, i), |(), ()| ());
    }

    /// *Eager* binary fork-join: `b` is forked as a task immediately
    /// (paying task-creation cost on every call), `a` runs inline, and
    /// the caller helps the pool until `b` completes.
    ///
    /// This is Cilk's execution model — *initial decomposition* — and
    /// exists as the baseline the paper compares heartbeat scheduling
    /// against; the `tpal-cilk` crate builds its API on it. Heartbeat
    /// code should use [`WorkerCtx::join2`] instead.
    pub fn spawn2<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce(&WorkerCtx<'_>) -> RA,
        B: FnOnce(&WorkerCtx<'_>) -> RB + Send,
        RB: Send,
    {
        let fork = Fork::new(b);
        fork.state.claim(PROMOTED);
        let c = self.shared.counters.shard(self.id);
        c.tasks_created.fetch_add(1, Ordering::Relaxed);
        self.trace_spawn();
        fork.push(self);
        let ra = a(self);
        (ra, fork.join(self))
    }

    /// The number of workers in the pool (Cilk's `P` for its `8P` loop
    /// grain heuristic).
    pub fn pool_size(&self) -> usize {
        self.shared.workers.len()
    }
}
