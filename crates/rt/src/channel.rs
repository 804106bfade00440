//! Bounded FIFO channels and the cooperative executor that runs
//! native pipeline stages.
//!
//! The native analogue of the ISA's `chmake`/`chpush`/`chpop`/`chclose`
//! (see `tpal_core::isa::Instr`): a bounded queue of `i64` items
//! between pipeline stages. A stage is a future; [`run_stages`] polls
//! every stage of one pipeline on the calling worker, the way the
//! single-worker machine interleaves detached tasks through its
//! park/wake path. A full `push` or an empty `pop` is `Pending`, not a
//! parked thread, so a pipeline costs no OS thread per stage and a
//! stage that can never proceed is reported as [`Deadlock`] instead of
//! hanging.
//!
//! Parallelism stays where the heartbeat puts it: a latent loop
//! *inside* a stage (`WorkerCtx::reduce`) still promotes onto the pool.
//! A stage itself never becomes a pool job — a [`Channel`] is not
//! `Sync`, so a future that holds one across an `.await` is not `Send`,
//! and neither a pool job nor another thread can take it.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::{poll_fn, Future};
use std::pin::Pin;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

/// Error returned by a push on a closed channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Closed;

/// Error returned by [`run_stages`] when no stage is ready but some
/// have not finished: each waits on a channel that no other stage will
/// push, pop or close.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadlock;

/// A bounded FIFO channel of `i64` items, shared by the stages of one
/// [`run_stages`] call.
pub struct Channel {
    cap: usize,
    items: RefCell<VecDeque<i64>>,
    closed: Cell<bool>,
    /// Stages pending on this channel, each woken by the next push, pop
    /// or close (all of them: with several producers or consumers, any
    /// of them may be the one that can proceed).
    waiting: RefCell<Vec<Waker>>,
}

impl Channel {
    /// A channel holding at most `cap` items (`cap ≥ 1`).
    ///
    /// # Panics
    ///
    /// If `cap` is zero (the ISA faults on `chmake 0` for the same
    /// reason: a zero-capacity bounded FIFO can never move an item).
    pub fn with_capacity(cap: usize) -> Channel {
        assert!(cap >= 1, "channel capacity must be at least 1");
        Channel {
            cap,
            items: RefCell::new(VecDeque::with_capacity(cap)),
            closed: Cell::new(false),
            waiting: RefCell::new(Vec::new()),
        }
    }

    // `push` and `pop` return their `poll_fn` directly instead of
    // wrapping it in an `async fn`: one state machine fewer per item,
    // about a quarter of `pipeline-tokens`' time per token.

    /// Appends `v`, pending while the channel is full.
    ///
    /// # Errors
    ///
    /// [`Closed`] if the channel is closed before the item is appended.
    pub fn push(&self, v: i64) -> impl Future<Output = Result<(), Closed>> + '_ {
        poll_fn(move |cx| {
            if self.closed.get() {
                return Poll::Ready(Err(Closed));
            }
            let mut items = self.items.borrow_mut();
            if items.len() == self.cap {
                self.wait(cx);
                return Poll::Pending;
            }
            items.push_back(v);
            self.wake_all();
            Poll::Ready(Ok(()))
        })
    }

    /// Removes the oldest item, pending while the channel is empty and
    /// open. Returns `None` once the channel is closed **and** drained
    /// (items pushed before the close are still delivered, exactly like
    /// the ISA's `chpop`).
    pub fn pop(&self) -> impl Future<Output = Option<i64>> + '_ {
        poll_fn(|cx| {
            if let Some(v) = self.items.borrow_mut().pop_front() {
                self.wake_all();
                return Poll::Ready(Some(v));
            }
            if self.closed.get() {
                return Poll::Ready(None);
            }
            self.wait(cx);
            Poll::Pending
        })
    }

    /// Closes the channel (idempotent): pending items remain poppable,
    /// pending and later pushes fail with [`Closed`].
    pub fn close(&self) {
        self.closed.set(true);
        self.wake_all();
    }

    fn wait(&self, cx: &Context<'_>) {
        let mut waiting = self.waiting.borrow_mut();
        if !waiting.iter().any(|w| w.will_wake(cx.waker())) {
            waiting.push(cx.waker().clone());
        }
    }

    fn wake_all(&self) {
        let mut waiting = self.waiting.borrow_mut();
        if !waiting.is_empty() {
            waiting.drain(..).for_each(Waker::wake);
        }
    }
}

/// One detached stage of a pipeline, as [`run_stages`] takes it.
pub type Stage<'a> = Pin<Box<dyn Future<Output = ()> + 'a>>;

/// Wakes one stage by setting its bit in the executor's ready set.
struct StageWaker {
    ready: Arc<AtomicU64>,
    bit: u64,
}

impl Wake for StageWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        // Release pairs with the executor's Acquire swap: what the
        // waking stage wrote is visible to the stage it wakes.
        self.ready.fetch_or(self.bit, Ordering::Release);
    }
}

/// Runs `sink` and the detached `stages` of one pipeline to completion
/// on the calling thread and returns the sink's output.
///
/// Every ready stage is polled in turn until all have finished; a
/// stage is ready again once a channel it waits on is pushed, popped or
/// closed. Stages wait only on each other: a stage woken from outside
/// this call is not waited for.
///
/// ```
/// use tpal_rt::{run_stages, Channel, RtConfig, Runtime};
///
/// let rt = Runtime::new(RtConfig::default().workers(2));
/// let total = rt.run(|ctx| {
///     let ch = Channel::with_capacity(64);
///     let feed = async {
///         for n in 1..=1_000i64 {
///             ch.push(n).await.expect("open");
///         }
///         ch.close();
///     };
///     let sink = async {
///         let mut total = 0i64;
///         while let Some(n) = ch.pop().await {
///             // A latent loop inside a stage still promotes onto the pool.
///             total += ctx.reduce(0..n as usize, 0i64, |_, i, acc| acc + i as i64, |a, b| a + b);
///         }
///         total
///     };
///     run_stages(sink, vec![Box::pin(feed)]).expect("the feeder closes the channel")
/// });
/// assert_eq!(total, (1..=1_000i64).map(|n| n * (n - 1) / 2).sum::<i64>());
/// ```
///
/// A stage never leaves the thread that runs it: a future that holds a
/// [`Channel`] across an `.await` is not `Send`, so it cannot become a
/// pool job or move to another thread, where a stage blocked beneath
/// its partner could deadlock the pipeline.
///
/// ```compile_fail
/// use tpal_rt::Channel;
///
/// let ch = Channel::with_capacity(1);
/// let stage = async move { ch.push(1).await };
/// std::thread::spawn(move || stage);
/// ```
///
/// # Errors
///
/// [`Deadlock`] when no stage is ready but some have not finished.
///
/// # Panics
///
/// If there are more than 63 stages besides the sink.
pub fn run_stages<'a, R>(
    sink: impl Future<Output = R> + 'a,
    stages: Vec<Stage<'a>>,
) -> Result<R, Deadlock> {
    assert!(stages.len() < 64, "at most 63 stages besides the sink");
    let out = Cell::new(None);
    let mut tasks: Vec<Option<Stage<'_>>> = stages.into_iter().map(Some).collect();
    tasks.push(Some(Box::pin(async { out.set(Some(sink.await)) })));
    let ready = Arc::new(AtomicU64::new(u64::MAX >> (64 - tasks.len())));
    let wakers: Vec<Waker> = (0..tasks.len())
        .map(|i| {
            let ready = Arc::clone(&ready);
            Waker::from(Arc::new(StageWaker { ready, bit: 1 << i }))
        })
        .collect();
    let mut unfinished = tasks.len();
    while unfinished > 0 {
        let mut set = ready.swap(0, Ordering::Acquire);
        if set == 0 {
            return Err(Deadlock);
        }
        while set != 0 {
            let i = set.trailing_zeros() as usize;
            set &= set - 1;
            let Some(task) = &mut tasks[i] else { continue };
            if task
                .as_mut()
                .poll(&mut Context::from_waker(&wakers[i]))
                .is_ready()
            {
                tasks[i] = None;
                unfinished -= 1;
            }
        }
    }
    Ok(out.take().expect("the sink finished"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs one future with no partner stages.
    fn run<R>(f: impl Future<Output = R>) -> Result<R, Deadlock> {
        run_stages(f, Vec::new())
    }

    #[test]
    fn fifo_order_and_capacity() {
        let ch = Channel::with_capacity(3);
        let out = run(async {
            for v in 1..=3 {
                ch.push(v).await.unwrap();
            }
            let first = ch.pop().await;
            ch.push(4).await.unwrap();
            let mut rest = Vec::new();
            for _ in 0..3 {
                rest.push(ch.pop().await.unwrap());
            }
            (first, rest)
        });
        assert_eq!(out, Ok((Some(1), vec![2, 3, 4])));
        // A push into a full channel pends, and with nobody to pop it
        // the pipeline is a deadlock, not a hang.
        let full = Channel::with_capacity(1);
        assert_eq!(
            run(async {
                full.push(1).await.unwrap();
                full.push(2).await.unwrap();
            }),
            Err(Deadlock)
        );
    }

    #[test]
    fn close_semantics_drain_then_fail() {
        let ch = Channel::with_capacity(4);
        let out = run(async {
            ch.push(7).await.unwrap();
            ch.push(8).await.unwrap();
            ch.close();
            let refused = ch.push(9).await;
            let drained = [ch.pop().await, ch.pop().await, ch.pop().await];
            ch.close(); // idempotent
            (refused, drained, ch.pop().await)
        });
        assert_eq!(out, Ok((Err(Closed), [Some(7), Some(8), None], None)));
    }

    #[test]
    fn a_pop_nobody_feeds_is_a_deadlock() {
        let ch = Channel::with_capacity(1);
        assert_eq!(run(ch.pop()), Err(Deadlock));
        // The same with a partner stage that finishes without closing.
        let idle = async {
            ch.push(1).await.unwrap();
        };
        let sink = async { (ch.pop().await, ch.pop().await) };
        assert_eq!(run_stages(sink, vec![Box::pin(idle)]), Err(Deadlock));
    }

    #[test]
    fn cap_two_pipeline_pends_in_both_directions() {
        // A tiny channel makes the producer pend on full and the
        // consumer on empty; FIFO order end-to-end.
        let ch = Channel::with_capacity(2);
        let n = 10_000i64;
        let producer = async {
            for i in 0..n {
                ch.push(i).await.expect("channel open while producing");
            }
            ch.close();
        };
        let consumer = async {
            let mut expected = 0i64;
            while let Some(v) = ch.pop().await {
                assert_eq!(v, expected, "FIFO order");
                expected += 1;
            }
            expected
        };
        assert_eq!(run_stages(consumer, vec![Box::pin(producer)]), Ok(n));
        assert_eq!(run(ch.pop()), Ok(None), "closed stays closed");
    }

    #[test]
    fn mpmc_no_lost_or_duplicated_items() {
        // 2 producers × 2 consumers over a small channel: every pushed
        // item arrives exactly once (sum check over distinct values).
        // Both consumers pend on the same empty channel, so a push must
        // wake every waiter, not only the last to register.
        let ch = Channel::with_capacity(4);
        let per = 5_000i64;
        let (sum, count) = (Cell::new(0i64), Cell::new(0i64));
        let live_producers = Cell::new(2);
        let producer = |p: i64| {
            let (ch, live_producers) = (&ch, &live_producers);
            async move {
                for i in 0..per {
                    ch.push(p * per + i).await.expect("open");
                }
                live_producers.set(live_producers.get() - 1);
                if live_producers.get() == 0 {
                    ch.close();
                }
            }
        };
        let consumer = || async {
            while let Some(v) = ch.pop().await {
                sum.set(sum.get() + v);
                count.set(count.get() + 1);
            }
        };
        let stages: Vec<Stage<'_>> = vec![
            Box::pin(consumer()),
            Box::pin(consumer()),
            Box::pin(producer(0)),
            Box::pin(producer(1)),
        ];
        assert_eq!(run_stages(async {}, stages), Ok(()));
        assert_eq!(count.get(), 2 * per);
        assert_eq!(sum.get(), (0..2 * per).sum::<i64>());
    }

    #[test]
    fn zero_capacity_rejected() {
        assert!(std::panic::catch_unwind(|| Channel::with_capacity(0)).is_err());
    }
}
