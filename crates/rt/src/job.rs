//! Type-erased jobs and completion latches.
//!
//! Promoted tasks reference state on the promoting worker's stack (the
//! latent closure, the loop body, reducer cells). That is sound because
//! every construct joins — waits for all tasks it published — before its
//! stack frame dies, the same discipline `rayon::scope` relies on. The
//! unsafety is confined to this module and `parallel.rs`.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::pool::WorkerCtx;

/// A type-erased unit of work, executable by any worker.
pub(crate) struct Job {
    data: *mut (),
    exec: unsafe fn(*mut (), &WorkerCtx<'_>),
}

// SAFETY: jobs are only constructed from Sync closures plus atomically
// synchronised result cells, and are executed exactly once.
unsafe impl Send for Job {}

impl Job {
    /// Creates a job from a raw pointer and an exec function.
    ///
    /// # Safety
    ///
    /// `data` must remain valid until the job has executed, and `exec`
    /// must tolerate running on any worker thread.
    pub(crate) unsafe fn new(data: *mut (), exec: unsafe fn(*mut (), &WorkerCtx<'_>)) -> Job {
        Job { data, exec }
    }

    /// Runs the job on the given worker.
    pub(crate) fn run(self, ctx: &WorkerCtx<'_>) {
        // SAFETY: contract established at construction.
        unsafe { (self.exec)(self.data, ctx) }
    }
}

/// A one-shot completion counter: `wait`ers help the pool until the
/// count reaches zero.
#[derive(Debug)]
pub(crate) struct CountLatch {
    pending: AtomicU32,
}

impl CountLatch {
    pub(crate) fn new() -> Self {
        CountLatch {
            pending: AtomicU32::new(0),
        }
    }

    pub(crate) fn add(&self, n: u32) {
        self.pending.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn done(&self) {
        self.pending.fetch_sub(1, Ordering::Release);
    }

    pub(crate) fn is_clear(&self) -> bool {
        self.pending.load(Ordering::Acquire) == 0
    }
}

/// A one-shot completion latch for an external waiter: the submitting
/// thread blocks in [`ResultLatch::wait`] (atomic check + `park`, no
/// mutex or condvar) until a worker calls [`ResultLatch::set`]. Any
/// data the setter published before `set` is visible to the waiter
/// after `wait` returns (release store / acquire load pairing).
///
/// Park/unpark token semantics make the protocol race-free: if `set`
/// runs before the waiter parks, the stashed unpark token makes the
/// next `park` return immediately; spurious park returns re-check the
/// flag.
#[derive(Debug)]
pub(crate) struct ResultLatch {
    done: AtomicU32,
    waiter: std::thread::Thread,
}

impl ResultLatch {
    /// A latch whose waiter is the **current** thread (the only thread
    /// that may call [`ResultLatch::wait`]).
    pub(crate) fn new() -> Self {
        ResultLatch {
            done: AtomicU32::new(0),
            waiter: std::thread::current(),
        }
    }

    /// Releases the latch (callable from any thread, at most once).
    pub(crate) fn set(&self) {
        self.done.store(1, Ordering::Release);
        self.waiter.unpark();
    }

    /// Whether the latch has been released.
    pub(crate) fn is_set(&self) -> bool {
        self.done.load(Ordering::Acquire) == 1
    }

    /// Blocks the constructing thread until the latch is released.
    pub(crate) fn wait(&self) {
        while !self.is_set() {
            std::thread::park();
        }
    }
}

/// States of a latent (mark-list) entry.
pub(crate) mod latent_state {
    /// Still latent: may be promoted or claimed inline.
    pub const LATENT: u32 = 0;
    /// Promoted into a task (queued or running).
    pub const PROMOTED: u32 = 1;
    /// Claimed by its owner for inline execution.
    pub const CLAIMED: u32 = 2;
    /// The promoted task finished; the result slot is initialised.
    pub const DONE: u32 = 3;
}

/// The state word of a latent entry.
#[derive(Debug)]
pub(crate) struct LatentState(pub AtomicU32);

impl LatentState {
    pub(crate) fn new() -> Self {
        LatentState(AtomicU32::new(latent_state::LATENT))
    }

    /// Attempts `LATENT → to`; returns whether the transition won.
    pub(crate) fn claim(&self, to: u32) -> bool {
        self.0
            .compare_exchange(
                latent_state::LATENT,
                to,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    pub(crate) fn set_done(&self) {
        self.0.store(latent_state::DONE, Ordering::Release);
    }

    pub(crate) fn get(&self) -> u32 {
        self.0.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latch_counts() {
        let l = CountLatch::new();
        assert!(l.is_clear());
        l.add(2);
        assert!(!l.is_clear());
        l.done();
        assert!(!l.is_clear());
        l.done();
        assert!(l.is_clear());
    }

    #[test]
    fn latent_state_single_claim() {
        let s = LatentState::new();
        assert!(s.claim(latent_state::PROMOTED));
        assert!(!s.claim(latent_state::CLAIMED));
        assert_eq!(s.get(), latent_state::PROMOTED);
        s.set_done();
        assert_eq!(s.get(), latent_state::DONE);
    }

    #[test]
    fn result_latch_set_before_wait() {
        let l = ResultLatch::new();
        assert!(!l.is_set());
        l.set();
        assert!(l.is_set());
        l.wait(); // already set: returns immediately
    }

    #[test]
    fn result_latch_cross_thread() {
        for _ in 0..50 {
            let l = std::sync::Arc::new(ResultLatch::new());
            let data = std::sync::Arc::new(AtomicU32::new(0));
            let (l2, d2) = (std::sync::Arc::clone(&l), std::sync::Arc::clone(&data));
            let h = std::thread::spawn(move || {
                d2.store(42, Ordering::Relaxed);
                l2.set();
            });
            l.wait();
            // The release/acquire pairing publishes the setter's writes.
            assert_eq!(data.load(Ordering::Relaxed), 42);
            h.join().unwrap();
        }
    }
}

#[cfg(test)]
mod proptests {
    //! Property coverage for the latches (ISSUE 7 satellite): arbitrary
    //! add/done interleavings never release a `CountLatch` early and
    //! always release it at zero; a `ResultLatch` is released exactly by
    //! its single `set`, never before.

    use proptest::prelude::*;

    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Drive a CountLatch through an arbitrary interleaving of adds
        /// (tasks published) and dones (tasks finished), with dones
        /// never outrunning adds — the only sequences the runtime can
        /// produce. The latch must read clear exactly when the running
        /// balance is zero.
        #[test]
        fn count_latch_releases_exactly_at_zero(
            ops in proptest::collection::vec((any::<bool>(), 1u32..4), 0..64)
        ) {
            let latch = CountLatch::new();
            let mut outstanding: u64 = 0;
            for (is_add, n) in ops {
                if is_add {
                    latch.add(n);
                    outstanding += u64::from(n);
                } else if outstanding > 0 {
                    latch.done();
                    outstanding -= 1;
                }
                prop_assert_eq!(
                    latch.is_clear(),
                    outstanding == 0,
                    "latch must be clear iff no task is outstanding"
                );
            }
            // Drain: the latch always releases once every done arrives.
            while outstanding > 0 {
                prop_assert!(!latch.is_clear(), "released early");
                latch.done();
                outstanding -= 1;
            }
            prop_assert!(latch.is_clear(), "failed to release at zero");
        }

        /// A ResultLatch observed through an arbitrary probe schedule:
        /// never set before `set`, always set after, including when the
        /// setter races the waiter across threads.
        #[test]
        fn result_latch_never_releases_early(
            probes_before in 0usize..8,
            probes_after in 0usize..8,
            cross_thread in any::<bool>(),
        ) {
            let latch = std::sync::Arc::new(ResultLatch::new());
            for _ in 0..probes_before {
                prop_assert!(!latch.is_set(), "released before set");
            }
            if cross_thread {
                let l2 = std::sync::Arc::clone(&latch);
                let h = std::thread::spawn(move || l2.set());
                latch.wait();
                h.join().unwrap();
            } else {
                latch.set();
            }
            for _ in 0..=probes_after {
                prop_assert!(latch.is_set(), "set did not release");
            }
        }
    }
}
