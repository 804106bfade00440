//! The runtimes' global injector: external submissions (one root job
//! per `Runtime::run`) wait here for whichever worker asks first. A push
//! is paid once per run, so the queue is a locked `VecDeque`, bounded by
//! what it holds. What stays lock-free is the probe each idle worker's
//! `find_job` makes before stealing: an empty injector is one load.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// An unbounded MPMC FIFO queue: any thread may push, any thread may
/// pop.
///
/// # Examples
///
/// ```
/// use tpal_deque::Injector;
///
/// let q = Injector::new();
/// q.push(1);
/// q.push(2);
/// assert_eq!(q.pop(), Some(1)); // FIFO
/// assert_eq!(q.pop(), Some(2));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Default)]
pub struct Injector<T> {
    /// `queue`'s length, stored under the lock after every change.
    len: AtomicUsize,
    queue: Mutex<VecDeque<T>>,
}

impl<T> Injector<T> {
    /// An empty queue.
    pub fn new() -> Injector<T> {
        Injector {
            len: AtomicUsize::new(0),
            queue: Mutex::new(VecDeque::new()),
        }
    }

    /// Pushes `value` at the back of the queue.
    pub fn push(&self, value: T) {
        let mut queue = self.queue.lock().expect("injector lock poisoned");
        queue.push_back(value);
        self.len.store(queue.len(), Ordering::SeqCst);
    }

    /// Pops from the front of the queue; an empty queue answers `None`
    /// without taking the lock.
    pub fn pop(&self) -> Option<T> {
        if self.is_empty() {
            return None;
        }
        let mut queue = self.queue.lock().expect("injector lock poisoned");
        let value = queue.pop_front();
        self.len.store(queue.len(), Ordering::SeqCst);
        value
    }

    /// The number of queued elements.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::SeqCst)
    }

    /// Whether the queue is empty. A completed push is always visible
    /// here: its `SeqCst` store and this `SeqCst` load, with the fence in
    /// the runtime's `notify`, are what a parking worker's recheck needs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_and_across_blocks() {
        let q = Injector::new();
        let n = 322;
        for i in 0..n {
            q.push(i);
        }
        assert_eq!(q.len(), n);
        for i in 0..n {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop() {
        let q = Injector::new();
        let mut next_out = 0usize;
        for i in 0..630 {
            q.push(i);
            if i % 3 == 0 {
                assert_eq!(q.pop(), Some(next_out));
                next_out += 1;
            }
        }
        while let Some(v) = q.pop() {
            assert_eq!(v, next_out);
            next_out += 1;
        }
        assert_eq!(next_out, 630);
    }

    #[test]
    fn drop_releases_unconsumed_elements() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let q = Injector::new();
            for _ in 0..189 {
                q.push(D);
            }
            drop(q.pop()); // one popped and dropped
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 189);
    }

    #[test]
    fn empty_estimates() {
        let q = Injector::<u8>::new();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        q.push(1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }
}
