//! The Chase–Lev lock-free work-stealing deque.
//!
//! The owner thread pushes and pops at the *bottom* of the deque; any number
//! of thief threads steal from the *top*. The implementation follows the
//! dynamic circular deque of Chase & Lev (SPAA 2005) with the relaxed
//! memory orderings proved correct for C11 by Lê, Pop, Cohen & Zappa
//! Nardelli (PPoPP 2013). The buffer grows geometrically; retired buffers
//! are kept alive until the deque itself is dropped, which sidesteps the
//! memory-reclamation race without an epoch scheme (the total retired
//! memory is bounded by twice the high-water mark).

use std::fmt;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicIsize, AtomicPtr, Ordering};
use std::sync::{Arc, Mutex};

/// The result of a [`Stealer::steal`] attempt.
#[derive(Debug, PartialEq, Eq)]
pub enum Steal<T> {
    /// The deque was observed empty.
    Empty,
    /// The steal lost a race with the owner or another thief; retrying
    /// immediately may succeed.
    Retry,
    /// A task was stolen.
    Success(T),
}

impl<T> Steal<T> {
    /// Returns the stolen value, or `None` for both [`Steal::Empty`] and
    /// [`Steal::Retry`].
    pub fn success(self) -> Option<T> {
        match self {
            Steal::Success(v) => Some(v),
            _ => None,
        }
    }

    /// Returns `true` if the deque was observed empty.
    pub fn is_empty(&self) -> bool {
        matches!(self, Steal::Empty)
    }
}

/// A fixed-capacity circular buffer of `T`, indexed by unbounded isize
/// positions (wrapped with a power-of-two mask).
struct Buffer<T> {
    /// Power-of-two capacity.
    cap: usize,
    /// Storage; `cap` slots.
    data: *mut MaybeUninit<T>,
}

impl<T> Buffer<T> {
    fn alloc(cap: usize) -> Box<Buffer<T>> {
        debug_assert!(cap.is_power_of_two());
        let mut v: Vec<MaybeUninit<T>> = Vec::with_capacity(cap);
        // SAFETY: MaybeUninit requires no initialization.
        unsafe { v.set_len(cap) };
        let data = Box::into_raw(v.into_boxed_slice()) as *mut MaybeUninit<T>;
        Box::new(Buffer { cap, data })
    }

    #[inline]
    fn slot(&self, index: isize) -> *mut MaybeUninit<T> {
        let i = (index as usize) & (self.cap - 1);
        // SAFETY: i < cap by masking.
        unsafe { self.data.add(i) }
    }

    /// Reads the value at `index` (a bitwise copy; the logical owner of the
    /// value is determined by the deque protocol).
    #[inline]
    unsafe fn read(&self, index: isize) -> T {
        self.slot(index).read().assume_init()
    }

    /// Writes `value` at `index` without dropping any previous content.
    #[inline]
    unsafe fn write(&self, index: isize, value: T) {
        self.slot(index).write(MaybeUninit::new(value));
    }
}

impl<T> Drop for Buffer<T> {
    fn drop(&mut self) {
        // Reconstruct the boxed slice; elements are MaybeUninit so no T is
        // dropped here (the Inner drop handles live elements explicitly).
        unsafe {
            drop(Box::from_raw(std::ptr::slice_from_raw_parts_mut(
                self.data, self.cap,
            )));
        }
    }
}

/// State shared by the owner and the thieves.
struct Inner<T> {
    /// Index one past the most recently pushed element (owner side).
    bottom: AtomicIsize,
    /// Index of the oldest element (thief side).
    top: AtomicIsize,
    /// Current buffer.
    buffer: AtomicPtr<Buffer<T>>,
    /// Buffers replaced by growth, kept alive until drop so in-flight
    /// thieves can still read from them safely.
    retired: Mutex<Vec<*mut Buffer<T>>>,
}

// SAFETY: the protocol transfers each T exactly once between threads.
unsafe impl<T: Send> Send for Inner<T> {}
unsafe impl<T: Send> Sync for Inner<T> {}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        let buf = self.buffer.load(Ordering::Relaxed);
        unsafe {
            let mut i = t;
            while i < b {
                drop((*buf).read(i));
                i += 1;
            }
            drop(Box::from_raw(buf));
        }
        for p in self
            .retired
            .lock()
            .expect("retired lock poisoned")
            .drain(..)
        {
            unsafe { drop(Box::from_raw(p)) };
        }
    }
}

/// The owner-side handle: push and pop at the bottom of the deque.
///
/// `Worker` is `Send` but deliberately not `Sync` / not `Clone`; exactly one
/// thread may own it at a time.
pub struct Worker<T> {
    inner: Arc<Inner<T>>,
    _not_sync: PhantomData<*mut ()>,
}

// SAFETY: moving the single owner handle to another thread is fine.
unsafe impl<T: Send> Send for Worker<T> {}

/// A thief-side handle: steal from the top of the deque. Cloneable and
/// shareable across threads.
pub struct Stealer<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Stealer<T> {
    fn clone(&self) -> Self {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> fmt::Debug for Worker<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Worker").field("len", &self.len()).finish()
    }
}

impl<T> fmt::Debug for Stealer<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Stealer")
            .field("len", &self.inner.len_estimate())
            .finish()
    }
}

const MIN_CAP: usize = 64;

/// Creates a new empty deque, returning the owner handle and a stealer.
///
/// Additional stealers are obtained by cloning the returned [`Stealer`].
pub fn deque<T>() -> (Worker<T>, Stealer<T>) {
    let buf = Box::into_raw(Buffer::alloc(MIN_CAP));
    let inner = Arc::new(Inner {
        bottom: AtomicIsize::new(0),
        top: AtomicIsize::new(0),
        buffer: AtomicPtr::new(buf),
        retired: Mutex::new(Vec::new()),
    });
    (
        Worker {
            inner: Arc::clone(&inner),
            _not_sync: PhantomData,
        },
        Stealer { inner },
    )
}

impl<T> Inner<T> {
    fn len_estimate(&self) -> usize {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Relaxed);
        b.saturating_sub(t).max(0) as usize
    }
}

impl<T> Worker<T> {
    /// Pushes a task at the bottom of the deque.
    pub fn push(&self, value: T) {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed);
        let t = inner.top.load(Ordering::Acquire);
        let mut buf = inner.buffer.load(Ordering::Relaxed);

        // SAFETY: only the owner mutates `buffer` and `bottom`.
        unsafe {
            if b - t >= (*buf).cap as isize {
                buf = self.grow(b, t, buf);
            }
            (*buf).write(b, value);
        }
        fence(Ordering::Release);
        inner.bottom.store(b + 1, Ordering::Relaxed);
    }

    /// Doubles the buffer, copying live elements. Returns the new buffer.
    ///
    /// The old buffer is retired rather than freed: a concurrent thief may
    /// still read a slot from it. Retired buffers are freed when the deque
    /// is dropped.
    unsafe fn grow(&self, b: isize, t: isize, old: *mut Buffer<T>) -> *mut Buffer<T> {
        let new = Box::into_raw(Buffer::alloc((*old).cap * 2));
        let mut i = t;
        while i < b {
            std::ptr::copy_nonoverlapping((*old).slot(i), (*new).slot(i), 1);
            i += 1;
        }
        self.inner
            .retired
            .lock()
            .expect("retired lock poisoned")
            .push(old);
        self.inner.buffer.store(new, Ordering::Release);
        new
    }

    /// Pops a task from the bottom of the deque (LIFO), or returns `None`
    /// if the deque is empty.
    pub fn pop(&self) -> Option<T> {
        let inner = &*self.inner;
        let b = inner.bottom.load(Ordering::Relaxed) - 1;
        let buf = inner.buffer.load(Ordering::Relaxed);
        inner.bottom.store(b, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        let t = inner.top.load(Ordering::Relaxed);

        if t <= b {
            // Non-empty.
            // SAFETY: slot b was published by a previous push on this thread.
            let value = unsafe { (*buf).read(b) };
            if t == b {
                // Last element: race with thieves via CAS on top.
                let won = inner
                    .top
                    .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                    .is_ok();
                inner.bottom.store(b + 1, Ordering::Relaxed);
                if won {
                    Some(value)
                } else {
                    // A thief took it; our bitwise copy must not be dropped.
                    std::mem::forget(value);
                    None
                }
            } else {
                Some(value)
            }
        } else {
            // Empty: restore bottom.
            inner.bottom.store(b + 1, Ordering::Relaxed);
            None
        }
    }

    /// Returns the number of tasks currently in the deque. Exact from the
    /// owner's perspective (thieves may remove concurrently).
    pub fn len(&self) -> usize {
        self.inner.len_estimate()
    }

    /// Returns `true` if the deque appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Creates another stealer handle for this deque.
    pub fn stealer(&self) -> Stealer<T> {
        Stealer {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T> Stealer<T> {
    /// Attempts to steal the oldest task from the top of the deque.
    pub fn steal(&self) -> Steal<T> {
        let inner = &*self.inner;
        let t = inner.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = inner.bottom.load(Ordering::Acquire);

        if t < b {
            let buf = inner.buffer.load(Ordering::Acquire);
            // SAFETY: t < b means slot t was published; the buffer pointer
            // read here is either current or retired-but-alive.
            let value = unsafe { (*buf).read(t) };
            if inner
                .top
                .compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed)
                .is_ok()
            {
                Steal::Success(value)
            } else {
                std::mem::forget(value);
                Steal::Retry
            }
        } else {
            Steal::Empty
        }
    }

    /// Approximate number of tasks in the deque.
    pub fn len(&self) -> usize {
        self.inner.len_estimate()
    }

    /// Returns `true` if the deque appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_lifo() {
        let (w, _s) = deque::<i32>();
        for i in 0..10 {
            w.push(i);
        }
        for i in (0..10).rev() {
            assert_eq!(w.pop(), Some(i));
        }
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn steal_fifo() {
        let (w, s) = deque::<i32>();
        for i in 0..10 {
            w.push(i);
        }
        for i in 0..10 {
            assert_eq!(s.steal(), Steal::Success(i));
        }
        assert!(s.steal().is_empty());
    }

    #[test]
    fn mixed_ends() {
        let (w, s) = deque::<i32>();
        w.push(1);
        w.push(2);
        w.push(3);
        assert_eq!(s.steal(), Steal::Success(1));
        assert_eq!(w.pop(), Some(3));
        assert_eq!(w.pop(), Some(2));
        assert_eq!(w.pop(), None);
        assert!(s.steal().is_empty());
    }

    #[test]
    fn growth_preserves_order() {
        let (w, s) = deque::<usize>();
        let n = 10 * MIN_CAP;
        for i in 0..n {
            w.push(i);
        }
        assert_eq!(w.len(), n);
        for i in 0..n {
            assert_eq!(s.steal(), Steal::Success(i));
        }
    }

    #[test]
    fn growth_after_consumption_wraps() {
        let (w, s) = deque::<usize>();
        // Advance top so indices wrap within the buffer.
        for round in 0..5 {
            for i in 0..MIN_CAP - 1 {
                w.push(round * 1000 + i);
            }
            for i in 0..MIN_CAP - 1 {
                assert_eq!(s.steal(), Steal::Success(round * 1000 + i));
            }
        }
        // Now force growth from a wrapped position.
        for i in 0..4 * MIN_CAP {
            w.push(i);
        }
        for i in (0..4 * MIN_CAP).rev() {
            assert_eq!(w.pop(), Some(i));
        }
    }

    #[test]
    fn drop_releases_remaining_elements() {
        // Box<i32> would leak visibly under a leak checker if Drop were
        // wrong; also assert via a counting type.
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let (w, s) = deque::<D>();
            for _ in 0..100 {
                w.push(D);
            }
            drop(s.steal()); // one stolen and dropped
            drop(w.pop()); // one popped and dropped
            drop(w);
        }
        assert_eq!(DROPS.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn stealer_len_tracks() {
        let (w, s) = deque::<u8>();
        assert!(s.is_empty());
        w.push(0);
        assert_eq!(s.len(), 1);
        w.pop();
        assert!(w.is_empty());
    }

    #[test]
    fn steal_success_helper() {
        let (w, s) = deque::<u8>();
        w.push(9);
        assert_eq!(s.steal().success(), Some(9));
        assert_eq!(s.steal().success(), None);
    }
}
