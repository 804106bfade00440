//! The injector's memory is bounded by what it holds, not by what it has
//! ever carried: a long-lived pool pushes one root job per run, so a
//! queue that kept a slot per push would grow with every request served.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tpal_deque::Injector;

thread_local! {
    /// Bytes this thread has allocated and not yet freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` with no destructor, so touching it neither
// allocates nor can fail during thread teardown. `realloc` keeps its
// default, which goes through these two.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.with(|n| n.set(n.get() + layout.size() as i64));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.with(|n| n.set(n.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn push_pop_traffic_does_not_grow_the_heap() {
    let q = Injector::new();
    let mut after_warm_up = 0;
    for i in 0..100_000u64 {
        q.push(i);
        assert_eq!(q.pop(), Some(i));
        if i + 1 == 1_000 {
            after_warm_up = LIVE.with(Cell::get);
        }
    }
    let live = LIVE.with(Cell::get);
    assert!(
        live <= after_warm_up + 1024,
        "{live} live bytes after 100 000 items, {after_warm_up} after 1 000"
    );
}
