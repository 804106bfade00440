//! Allocation budgets of the text → runnable stages, on the program a
//! cold `tpal-serve` request carries (the benchmark's `sum` source: 83
//! lowered instructions, 20 blocks, 45 distinct names).
//!
//! Each stage may allocate per distinct name and per block — never per
//! token, per operand or per emitted instruction. The counts are
//! deterministic, so this gates in debug CI where timings cannot. Before
//! the front ends were made one-pass the three counts were 801, 280 and
//! 234.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tpal::core::asm::{parse_program, print_program};
use tpal::ir::{lower, parse_ir, Mode};
use tpal::serve::spec::RunSpec;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` with no destructor, so touching it neither
// allocates nor can fail during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const SUM_TPL: &str = "fn main(n) {\n    s = 0;\n    parfor i in 0..n reduce(s: +, 0) \
                       { s = s + i + 987654321; }\n    return s;\n}\n";

#[test]
fn parsing_allocates_per_name_and_block_not_per_token() {
    let ir = parse_ir(SUM_TPL).expect("the source parses");
    let text = print_program(&lower(&ir, Mode::Heartbeat).expect("it lowers").program);
    let (program, n) = allocations(|| parse_program(&text).expect("the printed text parses"));
    assert_eq!(program.instr_count(), 83);
    assert!(n <= 150, "parse_program made {n} allocations");
}

#[test]
fn lowering_allocates_per_name_and_block_not_per_instruction() {
    let ir = parse_ir(SUM_TPL).expect("the source parses");
    let (lowered, n) = allocations(|| lower(&ir, Mode::Heartbeat).expect("it lowers"));
    assert_eq!(lowered.program.instr_count(), 83);
    assert!(n <= 120, "lower made {n} allocations");
}

#[test]
fn a_token_is_rendered_into_one_buffer() {
    let spec = RunSpec::sim(2).set("main.n", 500);
    let (token, n) = allocations(|| spec.token(0x0123_4567_89ab_cdef));
    assert!(token.starts_with("r1-7b22"));
    assert!(n <= 4, "RunSpec::token made {n} allocations");
}

#[test]
fn cloning_a_program_copies_buffers_not_names() {
    let ir = parse_ir(SUM_TPL).expect("the source parses");
    let program = lower(&ir, Mode::Heartbeat).expect("it lowers").program;
    let (copy, n) = allocations(|| program.clone());
    assert_eq!(copy.block_count(), program.block_count());
    // One buffer per block, three per name table, one for the block list
    // (115 when every name was two `String`s and two map entries).
    assert!(
        n <= program.block_count() as u64 + 10,
        "clone made {n} allocations"
    );
}
