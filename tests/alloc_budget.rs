//! Allocation budgets of the text → runnable stages, on the program a
//! cold `tpal-serve` request carries (the benchmark's `sum` source: 83
//! lowered instructions, 20 blocks, 45 distinct names).
//!
//! Each stage may allocate per distinct name and per block — never per
//! token, per operand or per emitted instruction. The counts are
//! deterministic, so this gates in debug CI where timings cannot. Before
//! the front ends were made one-pass the three counts were 801, 280 and
//! 234.
//!
//! The same allocator sums bytes, which gates the compiled artefact's
//! footprint: the fast tier is the decoded stream plus a template side
//! table, not a second copy of it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tpal::core::asm::{parse_program, print_program};
use tpal::core::tier::{ExecBackend, ExecTier};
use tpal::ir::{lower, parse_ir, Mode};
use tpal::serve::spec::RunSpec;

thread_local! {
    /// Allocations made by this thread (tests run on threads of their own).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for (a reallocation counts its new
    /// size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell`s with no destructor, so touching them neither
// allocates nor can fail during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: `layout` is the caller's, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn count(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|n| n.set(n.get() + bytes as u64));
}

/// Allocations (and reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, n, _) = footprint(f);
    (out, n)
}

/// Allocations `f` makes on this thread and the bytes they ask for.
fn footprint<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    let out = f();
    let after = (ALLOCATIONS.with(Cell::get), BYTES.with(Cell::get));
    (out, after.0 - before.0, after.1 - before.1)
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

/// The fast tier's compiled program is the decoded one plus the template
/// side tables — to build and to clone (one clone per run on a service
/// hit). With a second handler-pointer copy of the stream beside the
/// decoded one a clone was 22 009 bytes in 19 allocations against
/// 14 147 in 11.
#[test]
fn the_fast_tier_compiles_to_the_decoded_footprint() {
    let ir = parse_ir(SUM_TPL).expect("the source parses");
    let program = lower(&ir, Mode::Heartbeat).expect("it lowers").program;
    let (decoded, dn, db) = footprint(|| ExecBackend::new(&program, ExecTier::Decoded));
    let (threaded, tn, tb) = footprint(|| ExecBackend::new(&program, ExecTier::Threaded));
    assert!(
        tn <= dn + 2 && tb <= db + 1024,
        "compile: {tb} B / {tn} allocations against decoded's {db} / {dn}"
    );
    let (_, dn, db) = footprint(|| decoded.clone());
    let (_, tn, tb) = footprint(|| threaded.clone());
    assert!(dn > 0 && db > 0, "the counting allocator is installed");
    assert!(
        tn <= dn + 2 && tb <= db + 1024,
        "clone: {tb} B / {tn} allocations against decoded's {db} / {dn}"
    );
}
