//! `mergesort`: the suite's only benchmark mixing recursive parallelism
//! with a parallel loop (§4.1): the sort recursion is fork-join, and the
//! copy-back from the merge buffer is a parallel loop. Inputs come from
//! uniform and exponential distributions, as in the paper.

use tpal_cilk::{cilk_for, cilk_spawn2};
use tpal_rt::WorkerCtx;

use crate::inputs::{exponential_ints, uniform_ints};
use crate::{Prepared, Scale, SimInput, SimSpec, Workload};

/// Below this size, sort insertion-style (the Cilk suite's base case).
const CUTOFF: usize = 32;

fn insertion_sort(a: &mut [i64]) {
    for i in 1..a.len() {
        let x = a[i];
        let mut j = i;
        while j > 0 && a[j - 1] > x {
            a[j] = a[j - 1];
            j -= 1;
        }
        a[j] = x;
    }
}

/// Serial two-finger merge of `a[lo..mid]` and `a[mid..hi]` into
/// `tmp[lo..hi]`.
fn merge_into(a: &[i64], tmp: &mut [i64], lo: usize, mid: usize, hi: usize) {
    let (mut i, mut j, mut k) = (lo, mid, lo);
    while i < mid && j < hi {
        if a[i] <= a[j] {
            tmp[k] = a[i];
            i += 1;
        } else {
            tmp[k] = a[j];
            j += 1;
        }
        k += 1;
    }
    while i < mid {
        tmp[k] = a[i];
        i += 1;
        k += 1;
    }
    while j < hi {
        tmp[k] = a[j];
        j += 1;
        k += 1;
    }
}

fn serial_sort(a: &mut [i64], tmp: &mut [i64], lo: usize, hi: usize) {
    if hi - lo <= CUTOFF {
        insertion_sort(&mut a[lo..hi]);
        return;
    }
    let mid = lo + (hi - lo) / 2;
    serial_sort(a, tmp, lo, mid);
    serial_sort(a, tmp, mid, hi);
    merge_into(a, tmp, lo, mid, hi);
    a[lo..hi].copy_from_slice(&tmp[lo..hi]);
}

fn checksum(a: &[i64]) -> i64 {
    let mut h = 0i64;
    let mut sorted = 0i64; // 0 = sorted (the TPAL truth encoding!)
    for i in 0..a.len() {
        h = h.wrapping_add(a[i].wrapping_mul(1 + (i as i64 % 9)));
        if i > 0 && a[i - 1] > a[i] {
            sorted = 1;
        }
    }
    h.wrapping_add(sorted.wrapping_mul(0x5AD))
}

/// Parallel sort: recursion via the given fork-join, copy-back via the
/// given parallel loop. The two halves touch disjoint index ranges of
/// both buffers.
fn parallel_sort(
    a: crate::SyncPtr,
    tmp: crate::SyncPtr,
    lo: usize,
    hi: usize,
    ctx: &WorkerCtx<'_>,
    eager: bool,
) {
    // SAFETY: throughout, this recursion owns `a[lo..hi]` and
    // `tmp[lo..hi]` exclusively; subcalls partition the range.
    if hi - lo <= CUTOFF {
        unsafe { insertion_sort(std::slice::from_raw_parts_mut(a.as_ptr().add(lo), hi - lo)) };
        return;
    }
    let mid = lo + (hi - lo) / 2;
    let (a0, a1) = (
        crate::SyncPtr::new(a.as_ptr()),
        crate::SyncPtr::new(a.as_ptr()),
    );
    let (t0, t1) = (
        crate::SyncPtr::new(tmp.as_ptr()),
        crate::SyncPtr::new(tmp.as_ptr()),
    );
    let run_l = move |ctx: &WorkerCtx<'_>| parallel_sort(a0, t0, lo, mid, ctx, eager);
    let run_r = move |ctx: &WorkerCtx<'_>| parallel_sort(a1, t1, mid, hi, ctx, eager);
    if eager {
        cilk_spawn2(ctx, run_l, run_r);
    } else {
        ctx.join2(run_l, run_r);
    }
    // SAFETY: both halves are complete; we own [lo, hi).
    unsafe {
        let av = std::slice::from_raw_parts(a.as_ptr(), hi);
        let tv = std::slice::from_raw_parts_mut(tmp.as_ptr(), hi);
        merge_into(av, tv, lo, mid, hi);
    }
    // Parallel copy-back (the paper's parallel-loop component).
    let (ac, tc) = (
        crate::SyncPtr::new(a.as_ptr()),
        crate::SyncPtr::new(tmp.as_ptr()),
    );
    let body = move |_: &WorkerCtx<'_>, i: usize| {
        // SAFETY: disjoint indices within our owned range.
        unsafe { ac.write(i, tc.read(i)) };
    };
    if eager {
        cilk_for(ctx, lo..hi, &body);
    } else {
        ctx.parallel_for(lo..hi, body);
    }
}

/// The `mergesort-*` workloads.
pub struct Mergesort {
    name: &'static str,
    exponential: bool,
}

impl Mergesort {
    /// Uniformly distributed input.
    pub fn uniform() -> Mergesort {
        Mergesort {
            name: "mergesort-uniform",
            exponential: false,
        }
    }

    /// Exponentially distributed input.
    pub fn exponential() -> Mergesort {
        Mergesort {
            name: "mergesort-exp",
            exponential: true,
        }
    }

    fn input(&self, n: usize) -> Vec<i64> {
        if self.exponential {
            exponential_ints(n, 0xE4B)
        } else {
            uniform_ints(n, 0xE4A)
        }
    }
}

struct PreparedSort {
    data: Vec<i64>,
    expected: i64,
}

impl PreparedSort {
    fn run_parallel(&self, ctx: &WorkerCtx<'_>, eager: bool) -> i64 {
        let mut a = self.data.clone();
        let mut tmp = vec![0i64; a.len()];
        let n = a.len();
        parallel_sort(
            crate::SyncPtr::new(a.as_mut_ptr()),
            crate::SyncPtr::new(tmp.as_mut_ptr()),
            0,
            n,
            ctx,
            eager,
        );
        checksum(&a)
    }
}

impl Prepared for PreparedSort {
    fn expected(&self) -> i64 {
        self.expected
    }

    fn run_serial(&self) -> i64 {
        let mut a = self.data.clone();
        let mut tmp = vec![0i64; a.len()];
        let n = a.len();
        serial_sort(&mut a, &mut tmp, 0, n);
        checksum(&a)
    }

    fn run_heartbeat(&self, ctx: &WorkerCtx<'_>) -> i64 {
        self.run_parallel(ctx, false)
    }

    fn run_cilk(&self, ctx: &WorkerCtx<'_>) -> i64 {
        self.run_parallel(ctx, true)
    }
}

impl Workload for Mergesort {
    fn name(&self) -> &'static str {
        self.name
    }

    fn is_recursive(&self) -> bool {
        true
    }

    fn prepare(&self, scale: Scale) -> Box<dyn Prepared> {
        let n = scale.pick(600_000, 10_000_000);
        let data = self.input(n);
        let mut a = data.clone();
        let mut tmp = vec![0i64; n];
        serial_sort(&mut a, &mut tmp, 0, n);
        Box::new(PreparedSort {
            data,
            expected: checksum(&a),
        })
    }

    fn sim_spec(&self, scale: Scale) -> SimSpec {
        let n = scale.pick(12_000, 60_000);
        let data = self.input(n);
        let mut sorted = data.clone();
        let mut tmp = vec![0i64; n];
        serial_sort(&mut sorted, &mut tmp, 0, n);
        let expected = checksum(&sorted);
        SimSpec {
            ir: shipped!("mergesort.tpl"),
            input: SimInput::default()
                .array("a", data)
                .array("tmp", vec![0; n])
                .int("n", n as i64),
            expected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_sort_small() {
        let mut a = vec![5, 3, 8, 1, 9, 2];
        insertion_sort(&mut a);
        assert_eq!(a, vec![1, 2, 3, 5, 8, 9]);
    }

    #[test]
    fn serial_sort_sorts() {
        let mut a = uniform_ints(10_000, 42);
        let mut tmp = vec![0i64; a.len()];
        let n = a.len();
        serial_sort(&mut a, &mut tmp, 0, n);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn checksum_flags_unsorted() {
        let sorted = vec![1, 2, 3];
        let unsorted = vec![3, 2, 1];
        assert_ne!(checksum(&sorted), checksum(&unsorted));
    }
}
