//! `knapsack`: branch-and-bound 0/1 knapsack (from the Cilk suite,
//! §4.1; 36 items in the paper). The only non-deterministic benchmark in
//! the suite: the *amount of work* depends on how fast good incumbents
//! propagate between tasks through the shared best-so-far bound, though
//! the final optimum is always the same.

use std::sync::atomic::{AtomicI64, Ordering};

use tpal_cilk::cilk_spawn2;
use tpal_rt::WorkerCtx;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Prepared, Scale, SimInput, SimSpec, Workload};

/// Problem instance: weights and values, sorted by value density
/// (descending) so the simple fractional bound is admissible.
#[derive(Debug, Clone)]
struct Instance {
    w: Vec<i64>,
    v: Vec<i64>,
    cap: i64,
}

fn instance(n: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut items: Vec<(i64, i64)> = (0..n)
        .map(|_| (rng.gen_range(5i64..=60), rng.gen_range(5i64..=60)))
        .collect();
    // Sort by density v/w descending.
    items.sort_by(|a, b| (b.1 * a.0).cmp(&(a.1 * b.0)));
    let total_w: i64 = items.iter().map(|x| x.0).sum();
    Instance {
        w: items.iter().map(|x| x.0).collect(),
        v: items.iter().map(|x| x.1).collect(),
        cap: total_w / 2,
    }
}

/// Admissible upper bound for the subtree at `idx`: current value plus
/// the remaining capacity filled at the best remaining density
/// (rounded up).
#[inline]
fn bound(ins: &Instance, idx: usize, cap: i64, val: i64) -> i64 {
    if idx >= ins.w.len() {
        return val;
    }
    val + (cap * ins.v[idx] + ins.w[idx] - 1) / ins.w[idx]
}

fn serial_rec(ins: &Instance, idx: usize, cap: i64, val: i64, best: &mut i64) -> i64 {
    if idx == ins.w.len() {
        if val > *best {
            *best = val;
        }
        return val;
    }
    if bound(ins, idx, cap, val) <= *best {
        return val;
    }
    let mut r = serial_rec(ins, idx + 1, cap, val, best);
    if ins.w[idx] <= cap {
        let l = serial_rec(ins, idx + 1, cap - ins.w[idx], val + ins.v[idx], best);
        r = r.max(l);
    }
    r
}

fn parallel_rec(
    ins: &Instance,
    idx: usize,
    cap: i64,
    val: i64,
    best: &AtomicI64,
    ctx: &WorkerCtx<'_>,
    eager: bool,
) -> i64 {
    if idx == ins.w.len() {
        best.fetch_max(val, Ordering::Relaxed);
        return val;
    }
    if bound(ins, idx, cap, val) <= best.load(Ordering::Relaxed) {
        return val;
    }
    if ins.w[idx] <= cap {
        let run_l = |ctx: &WorkerCtx<'_>| {
            parallel_rec(
                ins,
                idx + 1,
                cap - ins.w[idx],
                val + ins.v[idx],
                best,
                ctx,
                eager,
            )
        };
        let run_r = |ctx: &WorkerCtx<'_>| parallel_rec(ins, idx + 1, cap, val, best, ctx, eager);
        let (l, r) = if eager {
            cilk_spawn2(ctx, run_l, run_r)
        } else {
            ctx.join2(run_l, run_r)
        };
        l.max(r)
    } else {
        parallel_rec(ins, idx + 1, cap, val, best, ctx, eager)
    }
}

/// The `knapsack` workload.
pub struct Knapsack;

struct PreparedKnap {
    ins: Instance,
    expected: i64,
}

impl Prepared for PreparedKnap {
    fn expected(&self) -> i64 {
        self.expected
    }

    fn run_serial(&self) -> i64 {
        let mut best = 0i64;
        serial_rec(&self.ins, 0, self.ins.cap, 0, &mut best)
    }

    fn run_heartbeat(&self, ctx: &WorkerCtx<'_>) -> i64 {
        let best = AtomicI64::new(0);
        parallel_rec(&self.ins, 0, self.ins.cap, 0, &best, ctx, false)
    }

    fn run_cilk(&self, ctx: &WorkerCtx<'_>) -> i64 {
        let best = AtomicI64::new(0);
        parallel_rec(&self.ins, 0, self.ins.cap, 0, &best, ctx, true)
    }
}

impl Workload for Knapsack {
    fn name(&self) -> &'static str {
        "knapsack"
    }

    fn is_recursive(&self) -> bool {
        true
    }

    fn prepare(&self, scale: Scale) -> Box<dyn Prepared> {
        let n = scale.pick(28, 34);
        let ins = instance(n, 0x6A5A);
        let mut best = 0i64;
        let expected = serial_rec(&ins, 0, ins.cap, 0, &mut best);
        Box::new(PreparedKnap { ins, expected })
    }

    fn sim_spec(&self, scale: Scale) -> SimSpec {
        let n = scale.pick(16, 20);
        let ins = instance(n, 0x6A5A);
        let mut best = 0i64;
        let expected = serial_rec(&ins, 0, ins.cap, 0, &mut best);
        SimSpec {
            ir: shipped!("knapsack.tpl"),
            input: SimInput::default()
                .array("wp", ins.w.clone())
                .array("vp", ins.v.clone())
                .array("bestp", vec![0])
                .int("n", n as i64)
                .int("cap", ins.cap),
            expected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_finds_optimum_on_tiny_instance() {
        // Items (w, v): capacity 10. Optimum: items of value 60+50=110?
        let ins = Instance {
            w: vec![5, 5, 6],
            v: vec![60, 50, 40],
            cap: 10,
        };
        let mut best = 0;
        assert_eq!(serial_rec(&ins, 0, ins.cap, 0, &mut best), 110);
    }

    #[test]
    fn instance_sorted_by_density() {
        let ins = instance(20, 1);
        for k in 1..20 {
            // v[k-1]/w[k-1] >= v[k]/w[k]  ⇔  v[k-1]·w[k] >= v[k]·w[k-1]
            assert!(ins.v[k - 1] * ins.w[k] >= ins.v[k] * ins.w[k - 1]);
        }
    }

    #[test]
    fn bound_is_admissible() {
        let ins = instance(12, 2);
        let mut best = 0;
        let opt = serial_rec(&ins, 0, ins.cap, 0, &mut best);
        assert!(bound(&ins, 0, ins.cap, 0) >= opt);
    }
}
