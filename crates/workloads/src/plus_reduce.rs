//! `plus-reduce-array`: sum an array (the paper's simplest, most
//! fine-grained iterative benchmark — 100 million doubles in Figure 11;
//! exact integers here).

use tpal_cilk::cilk_reduce;
use tpal_rt::WorkerCtx;

use crate::inputs::dense_vector;
use crate::{Prepared, Scale, SimInput, SimSpec, Workload};

/// The `plus-reduce-array` workload.
pub struct PlusReduceArray;

struct PreparedReduce {
    data: Vec<i64>,
    expected: i64,
}

fn sum_serial(data: &[i64]) -> i64 {
    let mut s = 0i64;
    for &x in data {
        s = s.wrapping_add(x);
    }
    s
}

impl Prepared for PreparedReduce {
    fn expected(&self) -> i64 {
        self.expected
    }

    fn run_serial(&self) -> i64 {
        sum_serial(&self.data)
    }

    fn run_heartbeat(&self, ctx: &WorkerCtx<'_>) -> i64 {
        let data = &self.data;
        // Block-granular body: each handed block folds through a slice
        // iterator, which vectorises like the serial loop — the
        // promotion-ready points sit at the block boundaries, exactly
        // the paper's outlined-loop-body structure. A per-index body
        // here would keep a bounds check (and its side exit) in the hot
        // loop and forfeit vectorisation.
        ctx.reduce_blocks(
            0..data.len(),
            0i64,
            |_, block, acc| data[block].iter().fold(acc, |a, &x| a.wrapping_add(x)),
            |a, b| a.wrapping_add(b),
        )
    }

    fn run_cilk(&self, ctx: &WorkerCtx<'_>) -> i64 {
        let data = &self.data;
        cilk_reduce(
            ctx,
            0..data.len(),
            0i64,
            &|_, i, acc| acc.wrapping_add(data[i]),
            &|a, b| a.wrapping_add(b),
        )
    }
}

impl Workload for PlusReduceArray {
    fn name(&self) -> &'static str {
        "plus-reduce-array"
    }

    fn prepare(&self, scale: Scale) -> Box<dyn Prepared> {
        let n = scale.pick(10_000_000, 60_000_000);
        let data = dense_vector(n, 0xA11CE);
        let expected = sum_serial(&data);
        Box::new(PreparedReduce { data, expected })
    }

    fn sim_spec(&self, scale: Scale) -> SimSpec {
        let n = scale.pick(250_000, 1_200_000);
        let data = dense_vector(n, 0xA11CE);
        let expected = sum_serial(&data);
        SimSpec {
            ir: shipped!("plus-reduce-array.tpl"),
            input: SimInput::default().array("a", data).int("n", n as i64),
            expected,
        }
    }
}
