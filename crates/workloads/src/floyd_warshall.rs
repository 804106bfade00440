//! `floyd-warshall`: all-pairs shortest paths, purely loop-based (§4.1).
//! The `k` rounds are serial (each depends on the last); each round's
//! row loop is parallel with a serial column loop inside. The paper runs
//! 1K and 2K vertices because the smaller size starves Cilk's `8P`
//! heuristic — it creates 23× more tasks than TPAL yet runs 67% slower
//! (§4.3). We keep two sizes for the same contrast.

use tpal_cilk::cilk_for;
use tpal_rt::WorkerCtx;

use crate::inputs::fw_graph;
use crate::{Prepared, Scale, SimInput, SimSpec, Workload};

fn fw_serial(g: &mut [i64], n: usize) {
    for k in 0..n {
        for i in 0..n {
            let dik = g[i * n + k];
            for j in 0..n {
                let alt = dik + g[k * n + j];
                if alt < g[i * n + j] {
                    g[i * n + j] = alt;
                }
            }
        }
    }
}

fn dist_checksum(g: &[i64]) -> i64 {
    let mut h = 0i64;
    for (i, &d) in g.iter().enumerate() {
        let d = d.min(crate::inputs::FW_INF);
        h = h.wrapping_add(d.wrapping_mul(1 + (i as i64 % 13)));
    }
    h
}

/// The `floyd-warshall-*` workloads (small ≈ the paper's 1K, large ≈ 2K,
/// scaled to this machine).
pub struct FloydWarshall {
    name: &'static str,
    large: bool,
}

impl FloydWarshall {
    /// The parallelism-starved size.
    pub fn small() -> Self {
        FloydWarshall {
            name: "floyd-warshall-small",
            large: false,
        }
    }

    /// The comfortable size.
    pub fn large() -> Self {
        FloydWarshall {
            name: "floyd-warshall-large",
            large: true,
        }
    }
}

struct PreparedFw {
    g: Vec<i64>,
    n: usize,
    expected: i64,
}

impl PreparedFw {
    fn run_rounds(&self, mut run_rows: impl FnMut(&[i64], &crate::SyncPtr, usize)) -> i64 {
        let n = self.n;
        let mut g = self.g.clone();
        for k in 0..n {
            // The k-th row is both read and written within a round only
            // at indices where it is a fixed point (g[k][j] cannot
            // improve through k), so row-parallel rounds are safe — the
            // standard parallel Floyd–Warshall argument.
            let ptr = crate::SyncPtr::new(g.as_mut_ptr());
            run_rows(&g, &ptr, k);
        }
        dist_checksum(&g)
    }
}

impl Prepared for PreparedFw {
    fn expected(&self) -> i64 {
        self.expected
    }

    fn run_serial(&self) -> i64 {
        let mut g = self.g.clone();
        fw_serial(&mut g, self.n);
        dist_checksum(&g)
    }

    fn run_heartbeat(&self, ctx: &WorkerCtx<'_>) -> i64 {
        let n = self.n;
        self.run_rounds(|g, ptr, k| {
            ctx.parallel_for(0..n, |_, i| {
                let dik = g[i * n + k];
                for j in 0..n {
                    let alt = dik + g[k * n + j];
                    // SAFETY: rows are disjoint across iterations.
                    unsafe {
                        if alt < ptr.read(i * n + j) {
                            ptr.write(i * n + j, alt);
                        }
                    }
                }
            });
        })
    }

    fn run_cilk(&self, ctx: &WorkerCtx<'_>) -> i64 {
        let n = self.n;
        self.run_rounds(|g, ptr, k| {
            cilk_for(ctx, 0..n, &|_, i| {
                let dik = g[i * n + k];
                for j in 0..n {
                    let alt = dik + g[k * n + j];
                    // SAFETY: rows are disjoint across iterations.
                    unsafe {
                        if alt < ptr.read(i * n + j) {
                            ptr.write(i * n + j, alt);
                        }
                    }
                }
            });
        })
    }
}

impl Workload for FloydWarshall {
    fn name(&self) -> &'static str {
        self.name
    }

    fn prepare(&self, scale: Scale) -> Box<dyn Prepared> {
        let n = match (self.large, scale) {
            (false, Scale::Quick) => 144,
            (false, Scale::Full) => 512,
            (true, Scale::Quick) => 240,
            (true, Scale::Full) => 1024,
        };
        let g = fw_graph(n, 0xF10D);
        let mut r = g.clone();
        fw_serial(&mut r, n);
        Box::new(PreparedFw {
            g,
            n,
            expected: dist_checksum(&r),
        })
    }

    fn sim_spec(&self, scale: Scale) -> SimSpec {
        // The small size starves 15 cores: few row-iterations per round.
        let n = match (self.large, scale) {
            (false, Scale::Quick) => 32,
            (false, Scale::Full) => 48,
            (true, Scale::Quick) => 72,
            (true, Scale::Full) => 128,
        };
        let g = fw_graph(n, 0xF10D);
        let mut r = g.clone();
        fw_serial(&mut r, n);
        let expected = dist_checksum(&r);
        SimSpec {
            ir: shipped!("floyd-warshall.tpl"),
            input: SimInput::default().array("g", g).int("n", n as i64),
            expected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fw_serial_triangle() {
        // 0→1 (5), 1→2 (5), 0→2 (20): shortest 0→2 becomes 10.
        let inf = crate::inputs::FW_INF;
        let mut g = vec![
            0, 5, 20, //
            inf, 0, 5, //
            inf, inf, 0,
        ];
        fw_serial(&mut g, 3);
        assert_eq!(g[2], 10);
    }

    #[test]
    fn checksum_saturates_inf() {
        let g = vec![crate::inputs::FW_INF + 5, 0];
        // Saturation keeps unreachable entries from overflowing the hash
        // differently across builds.
        let _ = dist_checksum(&g);
    }
}
