//! `spmv`: sparse-matrix × dense-vector product in CSR form, on the
//! paper's three matrix structures (§4.1): *random* (uniform rows),
//! *powerlaw* (a few giant rows), and *arrowhead* (one dense row plus
//! uniformly tiny ones). The irregular inputs are exactly where nested
//! parallelism matters: the giant rows must be split *internally*, which
//! heartbeat scheduling does on demand and uniform loop grains cannot.

use tpal_cilk::cilk_grain;
use tpal_rt::WorkerCtx;

use crate::inputs::{arrowhead_matrix, dense_vector, powerlaw_matrix, random_matrix, CsrMatrix};
use crate::{Prepared, Scale, SimInput, SimSpec, Workload};

/// Which matrix structure to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Structure {
    Random,
    Powerlaw,
    Arrowhead,
}

/// The `spmv-*` workloads.
pub struct Spmv {
    structure: Structure,
    name: &'static str,
}

impl Spmv {
    /// `spmv-random`.
    pub fn random() -> Spmv {
        Spmv {
            structure: Structure::Random,
            name: "spmv-random",
        }
    }

    /// `spmv-powerlaw`.
    pub fn powerlaw() -> Spmv {
        Spmv {
            structure: Structure::Powerlaw,
            name: "spmv-powerlaw",
        }
    }

    /// `spmv-arrowhead`.
    pub fn arrowhead() -> Spmv {
        Spmv {
            structure: Structure::Arrowhead,
            name: "spmv-arrowhead",
        }
    }

    fn matrix(&self, scale: Scale) -> CsrMatrix {
        match self.structure {
            Structure::Random => {
                let (rows, avg) = scale.pick((60_000, 12), (600_000, 25));
                random_matrix(rows, rows, avg, 0x005E_ED01)
            }
            Structure::Powerlaw => {
                let (rows, nnz) = scale.pick((30_000, 700_000), (300_000, 12_000_000));
                powerlaw_matrix(rows, rows, nnz, 0x005E_ED02)
            }
            Structure::Arrowhead => {
                let n = scale.pick(250_000, 4_000_000);
                arrowhead_matrix(n, 0x005E_ED03)
            }
        }
    }

    fn sim_matrix(&self, scale: Scale) -> CsrMatrix {
        match self.structure {
            Structure::Random => {
                let (rows, avg) = scale.pick((6_000, 10), (30_000, 16));
                random_matrix(rows, rows, avg, 0x005E_ED01)
            }
            Structure::Powerlaw => {
                let (rows, nnz) = scale.pick((2_500, 50_000), (12_000, 400_000));
                powerlaw_matrix(rows, rows, nnz, 0x005E_ED02)
            }
            Structure::Arrowhead => {
                let n = scale.pick(15_000, 120_000);
                arrowhead_matrix(n, 0x005E_ED03)
            }
        }
    }
}

struct PreparedSpmv {
    m: CsrMatrix,
    x: Vec<i64>,
    expected: i64,
}

fn checksum(y: &[i64]) -> i64 {
    let mut h = 0i64;
    for (i, &v) in y.iter().enumerate() {
        h = h.wrapping_add(v.wrapping_mul(1 + (i as i64 & 0xF)));
    }
    h
}

impl Prepared for PreparedSpmv {
    fn expected(&self) -> i64 {
        self.expected
    }

    fn run_serial(&self) -> i64 {
        checksum(&self.m.spmv_serial(&self.x))
    }

    fn run_heartbeat(&self, ctx: &WorkerCtx<'_>) -> i64 {
        let (m, x) = (&self.m, &self.x);
        let mut y = vec![0i64; m.rows];
        {
            let yslice = crate::SyncPtr::new(y.as_mut_ptr());
            let yslice = &yslice;
            ctx.parallel_for(0..m.rows, |ctx, r| {
                let (lo, hi) = (m.row_ptr[r] as usize, m.row_ptr[r + 1] as usize);
                // The inner (row) loop is itself a latent parallel
                // reduction: giant powerlaw/arrowhead rows split on
                // heartbeats.
                let s = ctx.reduce(
                    lo..hi,
                    0i64,
                    |_, k, acc| acc.wrapping_add(m.vals[k].wrapping_mul(x[m.col_idx[k] as usize])),
                    |a, b| a.wrapping_add(b),
                );
                // SAFETY: each row index is written exactly once.
                unsafe { yslice.write(r, s) };
            });
        }
        checksum(&y)
    }

    fn run_cilk(&self, ctx: &WorkerCtx<'_>) -> i64 {
        let (m, x) = (&self.m, &self.x);
        let mut y = vec![0i64; m.rows];
        {
            let yslice = crate::SyncPtr::new(y.as_mut_ptr());
            let yslice = &yslice;
            let row_grain = cilk_grain(m.rows, ctx.pool_size());
            // The standard Cilk port parallelises rows only; a giant
            // powerlaw/arrowhead row stays serial inside its chunk —
            // the granularity failure the paper's §4 exercises.
            tpal_cilk::cilk_for_grained(ctx, 0..m.rows, row_grain, &|_, r| {
                let (lo, hi) = (m.row_ptr[r] as usize, m.row_ptr[r + 1] as usize);
                let mut s = 0i64;
                for k in lo..hi {
                    s = s.wrapping_add(m.vals[k].wrapping_mul(x[m.col_idx[k] as usize]));
                }
                // SAFETY: each row index is written exactly once.
                unsafe { yslice.write(r, s) };
            });
        }
        checksum(&y)
    }
}

impl Workload for Spmv {
    fn name(&self) -> &'static str {
        self.name
    }

    fn prepare(&self, scale: Scale) -> Box<dyn Prepared> {
        let m = self.matrix(scale);
        let x = dense_vector(m.cols, 0xB0B);
        let expected = checksum(&m.spmv_serial(&x));
        Box::new(PreparedSpmv { m, x, expected })
    }

    fn sim_spec(&self, scale: Scale) -> SimSpec {
        let m = self.sim_matrix(scale);
        let x = dense_vector(m.cols, 0xB0B);
        let expected = checksum(&m.spmv_serial(&x));
        SimSpec {
            ir: shipped!("spmv.tpl"),
            input: SimInput::default()
                .array("rp", m.row_ptr.clone())
                .array("ci", m.col_idx.clone())
                .array("vals", m.vals.clone())
                .array("x", x)
                .array("y", vec![0; m.rows])
                .int("rows", m.rows as i64),
            expected,
        }
    }
}
