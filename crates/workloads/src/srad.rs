//! `srad`: speckle-reducing anisotropic diffusion (ported from Rodinia,
//! §4.1; 4k × 4k in the paper). Each round makes two full passes over
//! the image — a gradient/coefficient pass and an update pass — each a
//! parallel loop over rows with a serial column loop, the classic
//! stencil shape. The arithmetic is an integer diffusion preserving the
//! original's memory-access and loop structure.

use tpal_cilk::cilk_for;
use tpal_rt::WorkerCtx;

use crate::inputs::dense_vector;
use crate::{Prepared, Scale, SimInput, SimSpec, Workload};

const ROUNDS: usize = 2;

#[inline]
fn clampi(v: i64, lo: i64, hi: i64) -> i64 {
    v.max(lo).min(hi)
}

/// One diffusion round: `img → out` (integer 4-neighbour diffusion with
/// a data-dependent coefficient, mirroring SRAD's structure).
fn round_serial(img: &[i64], out: &mut [i64], rows: usize, cols: usize) {
    for r in 0..rows {
        for c in 0..cols {
            let at = |rr: i64, cc: i64| {
                let rr = clampi(rr, 0, rows as i64 - 1) as usize;
                let cc = clampi(cc, 0, cols as i64 - 1) as usize;
                img[rr * cols + cc]
            };
            let x = img[r * cols + c];
            let n = at(r as i64 - 1, c as i64);
            let s = at(r as i64 + 1, c as i64);
            let w = at(r as i64, c as i64 - 1);
            let e = at(r as i64, c as i64 + 1);
            let lap = n + s + w + e - 4 * x;
            // Data-dependent diffusion coefficient in [1, 8].
            let coef = 1 + (x.unsigned_abs() % 8) as i64;
            out[r * cols + c] = x + lap * coef / 16;
        }
    }
}

fn srad_serial(initial: &[i64], rows: usize, cols: usize) -> i64 {
    let mut a = initial.to_vec();
    let mut b = vec![0i64; rows * cols];
    for _ in 0..ROUNDS {
        round_serial(&a, &mut b, rows, cols);
        std::mem::swap(&mut a, &mut b);
    }
    image_checksum(&a)
}

fn image_checksum(img: &[i64]) -> i64 {
    let mut h = 0i64;
    for (i, &x) in img.iter().enumerate() {
        h = h.wrapping_add(x.wrapping_mul(1 + (i as i64 % 11)));
    }
    h
}

/// Runs one diffusion round with the row loop parallelised by
/// `run_rows`.
fn round_parallel(
    img: &[i64],
    out: &mut [i64],
    rows: usize,
    cols: usize,
    run_rows: impl FnOnce(&(dyn Fn(usize) + Sync)),
) {
    let optr = crate::SyncPtr::new(out.as_mut_ptr());
    run_rows(&move |r: usize| {
        for c in 0..cols {
            let at = |rr: i64, cc: i64| {
                let rr = clampi(rr, 0, rows as i64 - 1) as usize;
                let cc = clampi(cc, 0, cols as i64 - 1) as usize;
                img[rr * cols + cc]
            };
            let x = img[r * cols + c];
            let n = at(r as i64 - 1, c as i64);
            let s = at(r as i64 + 1, c as i64);
            let w = at(r as i64, c as i64 - 1);
            let e = at(r as i64, c as i64 + 1);
            let lap = n + s + w + e - 4 * x;
            let coef = 1 + (x.unsigned_abs() % 8) as i64;
            // SAFETY: row-disjoint writes.
            unsafe { optr.write(r * cols + c, x + lap * coef / 16) };
        }
    });
}

/// The `srad` workload.
pub struct Srad;

struct PreparedSrad {
    initial: Vec<i64>,
    rows: usize,
    cols: usize,
    expected: i64,
}

impl Prepared for PreparedSrad {
    fn expected(&self) -> i64 {
        self.expected
    }

    fn run_serial(&self) -> i64 {
        srad_serial(&self.initial, self.rows, self.cols)
    }

    fn run_heartbeat(&self, ctx: &WorkerCtx<'_>) -> i64 {
        let (rows, cols) = (self.rows, self.cols);
        let mut a = self.initial.clone();
        let mut b = vec![0i64; rows * cols];
        for _ in 0..ROUNDS {
            round_parallel(&a, &mut b, rows, cols, |row_fn| {
                ctx.parallel_for(0..rows, |_, r| row_fn(r));
            });
            std::mem::swap(&mut a, &mut b);
        }
        image_checksum(&a)
    }

    fn run_cilk(&self, ctx: &WorkerCtx<'_>) -> i64 {
        let (rows, cols) = (self.rows, self.cols);
        let mut a = self.initial.clone();
        let mut b = vec![0i64; rows * cols];
        for _ in 0..ROUNDS {
            round_parallel(&a, &mut b, rows, cols, |row_fn| {
                cilk_for(ctx, 0..rows, &|_, r| row_fn(r));
            });
            std::mem::swap(&mut a, &mut b);
        }
        image_checksum(&a)
    }
}

impl Workload for Srad {
    fn name(&self) -> &'static str {
        "srad"
    }

    fn prepare(&self, scale: Scale) -> Box<dyn Prepared> {
        let (rows, cols) = scale.pick((640, 640), (2048, 2048));
        let initial: Vec<i64> = dense_vector(rows * cols, 0x5EAD)
            .into_iter()
            .map(|x| x.unsigned_abs() as i64 * 16)
            .collect();
        let expected = srad_serial(&initial, rows, cols);
        Box::new(PreparedSrad {
            initial,
            rows,
            cols,
            expected,
        })
    }

    fn sim_spec(&self, scale: Scale) -> SimSpec {
        let (rows, cols) = scale.pick((64, 64), (128, 128));
        let initial: Vec<i64> = dense_vector(rows * cols, 0x5EAD)
            .into_iter()
            .map(|x| x.unsigned_abs() as i64 * 16)
            .collect();
        let expected = srad_serial(&initial, rows, cols);
        SimSpec {
            ir: shipped!("srad.tpl"),
            input: SimInput::default()
                .array("a", initial)
                .array("b", vec![0; rows * cols])
                .int("rows", rows as i64)
                .int("cols", cols as i64),
            expected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diffusion_smooths() {
        // A single spike spreads to its neighbours.
        let mut img = vec![0i64; 25];
        img[12] = 160;
        let mut out = vec![0i64; 25];
        round_serial(&img, &mut out, 5, 5);
        assert!(out[12] < 160);
        assert!(out[7] > 0 && out[11] > 0 && out[13] > 0 && out[17] > 0);
    }

    #[test]
    fn serial_deterministic() {
        let img = dense_vector(100, 3);
        assert_eq!(srad_serial(&img, 10, 10), srad_serial(&img, 10, 10));
    }
}
