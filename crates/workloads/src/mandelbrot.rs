//! `mandelbrot`: escape-time iteration over a pixel grid (§4.1).
//! Per-pixel work is wildly irregular — points inside the set run the
//! full iteration budget, points far outside escape immediately — which
//! is why the paper needs many tasks to keep cores fed (§4.3).
//!
//! Arithmetic is Q16 fixed point so all four builds produce identical
//! integer results.

use tpal_cilk::cilk_reduce;
use tpal_rt::WorkerCtx;

use crate::{Prepared, Scale, SimInput, SimSpec, Workload};

/// Q16 fixed-point scale.
const FP: i64 = 1 << 16;

/// The view rectangle in Q16: x ∈ [-2.2, 1.0], y ∈ [-1.4, 1.4].
const X0: i64 = -(22 * FP / 10);
const X1: i64 = FP;
const Y0: i64 = -(14 * FP / 10);
const Y1: i64 = 14 * FP / 10;

/// Escape iterations for the pixel at (px, py) on a `w × h` grid.
/// Shared with the streaming `mandelbrot-tiles` workload.
#[inline]
pub(crate) fn pixel_iters(px: i64, py: i64, w: i64, h: i64, max_iter: i64) -> i64 {
    let cx = X0 + (X1 - X0) * px / w;
    let cy = Y0 + (Y1 - Y0) * py / h;
    let mut zx = 0i64;
    let mut zy = 0i64;
    let mut it = 0i64;
    while it < max_iter {
        let zx2 = zx * zx / FP;
        let zy2 = zy * zy / FP;
        if zx2 + zy2 > 4 * FP {
            break;
        }
        let nzx = zx2 - zy2 + cx;
        zy = 2 * zx * zy / FP + cy;
        zx = nzx;
        it += 1;
    }
    it
}

pub(crate) fn row_iters(py: i64, w: i64, h: i64, max_iter: i64) -> i64 {
    let mut s = 0i64;
    for px in 0..w {
        s += pixel_iters(px, py, w, h, max_iter);
    }
    s
}

/// The `mandelbrot` workload.
pub struct Mandelbrot;

struct PreparedMandel {
    w: i64,
    h: i64,
    max_iter: i64,
    expected: i64,
}

impl Prepared for PreparedMandel {
    fn expected(&self) -> i64 {
        self.expected
    }

    fn run_serial(&self) -> i64 {
        let mut s = 0i64;
        for py in 0..self.h {
            s += row_iters(py, self.w, self.h, self.max_iter);
        }
        s
    }

    fn run_heartbeat(&self, ctx: &WorkerCtx<'_>) -> i64 {
        let (w, h, mi) = (self.w, self.h, self.max_iter);
        // Flat loop over pixels: maximal latent parallelism, exactly the
        // "expose everything" philosophy.
        ctx.reduce(
            0..(w * h) as usize,
            0i64,
            |_, p, acc| {
                let (px, py) = (p as i64 % w, p as i64 / w);
                acc + pixel_iters(px, py, w, h, mi)
            },
            |a, b| a + b,
        )
    }

    fn run_cilk(&self, ctx: &WorkerCtx<'_>) -> i64 {
        let (w, h, mi) = (self.w, self.h, self.max_iter);
        cilk_reduce(
            ctx,
            0..(w * h) as usize,
            0i64,
            &|_, p, acc| {
                let (px, py) = (p as i64 % w, p as i64 / w);
                acc + pixel_iters(px, py, w, h, mi)
            },
            &|a, b| a + b,
        )
    }
}

impl Workload for Mandelbrot {
    fn name(&self) -> &'static str {
        "mandelbrot"
    }

    fn prepare(&self, scale: Scale) -> Box<dyn Prepared> {
        let (w, h, max_iter) = scale.pick((512, 512, 96), (2048, 2048, 256));
        let mut expected = 0i64;
        for py in 0..h {
            expected += row_iters(py, w, h, max_iter);
        }
        Box::new(PreparedMandel {
            w,
            h,
            max_iter,
            expected,
        })
    }

    fn sim_spec(&self, scale: Scale) -> SimSpec {
        let (w, h, max_iter) = scale.pick((72, 72, 48), (128, 128, 96));
        let mut expected = 0i64;
        for py in 0..h {
            expected += row_iters(py, w, h, max_iter);
        }
        SimSpec {
            ir: shipped!("mandelbrot.tpl"),
            input: SimInput::default()
                .int("w", w)
                .int("h", h)
                .int("mi", max_iter),
            expected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inner_points_run_full_budget() {
        // (0, 0) in the complex plane is inside the set.
        let w = 100;
        let h = 100;
        // Find the pixel closest to the origin.
        let px = (-X0) * w / (X1 - X0);
        let py = (-Y0) * h / (Y1 - Y0);
        assert_eq!(pixel_iters(px, py, w, h, 500), 500);
    }

    #[test]
    fn outer_points_escape_fast() {
        // Pixel (0,0) maps to the far corner, well outside.
        assert!(pixel_iters(0, 0, 100, 100, 500) < 5);
    }
}
