//! The streaming workloads: pipeline parallelism through bounded FIFO
//! channels and detached (free-running) stages.
//!
//! Three shapes, mirroring the fork-join suite's structure:
//!
//! * `pipeline-tokens` — a three-stage scalar pipeline (source → map →
//!   sink) through two channels: pure pipeline parallelism, no latent
//!   loops at all;
//! * `spmv-stream` — a feeder streams row indices of a powerlaw CSR
//!   matrix to a consumer whose per-row dot product is a *latent
//!   parallel reduction*: the channel-fed stage itself splits on
//!   heartbeats (the giant head rows are where it matters);
//! * `mandelbrot-tiles` — a producer-consumer over tile indices with
//!   the escape-time iteration as the consumer's latent inner loop
//!   (wildly irregular per-tile cost).
//!
//! # Native stage placement
//!
//! Natively every stage is a future, and `tpal_rt::run_stages` polls a
//! pipeline's stages in turn on the calling worker: a full push or an
//! empty pop hands the worker to the next ready stage, as the
//! single-worker machine does, so no stage needs a thread of its own.
//! The parallelism is the heartbeat's: a stage's latent inner loop
//! (`ctx.reduce`, `cilk_reduce`) still promotes onto the pool, while the
//! stage itself stays on its worker — a future that holds a channel is
//! not `Send`.
//!
//! Every channel here is single-producer/single-consumer, so FIFO
//! delivery makes arrival order — and therefore every checksum —
//! schedule-independent.

use tpal_cilk::cilk_reduce;
use tpal_rt::{run_stages, Channel, WorkerCtx};

use crate::inputs::{dense_vector, powerlaw_matrix, CsrMatrix};
use crate::mandelbrot::{pixel_iters, row_iters};
use crate::{Prepared, Scale, SimInput, SimSpec, Workload};

/// Checksum weight for the `k`-th value: `(k & 0xF) + 1`.
#[inline]
fn weight(k: i64) -> i64 {
    (k & 0xF) + 1
}

/// Runs the `feed` stage and the `consume` sink over one channel of
/// `cap` items; returns the sink's result. The feeder owns closing the
/// channel.
fn two_stage(
    cap: usize,
    feed: impl AsyncFnOnce(&Channel),
    consume: impl AsyncFnOnce(&Channel) -> i64,
) -> i64 {
    let ch = Channel::with_capacity(cap);
    run_stages(consume(&ch), vec![Box::pin(feed(&ch))]).expect("the feeder closes its channel")
}

// ---------------------------------------------------------------------
// pipeline-tokens
// ---------------------------------------------------------------------

/// The map stage's transform (kept in exact `i64` range).
#[inline]
fn transform(t: i64) -> i64 {
    (t * t) % 8191 + t * 3
}

/// `pipeline-tokens`: source → map → sink over two bounded channels.
pub struct PipelineTokens;

struct PreparedTokens {
    n: i64,
    cap: usize,
    expected: i64,
}

fn tokens_expected(n: i64) -> i64 {
    let mut h = 0i64;
    for k in 0..n {
        h += transform(k) * weight(k);
    }
    h
}

impl PreparedTokens {
    /// The three-stage pipeline: two detached stages and the sink.
    /// Pure pipeline parallelism (no latent loops), so the heartbeat
    /// and cilk builds share it.
    fn run_pipelined(&self) -> i64 {
        let (n, cap) = (self.n, self.cap);
        let c1 = Channel::with_capacity(cap);
        let c2 = Channel::with_capacity(cap);
        let source = async {
            for i in 0..n {
                c1.push(i).await.expect("source: c1 never closes early");
            }
            c1.close();
        };
        let map = async {
            while let Some(t) = c1.pop().await {
                c2.push(transform(t))
                    .await
                    .expect("map: c2 never closes early");
            }
            c2.close();
        };
        let sink = async {
            let mut h = 0i64;
            let mut k = 0i64;
            while let Some(u) = c2.pop().await {
                h += u * weight(k);
                k += 1;
            }
            h
        };
        run_stages(sink, vec![Box::pin(source), Box::pin(map)])
            .expect("each stage closes the channel it feeds")
    }
}

impl Prepared for PreparedTokens {
    fn expected(&self) -> i64 {
        self.expected
    }

    fn run_serial(&self) -> i64 {
        tokens_expected(self.n)
    }

    fn run_heartbeat(&self, _ctx: &WorkerCtx<'_>) -> i64 {
        self.run_pipelined()
    }

    fn run_cilk(&self, _ctx: &WorkerCtx<'_>) -> i64 {
        self.run_pipelined()
    }
}

impl Workload for PipelineTokens {
    fn name(&self) -> &'static str {
        "pipeline-tokens"
    }

    fn is_streaming(&self) -> bool {
        true
    }

    fn prepare(&self, scale: Scale) -> Box<dyn Prepared> {
        let n = scale.pick(200_000, 2_000_000);
        Box::new(PreparedTokens {
            n,
            cap: 256,
            expected: tokens_expected(n),
        })
    }

    fn sim_spec(&self, scale: Scale) -> SimSpec {
        let n = scale.pick(1_200, 6_000);
        SimSpec {
            ir: shipped!("pipeline-tokens.tpl"),
            input: SimInput::default().int("n", n),
            expected: tokens_expected(n),
        }
    }
}

// ---------------------------------------------------------------------
// spmv-stream
// ---------------------------------------------------------------------

/// `spmv-stream`: a feeder streams row indices, the consumer's per-row
/// dot product is a latent parallel reduction.
pub struct SpmvStream;

struct PreparedSpmvStream {
    m: CsrMatrix,
    x: Vec<i64>,
    expected: i64,
}

fn spmv_stream_checksum(m: &CsrMatrix, x: &[i64]) -> i64 {
    let y = m.spmv_serial(x);
    let mut total = 0i64;
    for (r, &s) in y.iter().enumerate() {
        total = total.wrapping_add(s.wrapping_mul(weight(r as i64)));
    }
    total
}

impl PreparedSpmvStream {
    async fn feed(&self, ch: &Channel) {
        for r in 0..self.m.rows as i64 {
            ch.push(r)
                .await
                .expect("spmv feeder: channel never closes early");
        }
        ch.close();
    }

    fn row_dot_serial(&self, r: usize) -> i64 {
        let (lo, hi) = (self.m.row_ptr[r] as usize, self.m.row_ptr[r + 1] as usize);
        let mut s = 0i64;
        for k in lo..hi {
            s = s.wrapping_add(self.m.vals[k].wrapping_mul(self.x[self.m.col_idx[k] as usize]));
        }
        s
    }
}

impl Prepared for PreparedSpmvStream {
    fn expected(&self) -> i64 {
        self.expected
    }

    fn run_serial(&self) -> i64 {
        spmv_stream_checksum(&self.m, &self.x)
    }

    fn run_heartbeat(&self, ctx: &WorkerCtx<'_>) -> i64 {
        two_stage(
            64,
            async |ch| self.feed(ch).await,
            async |ch| {
                let (m, x) = (&self.m, &self.x);
                let mut total = 0i64;
                while let Some(r) = ch.pop().await {
                    let (lo, hi) = (
                        m.row_ptr[r as usize] as usize,
                        m.row_ptr[r as usize + 1] as usize,
                    );
                    // The channel-fed stage's inner loop is latent: a
                    // giant powerlaw row splits on heartbeats.
                    let s = ctx.reduce(
                        lo..hi,
                        0i64,
                        |_, k, acc| {
                            acc.wrapping_add(m.vals[k].wrapping_mul(x[m.col_idx[k] as usize]))
                        },
                        |a, b| a.wrapping_add(b),
                    );
                    total = total.wrapping_add(s.wrapping_mul(weight(r)));
                }
                total
            },
        )
    }

    fn run_cilk(&self, _ctx: &WorkerCtx<'_>) -> i64 {
        two_stage(
            64,
            async |ch| self.feed(ch).await,
            async |ch| {
                // The Cilk port keeps rows serial inside the consumer —
                // the same row-granularity limitation as plain `spmv`.
                let mut total = 0i64;
                while let Some(r) = ch.pop().await {
                    total =
                        total.wrapping_add(self.row_dot_serial(r as usize).wrapping_mul(weight(r)));
                }
                total
            },
        )
    }
}

impl Workload for SpmvStream {
    fn name(&self) -> &'static str {
        "spmv-stream"
    }

    fn is_streaming(&self) -> bool {
        true
    }

    fn prepare(&self, scale: Scale) -> Box<dyn Prepared> {
        let (rows, nnz) = scale.pick((20_000, 500_000), (200_000, 8_000_000));
        let m = powerlaw_matrix(rows, rows, nnz, 0x57_2EA1);
        let x = dense_vector(m.cols, 0xB0B);
        let expected = spmv_stream_checksum(&m, &x);
        Box::new(PreparedSpmvStream { m, x, expected })
    }

    fn sim_spec(&self, scale: Scale) -> SimSpec {
        let (rows, nnz) = scale.pick((220, 7_000), (1_500, 60_000));
        let m = powerlaw_matrix(rows, rows, nnz, 0x57_2EA1);
        let x = dense_vector(m.cols, 0xB0B);
        let expected = spmv_stream_checksum(&m, &x);
        SimSpec {
            ir: shipped!("spmv-stream.tpl"),
            input: SimInput::default()
                .array("rp", m.row_ptr.clone())
                .array("ci", m.col_idx.clone())
                .array("vals", m.vals.clone())
                .array("x", x)
                .int("rows", m.rows as i64),
            expected,
        }
    }
}

// ---------------------------------------------------------------------
// mandelbrot-tiles
// ---------------------------------------------------------------------

/// `mandelbrot-tiles`: a producer streams tile indices, the consumer
/// renders each tile with the escape-time iteration as its latent
/// inner loop.
pub struct MandelbrotTiles;

struct PreparedTiles {
    w: i64,
    h: i64,
    max_iter: i64,
    /// Tile height in pixel rows (`h` is a multiple of it).
    th: i64,
    expected: i64,
}

impl PreparedTiles {
    fn tiles(&self) -> i64 {
        self.h / self.th
    }

    async fn feed(&self, ch: &Channel) {
        for t in 0..self.tiles() {
            ch.push(t)
                .await
                .expect("tile feeder: channel never closes early");
        }
        ch.close();
    }
}

impl Prepared for PreparedTiles {
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
        let (w, h, mi, th) = (self.w, self.h, self.max_iter, self.th);
        two_stage(
            4,
            async |ch| self.feed(ch).await,
            async |ch| {
                let mut total = 0i64;
                while let Some(t) = ch.pop().await {
                    // The tile's pixels are a latent flat reduction.
                    total += ctx.reduce(
                        (t * th * w) as usize..((t + 1) * th * w) as usize,
                        0i64,
                        |_, p, acc| {
                            let (px, py) = (p as i64 % w, p as i64 / w);
                            acc + pixel_iters(px, py, w, h, mi)
                        },
                        |a, b| a + b,
                    );
                }
                total
            },
        )
    }

    fn run_cilk(&self, ctx: &WorkerCtx<'_>) -> i64 {
        let (w, h, mi, th) = (self.w, self.h, self.max_iter, self.th);
        two_stage(
            4,
            async |ch| self.feed(ch).await,
            async |ch| {
                let mut total = 0i64;
                while let Some(t) = ch.pop().await {
                    total += cilk_reduce(
                        ctx,
                        (t * th * w) as usize..((t + 1) * th * w) as usize,
                        0i64,
                        &|_, p, acc| {
                            let (px, py) = (p as i64 % w, p as i64 / w);
                            acc + pixel_iters(px, py, w, h, mi)
                        },
                        &|a, b| a + b,
                    );
                }
                total
            },
        )
    }
}

impl Workload for MandelbrotTiles {
    fn name(&self) -> &'static str {
        "mandelbrot-tiles"
    }

    fn is_streaming(&self) -> bool {
        true
    }

    fn prepare(&self, scale: Scale) -> Box<dyn Prepared> {
        let (w, h, max_iter, th) = scale.pick((384, 384, 80, 32), (1536, 1536, 256, 64));
        let mut expected = 0i64;
        for py in 0..h {
            expected += row_iters(py, w, h, max_iter);
        }
        Box::new(PreparedTiles {
            w,
            h,
            max_iter,
            th,
            expected,
        })
    }

    fn sim_spec(&self, scale: Scale) -> SimSpec {
        let (w, h, max_iter, th) = scale.pick((64, 64, 40, 8), (96, 96, 64, 8));
        let mut expected = 0i64;
        for py in 0..h {
            expected += row_iters(py, w, h, max_iter);
        }
        SimSpec {
            ir: shipped!("mandelbrot-tiles.tpl"),
            input: SimInput::default()
                .int("mw", w)
                .int("mh", h)
                .int("mmi", max_iter)
                .int("mth", th),
            expected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpal_rt::{RtConfig, Runtime};

    /// The native three-stage pipeline really streams (the producer
    /// pends on the tiny channel when full, the consumer when empty) and
    /// still matches the fused serial checksum.
    #[test]
    fn native_token_pipeline_matches_serial() {
        let p = PreparedTokens {
            n: 50_000,
            cap: 2, // tiny: force both pending directions
            expected: tokens_expected(50_000),
        };
        assert_eq!(p.run_serial(), p.expected());
        let rt = Runtime::new(RtConfig::default().workers(2));
        assert_eq!(rt.run(|ctx| p.run_heartbeat(ctx)), p.expected());
    }

    /// The channel-fed consumer's latent reduction promotes onto the
    /// pool between pops: result stays exact on a multi-worker pool with
    /// a fast heartbeat.
    #[test]
    fn native_spmv_stream_with_promotions() {
        let w = SpmvStream;
        let p = w.prepare(Scale::Quick);
        let rt = Runtime::new(
            RtConfig::default()
                .workers(4)
                .source(tpal_rt::HeartbeatSource::LocalTimer)
                .heartbeat(std::time::Duration::from_micros(50)),
        );
        assert_eq!(rt.run(|ctx| p.run_heartbeat(ctx)), p.expected());
    }
}
