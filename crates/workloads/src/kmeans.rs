//! `kmeans`: Lloyd's algorithm over clustered integer points (ported
//! from Rodinia, as in §4.1; 1 million objects in the paper). Each outer
//! iteration assigns every point to its nearest centroid in parallel
//! (the promotable loop) and recomputes centroids serially — like the
//! paper's TPAL port, the parallel phase accumulates into an auxiliary
//! structure rather than the centroids themselves (§4.4).

use tpal_cilk::cilk_reduce;
use tpal_rt::WorkerCtx;

use crate::inputs::kmeans_points;
use crate::{Prepared, Scale, SimInput, SimSpec, Workload};

const DIMS: usize = 4;
const CLUSTERS: usize = 5;
const ROUNDS: usize = 4;

fn dist2(p: &[i64], c: &[i64]) -> i64 {
    let mut s = 0i64;
    for j in 0..DIMS {
        let d = p[j] - c[j];
        s += d * d;
    }
    s
}

fn nearest(p: &[i64], centroids: &[i64]) -> usize {
    let mut best = 0usize;
    let mut bd = i64::MAX;
    for c in 0..CLUSTERS {
        let d = dist2(p, &centroids[c * DIMS..(c + 1) * DIMS]);
        if d < bd {
            bd = d;
            best = c;
        }
    }
    best
}

/// Serial reference: runs `ROUNDS` Lloyd iterations, returns a checksum
/// over final memberships and centroids.
fn kmeans_serial(points: &[i64], n: usize) -> i64 {
    let mut centroids: Vec<i64> = points[..CLUSTERS * DIMS].to_vec();
    let mut members = vec![0i64; n];
    for _ in 0..ROUNDS {
        for i in 0..n {
            members[i] = nearest(&points[i * DIMS..(i + 1) * DIMS], &centroids) as i64;
        }
        recompute(points, n, &members, &mut centroids);
    }
    checksum(&members, &centroids)
}

fn recompute(points: &[i64], n: usize, members: &[i64], centroids: &mut [i64]) {
    let mut sums = [0i64; CLUSTERS * DIMS];
    let mut counts = [0i64; CLUSTERS];
    for i in 0..n {
        let c = members[i] as usize;
        counts[c] += 1;
        for j in 0..DIMS {
            sums[c * DIMS + j] += points[i * DIMS + j];
        }
    }
    for c in 0..CLUSTERS {
        if counts[c] > 0 {
            for j in 0..DIMS {
                centroids[c * DIMS + j] = sums[c * DIMS + j] / counts[c];
            }
        }
    }
}

fn checksum(members: &[i64], centroids: &[i64]) -> i64 {
    let mut h = 0i64;
    for (i, &m) in members.iter().enumerate() {
        h = h.wrapping_add(m.wrapping_mul(1 + (i as i64 % 7)));
    }
    for &c in centroids {
        h = h.wrapping_add(c);
    }
    h
}

/// The `kmeans` workload.
pub struct Kmeans;

struct PreparedKmeans {
    points: Vec<i64>,
    n: usize,
    expected: i64,
}

impl Prepared for PreparedKmeans {
    fn expected(&self) -> i64 {
        self.expected
    }

    fn run_serial(&self) -> i64 {
        kmeans_serial(&self.points, self.n)
    }

    fn run_heartbeat(&self, ctx: &WorkerCtx<'_>) -> i64 {
        let (points, n) = (&self.points, self.n);
        let mut centroids: Vec<i64> = points[..CLUSTERS * DIMS].to_vec();
        let mut members = vec![0i64; n];
        for _ in 0..ROUNDS {
            let c = centroids.clone();
            let mslice = crate::SyncPtr::new(members.as_mut_ptr());
            let mslice = &mslice;
            ctx.parallel_for(0..n, |_, i| {
                let m = nearest(&points[i * DIMS..(i + 1) * DIMS], &c) as i64;
                // SAFETY: each index written exactly once per round.
                unsafe { mslice.write(i, m) };
            });
            recompute(points, n, &members, &mut centroids);
        }
        checksum(&members, &centroids)
    }

    fn run_cilk(&self, ctx: &WorkerCtx<'_>) -> i64 {
        let (points, n) = (&self.points, self.n);
        let mut centroids: Vec<i64> = points[..CLUSTERS * DIMS].to_vec();
        let mut members = vec![0i64; n];
        for _ in 0..ROUNDS {
            let c = centroids.clone();
            let mslice = crate::SyncPtr::new(members.as_mut_ptr());
            let mslice = &mslice;
            // cilk_for over points; reduction unused (membership writes).
            let _ = cilk_reduce(
                ctx,
                0..n,
                0i64,
                &|_, i, acc| {
                    let m = nearest(&points[i * DIMS..(i + 1) * DIMS], &c) as i64;
                    // SAFETY: each index written exactly once per round.
                    unsafe { mslice.write(i, m) };
                    acc
                },
                &|a, b| a + b,
            );
            recompute(points, n, &members, &mut centroids);
        }
        checksum(&members, &centroids)
    }
}

impl Workload for Kmeans {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn prepare(&self, scale: Scale) -> Box<dyn Prepared> {
        let n = scale.pick(150_000, 1_000_000);
        let points = kmeans_points(n, DIMS, CLUSTERS, 0x4B4D);
        let expected = kmeans_serial(&points, n);
        Box::new(PreparedKmeans {
            points,
            n,
            expected,
        })
    }

    fn sim_spec(&self, scale: Scale) -> SimSpec {
        let n = scale.pick(2_500, 12_000);
        let points = kmeans_points(n, DIMS, CLUSTERS, 0x4B4D);
        let expected = kmeans_serial(&points, n);
        SimSpec {
            ir: shipped!("kmeans.tpl"),
            input: SimInput::default()
                .array("pts", points.clone())
                .array("cent", points[..CLUSTERS * DIMS].to_vec())
                .array("mem", vec![0; n])
                .array("sums", vec![0; CLUSTERS * DIMS])
                .array("counts", vec![0; CLUSTERS])
                .int("n", n as i64),
            expected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_kmeans_is_deterministic() {
        let pts = kmeans_points(500, DIMS, CLUSTERS, 1);
        assert_eq!(kmeans_serial(&pts, 500), kmeans_serial(&pts, 500));
    }

    #[test]
    fn nearest_picks_closest() {
        let centroids = vec![
            0, 0, 0, 0, 100, 100, 100, 100, -50, -50, -50, -50, 7, 7, 7, 7, 1, 2, 3, 4,
        ];
        assert_eq!(nearest(&[99, 99, 99, 101], &centroids), 1);
        assert_eq!(nearest(&[-49, -51, -50, -50], &centroids), 2);
    }
}
