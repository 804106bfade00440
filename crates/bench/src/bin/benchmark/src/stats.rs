//! Order statistics for the benchmark: every reported timing is a
//! median with its quartiles and sample count, never a bare minimum.

/// The summary every metric carries: sample count, median and
/// quartiles. A metric that is a single exact value (a count, a
/// derived ratio) has `n == 1` and `q1 == q3 == median`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// A single exact value.
    pub fn exact(v: f64) -> Summary {
        Summary {
            n: 1,
            median: v,
            q1: v,
            q3: v,
        }
    }

    /// Summarises `samples` (any order). Empty input summarises to 0.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                n: 0,
                ..Summary::exact(0.0)
            };
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Summary {
            n: s.len(),
            median: quantile_sorted(&s, 0.5),
            q1: quantile_sorted(&s, 0.25),
            q3: quantile_sorted(&s, 0.75),
        }
    }
}

/// Linear-interpolated quantile of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Quantile of an unsorted slice.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    quantile_sorted(&s, p)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Geometric mean of positive values; 0 for an empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-300).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work has no rate).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The tail of a latency series that damps one-off host stalls: the
/// `p`-quantile of each full segment of `segment` consecutive samples,
/// median across segments. Fewer than two full segments fall back to
/// the quantile of the whole series.
pub fn segmented_quantile(series: &[f64], segment: usize, p: f64) -> Summary {
    let full = series.len() / segment.max(1);
    if full < 2 {
        return Summary {
            n: series.len(),
            ..Summary::exact(quantile(series, p))
        };
    }
    let per_segment: Vec<f64> = series
        .chunks_exact(segment)
        .map(|chunk| quantile(chunk, p))
        .collect();
    Summary {
        n: series.len(),
        ..Summary::of(&per_segment)
    }
}

/// SplitMix64: the benchmark's only randomness, so `--seed` fixes every
/// generated input and every interleaving order.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_linear_interpolation() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!((s.n, s.median, s.q1, s.q3), (5, 3.0, 2.0, 4.0));
        assert_eq!(Summary::of(&[]).n, 0);
    }

    #[test]
    fn segmented_tail_ignores_one_stalled_segment() {
        let mut series = vec![1.0; 3000];
        for x in &mut series[1000..1100] {
            *x = 50.0; // one stall, confined to the middle segment
        }
        assert_eq!(segmented_quantile(&series, 1000, 0.99).median, 1.0);
        assert_eq!(quantile(&series, 0.99), 50.0);
    }

    #[test]
    fn rng_is_a_pure_function_of_its_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut xs: Vec<u32> = (0..50).collect();
        Rng::new(1).shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, sorted);
    }
}
