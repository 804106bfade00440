//! Harnesses regenerating the paper's figures: the simulated ones are
//! one table, [`figures`]; each native `benches/figNN_*.rs` target times
//! one figure with the helpers here (`DESIGN.md` has the index,
//! `EXPERIMENTS.md` the results). All targets honour
//! `TPAL_BENCH_MODE=quick|full` (default `quick`) and print plain text.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

use tpal_workloads::{Scale, Workload};

pub use tpal_workloads::all_workloads;

pub mod figures;

/// The scale selected by `TPAL_BENCH_MODE`.
pub fn scale() -> Scale {
    Scale::from_env()
}

/// Native trial count per measurement at the current scale.
pub fn trials() -> usize {
    match scale() {
        Scale::Quick => 5,
        Scale::Full => 10,
    }
}

/// Times `f`, returning the **minimum** over [`trials`] runs (robust to
/// interference on shared machines) and asserting every run returns
/// `expected`.
pub fn time_native(expected: i64, mut f: impl FnMut() -> i64) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..trials() {
        let t = Instant::now();
        let got = f();
        best = best.min(t.elapsed());
        assert_eq!(got, expected, "benchmark kernel returned a wrong checksum");
    }
    best
}

/// Geometric mean of a slice of ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// A list of workloads.
pub type Workloads = Vec<Box<dyn Workload>>;

/// The paper's twelve workloads, then the three streaming ones. A
/// figure's geomeans cover the twelve only; the streaming rows print
/// below them.
pub fn paper_then_streaming() -> (Workloads, Workloads) {
    all_workloads().into_iter().partition(|w| !w.is_streaming())
}

/// The heading printed above a figure's streaming rows.
pub const STREAMING_ROWS: &str = "\nstreaming workloads (ours; outside the geomeans):";

/// Prints a header banner for a figure.
pub fn banner(fig: &str, what: &str) {
    println!("\n================================================================");
    println!("{fig}: {what}");
    println!(
        "(mode: {:?}; see EXPERIMENTS.md for interpretation)",
        scale()
    );
    println!("================================================================");
}

/// Formats a duration as fractional milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The worker count used for native parallel measurements (the paper
/// uses 15 workers; on a small machine we oversubscribe only modestly).
pub fn native_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .max(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpal_sim::SimConfig;

    #[test]
    fn geomean_of_ones() {
        assert!((geomean(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_mixed() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn sim_runner_checks_expectation() {
        let w = tpal_workloads::workload("plus-reduce-array").unwrap();
        let spec = w.sim_spec(Scale::Quick);
        let out = figures::run_sim(&spec, tpal_ir::lower::Mode::Serial, SimConfig::serial());
        assert!(out.time > 0);
    }
}
