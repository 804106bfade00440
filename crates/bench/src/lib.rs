//! Shared harness utilities for the figure-reproduction benchmarks.
//!
//! Each `benches/figNN_*.rs` target regenerates one table or figure of
//! the paper (see `DESIGN.md` for the index and `EXPERIMENTS.md` for
//! recorded results). All targets honour `TPAL_BENCH_MODE=quick|full`
//! (default `quick`) and print plain-text tables to stdout.

#![warn(missing_docs)]

use std::time::{Duration, Instant};

use tpal_ir::lower::{lower, Mode};
use tpal_sim::{Sim, SimConfig, SimOutcome};
use tpal_workloads::{Scale, SimSpec};

pub use tpal_workloads::all_workloads;

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

/// Runs a workload's simulator spec in the given mode/config, asserting
/// the checksum.
pub fn run_sim(spec: &SimSpec, mode: Mode, config: SimConfig) -> SimOutcome {
    let lowered = lower(&spec.ir, mode).expect("lowering");
    let mut sim = Sim::new(&lowered.program, config);
    for (name, data) in &spec.input.arrays {
        let base = sim.alloc_array(data);
        sim.set_reg(&lowered.param_reg(name), base)
            .expect("array param");
    }
    for (name, v) in &spec.input.ints {
        sim.set_reg(&lowered.param_reg(name), *v)
            .expect("int param");
    }
    let out = sim.run().expect("simulation");
    assert_eq!(
        out.read_reg(&lowered.result_reg),
        Some(spec.expected),
        "simulated checksum mismatch"
    );
    out
}

/// The simulated serial-baseline makespan of a spec (1 core, serial
/// lowering, no interrupts).
pub fn sim_serial_time(spec: &SimSpec) -> u64 {
    run_sim(spec, Mode::Serial, SimConfig::serial()).time
}

/// Geometric mean of a slice of ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

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

/// The simulated core count of the paper's full-scale runs.
pub const SIM_CORES: usize = 15;

/// The default simulated heartbeat ♥ in cycles (tuned by the
/// `heartbeat_tuner` bench, mirroring §4.2's 100µs).
pub const SIM_HEARTBEAT: u64 = 3_000;

/// The "aggressive" simulated heartbeat, mirroring the paper's 20µs.
pub const SIM_HEARTBEAT_FAST: u64 = 600;

#[cfg(test)]
mod tests {
    use super::*;

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
        let t = sim_serial_time(&spec);
        assert!(t > 0);
    }
}
