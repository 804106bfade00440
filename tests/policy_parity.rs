//! Cross-domain policy parity: one shared [`Promotion`] value must induce
//! the same qualitative scheduling behaviour in both execution domains —
//! the simulator's deterministic cycle domain and the native runtime's
//! RDTSC tick domain.
//!
//! The same value is handed to `SimConfig` and `RtConfig`; the suite
//! then checks the ordering that defines each promotion rule's meaning:
//!
//! * `never`  — zero promotions (the "interrupts only" configuration),
//! * `heartbeat` — promotions gated on delivered beats,
//! * `eager` — promotions at (nearly) every promotion-ready point,
//!
//! with **exact** assertions in the simulator (it is deterministic: the
//! counts are reproducible bit for bit) and **tolerance-banded**
//! assertions in the native runtime (wall-clock beats make the counts
//! noisy, but the bands that separate the policies are orders of
//! magnitude wide).

use std::time::Duration;

use tpal::ir::lower::{lower, Mode};
use tpal::rt::{HeartbeatSource, RtConfig, RtStats, Runtime};
use tpal::sim::{Domain, Promotion, Sim, SimConfig, SimStats};
use tpal::workloads::{workload, Scale};

/// The shared promotion rules under test — used verbatim in both
/// domains.
fn shared_policies() -> [(&'static str, Promotion); 3] {
    Promotion::ALL.map(|p| (p.name(), p))
}

/// Runs the quick plus-reduce workload on the simulator under `policy`
/// and returns the run's stats, asserting the checksum.
fn sim_stats(policy: Promotion) -> SimStats {
    let spec = workload("plus-reduce-array")
        .expect("known workload")
        .sim_spec(Scale::Quick);
    let lowered = lower(&spec.ir, Mode::Heartbeat).unwrap();
    let mut config = SimConfig::nautilus(4, 3_000);
    config.promotion = policy;
    let mut sim = Sim::new(&lowered.program, config);
    for (pname, data) in &spec.input.arrays {
        let base = sim.alloc_array(data);
        sim.set_reg(&lowered.param_reg(pname), base).unwrap();
    }
    for (pname, v) in &spec.input.ints {
        sim.set_reg(&lowered.param_reg(pname), *v).unwrap();
    }
    let out = sim.run().unwrap();
    assert_eq!(
        out.read_reg(&lowered.result_reg),
        Some(spec.expected),
        "checksum under {}",
        policy.label(Domain::Sim)
    );
    out.stats
}

const RT_N: usize = 200_000;
const RT_STRIDE: usize = 32;

/// Runs a latent reduce on the native runtime under `policy` and
/// `source`, and returns the run's stats, asserting the sum. The
/// heartbeat interval is deliberately long (10 ms) so heartbeat-gated
/// promotions stay far below eager's per-poll-block promotions. The
/// adaptive pacer is off: the eager floor below counts promotion-ready
/// points per fixed `RT_STRIDE` block, which coarsened strides would
/// erase.
fn rt_stats(policy: Promotion, source: HeartbeatSource) -> RtStats {
    let rt = Runtime::new(
        RtConfig::default()
            .workers(2)
            .heartbeat(Duration::from_millis(10))
            .source(source)
            .poll_stride(RT_STRIDE)
            .poll_adaptive(false)
            .promotion(policy),
    );
    let total = rt.run(|ctx| ctx.reduce(0..RT_N, 0u64, |_, i, acc| acc + i as u64, |a, b| a + b));
    assert_eq!(
        total,
        (RT_N as u64 - 1) * RT_N as u64 / 2,
        "sum under {}",
        policy.label(Domain::Rt)
    );
    rt.stats()
}

/// Simulator domain, exact: the policy ordering holds with
/// deterministic, reproducible counts.
#[test]
fn sim_policies_order_promotions_exactly() {
    let [(_, hb), (_, eager), (_, never)] = shared_policies();
    let hb = sim_stats(hb);
    let eager = sim_stats(eager);
    let never = sim_stats(never);

    // `never` runs the heartbeat-lowered program fully serially: no
    // promotions, hence no tasks and nothing to steal — but beats are
    // still *delivered* (the mechanism runs; the policy declines).
    assert_eq!(never.promotions, 0);
    assert_eq!(never.forks, 0);
    assert_eq!(never.steals, 0);
    assert!(never.heartbeats_delivered > 0, "delivery is policy-free");

    // `heartbeat` promotes only on delivered beats.
    assert!(hb.promotions > 0);
    assert!(hb.promotions <= hb.heartbeats_delivered);

    // `eager` promotes at every promotion-ready point it can.
    assert!(
        eager.promotions > hb.promotions,
        "eager {} vs heartbeat {}",
        eager.promotions,
        hb.promotions
    );
}

/// Simulator runs are bit-reproducible per policy: the *exact* half of
/// the cross-domain contract.
#[test]
fn sim_policy_runs_are_reproducible() {
    for (name, policy) in shared_policies() {
        assert_eq!(sim_stats(policy), sim_stats(policy), "policy {name}");
    }
}

/// Native-runtime domain, tolerance-banded: the same three policy
/// objects produce the same ordering, with bands wide enough for
/// wall-clock noise.
#[test]
fn rt_policies_order_promotions_within_bands() {
    rt_policy_bands(HeartbeatSource::LocalTimer);
}

/// The same policy ordering must hold when beats arrive as real POSIX
/// timer signals instead of polled deadlines — the delivery mechanism
/// is orthogonal to the promotion policy.
#[test]
fn rt_policies_order_promotions_within_bands_signal_backend() {
    rt_policy_bands(HeartbeatSource::TimerSignal);
}

fn rt_policy_bands(source: HeartbeatSource) {
    let [(_, hb), (_, eager), (_, never)] = shared_policies();
    let hb = rt_stats(hb, source);
    let eager = rt_stats(eager, source);
    let never = rt_stats(never, source);

    // Never: exactly zero even in the noisy domain.
    assert_eq!(never.promotions, 0);

    // Eager promotes once per poll block that still has work to split;
    // the floor leaves an 8x band below the nominal N/stride rate.
    let eager_floor = (RT_N / (8 * RT_STRIDE)) as u64;
    assert!(
        eager.promotions >= eager_floor,
        "eager promotions {} below floor {eager_floor}",
        eager.promotions
    );

    // A 10 ms heartbeat admits at most a handful of beats into a
    // sub-millisecond reduce; eager must sit far above it.
    assert!(
        eager.promotions > hb.promotions,
        "eager {} vs heartbeat {}",
        eager.promotions,
        hb.promotions
    );
    assert!(
        hb.promotions < eager_floor / 2,
        "heartbeat promotions {} not separated from eager floor {eager_floor}",
        hb.promotions
    );
}

/// A signal storm: beats every 50µs on every worker, across many
/// back-to-back runs. Checksums must hold throughout, and the beat
/// accounting must balance — a serviced beat consumes exactly one
/// delivered flag, so servicing can never exceed delivery (a duplicated
/// beat), while a wedged handler or lost installation would show up as
/// zero deliveries over a multi-millisecond storm.
#[test]
fn rt_signal_storm_keeps_checksums_and_beat_accounting() {
    let rt = Runtime::new(
        RtConfig::default()
            .workers(2)
            .heartbeat(Duration::from_micros(50))
            .source(HeartbeatSource::TimerSignal)
            .promotion(Promotion::Heartbeat),
    );
    for round in 0..20usize {
        let n = 400_000 + round * 10_000;
        let total =
            rt.run(move |ctx| ctx.reduce(0..n, 0u64, |_, i, acc| acc + i as u64, |a, b| a + b));
        assert_eq!(
            total,
            (n as u64 - 1) * n as u64 / 2,
            "checksum in storm round {round}"
        );
    }
    let s = rt.stats();
    assert!(
        s.heartbeats_delivered > 0,
        "a 50µs storm over 20 runs must deliver: {s:?}"
    );
    assert!(
        s.heartbeats_serviced <= s.heartbeats_delivered,
        "serviced {} beats but only {} delivered: a beat was duplicated",
        s.heartbeats_serviced,
        s.heartbeats_delivered
    );
    assert!(
        s.promotions <= s.heartbeats_serviced,
        "heartbeat policy promotes at most once per serviced beat: {s:?}"
    );
}
