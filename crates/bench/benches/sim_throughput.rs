//! Simulated instructions per second of the event-driven engine
//! ([`Sim`]) at each **execution tier** (reference interpreter, decoded
//! micro-ops, decoded micro-ops + loop templates) versus the cycle-tick
//! reference
//! ([`SimRef`]), at the paper's 15 cores, over four workload shapes:
//! flat reduction (`plus-reduce-array`), nested loops
//! (`floyd-warshall-small`), irregular fork-join recursion
//! (`mergesort-uniform`), and an escape-time flat loop with
//! data-dependent trip counts (`mandelbrot`). Writes
//! `BENCH_sim_throughput.json` at the repo root (atomically: temp file
//! in the same directory, then rename) with per-tier throughput
//! columns, the threaded-over-decoded speedup, the decoded tier's
//! throughput relative to the pre-trace baseline (the
//! zero-cost-when-off check), the slowdown with structured tracing
//! recording, and a scheduling-policy sweep (`heartbeat` vs `eager` vs
//! `never` promotion on the flat and nested shapes) tracking what each
//! policy costs the simulator hot path.
//!
//! The channel extension adds a `streaming` row group: per-tier
//! throughput on the channel/detach pipeline workloads together with
//! their channel-traffic counters (pushes, pops, blocked attempts,
//! detaches), so a regression in the park/wake path shows up as a
//! throughput drop on rows whose traffic shape is recorded next to it.
//!
//! With `TPAL_BENCH_SMOKE=1` the bench runs each workload once per
//! engine *per tier* and asserts they all agree — a CI-sized canary for
//! decode/template-install regressions (panics, equivalence drift under
//! `debug_assertions`) — including one streaming workload, so channel
//! parks, wakes, and detached-task retirement stay schedule-identical
//! across tiers in CI too, without criterion sampling and without
//! touching the JSON record.

use criterion::{criterion_group, Criterion, Throughput};

use tpal_bench::write_atomic;
use tpal_ir::lower::{lower, Mode};
use tpal_sim::{ExecTier, Policy, Sim, SimConfig, SimRef};
use tpal_workloads::{workload, Scale};

const CASES: [&str; 4] = [
    "plus-reduce-array",
    "floyd-warshall-small",
    "mergesort-uniform",
    "mandelbrot",
];

/// The streaming (channel + detach) cases: a pure 3-stage token
/// pipeline, a channel-fed sparse matrix-vector product, and a
/// tile-streamed escape-time render. These stay out of [`CASES`]: their
/// rows carry channel-traffic counters and have no pre-trace baseline.
/// Smoke mode runs the first on every tier.
const STREAMING_CASES: [&str; 3] = ["pipeline-tokens", "spmv-stream", "mandelbrot-tiles"];

/// The policy sweep: one flat and one nested shape, under the three
/// promotion policies whose costs bracket the design space.
const SWEEP_CASES: [&str; 2] = ["plus-reduce-array", "floyd-warshall-small"];
const SWEEP_POLICIES: [&str; 3] = ["heartbeat", "eager", "never"];

/// Decoded-tier throughput (instr/s) recorded by the previous bench run
/// on this machine, before the trace subsystem landed. The decoded
/// column of the JSON record reports the relative change against these —
/// the "tracing off costs nothing" regression check, now also guarding
/// the dispatch loop both compiled tiers share.
const BASELINE_INSTR_PER_SEC: [(&str, f64); 4] = [
    ("plus-reduce-array", 186_024_958.0),
    ("floyd-warshall-small", 212_638_181.0),
    ("mergesort-uniform", 207_766_463.0),
    ("mandelbrot", 180_049_343.0),
];

fn config() -> SimConfig {
    SimConfig::nautilus(15, 3_000)
}

fn tier_config(tier: ExecTier) -> SimConfig {
    let mut cfg = config();
    cfg.exec_tier = tier;
    cfg
}

/// Builds, seeds, and runs one simulator engine on a workload spec.
macro_rules! run_engine {
    ($engine:ident, $lowered:expr, $spec:expr, $config:expr) => {{
        let mut sim = $engine::new(&$lowered.program, $config);
        for (name, data) in &$spec.input.arrays {
            let base = sim.alloc_array(data);
            sim.set_reg(&$lowered.param_reg(name), base).unwrap();
        }
        for (name, v) in &$spec.input.ints {
            sim.set_reg(&$lowered.param_reg(name), *v).unwrap();
        }
        sim.run().unwrap()
    }};
}

/// One engine-agreement pass over every case and every tier: each
/// tier's stats must equal the cycle-tick reference's under the bench
/// configuration.
fn check_equivalence() {
    for name in CASES {
        let spec = workload(name)
            .expect("known workload")
            .sim_spec(Scale::Quick);
        let lowered = lower(&spec.ir, Mode::Heartbeat).unwrap();
        let ref_out = run_engine!(SimRef, lowered, spec, config());
        for tier in ExecTier::ALL {
            let new_out = run_engine!(Sim, lowered, spec, tier_config(tier));
            assert_eq!(
                new_out.stats, ref_out.stats,
                "{name} [{tier}]: engines diverged under bench config"
            );
        }
        println!(
            "sim_throughput smoke {name}: {} instrs, all tiers agree",
            ref_out.stats.instructions
        );
    }

    // One streaming workload on every tier: channel parks, wakes, and
    // detached-task retirement must be schedule-identical across tiers
    // under the bench configuration too.
    let name = STREAMING_CASES[0];
    let spec = workload(name)
        .expect("known workload")
        .sim_spec(Scale::Quick);
    let lowered = lower(&spec.ir, Mode::Heartbeat).unwrap();
    let ref_out = run_engine!(SimRef, lowered, spec, config());
    for tier in ExecTier::ALL {
        let new_out = run_engine!(Sim, lowered, spec, tier_config(tier));
        assert_eq!(
            new_out.stats, ref_out.stats,
            "{name} [{tier}]: engines diverged under bench config"
        );
    }
    println!(
        "sim_throughput smoke {name}: {} instrs, {} chan pushes, \
         {} blocked attempts, all tiers agree",
        ref_out.stats.instructions, ref_out.stats.chan_pushes, ref_out.stats.chan_blocks
    );
}

fn bench_sim_throughput(c: &mut Criterion) {
    let config = config();

    let mut g = c.benchmark_group("sim_throughput");
    for name in CASES {
        let spec = workload(name)
            .expect("known workload")
            .sim_spec(Scale::Quick);
        let lowered = lower(&spec.ir, Mode::Heartbeat).unwrap();
        let instructions = run_engine!(Sim, lowered, spec, config).stats.instructions;
        g.throughput(Throughput::Elements(instructions));
        for tier in ExecTier::ALL {
            let cfg = tier_config(tier);
            g.bench_function(&format!("{name}/tier_{tier}"), |b| {
                b.iter(|| run_engine!(Sim, lowered, spec, cfg).stats.instructions)
            });
        }
        g.bench_function(&format!("{name}/cycle_tick_ref"), |b| {
            b.iter(|| {
                run_engine!(SimRef, lowered, spec, config)
                    .stats
                    .instructions
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("sim_streaming");
    for name in STREAMING_CASES {
        let spec = workload(name)
            .expect("known workload")
            .sim_spec(Scale::Quick);
        let lowered = lower(&spec.ir, Mode::Heartbeat).unwrap();
        let instructions = run_engine!(Sim, lowered, spec, config).stats.instructions;
        g.throughput(Throughput::Elements(instructions));
        for tier in ExecTier::ALL {
            let cfg = tier_config(tier);
            g.bench_function(&format!("{name}/tier_{tier}"), |b| {
                b.iter(|| run_engine!(Sim, lowered, spec, cfg).stats.instructions)
            });
        }
    }
    g.finish();

    let mut g = c.benchmark_group("sim_policy_sweep");
    for name in SWEEP_CASES {
        let spec = workload(name)
            .expect("known workload")
            .sim_spec(Scale::Quick);
        let lowered = lower(&spec.ir, Mode::Heartbeat).unwrap();
        for pname in SWEEP_POLICIES {
            let mut cfg = config;
            cfg.policy = Policy::parse(pname).unwrap();
            g.bench_function(&format!("{name}/{pname}"), |b| {
                b.iter(|| run_engine!(Sim, lowered, spec, cfg).stats.instructions)
            });
        }
    }
    g.finish();

    // Direct timed comparison for the JSON record (the criterion samples
    // above are for humans, this is for the regression file). All
    // engines' samples are interleaved and the minimum is kept:
    // run-to-run noise on a shared machine is strictly additive, so
    // min-of-N is the robust estimator for a deterministic
    // single-threaded run, and interleaving keeps a noisy phase from
    // landing entirely on one engine.
    let mut entries = Vec::new();
    for name in CASES {
        let spec = workload(name)
            .expect("known workload")
            .sim_spec(Scale::Quick);
        let lowered = lower(&spec.ir, Mode::Heartbeat).unwrap();

        let ref_out = run_engine!(SimRef, lowered, spec, config);
        for tier in ExecTier::ALL {
            let new_out = run_engine!(Sim, lowered, spec, tier_config(tier));
            assert_eq!(
                new_out.stats, ref_out.stats,
                "{name} [{tier}]: engines diverged under bench config"
            );
        }
        let instructions = ref_out.stats.instructions;
        let mut traced_config = tier_config(ExecTier::Threaded);
        traced_config.record_trace = true;
        let mut tier_ns = [u128::MAX; 3];
        let mut ref_ns = u128::MAX;
        let mut traced_ns = u128::MAX;
        for _ in 0..7 {
            for (k, tier) in ExecTier::ALL.into_iter().enumerate() {
                let cfg = tier_config(tier);
                let start = std::time::Instant::now();
                std::hint::black_box(run_engine!(Sim, lowered, spec, cfg).stats.instructions);
                tier_ns[k] = tier_ns[k].min(start.elapsed().as_nanos());
            }
            let start = std::time::Instant::now();
            std::hint::black_box(
                run_engine!(SimRef, lowered, spec, config)
                    .stats
                    .instructions,
            );
            ref_ns = ref_ns.min(start.elapsed().as_nanos());
            let start = std::time::Instant::now();
            std::hint::black_box(
                run_engine!(Sim, lowered, spec, traced_config)
                    .stats
                    .instructions,
            );
            traced_ns = traced_ns.min(start.elapsed().as_nanos());
        }
        let [interp_ns, decoded_ns, threaded_ns] = tier_ns;
        let speedup = ref_ns as f64 / threaded_ns.max(1) as f64;
        let threaded_vs_decoded = decoded_ns as f64 / threaded_ns.max(1) as f64;
        let ips = |ns: u128| instructions as f64 * 1e9 / ns.max(1) as f64;
        let baseline = BASELINE_INSTR_PER_SEC
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, b)| *b)
            .expect("baseline recorded for every case");
        // Positive = decoded tier faster than the pre-trace baseline run.
        let decoded_vs_baseline_pct = (ips(decoded_ns) / baseline - 1.0) * 100.0;
        let tracing_overhead_pct = (traced_ns as f64 / threaded_ns.max(1) as f64 - 1.0) * 100.0;
        println!(
            "sim_throughput {name}: {instructions} instrs, \
             interp {:.1} / decoded {:.1} / threaded {:.1} Minstr/s \
             (threaded {threaded_vs_decoded:.2}x decoded, \
             decoded {decoded_vs_baseline_pct:+.1}% vs pre-trace baseline), \
             cycle-tick ref {:.1} Minstr/s, speedup {speedup:.1}x, \
             tracing on {tracing_overhead_pct:+.1}%",
            ips(interp_ns) / 1e6,
            ips(decoded_ns) / 1e6,
            ips(threaded_ns) / 1e6,
            ips(ref_ns) / 1e6,
        );
        entries.push(format!(
            "    {{\n      \"workload\": \"{name}\",\n      \"instructions\": {instructions},\n      \
             \"tier_ref_ns\": {interp_ns},\n      \
             \"tier_decoded_ns\": {decoded_ns},\n      \
             \"tier_threaded_ns\": {threaded_ns},\n      \
             \"cycle_tick_ref_ns\": {ref_ns},\n      \
             \"tier_threaded_traced_ns\": {traced_ns},\n      \
             \"tier_ref_instr_per_sec\": {:.0},\n      \
             \"tier_decoded_instr_per_sec\": {:.0},\n      \
             \"tier_threaded_instr_per_sec\": {:.0},\n      \
             \"cycle_tick_ref_instr_per_sec\": {:.0},\n      \
             \"speedup\": {speedup:.2},\n      \
             \"threaded_speedup_vs_decoded\": {threaded_vs_decoded:.2},\n      \
             \"decoded_vs_baseline_pct\": {decoded_vs_baseline_pct:.2},\n      \
             \"tracing_on_overhead_pct\": {tracing_overhead_pct:.2}\n    }}",
            ips(interp_ns),
            ips(decoded_ns),
            ips(threaded_ns),
            ips(ref_ns),
        ));
    }
    // Scheduling-policy sweep: same min-of-N estimator, event engine
    // at the default (threaded) tier only (the equivalence suite covers
    // engine agreement per policy). Eager runs more instructions (every
    // handler runs) and never runs fewer (no handlers at all), so each
    // row records its own count.
    let mut sweep_entries = Vec::new();
    for name in SWEEP_CASES {
        let spec = workload(name)
            .expect("known workload")
            .sim_spec(Scale::Quick);
        let lowered = lower(&spec.ir, Mode::Heartbeat).unwrap();
        for pname in SWEEP_POLICIES {
            let mut cfg = config;
            cfg.policy = Policy::parse(pname).unwrap();
            let out = run_engine!(Sim, lowered, spec, cfg);
            let instructions = out.stats.instructions;
            let promotions = out.stats.promotions;
            let mut ns = u128::MAX;
            for _ in 0..5 {
                let start = std::time::Instant::now();
                std::hint::black_box(run_engine!(Sim, lowered, spec, cfg).stats.instructions);
                ns = ns.min(start.elapsed().as_nanos());
            }
            let ips = instructions as f64 * 1e9 / ns.max(1) as f64;
            println!(
                "sim_policy_sweep {name}/{pname}: {instructions} instrs, \
                 {promotions} promotions, {:.1} Minstr/s",
                ips / 1e6
            );
            sweep_entries.push(format!(
                "    {{\n      \"workload\": \"{name}\",\n      \"policy\": \"{pname}\",\n      \
                 \"instructions\": {instructions},\n      \"promotions\": {promotions},\n      \
                 \"event_engine_ns\": {ns},\n      \
                 \"event_engine_instr_per_sec\": {ips:.0}\n    }}"
            ));
        }
    }

    // Streaming row group: per-tier throughput on the channel/detach
    // workloads, with the channel-traffic shape (pushes, pops, blocked
    // attempts, detaches) recorded next to the numbers — a park/wake
    // hot-path regression shows up as a throughput drop on rows whose
    // traffic volume is pinned beside it. Same tier-agreement assert
    // and min-of-N estimator as the main table; no pre-trace baseline
    // column (these workloads postdate the trace subsystem).
    let mut streaming_entries = Vec::new();
    for name in STREAMING_CASES {
        let spec = workload(name)
            .expect("known workload")
            .sim_spec(Scale::Quick);
        let lowered = lower(&spec.ir, Mode::Heartbeat).unwrap();

        let ref_out = run_engine!(SimRef, lowered, spec, config);
        for tier in ExecTier::ALL {
            let new_out = run_engine!(Sim, lowered, spec, tier_config(tier));
            assert_eq!(
                new_out.stats, ref_out.stats,
                "{name} [{tier}]: engines diverged under bench config"
            );
        }
        let stats = &ref_out.stats;
        let instructions = stats.instructions;
        let mut tier_ns = [u128::MAX; 3];
        for _ in 0..5 {
            for (k, tier) in ExecTier::ALL.into_iter().enumerate() {
                let cfg = tier_config(tier);
                let start = std::time::Instant::now();
                std::hint::black_box(run_engine!(Sim, lowered, spec, cfg).stats.instructions);
                tier_ns[k] = tier_ns[k].min(start.elapsed().as_nanos());
            }
        }
        let [interp_ns, decoded_ns, threaded_ns] = tier_ns;
        let ips = |ns: u128| instructions as f64 * 1e9 / ns.max(1) as f64;
        println!(
            "sim_streaming {name}: {instructions} instrs, \
             {} pushes / {} pops / {} blocked / {} detaches, \
             interp {:.1} / decoded {:.1} / threaded {:.1} Minstr/s",
            stats.chan_pushes,
            stats.chan_pops,
            stats.chan_blocks,
            stats.detaches,
            ips(interp_ns) / 1e6,
            ips(decoded_ns) / 1e6,
            ips(threaded_ns) / 1e6,
        );
        streaming_entries.push(format!(
            "    {{\n      \"workload\": \"{name}\",\n      \"instructions\": {instructions},\n      \
             \"chan_pushes\": {},\n      \"chan_pops\": {},\n      \
             \"chan_blocks\": {},\n      \"detaches\": {},\n      \
             \"tier_ref_ns\": {interp_ns},\n      \
             \"tier_decoded_ns\": {decoded_ns},\n      \
             \"tier_threaded_ns\": {threaded_ns},\n      \
             \"tier_ref_instr_per_sec\": {:.0},\n      \
             \"tier_decoded_instr_per_sec\": {:.0},\n      \
             \"tier_threaded_instr_per_sec\": {:.0}\n    }}",
            stats.chan_pushes,
            stats.chan_pops,
            stats.chan_blocks,
            stats.detaches,
            ips(interp_ns),
            ips(decoded_ns),
            ips(threaded_ns),
        ));
    }

    let json = format!(
        "{{\n  \"bench\": \"sim_throughput\",\n  \"config\": {{\n    \"cores\": {},\n    \
         \"heartbeat\": {},\n    \"interrupt\": \"nautilus\",\n    \"mode\": \"heartbeat\",\n    \
         \"scale\": \"quick\"\n  }},\n  \"workloads\": [\n{}\n  ],\n  \"streaming\": [\n{}\n  ],\n  \
         \"policy_sweep\": [\n{}\n  ]\n}}\n",
        config.cores,
        config.heartbeat,
        entries.join(",\n"),
        streaming_entries.join(",\n"),
        sweep_entries.join(",\n")
    );
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_sim_throughput.json"
    );
    write_atomic(path, &json);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_sim_throughput
}

fn main() {
    if std::env::var_os("TPAL_BENCH_SMOKE").is_some() {
        check_equivalence();
        return;
    }
    benches();
}
