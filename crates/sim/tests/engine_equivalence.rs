//! Differential tests: the event-driven engine ([`Sim`]) — on **every
//! execution tier** (reference interpreter, decoded micro-ops, threaded
//! code) — must be *observably equivalent* to the cycle-tick reference
//! ([`SimRef`]): identical makespan, identical [`SimStats`] field by
//! field, and identical final registers, on real workload programs,
//! across every interrupt model, promotion rule and several RNG seeds.
//!
//! This suite is what licenses the event-queue + instruction-batching
//! rewrite and the tiered interpreters stacked on it: any scheduling
//! divergence (RNG consumption order, deque contents, allocation order,
//! interrupt timing) or tier-semantics divergence (quantum splits,
//! fault points, step accounting, promotion-watch behaviour) shows up
//! here as a mismatched counter or register.

use tpal_core::asm::parse_program;
use tpal_core::machine::MachineError;
use tpal_core::program::Program;
use tpal_ir::lower::{lower, Mode};
use tpal_sim::{ExecTier, InterruptModel, Promotion, Sim, SimConfig, SimOutcome, SimRef, SimStats};
use tpal_trace::report::activity_buckets;
use tpal_trace::EventKind;
use tpal_workloads::{workload, Scale, SimSpec};

const SEEDS: [u64; 3] = [0xDEC0DE, 1, 0xFEED_5EED];

fn configs() -> Vec<(&'static str, Mode, SimConfig)> {
    vec![
        ("serial", Mode::Serial, SimConfig::serial()),
        ("linux-4", Mode::Heartbeat, SimConfig::linux(4, 3_000)),
        ("nautilus-8", Mode::Heartbeat, SimConfig::nautilus(8, 3_000)),
    ]
}

/// Runs `spec` under `config` on [`SimRef`] once, then on [`Sim`] at
/// **each execution tier**, asserting observable equivalence plus the
/// workload checksum for every tier. Returns the last tier's outcome.
fn assert_pair_agrees(spec: &SimSpec, mode: Mode, config: SimConfig, ctx: &str) -> SimOutcome {
    let lowered = lower(&spec.ir, mode).unwrap_or_else(|e| panic!("lowering failed: {e}"));

    let mut ref_engine = SimRef::new(&lowered.program, config);
    for (pname, data) in &spec.input.arrays {
        let base_ref = ref_engine.alloc_array(data);
        ref_engine
            .set_reg(&lowered.param_reg(pname), base_ref)
            .unwrap();
    }
    for (pname, v) in &spec.input.ints {
        ref_engine.set_reg(&lowered.param_reg(pname), *v).unwrap();
    }
    let ref_out = ref_engine
        .run()
        .unwrap_or_else(|e| panic!("{ctx}: reference engine failed: {e}"));

    let mut last = None;
    for tier in ExecTier::ALL {
        let mut config = config;
        config.exec_tier = tier;
        let mut new_engine = Sim::new(&lowered.program, config);
        for (pname, data) in &spec.input.arrays {
            let base_new = new_engine.alloc_array(data);
            new_engine
                .set_reg(&lowered.param_reg(pname), base_new)
                .unwrap();
        }
        for (pname, v) in &spec.input.ints {
            new_engine.set_reg(&lowered.param_reg(pname), *v).unwrap();
        }

        let new_out = new_engine
            .run()
            .unwrap_or_else(|e| panic!("{ctx} [{tier}]: new engine failed: {e}"));

        assert_eq!(new_out.time, ref_out.time, "{ctx} [{tier}]: makespan");
        assert_eq!(new_out.stats, ref_out.stats, "{ctx} [{tier}]: stats");
        assert_eq!(
            new_out.final_regs(),
            ref_out.final_regs(),
            "{ctx} [{tier}]: final registers"
        );
        assert_eq!(
            new_out.read_reg(&lowered.result_reg),
            Some(spec.expected),
            "{ctx} [{tier}]: checksum"
        );
        last = Some(new_out);
    }
    last.expect("at least one tier")
}

fn assert_engines_agree(name: &str) {
    let spec: SimSpec = workload(name)
        .expect("known workload")
        .sim_spec(Scale::Quick);
    for (label, mode, base) in configs() {
        for seed in SEEDS {
            let mut config = base;
            config.seed = seed;
            let ctx = format!("{name} / {label} / seed {seed:#x}");
            assert_pair_agrees(&spec, mode, config, &ctx);
        }
    }
}

#[test]
fn plus_reduce_array_engines_agree() {
    assert_engines_agree("plus-reduce-array");
}

#[test]
fn floyd_warshall_engines_agree() {
    assert_engines_agree("floyd-warshall-small");
}

#[test]
fn spmv_random_engines_agree() {
    assert_engines_agree("spmv-random");
}

#[test]
fn spmv_powerlaw_engines_agree() {
    assert_engines_agree("spmv-powerlaw");
}

#[test]
fn spmv_arrowhead_engines_agree() {
    assert_engines_agree("spmv-arrowhead");
}

#[test]
fn mandelbrot_engines_agree() {
    assert_engines_agree("mandelbrot");
}

#[test]
fn kmeans_engines_agree() {
    assert_engines_agree("kmeans");
}

#[test]
fn srad_engines_agree() {
    assert_engines_agree("srad");
}

#[test]
fn floyd_warshall_large_engines_agree() {
    assert_engines_agree("floyd-warshall-large");
}

#[test]
fn mergesort_engines_agree() {
    assert_engines_agree("mergesort-uniform");
}

#[test]
fn mergesort_exponential_engines_agree() {
    assert_engines_agree("mergesort-exp");
}

#[test]
fn knapsack_engines_agree() {
    assert_engines_agree("knapsack");
}

// Streaming (channel/detach) workloads: parked tasks, wake protocol,
// blocked-attempt accounting, and detached-task retirement must all be
// schedule-identical between the engines — on every tier, since the
// channel instructions surface as boundaries from the shared
// `step_task` core.

#[test]
fn pipeline_tokens_engines_agree() {
    assert_engines_agree("pipeline-tokens");
}

#[test]
fn spmv_stream_engines_agree() {
    assert_engines_agree("spmv-stream");
}

#[test]
fn mandelbrot_tiles_engines_agree() {
    assert_engines_agree("mandelbrot-tiles");
}

/// Runs `program` with the integer registers `regs` set on [`SimRef`]
/// and on [`Sim`] at each execution tier, asserting observable
/// equivalence.
fn assert_program_agrees(program: &Program, regs: &[(&str, i64)], config: SimConfig, ctx: &str) {
    let mut ref_engine = SimRef::new(program, config);
    for &(reg, v) in regs {
        ref_engine.set_reg(reg, v).unwrap();
    }
    let ref_out = ref_engine
        .run()
        .unwrap_or_else(|e| panic!("{ctx}: reference engine failed: {e}"));
    for tier in ExecTier::ALL {
        let mut new_engine = Sim::new(
            program,
            SimConfig {
                exec_tier: tier,
                ..config
            },
        );
        for &(reg, v) in regs {
            new_engine.set_reg(reg, v).unwrap();
        }
        let new_out = new_engine
            .run()
            .unwrap_or_else(|e| panic!("{ctx} [{tier}]: new engine failed: {e}"));
        assert_eq!(new_out.time, ref_out.time, "{ctx} [{tier}]: makespan");
        assert_eq!(new_out.stats, ref_out.stats, "{ctx} [{tier}]: stats");
        assert_eq!(
            new_out.final_regs(),
            ref_out.final_regs(),
            "{ctx} [{tier}]: final registers"
        );
    }
}

/// The lone runner — a core alone in the calendar, with no idle core
/// able to race it, handles its next action in place — where it engages
/// most: on 2 and 15 cores, under both interrupt sources and with
/// interrupts disabled, where nothing promotes and one core runs the
/// whole program alone. `fib` adds a recursion whose joins stash and
/// merge between lone stretches.
#[test]
fn lone_runner_engines_agree() {
    let fib = tpal_core::programs::fib();
    for cores in [2, 15] {
        for (label, config) in [
            ("linux", SimConfig::linux(cores, 3_000)),
            ("nautilus", SimConfig::nautilus(cores, 3_000)),
            (
                "disabled",
                SimConfig {
                    interrupt: InterruptModel::Disabled,
                    ..SimConfig::nautilus(cores, 3_000)
                },
            ),
        ] {
            for name in ["knapsack", "pipeline-tokens"] {
                let spec = workload(name)
                    .expect("known workload")
                    .sim_spec(Scale::Quick);
                let ctx = format!("{name} / {label}-{cores}");
                assert_pair_agrees(&spec, Mode::Heartbeat, config, &ctx);
            }
            let ctx = format!("fib / {label}-{cores}");
            assert_program_agrees(&fib, &[("n", 18)], config, &ctx);
        }
    }
}

/// Runs `program` with `reg` = `n` on both engines, every tier of the
/// new one, under two machines, and asserts each run ends in `fault`.
fn assert_fault_agrees(program: &Program, reg: &str, n: i64, fault: MachineError) {
    for (label, config) in [
        ("linux-4", SimConfig::linux(4, 3_000)),
        ("nautilus-8", SimConfig::nautilus(8, 600)),
    ] {
        let mut ref_engine = SimRef::new(program, config);
        ref_engine.set_reg(reg, n).unwrap();
        assert_eq!(
            ref_engine.run().map(|_| ()),
            Err(fault),
            "{label}: reference"
        );
        for tier in ExecTier::ALL {
            let mut config = config;
            config.exec_tier = tier;
            let mut new_engine = Sim::new(program, config);
            new_engine.set_reg(reg, n).unwrap();
            assert_eq!(new_engine.run().map(|_| ()), Err(fault), "{label} [{tier}]");
        }
    }
}

/// A fault in parallel work — a `halloc` past the heap limit, late in a
/// heartbeat-split loop — is the same typed error from both engines on
/// every tier, whichever core reaches it.
#[test]
fn heap_exhaustion_faults_agree() {
    let ir = tpal_ir::parse_ir(
        "fn main(n) { s = 0; parfor i in 0..n reduce(s: +, 0) { \
         if i == 2999 { a = alloc(4611686018427387903); } s = s + i; } return s; }",
    )
    .unwrap();
    let lowered = lower(&ir, Mode::Heartbeat).unwrap();
    let fault = MachineError::HeapExhausted {
        words: 4_611_686_018_427_387_903,
    };
    assert_fault_agrees(&lowered.program, &lowered.param_reg("n"), 5_000, fault);
}

/// The same for a `salloc` past the stack limit: fib(21) faults where a
/// serially finished fib(12) subtree (result 144) would pop its frame,
/// with promoted subtrees running on other cores.
#[test]
fn stack_exhaustion_faults_agree() {
    let text = include_str!("../../../programs/fib.tpal").replace(
        "    f := f + t\n    sfree sp, 3\n",
        "    f := f + t\n    t := f == 144\n    if-jump t, bomb\n    sfree sp, 3\n",
    ) + "bomb: [.]\n    salloc sp, 4294967295\n    halt\n";
    let program = parse_program(&text).unwrap();
    let fault = MachineError::StackExhausted { cells: u32::MAX };
    assert_fault_agrees(&program, "n", 21, fault);
}

/// A channel wake resumes the oldest waiter in both engines, whatever
/// the promotion rule makes of the stages: under `heartbeat` the
/// channel-fed loops promote, under `eager` they split at every point,
/// under `never` every stage runs serially, and the parked lists drain
/// in the same order in all three. (Machine sizes other than
/// [`configs`]'s, so the `heartbeat` rows are not a repeat of
/// `pipeline_tokens_engines_agree`'s.)
#[test]
fn streaming_chan_wake_matrix_engines_agree() {
    for name in ["pipeline-tokens", "spmv-stream"] {
        let spec = workload(name)
            .expect("known workload")
            .sim_spec(Scale::Quick);
        for promotion in Promotion::ALL {
            for (label, base) in [
                ("linux-3", SimConfig::linux(3, 3_000)),
                ("nautilus-6", SimConfig::nautilus(6, 3_000)),
            ] {
                for seed in SEEDS {
                    let mut config = base;
                    config.promotion = promotion;
                    config.seed = seed;
                    let ctx = format!("{name} / {label} / {promotion:?} / seed {seed:#x}");
                    assert_pair_agrees(&spec, Mode::Heartbeat, config, &ctx);
                }
            }
        }
    }
}

/// Non-default promotion rules must keep the engines in lockstep too:
/// every promote/steal decision comes from the shared kernel
/// (`tpal-sched`), so rules that change *which* points promote would
/// expose any engine-specific decision logic.
#[test]
fn policy_matrix_engines_agree() {
    for name in ["plus-reduce-array", "mergesort-uniform"] {
        let spec = workload(name)
            .expect("known workload")
            .sim_spec(Scale::Quick);
        for promotion in [Promotion::Eager, Promotion::Never] {
            for (label, base) in [
                ("linux-4", SimConfig::linux(4, 3_000)),
                ("nautilus-8", SimConfig::nautilus(8, 3_000)),
            ] {
                let mut config = base;
                config.promotion = promotion;
                let ctx = format!("{name} / {label} / {promotion:?}");
                assert_pair_agrees(&spec, Mode::Heartbeat, config, &ctx);
            }
        }
    }
}

/// Every program the repository's benchmark simulates.
const BENCHMARK_PROGRAMS: [&str; 7] = [
    "plus-reduce-array",
    "floyd-warshall-small",
    "mandelbrot",
    "mergesort-uniform",
    "knapsack",
    "pipeline-tokens",
    "spmv-stream",
];

/// The benchmark's own configuration — the paper's 15 cores under
/// Nautilus timers at ♥ = 3000, 16 calendar slots (one per core and the
/// timer wave's) in a two-level tree — on every program it simulates, at
/// the seed of its first run.
#[test]
fn benchmark_configuration_engines_agree() {
    for name in BENCHMARK_PROGRAMS {
        let spec = workload(name)
            .expect("known workload")
            .sim_spec(Scale::Quick);
        let mut config = SimConfig::nautilus(15, 3_000);
        config.seed = 1;
        let ctx = format!("{name} / nautilus-15");
        assert_pair_agrees(&spec, Mode::Heartbeat, config, &ctx);
    }
}

/// Wide machines, up to the service's 256-core ceiling: the event
/// calendar's tree gains a level past 4, 16, 64 and 256 slots, so 64
/// ping-driven cores (65 slots) walk four levels and 256 timer-driven
/// ones (257 slots) walk five.
#[test]
fn wide_machines_engines_agree() {
    for name in ["knapsack", "pipeline-tokens"] {
        let spec = workload(name)
            .expect("known workload")
            .sim_spec(Scale::Quick);
        for (label, config) in [
            ("linux-64", SimConfig::linux(64, 3_000)),
            ("nautilus-256", SimConfig::nautilus(256, 3_000)),
        ] {
            let ctx = format!("{name} / {label}");
            assert_pair_agrees(&spec, Mode::Heartbeat, config, &ctx);
        }
    }
}

/// The steal costs the idle cores' retry chains branch on, at their
/// edges: a free retry (the chains stay calendar actions), one-cycle
/// retries and steals (a thief acts the cycle after it steals), the
/// defaults, and a retry dearer than a steal. Small ♥ stays out: under
/// per-core timers a beat always due livelocks the promotion handler
/// (see [`heartbeat_edges_engines_agree`]).
#[test]
fn steal_cost_edges_engines_agree() {
    for name in ["knapsack", "pipeline-tokens", "spmv-stream"] {
        let spec = workload(name)
            .expect("known workload")
            .sim_spec(Scale::Quick);
        for steal_retry_cost in [0, 1, 50, 601] {
            for steal_cost in [0, 1, 600] {
                for (label, base) in [
                    ("linux-3", SimConfig::linux(3, 3_000)),
                    ("nautilus-6", SimConfig::nautilus(6, 3_000)),
                ] {
                    let config = SimConfig {
                        steal_retry_cost,
                        steal_cost,
                        ..base
                    };
                    let ctx =
                        format!("{name} / {label} / retry {steal_retry_cost} / steal {steal_cost}");
                    assert_pair_agrees(&spec, Mode::Heartbeat, config, &ctx);
                }
            }
        }
    }
}

/// ♥ at the edges of its range, as a replay token may carry it: a beat
/// due every cycle (0 and 1), and beats so far apart (2⁵³ + 1,
/// `u64::MAX`) that the first never lands — the event calendar holds it
/// at the very top of the time range. Per-core timers join in only at
/// the far end: a timer beat every cycle livelocks the promotion handler
/// in both engines (by design, until the step limit), whereas the ping
/// chain paces itself by its own delivery latency.
#[test]
fn heartbeat_edges_engines_agree() {
    for name in ["knapsack", "pipeline-tokens"] {
        let spec = workload(name)
            .expect("known workload")
            .sim_spec(Scale::Quick);
        for heartbeat in [0, 1, (1 << 53) + 1, u64::MAX] {
            let mut configs = vec![("linux-4", SimConfig::linux(4, heartbeat))];
            if heartbeat > 1 {
                configs.push(("nautilus-4", SimConfig::nautilus(4, heartbeat)));
            }
            for (label, config) in configs {
                let ctx = format!("{name} / {label} / ♥ {heartbeat}");
                assert_pair_agrees(&spec, Mode::Heartbeat, config, &ctx);
            }
        }
    }
}

/// Per-core activity must agree bucket-for-bucket too: the event engine
/// records a trace ([`activity_buckets`] of it splits merged work spans
/// per cycle and charges a settled retry chain retry by retry) while the
/// reference charges cycle by cycle as it goes, and the two must come
/// out the same on every program the repository's benchmark simulates,
/// under both interrupt models. It is the one check that the trace puts
/// cycles where the reference spends them.
///
/// [`activity_buckets`]: tpal_trace::report::activity_buckets
#[test]
fn activity_agrees_bucket_for_bucket() {
    for name in BENCHMARK_PROGRAMS {
        let spec = workload(name)
            .expect("known workload")
            .sim_spec(Scale::Quick);
        let lowered = lower(&spec.ir, Mode::Heartbeat).unwrap();
        for (label, mut config) in [
            ("nautilus-4", SimConfig::nautilus(4, 3_000)),
            ("linux-4", SimConfig::linux(4, 3_000)),
        ] {
            config.record_trace = true;
            let bucket = (config.heartbeat / 2).max(64);

            let mut new_engine = Sim::new(&lowered.program, config);
            let mut ref_engine = SimRef::new(&lowered.program, config);
            for (pname, data) in &spec.input.arrays {
                let b = new_engine.alloc_array(data);
                ref_engine.alloc_array(data);
                new_engine.set_reg(&lowered.param_reg(pname), b).unwrap();
                ref_engine.set_reg(&lowered.param_reg(pname), b).unwrap();
            }
            for (pname, v) in &spec.input.ints {
                new_engine.set_reg(&lowered.param_reg(pname), *v).unwrap();
                ref_engine.set_reg(&lowered.param_reg(pname), *v).unwrap();
            }
            let new_out = new_engine.run().unwrap();
            let (_, ref_buckets) = ref_engine.run_bucketed(bucket).unwrap();

            let trace = new_out.trace.expect("trace recorded");
            let new_buckets = activity_buckets(&trace, bucket);
            assert_eq!(new_buckets.len(), ref_buckets.len(), "{name} {label}");
            for (c, (new_row, ref_row)) in new_buckets.iter().zip(&ref_buckets).enumerate() {
                assert_eq!(new_row, ref_row, "{name} {label}: core {c} buckets");
            }
        }
    }
}

/// `pipeline-tokens` in the benchmark's configuration (15 cores, Nautilus
/// timers, ♥ = 3000) under `promotion`, on both engines.
fn pipeline_at_15(promotion: Promotion, record_trace: bool) -> SimOutcome {
    let spec = workload("pipeline-tokens")
        .expect("known workload")
        .sim_spec(Scale::Quick);
    let config = SimConfig {
        promotion,
        record_trace,
        ..SimConfig::nautilus(15, 3_000)
    };
    let ctx = format!("pipeline-tokens / nautilus-15 / {promotion:?}");
    assert_pair_agrees(&spec, Mode::Heartbeat, config, &ctx)
}

/// Under the paper's rule a channel wake stays latent on the waking core
/// until a beat reaches it, so a pipeline's stages hand off in place, as
/// coroutines, and a 15-core run costs about what a 1-core run does —
/// instead of moving every woken stage to an idle core by a 600-cycle
/// steal (6× the 1-core makespan, 87 % of busy cycles overhead, when
/// every wake was queued at once).
#[test]
fn heartbeat_wakes_stay_latent_until_a_beat() {
    let spec = workload("pipeline-tokens")
        .expect("known workload")
        .sim_spec(Scale::Quick);
    let one = assert_pair_agrees(
        &spec,
        Mode::Heartbeat,
        SimConfig::nautilus(1, 3_000),
        "pipeline-tokens / nautilus-1",
    );
    let out = pipeline_at_15(Promotion::Heartbeat, false);
    assert!(
        out.time * 4 <= one.time * 5,
        "15 cores: makespan {} against {} on one core",
        out.time,
        one.time
    );
    let s = out.stats;
    let share = s.overhead_cycles as f64 / (s.work_cycles + s.overhead_cycles) as f64;
    assert!(share <= 0.3, "overhead cycle share {share:.3}");
}

/// Under `eager` a wake is real at once — queued on the waking core's
/// deque, where thieves see it — so the run is exactly what it was
/// before wakes could stay latent.
#[test]
fn eager_wakes_are_queued_at_once() {
    let out = pipeline_at_15(Promotion::Eager, false);
    assert_eq!(out.time, 169_417);
    assert_eq!(
        out.stats,
        SimStats {
            instructions: 28_889,
            forks: 0,
            promotions: 0,
            joins: 0,
            merges: 0,
            steals: 316,
            failed_steals: 46_365,
            heartbeats_delivered: 840,
            work_cycles: 28_889,
            overhead_cycles: 194_000,
            idle_cycles: 2_318_700,
            max_live_tasks: 3,
            detaches: 2,
            chan_pushes: 2_400,
            chan_pops: 2_400,
            chan_blocks: 450,
            chan_wakes: 450,
        }
    );
}

/// How many times a woken task next ran on a core other than the one
/// that woke it, read from the trace in record (`seq`) order.
fn wakes_run_elsewhere(out: &SimOutcome) -> usize {
    let trace = out.trace.as_ref().expect("trace recorded");
    let mut events: Vec<_> = trace
        .tracks
        .iter()
        .enumerate()
        .flat_map(|(core, t)| t.events.iter().map(move |e| (e.seq, core, e.kind)))
        .collect();
    events.sort_unstable_by_key(|&(seq, ..)| seq);
    let mut woken_on = std::collections::HashMap::new();
    let mut elsewhere = 0;
    for (_, core, kind) in events {
        match kind {
            EventKind::ChanResume { task, .. } => {
                woken_on.insert(task, core);
            }
            EventKind::Work { task } => {
                if let Some(waker) = woken_on.remove(&task) {
                    elsewhere += usize::from(waker != core);
                }
            }
            _ => {}
        }
    }
    elsewhere
}

/// Under `never` a wake never becomes real: the woken task waits in its
/// waker's latent FIFO, invisible to thieves, and next runs on the core
/// that woke it — every time. Under `eager` the same check finds woken
/// tasks stolen, so it has teeth.
#[test]
fn never_promoted_wakes_are_never_stolen() {
    let never = pipeline_at_15(Promotion::Never, true);
    assert!(never.stats.chan_wakes > 0);
    assert_eq!(wakes_run_elsewhere(&never), 0);
    let eager = pipeline_at_15(Promotion::Eager, true);
    assert!(wakes_run_elsewhere(&eager) > 0);
}
