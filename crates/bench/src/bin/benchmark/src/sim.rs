//! The simulator workloads (`sim_loops`, `sim_branchy`, `sim_stream`).
//!
//! One op is what `tpal-run --sim` pays per run: compile the lowered
//! program for the default tier, build a `Sim`, load the inputs, run.
//! The configuration is the paper's: 15 cores, Nautilus per-core timer
//! interrupts, heartbeat 3000 cycles, heartbeat lowering. `--seed`
//! becomes `SimConfig::seed` (victim selection, delivery jitter).

use std::time::{Duration, Instant};

use tpal_core::asm::{parse_program, print_program};
use tpal_core::machine::{Machine, MachineConfig};
use tpal_core::tier::{ExecBackend, ExecTier};
use tpal_core::{DecodedProgram, ThreadedProgram};
use tpal_ir::lower::{lower, Lowered, Mode};
use tpal_sim::{Sim, SimConfig, SimOutcome, SimRef, SimStats};
use tpal_trace::{chrome, MetricsReport};
use tpal_workloads::{Scale, SimSpec};

use crate::harness::{
    peak_rss_mb, rate, raw, timed_setups, values, Budget, Metrics, Outcome, Reference, Sample,
    Tally,
};
use crate::registry::WorkloadDef;
use crate::spans::{Attribution, Recorder};
use crate::stats::{geomean, median, ratio, Summary};

pub const CORES: usize = 15;
pub const HEARTBEAT_CYCLES: u64 = 3_000;
/// One traced op per program every this many rounds.
const TRACED_EVERY: usize = 4;

fn config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        ..SimConfig::nautilus(CORES, HEARTBEAT_CYCLES)
    }
}

/// Loads a spec's arrays and integers into any of the three executors
/// (`Sim`, `SimRef`, `Machine` share the calls but no trait).
macro_rules! load_input {
    ($exec:expr, $lowered:expr, $spec:expr) => {{
        let (lowered, spec): (&Lowered, &SimSpec) = ($lowered, $spec);
        for (name, data) in &spec.input.arrays {
            let base = $exec.alloc_array(data);
            $exec
                .set_reg(&lowered.param_reg(name), base)
                .expect("array parameter register");
        }
        for (name, v) in &spec.input.ints {
            $exec
                .set_reg(&lowered.param_reg(name), *v)
                .expect("integer parameter register");
        }
    }};
    ($exec:expr, $program:expr) => {
        load_input!($exec, &$program.lowered, &$program.spec)
    };
}

/// One program of a workload, lowered and checked, with the exact
/// results every later op must reproduce.
pub struct Program {
    pub name: &'static str,
    spec: SimSpec,
    lowered: Lowered,
    pub stats: SimStats,
    pub makespan: u64,
    pub serial_makespan: u64,
}

/// What one set-up measured besides the programs themselves.
pub struct Setup {
    pub programs: Vec<Program>,
    sim_spec_ms: f64,
    lower_us: f64,
    ref_engine_minstr_per_s: f64,
}

fn set_up(def: &WorkloadDef, seed: u64, tally: &mut Tally) -> Setup {
    let mut setup = Setup {
        programs: Vec::new(),
        sim_spec_ms: 0.0,
        lower_us: 0.0,
        ref_engine_minstr_per_s: 0.0,
    };
    let mut ref_rates = Vec::new();
    for &name in def.runs {
        let workload = tpal_workloads::workload(name).expect("registered workload");
        let start = Instant::now();
        let spec = workload.sim_spec(Scale::Quick);
        setup.sim_spec_ms += start.elapsed().as_secs_f64() * 1e3;
        let start = Instant::now();
        let lowered = lower(&spec.ir, Mode::Heartbeat).expect("heartbeat lowering");
        setup.lower_us += start.elapsed().as_secs_f64() * 1e6;
        let serial = lower(&spec.ir, Mode::Serial).expect("serial lowering");
        let mut program = Program {
            name,
            spec,
            lowered,
            stats: SimStats::default(),
            makespan: 0,
            serial_makespan: 0,
        };

        // The differential check: the cycle-tick reference engine is
        // the oracle for makespan and every counter, on every tier.
        let start = Instant::now();
        let mut oracle = SimRef::new(&program.lowered.program, config(seed));
        load_input!(oracle, program);
        let oracle = oracle.run();
        let oracle_s = start.elapsed().as_secs_f64();
        tally.op(match &oracle {
            Ok(out) => check_result(&program, out),
            Err(e) => Err(format!("{name}: SimRef failed: {e}")),
        });
        let Ok(oracle) = oracle else { continue };
        ref_rates.push(oracle.stats.instructions as f64 / oracle_s / 1e6);
        program.stats = oracle.stats;
        program.makespan = oracle.time;
        for tier in ExecTier::ALL {
            let cfg = SimConfig {
                exec_tier: tier,
                ..config(seed)
            };
            let mut sim = Sim::new(&program.lowered.program, cfg);
            load_input!(sim, program);
            tally.op(match sim.run() {
                Ok(out) => check_op(&program, &out).map_err(|e| format!("tier {tier}: {e}")),
                Err(e) => Err(format!("{name}: tier {tier} failed: {e}")),
            });
        }

        // The model's serial baseline: serial lowering on one core.
        let mut sim = Sim::new(&serial.program, SimConfig::serial());
        load_input!(sim, &serial, &program.spec);
        match sim.run() {
            Ok(out) if out.read_reg(&serial.result_reg) == Some(program.spec.expected) => {
                tally.op(Ok(()));
                program.serial_makespan = out.time;
            }
            Ok(_) => tally.op(Err(format!("{name}: serial baseline: wrong checksum"))),
            Err(e) => tally.op(Err(format!("{name}: serial baseline failed: {e}"))),
        }
        setup.programs.push(program);
    }
    setup.ref_engine_minstr_per_s = geomean(&ref_rates);

    // One warm-up op per program (page faults, allocator growth).
    let mut rec = Recorder::new(Instant::now(), false);
    for p in &setup.programs {
        tally.op(run_op(p, seed, false, &mut rec).map(drop));
    }
    setup
}

fn check_result(p: &Program, out: &SimOutcome) -> Result<(), String> {
    let got = out.read_reg(&p.lowered.result_reg);
    if got == Some(p.spec.expected) {
        Ok(())
    } else {
        Err(format!(
            "{}: checksum {got:?}, expected {}",
            p.name, p.spec.expected
        ))
    }
}

/// Checksum, counters and makespan against the oracle's.
fn check_op(p: &Program, out: &SimOutcome) -> Result<(), String> {
    check_result(p, out)?;
    if out.stats != p.stats || out.time != p.makespan {
        return Err(format!(
            "{}: stats or makespan differ from the reference engine's",
            p.name
        ));
    }
    Ok(())
}

/// Host seconds of one op's timed part and of its `Sim::run` alone.
struct OpTime {
    op_s: f64,
    run_s: f64,
    events: usize,
}

/// One op. `traced` adds `record_trace` and the metrics report (what
/// `--profile` pays). The timed part ends before the check and before
/// the simulator's memory is released.
fn run_op(p: &Program, seed: u64, traced: bool, rec: &mut Recorder) -> Result<OpTime, String> {
    let name = if traced {
        "bench.sim_op_traced"
    } else {
        "bench.sim_op"
    };
    rec.span(name, |rec| {
        let cfg = SimConfig {
            record_trace: traced,
            ..config(seed)
        };
        let start = Instant::now();
        let backend = rec.span("core.tier.ExecBackend::new", |_| {
            ExecBackend::new(&p.lowered.program, cfg.exec_tier)
        });
        let mut sim = rec.span("sim.Sim::with_backend", |_| {
            Sim::with_backend(&p.lowered.program, backend, cfg)
        });
        rec.span("sim.Sim::load_input", |_| load_input!(sim, p));
        let run_start = Instant::now();
        let out = rec.span("sim.Sim::run", |_| sim.run());
        let run_s = run_start.elapsed().as_secs_f64();
        let out = out.map_err(|e| format!("{}: simulation failed: {e}", p.name))?;
        let mut events = 0;
        if let Some(trace) = &out.trace {
            events = trace.len();
            let report = rec.span("trace.report.MetricsReport::from_trace", |_| {
                MetricsReport::from_trace(trace)
            });
            std::hint::black_box(report.utilization());
        }
        let op_s = start.elapsed().as_secs_f64();
        let checked = rec.span("bench.check", |_| check_op(p, &out));
        rec.span("sim.Sim::drop", |_| drop((sim, out)));
        checked.map(|()| OpTime {
            op_s,
            run_s,
            events,
        })
    })
}

/// Per-program timings of the timed phase: whole ops and their
/// `Sim::run` alone, plain and traced. `T` is [`Sample`] as taken, and
/// `f64` — seconds on the undisturbed reference host — afterwards.
struct Timings<T> {
    plain_s: Vec<T>,
    /// The plain ops as the clock read them, unscaled.
    plain_raw_s: Vec<f64>,
    traced_s: Vec<T>,
    plain_run_s: Vec<T>,
    traced_run_s: Vec<T>,
    /// Plain ops with the benchmark's spans on (traced run only).
    spanned_s: Vec<T>,
    events: usize,
}

type Samples = Timings<f64>;

impl<T> Default for Timings<T> {
    fn default() -> Self {
        Timings {
            plain_s: Vec::new(),
            plain_raw_s: Vec::new(),
            traced_s: Vec::new(),
            plain_run_s: Vec::new(),
            traced_run_s: Vec::new(),
            spanned_s: Vec::new(),
            events: 0,
        }
    }
}

/// Rounds of ops until `length` has passed: every program once per
/// round, round-robin, plus once traced every [`TRACED_EVERY`]th round.
/// The order is fixed, so the allocator sees the same sequence on every
/// seed and peak memory repeats. With `alternate_spans`, odd rounds
/// record spans.
fn timed_phase(
    setup: &Setup,
    seed: u64,
    length: Duration,
    alternate_spans: bool,
    reference: &mut Reference,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> (Vec<Samples>, f64) {
    let mut taken: Vec<Timings<Sample>> =
        setup.programs.iter().map(|_| Timings::default()).collect();
    let start = Instant::now();
    let mut whole_ops = Vec::new();
    let mut round = 0usize;
    while start.elapsed() < length {
        let mut order: Vec<(usize, bool)> = (0..setup.programs.len()).map(|i| (i, false)).collect();
        if round.is_multiple_of(TRACED_EVERY) {
            order.extend((0..setup.programs.len()).map(|i| (i, true)));
        }
        let spans_on = alternate_spans && round % 2 == 1;
        rec.set_enabled(spans_on);
        for (i, traced) in order {
            let (op, whole) = reference.timed(|| run_op(&setup.programs[i], seed, traced, rec));
            whole_ops.push(whole);
            match op {
                Ok(t) => {
                    let s = &mut taken[i];
                    let (op_s, run_s) = (reference.sample(t.op_s), reference.sample(t.run_s));
                    match (traced, spans_on) {
                        (true, _) => {
                            s.traced_s.push(op_s);
                            s.traced_run_s.push(run_s);
                            s.events = t.events;
                        }
                        (false, true) => s.spanned_s.push(op_s),
                        (false, false) => {
                            s.plain_s.push(op_s);
                            s.plain_run_s.push(run_s);
                        }
                    }
                    tally.op(Ok(()));
                }
                Err(e) => tally.op(Err(e)),
            }
        }
        round += 1;
    }
    rec.set_enabled(false);
    let samples = taken
        .iter()
        .map(|t| Samples {
            plain_s: values(&t.plain_s),
            plain_raw_s: raw(&t.plain_s),
            plain_run_s: values(&t.plain_run_s),
            traced_s: values(&t.traced_s),
            traced_run_s: values(&t.traced_run_s),
            spanned_s: values(&t.spanned_s),
            events: t.events,
        })
        .collect();
    (samples, rate(&whole_ops))
}

/// The exact-valued metrics: functions of the seed alone.
fn exact_metrics(setup: &Setup, m: &mut Metrics) {
    let sum = |f: fn(&SimStats) -> u64| -> f64 {
        setup.programs.iter().map(|p| f(&p.stats)).sum::<u64>() as f64
    };
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_owned(), Summary::exact(v));
    };
    put(
        "sim.makespan_cycles",
        setup.programs.iter().map(|p| p.makespan).sum::<u64>() as f64,
    );
    put("sim.instructions", sum(|s| s.instructions));
    put("sim.forks", sum(|s| s.forks));
    put("sim.promotions", sum(|s| s.promotions));
    put("sim.steals", sum(|s| s.steals));
    put("sim.failed_steals", sum(|s| s.failed_steals));
    put("sim.heartbeats_delivered", sum(|s| s.heartbeats_delivered));
    put("sim.chan_blocks", sum(|s| s.chan_blocks));
    put("sim.chan_wakes", sum(|s| s.chan_wakes));
    let busy: u64 = setup.programs.iter().map(|p| p.makespan).sum::<u64>() * CORES as u64;
    put(
        "sim.utilization",
        ratio(sum(|s| s.work_cycles), busy as f64),
    );
    put(
        "sim.overhead_cycle_share",
        ratio(
            sum(|s| s.overhead_cycles),
            sum(|s| s.work_cycles) + sum(|s| s.overhead_cycles),
        ),
    );
    put(
        "sched.sim.promotions_per_beat",
        ratio(sum(|s| s.promotions), sum(|s| s.heartbeats_delivered)),
    );
    put(
        "sched.sim.steal_success_ratio",
        ratio(
            sum(|s| s.steals),
            sum(|s| s.steals) + sum(|s| s.failed_steals),
        ),
    );
    put("sim.speedup_vs_serial", speedup(setup));
}

fn speedup(setup: &Setup) -> f64 {
    let each: Vec<f64> = setup
        .programs
        .iter()
        .map(|p| ratio(p.serial_makespan as f64, p.makespan as f64))
        .collect();
    geomean(&each)
}

/// Geomean over programs of instructions per median second of `pick`.
fn minstr_per_s(setup: &Setup, samples: &[Samples], pick: fn(&Samples) -> &Vec<f64>) -> f64 {
    let each: Vec<f64> = setup
        .programs
        .iter()
        .zip(samples)
        .filter(|(_, s)| !pick(s).is_empty())
        .map(|(p, s)| p.stats.instructions as f64 / median(pick(s)) / 1e6)
        .collect();
    geomean(&each)
}

fn geomean_of_medians(samples: &[Samples], pick: fn(&Samples) -> &Vec<f64>) -> f64 {
    let each: Vec<f64> = samples
        .iter()
        .filter(|s| !pick(s).is_empty())
        .map(|s| median(pick(s)))
        .collect();
    geomean(&each)
}

fn geomean_of_ratios(
    samples: &[Samples],
    over: fn(&Samples) -> &Vec<f64>,
    under: fn(&Samples) -> &Vec<f64>,
) -> f64 {
    let each: Vec<f64> = samples
        .iter()
        .filter(|s| !over(s).is_empty() && !under(s).is_empty())
        .map(|s| ratio(median(over(s)), median(under(s))))
        .collect();
    geomean(&each)
}

/// What the yardstick did to the run: the end-to-end median op time
/// from the clock's own readings.
fn raw_metric(samples: &[Samples], m: &mut Metrics) {
    m.insert(
        "bench.op_p50_raw_us".into(),
        Summary::exact(geomean_of_medians(samples, |s| &s.plain_raw_s) * 1e6),
    );
}

/// The untraced run: the end-to-end metrics.
pub fn run(def: &WorkloadDef, seed: u64, budget: &Budget) -> Outcome {
    let mut tally = Tally::default();
    let (setup, setup_s) = timed_setups(budget, || set_up(def, seed, &mut tally));
    let mut rec = Recorder::new(Instant::now(), false);
    let mut reference = Reference::new();
    let (samples, ops_per_s) = timed_phase(
        &setup,
        seed,
        budget.share(1.0),
        false,
        &mut reference,
        &mut rec,
        &mut tally,
    );

    let mut m = Metrics::new();
    m.insert("setup_s".into(), setup_s);
    let p50_us = geomean_of_medians(&samples, |s| &s.plain_s) * 1e6;
    let n_plain: usize = samples.iter().map(|s| s.plain_s.len()).sum();
    m.insert(
        "op_p50_us".into(),
        Summary {
            n: n_plain,
            ..Summary::exact(p50_us)
        },
    );
    m.insert("ops_per_s".into(), Summary::exact(ops_per_s));
    reference.report(&mut m);
    m.insert(
        "overhead_ratio".into(),
        Summary::exact(geomean_of_ratios(&samples, |s| &s.traced_s, |s| &s.plain_s)),
    );
    m.insert("peak_rss_mb".into(), Summary::exact(peak_rss_mb()));
    // Shown beside the end-to-end figures in the human-readable report.
    raw_metric(&samples, &mut m);
    m.insert(
        "sim.minstr_per_s".into(),
        Summary::exact(minstr_per_s(&setup, &samples, |s| &s.plain_s)),
    );
    exact_metrics(&setup, &mut m);
    Outcome { tally, metrics: m }
}

/// Pure instruction execution: the heartbeat-lowered program on the
/// abstract machine with heartbeats off, so no scheduler runs.
fn machine_minstr_per_s(
    p: &Program,
    tier: ExecTier,
    reps: usize,
    reference: &mut Reference,
) -> Result<f64, String> {
    let mut seconds = Vec::new();
    let mut instructions = 0;
    for _ in 0..reps {
        reference.tick();
        let cfg = MachineConfig {
            step_limit: u64::MAX,
            ..MachineConfig::serial().with_exec_tier(tier)
        };
        let mut machine = Machine::new(&p.lowered.program, cfg);
        load_input!(machine, p);
        let start = Instant::now();
        let out = machine
            .run()
            .map_err(|e| format!("{}: Machine [{tier}] failed: {e}", p.name))?;
        seconds.push(reference.sample(start.elapsed().as_secs_f64()).value);
        if out.read_reg(&p.lowered.result_reg) != Some(p.spec.expected) {
            return Err(format!("{}: Machine [{tier}] wrong checksum", p.name));
        }
        instructions = out.stats.instructions;
    }
    Ok(instructions as f64 / median(&seconds) / 1e6)
}

fn mean_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64() * 1e6 / reps as f64
}

/// The traced run: the per-layer metrics. Spans alternate on and off
/// by round, so their cost is measured inside the same run.
pub fn run_traced(def: &WorkloadDef, seed: u64, budget: &Budget) -> (Outcome, Vec<Recorder>) {
    let mut tally = Tally::default();
    let (setup, _) = timed_setups(
        &Budget {
            setups: 1,
            ..*budget
        },
        || set_up(def, seed, &mut tally),
    );
    let mut rec = Recorder::new(Instant::now(), false);
    let mut reference = Reference::new();
    let (samples, _) = timed_phase(
        &setup,
        seed,
        budget.share(0.6),
        true,
        &mut reference,
        &mut rec,
        &mut tally,
    );
    let spans = Attribution::of(&[&rec]);

    let mut m = Metrics::new();
    exact_metrics(&setup, &mut m);
    reference.report(&mut m);
    raw_metric(&samples, &mut m);
    let mut put = |name: String, v: f64| {
        m.insert(name, Summary::exact(v));
    };
    put(
        "bench.trace_overhead_ratio".into(),
        geomean_of_ratios(&samples, |s| &s.spanned_s, |s| &s.plain_s),
    );
    put(
        "bench.unattributed_ratio".into(),
        spans.unattributed_ratio(),
    );
    put("bench.spans".into(), spans.spans as f64);
    put(
        "bench.op_p50_us".into(),
        geomean_of_medians(&samples, |s| &s.plain_s) * 1e6,
    );
    put(
        "sim.minstr_per_s".into(),
        minstr_per_s(&setup, &samples, |s| &s.plain_s),
    );
    put(
        "sim.traced_minstr_per_s".into(),
        minstr_per_s(&setup, &samples, |s| &s.traced_s),
    );
    for (p, s) in setup.programs.iter().zip(&samples) {
        if !s.plain_s.is_empty() {
            put(
                format!("sim.{}.minstr_per_s", p.name),
                p.stats.instructions as f64 / median(&s.plain_s) / 1e6,
            );
        }
    }
    // Spans are raw durations: scale them like every other timing.
    let scale = reference.scale();
    put(
        "sim.new_us".into(),
        (spans.mean_us("sim.Sim::with_backend") + spans.mean_us("sim.Sim::load_input")) * scale,
    );
    put(
        "sim.run_ms".into(),
        spans.mean_us("sim.Sim::run") * scale / 1e3,
    );
    put(
        "trace.report_ms".into(),
        spans.mean_us("trace.report.MetricsReport::from_trace") * scale / 1e3,
    );
    put(
        "trace.record_overhead_ratio".into(),
        geomean_of_ratios(&samples, |s| &s.traced_run_s, |s| &s.plain_run_s),
    );
    put(
        "trace.events_per_run".into(),
        ratio(
            samples.iter().map(|s| s.events).sum::<usize>() as f64,
            samples.len() as f64,
        ),
    );
    put("workloads.sim_spec_ms".into(), setup.sim_spec_ms);
    put(
        "ir.lower_us".into(),
        ratio(setup.lower_us, setup.programs.len() as f64),
    );
    put(
        "sim.ref_engine_minstr_per_s".into(),
        setup.ref_engine_minstr_per_s,
    );
    let instrs: usize = setup
        .programs
        .iter()
        .map(|p| p.lowered.program.instr_count())
        .sum();
    put("core.program.instrs".into(), instrs as f64);
    put("ir.lowered_instrs".into(), instrs as f64);

    // Layer probes: each public function alone, a few repetitions.
    let probe_reps = if budget.seconds < 1.0 { 1 } else { 5 };
    let programs = setup.programs.len() as f64;
    let mut rates = [Vec::new(), Vec::new(), Vec::new()];
    let (mut decode_us, mut compile_us, mut parse_us) = (0.0, 0.0, 0.0);
    let mut run_s_at_threaded_rate = 0.0;
    let mut run_s = 0.0;
    let mut events = 0u64;
    for (p, s) in setup.programs.iter().zip(&samples) {
        for (k, tier) in ExecTier::ALL.into_iter().enumerate() {
            match machine_minstr_per_s(p, tier, probe_reps, &mut reference) {
                Ok(rate) => {
                    tally.op(Ok(()));
                    rates[k].push(rate);
                    if tier == ExecTier::Threaded {
                        run_s_at_threaded_rate += p.stats.instructions as f64 / (rate * 1e6);
                    }
                }
                Err(e) => tally.op(Err(e)),
            }
        }
        let program = &p.lowered.program;
        decode_us += mean_us(20, || DecodedProgram::decode(program));
        compile_us += mean_us(20, || ThreadedProgram::compile(program));
        let text = print_program(program);
        parse_us += mean_us(20, || {
            parse_program(&text).expect("printed program reparses")
        });
        if !s.plain_run_s.is_empty() {
            run_s += median(&s.plain_run_s);
        }
        let st = &p.stats;
        events += st.forks
            + st.steals
            + st.failed_steals
            + st.promotions
            + st.joins
            + st.heartbeats_delivered
            + st.chan_blocks
            + st.chan_wakes;
    }
    put("core.exec.ref_minstr_per_s".into(), geomean(&rates[0]));
    put("core.exec.decoded_minstr_per_s".into(), geomean(&rates[1]));
    put("core.exec.threaded_minstr_per_s".into(), geomean(&rates[2]));
    put("core.decode_us".into(), decode_us / programs);
    put("core.threaded.compile_us".into(), compile_us / programs);
    put("core.asm.parse_us".into(), parse_us / programs);
    put(
        "sim.engine_share".into(),
        1.0 - ratio(run_s_at_threaded_rate, run_s),
    );
    put("sim.ns_per_event".into(), ratio(run_s * 1e9, events as f64));

    // The trace layer on the first program's trace: rendering, size,
    // and the JSON reader on that document.
    if let Some(p) = setup.programs.first() {
        let cfg = SimConfig {
            record_trace: true,
            ..config(seed)
        };
        let mut sim = Sim::new(&p.lowered.program, cfg);
        load_input!(sim, p);
        if let Ok(SimOutcome {
            trace: Some(trace), ..
        }) = sim.run()
        {
            let start = Instant::now();
            let json = chrome::chrome_json(&trace);
            put(
                "trace.chrome_json_ms".into(),
                start.elapsed().as_secs_f64() * 1e3,
            );
            put("trace.chrome_json_mb".into(), json.len() as f64 / 1e6);
            let start = Instant::now();
            let parsed = tpal_trace::json::parse(&json);
            let parse_s = start.elapsed().as_secs_f64();
            tally.op(parsed.map(drop).map_err(|e| format!("chrome trace: {e}")));
            put(
                "trace.json.parse_mb_per_s".into(),
                ratio(json.len() as f64 / 1e6, parse_s),
            );
        }
    }
    put(
        "bench.fail_ratio".into(),
        ratio(tally.failed as f64, tally.attempted as f64),
    );
    (Outcome { tally, metrics: m }, vec![rec])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::workload;

    fn exact(seed: u64) -> Metrics {
        let def = workload("sim_stream").unwrap();
        let mut tally = Tally::default();
        let setup = set_up(def, seed, &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.notes);
        let mut m = Metrics::new();
        exact_metrics(&setup, &mut m);
        m
    }

    #[test]
    fn exact_metrics_are_a_function_of_the_seed() {
        let a = exact(11);
        assert_eq!(a, exact(11), "same seed, same counts and makespan");
        let b = exact(12);
        assert_ne!(
            a["sim.makespan_cycles"], b["sim.makespan_cycles"],
            "another seed moves the makespan"
        );
        assert!(a["sim.chan_blocks"].median > 0.0, "the stream parks");
    }

    #[test]
    fn smoke_run_reports_every_end_to_end_metric_without_failures() {
        let def = workload("sim_stream").unwrap();
        let out = run(def, 3, &Budget::smoke());
        assert_eq!(out.tally.failed, 0, "{:?}", out.tally.notes);
        for metric in &crate::registry::END_TO_END {
            let v = out.metrics[metric.name].median;
            assert!(v > 0.0, "{} = {v}", metric.name);
        }
        // Long enough for a spanned round even in a debug build.
        let budget = Budget {
            seconds: 2.0,
            ..Budget::smoke()
        };
        let (traced, recorders) = run_traced(def, 3, &budget);
        assert_eq!(traced.tally.failed, 0, "{:?}", traced.tally.notes);
        assert!((0.0..=1.0).contains(&traced.metrics["bench.unattributed_ratio"].median));
        assert!(!recorders[0].spans().is_empty());
    }
}
