//! `tpal-run`: execute a TPAL assembly file — or compile and run a
//! task-parallel source file.
//!
//! ```text
//! tpal-run FILE [--ir [--mode serial|heartbeat|expanded|eager]]
//!               [--set reg=int]... [--heartbeat N] [--tau N]
//!               [--sim CORES | --rt WORKERS] [--linux | --nautilus]
//!               [--policy P[/V]]
//!               [--heartbeat-source ping|local-timer|signal]
//!               [--exec-tier ref|decoded|threaded]
//!               [--newest-first] [--print]
//!               [--trace OUT.json] [--profile]
//! ```
//!
//! Without `--ir`, FILE is TPAL assembly (`.tpal`). With `--ir`, FILE is
//! the C-like task-parallel source language (`.tpl`), compiled through
//! `tpal-ir` in the chosen mode (default `heartbeat`); `--set` then
//! names the entry function's parameters and the result register is
//! `result`. Three execution substrates are reachable: the reference
//! machine (the default), the multicore simulator (`--sim CORES`), and
//! the native heartbeat runtime (`--rt WORKERS`). WORKERS is accepted
//! and does not speed a *program* up: the runtime runs the machine's own
//! task-set driver on one worker, with real-time heartbeats (so `--tau`
//! and `--newest-first` apply there too), and that one worker is the
//! pool — the summary line says so.
//!
//! `--heartbeat` is in the substrate's own time unit: instructions on
//! the machine (default 100), cycles on the simulator (default 3000 —
//! the tuned value; an explicitly passed value is always honoured), and
//! microseconds on the native runtime (default 100, the paper's §4.2
//! interval). `--print` prints the (parsed or generated) TPAL assembly
//! instead of running.
//!
//! Scheduling policy (simulator and native-runtime runs): `--policy`
//! selects the promotion rule (`heartbeat`, the default, `eager` or
//! `never`), optionally followed by the substrate's victim segment as
//! `promo/victim`. Each substrate steals by one rule of its own — the
//! simulator probes a uniformly random core (`uniform`), the runtime
//! sweeps every worker (`sequence`, where `uniform` is also accepted) —
//! and the run header names it. A channel wake always resumes the
//! oldest waiter.
//!
//! Heartbeat delivery (native-runtime runs only): `--heartbeat-source`
//! selects how beats reach the workers — `ping` (a dedicated ping
//! thread), `local-timer` (per-worker polled deadline, the default), or
//! `signal` (per-worker POSIX timer signals; falls back to `ping` where
//! unsupported).
//!
//! `--exec-tier` selects the interpreter tier for straight-line
//! execution on every substrate: `ref` (the specification interpreter),
//! `decoded` (pre-decoded micro-ops), or `threaded` (the same micro-ops
//! plus whole-loop templates, the default). All tiers are bit-identical
//! in results and statistics; they differ only in host execution speed.
//!
//! Observability (simulator and native-runtime runs): `--trace
//! OUT.json` records a structured scheduling trace and writes it as
//! Chrome `trace_event` JSON — open it at `chrome://tracing` or
//! <https://ui.perfetto.dev>, one track per core (per worker).
//! `--profile` prints the TASKPROF-style work/span profile (work T₁,
//! span T∞, available parallelism) and the per-core metrics report
//! derived from the same trace.
//!
//! Examples:
//!
//! ```text
//! cargo run --release --bin tpal-run -- programs/prod.tpal \
//!     --set a=100000 --set b=3 --sim 8
//! cargo run --release --bin tpal-run -- programs/sum.tpal \
//!     --set main.n=100000 --sim 8 --linux --policy eager
//! cargo run --release --bin tpal-run -- programs/fib.tpal \
//!     --set n=25 --rt 1 --heartbeat 100
//! ```

use std::process::ExitCode;
use std::time::Duration;

use tpal::core::asm::{parse_program, print_program};
use tpal::core::machine::{Machine, MachineConfig, PromotionOrder};
use tpal::rt::{HeartbeatSource, RtConfig, Runtime};
use tpal::sim::{Domain, ExecTier, Promotion, Sim, SimConfig};

struct Options {
    file: String,
    sets: Vec<(String, i64)>,
    /// `Some` iff `--heartbeat` was passed: each substrate applies its
    /// own default when absent, and an explicit value — even one that
    /// happens to equal another substrate's default — is honoured.
    heartbeat: Option<u64>,
    tau: u64,
    sim_cores: Option<usize>,
    rt_workers: Option<usize>,
    linux: bool,
    print: bool,
    ir: bool,
    mode: tpal::ir::Mode,
    order: PromotionOrder,
    /// `--policy`, parsed for the substrate the run selected.
    promotion: Promotion,
    /// `Some` iff `--heartbeat-source` was passed (native runtime only).
    heartbeat_source: Option<HeartbeatSource>,
    exec_tier: ExecTier,
    trace_out: Option<String>,
    profile: bool,
}

fn usage() -> String {
    "usage: tpal-run FILE [--ir [--mode serial|heartbeat|expanded|eager]] \
     [--set reg=int]... [--heartbeat N] [--tau N] [--sim CORES | --rt WORKERS] \
     [--linux | --nautilus] [--policy P[/V]] \
     [--heartbeat-source ping|local-timer|signal] \
     [--exec-tier ref|decoded|threaded] \
     [--newest-first] [--print] [--trace OUT.json] [--profile]"
        .to_owned()
}

fn parse_args(mut args: std::env::Args) -> Result<Options, String> {
    args.next(); // program name
    let mut opts = Options {
        file: String::new(),
        sets: Vec::new(),
        heartbeat: None,
        tau: 10,
        sim_cores: None,
        rt_workers: None,
        linux: false,
        print: false,
        ir: false,
        mode: tpal::ir::Mode::Heartbeat,
        order: PromotionOrder::OldestFirst,
        promotion: Promotion::default(),
        heartbeat_source: None,
        exec_tier: ExecTier::default(),
        trace_out: None,
        profile: false,
    };
    let need = |args: &mut std::env::Args, what: &str| {
        args.next().ok_or_else(|| format!("{what} needs a value"))
    };
    // Read once the substrate is known: the victim segment it accepts is
    // the substrate's.
    let mut policy = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--set" => {
                let kv = need(&mut args, "--set")?;
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("--set expects reg=int, got `{kv}`"))?;
                let v: i64 = v.parse().map_err(|e| format!("--set {kv}: {e}"))?;
                opts.sets.push((k.to_owned(), v));
            }
            "--heartbeat" => {
                opts.heartbeat = Some(
                    need(&mut args, "--heartbeat")?
                        .parse()
                        .map_err(|e| format!("--heartbeat: {e}"))?,
                );
            }
            "--tau" => {
                opts.tau = need(&mut args, "--tau")?
                    .parse()
                    .map_err(|e| format!("--tau: {e}"))?;
            }
            "--sim" => {
                opts.sim_cores = Some(
                    need(&mut args, "--sim")?
                        .parse()
                        .map_err(|e| format!("--sim: {e}"))?,
                );
            }
            "--rt" => {
                opts.rt_workers = Some(
                    need(&mut args, "--rt")?
                        .parse()
                        .map_err(|e| format!("--rt: {e}"))?,
                );
            }
            "--policy" => policy = Some(need(&mut args, "--policy")?),
            "--heartbeat-source" => {
                let spec = need(&mut args, "--heartbeat-source")?;
                opts.heartbeat_source = Some(HeartbeatSource::parse(&spec).ok_or_else(|| {
                    format!("--heartbeat-source: unknown source `{spec}` (ping|local-timer|signal)")
                })?);
            }
            "--exec-tier" => {
                let spec = need(&mut args, "--exec-tier")?;
                opts.exec_tier = ExecTier::parse(&spec).ok_or_else(|| {
                    format!("--exec-tier: unknown tier `{spec}` (ref|decoded|threaded)")
                })?;
            }
            "--trace" => opts.trace_out = Some(need(&mut args, "--trace")?),
            "--profile" => opts.profile = true,
            "--newest-first" => opts.order = PromotionOrder::NewestFirst,
            "--linux" => opts.linux = true,
            "--nautilus" => opts.linux = false,
            "--print" => opts.print = true,
            "--ir" => opts.ir = true,
            "--mode" => {
                opts.mode = match need(&mut args, "--mode")?.as_str() {
                    "serial" => tpal::ir::Mode::Serial,
                    "heartbeat" => tpal::ir::Mode::Heartbeat,
                    "expanded" => tpal::ir::Mode::HeartbeatExpanded,
                    "eager" => tpal::ir::Mode::Eager { workers: 15 },
                    other => return Err(format!("unknown --mode `{other}`")),
                };
            }
            "--help" | "-h" => return Err(usage()),
            other if opts.file.is_empty() && !other.starts_with('-') => {
                opts.file = other.to_owned();
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    if opts.file.is_empty() {
        return Err(usage());
    }
    if opts.sim_cores.is_some() && opts.rt_workers.is_some() {
        return Err("--sim and --rt are mutually exclusive".to_owned());
    }
    if (opts.trace_out.is_some() || opts.profile)
        && opts.sim_cores.is_none()
        && opts.rt_workers.is_none()
    {
        return Err(
            "--trace/--profile need a simulator or runtime run (--sim CORES | --rt WORKERS)"
                .to_owned(),
        );
    }
    if let Some(label) = policy {
        let domain = match (opts.sim_cores, opts.rt_workers) {
            (Some(_), _) => Domain::Sim,
            (_, Some(_)) => Domain::Rt,
            _ => {
                return Err(
                    "--policy needs a simulator or runtime run (--sim CORES | --rt WORKERS)"
                        .to_owned(),
                )
            }
        };
        opts.promotion = Promotion::parse(&label, domain).map_err(|e| format!("--policy: {e}"))?;
    }
    if opts.heartbeat_source.is_some() && opts.rt_workers.is_none() {
        return Err("--heartbeat-source needs a native-runtime run (--rt WORKERS)".to_owned());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let src = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{}: {e}", opts.file);
            return ExitCode::FAILURE;
        }
    };
    // Assembly directly, or source compiled through the IR. With --ir,
    // --set names become entry-function parameters.
    let (program, sets) = if opts.ir {
        let ir = match tpal::ir::parse_ir(&src) {
            Ok(ir) => ir,
            Err(e) => {
                eprintln!("{}: {e}", opts.file);
                return ExitCode::FAILURE;
            }
        };
        let lowered = match tpal::ir::lower(&ir, opts.mode) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("{}: {e}", opts.file);
                return ExitCode::FAILURE;
            }
        };
        let sets = opts
            .sets
            .iter()
            .map(|(k, v)| (lowered.param_reg(k), *v))
            .collect::<Vec<_>>();
        (lowered.program, sets)
    } else {
        let program = match parse_program(&src) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{}: {e}", opts.file);
                return ExitCode::FAILURE;
            }
        };
        (program, opts.sets.clone())
    };
    if opts.print {
        print!("{}", print_program(&program));
        return ExitCode::SUCCESS;
    }

    // Final integer registers, sorted by name, skipping never-written ones.
    let dump = |regs: &[(String, i64)]| {
        for (name, v) in regs {
            println!("  {name} = {v}");
        }
    };
    let named_regs = |read: &dyn Fn(&str) -> Option<i64>| {
        let mut regs = Vec::new();
        for i in 0..program.reg_count() {
            let name = program
                .reg_name(tpal::core::isa::Reg::from_index(i))
                .to_owned();
            if let Some(v) = read(&name) {
                regs.push((name, v));
            }
        }
        regs.sort();
        regs
    };

    if let Some(cores) = opts.sim_cores {
        // The simulator's ♥ is in cycles; the machine default of 100 is
        // far too aggressive there, so the flag-absent default is the
        // tuned value. An explicitly passed ♥ — including an explicit
        // 100 — is always honoured.
        let heartbeat = opts.heartbeat.unwrap_or(3_000);
        let mut config = if opts.linux {
            SimConfig::linux(cores, heartbeat)
        } else {
            SimConfig::nautilus(cores, heartbeat)
        };
        config.promotion_order = opts.order;
        config.promotion = opts.promotion;
        config.exec_tier = opts.exec_tier;
        config.record_trace = opts.trace_out.is_some() || opts.profile;
        let mut sim = Sim::new(&program, config);
        for (k, v) in &sets {
            if let Err(e) = sim.set_reg(k, *v) {
                eprintln!("--set {k}: {e}");
                return ExitCode::FAILURE;
            }
        }
        match sim.run() {
            Ok(out) => {
                println!(
                    "simulated {cores} cores, ♥ = {heartbeat}, policy = {}:",
                    opts.promotion.label(Domain::Sim)
                );
                dump(&named_regs(&|name| out.read_reg(name)));
                println!(
                    "  time = {} cycles, tasks = {}, steals = {}, utilization = {:.0}%, \
                     heartbeat rate achieved = {:.0}%",
                    out.time,
                    out.stats.forks,
                    out.stats.steals,
                    out.utilization() * 100.0,
                    out.heartbeat_rate_achieved() * 100.0
                );
                if let Some(trace) = &out.trace {
                    if report_trace(trace, &opts) == ExitCode::FAILURE {
                        return ExitCode::FAILURE;
                    }
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("simulation failed: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        // The machine and the native runtime run the same `Machine` —
        // same backend, τ, promotion order and step limit — and differ
        // only in where heartbeats come from: the machine's ♥ counts
        // instructions, the runtime's is wall-clock microseconds (the
        // paper's §4.2 interval as the flag-absent default).
        let heartbeat = opts.heartbeat.unwrap_or(100);
        let config = MachineConfig::default()
            .with_heartbeat(heartbeat)
            .with_tau(opts.tau)
            .with_promotion_order(opts.order)
            .with_exec_tier(opts.exec_tier);
        let mut m = Machine::new(&program, config);
        for (k, v) in &sets {
            if let Err(e) = m.set_reg(k, *v) {
                eprintln!("--set {k}: {e}");
                return ExitCode::FAILURE;
            }
        }
        if opts.rt_workers.is_none() {
            return match m.run() {
                Ok(out) => {
                    println!("machine run, ♥ = {heartbeat}:");
                    dump(&named_regs(&|name| out.read_reg(name)));
                    println!(
                        "  instructions = {}, tasks = {}, promotions = {}, {}",
                        out.stats.instructions,
                        out.stats.forks,
                        out.stats.promotions,
                        cost_summary(&out)
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("machine fault: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        // One job is ever injected and its tasks stay on the worker that
        // picks it up, so whatever `--rt N` says the pool has one worker.
        let mut rt_config = RtConfig::default()
            .workers(1)
            .heartbeat(Duration::from_micros(heartbeat))
            .promotion(opts.promotion)
            .trace(opts.trace_out.is_some() || opts.profile);
        if let Some(source) = opts.heartbeat_source {
            rt_config = rt_config.source(source);
        }
        let rt = Runtime::new(rt_config);
        match rt.run_program(&mut m) {
            Ok((out, heartbeats)) => {
                println!(
                    "native runtime, {} worker, ♥ = {heartbeat}µs, \
                     policy = {}, source = {}:",
                    rt.workers(),
                    rt_config.promotion.label(Domain::Rt),
                    rt_config.source.label()
                );
                dump(&named_regs(&|name| out.read_reg(name)));
                println!(
                    "  instructions = {}, heartbeats = {heartbeats}, promotions = {}, \
                     tasks = {}, joins = {}, {}",
                    out.stats.instructions,
                    out.stats.promotions,
                    out.stats.forks,
                    out.stats.joins,
                    cost_summary(&out)
                );
                if let Some(trace) = rt.take_trace() {
                    if report_trace(&trace, &opts) == ExitCode::FAILURE {
                        return ExitCode::FAILURE;
                    }
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("runtime fault: {e}");
                ExitCode::FAILURE
            }
        }
    }
}

/// The cost-semantics tail of a machine or native-runtime summary line.
fn cost_summary(out: &tpal::core::machine::Outcome) -> String {
    format!(
        "work = {}, span = {} (parallelism {:.1})",
        out.work,
        out.span,
        out.parallelism()
    )
}

/// Writes `--trace` output and prints the `--profile` report from a
/// recorded trace (shared by the simulator and native-runtime paths).
fn report_trace(trace: &tpal::trace::Trace, opts: &Options) -> ExitCode {
    if let Some(path) = &opts.trace_out {
        let json = tpal::trace::chrome::chrome_json(trace);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("--trace {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("  trace: {} events -> {path}", trace.len());
    }
    if opts.profile {
        let p = tpal::trace::WorkSpanProfile::from_trace(trace);
        println!(
            "  profile: work = {} cycles, span = {} cycles, \
             parallelism = {:.1}, tasks = {}",
            p.work,
            p.span,
            p.parallelism(),
            p.tasks
        );
        print!("{}", tpal::trace::MetricsReport::from_trace(trace).render());
    }
    ExitCode::SUCCESS
}
