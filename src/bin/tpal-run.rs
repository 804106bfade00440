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
//! `tpal-run` is a front door to `tpal-serve`'s engine: its flags become
//! a [`ProgramSrc`] and a [`RunSpec`], the program compiles through a
//! private engine's decode cache, and the run goes through
//! [`Engine::run`] — the path a `POST /run` takes, minus the service's
//! ceilings. A run here and a request there with the same settings end
//! in the same registers.
//!
//! Without `--ir`, FILE is TPAL assembly (`.tpal`). With `--ir`, FILE is
//! the C-like task-parallel source language (`.tpl`), compiled through
//! `tpal-ir` in the chosen mode (default `heartbeat`); `--set` then
//! names the entry function's parameters and the result register is
//! `result`. Three execution substrates are reachable: the reference
//! machine (the default), the multicore simulator (`--sim CORES`), and
//! the native heartbeat runtime (`--rt WORKERS`). WORKERS does not
//! speed a *program* up: the runtime runs the machine's own task-set
//! driver on one worker, with real-time heartbeats (so `--tau` and
//! `--newest-first` apply there too), and that one worker is the pool —
//! the summary line says so.
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
//! A flag the selected run would ignore is refused by name (exit 1):
//! `--sim` with `--rt`; `--policy`, `--trace` or `--profile` without
//! either; `--heartbeat-source` without `--rt`; `--linux` or
//! `--nautilus` without `--sim`; `--tau` with `--sim` (the simulator
//! charges cycles, not τ); `--mode` without `--ir`. So is a run no
//! substrate can execute: zero cores or workers, or a simulated
//! per-core-timer ♥ at or below the timer's 5-cycle service cost, which
//! would service beats forever without running an instruction.
//!
//! Errors go to stderr prefixed by where they arose: `FILE: asm parse:`,
//! `FILE: ir parse:` or `FILE: lowering:` for the frontend, `set NAME:`
//! for an unknown argument register, and `machine fault:`,
//! `simulation failed:` or `runtime fault:` for a run that faults or
//! exceeds its step limit.
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

use std::env::Args;
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;

use tpal::core::asm::print_program;
use tpal::core::machine::{Outcome, PromotionOrder};
use tpal::rt::HeartbeatSource;
use tpal::serve::engine::{Engine, Report, RunConfig};
use tpal::serve::spec::{ProgramSrc, RunSpec, Substrate};
use tpal::sim::{ExecTier, Promotion};
use tpal::trace::{chrome, MetricsReport, WorkSpanProfile};

fn usage() -> String {
    "usage: tpal-run FILE [--ir [--mode serial|heartbeat|expanded|eager]] \
     [--set reg=int]... [--heartbeat N] [--tau N] [--sim CORES | --rt WORKERS] \
     [--linux | --nautilus] [--policy P[/V]] \
     [--heartbeat-source ping|local-timer|signal] \
     [--exec-tier ref|decoded|threaded] \
     [--newest-first] [--print] [--trace OUT.json] [--profile]"
        .to_owned()
}

fn main() -> ExitCode {
    match run(std::env::args()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// The next argument, as `flag`'s value.
fn value<T: FromStr<Err: Display>>(args: &mut Args, flag: &str) -> Result<T, String> {
    let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|e| format!("{flag}: {e}"))
}

fn run(mut args: Args) -> Result<(), String> {
    args.next(); // program name
    let mut src = ProgramSrc::asm("");
    let mut spec = RunSpec::rt(1);
    let (mut file, mut sim, mut rt, mut tau) = (None, None, None, None);
    let (mut delivery, mut mode, mut policy, mut source) = (None, None, None, None);
    let (mut order, mut print) = (PromotionOrder::OldestFirst, false);
    let (mut trace_out, mut profile) = (None::<String>, false);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--set" => {
                let kv: String = value(&mut args, &arg)?;
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("--set expects reg=int, got `{kv}`"))?;
                let v = v.parse().map_err(|e| format!("--set {kv}: {e}"))?;
                spec.sets.push((k.to_owned(), v));
            }
            "--heartbeat" => spec.heartbeat = Some(value(&mut args, &arg)?),
            "--tau" => tau = Some(value(&mut args, &arg)?),
            "--sim" => sim = Some(value(&mut args, &arg)?),
            "--rt" => rt = Some(value(&mut args, &arg)?),
            "--policy" => policy = Some(value::<String>(&mut args, &arg)?),
            "--heartbeat-source" => {
                let s: String = value(&mut args, &arg)?;
                source = Some(HeartbeatSource::parse(&s).ok_or_else(|| {
                    format!("--heartbeat-source: unknown source `{s}` (ping|local-timer|signal)")
                })?);
            }
            "--exec-tier" => {
                let s: String = value(&mut args, &arg)?;
                spec.tier = ExecTier::parse(&s).ok_or_else(|| {
                    format!("--exec-tier: unknown tier `{s}` (ref|decoded|threaded)")
                })?;
            }
            "--mode" => mode = Some(value(&mut args, &arg)?),
            "--trace" => trace_out = Some(value(&mut args, &arg)?),
            "--profile" => profile = true,
            "--newest-first" => order = PromotionOrder::NewestFirst,
            "--linux" | "--nautilus" => delivery = Some(arg.clone()),
            "--print" => print = true,
            "--ir" => src.ir = true,
            "--help" | "-h" => return Err(usage()),
            other if file.is_none() && !other.starts_with('-') => file = Some(other.to_owned()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    let file = file.ok_or_else(usage)?;
    if sim.is_some() && rt.is_some() {
        return Err("--sim and --rt are mutually exclusive".to_owned());
    }
    let parallel = sim.is_some() || rt.is_some();
    let traced = trace_out.is_some() || profile;
    let sim_or_rt = "a simulator or runtime run (--sim CORES | --rt WORKERS)";
    let on_rt = "a native-runtime run (--rt WORKERS)";
    let on_sim = "a simulator run (--sim CORES)";
    let off_sim = "a machine or native-runtime run";
    let flag = delivery.as_deref().unwrap_or_default();
    // A flag the selected run would ignore is refused by name.
    for (given, name, ok, run) in [
        (traced, "--trace/--profile", parallel, sim_or_rt),
        (policy.is_some(), "--policy", parallel, sim_or_rt),
        (source.is_some(), "--heartbeat-source", rt.is_some(), on_rt),
        (!flag.is_empty(), flag, sim.is_some(), on_sim),
        (tau.is_some(), "--tau", sim.is_none(), off_sim),
        (mode.is_some(), "--mode", src.ir, "--ir"),
    ] {
        if given && !ok {
            return Err(format!("{name} needs {run}"));
        }
    }

    // A machine run is a one-worker rt spec whose pool is dropped below.
    spec.substrate = match (sim, rt) {
        (Some(cores), _) => Substrate::Sim {
            cores,
            linux: flag == "--linux",
        },
        (None, workers) => Substrate::Rt {
            workers: workers.unwrap_or(1),
        },
    };
    if let Some(label) = policy {
        spec.promotion = Promotion::parse(&label, spec.substrate.domain())
            .map_err(|e| format!("--policy: {e}"))?;
    }
    spec.source = source.unwrap_or(spec.source);
    src.source = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
    src.mode = mode.unwrap_or(src.mode);
    let engine = Engine::new();
    let entry = engine.cache().get_or_compile(&src).0;
    let entry = entry.map_err(|e| format!("{file}: {e}"))?;
    if print {
        print!("{}", print_program(entry.program()));
        return Ok(());
    }

    // τ, the promotion order and the machine run in place of a pool are
    // this front door's own adjustments of the spec's config.
    let mut config = spec.config(traced, None)?;
    let heartbeat = match &mut config {
        RunConfig::Sim(sim) => {
            sim.promotion_order = order;
            sim.heartbeat
        }
        RunConfig::Machine(machine, pool) => {
            machine.tau = tau.unwrap_or(machine.tau);
            machine.promotion_order = order;
            if rt.is_none() {
                *pool = None;
            }
            machine.heartbeat
        }
    };
    let outcome = engine
        .run(&entry, config, &spec.sets)
        .map_err(|e| e.to_string())?;
    let label = spec.promotion.label(spec.substrate.domain());
    let (header, summary) = match &outcome.report {
        Report::Sim(out) => (
            format!(
                "simulated {} cores, ♥ = {heartbeat}, policy = {label}:",
                out.cores
            ),
            format!(
                "time = {} cycles, tasks = {}, steals = {}, utilization = {:.0}%, \
                 heartbeat rate achieved = {:.0}%",
                out.time,
                out.stats.forks,
                out.stats.steals,
                out.utilization() * 100.0,
                out.heartbeat_rate_achieved() * 100.0
            ),
        ),
        Report::Machine(out) => (
            format!("machine run, ♥ = {heartbeat}:"),
            format!(
                "instructions = {}, tasks = {}, promotions = {}, {}",
                out.stats.instructions,
                out.stats.forks,
                out.stats.promotions,
                cost_summary(out)
            ),
        ),
        Report::Rt {
            out,
            heartbeats,
            workers,
            ..
        } => (
            format!(
                "native runtime, {workers} worker, ♥ = {heartbeat}µs, policy = {label}, \
                 source = {}:",
                spec.source.label()
            ),
            format!(
                "instructions = {}, heartbeats = {heartbeats}, promotions = {}, tasks = {}, \
                 joins = {}, {}",
                out.stats.instructions,
                out.stats.promotions,
                out.stats.forks,
                out.stats.joins,
                cost_summary(out)
            ),
        ),
    };
    println!("{header}");
    for (name, v) in &outcome.registers {
        println!("  {name} = {v}");
    }
    println!("  {summary}");
    let Some(trace) = outcome.report.trace() else {
        return Ok(());
    };
    if let Some(path) = &trace_out {
        let json = chrome::chrome_json(trace);
        std::fs::write(path, json).map_err(|e| format!("--trace {path}: {e}"))?;
        println!("  trace: {} events -> {path}", trace.len());
    }
    if profile {
        let p = WorkSpanProfile::from_trace(trace);
        println!(
            "  profile: work = {} cycles, span = {} cycles, \
             parallelism = {:.1}, tasks = {}",
            p.work,
            p.span,
            p.parallelism(),
            p.tasks
        );
        print!("{}", MetricsReport::from_trace(trace).render());
    }
    Ok(())
}

/// The cost-semantics tail of a machine or native-runtime summary line.
fn cost_summary(out: &Outcome) -> String {
    format!(
        "work = {}, span = {} (parallelism {:.1})",
        out.work,
        out.span,
        out.parallelism()
    )
}
