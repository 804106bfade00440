//! Records a structured scheduling trace of one simulated workload and
//! writes it as Chrome `trace_event` JSON, printing the TASKPROF-style
//! work/span profile and the per-core metrics report on the way out.
//!
//! ```text
//! cargo run --release -p tpal-bench --example trace_workload -- \
//!     [WORKLOAD] [CORES] [OUT.json]
//! ```
//!
//! Defaults: `mergesort-uniform`, 4 cores, `trace_<workload>.json` in
//! the current directory. Open the output at `chrome://tracing` or
//! <https://ui.perfetto.dev> — one track per simulated core, work spans
//! labelled by task, instants for spawns/steals/heartbeats/joins. CI
//! runs this for the trace-artifact smoke.

use std::process::ExitCode;

use tpal_ir::lower::{lower, Mode};
use tpal_sim::{Sim, SimConfig};
use tpal_trace::{chrome, EventKind, MetricsReport, WorkSpanProfile};
use tpal_workloads::{all_workloads, workload, Scale};

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "mergesort-uniform".into());
    let cores: usize = match args.next().as_deref().map(str::parse).unwrap_or(Ok(4)) {
        Ok(c) if c > 0 => c,
        _ => {
            eprintln!("CORES must be a positive integer");
            return ExitCode::FAILURE;
        }
    };
    let out_path = args.next().unwrap_or_else(|| format!("trace_{name}.json"));

    let Some(w) = workload(&name) else {
        let known: Vec<_> = all_workloads().iter().map(|w| w.name()).collect();
        eprintln!("unknown workload `{name}`; known: {}", known.join(", "));
        return ExitCode::FAILURE;
    };
    let spec = w.sim_spec(Scale::Quick);
    let lowered = match lower(&spec.ir, Mode::Heartbeat) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("{name}: lowering failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut config = SimConfig::nautilus(cores, 3_000);
    config.record_trace = true;
    let mut sim = Sim::new(&lowered.program, config);
    for (pname, data) in &spec.input.arrays {
        let base = sim.alloc_array(data);
        sim.set_reg(&lowered.param_reg(pname), base).unwrap();
    }
    for (pname, v) in &spec.input.ints {
        sim.set_reg(&lowered.param_reg(pname), *v).unwrap();
    }
    let out = match sim.run() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{name}: simulation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if out.read_reg(&lowered.result_reg) != Some(spec.expected) {
        eprintln!("{name}: wrong result — refusing to write a trace of a broken run");
        return ExitCode::FAILURE;
    }

    let trace = out.trace.as_ref().expect("record_trace was set");
    let json = chrome::chrome_json(trace);
    if let Err(e) = chrome::validate(&json) {
        eprintln!("{name}: rendered trace failed validation: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("{out_path}: {e}");
        return ExitCode::FAILURE;
    }

    let idle_spans = trace
        .tracks
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| matches!(e.kind, EventKind::Idle { .. }))
        .count();
    println!(
        "{name} on {cores} cores: {} cycles, {} events ({idle_spans} idle spans for {} failed \
         steals) -> {out_path}",
        out.time,
        trace.len(),
        out.stats.failed_steals
    );
    let p = WorkSpanProfile::from_trace(trace);
    println!(
        "work/span: T1 = {} cycles, Tinf = {} cycles, parallelism = {:.1}, tasks = {}",
        p.work,
        p.span,
        p.parallelism(),
        p.tasks
    );
    print!("{}", MetricsReport::from_trace(trace).render());
    ExitCode::SUCCESS
}
