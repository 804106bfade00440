//! The execution engine: the one path from a cached program plus a
//! substrate configuration to a finished run — on the deterministic
//! simulator, on the abstract machine, or on the machine driven by a
//! shared native-runtime pool. [`Engine::run`] is that path;
//! [`Engine::execute`] adds the service's ceilings in front of it and
//! its JSON rendering behind it, and `tpal-run` prints the same
//! [`RunOutcome`] as text.
//!
//! The deterministic part of every response — registers, and on the
//! simulator also statistics and makespan — is rendered into one
//! canonical JSON string (`RunOutput::result`) so that replaying a
//! token can be checked bit-for-bit by comparing strings. Observational
//! data (native-runtime scheduling counters, wall time, traces) stays
//! in `RunOutput::extras`, outside the comparison.

use std::fmt::{Display, Write};
use std::sync::{Arc, Mutex};

use tpal_core::isa::Reg;
use tpal_core::machine::{Machine, MachineConfig, Outcome, Value};
use tpal_rt::{RtConfig, Runtime};
use tpal_sim::{Sim, SimConfig, SimOutcome};
use tpal_trace::json::{escape, write_escaped};
use tpal_trace::{chrome, MetricsReport, Trace, WorkSpanProfile};

use crate::cache::{CachedProgram, ProgramCache};
use crate::spec::{RunSpec, Substrate};

/// The service's flag-absent instruction budget, on both substrates.
/// Far below [`SimConfig`]'s and [`MachineConfig`]'s own defaults: a
/// shared service bounds tenant runs aggressively, and a spec can still
/// raise it explicitly.
pub const SERVICE_STEP_LIMIT: u64 = 200_000_000;

/// Hard caps a shared service imposes on one run, whatever the spec says.
pub const MAX_CORES: usize = 256;
/// See [`MAX_CORES`].
pub const MAX_RT_WORKERS: usize = 64;
/// The smallest native-runtime ♥ a spec may ask for, in µs: the smallest
/// every delivery source has been shown to run a program at. Below it a
/// worker would spend its time servicing beats.
pub const MIN_RT_HEARTBEAT_US: u64 = 20;

/// How many distinct native-runtime pools stay warm. Pools are keyed by
/// their [`RtConfig`] (♥, promotion rule, delivery source, trace) and
/// have one worker per thread that can call [`Engine::run`] at once — a
/// TPAL program's promoted tasks never leave the worker interpreting it,
/// so a spec's `workers` buys a run nothing, while a worker per caller
/// keeps concurrent requests of one shape running side by side; the cap
/// bounds resident OS threads when many tenants ask for many shapes.
const MAX_RT_POOLS: usize = 4;

/// Optional report attachments for a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunInclude {
    /// Attach the Chrome `trace_event` JSON of the scheduling trace.
    pub trace: bool,
    /// Attach the TASKPROF-style work/span profile.
    pub profile: bool,
    /// Attach the per-core metrics report (rendered text).
    pub metrics: bool,
}

impl RunInclude {
    fn any(self) -> bool {
        self.trace || self.profile || self.metrics
    }
}

/// A rendered run: the deterministic result object plus observational
/// top-level extras.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// Canonical JSON of the deterministic `result` object. Equal specs
    /// against equal programs yield byte-equal strings — the replay
    /// contract.
    pub result: String,
    /// Extra top-level response fields, already rendered as JSON
    /// values, excluded from replay comparison (observational).
    pub extras: Vec<(String, String)>,
}

/// How an [`Engine`] call failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The request is malformed or unsatisfiable (HTTP 400).
    Bad(String),
    /// A replay token names a program hash this server never compiled
    /// (HTTP 404): tokens carry the spec but not the source text.
    UnknownProgram(u64),
}

impl Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Bad(msg) => f.write_str(msg),
            EngineError::UnknownProgram(h) => {
                write!(
                    f,
                    "program {h:016x} is not in this server's cache; resubmit its source"
                )
            }
        }
    }
}

/// A run's substrate configuration, built by [`RunSpec::config`].
#[derive(Debug, Clone, Copy)]
pub enum RunConfig {
    /// The deterministic multicore simulator.
    Sim(SimConfig),
    /// The abstract machine's task-set driver: on a warm native-runtime
    /// pool with real-time beats when the [`RtConfig`] is present, else
    /// on the machine's own instruction-counting ♥ (the reference
    /// machine).
    Machine(MachineConfig, Option<RtConfig>),
}

/// A finished run, before rendering.
#[derive(Debug)]
pub struct RunOutcome<'p> {
    /// The halting task's integer registers, sorted by name (the names
    /// are the program's own).
    pub registers: Vec<(&'p str, i64)>,
    /// What the substrate reports beyond the registers.
    pub report: Report,
}

/// The substrate's own account of a run.
#[derive(Debug)]
pub enum Report {
    /// A simulator run: deterministic statistics and makespan.
    Sim(SimOutcome),
    /// A reference-machine run.
    Machine(Outcome),
    /// A run on a native-runtime pool, whose scheduling counters depend
    /// on when real-time beats arrived.
    Rt {
        /// The machine's outcome.
        out: Outcome,
        /// Heartbeats the interpreter observed.
        heartbeats: u64,
        /// The pool's worker count.
        workers: usize,
        /// The pool's trace, when its config records one.
        trace: Option<Trace>,
    },
}

impl Report {
    /// The recorded scheduling trace, if the run recorded one.
    pub fn trace(&self) -> Option<&Trace> {
        match self {
            Report::Sim(out) => out.trace.as_ref(),
            Report::Rt { trace, .. } => trace.as_ref(),
            Report::Machine(_) => None,
        }
    }
}

/// The shared execution engine: the decode cache plus a small set of
/// warm native-runtime pools.
pub struct Engine {
    cache: ProgramCache,
    callers: usize,
    pools: Mutex<Vec<(RtConfig, Arc<Runtime>)>>,
}

impl Engine {
    /// A fresh engine with an empty cache and no warm pools, for one
    /// calling thread.
    pub fn new() -> Engine {
        Engine::shared_by(1)
    }

    /// A fresh engine that `callers` threads execute on at once (the
    /// server's executors): each blocks in its run until a pool worker
    /// finishes it, so every native-runtime pool gets that many workers
    /// and a long run delays no other caller's.
    pub fn shared_by(callers: usize) -> Engine {
        Engine {
            cache: ProgramCache::new(),
            callers: callers.clamp(1, MAX_RT_WORKERS),
            pools: Mutex::new(Vec::new()),
        }
    }

    /// The decode cache (submission path and statistics).
    pub fn cache(&self) -> &ProgramCache {
        &self.cache
    }

    /// Executes `spec` against a cached program under the service's
    /// ceilings and defaults, rendering the result.
    ///
    /// # Errors
    ///
    /// [`EngineError::Bad`] for unsatisfiable specs (zero or excessive
    /// parallelism, a step limit above [`SERVICE_STEP_LIMIT`], a native
    /// ♥ below [`MIN_RT_HEARTBEAT_US`], whatever [`RunSpec::config`]
    /// refuses, report attachments on the native runtime) and whatever
    /// [`Engine::run`] fails with.
    pub fn execute(
        &self,
        entry: &CachedProgram,
        spec: &RunSpec,
        include: RunInclude,
    ) -> Result<RunOutput, EngineError> {
        admit(spec, include).map_err(EngineError::Bad)?;
        let config = spec
            .config(include.any(), Some(SERVICE_STEP_LIMIT))
            .map_err(EngineError::Bad)?;
        let outcome = self.run(entry, config, &spec.sets)?;
        Ok(render(&outcome, include))
    }

    /// Replays a token: decodes it, fetches the program from the cache,
    /// and re-executes the spec (no attachments — replay reproduces the
    /// deterministic result object only).
    pub fn replay(&self, token: &str) -> Result<(RunSpec, RunOutput), EngineError> {
        let (hash, spec) = RunSpec::from_token(token).map_err(EngineError::Bad)?;
        let entry = self
            .cache
            .lookup(hash)
            .ok_or(EngineError::UnknownProgram(hash))?;
        let output = self.execute(&entry, &spec, RunInclude::default())?;
        Ok((spec, output))
    }

    /// Runs `entry` under `config`, first seeding the argument registers
    /// `sets` (names as submitted, mapped by
    /// [`CachedProgram::set_reg_name`]) in order.
    ///
    /// # Errors
    ///
    /// [`EngineError::Bad`] for an unknown argument register and for a
    /// run that faults or exceeds its step limit.
    pub fn run<'p>(
        &self,
        entry: &'p CachedProgram,
        config: RunConfig,
        sets: &[(String, i64)],
    ) -> Result<RunOutcome<'p>, EngineError> {
        let program = entry.program();
        let bad = |what: &str, e: &dyn Display| EngineError::Bad(format!("{what}: {e}"));
        let report = match config {
            RunConfig::Sim(config) => {
                // The compiled artifact is cloned per run (a memcpy of the
                // handler stream), not recompiled — the decode-once payoff.
                let backend = entry.backend(config.exec_tier).clone();
                let mut sim = Sim::with_backend(program, backend, config);
                for (name, value) in sets {
                    sim.set_reg(&entry.set_reg_name(name), *value)
                        .map_err(|e| bad(&format!("set {name}"), &e))?;
                }
                Report::Sim(sim.run().map_err(|e| bad("simulation failed", &e))?)
            }
            RunConfig::Machine(config, rt) => {
                let backend = entry.backend(config.exec_tier);
                let mut machine = Machine::with_backend(program, backend, config);
                for (name, value) in sets {
                    machine
                        .set_reg(&entry.set_reg_name(name), *value)
                        .map_err(|e| bad(&format!("set {name}"), &e))?;
                }
                match rt {
                    None => Report::Machine(machine.run().map_err(|e| bad("machine fault", &e))?),
                    Some(rt) => {
                        let pool = self.pool(rt);
                        let (out, heartbeats) = pool
                            .run_program(&mut machine)
                            .map_err(|e| bad("runtime fault", &e))?;
                        let (workers, trace) = (pool.workers(), pool.take_trace());
                        Report::Rt {
                            out,
                            heartbeats,
                            workers,
                            trace,
                        }
                    }
                }
            }
        };
        let value = |i: usize| match &report {
            Report::Sim(out) => out.final_regs()[i].1,
            Report::Machine(out) | Report::Rt { out, .. } => {
                out.final_regs().read_raw(Reg::from_index(i))
            }
        };
        let mut registers: Vec<(&str, i64)> = (0..program.reg_count())
            .filter_map(|i| match value(i) {
                Value::Int(x) => Some((program.reg_name(Reg::from_index(i)), x)),
                _ => None,
            })
            .collect();
        registers.sort();
        Ok(RunOutcome { registers, report })
    }

    /// Fetches (or creates) the warm pool of `config`'s shape, sized one
    /// worker per caller, evicting the oldest pool beyond
    /// [`MAX_RT_POOLS`].
    fn pool(&self, config: RtConfig) -> Arc<Runtime> {
        let config = config.workers(self.callers);
        let mut pools = self.pools.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, pool)) = pools.iter().find(|(k, _)| *k == config) {
            return Arc::clone(pool);
        }
        let pool = Arc::new(Runtime::new(config));
        pools.push((config, Arc::clone(&pool)));
        if pools.len() > MAX_RT_POOLS {
            // Dropped here only if no in-flight run still holds the Arc.
            pools.remove(0);
        }
        pool
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

/// The service's own ceilings, checked ahead of a run. A value is
/// refused by name: a step limit above [`SERVICE_STEP_LIMIT`], cores or
/// workers outside the service's range, a native ♥ below
/// [`MIN_RT_HEARTBEAT_US`] (the default is above it), and attachments
/// on the native runtime, whose shared pools would interleave unrelated
/// tenants' traces — the simulator is the observability substrate.
fn admit(spec: &RunSpec, include: RunInclude) -> Result<(), String> {
    let hb_floor = MIN_RT_HEARTBEAT_US;
    match (spec.substrate, spec.step_limit, spec.heartbeat) {
        (_, Some(limit), _) if limit > SERVICE_STEP_LIMIT => Err(format!(
            "step_limit must be at most {SERVICE_STEP_LIMIT}, got {limit}"
        )),
        (Substrate::Sim { cores, .. }, ..) if !(1..=MAX_CORES).contains(&cores) => {
            Err(format!("cores must be in 1..={MAX_CORES}, got {cores}"))
        }
        (Substrate::Rt { workers }, ..) if !(1..=MAX_RT_WORKERS).contains(&workers) => Err(
            format!("workers must be in 1..={MAX_RT_WORKERS}, got {workers}"),
        ),
        (Substrate::Rt { .. }, _, Some(hb)) if hb < hb_floor => Err(format!(
            "heartbeat must be at least {hb_floor} µs on the rt substrate, got {hb}"
        )),
        (Substrate::Rt { .. }, ..) if include.any() => {
            Err("trace/profile/metrics attachments need the sim substrate".to_owned())
        }
        _ => Ok(()),
    }
}

/// Renders a run as the service's canonical `result` object plus its
/// observational extras.
fn render(outcome: &RunOutcome<'_>, include: RunInclude) -> RunOutput {
    let mut result = String::from("{\"registers\":{");
    for (i, (name, v)) in outcome.registers.iter().enumerate() {
        result.push_str(if i > 0 { ",\"" } else { "\"" });
        let _ = write_escaped(&mut result, name);
        let _ = write!(result, "\":{v}");
    }
    result.push('}');
    let mut extras = Vec::new();
    match &outcome.report {
        Report::Sim(out) => {
            let s = &out.stats;
            let _ = write!(
                result,
                ",\"stats\":{{\"failed_steals\":{},\"forks\":{},\"heartbeats_delivered\":{},\
                 \"idle_cycles\":{},\"instructions\":{},\"joins\":{},\"max_live_tasks\":{},\
                 \"merges\":{},\"overhead_cycles\":{},\"promotions\":{},\"steals\":{},\
                 \"work_cycles\":{}}},\"time\":{}",
                s.failed_steals,
                s.forks,
                s.heartbeats_delivered,
                s.idle_cycles,
                s.instructions,
                s.joins,
                s.max_live_tasks,
                s.merges,
                s.overhead_cycles,
                s.promotions,
                s.steals,
                s.work_cycles,
                out.time,
            );
        }
        // Registers are the deterministic contract on the native
        // runtime; scheduling counters depend on real-time heartbeat
        // arrival and stay observational.
        Report::Rt {
            out, heartbeats, ..
        } => {
            let s = &out.stats;
            extras.push((
                "rt_stats".to_owned(),
                format!(
                    "{{\"forks\":{},\"heartbeats\":{heartbeats},\"instructions\":{},\"joins\":{},\
                     \"promotions\":{}}}",
                    s.forks, s.instructions, s.joins, s.promotions
                ),
            ));
        }
        Report::Machine(_) => {}
    }
    result.push('}');
    if let Some(trace) = outcome.report.trace() {
        if include.trace {
            extras.push(("trace".to_owned(), chrome::chrome_json(trace)));
        }
        if include.profile {
            let p = WorkSpanProfile::from_trace(trace);
            extras.push((
                "profile".to_owned(),
                format!(
                    "{{\"parallelism\":{:.3},\"span\":{},\"tasks\":{},\"work\":{}}}",
                    p.parallelism(),
                    p.span,
                    p.tasks,
                    p.work
                ),
            ));
        }
        if include.metrics {
            let report = MetricsReport::from_trace(trace).render();
            extras.push(("metrics".to_owned(), format!("\"{}\"", escape(&report))));
        }
    }
    RunOutput { result, extras }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ProgramSrc;

    fn fib_src() -> ProgramSrc {
        ProgramSrc::tpl(
            "fn fib(n) {\n    if n < 2 { return n; }\n    par {\n        f1 = fib(n - 1);\n        f2 = fib(n - 2);\n    }\n    return f1 + f2;\n}\n",
            "heartbeat",
        )
    }

    #[test]
    fn sim_and_rt_agree_on_registers() {
        let engine = Engine::new();
        let (entry, _) = engine.cache().get_or_compile(&fib_src());
        let entry = entry.expect("fib compiles");
        let sim_spec = RunSpec::sim(2).set("n", 10);
        let rt_spec = RunSpec::rt(2).set("n", 10);
        let sim = engine
            .execute(&entry, &sim_spec, RunInclude::default())
            .unwrap();
        let rt = engine
            .execute(&entry, &rt_spec, RunInclude::default())
            .unwrap();
        assert!(
            sim.result.contains("\"result\":55"),
            "fib(10) = 55 in {}",
            sim.result
        );
        assert!(
            rt.result.contains("\"result\":55"),
            "fib(10) = 55 in {}",
            rt.result
        );
    }

    #[test]
    fn sim_results_are_reproducible_strings() {
        let engine = Engine::new();
        let (entry, _) = engine.cache().get_or_compile(&fib_src());
        let entry = entry.unwrap();
        let spec = RunSpec::sim(4).set("n", 12);
        let a = engine
            .execute(&entry, &spec, RunInclude::default())
            .unwrap();
        let b = engine
            .execute(&entry, &spec, RunInclude::default())
            .unwrap();
        assert_eq!(a.result, b.result, "same spec, byte-equal result");
    }

    #[test]
    fn rt_rejects_attachments() {
        let engine = Engine::new();
        let (entry, _) = engine.cache().get_or_compile(&fib_src());
        let entry = entry.unwrap();
        let spec = RunSpec::rt(1).set("n", 5);
        let err = engine
            .execute(
                &entry,
                &spec,
                RunInclude {
                    trace: true,
                    ..RunInclude::default()
                },
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::Bad(_)));
    }

    /// A step limit above the service's, an rt ♥ below its floor and a
    /// simulated per-core-timer ♥ the timer's service would swallow are
    /// refused by name, before anything runs; the bounds themselves run.
    #[test]
    fn numeric_bounds_are_refused_by_name() {
        let engine = Engine::new();
        let (entry, _) = engine.cache().get_or_compile(&fib_src());
        let entry = entry.unwrap();
        let run = |spec: &RunSpec| engine.execute(&entry, spec, RunInclude::default());
        for mut spec in [RunSpec::sim(2).set("n", 5), RunSpec::rt(1).set("n", 5)] {
            spec.step_limit = Some(SERVICE_STEP_LIMIT + 1);
            let Err(EngineError::Bad(e)) = run(&spec) else {
                panic!("a step limit above the service's must be refused")
            };
            assert!(e.contains("step_limit") && e.contains("200000001"), "{e}");
            spec.step_limit = Some(SERVICE_STEP_LIMIT);
            assert!(run(&spec).is_ok());
        }
        let mut spec = RunSpec::rt(1).set("n", 5);
        spec.heartbeat = Some(MIN_RT_HEARTBEAT_US - 1);
        let Err(EngineError::Bad(e)) = run(&spec) else {
            panic!("an rt heartbeat below the floor must be refused")
        };
        assert!(e.contains("heartbeat") && e.contains("got 19"), "{e}");
        spec.heartbeat = Some(MIN_RT_HEARTBEAT_US);
        assert!(run(&spec).is_ok());
        // A per-core timer's beat costs 5 cycles: at or below that no
        // instruction ever runs, so the step limit could not end the run.
        let mut nautilus = RunSpec::sim(2).set("n", 5);
        for hb in [0, 5] {
            nautilus.heartbeat = Some(hb);
            let Err(EngineError::Bad(e)) = run(&nautilus) else {
                panic!("a nautilus heartbeat of {hb} must be refused")
            };
            assert!(
                e.contains("heartbeat") && e.contains(&format!("got {hb}")),
                "{e}"
            );
        }
        // The smallest ♥ accepted runs instructions (one cycle's worth a
        // beat), so the step limit ends it.
        nautilus.heartbeat = Some(6);
        nautilus.step_limit = Some(10_000);
        match run(&nautilus) {
            Ok(_) => {}
            Err(e) => assert!(e.to_string().contains("step limit of 10000"), "{e}"),
        }
        // The floors are the runtime's and the timer's: a ping-thread ♥
        // below both runs.
        let mut linux = RunSpec::sim(2).set("n", 5);
        linux.substrate = Substrate::Sim {
            cores: 2,
            linux: true,
        };
        for hb in [0, MIN_RT_HEARTBEAT_US - 1] {
            linux.heartbeat = Some(hb);
            assert!(run(&linux).is_ok(), "linux ♥ {hb}");
        }
    }

    /// The warm pool for an rt spec's shape.
    fn pool_for(engine: &Engine, spec: &RunSpec, trace: bool) -> Arc<Runtime> {
        let Ok(RunConfig::Machine(_, Some(rt))) = spec.config(trace, None) else {
            panic!("an rt spec builds a pool config")
        };
        engine.pool(rt)
    }

    #[test]
    fn rt_pools_are_reused_per_shape() {
        let engine = Engine::new();
        let a = pool_for(&engine, &RunSpec::rt(2), false);
        let b = pool_for(&engine, &RunSpec::rt(7), false);
        assert!(
            Arc::ptr_eq(&a, &b),
            "same ♥/promotion/source shares one pool whatever `workers` says"
        );
        assert_eq!(a.workers(), 1, "one caller, one worker");
        let shared = pool_for(&Engine::shared_by(3), &RunSpec::rt(1), false);
        assert_eq!(shared.workers(), 3, "a worker per concurrent caller");
        let mut slower = RunSpec::rt(2);
        slower.heartbeat = Some(200);
        let c = pool_for(&engine, &slower, false);
        assert!(!Arc::ptr_eq(&a, &c), "different ♥ gets its own pool");
        let mut signal = RunSpec::rt(2);
        signal.source = tpal_rt::HeartbeatSource::TimerSignal;
        let d = pool_for(&engine, &signal, false);
        assert!(
            !Arc::ptr_eq(&a, &d),
            "different delivery source gets its own pool"
        );
        let traced = pool_for(&engine, &RunSpec::rt(2), true);
        assert!(!Arc::ptr_eq(&a, &traced), "a traced run gets its own pool");
    }

    #[test]
    fn replay_reproduces_a_run_bit_for_bit() {
        let engine = Engine::new();
        let (entry, _) = engine.cache().get_or_compile(&fib_src());
        let entry = entry.unwrap();
        let mut spec = RunSpec::sim(3).set("n", 11);
        spec.heartbeat = Some(800);
        spec.seed = 42;
        spec.canonicalize();
        let first = engine
            .execute(&entry, &spec, RunInclude::default())
            .unwrap();
        let token = spec.token(entry.hash());
        let (decoded, replayed) = engine.replay(&token).unwrap();
        assert_eq!(decoded, spec);
        assert_eq!(replayed.result, first.result);
    }

    #[test]
    fn replay_of_an_evicted_program_is_a_miss() {
        let engine = Engine::new();
        let numbered =
            |k: usize| ProgramSrc::tpl(format!("fn main(n) {{ return n + {k}; }}\n"), "serial");
        let (first, _) = engine.cache().get_or_compile(&numbered(0));
        let hash = first.unwrap().hash();
        let token = RunSpec::sim(1).set("n", 1).token(hash);
        assert!(engine.replay(&token).is_ok(), "resident: replays");
        // One hit earns one second chance; two sweeps of one-shot
        // programs spend it.
        for k in 1..=2 * crate::cache::CAPACITY {
            engine.cache().get_or_compile(&numbered(k)).0.unwrap();
        }
        assert!(matches!(
            engine.replay(&token),
            Err(EngineError::UnknownProgram(h)) if h == hash
        ));
    }

    #[test]
    fn replay_of_unknown_program_is_a_miss() {
        let engine = Engine::new();
        let token = RunSpec::sim(1).token(0x1234);
        assert!(matches!(
            engine.replay(&token),
            Err(EngineError::UnknownProgram(0x1234))
        ));
    }
}
