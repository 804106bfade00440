//! The execution engine: turns a cached program plus a [`RunSpec`] into
//! a rendered result, dispatching onto the deterministic simulator or a
//! shared native-runtime pool.
//!
//! The deterministic part of every response — registers, and on the
//! simulator also statistics and makespan — is rendered into one
//! canonical JSON string (`RunOutput::result`) so that replaying a
//! token can be checked bit-for-bit by comparing strings. Observational
//! data (native-runtime scheduling counters, wall time, traces) stays
//! in `RunOutput::extras`, outside the comparison.

use std::sync::{Arc, Mutex};
use std::time::Duration;

use tpal_core::isa::Reg;
use tpal_core::machine::{Machine, MachineConfig, Value};
use tpal_rt::{Promotion, RtConfig, Runtime};
use tpal_sim::{Sim, SimConfig};
use tpal_trace::json::escape;
use tpal_trace::{chrome, MetricsReport, WorkSpanProfile};

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
/// (♥, promotion rule, delivery source) and have one worker per thread
/// that can call [`Engine::execute`] at once — a TPAL program's promoted
/// tasks never leave the worker interpreting it, so a spec's `workers`
/// buys a run nothing, while a worker per caller keeps concurrent
/// requests of one shape running side by side; the cap bounds resident
/// OS threads when many tenants ask for many shapes.
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

impl std::fmt::Display for EngineError {
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

/// The shared execution engine: the decode cache plus a small set of
/// warm native-runtime pools.
pub struct Engine {
    cache: ProgramCache,
    callers: usize,
    pools: Mutex<Vec<(PoolKey, Arc<Runtime>)>>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PoolKey {
    hb_us: u64,
    promotion: Promotion,
    source: &'static str,
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

    /// Executes `spec` against a cached program, rendering the result.
    ///
    /// # Errors
    ///
    /// [`EngineError::Bad`] for unsatisfiable specs (zero or excessive
    /// parallelism, a step limit above [`SERVICE_STEP_LIMIT`], a native
    /// ♥ below [`MIN_RT_HEARTBEAT_US`], unknown argument registers, runs
    /// that fault or exceed the step budget, report attachments on the
    /// native runtime).
    pub fn execute(
        &self,
        entry: &CachedProgram,
        spec: &RunSpec,
        include: RunInclude,
    ) -> Result<RunOutput, EngineError> {
        if let Some(limit) = spec.step_limit.filter(|&l| l > SERVICE_STEP_LIMIT) {
            return Err(EngineError::Bad(format!(
                "step_limit must be at most {SERVICE_STEP_LIMIT}, got {limit}"
            )));
        }
        match spec.substrate {
            Substrate::Sim { cores, linux } => self.execute_sim(entry, spec, include, cores, linux),
            Substrate::Rt { workers } => self.execute_rt(entry, spec, include, workers),
        }
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

    fn execute_sim(
        &self,
        entry: &CachedProgram,
        spec: &RunSpec,
        include: RunInclude,
        cores: usize,
        linux: bool,
    ) -> Result<RunOutput, EngineError> {
        if cores == 0 || cores > MAX_CORES {
            return Err(EngineError::Bad(format!(
                "cores must be in 1..={MAX_CORES}, got {cores}"
            )));
        }
        let heartbeat = spec.heartbeat.unwrap_or(3_000);
        let mut config = if linux {
            SimConfig::linux(cores, heartbeat)
        } else {
            SimConfig::nautilus(cores, heartbeat)
        };
        config.promotion = spec.promotion;
        config.exec_tier = spec.tier;
        config.seed = spec.seed;
        config.step_limit = spec.step_limit.unwrap_or(SERVICE_STEP_LIMIT);
        config.record_trace = include.any();
        // The compiled artifact is cloned per run (a memcpy of the
        // handler stream), not recompiled — the decode-once payoff.
        let backend = entry.backend(spec.tier).clone();
        let mut sim = Sim::with_backend(entry.program(), backend, config);
        for (name, value) in &spec.sets {
            let reg = entry.set_reg_name(name);
            sim.set_reg(&reg, *value)
                .map_err(|e| EngineError::Bad(format!("set {name}: {e}")))?;
        }
        let out = sim
            .run()
            .map_err(|e| EngineError::Bad(format!("simulation failed: {e}")))?;

        let mut result = String::from("{");
        result.push_str(&format!(
            "\"registers\":{},",
            render_registers(out.final_regs().iter().map(|(n, v)| (n.as_str(), *v)))
        ));
        let s = &out.stats;
        result.push_str(&format!(
            "\"stats\":{{\"failed_steals\":{},\"forks\":{},\"heartbeats_delivered\":{},\
             \"idle_cycles\":{},\"instructions\":{},\"joins\":{},\"max_live_tasks\":{},\
             \"merges\":{},\"overhead_cycles\":{},\"promotions\":{},\"steals\":{},\
             \"work_cycles\":{}}},",
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
        ));
        result.push_str(&format!("\"time\":{}", out.time));
        result.push('}');

        let mut extras = Vec::new();
        if let Some(trace) = &out.trace {
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
        Ok(RunOutput { result, extras })
    }

    fn execute_rt(
        &self,
        entry: &CachedProgram,
        spec: &RunSpec,
        include: RunInclude,
        workers: usize,
    ) -> Result<RunOutput, EngineError> {
        if workers == 0 || workers > MAX_RT_WORKERS {
            return Err(EngineError::Bad(format!(
                "workers must be in 1..={MAX_RT_WORKERS}, got {workers}"
            )));
        }
        let hb_us = spec.heartbeat.unwrap_or(100);
        if hb_us < MIN_RT_HEARTBEAT_US {
            return Err(EngineError::Bad(format!(
                "heartbeat must be at least {MIN_RT_HEARTBEAT_US} µs on the rt substrate, got {hb_us}"
            )));
        }
        if include.any() {
            // Pools are shared across concurrent tenants, so a per-run
            // trace would interleave unrelated runs; the simulator is
            // the observability substrate.
            return Err(EngineError::Bad(
                "trace/profile/metrics attachments need the sim substrate".to_owned(),
            ));
        }
        let program = entry.program();
        let config = MachineConfig {
            step_limit: spec.step_limit.unwrap_or(SERVICE_STEP_LIMIT),
            ..MachineConfig::default()
        };
        let mut machine = Machine::with_backend(program, entry.backend(spec.tier), config);
        for (name, value) in &spec.sets {
            machine
                .set_reg(&entry.set_reg_name(name), *value)
                .map_err(|e| EngineError::Bad(format!("set {name}: {e}")))?;
        }
        let (out, heartbeats) = self
            .pool(hb_us, spec)
            .run_program(&mut machine)
            .map_err(|e| EngineError::Bad(format!("runtime fault: {e}")))?;

        // Registers are the deterministic contract on the native
        // runtime; scheduling counters depend on real-time heartbeat
        // arrival and stay observational.
        let regs = out.final_regs();
        let named = (0..program.reg_count()).map(|i| {
            let r = Reg::from_index(i);
            (program.reg_name(r), regs.read_raw(r))
        });
        let result = format!("{{\"registers\":{}}}", render_registers(named));
        let s = &out.stats;
        let extras = vec![(
            "rt_stats".to_owned(),
            format!(
                "{{\"forks\":{},\"heartbeats\":{},\"instructions\":{},\"joins\":{},\
                 \"promotions\":{}}}",
                s.forks, heartbeats, s.instructions, s.joins, s.promotions
            ),
        )];
        Ok(RunOutput { result, extras })
    }

    /// Fetches (or creates) the warm pool for a native-runtime shape,
    /// evicting the oldest pool beyond [`MAX_RT_POOLS`].
    fn pool(&self, hb_us: u64, spec: &RunSpec) -> Arc<Runtime> {
        let key = PoolKey {
            hb_us,
            promotion: spec.promotion,
            source: spec.source.label(),
        };
        let mut pools = self.pools.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, pool)) = pools.iter().find(|(k, _)| *k == key) {
            return Arc::clone(pool);
        }
        let config = RtConfig::default()
            .workers(self.callers)
            .heartbeat(Duration::from_micros(hb_us))
            .promotion(spec.promotion)
            .source(spec.source);
        let pool = Arc::new(Runtime::new(config));
        pools.push((key, Arc::clone(&pool)));
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

/// Renders the integer-valued registers of a final register dump as a
/// sorted JSON object.
fn render_registers<'a>(regs: impl Iterator<Item = (&'a str, Value)>) -> String {
    let mut ints: Vec<(&str, i64)> = regs
        .filter_map(|(n, v)| match v {
            Value::Int(x) => Some((n, x)),
            _ => None,
        })
        .collect();
    ints.sort();
    let mut s = String::from("{");
    for (i, (name, v)) in ints.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!("\"{}\":{v}", escape(name)));
    }
    s.push('}');
    s
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

    /// A step limit above the service's and an rt ♥ below its floor are
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
        // The floor is the runtime's: a simulated ♥ below it runs.
        let mut sim = RunSpec::sim(2).set("n", 5);
        sim.substrate = Substrate::Sim {
            cores: 2,
            linux: true,
        };
        sim.heartbeat = Some(MIN_RT_HEARTBEAT_US - 1);
        assert!(run(&sim).is_ok());
    }

    #[test]
    fn rt_pools_are_reused_per_shape() {
        let engine = Engine::new();
        let a = engine.pool(100, &RunSpec::rt(2));
        let b = engine.pool(100, &RunSpec::rt(7));
        assert!(
            Arc::ptr_eq(&a, &b),
            "same ♥/promotion/source shares one pool whatever `workers` says"
        );
        assert_eq!(a.workers(), 1, "one caller, one worker");
        let shared = Engine::shared_by(3).pool(100, &RunSpec::rt(1));
        assert_eq!(shared.workers(), 3, "a worker per concurrent caller");
        let c = engine.pool(200, &RunSpec::rt(2));
        assert!(!Arc::ptr_eq(&a, &c), "different ♥ gets its own pool");
        let mut signal = RunSpec::rt(2);
        signal.source = tpal_rt::HeartbeatSource::TimerSignal;
        let d = engine.pool(100, &signal);
        assert!(
            !Arc::ptr_eq(&a, &d),
            "different delivery source gets its own pool"
        );
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
