//! The benchmark's contract in one place: the workloads and why each
//! exists, every end-to-end metric with its unit, direction and
//! regression bound, and every per-layer metric with the end-to-end
//! metric it is predicted to move. `BENCHMARK.json` and the README
//! tables are rendered from this file (`benchmark manifest`,
//! `benchmark glossary`), and a unit test holds the committed
//! `BENCHMARK.json` to it.

/// Which surface a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    Sim,
    Rt,
    Serve,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub family: Family,
    /// The programs (sim), kernels (rt) or traffic (serve) it runs.
    pub runs: &'static [&'static str],
    /// One line, as `BENCHMARK.json` carries it.
    pub why: &'static str,
}

/// How long one run measures; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 12;

pub const WORKLOADS: [WorkloadDef; 7] = [
    WorkloadDef {
        name: "sim_loops",
        family: Family::Sim,
        runs: &["plus-reduce-array", "floyd-warshall-small"],
        why: "Flat and nested loops: the whole-loop templates execute almost every instruction, scheduler events are rare, so core::threaded/core::decoded hot-loop changes show here",
    },
    WorkloadDef {
        name: "sim_branchy",
        family: Family::Sim,
        runs: &["mandelbrot", "mergesort-uniform", "knapsack"],
        why: "No loop template applies: per-span dispatch plus fork/steal/join events do the work; a tier collapse should gain here and stay level on sim_loops",
    },
    WorkloadDef {
        name: "sim_stream",
        family: Family::Sim,
        runs: &["pipeline-tokens", "spmv-stream"],
        why: "Channel park/wake and detached tasks: sim::engine's event loop and sched chan-wake dominate, the exec tier does little; short programs expose per-run decode/compile cost",
    },
    WorkloadDef {
        name: "rt_loops",
        family: Family::Rt,
        runs: &["plus-reduce-array", "spmv-powerlaw", "mandelbrot"],
        why: "Native fine-grained flat loops at 100 us heartbeats: promotion-point polling, the pacer and beat delivery are the whole overhead",
    },
    WorkloadDef {
        name: "rt_forkjoin",
        family: Family::Rt,
        runs: &["mergesort-uniform", "knapsack"],
        why: "Native recursive join2: latent-fork cost, promotion, deque push/pop/steal and join resolution dominate; loop polling is absent, so a pacer change must not move it",
    },
    WorkloadDef {
        name: "serve_hot",
        family: Family::Serve,
        runs: &["8 resident programs (.tpl and .tpal text), seeded arguments"],
        why: "Every request hits the decode cache after warm-up: HTTP framing, JSON, token rendering, queue hand-off and the socket are most of a request",
    },
    WorkloadDef {
        name: "serve_cold",
        family: Family::Serve,
        runs: &["a never-seen salted program per request, half .tpl, half .tpal"],
        why: "Every request misses: parse, lower, validate, decode and threaded-compile dominate and the unbounded cache map grows; a gain for hits that costs misses shows here",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// What it is on the simulator, native-runtime and service workloads.
    pub sim: &'static str,
    pub rt: &'static str,
    pub serve: &'static str,
}

/// The driver asks every workload for every end-to-end metric, so each
/// is defined once per surface: the same question ("how long does one
/// op take", "what does the mechanism cost over its baseline") asked of
/// the simulator, the native runtime and the service.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        sim: "median of 3 set-ups: sim_spec, lowering, SimRef and three-tier differential check, serial baseline, one warm-up op per program",
        rt: "median of 3 set-ups: Workload::prepare, Runtime::new at 1 and 2 workers, one checked warm-up op per kernel and mode",
        serve: "median of 3 set-ups: request generation, expected results from an in-process Engine, Server::start, connections, warm-up requests, one /replay per program",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        sim: "VmHWM of the workload's process at exit",
        rt: "same",
        serve: "same (server and load generator share the process)",
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        sim: "geomean over programs of the median host time of one op = ExecBackend::new + Sim::with_backend + input load + Sim::run (what tpal-run --sim pays); instructions are exact per seed, so this is M instr/s inverted",
        rt: "geomean over kernels of the median time of Runtime::run of the heartbeat kernel at 2 workers (the default configuration a user runs)",
        serve: "open loop at the workload's fixed rate over 2 keep-alive connections: median latency from each request's due time",
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        sim: "ops completed per second of the timed phase (plain and traced ops in their fixed 4:1 mix), one Sim at a time",
        rt: "kernel runs completed per second of the timed phase (serial, heartbeat at 1 and at 2 workers, in equal shares)",
        serve: "closed loop, 2 connections: completed 200s per second",
    },
    EndToEnd {
        name: "overhead_ratio",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.25,
        sim: "geomean of median op time with record_trace plus MetricsReport::from_trace over median plain op time (what --profile costs)",
        rt: "geomean of median T(heartbeat, 1 worker) over median T(serial): the paper's Fig 6/9 overhead; over the kernels whose two variants do the same work (not knapsack, a search whose work depends on the order it is explored in)",
        serve: "median closed-loop latency on 1 connection over the median of the same requests run through the in-process chain (what sockets, thread hand-offs and the admission queue multiply a run by)",
    },
];

#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric, and workload, it is predicted to move.
    pub moves: &'static str,
    pub what: &'static str,
    /// A function of the seed alone: `compare` demands identity.
    pub exact: bool,
}

const fn lo(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    what: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
        moves,
        what,
        exact: false,
    }
}

const fn hi(
    name: &'static str,
    unit: &'static str,
    moves: &'static str,
    what: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
        moves,
        what,
        exact: false,
    }
}

/// A count that is a function of the seed alone.
const fn exact(name: &'static str, unit: &'static str, what: &'static str) -> PerLayer {
    PerLayer {
        exact: true,
        ..lo(
            name,
            unit,
            "none (exact per seed: a simulator-speed change must leave it identical)",
            what,
        )
    }
}

const SIM_SPEED: &str = "op_p50_us on sim_*";
const RT_OVERHEAD_LOOPS: &str = "overhead_ratio on rt_loops; nil on rt_forkjoin";
const RT_OVERHEAD_FJ: &str = "overhead_ratio on rt_forkjoin";
const RT_SPEEDUP: &str = "op_p50_us on rt_* (2 workers); nil at 1 worker";
const SIM_MODEL: &str = "sim.makespan_cycles (the model's output: moves when the scheduling model does, never with simulator speed)";
const SERVE_HOT: &str = "op_p50_us, ops_per_s on serve_hot; little on serve_cold";
const SERVE_COLD: &str = "op_p50_us, ops_per_s on serve_cold; nil on serve_hot";
const SERVE_BOTH: &str = "op_p50_us, ops_per_s on serve_*";
const YARDSTICK: &str = "none (context)";

/// Every per-layer metric; a workload that does not exercise a layer
/// reports 0 for it. Layers are the crate and module names.
pub const PER_LAYER: &[PerLayer] = &[
    // The benchmark itself.
    lo("bench.trace_overhead_ratio", "ratio", YARDSTICK, "median op time with the benchmark's spans on over spans off"),
    lo("bench.unattributed_ratio", "ratio", YARDSTICK, "share of spanned op wall time that no span below the op root covers"),
    lo("bench.fail_ratio", "ratio", YARDSTICK, "failed over attempted ops of the traced run"),
    hi("bench.spans", "count", YARDSTICK, "spans recorded"),
    lo("bench.op_p50_us", "us", YARDSTICK, "the end-to-end op_p50_us, as the traced run measured it (spans off)"),
    lo("bench.op_p50_raw_us", "us", YARDSTICK, "the same statistic over the same ops from the clock's own readings, not scaled by the yardstick"),
    lo("bench.reference_us", "us", YARDSTICK, "median time of the benchmark's reference kernel during the timed phase (100 us when nothing disturbs the reference host); every timed sample is scaled by it"),
    // core
    hi("core.exec.ref_minstr_per_s", "Minstr/s", YARDSTICK, "Machine (heartbeats off) on the heartbeat-lowered programs, reference tier: pure instruction execution, no scheduler; geomean over programs"),
    hi("core.exec.decoded_minstr_per_s", "Minstr/s", "op_p50_us on sim_loops, sim_branchy", "same, decoded tier"),
    hi("core.exec.threaded_minstr_per_s", "Minstr/s", "op_p50_us on sim_loops (most), sim_branchy; nil on sim_stream", "same, threaded tier (the default)"),
    lo("core.decode_us", "us", "op_p50_us on sim_stream, serve_cold", "DecodedProgram::decode, mean per program"),
    lo("core.threaded.compile_us", "us", "op_p50_us on sim_stream, serve_cold", "ThreadedProgram::compile, mean per program"),
    lo("core.asm.parse_us", "us", SERVE_COLD, "asm::parse_program of the program's printed text, mean per program"),
    exact("core.program.instrs", "count", "static instructions, summed over the workload's programs"),
    // ir
    lo("ir.parse_us", "us", SERVE_COLD, "parse_ir of a .tpl source, mean"),
    lo("ir.lower_us", "us", SERVE_COLD, "lower(Mode::Heartbeat), mean per program"),
    exact("ir.lowered_instrs", "count", "static instructions of the lowered programs"),
    // sim
    lo("sim.new_us", "us", "op_p50_us on sim_stream", "Sim::with_backend plus input load, mean"),
    lo("sim.run_ms", "ms", SIM_SPEED, "Sim::run, mean over the workload's programs"),
    lo("sim.engine_share", "ratio", "op_p50_us on sim_stream (most), sim_branchy", "1 - (instructions / core.exec.threaded rate) / Sim::run time: the event-loop and scheduling share of a run"),
    lo("sim.ns_per_event", "ns", "op_p50_us on sim_stream, sim_branchy", "Sim::run host ns per scheduler event (fork, steal, failed steal, promotion, join, beat, park, wake)"),
    hi("sim.minstr_per_s", "Minstr/s", SIM_SPEED, "geomean over programs of instructions over median op time"),
    hi("sim.traced_minstr_per_s", "Minstr/s", "overhead_ratio on sim_*", "same with record_trace and MetricsReport::from_trace"),
    exact("sim.makespan_cycles", "cycles", "simulated makespans, summed over the workload's programs"),
    hi("sim.plus-reduce-array.minstr_per_s", "Minstr/s", "op_p50_us on sim_loops", "instructions over median op time, this program"),
    hi("sim.floyd-warshall-small.minstr_per_s", "Minstr/s", "op_p50_us on sim_loops", "same"),
    hi("sim.mandelbrot.minstr_per_s", "Minstr/s", "op_p50_us on sim_branchy", "same"),
    hi("sim.mergesort-uniform.minstr_per_s", "Minstr/s", "op_p50_us on sim_branchy", "same"),
    hi("sim.knapsack.minstr_per_s", "Minstr/s", "op_p50_us on sim_branchy", "same"),
    hi("sim.pipeline-tokens.minstr_per_s", "Minstr/s", "op_p50_us on sim_stream", "same"),
    hi("sim.spmv-stream.minstr_per_s", "Minstr/s", "op_p50_us on sim_stream", "same"),
    exact("sim.instructions", "count", "SimStats, one op per program, summed"),
    exact("sim.forks", "count", "same"),
    exact("sim.promotions", "count", "same"),
    exact("sim.steals", "count", "same"),
    exact("sim.failed_steals", "count", "same"),
    exact("sim.heartbeats_delivered", "count", "same"),
    exact("sim.chan_blocks", "count", "same"),
    exact("sim.chan_wakes", "count", "same"),
    hi("sim.utilization", "ratio", SIM_MODEL, "work cycles over makespan x cores"),
    lo("sim.overhead_cycle_share", "ratio", SIM_MODEL, "overhead cycles over work + overhead cycles: the paper's bounded-overhead figure, in the model"),
    hi("sim.speedup_vs_serial", "ratio", SIM_MODEL, "serial makespan over 15-core makespan, geomean over programs"),
    hi("sim.ref_engine_minstr_per_s", "Minstr/s", "setup_s on sim_*", "SimRef, run once per program in set-up as the differential oracle"),
    // sched
    hi("sched.sim.promotions_per_beat", "ratio", SIM_MODEL, "promotions over heartbeats delivered"),
    hi("sched.sim.steal_success_ratio", "ratio", SIM_MODEL, "steals over steals + failed steals"),
    hi("sched.rt.serviced_over_delivered", "ratio", RT_SPEEDUP, "heartbeats serviced over delivered, heartbeat at 2 workers"),
    hi("sched.rt.promotions_per_serviced", "ratio", RT_SPEEDUP, "promotions over heartbeats serviced"),
    hi("sched.rt.achieved_beat_rate", "ratio", RT_SPEEDUP, "heartbeats delivered over run time x workers / heartbeat interval"),
    // trace
    lo("trace.record_overhead_ratio", "ratio", "overhead_ratio on sim_loops (most); nil on mandelbrot", "Sim::run time with record_trace over without"),
    lo("trace.events_per_run", "count", "overhead_ratio on sim_*", "trace events of one run, mean per program"),
    lo("trace.report_ms", "ms", "overhead_ratio on sim_*", "MetricsReport::from_trace, mean"),
    lo("trace.chrome_json_ms", "ms", YARDSTICK, "chrome::chrome_json of one run's trace, mean"),
    lo("trace.chrome_json_mb", "MB", YARDSTICK, "its size"),
    hi("trace.json.parse_mb_per_s", "MB/s", SERVE_HOT, "json::parse of that document (sim) or of the request bodies (serve): the parser that reads serve bodies"),
    // rt: the paper's ladder at 1 worker, one mechanism per rung
    lo("rt.serial_ms", "ms", YARDSTICK, "median serial kernel time, geomean over kernels"),
    lo("rt.hb_code_over_serial", "ratio", RT_OVERHEAD_LOOPS, "HeartbeatSource::Disabled over serial: promotion points compiled in, no beats"),
    lo("rt.interrupts_only_over_serial", "ratio", RT_OVERHEAD_LOOPS, "suppress_promotions(true) over serial: beats delivered and serviced, never promoted"),
    lo("rt.hb1_over_serial", "ratio", "overhead_ratio on rt_*", "full heartbeat at 1 worker over serial, geomean over kernels but knapsack (the end-to-end overhead_ratio, from the traced run)"),
    hi("rt.speedup_w2", "ratio", RT_SPEEDUP, "serial over heartbeat at 2 workers, geomean over kernels but knapsack"),
    lo("rt.promote_cost_ns", "ns", RT_OVERHEAD_FJ, "(T full - T interrupts-only) over promotions, 1 worker"),
    lo("rt.join2_ns", "ns", RT_OVERHEAD_FJ, "WorkerCtx::join2 of two empty closures: one unpromoted latent fork"),
    lo("rt.spawn2_ns", "ns", RT_OVERHEAD_FJ, "WorkerCtx::spawn2 of two empty closures: one eager task, the paper's tau"),
    lo("rt.run_dispatch_us", "us", RT_SPEEDUP, "empty Runtime::run: inject, wake, latch"),
    lo("rt.new_ms", "ms", "setup_s on rt_*", "Runtime::new at 2 workers plus drop"),
    hi("rt.steals_per_op", "count", RT_SPEEDUP, "steals per heartbeat op at 2 workers"),
    lo("rt.timer_signal.hb1_over_serial", "ratio", YARDSTICK, "heartbeat at 1 worker over serial with HeartbeatSource::TimerSignal"),
    hi("rt.promotions_per_op", "count", RT_OVERHEAD_FJ, "promotions per heartbeat op at 1 worker, mean over kernels"),
    lo("rt.tasks_created_per_op", "count", RT_OVERHEAD_FJ, "same, tasks created"),
    hi("rt.heartbeats_delivered_per_op", "count", RT_OVERHEAD_LOOPS, "same, beats delivered"),
    hi("rt.heartbeats_serviced_per_op", "count", RT_OVERHEAD_LOOPS, "same, beats serviced"),
    lo("rt.plus-reduce-array.hb1_over_serial", "ratio", "overhead_ratio on rt_loops", "this kernel's rung"),
    lo("rt.spmv-powerlaw.hb1_over_serial", "ratio", "overhead_ratio on rt_loops", "same"),
    lo("rt.mandelbrot.hb1_over_serial", "ratio", "overhead_ratio on rt_loops", "same"),
    lo("rt.mergesort-uniform.hb1_over_serial", "ratio", "overhead_ratio on rt_forkjoin", "same"),
    lo("rt.knapsack.hb1_over_serial", "ratio", "overhead_ratio on rt_forkjoin", "same (the heartbeat kernel prunes in another order than the serial one, so this is not an overhead)"),
    hi("rt.plus-reduce-array.promotions_per_op", "count", RT_OVERHEAD_LOOPS, "promotions per heartbeat op at 1 worker, this kernel"),
    hi("rt.spmv-powerlaw.promotions_per_op", "count", RT_OVERHEAD_LOOPS, "same"),
    hi("rt.mandelbrot.promotions_per_op", "count", RT_OVERHEAD_LOOPS, "same"),
    hi("rt.mergesort-uniform.promotions_per_op", "count", RT_OVERHEAD_FJ, "same"),
    hi("rt.knapsack.promotions_per_op", "count", RT_OVERHEAD_FJ, "same"),
    hi("rt.plus-reduce-array.speedup_w2", "ratio", "op_p50_us on rt_loops", "serial over heartbeat at 2 workers, this kernel"),
    hi("rt.spmv-powerlaw.speedup_w2", "ratio", "op_p50_us on rt_loops", "same"),
    hi("rt.mandelbrot.speedup_w2", "ratio", "op_p50_us on rt_loops", "same"),
    hi("rt.mergesort-uniform.speedup_w2", "ratio", "op_p50_us on rt_forkjoin", "same"),
    hi("rt.knapsack.speedup_w2", "ratio", "op_p50_us on rt_forkjoin", "same"),
    // deque
    lo("deque.chase_lev.push_pop_ns", "ns", RT_OVERHEAD_FJ, "Worker::push then pop, single thread, uncontended"),
    lo("deque.chase_lev.steal_ns", "ns", "op_p50_us on rt_forkjoin", "Worker::push then Stealer::steal, single thread"),
    lo("deque.injector.push_pop_ns", "ns", RT_SPEEDUP, "Injector::push then pop, single thread"),
    // cilk: the paper's comparator
    lo("cilk.t1_over_serial", "ratio", YARDSTICK, "Prepared::run_cilk at 1 worker over serial, geomean"),
    hi("cilk.speedup_w2", "ratio", YARDSTICK, "serial over run_cilk at 2 workers, geomean"),
    lo("cilk.tasks_created_per_op", "count", YARDSTICK, "tasks created per run_cilk at 1 worker, mean over kernels"),
    // workloads
    lo("workloads.prepare_ms", "ms", "setup_s on rt_*", "Workload::prepare, summed over kernels"),
    lo("workloads.sim_spec_ms", "ms", "setup_s on sim_*", "Workload::sim_spec, summed over programs"),
    // serve: the in-process replay of sampled requests through the public chain
    lo("serve.http.read_request_us", "us", SERVE_HOT, "http::read_request over a Cursor, mean"),
    lo("serve.proto.parse_us", "us", SERVE_HOT, "proto::parse_run_request, mean"),
    lo("serve.spec.hash_us", "us", SERVE_HOT, "ProgramSrc::content_hash, mean"),
    lo("serve.cache.hit_us", "us", SERVE_HOT, "ProgramCache::get_or_compile of a resident program, mean"),
    lo("serve.cache.miss_us", "us", SERVE_COLD, "ProgramCache::get_or_compile of a never-seen program (= ir + core compile), mean"),
    lo("serve.engine.execute_us", "us", SERVE_BOTH, "Engine::execute on the simulator (= sim.new + sim.run + rendering), mean"),
    lo("serve.engine.execute_rt_us", "us", YARDSTICK, "Engine::execute with RunSpec::rt(2) on a warm pool, mean"),
    lo("serve.spec.token_us", "us", SERVE_HOT, "RunSpec::token, mean"),
    lo("serve.http.write_response_us", "us", SERVE_HOT, "http::write_response into a Vec, mean"),
    lo("serve.inproc_sum_us", "us", SERVE_BOTH, "sum of the seven chain means above (hit and miss weighted as they occurred)"),
    lo("serve.wire_queue_us", "us", SERVE_HOT, "median closed-loop latency on 1 connection minus serve.inproc_sum_us: sockets, thread hand-offs, admission queue"),
    hi("serve.submitted", "count", YARDSTICK, "GET /stats after the run"),
    hi("serve.completed", "count", YARDSTICK, "same"),
    lo("serve.shed", "count", "failed ops on serve_*", "same"),
    hi("serve.cache.hit_ratio", "ratio", SERVE_BOTH, "cache hits over lookups during the timed phases (1 on serve_hot, 0 on serve_cold)"),
    lo("serve.cache.decodes", "count", SERVE_COLD, "decode-path executions during the timed phases"),
    lo("serve.replay_us", "us", YARDSTICK, "GET /replay/<token> round trip, median"),
    lo("serve.open.p99_us", "us", "none (too noisy on a shared host to gate: run-to-run spread near 20 %)", "open loop: 99th percentile of each 1000-request segment, median across segments (damps one-off host stalls)"),
    hi("serve.open.achieved_rps", "1/s", YARDSTICK, "open-loop completions per second"),
    lo("serve.open.over_limit", "count", "none (a host stall, unless it grows with a change)", "open-loop requests slower than the latency limit (5 ms hot, 20 ms cold)"),
    lo("serve.open.late_us_p99", "us", YARDSTICK, "how late the generator sent: p99 of send time minus due time"),
    lo("serve.closed.p50_us", "us", "overhead_ratio on serve_*", "closed-loop median latency, 1 connection"),
    hi("serve.closed.rps", "1/s", "ops_per_s on serve_*", "closed-loop completions per second, 2 connections"),
    hi("serve.ladder_max_ok_rps", "1/s", "serve.open.p99_us", "highest of 500/1000/2000/4000 req/s x 80 requests per second of the run (at most 1000) with p99 under the latency limit and nothing shed (step-valued)"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn names_units_and_caps_meet_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(well_formed(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(well_formed(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name));
        }
        for m in PER_LAYER {
            assert!(well_formed(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "set-up time takes the largest bound");
    }

    #[test]
    fn every_program_and_kernel_has_its_row() {
        for w in &WORKLOADS {
            for run in w.runs {
                let row = match w.family {
                    Family::Sim => format!("sim.{run}.minstr_per_s"),
                    Family::Rt => format!("rt.{run}.hb1_over_serial"),
                    Family::Serve => continue,
                };
                assert!(PER_LAYER.iter().any(|m| m.name == row), "{row}");
            }
        }
    }
}
