//! End-to-end tests of the structured trace subsystem on the simulator:
//! Chrome-schema validity of rendered traces, byte-level determinism,
//! consistency of the trace-derived metrics with the engine's own
//! counters, and the TASKPROF-style work/span fold against the machine's
//! fork/join-threaded accounting.

use tpal_ir::lower::{lower, Mode};
use tpal_sim::{Sim, SimConfig, SimOutcome};
use tpal_trace::{chrome, MetricsReport, WorkSpanProfile};
use tpal_workloads::{workload, Scale};

/// Workloads the profiler cross-check runs on (the ISSUE's "≥ 4
/// workloads"): two loop-based, one recursive, one stencil-ish.
const WORKLOADS: [&str; 4] = [
    "plus-reduce-array",
    "floyd-warshall-small",
    "mergesort-uniform",
    "mandelbrot",
];

/// The seven programs the repository's benchmark simulates (`sim_loops`,
/// `sim_branchy`, `sim_stream`).
const BENCHMARK_PROGRAMS: [&str; 7] = [
    "plus-reduce-array",
    "floyd-warshall-small",
    "mandelbrot",
    "mergesort-uniform",
    "knapsack",
    "pipeline-tokens",
    "spmv-stream",
];

fn run_workload(name: &str, config: SimConfig) -> SimOutcome {
    let spec = workload(name)
        .expect("known workload")
        .sim_spec(Scale::Quick);
    let lowered = lower(&spec.ir, Mode::Heartbeat).unwrap_or_else(|e| panic!("lowering: {e}"));
    let mut sim = Sim::new(&lowered.program, config);
    for (pname, data) in &spec.input.arrays {
        let base = sim.alloc_array(data);
        sim.set_reg(&lowered.param_reg(pname), base).unwrap();
    }
    for (pname, v) in &spec.input.ints {
        sim.set_reg(&lowered.param_reg(pname), *v).unwrap();
    }
    let out = sim.run().unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(
        out.read_reg(&lowered.result_reg),
        Some(spec.expected),
        "{name} checksum"
    );
    out
}

fn traced(cores: usize) -> SimConfig {
    let mut c = SimConfig::nautilus(cores, 3_000);
    c.record_trace = true;
    c
}

/// The ISSUE's acceptance scenario: a 4-core mergesort run yields a
/// Chrome trace with one named track per core that passes validation.
#[test]
fn mergesort_chrome_trace_has_per_core_tracks() {
    let out = run_workload("mergesort-uniform", traced(4));
    let trace = out.trace.expect("record_trace was set");
    assert_eq!(trace.tracks.len(), 4);
    for (i, track) in trace.tracks.iter().enumerate() {
        assert_eq!(track.name, format!("core {i}"));
        assert!(!track.events.is_empty(), "core {i} recorded nothing");
        // Settled idle chains are retroactive only against *other*
        // tracks, so the Chrome backend never has to sort a sim track.
        assert!(track.events.is_sorted_by_key(|e| e.ts), "core {i}");
    }
    let json = chrome::chrome_json(&trace);
    let n = chrome::validate(&json).expect("schema-valid Chrome trace");
    assert!(n > trace.tracks.len(), "more than just metadata records");
}

/// Every figure quantity computed from the trace must agree with the
/// engine's own counters — same stream, no drift — on every benchmark
/// program, streaming ones included.
#[test]
fn trace_metrics_agree_with_sim_stats() {
    for name in BENCHMARK_PROGRAMS {
        let out = run_workload(name, traced(4));
        let trace = out.trace.as_ref().expect("trace recorded");
        let r = MetricsReport::from_trace(trace);
        assert_eq!(
            r.heartbeats_delivered, out.stats.heartbeats_delivered,
            "{name}"
        );
        assert_eq!(r.tasks_created, out.stats.forks, "{name}");
        assert_eq!(r.promotions, out.stats.promotions, "{name}");
        assert_eq!(r.heartbeats_serviced, out.stats.promotions, "{name}");
        assert_eq!(r.steals, out.stats.steals, "{name}");
        assert_eq!(r.failed_steals, out.stats.failed_steals, "{name}");
        assert_eq!(r.join_merges, out.stats.merges, "{name}");
        assert_eq!(
            r.join_stashes + r.join_merges + r.join_continues,
            out.stats.joins,
            "{name}: every join stashes, merges, or continues"
        );
        let t = r.totals();
        assert_eq!(t.work, out.stats.work_cycles, "{name}");
        assert_eq!(t.overhead, out.stats.overhead_cycles, "{name}");
        assert_eq!(t.idle, out.stats.idle_cycles, "{name}");
        assert_eq!(r.detaches, out.stats.detaches, "{name}");
        assert_eq!(r.chan_pushes, out.stats.chan_pushes, "{name}");
        assert_eq!(r.chan_pops, out.stats.chan_pops, "{name}");
        assert_eq!(r.chan_blocks, out.stats.chan_blocks, "{name}");
        assert_eq!(r.chan_wakes, out.stats.chan_wakes, "{name}");
        // Charged spans can run up to (or past) the halt cycle, so the
        // trace horizon is at least the makespan.
        assert!(r.makespan >= out.time, "{name}");
    }
}

/// The report's one pass — its makespan folded into the event loop, its
/// channel occupancy from the pushes and pops sorted by `seq` — equals a
/// report whose makespan is [`Trace::makespan`]'s scan and whose
/// occupancy folds [`Trace::causal_order`]'s merge, on every benchmark
/// program in the benchmark's configuration.
///
/// [`Trace::makespan`]: tpal_trace::Trace::makespan
/// [`Trace::causal_order`]: tpal_trace::Trace::causal_order
#[test]
fn report_equals_a_causal_order_fold() {
    use std::collections::BTreeMap;
    use tpal_trace::EventKind;

    let mut streaming = 0;
    for name in BENCHMARK_PROGRAMS {
        let out = run_workload(name, traced(15));
        let trace = out.trace.as_ref().expect("trace recorded");
        let mut occ: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        let push_or_pop =
            |k: &EventKind| matches!(k, EventKind::ChanPush { .. } | EventKind::ChanPop { .. });
        for e in trace.causal_order(push_or_pop) {
            let (ch, push) = match e.kind {
                EventKind::ChanPush { ch, .. } => (ch, true),
                EventKind::ChanPop { ch, .. } => (ch, false),
                _ => unreachable!("only pushes and pops are merged"),
            };
            let slot = occ.entry(ch).or_insert((0, 0));
            if push {
                slot.0 += 1;
                slot.1 = slot.1.max(slot.0);
            } else {
                slot.0 = slot.0.saturating_sub(1);
            }
        }
        let r = MetricsReport::from_trace(trace);
        let expected = MetricsReport {
            makespan: trace.makespan(),
            chan_max_occupancy: occ.into_iter().map(|(ch, (_, max))| (ch, max)).collect(),
            ..r.clone()
        };
        assert_eq!(r, expected, "{name}");
        streaming += usize::from(!r.chan_max_occupancy.is_empty());
    }
    assert_eq!(streaming, 2, "pipeline-tokens and spmv-stream use channels");
}

/// Trace size follows scheduling decisions, not simulated idle time: at
/// 15 cores most cores sit parked most of the run, and an idle span ends
/// only where something happens on its track — an interrupt arrives, a
/// steal lands, or the run ends — or where it is the cycle a channel
/// block costs. Per-retry recording (one `Idle` per failed steal) breaks
/// both bounds by an order of magnitude.
#[test]
fn idle_events_are_bounded_by_scheduling_decisions() {
    for name in ["floyd-warshall-small", "spmv-stream"] {
        let out = run_workload(name, traced(15));
        let trace = out.trace.as_ref().expect("trace recorded");
        let idle_events = trace
            .tracks
            .iter()
            .flat_map(|t| &t.events)
            .filter(|e| matches!(e.kind, tpal_trace::EventKind::Idle { .. }))
            .count() as u64;
        let s = &out.stats;
        let decisions = s.heartbeats_delivered + s.steals + s.chan_blocks + out.cores as u64;
        assert!(
            idle_events <= decisions,
            "{name}: {idle_events} idle events for {decisions} interrupts, steals, channel \
             blocks and track ends ({} failed steals)",
            s.failed_steals
        );
        assert!(
            (trace.len() as u64) < s.failed_steals,
            "{name}: {} events, {} failed steals",
            trace.len(),
            s.failed_steals
        );
    }
}

/// The TASKPROF-style DAG fold over trace events must reproduce the
/// machine's own fork/join-threaded work/span totals exactly, and work
/// must equal executed instruction cycles.
#[test]
fn work_span_profile_matches_machine_accounting() {
    for name in WORKLOADS {
        let out = run_workload(name, traced(4));
        let p = WorkSpanProfile::from_trace(out.trace.as_ref().unwrap());
        assert!(p.complete, "{name}: halt recorded");
        assert_eq!(p.work, out.work, "{name}: work");
        assert_eq!(p.span, out.span, "{name}: span");
        assert_eq!(p.work, out.stats.work_cycles, "{name}: work = instructions");
        assert_eq!(p.tasks, out.stats.forks + 1, "{name}: tasks");
        assert!(p.span <= p.work, "{name}");
        assert!(
            p.parallelism() > 1.0,
            "{name}: promoted runs must expose parallelism, got {}",
            p.parallelism()
        );
    }
}

/// Two runs with identical config and seed must serialize to the very
/// same bytes — the determinism the differential suites (and CI's trace
/// artifact diffing) rely on.
#[test]
fn chrome_trace_bytes_deterministic_per_seed() {
    let render = || {
        let out = run_workload("mergesort-uniform", traced(4));
        chrome::chrome_json(out.trace.as_ref().unwrap())
    };
    let a = render();
    let b = render();
    assert!(a == b, "same seed, different trace bytes");
}

/// FNV-1a (64-bit) over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The Chrome trace of every benchmark program under three configs,
/// pinned across builds by FNV-1a digest and byte length. The
/// determinism tests above compare two runs of one build; this table
/// catches an event that moves, appears or vanishes when the engine is
/// rewritten. A row that changes is a changed trace: it is re-blessed
/// only with a change to the scheduling model that moves it, never to
/// make a rewrite pass.
#[test]
fn chrome_trace_bytes_pinned_across_builds() {
    #[rustfmt::skip]
    const PINNED: [(&str, &str, u64, usize); 21] = [
        ("plus-reduce-array", "nautilus4", 0x9e003a544c594557, 657288),
        ("plus-reduce-array", "linux4", 0x4d7a0684145688af, 669150),
        ("plus-reduce-array", "nautilus15", 0x491f04c991493a8b, 6668069),
        ("floyd-warshall-small", "nautilus4", 0xad94a886fc80d01f, 342682),
        ("floyd-warshall-small", "linux4", 0xf017531e9c56b31d, 356214),
        ("floyd-warshall-small", "nautilus15", 0x76790e5b64082b94, 2011934),
        ("mandelbrot", "nautilus4", 0xed033847d16f0954, 595884),
        ("mandelbrot", "linux4", 0x50f510eb707abe01, 610467),
        ("mandelbrot", "nautilus15", 0xf76ad34beb57ec2e, 2776637),
        ("mergesort-uniform", "nautilus4", 0x55e56b3d9972a238, 1466844),
        ("mergesort-uniform", "linux4", 0x9b9c547852d53372, 1481244),
        ("mergesort-uniform", "nautilus15", 0xef3f4a7b14a03fa8, 9882374),
        ("knapsack", "nautilus4", 0xc507b560620d4c24, 5837),
        ("knapsack", "linux4", 0x4e0f4865b1dcf6b9, 5673),
        ("knapsack", "nautilus15", 0xd8c28501b013df3e, 64309),
        ("pipeline-tokens", "nautilus4", 0x7d611ad5234d08e6, 983409),
        ("pipeline-tokens", "linux4", 0x0fb6179951c9a97f, 986402),
        ("pipeline-tokens", "nautilus15", 0x1f7322ba09372b2a, 1312191),
        ("spmv-stream", "nautilus4", 0xc93769a45bc3da46, 296513),
        ("spmv-stream", "linux4", 0x17c7be0d2cde1411, 322465),
        ("spmv-stream", "nautilus15", 0xd7951acdfd8a5ea2, 4457346),
    ];
    let configs = [
        ("nautilus4", SimConfig::nautilus(4, 3_000)),
        ("linux4", SimConfig::linux(4, 3_000)),
        ("nautilus15", SimConfig::nautilus(15, 500)),
    ];
    let mut actual = Vec::new();
    for name in BENCHMARK_PROGRAMS {
        for (label, mut config) in configs {
            config.record_trace = true;
            let out = run_workload(name, config);
            let json = chrome::chrome_json(out.trace.as_ref().expect("trace recorded"));
            actual.push((name, label, fnv1a(json.as_bytes()), json.len()));
        }
    }
    let rows = |t: &[(&str, &str, u64, usize)]| {
        t.iter()
            .map(|(n, l, h, len)| format!("        (\"{n}\", \"{l}\", 0x{h:016x}, {len}),\n"))
            .collect::<String>()
    };
    assert!(
        actual == PINNED,
        "trace bytes moved; this build's table:\n{}",
        rows(&actual)
    );
}

/// The streaming acceptance scenario: on a channel program, heartbeat
/// promotion splits a *channel-fed* pipeline stage into its own task —
/// some task that popped from a channel is also the subject of a
/// `TaskPromote` event — and every channel event kind folds into
/// [`MetricsReport`] in agreement with the engine's counters.
#[test]
fn promotion_splits_a_channel_fed_stage() {
    use std::collections::HashSet;
    use tpal_trace::EventKind;

    // Fast heartbeat so the consumer's per-row reductions promote.
    let mut config = SimConfig::nautilus(4, 500);
    config.record_trace = true;
    let out = run_workload("spmv-stream", config);
    let trace = out.trace.as_ref().expect("trace recorded");

    let mut popped = HashSet::new();
    let mut promoted = HashSet::new();
    for track in &trace.tracks {
        for e in &track.events {
            match e.kind {
                EventKind::ChanPop { task, .. } => {
                    popped.insert(task);
                }
                EventKind::TaskPromote { task } => {
                    promoted.insert(task);
                }
                _ => {}
            }
        }
    }
    assert!(!promoted.is_empty(), "heartbeats promoted tasks");
    assert!(
        popped.iter().any(|t| promoted.contains(t)),
        "a channel-fed task (popped: {popped:?}) must appear among the \
         promoted tasks ({promoted:?})"
    );

    let r = MetricsReport::from_trace(trace);
    assert_eq!(r.detaches, out.stats.detaches);
    assert_eq!(r.chan_pushes, out.stats.chan_pushes);
    assert_eq!(r.chan_pops, out.stats.chan_pops);
    assert_eq!(r.chan_blocks, out.stats.chan_blocks);
    assert_eq!(r.tasks_created, out.stats.forks, "task counts");
    assert!(r.promotions > 0, "promotions visible in the report");
    assert!(r.detaches >= 1, "the feeder stage was detached");
    assert!(
        r.chan_blocks > 0,
        "a capacity-4 ring must have parked someone"
    );
    // Occupancy folds causally: the one channel, peak within capacity.
    assert_eq!(r.chan_max_occupancy.len(), 1);
    let (_, peak) = r.chan_max_occupancy[0];
    assert!(
        (1..=4).contains(&peak),
        "peak occupancy {peak} within capacity"
    );
}

/// Channel/detach events pass the Chrome-schema validator and render to
/// byte-identical JSON on same-seed reruns — streaming traces diff
/// cleanly in CI just like fork-join ones.
#[test]
fn streaming_chrome_trace_validates_and_is_deterministic() {
    let render = || {
        let out = run_workload("pipeline-tokens", traced(4));
        let trace = out.trace.expect("trace recorded");
        assert!(
            trace.tracks.iter().any(|t| t
                .events
                .iter()
                .any(|e| matches!(e.kind, tpal_trace::EventKind::ChanPush { .. }))),
            "channel events present in the trace"
        );
        chrome::chrome_json(&trace)
    };
    let a = render();
    let n = chrome::validate(&a).expect("schema-valid streaming Chrome trace");
    assert!(n > 4, "more than metadata records");
    let b = render();
    assert!(a == b, "same seed, different streaming trace bytes");
}

/// Tracing must not perturb the simulation: identical makespan, stats,
/// and registers with recording on and off (the zero-cost-when-off
/// guarantee, semantically).
#[test]
fn tracing_does_not_perturb_the_run() {
    let plain = run_workload("mergesort-uniform", SimConfig::nautilus(4, 3_000));
    let traced = run_workload("mergesort-uniform", traced(4));
    assert!(plain.trace.is_none(), "tracing defaults to off");
    assert_eq!(plain.time, traced.time);
    assert_eq!(plain.stats, traced.stats);
    assert_eq!(plain.final_regs(), traced.final_regs());
    assert_eq!((plain.work, plain.span), (traced.work, traced.span));
}
