//! The suite's differential test: every workload must produce its
//! reference checksum in every build —
//!
//! * natively: serial, heartbeat (`tpal-rt`), and eager (`tpal-cilk`);
//! * simulated: the IR lowered serial/heartbeat/eager and run on the
//!   multicore simulator;
//! * the streaming specs' lowerings interpreted by `tpal-rt`
//!   (`Runtime::run_program`) against the abstract machine.
//!
//! This is the property that makes the benchmark numbers meaningful: all
//! systems do the same computation.

use tpal_cilk::CilkRuntime;
use tpal_core::machine::{Machine, MachineConfig};
use tpal_core::tier::{ExecBackend, ExecTier};
use tpal_ir::lower::{lower, Lowered, Mode};
use tpal_rt::{HeartbeatSource, RtConfig, Runtime};
use tpal_sim::{Sim, SimConfig};
use tpal_workloads::{all_workloads, Scale, SimSpec, Workload};

fn run_sim(spec: &SimSpec, mode: Mode, config: SimConfig) -> i64 {
    let lowered = lower(&spec.ir, mode).unwrap_or_else(|e| panic!("lowering failed: {e}"));
    let mut sim = Sim::new(&lowered.program, config);
    for (name, data) in &spec.input.arrays {
        let base = sim.alloc_array(data);
        sim.set_reg(&lowered.param_reg(name), base)
            .unwrap_or_else(|e| panic!("set array {name}: {e}"));
    }
    for (name, v) in &spec.input.ints {
        sim.set_reg(&lowered.param_reg(name), *v)
            .unwrap_or_else(|e| panic!("set int {name}: {e}"));
    }
    let out = sim.run().unwrap_or_else(|e| panic!("sim failed: {e}"));
    out.read_reg(&lowered.result_reg).expect("result register")
}

fn check_native(w: &dyn Workload) {
    let p = w.prepare(Scale::Quick);
    let expected = p.expected();
    assert_eq!(p.run_serial(), expected, "{}: native serial", w.name());

    for source in [HeartbeatSource::Disabled, HeartbeatSource::LocalTimer] {
        let rt = Runtime::new(
            RtConfig::default()
                .workers(2)
                .source(source)
                .heartbeat(std::time::Duration::from_micros(80)),
        );
        let got = rt.run(|ctx| p.run_heartbeat(ctx));
        assert_eq!(got, expected, "{}: native heartbeat {source:?}", w.name());
    }

    let cilk = CilkRuntime::new(2);
    let got = cilk.run(|ctx| p.run_cilk(ctx));
    assert_eq!(got, expected, "{}: native cilk", w.name());
}

fn check_sim(w: &dyn Workload) {
    let spec = w.sim_spec(Scale::Quick);
    assert_eq!(
        run_sim(&spec, Mode::Serial, SimConfig::serial()),
        spec.expected,
        "{}: sim serial",
        w.name()
    );
    assert_eq!(
        run_sim(&spec, Mode::Heartbeat, SimConfig::nautilus(4, 3000)),
        spec.expected,
        "{}: sim heartbeat/nautilus",
        w.name()
    );
    assert_eq!(
        run_sim(&spec, Mode::Heartbeat, SimConfig::linux(4, 3000)),
        spec.expected,
        "{}: sim heartbeat/linux",
        w.name()
    );
    assert_eq!(
        run_sim(
            &spec,
            Mode::Eager { workers: 4 },
            SimConfig::nautilus(4, 3000)
        ),
        spec.expected,
        "{}: sim eager",
        w.name()
    );
    assert_eq!(
        run_sim(&spec, Mode::HeartbeatExpanded, SimConfig::nautilus(4, 3000)),
        spec.expected,
        "{}: sim heartbeat/expanded",
        w.name()
    );
}

macro_rules! workload_tests {
    ($($test:ident => $name:expr),* $(,)?) => {
        $(
            mod $test {
                use super::*;

                #[test]
                fn native() {
                    let w = tpal_workloads::workload($name).expect("known workload");
                    check_native(w.as_ref());
                }

                #[test]
                fn simulated() {
                    let w = tpal_workloads::workload($name).expect("known workload");
                    check_sim(w.as_ref());
                }
            }
        )*
    };
}

workload_tests! {
    plus_reduce_array => "plus-reduce-array",
    spmv_random => "spmv-random",
    spmv_powerlaw => "spmv-powerlaw",
    spmv_arrowhead => "spmv-arrowhead",
    mandelbrot => "mandelbrot",
    kmeans => "kmeans",
    srad => "srad",
    floyd_warshall_small => "floyd-warshall-small",
    floyd_warshall_large => "floyd-warshall-large",
    knapsack => "knapsack",
    mergesort_uniform => "mergesort-uniform",
    mergesort_exp => "mergesort-exp",
    pipeline_tokens => "pipeline-tokens",
    spmv_stream => "spmv-stream",
    mandelbrot_tiles => "mandelbrot-tiles",
}

#[test]
fn registry_complete() {
    let names: Vec<_> = all_workloads().iter().map(|w| w.name()).collect();
    assert_eq!(names.len(), 15);
    // Paper grouping: 9 iterative + 3 recursive, plus the 3 streaming
    // workloads of the channel extension.
    let recursive = all_workloads().iter().filter(|w| w.is_recursive()).count();
    assert_eq!(recursive, 3);
    let streaming = all_workloads().iter().filter(|w| w.is_streaming()).count();
    assert_eq!(streaming, 3);
}

#[test]
fn spmv_nests_hold_checksums_under_every_source() {
    // The row loop and the per-row reduction are two marks of one nest:
    // a beat inside a giant row hands off *rows*, and the row itself
    // only once no two rows are left. Beats every 50 us promote at both
    // levels in every run; the checksum weighs each row by its index,
    // so a row summed twice, skipped or written by the wrong chunk
    // shows.
    for name in ["spmv-powerlaw", "spmv-arrowhead"] {
        let p = tpal_workloads::workload(name)
            .expect("known workload")
            .prepare(Scale::Quick);
        for source in [
            HeartbeatSource::LocalTimer,
            HeartbeatSource::PingThread,
            HeartbeatSource::TimerSignal,
        ] {
            for workers in 1..=4 {
                let rt = Runtime::new(
                    RtConfig::default()
                        .workers(workers)
                        .source(source)
                        .heartbeat(std::time::Duration::from_micros(50)),
                );
                for rep in 0..20 {
                    assert_eq!(
                        tpal_workloads::run_heartbeat_on(&rt, p.as_ref()),
                        p.expected(),
                        "{name} {source:?} w{workers} #{rep}"
                    );
                }
            }
        }
    }
}

/// A spec's lowering on the abstract machine with heartbeats off, inputs
/// loaded — what `Runtime::run_program` replaces the beats of.
fn serial_machine<'p>(
    lowered: &'p Lowered,
    spec: &SimSpec,
    backend: &'p ExecBackend,
) -> Machine<'p> {
    let mut m = Machine::with_backend(&lowered.program, backend, MachineConfig::serial());
    for (name, data) in &spec.input.arrays {
        let base = m.alloc_array(data);
        m.set_reg(&lowered.param_reg(name), base).unwrap();
    }
    for (name, v) in &spec.input.ints {
        m.set_reg(&lowered.param_reg(name), *v).unwrap();
    }
    m
}

/// The three streaming specs (channels, `detach`) through
/// `Runtime::run_program`: it runs the abstract machine's own driver,
/// so with no beats the two are *equal* — every counter, every
/// register, work and span, on every tier — and under real beats
/// everything a schedule cannot change still is. (The hand-written
/// `programs/*.tpal` rows of the same table are `tpal-rt`'s
/// `run_program_matches_machine_across_tiers`.)
#[test]
fn streaming_specs_run_on_the_runtime_as_on_the_machine() {
    let one_worker = |source, hb_us| {
        Runtime::new(
            RtConfig::default()
                .workers(1)
                .source(source)
                .heartbeat(std::time::Duration::from_micros(hb_us)),
        )
    };
    let disabled = one_worker(HeartbeatSource::Disabled, 100);
    let beating = [
        HeartbeatSource::LocalTimer,
        HeartbeatSource::PingThread,
        HeartbeatSource::TimerSignal,
    ]
    .map(|source| (source, one_worker(source, 20)));
    for w in all_workloads().iter().filter(|w| w.is_streaming()) {
        let spec = w.sim_spec(Scale::Quick);
        for mode in [Mode::Serial, Mode::Heartbeat] {
            let name = format!("{} {mode:?}", w.name());
            let lowered = lower(&spec.ir, mode).unwrap();
            let mut want = None;
            for tier in ExecTier::ALL {
                let backend = ExecBackend::new(&lowered.program, tier);
                let on_machine = serial_machine(&lowered, &spec, &backend).run().unwrap();
                let (rt, beats) = disabled
                    .run_program(&mut serial_machine(&lowered, &spec, &backend))
                    .unwrap();
                assert_eq!(beats, 0, "{name} {tier}");
                assert_eq!(rt.stats, on_machine.stats, "{name} {tier}");
                assert_eq!(rt.final_regs(), on_machine.final_regs(), "{name} {tier}");
                assert_eq!((rt.work, rt.span), (on_machine.work, on_machine.span));
                want = Some(on_machine);
            }
            let want = want.unwrap();
            assert_eq!(want.read_reg(&lowered.result_reg), Some(spec.expected));
            let backend = ExecBackend::new(&lowered.program, ExecTier::default());
            for (source, rt) in &beating {
                let (got, _) = rt
                    .run_program(&mut serial_machine(&lowered, &spec, &backend))
                    .unwrap();
                let what = format!("{name} {source:?}");
                assert_eq!(
                    got.read_reg(&lowered.result_reg),
                    Some(spec.expected),
                    "{what}"
                );
                let (g, w) = (&got.stats, &want.stats);
                assert_eq!(g.chan_pushes, w.chan_pushes, "{what}");
                assert_eq!(g.chan_pops, w.chan_pops, "{what}");
                assert_eq!(g.detaches, w.detaches, "{what}");
                assert_eq!(g.detached_live_at_halt, w.detached_live_at_halt, "{what}");
                assert!(g.joins >= g.forks, "{what}");
            }
        }
    }
}
