//! Integration tests of the multicore simulator: correctness across
//! configurations, scaling behaviour, interrupt models, cost-model
//! invariants, and determinism.

use tpal_core::cost::{brent_upper_bound, lower_bound};
use tpal_core::machine::{Machine, MachineConfig, MachineError};
use tpal_core::programs::{fib, prod};
use tpal_ir::ast::{Expr, Function, IrProgram, ParFor, Reducer, Stmt};
use tpal_ir::lower::{lower, Mode};
use tpal_sim::{InterruptModel, Sim, SimConfig, SimOutcome, SimRef};
use tpal_trace::report::{activity_buckets, CoreActivity};

fn run_prod(config: SimConfig, a: i64, b: i64) -> SimOutcome {
    let p = prod();
    let mut sim = Sim::new(&p, config);
    sim.set_reg("a", a).unwrap();
    sim.set_reg("b", b).unwrap();
    sim.run().unwrap()
}

#[test]
fn prod_correct_on_any_core_count() {
    for cores in [1, 2, 3, 8, 15] {
        let mut c = SimConfig::nautilus(cores, 3000);
        c.seed = 7;
        let out = run_prod(c, 100_000, 3);
        assert_eq!(out.read_reg("c"), Some(300_000), "cores={cores}");
    }
}

#[test]
fn prod_scales_with_cores() {
    let t1 = run_prod(SimConfig::nautilus(1, 3000), 400_000, 1).time;
    let t4 = run_prod(SimConfig::nautilus(4, 3000), 400_000, 1).time;
    let t8 = run_prod(SimConfig::nautilus(8, 3000), 400_000, 1).time;
    assert!(
        (t1 as f64) / (t4 as f64) > 2.5,
        "4 cores should give >2.5x ({t1} vs {t4})"
    );
    assert!(
        (t1 as f64) / (t8 as f64) > 4.0,
        "8 cores should give >4x ({t1} vs {t8})"
    );
}

#[test]
fn sim_agrees_with_reference_machine() {
    let p = fib();
    let mut m = Machine::new(&p, MachineConfig::serial());
    m.set_reg("n", 16).unwrap();
    let expected = m.run().unwrap().read_reg("f").unwrap();

    let mut sim = Sim::new(&p, SimConfig::nautilus(8, 2000));
    sim.set_reg("n", 16).unwrap();
    let out = sim.run().unwrap();
    assert_eq!(out.read_reg("f"), Some(expected));
    assert!(
        out.stats.forks > 0,
        "fib(16) should promote: {:?}",
        out.stats
    );
}

#[test]
fn deterministic_per_seed() {
    let mk = |seed| {
        let mut c = SimConfig::linux(6, 1500);
        c.seed = seed;
        run_prod(c, 150_000, 2)
    };
    let a = mk(11);
    let b = mk(11);
    let c = mk(12);
    assert_eq!(a.time, b.time);
    assert_eq!(a.stats, b.stats);
    // A different seed still computes the right answer (and usually a
    // different schedule).
    assert_eq!(c.read_reg("c"), Some(300_000));
}

#[test]
fn disabled_interrupts_never_promote() {
    let mut c = SimConfig::nautilus(8, 3000);
    c.interrupt = InterruptModel::Disabled;
    let out = run_prod(c, 50_000, 2);
    assert_eq!(out.read_reg("c"), Some(100_000));
    assert_eq!(out.stats.forks, 0);
    assert_eq!(out.stats.promotions, 0);
    assert_eq!(out.stats.heartbeats_delivered, 0);
}

#[test]
fn ping_thread_misses_aggressive_targets() {
    // A 15-core round at ~110+ cycles per signal takes ≥ 1650 cycles; at
    // ♥ = 600 the ping thread cannot keep up (Figure 10's 20µs case),
    // while the per-core timer always hits its target.
    let a = 300_000;
    let linux = run_prod(SimConfig::linux(15, 600), a, 1);
    let nautilus = run_prod(SimConfig::nautilus(15, 600), a, 1);
    assert!(
        linux.heartbeat_rate_achieved() < 0.5,
        "ping thread should miss the 600-cycle target: {}",
        linux.heartbeat_rate_achieved()
    );
    assert!(
        nautilus.heartbeat_rate_achieved() > 0.95,
        "per-core timer should hit its target: {}",
        nautilus.heartbeat_rate_achieved()
    );
}

#[test]
fn ping_thread_meets_leisurely_targets() {
    let out = run_prod(SimConfig::linux(4, 3000), 300_000, 1);
    assert!(
        out.heartbeat_rate_achieved() > 0.85,
        "4-core round fits in ♥=3000: {}",
        out.heartbeat_rate_achieved()
    );
}

#[test]
fn makespan_within_cost_model_bounds() {
    // Time must exceed the trivial lower bound and stay within a
    // generous Brent-style envelope (overheads included).
    for cores in [2, 4, 8] {
        let out = run_prod(SimConfig::nautilus(cores, 3000), 200_000, 1);
        let work = out.stats.work_cycles + out.stats.overhead_cycles;
        let span = 1; // unknown; use 1 for the lower bound
        assert!(out.time >= lower_bound(out.stats.work_cycles, span, cores as u64));
        assert!(
            out.time <= brent_upper_bound(work, work / 10, cores as u64),
            "time {} far outside Brent envelope (work {})",
            out.time,
            work
        );
    }
}

#[test]
fn cycle_accounting_identity() {
    // Every core-cycle is classified as work, overhead, or idle; the
    // classification must cover the whole cores × makespan area up to a
    // small residue (cores finishing mid-beat after the halt).
    for cores in [1usize, 4, 9] {
        let out = run_prod(SimConfig::nautilus(cores, 2000), 150_000, 2);
        let area = out.time as i64 * cores as i64;
        let counted =
            (out.stats.work_cycles + out.stats.overhead_cycles + out.stats.idle_cycles) as i64;
        let residue = (area - counted).abs() as f64 / area as f64;
        assert!(
            residue < 0.10,
            "cores={cores}: area {area}, counted {counted} ({residue:.2} residue)"
        );
    }
}

#[test]
fn smaller_heartbeat_creates_more_tasks() {
    let fast = run_prod(SimConfig::nautilus(4, 1000), 300_000, 1);
    let slow = run_prod(SimConfig::nautilus(4, 10_000), 300_000, 1);
    assert!(
        fast.stats.forks > slow.stats.forks,
        "♥=1000 should fork more than ♥=10000 ({} vs {})",
        fast.stats.forks,
        slow.stats.forks
    );
}

#[test]
fn deadlock_detected_for_non_halting_program() {
    use tpal_core::isa::{Instr, Operand};
    use tpal_core::program::ProgramBuilder;
    // A program whose only task jumps into a join with no fork: the task
    // faults; wrap a benign variant: task that just ends by stashing
    // forever is impossible, so test the all-idle case with a program
    // that only halts from a task that never gets created. Simplest:
    // entry block that is a self-jump would spin, so instead use a
    // program whose entry forks a child that joins, and the parent joins
    // too — leaving the merged task to *continue* to a block that joins
    // again without a fork: that is a machine error, which run() reports.
    let mut b = ProgramBuilder::new();
    let r = b.reg("jr");
    let exitl = b.label("exitb");
    let comb = b.label("comb");
    b.block(
        "main",
        vec![
            Instr::JrAlloc {
                dst: r,
                cont: Operand::Label(exitl),
            },
            Instr::Join { jr: r },
        ],
    );
    b.annotated_block(
        "exitb",
        tpal_core::isa::Annotation::JoinTarget {
            policy: tpal_core::isa::JoinPolicy::AssocComm,
            merge: tpal_core::isa::RegMap::new(),
            comb,
        },
        vec![Instr::Halt],
    );
    b.block("comb", vec![Instr::Join { jr: r }]);
    let p = b.build().unwrap();
    let mut sim = Sim::new(&p, SimConfig::nautilus(2, 1000));
    // Joining without fork is a protocol error.
    assert!(matches!(sim.run(), Err(MachineError::JoinWithoutFork)));
}

/// Every task parked on a channel nobody will service: the main task on
/// an empty one, a detached producer on a full one. Both engines report
/// `Deadlock` rather than fast-forwarding idle cores for ever, on one
/// core and on many, whatever the interrupt source.
#[test]
fn channel_deadlock_detected_by_both_engines() {
    let p = tpal_core::asm::parse_program(
        "main: [.]
             c := chmake 1
             d := chmake 1
             detach producer
             v := chpop d
             halt
         producer: [.]
             x := 1
             chpush c, x
             chpush c, x
             halt",
    )
    .unwrap();
    for config in [
        SimConfig::nautilus(1, 3000),
        SimConfig::nautilus(15, 3000),
        SimConfig::linux(4, 3000),
        SimConfig {
            interrupt: InterruptModel::Disabled,
            ..SimConfig::nautilus(3, 3000)
        },
    ] {
        let ctx = format!("{} cores, {}", config.cores, config.interrupt.label());
        assert!(
            matches!(Sim::new(&p, config).run(), Err(MachineError::Deadlock)),
            "{ctx}"
        );
        assert!(
            matches!(SimRef::new(&p, config).run(), Err(MachineError::Deadlock)),
            "{ctx}: reference"
        );
    }
}

#[test]
fn heartbeat_vs_eager_task_counts_from_ir() {
    // The same IR loop, lowered both ways: eager creates tasks up front
    // regardless of need; heartbeat creates them at the beat rate.
    let f = Function::new("main", ["n"])
        .stmt(Stmt::assign("s", Expr::int(0)))
        .stmt(Stmt::ParFor(
            ParFor::new("i", Expr::int(0), Expr::var("n"))
                .body(vec![Stmt::assign("s", Expr::var("s").add(Expr::var("i")))])
                .reducer(Reducer::new("s", tpal_core::isa::BinOp::Add, 0)),
        ))
        .stmt(Stmt::Return(Expr::var("s")));
    let ir = IrProgram::new("main").function(f);
    let n: i64 = 60_000;
    let expected = n * (n - 1) / 2;

    let hb = lower(&ir, Mode::Heartbeat).unwrap();
    let eager = lower(&ir, Mode::Eager { workers: 15 }).unwrap();

    let mut s1 = Sim::new(&hb.program, SimConfig::nautilus(15, 3000));
    s1.set_reg(&hb.param_reg("n"), n).unwrap();
    let o1 = s1.run().unwrap();
    assert_eq!(o1.read_reg(&hb.result_reg), Some(expected));

    let mut s2 = Sim::new(&eager.program, SimConfig::nautilus(15, 3000));
    s2.set_reg(&eager.param_reg("n"), n).unwrap();
    let o2 = s2.run().unwrap();
    assert_eq!(o2.read_reg(&eager.result_reg), Some(expected));

    // Eager's 8P heuristic makes ~2×8×15 tasks here; heartbeat makes a
    // number proportional to work/♥.
    assert!(o2.stats.forks >= 100, "eager forks: {}", o2.stats.forks);
    assert!(o1.stats.forks > 0);
    // Both scale: speedups over their own single-core runs.
    assert!(o1.speedup_base() > 4.0, "hb speedup {}", o1.speedup_base());
    assert!(
        o2.speedup_base() > 4.0,
        "eager speedup {}",
        o2.speedup_base()
    );
}

/// The run's activity over time shows heartbeat scheduling ramp up:
/// before the first beat only the initial task's core works, and once
/// promotions have spread the loop every core is busy.
#[test]
fn activity_buckets_show_the_ramp_up() {
    let mut cfg = SimConfig::nautilus(4, 2000);
    cfg.record_trace = true;
    let out = run_prod(cfg, 200_000, 1);
    let buckets = activity_buckets(out.trace.as_ref().expect("trace recorded"), 1_000);
    assert_eq!(buckets.len(), 4);
    // The buckets' cycles reconcile with the stats.
    let mut sum = CoreActivity::default();
    for b in buckets.iter().flatten() {
        sum.work += b.work;
        sum.overhead += b.overhead;
        sum.idle += b.idle;
    }
    assert_eq!(sum.work, out.stats.work_cycles);
    assert_eq!(sum.overhead, out.stats.overhead_cycles);
    assert_eq!(sum.idle, out.stats.idle_cycles);
    // No beat before cycle 2000: in bucket 0, core 0 runs the serial
    // loop and the others find nothing to steal.
    let first = &buckets[0][0];
    assert!(
        first.work > 0 && first.overhead == 0 && first.idle == 0,
        "{first:?}"
    );
    for (c, row) in buckets.iter().enumerate().skip(1) {
        let b = &row[0];
        assert!(
            b.work == 0 && b.overhead == 0 && b.idle > 0,
            "core {c}: {b:?}"
        );
    }
    // Later, some bucket has all four cores at least 90% at work.
    let len = buckets.iter().map(Vec::len).min().unwrap();
    assert!(
        (1..len).any(|i| buckets.iter().all(|row| row[i].utilization() >= 0.9)),
        "{buckets:?}"
    );
}
