//! Whole-workspace integration tests: the full pipeline from concrete
//! TPAL assembly or the task-parallel IR, through the reference machine,
//! to the multicore simulator — all through the `tpal` facade crate.

use tpal::core::asm::{parse_program, print_program};
use tpal::core::machine::{Machine, MachineConfig};
use tpal::core::programs;
use tpal::ir::ast::{CallSpec, Expr, Function, IrProgram, ParFor, Reducer, Stmt};
use tpal::ir::lower::{lower, Mode};
use tpal::sim::{Sim, SimConfig};

#[test]
fn paper_programs_assembly_machine_sim_agree() {
    // prod through text → machine and simulator.
    let text = print_program(&programs::prod());
    let program = parse_program(&text).expect("prod reparses");

    let mut m = Machine::new(&program, MachineConfig::default().with_heartbeat(64));
    m.set_reg("a", 1234).unwrap();
    m.set_reg("b", 5).unwrap();
    let machine_c = m.run().unwrap().read_reg("c").unwrap();

    let mut sim = Sim::new(&program, SimConfig::nautilus(4, 500));
    sim.set_reg("a", 1234).unwrap();
    sim.set_reg("b", 5).unwrap();
    let sim_c = sim.run().unwrap().read_reg("c").unwrap();

    assert_eq!(machine_c, 6170);
    assert_eq!(sim_c, 6170);
}

#[test]
fn fib_assembly_on_simulated_multicore() {
    let program = programs::fib();
    let mut sim = Sim::new(&program, SimConfig::linux(8, 800));
    sim.set_reg("n", 21).unwrap();
    let out = sim.run().unwrap();
    assert_eq!(out.read_reg("f"), Some(10946));
    assert!(
        out.stats.forks > 0,
        "fib(21) should promote: {:?}",
        out.stats
    );
    assert!(out.speedup_base() > 1.5, "promoted fib should overlap");
}

#[test]
fn pow_nested_parallelism_on_sim() {
    let program = programs::pow();
    let mut sim = Sim::new(&program, SimConfig::nautilus(6, 400));
    sim.set_reg("d", 3).unwrap();
    sim.set_reg("e", 11).unwrap();
    let out = sim.run().unwrap();
    assert_eq!(out.read_reg("f"), Some(177_147));
}

/// A small end-to-end application: parallel dot product with a serial
/// driver loop, written once in the IR and executed five ways.
fn dot_ir() -> IrProgram {
    let v = Expr::var;
    let i = Expr::int;
    let dot = Function::new("dot", ["a", "b", "n"])
        .stmt(Stmt::assign("acc", i(0)))
        .stmt(Stmt::ParFor(
            ParFor::new("k", i(0), v("n"))
                .body(vec![Stmt::assign(
                    "acc",
                    v("acc").add(v("a").load(v("k")).mul(v("b").load(v("k")))),
                )])
                .reducer(Reducer::new("acc", tpal::core::isa::BinOp::Add, 0)),
        ))
        .stmt(Stmt::Return(v("acc")));
    let main = Function::new("main", ["a", "b", "n"])
        .stmt(Stmt::assign("total", i(0)))
        .stmt(Stmt::for_(
            "round",
            i(0),
            i(3),
            vec![
                Stmt::Call {
                    func: "dot".into(),
                    args: vec![v("a"), v("b"), v("n")],
                    ret: Some("d".into()),
                },
                Stmt::assign("total", v("total").add(v("d"))),
            ],
        ))
        .stmt(Stmt::Return(v("total")));
    IrProgram::new("main").function(main).function(dot)
}

#[test]
fn ir_program_five_ways() {
    let ir = dot_ir();
    let n = 5_000usize;
    let a: Vec<i64> = (0..n as i64).map(|x| x % 17 - 8).collect();
    let b: Vec<i64> = (0..n as i64).map(|x| x % 13 - 6).collect();
    let expected: i64 = 3 * a.iter().zip(&b).map(|(x, y)| x * y).sum::<i64>();

    let run_machine = |mode: Mode, cfg: MachineConfig| -> i64 {
        let lowered = lower(&ir, mode).unwrap();
        let mut m = Machine::new(&lowered.program, cfg);
        let pa = m.alloc_array(&a);
        let pb = m.alloc_array(&b);
        m.set_reg(&lowered.param_reg("a"), pa).unwrap();
        m.set_reg(&lowered.param_reg("b"), pb).unwrap();
        m.set_reg(&lowered.param_reg("n"), n as i64).unwrap();
        m.run().unwrap().read_reg(&lowered.result_reg).unwrap()
    };
    let run_sim = |mode: Mode, cfg: SimConfig| -> i64 {
        let lowered = lower(&ir, mode).unwrap();
        let mut s = Sim::new(&lowered.program, cfg);
        let pa = s.alloc_array(&a);
        let pb = s.alloc_array(&b);
        s.set_reg(&lowered.param_reg("a"), pa).unwrap();
        s.set_reg(&lowered.param_reg("b"), pb).unwrap();
        s.set_reg(&lowered.param_reg("n"), n as i64).unwrap();
        s.run().unwrap().read_reg(&lowered.result_reg).unwrap()
    };

    assert_eq!(run_machine(Mode::Serial, MachineConfig::serial()), expected);
    assert_eq!(
        run_machine(Mode::Heartbeat, MachineConfig::default().with_heartbeat(90)),
        expected
    );
    assert_eq!(
        run_machine(Mode::Eager { workers: 3 }, MachineConfig::serial()),
        expected
    );
    assert_eq!(
        run_sim(Mode::Heartbeat, SimConfig::nautilus(8, 1500)),
        expected
    );
    assert_eq!(
        run_sim(Mode::Eager { workers: 8 }, SimConfig::linux(8, 1500)),
        expected
    );
}

#[test]
fn lowered_heartbeat_ir_prints_and_reparses() {
    // The generated TPAL survives the concrete syntax round trip.
    let lowered = lower(&dot_ir(), Mode::Heartbeat).unwrap();
    let text = print_program(&lowered.program);
    let back = parse_program(&text).unwrap_or_else(|e| panic!("reparse: {e}"));
    assert_eq!(back.instr_count(), lowered.program.instr_count());
    assert_eq!(back.block_count(), lowered.program.block_count());
}

#[test]
fn par2_ir_through_facade() {
    let v = Expr::var;
    let i = Expr::int;
    let f = Function::new("fib", ["n"])
        .stmt(Stmt::if_(v("n").lt(i(2)), vec![Stmt::Return(v("n"))]))
        .stmt(Stmt::Par2 {
            left: CallSpec::new("fib", vec![v("n").sub(i(1))], "x"),
            right: CallSpec::new("fib", vec![v("n").sub(i(2))], "y"),
        })
        .stmt(Stmt::Return(v("x").add(v("y"))));
    let ir = IrProgram::new("fib").function(f);
    for (mode, hb) in [
        (Mode::Serial, u64::MAX),
        (Mode::Heartbeat, 70),
        (Mode::Eager { workers: 4 }, u64::MAX),
    ] {
        let lowered = lower(&ir, mode).unwrap();
        let mut m = Machine::new(
            &lowered.program,
            MachineConfig::default().with_heartbeat(hb),
        );
        m.set_reg(&lowered.param_reg("n"), 17).unwrap();
        assert_eq!(
            m.run().unwrap().read_reg(&lowered.result_reg),
            Some(1597),
            "{mode:?}"
        );
    }
}

/// `max_live_tasks` counts every simultaneously live task at a fork as
/// at a detach: the queue, the running task and the tasks parked on
/// channels. Here three poppers stay parked on `c` through the
/// eight-leaf `par` tree, so its peak is 8 live tasks, not the 5 that
/// the queue and the runner alone reach.
#[test]
fn machine_max_live_tasks_counts_parked_tasks_at_a_fork() {
    let ir = tpal::ir::parse_ir(
        "fn main(n) { c = chmake(1); e = chmake(1); \
         detach popper(c); detach popper(c); detach popper(c); detach pusher(e); \
         y = chpop(e); par { a = four(1); b = four(2); } \
         chpush(c, 0); chpush(c, 0); chpush(c, 0); return a + b + y + n; }
         fn popper(c) { x = chpop(c); return 0; }
         fn pusher(e) { chpush(e, 1); return 0; }
         fn four(n) { par { a = two(n); b = two(n); } return a + b; }
         fn two(n) { par { a = leaf(n); b = leaf(n); } return a + b; }
         fn leaf(n) { return n; }",
    )
    .unwrap();
    let lowered = lower(&ir, Mode::Eager { workers: 1 }).unwrap();
    let mut m = Machine::new(&lowered.program, MachineConfig::default());
    m.set_reg(&lowered.param_reg("n"), 0).unwrap();
    let out = m.run().unwrap();
    assert_eq!(out.read_reg(&lowered.result_reg), Some(13));
    assert_eq!(out.stats.max_live_tasks, 8);
}
