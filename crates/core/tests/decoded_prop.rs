//! Property tests of the compiled executors: on randomly generated
//! valid programs, the decoded micro-op stream **and** the templated
//! one must reach exactly the same final state as the reference
//! interpreter ([`run_task_until`] / [`step_task`]) — same final
//! registers, same heap checksum, same cycle count, and, when the
//! program faults, the same [`MachineError`] at the same task position.
//! The generator deliberately produces division-by-zero,
//! uninitialised-register, heap-range, heap-exhaustion, stack-fault and
//! stack-exhaustion paths, and the
//! compiled tiers are driven with adversarial quantum chunkings so
//! fused micro-ops are split mid-way. It favours long runs of moves,
//! stores through one base and loads through one base (the shapes the
//! decoder fuses into run micro-ops), loads that overwrite their own
//! base, and faults inside those runs.

use proptest::prelude::*;

use tpal_core::isa::{BinOp, Instr, MemAddr, Operand};
use tpal_core::machine::{
    step_task, MachineError, RunPause, StepOutcome, Stores, TaskState, MAX_HEAP_WORDS,
    MAX_STACK_CELLS,
};
use tpal_core::program::{Program, ProgramBuilder};
use tpal_core::tier::{ExecBackend, ExecTier};

/// Value registers `r0..r4` are initialised by the entry block; `u` is
/// never written (reads fault); `sp` holds the stack, `arr` the heap
/// base.
const VAL_REGS: usize = 5;

#[derive(Debug, Clone)]
enum GenOperand {
    Reg(usize), // VAL_REGS = u, VAL_REGS+1 = sp, VAL_REGS+2 = arr
    Int(i64),
}

#[derive(Debug, Clone)]
enum GenInstr {
    Move(usize, GenOperand),
    Op(usize, BinOp, usize, GenOperand),
    SAlloc(usize, u32),
    SFree(u32),
    /// `dst := mem[base + n]`; `dst` may be `sp` (VAL_REGS + 1), the
    /// load that writes its own base.
    Load(usize, usize, u32),
    Store(usize, u32, GenOperand),
    HLoad(usize, usize, GenOperand),
    HStore(usize, GenOperand, GenOperand),
    HAlloc(usize, i64),
    IfJumpFwd(usize, usize), // cond reg, forward distance selector
}

fn operand_strategy() -> impl Strategy<Value = GenOperand> {
    prop_oneof![
        (0..VAL_REGS + 3).prop_map(GenOperand::Reg),
        // Includes 0, so `div`/`mod` by an immediate zero occurs.
        (-2i64..12).prop_map(GenOperand::Int),
    ]
}

fn instr_strategy() -> impl Strategy<Value = GenInstr> {
    let vreg = 0..VAL_REGS;
    let anyreg = 0..VAL_REGS + 3;
    prop_oneof![
        (vreg.clone(), operand_strategy()).prop_map(|(d, s)| GenInstr::Move(d, s)),
        (
            vreg.clone(),
            proptest::sample::select(BinOp::all()),
            anyreg.clone(),
            operand_strategy()
        )
            .prop_map(|(d, o, l, r)| GenInstr::Op(d, o, l, r)),
        // Stack traffic: the entry block allocates 4 cells, so offsets
        // 0..6 stray out of range and `sfree` beyond the allocation
        // underflows — both are wanted fault paths — and now and then an
        // allocation asks for more cells than a stack may hold.
        (
            0usize..2,
            prop_oneof![
                4 => 1u32..3,
                1 => proptest::sample::select(&[MAX_STACK_CELLS as u32, u32::MAX][..]),
            ]
        )
            .prop_map(|(s, n)| GenInstr::SAlloc(s, n)),
        (1u32..6).prop_map(GenInstr::SFree),
        (vreg.clone(), 0usize..2, 0u32..6).prop_map(|(d, b, o)| GenInstr::Load(d, b, o)),
        (0usize..2, 0u32..6, operand_strategy()).prop_map(|(b, o, s)| GenInstr::Store(b, o, s)),
        // Heap traffic: the array is 8 words; negative and large
        // offsets fault, `sp`/`u` bases type-fault.
        (vreg.clone(), 0usize..3, operand_strategy())
            .prop_map(|(d, b, o)| GenInstr::HLoad(d, b, o)),
        (0usize..3, operand_strategy(), operand_strategy())
            .prop_map(|(b, o, s)| GenInstr::HStore(b, o, s)),
        // Allocation: small sizes succeed, a negative one faults out of
        // range, and the last two ask for more than the heap may hold.
        (
            vreg.clone(),
            proptest::sample::select(&[-1i64, 0, 3, MAX_HEAP_WORDS as i64, i64::MAX / 2][..])
        )
            .prop_map(|(d, n)| GenInstr::HAlloc(d, n)),
        (anyreg, 0usize..4).prop_map(|(c, t)| GenInstr::IfJumpFwd(c, t)),
    ]
}

/// A load's destination and offset: mostly a value register, now and
/// then `sp` from the cell the init block points back at the stack.
fn load_into() -> impl Strategy<Value = (usize, u32)> {
    prop_oneof![
        11 => (0..VAL_REGS, prop_oneof![19 => 0u32..4, 1 => 4u32..6]),
        1 => Just((VAL_REGS + 1, 3)),
    ]
}

/// One stretch of a body: a single instruction, or a run of two to
/// seven moves, stores through one base, or loads through one base.
/// Run constituents mostly succeed, so runs execute whole, but an
/// unwritten source, an out-of-range cell or a base that is not a stack
/// turns up at any position now and then.
fn segment_strategy() -> impl Strategy<Value = Vec<GenInstr>> {
    let run = 2usize..8;
    let src = || {
        prop_oneof![
            30 => prop_oneof![
                (0..VAL_REGS).prop_map(GenOperand::Reg),
                Just(GenOperand::Reg(VAL_REGS + 1)),
                (-2i64..12).prop_map(GenOperand::Int),
            ],
            1 => Just(GenOperand::Reg(VAL_REGS)),
        ]
    };
    let base = || prop_oneof![19 => Just(0usize), 1 => Just(1usize)];
    let offset = || prop_oneof![19 => 0u32..4, 1 => 4u32..6];
    prop_oneof![
        2 => instr_strategy().prop_map(|i| vec![i]),
        2 => proptest::collection::vec((0..VAL_REGS, src()), run.clone())
            .prop_map(|ms| ms.into_iter().map(|(d, s)| GenInstr::Move(d, s)).collect()),
        2 => (base(), proptest::collection::vec((offset(), src()), run.clone()))
            .prop_map(|(b, ss)| ss.into_iter().map(|(o, s)| GenInstr::Store(b, o, s)).collect()),
        2 => (base(), proptest::collection::vec(load_into(), run))
            .prop_map(|(b, ls)| ls.into_iter().map(|(d, o)| GenInstr::Load(d, b, o)).collect()),
    ]
}

/// Builds a terminating program: an init block that allocates the stack
/// and heap and seeds `r0..r4`, then `NBLOCKS` body blocks whose jumps
/// (conditional and terminator alike) only ever target *later* blocks,
/// so every block runs at most once.
fn build_program(bodies: &[Vec<GenInstr>], jumps: &[usize], seeds: &[i64]) -> Program {
    let n = bodies.len();
    let mut b = ProgramBuilder::new();
    let vregs: Vec<_> = (0..VAL_REGS).map(|i| b.reg(&format!("r{i}"))).collect();
    let u = b.reg("u");
    let sp = b.reg("sp");
    let arr = b.reg("arr");
    let blocks: Vec<_> = (0..n).map(|i| b.label(&format!("blk{i}"))).collect();
    let done = b.label("done");
    let reg_of = |i: usize| {
        if i < VAL_REGS {
            vregs[i]
        } else if i == VAL_REGS {
            u
        } else if i == VAL_REGS + 1 {
            sp
        } else {
            arr
        }
    };
    let to_op = |o: &GenOperand| match o {
        GenOperand::Reg(i) => Operand::Reg(reg_of(*i)),
        GenOperand::Int(v) => Operand::Int(*v),
    };
    // Stack bases: sp or (type-faulting) r0.
    let base_of = |i: usize| if i == 0 { sp } else { vregs[0] };
    // Heap bases: arr, sp (type fault), or r1 (usually out of range).
    let hbase_of = |i: usize| match i {
        0 => arr,
        1 => sp,
        _ => vregs[1],
    };
    // Forward target strictly after block `i`.
    let fwd = |i: usize, sel: usize| {
        let later = n - i; // choices: blk(i+1)..blk(n-1), done
        if sel % later == later - 1 {
            done
        } else {
            blocks[i + 1 + (sel % later)]
        }
    };

    let mut init = vec![
        Instr::SNew { dst: sp },
        Instr::SAlloc { sp, n: 4 },
        Instr::Store {
            addr: MemAddr {
                base: sp,
                offset: 3,
            },
            src: Operand::Reg(sp),
        },
        Instr::HAlloc {
            dst: arr,
            size: Operand::Int(8),
        },
    ];
    for (i, &v) in seeds.iter().enumerate() {
        init.push(Instr::Move {
            dst: vregs[i],
            src: Operand::Int(v),
        });
    }
    init.push(Instr::Jump {
        target: Operand::Label(blocks[0]),
    });
    b.block("init", init);

    for (i, body) in bodies.iter().enumerate() {
        let mut instrs: Vec<Instr> = Vec::new();
        for gi in body {
            instrs.push(match gi {
                GenInstr::Move(d, s) => Instr::Move {
                    dst: vregs[*d],
                    src: to_op(s),
                },
                GenInstr::Op(d, o, l, r) => Instr::Op {
                    dst: vregs[*d],
                    op: *o,
                    lhs: reg_of(*l),
                    rhs: to_op(r),
                },
                GenInstr::SAlloc(s, n) => Instr::SAlloc {
                    sp: base_of(*s),
                    n: *n,
                },
                GenInstr::SFree(n) => Instr::SFree { sp, n: *n },
                GenInstr::Load(d, base, o) => Instr::Load {
                    dst: reg_of(*d),
                    addr: MemAddr {
                        base: base_of(*base),
                        offset: *o,
                    },
                },
                GenInstr::Store(base, o, s) => Instr::Store {
                    addr: MemAddr {
                        base: base_of(*base),
                        offset: *o,
                    },
                    src: to_op(s),
                },
                GenInstr::HLoad(d, base, o) => Instr::HLoad {
                    dst: vregs[*d],
                    base: hbase_of(*base),
                    offset: to_op(o),
                },
                GenInstr::HStore(base, o, s) => Instr::HStore {
                    base: hbase_of(*base),
                    offset: to_op(o),
                    src: to_op(s),
                },
                GenInstr::HAlloc(d, n) => Instr::HAlloc {
                    dst: vregs[*d],
                    size: Operand::Int(*n),
                },
                GenInstr::IfJumpFwd(c, t) => Instr::IfJump {
                    cond: reg_of(*c),
                    target: Operand::Label(fwd(i, *t)),
                },
            });
        }
        instrs.push(Instr::Jump {
            target: Operand::Label(fwd(i, jumps[i])),
        });
        b.block(&format!("blk{i}"), instrs);
    }
    b.block("done", vec![Instr::Halt]);
    b.build().expect("structurally valid by construction")
}

/// Everything observable about one complete run.
#[derive(Debug, PartialEq)]
struct RunResult {
    outcome: Result<(), MachineError>,
    block: String,
    instr: usize,
    cycles: u64,
    regs: Vec<tpal_core::Value>,
    heap_checksum: u64,
}

fn drive(program: &Program, backend: &ExecBackend, chunks: &[u64]) -> RunResult {
    let mut task = TaskState::new(program, program.entry());
    let mut stores = Stores::new();
    let mut ci = 0usize;
    let mut guard = 0u32;
    let outcome = loop {
        guard += 1;
        assert!(guard < 100_000, "generated program failed to terminate");
        let chunk = chunks[ci % chunks.len()];
        ci += 1;
        let r = backend.run_until(program, &mut task, &mut stores, chunk, false);
        match r {
            Ok((_, RunPause::Quantum)) => continue,
            Ok((_, RunPause::PromotionReady)) => unreachable!("watch is off"),
            Ok((_, RunPause::Boundary)) => match step_task(program, &mut task, &mut stores) {
                Ok(StepOutcome::Ran) => continue,
                Ok(StepOutcome::Halted) => break Ok(()),
                Ok(other) => unreachable!("no fork/join generated: {other:?}"),
                Err(e) => break Err(e),
            },
            Err(e) => break Err(e),
        }
    };
    RunResult {
        outcome,
        block: program.label_name(task.block).to_owned(),
        instr: task.instr,
        cycles: task.cycles,
        regs: (0..program.reg_count())
            .map(|i| task.regs.read_raw(tpal_core::Reg::from_index(i)))
            .collect(),
        heap_checksum: stores.heap.checksum(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Compiled execution (decoded and threaded tiers) reaches the
    /// reference's exact final state — registers, heap, cycles, fault
    /// and fault position — regardless of how quanta slice the run
    /// (including mid-fused-op and mid-merged-span splits).
    #[test]
    fn compiled_tiers_match_reference(
        bodies in proptest::collection::vec(
            proptest::collection::vec(segment_strategy(), 0..8)
                .prop_map(|segs| segs.concat()), 4..7),
        jumps in proptest::collection::vec(0usize..8, 7..8),
        seeds in proptest::collection::vec(-4i64..100, VAL_REGS..VAL_REGS + 1),
        chunks in proptest::collection::vec(
            proptest::sample::select(&[1u64, 2, 3, 5, 7, 64, u64::MAX][..]), 1..6),
    ) {
        let p = build_program(&bodies, &jumps, &seeds);
        let reference_backend = ExecBackend::new(&p, ExecTier::Reference);
        let reference = drive(&p, &reference_backend, &[u64::MAX]);
        for tier in [ExecTier::Decoded, ExecTier::Threaded] {
            let backend = ExecBackend::new(&p, tier);
            // Unchunked compiled run.
            let whole = drive(&p, &backend, &[u64::MAX]);
            prop_assert_eq!(&reference, &whole, "{} whole", tier);
            // Adversarially chunked compiled run (splits fused
            // micro-ops).
            let sliced = drive(&p, &backend, &chunks);
            prop_assert_eq!(&reference, &sliced, "{} sliced", tier);
        }
        // Chunked *reference* run, for symmetry: the pause protocol
        // itself must be chunking-invariant on every executor.
        let ref_sliced = drive(&p, &reference_backend, &chunks);
        prop_assert_eq!(&reference, &ref_sliced);
    }
}

/// A fault inside a run stops every tier at that exact constituent, with
/// the steps before it committed, under every quantum chunking: an
/// unwritten source or an out-of-range cell at each position of a move,
/// store or load run. A base that is not a stack faults on the first
/// constituent: the base is common to the run, and a different base
/// starts a run of its own.
#[test]
fn run_faults_stop_at_their_constituent() {
    const LEN: usize = 4;
    let u = GenOperand::Reg(VAL_REGS);
    let one = GenOperand::Int(1);
    type Fault = fn(&MachineError) -> bool;
    let uninit: Fault = |e| matches!(e, MachineError::UninitRegister { .. });
    let range: Fault = |e| matches!(e, MachineError::StackOutOfRange { .. });
    let not_a_stack: Fault = |e| matches!(e, MachineError::TypeError { .. });
    let mut cases: Vec<(Vec<GenInstr>, usize, Fault)> = Vec::new();
    for k in 0..LEN {
        let run = |ok: &dyn Fn(usize) -> GenInstr, bad: GenInstr| -> Vec<GenInstr> {
            (0..LEN)
                .map(|j| if j == k { bad.clone() } else { ok(j) })
                .collect()
        };
        let mov = |j: usize| GenInstr::Move(j % VAL_REGS, one.clone());
        let store = |j: usize| GenInstr::Store(0, j as u32, one.clone());
        let load = |j: usize| GenInstr::Load(j % VAL_REGS, 0, j as u32);
        cases.push((run(&mov, GenInstr::Move(0, u.clone())), k, uninit));
        cases.push((run(&store, GenInstr::Store(0, 1, u.clone())), k, uninit));
        cases.push((run(&store, GenInstr::Store(0, 5, one.clone())), k, range));
        cases.push((run(&load, GenInstr::Load(0, 0, 5)), k, range));
    }
    let stores = (0..LEN).map(|j| GenInstr::Store(1, j as u32, one.clone()));
    cases.push((stores.collect(), 0, not_a_stack));
    let loads = (0..LEN).map(|j| GenInstr::Load(j, 1, j as u32));
    cases.push((loads.collect(), 0, not_a_stack));

    for (run, k, fault) in cases {
        let p = build_program(&[run], &[0], &[1, 2, 3, 4, 5]);
        let reference = drive(&p, &ExecBackend::new(&p, ExecTier::Reference), &[u64::MAX]);
        assert!(
            matches!(&reference.outcome, Err(e) if fault(e)),
            "at {k}: {reference:?}"
        );
        assert_eq!((reference.block.as_str(), reference.instr), ("blk0", k + 1));
        for tier in [ExecTier::Decoded, ExecTier::Threaded] {
            let backend = ExecBackend::new(&p, tier);
            for chunks in [&[u64::MAX][..], &[1], &[2], &[3], &[1, 5], &[2, 64]] {
                let run = drive(&p, &backend, chunks);
                assert_eq!(reference, run, "at {k} [{tier}] chunks {chunks:?}");
            }
        }
    }
}
