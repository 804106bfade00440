//! Quantum-split edge cases of the loop templates.
//!
//! The fast tier installs a whole-loop template on reduce- and
//! guarded-update-shaped loops, which commits many iterations per
//! dispatch, so a quantum boundary lands *inside* a template far more
//! often than inside a fused micro-op. This suite drives such loop
//! programs chunk by chunk under adversarial quanta
//! (1, 2, small primes, exact-fusion-boundary multiples), asserting
//! **per-chunk** three-way equality of `(steps, pause)`, task position,
//! and cycle count between the reference interpreter, the decoded tier,
//! and the threaded tier, and final-state equality of the registers —
//! including runs that fault out of the template mid-iteration.

use proptest::prelude::*;

use tpal_core::isa::{BinOp, Instr, Operand};
use tpal_core::machine::{Stores, TaskState, Value};
use tpal_core::program::{Program, ProgramBuilder};
use tpal_core::tier::{ExecBackend, ExecTier};

/// A reduce loop with a configurable accumulate operator and a
/// `pairs`-long straight-line prologue of specialised ALU ops (so the
/// quantum reaches the loop head at every remainder).
fn reduce_program(cmp: BinOp, acc_op: BinOp, pairs: usize) -> Program {
    let mut b = ProgramBuilder::new();
    let (i, n, a, w, acc, t) = (
        b.reg("i"),
        b.reg("n"),
        b.reg("a"),
        b.reg("w"),
        b.reg("acc"),
        b.reg("t"),
    );
    let (head, body, exit) = (b.label("head"), b.label("body"), b.label("exit"));

    let mut prologue = Vec::new();
    for k in 0..pairs * 2 {
        prologue.push(Instr::Op {
            dst: acc,
            op: if k % 2 == 0 { BinOp::Add } else { BinOp::Sub },
            lhs: acc,
            rhs: Operand::Int(k as i64 + 1),
        });
    }
    prologue.push(Instr::Jump {
        target: Operand::Label(head),
    });
    b.block("entry", prologue);

    b.block(
        "head",
        vec![
            Instr::Op {
                dst: t,
                op: cmp,
                lhs: i,
                rhs: Operand::Reg(n),
            },
            Instr::IfJump {
                cond: t,
                target: Operand::Label(body),
            },
            Instr::Jump {
                target: Operand::Label(exit),
            },
        ],
    );
    b.block(
        "body",
        vec![
            Instr::HLoad {
                dst: w,
                base: a,
                offset: Operand::Reg(i),
            },
            Instr::Op {
                dst: acc,
                op: acc_op,
                lhs: acc,
                rhs: Operand::Reg(w),
            },
            Instr::Op {
                dst: i,
                op: BinOp::Add,
                lhs: i,
                rhs: Operand::Int(1),
            },
            Instr::Jump {
                target: Operand::Label(head),
            },
        ],
    );
    b.block("exit", vec![Instr::Halt]);
    let entry = b.label("entry");
    b.entry(entry);
    b.build().unwrap()
}

/// One engine's harness: a task plus stores with the array installed.
struct Engine {
    backend: ExecBackend,
    task: TaskState,
    stores: Stores,
}

fn engine(p: &Program, tier: ExecTier, data: &[i64], n: i64) -> Engine {
    let backend = ExecBackend::new(p, tier);
    let mut stores = Stores::new();
    let base = stores.heap.alloc_init(data);
    let mut task = TaskState::new(p, p.entry());
    for (name, v) in [("i", 0), ("n", n), ("a", base), ("acc", 0)] {
        task.regs.write(p.reg(name).unwrap(), Value::Int(v));
    }
    Engine {
        backend,
        task,
        stores,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Per-chunk three-way agreement on reduce loops: steps, pause (or
    /// fault, with its position), cycles, and final registers, under
    /// quanta that slice fused micro-ops and the loop template at every
    /// offset. `n > len` runs fault on a heap load mid-template.
    #[test]
    fn threaded_quantum_splits_match(
        len in 0usize..12,
        n in 0i64..24,
        cmp in proptest::sample::select(&[BinOp::Lt, BinOp::Le][..]),
        acc_op in proptest::sample::select(&[BinOp::Add, BinOp::Sub, BinOp::Mul][..]),
        pairs in 0usize..3,
        quanta in proptest::collection::vec(
            // 1 and 2 split every pair; 3/5/7/11/13 walk the 6-step
            // loop template through every interior offset; 6 and 12
            // are exact template boundaries; MAX never splits.
            proptest::sample::select(&[1u64, 2, 3, 5, 6, 7, 11, 12, 13, u64::MAX][..]),
            1..6),
    ) {
        let p = reduce_program(cmp, acc_op, pairs);
        let data: Vec<i64> = (0..len as i64).map(|x| x * 3 - 5).collect();
        let mut engines = [
            engine(&p, ExecTier::Reference, &data, n),
            engine(&p, ExecTier::Decoded, &data, n),
            engine(&p, ExecTier::Threaded, &data, n),
        ];

        let mut ci = 0usize;
        let mut guard = 0u32;
        loop {
            guard += 1;
            prop_assert!(guard < 10_000, "failed to terminate");
            let q = quanta[ci % quanta.len()];
            ci += 1;
            let results: Vec<String> = engines
                .iter_mut()
                .map(|e| {
                    let r = e.backend.run_until(&p, &mut e.task, &mut e.stores, q, false);
                    format!("{r:?}")
                })
                .collect();
            prop_assert_eq!(&results[0], &results[1], "decoded vs ref, quantum {}", q);
            prop_assert_eq!(&results[0], &results[2], "threaded vs ref, quantum {}", q);
            let positions: Vec<_> = engines
                .iter()
                .map(|e| (e.task.block, e.task.instr, e.task.cycles))
                .collect();
            prop_assert_eq!(positions[0], positions[1], "decoded position, quantum {}", q);
            prop_assert_eq!(positions[0], positions[2], "threaded position, quantum {}", q);
            // All agree, so inspect engine 0's result for termination.
            if results[0].contains("Err") || results[0].contains("Boundary") {
                break;
            }
        }
        prop_assert_eq!(&engines[0].task.regs, &engines[1].task.regs);
        prop_assert_eq!(&engines[0].task.regs, &engines[2].task.regs);
        prop_assert_eq!(
            engines[0].stores.heap.checksum(),
            engines[2].stores.heap.checksum()
        );
    }
}

/// The guarded-update shape (Floyd–Warshall relaxation): two strided
/// loads, a compare, and a conditional store-back, which the fast tier
/// runs as a whole-loop template.
fn guarded_program() -> Program {
    let mut b = ProgramBuilder::new();
    let (j, n, ra, rb, stride, hb, dd) = (
        b.reg("j"),
        b.reg("n"),
        b.reg("ra"),
        b.reg("rb"),
        b.reg("stride"),
        b.reg("hb"),
        b.reg("dd"),
    );
    let (t, x1, x2, a, cand, x3, x4, bb, c, y1, y2) = (
        b.reg("t"),
        b.reg("x1"),
        b.reg("x2"),
        b.reg("a"),
        b.reg("cand"),
        b.reg("x3"),
        b.reg("x4"),
        b.reg("bb"),
        b.reg("c"),
        b.reg("y1"),
        b.reg("y2"),
    );
    let (head, body, then_b, else_b, endif, exit) = (
        b.label("head"),
        b.label("body"),
        b.label("then_b"),
        b.label("else_b"),
        b.label("endif"),
        b.label("exit"),
    );
    let op = |dst, op, lhs, rhs| Instr::Op { dst, op, lhs, rhs };
    b.block(
        "head",
        vec![
            op(t, BinOp::Lt, j, Operand::Reg(n)),
            Instr::IfJump {
                cond: t,
                target: Operand::Label(body),
            },
            Instr::Jump {
                target: Operand::Label(exit),
            },
        ],
    );
    b.block(
        "body",
        vec![
            op(x1, BinOp::Mul, ra, Operand::Reg(stride)),
            op(x2, BinOp::Add, x1, Operand::Reg(j)),
            Instr::HLoad {
                dst: a,
                base: hb,
                offset: Operand::Reg(x2),
            },
            op(cand, BinOp::Add, dd, Operand::Reg(a)),
            op(x3, BinOp::Mul, rb, Operand::Reg(stride)),
            op(x4, BinOp::Add, x3, Operand::Reg(j)),
            Instr::HLoad {
                dst: bb,
                base: hb,
                offset: Operand::Reg(x4),
            },
            op(c, BinOp::Lt, cand, Operand::Reg(bb)),
            Instr::IfJump {
                cond: c,
                target: Operand::Label(then_b),
            },
            Instr::Jump {
                target: Operand::Label(else_b),
            },
        ],
    );
    b.block(
        "then_b",
        vec![
            op(y1, BinOp::Mul, rb, Operand::Reg(stride)),
            op(y2, BinOp::Add, y1, Operand::Reg(j)),
            Instr::HStore {
                base: hb,
                offset: Operand::Reg(y2),
                src: Operand::Reg(cand),
            },
            Instr::Jump {
                target: Operand::Label(endif),
            },
        ],
    );
    b.block(
        "else_b",
        vec![Instr::Jump {
            target: Operand::Label(endif),
        }],
    );
    b.block(
        "endif",
        vec![
            op(j, BinOp::Add, j, Operand::Int(1)),
            Instr::Jump {
                target: Operand::Label(head),
            },
        ],
    );
    b.block("exit", vec![Instr::Halt]);
    b.entry(head);
    b.build().unwrap()
}

/// `[n, ra, rb, stride, dd]` initial register values.
fn guarded_engine(p: &Program, tier: ExecTier, data: &[i64], init: [i64; 5]) -> Engine {
    let [n, ra, rb, stride, dd] = init;
    let backend = ExecBackend::new(p, tier);
    let mut stores = Stores::new();
    let base = stores.heap.alloc_init(data);
    let mut task = TaskState::new(p, p.entry());
    for (name, v) in [
        ("j", 0),
        ("n", n),
        ("ra", ra),
        ("rb", rb),
        ("stride", stride),
        ("hb", base),
        ("dd", dd),
    ] {
        task.regs.write(p.reg(name).unwrap(), Value::Int(v));
    }
    Engine {
        backend,
        task,
        stores,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Per-chunk three-way agreement on guarded-update loops: the
    /// template commits whole iterations (15 steps untaken, 17 taken),
    /// so these quanta land at every interior offset of both paths, and
    /// row indices that run past the allocation fault mid-template.
    #[test]
    fn guarded_quantum_splits_match(
        len in 0usize..12,
        n in 0i64..10,
        ra in 0i64..4,
        rb in 0i64..4,
        stride in 0i64..5,
        dd in -3i64..4,
        quanta in proptest::collection::vec(
            proptest::sample::select(
                &[1u64, 2, 3, 5, 7, 11, 13, 15, 16, 17, 31, u64::MAX][..]),
            1..6),
    ) {
        let p = guarded_program();
        let data: Vec<i64> = (0..len as i64).map(|x| (x * 7) % 5 - 2).collect();
        let mut engines = [
            guarded_engine(&p, ExecTier::Reference, &data, [n, ra, rb, stride, dd]),
            guarded_engine(&p, ExecTier::Decoded, &data, [n, ra, rb, stride, dd]),
            guarded_engine(&p, ExecTier::Threaded, &data, [n, ra, rb, stride, dd]),
        ];

        let mut ci = 0usize;
        let mut guard = 0u32;
        loop {
            guard += 1;
            prop_assert!(guard < 10_000, "failed to terminate");
            let q = quanta[ci % quanta.len()];
            ci += 1;
            let results: Vec<String> = engines
                .iter_mut()
                .map(|e| {
                    let r = e.backend.run_until(&p, &mut e.task, &mut e.stores, q, false);
                    format!("{r:?}")
                })
                .collect();
            prop_assert_eq!(&results[0], &results[1], "decoded vs ref, quantum {}", q);
            prop_assert_eq!(&results[0], &results[2], "threaded vs ref, quantum {}", q);
            let positions: Vec<_> = engines
                .iter()
                .map(|e| (e.task.block, e.task.instr, e.task.cycles))
                .collect();
            prop_assert_eq!(positions[0], positions[1], "decoded position, quantum {}", q);
            prop_assert_eq!(positions[0], positions[2], "threaded position, quantum {}", q);
            if results[0].contains("Err") || results[0].contains("Boundary") {
                break;
            }
        }
        prop_assert_eq!(&engines[0].task.regs, &engines[1].task.regs);
        prop_assert_eq!(&engines[0].task.regs, &engines[2].task.regs);
        prop_assert_eq!(
            engines[0].stores.heap.checksum(),
            engines[1].stores.heap.checksum()
        );
        prop_assert_eq!(
            engines[0].stores.heap.checksum(),
            engines[2].stores.heap.checksum()
        );
    }
}
