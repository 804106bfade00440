//! The fast execution tier under its public name: the decoded micro-op
//! stream plus the two loop templates.
//!
//! [`ThreadedProgram::compile`] is [`DecodedProgram::decode`] followed by
//! template installation (`decoded::templates`), and
//! [`ThreadedProgram::run_until`] *is* [`DecodedProgram::run_until`] on
//! that stream — there is one interpreter loop. The name dates from a
//! handler-pointer dispatch this tier once had, which measured level with
//! the decoded `match` everywhere the templates did not apply; it and
//! [`crate::ExecTier::Threaded`] survive because the repository's
//! benchmark compiles against them, and go when a benchmark change can
//! drop them.
//!
//! The template-free [`crate::ExecTier::Decoded`] stream stays as the
//! micro-op-level oracle: the tests below, the `threaded_quantum` and
//! `decoded_prop` property suites and `engine_equivalence` hold reference
//! interpreter, decoded stream and templated stream to identical
//! `(steps, pause)` results, task positions, registers and heaps under
//! quanta that land at every offset of a template iteration.

use crate::decoded::{DecodedProgram, UOp};
use crate::machine::step::{RunPause, Stores, TaskState};
use crate::machine::MachineError;
use crate::program::Program;

/// How many loop templates [`ThreadedProgram::compile`] installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemplateCounts {
    /// Reduce loops (compare-head + load/accumulate/step body).
    pub reduce: usize,
    /// Guarded-update loops (the Floyd–Warshall relaxation diamond).
    pub guarded: usize,
    /// Templates the promotion-watch stream runs too: those whose head
    /// and interior blocks are all free of `prppt` annotations. The rest
    /// pause at (a `prppt` head) or dispatch from (a `prppt` interior)
    /// their plain loop head under the watch.
    pub watched: usize,
}

/// A [`Program`] compiled for the fast tier: decoded, with loop templates
/// installed. Compile once, share across cores and tasks; construction is
/// deterministic.
#[derive(Debug, Clone)]
pub struct ThreadedProgram(DecodedProgram);

impl ThreadedProgram {
    /// Compiles a validated program: decode, then install a template
    /// over every recognised reduce and guarded-update loop.
    pub fn compile(program: &Program) -> ThreadedProgram {
        let mut d = DecodedProgram::decode(program);
        d.install_templates();
        ThreadedProgram(d)
    }

    /// The micro-op stream quanta run on (templates included).
    pub fn decoded(&self) -> &DecodedProgram {
        &self.0
    }

    /// The templates installed, by shape, and how many of them the
    /// promotion-watch stream keeps.
    pub fn templates(&self) -> TemplateCounts {
        let is_template = |u: &&UOp| matches!(u, UOp::ReduceLoop { .. } | UOp::GuardedLoop { .. });
        TemplateCounts {
            reduce: self.0.reduce.len(),
            guarded: self.0.guarded.len(),
            watched: self.0.watch_uops.iter().filter(is_template).count(),
        }
    }

    /// [`DecodedProgram::run_until`] on the templated stream: observably
    /// identical to [`crate::machine::run_task_until`] on the source
    /// program.
    ///
    /// # Errors
    ///
    /// Any [`MachineError`] raised by a transition rule; counters
    /// include the faulting instruction, matching the reference.
    #[inline]
    pub fn run_until(
        &self,
        task: &mut TaskState,
        stores: &mut Stores,
        max_steps: u64,
        watch_promotion: bool,
    ) -> Result<(u64, RunPause), MachineError> {
        self.0.run_until(task, stores, max_steps, watch_promotion)
    }
}

#[cfg(test)]
mod tests {
    //! Template installation and three-way (reference / decoded /
    //! templated) differential checks including quantum splits, promotion
    //! watch, and fault positions. The cross-crate suites
    //! (`engine_equivalence`, `decoded_prop`, `threaded_quantum`) extend
    //! these to whole-scheduler and property-based coverage.

    use super::*;
    use crate::isa::{Annotation, BinOp, Instr, Operand};
    use crate::machine::{run_task_until, Value};
    use crate::program::ProgramBuilder;
    use crate::programs::{fib, prod};

    /// Drives the reference interpreter, the decoded tier, and the threaded
    /// tier over the same program in lockstep `run_until` calls, asserting
    /// identical `(steps, pause)` results (faults included), identical task
    /// positions and cycle counters after every call, and identical final
    /// register files. A `PromotionReady` pause is stepped past with a
    /// one-step watch-off nudge so watch-mode runs make progress.
    fn three_way(
        p: &Program,
        heap: &[i64],
        init: impl Fn(&mut TaskState, i64),
        quanta: &[u64],
        watch: bool,
    ) {
        let d = DecodedProgram::decode(p);
        let t = ThreadedProgram::compile(p);
        for &q in quanta {
            let mk = || {
                let mut stores = Stores::new();
                let base = if heap.is_empty() {
                    0
                } else {
                    stores.heap.alloc_init(heap)
                };
                let mut task = TaskState::new(p, p.entry());
                init(&mut task, base);
                (task, stores)
            };
            let (mut t0, mut s0) = mk();
            let (mut t1, mut s1) = mk();
            let (mut t2, mut s2) = mk();
            loop {
                let r0 = run_task_until(p, &mut t0, &mut s0, q, watch);
                let r1 = d.run_until(&mut t1, &mut s1, q, watch);
                let r2 = t.run_until(&mut t2, &mut s2, q, watch);
                assert_eq!(
                    format!("{r0:?}"),
                    format!("{r1:?}"),
                    "decoded vs reference, quantum {q}"
                );
                assert_eq!(
                    format!("{r0:?}"),
                    format!("{r2:?}"),
                    "threaded vs reference, quantum {q}"
                );
                assert_eq!(
                    (t0.block, t0.instr, t0.cycles),
                    (t1.block, t1.instr, t1.cycles),
                    "decoded position, quantum {q}"
                );
                assert_eq!(
                    (t0.block, t0.instr, t0.cycles),
                    (t2.block, t2.instr, t2.cycles),
                    "threaded position, quantum {q}"
                );
                match r0 {
                    Err(_) | Ok((_, RunPause::Boundary)) => break,
                    Ok((_, RunPause::PromotionReady)) => {
                        let n0 = run_task_until(p, &mut t0, &mut s0, 1, false);
                        let n1 = d.run_until(&mut t1, &mut s1, 1, false);
                        let n2 = t.run_until(&mut t2, &mut s2, 1, false);
                        assert_eq!(format!("{n0:?}"), format!("{n1:?}"));
                        assert_eq!(format!("{n0:?}"), format!("{n2:?}"));
                        if matches!(n0, Err(_) | Ok((_, RunPause::Boundary))) {
                            break;
                        }
                    }
                    Ok((_, RunPause::Quantum)) => {}
                }
            }
            assert_eq!(t0.regs, t1.regs, "decoded registers, quantum {q}");
            assert_eq!(t0.regs, t2.regs, "threaded registers, quantum {q}");
            assert_eq!(
                s0.heap.checksum(),
                s1.heap.checksum(),
                "decoded heap, quantum {q}"
            );
            assert_eq!(
                s0.heap.checksum(),
                s2.heap.checksum(),
                "threaded heap, quantum {q}"
            );
        }
    }

    /// The canonical reduce loop: `head` compares, `body` loads, accumulates
    /// and steps, `exit` halts. `n` iterations over `heap[a..]`.
    fn reduce_program(prppt_on: Option<&str>) -> crate::program::Program {
        let mut b = ProgramBuilder::new();
        let (i, n, a, w, acc, t) = (
            b.reg("i"),
            b.reg("n"),
            b.reg("a"),
            b.reg("w"),
            b.reg("acc"),
            b.reg("t"),
        );
        let (head, body, exit, handler) = (
            b.label("head"),
            b.label("body"),
            b.label("exit"),
            b.label("handler"),
        );
        let head_instrs = vec![
            Instr::Op {
                dst: t,
                op: BinOp::Lt,
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
        ];
        if prppt_on == Some("head") {
            b.annotated_block("head", Annotation::PromotionReady { handler }, head_instrs);
        } else {
            b.block("head", head_instrs);
        }
        let body_instrs = vec![
            Instr::HLoad {
                dst: w,
                base: a,
                offset: Operand::Reg(i),
            },
            Instr::Op {
                dst: acc,
                op: BinOp::Add,
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
        ];
        if prppt_on == Some("body") {
            b.annotated_block("body", Annotation::PromotionReady { handler }, body_instrs);
        } else {
            b.block("body", body_instrs);
        }
        b.block("exit", vec![Instr::Halt]);
        b.block(
            "handler",
            vec![Instr::Jump {
                target: Operand::Label(head),
            }],
        );
        b.entry(head);
        b.build().unwrap()
    }

    const REDUCE_QUANTA: &[u64] = &[1, 2, 3, 4, 5, 6, 7, 11, 13, u64::MAX];

    /// Compiling the same program twice yields identical streams and
    /// rosters.
    #[test]
    fn compile_is_deterministic() {
        for p in [prod(), fib(), reduce_program(None), guarded_program(None)] {
            let a = ThreadedProgram::compile(&p).0;
            let b = ThreadedProgram::compile(&p).0;
            assert_eq!(a.uops, b.uops);
            assert_eq!(a.watch_uops, b.watch_uops);
            assert_eq!(a.reduce, b.reduce);
            assert_eq!(a.guarded, b.guarded);
        }
    }

    /// Asserts that compiling `p` changed the decoded streams at the loop
    /// head (pc 0 in the programs below) and nowhere else.
    fn assert_only_head_differs(p: &Program, t: &ThreadedProgram) {
        let d = DecodedProgram::decode(p);
        assert!(matches!(d.uops[0], UOp::CmpBranchBranch { .. }));
        assert_eq!(d.uops[1..], t.0.uops[1..]);
        assert_eq!(d.watch_uops[1..], t.0.watch_uops[1..]);
        assert_eq!(d.src, t.0.src);
        assert_eq!(d.pc_of, t.0.pc_of);
    }

    /// The reduce shape compiles to a whole-loop template over the head
    /// micro-op — the rest of the stream is the decoded one — and stays
    /// bit-identical to the reference under every quantum.
    #[test]
    fn reduce_loop_template_installs_and_matches() {
        let p = reduce_program(None);
        let t = ThreadedProgram::compile(&p);
        assert_eq!(t.0.uops[0], UOp::ReduceLoop { t: 0 });
        assert_eq!(t.0.watch_uops[0], UOp::ReduceLoop { t: 0 });
        assert_eq!(
            t.templates(),
            TemplateCounts {
                reduce: 1,
                guarded: 0,
                watched: 1
            }
        );
        assert_only_head_differs(&p, &t);
        let (i, n, a, acc) = (
            p.reg("i").unwrap(),
            p.reg("n").unwrap(),
            p.reg("a").unwrap(),
            p.reg("acc").unwrap(),
        );
        let data: Vec<i64> = (1..=10).collect();
        three_way(
            &p,
            &data,
            |task, base| {
                task.regs.write(i, Value::Int(0));
                task.regs.write(n, Value::Int(10));
                task.regs.write(a, Value::Int(base));
                task.regs.write(acc, Value::Int(0));
            },
            REDUCE_QUANTA,
            false,
        );
        // And the sum is right (spot check, not just agreement).
        let mut stores = Stores::new();
        let base = stores.heap.alloc_init(&data);
        let mut task = TaskState::new(&p, p.entry());
        task.regs.write(i, Value::Int(0));
        task.regs.write(n, Value::Int(10));
        task.regs.write(a, Value::Int(base));
        task.regs.write(acc, Value::Int(0));
        let (steps, pause) = t
            .run_until(&mut task, &mut stores, u64::MAX, false)
            .unwrap();
        assert_eq!(pause, RunPause::Boundary);
        // 3 head instrs per check (2 when taken +1 amortized on exit) plus 4
        // body instrs per iteration: 10 * (2 + 4) + 3 on the exit check.
        assert_eq!(steps, 63);
        assert_eq!(task.regs.read(acc).unwrap(), Value::Int(55));
    }

    /// Promotion watch over a reduce loop: with the `prppt` annotation on
    /// the head, the watch stream pauses at the head entry (template
    /// replaced by a pause); with it on the body, the watch stream keeps the
    /// plain loop head so the pause is observed at the body entry. Both
    /// must match the reference exactly.
    #[test]
    fn reduce_loop_promotion_watch_matches() {
        for site in ["head", "body"] {
            let p = reduce_program(Some(site));
            let t = ThreadedProgram::compile(&p);
            assert_eq!(
                t.0.uops[0],
                UOp::ReduceLoop { t: 0 },
                "template still installs with prppt on {site}"
            );
            assert_eq!(t.templates().watched, 0);
            if site == "head" {
                assert_eq!(t.0.watch_uops[0], UOp::PrpptPause);
            } else {
                assert!(matches!(t.0.watch_uops[0], UOp::CmpBranchBranch { .. }));
                assert_eq!(t.0.watch_uops[1], UOp::PrpptPause);
            }
            let (i, n, a, acc) = (
                p.reg("i").unwrap(),
                p.reg("n").unwrap(),
                p.reg("a").unwrap(),
                p.reg("acc").unwrap(),
            );
            let data: Vec<i64> = (1..=6).collect();
            three_way(
                &p,
                &data,
                |task, base| {
                    task.regs.write(i, Value::Int(0));
                    task.regs.write(n, Value::Int(6));
                    task.regs.write(a, Value::Int(base));
                    task.regs.write(acc, Value::Int(0));
                },
                REDUCE_QUANTA,
                true,
            );
        }
    }

    /// A heap fault raised inside the whole-loop template (out-of-range
    /// load on a later iteration) is attributed to the body span's
    /// position, identically to the reference.
    #[test]
    fn reduce_loop_fault_positions_match() {
        let p = reduce_program(None);
        let (i, n, a, acc) = (
            p.reg("i").unwrap(),
            p.reg("n").unwrap(),
            p.reg("a").unwrap(),
            p.reg("acc").unwrap(),
        );
        // n runs past the end of the 5-element array: iteration 5 faults
        // inside the template's load.
        let data: Vec<i64> = (1..=5).collect();
        three_way(
            &p,
            &data,
            |task, base| {
                task.regs.write(i, Value::Int(0));
                task.regs.write(n, Value::Int(10));
                task.regs.write(a, Value::Int(base));
                task.regs.write(acc, Value::Int(0));
            },
            REDUCE_QUANTA,
            false,
        );
    }

    /// The compiled watch stream pauses exactly at `prppt` entries — a
    /// template head that is one included — and nowhere else.
    #[test]
    fn watch_handlers_replace_prppt_entries() {
        for p in [prod(), fib(), reduce_program(Some("head"))] {
            let t = ThreadedProgram::compile(&p).0;
            let pauses = t
                .watch_uops
                .iter()
                .filter(|&&u| u == UOp::PrpptPause)
                .count();
            let handlers = t.handlers.iter().flatten().count();
            assert_eq!(pauses, handlers);
            for pc in 0..t.uop_count() {
                assert_eq!(t.watch_uops[pc] == UOp::PrpptPause, t.is_prppt_entry(pc));
                assert_ne!(t.uops[pc], UOp::PrpptPause);
            }
        }
    }

    /// Full three-way agreement on the library programs, plain and watch
    /// mode, under adversarial quanta (runs to the first boundary, like the
    /// decoded suite; whole-scheduler coverage lives in
    /// `engine_equivalence`).
    #[test]
    fn library_programs_three_way() {
        for p in [prod(), fib()] {
            for watch in [false, true] {
                three_way(&p, &[], |_, _| {}, &[1, 2, 3, 5, 7, u64::MAX], watch);
            }
        }
    }

    /// The guarded-update loop (Floyd–Warshall relaxation shape): `head`
    /// counts `j` to `n`; `body` loads `heap[hb + ra*stride + j]`, combines
    /// it with `dd`, loads `heap[hb + rb*stride + j]`, and compares; `then`
    /// conditionally stores the combined value back; `endif` steps `j`.
    fn guarded_program(prppt_on: Option<&str>) -> crate::program::Program {
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
        let (head, body, then_b, else_b, endif, exit, handler) = (
            b.label("head"),
            b.label("body"),
            b.label("then_b"),
            b.label("else_b"),
            b.label("endif"),
            b.label("exit"),
            b.label("handler"),
        );
        let op = |dst, op, lhs, rhs| Instr::Op { dst, op, lhs, rhs };
        let head_instrs = vec![
            op(t, BinOp::Lt, j, Operand::Reg(n)),
            Instr::IfJump {
                cond: t,
                target: Operand::Label(body),
            },
            Instr::Jump {
                target: Operand::Label(exit),
            },
        ];
        if prppt_on == Some("head") {
            b.annotated_block("head", Annotation::PromotionReady { handler }, head_instrs);
        } else {
            b.block("head", head_instrs);
        }
        let body_instrs = vec![
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
        ];
        if prppt_on == Some("body") {
            b.annotated_block("body", Annotation::PromotionReady { handler }, body_instrs);
        } else {
            b.block("body", body_instrs);
        }
        let then_instrs = vec![
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
        ];
        if prppt_on == Some("then") {
            b.annotated_block(
                "then_b",
                Annotation::PromotionReady { handler },
                then_instrs,
            );
        } else {
            b.block("then_b", then_instrs);
        }
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
        b.block(
            "handler",
            vec![Instr::Jump {
                target: Operand::Label(head),
            }],
        );
        b.entry(head);
        b.build().unwrap()
    }

    const GUARDED_QUANTA: &[u64] = &[1, 2, 3, 5, 7, 11, 13, 15, 16, 17, 31, u64::MAX];

    fn init_guarded(p: &Program, nv: i64) -> impl Fn(&mut TaskState, i64) + '_ {
        move |task, base| {
            for (name, v) in [
                ("j", 0),
                ("n", nv),
                ("ra", 0),
                ("rb", 1),
                ("stride", 4),
                ("dd", 1),
            ] {
                task.regs.write(p.reg(name).unwrap(), Value::Int(v));
            }
            task.regs.write(p.reg("hb").unwrap(), Value::Int(base));
        }
    }

    /// The guarded-update shape compiles to a whole-loop template over the
    /// head micro-op, stays bit-identical under every quantum, and relaxes
    /// the right cells.
    #[test]
    fn guarded_loop_template_installs_and_matches() {
        let p = guarded_program(None);
        let t = ThreadedProgram::compile(&p);
        assert_eq!(t.0.uops[0], UOp::GuardedLoop { t: 0 });
        assert_eq!(t.0.watch_uops[0], UOp::GuardedLoop { t: 0 });
        assert_eq!(
            t.templates(),
            TemplateCounts {
                reduce: 0,
                guarded: 1,
                watched: 1
            }
        );
        assert_only_head_differs(&p, &t);
        // Row a = [9,7,5,3], row b = [1,2,4,6]; cand = 1 + a[j] beats b[j]
        // only at j = 3 (4 < 6), so exactly one store lands.
        let data: Vec<i64> = vec![9, 7, 5, 3, 1, 2, 4, 6];
        three_way(&p, &data, init_guarded(&p, 4), GUARDED_QUANTA, false);
        let mut stores = Stores::new();
        let base = stores.heap.alloc_init(&data);
        let mut task = TaskState::new(&p, p.entry());
        init_guarded(&p, 4)(&mut task, base);
        let (steps, pause) = t
            .run_until(&mut task, &mut stores, u64::MAX, false)
            .unwrap();
        assert_eq!(pause, RunPause::Boundary);
        // Three fall-through iterations (15 steps), one taken (17), and the
        // 3-step exit check.
        assert_eq!(steps, 3 * 15 + 17 + 3);
        assert_eq!(
            crate::machine::heap::Heap::load_in(stores.heap.words_mut(), base, 7).unwrap(),
            4
        );
    }

    /// A heap fault mid-template (the guarded loop walking past the
    /// allocation) reports the same error at the same partially-advanced
    /// position as the reference, under every quantum.
    #[test]
    fn guarded_loop_fault_positions_match() {
        let p = guarded_program(None);
        // n = 9 walks row b (offsets 4..13) past the 8-word allocation.
        let data: Vec<i64> = vec![9, 7, 5, 3, 1, 2, 4, 6];
        three_way(&p, &data, init_guarded(&p, 9), GUARDED_QUANTA, false);
    }

    /// Promotion watch over a guarded loop: a `prppt` annotation on the
    /// head pauses there; on the body or then block, the watch stream keeps
    /// the plain loop head so the pause is observed at the right block
    /// entry. All must match the reference exactly.
    #[test]
    fn guarded_loop_promotion_watch_matches() {
        for site in ["head", "body", "then"] {
            let p = guarded_program(Some(site));
            let t = ThreadedProgram::compile(&p);
            assert_eq!(
                t.0.uops[0],
                UOp::GuardedLoop { t: 0 },
                "template still installs with prppt on {site}"
            );
            assert_eq!(t.templates().watched, 0);
            if site == "head" {
                assert_eq!(t.0.watch_uops[0], UOp::PrpptPause);
            } else {
                assert!(matches!(t.0.watch_uops[0], UOp::CmpBranchBranch { .. }));
            }
            let data: Vec<i64> = vec![9, 7, 5, 3, 1, 2, 4, 6];
            three_way(&p, &data, init_guarded(&p, 4), GUARDED_QUANTA, true);
        }
    }
}
