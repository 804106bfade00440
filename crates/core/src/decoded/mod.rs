//! Pre-decoded micro-op streams: a decode-once, execute-many
//! representation of a validated [`Program`].
//!
//! The [`Instr`] interpreter in `machine::step` re-matches the
//! nested instruction enum, re-resolves every [`crate::isa::Operand`],
//! and re-fetches the current block's instruction slice on every step.
//! [`DecodedProgram::decode`] pays those costs once, flattening the
//! program into one contiguous array of micro-ops (`UOp`s) with:
//!
//! * **pre-resolved operands** — register indices and inlined immediate
//!   [`Value`]s, so execution never matches on `Operand`;
//! * **absolute jump targets** — static `jump`/`if-jump` labels become
//!   indices into the micro-op array, so taken branches are a single
//!   assignment (indirect jumps through registers still resolve via a
//!   label → entry side table);
//! * **hoisted per-block metadata** — promotion-ready entry flags,
//!   handler targets, and unit cost weights live in side tables indexed
//!   by program counter or block, off the hot path;
//! * **superinstruction fusion** — the hot shapes the lowering pass
//!   emits collapse into single micro-ops: compare + `if-jump`
//!   (`CmpBranch`), the whole 3-instruction loop-head block
//!   (`CmpBranchBranch`), the add/sub-immediate + compare + branch
//!   back-edge triple (`StepCmpBranch`), and op + `jump` loop tails
//!   (`OpJump`); and runs of two or more consecutive moves
//!   (`MovRun`), stores through one base (`StoreRun`) or loads
//!   through one base (`LoadRun`), whose operands live in a side table.
//!
//! [`DecodedProgram::run_until`] then executes micro-ops with the exact
//! observable semantics of [`crate::machine::run_task_until`]: same
//! pause priority (quantum, then promotion watch, then boundary), same
//! step counting (a fused micro-op counts one step per constituent
//! instruction, and a quantum may split it mid-way), same faults with
//! the same partially-advanced task position, and same batched cycle /
//! work / span / cost accounting. The `Instr` interpreter remains the
//! reference semantics; the differential suites in `tpal-sim` and the
//! `decoded_prop` property test hold the two bit-identical.
//!
//! On top of the decoded stream, `decoded::templates` installs two loop-level
//! superinstructions — whole reduce and guarded-update loops run from one
//! dispatch — which is what [`crate::ThreadedProgram::compile`] adds to
//! [`DecodedProgram::decode`]. `decode` itself never emits them: its
//! template-free stream is the oracle the templates are differenced
//! against.
//!
//! Decoding happens strictly *after* validation and is invisible to the
//! assembler: `asm` prints from [`Instr`], so a parse → print round
//! trip never observes fusion.

use crate::isa::{BinOp, Instr, Label, Operand, Reg};
use crate::machine::heap::Heap;
use crate::machine::stack::StackRef;
use crate::machine::step::{eval_binop, exec_plain, int_binop, RunPause, Stores, TaskState};
use crate::machine::{MachineError, Value};
use crate::program::Program;

mod templates;

use templates::{GuardedLoop, ReduceLoop};

/// Funnels a fault off the hot dispatch path: the optimizer moves every
/// `return Err(cold_fault(..))` out of line, keeping the fall-through
/// dispatch code dense (faults are exceptional by construction — a
/// faulting program terminates).
#[cold]
#[inline(never)]
fn cold_fault(e: MachineError) -> MachineError {
    e
}

/// Reads a register from the borrowed register slice (the dispatch loop
/// borrows the file once, keeping its pointer and length in machine
/// registers across stack and heap stores).
#[inline(always)]
fn rread(regs: &[Value], r: Reg) -> Result<Value, MachineError> {
    match regs[r.index()] {
        Value::Uninit => Err(MachineError::UninitRegister { reg: r }),
        v => Ok(v),
    }
}

/// Reads a stack pointer from the borrowed register slice.
#[inline(always)]
fn rstack(regs: &[Value], r: Reg) -> Result<StackRef, MachineError> {
    rread(regs, r)?.as_stack()
}

/// Sentinel in the `pc_of` table: this source instruction is in the
/// interior of a fused micro-op (not a dispatch point).
const MID: u32 = u32::MAX;

/// An operand with its immediate pre-resolved (kept as the raw payload
/// rather than a [`Value`] so the enum stays 16 bytes; the `Value` is
/// rebuilt for free in a register at evaluation time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    /// Read a register at runtime.
    Reg(Reg),
    /// An inlined integer immediate.
    Int(i64),
    /// An inlined label literal.
    Label(Label),
}

impl Src {
    /// The operand's value with no initialisation check: an unwritten
    /// register reads as [`Value::Uninit`], which the caller faults on.
    #[inline(always)]
    fn peek(self, regs: &[Value]) -> Value {
        match self {
            Src::Reg(r) => regs[r.index()],
            Src::Int(n) => Value::Int(n),
            Src::Label(l) => Value::Label(l),
        }
    }

    #[inline(always)]
    fn eval(self, regs: &[Value]) -> Result<Value, MachineError> {
        match self {
            Src::Reg(r) => rread(regs, r),
            Src::Int(n) => Ok(Value::Int(n)),
            Src::Label(l) => Ok(Value::Label(l)),
        }
    }

    fn of(op: Operand) -> Src {
        match op {
            Operand::Reg(r) => Src::Reg(r),
            Operand::Label(l) => Src::Label(l),
            Operand::Int(n) => Src::Int(n),
        }
    }
}

/// An integer-typed operand (heap offsets and stored words), with the
/// type error for a label literal pre-computed at decode time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IntSrc {
    /// Read a register, then require an integer.
    Reg(Reg),
    /// An inlined integer immediate.
    Imm(i64),
    /// A non-integer literal: faults with this kind when executed.
    Bad(&'static str),
}

impl IntSrc {
    #[inline(always)]
    fn eval(self, regs: &[Value]) -> Result<i64, MachineError> {
        match self {
            IntSrc::Reg(r) => rread(regs, r)?.as_int(),
            IntSrc::Imm(n) => Ok(n),
            IntSrc::Bad(got) => Err(MachineError::TypeError {
                expected: "int",
                got,
            }),
        }
    }

    fn of(op: Operand) -> IntSrc {
        match op {
            Operand::Reg(r) => IntSrc::Reg(r),
            Operand::Int(n) => IntSrc::Imm(n),
            Operand::Label(_) => IntSrc::Bad("label"),
        }
    }
}

/// `lhs op rhs` when the operands are not two integers: stack-pointer
/// arithmetic, equality on other kinds, and every fault, raised in the
/// reference's order (left read, right read, operator). Out of line so
/// the ALU arms keep only their integer path.
#[inline(never)]
fn binop_slow(regs: &[Value], op: BinOp, lhs: Reg, rhs: Src) -> Result<Value, MachineError> {
    eval_binop(op, rread(regs, lhs)?, rhs.eval(regs)?)
}

/// A micro-op: a pre-resolved plain instruction, a fused run of them, or
/// a boundary marker.
///
/// `taken` / `target` / `fallthrough` fields are absolute indices into
/// the micro-op array. Micro-ops are laid out block-major in source
/// order, so "fall through" is always `pc + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UOp {
    /// `r := v`.
    Mov { dst: Reg, src: Src },
    /// `r := r' op v`.
    Op {
        dst: Reg,
        op: BinOp,
        lhs: Reg,
        rhs: Src,
    },
    /// `r := r' + v` — the hottest ops get their own variants so the
    /// operator is dispatched by the micro-op tag (one indirect branch)
    /// instead of a second `BinOp` match inside the arm. Non-int
    /// operands (stack-pointer arithmetic) fall back to
    /// [`eval_binop`], so semantics are unchanged.
    OpAdd { dst: Reg, lhs: Reg, rhs: Src },
    /// `r := r' - v` (specialised; see [`UOp::OpAdd`]).
    OpSub { dst: Reg, lhs: Reg, rhs: Src },
    /// `r := r' * v` (specialised; see [`UOp::OpAdd`]).
    OpMul { dst: Reg, lhs: Reg, rhs: Src },
    /// `r := r' < v` (specialised; see [`UOp::OpAdd`]).
    OpLt { dst: Reg, lhs: Reg, rhs: Src },
    /// `r := r' <= v` (specialised; see [`UOp::OpAdd`]).
    OpLe { dst: Reg, lhs: Reg, rhs: Src },
    /// `jump l` with a static label.
    Jump { target: u32 },
    /// `jump r` through a register.
    JumpReg { reg: Reg },
    /// `jump v` on a non-label literal: always faults.
    JumpBad { got: &'static str },
    /// `if-jump r, l` with a static label.
    IfJump { cond: Reg, target: u32 },
    /// `if-jump r, r'` through a register.
    IfJumpReg { cond: Reg, reg: Reg },
    /// `if-jump r, v` on a non-label literal: faults only when taken.
    IfJumpBad { cond: Reg, got: &'static str },
    /// `salloc r, n`.
    SAlloc { sp: Reg, n: u32 },
    /// `sfree r, n`.
    SFree { sp: Reg, n: u32 },
    /// `r := mem[base + n]`.
    Load { dst: Reg, base: Reg, offset: u32 },
    /// `mem[base + n] := v`.
    Store { base: Reg, offset: u32, src: Src },
    /// `prmpush mem[base + n]`.
    PrmPush { base: Reg, offset: u32 },
    /// `prmpop mem[base + n]`.
    PrmPop { base: Reg, offset: u32 },
    /// `r := prmempty r'`.
    PrmEmpty { dst: Reg, sp: Reg },
    /// `prmsplit r, r'`.
    PrmSplit { sp: Reg, dst: Reg },
    /// `r := heap[base + offset]`.
    HLoad { dst: Reg, base: Reg, offset: IntSrc },
    /// `heap[base + offset] := v`.
    HStore {
        base: Reg,
        offset: IntSrc,
        src: IntSrc,
    },
    /// `len` ≥ 2 consecutive `r := v`, constituents
    /// `runs[start..start + len]` (`len` steps). Every constituent is a
    /// move, so the arm is one straight loop with no inner dispatch.
    MovRun { start: u32, len: u32 },
    /// `len` ≥ 2 consecutive `mem[base + n] := v` through one base,
    /// likewise. Stores write no register, so the base is read once.
    StoreRun { base: Reg, start: u32, len: u32 },
    /// `len` ≥ 2 consecutive `r := mem[base + n]` through one base that
    /// none of them writes, likewise; the base is read once.
    LoadRun { base: Reg, start: u32, len: u32 },
    /// Fused `r := r' op v; if-jump r, l` (2 steps). Taken goes to
    /// `taken`; not-taken falls through to `pc + 1`.
    CmpBranch {
        dst: Reg,
        op: BinOp,
        lhs: Reg,
        rhs: Src,
        taken: u32,
    },
    /// Fused whole loop-head block
    /// `r := r' op v; if-jump r, l1; jump l2` (2 steps when the branch
    /// is taken, 3 when control exits through the jump).
    CmpBranchBranch {
        dst: Reg,
        op: BinOp,
        lhs: Reg,
        rhs: Src,
        taken: u32,
        fallthrough: u32,
    },
    /// Fused loop tail `r := r' op v; jump l` (2 steps).
    OpJump {
        dst: Reg,
        op: BinOp,
        lhs: Reg,
        rhs: Src,
        target: u32,
    },
    /// A `prppt` block entry in the watch-mode stream: pauses with
    /// [`RunPause::PromotionReady`] before executing anything. The plain
    /// stream keeps the real micro-op at this index, so non-watch runs
    /// pay nothing for the promotion watch.
    PrpptPause,
    /// Fused back-edge triple
    /// `i := i ± imm; r := r' op v; if-jump r, l` (3 steps).
    StepCmpBranch {
        step_dst: Reg,
        step_op: BinOp,
        step_lhs: Reg,
        step_imm: i64,
        dst: Reg,
        op: BinOp,
        lhs: Reg,
        rhs: Src,
        taken: u32,
    },
    /// A whole reduce loop installed over its loop-head
    /// [`UOp::CmpBranchBranch`] (see [`templates`]): commits whole
    /// iterations, then executes the head compare. Carries only the
    /// index of its roster in [`DecodedProgram::reduce`], so the
    /// micro-op stride does not grow.
    ReduceLoop { t: u32 },
    /// A whole guarded-update loop, likewise; roster in
    /// [`DecodedProgram::guarded`].
    GuardedLoop { t: u32 },
    /// `halt`, `fork`, `join`, `jralloc`, `snew`, or `halloc`: a
    /// scheduling or allocation boundary, never executed here — the
    /// caller runs it with [`crate::machine::step_task`].
    Boundary,
}

// The fetch side of dispatch is one indexed load of this stride; the
// template and run variants exist as table indices so it stays there.
const _: () = assert!(std::mem::size_of::<UOp>() <= 56);
// A register value fits in two machine registers, so a read, an ALU
// result or a register write never goes through a stack temporary.
const _: () = assert!(std::mem::size_of::<Value>() == 16);

/// The source provenance of one micro-op: the block and the contiguous
/// instruction range `[instr, instr + len)` it covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UopSource {
    /// Block label index.
    pub block: u32,
    /// First covered instruction index within the block.
    pub instr: u32,
    /// Number of source instructions covered (1 unless fused).
    pub len: u32,
}

/// A [`Program`] compiled to a flat micro-op array plus side tables.
///
/// Owns no reference to the source program: decode once, share across
/// cores and tasks. Construction is deterministic — the same program
/// always decodes to the same micro-ops in the same order.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    /// The micro-op stream, block-major in label order.
    pub(crate) uops: Vec<UOp>,
    /// The watch-mode stream: identical to `uops` except every `prppt`
    /// block entry is a [`UOp::PrpptPause`], so watch-mode dispatch
    /// needs no per-op flag check.
    pub(crate) watch_uops: Vec<UOp>,
    /// Provenance of each micro-op (parallel to `uops`).
    pub(crate) src: Vec<UopSource>,
    /// `prppt` entry flag per micro-op: true iff this micro-op starts a
    /// promotion-ready block (parallel to `uops`; decode-time input to
    /// `watch_uops`, kept for introspection and tests).
    prppt_entry: Vec<bool>,
    /// Every instruction of the program, block-major (the stepwise
    /// fallback executes from here when a quantum splits a fused op).
    flat: Vec<Instr>,
    /// Per block (label index): base of its instructions in `flat`.
    instr_base: Vec<u32>,
    /// Per block: micro-op index of its entry.
    block_entry: Vec<u32>,
    /// Per flat instruction index: the micro-op starting there, or
    /// [`MID`] if it is interior to a fused micro-op.
    pub(crate) pc_of: Vec<u32>,
    /// Per block: the `prppt` handler label, if any (hoisted from
    /// [`crate::isa::Annotation`]).
    pub(crate) handlers: Vec<Option<Label>>,
    /// Per block: unit cost weight (its instruction count — every
    /// instruction weighs 1 in the cost semantics).
    weights: Vec<u32>,
    /// Rosters of the installed [`UOp::ReduceLoop`] templates (empty as
    /// decoded).
    pub(crate) reduce: Vec<ReduceLoop>,
    /// Rosters of the installed [`UOp::GuardedLoop`] templates (empty as
    /// decoded).
    pub(crate) guarded: Vec<GuardedLoop>,
    /// Constituents of the run micro-ops, in stream order: a run names
    /// its slice `[start, start + len)`.
    runs: Vec<RunPart>,
}

/// One constituent of a run micro-op: a move `reg := src`, a store
/// `mem[base + offset] := src` (`reg` is the base), or a load
/// `reg := mem[base + offset]` (`src` is the base).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RunPart {
    reg: Reg,
    offset: u32,
    src: Src,
}

impl RunPart {
    fn of(instr: Instr) -> RunPart {
        match instr {
            Instr::Move { dst, src } => RunPart {
                reg: dst,
                offset: 0,
                src: Src::of(src),
            },
            Instr::Store { addr, src } => RunPart {
                reg: addr.base,
                offset: addr.offset,
                src: Src::of(src),
            },
            Instr::Load { dst, addr } => RunPart {
                reg: dst,
                offset: addr.offset,
                src: Src::Reg(addr.base),
            },
            other => unreachable!("{other:?} in a run"),
        }
    }
}

/// Whether a fused segment starting with `first` is a run micro-op (every
/// branch shape starts with an `Op`).
fn is_run(first: &Instr) -> bool {
    matches!(
        first,
        Instr::Move { .. } | Instr::Store { .. } | Instr::Load { .. }
    )
}

/// Length of the fused run starting at `i` in a block's instruction
/// slice (1 when nothing fuses). Fusion requires static label targets
/// and, for branches, a condition register equal to the preceding op's
/// destination; runs never cross a boundary instruction.
///
/// Branch shapes fuse, and so do runs of one kind of plain instruction
/// (moves; stores through one base; loads through one base none of them
/// writes). Pairing *mixed* adjacent control-free instructions was tried
/// and measured slower on every workload: the generic pair needs an
/// inner constituent dispatch that costs as much as the outer dispatch
/// it saves, and carrying two instructions inline bloats the micro-op
/// stride (112 bytes vs 56) enough to hurt the fetch path. A run has
/// neither cost: its arm is one loop over a side table.
fn fusion_len(instrs: &[Instr], i: usize) -> usize {
    // The run of instructions from `i` that `same` admits (a load that
    // writes its own base is a run of one).
    let run =
        |same: &dyn Fn(&Instr) -> bool| instrs[i..].iter().take_while(|x| same(x)).count().max(1);
    let (dst, op, rhs) = match instrs[i] {
        Instr::Move { .. } => return run(&|x| matches!(x, Instr::Move { .. })),
        Instr::Store { addr: a, .. } => {
            return run(&|x| matches!(x, Instr::Store { addr, .. } if addr.base == a.base))
        }
        Instr::Load { addr: a, .. } => {
            return run(
                &|x| matches!(x, Instr::Load { dst, addr } if addr.base == a.base && *dst != a.base),
            )
        }
        Instr::Op { dst, op, rhs, .. } => (dst, op, rhs),
        _ => return 1,
    };
    // Back-edge triple: add/sub-immediate, then compare, then branch.
    if matches!(op, BinOp::Add | BinOp::Sub) && matches!(rhs, Operand::Int(_)) {
        if let (
            Some(Instr::Op { dst: d2, .. }),
            Some(Instr::IfJump {
                cond,
                target: Operand::Label(_),
            }),
        ) = (instrs.get(i + 1), instrs.get(i + 2))
        {
            if cond == d2 {
                return 3;
            }
        }
    }
    match (instrs.get(i + 1), instrs.get(i + 2)) {
        (
            Some(Instr::IfJump {
                cond,
                target: Operand::Label(_),
            }),
            Some(Instr::Jump {
                target: Operand::Label(_),
            }),
        ) if *cond == dst => 3,
        (
            Some(Instr::IfJump {
                cond,
                target: Operand::Label(_),
            }),
            _,
        ) if *cond == dst => 2,
        (
            Some(Instr::Jump {
                target: Operand::Label(_),
            }),
            _,
        ) => 2,
        _ => 1,
    }
}

impl DecodedProgram {
    /// Compiles a validated program into its micro-op form.
    pub fn decode(program: &Program) -> DecodedProgram {
        let nblocks = program.block_count();

        // Pass 1: segment every block into fused runs so entry indices
        // of *later* blocks are known before targets are resolved.
        let mut segments: Vec<(u32, u32, u32)> = Vec::new(); // (block, instr, len)
        let mut block_entry = Vec::with_capacity(nblocks);
        let mut instr_base = Vec::with_capacity(nblocks);
        let mut flat = Vec::with_capacity(program.instr_count());
        let mut run_parts = 0;
        for (label, block) in program.iter() {
            block_entry.push(segments.len() as u32);
            instr_base.push(flat.len() as u32);
            flat.extend_from_slice(&block.instrs);
            let mut i = 0;
            while i < block.instrs.len() {
                let len = fusion_len(&block.instrs, i);
                if len > 1 && is_run(&block.instrs[i]) {
                    run_parts += len;
                }
                segments.push((label.index() as u32, i as u32, len as u32));
                i += len;
            }
        }

        // Pass 2: emit micro-ops with absolute targets.
        let entry_of = |l: Label| block_entry[l.index()];
        let mut uops = Vec::with_capacity(segments.len());
        let mut src = Vec::with_capacity(segments.len());
        let mut prppt_entry = Vec::with_capacity(segments.len());
        let mut pc_of = vec![MID; flat.len()];
        // Sized in pass 1, so the table is allocated once.
        let mut runs = Vec::with_capacity(run_parts);
        let handlers: Vec<Option<Label>> = program
            .blocks()
            .iter()
            .map(|b| b.annotation.handler())
            .collect();
        let weights: Vec<u32> = program
            .blocks()
            .iter()
            .map(|b| b.instrs.len() as u32)
            .collect();

        for &(block, instr, len) in &segments {
            let pc = uops.len() as u32;
            pc_of[(instr_base[block as usize] + instr) as usize] = pc;
            let instrs = &program.blocks()[block as usize].instrs;
            let i = instr as usize;
            let uop = match len {
                1 => Self::decode_single(instrs[i], entry_of),
                _ if is_run(&instrs[i]) => {
                    let start = runs.len() as u32;
                    runs.extend(instrs[i..i + len as usize].iter().map(|&x| RunPart::of(x)));
                    match instrs[i] {
                        Instr::Move { .. } => UOp::MovRun { start, len },
                        Instr::Store { addr, .. } => UOp::StoreRun {
                            base: addr.base,
                            start,
                            len,
                        },
                        Instr::Load { addr, .. } => UOp::LoadRun {
                            base: addr.base,
                            start,
                            len,
                        },
                        other => unreachable!("no run starts at {other:?}"),
                    }
                }
                2 => match (instrs[i], instrs[i + 1]) {
                    (
                        Instr::Op { dst, op, lhs, rhs },
                        Instr::IfJump {
                            target: Operand::Label(l),
                            ..
                        },
                    ) => UOp::CmpBranch {
                        dst,
                        op,
                        lhs,
                        rhs: Src::of(rhs),
                        taken: entry_of(l),
                    },
                    (
                        Instr::Op { dst, op, lhs, rhs },
                        Instr::Jump {
                            target: Operand::Label(l),
                        },
                    ) => UOp::OpJump {
                        dst,
                        op,
                        lhs,
                        rhs: Src::of(rhs),
                        target: entry_of(l),
                    },
                    other => unreachable!("unfusable pair {other:?}"),
                },
                3 => match (instrs[i], instrs[i + 1], instrs[i + 2]) {
                    (
                        Instr::Op {
                            dst: step_dst,
                            op: step_op,
                            lhs: step_lhs,
                            rhs: Operand::Int(step_imm),
                        },
                        Instr::Op { dst, op, lhs, rhs },
                        Instr::IfJump {
                            target: Operand::Label(l),
                            ..
                        },
                    ) => UOp::StepCmpBranch {
                        step_dst,
                        step_op,
                        step_lhs,
                        step_imm,
                        dst,
                        op,
                        lhs,
                        rhs: Src::of(rhs),
                        taken: entry_of(l),
                    },
                    (
                        Instr::Op { dst, op, lhs, rhs },
                        Instr::IfJump {
                            target: Operand::Label(t),
                            ..
                        },
                        Instr::Jump {
                            target: Operand::Label(f),
                        },
                    ) => UOp::CmpBranchBranch {
                        dst,
                        op,
                        lhs,
                        rhs: Src::of(rhs),
                        taken: entry_of(t),
                        fallthrough: entry_of(f),
                    },
                    other => unreachable!("unfusable triple {other:?}"),
                },
                n => unreachable!("fusion length {n}"),
            };
            uops.push(uop);
            src.push(UopSource { block, instr, len });
            prppt_entry.push(instr == 0 && handlers[block as usize].is_some());
        }

        let mut watch_uops = uops.clone();
        for (pc, &entry) in prppt_entry.iter().enumerate() {
            if entry {
                watch_uops[pc] = UOp::PrpptPause;
            }
        }

        DecodedProgram {
            uops,
            watch_uops,
            src,
            prppt_entry,
            flat,
            instr_base,
            block_entry,
            pc_of,
            handlers,
            weights,
            reduce: Vec::new(),
            guarded: Vec::new(),
            runs,
        }
    }

    fn decode_single(instr: Instr, entry_of: impl Fn(Label) -> u32) -> UOp {
        match instr {
            Instr::Move { dst, src } => UOp::Mov {
                dst,
                src: Src::of(src),
            },
            Instr::Op { dst, op, lhs, rhs } => {
                let rhs = Src::of(rhs);
                match op {
                    BinOp::Add => UOp::OpAdd { dst, lhs, rhs },
                    BinOp::Sub => UOp::OpSub { dst, lhs, rhs },
                    BinOp::Mul => UOp::OpMul { dst, lhs, rhs },
                    BinOp::Lt => UOp::OpLt { dst, lhs, rhs },
                    BinOp::Le => UOp::OpLe { dst, lhs, rhs },
                    _ => UOp::Op { dst, op, lhs, rhs },
                }
            }
            Instr::Jump { target } => match target {
                Operand::Label(l) => UOp::Jump {
                    target: entry_of(l),
                },
                Operand::Reg(r) => UOp::JumpReg { reg: r },
                Operand::Int(_) => UOp::JumpBad { got: "int" },
            },
            Instr::IfJump { cond, target } => match target {
                Operand::Label(l) => UOp::IfJump {
                    cond,
                    target: entry_of(l),
                },
                Operand::Reg(r) => UOp::IfJumpReg { cond, reg: r },
                Operand::Int(_) => UOp::IfJumpBad { cond, got: "int" },
            },
            Instr::SAlloc { sp, n } => UOp::SAlloc { sp, n },
            Instr::SFree { sp, n } => UOp::SFree { sp, n },
            Instr::Load { dst, addr } => UOp::Load {
                dst,
                base: addr.base,
                offset: addr.offset,
            },
            Instr::Store { addr, src } => UOp::Store {
                base: addr.base,
                offset: addr.offset,
                src: Src::of(src),
            },
            Instr::PrmPush { addr } => UOp::PrmPush {
                base: addr.base,
                offset: addr.offset,
            },
            Instr::PrmPop { addr } => UOp::PrmPop {
                base: addr.base,
                offset: addr.offset,
            },
            Instr::PrmEmpty { dst, sp } => UOp::PrmEmpty { dst, sp },
            Instr::PrmSplit { sp, dst } => UOp::PrmSplit { sp, dst },
            Instr::HLoad { dst, base, offset } => UOp::HLoad {
                dst,
                base,
                offset: IntSrc::of(offset),
            },
            Instr::HStore { base, offset, src } => UOp::HStore {
                base,
                offset: IntSrc::of(offset),
                src: IntSrc::of(src),
            },
            Instr::Halt
            | Instr::Fork { .. }
            | Instr::Join { .. }
            | Instr::JrAlloc { .. }
            | Instr::SNew { .. }
            | Instr::HAlloc { .. }
            | Instr::ChMake { .. }
            | Instr::ChPush { .. }
            | Instr::ChPop { .. }
            | Instr::ChClose { .. }
            | Instr::Detach { .. } => UOp::Boundary,
        }
    }

    /// Number of micro-ops.
    pub fn uop_count(&self) -> usize {
        self.uops.len()
    }

    /// Source provenance of micro-op `pc`: the block and instruction
    /// range it covers. Timeline spans and cost attribution stay exact
    /// because every micro-op maps back to a contiguous source range and
    /// counts one step per covered instruction.
    pub fn source(&self, pc: usize) -> UopSource {
        self.src[pc]
    }

    /// Whether micro-op `pc` is the entry of a promotion-ready block
    /// (the positions the watch-mode stream pauses at).
    pub fn is_prppt_entry(&self, pc: usize) -> bool {
        self.prppt_entry[pc]
    }

    /// The hoisted `prppt` handler of a block, if any.
    pub fn handler(&self, block: Label) -> Option<Label> {
        self.handlers[block.index()]
    }

    /// The unit cost weight of a block (its instruction count).
    pub fn block_weight(&self, block: Label) -> u32 {
        self.weights[block.index()]
    }

    /// Writes `task.block`/`task.instr` to the entry of micro-op `pc`.
    #[inline]
    fn sync(&self, task: &mut TaskState, pc: usize) {
        let s = self.src[pc];
        task.block = Label::from_index(s.block as usize);
        task.instr = s.instr as usize;
    }

    /// The flat instruction index of the task's current position.
    #[inline]
    fn flat_index(&self, task: &TaskState) -> usize {
        self.instr_base[task.block.index()] as usize + task.instr
    }

    /// Executes a run of consecutive plain instructions of `task` from
    /// the micro-op stream, stopping early at scheduling-relevant
    /// points.
    ///
    /// Observably identical to [`crate::machine::run_task_until`] on the
    /// source program — same `(steps, pause)` results, same priority
    /// order (quantum, then promotion watch, then boundary), same faults
    /// at the same task positions, and the same batched counter updates.
    /// A quantum that lands inside a fused micro-op is honoured exactly:
    /// the remaining budget is executed one source instruction at a
    /// time, and a later resume realigns on the next micro-op boundary
    /// the same way.
    ///
    /// # Errors
    ///
    /// Any [`MachineError`] raised by a transition rule; counters
    /// include the faulting instruction, matching the reference.
    pub fn run_until(
        &self,
        task: &mut TaskState,
        stores: &mut Stores,
        max_steps: u64,
        watch_promotion: bool,
    ) -> Result<(u64, RunPause), MachineError> {
        let mut steps = 0u64;
        let result = if watch_promotion {
            self.run_loop::<true>(task, stores, max_steps, &mut steps)
        } else {
            self.run_loop::<false>(task, stores, max_steps, &mut steps)
        };
        task.cycles += steps;
        task.rel_work += steps;
        task.rel_span += steps;
        if let Some(c) = &mut task.cost {
            c.steps += steps;
        }
        result.map(|pause| (steps, pause))
    }

    fn run_loop<const WATCH: bool>(
        &self,
        task: &mut TaskState,
        stores: &mut Stores,
        max_steps: u64,
        steps: &mut u64,
    ) -> Result<RunPause, MachineError> {
        // Watch mode runs the alternate stream whose prppt entries are
        // `PrpptPause` micro-ops; everything else is identical, so the
        // hot loop itself is watch-agnostic.
        let uops = if WATCH {
            self.watch_uops.as_slice()
        } else {
            self.uops.as_slice()
        };
        loop {
            // Stepwise phase: the task position is authoritative. Runs
            // one source instruction at a time while the position is
            // interior to a fused micro-op (a resume after a mid-fusion
            // quantum split) and hands off to the dispatch loop at the
            // first micro-op boundary.
            let mut pc: usize = loop {
                if *steps >= max_steps {
                    return Ok(RunPause::Quantum);
                }
                let gi = self.flat_index(task);
                let p = self.pc_of[gi];
                if p != MID {
                    break p as usize;
                }
                // Interior positions are never block entries, so no
                // promotion check applies here.
                match exec_plain(task, stores, &self.flat[gi]) {
                    Ok(true) => *steps += 1,
                    Ok(false) => return Ok(RunPause::Boundary),
                    Err(e) => {
                        *steps += 1;
                        return Err(cold_fault(e));
                    }
                }
            };

            // Dispatch phase: `pc` is authoritative; the task position
            // is synced only on exit or fault. The budget counts *down*
            // in `remaining` so the hot loop carries a single live
            // counter; the logical step count is reconstructed as
            // `max_steps - remaining` at every exit. The match below is
            // the whole executor — no per-op calls, no per-op side-table
            // loads (fused lengths are constants in their own arms).
            let mut remaining = max_steps - *steps;
            // Borrow the three working sets once per dispatch run:
            // register file, stacks, and heap words. Keeping them as
            // local slices lets the compiler hold their pointers and
            // lengths in machine registers across stores (nothing here
            // can reallocate them: `halloc` and `snew` are boundaries,
            // and the register file never resizes).
            let regs = task.regs.slice_mut();
            let stacks = &mut stores.stacks;
            let hwords = stores.heap.words_mut();

            // Fault exit: sync the position exactly as the reference
            // leaves it — advanced past the faulting constituent
            // (faults never follow an intra-op control transfer, so the
            // block is unchanged). `$parts` counts constituents
            // executed, the faulting one included; `remaining` has not
            // been decremented for this micro-op yet.
            macro_rules! fault {
                ($parts:expr, $e:expr) => {{
                    let s = self.src[pc];
                    task.block = Label::from_index(s.block as usize);
                    task.instr = (s.instr + $parts) as usize;
                    *steps = max_steps - remaining + $parts as u64;
                    return Err(cold_fault($e));
                }};
            }
            macro_rules! part {
                ($parts:expr, $e:expr) => {
                    match $e {
                        Ok(v) => v,
                        Err(e) => fault!($parts, e),
                    }
                };
            }
            // A fused micro-op that may not fit in the remaining budget:
            // honour the quantum exactly by falling back to stepwise
            // execution of its constituents. The `break` exits the
            // dispatch loop and lands back on the stepwise phase above,
            // which finishes the budget one source instruction at a
            // time.
            macro_rules! split {
                () => {{
                    *steps = max_steps - remaining;
                    self.sync(task, pc);
                    let gi = self.flat_index(task);
                    match exec_plain(task, stores, &self.flat[gi]) {
                        Ok(true) => *steps += 1,
                        Ok(false) => return Ok(RunPause::Boundary),
                        Err(e) => {
                            *steps += 1;
                            return Err(cold_fault(e));
                        }
                    }
                    break;
                }};
            }
            // `lhs op rhs` as constituent `$parts`, with no `Result` on
            // the way: two integers take the inline integer path, which
            // faults only on a zero divisor; anything else (pointer
            // arithmetic, an unwritten register, a type fault) takes the
            // out-of-line one.
            macro_rules! alu {
                ($parts:expr, $op:expr, $lhs:expr, $rhs:expr) => {
                    match (regs[$lhs.index()], $rhs.peek(regs)) {
                        (Value::Int(a), Value::Int(b)) => match int_binop($op, a, b) {
                            Some(n) => Value::Int(n),
                            None => fault!($parts, MachineError::DivisionByZero),
                        },
                        _ => part!($parts, binop_slow(regs, $op, $lhs, $rhs)),
                    }
                };
            }
            // A plain `dst := lhs op rhs`.
            macro_rules! op {
                ($dst:expr, $op:expr, $lhs:expr, $rhs:expr) => {{
                    regs[$dst.index()] = alu!(1, $op, $lhs, $rhs);
                    remaining -= 1;
                    pc += 1;
                }};
            }
            // An operand's value as constituent `$parts` (faults on an
            // unwritten register).
            macro_rules! read {
                ($parts:expr, $src:expr) => {
                    match $src {
                        Src::Reg(r) => match regs[r.index()] {
                            Value::Uninit => {
                                fault!($parts, MachineError::UninitRegister { reg: r })
                            }
                            v => v,
                        },
                        Src::Int(n) => Value::Int(n),
                        Src::Label(l) => Value::Label(l),
                    }
                };
            }
            // A stack-pointer register as constituent 1; anything else
            // faults through the out-of-line read.
            macro_rules! stack {
                ($r:expr) => {
                    match regs[$r.index()] {
                        Value::Stack(sp) => sp,
                        _ => part!(1, rstack(regs, $r)),
                    }
                };
            }
            // The fused loop-head block (compare + branch + jump): 2
            // steps taken, 3 on the fall-through exit. Shared by the
            // plain arm and the loop templates installed over it.
            macro_rules! loop_head {
                ($dst:expr, $op:expr, $lhs:expr, $rhs:expr, $taken:expr, $fallthrough:expr) => {{
                    if remaining < 3 {
                        split!();
                    }
                    let v = alu!(1, $op, $lhs, $rhs);
                    regs[$dst.index()] = v;
                    if v.is_true() {
                        remaining -= 2;
                        pc = $taken as usize;
                    } else {
                        remaining -= 3;
                        pc = $fallthrough as usize;
                    }
                }};
            }
            macro_rules! template {
                ($roster:expr) => {{
                    let roster = &$roster;
                    remaining -= roster.run(regs, hwords, remaining);
                    if remaining == 0 {
                        continue;
                    }
                    let h = roster.head;
                    loop_head!(h.dst, h.op, h.lhs, Src::Reg(h.rhs), h.taken, h.fallthrough)
                }};
            }
            loop {
                if remaining == 0 {
                    *steps = max_steps;
                    self.sync(task, pc);
                    return Ok(RunPause::Quantum);
                }
                let next = pc + 1;
                match uops[pc] {
                    UOp::Mov { dst, src } => {
                        regs[dst.index()] = read!(1, src);
                        remaining -= 1;
                        pc = next;
                    }
                    UOp::Op { dst, op, lhs, rhs } => op!(dst, op, lhs, rhs),
                    UOp::OpAdd { dst, lhs, rhs } => op!(dst, BinOp::Add, lhs, rhs),
                    UOp::OpSub { dst, lhs, rhs } => op!(dst, BinOp::Sub, lhs, rhs),
                    UOp::OpMul { dst, lhs, rhs } => op!(dst, BinOp::Mul, lhs, rhs),
                    UOp::OpLt { dst, lhs, rhs } => op!(dst, BinOp::Lt, lhs, rhs),
                    UOp::OpLe { dst, lhs, rhs } => op!(dst, BinOp::Le, lhs, rhs),
                    UOp::Jump { target } => {
                        remaining -= 1;
                        pc = target as usize;
                    }
                    UOp::JumpReg { reg } => {
                        let v = read!(1, Src::Reg(reg));
                        match v {
                            Value::Label(l) => {
                                remaining -= 1;
                                pc = self.block_entry[l.index()] as usize;
                            }
                            other => {
                                fault!(1, MachineError::JumpToNonLabel { got: other.kind() })
                            }
                        }
                    }
                    UOp::JumpBad { got } => fault!(1, MachineError::JumpToNonLabel { got }),
                    UOp::IfJump { cond, target } => {
                        let c = read!(1, Src::Reg(cond));
                        remaining -= 1;
                        pc = if c.is_true() { target as usize } else { next };
                    }
                    UOp::IfJumpReg { cond, reg } => {
                        let c = read!(1, Src::Reg(cond));
                        if c.is_true() {
                            let v = read!(1, Src::Reg(reg));
                            match v {
                                Value::Label(l) => {
                                    remaining -= 1;
                                    pc = self.block_entry[l.index()] as usize;
                                }
                                other => {
                                    fault!(1, MachineError::JumpToNonLabel { got: other.kind() })
                                }
                            }
                        } else {
                            remaining -= 1;
                            pc = next;
                        }
                    }
                    UOp::IfJumpBad { cond, got } => {
                        let c = read!(1, Src::Reg(cond));
                        if c.is_true() {
                            fault!(1, MachineError::JumpToNonLabel { got });
                        }
                        remaining -= 1;
                        pc = next;
                    }
                    UOp::SAlloc { sp, n } => {
                        let cur = stack!(sp);
                        let new = part!(1, stacks.salloc(cur, n));
                        regs[sp.index()] = Value::Stack(new);
                        remaining -= 1;
                        pc = next;
                    }
                    UOp::SFree { sp, n } => {
                        let cur = stack!(sp);
                        let new = part!(1, stacks.sfree(cur, n));
                        regs[sp.index()] = Value::Stack(new);
                        remaining -= 1;
                        pc = next;
                    }
                    UOp::Load { dst, base, offset } => {
                        let sp = stack!(base);
                        let v = part!(1, stacks.load(sp, offset));
                        regs[dst.index()] = v;
                        remaining -= 1;
                        pc = next;
                    }
                    UOp::Store { base, offset, src } => {
                        let sp = stack!(base);
                        let v = read!(1, src);
                        part!(1, stacks.store(sp, offset, v));
                        remaining -= 1;
                        pc = next;
                    }
                    // Runs: a quantum that would split one falls back to
                    // stepwise execution, and a fault stops at its exact
                    // constituent (`k + 1` executed).
                    UOp::MovRun { start, len } => {
                        if remaining < len as u64 {
                            split!();
                        }
                        let run = &self.runs[start as usize..][..len as usize];
                        for (k, p) in run.iter().enumerate() {
                            regs[p.reg.index()] = read!(k as u32 + 1, p.src);
                        }
                        remaining -= len as u64;
                        pc = next;
                    }
                    UOp::StoreRun { base, start, len } => {
                        if remaining < len as u64 {
                            split!();
                        }
                        let sp = stack!(base);
                        let run = &self.runs[start as usize..][..len as usize];
                        for (k, p) in run.iter().enumerate() {
                            let v = read!(k as u32 + 1, p.src);
                            part!(k as u32 + 1, stacks.store(sp, p.offset, v));
                        }
                        remaining -= len as u64;
                        pc = next;
                    }
                    UOp::LoadRun { base, start, len } => {
                        if remaining < len as u64 {
                            split!();
                        }
                        let sp = stack!(base);
                        let run = &self.runs[start as usize..][..len as usize];
                        for (k, p) in run.iter().enumerate() {
                            regs[p.reg.index()] = part!(k as u32 + 1, stacks.load(sp, p.offset));
                        }
                        remaining -= len as u64;
                        pc = next;
                    }
                    UOp::PrmPush { base, offset } => {
                        let sp = stack!(base);
                        part!(1, stacks.prmpush(sp, offset));
                        remaining -= 1;
                        pc = next;
                    }
                    UOp::PrmPop { base, offset } => {
                        let sp = stack!(base);
                        part!(1, stacks.prmpop(sp, offset));
                        remaining -= 1;
                        pc = next;
                    }
                    UOp::PrmEmpty { dst, sp } => {
                        let spv = stack!(sp);
                        let v = part!(1, stacks.prmempty(spv));
                        regs[dst.index()] = v;
                        remaining -= 1;
                        pc = next;
                    }
                    UOp::PrmSplit { sp, dst } => {
                        let spv = stack!(sp);
                        let off = part!(1, stacks.prmsplit(spv));
                        regs[dst.index()] = Value::Int(off);
                        remaining -= 1;
                        pc = next;
                    }
                    UOp::HLoad { dst, base, offset } => {
                        let b = part!(1, rread(regs, base).and_then(Value::as_int));
                        let off = part!(1, offset.eval(regs));
                        let v = part!(1, Heap::load_in(hwords, b, off));
                        regs[dst.index()] = Value::Int(v);
                        remaining -= 1;
                        pc = next;
                    }
                    UOp::HStore { base, offset, src } => {
                        let b = part!(1, rread(regs, base).and_then(Value::as_int));
                        let off = part!(1, offset.eval(regs));
                        let v = part!(1, src.eval(regs));
                        part!(1, Heap::store_in(hwords, b, off, v));
                        remaining -= 1;
                        pc = next;
                    }
                    UOp::CmpBranch {
                        dst,
                        op,
                        lhs,
                        rhs,
                        taken,
                    } => {
                        if remaining < 2 {
                            split!();
                        }
                        let v = alu!(1, op, lhs, rhs);
                        regs[dst.index()] = v;
                        remaining -= 2;
                        pc = if v.is_true() { taken as usize } else { next };
                    }
                    UOp::CmpBranchBranch {
                        dst,
                        op,
                        lhs,
                        rhs,
                        taken,
                        fallthrough,
                    } => loop_head!(dst, op, lhs, rhs, taken, fallthrough),
                    // Loop templates: commit the whole iterations the
                    // budget covers out of line, then run the head as the
                    // plain `CmpBranchBranch` it replaced — which exits
                    // the loop, or enters an iteration the template would
                    // not commit (quantum, heap edge, non-int operand)
                    // through ordinary dispatch. A budget spent exactly
                    // pauses at the head via the check above.
                    UOp::ReduceLoop { t } => template!(self.reduce[t as usize]),
                    UOp::GuardedLoop { t } => template!(self.guarded[t as usize]),
                    UOp::OpJump {
                        dst,
                        op,
                        lhs,
                        rhs,
                        target,
                    } => {
                        if remaining < 2 {
                            split!();
                        }
                        regs[dst.index()] = alu!(1, op, lhs, rhs);
                        remaining -= 2;
                        pc = target as usize;
                    }
                    UOp::PrpptPause => {
                        // Only present in the watch stream; quantum
                        // priority is preserved by the `remaining == 0`
                        // check above.
                        *steps = max_steps - remaining;
                        self.sync(task, pc);
                        return Ok(RunPause::PromotionReady);
                    }
                    UOp::StepCmpBranch {
                        step_dst,
                        step_op,
                        step_lhs,
                        step_imm,
                        dst,
                        op,
                        lhs,
                        rhs,
                        taken,
                    } => {
                        if remaining < 3 {
                            split!();
                        }
                        regs[step_dst.index()] = alu!(1, step_op, step_lhs, Src::Int(step_imm));
                        let v = alu!(2, op, lhs, rhs);
                        regs[dst.index()] = v;
                        remaining -= 3;
                        pc = if v.is_true() { taken as usize } else { next };
                    }
                    UOp::Boundary => {
                        *steps = max_steps - remaining;
                        self.sync(task, pc);
                        return Ok(RunPause::Boundary);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::run_task_until;
    use crate::program::ProgramBuilder;
    use crate::programs::{fib, prod};

    /// Decoding the same program twice yields identical micro-ops,
    /// provenance, and side tables.
    #[test]
    fn decode_is_deterministic() {
        for p in [prod(), fib()] {
            let a = DecodedProgram::decode(&p);
            let b = DecodedProgram::decode(&p);
            assert_eq!(a.uops, b.uops);
            assert_eq!(a.watch_uops, b.watch_uops);
            assert_eq!(a.src, b.src);
            assert_eq!(a.pc_of, b.pc_of);
            assert_eq!(a.block_entry, b.block_entry);
            assert_eq!(a.prppt_entry, b.prppt_entry);
            assert_eq!(a.weights, b.weights);
        }
    }

    /// Every micro-op maps back to a contiguous source range, and the
    /// ranges of each block tile its instruction list exactly — the
    /// property that keeps timeline spans and cost attribution correct.
    #[test]
    fn sources_tile_blocks_exactly() {
        for p in [prod(), fib()] {
            let d = DecodedProgram::decode(&p);
            for (label, block) in p.iter() {
                let mut expected = 0u32;
                for pc in 0..d.uop_count() {
                    let s = d.source(pc);
                    if s.block as usize != label.index() {
                        continue;
                    }
                    assert_eq!(
                        s.instr,
                        expected,
                        "gap or overlap in {}",
                        p.label_name(label)
                    );
                    assert!(s.len >= 1);
                    expected += s.len;
                }
                assert_eq!(
                    expected as usize,
                    block.instrs.len(),
                    "block {} not fully covered",
                    p.label_name(label)
                );
            }
            // The hoisted cost weights agree with the tiling.
            let total: u32 = (0..p.block_count())
                .map(|i| d.block_weight(Label::from_index(i)))
                .sum();
            assert_eq!(total as usize, p.instr_count());
        }
    }

    /// `pc_of` marks exactly the first instruction of each micro-op.
    #[test]
    fn pc_of_marks_fusion_interiors() {
        let p = prod();
        let d = DecodedProgram::decode(&p);
        for pc in 0..d.uop_count() {
            let s = d.source(pc);
            let base = d.instr_base[s.block as usize];
            assert_eq!(d.pc_of[(base + s.instr) as usize], pc as u32);
            for k in 1..s.len {
                assert_eq!(d.pc_of[(base + s.instr + k) as usize], MID);
            }
        }
    }

    /// The lowered loop-head shape `op; if-jump; jump` fuses into one
    /// micro-op, and loop tails `op; jump` fuse too.
    #[test]
    fn hot_shapes_fuse() {
        use crate::isa::{Instr, Operand};
        let mut b = ProgramBuilder::new();
        let (i, t, acc) = (b.reg("i"), b.reg("t"), b.reg("acc"));
        let (head, body, exit) = (b.label("head"), b.label("body"), b.label("exit"));
        b.block(
            "head",
            vec![
                Instr::Op {
                    dst: t,
                    op: BinOp::Lt,
                    lhs: i,
                    rhs: Operand::Int(10),
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
                Instr::Op {
                    dst: acc,
                    op: BinOp::Add,
                    lhs: acc,
                    rhs: Operand::Reg(i),
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
        let p = b.build().unwrap();
        let d = DecodedProgram::decode(&p);
        // head = 1 fused CmpBranchBranch; body = Op + OpJump; exit = Boundary.
        assert_eq!(d.uop_count(), 4);
        assert!(matches!(d.uops[0], UOp::CmpBranchBranch { .. }));
        assert!(matches!(d.uops[2], UOp::OpJump { .. }));
        assert!(matches!(d.uops[3], UOp::Boundary));
        assert_eq!(d.source(0).len, 3);

        // And it runs to the same result as the reference.
        let mut stores = Stores::new();
        let mut task = TaskState::new(&p, p.entry());
        task.regs.write(i, Value::Int(0));
        task.regs.write(acc, Value::Int(0));
        let mut rtask = task.clone();
        let mut rstores = Stores::new();
        let (s1, p1) = d
            .run_until(&mut task, &mut stores, u64::MAX, false)
            .unwrap();
        let (s2, p2) = run_task_until(&p, &mut rtask, &mut rstores, u64::MAX, false).unwrap();
        assert_eq!((s1, p1), (s2, p2));
        assert_eq!(task.regs, rtask.regs);
        assert_eq!(task.block, rtask.block);
        assert_eq!(task.instr, rtask.instr);
        assert_eq!(task.regs.read(acc).unwrap(), Value::Int(45));
    }

    /// Adjacent control-free instructions of different kinds stay
    /// unfused (only same-kind runs fuse), and nothing steals the compare
    /// of a branch fusion.
    #[test]
    fn adjacent_plain_ops_stay_unfused() {
        use crate::isa::{Instr, Operand};
        let mut b = ProgramBuilder::new();
        let (i, acc, t) = (b.reg("i"), b.reg("t2"), b.reg("t"));
        let loop_l = b.label("loop");
        b.block(
            "loop",
            vec![
                // Three plain ops: the first two decode as singles (no
                // generic pairing — see `fusion_len`), the third joins
                // the compare+branch as a StepCmpBranch triple.
                Instr::Op {
                    dst: acc,
                    op: BinOp::Mul,
                    lhs: acc,
                    rhs: Operand::Int(3),
                },
                Instr::Op {
                    dst: acc,
                    op: BinOp::Add,
                    lhs: acc,
                    rhs: Operand::Reg(i),
                },
                Instr::Op {
                    dst: i,
                    op: BinOp::Add,
                    lhs: i,
                    rhs: Operand::Int(1),
                },
                Instr::Op {
                    dst: t,
                    op: BinOp::Lt,
                    lhs: i,
                    rhs: Operand::Int(6),
                },
                Instr::IfJump {
                    cond: t,
                    target: Operand::Label(loop_l),
                },
                Instr::Halt,
            ],
        );
        let p = b.build().unwrap();
        let d = DecodedProgram::decode(&p);
        assert!(matches!(d.uops[0], UOp::OpMul { .. }));
        assert!(matches!(d.uops[1], UOp::OpAdd { .. }));
        assert!(matches!(d.uops[2], UOp::StepCmpBranch { .. }));
        assert!(matches!(d.uops[3], UOp::Boundary));
        assert_eq!(d.uop_count(), 4);

        // Bit-identical to the reference under every quantum, including
        // ones that split the fused triple.
        for quantum in [1u64, 2, 3, u64::MAX] {
            let mut stores = Stores::new();
            let mut task = TaskState::new(&p, p.entry());
            task.regs.write(i, Value::Int(0));
            task.regs.write(acc, Value::Int(0));
            let mut rstores = Stores::new();
            let mut rtask = task.clone();
            loop {
                let (s1, p1) = d.run_until(&mut task, &mut stores, quantum, false).unwrap();
                let (s2, p2) =
                    run_task_until(&p, &mut rtask, &mut rstores, quantum, false).unwrap();
                assert_eq!((s1, p1), (s2, p2), "quantum {quantum}");
                assert_eq!(task.block, rtask.block);
                assert_eq!(task.instr, rtask.instr);
                assert_eq!(task.cycles, rtask.cycles);
                if p1 == RunPause::Boundary {
                    break;
                }
            }
            assert_eq!(task.regs, rtask.regs);
        }
    }

    /// Consecutive moves, stores through one base and loads through one
    /// base fuse into run micro-ops; a load that writes its own base and
    /// a store through another base each end a run. Every quantum that
    /// lands inside a run replays the reference exactly.
    #[test]
    fn runs_fuse() {
        use crate::asm::parse_program;
        use crate::machine::{step_task, StepOutcome};
        let p = parse_program(
            "main: [.]
                sp := snew
                salloc sp, 4
                q := sp
                a := 1
                b := 2
                c := a
                mem[sp + 0] := a
                mem[sp + 1] := b
                mem[sp + 2] := sp
                mem[q + 3] := c
                d := mem[sp + 0]
                e := mem[sp + 1]
                sp := mem[sp + 2]
                f := mem[sp + 1]
                g := mem[sp + 3]
                halt",
        )
        .unwrap();
        let d = DecodedProgram::decode(&p);
        let kinds: Vec<(UOp, u32)> = (0..d.uop_count())
            .map(|pc| (d.uops[pc], d.source(pc).len))
            .collect();
        assert!(matches!(kinds[0], (UOp::Boundary, 1)));
        assert!(matches!(kinds[1], (UOp::SAlloc { .. }, 1)));
        assert!(matches!(kinds[2], (UOp::MovRun { len: 4, .. }, 4)));
        assert!(matches!(kinds[3], (UOp::StoreRun { len: 3, .. }, 3)));
        assert!(matches!(kinds[4], (UOp::Store { .. }, 1)));
        assert!(matches!(kinds[5], (UOp::LoadRun { len: 2, .. }, 2)));
        assert!(matches!(kinds[6], (UOp::Load { .. }, 1)));
        assert!(matches!(kinds[7], (UOp::LoadRun { len: 2, .. }, 2)));
        assert!(matches!(kinds[8], (UOp::Boundary, 1)));
        assert_eq!(d.uop_count(), 9);

        for quantum in 1..=6u64 {
            let mut stores = Stores::new();
            let mut task = TaskState::new(&p, p.entry());
            let mut rstores = Stores::new();
            let mut rtask = task.clone();
            loop {
                let (s1, p1) = d.run_until(&mut task, &mut stores, quantum, false).unwrap();
                let (s2, p2) =
                    run_task_until(&p, &mut rtask, &mut rstores, quantum, false).unwrap();
                assert_eq!((s1, p1), (s2, p2), "quantum {quantum}");
                assert_eq!((task.block, task.instr), (rtask.block, rtask.instr));
                assert_eq!(task.regs, rtask.regs);
                if p1 == RunPause::Boundary {
                    let halted = |o| matches!(o, StepOutcome::Halted);
                    let h1 = halted(step_task(&p, &mut task, &mut stores).unwrap());
                    let h2 = halted(step_task(&p, &mut rtask, &mut rstores).unwrap());
                    assert_eq!(h1, h2);
                    if h1 {
                        break;
                    }
                }
            }
            assert_eq!(task.cycles, rtask.cycles);
            let g = p.reg("g").unwrap();
            assert_eq!(task.regs.read(g).unwrap(), Value::Int(1));
        }
    }

    /// The watch-mode stream differs from the plain stream exactly at
    /// `prppt` block entries, which become `PrpptPause` micro-ops.
    #[test]
    fn watch_stream_replaces_prppt_entries() {
        for p in [prod(), fib()] {
            let d = DecodedProgram::decode(&p);
            assert_eq!(d.uops.len(), d.watch_uops.len());
            for pc in 0..d.uop_count() {
                if d.is_prppt_entry(pc) {
                    assert_eq!(d.watch_uops[pc], UOp::PrpptPause);
                    assert_ne!(d.uops[pc], UOp::PrpptPause);
                } else {
                    assert_eq!(d.watch_uops[pc], d.uops[pc]);
                }
            }
            // Programs with handlers must actually exercise the pause.
            let pauses = (0..d.uop_count())
                .filter(|&pc| d.is_prppt_entry(pc))
                .count();
            let handlers = (0..p.block_count())
                .filter(|&i| d.handler(Label::from_index(i)).is_some())
                .count();
            assert_eq!(pauses, handlers);
        }
    }

    /// The add-immediate + compare + branch triple fuses when it occurs
    /// within one block, and splits mid-op under a tight quantum with
    /// identical stepping to the reference.
    #[test]
    fn back_edge_triple_fuses_and_splits() {
        use crate::isa::{Instr, Operand};
        let mut b = ProgramBuilder::new();
        let (i, t) = (b.reg("i"), b.reg("t"));
        let loop_l = b.label("loop");
        b.block(
            "loop",
            vec![
                Instr::Op {
                    dst: i,
                    op: BinOp::Add,
                    lhs: i,
                    rhs: Operand::Int(1),
                },
                Instr::Op {
                    dst: t,
                    op: BinOp::Lt,
                    lhs: i,
                    rhs: Operand::Int(5),
                },
                Instr::IfJump {
                    cond: t,
                    target: Operand::Label(loop_l),
                },
                Instr::Halt,
            ],
        );
        let p = b.build().unwrap();
        let d = DecodedProgram::decode(&p);
        assert!(matches!(d.uops[0], UOp::StepCmpBranch { .. }));
        assert_eq!(d.uop_count(), 2);

        // Drive both executors with a quantum of 2, which always splits
        // the 3-instruction fused op.
        for quantum in [1u64, 2, 3, u64::MAX] {
            let mut stores = Stores::new();
            let mut task = TaskState::new(&p, p.entry());
            task.regs.write(i, Value::Int(0));
            let mut rstores = Stores::new();
            let mut rtask = task.clone();
            loop {
                let (s1, p1) = d.run_until(&mut task, &mut stores, quantum, false).unwrap();
                let (s2, p2) =
                    run_task_until(&p, &mut rtask, &mut rstores, quantum, false).unwrap();
                assert_eq!((s1, p1), (s2, p2), "quantum {quantum}");
                assert_eq!(task.block, rtask.block);
                assert_eq!(task.instr, rtask.instr);
                assert_eq!(task.cycles, rtask.cycles);
                if p1 == RunPause::Boundary {
                    break;
                }
            }
            assert_eq!(task.regs.read(i).unwrap(), Value::Int(5));
            assert_eq!(task.regs, rtask.regs);
        }
    }

    /// Promotion-ready entries pause the watch-enabled runner exactly
    /// where the reference pauses — including when the `prppt` block
    /// entry is the start of a fused micro-op.
    #[test]
    fn promotion_watch_matches_reference() {
        use crate::isa::{Annotation, Instr, Operand};
        let mut b = ProgramBuilder::new();
        let (i, t) = (b.reg("i"), b.reg("t"));
        let (work, body, exit, handler) = (
            b.label("work"),
            b.label("body"),
            b.label("exit"),
            b.label("handler"),
        );
        // The prppt block is the lowered loop-head shape, which fuses
        // into a single CmpBranchBranch micro-op.
        b.annotated_block(
            "work",
            Annotation::PromotionReady { handler },
            vec![
                Instr::Op {
                    dst: t,
                    op: BinOp::Lt,
                    lhs: i,
                    rhs: Operand::Int(3),
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
                Instr::Op {
                    dst: i,
                    op: BinOp::Add,
                    lhs: i,
                    rhs: Operand::Int(1),
                },
                Instr::Jump {
                    target: Operand::Label(work),
                },
            ],
        );
        b.block("exit", vec![Instr::Halt]);
        b.block(
            "handler",
            vec![Instr::Jump {
                target: Operand::Label(work),
            }],
        );
        let mut bb = b;
        bb.entry(work);
        let p = bb.build().unwrap();
        let d = DecodedProgram::decode(&p);
        assert!(matches!(d.uops[0], UOp::CmpBranchBranch { .. }));

        let mut stores = Stores::new();
        let mut task = TaskState::new(&p, p.entry());
        task.regs.write(i, Value::Int(0));
        let mut rstores = Stores::new();
        let mut rtask = task.clone();

        // At the prppt entry with the watch on, both pause immediately
        // with zero steps.
        let (s1, p1) = d.run_until(&mut task, &mut stores, 64, true).unwrap();
        let (s2, p2) = run_task_until(&p, &mut rtask, &mut rstores, 64, true).unwrap();
        assert_eq!((s1, p1), (s2, p2));
        assert_eq!(p1, RunPause::PromotionReady);
        assert_eq!(s1, 0);

        // Nudge one instruction past the entry (watch off), then run
        // with the watch on: both must pause on the next arrival at
        // the `work` entry, at the same position and step count.
        loop {
            let (n1, q1) = d.run_until(&mut task, &mut stores, 1, false).unwrap();
            let (n2, q2) = run_task_until(&p, &mut rtask, &mut rstores, 1, false).unwrap();
            assert_eq!((n1, q1), (n2, q2));
            let (s1, p1) = d.run_until(&mut task, &mut stores, 64, true).unwrap();
            let (s2, p2) = run_task_until(&p, &mut rtask, &mut rstores, 64, true).unwrap();
            assert_eq!((s1, p1), (s2, p2));
            assert_eq!(task.block, rtask.block);
            assert_eq!(task.instr, rtask.instr);
            assert_eq!(task.cycles, rtask.cycles);
            if p1 == RunPause::Boundary {
                break;
            }
            assert_eq!((task.block, task.instr), (work, 0));
        }
        assert_eq!(task.regs, rtask.regs);
        assert_eq!(task.regs.read(i).unwrap(), Value::Int(3));
    }
}
