//! The TPAL instruction set.
//!
//! This module transcribes the grammar of Figure 1 (core language) and
//! Figure 21 (stack extension) of the paper. A program is a set of labelled
//! [`Block`]s; each block carries an [`Annotation`] and a straight-line
//! sequence of [`Instr`]uctions ending in a control [`Instr::Jump`],
//! [`Instr::Halt`], or [`Instr::Join`].
//!
//! Registers and labels are interned: a [`Reg`] or [`Label`] is an index
//! into the per-[`crate::program::Program`] name tables, which keeps
//! register files dense and block lookup O(1) during execution.

use std::fmt;

/// An interned register name.
///
/// TPAL assumes an unbounded set of named registers (the paper uses names
/// such as `a`, `r`, `sp`, `sp-top`). Registers are per-task: every task
/// owns a private register file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub(crate) u32);

impl Reg {
    /// Index of this register in a dense register file.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a register from its index (the inverse of
    /// [`Reg::index`]; only meaningful for indices below the owning
    /// program's [`crate::program::Program::reg_count`]).
    #[inline]
    pub fn from_index(i: usize) -> Reg {
        Reg(i as u32)
    }
}

/// An interned block label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(pub(crate) u32);

impl Label {
    /// Index of this label in the program's block table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a label from its index (only meaningful for indices
    /// below the owning program's block count).
    #[inline]
    pub fn from_index(i: usize) -> Label {
        Label(i as u32)
    }
}

/// A primitive binary operation.
///
/// Comparison operators follow the paper's truth encoding (Appendix D):
/// they evaluate to `0` for **true** and `1` for **false**, so that
/// `if-jump` (which branches on zero) branches on truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer addition; also moves a stack pointer *deeper* (toward older
    /// cells) when the left operand is a stack pointer.
    Add,
    /// Integer subtraction; also moves a stack pointer *shallower* when the
    /// left operand is a stack pointer.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division (errors on division by zero).
    Div,
    /// Integer remainder (errors on division by zero).
    Mod,
    /// Less-than comparison (`0` = true).
    Lt,
    /// Less-or-equal comparison (`0` = true).
    Le,
    /// Greater-than comparison (`0` = true).
    Gt,
    /// Greater-or-equal comparison (`0` = true).
    Ge,
    /// Equality comparison (`0` = true).
    EqOp,
    /// Disequality comparison (`0` = true).
    Ne,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift.
    Shl,
    /// Arithmetic right shift.
    Shr,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl BinOp {
    /// The concrete-syntax spelling of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::EqOp => "==",
            BinOp::Ne => "!=",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Min => "min",
            BinOp::Max => "max",
        }
    }

    /// All operators, in a fixed order (useful for fuzzing and tests).
    pub fn all() -> &'static [BinOp] {
        use BinOp::*;
        &[
            Add, Sub, Mul, Div, Mod, Lt, Le, Gt, Ge, EqOp, Ne, And, Or, Xor, Shl, Shr, Min, Max,
        ]
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// An operand `v`: a register, a label, or an integer literal.
///
/// Join-record identifiers are *runtime* values only (produced by
/// `jralloc`), so they do not appear as static operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register read.
    Reg(Reg),
    /// A code label (a first-class value: labels can be stored and jumped
    /// to indirectly, as in the paper's `jump ret`).
    Label(Label),
    /// An integer literal.
    Int(i64),
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Self {
        Operand::Reg(r)
    }
}

impl From<Label> for Operand {
    fn from(l: Label) -> Self {
        Operand::Label(l)
    }
}

impl From<i64> for Operand {
    fn from(n: i64) -> Self {
        Operand::Int(n)
    }
}

/// A memory addressing expression `mem[base + offset]` on a task stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAddr {
    /// Register holding the stack pointer.
    pub base: Reg,
    /// Non-negative literal offset, in cells, toward *older* cells.
    pub offset: u32,
}

/// A single TPAL instruction.
///
/// The first group transcribes `𝚤` and the `I` terminators of Figure 1;
/// the second group is the stack extension of Figure 21.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `r := v` — move an operand into a register.
    Move {
        /// Destination register.
        dst: Reg,
        /// Source operand.
        src: Operand,
    },
    /// `r := r' op v` — primitive binary operation.
    Op {
        /// Destination register.
        dst: Reg,
        /// The operation.
        op: BinOp,
        /// Left operand (a register, per the grammar).
        lhs: Reg,
        /// Right operand.
        rhs: Operand,
    },
    /// `if-jump r, v` — branch to `v` when `r` holds zero (true).
    IfJump {
        /// Condition register; zero means the branch is taken.
        cond: Reg,
        /// Branch target (a label, or a register holding one).
        target: Operand,
    },
    /// `r := jralloc l` — allocate a join record whose continuation is the
    /// block at `l` (which must carry a `jtppt` annotation).
    JrAlloc {
        /// Destination register for the fresh join-record identifier.
        dst: Reg,
        /// Continuation label.
        cont: Operand,
    },
    /// `fork r, v` — register a dependency edge on the join record in `r`,
    /// then spawn a child task starting at `v` with a copy of the parent's
    /// register file. Both tasks restart their heartbeat cycle counters.
    Fork {
        /// Register holding the join record.
        jr: Reg,
        /// Label at which the child starts executing.
        target: Operand,
    },
    /// `jump v` — unconditional jump (terminator).
    Jump {
        /// Jump target (a label, or a register holding one).
        target: Operand,
    },
    /// `halt` — terminate the whole machine (terminator).
    Halt,
    /// `join v` — participate in join resolution on the join record held in
    /// `v` (terminator).
    Join {
        /// Register holding the join record.
        jr: Reg,
    },

    // ----- stack extension (Figure 21) -----
    /// `r := snew` — allocate a fresh, empty task stack.
    SNew {
        /// Destination register for the new stack pointer.
        dst: Reg,
    },
    /// `salloc r, n` — allocate `n` zero-initialised cells at the front of
    /// the stack pointed to by `r`, updating `r` to point at the new front.
    SAlloc {
        /// Stack-pointer register (updated in place).
        sp: Reg,
        /// Number of cells.
        n: u32,
    },
    /// `sfree r, n` — free `n` cells from the front of the stack pointed to
    /// by `r`, updating `r`.
    SFree {
        /// Stack-pointer register (updated in place).
        sp: Reg,
        /// Number of cells.
        n: u32,
    },
    /// `r := mem[base + n]` — load from a stack cell.
    Load {
        /// Destination register.
        dst: Reg,
        /// Address.
        addr: MemAddr,
    },
    /// `mem[base + n] := v` — store to a stack cell.
    Store {
        /// Address.
        addr: MemAddr,
        /// Value stored.
        src: Operand,
    },
    /// `prmpush mem[base + n]` — place a promotion-ready mark in a stack
    /// cell, advertising latent parallelism held by the current frame.
    PrmPush {
        /// Address of the mark cell.
        addr: MemAddr,
    },
    /// `prmpop mem[base + n]` — remove the promotion-ready mark from a
    /// stack cell (errors if the cell does not hold a mark).
    PrmPop {
        /// Address of the mark cell.
        addr: MemAddr,
    },
    /// `r := prmempty r'` — write `0` (true) into `r` if the stack visible
    /// from `r'` holds **no** promotion-ready marks, `1` otherwise.
    ///
    /// Note: the rule labels in the paper's Figure 31 are inverted relative
    /// to its own prose (Appendix C.1) and to the `fib` listing; we follow
    /// the prose and the listing, which require `0` ⇔ empty.
    PrmEmpty {
        /// Destination register.
        dst: Reg,
        /// Stack-pointer register.
        sp: Reg,
    },
    /// `prmsplit r, r'` — pop the *oldest* (least recent) promotion-ready
    /// mark from the stack pointed to by `r`, writing its offset relative
    /// to `r` into `r'`. This is how a heartbeat handler locates the
    /// outermost latent parallelism, per the outermost-first policy.
    PrmSplit {
        /// Stack-pointer register.
        sp: Reg,
        /// Destination register for the mark's relative offset.
        dst: Reg,
    },

    // ----- shared-heap extension -----
    //
    // The paper's §2.1 notes "Heap memory can be shared" and Appendix B.2
    // that malloc-style support "is also possible, but we omit it to
    // simplify the presentation". Array workloads need it, so we provide
    // the obvious word-addressed heap: addresses are plain integers
    // (address 0 is null), cells hold 64-bit integers, and allocation
    // never fails short of memory exhaustion.
    /// `r := halloc v` — allocate `v` zero-initialised heap words and
    /// place the base address (a positive integer) in `r`.
    HAlloc {
        /// Destination register for the base address.
        dst: Reg,
        /// Number of words.
        size: Operand,
    },
    /// `r := heap[base + offset]` — load a heap word.
    HLoad {
        /// Destination register.
        dst: Reg,
        /// Register holding the base address.
        base: Reg,
        /// Word offset (register or literal).
        offset: Operand,
    },
    /// `heap[base + offset] := v` — store a heap word.
    HStore {
        /// Register holding the base address.
        base: Reg,
        /// Word offset (register or literal).
        offset: Operand,
        /// Value stored (must be an integer at runtime).
        src: Operand,
    },

    // ----- channel extension (streaming pipelines) -----
    //
    // Bounded FIFO channels carrying integers, in the spirit of TAPA's
    // istream/ostream pairs. Channel identifiers are positive integers
    // (like heap addresses), so they travel through registers, stack and
    // heap cells, and fork register-file copies unchanged. `chpush` on a
    // full channel and `chpop` on an empty one *block*: the task stays at
    // the instruction without stepping, and the executor parks it until a
    // partner makes progress. Blocking semantics therefore live entirely
    // in the executors; the instruction-level transitions are pure.
    /// `r := chmake v` — allocate a bounded FIFO channel of capacity `v`
    /// (≥ 1) and place its identifier in `r`.
    ChMake {
        /// Destination register for the channel identifier.
        dst: Reg,
        /// Capacity in items (must evaluate to a positive integer).
        cap: Operand,
    },
    /// `chpush r, v` — append `v` to the channel in `r`. Blocks while the
    /// channel is full; faults if the channel is closed.
    ChPush {
        /// Register holding the channel identifier.
        ch: Reg,
        /// The item (must evaluate to an integer).
        src: Operand,
    },
    /// `r := chpop r'` — pop the oldest item of the channel in `r'` into
    /// `r`. Blocks while the channel is empty and open; faults once the
    /// channel is closed *and* drained (pop-after-close drains first).
    ChPop {
        /// Destination register for the item.
        dst: Reg,
        /// Register holding the channel identifier.
        ch: Reg,
    },
    /// `chclose r` — close the channel in `r` (idempotent). Parked
    /// poppers wake to drain remaining items; parked pushers wake to
    /// fault.
    ChClose {
        /// Register holding the channel identifier.
        ch: Reg,
    },

    /// `detach v` — spawn a *detached* (free-running) task starting at
    /// `v` with a copy of the parent's register file, like `fork` but
    /// with no join-record edge: the child never joins, its `halt`
    /// retires only itself, and quiescence is tracked by the executor's
    /// detached-task counter.
    Detach {
        /// Label at which the detached child starts executing.
        target: Operand,
    },
}

impl Instr {
    /// Returns `true` if this instruction terminates a block (`jump`,
    /// `halt`, or `join`).
    pub fn is_terminator(&self) -> bool {
        matches!(self, Instr::Jump { .. } | Instr::Halt | Instr::Join { .. })
    }
}

/// The join-resolution policy of a join-target program point: whether the
/// combining operation is only associative, or associative and commutative.
///
/// Under [`JoinPolicy::AssocComm`] the machine may combine partner results
/// in arrival order; under [`JoinPolicy::Assoc`] it must respect the fork
/// tree's left-to-right order. Our join resolution uses the fork tree for
/// both, which is correct for either policy; the policy is retained because
/// it licenses scheduler freedom and is checked by the validator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinPolicy {
    /// Combining is associative only.
    Assoc,
    /// Combining is associative and commutative.
    AssocComm,
}

impl fmt::Display for JoinPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JoinPolicy::Assoc => f.write_str("assoc"),
            JoinPolicy::AssocComm => f.write_str("assoc-comm"),
        }
    }
}

/// A register-renaming environment `ΔR = { r₁ ↦ r₁', … }`.
///
/// At join resolution, the merged register file is the parent's file with,
/// for each pair `(src, dst)`, the **child's** value of `src` written into
/// `dst` (Figure 27's `MergeR`). In the paper's `prod`, `ΔR = {r ↦ r2}`
/// passes the child's accumulator to the combining block as `r2`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct RegMap {
    /// `(source-in-child, destination-in-merged)` pairs.
    pub pairs: Vec<(Reg, Reg)>,
}

impl RegMap {
    /// An empty renaming.
    pub fn new() -> Self {
        RegMap::default()
    }

    /// Adds a `src ↦ dst` pair.
    pub fn with(mut self, src: Reg, dst: Reg) -> Self {
        self.pairs.push((src, dst));
        self
    }
}

/// A block annotation `★` (Figure 1).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub enum Annotation {
    /// `·` — no special behaviour.
    #[default]
    None,
    /// `prppt l` — a promotion-ready program point: when control reaches
    /// this block and the task's heartbeat cycle counter has exceeded ♥,
    /// control is diverted to the handler block `l`.
    PromotionReady {
        /// The heartbeat handler block.
        handler: Label,
    },
    /// `jtppt jp; ΔR; l` — a join-target program point: the continuation of
    /// a join point, specifying the join-resolution policy, the register
    /// merge, and the combining block `l`.
    JoinTarget {
        /// Join-resolution policy.
        policy: JoinPolicy,
        /// Register merge `ΔR`.
        merge: RegMap,
        /// Combining block.
        comb: Label,
    },
}

impl Annotation {
    /// Returns the handler label if this is a promotion-ready point.
    pub fn handler(&self) -> Option<Label> {
        match self {
            Annotation::PromotionReady { handler } => Some(*handler),
            _ => None,
        }
    }
}

/// A labelled code block: an annotation plus a non-empty instruction
/// sequence whose last instruction is a terminator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// The block's annotation.
    pub annotation: Annotation,
    /// The instructions; the last is a terminator, and no earlier
    /// instruction is (enforced by program validation).
    pub instrs: Vec<Instr>,
}

impl Block {
    /// Creates a block with no annotation.
    pub fn new(instrs: Vec<Instr>) -> Self {
        Block {
            annotation: Annotation::None,
            instrs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminator_classification() {
        assert!(Instr::Halt.is_terminator());
        assert!(Instr::Jump {
            target: Operand::Int(0)
        }
        .is_terminator());
        assert!(Instr::Join { jr: Reg(0) }.is_terminator());
        assert!(!Instr::Move {
            dst: Reg(0),
            src: Operand::Int(1)
        }
        .is_terminator());
        assert!(!Instr::SNew { dst: Reg(0) }.is_terminator());
    }

    #[test]
    fn operand_conversions() {
        assert_eq!(Operand::from(Reg(3)), Operand::Reg(Reg(3)));
        assert_eq!(Operand::from(Label(2)), Operand::Label(Label(2)));
        assert_eq!(Operand::from(7i64), Operand::Int(7));
    }

    #[test]
    fn binop_symbols_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in BinOp::all() {
            assert!(seen.insert(op.symbol()), "duplicate symbol {}", op.symbol());
        }
    }

    #[test]
    fn regmap_builder() {
        let m = RegMap::new().with(Reg(0), Reg(1)).with(Reg(2), Reg(3));
        assert_eq!(m.pairs.len(), 2);
        assert_eq!(m.pairs[0], (Reg(0), Reg(1)));
    }

    #[test]
    fn annotation_handler_accessor() {
        assert_eq!(Annotation::None.handler(), None);
        assert_eq!(
            Annotation::PromotionReady { handler: Label(4) }.handler(),
            Some(Label(4))
        );
    }
}
