//! Machine values, register files, and errors.

use std::fmt;

use crate::isa::{BinOp, Label, Reg};
use crate::machine::join::JoinId;
use crate::machine::stack::StackRef;

/// A runtime value of the abstract machine (Figure 26, with the stack
/// extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// An integer.
    Int(i64),
    /// A code label (labels are first-class; `jump` accepts a register
    /// holding one).
    Label(Label),
    /// A join-record identifier produced by `jralloc`.
    Join(JoinId),
    /// A pointer into a task stack (`uptr` in the formal grammar).
    Stack(StackRef),
    /// A promotion-ready mark (`prmark`); lives only in stack cells, but is
    /// representable as a value so loads surface it faithfully.
    Mark,
    /// An uninitialised register or stack cell that has never been written.
    ///
    /// Reading an uninitialised *register* is a [`MachineError`]; freshly
    /// `salloc`ed stack cells are `Int(0)` per the formal rule, so `Uninit`
    /// never appears in stacks.
    Uninit,
}

impl Value {
    /// The paper's truth encoding: zero is true, everything else false.
    #[inline]
    pub fn is_true(self) -> bool {
        matches!(self, Value::Int(0))
    }

    /// Extracts an integer, or reports a type error.
    #[inline]
    pub fn as_int(self) -> Result<i64, MachineError> {
        match self {
            Value::Int(n) => Ok(n),
            other => Err(MachineError::TypeError {
                expected: "int",
                got: other.kind(),
            }),
        }
    }

    /// Extracts a join-record identifier, or reports a type error.
    pub fn as_join(self) -> Result<JoinId, MachineError> {
        match self {
            Value::Join(j) => Ok(j),
            other => Err(MachineError::TypeError {
                expected: "join record",
                got: other.kind(),
            }),
        }
    }

    /// Extracts a stack pointer, or reports a type error.
    pub fn as_stack(self) -> Result<StackRef, MachineError> {
        match self {
            Value::Stack(s) => Ok(s),
            other => Err(MachineError::TypeError {
                expected: "stack pointer",
                got: other.kind(),
            }),
        }
    }

    /// A short name for the value's kind, used in error messages.
    pub fn kind(self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Label(_) => "label",
            Value::Join(_) => "join record",
            Value::Stack(_) => "stack pointer",
            Value::Mark => "promotion mark",
            Value::Uninit => "uninitialised",
        }
    }
}

impl From<i64> for Value {
    fn from(n: i64) -> Self {
        Value::Int(n)
    }
}

/// A task-private register file: a dense map from [`Reg`] to [`Value`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegFile {
    regs: Vec<Value>,
}

impl RegFile {
    /// Creates a register file with `count` uninitialised registers.
    pub fn new(count: usize) -> Self {
        RegFile {
            regs: vec![Value::Uninit; count],
        }
    }

    /// Reads a register.
    ///
    /// # Errors
    ///
    /// Returns [`MachineError::UninitRegister`] if the register has never
    /// been written.
    #[inline]
    pub fn read(&self, r: Reg) -> Result<Value, MachineError> {
        match self.regs[r.index()] {
            Value::Uninit => Err(MachineError::UninitRegister { reg: r }),
            v => Ok(v),
        }
    }

    /// Reads a register without the initialisation check (used by merge,
    /// which copies whole files).
    #[inline]
    pub fn read_raw(&self, r: Reg) -> Value {
        self.regs[r.index()]
    }

    /// Writes a register.
    #[inline]
    pub fn write(&mut self, r: Reg, v: Value) {
        self.regs[r.index()] = v;
    }

    /// The raw register slice (hot interpreter loops borrow it once so
    /// the slice pointer and length stay in machine registers across
    /// heap and stack stores).
    #[inline]
    pub(crate) fn slice_mut(&mut self) -> &mut [Value] {
        &mut self.regs
    }

    /// The number of register slots.
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// Returns `true` if the file has no register slots.
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// Merges this (parent) file with a child's file under `ΔR`
    /// (`MergeR` of Figure 27): the result is the parent's file with, for
    /// each `(src, dst)` pair, the child's value of `src` written to `dst`.
    pub fn merge(parent: &RegFile, child: &RegFile, delta: &crate::isa::RegMap) -> RegFile {
        let mut merged = parent.clone();
        for &(src, dst) in &delta.pairs {
            merged.write(dst, child.read_raw(src));
        }
        merged
    }
}

/// A runtime fault of the abstract machine.
///
/// Well-formed TPAL programs never fault; these errors exist to give
/// front ends and hand-written assembly precise diagnostics instead of
/// undefined behaviour.
///
/// The type is deliberately `Copy` (no owned payloads): results carrying
/// it need no drop glue or unwind edges, which keeps the interpreter
/// dispatch loops free of cleanup paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineError {
    /// A register was read before ever being written.
    UninitRegister {
        /// The offending register.
        reg: Reg,
    },
    /// An operand had the wrong kind for the operation.
    TypeError {
        /// What the operation needed.
        expected: &'static str,
        /// What it got.
        got: &'static str,
    },
    /// Integer division or remainder by zero.
    DivisionByZero,
    /// `op` was applied to operands it does not support.
    UnsupportedOperands {
        /// The operation.
        op: BinOp,
        /// Left operand kind.
        lhs: &'static str,
        /// Right operand kind.
        rhs: &'static str,
    },
    /// A stack access fell outside the live cells.
    StackOutOfRange {
        /// Position (from the stack base) that was accessed.
        pos: i64,
        /// Number of live cells.
        len: usize,
    },
    /// `salloc` asked for more cells than its stack has left under
    /// [`MAX_STACK_CELLS`](crate::machine::MAX_STACK_CELLS).
    StackExhausted {
        /// The cells requested.
        cells: u32,
    },
    /// `sfree` tried to free more cells than are live.
    StackUnderflow,
    /// `prmpop` targeted a cell that does not hold a mark.
    NotAMark,
    /// A heap access fell outside any allocation.
    HeapOutOfRange {
        /// The faulting word address.
        addr: i64,
    },
    /// `halloc` asked for more words than the heap has left under
    /// [`MAX_HEAP_WORDS`](crate::machine::MAX_HEAP_WORDS).
    HeapExhausted {
        /// The words requested.
        words: i64,
    },
    /// `prmsplit` found no promotion-ready mark.
    NoMark,
    /// `join` was issued by a task with no registered dependency on the
    /// record (no preceding `fork`).
    JoinWithoutFork,
    /// A task reached the join root while other dependency edges were
    /// still outstanding — a malformed join protocol.
    JoinNotReady,
    /// A jump targeted a value that is not a label.
    JumpToNonLabel {
        /// The kind of the value jumped to.
        got: &'static str,
    },
    /// The configured step limit was exceeded (likely livelock or runaway
    /// program).
    StepLimitExceeded {
        /// The limit that was hit.
        limit: u64,
    },
    /// A named register or label was not found (API-level lookups; the
    /// caller holds the name it asked for, so the error carries none —
    /// keeping [`MachineError`] `Copy`).
    UnknownName,
    /// The machine deadlocked: live tasks remain but none can run.
    Deadlock,
    /// A channel operation targeted an identifier that names no channel.
    NotAChannel {
        /// The faulting identifier.
        id: i64,
    },
    /// `chmake` was given a non-positive capacity.
    BadChannelCapacity {
        /// The capacity requested.
        cap: i64,
    },
    /// `chpush` on a closed channel, or `chpop` on a closed channel
    /// whose buffer has drained.
    ChannelClosed,
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MachineError::UninitRegister { reg } => {
                write!(f, "register r{} read before initialisation", reg.index())
            }
            MachineError::TypeError { expected, got } => {
                write!(f, "type error: expected {expected}, got {got}")
            }
            MachineError::DivisionByZero => write!(f, "division by zero"),
            MachineError::UnsupportedOperands { op, lhs, rhs } => {
                write!(f, "operator `{op}` not supported on {lhs} and {rhs}")
            }
            MachineError::StackOutOfRange { pos, len } => {
                write!(
                    f,
                    "stack access at position {pos} outside live cells (len {len})"
                )
            }
            MachineError::StackExhausted { cells } => write!(
                f,
                "salloc of {cells} cells exceeds the stack limit of {} cells",
                crate::machine::MAX_STACK_CELLS
            ),
            MachineError::StackUnderflow => write!(f, "stack underflow in sfree"),
            MachineError::NotAMark => write!(f, "prmpop on a cell that is not a mark"),
            MachineError::HeapOutOfRange { addr } => {
                write!(
                    f,
                    "heap access at word address {addr} outside any allocation"
                )
            }
            MachineError::HeapExhausted { words } => write!(
                f,
                "halloc of {words} words exceeds the heap limit of {} words",
                crate::machine::MAX_HEAP_WORDS
            ),
            MachineError::NoMark => write!(f, "prmsplit found no promotion-ready mark"),
            MachineError::JoinWithoutFork => {
                write!(f, "join issued without a registered dependency edge")
            }
            MachineError::JoinNotReady => {
                write!(f, "join reached the root with outstanding dependency edges")
            }
            MachineError::JumpToNonLabel { got } => write!(f, "jump to a {got}, not a label"),
            MachineError::StepLimitExceeded { limit } => {
                write!(f, "step limit of {limit} instructions exceeded")
            }
            MachineError::UnknownName => write!(f, "unknown register or label name"),
            MachineError::Deadlock => write!(f, "machine deadlocked with live tasks"),
            MachineError::NotAChannel { id } => {
                write!(f, "value {id} does not name a channel")
            }
            MachineError::BadChannelCapacity { cap } => {
                write!(f, "chmake capacity must be positive, got {cap}")
            }
            MachineError::ChannelClosed => {
                write!(f, "channel operation on a closed (and drained) channel")
            }
        }
    }
}

impl std::error::Error for MachineError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::RegMap;

    #[test]
    fn truth_encoding_zero_is_true() {
        assert!(Value::Int(0).is_true());
        assert!(!Value::Int(1).is_true());
        assert!(!Value::Int(-1).is_true());
        assert!(!Value::Label(Label(0)).is_true());
        assert!(!Value::Mark.is_true());
    }

    #[test]
    fn regfile_uninit_read_is_error() {
        let rf = RegFile::new(2);
        assert_eq!(
            rf.read(Reg(0)),
            Err(MachineError::UninitRegister { reg: Reg(0) })
        );
    }

    #[test]
    fn regfile_write_then_read() {
        let mut rf = RegFile::new(2);
        rf.write(Reg(1), Value::Int(42));
        assert_eq!(rf.read(Reg(1)), Ok(Value::Int(42)));
    }

    #[test]
    fn merge_overwrites_targets_with_child_sources() {
        // Parent: r0=10, r1=11. Child: r0=20, r1=21. ΔR = { r0 ↦ r1 }.
        // Merged file keeps the parent's r0 and receives the child's r0 in r1.
        let mut parent = RegFile::new(2);
        parent.write(Reg(0), Value::Int(10));
        parent.write(Reg(1), Value::Int(11));
        let mut child = RegFile::new(2);
        child.write(Reg(0), Value::Int(20));
        child.write(Reg(1), Value::Int(21));
        let delta = RegMap::new().with(Reg(0), Reg(1));
        let merged = RegFile::merge(&parent, &child, &delta);
        assert_eq!(merged.read(Reg(0)), Ok(Value::Int(10)));
        assert_eq!(merged.read(Reg(1)), Ok(Value::Int(20)));
    }

    #[test]
    fn value_kind_names() {
        assert_eq!(Value::Int(1).kind(), "int");
        assert_eq!(Value::Mark.kind(), "promotion mark");
        assert_eq!(Value::Uninit.kind(), "uninitialised");
    }

    #[test]
    fn error_display_is_informative() {
        let e = MachineError::TypeError {
            expected: "int",
            got: "label",
        };
        assert_eq!(e.to_string(), "type error: expected int, got label");
        assert!(MachineError::DivisionByZero.to_string().contains("zero"));
    }
}
