//! TPAL programs: labelled blocks with interned names, plus validation.
//!
//! A [`Program`] is the static code memory `H` of the abstract machine
//! restricted to blocks (the paper's heap also holds runtime tuples, which
//! live in the machine). Programs are built through a [`ProgramBuilder`]
//! and validated before execution; validation enforces the structural
//! invariants the machine's transition rules assume.

use std::collections::hash_map::RandomState;
use std::fmt;
use std::hash::BuildHasher;
use std::sync::OnceLock;

use crate::isa::{Annotation, Block, Instr, Label, Operand, Reg};

/// A structural defect found by [`ProgramBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidationError {
    /// A jump, annotation, or operand refers to a label with no block.
    UndefinedLabel {
        /// The offending label name.
        label: String,
        /// The block containing the reference.
        in_block: String,
    },
    /// A block's instruction list is empty.
    EmptyBlock {
        /// The offending block.
        block: String,
    },
    /// A block does not end in `jump`, `halt`, or `join`.
    MissingTerminator {
        /// The offending block.
        block: String,
    },
    /// A terminator appears before the end of a block.
    EarlyTerminator {
        /// The offending block.
        block: String,
        /// Index of the early terminator.
        index: usize,
    },
    /// A `jralloc` continuation block lacks a `jtppt` annotation.
    ContinuationNotJoinTarget {
        /// The continuation label.
        label: String,
        /// The block containing the `jralloc`.
        in_block: String,
    },
    /// A `prppt` handler label does not exist.
    UndefinedHandler {
        /// The handler label.
        label: String,
        /// The annotated block.
        in_block: String,
    },
    /// The same block label was defined twice.
    DuplicateLabel {
        /// The duplicated name.
        label: String,
    },
    /// The program defines no blocks.
    NoBlocks,
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidationError::UndefinedLabel { label, in_block } => {
                write!(
                    f,
                    "undefined label `{label}` referenced in block `{in_block}`"
                )
            }
            ValidationError::EmptyBlock { block } => write!(f, "block `{block}` is empty"),
            ValidationError::MissingTerminator { block } => {
                write!(f, "block `{block}` does not end in jump, halt, or join")
            }
            ValidationError::EarlyTerminator { block, index } => {
                write!(
                    f,
                    "terminator before end of block `{block}` (instruction {index})"
                )
            }
            ValidationError::ContinuationNotJoinTarget { label, in_block } => write!(
                f,
                "jralloc in block `{in_block}` targets `{label}`, which has no jtppt annotation"
            ),
            ValidationError::UndefinedHandler { label, in_block } => {
                write!(
                    f,
                    "prppt handler `{label}` of block `{in_block}` is undefined"
                )
            }
            ValidationError::DuplicateLabel { label } => {
                write!(f, "label `{label}` defined more than once")
            }
            ValidationError::NoBlocks => write!(f, "program has no blocks"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// The names of one namespace (labels or registers), each stored once.
///
/// An id is the name's position in interning order — exactly the index
/// a [`Label`] or [`Reg`] carries. The names sit end to end in one
/// buffer; the by-name index is an open-addressing table of ids, so a
/// lookup allocates nothing, an insertion copies the name once, and a
/// clone is three buffer copies however many names there are.
#[derive(Debug, Clone, Default)]
pub(crate) struct Interner {
    /// Every name, concatenated in id order.
    text: String,
    /// `ends[id]`: where name `id` ends in `text` (it starts where its
    /// predecessor ends).
    ends: Vec<u32>,
    /// Per slot, `id + 1` in the low half (0: empty) under the high half
    /// of the name's hash, which spares a probe the comparison with
    /// almost every name that is not the one sought. A power of two, at
    /// least twice the number of names.
    slots: Vec<u64>,
}

/// The per-process key of [`Interner`]'s hash: names come from
/// untrusted program text, so which of them share a slot must not be
/// computable ahead of time.
fn hash_key() -> u64 {
    static KEY: OnceLock<u64> = OnceLock::new();
    *KEY.get_or_init(|| RandomState::new().hash_one(0u8))
}

/// A keyed multiply-rotate hash, eight bytes at a time: names are short
/// and one is hashed per operand of a parsed program, where SipHash was
/// most of the assembler's time.
fn hash(name: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = hash_key() ^ (name.len() as u64).wrapping_mul(K);
    let mut rest = name;
    while let Some((word, tail)) = rest.split_first_chunk::<8>() {
        h = (h ^ u64::from_le_bytes(*word))
            .wrapping_mul(K)
            .rotate_left(29);
        rest = tail;
    }
    // Up to seven bytes remain.
    let last = rest
        .iter()
        .rev()
        .fold(0, |word, &b| word << 8 | u64::from(b));
    (h ^ last).wrapping_mul(K)
}

impl Interner {
    /// Slots of a table's first allocation (room for 32 names).
    const MIN_SLOTS: usize = 64;

    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    fn range(&self, id: u32) -> std::ops::Range<usize> {
        let start = match id {
            0 => 0,
            _ => self.ends[id as usize - 1] as usize,
        };
        start..self.ends[id as usize] as usize
    }

    pub(crate) fn name(&self, id: u32) -> &str {
        &self.text[self.range(id)]
    }

    /// The slot holding `name`, or the empty slot where it belongs, and
    /// what an occupied slot holds above the id. The index is the
    /// hash's top bits, which every byte of the key and of the name
    /// reaches.
    fn slot(&self, name: &str) -> (usize, u64) {
        let h = hash(name.as_bytes());
        let tag = h & !u64::from(u32::MAX);
        let mask = self.slots.len() - 1;
        let mut at = (h >> (64 - self.slots.len().trailing_zeros())) as usize;
        loop {
            let slot = self.slots[at];
            let id = slot as u32;
            if id == 0
                || (slot ^ tag) >> 32 == 0
                    && self.text.as_bytes()[self.range(id - 1)] == *name.as_bytes()
            {
                return (at, tag);
            }
            at = (at + 1) & mask;
        }
    }

    pub(crate) fn get(&self, name: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        (self.slots[self.slot(name).0] as u32).checked_sub(1)
    }

    /// The id of `name`, assigning the next one on first sight.
    pub(crate) fn intern(&mut self, name: &str) -> u32 {
        if (self.len() + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let (at, tag) = self.slot(name);
        if let Some(id) = (self.slots[at] as u32).checked_sub(1) {
            return id;
        }
        self.text.push_str(name);
        let end = u32::try_from(self.text.len()).expect("names total less than 4 GiB");
        self.ends.push(end);
        self.slots[at] = tag | self.ends.len() as u64;
        self.ends.len() as u32 - 1
    }

    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(Self::MIN_SLOTS);
        self.slots = vec![0; slots];
        if self.ends.is_empty() {
            self.ends.reserve(Self::MIN_SLOTS / 2);
            self.text.reserve(Self::MIN_SLOTS * 4);
        }
        for id in 0..self.ends.len() as u32 {
            let (at, tag) = self.slot(self.name(id));
            self.slots[at] = tag | u64::from(id + 1);
        }
    }
}

/// A validated TPAL program.
///
/// Blocks, labels, and registers are interned; [`Label::index`] and
/// [`Reg::index`] are stable indices into this program's tables.
#[derive(Debug, Clone)]
pub struct Program {
    blocks: Vec<Block>,
    labels: Interner,
    regs: Interner,
    entry: Label,
}

impl Program {
    /// The program's entry block (the first block defined, unless
    /// overridden with [`ProgramBuilder::entry`]).
    pub fn entry(&self) -> Label {
        self.entry
    }

    /// Looks up a block by label.
    pub fn block(&self, label: Label) -> &Block {
        &self.blocks[label.index()]
    }

    /// All blocks, indexed by [`Label::index`].
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The number of distinct registers named by the program.
    pub fn reg_count(&self) -> usize {
        self.regs.len()
    }

    /// The number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Resolves a label by name.
    pub fn label(&self, name: &str) -> Option<Label> {
        self.labels.get(name).map(Label)
    }

    /// Resolves a register by name.
    pub fn reg(&self, name: &str) -> Option<Reg> {
        self.regs.get(name).map(Reg)
    }

    /// The name of a label.
    pub fn label_name(&self, label: Label) -> &str {
        self.labels.name(label.0)
    }

    /// The name of a register.
    pub fn reg_name(&self, reg: Reg) -> &str {
        self.regs.name(reg.0)
    }

    /// Iterates over `(label, block)` pairs in definition order.
    pub fn iter(&self) -> impl Iterator<Item = (Label, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (Label(i as u32), b))
    }

    /// The total number of instructions in the program.
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }
}

/// Incrementally builds and validates a [`Program`].
///
/// # Examples
///
/// ```
/// use tpal_core::program::ProgramBuilder;
/// use tpal_core::isa::{Instr, Operand};
///
/// let mut b = ProgramBuilder::new();
/// let halt = b.label("done");
/// let r = b.reg("r");
/// b.block("done", vec![Instr::Move { dst: r, src: Operand::Int(1) }, Instr::Halt]);
/// let program = b.build().expect("valid");
/// assert_eq!(program.entry(), halt);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    /// Indexed by [`Label::index`]; `None` until the block is defined.
    blocks: Vec<Option<Block>>,
    labels: Interner,
    regs: Interner,
    entry: Option<Label>,
    /// The first block defined: the default entry.
    first: Option<Label>,
    /// The first label defined a second time, reported by `build`.
    duplicate: Option<Label>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Interns (or retrieves) a label by name. Labels may be referenced
    /// before their blocks are defined.
    pub fn label(&mut self, name: &str) -> Label {
        let l = Label(self.labels.intern(name));
        if l.index() == self.blocks.len() {
            self.blocks.push(None);
        }
        l
    }

    /// Interns (or retrieves) a register by name.
    pub fn reg(&mut self, name: &str) -> Reg {
        Reg(self.regs.intern(name))
    }

    /// Defines a block with no annotation.
    ///
    /// Returns the block's label. Defining the same label twice is an error
    /// reported by [`build`](Self::build).
    pub fn block(&mut self, name: &str, instrs: Vec<Instr>) -> Label {
        self.annotated_block(name, Annotation::None, instrs)
    }

    /// Defines a block with an annotation.
    pub fn annotated_block(
        &mut self,
        name: &str,
        annotation: Annotation,
        instrs: Vec<Instr>,
    ) -> Label {
        let l = self.label(name);
        self.define(l, annotation, instrs);
        l
    }

    /// Defines the block of a label this builder interned (what
    /// [`annotated_block`](Self::annotated_block) does once it has
    /// looked the name up).
    ///
    /// # Panics
    ///
    /// If `l` is not one of this builder's labels.
    pub fn define(&mut self, l: Label, annotation: Annotation, instrs: Vec<Instr>) {
        self.first.get_or_insert(l);
        match &mut self.blocks[l.index()] {
            Some(_) => {
                self.duplicate.get_or_insert(l);
            }
            slot => *slot = Some(Block { annotation, instrs }),
        }
    }

    /// Overrides the entry block (defaults to the first block defined).
    pub fn entry(&mut self, label: Label) -> &mut Self {
        self.entry = Some(label);
        self
    }

    /// Validates and produces the program.
    ///
    /// # Errors
    ///
    /// Returns the first [`ValidationError`] found: undefined or duplicate
    /// labels, empty blocks, missing or early terminators, `prppt` handlers
    /// that do not exist, or `jralloc` continuations that are not `jtppt`
    /// blocks.
    pub fn build(self) -> Result<Program, ValidationError> {
        let ProgramBuilder {
            blocks: opt_blocks,
            labels,
            regs,
            entry,
            first,
            duplicate,
        } = self;
        if opt_blocks.is_empty() {
            return Err(ValidationError::NoBlocks);
        }
        let block_name = |l: Label| labels.name(l.0);
        if let Some(l) = duplicate {
            return Err(ValidationError::DuplicateLabel {
                label: block_name(l).to_owned(),
            });
        }
        // All referenced labels must be defined; take blocks by value.
        let mut blocks = Vec::with_capacity(opt_blocks.len());
        for (i, b) in opt_blocks.into_iter().enumerate() {
            match b {
                Some(b) => blocks.push(b),
                None => {
                    return Err(ValidationError::UndefinedLabel {
                        label: block_name(Label(i as u32)).to_owned(),
                        in_block: "<program>".to_owned(),
                    })
                }
            }
        }

        for (i, block) in blocks.iter().enumerate() {
            let here = Label(i as u32);
            if block.instrs.is_empty() {
                return Err(ValidationError::EmptyBlock {
                    block: block_name(here).to_owned(),
                });
            }
            let last = block.instrs.len() - 1;
            for (j, instr) in block.instrs.iter().enumerate() {
                if j < last && instr.is_terminator() {
                    return Err(ValidationError::EarlyTerminator {
                        block: block_name(here).to_owned(),
                        index: j,
                    });
                }
            }
            if !block.instrs[last].is_terminator() {
                return Err(ValidationError::MissingTerminator {
                    block: block_name(here).to_owned(),
                });
            }
            // jralloc continuations must be join targets.
            for instr in &block.instrs {
                if let Instr::JrAlloc {
                    cont: Operand::Label(k),
                    ..
                } = instr
                {
                    if !matches!(blocks[k.index()].annotation, Annotation::JoinTarget { .. }) {
                        return Err(ValidationError::ContinuationNotJoinTarget {
                            label: block_name(*k).to_owned(),
                            in_block: block_name(here).to_owned(),
                        });
                    }
                }
            }
            if let Annotation::PromotionReady { handler } = block.annotation {
                if handler.index() >= blocks.len() {
                    return Err(ValidationError::UndefinedHandler {
                        label: format!("#{}", handler.index()),
                        in_block: block_name(here).to_owned(),
                    });
                }
            }
        }

        let entry = entry.or(first).ok_or(ValidationError::NoBlocks)?;

        Ok(Program {
            blocks,
            labels,
            regs,
            entry,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Instr, Operand};

    fn halt_block(b: &mut ProgramBuilder, name: &str) {
        b.block(name, vec![Instr::Halt]);
    }

    #[test]
    fn build_minimal() {
        let mut b = ProgramBuilder::new();
        halt_block(&mut b, "main");
        let p = b.build().expect("valid program");
        assert_eq!(p.block_count(), 1);
        assert_eq!(p.label_name(p.entry()), "main");
        assert_eq!(p.instr_count(), 1);
    }

    #[test]
    fn undefined_label_rejected() {
        let mut b = ProgramBuilder::new();
        let missing = b.label("missing");
        b.block(
            "main",
            vec![Instr::Jump {
                target: Operand::Label(missing),
            }],
        );
        assert!(matches!(
            b.build(),
            Err(ValidationError::UndefinedLabel { .. })
        ));
    }

    #[test]
    fn empty_program_rejected() {
        assert_eq!(
            ProgramBuilder::new().build().unwrap_err(),
            ValidationError::NoBlocks
        );
    }

    #[test]
    fn empty_block_rejected() {
        let mut b = ProgramBuilder::new();
        b.block("main", vec![]);
        assert!(matches!(b.build(), Err(ValidationError::EmptyBlock { .. })));
    }

    #[test]
    fn missing_terminator_rejected() {
        let mut b = ProgramBuilder::new();
        let r = b.reg("r");
        b.block(
            "main",
            vec![Instr::Move {
                dst: r,
                src: Operand::Int(0),
            }],
        );
        assert!(matches!(
            b.build(),
            Err(ValidationError::MissingTerminator { .. })
        ));
    }

    #[test]
    fn early_terminator_rejected() {
        let mut b = ProgramBuilder::new();
        b.block("main", vec![Instr::Halt, Instr::Halt]);
        assert!(matches!(
            b.build(),
            Err(ValidationError::EarlyTerminator { index: 0, .. })
        ));
    }

    #[test]
    fn duplicate_label_rejected() {
        let mut b = ProgramBuilder::new();
        halt_block(&mut b, "main");
        halt_block(&mut b, "main");
        assert!(matches!(
            b.build(),
            Err(ValidationError::DuplicateLabel { .. })
        ));
    }

    #[test]
    fn jralloc_requires_join_target() {
        let mut b = ProgramBuilder::new();
        let exit = b.label("exit");
        let jr = b.reg("jr");
        b.block(
            "main",
            vec![
                Instr::JrAlloc {
                    dst: jr,
                    cont: Operand::Label(exit),
                },
                Instr::Halt,
            ],
        );
        b.block("exit", vec![Instr::Halt]);
        assert!(matches!(
            b.build(),
            Err(ValidationError::ContinuationNotJoinTarget { .. })
        ));
    }

    #[test]
    fn interner_numbers_names_in_order_and_finds_them_again() {
        let mut names = Interner::default();
        assert_eq!(names.get("x"), None, "an empty table finds nothing");
        // Past several growths of the table; adjacent names share a
        // buffer, so neither prefixes nor concatenations may be confused.
        let spelled: Vec<String> = (0..500).map(|i| format!("main.%t{i}")).collect();
        for (i, name) in spelled.iter().enumerate() {
            assert_eq!(names.intern(name), i as u32);
        }
        for extra in ["", "main", "main.%t", "main.%t1main.%t2", "%t12"] {
            assert_eq!(names.get(extra), None, "{extra:?} was never interned");
        }
        assert_eq!(names.intern(""), 500);
        assert_eq!(names.len(), 501);
        for (i, name) in spelled.iter().enumerate() {
            assert_eq!(names.get(name), Some(i as u32));
            assert_eq!(names.intern(name), i as u32, "interning again is a lookup");
            assert_eq!(names.name(i as u32), name);
        }
        assert_eq!(names.name(500), "");
        let copy = names.clone();
        assert_eq!(copy.get("main.%t499"), Some(499));
    }

    #[test]
    fn interning_is_stable() {
        let mut b = ProgramBuilder::new();
        let r1 = b.reg("x");
        let r2 = b.reg("x");
        assert_eq!(r1, r2);
        let l1 = b.label("loop");
        let l2 = b.label("loop");
        assert_eq!(l1, l2);
    }

    #[test]
    fn entry_override() {
        let mut b = ProgramBuilder::new();
        halt_block(&mut b, "a");
        let second = b.label("b");
        halt_block(&mut b, "b");
        b.entry(second);
        let p = b.build().unwrap();
        assert_eq!(p.label_name(p.entry()), "b");
    }

    #[test]
    fn validation_error_display() {
        let e = ValidationError::UndefinedLabel {
            label: "x".into(),
            in_block: "m".into(),
        };
        assert_eq!(e.to_string(), "undefined label `x` referenced in block `m`");
    }
}
