//! Single-step task semantics: the sequential transitions of Figures 29
//! and 31, plus fork/join effects surfaced to the executor.
//!
//! This is the *micro* interface of the machine. An executor (the
//! [`crate::machine::Machine`] here, or the `tpal-sim` multicore
//! simulator) owns a set of [`TaskState`]s and the shared [`Stores`], and
//! repeatedly:
//!
//! 1. at a promotion-ready program point
//!    ([`TaskState::at_promotion_point`]) with a heartbeat due — per its
//!    [`crate::machine::Beats`] source, or an external interrupt —
//!    diverts to the handler ([`TaskState::divert_to_handler`]);
//! 2. calls [`step_task`] to execute one instruction;
//! 3. reacts to the returned [`StepOutcome`] — scheduling forked children
//!    and resolving joins with [`resolve_join`].

use crate::cost::CostGraph;
use crate::isa::{Annotation, BinOp, Instr, Label, Operand, Reg};
use crate::machine::channel::ChannelStore;
use crate::machine::heap::{Heap, MAX_HEAP_WORDS};
use crate::machine::join::{Assoc, JoinId, JoinOutcome, JoinStore, Stash};
use crate::machine::stack::StackStore;
use crate::machine::value::{MachineError, RegFile, Value};
use crate::program::Program;

/// The shared mutable state of a machine: stacks and join records.
///
/// (The formal model's heap `H` also contains code blocks; those are the
/// immutable [`Program`].)
#[derive(Debug)]
pub struct Stores {
    /// Task stacks.
    pub stacks: StackStore,
    /// Join records and the fork tree.
    pub joins: JoinStore,
    /// The shared heap.
    pub heap: Heap,
    /// Bounded FIFO channels.
    pub channels: ChannelStore,
}

impl Default for Stores {
    fn default() -> Self {
        Stores {
            stacks: StackStore::new(),
            joins: JoinStore::new(),
            heap: Heap::new(),
            channels: ChannelStore::new(),
        }
    }
}

impl Stores {
    /// Creates empty stores.
    pub fn new() -> Self {
        Stores::default()
    }
}

/// The state of one task: program counter, heartbeat cycle counter `⋄`,
/// private register file, fork-tree associations, and cost counters.
#[derive(Debug, Clone)]
pub struct TaskState {
    /// Current block.
    pub block: Label,
    /// Index of the next instruction within the block.
    pub instr: usize,
    /// Heartbeat cycle counter `⋄`: instructions since the last heartbeat
    /// event on this task.
    pub cycles: u64,
    /// The task-private register file.
    pub regs: RegFile,
    /// Fork-tree association per join record this task participates in.
    pub assocs: Vec<(JoinId, Assoc)>,
    /// Work accumulated since this task's side of its most recent fork.
    pub rel_work: u64,
    /// Span accumulated since this task's side of its most recent fork.
    pub rel_span: u64,
    /// Explicit cost-graph accumulator, when graph building is enabled
    /// (`None` costs nothing; executors that do not need graphs — the
    /// simulator — leave it off).
    pub cost: Option<TaskCost>,
    /// Whether this task is *detached* (spawned by `detach`): it has no
    /// join edge, its `halt` retires only itself, and the executor
    /// tracks it in the detached-task quiescence counter.
    pub detached: bool,
}

/// The cost-graph accumulator of one task: a structured prefix plus a
/// run-length-compressed count of sequential steps since the last
/// structural event.
#[derive(Debug, Clone)]
pub struct TaskCost {
    /// Graph of everything before the pending steps.
    pub prefix: CostGraph,
    /// Unit steps executed since `prefix`.
    pub steps: u64,
}

impl TaskCost {
    /// A fresh, empty accumulator.
    pub fn new() -> TaskCost {
        TaskCost {
            prefix: CostGraph::Empty,
            steps: 0,
        }
    }

    /// Flushes pending steps into the structured prefix and returns the
    /// whole graph.
    pub fn flush(&mut self) -> CostGraph {
        let mut g = std::mem::replace(&mut self.prefix, CostGraph::Empty);
        if self.steps > 0 {
            g = g.then(CostGraph::Steps(self.steps));
            self.steps = 0;
        }
        g
    }
}

impl Default for TaskCost {
    fn default() -> Self {
        TaskCost::new()
    }
}

impl TaskState {
    /// Creates the initial task of a program, positioned at `entry`.
    pub fn new(program: &Program, entry: Label) -> Self {
        TaskState {
            block: entry,
            instr: 0,
            cycles: 0,
            regs: RegFile::new(program.reg_count()),
            assocs: Vec::new(),
            rel_work: 0,
            rel_span: 0,
            cost: None,
            detached: false,
        }
    }

    /// Looks up this task's association on a join record.
    pub fn assoc(&self, j: JoinId) -> Option<Assoc> {
        self.assocs
            .iter()
            .find(|&&(id, _)| id == j)
            .map(|&(_, a)| a)
    }

    fn set_assoc(&mut self, j: JoinId, a: Assoc) {
        if let Some(slot) = self.assocs.iter_mut().find(|(id, _)| *id == j) {
            slot.1 = a;
        } else {
            self.assocs.push((j, a));
        }
    }

    fn remove_assoc(&mut self, j: JoinId) {
        self.assocs.retain(|&(id, _)| id != j);
    }

    /// Repositions the task at the start of `block`.
    pub fn goto(&mut self, block: Label) {
        self.block = block;
        self.instr = 0;
    }

    /// If the task is at the entry of a promotion-ready block, returns the
    /// handler label of its `prppt` annotation.
    pub fn at_promotion_point(&self, program: &Program) -> Option<Label> {
        if self.instr == 0 {
            program.block(self.block).annotation.handler()
        } else {
            None
        }
    }

    /// Diverts control to `handler` and resets the cycle counter, as the
    /// `[try-promote]` rule does. The caller must have checked
    /// [`Self::at_promotion_point`].
    pub fn divert_to_handler(&mut self, handler: Label) {
        self.goto(handler);
        self.cycles = 0;
    }

    pub(crate) fn read_operand(&self, v: Operand) -> Result<Value, MachineError> {
        match v {
            Operand::Reg(r) => self.regs.read(r),
            Operand::Label(l) => Ok(Value::Label(l)),
            Operand::Int(n) => Ok(Value::Int(n)),
        }
    }

    pub(crate) fn jump_target(&self, v: Operand) -> Result<Label, MachineError> {
        match self.read_operand(v)? {
            Value::Label(l) => Ok(l),
            other => Err(MachineError::JumpToNonLabel { got: other.kind() }),
        }
    }

    pub(crate) fn stack_reg(
        &self,
        r: Reg,
    ) -> Result<crate::machine::stack::StackRef, MachineError> {
        self.regs.read(r)?.as_stack()
    }
}

/// The observable effect of executing one instruction.
#[derive(Debug)]
pub enum StepOutcome {
    /// An ordinary instruction ran; the task continues.
    Ran,
    /// `halt`: the whole machine terminates.
    Halted,
    /// `fork`: a child task was created and must be scheduled; the parent
    /// continues.
    Forked {
        /// The new child task, positioned at the fork's target block.
        child: Box<TaskState>,
    },
    /// `join`: the task entered join resolution on the given record; the
    /// executor must call [`resolve_join`].
    Joined {
        /// The join record.
        jr: JoinId,
    },
    /// `detach`: a free-running child task was created and must be
    /// scheduled; it has no join edge, and the executor should count it
    /// in its detached-task quiescence counter. The parent continues.
    Detached {
        /// The new detached task, positioned at the detach target.
        child: Box<TaskState>,
    },
    /// `chpush` appended an item: the executor should wake one task
    /// parked popping on this channel, if any.
    ChanPushed {
        /// The channel identifier.
        ch: i64,
    },
    /// `chpop` removed an item: the executor should wake one task parked
    /// pushing on this channel, if any.
    ChanPopped {
        /// The channel identifier.
        ch: i64,
    },
    /// `chclose` closed the channel: the executor should wake *every*
    /// task parked on it (poppers drain then fault; pushers fault).
    ChanClosed {
        /// The channel identifier.
        ch: i64,
    },
    /// `chpush` on a full channel or `chpop` on an empty open channel:
    /// the task did **not** step — no counter advanced, the position
    /// still names the channel instruction — and the executor must park
    /// it until a partner's [`StepOutcome::ChanPushed`],
    /// [`StepOutcome::ChanPopped`], or [`StepOutcome::ChanClosed`] wakes
    /// it to retry.
    ChanBlocked {
        /// The channel identifier.
        ch: i64,
        /// `true` for a blocked push (channel full), `false` for a
        /// blocked pop (channel empty).
        push: bool,
    },
}

/// A primitive binary operation on two integers (wrapping arithmetic,
/// zero-is-true comparisons). `None` only for a zero divisor: no other
/// pair of integers faults.
#[inline(always)]
pub(crate) fn int_binop(op: BinOp, a: i64, b: i64) -> Option<i64> {
    use BinOp::*;
    let truth = |b: bool| (!b) as i64; // 0 = true
    Some(match op {
        Add => a.wrapping_add(b),
        Sub => a.wrapping_sub(b),
        Mul => a.wrapping_mul(b),
        Div => {
            if b == 0 {
                return None;
            }
            a.wrapping_div(b)
        }
        Mod => {
            if b == 0 {
                return None;
            }
            a.wrapping_rem(b)
        }
        Lt => truth(a < b),
        Le => truth(a <= b),
        Gt => truth(a > b),
        Ge => truth(a >= b),
        EqOp => truth(a == b),
        Ne => truth(a != b),
        And => a & b,
        Or => a | b,
        Xor => a ^ b,
        Shl => a.wrapping_shl((b & 63) as u32),
        Shr => a.wrapping_shr((b & 63) as u32),
        Min => a.min(b),
        Max => a.max(b),
    })
}

/// Evaluates a primitive binary operation (`[binop]`, plus the pointer
/// arithmetic used by the stack extension).
#[inline]
pub fn eval_binop(op: BinOp, lhs: Value, rhs: Value) -> Result<Value, MachineError> {
    use BinOp::*;
    let bool_to_val = |b: bool| Value::Int(if b { 0 } else { 1 }); // 0 = true
    match (lhs, rhs) {
        (Value::Int(a), Value::Int(b)) => int_binop(op, a, b)
            .map(Value::Int)
            .ok_or(MachineError::DivisionByZero),
        // Stack-pointer arithmetic: `sp + n` moves deeper, `sp - n`
        // shallower (see module docs of `stack`).
        (Value::Stack(s), Value::Int(n)) if op == Add => Ok(Value::Stack(s.deeper(n))),
        (Value::Stack(s), Value::Int(n)) if op == Sub => Ok(Value::Stack(s.shallower(n))),
        // Equality is defined on any pair of values of the same kind.
        (a, b) if op == EqOp => Ok(bool_to_val(a == b)),
        (a, b) if op == Ne => Ok(bool_to_val(a != b)),
        (a, b) => Err(MachineError::UnsupportedOperands {
            op,
            lhs: a.kind(),
            rhs: b.kind(),
        }),
    }
}

/// Executes one *plain* instruction: any instruction that is neither a
/// control boundary (`halt`, `fork`, `join`) nor an allocation against a
/// globally ordered store (`jralloc`, `snew`, `halloc`).
///
/// Plain instructions only touch the task's own registers, its stack
/// cells, and heap cells — effects whose fine-grained interleaving across
/// cores is unobservable for data-race-free programs. That property is
/// what lets [`run_task_until`] execute runs of them without returning to
/// the scheduler.
///
/// Executes one plain instruction, advancing `task.instr` past it first
/// (jumps then overwrite the position), and returns `Ok(true)`. If
/// `instr` is a *boundary* — it transfers control between tasks (`halt`,
/// `fork`, `join`) or allocates from a store whose allocation order is
/// observable in results (`jralloc` issues [`JoinId`]s, `snew` issues
/// stack ids, `halloc` issues heap base addresses) — nothing is touched
/// and the result is `Ok(false)`; folding that test into the dispatch
/// keeps the batched executor at exactly one match per instruction.
/// Cycle/cost counters are the caller's job.
#[inline]
pub(crate) fn exec_plain(
    task: &mut TaskState,
    stores: &mut Stores,
    instr: &Instr,
) -> Result<bool, MachineError> {
    match *instr {
        Instr::Move { dst, src } => {
            task.instr += 1;
            let v = task.read_operand(src)?;
            task.regs.write(dst, v);
        }
        Instr::Op { dst, op, lhs, rhs } => {
            task.instr += 1;
            let l = task.regs.read(lhs)?;
            let r = task.read_operand(rhs)?;
            task.regs.write(dst, eval_binop(op, l, r)?);
        }
        Instr::IfJump { cond, target } => {
            task.instr += 1;
            if task.regs.read(cond)?.is_true() {
                let l = task.jump_target(target)?;
                task.goto(l);
            }
        }
        Instr::Jump { target } => {
            task.instr += 1;
            let l = task.jump_target(target)?;
            task.goto(l);
        }
        Instr::SAlloc { sp, n } => {
            task.instr += 1;
            let cur = task.stack_reg(sp)?;
            let new = stores.stacks.salloc(cur, n)?;
            task.regs.write(sp, Value::Stack(new));
        }
        Instr::SFree { sp, n } => {
            task.instr += 1;
            let cur = task.stack_reg(sp)?;
            let new = stores.stacks.sfree(cur, n)?;
            task.regs.write(sp, Value::Stack(new));
        }
        Instr::Load { dst, addr } => {
            task.instr += 1;
            let sp = task.stack_reg(addr.base)?;
            let v = stores.stacks.load(sp, addr.offset)?;
            task.regs.write(dst, v);
        }
        Instr::Store { addr, src } => {
            task.instr += 1;
            let sp = task.stack_reg(addr.base)?;
            let v = task.read_operand(src)?;
            stores.stacks.store(sp, addr.offset, v)?;
        }
        Instr::PrmPush { addr } => {
            task.instr += 1;
            let sp = task.stack_reg(addr.base)?;
            stores.stacks.prmpush(sp, addr.offset)?;
        }
        Instr::PrmPop { addr } => {
            task.instr += 1;
            let sp = task.stack_reg(addr.base)?;
            stores.stacks.prmpop(sp, addr.offset)?;
        }
        Instr::PrmEmpty { dst, sp } => {
            task.instr += 1;
            let spv = task.stack_reg(sp)?;
            let v = stores.stacks.prmempty(spv)?;
            task.regs.write(dst, v);
        }
        Instr::PrmSplit { sp, dst } => {
            task.instr += 1;
            let spv = task.stack_reg(sp)?;
            let off = stores.stacks.prmsplit(spv)?;
            task.regs.write(dst, Value::Int(off));
        }
        Instr::HLoad { dst, base, offset } => {
            task.instr += 1;
            let b = task.regs.read(base)?.as_int()?;
            let off = task.read_operand(offset)?.as_int()?;
            let v = stores.heap.load(b, off)?;
            task.regs.write(dst, Value::Int(v));
        }
        Instr::HStore { base, offset, src } => {
            task.instr += 1;
            let b = task.regs.read(base)?.as_int()?;
            let off = task.read_operand(offset)?.as_int()?;
            let v = task.read_operand(src)?.as_int()?;
            stores.heap.store(b, off, v)?;
        }
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
        | Instr::Detach { .. } => return Ok(false),
    }
    Ok(true)
}

/// Why [`run_task_until`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunPause {
    /// `max_steps` instructions were executed.
    Quantum,
    /// The *next* instruction is a scheduling or allocation boundary
    /// (`halt`, `fork`, `join`, `jralloc`, `snew`, `halloc`, the channel
    /// ops, `detach`); it was not executed. The caller should run it
    /// with [`step_task`].
    Boundary,
    /// `watch_promotion` was set and the task arrived at the entry of a
    /// promotion-ready block; nothing at that point was executed. The
    /// caller should deliver the pending heartbeat
    /// ([`TaskState::divert_to_handler`]).
    PromotionReady,
}

/// Executes a run of consecutive plain instructions of `task`, stopping
/// early at scheduling-relevant points.
///
/// Semantically identical to calling [`step_task`] in a loop, but without
/// the per-instruction outcome dispatch — executors use it to batch the
/// long straight-line stretches between forks, joins and heartbeats. The
/// run ends when, in priority order:
///
/// 1. `watch_promotion` is set and the task sits at a promotion-ready
///    block entry ([`RunPause::PromotionReady`]) — checked *before* each
///    instruction, so a pending heartbeat is delivered at exactly the
///    program point where [`step_task`]-per-cycle execution would deliver
///    it;
/// 2. the next instruction is a boundary ([`RunPause::Boundary`]) — it is
///    left unexecuted for the caller;
/// 3. `max_steps` instructions have run ([`RunPause::Quantum`]).
///
/// Returns the number of instructions executed (each counted in the
/// task's cycle/work/span/cost counters exactly as [`step_task`] counts
/// them) and the reason for stopping.
///
/// # Errors
///
/// Any [`MachineError`] raised by a transition rule; counters include the
/// faulting instruction, matching [`step_task`].
pub fn run_task_until(
    program: &Program,
    task: &mut TaskState,
    stores: &mut Stores,
    max_steps: u64,
    watch_promotion: bool,
) -> Result<(u64, RunPause), MachineError> {
    // The block lookup is hoisted out of the loop: a plain instruction
    // changes `task.block` only through a jump, so the instruction slice
    // is reloaded only when the label actually changes. Counters are
    // batched into one addition per run (no plain instruction reads
    // them), keeping the hot loop to fetch + dispatch.
    let mut steps = 0u64;
    let mut cur = task.block;
    let mut instrs: &[Instr] = &program.block(cur).instrs;
    let result = loop {
        if steps >= max_steps {
            break Ok(RunPause::Quantum);
        }
        if task.block != cur {
            cur = task.block;
            instrs = &program.block(cur).instrs;
        }
        if watch_promotion && task.instr == 0 && program.block(cur).annotation.handler().is_some() {
            break Ok(RunPause::PromotionReady);
        }
        match exec_plain(task, stores, &instrs[task.instr]) {
            Ok(true) => steps += 1,
            Ok(false) => break Ok(RunPause::Boundary),
            Err(e) => {
                // The faulting instruction counts, as in `step_task`.
                steps += 1;
                break Err(e);
            }
        }
    };
    task.cycles += steps;
    task.rel_work += steps;
    task.rel_span += steps;
    if let Some(c) = &mut task.cost {
        c.steps += steps;
    }
    result.map(|pause| (steps, pause))
}

/// Executes one instruction of `task`.
///
/// Increments the task's cycle and cost counters, then applies the
/// matching transition rule. Control-relevant effects (`halt`, `fork`,
/// `join`) are surfaced in the returned [`StepOutcome`].
///
/// # Errors
///
/// Any [`MachineError`] raised by the transition rules; the task should be
/// considered faulted and the machine stopped.
pub fn step_task(
    program: &Program,
    task: &mut TaskState,
    stores: &mut Stores,
) -> Result<StepOutcome, MachineError> {
    task.cycles += 1;
    task.rel_work += 1;
    task.rel_span += 1;
    if let Some(c) = &mut task.cost {
        c.steps += 1;
    }

    let block = program.block(task.block);
    let instr = block.instrs[task.instr];

    // Each arm advances past the instruction first; jumps overwrite the
    // position. (Plain instructions advance inside `exec_plain`.)
    match instr {
        Instr::Halt => {
            task.instr += 1;
            Ok(StepOutcome::Halted)
        }
        Instr::JrAlloc { dst, cont } => {
            task.instr += 1;
            let l = task.jump_target(cont)?;
            let j = stores.joins.alloc(l);
            task.regs.write(dst, Value::Join(j));
            Ok(StepOutcome::Ran)
        }
        Instr::Fork { jr, target } => {
            task.instr += 1;
            let j = task.regs.read(jr)?.as_join()?;
            let l = task.jump_target(target)?;
            let current = task.assoc(j).unwrap_or(Assoc::Root);
            // Snapshot the forking task's cost prefix (including the fork
            // instruction itself) at the new tree node, then restart both
            // sides' counters, per the cost semantics of Figure 28.
            let prefix_graph = task.cost.as_mut().map(TaskCost::flush);
            let (pa, ca) =
                stores
                    .joins
                    .fork(j, current, task.rel_work, task.rel_span, prefix_graph);
            task.set_assoc(j, pa);
            task.rel_work = 0;
            task.rel_span = 0;
            task.cycles = 0;

            let mut child = TaskState {
                block: l,
                instr: 0,
                cycles: 0,
                regs: task.regs.clone(),
                assocs: vec![(j, ca)],
                rel_work: 0,
                rel_span: 0,
                cost: task.cost.as_ref().map(|_| TaskCost::new()),
                detached: task.detached,
            };
            child.goto(l);
            Ok(StepOutcome::Forked {
                child: Box::new(child),
            })
        }
        Instr::Detach { target } => {
            task.instr += 1;
            let l = task.jump_target(target)?;
            // Like fork, the child copies the parent's register file; but
            // it gets no join edge and no fork-tree association — its
            // lifetime ends at its own `halt`.
            let child = TaskState {
                block: l,
                instr: 0,
                cycles: 0,
                regs: task.regs.clone(),
                assocs: Vec::new(),
                rel_work: 0,
                rel_span: 0,
                cost: task.cost.as_ref().map(|_| TaskCost::new()),
                detached: true,
            };
            Ok(StepOutcome::Detached {
                child: Box::new(child),
            })
        }
        Instr::Join { jr } => {
            task.instr += 1;
            let j = task.regs.read(jr)?.as_join()?;
            Ok(StepOutcome::Joined { jr: j })
        }
        Instr::SNew { dst } => {
            task.instr += 1;
            let sp = stores.stacks.snew();
            task.regs.write(dst, Value::Stack(sp));
            Ok(StepOutcome::Ran)
        }
        Instr::HAlloc { dst, size } => {
            task.instr += 1;
            let n = task.read_operand(size)?.as_int()?;
            if n < 0 {
                return Err(MachineError::HeapOutOfRange { addr: n });
            }
            if n as usize > MAX_HEAP_WORDS.saturating_sub(stores.heap.len()) {
                return Err(MachineError::HeapExhausted { words: n });
            }
            let base = stores.heap.alloc(n as usize);
            task.regs.write(dst, Value::Int(base));
            Ok(StepOutcome::Ran)
        }
        Instr::ChMake { dst, cap } => {
            task.instr += 1;
            let n = task.read_operand(cap)?.as_int()?;
            if n < 1 {
                return Err(MachineError::BadChannelCapacity { cap: n });
            }
            let id = stores.channels.make(n as usize);
            task.regs.write(dst, Value::Int(id));
            Ok(StepOutcome::Ran)
        }
        Instr::ChPush { ch, src } => {
            let id = task.regs.read(ch)?.as_int()?;
            let v = task.read_operand(src)?.as_int()?;
            let c = stores.channels.get_mut(id)?;
            if c.closed {
                return Err(MachineError::ChannelClosed);
            }
            if c.is_full() {
                // Blocked: the attempt is not a step. Undo the counters
                // charged above and stay at this instruction; the
                // executor parks the task and retries after a wake, so
                // cycle/work/span totals stay schedule-independent.
                task.cycles -= 1;
                task.rel_work -= 1;
                task.rel_span -= 1;
                if let Some(c) = &mut task.cost {
                    c.steps -= 1;
                }
                return Ok(StepOutcome::ChanBlocked { ch: id, push: true });
            }
            c.buf.push_back(v);
            c.pushed += 1;
            c.max_occupancy = c.max_occupancy.max(c.buf.len());
            task.instr += 1;
            Ok(StepOutcome::ChanPushed { ch: id })
        }
        Instr::ChPop { dst, ch } => {
            let id = task.regs.read(ch)?.as_int()?;
            let c = stores.channels.get_mut(id)?;
            match c.buf.pop_front() {
                Some(v) => {
                    c.popped += 1;
                    task.instr += 1;
                    task.regs.write(dst, Value::Int(v));
                    Ok(StepOutcome::ChanPopped { ch: id })
                }
                // Closed and drained: pop faults, deterministically.
                None if c.closed => Err(MachineError::ChannelClosed),
                None => {
                    task.cycles -= 1;
                    task.rel_work -= 1;
                    task.rel_span -= 1;
                    if let Some(c) = &mut task.cost {
                        c.steps -= 1;
                    }
                    Ok(StepOutcome::ChanBlocked {
                        ch: id,
                        push: false,
                    })
                }
            }
        }
        Instr::ChClose { ch } => {
            task.instr += 1;
            let id = task.regs.read(ch)?.as_int()?;
            stores.channels.get_mut(id)?.closed = true;
            Ok(StepOutcome::ChanClosed { ch: id })
        }
        ref plain => {
            exec_plain(task, stores, plain)?;
            Ok(StepOutcome::Ran)
        }
    }
}

/// The result of [`resolve_join`].
#[derive(Debug)]
pub enum JoinResolution {
    /// The task was first at its join point; it stashed its state and is
    /// gone.
    TaskDied,
    /// The task was second: the pair merged, and the returned task resumes
    /// at the record's combining block.
    Merged(Box<TaskState>),
    /// The task was at the root: the record completed and the task resumes
    /// at the record's continuation label.
    Completed(Box<TaskState>),
}

/// Performs join resolution for a task that just executed `join jr`
/// (rules `[join-block]`, `[join-continue]`, and the merge step of
/// `[fork]` in Figure 30).
///
/// `tau` is the fork-join cost weight `τ` added to the merged task's work
/// and span, per the cost semantics.
///
/// # Errors
///
/// [`MachineError::JoinWithoutFork`] if the task has no registered
/// dependency on `jr`; [`MachineError::JoinNotReady`] on a premature root
/// join; a type error if the record's continuation block lacks a `jtppt`
/// annotation.
pub fn resolve_join(
    program: &Program,
    mut task: TaskState,
    jr: JoinId,
    stores: &mut Stores,
    tau: u64,
) -> Result<JoinResolution, MachineError> {
    let assoc = task.assoc(jr).ok_or(MachineError::JoinWithoutFork)?;
    match assoc {
        Assoc::Root => {
            let outcome = stores.joins.join(
                jr,
                Assoc::Root,
                Stash {
                    regs: RegFile::new(0),
                    rel_work: 0,
                    rel_span: 0,
                    assocs: Vec::new(),
                    graph: None,
                    detached: false,
                },
            )?;
            match outcome {
                JoinOutcome::Continue { cont } => {
                    task.remove_assoc(jr);
                    task.goto(cont);
                    Ok(JoinResolution::Completed(Box::new(task)))
                }
                other => unreachable!("root join produced {other:?}"),
            }
        }
        node_assoc => {
            let mut assocs = task.assocs.clone();
            assocs.retain(|&(id, _)| id != jr);
            let stash = Stash {
                regs: task.regs,
                rel_work: task.rel_work,
                rel_span: task.rel_span,
                assocs,
                graph: task.cost.as_mut().map(TaskCost::flush),
                detached: task.detached,
            };
            match stores.joins.join(jr, node_assoc, stash)? {
                JoinOutcome::Stashed => Ok(JoinResolution::TaskDied),
                JoinOutcome::Merge {
                    mut parent,
                    mut child,
                    up,
                    prefix,
                    prefix_graph,
                    cont,
                } => {
                    let (delta, comb) = match &program.block(cont).annotation {
                        Annotation::JoinTarget { merge, comb, .. } => (merge, *comb),
                        _ => {
                            return Err(MachineError::TypeError {
                                expected: "join-target (jtppt) continuation block",
                                got: "plain block",
                            })
                        }
                    };
                    let regs = RegFile::merge(&parent.regs, &child.regs, delta);
                    let assocs = JoinStore::merge_assocs(jr, up, &parent.assocs, &child.assocs);
                    // Explicit graph: prefix · (parent ∥ child), the τ
                    // weight being applied at evaluation of the Par node.
                    let cost = match (prefix_graph, parent.graph.take(), child.graph.take()) {
                        (Some(pg), Some(a), Some(b)) => Some(TaskCost {
                            prefix: pg.then(a.beside(b)),
                            steps: 0,
                        }),
                        _ => None,
                    };
                    let merged = TaskState {
                        block: comb,
                        instr: 0,
                        cycles: 0,
                        regs,
                        assocs,
                        rel_work: prefix.0 + parent.rel_work + child.rel_work + tau,
                        rel_span: prefix.1 + parent.rel_span.max(child.rel_span) + tau,
                        cost,
                        detached: parent.detached || child.detached,
                    };
                    Ok(JoinResolution::Merged(Box::new(merged)))
                }
                JoinOutcome::Continue { .. } => unreachable!("node join continued"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;

    #[test]
    fn binop_truth_encoding() {
        assert_eq!(
            eval_binop(BinOp::Lt, Value::Int(1), Value::Int(2)).unwrap(),
            Value::Int(0) // true
        );
        assert_eq!(
            eval_binop(BinOp::Lt, Value::Int(2), Value::Int(1)).unwrap(),
            Value::Int(1) // false
        );
        assert_eq!(
            eval_binop(BinOp::EqOp, Value::Int(3), Value::Int(3)).unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn binop_division_by_zero() {
        assert_eq!(
            eval_binop(BinOp::Div, Value::Int(1), Value::Int(0)),
            Err(MachineError::DivisionByZero)
        );
        assert_eq!(
            eval_binop(BinOp::Mod, Value::Int(1), Value::Int(0)),
            Err(MachineError::DivisionByZero)
        );
    }

    #[test]
    fn binop_wrapping_semantics() {
        assert_eq!(
            eval_binop(BinOp::Add, Value::Int(i64::MAX), Value::Int(1)).unwrap(),
            Value::Int(i64::MIN)
        );
        assert_eq!(
            eval_binop(BinOp::Shl, Value::Int(1), Value::Int(64)).unwrap(),
            Value::Int(1) // shift masked to 0
        );
    }

    #[test]
    fn binop_pointer_arithmetic() {
        let sp = Value::Stack(crate::machine::stack::StackRef {
            stack: crate::machine::stack::StackId(0),
            pos: 5,
        });
        match eval_binop(BinOp::Add, sp, Value::Int(2)).unwrap() {
            Value::Stack(s) => assert_eq!({ s.pos }, 3),
            other => panic!("{other:?}"),
        }
        match eval_binop(BinOp::Sub, sp, Value::Int(2)).unwrap() {
            Value::Stack(s) => assert_eq!({ s.pos }, 7),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn binop_unsupported_reports_kinds() {
        let sp = Value::Stack(crate::machine::stack::StackRef {
            stack: crate::machine::stack::StackId(0),
            pos: 0,
        });
        match eval_binop(BinOp::Mul, sp, Value::Int(2)) {
            Err(MachineError::UnsupportedOperands { lhs, .. }) => {
                assert_eq!(lhs, "stack pointer")
            }
            other => panic!("{other:?}"),
        }
    }

    fn tiny_program() -> (Program, Reg) {
        let mut b = ProgramBuilder::new();
        let r = b.reg("r");
        let next = b.label("next");
        b.block(
            "main",
            vec![
                Instr::Move {
                    dst: r,
                    src: Operand::Int(5),
                },
                Instr::Jump {
                    target: Operand::Label(next),
                },
            ],
        );
        b.block("next", vec![Instr::Halt]);
        (b.build().unwrap(), r)
    }

    #[test]
    fn step_move_jump_halt() {
        let (p, r) = tiny_program();
        let mut stores = Stores::new();
        let mut t = TaskState::new(&p, p.entry());
        assert!(matches!(
            step_task(&p, &mut t, &mut stores).unwrap(),
            StepOutcome::Ran
        ));
        assert_eq!(t.regs.read(r).unwrap(), Value::Int(5));
        assert!(matches!(
            step_task(&p, &mut t, &mut stores).unwrap(),
            StepOutcome::Ran
        ));
        assert_eq!(p.label_name(t.block), "next");
        assert!(matches!(
            step_task(&p, &mut t, &mut stores).unwrap(),
            StepOutcome::Halted
        ));
        assert_eq!(t.cycles, 3);
        assert_eq!(t.rel_work, 3);
    }

    #[test]
    fn join_without_fork_is_error() {
        let (p, _) = tiny_program();
        let mut stores = Stores::new();
        let t = TaskState::new(&p, p.entry());
        let j = stores.joins.alloc(p.entry());
        assert!(matches!(
            resolve_join(&p, t, j, &mut stores, 0),
            Err(MachineError::JoinWithoutFork)
        ));
    }
}
