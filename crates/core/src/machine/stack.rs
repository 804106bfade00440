//! Task stacks (the extension of Figure 21).
//!
//! The formal model represents a stack as an immutable tuple held in a
//! register; `salloc`/`sfree` functionally prepend and drop cells, and
//! pointer arithmetic (`sp + n`) yields views into the same tuple. The
//! paper notes the semantics "is prescriptive only for the high-level
//! behavior of the stack, not to its implementation". We implement the
//! realistic variant the paper's runtime uses: stacks are mutable arrays
//! shared by the tasks of a fork tree, and a stack *pointer* is a pair of
//! a stack identifier and a position measured **from the base**, so that
//! pushes by the owner of the shallow end never invalidate pointers held
//! by the join continuation into the deep end.
//!
//! Conventions (matching `mem[sp + n]` in the paper):
//!
//! * position `pos` is the index, from the base, of the cell `sp` points
//!   at; a fresh empty stack has `pos = -1`;
//! * `mem[sp + n]` addresses position `pos - n` (larger offsets reach
//!   *older* cells);
//! * `sp + n` (pointer arithmetic) moves deeper: `pos - n`; `sp - n`
//!   moves shallower.

use crate::machine::value::{MachineError, Value};

/// The most cells one stack may hold once `salloc` has run (2²⁴ cells,
/// 384 MiB): an allocation that would take it past this faults with
/// [`MachineError::StackExhausted`] instead of asking the host for it.
/// The deepest stack any registry workload reaches at `Scale::Full`, on
/// every lowering, on the machine and on a 15-core simulator, is
/// `knapsack`'s 491 cells (heartbeat lowering, simulated).
pub const MAX_STACK_CELLS: usize = 1 << 24;

/// Identifier of a stack in a [`StackStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StackId(pub(crate) u32);

impl StackId {
    /// Index into the store.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A pointer into a task stack: the `uptr` of the formal grammar.
///
/// Packed to 4-byte alignment so it takes 12 bytes, not 16, which keeps
/// [`Value`] at 16 bytes: small enough to travel in a pair of machine
/// registers. A field cannot be borrowed; read `pos` by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(C, packed(4))]
pub struct StackRef {
    /// Which stack.
    pub stack: StackId,
    /// Position from the base of the cell pointed at; `-1` for an empty
    /// stack.
    pub pos: i64,
}

impl StackRef {
    /// `sp + n`: move `n` cells deeper (toward the base). Wraps, as
    /// integer `+` does: a wild pointer faults when it is used.
    pub fn deeper(self, n: i64) -> StackRef {
        StackRef {
            stack: self.stack,
            pos: self.pos.wrapping_sub(n),
        }
    }

    /// `sp - n`: move `n` cells shallower (away from the base). Wraps
    /// like [`Self::deeper`].
    pub fn shallower(self, n: i64) -> StackRef {
        StackRef {
            stack: self.stack,
            pos: self.pos.wrapping_add(n),
        }
    }

    /// The position of the cell `mem[sp + offset]` addresses (wrapping,
    /// so a wild pointer gives an out-of-range position, never a panic).
    #[inline(always)]
    pub(crate) fn cell(self, offset: u32) -> i64 {
        self.pos.wrapping_sub(offset as i64)
    }
}

/// Which promotion-ready mark `prmsplit` pops when several are visible.
///
/// The paper's policy (§2.3) is *outermost first*: promoting the oldest
/// mark hands a thief the largest remaining subcomputation, so each
/// heartbeat buys the most parallelism for one fixed promotion cost.
/// [`NewestFirst`](PromotionOrder::NewestFirst) is the ablation foil —
/// innermost-first promotion of the smallest latent subcomputation.
/// Results never depend on the order (both pop a valid mark); work, span,
/// and task counts do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PromotionOrder {
    /// Pop the mark closest to the stack base (the paper's policy).
    #[default]
    OldestFirst,
    /// Pop the mark closest to `sp` (ablation: innermost first).
    NewestFirst,
}

/// The store of all task stacks of a machine.
#[derive(Debug, Default, Clone)]
pub struct StackStore {
    stacks: Vec<Vec<Value>>,
    order: PromotionOrder,
}

impl StackStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        StackStore::default()
    }

    /// `snew`: allocates a fresh, empty stack.
    pub fn snew(&mut self) -> StackRef {
        let id = StackId(self.stacks.len() as u32);
        self.stacks.push(Vec::new());
        StackRef { stack: id, pos: -1 }
    }

    fn cells(&self, id: StackId) -> &Vec<Value> {
        &self.stacks[id.index()]
    }

    fn cells_mut(&mut self, id: StackId) -> &mut Vec<Value> {
        &mut self.stacks[id.index()]
    }

    /// `salloc sp, n`: allocates `n` zero-initialised cells shallower than
    /// `sp`, returning the updated pointer (which addresses the newest
    /// cell). Cells above `sp` that were abandoned by pointer arithmetic
    /// (e.g. the promoted frame skipped by `joink`) are reclaimed.
    #[inline]
    pub fn salloc(&mut self, sp: StackRef, n: u32) -> Result<StackRef, MachineError> {
        let cells = self.cells_mut(sp.stack);
        let pos = sp.pos;
        if pos < -1 || pos >= cells.len() as i64 {
            return Err(MachineError::StackOutOfRange {
                pos,
                len: cells.len(),
            });
        }
        let live = (pos + 1) as usize;
        if n as usize > MAX_STACK_CELLS.saturating_sub(live) {
            return Err(MachineError::StackExhausted { cells: n });
        }
        cells.truncate(live);
        cells.extend(std::iter::repeat_n(Value::Int(0), n as usize));
        Ok(StackRef {
            stack: sp.stack,
            pos: pos + n as i64,
        })
    }

    /// `sfree sp, n`: frees `n` cells from the front of the view, returning
    /// the updated pointer.
    #[inline]
    pub fn sfree(&mut self, sp: StackRef, n: u32) -> Result<StackRef, MachineError> {
        let new_pos = sp.pos.wrapping_sub(n as i64);
        if new_pos < -1 {
            return Err(MachineError::StackUnderflow);
        }
        // Physically pop the cells if sp is the true top; otherwise this is
        // a view adjustment and the cells become dead (reclaimed by the
        // next salloc at or below new_pos).
        let cells = self.cells_mut(sp.stack);
        if sp.pos == cells.len() as i64 - 1 {
            cells.truncate((new_pos + 1) as usize);
        }
        Ok(StackRef {
            stack: sp.stack,
            pos: new_pos,
        })
    }

    fn check(&self, sp: StackRef, offset: u32) -> Result<usize, MachineError> {
        let pos = sp.cell(offset);
        let len = self.cells(sp.stack).len();
        if pos < 0 || pos as usize >= len {
            return Err(MachineError::StackOutOfRange { pos, len });
        }
        Ok(pos as usize)
    }

    /// `r := mem[sp + offset]`: loads a cell.
    ///
    /// (Hot path: a negative position casts to a `usize` far beyond any
    /// length, so the single `get` doubles as the upper *and* lower range
    /// check of [`Self::check`].)
    #[inline]
    pub fn load(&self, sp: StackRef, offset: u32) -> Result<Value, MachineError> {
        let cells = &self.stacks[sp.stack.index()];
        let pos = sp.cell(offset);
        cells
            .get(pos as usize)
            .copied()
            .ok_or(MachineError::StackOutOfRange {
                pos,
                len: cells.len(),
            })
    }

    /// `mem[sp + offset] := v`: stores to a cell.
    #[inline]
    pub fn store(&mut self, sp: StackRef, offset: u32, v: Value) -> Result<(), MachineError> {
        let cells = &mut self.stacks[sp.stack.index()];
        let pos = sp.cell(offset);
        let len = cells.len();
        match cells.get_mut(pos as usize) {
            Some(cell) => {
                *cell = v;
                Ok(())
            }
            None => Err(MachineError::StackOutOfRange { pos, len }),
        }
    }

    /// `prmpush mem[sp + offset]`: places a promotion-ready mark.
    pub fn prmpush(&mut self, sp: StackRef, offset: u32) -> Result<(), MachineError> {
        self.store(sp, offset, Value::Mark)
    }

    /// `prmpop mem[sp + offset]`: removes a promotion-ready mark.
    ///
    /// # Errors
    ///
    /// [`MachineError::NotAMark`] if the cell does not hold a mark.
    pub fn prmpop(&mut self, sp: StackRef, offset: u32) -> Result<(), MachineError> {
        let pos = self.check(sp, offset)?;
        let cells = self.cells_mut(sp.stack);
        if cells[pos] != Value::Mark {
            return Err(MachineError::NotAMark);
        }
        cells[pos] = Value::Int(0);
        Ok(())
    }

    /// `r := prmempty sp`: `0` (true) if no cell visible from `sp` holds a
    /// mark, `1` otherwise.
    pub fn prmempty(&self, sp: StackRef) -> Result<Value, MachineError> {
        let cells = self.cells(sp.stack);
        let top = sp.pos.min(cells.len() as i64 - 1);
        let any = (0..=top).rev().any(|i| cells[i as usize] == Value::Mark);
        Ok(Value::Int(if any { 1 } else { 0 }))
    }

    /// Selects which mark `prmsplit` pops (default:
    /// [`PromotionOrder::OldestFirst`], the paper's policy).
    pub fn set_promotion_order(&mut self, order: PromotionOrder) {
        self.order = order;
    }

    /// `prmsplit sp, dst`: pops the *oldest* mark visible from `sp`
    /// (smallest position from the base, i.e. the outermost latent
    /// parallelism), returning its offset relative to `sp`. Under
    /// [`PromotionOrder::NewestFirst`] it pops the newest mark instead.
    ///
    /// # Errors
    ///
    /// [`MachineError::NoMark`] if no mark is visible.
    pub fn prmsplit(&mut self, sp: StackRef) -> Result<i64, MachineError> {
        let top = {
            let cells = self.cells(sp.stack);
            sp.pos.min(cells.len() as i64 - 1)
        };
        let order = self.order;
        let cells = self.cells_mut(sp.stack);
        let found = match order {
            PromotionOrder::OldestFirst => {
                (0..=top.max(-1)).find(|&i| i >= 0 && cells[i as usize] == Value::Mark)
            }
            PromotionOrder::NewestFirst => (0..=top.max(-1))
                .rev()
                .find(|&i| i >= 0 && cells[i as usize] == Value::Mark),
        };
        match found {
            Some(i) => {
                cells[i as usize] = Value::Int(0);
                Ok(sp.pos - i)
            }
            None => Err(MachineError::NoMark),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snew_then_salloc_and_addressing() {
        let mut st = StackStore::new();
        let sp = st.snew();
        assert_eq!({ sp.pos }, -1);
        let sp = st.salloc(sp, 3).unwrap();
        assert_eq!({ sp.pos }, 2);
        // Fresh cells are zero.
        for k in 0..3 {
            assert_eq!(st.load(sp, k).unwrap(), Value::Int(0));
        }
        st.store(sp, 0, Value::Int(10)).unwrap();
        st.store(sp, 2, Value::Int(12)).unwrap();
        assert_eq!(st.load(sp, 0).unwrap(), Value::Int(10));
        assert_eq!(st.load(sp, 2).unwrap(), Value::Int(12));
    }

    #[test]
    fn nested_frames_lifo() {
        let mut st = StackStore::new();
        let sp = st.snew();
        let sp = st.salloc(sp, 2).unwrap();
        st.store(sp, 0, Value::Int(1)).unwrap();
        let sp = st.salloc(sp, 2).unwrap();
        st.store(sp, 0, Value::Int(2)).unwrap();
        // Deeper frame's cell is at offset 2 now.
        assert_eq!(st.load(sp, 2).unwrap(), Value::Int(1));
        let sp = st.sfree(sp, 2).unwrap();
        assert_eq!(st.load(sp, 0).unwrap(), Value::Int(1));
    }

    #[test]
    fn out_of_range_load_rejected() {
        let mut st = StackStore::new();
        let sp = st.snew();
        let sp = st.salloc(sp, 1).unwrap();
        assert!(matches!(
            st.load(sp, 1),
            Err(MachineError::StackOutOfRange { .. })
        ));
    }

    #[test]
    fn sfree_underflow_rejected() {
        let mut st = StackStore::new();
        let sp = st.snew();
        let sp = st.salloc(sp, 1).unwrap();
        assert!(matches!(st.sfree(sp, 2), Err(MachineError::StackUnderflow)));
    }

    #[test]
    fn marks_push_pop_empty() {
        let mut st = StackStore::new();
        let sp = st.snew();
        let sp = st.salloc(sp, 3).unwrap();
        assert_eq!(st.prmempty(sp).unwrap(), Value::Int(0)); // empty = true(0)
        st.prmpush(sp, 1).unwrap();
        assert_eq!(st.prmempty(sp).unwrap(), Value::Int(1));
        st.prmpop(sp, 1).unwrap();
        assert_eq!(st.prmempty(sp).unwrap(), Value::Int(0));
        assert!(matches!(st.prmpop(sp, 1), Err(MachineError::NotAMark)));
    }

    #[test]
    fn prmsplit_takes_oldest_mark() {
        let mut st = StackStore::new();
        let sp = st.snew();
        // Two frames, each with a mark at its offset 1 (as in fib).
        let sp = st.salloc(sp, 3).unwrap();
        st.prmpush(sp, 1).unwrap();
        let sp = st.salloc(sp, 3).unwrap();
        st.prmpush(sp, 1).unwrap();
        // Oldest mark is in the deep frame: relative offset 4.
        assert_eq!(st.prmsplit(sp).unwrap(), 4);
        // The remaining (newer) mark:
        assert_eq!(st.prmsplit(sp).unwrap(), 1);
        assert!(matches!(st.prmsplit(sp), Err(MachineError::NoMark)));
    }

    #[test]
    fn prmsplit_newest_first_inverts_the_order() {
        let mut st = StackStore::new();
        st.set_promotion_order(PromotionOrder::NewestFirst);
        let sp = st.snew();
        let sp = st.salloc(sp, 3).unwrap();
        st.prmpush(sp, 1).unwrap();
        let sp = st.salloc(sp, 3).unwrap();
        st.prmpush(sp, 1).unwrap();
        // Newest mark is in the shallow frame: relative offset 1.
        assert_eq!(st.prmsplit(sp).unwrap(), 1);
        assert_eq!(st.prmsplit(sp).unwrap(), 4);
        assert!(matches!(st.prmsplit(sp), Err(MachineError::NoMark)));
    }

    #[test]
    fn prmsplit_orders_agree_on_a_single_mark() {
        for order in [PromotionOrder::OldestFirst, PromotionOrder::NewestFirst] {
            let mut st = StackStore::new();
            st.set_promotion_order(order);
            let sp = st.snew();
            let sp = st.salloc(sp, 5).unwrap();
            st.prmpush(sp, 2).unwrap();
            assert_eq!(st.prmsplit(sp).unwrap(), 2, "{order:?}");
        }
    }

    #[test]
    fn view_sfree_then_salloc_reclaims_dead_cells() {
        let mut st = StackStore::new();
        let sp = st.snew();
        let sp = st.salloc(sp, 4).unwrap();
        st.store(sp, 3, Value::Int(99)).unwrap();
        // Move the pointer deeper (as joink does) without freeing.
        let view = sp.deeper(3);
        assert_eq!(st.load(view, 0).unwrap(), Value::Int(99));
        // salloc from the view reclaims the 3 dead cells above it.
        let sp2 = st.salloc(view, 2).unwrap();
        assert_eq!({ sp2.pos }, view.pos + 2);
        assert_eq!(st.load(sp2, 2).unwrap(), Value::Int(99));
    }

    /// Pointer arithmetic wraps as integer arithmetic does, and every
    /// `StackStore` operation turns a wild pointer into a typed fault
    /// instead of overflowing.
    #[test]
    fn wild_pointers_wrap_then_fault() {
        let mut st = StackStore::new();
        let fresh = st.snew();
        let sp = st.salloc(fresh, 2).unwrap();
        assert_eq!({ sp.deeper(i64::MIN).pos }, i64::MIN + 1);
        assert_eq!({ sp.shallower(i64::MAX).pos }, i64::MIN);
        let top = st.snew().deeper(i64::MIN);
        assert_eq!({ top.pos }, i64::MAX);
        let bottom = sp.shallower(i64::MAX).shallower(1);
        assert_eq!({ bottom.pos }, i64::MIN + 1);
        let out = |pos, len| MachineError::StackOutOfRange { pos, len };
        assert_eq!(st.salloc(top, 2).unwrap_err(), out(i64::MAX, 0));
        assert_eq!(st.salloc(bottom, 2).unwrap_err(), out(i64::MIN + 1, 2));
        assert_eq!(st.load(bottom, 3).unwrap_err(), out(i64::MAX - 1, 2));
        let stored = st.store(bottom, 3, Value::Int(1));
        assert_eq!(stored.unwrap_err(), out(i64::MAX - 1, 2));
        assert_eq!(st.prmpop(bottom, 3).unwrap_err(), out(i64::MAX - 1, 2));
        assert_eq!(st.sfree(top, 1).map(|s| s.pos), Ok(i64::MAX - 1));
        assert_eq!(st.sfree(bottom, 1), Err(MachineError::StackUnderflow));
    }

    #[test]
    fn pointer_arithmetic_roundtrip() {
        let r = StackRef {
            stack: StackId(0),
            pos: 10,
        };
        assert_eq!({ r.deeper(3).pos }, 7);
        assert_eq!(r.deeper(3).shallower(3), r);
    }
}
