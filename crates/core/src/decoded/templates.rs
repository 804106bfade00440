//! Loop templates: two loop-level superinstructions of the micro-op
//! stream.
//!
//! [`DecodedProgram::install_templates`] recognises two whole-loop shapes
//! the lowering pass emits — the **reduce loop** (compare-head +
//! load/accumulate/step body) and the **guarded-update loop** (the
//! Floyd–Warshall relaxation diamond) — and replaces the loop head's
//! [`UOp::CmpBranchBranch`] with a [`UOp::ReduceLoop`] /
//! [`UOp::GuardedLoop`] micro-op whose operand roster lives in a side
//! table. Dispatching one runs as many *whole* iterations as the
//! registers, the heap bounds and the step budget jointly allow, then
//! executes the plain loop-head compare; the loop's own micro-ops stay in
//! the stream, so everything a template does not commit — the exit, a
//! quantum landing mid-iteration, a promotion-ready interior, a fault —
//! runs through ordinary dispatch at exactly the reference positions.
//!
//! **Soundness: commit whole iterations only.** An iteration is computed
//! against pre-validated state — every operand already a `Value::Int`,
//! every heap address in bounds, the budget covering the iteration's
//! exact step cost — and only then committed, with register writes in
//! program order. Eligibility admits only the five specialised operators
//! (`+ - * < <=`), which are total on ints, so a committed iteration can
//! neither fault nor pause and nothing is ever rolled back.

use super::{DecodedProgram, IntSrc, Src, UOp};
use crate::isa::{BinOp, Reg};
use crate::machine::Value;

/// The fused loop-head block a template is installed over:
/// `dst := lhs op rhs; if-jump dst, taken; jump fallthrough`. Kept in the
/// roster because the template micro-op carries only a table index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LoopHead {
    pub(super) dst: Reg,
    pub(super) op: BinOp,
    pub(super) lhs: Reg,
    pub(super) rhs: Reg,
    pub(super) taken: u32,
    pub(super) fallthrough: u32,
}

/// Roster of one reduce loop, with `i` the head's `lhs` and `n` its
/// `rhs`:
///
/// ```text
/// head:  t := i cmp n;          taken -> body, else -> exit
/// body:  w := heap[base + i];   acc := acc op w;   i := i + 1; jump head
/// ```
///
/// Installed only when `cmp ∈ {<, <=}`, `op ∈ {+, -, *}` and the six
/// registers `{t, i, n, w, base, acc}` are pairwise distinct: the
/// loop-carried state is then exactly `(i, acc)` plus the per-iteration
/// `t := true` and `w := heap[base + i]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReduceLoop {
    pub(super) head: LoopHead,
    w: Reg,
    base: Reg,
    acc: Reg,
    acc_op: BinOp,
}

/// Steps one reduce iteration costs: head 2, load 1, accumulate 1, back
/// edge 2.
const REDUCE_ITER: u64 = 6;

impl ReduceLoop {
    /// Commits the whole iterations the trip count, the in-bounds heap
    /// prefix and `budget` jointly allow — folding that heap slice in a
    /// tight scalar loop and writing the four registers back once — and
    /// returns the steps they cost. Every committed iteration is one
    /// per-step dispatch would have executed identically (compare true,
    /// load in bounds, total ALU ops).
    ///
    /// Out of line and `#[cold]`: a template runs once per loop entry,
    /// not per iteration, so the call costs nothing that shows, while
    /// the dispatch loop around it keeps the code layout and register
    /// allocation it has without templates (measured: without `cold`
    /// the shared loop ran template-free streams about 5 % slower).
    #[cold]
    #[inline(never)]
    pub(super) fn run(&self, regs: &mut [Value], hwords: &[i64], budget: u64) -> u64 {
        let h = &self.head;
        let (Value::Int(iv), Value::Int(nv), Value::Int(bv), Value::Int(accv)) = (
            regs[h.lhs.index()],
            regs[h.rhs.index()],
            regs[self.base.index()],
            regs[self.acc.index()],
        ) else {
            return 0;
        };
        // Trip count and in-bounds prefix in i128: no overflow traps.
        let trip = (nv as i128) - (iv as i128) + (h.op == BinOp::Le) as i128;
        let start = (bv as i128) + (iv as i128);
        let avail = if start < 1 {
            0
        } else {
            (hwords.len() as i128) - start
        };
        let budget = (budget / REDUCE_ITER) as i128;
        let iters = trip.min(avail).min(budget).max(0) as usize;
        if iters == 0 {
            return 0;
        }
        let s = start as usize;
        let slice = &hwords[s..s + iters];
        let mut acc = accv;
        match self.acc_op {
            BinOp::Add => {
                for &w in slice {
                    acc = acc.wrapping_add(w);
                }
            }
            BinOp::Sub => {
                for &w in slice {
                    acc = acc.wrapping_sub(w);
                }
            }
            _ => {
                for &w in slice {
                    acc = acc.wrapping_mul(w);
                }
            }
        }
        // Committed-iteration register state, in program order: head
        // compare true, last loaded word, accumulator, index.
        regs[h.dst.index()] = Value::Int(0);
        regs[self.w.index()] = Value::Int(slice[iters - 1]);
        regs[self.acc.index()] = Value::Int(acc);
        regs[h.lhs.index()] = Value::Int(iv.wrapping_add(iters as i64));
        REDUCE_ITER * iters as u64
    }
}

/// Roster of one guarded-update loop — the relaxation shape of
/// Floyd–Warshall-style kernels — with `j` the head's `lhs` and `n` its
/// `rhs`:
///
/// ```text
/// head:  t := j cmp n;           taken -> body, else -> exit
/// body:  x1 := la1 op1 ra1;  x2 := x1 op2 j;  a := heap[hb + x2]
///        cand := lc opc a;   x3 := ld opd rd; x4 := x3 ope j
///        bb := heap[hb2 + x4]
///        c := cand cmp2 bb;      taken -> then, else -> else_
/// then:  y1 := lt1 opf rt1;  y2 := y1 opg j;  heap[hb3 + y2] := cand
///        jump endif
/// else_: jump endif
/// endif: j := j + 1; jump head
/// ```
///
/// Installed only when every operator is one of the five specialised
/// (total-on-int) ops, the invariants `{n, la1, ra1, hb, lc, ld, rd, hb2,
/// lt1, rt1, hb3}` are never written by the loop, `j` is distinct from
/// every written register, and `cand` survives (unclobbered) from its
/// definition to its last read — the conditions under which
/// [`GuardedLoop::run`]'s dry pass over locals observes exactly the
/// values per-step dispatch would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct GuardedLoop {
    pub(super) head: LoopHead,
    x1: Reg,
    la1: Reg,
    ra1: Reg,
    op1: BinOp,
    x2: Reg,
    op2: BinOp,
    a: Reg,
    hb: Reg,
    cand: Reg,
    lc: Reg,
    opc: BinOp,
    x3: Reg,
    ld: Reg,
    rd: Reg,
    opd: BinOp,
    x4: Reg,
    ope: BinOp,
    bb: Reg,
    hb2: Reg,
    c: Reg,
    cmp2: BinOp,
    y1: Reg,
    lt1: Reg,
    rt1: Reg,
    opf: BinOp,
    y2: Reg,
    opg: BinOp,
    hb3: Reg,
}

/// Steps one guarded-update iteration costs when the inner branch is
/// taken (head 2, address/load 3, combine/address/load 4, branch 2,
/// store block 4, back edge 2) and when it falls through (branch 3,
/// store block replaced by one jump).
const GUARDED_TAKEN: u64 = 17;
const GUARDED_NOT_TAKEN: u64 = 15;

impl GuardedLoop {
    /// Commits whole iterations while each one pre-validates — both
    /// loads and the conditional store in bounds, `budget` covering the
    /// iteration's exact step count — and returns the steps they cost.
    /// Register writes are committed in program order (so arbitrary temp
    /// aliasing matches per-step dispatch) and the store lands
    /// immediately (so later loads observe it).
    ///
    /// Out of line and `#[cold]` for the reason on [`ReduceLoop::run`].
    #[cold]
    #[inline(never)]
    pub(super) fn run(&self, regs: &mut [Value], hwords: &mut [i64], budget: u64) -> u64 {
        let (g, h) = (self, &self.head);
        macro_rules! int_of {
            ($r:expr) => {
                match regs[$r.index()] {
                    Value::Int(v) => v,
                    _ => return 0,
                }
            };
        }
        // Loop-invariant registers (never written by the loop) and the
        // counter; any non-int leaves the loop to per-step dispatch,
        // which types them.
        let nv = int_of!(h.rhs);
        let mut jv = int_of!(h.lhs);
        let la1 = int_of!(g.la1);
        let ra1 = int_of!(g.ra1);
        let hb = int_of!(g.hb);
        let lc = int_of!(g.lc);
        let ld = int_of!(g.ld);
        let rd = int_of!(g.rd);
        let hb2 = int_of!(g.hb2);
        let lt1 = int_of!(g.lt1);
        let rt1 = int_of!(g.rt1);
        let hb3 = int_of!(g.hb3);
        let len = hwords.len() as i64;
        let in_bounds = |addr: i64| addr > 0 && addr < len;
        let mut left = budget;
        while left >= GUARDED_NOT_TAKEN && alu_i64(h.op, jv, nv) == 0 {
            // Dry pass: compute the whole iteration into locals.
            let x1v = alu_i64(g.op1, la1, ra1);
            let x2v = alu_i64(g.op2, x1v, jv);
            let addr_a = hb.wrapping_add(x2v);
            if !in_bounds(addr_a) {
                break;
            }
            let av = hwords[addr_a as usize];
            let candv = alu_i64(g.opc, lc, av);
            let x3v = alu_i64(g.opd, ld, rd);
            let x4v = alu_i64(g.ope, x3v, jv);
            let addr_b = hb2.wrapping_add(x4v);
            if !in_bounds(addr_b) {
                break;
            }
            let bbv = hwords[addr_b as usize];
            let cv = alu_i64(g.cmp2, candv, bbv);
            let (cost, y1v, y2v, addr_s) = if cv == 0 {
                let y1v = alu_i64(g.opf, lt1, rt1);
                let y2v = alu_i64(g.opg, y1v, jv);
                let addr_s = hb3.wrapping_add(y2v);
                if !in_bounds(addr_s) {
                    break;
                }
                (GUARDED_TAKEN, y1v, y2v, addr_s)
            } else {
                (GUARDED_NOT_TAKEN, 0, 0, 0)
            };
            if left < cost {
                break;
            }
            // Commit, in program order.
            regs[h.dst.index()] = Value::Int(0);
            regs[g.x1.index()] = Value::Int(x1v);
            regs[g.x2.index()] = Value::Int(x2v);
            regs[g.a.index()] = Value::Int(av);
            regs[g.cand.index()] = Value::Int(candv);
            regs[g.x3.index()] = Value::Int(x3v);
            regs[g.x4.index()] = Value::Int(x4v);
            regs[g.bb.index()] = Value::Int(bbv);
            regs[g.c.index()] = Value::Int(cv);
            if cv == 0 {
                regs[g.y1.index()] = Value::Int(y1v);
                regs[g.y2.index()] = Value::Int(y2v);
                hwords[addr_s as usize] = candv;
            }
            jv = jv.wrapping_add(1);
            regs[h.lhs.index()] = Value::Int(jv);
            left -= cost;
        }
        budget - left
    }
}

/// The five specialised operators on raw `i64`s — the results
/// `eval_binop` gives on two `Int`s (wrapping arithmetic, zero-is-true
/// comparisons), and total: no operand can make them fault.
#[inline(always)]
fn alu_i64(op: BinOp, a: i64, b: i64) -> i64 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        // Zero is true.
        BinOp::Lt => (a >= b) as i64,
        // Only the five specialised operators reach the templates.
        _ => (a > b) as i64,
    }
}

/// Destructures the five specialised ALU micro-ops with a register rhs
/// as `(dst, lhs, rhs, op)`.
fn alu_rr(u: UOp) -> Option<(Reg, Reg, Reg, BinOp)> {
    let (dst, lhs, rhs, op) = match u {
        UOp::OpAdd { dst, lhs, rhs } => (dst, lhs, rhs, BinOp::Add),
        UOp::OpSub { dst, lhs, rhs } => (dst, lhs, rhs, BinOp::Sub),
        UOp::OpMul { dst, lhs, rhs } => (dst, lhs, rhs, BinOp::Mul),
        UOp::OpLt { dst, lhs, rhs } => (dst, lhs, rhs, BinOp::Lt),
        UOp::OpLe { dst, lhs, rhs } => (dst, lhs, rhs, BinOp::Le),
        _ => return None,
    };
    match rhs {
        Src::Reg(r) => Some((dst, lhs, r, op)),
        _ => None,
    }
}

/// Whether `op` is one of the five specialised operators.
fn is_specialised(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Lt | BinOp::Le
    )
}

/// Whether the registers are pairwise distinct.
fn all_distinct(rs: &[Reg]) -> bool {
    rs.iter()
        .enumerate()
        .all(|(k, r)| rs[k + 1..].iter().all(|s| s != r))
}

/// The loop head at `pc`, if it is a register-compare
/// [`UOp::CmpBranchBranch`] whose taken block is not itself.
fn loop_head(d: &DecodedProgram, pc: usize) -> Option<LoopHead> {
    let UOp::CmpBranchBranch {
        dst,
        op,
        lhs,
        rhs: Src::Reg(rhs),
        taken,
        fallthrough,
    } = d.uops[pc]
    else {
        return None;
    };
    (taken as usize != pc).then_some(LoopHead {
        dst,
        op,
        lhs,
        rhs,
        taken,
        fallthrough,
    })
}

/// Recognises the reduce loop headed at `pc` (shape and side conditions
/// on [`ReduceLoop`]); the taken block must be the three body micro-ops
/// in their entirety.
fn match_reduce(d: &DecodedProgram, pc: usize) -> Option<ReduceLoop> {
    let head = loop_head(d, pc)?;
    let &[UOp::HLoad {
        dst: w,
        base,
        offset: IntSrc::Reg(off),
    }, accumulate, UOp::OpJump {
        dst: step_dst,
        op: BinOp::Add,
        lhs: step_lhs,
        rhs: Src::Int(1),
        target,
    }] = d.block_at(head.taken)
    else {
        return None;
    };
    let (acc, acc_lhs, acc_rhs, acc_op) = alu_rr(accumulate)?;
    let i = head.lhs;
    let eligible = target as usize == pc
        && (acc_lhs, acc_rhs) == (acc, w)
        && (off, step_dst, step_lhs) == (i, i, i)
        && matches!(head.op, BinOp::Lt | BinOp::Le)
        && matches!(acc_op, BinOp::Add | BinOp::Sub | BinOp::Mul)
        && all_distinct(&[head.dst, i, head.rhs, w, base, acc]);
    eligible.then_some(ReduceLoop {
        head,
        w,
        base,
        acc,
        acc_op,
    })
}

/// Recognises the guarded-update loop headed at `pc` (shape and side
/// conditions on [`GuardedLoop`]); each of the four interior blocks must
/// be the listed micro-ops in their entirety. Also returns those blocks'
/// entry pcs, for the watch stream's promotion check.
fn match_guarded(d: &DecodedProgram, pc: usize) -> Option<(GuardedLoop, [u32; 4])> {
    let head = loop_head(d, pc)?;
    let (t, j, n) = (head.dst, head.lhs, head.rhs);
    let &[u1, u2, UOp::HLoad {
        dst: a,
        base: hb,
        offset: IntSrc::Reg(off_a),
    }, uc, u3, u4, UOp::HLoad {
        dst: bb,
        base: hb2,
        offset: IntSrc::Reg(off_b),
    }, UOp::CmpBranchBranch {
        dst: c,
        op: cmp2,
        lhs: cmp_lhs,
        rhs: Src::Reg(cmp_rhs),
        taken: then_pc,
        fallthrough: else_pc,
    }] = d.block_at(head.taken)
    else {
        return None;
    };
    let (x1, la1, ra1, op1) = alu_rr(u1)?;
    let (x2, x2_lhs, x2_rhs, op2) = alu_rr(u2)?;
    let (cand, lc, cand_rhs, opc) = alu_rr(uc)?;
    let (x3, ld, rd, opd) = alu_rr(u3)?;
    let (x4, x4_lhs, x4_rhs, ope) = alu_rr(u4)?;
    let &[v1, v2, UOp::HStore {
        base: hb3,
        offset: IntSrc::Reg(off_s),
        src: IntSrc::Reg(stored),
    }, UOp::Jump { target: then_exit }] = d.block_at(then_pc)
    else {
        return None;
    };
    let (y1, lt1, rt1, opf) = alu_rr(v1)?;
    let (y2, y2_lhs, y2_rhs, opg) = alu_rr(v2)?;
    let &[UOp::Jump { target: endif_pc }] = d.block_at(else_pc) else {
        return None;
    };
    let &[UOp::OpJump {
        dst: step_dst,
        op: BinOp::Add,
        lhs: step_lhs,
        rhs: Src::Int(1),
        target: back,
    }] = d.block_at(endif_pc)
    else {
        return None;
    };
    let wired = back as usize == pc
        && then_exit == endif_pc
        && (step_dst, step_lhs) == (j, j)
        && (x2_lhs, x2_rhs, off_a) == (x1, j, x2)
        && cand_rhs == a
        && (x4_lhs, x4_rhs, off_b) == (x3, j, x4)
        && (cmp_lhs, cmp_rhs) == (cand, bb)
        && (y2_lhs, y2_rhs, off_s, stored) == (y1, j, y2, cand)
        && is_specialised(head.op)
        && is_specialised(cmp2);
    // Aliasing discipline (see the soundness argument on the roster).
    let writes = [t, x1, x2, a, cand, x3, x4, bb, c, y1, y2];
    let invariants = [n, la1, ra1, hb, lc, ld, rd, hb2, lt1, rt1, hb3];
    let eligible = wired
        && !writes.contains(&j)
        && !invariants.iter().any(|r| writes.contains(r) || *r == j)
        && ![x3, x4, bb, c, y1, y2].contains(&cand);
    eligible.then_some((
        GuardedLoop {
            head,
            x1,
            la1,
            ra1,
            op1,
            x2,
            op2,
            a,
            hb,
            cand,
            lc,
            opc,
            x3,
            ld,
            rd,
            opd,
            x4,
            ope,
            bb,
            hb2,
            c,
            cmp2,
            y1,
            lt1,
            rt1,
            opf,
            y2,
            opg,
            hb3,
        },
        [head.taken, then_pc, else_pc, endif_pc],
    ))
}

impl DecodedProgram {
    /// The micro-ops of the block whose entry is `pc`.
    fn block_at(&self, pc: u32) -> &[UOp] {
        let block = self.src[pc as usize].block as usize;
        let end = self
            .block_entry
            .get(block + 1)
            .map_or(self.uops.len(), |&e| e as usize);
        &self.uops[pc as usize..end]
    }

    /// Installs a template micro-op over the head of every loop
    /// [`match_reduce`] / [`match_guarded`] recognises. The watch stream
    /// takes the template too unless the head or any interior block is
    /// promotion-ready: a `prppt` head keeps its [`UOp::PrpptPause`], and
    /// a `prppt` interior keeps the plain loop head, so the interior
    /// blocks are dispatched and the pause is observed at the right
    /// block entry.
    pub(crate) fn install_templates(&mut self) {
        for pc in 0..self.uops.len() {
            let prppt = |pcs: &[u32]| pcs.iter().any(|&b| self.prppt_entry[b as usize]);
            let (template, interior_prppt) = if let Some(r) = match_reduce(self, pc) {
                let interior_prppt = prppt(&[r.head.taken]);
                self.reduce.push(r);
                let t = self.reduce.len() as u32 - 1;
                (UOp::ReduceLoop { t }, interior_prppt)
            } else if let Some((g, interior)) = match_guarded(self, pc) {
                let interior_prppt = prppt(&interior);
                self.guarded.push(g);
                let t = self.guarded.len() as u32 - 1;
                (UOp::GuardedLoop { t }, interior_prppt)
            } else {
                continue;
            };
            self.uops[pc] = template;
            if !self.prppt_entry[pc] && !interior_prppt {
                self.watch_uops[pc] = template;
            }
        }
    }
}
