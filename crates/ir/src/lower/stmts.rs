//! Statement lowering: serial control flow and the calling convention.

use tpal_core::isa::{BinOp, Instr, Operand};

use crate::ast::Stmt;
use crate::lower::context::{Cx, RV, SP};
use crate::lower::{LowerError, Mode};

impl Cx<'_> {
    /// Lowers a statement list into the open block (which remains open,
    /// possibly as a fresh continuation block).
    pub fn lower_stmts(&mut self, stmts: &[Stmt]) -> Result<(), LowerError> {
        for s in stmts {
            self.lower_stmt(s)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, s: &Stmt) -> Result<(), LowerError> {
        self.reset_temps();
        match s {
            Stmt::Assign(v, e) => {
                let dst = self.vreg(v);
                self.eval_into(e, dst);
            }
            Stmt::Store { base, idx, val } => {
                let b = self.eval_reg(base);
                let i = self.eval_operand(idx);
                let v = self.eval_operand(val);
                self.emit(Instr::HStore {
                    base: b,
                    offset: i,
                    src: v,
                });
                self.reset_temps();
            }
            Stmt::Alloc { var, size } => {
                let sz = self.eval_operand(size);
                let dst = self.vreg(var);
                self.emit(Instr::HAlloc { dst, size: sz });
                self.reset_temps();
            }
            Stmt::If { cond, then_, else_ } => {
                let t = self.eval_reg(cond);
                let then_l = self.fresh_label("then");
                let else_l = self.fresh_label("else");
                let end_l = self.fresh_label("endif");
                self.if_jump(t, then_l); // zero (true) takes the branch
                self.finish_jump(else_l);

                self.start(then_l);
                self.lower_stmts(then_)?;
                if self.in_block() {
                    self.finish_jump(end_l);
                }
                self.start(else_l);
                self.lower_stmts(else_)?;
                if self.in_block() {
                    self.finish_jump(end_l);
                }
                self.start(end_l);
            }
            Stmt::While { cond, body } => {
                let head = self.fresh_label("while");
                let body_l = self.fresh_label("do");
                let end = self.fresh_label("endwhile");
                self.finish_jump(head);

                self.start(head);
                let t = self.eval_reg(cond);
                self.if_jump(t, body_l);
                self.finish_jump(end);

                self.start(body_l);
                self.lower_stmts(body)?;
                if self.in_block() {
                    self.finish_jump(head);
                }
                self.start(end);
            }
            Stmt::For {
                var,
                from,
                to,
                body,
            } => {
                let hi = format!("%for{}_hi", self.forc);
                self.forc += 1;
                self.lower_serial_for(var, from, to, body, &hi)?;
            }
            Stmt::Call { func, args, ret } => {
                self.lower_call(func, args, ret.as_deref())?;
            }
            Stmt::Return(e) => {
                let rv = self.greg(RV);
                self.eval_into(e, rv);
                self.require_fret();
                self.finish_jump(self.fret);
                // Anything after a return is dead; keep emitting into an
                // unreachable block so the rest of the list stays valid.
                let dead = self.fresh_label("dead");
                self.start(dead);
            }
            Stmt::Par2 { left, right } => {
                let site = self.site;
                self.site += 1;
                match self.mode {
                    Mode::Serial => {
                        self.lower_call(&left.func, &left.args, Some(&left.ret))?;
                        self.lower_call(&right.func, &right.args, Some(&right.ret))?;
                    }
                    Mode::Heartbeat | Mode::HeartbeatExpanded => {
                        self.lower_par2_heartbeat(site, left, right)?
                    }
                    Mode::Eager { .. } => self.lower_par2_eager(site, left, right)?,
                }
            }
            Stmt::ParFor(pf) => {
                let site = self.site;
                self.site += 1;
                ensure_serial(&pf.body, "a ParFor body")?;
                match self.mode {
                    Mode::Serial => {
                        let hi = format!("%s{site}_hi");
                        self.lower_serial_for(&pf.var, &pf.from, &pf.to, &pf.body, &hi)?
                    }
                    Mode::Heartbeat => self.lower_parfor_heartbeat(site, pf)?,
                    Mode::HeartbeatExpanded => self.lower_parfor_expanded(site, pf)?,
                    Mode::Eager { workers } => self.lower_parfor_eager(site, pf, workers)?,
                }
            }
            Stmt::ChMake { var, cap } => {
                let c = self.eval_operand(cap);
                let dst = self.vreg(var);
                self.emit(Instr::ChMake { dst, cap: c });
                self.reset_temps();
            }
            Stmt::ChPush { ch, val } => {
                let c = self.eval_reg(ch);
                let v = self.eval_operand(val);
                self.emit(Instr::ChPush { ch: c, src: v });
                self.reset_temps();
            }
            Stmt::ChPop { var, ch } => {
                let c = self.eval_reg(ch);
                let dst = self.vreg(var);
                self.emit(Instr::ChPop { dst, ch: c });
                self.reset_temps();
            }
            Stmt::ChClose { ch } => {
                let c = self.eval_reg(ch);
                self.emit(Instr::ChClose { ch: c });
                self.reset_temps();
            }
            Stmt::Detach { func, args } => self.lower_detach(func, args)?,
            Stmt::ParForNested(n) => {
                let site = self.site;
                self.site += 2;
                ensure_serial(&n.pre, "a ParForNested prologue")?;
                ensure_serial(&n.inner_body, "a ParForNested inner body")?;
                ensure_serial(&n.post, "a ParForNested epilogue")?;
                match self.mode {
                    Mode::Serial => self.lower_nested_serial(n)?,
                    Mode::Heartbeat | Mode::HeartbeatExpanded => {
                        self.lower_nested_heartbeat(site, n)?
                    }
                    Mode::Eager { workers } => self.lower_nested_eager(site, n, workers)?,
                }
            }
        }
        Ok(())
    }

    /// A serial counted loop over `[from, to)`. `hi_var` names the
    /// function-saved scratch variable holding the bound (it must survive
    /// calls inside the body, including re-entrant ones).
    pub(crate) fn lower_serial_for(
        &mut self,
        var: &str,
        from: &crate::ast::Expr,
        to: &crate::ast::Expr,
        body: &[Stmt],
        hi_var: &str,
    ) -> Result<(), LowerError> {
        let head = self.fresh_label("for");
        let body_l = self.fresh_label("forbody");
        let end = self.fresh_label("endfor");
        let v = self.vreg(var);
        let hi = self.vreg(hi_var);
        self.eval_into(from, v);
        self.eval_into(to, hi);
        self.finish_jump(head);

        self.start(head);
        let t = self.treg("t");
        self.op(t, BinOp::Lt, v, hi);
        self.if_jump(t, body_l);
        self.finish_jump(end);

        self.start(body_l);
        self.lower_stmts(body)?;
        if self.in_block() {
            let v = self.vreg(var);
            self.op(v, BinOp::Add, v, 1);
            self.finish_jump(head);
        }
        self.start(end);
        Ok(())
    }

    /// A detached call (`detach func(args…)`): the free-running task
    /// gets a *private* stack whose base frame holds the return
    /// continuation (`__dexit`, a bare `halt`) and the argument values,
    /// so the parent's registers — beyond `sp`, saved and restored
    /// around the `detach` — are untouched even under self-detach. The
    /// lowering is identical in every mode: a detach is unconditional
    /// task creation, not latent parallelism, and pipeline stages
    /// interleave cooperatively through channel blocking even on one
    /// core.
    pub(crate) fn lower_detach(
        &mut self,
        func: &str,
        args: &[crate::ast::Expr],
    ) -> Result<(), LowerError> {
        let (entry, callee) = self.callee(func, args.len())?;
        self.require_fret();
        self.require_dexit();

        let sp = self.greg(SP);
        let stub = self.fresh_label("dt");
        let post = self.fresh_label("dtpost");
        let n = args.len() as u32;

        let temps = self.eval_all_pinned(args);
        let tsp = self.treg("tsp");
        self.mov(tsp, sp);
        self.emit(Instr::SNew { dst: sp });
        self.emit(Instr::SAlloc { sp, n: 1 + n });
        let dexit = self.label_operand(self.dexit);
        self.sstore(sp, 0, dexit);
        for (i, t) in temps.iter().enumerate() {
            self.sstore(sp, 1 + i as u32, *t);
        }
        // The child copies the registers as they stand here: `sp` still
        // names its private stack. The parent restores its own right
        // after.
        let stub_op = self.label_operand(stub);
        self.emit(Instr::Detach { target: stub_op });
        self.mov(sp, tsp);
        self.reset_temps();
        self.finish_jump(post);

        // stub: the detached child's entry — move the arguments from its
        // base frame into the callee's parameter registers.
        self.start(stub);
        for (i, p) in callee.params.iter().enumerate() {
            let pr = self.vreg_of(&callee.name, p);
            self.sload(pr, sp, 1 + i as u32);
        }
        self.finish_jump(entry);

        self.start(post);
        Ok(())
    }

    /// A serial call: push a frame saving every function variable, pass
    /// arguments through the callee's parameter registers, and continue
    /// at a fresh block when the callee returns through `__fret`.
    pub(crate) fn lower_call(
        &mut self,
        func: &str,
        args: &[crate::ast::Expr],
        ret: Option<&str>,
    ) -> Result<(), LowerError> {
        let (entry, callee) = self.callee(func, args.len())?;
        self.require_fret();

        let sp = self.greg(SP);
        let cont = self.fresh_label("ret");
        let fvars = self.fvars.clone();
        let k = 1 + fvars.len() as u32;

        // Arguments first (they read the caller's live registers).
        let temps = self.eval_all_pinned(args);

        self.emit(Instr::SAlloc { sp, n: k });
        let cont_op = self.label_operand(cont);
        self.sstore(sp, 0, cont_op);
        for (i, v) in fvars.iter().enumerate() {
            let r = self.vreg(v);
            self.sstore(sp, 1 + i as u32, r);
        }
        for (t, p) in temps.iter().zip(&callee.params) {
            let pr = self.vreg_of(&callee.name, p);
            self.mov(pr, *t);
        }
        self.reset_temps();
        self.finish_jump(entry);

        self.start(cont);
        for (i, v) in fvars.iter().enumerate() {
            let r = self.vreg(v);
            self.sload(r, sp, 1 + i as u32);
        }
        self.emit(Instr::SFree { sp, n: k });
        if let Some(rvar) = ret {
            let dst = self.vreg(rvar);
            let rv = self.greg(RV);
            self.mov(dst, Operand::Reg(rv));
        }
        Ok(())
    }
}

/// Rejects parallel statements in serial-only positions.
fn ensure_serial(stmts: &[Stmt], context: &'static str) -> Result<(), LowerError> {
    for s in stmts {
        match s {
            Stmt::Par2 { .. } | Stmt::ParFor(_) | Stmt::ParForNested(_) | Stmt::Detach { .. } => {
                return Err(LowerError::NestedParallelism { context })
            }
            Stmt::If { then_, else_, .. } => {
                ensure_serial(then_, context)?;
                ensure_serial(else_, context)?;
            }
            Stmt::While { body, .. } | Stmt::For { body, .. } => {
                ensure_serial(body, context)?;
            }
            _ => {}
        }
    }
    Ok(())
}
