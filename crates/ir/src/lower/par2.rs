//! Lowering of binary fork-join (`Par2`).
//!
//! **Heartbeat mode** follows the paper's `fib` (Figures 22/23): the
//! frame pushed for the left call *advertises* the right call with a
//! promotion-ready mark. Serially, the continuation chain
//! `after_left → after_right` runs both calls back to back with zero
//! task-creation cost. On promotion, the generic handler retargets the
//! frame's continuation at `__joink`, stores the fresh join record in the
//! dead mark cell, and forks a child that enters the site's `centry`
//! block, loads the right call's arguments from the frame, and runs it on
//! a fresh stack.
//!
//! **Eager mode** is the Cilk execution model: the left call is forked
//! immediately at a cost paid on every spawn, the parent runs the right
//! call, and both meet at the join.

use tpal_core::isa::{Instr, JoinPolicy, RegMap};

use crate::ast::CallSpec;
use crate::lower::context::{
    Cx, F_CENTRY, F_CONT, F_LRES, F_MARK, F_RARGS, F_RCONT, RV, RV2, SP, SP_TOP,
};
use crate::lower::LowerError;

impl Cx<'_> {
    /// Heartbeat-mode `Par2`: serial-by-default with a latent right call.
    pub(crate) fn lower_par2_heartbeat(
        &mut self,
        site: u32,
        left: &CallSpec,
        right: &CallSpec,
    ) -> Result<(), LowerError> {
        let (lentry, lfn) = self.callee(&left.func, left.args.len())?;
        let (rentry, rfn) = self.callee(&right.func, right.args.len())?;
        self.require_fret();
        self.require_promotion_runtime();

        let sp = self.greg(SP);
        let rv = self.greg(RV);
        let fvars = self.fvars.clone();
        let nra = right.args.len() as u32;
        let k = F_RARGS + nra + fvars.len() as u32;

        let after_left = self.local("p2al", site);
        let after_right = self.local("p2ar", site);
        let centry = self.local("p2ce", site);
        let rcont = self.local("p2rc", site);
        let comb = self.local("p2cb", site);
        let post = self.local("p2post", site);

        // Evaluate the right call's arguments (stored latent in the
        // frame) and then the left call's (passed in registers).
        let rtemps = self.eval_all_pinned(&right.args);
        let ltemps = self.eval_all_pinned(&left.args);

        self.emit(Instr::SAlloc { sp, n: k });
        let al_op = self.label_operand(after_left);
        self.sstore(sp, F_CONT, al_op);
        self.emit(Instr::PrmPush {
            addr: tpal_core::isa::MemAddr {
                base: sp,
                offset: F_MARK,
            },
        });
        let ce_op = self.label_operand(centry);
        self.sstore(sp, F_CENTRY, ce_op);
        let rc_op = self.label_operand(rcont);
        self.sstore(sp, F_RCONT, rc_op);
        for (i, t) in rtemps.iter().enumerate() {
            self.sstore(sp, F_RARGS + i as u32, *t);
        }
        for (j, v) in fvars.iter().enumerate() {
            let r = self.vreg(v);
            self.sstore(sp, F_RARGS + nra + j as u32, r);
        }
        for (t, p) in ltemps.iter().zip(&lfn.params) {
            let pr = self.vreg_of(&lfn.name, p);
            self.mov(pr, *t);
        }
        self.reset_temps();
        self.finish_jump(lentry);

        // after_left: the right call was not promoted; run it here.
        self.start(after_left);
        self.emit(Instr::PrmPop {
            addr: tpal_core::isa::MemAddr {
                base: sp,
                offset: F_MARK,
            },
        });
        let ar_op = self.label_operand(after_right);
        self.sstore(sp, F_CONT, ar_op);
        self.sstore(sp, F_LRES, rv);
        for (i, p) in rfn.params.iter().enumerate() {
            let pr = self.vreg_of(&rfn.name, p);
            self.sload(pr, sp, F_RARGS + i as u32);
        }
        self.finish_jump(rentry);

        // after_right: both calls done serially.
        self.start(after_right);
        for (j, v) in fvars.iter().enumerate() {
            let r = self.vreg(v);
            self.sload(r, sp, F_RARGS + nra + j as u32);
        }
        let lt = self.treg("lres");
        self.sload(lt, sp, F_LRES);
        let lret = self.vreg(&left.ret);
        self.mov(lret, lt);
        let rret = self.vreg(&right.ret);
        self.mov(rret, rv);
        self.emit(Instr::SFree { sp, n: k });
        self.finish_jump(post);

        // centry: a promoted child starts here with a fresh stack whose
        // base is [__joink, record]; `%sp_top` points at the frame.
        self.start(centry);
        let sp_top = self.greg(SP_TOP);
        for (i, p) in rfn.params.iter().enumerate() {
            let pr = self.vreg_of(&rfn.name, p);
            self.sload(pr, sp_top, F_RARGS + i as u32);
        }
        self.finish_jump(rentry);

        // rcont: the record's continuation (join target).
        let rv_r = self.greg(RV);
        let rv2_r = self.greg(RV2);
        let comb_l = self.label_of(comb);
        self.start_annotated(
            rcont,
            tpal_core::isa::Annotation::JoinTarget {
                policy: JoinPolicy::AssocComm,
                merge: RegMap::new().with(rv_r, rv2_r),
                comb: comb_l,
            },
        );
        self.finish_jump(post);

        // comb: merged pair; parent-side sp still points at the frame
        // (the generic __joink does not move it), so the saved state is
        // recovered here before the frame is freed. Unlike the serial
        // path, the left result never went through the frame: it is in
        // the parent side's `rv` (the left call returned straight into
        // __joink), and the child's right result arrives as `rv2`.
        self.start(comb);
        for (j, v) in fvars.iter().enumerate() {
            let r = self.vreg(v);
            self.sload(r, sp, F_RARGS + nra + j as u32);
        }
        let lret = self.vreg(&left.ret);
        self.mov(lret, rv);
        let rret = self.vreg(&right.ret);
        self.mov(rret, rv2_r);
        self.emit(Instr::SFree { sp, n: k });
        let jrreg = self.treg("jr");
        self.finish(Instr::Join { jr: jrreg });

        self.start(post);
        Ok(())
    }

    /// Eager-mode `Par2`: fork the left call immediately (Cilk spawn).
    pub(crate) fn lower_par2_eager(
        &mut self,
        site: u32,
        left: &CallSpec,
        right: &CallSpec,
    ) -> Result<(), LowerError> {
        let (lentry, lfn) = self.callee(&left.func, left.args.len())?;
        let (rentry, rfn) = self.callee(&right.func, right.args.len())?;
        self.require_fret();
        // Eager spawns return through the generic __joink block.
        self.require_promotion_runtime();

        let sp = self.greg(SP);
        let jr = self.sreg(site, "jr");

        let rcont = self.local("e2rc", site);
        let comb = self.local("e2cb", site);
        let post = self.local("e2post", site);
        let joined = self.local("e2j", site);

        // Evaluate both calls' arguments up front.
        let ltemps = self.eval_all_pinned(&left.args);
        let rtemps = self.eval_all_pinned(&right.args);

        let rc_op = self.label_operand(rcont);
        self.emit(Instr::JrAlloc {
            dst: jr,
            cont: rc_op,
        });

        // Push the parent's continuation frame for the right call FIRST:
        // the saved variables must be the caller's values, which setting
        // the left call's parameter registers would clobber under
        // self-recursion.
        let fvars = self.fvars.clone();
        let k = 1 + fvars.len() as u32;
        let cont = self.fresh_label("e2ret");
        self.emit(Instr::SAlloc { sp, n: k });
        let cont_op = self.label_operand(cont);
        self.sstore(sp, 0, cont_op);
        for (i, v) in fvars.iter().enumerate() {
            let r = self.vreg(v);
            self.sstore(sp, 1 + i as u32, r);
        }

        // Child: runs the left call on a fresh stack whose base returns
        // through __joink.
        for (t, p) in ltemps.iter().zip(&lfn.params) {
            let pr = self.vreg_of(&lfn.name, p);
            self.mov(pr, *t);
        }
        let tsp = self.treg("tsp");
        self.mov(tsp, sp);
        self.emit(Instr::SNew { dst: sp });
        self.emit(Instr::SAlloc { sp, n: 2 });
        let joink = self.label_operand(self.joink);
        self.sstore(sp, F_CONT, joink);
        self.sstore(sp, F_MARK, jr);
        let lentry = self.label_operand(lentry);
        self.emit(Instr::Fork { jr, target: lentry });
        self.mov(sp, tsp);

        // Parent: run the right call serially, then join.
        for (t, p) in rtemps.iter().zip(&rfn.params) {
            let pr = self.vreg_of(&rfn.name, p);
            self.mov(pr, *t);
        }
        self.reset_temps();
        self.finish_jump(rentry);

        self.start(cont);
        for (i, v) in fvars.iter().enumerate() {
            let r = self.vreg(v);
            self.sload(r, sp, 1 + i as u32);
        }
        self.emit(Instr::SFree { sp, n: k });
        let rret = self.vreg(&right.ret);
        let rv = self.greg(RV);
        self.mov(rret, rv);
        self.finish_jump(joined);

        self.start(joined);
        self.finish(Instr::Join { jr });

        // Join continuation: child's rv (left result) arrives as rv2.
        let rv_r = self.greg(RV);
        let rv2_r = self.greg(RV2);
        let comb_l = self.label_of(comb);
        self.start_annotated(
            rcont,
            tpal_core::isa::Annotation::JoinTarget {
                policy: JoinPolicy::AssocComm,
                merge: RegMap::new().with(rv_r, rv2_r),
                comb: comb_l,
            },
        );
        self.finish_jump(post);

        self.start(comb);
        let lret = self.vreg(&left.ret);
        self.mov(lret, rv2_r);
        self.finish(Instr::Join { jr });

        self.start(post);
        Ok(())
    }
}
