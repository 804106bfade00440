//! Lowering of parallel loops (`ParFor`).
//!
//! **Heartbeat mode** is the paper's `prod` pattern (Figure 2): the loop
//! runs serially on registers with zero per-iteration parallelism cost;
//! a heartbeat diverts to the site's handler, which first offers any
//! *older* latent calls on the mark list (outermost-first), then splits
//! the remaining iteration range in half, forking the upper half. All
//! splits of one loop instance share one join record; reducers combine
//! pairwise at the join tree.
//!
//! **Eager mode** is Cilk's `cilk_for`: the range is divided up front by
//! recursive binary splitting until chunks reach the `8P` grain.

use tpal_core::isa::{Annotation, BinOp, Instr};

use crate::ast::ParFor;
use crate::lower::context::{Cx, ABORT, SP};
use crate::lower::LowerError;

impl Cx<'_> {
    /// Heartbeat-mode parallel loop.
    pub(crate) fn lower_parfor_heartbeat(
        &mut self,
        site: u32,
        pf: &ParFor,
    ) -> Result<(), LowerError> {
        let head = self.local("pf", site);
        let body_l = self.local("pfbody", site);
        let exit = self.local("pfexit", site);
        let join_l = self.local("pfjoin", site);
        let cont = self.local("pfcont", site);
        let comb = self.local("pfcomb", site);
        let handler = self.local("pfh", site);
        let h_own = self.local("pfhown", site);
        let h_alloc = self.local("pfhalloc", site);
        let h_split = self.local("pfhsplit", site);
        let child = self.local("pfchild", site);
        let post = self.local("pfpost", site);

        let v = self.vreg(&pf.var);
        let hi = self.sreg(site, "hi");
        let jr = self.sreg(site, "jr");
        let sp = self.greg(SP);

        // Loop entry.
        self.eval_into(&pf.from, v);
        self.eval_into(&pf.to, hi);
        self.mov(jr, 0);
        self.finish_jump(head);

        // head: [prppt handler]
        let hlabel = self.label_of(handler);
        self.start_annotated(head, Annotation::PromotionReady { handler: hlabel });
        let t = self.treg("t");
        self.op(t, BinOp::Lt, v, hi);
        self.if_jump(t, body_l);
        self.finish_jump(exit);

        self.start(body_l);
        self.lower_stmts(&pf.body)?;
        if self.in_block() {
            let v = self.vreg(&pf.var);
            self.op(v, BinOp::Add, v, 1);
            self.finish_jump(head);
        }

        // exit: the serial path (record never allocated) goes straight to
        // the continuation; promoted tasks join.
        self.start(exit);
        self.if_jump(jr, post); // jr == 0 → never promoted
        self.finish_jump(join_l);

        self.start(join_l);
        self.finish(Instr::Join { jr });

        // Join continuation and combining block.
        let delta = self.reducer_delta(&pf.reducers);
        self.emit_join_cont(cont, comb, delta, &pf.reducers, jr, post);

        // handler: older latent calls first (outermost-first policy).
        self.start(handler);
        let e = self.treg("e");
        self.emit(Instr::PrmEmpty { dst: e, sp });
        self.if_jump(e, h_own); // no marks → consider our own range
        self.require_promotion_runtime();
        let abort = self.greg(ABORT);
        let head_op = self.label_operand(head);
        self.mov(abort, head_op);
        self.finish_jump(self.do_promote);

        // h_own: split our range if at least two iterations remain.
        self.start(h_own);
        let rem = self.treg("rem");
        self.op(rem, BinOp::Sub, hi, v);
        let t = self.treg("t");
        self.op(t, BinOp::Lt, rem, 2);
        self.if_jump(t, head); // nothing to promote → resume
        self.if_jump(jr, h_alloc); // first promotion allocates the record
        self.finish_jump(h_split);

        self.start(h_alloc);
        let cont_op = self.label_operand(cont);
        self.emit(Instr::JrAlloc {
            dst: jr,
            cont: cont_op,
        });
        self.finish_jump(h_split);

        // h_split: child takes [mid, hi) with identity reducers and a
        // fresh stack; the parent keeps [i, mid).
        self.start(h_split);
        let rem = self.treg("rem");
        let half = self.treg("half");
        let mid = self.treg("mid");
        self.op(rem, BinOp::Sub, hi, v);
        self.op(half, BinOp::Div, rem, 2);
        self.op(mid, BinOp::Sub, hi, half);
        let ti = self.treg("ti");
        self.mov(ti, v);
        self.mov(v, mid);
        let parked = self.park_reducers(&pf.reducers);
        let tsp = self.treg("tsp");
        self.mov(tsp, sp);
        self.emit(Instr::SNew { dst: sp });
        let child_op = self.label_operand(child);
        self.emit(Instr::Fork {
            jr,
            target: child_op,
        });
        self.mov(sp, tsp);
        self.mov(v, ti);
        self.mov(hi, mid);
        self.unpark_reducers(&pf.reducers, &parked);
        self.reset_temps();
        self.finish_jump(head);

        self.start(child);
        self.finish_jump(head);

        self.start(post);
        Ok(())
    }

    /// Heartbeat-mode parallel loop in the *expanded* block style of the
    /// paper's §D.5: separate serial and parallel loop blocks, as in the
    /// `prod` listing (Figure 2). The never-promoted serial path exits
    /// straight to the continuation with no join-record code — the
    /// deepest specialisation — at the cost of emitting the body twice.
    pub(crate) fn lower_parfor_expanded(
        &mut self,
        site: u32,
        pf: &ParFor,
    ) -> Result<(), LowerError> {
        let shead = self.local("pxs", site);
        let sbody = self.local("pxsb", site);
        let phead = self.local("pxp", site);
        let pbody = self.local("pxpb", site);
        let join_l = self.local("pxjoin", site);
        let cont = self.local("pxcont", site);
        let comb = self.local("pxcomb", site);
        let h_s = self.local("pxhs", site);
        let h_p = self.local("pxhp", site);
        let h_own_s = self.local("pxhos", site);
        let h_own_p = self.local("pxhop", site);
        let h_alloc = self.local("pxhalloc", site);
        let h_split = self.local("pxhsplit", site);
        let child = self.local("pxchild", site);
        let post = self.local("pxpost", site);

        let v = self.vreg(&pf.var);
        let hi = self.sreg(site, "hi");
        let jr = self.sreg(site, "jr");
        let sp = self.greg(SP);

        // Entry: note no `jr := 0` — the serial path never reads it.
        self.eval_into(&pf.from, v);
        self.eval_into(&pf.to, hi);
        self.finish_jump(shead);

        // Serial loop: [prppt h_s]; exits STRAIGHT to post.
        let hslabel = self.label_of(h_s);
        self.start_annotated(shead, Annotation::PromotionReady { handler: hslabel });
        let t = self.treg("t");
        self.op(t, BinOp::Lt, v, hi);
        self.if_jump(t, sbody);
        self.finish_jump(post);

        let forc_mark = self.forc;
        self.start(sbody);
        self.lower_stmts(&pf.body)?;
        if self.in_block() {
            let v = self.vreg(&pf.var);
            self.op(v, BinOp::Add, v, 1);
            self.finish_jump(shead);
        }

        // Parallel loop: [prppt h_p]; exits to an unconditional join.
        let hplabel = self.label_of(h_p);
        self.start_annotated(phead, Annotation::PromotionReady { handler: hplabel });
        let t = self.treg("t");
        self.op(t, BinOp::Lt, v, hi);
        self.if_jump(t, pbody);
        self.finish_jump(join_l);

        // Second body emission replays the serial-for scratch numbering
        // of the first (only one copy runs per task instance, so sharing
        // the saved slots is sound).
        self.forc = forc_mark;
        self.start(pbody);
        self.lower_stmts(&pf.body)?;
        if self.in_block() {
            let v = self.vreg(&pf.var);
            self.op(v, BinOp::Add, v, 1);
            self.finish_jump(phead);
        }

        self.start(join_l);
        self.finish(Instr::Join { jr });

        let delta = self.reducer_delta(&pf.reducers);
        self.emit_join_cont(cont, comb, delta, &pf.reducers, jr, post);

        // Handlers: the serial one allocates the record on the first
        // promotion (prod's loop-try-promote); the parallel one reuses it
        // (loop-par-try-promote). Both offer older latent calls first.
        for (handler, own, abort) in [(h_s, h_own_s, shead), (h_p, h_own_p, phead)] {
            self.start(handler);
            let e = self.treg("e");
            self.emit(Instr::PrmEmpty { dst: e, sp });
            self.if_jump(e, own);
            self.require_promotion_runtime();
            let abort_r = self.greg(ABORT);
            let abort_op = self.label_operand(abort);
            self.mov(abort_r, abort_op);
            self.finish_jump(self.do_promote);
        }

        self.start(h_own_s);
        let rem = self.treg("rem");
        self.op(rem, BinOp::Sub, hi, v);
        let t = self.treg("t");
        self.op(t, BinOp::Lt, rem, 2);
        self.if_jump(t, shead);
        self.finish_jump(h_alloc);

        self.start(h_alloc);
        let cont_op = self.label_operand(cont);
        self.emit(Instr::JrAlloc {
            dst: jr,
            cont: cont_op,
        });
        self.finish_jump(h_split);

        self.start(h_own_p);
        let rem = self.treg("rem");
        self.op(rem, BinOp::Sub, hi, v);
        let t = self.treg("t");
        self.op(t, BinOp::Lt, rem, 2);
        self.if_jump(t, phead);
        self.finish_jump(h_split);

        self.start(h_split);
        let rem = self.treg("rem");
        let half = self.treg("half");
        let mid = self.treg("mid");
        self.op(rem, BinOp::Sub, hi, v);
        self.op(half, BinOp::Div, rem, 2);
        self.op(mid, BinOp::Sub, hi, half);
        let ti = self.treg("ti");
        self.mov(ti, v);
        self.mov(v, mid);
        let parked = self.park_reducers(&pf.reducers);
        let tsp = self.treg("tsp");
        self.mov(tsp, sp);
        self.emit(Instr::SNew { dst: sp });
        let child_op = self.label_operand(child);
        self.emit(Instr::Fork {
            jr,
            target: child_op,
        });
        self.mov(sp, tsp);
        self.mov(v, ti);
        self.mov(hi, mid);
        self.unpark_reducers(&pf.reducers, &parked);
        self.reset_temps();
        self.finish_jump(phead);

        self.start(child);
        self.finish_jump(phead);

        self.start(post);
        Ok(())
    }

    /// Eager-mode parallel loop: Cilk's `8P`-grain recursive binary
    /// splitting (see [`Cx::lower_parfor_eager_with_body`]).
    pub(crate) fn lower_parfor_eager(
        &mut self,
        site: u32,
        pf: &ParFor,
        workers: u32,
    ) -> Result<(), LowerError> {
        self.lower_parfor_eager_with_body(site, pf, workers, |cx| cx.lower_stmts(&pf.body))
    }
}
