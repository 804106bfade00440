//! Lowering of two-level parallel loop nests (`ParForNested`).
//!
//! The heartbeat template implements Appendix B.1's
//! promote-the-outermost-parallelism-first policy, generalising the
//! paper's `pow`: every heartbeat handler first offers latent *calls*
//! (mark list), then remaining *outer* iterations — but only when the
//! interrupted task owns them, tracked by an ownership flag transferred
//! away at inner forks (see `programs/pow.tpal`'s `loop_promote` for why
//! the paper's register-only Figure 18 needs this) — and only then splits the
//! inner loop.
//!
//! Serial and eager modes delegate to the plain loop lowerings by
//! rebuilding the nest as ordinary (Par)For statements, which is exactly
//! Cilk's behaviour (each level decomposed eagerly and independently).

use tpal_core::isa::{Annotation, BinOp, Instr};

use crate::ast::{ParFor, ParForNested};
use crate::lower::context::{Cx, ABORT, SP};
use crate::lower::LowerError;

impl Cx<'_> {
    /// Serial mode: a plain loop nest.
    pub(crate) fn lower_nested_serial(&mut self, n: &ParForNested) -> Result<(), LowerError> {
        // Site scratch slots double as the loop bounds; the nest is
        // emitted inline rather than via Stmt::For so no for-counter slot
        // (which the collector did not allocate) is consumed.
        let outer_hi = format!("%s{}_hi", self.site - 2);
        let inner_hi = format!("%s{}_hi", self.site - 1);

        // Outer loop, inlined.
        let ov = self.vreg(&n.outer_var);
        self.eval_into(&n.outer_from, ov);
        let ohi = self.vreg(&outer_hi);
        self.eval_into(&n.outer_to, ohi);
        let ohead = self.fresh_label("nsout");
        let obody = self.fresh_label("nsoutb");
        let oend = self.fresh_label("nsoutend");
        self.finish_jump(ohead);
        self.start(ohead);
        let t = self.treg("t");
        self.op(t, BinOp::Lt, ov, ohi);
        self.if_jump(t, obody);
        self.finish_jump(oend);
        self.start(obody);
        self.lower_stmts(&n.pre)?;
        self.lower_serial_for(
            &n.inner_var,
            &n.inner_from,
            &n.inner_to,
            &n.inner_body,
            &inner_hi,
        )?;
        self.lower_stmts(&n.post)?;
        if self.in_block() {
            let ov = self.vreg(&n.outer_var);
            self.op(ov, BinOp::Add, ov, 1);
            self.finish_jump(ohead);
        }
        self.start(oend);
        Ok(())
    }

    /// Eager mode: Cilk parallelises the *outer* loop only (the standard
    /// `cilk_for`-over-rows port); the inner loop runs serially inside
    /// each chunk. This is precisely why the paper's irregular matrices
    /// (one giant row) defeat the eager baseline: the giant row cannot
    /// be split once a fixed-grain chunk owns it, whereas heartbeat
    /// promotion keeps splitting it on demand.
    pub(crate) fn lower_nested_eager(
        &mut self,
        site: u32,
        n: &ParForNested,
        workers: u32,
    ) -> Result<(), LowerError> {
        let outer = ParFor {
            var: n.outer_var.clone(),
            from: n.outer_from.clone(),
            to: n.outer_to.clone(),
            body: Vec::new(), // lowered manually below
            reducers: n.outer_reducers.clone(),
        };
        let inner_hi = format!("%s{}_hi", site + 1);
        self.lower_parfor_eager_with_body(site, &outer, workers, |cx| {
            cx.lower_stmts(&n.pre)?;
            // The inner reducers' identities are established by `pre`
            // (serial semantics: no inner tasks, so no identity seeding
            // is needed).
            cx.lower_serial_for(
                &n.inner_var,
                &n.inner_from,
                &n.inner_to,
                &n.inner_body,
                &inner_hi,
            )?;
            cx.lower_stmts(&n.post)?;
            Ok(())
        })
    }

    /// Heartbeat mode: the outer-loop-first nest template.
    pub(crate) fn lower_nested_heartbeat(
        &mut self,
        site: u32,
        n: &ParForNested,
    ) -> Result<(), LowerError> {
        let isite = site + 1;

        let oloop = self.local("no", site);
        let obody = self.local("nob", site);
        let iloop = self.local("ni", site);
        let ibody = self.local("nib", site);
        let iexit = self.local("nix", site);
        let ijoin = self.local("nij", site);
        let icont = self.local("nic", site);
        let icomb = self.local("nicb", site);
        let ipost = self.local("nip", site);
        let oexit = self.local("nox", site);
        let ojoin = self.local("noj", site);
        let ocont = self.local("noc", site);
        let ocomb = self.local("nocb", site);
        let opost = self.local("nop", site);
        let h_outer = self.local("nho", site);
        let h_inner = self.local("nhi", site);
        let try_outer = self.local("nto", site);
        let try_outer2 = self.local("nto2", site);
        let oalloc = self.local("noa", site);
        let opromote = self.local("nopr", site);
        let ochild = self.local("nocd", site);
        let try_inner = self.local("nti", site);
        let habort = self.local("nha", site);
        let ialloc = self.local("nia", site);
        let ipromote = self.local("nipr", site);
        let ichild = self.local("nicd", site);

        let ov = self.vreg(&n.outer_var);
        let ohi = self.sreg(site, "hi");
        let ojr = self.sreg(site, "jr");
        let own = self.sreg(site, "own");
        let iv = self.vreg(&n.inner_var);
        let ihi = self.sreg(isite, "hi");
        let ijr = self.sreg(isite, "jr");
        let sp = self.greg(SP);
        self.require_promotion_runtime(); // handlers may promote marks

        // Entry.
        self.eval_into(&n.outer_from, ov);
        self.eval_into(&n.outer_to, ohi);
        self.mov(ojr, 0);
        self.mov(own, 0); // this task owns the outer range
        self.mov(iv, 0);
        self.mov(ihi, 0); // handlers see the inner loop as idle
        self.finish_jump(oloop);

        // Outer loop header.
        let ho = self.label_of(h_outer);
        self.start_annotated(oloop, Annotation::PromotionReady { handler: ho });
        let t = self.treg("t");
        self.op(t, BinOp::Lt, ov, ohi);
        self.if_jump(t, obody);
        self.finish_jump(oexit);

        self.start(obody);
        self.lower_stmts(&n.pre)?;
        self.mov(ijr, 0);
        self.eval_into(&n.inner_from, iv);
        self.eval_into(&n.inner_to, ihi);
        self.finish_jump(iloop);

        // Inner loop header.
        let hi_l = self.label_of(h_inner);
        self.start_annotated(iloop, Annotation::PromotionReady { handler: hi_l });
        let t = self.treg("t");
        self.op(t, BinOp::Lt, iv, ihi);
        self.if_jump(t, ibody);
        self.finish_jump(iexit);

        self.start(ibody);
        self.lower_stmts(&n.inner_body)?;
        if self.in_block() {
            let iv = self.vreg(&n.inner_var);
            self.op(iv, BinOp::Add, iv, 1);
            self.finish_jump(iloop);
        }

        // Inner exit: join only if the inner loop was ever promoted.
        self.start(iexit);
        self.if_jump(ijr, ipost);
        self.finish_jump(ijoin);
        self.start(ijoin);
        self.finish(Instr::Join { jr: ijr });
        let idelta = self.reducer_delta(&n.inner_reducers);
        self.emit_join_cont(icont, icomb, idelta, &n.inner_reducers, ijr, ipost);

        // Per-iteration epilogue; mark the inner loop idle again.
        self.start(ipost);
        self.lower_stmts(&n.post)?;
        if self.in_block() {
            let iv = self.vreg(&n.inner_var);
            self.mov(iv, 0);
            self.mov(ihi, 0);
            let ov = self.vreg(&n.outer_var);
            self.op(ov, BinOp::Add, ov, 1);
            self.finish_jump(oloop);
        }

        // Outer exit.
        self.start(oexit);
        self.if_jump(ojr, opost);
        self.finish_jump(ojoin);
        self.start(ojoin);
        self.finish(Instr::Join { jr: ojr });
        let odelta = self.reducer_delta(&n.outer_reducers);
        self.emit_join_cont(ocont, ocomb, odelta, &n.outer_reducers, ojr, opost);

        // ----- heartbeat handlers -----
        let abort = self.greg(ABORT);

        // From the outer header.
        self.start(h_outer);
        let e = self.treg("e");
        self.emit(Instr::PrmEmpty { dst: e, sp });
        let oloop_op = self.label_operand(oloop);
        self.mov(abort, oloop_op);
        self.if_jump(e, try_outer); // no marks → loop-level promotion
        self.finish_jump(self.do_promote);

        // From the inner header.
        self.start(h_inner);
        let e = self.treg("e");
        self.emit(Instr::PrmEmpty { dst: e, sp });
        let iloop_op = self.label_operand(iloop);
        self.mov(abort, iloop_op);
        self.if_jump(e, try_outer);
        self.finish_jump(self.do_promote);

        // try_outer: only the owner may split the outer range.
        self.start(try_outer);
        self.if_jump(own, try_outer2); // own == 0 (true) → owner
        self.finish_jump(try_inner);

        self.start(try_outer2);
        let rem = self.treg("rem");
        self.op(rem, BinOp::Sub, ohi, ov);
        let t = self.treg("t");
        self.op(t, BinOp::Lt, rem, 2);
        self.if_jump(t, try_inner);
        self.if_jump(ojr, oalloc);
        self.finish_jump(opromote);

        self.start(oalloc);
        let ocont_op = self.label_operand(ocont);
        self.emit(Instr::JrAlloc {
            dst: ojr,
            cont: ocont_op,
        });
        self.finish_jump(opromote);

        // opromote: child takes outer [mid, ohi) with identity outer
        // reducers, an idle inner loop, a fresh stack, and ownership of
        // its half.
        self.start(opromote);
        let rem = self.treg("rem");
        let half = self.treg("half");
        let mid = self.treg("mid");
        self.op(rem, BinOp::Sub, ohi, ov);
        self.op(half, BinOp::Div, rem, 2);
        self.op(mid, BinOp::Sub, ohi, half);
        let ti = self.treg("ti");
        self.mov(ti, ov);
        self.mov(ov, mid);
        let parked = self.park_reducers(&n.outer_reducers);
        let tj = self.treg("tj");
        let tihi = self.treg("tihi");
        self.mov(tj, iv);
        self.mov(tihi, ihi);
        self.mov(iv, 0);
        self.mov(ihi, 0);
        let tsp = self.treg("tsp");
        self.mov(tsp, sp);
        self.emit(Instr::SNew { dst: sp });
        let ochild_op = self.label_operand(ochild);
        self.emit(Instr::Fork {
            jr: ojr,
            target: ochild_op,
        });
        self.mov(sp, tsp);
        self.mov(ov, ti);
        self.mov(ohi, mid);
        self.mov(iv, tj);
        self.mov(ihi, tihi);
        self.unpark_reducers(&n.outer_reducers, &parked);
        self.reset_temps();
        self.finish(Instr::Jump {
            target: tpal_core::isa::Operand::Reg(abort),
        });

        self.start(ochild);
        self.finish_jump(oloop);

        // try_inner: split the inner range.
        self.start(try_inner);
        let rem = self.treg("rem");
        self.op(rem, BinOp::Sub, ihi, iv);
        let t = self.treg("t");
        self.op(t, BinOp::Lt, rem, 2);
        self.if_jump(t, habort);
        self.if_jump(ijr, ialloc);
        self.finish_jump(ipromote);

        self.start(habort);
        self.finish(Instr::Jump {
            target: tpal_core::isa::Operand::Reg(abort),
        });

        self.start(ialloc);
        let icont_op = self.label_operand(icont);
        self.emit(Instr::JrAlloc {
            dst: ijr,
            cont: icont_op,
        });
        self.finish_jump(ipromote);

        // ipromote: child takes inner [mid, ihi); ownership of the outer
        // range stays with the promoting task.
        self.start(ipromote);
        let rem = self.treg("rem");
        let half = self.treg("half");
        let mid = self.treg("mid");
        self.op(rem, BinOp::Sub, ihi, iv);
        self.op(half, BinOp::Div, rem, 2);
        self.op(mid, BinOp::Sub, ihi, half);
        let tj = self.treg("tj");
        self.mov(tj, iv);
        self.mov(iv, mid);
        let parked = self.park_reducers(&n.inner_reducers);
        let town = self.treg("town");
        self.mov(town, own);
        self.mov(own, 1); // the child does not own the outer range
        let tsp = self.treg("tsp");
        self.mov(tsp, sp);
        self.emit(Instr::SNew { dst: sp });
        let ichild_op = self.label_operand(ichild);
        self.emit(Instr::Fork {
            jr: ijr,
            target: ichild_op,
        });
        self.mov(sp, tsp);
        self.mov(own, town);
        self.mov(iv, tj);
        self.mov(ihi, mid);
        self.unpark_reducers(&n.inner_reducers, &parked);
        self.reset_temps();
        self.finish(Instr::Jump {
            target: tpal_core::isa::Operand::Reg(abort),
        });

        self.start(ichild);
        self.finish_jump(iloop);

        self.start(opost);
        Ok(())
    }

    /// An eager parallel loop whose body is emitted by a closure (used by
    /// the eager nest lowering, whose inner loop cannot be expressed as a
    /// plain statement without desynchronising site numbering).
    pub(crate) fn lower_parfor_eager_with_body(
        &mut self,
        site: u32,
        pf: &ParFor,
        workers: u32,
        body: impl FnOnce(&mut Self) -> Result<(), LowerError>,
    ) -> Result<(), LowerError> {
        let split = self.local("ef", site);
        let alloc = self.local("efalloc", site);
        let fork_l = self.local("effork", site);
        let child = self.local("efchild", site);
        let leaf = self.local("efleaf", site);
        let lhead = self.local("eflh", site);
        let lbody = self.local("eflb", site);
        let exit = self.local("efexit", site);
        let join_l = self.local("efjoin", site);
        let cont = self.local("efcont", site);
        let comb = self.local("efcomb", site);
        let post = self.local("efpost", site);

        let v = self.vreg(&pf.var);
        let hi = self.sreg(site, "hi");
        let jr = self.sreg(site, "jr");
        let grain = self.sreg(site, "grain");
        let sp = self.greg(SP);

        self.eval_into(&pf.from, v);
        self.eval_into(&pf.to, hi);
        self.mov(jr, 0);
        let rem = self.treg("rem");
        self.op(rem, BinOp::Sub, hi, v);
        self.op(grain, BinOp::Div, rem, (8 * workers.max(1)) as i64);
        self.op(grain, BinOp::Max, grain, 1);
        self.finish_jump(split);

        self.start(split);
        let rem = self.treg("rem");
        let t = self.treg("t");
        self.op(rem, BinOp::Sub, hi, v);
        self.op(t, BinOp::Le, rem, grain);
        self.if_jump(t, leaf);
        self.if_jump(jr, alloc);
        self.finish_jump(fork_l);

        self.start(alloc);
        let cont_op = self.label_operand(cont);
        self.emit(Instr::JrAlloc {
            dst: jr,
            cont: cont_op,
        });
        self.finish_jump(fork_l);

        self.start(fork_l);
        let mid = self.treg("mid");
        self.op(mid, BinOp::Add, v, hi);
        self.op(mid, BinOp::Div, mid, 2);
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
        self.finish_jump(split);

        self.start(child);
        self.finish_jump(split);

        self.start(leaf);
        self.finish_jump(lhead);
        self.start(lhead);
        let t = self.treg("t");
        self.op(t, BinOp::Lt, v, hi);
        self.if_jump(t, lbody);
        self.finish_jump(exit);
        self.start(lbody);
        body(self)?;
        if self.in_block() {
            let v = self.vreg(&pf.var);
            self.op(v, BinOp::Add, v, 1);
            self.finish_jump(lhead);
        }

        self.start(exit);
        self.if_jump(jr, post);
        self.finish_jump(join_l);
        self.start(join_l);
        self.finish(Instr::Join { jr });

        let delta = self.reducer_delta(&pf.reducers);
        self.emit_join_cont(cont, comb, delta, &pf.reducers, jr, post);

        self.start(post);
        Ok(())
    }
}
