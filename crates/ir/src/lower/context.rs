//! The lowering context: block emission, register naming, expression
//! code generation, and the shared runtime blocks.

use std::fmt::{self, Write as _};
use std::rc::Rc;

use tpal_core::isa::{Annotation, BinOp, Instr, JoinPolicy, Label, MemAddr, Operand, Reg, RegMap};
use tpal_core::program::{Program, ProgramBuilder};

use crate::ast::{Expr, Function, IrProgram, Reducer, Stmt};
use crate::lower::{LowerError, Mode};

/// Global (function-independent) register names used by the calling
/// convention and the promotion runtime.
pub(crate) const RV: &str = "rv";
pub(crate) const RV2: &str = "rv2";
pub(crate) const SP: &str = "sp";
pub(crate) const SP_TOP: &str = "%sp_top";
pub(crate) const ABORT: &str = "%abort";

/// Fixed cell offsets of a `Par2` frame (see the module docs of
/// [`crate::lower`]).
pub(crate) const F_CONT: u32 = 0;
pub(crate) const F_MARK: u32 = 1;
pub(crate) const F_CENTRY: u32 = 2;
pub(crate) const F_RCONT: u32 = 3;
pub(crate) const F_LRES: u32 = 4;
pub(crate) const F_RARGS: u32 = 5;

/// A block of the program being lowered. It is named when created and
/// receives its [`Label`] at its first reference or definition —
/// whichever the lowering reaches first — which is the order labels
/// have always been numbered in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Blk(usize);

/// Every [`Blk`] created: their names end to end, where each one's name
/// is, and its label once it has one.
#[derive(Default)]
struct Blocks {
    names: String,
    slots: Vec<(std::ops::Range<usize>, Option<Label>)>,
}

impl Blocks {
    /// A block of the given name.
    fn named(&mut self, name: fmt::Arguments<'_>) -> Blk {
        let start = self.names.len();
        let _ = self.names.write_fmt(name);
        self.slots.push((start..self.names.len(), None));
        Blk(self.slots.len() - 1)
    }

    fn name(&self, blk: Blk) -> &str {
        &self.names[self.slots[blk.0].0.clone()]
    }
}

pub(crate) struct Cx<'a> {
    pub ir: &'a IrProgram,
    pub mode: Mode,
    pub b: ProgramBuilder,
    /// Current function name (empty while emitting the shared runtime
    /// blocks, whose names are global).
    pub f: &'a str,
    /// All saved-at-call registers of the current function, in frame
    /// order (shared: every call site walks them while it emits).
    pub fvars: Rc<[String]>,
    /// Per-function site counter (parallel constructs).
    pub site: u32,
    /// Per-function serial-for counter (loop-bound scratch slots).
    pub forc: u32,
    /// Fresh-label counter.
    fresh: u32,
    /// Expression temp depth.
    tdepth: u32,
    /// The open block, its annotation, and (in `code`) its instructions
    /// so far.
    cur: Option<(Blk, Annotation)>,
    code: Vec<Instr>,
    blocks: Blocks,
    /// Where register names are spelled out before they are interned.
    scratch: String,
    /// `{name}__entry` of each function, indexed like `ir.functions`.
    entries: Vec<Blk>,
    /// The shared runtime blocks.
    pub fret: Blk,
    pub dexit: Blk,
    pub joink: Blk,
    pub do_promote: Blk,
    /// Whether any Par2 exists anywhere (decides entry annotations and
    /// the promotion runtime blocks).
    pub has_par2: bool,
    /// Whether the promotion runtime (do_promote/joink) is required.
    need_promote_rt: bool,
    /// Whether fret is required.
    need_fret: bool,
    /// Whether the detached-task exit block (`__dexit`) is required.
    need_dexit: bool,
}

fn stmts_contain_par2(stmts: &[Stmt]) -> bool {
    stmts.iter().any(|s| match s {
        Stmt::Par2 { .. } => true,
        Stmt::If { then_, else_, .. } => stmts_contain_par2(then_) || stmts_contain_par2(else_),
        Stmt::While { body, .. } | Stmt::For { body, .. } => stmts_contain_par2(body),
        Stmt::ParFor(pf) => stmts_contain_par2(&pf.body),
        Stmt::ParForNested(n) => {
            stmts_contain_par2(&n.pre)
                || stmts_contain_par2(&n.inner_body)
                || stmts_contain_par2(&n.post)
        }
        _ => false,
    })
}

impl<'a> Cx<'a> {
    pub fn new(ir: &'a IrProgram, mode: Mode) -> Self {
        let has_par2 = ir.functions.iter().any(|f| stmts_contain_par2(&f.body));
        let mut blocks = Blocks::default();
        let [fret, dexit, joink, do_promote] = ["__fret", "__dexit", "__joink", "__do_promote"]
            .map(|name| blocks.named(format_args!("{name}")));
        let entries = ir
            .functions
            .iter()
            .map(|f| blocks.named(format_args!("{}__entry", f.name)))
            .collect();
        Cx {
            ir,
            mode,
            b: ProgramBuilder::new(),
            f: "",
            fvars: Rc::from([]),
            site: 0,
            forc: 0,
            fresh: 0,
            tdepth: 0,
            cur: None,
            code: Vec::new(),
            blocks,
            scratch: String::new(),
            entries,
            fret,
            dexit,
            joink,
            do_promote,
            has_par2,
            need_promote_rt: false,
            need_fret: false,
            need_dexit: false,
        }
    }

    // ----- names -----

    /// Interns the register whose name `spell` writes.
    fn reg(&mut self, spell: impl FnOnce(&mut String)) -> Reg {
        self.scratch.clear();
        spell(&mut self.scratch);
        self.b.reg(&self.scratch)
    }

    /// The register for variable `v` of the current function.
    pub fn vreg(&mut self, v: &str) -> Reg {
        self.vreg_of(self.f, v)
    }

    /// The register for variable `v` of function `f`.
    pub fn vreg_of(&mut self, f: &str, v: &str) -> Reg {
        self.reg(|name| {
            name.push_str(f);
            name.push('.');
            name.push_str(v);
        })
    }

    /// A global (function-independent) register.
    pub fn greg(&mut self, name: &str) -> Reg {
        self.b.reg(name)
    }

    /// A per-site scratch register, registered as a saved variable of the
    /// enclosing function by the collection pass.
    pub fn sreg(&mut self, site: u32, which: &str) -> Reg {
        let f = self.f;
        self.reg(|name| {
            let _ = write!(name, "{f}.%s{site}_{which}");
        })
    }

    /// A transient handler/template register (never live across a call).
    pub fn treg(&mut self, name: &str) -> Reg {
        self.reg(|spelled| {
            spelled.push('%');
            spelled.push_str(name);
        })
    }

    /// The block `{f}__{stem}{n}` of the current function: `n` is a
    /// parallel site for the templates' fixed stems, a fresh count for
    /// everything else.
    pub fn local(&mut self, stem: &str, n: u32) -> Blk {
        self.blocks.named(format_args!("{}__{stem}{n}", self.f))
    }

    /// A fresh block of the current function.
    pub fn fresh_label(&mut self, prefix: &str) -> Blk {
        self.fresh += 1;
        self.local(prefix, self.fresh)
    }

    /// The entry block and the declaration of the function named `func`.
    pub fn function(&self, func: &str) -> Option<(Blk, &'a Function)> {
        let ir = self.ir;
        let at = ir.functions.iter().position(|f| f.name == func)?;
        Some((self.entries[at], &ir.functions[at]))
    }

    /// [`Cx::function`] for a call passing `args` arguments.
    pub fn callee(&self, func: &str, args: usize) -> Result<(Blk, &'a Function), LowerError> {
        let (entry, callee) = self
            .function(func)
            .ok_or_else(|| LowerError::UnknownFunction {
                name: func.to_owned(),
            })?;
        if callee.params.len() != args {
            return Err(LowerError::ArityMismatch {
                name: func.to_owned(),
                expected: callee.params.len(),
                got: args,
            });
        }
        Ok((entry, callee))
    }

    /// The label of `blk`, interned at the first call.
    pub fn label_of(&mut self, blk: Blk) -> Label {
        let (name, label) = &mut self.blocks.slots[blk.0];
        *label.get_or_insert_with(|| self.b.label(&self.blocks.names[name.clone()]))
    }

    // ----- block emission -----

    /// Begins a new block (the previous one must have been finished).
    pub fn start(&mut self, blk: Blk) {
        self.start_annotated(blk, Annotation::None);
    }

    /// Begins a new annotated block.
    pub fn start_annotated(&mut self, blk: Blk, ann: Annotation) {
        assert!(
            self.cur.is_none(),
            "block `{}` started inside an open block",
            self.blocks.name(blk)
        );
        self.cur = Some((blk, ann));
    }

    /// Appends an instruction to the open block.
    pub fn emit(&mut self, i: Instr) {
        assert!(self.cur.is_some(), "emit outside any block");
        self.code.push(i);
    }

    /// Ends the open block with an explicit terminator.
    pub fn finish(&mut self, terminator: Instr) {
        debug_assert!(terminator.is_terminator());
        let (blk, ann) = self.cur.take().expect("finish outside any block");
        self.code.push(terminator);
        let label = self.label_of(blk);
        self.b.define(label, ann, self.code.clone());
        self.code.clear();
    }

    /// Ends the open block by jumping to `target`.
    pub fn finish_jump(&mut self, target: Blk) {
        let target = self.label_operand(target);
        self.finish(Instr::Jump { target });
    }

    /// True when a block is open.
    pub fn in_block(&self) -> bool {
        self.cur.is_some()
    }

    // ----- small emission helpers -----

    pub fn mov(&mut self, dst: Reg, src: impl Into<Operand>) {
        self.emit(Instr::Move {
            dst,
            src: src.into(),
        });
    }

    pub fn op(&mut self, dst: Reg, op: BinOp, lhs: Reg, rhs: impl Into<Operand>) {
        self.emit(Instr::Op {
            dst,
            op,
            lhs,
            rhs: rhs.into(),
        });
    }

    pub fn if_jump(&mut self, cond: Reg, target: Blk) {
        let target = self.label_operand(target);
        self.emit(Instr::IfJump { cond, target });
    }

    pub fn sstore(&mut self, base: Reg, offset: u32, src: impl Into<Operand>) {
        self.emit(Instr::Store {
            addr: MemAddr { base, offset },
            src: src.into(),
        });
    }

    pub fn sload(&mut self, dst: Reg, base: Reg, offset: u32) {
        self.emit(Instr::Load {
            dst,
            addr: MemAddr { base, offset },
        });
    }

    pub fn label_operand(&mut self, blk: Blk) -> Operand {
        Operand::Label(self.label_of(blk))
    }

    // ----- expressions -----

    fn new_temp(&mut self) -> Reg {
        let (f, depth) = (self.f, self.tdepth);
        self.tdepth += 1;
        self.reg(|name| {
            let _ = write!(name, "{f}.%t{depth}");
        })
    }

    /// Evaluates `e` to an operand, emitting code for compound
    /// expressions into a fresh temp. The temp depth is restored by
    /// [`Cx::eval_into`]'s callers via save/restore.
    pub fn eval_operand(&mut self, e: &Expr) -> Operand {
        match e {
            Expr::Int(n) => Operand::Int(*n),
            Expr::Var(v) => Operand::Reg(self.vreg(v)),
            _ => {
                let t = self.new_temp();
                self.eval_into_raw(e, t);
                Operand::Reg(t)
            }
        }
    }

    /// Evaluates `e` to a register (materialising literals).
    pub fn eval_reg(&mut self, e: &Expr) -> Reg {
        match e {
            Expr::Var(v) => self.vreg(v),
            _ => {
                let t = self.new_temp();
                self.eval_into_raw(e, t);
                t
            }
        }
    }

    fn eval_into_raw(&mut self, e: &Expr, dst: Reg) {
        match e {
            Expr::Int(n) => self.mov(dst, *n),
            Expr::Var(v) => {
                let r = self.vreg(v);
                if r != dst {
                    self.mov(dst, r);
                }
            }
            Expr::Bin(op, l, r) => {
                let saved = self.tdepth;
                let lreg = self.eval_reg(l);
                let rop = self.eval_operand(r);
                self.op(dst, *op, lreg, rop);
                self.tdepth = saved;
            }
            Expr::Load { base, idx } => {
                let saved = self.tdepth;
                let breg = self.eval_reg(base);
                let iop = self.eval_operand(idx);
                self.emit(Instr::HLoad {
                    dst,
                    base: breg,
                    offset: iop,
                });
                self.tdepth = saved;
            }
        }
    }

    /// Evaluates `e` into `dst`, resetting the temp pool afterwards.
    pub fn eval_into(&mut self, e: &Expr, dst: Reg) {
        let saved = self.tdepth;
        self.eval_into_raw(e, dst);
        self.tdepth = saved;
    }

    /// Evaluates each expression into a fresh pinned temp (used for call
    /// arguments, which must all be computed before parameter registers
    /// are overwritten). Returns the temps; the caller resets the pool
    /// with [`Cx::reset_temps`].
    pub fn eval_all_pinned(&mut self, es: &[Expr]) -> Vec<Reg> {
        es.iter()
            .map(|e| {
                let t = self.new_temp();
                self.eval_into_raw(e, t);
                t
            })
            .collect()
    }

    pub fn reset_temps(&mut self) {
        self.tdepth = 0;
    }

    // ----- reducer helpers -----

    /// The shadow register of a reducer (`ΔR` target at joins).
    pub fn shadow(&mut self, r: &Reducer) -> Reg {
        let f = self.f;
        self.reg(|name| {
            let _ = write!(name, "{f}.{}__2", r.var);
        })
    }

    /// Builds the `ΔR` of a join continuation from reducer declarations.
    pub fn reducer_delta(&mut self, rs: &[Reducer]) -> RegMap {
        let mut m = RegMap::new();
        for r in rs {
            let src = self.vreg(&r.var);
            let dst = self.shadow(r);
            m = m.with(src, dst);
        }
        m
    }

    /// Emits the combining block body for reducers: `v := v op v__2`.
    pub fn emit_reducer_combine(&mut self, rs: &[Reducer]) {
        for r in rs {
            let v = self.vreg(&r.var);
            let s = self.shadow(r);
            self.op(v, r.op, v, s);
        }
    }

    /// Parks reducers for a fork (child starts at the identity) into the
    /// given pinned temps, and returns the temps for restoration.
    pub fn park_reducers(&mut self, rs: &[Reducer]) -> Vec<Reg> {
        let mut temps = Vec::with_capacity(rs.len());
        for r in rs {
            let v = self.vreg(&r.var);
            let t = self.new_temp();
            self.mov(t, v);
            self.mov(v, r.identity);
            temps.push(t);
        }
        temps
    }

    /// Restores parked reducers after a fork.
    pub fn unpark_reducers(&mut self, rs: &[Reducer], temps: &[Reg]) {
        for (r, t) in rs.iter().zip(temps) {
            let v = self.vreg(&r.var);
            self.mov(v, *t);
        }
    }

    // ----- jtppt continuation helper -----

    /// Defines a join continuation block pair: `cont` (annotated jtppt,
    /// jumping to `post`) and `comb` (combining reducers, rejoining
    /// `jr`).
    pub fn emit_join_cont(
        &mut self,
        cont: Blk,
        comb: Blk,
        delta: RegMap,
        reducers: &[Reducer],
        jr: Reg,
        post: Blk,
    ) {
        let comb_l = self.label_of(comb);
        self.start_annotated(
            cont,
            Annotation::JoinTarget {
                policy: JoinPolicy::AssocComm,
                merge: delta,
                comb: comb_l,
            },
        );
        self.finish_jump(post);

        self.start(comb);
        self.emit_reducer_combine(reducers);
        self.finish(Instr::Join { jr });
    }

    // ----- the main wrapper and shared runtime blocks -----

    /// Emits the program entry wrapper: gives the initial task a stack
    /// and a root frame whose continuation stores the result and halts.
    pub fn emit_main_wrapper(&mut self, entry: Blk) {
        self.need_fret = true;
        let sp = self.greg(SP);
        let rv = self.greg(RV);
        let result = self.greg("result");
        let [main, done] =
            ["__main", "__done"].map(|name| self.blocks.named(format_args!("{name}")));
        self.start(main);
        self.emit(Instr::SNew { dst: sp });
        self.mov(rv, 0);
        self.emit(Instr::SAlloc { sp, n: 1 });
        let done_op = self.label_operand(done);
        self.sstore(sp, 0, done_op);
        self.finish_jump(entry);

        self.start(done);
        self.mov(result, rv);
        self.emit(Instr::SFree { sp, n: 1 });
        self.finish(Instr::Halt);
    }

    pub fn require_promotion_runtime(&mut self) {
        self.need_promote_rt = true;
    }

    pub fn require_fret(&mut self) {
        self.need_fret = true;
    }

    pub fn require_dexit(&mut self) {
        self.need_dexit = true;
    }

    /// Emits the shared runtime blocks used across sites: the return
    /// trampoline `__fret`, the generic `__joink`, and the generic
    /// outermost-first promotion `__do_promote`.
    pub fn emit_runtime_blocks(&mut self) {
        let saved_f = std::mem::take(&mut self.f); // global names
        if self.need_fret {
            let t = self.treg("fret_t");
            let sp = self.greg(SP);
            self.start(self.fret);
            self.sload(t, sp, F_CONT);
            self.finish(Instr::Jump {
                target: Operand::Reg(t),
            });
        }
        if self.need_dexit {
            // __dexit: the return continuation at the base of a detached
            // task's private stack. The callee's `__fret` lands here; the
            // `halt` retires only the detached task (executors keep
            // running until the root halts).
            self.start(self.dexit);
            self.finish(Instr::Halt);
        }
        if self.need_promote_rt {
            let sp = self.greg(SP);
            let jr = self.treg("jr");
            // __joink: reached through a promoted frame's continuation
            // cell, or at the base of a child's fresh stack; reload the
            // record from the dead mark cell and join.
            self.start(self.joink);
            self.sload(jr, sp, F_MARK);
            self.finish(Instr::Join { jr });

            // __do_promote: reify the oldest latent call (Appendix B.2).
            // `%abort` names the block to resume.
            let top = self.treg("top");
            let sp_top = self.greg(SP_TOP);
            let rc = self.treg("rc");
            let tce = self.treg("tce");
            let tsp = self.treg("tsp");
            let abort = self.greg(ABORT);
            let joink = self.label_operand(self.joink);
            self.start(self.do_promote);
            self.emit(Instr::PrmSplit { sp, dst: top });
            self.op(sp_top, BinOp::Add, sp, top);
            self.op(sp_top, BinOp::Sub, sp_top, 1);
            self.sload(rc, sp_top, F_RCONT);
            self.emit(Instr::JrAlloc {
                dst: jr,
                cont: Operand::Reg(rc),
            });
            self.sstore(sp_top, F_CONT, joink);
            self.sstore(sp_top, F_MARK, jr);
            self.sload(tce, sp_top, F_CENTRY);
            self.mov(tsp, sp);
            self.emit(Instr::SNew { dst: sp });
            self.emit(Instr::SAlloc { sp, n: 2 });
            self.sstore(sp, F_CONT, joink);
            self.sstore(sp, F_MARK, jr);
            self.emit(Instr::Fork {
                jr,
                target: Operand::Reg(tce),
            });
            self.mov(sp, tsp);
            self.finish(Instr::Jump {
                target: Operand::Reg(abort),
            });
        }
        self.f = saved_f;
    }

    /// Finalises the program. The entry is the `__main` wrapper (the
    /// first block emitted).
    pub fn into_program(self) -> Result<Program, tpal_core::program::ValidationError> {
        self.b.build()
    }

    // ----- function lowering -----

    pub fn lower_function(&mut self, at: usize) -> Result<(), LowerError> {
        let f = &self.ir.functions[at];
        self.f = &f.name;
        self.fvars = collect_saved_vars(f, &mut SiteCounter::default()).into();
        self.site = 0;
        self.forc = 0;
        self.fresh = 0;
        self.reset_temps();

        let entry = self.entries[at];
        // The entry heartbeat handler, where the function has one.
        let hentry = (self.mode.is_heartbeat() && self.has_par2).then(|| {
            self.require_promotion_runtime();
            self.blocks.named(format_args!("{}__hentry", f.name))
        });
        let ann = match hentry {
            Some(h) => Annotation::PromotionReady {
                handler: self.label_of(h),
            },
            None => Annotation::None,
        };
        self.start_annotated(entry, ann);

        // Zero-initialise every local (non-parameter) variable so that
        // save-all call frames never read an uninitialised register.
        for v in self.fvars.clone().iter() {
            if !f.params.contains(v) {
                let r = self.vreg(v);
                self.mov(r, 0);
            }
        }

        self.lower_stmts(&f.body)?;

        // Implicit `return 0` when control falls off the end.
        if self.in_block() {
            let rv = self.greg(RV);
            self.mov(rv, 0);
            self.require_fret();
            self.finish_jump(self.fret);
        }

        // The handler promotes the oldest latent call if one exists,
        // then resumes the function entry.
        if let Some(h) = hentry {
            let sp = self.greg(SP);
            let e = self.treg("e");
            let abort = self.greg(ABORT);
            self.start(h);
            self.emit(Instr::PrmEmpty { dst: e, sp });
            self.if_jump(e, entry); // empty (0 = true) → resume
            let entry_op = self.label_operand(entry);
            self.mov(abort, entry_op);
            self.finish_jump(self.do_promote);
        }
        Ok(())
    }
}

/// Deterministically assigns site and serial-for identifiers during
/// variable collection, mirroring the order the lowering pass visits the
/// statements.
#[derive(Default)]
pub(crate) struct SiteCounter {
    pub sites: u32,
    pub fors: u32,
}

/// Collects, in frame order, every register of `f` that call sites must
/// save: parameters, all assigned variables, loop variables, reducer
/// accumulators, and per-site scratch registers (loop bounds, join
/// records, ownership flags, grains).
pub(crate) fn collect_saved_vars(f: &Function, sites: &mut SiteCounter) -> Vec<String> {
    let mut vars: Vec<String> = Vec::new();
    let add = |v: &str, vars: &mut Vec<String>| {
        if !vars.iter().any(|x| x == v) {
            vars.push(v.to_owned());
        }
    };
    for p in &f.params {
        add(p, &mut vars);
    }

    fn scratch(site: u32, vars: &mut Vec<String>) {
        for which in ["hi", "jr", "own", "grain"] {
            let v = format!("%s{site}_{which}");
            if !vars.iter().any(|x| x == &v) {
                vars.push(v);
            }
        }
    }

    fn walk(stmts: &[Stmt], vars: &mut Vec<String>, sites: &mut SiteCounter) {
        let add = |v: &str, vars: &mut Vec<String>| {
            if !vars.iter().any(|x| x == v) {
                vars.push(v.to_owned());
            }
        };
        for s in stmts {
            match s {
                Stmt::Assign(v, _)
                | Stmt::Alloc { var: v, .. }
                | Stmt::ChMake { var: v, .. }
                | Stmt::ChPop { var: v, .. } => add(v, vars),
                Stmt::Store { .. }
                | Stmt::Return(_)
                | Stmt::ChPush { .. }
                | Stmt::ChClose { .. }
                | Stmt::Detach { .. } => {}
                Stmt::If { then_, else_, .. } => {
                    walk(then_, vars, sites);
                    walk(else_, vars, sites);
                }
                Stmt::While { body, .. } => walk(body, vars, sites),
                Stmt::For { var, body, .. } => {
                    add(var, vars);
                    add(&format!("%for{}_hi", sites.fors), vars);
                    sites.fors += 1;
                    walk(body, vars, sites);
                }
                Stmt::Call { ret, .. } => {
                    if let Some(r) = ret {
                        add(r, vars);
                    }
                }
                Stmt::Par2 { left, right } => {
                    add(&left.ret, vars);
                    add(&right.ret, vars);
                    scratch(sites.sites, vars);
                    sites.sites += 1;
                }
                Stmt::ParFor(pf) => {
                    add(&pf.var, vars);
                    for r in &pf.reducers {
                        add(&r.var, vars);
                    }
                    scratch(sites.sites, vars);
                    sites.sites += 1;
                    walk(&pf.body, vars, sites);
                }
                Stmt::ParForNested(n) => {
                    add(&n.outer_var, vars);
                    add(&n.inner_var, vars);
                    for r in n.outer_reducers.iter().chain(&n.inner_reducers) {
                        add(&r.var, vars);
                    }
                    scratch(sites.sites, vars);
                    scratch(sites.sites + 1, vars);
                    sites.sites += 2;
                    walk(&n.pre, vars, sites);
                    walk(&n.inner_body, vars, sites);
                    walk(&n.post, vars, sites);
                }
            }
        }
    }
    walk(&f.body, &mut vars, sites);
    vars
}
