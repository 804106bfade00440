//! The abstract syntax of the task-parallel IR.
//!
//! Programs are sets of [`Function`]s over 64-bit integers and a shared
//! word-addressed heap. Parallelism appears as [`Stmt::ParFor`] (a
//! parallel loop with optional reducers), [`Stmt::ParForNested`] (a
//! two-level parallel loop nest, promoted outermost-first), and
//! [`Stmt::Par2`] (binary fork-join over function calls, the
//! `cilk_spawn`/`cilk_sync` shape).
//!
//! Restrictions (enforced by the lowering pass):
//!
//! * `ParFor` bodies contain serial statements only (serial calls are
//!   allowed; nested parallelism goes through `ParForNested` or `Par2` in
//!   a callee).
//! * A `ParFor` body may assign only loop-local variables and declared
//!   reducers; captured variables are read-only (their register copies
//!   are task-private, so writes would be lost — the same rule Cilk
//!   imposes morally on strand-local state).

// The `Expr` combinators deliberately mirror the operator names users
// expect from a small expression builder (`add`, `mul`, `not`, …); they
// take `self` by value and return `Expr`, so confusion with the std ops
// traits is harmless and the names are clearer than alternatives.
#![allow(clippy::should_implement_trait)]

use tpal_core::isa::BinOp;

/// A variable name, scoped to its function.
pub type Var = String;

/// An integer expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// An integer literal.
    Int(i64),
    /// A variable read.
    Var(Var),
    /// A binary operation (TPAL truth encoding: comparisons give 0 for
    /// true).
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// A heap load `base[idx]`.
    Load {
        /// Base-address expression.
        base: Box<Expr>,
        /// Word-offset expression.
        idx: Box<Expr>,
    },
}

impl Expr {
    /// An integer literal.
    pub fn int(n: i64) -> Expr {
        Expr::Int(n)
    }

    /// A variable read.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// A binary operation.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(op, Box::new(lhs), Box::new(rhs))
    }

    /// A heap load `self[idx]`.
    pub fn load(self, idx: Expr) -> Expr {
        Expr::Load {
            base: Box::new(self),
            idx: Box::new(idx),
        }
    }

    /// `self + rhs`.
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Add, self, rhs)
    }

    /// `self - rhs`.
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Sub, self, rhs)
    }

    /// `self * rhs`.
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mul, self, rhs)
    }

    /// `self / rhs` (errors at runtime on division by zero).
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Div, self, rhs)
    }

    /// `self % rhs`.
    pub fn rem(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mod, self, rhs)
    }

    /// `min(self, rhs)`.
    pub fn min(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Min, self, rhs)
    }

    /// `max(self, rhs)`.
    pub fn max(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Max, self, rhs)
    }

    /// `self < rhs` (0 = true).
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Lt, self, rhs)
    }

    /// `self <= rhs` (0 = true).
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Le, self, rhs)
    }

    /// `self == rhs` (0 = true).
    pub fn eq_(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::EqOp, self, rhs)
    }

    /// `self != rhs` (0 = true).
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Ne, self, rhs)
    }

    /// Logical negation of a truth value (exactly 0 or 1).
    pub fn not(self) -> Expr {
        Expr::bin(BinOp::Xor, self, Expr::int(1))
    }
}

/// A reducer declaration on a parallel loop: promoted child tasks start
/// the variable at `identity` and results are combined pairwise with
/// `op` at join points (the Cilk `reducer_opadd` pattern of §3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reducer {
    /// The accumulator variable.
    pub var: Var,
    /// The (associative, commutative) combining operation.
    pub op: BinOp,
    /// The identity element of `op`.
    pub identity: i64,
}

impl Reducer {
    /// Declares a reducer.
    pub fn new(var: impl Into<String>, op: BinOp, identity: i64) -> Reducer {
        Reducer {
            var: var.into(),
            op,
            identity,
        }
    }
}

/// A parallel loop `parfor var in [from, to)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParFor {
    /// The loop variable.
    pub var: Var,
    /// Inclusive lower bound.
    pub from: Expr,
    /// Exclusive upper bound.
    pub to: Expr,
    /// Serial loop body.
    pub body: Vec<Stmt>,
    /// Reducer declarations.
    pub reducers: Vec<Reducer>,
}

impl ParFor {
    /// A parallel loop over `[from, to)` with an empty body.
    pub fn new(var: impl Into<String>, from: Expr, to: Expr) -> ParFor {
        ParFor {
            var: var.into(),
            from,
            to,
            body: Vec::new(),
            reducers: Vec::new(),
        }
    }

    /// Sets the body.
    pub fn body(mut self, body: Vec<Stmt>) -> ParFor {
        self.body = body;
        self
    }

    /// Adds a reducer.
    pub fn reducer(mut self, r: Reducer) -> ParFor {
        self.reducers.push(r);
        self
    }
}

/// A two-level parallel loop nest, scheduled with the paper's
/// outer-loop-first promotion policy (Appendix B.1): heartbeat handlers
/// promote remaining *outer* iterations when the interrupted task owns
/// them, and split the *inner* loop otherwise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParForNested {
    /// Outer loop variable.
    pub outer_var: Var,
    /// Outer inclusive lower bound.
    pub outer_from: Expr,
    /// Outer exclusive upper bound.
    pub outer_to: Expr,
    /// Serial prologue of each outer iteration (typically computes the
    /// inner bounds).
    pub pre: Vec<Stmt>,
    /// Inner loop variable.
    pub inner_var: Var,
    /// Inner inclusive lower bound (may reference `pre` results).
    pub inner_from: Expr,
    /// Inner exclusive upper bound.
    pub inner_to: Expr,
    /// Serial inner body.
    pub inner_body: Vec<Stmt>,
    /// Reducers of the inner loop (combined per outer iteration).
    pub inner_reducers: Vec<Reducer>,
    /// Serial epilogue of each outer iteration (sees the combined inner
    /// reducers).
    pub post: Vec<Stmt>,
    /// Reducers of the outer loop.
    pub outer_reducers: Vec<Reducer>,
}

/// A call specification used by [`Stmt::Par2`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSpec {
    /// Callee name.
    pub func: String,
    /// Argument expressions.
    pub args: Vec<Expr>,
    /// Variable receiving the return value.
    pub ret: Var,
}

impl CallSpec {
    /// A call `ret := func(args…)`.
    pub fn new(func: impl Into<String>, args: Vec<Expr>, ret: impl Into<String>) -> CallSpec {
        CallSpec {
            func: func.into(),
            args,
            ret: ret.into(),
        }
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `var := expr`.
    Assign(Var, Expr),
    /// `base[idx] := val` (heap store).
    Store {
        /// Base-address expression.
        base: Expr,
        /// Word-offset expression.
        idx: Expr,
        /// Stored value.
        val: Expr,
    },
    /// `var := halloc(size)` — allocate zeroed heap words.
    Alloc {
        /// Variable receiving the base address.
        var: Var,
        /// Number of words.
        size: Expr,
    },
    /// Two-armed conditional; the branch is taken when `cond` is zero
    /// (true).
    If {
        /// Condition (0 = true).
        cond: Expr,
        /// Taken when `cond` is zero.
        then_: Vec<Stmt>,
        /// Taken otherwise.
        else_: Vec<Stmt>,
    },
    /// Serial while loop; continues while `cond` is zero (true).
    While {
        /// Condition (0 = true).
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// Serial counted loop over `[from, to)`.
    For {
        /// Loop variable.
        var: Var,
        /// Inclusive lower bound.
        from: Expr,
        /// Exclusive upper bound (evaluated once).
        to: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// A serial function call `ret := func(args…)`.
    Call {
        /// Callee name.
        func: String,
        /// Argument expressions.
        args: Vec<Expr>,
        /// Variable receiving the return value (the value is discarded if
        /// `None`).
        ret: Option<Var>,
    },
    /// Binary fork-join: semantically `left` and `right` may run in
    /// parallel; execution continues after both complete. In heartbeat
    /// mode the left call runs immediately and the right is *latent*,
    /// advertised by a promotion-ready mark (Appendix B.2).
    Par2 {
        /// The call executed first (serially, unless its sibling is
        /// promoted).
        left: CallSpec,
        /// The latent call.
        right: CallSpec,
    },
    /// A parallel loop.
    ParFor(ParFor),
    /// A two-level parallel loop nest.
    ParForNested(Box<ParForNested>),
    /// `var := chmake(cap)` — allocate a bounded FIFO channel.
    ChMake {
        /// Variable receiving the channel identifier.
        var: Var,
        /// Capacity in items (must evaluate to a positive integer).
        cap: Expr,
    },
    /// `chpush(ch, val)` — append an item; blocks while full.
    ChPush {
        /// The channel identifier.
        ch: Expr,
        /// The item.
        val: Expr,
    },
    /// `var := chpop(ch)` — pop the oldest item; blocks while empty and
    /// open, faults once closed and drained.
    ChPop {
        /// Variable receiving the item.
        var: Var,
        /// The channel identifier.
        ch: Expr,
    },
    /// `chclose(ch)` — close the channel (idempotent).
    ChClose {
        /// The channel identifier.
        ch: Expr,
    },
    /// `detach func(args…)` — spawn a *free-running* task executing the
    /// call on a private stack. The task never joins and returns no
    /// value; it communicates only through channels and the heap. Unlike
    /// the latent parallelism of [`Stmt::Par2`]/[`Stmt::ParFor`], a
    /// detach is unconditional in every lowering mode — pipeline stages
    /// interleave cooperatively (via channel blocking) even under
    /// serial lowering on one core.
    Detach {
        /// Callee name.
        func: String,
        /// Argument expressions.
        args: Vec<Expr>,
    },
    /// Return from the current function with a value.
    Return(Expr),
}

impl Stmt {
    /// `var := expr`.
    pub fn assign(var: impl Into<String>, e: Expr) -> Stmt {
        Stmt::Assign(var.into(), e)
    }

    /// `base[idx] := val`.
    pub fn store(base: Expr, idx: Expr, val: Expr) -> Stmt {
        Stmt::Store { base, idx, val }
    }

    /// One-armed conditional.
    pub fn if_(cond: Expr, then_: Vec<Stmt>) -> Stmt {
        Stmt::If {
            cond,
            then_,
            else_: Vec::new(),
        }
    }

    /// Two-armed conditional.
    pub fn if_else(cond: Expr, then_: Vec<Stmt>, else_: Vec<Stmt>) -> Stmt {
        Stmt::If { cond, then_, else_ }
    }

    /// Serial counted loop.
    pub fn for_(var: impl Into<String>, from: Expr, to: Expr, body: Vec<Stmt>) -> Stmt {
        Stmt::For {
            var: var.into(),
            from,
            to,
            body,
        }
    }

    /// Serial call.
    pub fn call(func: impl Into<String>, args: Vec<Expr>, ret: Option<&str>) -> Stmt {
        Stmt::Call {
            func: func.into(),
            args,
            ret: ret.map(|s| s.to_owned()),
        }
    }

    /// `var := chmake(cap)`.
    pub fn chmake(var: impl Into<String>, cap: Expr) -> Stmt {
        Stmt::ChMake {
            var: var.into(),
            cap,
        }
    }

    /// `chpush(ch, val)`.
    pub fn chpush(ch: Expr, val: Expr) -> Stmt {
        Stmt::ChPush { ch, val }
    }

    /// `var := chpop(ch)`.
    pub fn chpop(var: impl Into<String>, ch: Expr) -> Stmt {
        Stmt::ChPop {
            var: var.into(),
            ch,
        }
    }

    /// `chclose(ch)`.
    pub fn chclose(ch: Expr) -> Stmt {
        Stmt::ChClose { ch }
    }

    /// `detach func(args…)`.
    pub fn detach(func: impl Into<String>, args: Vec<Expr>) -> Stmt {
        Stmt::Detach {
            func: func.into(),
            args,
        }
    }
}

/// A function: named parameters and a statement body. Every function
/// returns a value ([`Stmt::Return`]); falling off the end returns 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// The function name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<Var>,
    /// The body.
    pub body: Vec<Stmt>,
}

impl Function {
    /// Creates a function with the given parameters and an empty body.
    pub fn new<S: Into<String>>(
        name: impl Into<String>,
        params: impl IntoIterator<Item = S>,
    ) -> Function {
        Function {
            name: name.into(),
            params: params.into_iter().map(Into::into).collect(),
            body: Vec::new(),
        }
    }

    /// Appends a statement.
    pub fn stmt(mut self, s: Stmt) -> Function {
        self.body.push(s);
        self
    }
}

/// A whole IR program: functions plus the name of the entry function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrProgram {
    /// The functions.
    pub functions: Vec<Function>,
    /// Name of the entry function (its parameters are the program
    /// inputs).
    pub entry: String,
}

impl IrProgram {
    /// Creates a program with the given entry-function name and no
    /// functions yet.
    pub fn new(entry: impl Into<String>) -> IrProgram {
        IrProgram {
            functions: Vec::new(),
            entry: entry.into(),
        }
    }

    /// Adds a function.
    pub fn function(mut self, f: Function) -> IrProgram {
        self.functions.push(f);
        self
    }

    /// Looks up a function by name.
    pub fn get(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_builders_compose() {
        let e = Expr::var("x").add(Expr::int(1)).mul(Expr::var("y"));
        match e {
            Expr::Bin(BinOp::Mul, lhs, _) => {
                assert!(matches!(*lhs, Expr::Bin(BinOp::Add, _, _)))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn logical_and_is_bitwise_or_under_zero_truth() {
        // (0 and 0) = 0 (true); (0 and 1) = 1 (false).
        let p = crate::parse_ir("fn main() { return 0 && 1; }").unwrap();
        match &p.functions[0].body[..] {
            [Stmt::Return(Expr::Bin(BinOp::Or, _, _))] => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn program_lookup() {
        let p = IrProgram::new("main").function(Function::new("main", ["x"]));
        assert!(p.get("main").is_some());
        assert!(p.get("nope").is_none());
        assert_eq!(p.get("main").unwrap().params, vec!["x".to_owned()]);
    }

    #[test]
    fn function_builder_accumulates() {
        let f = Function::new("f", ["a"])
            .stmt(Stmt::assign("x", Expr::int(1)))
            .stmt(Stmt::Return(Expr::var("x")));
        assert_eq!(f.body.len(), 2);
    }
}
