//! A textual frontend for the task-parallel IR.
//!
//! The surface syntax is a small C-like language with the parallel
//! constructs of the IR (the "Cilk Plus level" the paper compiles from,
//! §3.1):
//!
//! ```text
//! fn fib(n) {
//!     if n < 2 { return n; }
//!     par {
//!         f1 = fib(n - 1);
//!         f2 = fib(n - 2);
//!     }
//!     return f1 + f2;
//! }
//! ```
//!
//! Statements: assignment `x = e;`, heap store `a[i] = e;`, allocation
//! `x = alloc(n);`, `if e { … } else { … }`, `while e { … }`,
//! `for i in a..b { … }`, `parfor i in a..b reduce(s: +, 0) { … }`,
//! `par { l = f(…); r = g(…); }` (exactly two calls), serial calls
//! `x = f(…);` / `f(…);`, and `return e;`.
//!
//! Streaming constructs: `c = chmake(cap);` allocates a bounded FIFO
//! channel, `chpush(c, e);` appends (blocking while full), `x =
//! chpop(c);` pops (blocking while empty and open, faulting once closed
//! and drained), `chclose(c);` closes, and `detach f(…);` spawns a
//! free-running pipeline stage that communicates only through channels
//! and the heap.
//!
//! A `parfor` whose body contains exactly one inner `parfor` desugars to
//! the outer-loop-first [`ParForNested`](crate::ast::ParForNested): the
//! statements before the inner loop become the prologue, those after it
//! the epilogue.
//!
//! Expressions: integer literals, variables, `a[i]` loads, unary `-`
//! and `!`, binary `* / % + - << >> < <= > >= == != & ^ | && ||`,
//! `min(a, b)` / `max(a, b)`, and parentheses. Comparisons and logical
//! operators follow the TPAL truth encoding (0 = true) — `&&`/`||`/`!`
//! expect exact 0/1 truth values, which comparisons produce.

use std::fmt;

use tpal_core::isa::BinOp;

use crate::ast::{CallSpec, Expr, Function, IrProgram, ParFor, ParForNested, Reducer, Stmt};

/// A parse error with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrontendError {
    /// 1-based source line (0 at end of input).
    pub line: u32,
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for FrontendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for FrontendError {}

// ----- lexer -----

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Ident(String),
    /// The magnitude of an integer literal, at most 2⁶³ (the parser
    /// applies a preceding `-`).
    Int(u64),
    // punctuation
    LParen,
    RParen,
    LBrace,
    RBrace,
    LBracket,
    RBracket,
    Comma,
    Semi,
    Colon,
    DotDot,
    Assign,
    Bang,
    Op(BinOp),
    AndAnd,
    OrOr,
}

impl fmt::Display for Tok {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tok::Ident(s) => write!(f, "`{s}`"),
            Tok::Int(n) => write!(f, "`{n}`"),
            Tok::LParen => f.write_str("`(`"),
            Tok::RParen => f.write_str("`)`"),
            Tok::LBrace => f.write_str("`{`"),
            Tok::RBrace => f.write_str("`}`"),
            Tok::LBracket => f.write_str("`[`"),
            Tok::RBracket => f.write_str("`]`"),
            Tok::Comma => f.write_str("`,`"),
            Tok::Semi => f.write_str("`;`"),
            Tok::Colon => f.write_str("`:`"),
            Tok::DotDot => f.write_str("`..`"),
            Tok::Assign => f.write_str("`=`"),
            Tok::Bang => f.write_str("`!`"),
            Tok::Op(op) => write!(f, "`{op}`"),
            Tok::AndAnd => f.write_str("`&&`"),
            Tok::OrOr => f.write_str("`||`"),
        }
    }
}

fn lex(src: &str) -> Result<Vec<(Tok, u32)>, FrontendError> {
    let mut out = Vec::new();
    let mut line = 1u32;
    let mut it = src.chars().peekable();
    while let Some(&c) = it.peek() {
        match c {
            '\n' => {
                line += 1;
                it.next();
            }
            c if c.is_whitespace() => {
                it.next();
            }
            '/' => {
                it.next();
                if it.peek() == Some(&'/') {
                    for c in it.by_ref() {
                        if c == '\n' {
                            line += 1;
                            break;
                        }
                    }
                } else {
                    out.push((Tok::Op(BinOp::Div), line));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let mut s = String::new();
                while let Some(&c) = it.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        s.push(c);
                        it.next();
                    } else {
                        break;
                    }
                }
                out.push((Tok::Ident(s), line));
            }
            c if c.is_ascii_digit() => {
                let mut n = Some(0u64);
                while let Some(&c) = it.peek() {
                    if let Some(d) = c.to_digit(10) {
                        n = n.and_then(|n| n.checked_mul(10)?.checked_add(u64::from(d)));
                        it.next();
                    } else if c == '_' {
                        it.next();
                    } else {
                        break;
                    }
                }
                match n {
                    Some(n) if n <= 1 << 63 => out.push((Tok::Int(n), line)),
                    _ => return Err(out_of_range(line)),
                }
            }
            _ => {
                it.next();
                let two = |it: &mut std::iter::Peekable<std::str::Chars<'_>>, n: char| {
                    if it.peek() == Some(&n) {
                        it.next();
                        true
                    } else {
                        false
                    }
                };
                let tok = match c {
                    '(' => Tok::LParen,
                    ')' => Tok::RParen,
                    '{' => Tok::LBrace,
                    '}' => Tok::RBrace,
                    '[' => Tok::LBracket,
                    ']' => Tok::RBracket,
                    ',' => Tok::Comma,
                    ';' => Tok::Semi,
                    ':' => Tok::Colon,
                    '+' => Tok::Op(BinOp::Add),
                    '-' => Tok::Op(BinOp::Sub),
                    '*' => Tok::Op(BinOp::Mul),
                    '%' => Tok::Op(BinOp::Mod),
                    '^' => Tok::Op(BinOp::Xor),
                    '.' => {
                        if two(&mut it, '.') {
                            Tok::DotDot
                        } else {
                            return Err(FrontendError {
                                line,
                                msg: "expected `..`".into(),
                            });
                        }
                    }
                    '=' => {
                        if two(&mut it, '=') {
                            Tok::Op(BinOp::EqOp)
                        } else {
                            Tok::Assign
                        }
                    }
                    '!' => {
                        if two(&mut it, '=') {
                            Tok::Op(BinOp::Ne)
                        } else {
                            Tok::Bang
                        }
                    }
                    '<' => {
                        if two(&mut it, '=') {
                            Tok::Op(BinOp::Le)
                        } else if two(&mut it, '<') {
                            Tok::Op(BinOp::Shl)
                        } else {
                            Tok::Op(BinOp::Lt)
                        }
                    }
                    '>' => {
                        if two(&mut it, '=') {
                            Tok::Op(BinOp::Ge)
                        } else if two(&mut it, '>') {
                            Tok::Op(BinOp::Shr)
                        } else {
                            Tok::Op(BinOp::Gt)
                        }
                    }
                    '&' => {
                        if two(&mut it, '&') {
                            Tok::AndAnd
                        } else {
                            Tok::Op(BinOp::And)
                        }
                    }
                    '|' => {
                        if two(&mut it, '|') {
                            Tok::OrOr
                        } else {
                            Tok::Op(BinOp::Or)
                        }
                    }
                    other => {
                        return Err(FrontendError {
                            line,
                            msg: format!("unexpected character `{other}`"),
                        })
                    }
                };
                out.push((tok, line));
            }
        }
    }
    Ok(out)
}

/// The error of an integer literal no `i64` holds.
fn out_of_range(line: u32) -> FrontendError {
    FrontendError {
        line,
        msg: "integer literal out of range".into(),
    }
}

// ----- parser -----

/// Deepest nesting [`parse_ir`] accepts, counted two ways with one
/// limit: blocks and sub-expressions open around the current token on
/// the way down, and the height of each finished expression tree on the
/// way up (`a + a + …` and `a[0][0]…` nest to the left without opening
/// anything). The parser, [`lower`](crate::lower::lower) and the tree's
/// own drop all recurse once per level, on the 2 MiB stacks of the
/// threads that read untrusted source; the paper suite nests below 10.
const MAX_NESTING: u32 = 64;

struct P {
    toks: Vec<(Tok, u32)>,
    pos: usize,
    /// Blocks and sub-expressions open around the current token.
    depth: u32,
}

impl P {
    fn line(&self) -> u32 {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map(|t| t.1)
            .unwrap_or(0)
    }

    /// The value of the literal `magnitude` just read (`negative`: after
    /// a `-`).
    fn literal(&self, magnitude: u64, negative: bool) -> Result<i64, FrontendError> {
        let value = if negative {
            0i64.checked_sub_unsigned(magnitude)
        } else {
            i64::try_from(magnitude).ok()
        };
        // The literal is the token before the cursor.
        value.ok_or_else(|| out_of_range(self.toks[self.pos - 1].1))
    }

    fn err(&self, msg: impl Into<String>) -> FrontendError {
        FrontendError {
            line: self.line(),
            msg: msg.into(),
        }
    }

    fn too_deep(&self) -> FrontendError {
        self.err(format!("nesting deeper than {MAX_NESTING}"))
    }

    /// Runs `f` one nesting level down.
    fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut P) -> Result<T, FrontendError>,
    ) -> Result<T, FrontendError> {
        if self.depth == MAX_NESTING {
            return Err(self.too_deep());
        }
        self.depth += 1;
        let r = f(self);
        self.depth -= 1;
        r
    }

    /// The height of a node over children of height `h`.
    fn grow(&self, h: u32) -> Result<u32, FrontendError> {
        if h == MAX_NESTING {
            return Err(self.too_deep());
        }
        Ok(h + 1)
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|t| &t.0)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|t| t.0.clone());
        self.pos += 1;
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), FrontendError> {
        if self.eat(t) {
            Ok(())
        } else {
            let found = self
                .peek()
                .map(|f| f.to_string())
                .unwrap_or_else(|| "end of input".into());
            Err(self.err(format!("expected {t}, found {found}")))
        }
    }

    fn ident(&mut self) -> Result<String, FrontendError> {
        let line = self.line();
        match self.next() {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(FrontendError {
                line,
                msg: format!(
                    "expected identifier, found {}",
                    other
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "end of input".into())
                ),
            }),
        }
    }

    // Precedence climbing. Levels, loosest first:
    // || ; && ; | ; ^ ; & ; == != ; < <= > >= ; << >> ; + - ; * / %
    fn expr(&mut self) -> Result<Expr, FrontendError> {
        Ok(self.tree()?.0)
    }

    /// An expression with the height of its tree.
    fn tree(&mut self) -> Result<(Expr, u32), FrontendError> {
        self.nested(|p| p.binary(0))
    }

    fn binary(&mut self, level: usize) -> Result<(Expr, u32), FrontendError> {
        const LEVELS: usize = 10;
        if level == LEVELS {
            return self.unary();
        }
        let (mut lhs, mut height) = self.binary(level + 1)?;
        loop {
            let tok = self.peek().cloned();
            let op: Option<BinOp> = match (level, tok) {
                // Logical operators over exact 0/1 truth values under the
                // 0-is-true encoding: AND is bitwise-or, OR is
                // bitwise-and (see the module docs).
                (0, Some(Tok::OrOr)) => Some(BinOp::And),
                (1, Some(Tok::AndAnd)) => Some(BinOp::Or),
                (2, Some(Tok::Op(BinOp::Or))) => Some(BinOp::Or),
                (3, Some(Tok::Op(BinOp::Xor))) => Some(BinOp::Xor),
                (4, Some(Tok::Op(BinOp::And))) => Some(BinOp::And),
                (5, Some(Tok::Op(op @ (BinOp::EqOp | BinOp::Ne)))) => Some(op),
                (6, Some(Tok::Op(op @ (BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge)))) => {
                    Some(op)
                }
                (7, Some(Tok::Op(op @ (BinOp::Shl | BinOp::Shr)))) => Some(op),
                (8, Some(Tok::Op(op @ (BinOp::Add | BinOp::Sub)))) => Some(op),
                (9, Some(Tok::Op(op @ (BinOp::Mul | BinOp::Div | BinOp::Mod)))) => Some(op),
                _ => None,
            };
            match op {
                Some(op) => {
                    self.pos += 1;
                    let (rhs, rhs_height) = self.binary(level + 1)?;
                    height = self.grow(height.max(rhs_height))?;
                    lhs = Expr::bin(op, lhs, rhs);
                }
                None => return Ok((lhs, height)),
            }
        }
    }

    fn unary(&mut self) -> Result<(Expr, u32), FrontendError> {
        if self.eat(&Tok::Bang) {
            let (e, height) = self.nested(P::unary)?;
            return Ok((e.not(), self.grow(height)?));
        }
        if self.eat(&Tok::Op(BinOp::Sub)) {
            // Constant-fold negative literals; otherwise 0 - e.
            if let Some(Tok::Int(n)) = self.peek() {
                let n = *n;
                self.pos += 1;
                return self.postfix(Expr::int(self.literal(n, true)?), 1);
            }
            let (e, height) = self.nested(P::unary)?;
            return Ok((Expr::bin(BinOp::Sub, Expr::int(0), e), self.grow(height)?));
        }
        let line = self.line();
        let (base, height) = match self.next() {
            Some(Tok::Int(n)) => (Expr::int(self.literal(n, false)?), 1),
            Some(Tok::Ident(name)) => match name.as_str() {
                "min" | "max" => {
                    let op = if name == "min" {
                        BinOp::Min
                    } else {
                        BinOp::Max
                    };
                    self.expect(&Tok::LParen)?;
                    let (a, a_height) = self.tree()?;
                    self.expect(&Tok::Comma)?;
                    let (b, b_height) = self.tree()?;
                    self.expect(&Tok::RParen)?;
                    (Expr::bin(op, a, b), self.grow(a_height.max(b_height))?)
                }
                _ => {
                    if self.peek() == Some(&Tok::LParen) {
                        return Err(self.err(format!(
                            "calls are statements in this language; assign `x = {name}(…);` \
                             instead of nesting the call in an expression"
                        )));
                    }
                    (Expr::var(name), 1)
                }
            },
            Some(Tok::LParen) => {
                let e = self.tree()?;
                self.expect(&Tok::RParen)?;
                e
            }
            other => {
                return Err(FrontendError {
                    line,
                    msg: format!(
                        "expected expression, found {}",
                        other
                            .map(|t| t.to_string())
                            .unwrap_or_else(|| "end of input".into())
                    ),
                })
            }
        };
        self.postfix(base, height)
    }

    /// The index suffixes of `e`, a tree of height `height`.
    fn postfix(&mut self, mut e: Expr, mut height: u32) -> Result<(Expr, u32), FrontendError> {
        while self.eat(&Tok::LBracket) {
            let (idx, idx_height) = self.tree()?;
            self.expect(&Tok::RBracket)?;
            height = self.grow(height.max(idx_height))?;
            e = e.load(idx);
        }
        Ok((e, height))
    }

    fn block(&mut self) -> Result<Vec<Stmt>, FrontendError> {
        self.expect(&Tok::LBrace)?;
        self.nested(|p| {
            let mut stmts = Vec::new();
            while !p.eat(&Tok::RBrace) {
                if p.peek().is_none() {
                    return Err(p.err("unclosed `{`"));
                }
                stmts.push(p.stmt()?);
            }
            Ok(stmts)
        })
    }

    fn call_args(&mut self) -> Result<Vec<Expr>, FrontendError> {
        self.expect(&Tok::LParen)?;
        let mut args = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                args.push(self.expr()?);
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(&Tok::Comma)?;
            }
        }
        Ok(args)
    }

    /// `ret = callee(args…);` — the body of `par { … }` arms.
    fn call_spec(&mut self) -> Result<CallSpec, FrontendError> {
        let ret = self.ident()?;
        self.expect(&Tok::Assign)?;
        let callee = self.ident()?;
        let args = self.call_args()?;
        self.expect(&Tok::Semi)?;
        Ok(CallSpec::new(callee, args, ret))
    }

    fn reducers(&mut self) -> Result<Vec<Reducer>, FrontendError> {
        let mut rs = Vec::new();
        while matches!(self.peek(), Some(Tok::Ident(s)) if s == "reduce") {
            self.pos += 1;
            self.expect(&Tok::LParen)?;
            loop {
                let var = self.ident()?;
                self.expect(&Tok::Colon)?;
                let op = match self.next() {
                    Some(Tok::Op(
                        op @ (BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor),
                    )) => op,
                    Some(Tok::Ident(s)) if s == "min" => BinOp::Min,
                    Some(Tok::Ident(s)) if s == "max" => BinOp::Max,
                    other => {
                        return Err(self.err(format!(
                            "expected a reducer operator (+ * & | ^ min max), found {}",
                            other
                                .map(|t| t.to_string())
                                .unwrap_or_else(|| "end of input".into())
                        )))
                    }
                };
                self.expect(&Tok::Comma)?;
                let identity = match self.next() {
                    Some(Tok::Int(n)) => self.literal(n, false)?,
                    Some(Tok::Op(BinOp::Sub)) => match self.next() {
                        Some(Tok::Int(n)) => self.literal(n, true)?,
                        _ => return Err(self.err("expected integer identity")),
                    },
                    _ => return Err(self.err("expected integer identity")),
                };
                rs.push(Reducer::new(var, op, identity));
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(&Tok::Comma)?;
            }
        }
        Ok(rs)
    }

    fn parfor(&mut self) -> Result<Stmt, FrontendError> {
        let var = self.ident()?;
        let kw = self.ident()?;
        if kw != "in" {
            return Err(self.err(format!("expected `in`, found `{kw}`")));
        }
        let from = self.expr()?;
        self.expect(&Tok::DotDot)?;
        let to = self.expr()?;
        let reducers = self.reducers()?;
        let body = self.block()?;

        // Desugar a body containing exactly one inner parfor into the
        // outer-loop-first nest.
        let inner_at = body.iter().position(|s| matches!(s, Stmt::ParFor(_)));
        if let Some(i) = inner_at {
            if body
                .iter()
                .skip(i + 1)
                .any(|s| matches!(s, Stmt::ParFor(_)))
            {
                return Err(
                    self.err("at most one inner parfor per parfor body (use a callee for more)")
                );
            }
            let mut body = body;
            let post = body.split_off(i + 1);
            let inner = match body.pop() {
                Some(Stmt::ParFor(p)) => p,
                _ => unreachable!("position() found a parfor"),
            };
            let pre = body;
            return Ok(Stmt::ParForNested(Box::new(ParForNested {
                outer_var: var,
                outer_from: from,
                outer_to: to,
                pre,
                inner_var: inner.var,
                inner_from: inner.from,
                inner_to: inner.to,
                inner_body: inner.body,
                inner_reducers: inner.reducers,
                post,
                outer_reducers: reducers,
            })));
        }
        Ok(Stmt::ParFor(ParFor {
            var,
            from,
            to,
            body,
            reducers,
        }))
    }

    fn stmt(&mut self) -> Result<Stmt, FrontendError> {
        let kw = match self.peek() {
            Some(Tok::Ident(s)) => s.clone(),
            _ => return Err(self.err("expected a statement")),
        };
        match kw.as_str() {
            "return" => {
                self.pos += 1;
                let e = self.expr()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Return(e))
            }
            "if" => {
                self.pos += 1;
                let cond = self.expr()?;
                let then_ = self.block()?;
                let else_ = if matches!(self.peek(), Some(Tok::Ident(s)) if s == "else") {
                    self.pos += 1;
                    self.block()?
                } else {
                    Vec::new()
                };
                Ok(Stmt::If { cond, then_, else_ })
            }
            "while" => {
                self.pos += 1;
                let cond = self.expr()?;
                let body = self.block()?;
                Ok(Stmt::While { cond, body })
            }
            "for" => {
                self.pos += 1;
                let var = self.ident()?;
                let kw = self.ident()?;
                if kw != "in" {
                    return Err(self.err(format!("expected `in`, found `{kw}`")));
                }
                let from = self.expr()?;
                self.expect(&Tok::DotDot)?;
                let to = self.expr()?;
                let body = self.block()?;
                Ok(Stmt::For {
                    var,
                    from,
                    to,
                    body,
                })
            }
            "parfor" => {
                self.pos += 1;
                self.parfor()
            }
            "par" => {
                self.pos += 1;
                self.expect(&Tok::LBrace)?;
                let left = self.call_spec()?;
                let right = self.call_spec()?;
                self.expect(&Tok::RBrace)?;
                Ok(Stmt::Par2 { left, right })
            }
            "detach" => {
                self.pos += 1;
                let func = self.ident()?;
                let args = self.call_args()?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::Detach { func, args })
            }
            "chpush" => {
                self.pos += 1;
                self.expect(&Tok::LParen)?;
                let ch = self.expr()?;
                self.expect(&Tok::Comma)?;
                let val = self.expr()?;
                self.expect(&Tok::RParen)?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::ChPush { ch, val })
            }
            "chclose" => {
                self.pos += 1;
                self.expect(&Tok::LParen)?;
                let ch = self.expr()?;
                self.expect(&Tok::RParen)?;
                self.expect(&Tok::Semi)?;
                Ok(Stmt::ChClose { ch })
            }
            _ => {
                // Assignment, store, alloc, or a bare call.
                let name = self.ident()?;
                match self.peek() {
                    Some(Tok::LParen) => {
                        // Bare call: f(args);
                        let args = self.call_args()?;
                        self.expect(&Tok::Semi)?;
                        Ok(Stmt::Call {
                            func: name,
                            args,
                            ret: None,
                        })
                    }
                    Some(Tok::LBracket) => {
                        // Store: name[idx] = e;
                        self.pos += 1;
                        let idx = self.expr()?;
                        self.expect(&Tok::RBracket)?;
                        self.expect(&Tok::Assign)?;
                        let val = self.expr()?;
                        self.expect(&Tok::Semi)?;
                        Ok(Stmt::Store {
                            base: Expr::var(name),
                            idx,
                            val,
                        })
                    }
                    Some(Tok::Assign) => {
                        self.pos += 1;
                        // alloc / call / expression.
                        if let Some(Tok::Ident(rhs)) = self.peek() {
                            let rhs = rhs.clone();
                            let is_call = self.toks.get(self.pos + 1).map(|t| &t.0)
                                == Some(&Tok::LParen)
                                && rhs != "min"
                                && rhs != "max";
                            if rhs == "alloc" && is_call {
                                self.pos += 1;
                                self.expect(&Tok::LParen)?;
                                let size = self.expr()?;
                                self.expect(&Tok::RParen)?;
                                self.expect(&Tok::Semi)?;
                                return Ok(Stmt::Alloc { var: name, size });
                            }
                            if rhs == "chmake" && is_call {
                                self.pos += 1;
                                self.expect(&Tok::LParen)?;
                                let cap = self.expr()?;
                                self.expect(&Tok::RParen)?;
                                self.expect(&Tok::Semi)?;
                                return Ok(Stmt::ChMake { var: name, cap });
                            }
                            if rhs == "chpop" && is_call {
                                self.pos += 1;
                                self.expect(&Tok::LParen)?;
                                let ch = self.expr()?;
                                self.expect(&Tok::RParen)?;
                                self.expect(&Tok::Semi)?;
                                return Ok(Stmt::ChPop { var: name, ch });
                            }
                            if is_call {
                                self.pos += 1;
                                let args = self.call_args()?;
                                self.expect(&Tok::Semi)?;
                                return Ok(Stmt::Call {
                                    func: rhs,
                                    args,
                                    ret: Some(name),
                                });
                            }
                        }
                        let e = self.expr()?;
                        self.expect(&Tok::Semi)?;
                        Ok(Stmt::Assign(name, e))
                    }
                    other => Err(self.err(format!(
                        "expected `=`, `[`, or `(` after `{name}`, found {}",
                        other
                            .map(|t| t.to_string())
                            .unwrap_or_else(|| "end of input".into())
                    ))),
                }
            }
        }
    }

    fn function(&mut self) -> Result<Function, FrontendError> {
        let kw = self.ident()?;
        if kw != "fn" {
            return Err(self.err(format!("expected `fn`, found `{kw}`")));
        }
        let name = self.ident()?;
        self.expect(&Tok::LParen)?;
        let mut params = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                params.push(self.ident()?);
                if self.eat(&Tok::RParen) {
                    break;
                }
                self.expect(&Tok::Comma)?;
            }
        }
        let body = self.block()?;
        Ok(Function { name, params, body })
    }
}

/// Parses a program in the surface syntax. The **first** function is the
/// entry point.
///
/// # Errors
///
/// Returns a [`FrontendError`] on lexical or syntactic faults, and on
/// blocks, sub-expressions or operator chains nested deeper than 64
/// (semantic checks — unknown callees, arity, parallel nesting rules —
/// are reported by [`lower`](crate::lower::lower)).
pub fn parse_ir(src: &str) -> Result<IrProgram, FrontendError> {
    let toks = lex(src)?;
    let mut p = P {
        toks,
        pos: 0,
        depth: 0,
    };
    let mut functions = Vec::new();
    while p.peek().is_some() {
        functions.push(p.function()?);
    }
    let entry = functions
        .first()
        .map(|f| f.name.clone())
        .ok_or(FrontendError {
            line: 0,
            msg: "no functions defined".into(),
        })?;
    Ok(IrProgram { functions, entry })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower, Mode};
    use tpal_core::machine::{Machine, MachineConfig};

    fn run(src: &str, ints: &[(&str, i64)], mode: Mode, hb: u64) -> i64 {
        let ir = parse_ir(src).unwrap_or_else(|e| panic!("parse: {e}"));
        let lowered = lower(&ir, mode).unwrap_or_else(|e| panic!("lower: {e}"));
        let mut m = Machine::new(
            &lowered.program,
            MachineConfig::default().with_heartbeat(hb),
        );
        for (k, v) in ints {
            m.set_reg(&lowered.param_reg(k), *v).unwrap();
        }
        m.run()
            .unwrap_or_else(|e| panic!("run: {e}"))
            .read_reg(&lowered.result_reg)
            .expect("result")
    }

    #[test]
    fn literals_span_exactly_the_i64_range() {
        let src = "fn main(x) { if x < 1 { return -9223372036854775808; } return 9_223_372_036_854_775_807; }";
        assert_eq!(run(src, &[("x", 0)], Mode::Serial, u64::MAX), i64::MIN);
        assert_eq!(run(src, &[("x", 1)], Mode::Serial, u64::MAX), i64::MAX);
        let src = "fn main(n) { s = 0; parfor i in 0..n reduce(s: max, -9223372036854775808) { s = max(s, i); } return s; }";
        assert!(parse_ir(src).is_ok(), "a reducer identity may be i64::MIN");
    }

    #[test]
    fn out_of_range_literals_are_errors_with_their_line() {
        for literal in [
            "9223372036854775808",
            "-9223372036854775809",
            "99999999999999999999",
        ] {
            let err =
                parse_ir(&format!("fn main(x) {{\n  y = 1;\n  return {literal};\n}}")).unwrap_err();
            assert_eq!(
                (err.line, err.msg.as_str()),
                (3, "integer literal out of range"),
                "{literal}"
            );
        }
        let src = "fn main(n) {\n s = 0;\n parfor i in 0..n reduce(s: +, 9223372036854775808) { s = s + i; }\n return s; }";
        let err = parse_ir(src).unwrap_err();
        assert_eq!(
            (err.line, err.msg.as_str()),
            (3, "integer literal out of range")
        );
    }

    /// One `main` around `n` repetitions of each way a program can nest:
    /// parentheses, `!`, blocks, and the two left-leaning chains that
    /// open nothing.
    fn nest(kind: &str, n: usize) -> String {
        match kind {
            "paren" => format!(
                "fn main(x) {{ return {}x{}; }}",
                "(".repeat(n),
                ")".repeat(n)
            ),
            "bang" => format!("fn main(x) {{ return {}x; }}", "!".repeat(n)),
            "block" => format!(
                "fn main(x) {{ {}return x;{} return 0; }}",
                "if x {\n".repeat(n),
                " }".repeat(n)
            ),
            "chain" => format!("fn main(x) {{ return x{}; }}", " + x".repeat(n)),
            "index" => format!("fn main(x) {{ return x{}; }}", "[0]".repeat(n)),
            _ => unreachable!(),
        }
    }

    /// At the limit every shape parses and lowers on the smallest stack
    /// a caller runs on (a spawned thread's 2 MiB); one level more is a
    /// located error; a megabyte of any of them is that error too, not
    /// a stack overflow in the parser, the lowering or the tree's drop.
    #[test]
    fn nesting_is_bounded() {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                // `main`'s body is one level and the expression itself
                // another; a chain's height counts its leaf.
                for (kind, limit) in [
                    ("paren", 62),
                    ("bang", 62),
                    ("block", 62),
                    ("chain", 63),
                    ("index", 63),
                ] {
                    let ir = parse_ir(&nest(kind, limit)).unwrap_or_else(|e| panic!("{kind}: {e}"));
                    for mode in [Mode::Serial, Mode::Heartbeat, Mode::Eager { workers: 2 }] {
                        lower(&ir, mode).unwrap_or_else(|e| panic!("{kind} {mode:?}: {e}"));
                    }
                    let e = parse_ir(&nest(kind, limit + 1)).unwrap_err();
                    assert_eq!(e.msg, "nesting deeper than 64", "{kind}");
                    // Each `if` of the block shape ends a line; the level
                    // too many is the `return`'s expression below them.
                    let line = if kind == "block" { limit as u32 + 2 } else { 1 };
                    assert_eq!(e.line, line, "{kind}");
                    let e = parse_ir(&nest(kind, 1 << 20)).unwrap_err();
                    assert_eq!(e.msg, "nesting deeper than 64", "{kind} flood");
                }
                // Siblings do not accumulate.
                let wide = format!(
                    "fn main(x) {{ {} return x; }}",
                    "y = (x) + (x);".repeat(500)
                );
                assert!(parse_ir(&wide).is_ok());
            })
            .expect("spawn")
            .join()
            .expect("no panic, no overflow");
    }

    #[test]
    fn arithmetic_and_precedence() {
        let src = "fn main(x) { return 1 + 2 * x - 6 / 3; }";
        assert_eq!(run(src, &[("x", 10)], Mode::Serial, u64::MAX), 19);
    }

    #[test]
    fn comparisons_and_logic() {
        // (x < 10 && x > 2) under 0-is-true; returned as-is.
        let src = "fn main(x) { if x < 10 && x > 2 { return 1; } return 0; }";
        assert_eq!(run(src, &[("x", 5)], Mode::Serial, u64::MAX), 1);
        assert_eq!(run(src, &[("x", 1)], Mode::Serial, u64::MAX), 0);
        let src = "fn main(x) { if x < 0 || x > 10 { return 1; } return 0; }";
        assert_eq!(run(src, &[("x", 20)], Mode::Serial, u64::MAX), 1);
        assert_eq!(run(src, &[("x", 5)], Mode::Serial, u64::MAX), 0);
        let src = "fn main(x) { if !(x == 3) { return 1; } return 0; }";
        assert_eq!(run(src, &[("x", 3)], Mode::Serial, u64::MAX), 0);
    }

    #[test]
    fn loops_and_heap() {
        let src = r#"
fn main(n) {
    a = alloc(n);
    for i in 0..n { a[i] = i * i; }
    s = 0;
    i = 0;
    while i < n { s = s + a[i]; i = i + 1; }
    return s;
}
"#;
        assert_eq!(run(src, &[("n", 10)], Mode::Serial, u64::MAX), 285);
    }

    #[test]
    fn parfor_with_reducer() {
        let src = r#"
fn main(n) {
    s = 0;
    parfor i in 0..n reduce(s: +, 0) { s = s + i; }
    return s;
}
"#;
        for mode in [Mode::Serial, Mode::Heartbeat, Mode::Eager { workers: 3 }] {
            assert_eq!(run(src, &[("n", 1000)], mode, 70), 499_500, "{mode:?}");
        }
    }

    #[test]
    fn par_fib() {
        let src = r#"
fn fib(n) {
    if n < 2 { return n; }
    par {
        f1 = fib(n - 1);
        f2 = fib(n - 2);
    }
    return f1 + f2;
}
"#;
        for mode in [Mode::Serial, Mode::Heartbeat, Mode::Eager { workers: 3 }] {
            assert_eq!(run(src, &[("n", 15)], mode, 60), 610, "{mode:?}");
        }
    }

    #[test]
    fn nested_parfor_desugars() {
        let src = r#"
fn main(n) {
    total = 0;
    parfor i in 0..n reduce(total: +, 0) {
        rowsum = 0;
        parfor j in 0..n reduce(rowsum: +, 0) {
            rowsum = rowsum + i * j;
        }
        total = total + rowsum;
    }
    return total;
}
"#;
        let ir = parse_ir(src).unwrap();
        // Confirm the desugaring chose the nest form.
        assert!(matches!(
            ir.functions[0].body[1],
            crate::ast::Stmt::ParForNested(_)
        ));
        let expected: i64 = (0..20).map(|i| (0..20).map(|j| i * j).sum::<i64>()).sum();
        for mode in [Mode::Serial, Mode::Heartbeat] {
            assert_eq!(run(src, &[("n", 20)], mode, 90), expected, "{mode:?}");
        }
    }

    #[test]
    fn min_max_and_unary() {
        let src = "fn main(x) { return min(x, 3) + max(x, 3) + -x; }";
        assert_eq!(run(src, &[("x", 7)], Mode::Serial, u64::MAX), 3 + 7 - 7);
    }

    #[test]
    fn errors_are_located() {
        let e = parse_ir("fn main() {\n  x = ;\n}").unwrap_err();
        assert_eq!(e.line, 2);
        let e = parse_ir("fn main() { return f(1) + 2; }").unwrap_err();
        assert!(e.msg.contains("calls are statements"), "{e}");
        let e = parse_ir("").unwrap_err();
        assert!(e.msg.contains("no functions"), "{e}");
    }

    #[test]
    fn channel_pipeline_parses_and_runs_in_every_mode() {
        // A two-stage pipeline over a bounded channel: the detached
        // producer pushes 0..n while main consumes. The channel capacity
        // (2) is far below n, so both directions of blocking are
        // exercised; the executor interleaves the stages cooperatively
        // in every lowering mode.
        let src = r#"
fn main(n) {
    c = chmake(2);
    detach produce(c, n);
    s = 0;
    k = 0;
    while k < n {
        v = chpop(c);
        s = s + v;
        k = k + 1;
    }
    return s;
}
fn produce(c, n) {
    for i in 0..n {
        chpush(c, i);
    }
    chclose(c);
    return 0;
}
"#;
        let ir = parse_ir(src).unwrap_or_else(|e| panic!("parse: {e}"));
        assert!(matches!(ir.functions[0].body[0], Stmt::ChMake { .. }));
        assert!(matches!(ir.functions[0].body[1], Stmt::Detach { .. }));
        for mode in [Mode::Serial, Mode::Heartbeat, Mode::Eager { workers: 3 }] {
            assert_eq!(run(src, &[("n", 100)], mode, 60), 4950, "{mode:?}");
        }
    }

    #[test]
    fn detach_of_a_parallel_stage_runs() {
        // The detached stage itself contains a parfor: promotion may
        // split the channel-fed consumer into parallel tasks. Stage 1
        // pushes row indices; stage 2 (main) pops each index and sums
        // the row serially, while a detached stage computes nothing —
        // here the parallel stage is the producer side.
        let src = r#"
fn main(n) {
    c = chmake(4);
    detach produce(c, n);
    s = 0;
    k = 0;
    while k < n {
        v = chpop(c);
        s = s + v;
        k = k + 1;
    }
    return s;
}
fn produce(c, n) {
    for i in 0..n {
        r = rowsum(i, n);
        chpush(c, r);
    }
    chclose(c);
    return 0;
}
fn rowsum(i, n) {
    t = 0;
    parfor j in 0..n reduce(t: +, 0) { t = t + i * j; }
    return t;
}
"#;
        let expected: i64 = (0..12).map(|i| (0..12).map(|j| i * j).sum::<i64>()).sum();
        for mode in [Mode::Serial, Mode::Heartbeat, Mode::Eager { workers: 2 }] {
            assert_eq!(run(src, &[("n", 12)], mode, 50), expected, "{mode:?}");
        }
    }

    #[test]
    fn detach_rejected_inside_parfor_bodies() {
        let src = r#"
fn main(n) {
    c = chmake(1);
    parfor i in 0..n { detach produce(c, i); }
    return 0;
}
fn produce(c, i) { chpush(c, i); return 0; }
"#;
        let ir = parse_ir(src).unwrap();
        assert!(crate::lower::lower(&ir, Mode::Serial).is_err());
    }

    #[test]
    fn bare_and_assigned_calls() {
        let src = r#"
fn main(x) {
    helper(x);
    y = helper(x);
    return y;
}
fn helper(a) { return a * 2; }
"#;
        assert_eq!(run(src, &[("x", 21)], Mode::Serial, u64::MAX), 42);
    }
}
