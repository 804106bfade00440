//! The TPAL assembly parser.
//!
//! One pass over the source: each statement becomes an [`Instr`] the
//! moment it is parsed. A name is a block label if a block of that name
//! exists *anywhere* in the source and a register otherwise, which is
//! not known until the last block header has been read — so the pass
//! emits every name as a symbol of one table, and a fix-up at the end
//! turns each symbol into the [`Reg`] or [`Label`] it denotes and hands
//! the blocks to the validating [`ProgramBuilder`].

use std::fmt;

use crate::asm::lexer::{Lexer, Token, OUT_OF_RANGE};
use crate::isa::{Annotation, BinOp, Instr, JoinPolicy, Label, MemAddr, Operand, Reg, RegMap};
use crate::program::{Interner, Program, ProgramBuilder, ValidationError};

/// A parse error with its source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line (0 for end-of-input and program-level errors).
    pub line: u32,
    /// Human-readable message.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "line {}: {}", self.line, self.msg)
        }
    }
}

impl std::error::Error for ParseError {}

impl From<ValidationError> for ParseError {
    fn from(e: ValidationError) -> Self {
        ParseError {
            line: 0,
            msg: e.to_string(),
        }
    }
}

/// What a symbol denotes. Blocks are known as their headers are read;
/// every other symbol becomes a register, numbered in the fix-up.
#[derive(Clone, Copy)]
enum Sym {
    Unresolved,
    Block(Label),
    Reg(Reg),
}

/// A block as parsed: its annotation and its instructions
/// (`Parser::code[start..end]`, `end` set when the block ends) carry
/// symbols where the finished program carries registers and labels.
struct Pending {
    label: Label,
    line: u32,
    annotation: Annotation,
    start: usize,
    end: usize,
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    /// The token about to be read, and its line.
    tok: Token<'a>,
    line: u32,
    /// Every name of the source. Until the fix-up, a `Reg` or `Label`
    /// in `code` and in `blocks[..].annotation` holds a symbol's id,
    /// and a name in operand position is an `Operand::Reg` of it.
    syms: Interner,
    /// Indexed by symbol id.
    meaning: Vec<Sym>,
    /// Every instruction of the program and its line, in source order.
    code: Vec<(Instr, u32)>,
    blocks: Vec<Pending>,
    builder: ProgramBuilder,
}

impl<'a> Parser<'a> {
    /// Reads the token `self.tok`.
    fn next(&mut self) -> (Token<'a>, u32) {
        let read = (self.tok, self.line);
        (self.tok, self.line) = self.lexer.next();
        read
    }

    /// An error on `line` — unless the lexer has already met a
    /// character that starts no token, which is then the error.
    fn error(&mut self, line: u32, msg: impl Into<String>) -> ParseError {
        self.lexer.failed.take().unwrap_or_else(|| ParseError {
            line,
            msg: msg.into(),
        })
    }

    /// An error at the token about to be read (at the last token, once
    /// the input has ended).
    fn err(&mut self, msg: impl Into<String>) -> ParseError {
        self.error(self.line, msg)
    }

    /// The error of having read `found` where `wanted` should be.
    fn unexpected(&mut self, wanted: impl fmt::Display, found: (Token<'a>, u32)) -> ParseError {
        self.error(found.1, format!("expected {wanted}, found {}", found.0))
    }

    fn expect(&mut self, kind: Token<'a>) -> Result<(), ParseError> {
        match self.next() {
            (k, _) if k == kind => Ok(()),
            found => Err(self.unexpected(kind, found)),
        }
    }

    fn ident(&mut self) -> Result<&'a str, ParseError> {
        match self.next() {
            (Token::Ident(s), _) => Ok(s),
            found => Err(self.unexpected("identifier", found)),
        }
    }

    /// An integer literal, and the line it is on.
    fn integer(&mut self) -> Result<(i64, u32), ParseError> {
        let (magnitude, negative, line) = match self.next() {
            (Token::Int(n), line) => (n, false, line),
            (Token::Op(BinOp::Sub), _) => match self.next() {
                (Token::Int(n), line) => (n, true, line),
                _ => return Err(self.err("expected integer after `-`")),
            },
            found => return Err(self.unexpected("integer", found)),
        };
        let value = if negative {
            0i64.checked_sub_unsigned(magnitude)
        } else {
            i64::try_from(magnitude).ok()
        };
        match value {
            Some(value) => Ok((value, line)),
            None => Err(self.error(line, OUT_OF_RANGE)),
        }
    }

    /// A cell count or offset: a non-negative integer that fits the
    /// instruction's 32-bit field.
    fn cells(&mut self, negative: &str) -> Result<u32, ParseError> {
        let (n, line) = self.integer()?;
        if n < 0 {
            return Err(self.err(negative));
        }
        u32::try_from(n).map_err(|_| self.error(line, OUT_OF_RANGE))
    }

    fn skip_separators(&mut self) {
        while matches!(self.tok, Token::Newline | Token::Semi) {
            self.next();
        }
    }

    /// The id of `name` in the symbol table.
    fn sym(&mut self, name: &str) -> u32 {
        let id = self.syms.intern(name);
        if id as usize == self.meaning.len() {
            self.meaning.push(Sym::Unresolved);
        }
        id
    }

    /// A name in a register-only position.
    fn reg(&mut self) -> Result<Reg, ParseError> {
        let name = self.ident()?;
        Ok(Reg(self.sym(name)))
    }

    /// A name in a label-only position.
    fn label(&mut self) -> Result<Label, ParseError> {
        let name = self.ident()?;
        Ok(Label(self.sym(name)))
    }

    fn operand(&mut self) -> Result<Operand, ParseError> {
        match self.tok {
            Token::Ident(_) => Ok(Operand::Reg(self.reg()?)),
            Token::Int(_) | Token::Op(BinOp::Sub) => Ok(Operand::Int(self.integer()?.0)),
            k => Err(self.err(format!("expected operand, found {k}"))),
        }
    }

    /// `heap [ base + offset ]` with a register-or-literal offset (the
    /// `heap` keyword is already consumed).
    fn heap_addr(&mut self) -> Result<(Reg, Operand), ParseError> {
        self.expect(Token::LBracket)?;
        let base = self.reg()?;
        self.expect(Token::Op(BinOp::Add))?;
        let offset = self.operand()?;
        self.expect(Token::RBracket)?;
        Ok((base, offset))
    }

    /// `mem [ base + offset ]` (the `mem` keyword is already consumed).
    fn mem_addr(&mut self) -> Result<MemAddr, ParseError> {
        self.expect(Token::LBracket)?;
        let base = self.reg()?;
        self.expect(Token::Op(BinOp::Add))?;
        let offset = self.cells("memory offsets must be non-negative")?;
        self.expect(Token::RBracket)?;
        Ok(MemAddr { base, offset })
    }

    /// The `mem` keyword and its address.
    fn mem_operand(&mut self) -> Result<MemAddr, ParseError> {
        let m = self.ident()?;
        if m != "mem" {
            return Err(self.err(format!("expected `mem`, found `{m}`")));
        }
        self.mem_addr()
    }

    /// `, n` after a stack pointer.
    fn cell_count(&mut self) -> Result<u32, ParseError> {
        self.expect(Token::Comma)?;
        self.cells("cell counts must be non-negative")
    }

    /// `, operand` after a register.
    fn second_operand(&mut self) -> Result<Operand, ParseError> {
        self.expect(Token::Comma)?;
        self.operand()
    }

    /// An operator token, or the `min`/`max` keywords.
    fn peek_binop(&self) -> Option<BinOp> {
        match self.tok {
            Token::Op(op) => Some(op),
            Token::Ident("min") => Some(BinOp::Min),
            Token::Ident("max") => Some(BinOp::Max),
            _ => None,
        }
    }

    /// `[ . ]`, `[ prppt l ]` or `[ jtppt policy ; { r -> r, … } ; l ]`.
    fn annotation(&mut self) -> Result<Annotation, ParseError> {
        self.expect(Token::LBracket)?;
        let ann = match self.tok {
            Token::Dot => {
                self.next();
                Annotation::None
            }
            Token::Ident("prppt") => {
                self.next();
                Annotation::PromotionReady {
                    handler: self.label()?,
                }
            }
            Token::Ident("jtppt") => {
                self.next();
                let policy = match self.ident()? {
                    "assoc" => JoinPolicy::Assoc,
                    "assoc-comm" | "assoc_comm" => JoinPolicy::AssocComm,
                    other => {
                        return Err(
                            self.err(format!("expected `assoc` or `assoc-comm`, found `{other}`"))
                        )
                    }
                };
                self.expect(Token::Semi)?;
                self.expect(Token::LBrace)?;
                let mut merge = RegMap::new();
                if self.tok != Token::RBrace {
                    loop {
                        let src = self.reg()?;
                        self.expect(Token::Arrow)?;
                        merge = merge.with(src, self.reg()?);
                        if self.tok != Token::Comma {
                            break;
                        }
                        self.next();
                    }
                }
                self.expect(Token::RBrace)?;
                self.expect(Token::Semi)?;
                Annotation::JoinTarget {
                    policy,
                    merge,
                    comb: self.label()?,
                }
            }
            _ => return Err(self.err("expected `.`, `prppt`, or `jtppt` in annotation")),
        };
        self.expect(Token::RBracket)?;
        Ok(ann)
    }

    fn emit(&mut self, line: u32, instr: Instr) {
        self.code.push((instr, line));
    }

    /// One statement whose first token, the identifier `kw` on `line`,
    /// is already consumed (the caller established it is not a block
    /// header).
    fn statement(&mut self, kw: &'a str, line: u32) -> Result<(), ParseError> {
        let instr = match kw {
            "jump" => Instr::Jump {
                target: self.operand()?,
            },
            "halt" => Instr::Halt,
            "join" => Instr::Join { jr: self.reg()? },
            "fork" => Instr::Fork {
                jr: self.reg()?,
                target: self.second_operand()?,
            },
            "if-jump" | "if_jump" => Instr::IfJump {
                cond: self.reg()?,
                target: self.second_operand()?,
            },
            "salloc" => Instr::SAlloc {
                sp: self.reg()?,
                n: self.cell_count()?,
            },
            "sfree" => Instr::SFree {
                sp: self.reg()?,
                n: self.cell_count()?,
            },
            "prmpush" => Instr::PrmPush {
                addr: self.mem_operand()?,
            },
            "prmpop" => Instr::PrmPop {
                addr: self.mem_operand()?,
            },
            "prmsplit" => {
                let sp = self.reg()?;
                self.expect(Token::Comma)?;
                Instr::PrmSplit {
                    sp,
                    dst: self.reg()?,
                }
            }
            "chpush" => Instr::ChPush {
                ch: self.reg()?,
                src: self.second_operand()?,
            },
            "chclose" => Instr::ChClose { ch: self.reg()? },
            "detach" => Instr::Detach {
                target: self.operand()?,
            },
            "mem" => {
                // Store: mem[sp + n] := v
                let addr = self.mem_addr()?;
                self.expect(Token::Assign)?;
                Instr::Store {
                    addr,
                    src: self.operand()?,
                }
            }
            "heap" => {
                // Heap store: heap[base + off] := v
                let (base, offset) = self.heap_addr()?;
                self.expect(Token::Assign)?;
                Instr::HStore {
                    base,
                    offset,
                    src: self.operand()?,
                }
            }
            _ => {
                // Assignment forms: dst := ...
                let dst = Reg(self.sym(kw));
                self.expect(Token::Assign)?;
                let form = match self.tok {
                    Token::Ident(
                        form @ ("snew" | "jralloc" | "prmempty" | "mem" | "halloc" | "chmake"
                        | "chpop" | "heap"),
                    ) => form,
                    _ => return self.assignment_chain(dst, line),
                };
                self.next();
                match form {
                    "snew" => Instr::SNew { dst },
                    "jralloc" => Instr::JrAlloc {
                        dst,
                        cont: self.operand()?,
                    },
                    "prmempty" => Instr::PrmEmpty {
                        dst,
                        sp: self.reg()?,
                    },
                    "mem" => Instr::Load {
                        dst,
                        addr: self.mem_addr()?,
                    },
                    "halloc" => Instr::HAlloc {
                        dst,
                        size: self.operand()?,
                    },
                    "chmake" => Instr::ChMake {
                        dst,
                        cap: self.operand()?,
                    },
                    "chpop" => Instr::ChPop {
                        dst,
                        ch: self.reg()?,
                    },
                    _ => {
                        let (base, offset) = self.heap_addr()?;
                        Instr::HLoad { dst, base, offset }
                    }
                }
            }
        };
        self.emit(line, instr);
        Ok(())
    }

    /// `dst := operand (op operand)*`, expanded left-associatively with
    /// `dst` as the accumulator.
    fn assignment_chain(&mut self, dst: Reg, line: u32) -> Result<(), ParseError> {
        let first = self.operand()?;
        if self.peek_binop().is_none() {
            self.emit(line, Instr::Move { dst, src: first });
            return Ok(());
        }
        let Operand::Reg(mut lhs) = first else {
            return Err(self.err("the left operand of an operator must be a register"));
        };
        let mut acc_is_dst = false;
        while let Some(op) = self.peek_binop() {
            self.next();
            let rhs = self.operand()?;
            if acc_is_dst && rhs == Operand::Reg(dst) {
                let dst = self.syms.name(dst.0).to_owned();
                return Err(self.err(format!(
                    "chained expression reads `{dst}` after it was already assigned; \
                     split the statement"
                )));
            }
            self.emit(line, Instr::Op { dst, op, lhs, rhs });
            lhs = dst;
            acc_is_dst = true;
        }
        Ok(())
    }

    /// Block header: IDENT ':' [annotation], the identifier and the
    /// colon already consumed.
    fn header(&mut self, name: &str, line: u32) -> Result<(), ParseError> {
        self.end_block();
        let label = self.builder.label(name);
        let sym = self.sym(name);
        self.meaning[sym as usize] = Sym::Block(label);
        let annotation = if self.tok == Token::LBracket {
            self.annotation()?
        } else {
            Annotation::None
        };
        self.blocks.push(Pending {
            label,
            line,
            annotation,
            start: self.code.len(),
            end: 0,
        });
        Ok(())
    }

    /// The open block, if any, ends with the last instruction emitted.
    fn end_block(&mut self) {
        if let Some(open) = self.blocks.last_mut() {
            open.end = self.code.len();
        }
    }

    /// The whole source: block headers, each followed by its statements.
    fn program(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_separators();
            let (name, line) = match self.next() {
                (Token::End, _) => return Ok(()),
                (Token::Ident(name), line) => (name, line),
                found => return Err(self.unexpected("identifier", found)),
            };
            if self.blocks.is_empty() || self.tok == Token::Colon {
                self.expect(Token::Colon)?;
                self.header(name, line)?;
                continue;
            }
            self.statement(name, line)?;
            if !matches!(self.tok, Token::End | Token::Newline | Token::Semi) {
                let k = self.tok;
                return Err(self.err(format!("expected end of statement, found {k}")));
            }
        }
    }

    /// The register a symbol in a register-only position denotes.
    fn resolve_reg(&mut self, r: &mut Reg, line: u32) -> Result<(), ParseError> {
        *r = match self.meaning[r.0 as usize] {
            Sym::Reg(reg) => reg,
            Sym::Block(_) => {
                let s = self.syms.name(r.0);
                return Err(ParseError {
                    line,
                    msg: format!("`{s}` is a block label but is used as a register"),
                });
            }
            Sym::Unresolved => {
                let reg = self.builder.reg(self.syms.name(r.0));
                self.meaning[r.0 as usize] = Sym::Reg(reg);
                reg
            }
        };
        Ok(())
    }

    /// The block a symbol in a label-only position denotes; `what`
    /// names the position.
    fn resolve_label(&self, l: &mut Label, what: &str, line: u32) -> Result<(), ParseError> {
        match self.meaning[l.0 as usize] {
            Sym::Block(label) => *l = label,
            _ => {
                let name = self.syms.name(l.0);
                return Err(ParseError {
                    line,
                    msg: format!("{what} `{name}` is not a block"),
                });
            }
        }
        Ok(())
    }

    /// The fix-up: every block header is known, so every symbol is a
    /// label or a register. Registers are numbered as they are met,
    /// block by block: a block's instructions, then its annotation.
    fn finish(mut self) -> Result<Program, ParseError> {
        self.end_block();
        let mut code = std::mem::take(&mut self.code);
        for mut block in std::mem::take(&mut self.blocks) {
            let body = &mut code[block.start..block.end];
            for (instr, line) in body.iter_mut() {
                let line = *line;
                let (regs, operands) = names(instr);
                for r in regs.into_iter().flatten() {
                    self.resolve_reg(r, line)?;
                }
                for o in operands.into_iter().flatten() {
                    let Operand::Reg(r) = o else { continue };
                    match self.meaning[r.0 as usize] {
                        Sym::Block(label) => *o = Operand::Label(label),
                        _ => self.resolve_reg(r, line)?,
                    }
                }
            }
            match &mut block.annotation {
                Annotation::None => {}
                Annotation::PromotionReady { handler } => {
                    self.resolve_label(handler, "prppt handler", block.line)?;
                }
                Annotation::JoinTarget { merge, comb, .. } => {
                    self.resolve_label(comb, "jtppt combining block", block.line)?;
                    for (src, dst) in &mut merge.pairs {
                        self.resolve_reg(src, block.line)?;
                        self.resolve_reg(dst, block.line)?;
                    }
                }
            }
            let body = body.iter().map(|&(instr, _)| instr).collect();
            self.builder.define(block.label, block.annotation, body);
        }
        Ok(self.builder.build()?)
    }
}

/// The name-bearing fields of an instruction: registers, then operands,
/// each in the order the concrete syntax writes them.
fn names(i: &mut Instr) -> ([Option<&mut Reg>; 2], [Option<&mut Operand>; 2]) {
    use Instr::*;
    match i {
        Halt => ([None, None], [None, None]),
        Jump { target: a } | Detach { target: a } => ([None, None], [Some(a), None]),
        Join { jr: r } | SNew { dst: r } | SAlloc { sp: r, .. } | SFree { sp: r, .. } => {
            ([Some(r), None], [None, None])
        }
        ChClose { ch: r } => ([Some(r), None], [None, None]),
        PrmPush { addr } | PrmPop { addr } => ([Some(&mut addr.base), None], [None, None]),
        Load { dst, addr } => ([Some(dst), Some(&mut addr.base)], [None, None]),
        PrmEmpty { dst: r, sp: s } | PrmSplit { sp: r, dst: s } | ChPop { dst: r, ch: s } => {
            ([Some(r), Some(s)], [None, None])
        }
        Move { dst: r, src: a } | IfJump { cond: r, target: a } | JrAlloc { dst: r, cont: a } => {
            ([Some(r), None], [Some(a), None])
        }
        Fork { jr: r, target: a } | HAlloc { dst: r, size: a } | ChMake { dst: r, cap: a } => {
            ([Some(r), None], [Some(a), None])
        }
        ChPush { ch: r, src: a } => ([Some(r), None], [Some(a), None]),
        Store { addr, src } => ([Some(&mut addr.base), None], [Some(src), None]),
        Op { dst, lhs, rhs, .. } => ([Some(dst), Some(lhs)], [Some(rhs), None]),
        HLoad { dst, base, offset } => ([Some(dst), Some(base)], [Some(offset), None]),
        HStore { base, offset, src } => ([Some(base), None], [Some(offset), Some(src)]),
    }
}

/// Parses TPAL assembly source into a validated [`Program`].
///
/// The first block in the source is the program's entry block.
///
/// # Errors
///
/// Returns a [`ParseError`] on lexical or syntactic faults, and wraps any
/// [`ValidationError`] from the program builder (undefined labels, missing
/// terminators, and so on).
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    // A statement is seldom shorter than sixteen bytes.
    let statements = src.len() / 16;
    let mut lexer = Lexer::new(src);
    let (tok, line) = lexer.next();
    let mut parser = Parser {
        lexer,
        tok,
        line,
        syms: Interner::default(),
        meaning: Vec::new(),
        code: Vec::with_capacity(statements),
        blocks: Vec::new(),
        builder: ProgramBuilder::new(),
    };
    parser.program()?;
    parser.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::print_program;
    use crate::machine::{Machine, MachineConfig};

    #[test]
    fn parse_minimal() {
        let p = parse_program("main: [.]\n  r := 1\n  halt\n").unwrap();
        assert_eq!(p.block_count(), 1);
        assert_eq!(p.instr_count(), 2);
    }

    #[test]
    fn parse_semicolon_separated() {
        let p = parse_program("main: [.] r := 1; r := r + 2; halt").unwrap();
        let out = Machine::new(&p, MachineConfig::default()).run().unwrap();
        assert_eq!(out.read_reg("r"), Some(3));
    }

    #[test]
    fn parse_chained_operators() {
        let p = parse_program("main: x := 2; y := x + x + 3; halt").unwrap();
        let out = Machine::new(&p, MachineConfig::default()).run().unwrap();
        assert_eq!(out.read_reg("y"), Some(7));
    }

    #[test]
    fn chained_clobber_rejected() {
        let err = parse_program("main: x := 1; x := x + 1 + x; halt").unwrap_err();
        assert!(err.msg.contains("already assigned"), "{err}");
    }

    #[test]
    fn parse_negative_literal() {
        let p = parse_program("main: x := -5; x := x - -3; halt").unwrap();
        let out = Machine::new(&p, MachineConfig::default()).run().unwrap();
        assert_eq!(out.read_reg("x"), Some(-2));
    }

    #[test]
    fn literals_span_exactly_the_i64_range() {
        let src = "main: lo := -9223372036854775808; hi := 9223372036854775807; halt";
        let p = parse_program(src).unwrap();
        let out = Machine::new(&p, MachineConfig::default()).run().unwrap();
        assert_eq!(out.read_reg("lo"), Some(i64::MIN));
        assert_eq!(out.read_reg("hi"), Some(i64::MAX));
        // The printer writes `Int(i64::MIN)` as the text above: it must
        // come back as the same instruction.
        assert_eq!(
            print_program(&parse_program(&print_program(&p)).unwrap()),
            print_program(&p)
        );
        assert!(print_program(&p).contains("lo := -9223372036854775808\n"));
    }

    #[test]
    fn out_of_range_literals_are_errors_with_their_line() {
        for literal in [
            "9223372036854775808",
            "-9223372036854775809",
            "99999999999999999999",
            "-99999999999999999999",
        ] {
            let err =
                parse_program(&format!("main:\n  y := 1\n  x := {literal}\n  halt")).unwrap_err();
            assert_eq!(
                (err.line, err.msg.as_str()),
                (3, "integer literal out of range"),
                "{literal}"
            );
        }
        // Cell counts and offsets are 32-bit fields.
        for stmt in ["salloc sp, 4294967296", "x := mem[sp + 4294967296]"] {
            let err = parse_program(&format!("main:\n  {stmt}\n  halt")).unwrap_err();
            assert_eq!(
                (err.line, err.msg.as_str()),
                (2, "integer literal out of range"),
                "{stmt}"
            );
        }
        assert!(parse_program("main: salloc sp, 4294967295; halt").is_ok());
    }

    #[test]
    fn labels_resolve_in_operands() {
        let src = "main: [.]\n  jump next\nnext: [.]\n  halt\n";
        let p = parse_program(src).unwrap();
        let out = Machine::new(&p, MachineConfig::default()).run().unwrap();
        assert_eq!(out.stats.instructions, 2);
    }

    #[test]
    fn label_used_as_register_rejected() {
        let err = parse_program("main: main := 1; halt").unwrap_err();
        assert!(err.msg.contains("used as a register"), "{err}");
    }

    #[test]
    fn resolution_errors_report_the_statements_own_line() {
        // `main` is a fine operand on line 2 and a misused one on line 3.
        let err = parse_program("main: x := 5\n  y := main\n  main := 3\n  halt").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 3: `main` is a block label but is used as a register"
        );
        // The label is defined after its misuse, in a later block.
        let err =
            parse_program("main:\n  x := 1\n  later := x\n  halt\nlater:\n  halt").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 3: `later` is a block label but is used as a register"
        );
        // Annotations sit on their header's line.
        let err = parse_program("main:\n  halt\n\nloop: [prppt nowhere]\n  halt").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 4: prppt handler `nowhere` is not a block"
        );
        let err = parse_program("main:\n  halt\nk: [jtppt assoc; {r -> r2}; nowhere]\n  halt")
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 3: jtppt combining block `nowhere` is not a block"
        );
        let err =
            parse_program("main:\n  halt\nk: [jtppt assoc; {r -> main}; k]\n  halt").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 3: `main` is a block label but is used as a register"
        );
    }

    #[test]
    fn the_first_fault_in_source_order_is_reported() {
        // Tokens are read as they are needed: a stray character further
        // on does not mask the syntax error before it.
        let err = parse_program("main: x := := $").unwrap_err();
        assert_eq!(err.to_string(), "line 1: expected operand, found `:=`");
        let err = parse_program("main: x := $").unwrap_err();
        assert_eq!(err.to_string(), "line 1: unexpected character `$`");
    }

    #[test]
    fn parse_full_prod_listing() {
        // The paper's Figure 2, transcribed with underscores.
        let src = r#"
prod: [.] // computes c = a * b
    r := 0
    jump loop
exit: [jtppt assoc-comm; {r -> r2}; comb]
    c := r
    halt
loop: [prppt loop_try_promote]
    if-jump a, exit
    r := r + b
    a := a - 1
    jump loop
loop_try_promote: [.]
    t := a < 2
    if-jump t, loop
    jr := jralloc exit
    jump loop_promote
loop_par_try_promote: [.]
    t := a < 2
    if-jump t, loop_par
    jump loop_promote
loop_promote: [.]
    m := a / 2
    n := a % 2
    a := m
    tr := r
    r := 0
    fork jr, loop_par
    a := m + n
    r := tr
    jump loop_par
loop_par: [prppt loop_par_try_promote]
    if-jump a, exit_par
    r := r + b
    a := a - 1
    jump loop_par
comb: [.]
    r := r + r2
    join jr
exit_par: [.]
    join jr
"#;
        let p = parse_program(src).unwrap();
        for hb in [8, u64::MAX] {
            let mut m = Machine::new(&p, MachineConfig::default().with_heartbeat(hb));
            m.set_reg("a", 123).unwrap();
            m.set_reg("b", 4).unwrap();
            assert_eq!(m.run().unwrap().read_reg("c"), Some(492), "hb={hb}");
        }
    }

    #[test]
    fn parse_stack_instructions() {
        let src = r#"
main: [.]
    sp := snew
    salloc sp, 2
    mem[sp + 0] := 7
    mem[sp + 1] := 8
    x := mem[sp + 0]
    y := mem[sp + 1]
    sfree sp, 2
    halt
"#;
        let p = parse_program(src).unwrap();
        let out = Machine::new(&p, MachineConfig::default()).run().unwrap();
        assert_eq!(out.read_reg("x"), Some(7));
        assert_eq!(out.read_reg("y"), Some(8));
    }

    #[test]
    fn parse_mark_instructions() {
        let src = r#"
main: [.]
    sp := snew
    salloc sp, 3
    e := prmempty sp
    prmpush mem[sp + 1]
    f := prmempty sp
    prmsplit sp, off
    prmpush mem[sp + 2]
    prmpop mem[sp + 2]
    halt
"#;
        let p = parse_program(src).unwrap();
        let out = Machine::new(&p, MachineConfig::default()).run().unwrap();
        assert_eq!(out.read_reg("e"), Some(0)); // empty = true(0)
        assert_eq!(out.read_reg("f"), Some(1));
        assert_eq!(out.read_reg("off"), Some(1));
    }

    #[test]
    fn parse_error_reports_line() {
        let err = parse_program("main: [.]\n  x := := 1\n  halt").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn undefined_handler_rejected() {
        let err = parse_program("main: [prppt nowhere]\n  halt\n").unwrap_err();
        assert!(err.msg.contains("prppt handler"), "{err}");
    }

    #[test]
    fn parse_heap_instructions() {
        let src = r#"
main: [.]
    a := halloc 4
    heap[a + 0] := 11
    i := 3
    heap[a + i] := 44
    x := heap[a + 0]
    y := heap[a + i]
    halt
"#;
        let p = parse_program(src).unwrap();
        let out = Machine::new(&p, MachineConfig::default()).run().unwrap();
        assert_eq!(out.read_reg("x"), Some(11));
        assert_eq!(out.read_reg("y"), Some(44));
    }

    #[test]
    fn min_max_keywords() {
        let p = parse_program("main: a := 3; b := a min 1; c := a max 9; halt").unwrap();
        let out = Machine::new(&p, MachineConfig::default()).run().unwrap();
        assert_eq!(out.read_reg("b"), Some(1));
        assert_eq!(out.read_reg("c"), Some(9));
    }
}
