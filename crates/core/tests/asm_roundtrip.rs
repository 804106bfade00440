//! Property tests of the assembler: randomly generated well-formed TPAL
//! programs — every instruction form, both annotation kinds, scoped,
//! generated and hyphenated names — must survive `print → parse`
//! losslessly, parsing is deterministic, and the freedoms of the
//! concrete syntax the printer never uses (`·`, comments, `;`, blank
//! lines) change nothing.

use proptest::prelude::*;

use tpal_core::asm::{parse_program, print_program};
use tpal_core::isa::{Annotation, BinOp, Instr, JoinPolicy, Label, MemAddr, Operand, Reg, RegMap};
use tpal_core::program::{Program, ProgramBuilder};

/// Plain, scoped (`f.v`), compiler-generated (`%t`, `f.%s2_jr`) and
/// hyphenated names, as the lowering and the paper's listings write them.
const REGS: [&str; 10] = [
    "r",
    "a",
    "sp",
    "x_1",
    "sp-top",
    "main.acc",
    "main.%t0",
    "fib.%s2_jr",
    "%abort",
    "loop_i-2",
];
const BLOCKS: [&str; 4] = ["blk0", "main__pf0", "loop-par", "fib.entry"];

/// Instruction forms that are not terminators.
const BODY_FORMS: usize = 22;

/// One instruction, as indices into [`REGS`]/[`BLOCKS`]: which form,
/// two registers, two operands, a small count.
type GenInstr = (usize, usize, usize, GenOperand, GenOperand, u32);

#[derive(Debug, Clone)]
enum GenOperand {
    Reg(usize),
    Int(i64),
    Label(usize),
}

fn operand_strategy() -> impl Strategy<Value = GenOperand> {
    prop_oneof![
        (0..REGS.len()).prop_map(GenOperand::Reg),
        (-1000i64..1000).prop_map(GenOperand::Int),
        proptest::sample::select(&[i64::MIN, i64::MAX, 0][..]).prop_map(GenOperand::Int),
        (0..BLOCKS.len()).prop_map(GenOperand::Label),
    ]
}

fn instr_strategy(forms: std::ops::Range<usize>) -> impl Strategy<Value = GenInstr> {
    (
        forms,
        0..REGS.len(),
        0..REGS.len(),
        operand_strategy(),
        operand_strategy(),
        0u32..5,
    )
}

/// Four blocks with random bodies, random annotations, and random
/// terminators (structurally valid by construction).
fn program_strategy() -> impl Strategy<Value = Program> {
    let body = proptest::collection::vec(instr_strategy(0..BODY_FORMS), 0..8);
    (
        proptest::collection::vec(body, 4..5),
        // Terminators: jump (to a label or through a register), halt, join.
        proptest::collection::vec(instr_strategy(BODY_FORMS..BODY_FORMS + 3), 4..5),
        proptest::collection::vec(0usize..3, 4..5), // annotation selector
        0usize..4,                                  // jtppt comb target
        proptest::sample::select(&[JoinPolicy::Assoc, JoinPolicy::AssocComm][..]),
        proptest::sample::select(BinOp::all()),
    )
        .prop_map(|(bodies, terminators, anns, comb, policy, binop)| {
            let mut b = ProgramBuilder::new();
            let labels: Vec<Label> = BLOCKS.iter().map(|n| b.label(n)).collect();
            let regs: Vec<Reg> = REGS.iter().map(|r| b.reg(r)).collect();
            let to_op = |op: &GenOperand| -> Operand {
                match op {
                    GenOperand::Reg(i) => Operand::Reg(regs[*i]),
                    GenOperand::Int(n) => Operand::Int(*n),
                    GenOperand::Label(l) => Operand::Label(labels[*l]),
                }
            };
            let build = |(form, r, s, o, p, n): &GenInstr| -> Instr {
                let (r, s, n) = (regs[*r], regs[*s], *n);
                let (addr, o, p) = (MemAddr { base: s, offset: n }, to_op(o), to_op(p));
                match form {
                    0 => Instr::Move { dst: r, src: o },
                    1 => Instr::Op {
                        dst: r,
                        op: binop,
                        lhs: s,
                        rhs: o,
                    },
                    2 => Instr::IfJump { cond: r, target: o },
                    // A jralloc naming a block must name a join target.
                    3 => Instr::JrAlloc {
                        dst: r,
                        cont: match o {
                            Operand::Label(l) if anns[l.index()] != 2 => Operand::Reg(s),
                            o => o,
                        },
                    },
                    4 => Instr::Fork { jr: r, target: o },
                    5 => Instr::SNew { dst: r },
                    6 => Instr::SAlloc { sp: r, n },
                    7 => Instr::SFree { sp: r, n },
                    8 => Instr::Load { dst: r, addr },
                    9 => Instr::Store { addr, src: o },
                    10 => Instr::PrmPush { addr },
                    11 => Instr::PrmPop { addr },
                    12 => Instr::PrmEmpty { dst: r, sp: s },
                    13 => Instr::PrmSplit { sp: r, dst: s },
                    14 => Instr::HAlloc { dst: r, size: o },
                    15 => Instr::HLoad {
                        dst: r,
                        base: s,
                        offset: o,
                    },
                    16 => Instr::HStore {
                        base: r,
                        offset: o,
                        src: p,
                    },
                    17 => Instr::ChMake { dst: r, cap: o },
                    18 => Instr::ChPush { ch: r, src: o },
                    19 => Instr::ChPop { dst: r, ch: s },
                    20 => Instr::ChClose { ch: r },
                    21 => Instr::Detach { target: o },
                    22 => Instr::Jump { target: o },
                    23 => Instr::Halt,
                    _ => Instr::Join { jr: r },
                }
            };
            for (i, body) in bodies.iter().enumerate() {
                let mut instrs: Vec<Instr> = body.iter().map(build).collect();
                instrs.push(build(&terminators[i]));
                let ann = match anns[i] {
                    1 => Annotation::PromotionReady {
                        handler: labels[(i + 1) % 4],
                    },
                    2 => Annotation::JoinTarget {
                        policy,
                        merge: RegMap::new()
                            .with(regs[0], regs[1])
                            .with(regs[i + 4], regs[i + 5]),
                        comb: labels[comb],
                    },
                    _ => Annotation::None,
                };
                b.annotated_block(BLOCKS[i], ann, instrs);
            }
            b.build().expect("structurally valid by construction")
        })
}

/// The printed text rewritten with the syntax the printer never
/// emits: `·` for `.`, trailing and whole-line comments, blank lines,
/// `;` in place of a newline between two statements, `if_jump` for
/// `if-jump`, irregular indentation.
fn decorate(text: &str, choices: &[u8]) -> String {
    let mut out = String::from("// a leading comment: [jtppt] x := y; halt\n\n");
    let mut choices = choices.iter().cycle();
    let lines: Vec<&str> = text.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let is_statement = |l: &&str| l.starts_with("    ");
        let line = match choices.next().expect("cycled") % 4 {
            0 => line
                .replace("[.]", "[\u{00B7}]")
                .replace("if-jump", "if_jump"),
            1 => line.replace("    ", " \t "),
            _ => (*line).to_owned(),
        };
        out.push_str(&line);
        let joins = is_statement(&lines[i]) && lines.get(i + 1).is_some_and(is_statement);
        match choices.next().expect("cycled") % 5 {
            0 if joins => out.push_str(" ; "),
            1 if joins => out.push_str(";\n;\n"),
            2 => out.push_str(" // jump blk0; x := := 3 $\n"),
            3 => out.push_str("\r\n\n  // on a line of its own\n"),
            _ => out.push('\n'),
        }
    }
    out
}

/// Every register name in `Reg` order, then every label name in
/// `Label` order: the numbering.
fn names(p: &Program) -> Vec<&str> {
    let regs = (0..p.reg_count()).map(|i| p.reg_name(Reg::from_index(i)));
    let labels = (0..p.block_count()).map(|i| p.label_name(Label::from_index(i)));
    regs.chain(labels).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn print_parse_roundtrip(p in program_strategy()) {
        let text = print_program(&p);
        let p2 = parse_program(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        let text2 = print_program(&p2);
        prop_assert_eq!(&text, &text2, "printing is not a fixed point");
        prop_assert_eq!(p.block_count(), p2.block_count());
        prop_assert_eq!(p.instr_count(), p2.instr_count());
        prop_assert_eq!(p.label_name(p.entry()), p2.label_name(p2.entry()));
        // Block-by-block structural equality.
        for (l, blk) in p.iter() {
            let l2 = p2.label(p.label_name(l)).expect("label preserved");
            let blk2 = p2.block(l2);
            prop_assert_eq!(blk.instrs.len(), blk2.instrs.len());
        }
        // A second trip starts from the parser's own numbering, so it
        // must reproduce the program exactly, numbering included.
        let p3 = parse_program(&text2).unwrap();
        prop_assert_eq!(p2.blocks(), p3.blocks());
        prop_assert_eq!(names(&p2), names(&p3));
    }

    #[test]
    fn parsing_is_deterministic(p in program_strategy()) {
        let text = print_program(&p);
        let a = parse_program(&text).unwrap();
        let b = parse_program(&text).unwrap();
        prop_assert_eq!(print_program(&a), print_program(&b));
    }

    #[test]
    fn comments_separators_and_the_middle_dot_change_nothing(
        p in program_strategy(),
        choices in proptest::collection::vec(0u8..=255, 1..40),
    ) {
        let text = print_program(&p);
        let plain = parse_program(&text).unwrap();
        let decorated = decorate(&text, &choices);
        let parsed = parse_program(&decorated)
            .unwrap_or_else(|e| panic!("decorated text failed: {e}\n{decorated}"));
        prop_assert_eq!(plain.blocks(), parsed.blocks(), "{}", decorated);
        prop_assert_eq!(names(&plain), names(&parsed));
    }
}
