//! Hand-written TPAL assembly, straight from the paper.
//!
//! Parses the `prod` listing of Figure 2 (`programs/prod.tpal`) from its
//! concrete syntax, runs it under several heartbeat settings, prints the
//! machine's statistics, and round-trips the nested `pow` and recursive
//! `fib` programs through the pretty-printer.
//!
//! Run with: `cargo run --release --example assembler`

use tpal::core::asm::{parse_program, print_program};
use tpal::core::machine::{Machine, MachineConfig};
use tpal::core::programs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The listing as shipped in `programs/`, in the paper's syntax.
    let program = parse_program(include_str!("../programs/prod.tpal"))?;
    println!(
        "parsed prod: {} blocks, {} instructions\n",
        program.block_count(),
        program.instr_count()
    );

    println!("♥         tasks  promotions  work      span     parallelism");
    for heartbeat in [u64::MAX, 1000, 250, 60] {
        let mut m = Machine::new(&program, MachineConfig::default().with_heartbeat(heartbeat));
        m.set_reg("a", 20_000)?;
        m.set_reg("b", 3)?;
        let out = m.run()?;
        assert_eq!(out.read_reg("c"), Some(60_000));
        let hb = if heartbeat == u64::MAX {
            "∞".to_owned()
        } else {
            heartbeat.to_string()
        };
        println!(
            "{hb:<9} {:<6} {:<11} {:<9} {:<8} {:.1}",
            out.stats.forks,
            out.stats.promotions,
            out.work,
            out.span,
            out.parallelism()
        );
    }

    // Round-trip the paper's nested and recursive examples.
    for (name, p) in [("pow", programs::pow()), ("fib", programs::fib())] {
        let text = print_program(&p);
        let back = parse_program(&text)?;
        assert_eq!(back.instr_count(), p.instr_count());
        println!(
            "\n{name}: {} blocks / {} instructions — pretty-printed and reparsed losslessly",
            p.block_count(),
            p.instr_count()
        );
    }

    // And run fib from its printed form, promotions included.
    let fib = parse_program(&print_program(&programs::fib()))?;
    let mut m = Machine::new(&fib, MachineConfig::default().with_heartbeat(40));
    m.set_reg("n", 20)?;
    let out = m.run()?;
    println!(
        "\nfib(20) = {} with {} promoted calls (stack marks: prmpush/prmsplit at work)",
        out.read_reg("f").unwrap(),
        out.stats.forks
    );
    Ok(())
}
