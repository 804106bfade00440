//! The shipped `.tpal` corpus stays loadable and correct.

use tpal::core::asm::parse_program;
use tpal::core::machine::{Machine, MachineConfig};
use tpal::sim::{Sim, SimConfig};

fn load(name: &str) -> tpal::core::program::Program {
    let src = std::fs::read_to_string(format!("programs/{name}.tpal"))
        .unwrap_or_else(|e| panic!("programs/{name}.tpal: {e}"));
    parse_program(&src).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn prod_corpus() {
    let p = load("prod");
    let mut m = Machine::new(&p, MachineConfig::default().with_heartbeat(64));
    m.set_reg("a", 1_000).unwrap();
    m.set_reg("b", 11).unwrap();
    assert_eq!(m.run().unwrap().read_reg("c"), Some(11_000));
}

#[test]
fn fib_corpus_simulated() {
    let p = load("fib");
    let mut sim = Sim::new(&p, SimConfig::nautilus(4, 1000));
    sim.set_reg("n", 20).unwrap();
    assert_eq!(sim.run().unwrap().read_reg("f"), Some(6_765));
}

#[test]
fn pow_corpus() {
    let p = load("pow");
    let mut m = Machine::new(&p, MachineConfig::default().with_heartbeat(50));
    m.set_reg("d", 7).unwrap();
    m.set_reg("e", 8).unwrap();
    assert_eq!(m.run().unwrap().read_reg("f"), Some(5_764_801));
}

#[test]
fn sum_corpus_simulated() {
    let p = load("sum");
    let n = 5_000i64;
    let expected: i64 = (0..n).map(|i| i * 3 + 1).sum();
    let mut sim = Sim::new(&p, SimConfig::nautilus(4, 3_000));
    sim.set_reg("main.n", n).unwrap();
    assert_eq!(sim.run().unwrap().read_reg("result"), Some(expected));
}

#[test]
fn pipeline_corpus() {
    // The channel example: a detached producer streams 0..n through a
    // capacity-2 FIFO into the consuming main task. Checked on the
    // abstract machine and on the multicore simulator.
    let p = load("pipeline");
    let n = 500i64;
    let expected = n * (n - 1) / 2;
    let mut m = Machine::new(&p, MachineConfig::default().with_heartbeat(64));
    m.set_reg("n", n).unwrap();
    assert_eq!(m.run().unwrap().read_reg("s"), Some(expected));

    let mut sim = Sim::new(&p, SimConfig::nautilus(4, 1_000));
    sim.set_reg("n", n).unwrap();
    let out = sim.run().unwrap();
    assert_eq!(out.read_reg("s"), Some(expected));
    assert_eq!(out.stats.chan_pushes, n as u64);
    assert_eq!(out.stats.chan_pops, n as u64);
    assert_eq!(out.stats.detaches, 1);
}

/// Every file under `programs/` must be assemblable TPAL (`.tpal`): a
/// bad example — or a stray file in another language — can never land
/// silently.
#[test]
fn every_shipped_program_assembles() {
    let mut checked = 0;
    for entry in std::fs::read_dir("programs").unwrap() {
        let path = entry.unwrap().path();
        assert_eq!(
            path.extension().and_then(|e| e.to_str()),
            Some("tpal"),
            "{}: non-assembly file in programs/",
            path.display()
        );
        let src = std::fs::read_to_string(&path).unwrap();
        parse_program(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        checked += 1;
    }
    assert!(checked >= 4, "expected the full corpus, found {checked}");
}

/// `programs/sum.tpal`'s header quotes its source-language original
/// (the indented block between the header's first two bare `//` lines)
/// and says the body is that source's `Mode::Heartbeat` lowering.
fn sum_source_and_body() -> (String, String) {
    let text = std::fs::read_to_string("programs/sum.tpal").expect("programs/sum.tpal");
    let (comments, body): (Vec<&str>, Vec<&str>) = text.lines().partition(|l| l.starts_with("//"));
    let source = comments
        .split(|l| *l == "//")
        .nth(1)
        .expect("a quoted source between two bare `//` lines")
        .iter()
        .map(|l| format!("{}\n", &l[2..]))
        .collect();
    (source, body.iter().map(|l| format!("{l}\n")).collect())
}

/// The header tells the truth: lowering the quoted source prints
/// exactly the file's assembly.
#[test]
fn sum_tpal_is_the_heartbeat_lowering_of_its_quoted_source() {
    let (source, body) = sum_source_and_body();
    let ir = tpal::ir::parse_ir(&source).unwrap_or_else(|e| panic!("{e}\n{source}"));
    let lowered = tpal::ir::lower(&ir, tpal::ir::Mode::Heartbeat).unwrap();
    assert_eq!(tpal::core::asm::print_program(&lowered.program), body);
}

/// The source-language original of `programs/sum.tpal` must keep
/// meaning the same thing under every lowering mode.
#[test]
fn sum_source_corpus_through_frontend() {
    let (src, _) = sum_source_and_body();
    let ir = tpal::ir::parse_ir(&src).unwrap_or_else(|e| panic!("{e}"));
    let n = 5_000i64;
    let expected: i64 = (0..n).map(|i| i * 3 + 1).sum();
    for mode in [
        tpal::ir::Mode::Serial,
        tpal::ir::Mode::Heartbeat,
        tpal::ir::Mode::HeartbeatExpanded,
        tpal::ir::Mode::Eager { workers: 4 },
    ] {
        let lowered = tpal::ir::lower(&ir, mode).unwrap();
        let mut m = Machine::new(
            &lowered.program,
            MachineConfig::default().with_heartbeat(120),
        );
        m.set_reg(&lowered.param_reg("n"), n).unwrap();
        assert_eq!(
            m.run().unwrap().read_reg(&lowered.result_reg),
            Some(expected),
            "{mode:?}"
        );
    }
}
