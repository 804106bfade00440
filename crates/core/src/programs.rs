//! The paper's example programs, parsed from the shipped `.tpal` text
//! (`programs/{prod,pow,fib}.tpal`, compiled into the crate).
//!
//! * [`prod`] — the running example (Figures 2, 32–34): `c = a * b` by
//!   repeated addition, with heartbeat-promotable loop parallelism.
//! * [`pow`] — the nested-loop example of Appendix B.1: `f = dᵉ`, with the
//!   inner `prod` loop nested in an outer loop and the
//!   promote-outermost-first policy.
//! * [`fib`] — the recursive example of Appendix B.2 (Figures 20, 22, 23):
//!   stack frames carrying promotion-ready marks, `prmsplit` locating the
//!   oldest latent call, and join continuations spliced into frames.
//!
//! # Deviations from the paper's listings (documented faithfully)
//!
//! The appendix listings contain three defects that any executable
//! reproduction must address; see `DESIGN.md` for the full discussion,
//! and the comments on the `.tpal` blocks that carry each fix:
//!
//! 1. **Figure 23, line 46** writes the `joink` continuation through `sp`;
//!    the prose and Figure 24 show it must go through `sp-top` (the
//!    promoted frame's continuation cell). We use `sp-top`.
//! 2. **Figure 23** reads the registers `jr` and `sp-top` inside `joink`,
//!    but both are clobbered by any *subsequent* promotion before the
//!    pop-walk reaches the promoted frame. We save `jr` into the frame's
//!    dead mark cell at promotion time and reload it in `joink` — the
//!    frame-local storage the mechanism needs to support multiple
//!    outstanding promotions per stack.
//! 3. **Figure 18** lets a task promote *outer* loop iterations using a
//!    register copy of the induction variable that is stale after an inner
//!    fork, which would duplicate outer iterations. We add an ownership
//!    flag transferred at inner forks: only the task whose join chain
//!    carries the outer continuation may promote outer iterations. This
//!    preserves the outer-loop-first policy and is how the paper's own
//!    stack-mark mechanism (Appendix B.2) behaves.

use crate::asm::parse_program;
use crate::program::Program;

/// Assembles a listing compiled into the crate; a parse error is a
/// defect in the shipped file, so it panics naming the file.
fn shipped(file: &str, text: &str) -> Program {
    parse_program(text).unwrap_or_else(|e| panic!("programs/{file}: {e}"))
}

/// The paper's running example `prod` (Figure 2): computes `c = a * b`
/// by repeated addition.
///
/// Inputs: registers `a` and `b`. Output: register `c` at `halt`.
/// The serial blocks run unchanged until a heartbeat fires at the `loop`
/// promotion-ready point; the handler then splits the remaining
/// iterations.
pub fn prod() -> Program {
    shipped("prod.tpal", include_str!("../../../programs/prod.tpal"))
}

/// The nested-loop example `pow` (Appendix B.1): computes `f = d^e` by
/// iterating the inner `prod` loop, with heartbeat promotion preferring
/// the *outermost* latent parallelism.
///
/// Inputs: registers `d` and `e` (`e ≥ 0`). Output: register `f` at
/// `halt`. Uses multiplicative splitting of the outer loop
/// (`d^e = d^(m+n) · d^m`) exactly as Figure 18's `ploop-promote`.
pub fn pow() -> Program {
    shipped("pow.tpal", include_str!("../../../programs/pow.tpal"))
}

/// The recursive example `fib` (Appendix B.2): computes the n-th
/// Fibonacci number with stack-based promotion-ready marks.
///
/// Input: register `n`. Output: register `f` at `halt`.
pub fn fib() -> Program {
    shipped("fib.tpal", include_str!("../../../programs/fib.tpal"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineConfig, SchedulePolicy};

    fn run_prod(a: i64, b: i64, heartbeat: u64) -> (i64, crate::machine::ExecStats) {
        let p = prod();
        let mut m = Machine::new(&p, MachineConfig::default().with_heartbeat(heartbeat));
        m.set_reg("a", a).unwrap();
        m.set_reg("b", b).unwrap();
        let out = m.run().unwrap();
        (out.read_reg("c").expect("c set"), out.stats)
    }

    #[test]
    fn prod_serial_no_promotion() {
        let (c, stats) = run_prod(6, 7, u64::MAX);
        assert_eq!(c, 42);
        assert_eq!(stats.forks, 0);
        assert_eq!(stats.promotions, 0);
    }

    #[test]
    fn prod_with_heartbeat_promotes_and_is_correct() {
        let (c, stats) = run_prod(1000, 3, 16);
        assert_eq!(c, 3000);
        assert!(stats.forks > 0, "expected promotions, got {stats:?}");
        // Every fork's pair fills one node (a merge), every leaf task and
        // every comb task joins once, and the root join closes the record:
        // f+1 leaf joins + f comb joins = 2f+1 join instructions.
        assert_eq!(stats.merges, stats.forks);
        assert_eq!(stats.joins, 2 * stats.forks + 1);
    }

    #[test]
    fn prod_result_independent_of_heartbeat() {
        for hb in [4, 8, 32, 128, 1024, u64::MAX] {
            let (c, _) = run_prod(237, 11, hb);
            assert_eq!(c, 237 * 11, "heartbeat {hb}");
        }
    }

    #[test]
    fn prod_zero_iterations() {
        let (c, _) = run_prod(0, 9, 4);
        assert_eq!(c, 0);
    }

    #[test]
    fn prod_under_all_schedules() {
        let p = prod();
        for policy in [
            SchedulePolicy::ParentFirst,
            SchedulePolicy::ChildFirst,
            SchedulePolicy::RoundRobin { quantum: 3 },
            SchedulePolicy::Random {
                seed: 42,
                quantum: 5,
            },
        ] {
            let mut m = Machine::new(
                &p,
                MachineConfig::default()
                    .with_heartbeat(10)
                    .with_policy(policy),
            );
            m.set_reg("a", 500).unwrap();
            m.set_reg("b", 2).unwrap();
            assert_eq!(m.run().unwrap().read_reg("c"), Some(1000), "{policy:?}");
        }
    }

    fn run_pow(d: i64, e: i64, heartbeat: u64) -> i64 {
        let p = pow();
        let mut m = Machine::new(&p, MachineConfig::default().with_heartbeat(heartbeat));
        m.set_reg("d", d).unwrap();
        m.set_reg("e", e).unwrap();
        m.run().unwrap().read_reg("f").expect("f set")
    }

    #[test]
    fn pow_serial() {
        assert_eq!(run_pow(3, 4, u64::MAX), 81);
        assert_eq!(run_pow(2, 0, u64::MAX), 1);
        assert_eq!(run_pow(7, 1, u64::MAX), 7);
    }

    #[test]
    fn pow_heartbeat_promotes_nested() {
        let p = pow();
        let mut m = Machine::new(&p, MachineConfig::default().with_heartbeat(20));
        m.set_reg("d", 2).unwrap();
        m.set_reg("e", 20).unwrap();
        let out = m.run().unwrap();
        assert_eq!(out.read_reg("f"), Some(1 << 20));
        assert!(out.stats.forks > 0);
    }

    #[test]
    fn pow_result_independent_of_heartbeat_and_schedule() {
        let p = pow();
        for hb in [20, 64, 333] {
            for seed in [1, 2, 3] {
                let mut m = Machine::new(
                    &p,
                    MachineConfig::default()
                        .with_heartbeat(hb)
                        .with_policy(SchedulePolicy::Random { seed, quantum: 7 }),
                );
                m.set_reg("d", 3).unwrap();
                m.set_reg("e", 9).unwrap();
                assert_eq!(
                    m.run().unwrap().read_reg("f"),
                    Some(19683),
                    "hb={hb} seed={seed}"
                );
            }
        }
    }

    fn fib_ref(n: u64) -> i64 {
        let (mut a, mut b) = (0i64, 1i64);
        for _ in 0..n {
            let t = a + b;
            a = b;
            b = t;
        }
        a
    }

    fn run_fib(n: i64, heartbeat: u64) -> (i64, crate::machine::ExecStats) {
        let p = fib();
        let mut m = Machine::new(&p, MachineConfig::default().with_heartbeat(heartbeat));
        m.set_reg("n", n).unwrap();
        let out = m.run().unwrap();
        (out.read_reg("f").expect("f set"), out.stats)
    }

    #[test]
    fn fib_serial() {
        for n in 0..15 {
            let (f, stats) = run_fib(n, u64::MAX);
            assert_eq!(f, fib_ref(n as u64), "fib({n})");
            assert_eq!(stats.forks, 0);
        }
    }

    #[test]
    fn fib_heartbeat_promotes_recursion() {
        let (f, stats) = run_fib(18, 25);
        assert_eq!(f, fib_ref(18));
        assert!(stats.forks > 0, "expected promotions: {stats:?}");
        assert!(stats.promotions >= stats.forks);
    }

    #[test]
    fn fib_result_independent_of_heartbeat_and_schedule() {
        let p = fib();
        for hb in [10, 33, 100] {
            for policy in [
                SchedulePolicy::ParentFirst,
                SchedulePolicy::ChildFirst,
                SchedulePolicy::Random {
                    seed: 7,
                    quantum: 4,
                },
            ] {
                let mut m = Machine::new(
                    &p,
                    MachineConfig::default()
                        .with_heartbeat(hb)
                        .with_policy(policy),
                );
                m.set_reg("n", 14).unwrap();
                assert_eq!(
                    m.run().unwrap().read_reg("f"),
                    Some(fib_ref(14)),
                    "hb={hb} {policy:?}"
                );
            }
        }
    }

    /// The worked example of Appendix D: prod with a = 3, b = 4 under
    /// ♥ = 4 promotes exactly once (the handler fires at the first loop
    /// entry past the threshold, splits m = 1 to the child and m + n = 2
    /// to the parent) and produces c = 12.
    #[test]
    fn appendix_d_trace() {
        let p = prod();
        let mut m = Machine::new(&p, MachineConfig::default().with_heartbeat(4));
        m.set_reg("a", 3).unwrap();
        m.set_reg("b", 4).unwrap();
        let out = m.run().unwrap();
        assert_eq!(out.read_reg("c"), Some(12));
        assert_eq!(out.stats.forks, 1, "{:?}", out.stats);
        assert_eq!(out.stats.merges, 1);
        assert_eq!(out.stats.joins, 3);
    }

    #[test]
    fn heartbeat_controls_task_count() {
        // Smaller ♥ ⇒ at least as many promotions (amortisation argument).
        let (_, fast) = run_prod(4000, 1, 16);
        let (_, slow) = run_prod(4000, 1, 256);
        assert!(
            fast.forks > slow.forks,
            "expected more tasks at smaller ♥: {} vs {}",
            fast.forks,
            slow.forks
        );
    }

    #[test]
    fn work_span_accounting_is_consistent() {
        let p = prod();
        let mut m = Machine::new(&p, MachineConfig::default().with_heartbeat(16).with_tau(10));
        m.set_reg("a", 2000).unwrap();
        m.set_reg("b", 1).unwrap();
        let out = m.run().unwrap();
        // Work equals instructions plus τ per merge.
        assert_eq!(out.work, out.stats.instructions + 10 * out.stats.merges);
        // Span never exceeds work; with real forks it is strictly smaller.
        assert!(out.span <= out.work);
        if out.stats.forks > 0 {
            assert!(out.span < out.work);
            assert!(out.parallelism() > 1.0);
        }
    }
}
