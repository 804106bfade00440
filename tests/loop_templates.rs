//! The lowering still emits the loop shapes the templates match.
//!
//! The fast tier's order-of-magnitude on loop-dominated programs rests on
//! `ir::lower` producing exactly the block shapes
//! `decoded::templates` recognises; inside `tpal-core` only hand-built
//! programs say so. These tests hold the two ends together over the
//! workload registry, deterministically, so a lowering change that
//! silently stops matching fails here and not only as a benchmark row.

use tpal::core::asm::parse_program;
use tpal::core::program::Program;
use tpal::core::threaded::{TemplateCounts, ThreadedProgram};
use tpal::ir::{lower, Mode};
use tpal::workloads::{workload, Scale};

fn compiled(name: &str, mode: Mode) -> TemplateCounts {
    let spec = workload(name)
        .unwrap_or_else(|| panic!("{name} is registered"))
        .sim_spec(Scale::Quick);
    let lowered = lower(&spec.ir, mode).unwrap_or_else(|e| panic!("{name} lowers: {e}"));
    ThreadedProgram::compile(&lowered.program).templates()
}

/// The benchmark's `sim_loops` programs run on templates, in the mode the
/// simulator runs (heartbeat) and in its serial baseline.
#[test]
fn loop_workloads_install_their_templates() {
    for mode in [Mode::Heartbeat, Mode::Serial] {
        let t = compiled("plus-reduce-array", mode);
        assert!(t.reduce >= 1, "plus-reduce-array [{mode:?}]: {t:?}");
        let t = compiled("floyd-warshall-small", mode);
        assert!(t.guarded >= 1, "floyd-warshall-small [{mode:?}]: {t:?}");
    }
}

/// The benchmark's `sim_branchy` and `sim_stream` programs are its
/// template-free side: their fast-tier stream is the decoded one.
#[test]
fn branchy_and_streaming_workloads_install_none() {
    for name in [
        "mandelbrot",
        "mergesort-uniform",
        "knapsack",
        "pipeline-tokens",
        "spmv-stream",
    ] {
        let t = compiled(name, Mode::Heartbeat);
        assert_eq!((t.reduce, t.guarded), (0, 0), "{name}: {t:?}");
    }
}

/// A reduce loop, optionally with a `prppt` annotation on its head or
/// its body block.
fn reduce_loop(prppt_on: Option<&str>) -> Program {
    let annotation = |block| {
        if prppt_on == Some(block) {
            "prppt handler"
        } else {
            "."
        }
    };
    let text = format!(
        "head: [{}]
            t := i < n
            if-jump t, body
            jump exit
        body: [{}]
            w := heap[a + i]
            acc := acc + w
            i := i + 1
            jump head
        exit: [.]
            halt
        handler: [.]
            jump head",
        annotation("head"),
        annotation("body"),
    );
    parse_program(&text).expect("the loop assembles")
}

/// Under the promotion watch a template runs only where no pause could
/// fall inside it: a `prppt` head pauses instead, and a `prppt` interior
/// leaves the plain loop-head compare in the watch stream so the interior
/// block is dispatched and pauses at its entry.
#[test]
fn promotion_ready_loops_keep_their_plain_head_under_the_watch() {
    for (site, watched) in [(None, 1), (Some("head"), 0), (Some("body"), 0)] {
        let t = ThreadedProgram::compile(&reduce_loop(site)).templates();
        assert_eq!(
            t,
            TemplateCounts {
                reduce: 1,
                guarded: 0,
                watched
            },
            "prppt on {site:?}"
        );
    }
    // In heartbeat-lowered code the promotion-ready point of a parallel
    // loop is its own head, so the watch stream runs no template there,
    // while serial lowering has no `prppt` and keeps them all.
    let t = compiled("plus-reduce-array", Mode::Heartbeat);
    assert!(t.watched < t.reduce + t.guarded, "{t:?}");
    let t = compiled("plus-reduce-array", Mode::Serial);
    assert_eq!(t.watched, t.reduce + t.guarded, "{t:?}");
}
