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
use tpal::workloads::{all_workloads, workload, Scale};

fn compiled(name: &str, mode: Mode) -> TemplateCounts {
    let spec = workload(name)
        .unwrap_or_else(|| panic!("{name} is registered"))
        .sim_spec(Scale::Quick);
    let lowered = lower(&spec.ir, mode).unwrap_or_else(|e| panic!("{name} lowers: {e}"));
    ThreadedProgram::compile(&lowered.program).templates()
}

/// The registry workloads that install templates, with their exact
/// counts under the serial and the heartbeat lowering. Every other
/// registry workload installs none. A fusion or lowering change that
/// silently de-templates a loop would make `sim_loops` about ten times
/// slower; it fails here first.
const TEMPLATED: [(&str, TemplateCounts, TemplateCounts); 4] = [
    ("plus-reduce-array", counts(1, 0, 1), counts(1, 0, 0)),
    ("kmeans", counts(1, 0, 1), counts(1, 0, 1)),
    ("floyd-warshall-small", counts(0, 1, 1), counts(0, 1, 1)),
    ("floyd-warshall-large", counts(0, 1, 1), counts(0, 1, 1)),
];

const fn counts(reduce: usize, guarded: usize, watched: usize) -> TemplateCounts {
    TemplateCounts {
        reduce,
        guarded,
        watched,
    }
}

/// The loop workloads (the benchmark's `sim_loops` among them) run on
/// exactly their templates, in the mode the simulator runs (heartbeat)
/// and in its serial baseline.
#[test]
fn loop_workloads_install_their_templates() {
    for (name, serial, heartbeat) in TEMPLATED {
        assert_eq!(compiled(name, Mode::Serial), serial, "{name} [Serial]");
        assert_eq!(
            compiled(name, Mode::Heartbeat),
            heartbeat,
            "{name} [Heartbeat]"
        );
    }
}

/// Every other registry workload — the benchmark's `sim_branchy` and
/// `sim_stream` programs among them — is template-free: its fast-tier
/// stream is the decoded one.
#[test]
fn branchy_and_streaming_workloads_install_none() {
    for w in all_workloads() {
        let name = w.name();
        if TEMPLATED.iter().any(|t| t.0 == name) {
            continue;
        }
        for mode in [Mode::Serial, Mode::Heartbeat] {
            assert_eq!(compiled(name, mode), counts(0, 0, 0), "{name} [{mode:?}]");
        }
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
