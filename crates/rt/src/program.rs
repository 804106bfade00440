//! Running TPAL programs on the native runtime.
//!
//! [`Runtime::run_program`] interprets a TPAL program on a worker thread
//! through the abstract machine's own task-set driver
//! ([`Machine::run_with`]) — ready queue, fork/join resolution, channel
//! park/wake, detach accounting, τ and the step limit are that one
//! function's. What this file adds is the only thing that differs, the
//! **real-time beat source**: instead of a per-task cycle counter, the
//! driver asks the worker's actual heartbeat source (local timer, ping
//! thread or timer signal) every `POLL_CHUNK` instructions, and the
//! promotion-ready *watch* is armed only once a beat is due and stays
//! armed until a `prppt` consumes it — the same signal-at-prppt
//! semantics the paper obtains with rollforward compilation — plus the
//! event hook that feeds the runtime's sharded counters and trace.
//!
//! Promoted TPAL tasks therefore never leave the interpreting worker
//! (TPAL stores are single-threaded by construction): a pool's other
//! workers serve native closure-level jobs, and more workers do not make
//! a *program* faster. Cross-worker TPAL execution is the simulator's
//! domain (`tpal-sim`), where costs are modelled rather than measured.

use std::sync::atomic::Ordering;

use tpal_core::machine::{Beats, Machine, MachineError, Outcome, StepOutcome, TaskState};
use tpal_trace::EventKind;

use crate::pool::{Runtime, WorkerCtx};

/// Instructions executed between heartbeat polls while the watch is
/// unarmed. Polls are further subsampled by the worker's local-timer
/// skip counter, so the per-chunk cost is one counter decrement.
const POLL_CHUNK: u64 = 1_000;

impl Runtime {
    /// Runs `machine` to `halt` on a worker, under the runtime's real
    /// heartbeat source in place of the cycle-counter ♥ of its
    /// [`MachineConfig`](tpal_core::machine::MachineConfig). Build, seed
    /// and bound the machine exactly as for [`Machine::run`] — τ, the
    /// step limit, the promotion order and the schedule policy are its
    /// config's; [`Machine::with_backend`] reuses a compiled backend.
    /// Returns the machine's [`Outcome`] and the number of heartbeats
    /// the interpreter observed (watch armings).
    ///
    /// A pool of any size interprets the whole task set on the one
    /// worker that picked the run up.
    ///
    /// # Errors
    ///
    /// As [`Machine::run`]: any [`MachineError`] raised by a task,
    /// [`MachineError::Deadlock`] if the task set drains without a
    /// `halt`, [`MachineError::StepLimitExceeded`] past the step limit.
    pub fn run_program(&self, machine: &mut Machine<'_>) -> Result<(Outcome, u64), MachineError> {
        self.run(move |ctx| {
            let mut beats = WorkerBeats {
                ctx,
                armed: false,
                observed: 0,
            };
            let out = machine.run_with(&mut beats)?;
            Ok((out, beats.observed))
        })
    }
}

/// The interpreting worker's real-time beats.
struct WorkerBeats<'a, 'c> {
    ctx: &'a WorkerCtx<'c>,
    /// Set when a heartbeat was observed; cleared once a promotion
    /// attempt at a `prppt` consumes it (one attempt per beat).
    armed: bool,
    observed: u64,
}

impl WorkerBeats<'_, '_> {
    fn trace(&self, kind: EventKind) {
        self.ctx.shared.trace_event(self.ctx.id, kind);
    }

    fn count_task(&self) {
        let shard = self.ctx.shared.counters.shard(self.ctx.id);
        shard.tasks_created.fetch_add(1, Ordering::Relaxed);
    }
}

impl Beats for WorkerBeats<'_, '_> {
    #[inline]
    fn stretch(&mut self, _task: &TaskState) -> (u64, bool) {
        if !self.armed && self.ctx.heartbeat_due() {
            self.armed = true;
            self.observed += 1;
            let shard = self.ctx.shared.counters.shard(self.ctx.id);
            shard.heartbeats_serviced.fetch_add(1, Ordering::Relaxed);
            self.trace(EventKind::HeartbeatServiced);
        }
        (if self.armed { u64::MAX } else { POLL_CHUNK }, self.armed)
    }

    fn promote(&mut self) -> bool {
        self.armed = false;
        let promoted = self.ctx.attempt_promotion(true);
        if promoted {
            let shard = self.ctx.shared.counters.shard(self.ctx.id);
            shard.promotions.fetch_add(1, Ordering::Relaxed);
            self.trace(EventKind::TaskPromote { task: 0 });
        }
        promoted
    }

    fn on_step(&mut self, outcome: &StepOutcome) {
        let task = 0;
        match *outcome {
            StepOutcome::Forked { .. } => self.count_task(),
            StepOutcome::Detached { .. } => {
                self.count_task();
                self.trace(EventKind::TaskDetach {
                    parent: 0,
                    child: 0,
                });
            }
            StepOutcome::ChanPushed { ch } => self.trace(EventKind::ChanPush {
                ch: ch as u32,
                task,
            }),
            StepOutcome::ChanPopped { ch } => self.trace(EventKind::ChanPop {
                ch: ch as u32,
                task,
            }),
            StepOutcome::ChanClosed { ch } => self.trace(EventKind::ChanClose {
                ch: ch as u32,
                task,
            }),
            StepOutcome::ChanBlocked { ch, push } => self.trace(EventKind::ChanBlock {
                ch: ch as u32,
                task,
                push,
            }),
            StepOutcome::Ran | StepOutcome::Halted | StepOutcome::Joined { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc;
    use std::time::Duration;

    use tpal_core::asm::parse_program;
    use tpal_core::machine::{Machine, MachineConfig, MachineError, Outcome};
    use tpal_core::program::Program;
    use tpal_core::programs::{fib, prod};
    use tpal_core::tier::{ExecBackend, ExecTier};

    use crate::{HeartbeatSource, RtConfig, Runtime};

    fn one_worker(source: HeartbeatSource, hb_us: u64) -> Runtime {
        Runtime::new(
            RtConfig::default()
                .workers(1)
                .source(source)
                .heartbeat(Duration::from_micros(hb_us)),
        )
    }

    /// One row of the differential table: a program, its inputs, and the
    /// register holding its result.
    struct Case {
        name: String,
        program: Program,
        ints: &'static [(&'static str, i64)],
        result: &'static str,
    }

    impl Case {
        /// The machine both substrates run: heartbeats off on the
        /// abstract machine, replaced by real time on the runtime.
        fn machine<'p>(&'p self, backend: &'p ExecBackend) -> Machine<'p> {
            let mut m = Machine::with_backend(&self.program, backend, MachineConfig::serial());
            for (name, v) in self.ints {
                m.set_reg(name, *v).unwrap();
            }
            m
        }
    }

    /// Every `programs/*.tpal` (a file this table does not know fails
    /// the test). The three streaming workloads' lowered specs go
    /// through the same comparison in `tpal-workloads`' `all_workloads`
    /// test, where both crates are ordinary dependencies.
    fn cases() -> Vec<Case> {
        // (file, its integer inputs, its result register)
        type Known = (&'static str, &'static [(&'static str, i64)], &'static str);
        let known: [Known; 5] = [
            ("fib.tpal", &[("n", 15)], "f"),
            ("pipeline.tpal", &[("n", 300)], "s"),
            ("pow.tpal", &[("d", 40), ("e", 3)], "f"),
            ("prod.tpal", &[("a", 20_000), ("b", 3)], "c"),
            ("sum.tpal", &[("main.n", 5_000)], "result"),
        ];
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../programs");
        let mut cases = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let file = path.file_name().unwrap().to_str().unwrap().to_owned();
            let (_, ints, result) = known
                .iter()
                .find(|(name, ..)| *name == file)
                .unwrap_or_else(|| panic!("programs/{file} is missing from the table"));
            cases.push(Case {
                program: parse_program(&std::fs::read_to_string(&path).unwrap()).unwrap(),
                name: file,
                ints,
                result,
            });
        }
        assert_eq!(cases.len(), known.len());
        cases
    }

    /// The runtime runs the abstract machine's own driver, so with no
    /// beats the two are *equal* — every counter, every register, on
    /// every tier — and under real beats everything a schedule cannot
    /// change still is: the result, what went through the channels,
    /// what was detached and whether the pipeline quiesced.
    #[test]
    fn run_program_matches_machine_across_tiers() {
        let disabled = one_worker(HeartbeatSource::Disabled, 100);
        let beating = [
            HeartbeatSource::LocalTimer,
            HeartbeatSource::PingThread,
            HeartbeatSource::TimerSignal,
        ]
        .map(|source| (source, one_worker(source, 20)));
        for case in cases() {
            let name = &case.name;
            let mut want: Option<Outcome> = None;
            for tier in ExecTier::ALL {
                let backend = ExecBackend::new(&case.program, tier);
                let machine = case.machine(&backend).run().unwrap();
                let (rt, beats) = disabled.run_program(&mut case.machine(&backend)).unwrap();
                assert_eq!(beats, 0, "{name} {tier}");
                assert_eq!(rt.stats, machine.stats, "{name} {tier}");
                assert_eq!(rt.final_regs(), machine.final_regs(), "{name} {tier}");
                assert_eq!((rt.work, rt.span), (machine.work, machine.span));
                want = Some(machine);
            }
            let want = want.unwrap();
            let backend = ExecBackend::new(&case.program, ExecTier::default());
            for (source, rt) in &beating {
                let (got, _) = rt.run_program(&mut case.machine(&backend)).unwrap();
                let what = format!("{name} {source:?}");
                assert!(want.read_reg(case.result).is_some(), "{what}");
                assert_eq!(
                    got.read_reg(case.result),
                    want.read_reg(case.result),
                    "{what}"
                );
                let (g, w) = (&got.stats, &want.stats);
                assert_eq!(g.chan_pushes, w.chan_pushes, "{what}");
                assert_eq!(g.chan_pops, w.chan_pops, "{what}");
                assert_eq!(g.detaches, w.detaches, "{what}");
                assert_eq!(g.detached_live_at_halt, w.detached_live_at_halt, "{what}");
                assert!(g.joins >= g.forks, "{what}");
            }
        }
    }

    /// `fib` forks and joins under heartbeat promotion; the result and
    /// task accounting must be self-consistent on every tier.
    #[test]
    fn run_program_promotes_fib() {
        let p = fib();
        let rt = one_worker(HeartbeatSource::LocalTimer, 20);
        for tier in ExecTier::ALL {
            let config = MachineConfig::default().with_exec_tier(tier);
            let mut m = Machine::new(&p, config);
            m.set_reg("n", 15).unwrap();
            let (out, beats) = rt.run_program(&mut m).unwrap();
            assert_eq!(out.read_reg("f"), Some(610), "tier {tier}");
            // Every fork is eventually matched by joins on both sides.
            assert!(out.stats.joins >= out.stats.forks);
            // One promotion attempt per observed beat, at most.
            assert!(out.stats.promotions <= beats);
        }
    }

    /// With heartbeats disabled, the serial-by-default path runs alone:
    /// no promotions, no forks.
    #[test]
    fn run_program_serial_without_heartbeats() {
        let p = prod();
        let rt = one_worker(HeartbeatSource::Disabled, 100);
        let mut m = Machine::new(&p, MachineConfig::default());
        m.set_reg("a", 100).unwrap();
        m.set_reg("b", 2).unwrap();
        let (out, beats) = rt.run_program(&mut m).unwrap();
        assert_eq!(out.read_reg("c"), Some(200));
        assert_eq!(out.stats.promotions, 0);
        assert_eq!(out.stats.forks, 0);
        assert_eq!(beats, 0);
    }

    /// A program with no boundary and no promotion-ready point must
    /// still stop at the step limit — armed watch or not. The runtime's
    /// former copy of the driver ran an armed stretch unbounded and
    /// never returned from this program, so each run sits under its own
    /// watchdog rather than the harness's. The small limit ends before
    /// the first beat can arm the watch, the large one long after.
    #[test]
    fn spin_stops_at_the_step_limit_under_every_source() {
        let p =
            parse_program("spin: [.]\n  i := i + 1\n  heap[a + 0] := i\n  jump spin\n").unwrap();
        let mut sources = vec![HeartbeatSource::LocalTimer, HeartbeatSource::Disabled];
        if crate::timer_signal_supported() {
            sources.push(HeartbeatSource::TimerSignal);
        }
        for (source, limit) in sources
            .into_iter()
            .flat_map(|s| [(s, 10_000), (s, 2_000_000)])
        {
            let p = p.clone();
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let config = MachineConfig {
                    step_limit: limit,
                    ..MachineConfig::default()
                };
                let mut m = Machine::new(&p, config);
                let cell = m.alloc_zeroed(1);
                m.set_reg("a", cell).unwrap();
                m.set_reg("i", 0).unwrap();
                let result = one_worker(source, 20).run_program(&mut m).map(|_| ());
                let _ = tx.send((result, m.heap().load(cell, 0).unwrap()));
            });
            let (result, iterations) = rx
                .recv_timeout(Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("{source:?}: the spin program hung the runtime"));
            assert_eq!(
                result,
                Err(MachineError::StepLimitExceeded { limit }),
                "{source:?}"
            );
            // Three instructions per iteration, at most limit + 1 run.
            assert!(
                (1..=(limit as i64 + 1) / 3 + 1).contains(&iterations),
                "{source:?}: {iterations} iterations under a limit of {limit}"
            );
        }
    }
}
