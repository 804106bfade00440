//! The native-runtime workloads (`rt_loops`, `rt_forkjoin`).
//!
//! Each kernel of the paper's suite runs three ways, interleaved round
//! by round so host drift lands on all three alike: the plain serial
//! kernel, the heartbeat kernel on a 1-worker runtime (the paper's
//! overhead figure) and on a 2-worker runtime (what a user runs here).
//! The runtimes are persistent and warm, `RtConfig::default()`: a
//! 100 us heartbeat from the local timer; their workers are pinned one
//! per CPU from outside (see `place_workers`). Kernel inputs are the
//! suite's own fixed inputs; `--seed` orders the ops within a round.
//!
//! The traced run adds the paper's ladder at 1 worker, one mechanism
//! per rung: serial, then promotion points compiled in but no beats,
//! then beats serviced but never promoted, then the full runtime.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use tpal_cilk::CilkRuntime;
use tpal_deque::{deque, Injector};
use tpal_rt::{timer_signal_supported, HeartbeatSource, RtConfig, RtStats, Runtime, WorkerCtx};
use tpal_workloads::{run_cilk_on, run_heartbeat_on, Prepared, Scale};

use crate::affinity;
use crate::harness::{
    peak_rss_mb, rate, raw, timed_setups, values, Budget, Metrics, Outcome, Reference, Tally,
};
use crate::registry::WorkloadDef;
use crate::spans::{Attribution, Recorder};
use crate::stats::{geomean, median, ratio, Rng, Summary};

pub const HEARTBEAT_US: u64 = 100;

/// `knapsack` runs in tens of microseconds at `Quick`; `Full` is the
/// longest the suite offers.
fn scale_of(kernel: &str) -> Scale {
    match kernel {
        "knapsack" => Scale::Full,
        _ => Scale::Quick,
    }
}

/// Whether the serial and the heartbeat kernel do the same work, so
/// that the ratio of their times is a cost. `knapsack` is a
/// branch-and-bound search whose work depends on the order incumbents
/// are found in (its heartbeat kernel ran in a quarter of its serial
/// kernel's time at 1 worker): it counts in op time and throughput and
/// has its per-kernel rows, and stays out of the ratios' geomeans.
fn same_work(kernel: &str) -> bool {
    kernel != "knapsack"
}

/// Runs per round: short kernels run several times, so a 12-second
/// run gives their medians as many samples as the long ones'.
fn reps_of(kernel: &str) -> usize {
    match kernel {
        "knapsack" => 16,
        "spmv-powerlaw" => 4,
        _ => 1,
    }
}

struct Kernel {
    name: &'static str,
    prepared: Box<dyn Prepared>,
}

struct Setup {
    kernels: Vec<Kernel>,
    rt1: Runtime,
    rt2: Runtime,
    prepare_ms: f64,
}

/// How a cell runs its kernel.
enum Exec<'a> {
    Serial,
    Heartbeat(&'a Runtime),
    Cilk(&'a CilkRuntime),
}

/// One timed kernel run, checked against the expected checksum. The
/// time is the kernel call alone; counters are reset before it and read
/// after it.
fn run_cell(
    kernel: &Kernel,
    exec: &Exec<'_>,
    rec: &mut Recorder,
) -> Result<(f64, RtStats), String> {
    rec.span("bench.rt_op", |rec| {
        let p = kernel.prepared.as_ref();
        let (got, seconds, stats) = match exec {
            Exec::Serial => {
                let start = Instant::now();
                let got = rec.span("workloads.Prepared::run_serial", |_| p.run_serial());
                (got, start.elapsed().as_secs_f64(), RtStats::default())
            }
            Exec::Heartbeat(rt) => {
                rec.span("rt.Runtime::reset_stats", |_| rt.reset_stats());
                let start = Instant::now();
                let got = rec.span("rt.Runtime::run", |_| run_heartbeat_on(rt, p));
                let seconds = start.elapsed().as_secs_f64();
                (got, seconds, rec.span("rt.Runtime::stats", |_| rt.stats()))
            }
            Exec::Cilk(rt) => {
                rt.reset_stats();
                let start = Instant::now();
                let got = rec.span("cilk.CilkRuntime::run", |_| run_cilk_on(rt, p));
                (got, start.elapsed().as_secs_f64(), rt.stats())
            }
        };
        if got == p.expected() {
            Ok((seconds, stats))
        } else {
            Err(format!(
                "{}: checksum {got}, expected {}",
                kernel.name,
                p.expected()
            ))
        }
    })
}

fn runtime(workers: usize) -> Runtime {
    placed(Runtime::new(RtConfig::default().workers(workers)))
}

/// Pins each worker of a pool to a CPU of its own (worker `i` to the
/// `i`-th allowed CPU, wrapping). Left to the scheduler, a 2-worker
/// pool on this 2-CPU host spends seconds at a time with both workers
/// on one CPU — no speed-up — and then seconds with one on each — twice
/// as fast — and which it is when a run is timed is chance. A binary
/// tree of eager tasks with busy leaves reaches every worker; each pins
/// itself at its first leaf.
fn place_workers(workers: usize, run: impl Fn(&(dyn Fn(&WorkerCtx<'_>) + Sync))) {
    fn tree(ctx: &WorkerCtx<'_>, depth: u32, placed: &[AtomicBool], cpus: &[usize]) {
        if depth > 0 {
            ctx.spawn2(
                |ctx| tree(ctx, depth - 1, placed, cpus),
                |ctx| tree(ctx, depth - 1, placed, cpus),
            );
            return;
        }
        let id = ctx.worker_id();
        if !placed[id].swap(true, Ordering::Relaxed) {
            affinity::pin_current_thread(&[cpus[id % cpus.len()]]);
        }
        let start = Instant::now();
        while start.elapsed() < Duration::from_micros(100) {
            std::hint::spin_loop();
        }
    }
    // A lone worker is left to the scheduler, which finds it an idle
    // CPU; pinned, every 1-worker pool of a run would share one CPU
    // with the others' idle wake-ups.
    let cpus = affinity::allowed_cpus();
    if cpus.is_empty() || workers < 2 {
        return;
    }
    let placed: Vec<AtomicBool> = (0..workers).map(|_| AtomicBool::new(false)).collect();
    for _ in 0..20 {
        if placed.iter().all(|p| p.load(Ordering::Relaxed)) {
            break;
        }
        run(&|ctx| tree(ctx, 5, &placed, &cpus));
    }
}

fn placed(rt: Runtime) -> Runtime {
    place_workers(rt.workers(), |f| rt.run(|ctx| f(ctx)));
    rt
}

fn placed_cilk(rt: CilkRuntime) -> CilkRuntime {
    place_workers(rt.workers(), |f| rt.run(|ctx| f(ctx)));
    rt
}

fn set_up(def: &WorkloadDef, tally: &mut Tally) -> Setup {
    let start = Instant::now();
    let kernels: Vec<Kernel> = def
        .runs
        .iter()
        .map(|&name| Kernel {
            name,
            prepared: tpal_workloads::workload(name)
                .expect("registered workload")
                .prepare(scale_of(name)),
        })
        .collect();
    let prepare_ms = start.elapsed().as_secs_f64() * 1e3;
    let setup = Setup {
        kernels,
        rt1: runtime(1),
        rt2: runtime(2),
        prepare_ms,
    };
    let mut rec = Recorder::new(Instant::now(), false);
    for kernel in &setup.kernels {
        for exec in [
            Exec::Serial,
            Exec::Heartbeat(&setup.rt1),
            Exec::Heartbeat(&setup.rt2),
        ] {
            tally.op(run_cell(kernel, &exec, &mut rec).map(drop));
        }
    }
    setup
}

/// What every phase of a run shares: the seeded order, the yardstick,
/// the span log and the tally.
struct Session {
    rng: Rng,
    reference: Reference,
    rec: Recorder,
    tally: Tally,
}

impl Session {
    fn new(seed: u64, tally: Tally) -> Session {
        Session {
            rng: Rng::new(seed),
            reference: Reference::new(),
            rec: Recorder::new(Instant::now(), false),
            tally,
        }
    }
}

/// The samples of one (kernel, cell) pair, in seconds on the undisturbed
/// reference host.
#[derive(Default, Clone)]
struct Cell {
    seconds: Vec<f64>,
    /// The plain runs as the clock read them, unscaled.
    raw_s: Vec<f64>,
    /// With the benchmark's spans on (traced run only).
    spanned_s: Vec<f64>,
    stats: Vec<RtStats>,
}

impl Cell {
    fn mean(&self, f: fn(&RtStats) -> u64) -> f64 {
        ratio(
            self.stats.iter().map(f).sum::<u64>() as f64,
            self.stats.len() as f64,
        )
    }
}

/// Interleaved rounds until `length` has passed: every kernel through
/// every cell once per round, in seeded order. Returns
/// `samples[kernel][cell]` and the ops completed per second.
fn rounds(
    kernels: &[Kernel],
    cells: &[Exec<'_>],
    length: Duration,
    alternate_spans: bool,
    session: &mut Session,
) -> (Vec<Vec<Cell>>, f64) {
    let Session {
        rng,
        reference,
        rec,
        tally,
    } = session;
    let mut samples = vec![vec![Cell::default(); cells.len()]; kernels.len()];
    // (plain, spanned) as taken, per (kernel, cell).
    let mut taken = vec![vec![(Vec::new(), Vec::new()); cells.len()]; kernels.len()];
    let start = Instant::now();
    let mut whole_ops = Vec::new();
    let mut round = 0;
    while start.elapsed() < length {
        let mut order: Vec<(usize, usize)> = (0..kernels.len())
            .flat_map(|k| {
                let once = (0..cells.len()).map(move |c| (k, c));
                std::iter::repeat_n(once, reps_of(kernels[k].name)).flatten()
            })
            .collect();
        rng.shuffle(&mut order);
        let spans_on = alternate_spans && round % 2 == 1;
        rec.set_enabled(spans_on);
        for (k, c) in order {
            let (cell, whole) = reference.timed(|| run_cell(&kernels[k], &cells[c], rec));
            whole_ops.push(whole);
            match cell {
                Ok((seconds, stats)) => {
                    let seconds = reference.sample(seconds);
                    if spans_on {
                        taken[k][c].1.push(seconds);
                    } else {
                        taken[k][c].0.push(seconds);
                    }
                    samples[k][c].stats.push(stats);
                    tally.op(Ok(()));
                }
                Err(e) => tally.op(Err(e)),
            }
        }
        round += 1;
    }
    rec.set_enabled(false);
    for (cells, taken) in samples.iter_mut().zip(&taken) {
        for (cell, (plain, spanned)) in cells.iter_mut().zip(taken) {
            cell.seconds = values(plain);
            cell.raw_s = raw(plain);
            cell.spanned_s = values(spanned);
        }
    }
    (samples, rate(&whole_ops))
}

/// One kernel's median(cell `over`) / median(cell `under`); 0 if either
/// has no sample.
fn cell_ratio(cells: &[Cell], over: usize, under: usize) -> f64 {
    if cells[over].seconds.is_empty() || cells[under].seconds.is_empty() {
        return 0.0;
    }
    ratio(median(&cells[over].seconds), median(&cells[under].seconds))
}

/// Geomean of [`cell_ratio`] over the kernels whose two variants do the
/// same work.
fn geomean_ratio(kernels: &[Kernel], samples: &[Vec<Cell>], over: usize, under: usize) -> f64 {
    let each: Vec<f64> = kernels
        .iter()
        .zip(samples)
        .filter(|(kernel, _)| same_work(kernel.name))
        .map(|(_, cells)| cell_ratio(cells, over, under))
        .filter(|r| *r > 0.0)
        .collect();
    geomean(&each)
}

/// Geomean over kernels of the median of `pick`'s samples at 2 workers,
/// in microseconds, and how many samples that is.
fn hb2_p50_us(samples: &[Vec<Cell>], pick: fn(&Cell) -> &Vec<f64>) -> Summary {
    let each: Vec<&Vec<f64>> = samples
        .iter()
        .map(|cells| pick(&cells[HB2]))
        .filter(|s| !s.is_empty())
        .collect();
    Summary {
        n: each.iter().map(|s| s.len()).sum(),
        ..Summary::exact(geomean(&each.iter().map(|s| median(s)).collect::<Vec<_>>()) * 1e6)
    }
}

/// What the yardstick did to the run: the end-to-end median op time
/// from the clock's own readings.
fn raw_metric(samples: &[Vec<Cell>], m: &mut Metrics) {
    m.insert(
        "bench.op_p50_raw_us".into(),
        hb2_p50_us(samples, |c| &c.raw_s),
    );
}

const SERIAL: usize = 0;
const HB1: usize = 1;
const HB2: usize = 2;

/// The untraced run: the end-to-end metrics.
pub fn run(def: &WorkloadDef, seed: u64, budget: &Budget) -> Outcome {
    let mut tally = Tally::default();
    let (setup, setup_s) = timed_setups(budget, || set_up(def, &mut tally));
    let cells = [
        Exec::Serial,
        Exec::Heartbeat(&setup.rt1),
        Exec::Heartbeat(&setup.rt2),
    ];
    let mut session = Session::new(seed, tally);
    let (samples, ops_per_s) = rounds(
        &setup.kernels,
        &cells,
        budget.share(1.0),
        false,
        &mut session,
    );
    let Session {
        reference, tally, ..
    } = session;

    let mut m = Metrics::new();
    m.insert("setup_s".into(), setup_s);
    m.insert("op_p50_us".into(), hb2_p50_us(&samples, |c| &c.seconds));
    raw_metric(&samples, &mut m);
    m.insert("ops_per_s".into(), Summary::exact(ops_per_s));
    reference.report(&mut m);
    m.insert(
        "overhead_ratio".into(),
        Summary::exact(geomean_ratio(&setup.kernels, &samples, HB1, SERIAL)),
    );
    m.insert("peak_rss_mb".into(), Summary::exact(peak_rss_mb()));
    // Shown beside the end-to-end figures in the human-readable report.
    m.insert(
        "rt.promotions_per_op".into(),
        Summary::exact(ratio(
            samples
                .iter()
                .map(|c| c[HB1].mean(|s| s.promotions))
                .sum::<f64>(),
            samples.len() as f64,
        )),
    );
    Outcome { tally, metrics: m }
}

/// Mean nanoseconds of `f` over `reps` calls made on a worker of `rt`.
fn on_worker_ns(rt: &Runtime, reps: u32, f: impl Fn(&WorkerCtx<'_>) + Send + Sync) -> f64 {
    rt.run(|ctx| {
        let start = Instant::now();
        for _ in 0..reps {
            f(ctx);
        }
        start.elapsed().as_secs_f64() * 1e9 / f64::from(reps)
    })
}

/// Single-thread, uncontended costs of the primitives under the
/// runtime: one mechanism per number.
fn primitive_probes(reps: u32, m: &mut Metrics) {
    use std::hint::black_box;
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_owned(), Summary::exact(v));
    };
    // No beats, so the latent fork is never promoted.
    let quiet = Runtime::new(
        RtConfig::default()
            .workers(1)
            .source(HeartbeatSource::Disabled),
    );
    put(
        "rt.join2_ns",
        on_worker_ns(&quiet, reps, |ctx| {
            black_box(ctx.join2(|_| black_box(1u64), |_| black_box(2u64)));
        }),
    );
    put(
        "rt.spawn2_ns",
        on_worker_ns(&quiet, reps, |ctx| {
            black_box(ctx.spawn2(|_| black_box(1u64), |_| black_box(2u64)));
        }),
    );
    drop(quiet);

    let dispatches = (reps / 50).max(10);
    let pool = runtime(2);
    let start = Instant::now();
    for i in 0..dispatches {
        black_box(pool.run(move |_| i));
    }
    put(
        "rt.run_dispatch_us",
        start.elapsed().as_secs_f64() * 1e6 / f64::from(dispatches),
    );
    drop(pool);
    let start = Instant::now();
    for _ in 0..5 {
        drop(runtime(2));
    }
    put("rt.new_ms", start.elapsed().as_secs_f64() * 1e3 / 5.0);

    let (worker, stealer) = deque::<u64>();
    let start = Instant::now();
    for i in 0..reps {
        worker.push(u64::from(i));
        black_box(worker.pop());
    }
    put(
        "deque.chase_lev.push_pop_ns",
        start.elapsed().as_secs_f64() * 1e9 / f64::from(reps),
    );
    let start = Instant::now();
    for i in 0..reps {
        worker.push(u64::from(i));
        black_box(stealer.steal().success());
    }
    put(
        "deque.chase_lev.steal_ns",
        start.elapsed().as_secs_f64() * 1e9 / f64::from(reps),
    );
    let injector = Injector::<u64>::new();
    let start = Instant::now();
    for i in 0..reps {
        injector.push(u64::from(i));
        black_box(injector.pop());
    }
    put(
        "deque.injector.push_pop_ns",
        start.elapsed().as_secs_f64() * 1e9 / f64::from(reps),
    );
}

/// The traced run: the per-layer metrics.
pub fn run_traced(def: &WorkloadDef, seed: u64, budget: &Budget) -> (Outcome, Vec<Recorder>) {
    let mut tally = Tally::default();
    let Setup {
        kernels,
        rt1,
        rt2,
        prepare_ms,
    } = set_up(def, &mut tally);
    let mut session = Session::new(seed, tally);
    let mut m = Metrics::new();
    let put = |m: &mut Metrics, name: String, v: f64| {
        m.insert(name, Summary::exact(v));
    };

    // The end-to-end protocol, spans alternating on and off by round.
    let cells = [Exec::Serial, Exec::Heartbeat(&rt1), Exec::Heartbeat(&rt2)];
    let (main, _) = rounds(&kernels, &cells, budget.share(0.35), true, &mut session);
    let spans = Attribution::of(&[&session.rec]);
    m.insert("bench.op_p50_us".into(), hb2_p50_us(&main, |c| &c.seconds));
    raw_metric(&main, &mut m);
    put(&mut m, "bench.spans".into(), spans.spans as f64);
    put(
        &mut m,
        "bench.unattributed_ratio".into(),
        spans.unattributed_ratio(),
    );
    let span_cost: Vec<f64> = main
        .iter()
        .flatten()
        .filter(|c| !c.seconds.is_empty() && !c.spanned_s.is_empty())
        .map(|c| ratio(median(&c.spanned_s), median(&c.seconds)))
        .collect();
    put(
        &mut m,
        "bench.trace_overhead_ratio".into(),
        geomean(&span_cost),
    );
    put(
        &mut m,
        "rt.hb1_over_serial".into(),
        geomean_ratio(&kernels, &main, HB1, SERIAL),
    );
    put(
        &mut m,
        "rt.speedup_w2".into(),
        geomean_ratio(&kernels, &main, SERIAL, HB2),
    );
    let serial_ms: Vec<f64> = main
        .iter()
        .filter(|c| !c[SERIAL].seconds.is_empty())
        .map(|c| median(&c[SERIAL].seconds) * 1e3)
        .collect();
    put(&mut m, "rt.serial_ms".into(), geomean(&serial_ms));
    for (kernel, cells) in kernels.iter().zip(&main) {
        put(
            &mut m,
            format!("rt.{}.hb1_over_serial", kernel.name),
            cell_ratio(cells, HB1, SERIAL),
        );
        put(
            &mut m,
            format!("rt.{}.speedup_w2", kernel.name),
            cell_ratio(cells, SERIAL, HB2),
        );
        put(
            &mut m,
            format!("rt.{}.promotions_per_op", kernel.name),
            cells[HB1].mean(|s| s.promotions),
        );
    }
    let n = kernels.len() as f64;
    let per_op = |cell: usize, f: fn(&RtStats) -> u64| -> f64 {
        main.iter().map(|c| c[cell].mean(f)).sum::<f64>() / n
    };
    put(
        &mut m,
        "rt.promotions_per_op".into(),
        per_op(HB1, |s| s.promotions),
    );
    put(
        &mut m,
        "rt.tasks_created_per_op".into(),
        per_op(HB1, |s| s.tasks_created),
    );
    put(
        &mut m,
        "rt.heartbeats_delivered_per_op".into(),
        per_op(HB1, |s| s.heartbeats_delivered),
    );
    put(
        &mut m,
        "rt.heartbeats_serviced_per_op".into(),
        per_op(HB1, |s| s.heartbeats_serviced),
    );
    put(&mut m, "rt.steals_per_op".into(), per_op(HB2, |s| s.steals));
    let delivered = per_op(HB2, |s| s.heartbeats_delivered);
    let serviced = per_op(HB2, |s| s.heartbeats_serviced);
    put(
        &mut m,
        "sched.rt.serviced_over_delivered".into(),
        ratio(serviced, delivered),
    );
    put(
        &mut m,
        "sched.rt.promotions_per_serviced".into(),
        ratio(per_op(HB2, |s| s.promotions), serviced),
    );
    // Beats a 2-worker run of this length is due: run time x 2 / heartbeat.
    let due: f64 = main
        .iter()
        .filter(|c| !c[HB2].seconds.is_empty())
        .map(|c| median(&c[HB2].seconds) * 2.0 / (HEARTBEAT_US as f64 * 1e-6))
        .sum::<f64>()
        / n;
    put(
        &mut m,
        "sched.rt.achieved_beat_rate".into(),
        ratio(delivered, due),
    );
    drop(rt2);

    // The ladder at 1 worker, with no 2-worker pool alive beside it.
    let code_only = Runtime::new(
        RtConfig::default()
            .workers(1)
            .source(HeartbeatSource::Disabled),
    );
    let interrupts_only = Runtime::new(RtConfig::default().workers(1).suppress_promotions(true));
    let ladder = [
        Exec::Serial,
        Exec::Heartbeat(&code_only),
        Exec::Heartbeat(&interrupts_only),
        Exec::Heartbeat(&rt1),
    ];
    let (rungs, _) = rounds(&kernels, &ladder, budget.share(0.3), false, &mut session);
    put(
        &mut m,
        "rt.hb_code_over_serial".into(),
        geomean_ratio(&kernels, &rungs, 1, 0),
    );
    put(
        &mut m,
        "rt.interrupts_only_over_serial".into(),
        geomean_ratio(&kernels, &rungs, 2, 0),
    );
    let (mut promote_s, mut promotions) = (0.0, 0.0);
    for (kernel, cells) in kernels.iter().zip(&rungs) {
        if same_work(kernel.name) && !cells[3].seconds.is_empty() && !cells[2].seconds.is_empty() {
            promote_s += median(&cells[3].seconds) - median(&cells[2].seconds);
            promotions += cells[3].mean(|s| s.promotions);
        }
    }
    put(
        &mut m,
        "rt.promote_cost_ns".into(),
        ratio(promote_s * 1e9, promotions),
    );
    drop((code_only, interrupts_only, rt1));

    if timer_signal_supported() {
        let signalled = Runtime::new(
            RtConfig::default()
                .workers(1)
                .source(HeartbeatSource::TimerSignal),
        );
        let cells = [Exec::Serial, Exec::Heartbeat(&signalled)];
        let (s, _) = rounds(&kernels, &cells, budget.share(0.1), false, &mut session);
        put(
            &mut m,
            "rt.timer_signal.hb1_over_serial".into(),
            geomean_ratio(&kernels, &s, 1, 0),
        );
    }

    // The paper's comparator, beside the heartbeat figures.
    let (cilk1, cilk2) = (CilkRuntime::new(1), placed_cilk(CilkRuntime::new(2)));
    let cells = [Exec::Serial, Exec::Cilk(&cilk1), Exec::Cilk(&cilk2)];
    let (c, _) = rounds(&kernels, &cells, budget.share(0.15), false, &mut session);
    put(
        &mut m,
        "cilk.t1_over_serial".into(),
        geomean_ratio(&kernels, &c, 1, 0),
    );
    put(
        &mut m,
        "cilk.speedup_w2".into(),
        geomean_ratio(&kernels, &c, 0, 2),
    );
    put(
        &mut m,
        "cilk.tasks_created_per_op".into(),
        c.iter()
            .map(|cells| cells[1].mean(|s| s.tasks_created))
            .sum::<f64>()
            / n,
    );
    drop((cilk1, cilk2));

    let Session {
        reference,
        rec,
        tally,
        ..
    } = session;
    reference.report(&mut m);
    primitive_probes(if budget.seconds < 1.0 { 2_000 } else { 200_000 }, &mut m);
    put(&mut m, "workloads.prepare_ms".into(), prepare_ms);
    put(
        &mut m,
        "bench.fail_ratio".into(),
        ratio(tally.failed as f64, tally.attempted as f64),
    );
    (Outcome { tally, metrics: m }, vec![rec])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_checks_every_kernel_and_fills_the_ladder() {
        let def = *crate::registry::workload("rt_forkjoin").unwrap();
        let out = run(&def, 5, &Budget::smoke());
        assert_eq!(out.tally.failed, 0, "{:?}", out.tally.notes);
        for metric in &crate::registry::END_TO_END {
            assert!(out.metrics[metric.name].median > 0.0, "{}", metric.name);
        }
        let (traced, _) = run_traced(&def, 5, &Budget::smoke());
        assert_eq!(traced.tally.failed, 0, "{:?}", traced.tally.notes);
        for name in [
            "rt.hb_code_over_serial",
            "rt.join2_ns",
            "cilk.t1_over_serial",
        ] {
            assert!(traced.metrics[name].median > 0.0, "{name}");
        }
    }
}
