//! The simulated half of the evaluation as one table.
//!
//! A figure is rows × columns: a row names the serial run its speed-ups
//! divide and one simulated run per column, and a column shows the
//! quantity the last word of its header names. [`Table::simulate`] runs
//! every distinct (workload, lowering, `SimConfig`) of every figure once
//! — Figures 7, 11, 14 and 15 share their Cilk and TPAL/Linux runs at 15
//! cores — and [`Table::figures`] renders every figure from the cells.
//! Runs are seeded, so the table is exact: `tests/figures.rs` pins it
//! with a golden file and checks the paper's shape claims over it.

use std::sync::OnceLock;

use tpal_core::machine::PromotionOrder;
use tpal_ir::{lower, parse_ir, Mode};
use tpal_sim::{InterruptModel, Sim, SimConfig, SimOutcome};
use tpal_workloads::{all_workloads, workload, Scale, SimInput, SimSpec};

use crate::geomean;

/// The paper's 15 cores and its ♥ = 100 µs and 20 µs, in cycles.
const CORES: usize = 15;
const HB: u64 = 3_000;
const HB_FAST: u64 = 600;

/// The block-style ablation's microbenchmark: 2000 calls of an
/// 8-iteration parallel loop, where loop-instance entry and exit costs
/// dominate.
const SMALL_LOOPS: &str = "\
    fn main(m, n) { t = 0; for r in 0..m { x = leaf(n, r); t = t + x; } return t; }
    fn leaf(n, b) { s = 0; parfor k in 0..n reduce(s: +, 0) { s = s + k + b; } return s; }";

fn small_loops() -> SimSpec {
    let input = SimInput::default().int("m", 2_000).int("n", 8);
    let expected = (0..2_000).map(|r| 8 * r + 28).sum();
    let ir = parse_ir(SMALL_LOOPS).expect("small loops parse");
    SimSpec {
        ir,
        input,
        expected,
    }
}

/// Runs a simulator spec lowered in `mode` on `config`, asserting the
/// checksum.
pub(crate) fn run_sim(spec: &SimSpec, mode: Mode, config: SimConfig) -> SimOutcome {
    let lowered = lower(&spec.ir, mode).expect("lowering");
    let mut sim = Sim::new(&lowered.program, config);
    for (name, data) in &spec.input.arrays {
        let (reg, base) = (lowered.param_reg(name), sim.alloc_array(data));
        sim.set_reg(&reg, base).expect("array param");
    }
    for (name, v) in &spec.input.ints {
        sim.set_reg(&lowered.param_reg(name), *v)
            .expect("int param");
    }
    let out = sim.run().expect("simulation");
    let result = out.read_reg(&lowered.result_reg);
    assert_eq!(result, Some(spec.expected), "simulated checksum mismatch");
    out
}

/// One simulated run: a workload (or "small-loops"), its lowering and
/// the simulated machine.
#[derive(Clone, Copy, PartialEq)]
struct Run(&'static str, Mode, SimConfig);

/// What a run measured: makespan, tasks created, work cycles (= the
/// instructions executed, one cycle each) and heartbeats delivered.
#[derive(Clone, Copy, Debug)]
struct Cell([u64; 4]);

impl Run {
    fn key(&self) -> String {
        let Run(w, mode, c) = self;
        let (cores, hb, order) = (c.cores, c.heartbeat, c.promotion_order);
        format!("{w} {mode:?} {cores}c ♥{hb} {:?} {order:?}", c.interrupt)
    }

    /// The column `col` of this run's cell: its value and its text.
    fn show(&self, col: &str, Cell(c): Cell, Cell(serial): Cell) -> (f64, String) {
        let [t, forks, work, beats] = c.map(|x| x as f64);
        let (cores, hb) = (self.2.cores as f64, self.2.heartbeat as f64);
        let count = |v: f64| (v, format!("{v:.0}"));
        let ratio = |v: f64| (v, format!("{v:.2}x"));
        let percent = |v: f64| (100.0 * v, format!("{:.0}%", 100.0 * v));
        match col.rsplit(' ').next() {
            Some("cycles") => count(t),
            Some("instrs") => count(work),
            Some("tasks") => count(forks),
            Some("x") => ratio(serial[0] as f64 / t),
            Some("ovh") => ratio(t / serial[0] as f64),
            Some("util") => percent(work / (t * cores)),
            Some("rate") => percent(beats / (t / hb * cores)),
            _ => panic!("column {col:?} names no quantity"),
        }
    }
}

fn serial(w: &'static str) -> Run {
    Run(w, Mode::Serial, SimConfig::serial())
}

/// Cilk: eager `8P` decomposition for `p` workers, no interrupts.
fn cilk(w: &'static str, cores: usize, p: u32) -> Run {
    let mut config = SimConfig::nautilus(cores, HB);
    config.interrupt = InterruptModel::Disabled;
    Run(w, Mode::Eager { workers: p }, config)
}

/// TPAL with Linux's ping-thread delivery.
fn linux(w: &'static str, cores: usize, hb: u64) -> Run {
    Run(w, Mode::Heartbeat, SimConfig::linux(cores, hb))
}

/// TPAL with Nautilus's per-core timers.
fn naut(w: &'static str, cores: usize, hb: u64) -> Run {
    Run(w, Mode::Heartbeat, SimConfig::nautilus(cores, hb))
}

/// A row: its label, the workload whose serial run it divides, its runs.
type Row = (String, &'static str, Vec<Run>);

struct Spec {
    title: &'static str,
    /// The column headers, `|`-separated.
    cols: &'static str,
    rows: Vec<Row>,
    notes: fn(&Figure) -> Vec<String>,
}

/// One row per registry workload, in figure order.
fn each(runs: impl Fn(&'static str) -> Vec<Run>) -> Vec<Row> {
    let row = |w: &'static str| (w.to_owned(), w, runs(w));
    all_workloads().iter().map(|w| row(w.name())).collect()
}

fn specs() -> Vec<Spec> {
    let block = |label: &str, mode, config| {
        let small = Run("small-loops", mode, SimConfig::serial());
        let pl = Run("spmv-powerlaw", mode, config);
        (label.to_owned(), "spmv-powerlaw", vec![small, pl, pl])
    };
    let timer = SimConfig::nautilus(CORES, HB);
    let mut grain = Vec::new();
    for w in ["floyd-warshall-small", "floyd-warshall-large"] {
        for p in [1, 4, 15, 60, 240] {
            grain.push((format!("{w} P={p}"), w, vec![cilk(w, CORES, p); 2]));
        }
        grain.push((format!("{w} heartbeat"), w, vec![naut(w, CORES, HB); 2]));
    }
    let mut orders = each(|w| {
        let (old, mut new) = (naut(w, CORES, HB), naut(w, CORES, HB));
        new.2.promotion_order = PromotionOrder::NewestFirst;
        vec![old, old, old, new, new, new]
    });
    let probed = "plus-reduce-array spmv-powerlaw mandelbrot mergesort-uniform knapsack";
    orders.retain(|r| probed.split(' ').any(|w| w == r.1));
    vec![
        Spec {
            title: "Figure 7: 15-core speed-up over serial, Cilk vs TPAL/Linux (♥ = 3000)",
            cols: "serial cycles|cilk x|tpal x",
            rows: each(|w| vec![serial(w), cilk(w, CORES, 15), linux(w, CORES, HB)]),
            notes: |f| group_geomeans(f, &["cilk x", "tpal x"]),
        },
        Spec {
            title: "Figure 10 (simulated, 15 cores): heartbeat rate achieved, % of target",
            cols: "linux 3000 rate|naut 3000 rate|linux 600 rate|naut 600 rate",
            rows: each(|w| {
                let both = |hb| [linux(w, CORES, hb), naut(w, CORES, hb)];
                [both(HB), both(HB_FAST)].concat()
            }),
            notes: |_| vec![],
        },
        Spec {
            title: "Figure 11: speed-up over serial by cores, Cilk vs TPAL/Linux (♥ = 3000)",
            cols: "cilk 1 x|cilk 2 x|cilk 4 x|cilk 8 x|cilk 15 x|\
                   tpal 1 x|tpal 2 x|tpal 4 x|tpal 8 x|tpal 15 x",
            rows: each(|w| {
                let cores = [1, 2, 4, 8, CORES];
                let eager = cores.map(|p| cilk(w, p, p as u32));
                [eager, cores.map(|p| linux(w, p, HB))].concat()
            }),
            notes: |_| vec![],
        },
        Spec {
            title: "Figure 14: 15-core speed-up, Cilk vs TPAL/Linux vs TPAL/Nautilus (♥ = 3000)",
            cols: "cilk x|linux x|naut x",
            rows: each(|w| vec![cilk(w, CORES, 15), linux(w, CORES, HB), naut(w, CORES, HB)]),
            notes: |f| group_geomeans(f, &["cilk x", "linux x", "naut x"]),
        },
        Spec {
            title: "Figure 15: tasks created and utilisation, Cilk vs TPAL/Linux, 15 cores",
            cols: "cilk tasks|tpal tasks|cilk util|tpal util|cilk x|tpal x",
            rows: each(|w| {
                let (c, t) = (cilk(w, CORES, 15), linux(w, CORES, HB));
                vec![c, t, c, t, c, t]
            }),
            notes: |f| {
                let tasks = |c| f.get("floyd-warshall-small", c);
                let ratio = tasks("cilk tasks") / tasks("tpal tasks");
                vec![format!("floyd-warshall-small cilk/tpal tasks: {ratio:.1}x")]
            },
        },
        Spec {
            title: "Heartbeat tuner (§2.2): plus-reduce-array on Nautilus, ♥ swept",
            cols: "1-core ovh|15-core x|15-core tasks",
            rows: [300, 600, 1_200, 3_000, 6_000, 12_000, 30_000, 100_000]
                .map(|hb| {
                    let (w, many) = ("plus-reduce-array", naut("plus-reduce-array", CORES, hb));
                    (format!("♥ = {hb}"), w, vec![naut(w, 1, hb), many, many])
                })
                .into(),
            notes: |f| vec![format!("tuned: {} at <= 1.05x 1-core ovh", tuned(f))],
        },
        Spec {
            title: "Ablation (§D.5): block styles; 2000 small loops on 1 core, powerlaw on 15",
            cols: "instrs|powerlaw x|tasks",
            rows: vec![
                block("serial", Mode::Serial, SimConfig::serial()),
                block("reduced", Mode::Heartbeat, timer),
                block("expanded", Mode::HeartbeatExpanded, timer),
            ],
            notes: |f| {
                let extra = (f.get("reduced", "instrs") - f.get("expanded", "instrs")) / 2_000.0;
                vec![format!("reduced - expanded: {extra:.2} instrs per loop")]
            },
        },
        Spec {
            title: "Ablation (§2.3): outermost-first (old) vs innermost-first (new), 15 cores",
            cols: "old x|old tasks|old util|new x|new tasks|new util",
            rows: orders,
            notes: |f| {
                let gain = |(r, _): &(String, _)| f.get(r, "old x") / f.get(r, "new x");
                let gain = geomean(&f.rows.iter().map(gain).collect::<Vec<_>>());
                vec![format!("geomean advantage of outermost-first: {gain:.2}x")]
            },
        },
        Spec {
            title: "Ablation (§4.3): Cilk's 8P grain for P workers vs heartbeat, 15 cores",
            cols: "tasks|speed-up x",
            rows: grain,
            notes: |_| vec![],
        },
        Spec {
            title: "Ablation (§5): ping-thread latency, mandelbrot, ♥ = 600, 15 cores",
            cols: "rate|tasks|speed-up x",
            rows: [5, 20, 60, 110, 200, 400]
                .map(|latency| {
                    let mut run = linux("mandelbrot", CORES, HB_FAST);
                    let (jitter, service_cost) = (latency / 2, 60);
                    run.2.interrupt = InterruptModel::PingThread {
                        latency,
                        jitter,
                        service_cost,
                    };
                    (format!("latency {latency}"), "mandelbrot", vec![run; 3])
                })
                .into(),
            notes: |_| vec![],
        },
    ]
}

fn group_geomeans(f: &Figure, cols: &[&'static str]) -> Vec<String> {
    let line = |(group, recursive): (&str, bool)| {
        let n = f.group(recursive).count();
        let mean = |c: &&'static str| (c.trim_end_matches(" x"), f.group_geomean(c, recursive));
        let means = cols.iter().map(mean).map(|(c, g)| format!("{c} {g:.2}x"));
        let means = means.collect::<Vec<_>>().join("  ");
        format!("geomean, paper's {n} {group} (no streaming row): {means}")
    };
    [("iterative", false), ("recursive", true)].map(line).into()
}

/// The tuner's pick: the row with the best 15-core speed-up among those
/// whose 1-core overhead is at most 1.05×.
pub fn tuned(f: &Figure) -> &str {
    let ok = f.rows.iter().filter(|(_, v)| v[0] <= 1.05);
    let best = ok.reduce(|best, r| if r.1[1] > best.1[1] { r } else { best });
    best.map_or("none", |r| &r.0)
}

/// One rendered figure: its numbers and the text the `figures` bench
/// prints.
pub struct Figure {
    /// The first line of the block: `Figure 7: …`, `Ablation (§5): …`.
    pub title: &'static str,
    /// Column headers.
    pub cols: Vec<&'static str>,
    /// Row labels, each with one value per column.
    pub rows: Vec<(String, Vec<f64>)>,
    /// The rendered block.
    pub text: String,
}

impl Figure {
    /// The value at (`row`, `col`); panics if either is missing.
    pub fn get(&self, row: &str, col: &str) -> f64 {
        let c = self.cols.iter().position(|h| *h == col);
        match (self.rows.iter().find(|(label, _)| label == row), c) {
            (Some((_, v)), Some(c)) => v[c],
            _ => panic!("{}: no cell ({row}, {col})", self.title),
        }
    }

    /// The rows of the paper's twelve workloads in one group (recursive
    /// or iterative); streaming rows belong to neither.
    pub fn group(&self, recursive: bool) -> impl Iterator<Item = &(String, Vec<f64>)> {
        self.rows.iter().filter(move |(label, _)| {
            workload(label).is_some_and(|w| !w.is_streaming() && w.is_recursive() == recursive)
        })
    }

    /// The geometric mean of column `col` over one group.
    pub fn group_geomean(&self, col: &str, recursive: bool) -> f64 {
        let xs = self.group(recursive).map(|(r, _)| self.get(r, col));
        geomean(&xs.collect::<Vec<_>>())
    }
}

/// Every distinct run of every figure, simulated once.
pub struct Table(Vec<(Run, Cell)>);

impl Table {
    /// Simulates every distinct run of every figure at `scale`, spread
    /// over the available CPUs.
    pub fn simulate(scale: Scale) -> Table {
        let mut runs: Vec<Run> = Vec::new();
        for (_, w, row) in specs().into_iter().flat_map(|s| s.rows) {
            for run in std::iter::once(serial(w)).chain(row) {
                if !runs.contains(&run) {
                    runs.push(run);
                }
            }
        }
        let specs = all_workloads().into_iter();
        let specs = specs.map(|w| (w.name(), w.sim_spec(scale)));
        let specs: Vec<_> = specs.chain([("small-loops", small_loops())]).collect();
        let cells: Vec<OnceLock<Cell>> = runs.iter().map(|_| OnceLock::new()).collect();
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::thread::scope(|s| {
            for k in 0..threads {
                let (runs, specs, cells) = (&runs, &specs, &cells);
                s.spawn(move || {
                    for i in (k..runs.len()).step_by(threads) {
                        let Run(w, mode, config) = runs[i];
                        let (_, spec) = specs.iter().find(|(n, _)| *n == w).expect("spec");
                        let out = run_sim(spec, mode, config);
                        let s = out.stats;
                        let cell = [out.time, s.forks, s.work_cycles, s.heartbeats_delivered];
                        cells[i].set(Cell(cell)).expect("each run once");
                    }
                });
            }
        });
        let cells = cells
            .into_iter()
            .map(|c| c.into_inner().expect("simulated"));
        Table(runs.into_iter().zip(cells).collect())
    }

    fn cell(&self, run: &Run) -> Cell {
        let (_, cell) = self.0.iter().find(|(r, _)| r == run).expect("simulated");
        *cell
    }

    /// The whole table, one line per cell, as the golden file holds it.
    pub fn golden(&self) -> String {
        let mut out = String::from("# run | makespan tasks work-cycles heartbeats\n");
        for (run, Cell(c)) in &self.0 {
            let c = c.map(|x| x.to_string()).join(" ");
            out += &format!("{} | {c}\n", run.key());
        }
        out
    }

    /// Every figure, rendered from the table.
    pub fn figures(&self) -> Vec<Figure> {
        specs().into_iter().map(|s| self.render(s)).collect()
    }

    fn render(&self, spec: Spec) -> Figure {
        let labels = spec.rows.iter().map(|r| r.0.chars().count());
        let width = labels.max().unwrap_or(0);
        let mut text = format!("{}\n{:width$}", spec.title, "");
        let cols: Vec<&str> = spec.cols.split('|').collect();
        let widths: Vec<usize> = cols.iter().map(|h| h.len().max(10)).collect();
        for (h, w) in cols.iter().zip(&widths) {
            text += &format!(" {h:>w$}");
        }
        let mut rows = Vec::new();
        for (label, w, runs) in spec.rows {
            text += &format!("\n{label:<width$}");
            let serial = self.cell(&serial(w));
            let mut values = Vec::new();
            for ((run, col), cw) in runs.iter().zip(&cols).zip(&widths) {
                let (value, shown) = run.show(col, self.cell(run), serial);
                text += &format!(" {shown:>cw$}");
                values.push(value);
            }
            rows.push((label, values));
        }
        let mut fig = Figure {
            title: spec.title,
            cols,
            rows,
            text,
        };
        for note in (spec.notes)(&fig) {
            fig.text += &format!("\n{note}");
        }
        fig.text.push('\n');
        fig
    }
}
