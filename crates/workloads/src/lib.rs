//! The TPAL benchmark suite (§4.1 of the paper).
//!
//! Twelve workloads, exactly the paper's:
//!
//! *Iterative*: `plus-reduce-array`, `spmv` (random / powerlaw /
//! arrowhead matrices), `mandelbrot`, `kmeans`, `srad`,
//! `floyd-warshall` (two sizes). *Recursive*: `knapsack`, `mergesort`
//! (uniform / exponential inputs).
//!
//! Plus three *streaming* workloads exercising the channel/detach
//! extension (bounded-FIFO pipeline parallelism): `pipeline-tokens`,
//! `spmv-stream`, and `mandelbrot-tiles` — see [`streaming`].
//!
//! Every workload exists in four builds from one specification:
//!
//! * **serial** — plain Rust, the `Serial/Linux` baseline;
//! * **heartbeat** — against the native `tpal-rt` runtime (latent
//!   parallelism, promoted on heartbeats);
//! * **cilk** — against the eager `tpal-cilk` baseline (`8P` loop
//!   grains, spawn-per-fork);
//! * **sim** — a `.tpl` program ([`tpal_ir`]'s source language), shipped
//!   as `crates/workloads/programs/<name>.tpl` and compiled into the
//!   crate, lowered serial / heartbeat / eager and executed on the
//!   `tpal-sim` multicore simulator (arithmetic in exact integers / fixed
//!   point so results are schedule-independent). The spmv matrices, the
//!   floyd-warshall sizes and the mergesort inputs each share one file;
//!   `tpal-run FILE --ir` and `tpal-serve` run the same text.
//!
//! All four compute the same integer checksum, which the test-suite and
//! the benchmark harness verify on every run.

#![warn(missing_docs)]

/// Parses the shipped program `crates/workloads/programs/$file`,
/// compiled into the crate with `include_str!`. Every `sim_spec` parses
/// its file, so an error is a defect in the shipped text: it panics
/// naming the file.
macro_rules! shipped {
    ($file:literal) => {
        tpal_ir::parse_ir(include_str!(concat!("../programs/", $file)))
            .unwrap_or_else(|e| panic!("crates/workloads/programs/{}: {e}", $file))
    };
}

pub mod floyd_warshall;
pub mod inputs;
pub mod kmeans;
pub mod knapsack;
pub mod mandelbrot;
pub mod mergesort;
pub mod plus_reduce;
pub mod spmv;
pub mod srad;
pub mod streaming;

use tpal_cilk::CilkRuntime;
use tpal_ir::IrProgram;
use tpal_rt::{Runtime, WorkerCtx};

/// Input scale: `Quick` keeps native runs in milliseconds and simulated
/// runs in a few million instructions; `Full` is for unattended
/// benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small inputs (CI and `TPAL_BENCH_MODE=quick`).
    Quick,
    /// Large inputs (`TPAL_BENCH_MODE=full`).
    Full,
}

impl Scale {
    /// Reads the scale from `TPAL_BENCH_MODE` (`quick` unless `full`).
    pub fn from_env() -> Scale {
        match std::env::var("TPAL_BENCH_MODE").as_deref() {
            Ok("full") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    /// Selects between the two scales.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Inputs for a simulator run of a lowered IR program.
#[derive(Debug, Clone, Default)]
pub struct SimInput {
    /// Named input arrays (allocated on the machine heap; the entry
    /// parameter of the same name receives the base address).
    pub arrays: Vec<(String, Vec<i64>)>,
    /// Named integer parameters.
    pub ints: Vec<(String, i64)>,
}

impl SimInput {
    /// Adds an array parameter.
    pub fn array(mut self, name: &str, data: Vec<i64>) -> Self {
        self.arrays.push((name.to_owned(), data));
        self
    }

    /// Adds an integer parameter.
    pub fn int(mut self, name: &str, v: i64) -> Self {
        self.ints.push((name.to_owned(), v));
        self
    }
}

/// A workload's simulator specification: the IR program, its inputs, and
/// the expected checksum.
pub struct SimSpec {
    /// The IR program (lower it in any [`tpal_ir::Mode`]).
    pub ir: IrProgram,
    /// The inputs.
    pub input: SimInput,
    /// The expected result-register value.
    pub expected: i64,
}

/// A prepared (input-materialised) native workload instance.
pub trait Prepared: Send + Sync {
    /// The expected checksum.
    fn expected(&self) -> i64;
    /// Runs the plain serial kernel.
    fn run_serial(&self) -> i64;
    /// Runs the heartbeat kernel on a `tpal-rt` worker.
    fn run_heartbeat(&self, ctx: &WorkerCtx<'_>) -> i64;
    /// Runs the eager kernel on a `tpal-cilk` worker.
    fn run_cilk(&self, ctx: &WorkerCtx<'_>) -> i64;
}

/// A benchmark of the suite.
pub trait Workload: Send + Sync {
    /// The paper's benchmark name (e.g. `spmv-powerlaw`).
    fn name(&self) -> &'static str;
    /// Whether the paper groups it under "Recursive Benchmarks".
    fn is_recursive(&self) -> bool {
        false
    }
    /// Whether it is one of the streaming (channel/detach) workloads.
    fn is_streaming(&self) -> bool {
        false
    }
    /// Materialises native inputs.
    fn prepare(&self, scale: Scale) -> Box<dyn Prepared>;
    /// The simulator specification: the workload's shipped program
    /// (parsed) with its inputs and checksum at `scale`.
    fn sim_spec(&self, scale: Scale) -> SimSpec;
}

/// All workloads: the paper's twelve in figure order, then the three
/// streaming (channel/detach) workloads.
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(plus_reduce::PlusReduceArray),
        Box::new(spmv::Spmv::random()),
        Box::new(spmv::Spmv::powerlaw()),
        Box::new(spmv::Spmv::arrowhead()),
        Box::new(mandelbrot::Mandelbrot),
        Box::new(kmeans::Kmeans),
        Box::new(srad::Srad),
        Box::new(floyd_warshall::FloydWarshall::small()),
        Box::new(floyd_warshall::FloydWarshall::large()),
        Box::new(knapsack::Knapsack),
        Box::new(mergesort::Mergesort::uniform()),
        Box::new(mergesort::Mergesort::exponential()),
        Box::new(streaming::PipelineTokens),
        Box::new(streaming::SpmvStream),
        Box::new(streaming::MandelbrotTiles),
    ]
}

/// Convenience: looks a workload up by name.
pub fn workload(name: &str) -> Option<Box<dyn Workload>> {
    all_workloads().into_iter().find(|w| w.name() == name)
}

/// A shared mutable `i64` buffer written at provably disjoint indices
/// by parallel tasks (each workload documents its disjointness
/// argument at the use site).
pub(crate) struct SyncPtr(*mut i64);

unsafe impl Sync for SyncPtr {}
unsafe impl Send for SyncPtr {}

impl SyncPtr {
    pub(crate) fn new(p: *mut i64) -> SyncPtr {
        SyncPtr(p)
    }

    /// Writes `v` at index `i`.
    ///
    /// # Safety
    ///
    /// No other task may access index `i` concurrently.
    #[inline]
    pub(crate) unsafe fn write(&self, i: usize, v: i64) {
        unsafe { *self.0.add(i) = v }
    }

    /// Reads index `i`.
    ///
    /// # Safety
    ///
    /// No other task may write index `i` concurrently.
    #[inline]
    pub(crate) unsafe fn read(&self, i: usize) -> i64 {
        unsafe { *self.0.add(i) }
    }

    /// The raw pointer.
    pub(crate) fn as_ptr(&self) -> *mut i64 {
        self.0
    }
}

/// Runs a prepared workload's heartbeat kernel on a runtime.
pub fn run_heartbeat_on(rt: &Runtime, p: &dyn Prepared) -> i64 {
    rt.run(|ctx| p.run_heartbeat(ctx))
}

/// Runs a prepared workload's cilk kernel on a runtime.
pub fn run_cilk_on(rt: &CilkRuntime, p: &dyn Prepared) -> i64 {
    rt.run(|ctx| p.run_cilk(ctx))
}
