//! What the three workload families share: the time budget of a run,
//! the pass/fail tally of its ops, repeated set-up timing, and the
//! host facts a result is recorded with.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::stats::Summary;

/// Metric name to value; `main` checks the names against the registry.
pub type Metrics = BTreeMap<String, Summary>;

/// How long a run may measure and how often it sets up.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Length of the timed phases together.
    pub seconds: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
}

impl Budget {
    pub fn new(seconds: f64) -> Budget {
        Budget { seconds, setups: 3 }
    }

    /// The unit tests' size: every code path, a fraction of a second.
    #[cfg(test)]
    pub fn smoke() -> Budget {
        Budget {
            seconds: 0.3,
            setups: 1,
        }
    }

    /// A share of the timed budget.
    pub fn share(&self, fraction: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * fraction)
    }
}

/// Iterations of the reference kernel's eight-instruction loop.
const REFERENCE_ITERS: u64 = 8_000;
/// What the reference kernel takes on the reference host (a 2.1 GHz
/// Xeon VM) when nothing disturbs it.
pub const REFERENCE_NOMINAL_S: f64 = 100e-6;

/// The reference kernel: a tiny register-machine interpreter — branchy,
/// high-IPC, resident in the first-level cache, like the code under
/// test. It belongs to the benchmark, so no change to the repository
/// moves it.
#[inline(never)]
fn reference_kernel(iters: u64) -> u64 {
    // (op, a, b): 0 add, 1 mul, 2 xor-shift, 3 load, 4 store, 5 loop.
    const CODE: [(u8, u8, u8); 8] = [
        (0, 1, 2),
        (2, 3, 1),
        (3, 4, 3),
        (1, 2, 4),
        (0, 5, 1),
        (4, 2, 5),
        (2, 1, 5),
        (5, 0, 0),
    ];
    let code = std::hint::black_box(CODE);
    let mut r = [iters, 2, 3, 4, 5, 6, 7, 8];
    let mut table = [0u64; 256];
    let mut pc = 0;
    loop {
        let (op, a, b) = code[pc];
        let (a, b) = (usize::from(a), usize::from(b));
        match op {
            0 => r[a] = r[a].wrapping_add(r[b]),
            1 => r[a] = r[a].wrapping_mul(r[b] | 1),
            2 => r[a] ^= (r[b] << 13) ^ (r[b] >> 7),
            3 => r[a] = table[(r[b] & 255) as usize].wrapping_add(r[a]),
            4 => table[(r[a] & 255) as usize] = r[b],
            _ => {
                r[0] -= 1;
                if r[0] == 0 {
                    return r[1] ^ r[2] ^ r[3] ^ r[4] ^ r[5];
                }
                pc = 0;
                continue;
            }
        }
        pc += 1;
    }
}

/// One timed run of the reference kernel, in seconds.
pub fn reference_kernel_seconds() -> f64 {
    let start = Instant::now();
    std::hint::black_box(reference_kernel(std::hint::black_box(REFERENCE_ITERS)));
    start.elapsed().as_secs_f64()
}

/// A timing as the clock gave it (`raw`) and on the undisturbed
/// reference host (`value`).
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub raw: f64,
    pub value: f64,
}

/// The timings of `samples` on the undisturbed reference host.
pub fn values(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.value).collect()
}

/// The clock's own readings of `samples`: what `bench.op_p50_raw_us` is
/// taken from, so that a results file shows what the yardstick did.
pub fn raw(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.raw).collect()
}

/// The yardstick every timed sample is held against.
///
/// On a shared host, a neighbour on the same physical core slows
/// interpreter-like code by a fifth to a half for seconds or minutes at
/// a time, so that a whole run sits in one state and the next run in
/// another. So the benchmark times a fixed kernel of its own just
/// before each op and reports the op as `op time / kernel time x the
/// kernel's undisturbed time`: what the op would have taken on the
/// undisturbed reference host. Every sample counts; none is dropped.
/// The kernel's median (`bench.reference_us`) and the unscaled median op
/// time (`bench.op_p50_raw_us`) are reported beside the results, so a
/// disturbed run, and what the correction did to it, show.
///
/// What the correction cannot see: an op is not the kernel, so a
/// neighbour that slows memory or the socket path more than an
/// L1-resident loop is under-corrected; and a change to the repository
/// that loads the CPU the kernel runs on (spinning idle workers, timer
/// signals) slows the kernel too and is partly divided out. The raw
/// figure shows both.
pub struct Reference {
    recent: [f64; 5],
    next: usize,
    /// The level after each tick.
    all: Vec<f64>,
    /// A watcher's published kernel time on another CPU (the server's),
    /// which replaces this thread's own when present.
    remote: Option<std::sync::Arc<std::sync::atomic::AtomicU64>>,
}

impl Reference {
    /// A warmed-up yardstick (five kernel runs).
    pub fn new() -> Reference {
        Reference::watching(None)
    }

    /// A yardstick that reads the watcher of another CPU.
    pub fn watching(remote: Option<std::sync::Arc<std::sync::atomic::AtomicU64>>) -> Reference {
        let mut reference = Reference {
            recent: [0.0; 5],
            next: 0,
            all: Vec::new(),
            remote,
        };
        for _ in 0..5 {
            reference.tick();
        }
        reference.all.clear();
        reference
    }

    /// Times the kernel once.
    pub fn tick(&mut self) {
        self.recent[self.next % 5] = reference_kernel_seconds();
        self.next += 1;
        self.all.push(self.level());
    }

    /// How long the kernel takes at the moment: the other CPU's watcher
    /// if there is one and it has published, else the median of the last
    /// five runs here.
    fn level(&self) -> f64 {
        let there = self.remote.as_ref().map_or(0.0, |level| {
            f64::from_bits(level.load(std::sync::atomic::Ordering::Relaxed))
        });
        if there > 0.0 && there.is_finite() {
            there
        } else {
            crate::stats::median(&self.recent)
        }
    }

    /// `seconds`, measured now, as the clock gave it and as seconds on
    /// the undisturbed reference host.
    pub fn sample(&self, seconds: f64) -> Sample {
        Sample {
            raw: seconds,
            value: seconds * REFERENCE_NOMINAL_S / self.level(),
        }
    }

    /// Median kernel time since the yardstick was made, in seconds.
    pub fn median_s(&self) -> f64 {
        crate::stats::median(&self.all)
    }

    /// What a raw time measured during this yardstick's life is
    /// multiplied by to read as time on the undisturbed reference host
    /// (span durations are recorded raw).
    pub fn scale(&self) -> f64 {
        crate::stats::ratio(REFERENCE_NOMINAL_S, self.median_s())
    }

    /// Times the kernel, then `f`: `f`'s result and its time.
    pub fn timed<R>(&mut self, f: impl FnOnce() -> R) -> (R, Sample) {
        self.tick();
        let start = Instant::now();
        let result = f();
        (result, self.sample(start.elapsed().as_secs_f64()))
    }

    /// Records the kernel's median time (`bench.reference_us`) and warns
    /// when the host was disturbed enough to doubt the correction.
    pub fn report(&self, metrics: &mut Metrics) {
        let us = self.median_s() * 1e6;
        metrics.insert(
            "bench.reference_us".to_owned(),
            Summary {
                n: self.all.len(),
                ..Summary::exact(us)
            },
        );
        if self.median_s() > 1.25 * REFERENCE_NOMINAL_S {
            eprintln!(
                "warning: the reference kernel took {us:.0} us (undisturbed: {:.0} us): \
                 the host is disturbed or slower than the reference host",
                REFERENCE_NOMINAL_S * 1e6
            );
        }
    }
}

/// Ops per second on the undisturbed reference host, from the time each
/// whole op took.
pub fn rate(whole_ops: &[Sample]) -> f64 {
    crate::stats::ratio(
        whole_ops.len() as f64,
        whole_ops.iter().map(|s| s.value).sum(),
    )
}

/// Ops attempted and failed — wrong output, refused, socket error —
/// with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one op.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.fail(why);
        }
    }

    /// Marks an op already counted as failed, keeping the first eight
    /// reasons.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes);
        self.notes.truncate(8);
    }
}

/// A finished run of one workload.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
}

/// Runs `set_up` `budget.setups` times, keeping the last result for the
/// timed phase, and summarises how long each took (on the undisturbed
/// reference host, like every timing). Earlier results are dropped
/// (outside the timing) before the next set-up begins.
pub fn timed_setups<S>(budget: &Budget, mut set_up: impl FnMut() -> S) -> (S, Summary) {
    let mut reference = Reference::new();
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..budget.setups.max(1) {
        drop(last.take());
        reference.tick();
        reference.tick();
        let (result, took) = reference.timed(&mut set_up);
        last = Some(result);
        seconds.push(took.value);
    }
    (
        last.expect("at least one set-up ran"),
        Summary::of(&seconds),
    )
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The 1-minute load average, if the host exposes it.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// First line of `program args…`'s output, or `unknown` (the driver's
/// checkout is not a git repository; a host may lack `rustc`).
pub fn tool_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8(out.stdout)
                .ok()?
                .lines()
                .next()
                .map(str::to_owned)
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
