//! `benchmark`: one benchmark for the repository's three surfaces —
//! the multicore simulator, the native heartbeat runtime and the HTTP
//! service — measuring each layer from outside, by timing calls into
//! its public functions. See `README.md` in the package's directory.
//!
//! ```text
//! benchmark --workload NAME --seed N --seconds S --trace 0|1
//!     one workload in this process; the last line of standard output
//!     is one JSON object: correct, attempted, failed, metrics
//! benchmark [--seed N] [--seconds S] [--repeat R] [--trace [0|1]] [--out FILE]
//!     every workload, each in a child process of its own, untraced
//!     (end-to-end metrics) and, with --trace, traced (per-layer)
//! benchmark compare A.json B.json
//! benchmark manifest | glossary | baseline FILE.json
//! ```

mod affinity;
mod compare;
mod harness;
mod registry;
mod report;
mod rt;
mod serve;
mod sim;
mod spans;
mod stats;

use std::process::ExitCode;

use harness::{Budget, Outcome};
use registry::{Family, WorkloadDef, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use stats::Summary;

/// The arguments of a run.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    /// `None`: untraced only. `Some(false)`: `--trace 0`.
    trace: Option<bool>,
    repeat: usize,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: None,
        repeat: 1,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => parsed.workload = Some(value("--workload")?),
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_owned());
                }
            }
            "--repeat" => {
                parsed.repeat = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--out" => parsed.out = Some(value("--out")?),
            "--trace" => {
                // Bare `--trace` means 1.
                parsed.trace = Some(match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                });
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Where a traced run writes its Chrome trace.
fn trace_path(workload: &str) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    std::path::Path::new(&dir).join(format!("benchmark-trace-{workload}.json"))
}

fn run_workload(def: &WorkloadDef, seed: u64, budget: &Budget, traced: bool) -> Outcome {
    if !traced {
        return match def.family {
            Family::Sim => sim::run(def, seed, budget),
            Family::Rt => rt::run(def, seed, budget),
            Family::Serve => serve::run(def, seed, budget),
        };
    }
    let (outcome, recorders) = match def.family {
        Family::Sim => sim::run_traced(def, seed, budget),
        Family::Rt => rt::run_traced(def, seed, budget),
        Family::Serve => serve::run_traced(def, seed, budget),
    };
    let path = trace_path(def.name);
    let json = spans::chrome_json(def.name, &recorders.iter().collect::<Vec<_>>());
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(&path, json));
    match written {
        Ok(()) => println!(
            "# trace: {} (open in https://ui.perfetto.dev)",
            path.display()
        ),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }
    outcome
}

/// The metrics a run owes the driver: every end-to-end metric
/// (untraced) or every per-layer metric (traced, 0 where the workload
/// does not exercise the layer).
fn owed(traced: bool) -> Vec<(&'static str, &'static str)> {
    if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// One workload in this process: the human-readable table, then the
/// driver's JSON line.
fn run_one(def: &WorkloadDef, args: &Args) -> ExitCode {
    let traced = args.trace == Some(true);
    let load = harness::load_average();
    println!(
        "# {} seed={} seconds={} trace={} nproc={} load1={} cpu=\"{}\"",
        def.name,
        args.seed,
        args.seconds,
        u8::from(traced),
        harness::nproc(),
        load.map_or("unknown".to_owned(), |l| l.to_string()),
        harness::cpu_model(),
    );
    if load.is_some_and(|l| l > 0.5) {
        eprintln!(
            "warning: 1-minute load average {} exceeds 0.5: these numbers may measure the host",
            load.unwrap_or(0.0)
        );
    }
    let outcome = run_workload(def, args.seed, &Budget::new(args.seconds), traced);
    for name in outcome.metrics.keys() {
        assert!(
            unit_of(name).is_some(),
            "`{name}` is not in the registry (a bug in the benchmark)"
        );
    }
    let owed = owed(traced);
    // Owed metrics first, in registry order; then whatever else the
    // run computed along the way.
    let extra = outcome
        .metrics
        .keys()
        .filter(|k| !owed.iter().any(|(n, _)| n == k))
        .map(|k| (k.as_str(), unit_of(k).unwrap_or("")));
    for (name, unit) in owed.iter().copied().chain(extra) {
        let s = outcome
            .metrics
            .get(name)
            .copied()
            .unwrap_or(Summary::exact(0.0));
        if s.q1 == s.q3 {
            println!("{name:<42} {:>16.4} {unit:<9} n={}", s.median, s.n);
        } else {
            println!(
                "{name:<42} {:>16.4} {unit:<9} n={} q1={:.4} q3={:.4}",
                s.median, s.n, s.q1, s.q3
            );
        }
    }
    for note in &outcome.tally.notes {
        eprintln!("failed op: {note}");
    }
    let metrics: Vec<String> = owed
        .iter()
        .map(|(name, unit)| {
            let v = outcome.metrics.get(*name).map_or(0.0, |s| finite(s.median));
            report::metric_json(name, v, unit)
        })
        .collect();
    let correct = outcome.tally.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.tally.attempted.max(1),
        outcome.tally.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in a child process of its own (so set-up time
/// and peak memory are per workload), `repeat` times with consecutive
/// seeds.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let provenance = report::Provenance::collect(args.seed, args.seconds);
    println!("{}", provenance.banner());
    let mut runs = Vec::new();
    let mut ok = true;
    let modes: &[bool] = if args.trace == Some(true) {
        &[false, true]
    } else {
        &[false]
    };
    for rep in 0..args.repeat.max(1) {
        let seed = args.seed + rep as u64;
        for def in &WORKLOADS {
            for &traced in modes {
                let child = std::process::Command::new(&exe)
                    .args(["--workload", def.name])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .output()
                    .expect("re-execute the benchmark");
                let stdout = String::from_utf8_lossy(&child.stdout);
                eprint!("{}", String::from_utf8_lossy(&child.stderr));
                let (table, last) = stdout
                    .trim_end()
                    .rsplit_once('\n')
                    .unwrap_or(("", stdout.trim_end()));
                println!("{table}");
                match report::Run::parse(def.name, seed, traced, last) {
                    Some(run) if child.status.success() => {
                        ok &= run.failed == 0;
                        runs.push(run);
                    }
                    _ => {
                        eprintln!("{} (seed {seed}, trace {traced}): run failed", def.name);
                        ok = false;
                    }
                }
            }
        }
    }
    if let Some(path) = &args.out {
        let json = report::results_json(&provenance, &runs);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("could not write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("# results: {path}");
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Makes the allocator keep what it is given: every allocation comes
/// from the one heap, which never shrinks. By default glibc moves its
/// mmap threshold as it goes and returns memory at its own pace, so
/// peak memory and the page faults inside a timed op depend on the
/// order of earlier frees. Fixed here, both repeat.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_allocator() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only stores two tuning values; it is called
    // before any other thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20); // glibc's ceiling
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_allocator() {}

fn main() -> ExitCode {
    pin_allocator();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", report::manifest_json());
            return ExitCode::SUCCESS;
        }
        Some("glossary") => {
            print!("{}", report::glossary_markdown());
            return ExitCode::SUCCESS;
        }
        Some("baseline") | Some("compare") => {
            let files: Vec<report::Results> = match args[1..]
                .iter()
                .map(|path| report::Results::load(path))
                .collect()
            {
                Ok(files) => files,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            return match (args[0].as_str(), files.as_slice()) {
                ("baseline", [file]) => {
                    print!("{}", report::baseline_markdown(file));
                    ExitCode::SUCCESS
                }
                ("compare", [a, b]) => compare::compare(a, b),
                _ => {
                    eprintln!("usage: benchmark compare A.json B.json | baseline FILE.json");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\nsee the usage at the top of main.rs or README.md");
            return ExitCode::FAILURE;
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: run with `cargo run --release`");
        return ExitCode::FAILURE;
    }
    match &args.workload {
        Some(name) => match registry::workload(name) {
            Some(def) => run_one(def, &args),
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("unknown workload `{name}`; one of {}", names.join(", "));
                ExitCode::FAILURE
            }
        },
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args(&[
            "--workload",
            "sim_loops",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "0",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("sim_loops"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, Some(false)));
        assert_eq!(args(&["--trace"]).unwrap().trace, Some(true));
        assert_eq!(args(&["--trace", "1", "--seed", "3"]).unwrap().seed, 3);
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    #[test]
    fn every_owed_metric_has_a_unit() {
        for traced in [false, true] {
            for (name, unit) in owed(traced) {
                assert_eq!(unit_of(name), Some(unit));
            }
        }
    }
}
