//! CLI regression tests for `tpal-run`, exercising the built binary
//! end-to-end (argument parsing, substrate selection, heartbeat
//! defaulting).

use std::process::Command;

/// Runs the `tpal-run` binary with `args`, returning (success, stdout,
/// stderr).
fn tpal_run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tpal-run"))
        .args(args)
        .output()
        .expect("spawn tpal-run");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn explicit_heartbeat_is_honoured_on_the_simulator() {
    // ISSUE 8 regression: `--heartbeat 100 --sim N` used to silently
    // rewrite the explicitly passed 100 to the tuned sim default 3000,
    // because the CLI compared the value against the machine default
    // instead of tracking whether the flag was given.
    let (ok, stdout, stderr) = tpal_run(&[
        "programs/fib.tpal",
        "--set",
        "n=10",
        "--heartbeat",
        "100",
        "--sim",
        "2",
    ]);
    assert!(ok, "run failed: {stderr}");
    assert!(
        stdout.contains("♥ = 100,"),
        "explicit --heartbeat 100 must be honoured, got:\n{stdout}"
    );
    assert!(stdout.contains("f = 55"), "fib(10) = 55, got:\n{stdout}");
}

#[test]
fn absent_heartbeat_defaults_to_tuned_sim_value() {
    let (ok, stdout, stderr) = tpal_run(&["programs/fib.tpal", "--set", "n=10", "--sim", "2"]);
    assert!(ok, "run failed: {stderr}");
    assert!(
        stdout.contains("♥ = 3000,"),
        "flag-absent sim runs default to ♥ = 3000, got:\n{stdout}"
    );
}

#[test]
fn machine_keeps_its_own_default_heartbeat() {
    let (ok, stdout, stderr) = tpal_run(&["programs/fib.tpal", "--set", "n=10"]);
    assert!(ok, "run failed: {stderr}");
    assert!(
        stdout.contains("machine run, ♥ = 100:"),
        "machine default ♥ is 100, got:\n{stdout}"
    );
    assert!(stdout.contains("f = 55"), "fib(10) = 55, got:\n{stdout}");
}

#[test]
fn rt_substrate_is_reachable() {
    // ISSUE 8 satellite: the native runtime must be reachable from the
    // CLI, with policy/exec-tier/heartbeat wired through.
    let (ok, stdout, stderr) = tpal_run(&[
        "programs/fib.tpal",
        "--set",
        "n=10",
        "--rt",
        "2",
        "--heartbeat",
        "50",
        "--exec-tier",
        "decoded",
    ]);
    assert!(ok, "run failed: {stderr}");
    assert!(
        stdout.contains("native runtime, 1 worker, ♥ = 50µs"),
        "rt header naming the effective pool size (`--rt 2` is accepted, one worker runs), got:\n{stdout}"
    );
    assert!(stdout.contains("f = 55"), "fib(10) = 55, got:\n{stdout}");
}

#[test]
fn policy_flags_work_on_the_rt_substrate() {
    let (ok, stdout, stderr) = tpal_run(&[
        "programs/fib.tpal",
        "--set",
        "n=10",
        "--rt",
        "1",
        "--policy",
        "eager/sequence",
    ]);
    assert!(ok, "run failed: {stderr}");
    assert!(
        stdout.contains("policy = eager/sequence"),
        "policy label expected, got:\n{stdout}"
    );
}

#[test]
fn policy_still_rejected_without_a_parallel_substrate() {
    let (ok, _, stderr) = tpal_run(&["programs/fib.tpal", "--set", "n=10", "--policy", "eager"]);
    assert!(!ok, "machine runs must reject --policy");
    assert!(stderr.contains("--policy needs"), "got stderr:\n{stderr}");
}

#[test]
fn retired_policy_labels_are_refused_by_name() {
    for (substrate, label, names) in [
        ("--sim", "adaptive:5000/locality", "`adaptive:5000`"),
        ("--sim", "eager/locality", "`locality`"),
        ("--sim", "heartbeat/sequence", "`sequence`"),
        ("--rt", "heartbeat/uniform/random", "`random`"),
    ] {
        let args = ["programs/fib.tpal", "--set", "n=10", substrate, "2"];
        let (ok, _, stderr) = tpal_run(&[&args[..], &["--policy", label]].concat());
        assert!(!ok, "{substrate} --policy {label} must be refused");
        assert!(
            stderr.contains("--policy") && stderr.contains(names),
            "{label}: {stderr}"
        );
    }
    // The header names each substrate's own steal rule, whichever
    // victim an rt label gave.
    for (substrate, label, header) in [
        ("--sim", "never", "policy = never/uniform"),
        ("--rt", "never/uniform", "policy = never/sequence"),
    ] {
        let args = ["programs/fib.tpal", "--set", "n=10", substrate, "2"];
        let (ok, stdout, stderr) = tpal_run(&[&args[..], &["--policy", label]].concat());
        assert!(ok, "{label}: {stderr}");
        assert!(stdout.contains(header), "{label}: {stdout}");
        assert!(stdout.contains("f = 55"), "{label}: {stdout}");
    }
    let (ok, _, stderr) = tpal_run(&["programs/fib.tpal", "--sim", "2", "--victim", "uniform"]);
    assert!(!ok);
    assert!(stderr.contains("unknown argument `--victim`"), "{stderr}");
}

#[test]
fn sim_and_rt_are_mutually_exclusive() {
    let (ok, _, stderr) = tpal_run(&["programs/fib.tpal", "--sim", "2", "--rt", "2"]);
    assert!(!ok);
    assert!(stderr.contains("mutually exclusive"), "got:\n{stderr}");
}

#[test]
fn heartbeat_source_selects_the_delivery_backend() {
    // ISSUE 10 satellite: every delivery backend is reachable from the
    // CLI and the run header names the one in effect.
    for (flag, label) in [
        ("ping", "ping"),
        ("local-timer", "local-timer"),
        ("signal", "timer-signal"),
    ] {
        let (ok, stdout, stderr) = tpal_run(&[
            "programs/fib.tpal",
            "--set",
            "n=10",
            "--rt",
            "1",
            "--heartbeat-source",
            flag,
        ]);
        assert!(ok, "--heartbeat-source {flag} failed: {stderr}");
        assert!(
            stdout.contains(&format!("source = {label}")),
            "--heartbeat-source {flag}: header should name {label}, got:\n{stdout}"
        );
        assert!(stdout.contains("f = 55"), "fib(10) = 55, got:\n{stdout}");
    }
}

#[test]
fn heartbeat_source_rejected_without_the_rt_substrate() {
    for args in [
        vec!["programs/fib.tpal", "--heartbeat-source", "signal"],
        vec![
            "programs/fib.tpal",
            "--sim",
            "2",
            "--heartbeat-source",
            "signal",
        ],
    ] {
        let (ok, _, stderr) = tpal_run(&args);
        assert!(!ok, "--heartbeat-source must require --rt");
        assert!(
            stderr.contains("--heartbeat-source needs"),
            "got stderr:\n{stderr}"
        );
    }
}

#[test]
fn heartbeat_source_rejects_unknown_values() {
    let (ok, _, stderr) = tpal_run(&[
        "programs/fib.tpal",
        "--rt",
        "1",
        "--heartbeat-source",
        "carrier-pigeon",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown source `carrier-pigeon`"),
        "got stderr:\n{stderr}"
    );
}

/// The summary line's `name = value` field.
fn summary_field(stdout: &str, name: &str) -> u64 {
    let line = (stdout.lines().find(|l| l.contains("instructions = "))).expect("summary line");
    let value = line.split(&format!("{name} = ")).nth(1).expect(name);
    let digits: String = value.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect(name)
}

#[test]
fn rt_runs_honour_tau_and_report_work_and_span() {
    // `--tau` used to be read on the machine branch only. With τ = 0 a
    // fork-join weighs nothing, so work is exactly the instruction
    // count, promotions or not.
    let fib = ["programs/fib.tpal", "--set", "n=22", "--rt", "1"];
    let (ok, stdout, stderr) = tpal_run(&[&fib[..], &["--tau", "0"]].concat());
    assert!(ok, "run failed: {stderr}");
    assert_eq!(
        summary_field(&stdout, "work"),
        summary_field(&stdout, "instructions"),
        "{stdout}"
    );
    // With the default τ every promoted fork-join adds to it.
    let (ok, stdout, stderr) = tpal_run(&fib);
    assert!(ok, "run failed: {stderr}");
    assert!(stdout.contains("span = "), "{stdout}");
    let (work, instructions) = (
        summary_field(&stdout, "work"),
        summary_field(&stdout, "instructions"),
    );
    if summary_field(&stdout, "tasks") > 0 {
        assert!(work > instructions, "{stdout}");
    } else {
        assert_eq!(work, instructions, "{stdout}");
    }
}

/// Runs `tpal-run` on `program` (written to a scratch file named
/// `name`) with `args`, killing it if it has not returned within two
/// minutes so a hang fails the test instead of the suite. Returns the
/// exit status and stderr.
fn tpal_run_bounded(
    name: &str,
    program: &str,
    args: &[&str],
) -> (std::process::ExitStatus, String) {
    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&file, program).unwrap();
    let mut child = Command::new(env!("CARGO_BIN_EXE_tpal-run"))
        .arg(&file)
        .args(args)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn tpal-run");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(120);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if std::time::Instant::now() > deadline {
            child.kill().unwrap();
            panic!("tpal-run {name} {args:?} did not return");
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    (status, stderr)
}

#[test]
fn a_spinning_program_faults_at_the_step_limit_on_the_rt_substrate() {
    // This used to hang: the runtime had its own copy of the machine's
    // driver, which stopped clamping stretches to the step limit once a
    // heartbeat armed the promotion watch.
    let (status, stderr) =
        tpal_run_bounded("spin.tpal", "spin: [.]\n    jump spin\n", &["--rt", "1"]);
    assert!(!status.success());
    assert!(stderr.contains("step limit"), "got stderr:\n{stderr}");
}

#[test]
fn a_halloc_bomb_is_a_runtime_fault_on_every_substrate() {
    // This used to panic with `capacity overflow` in the heap (exit 101
    // on the machine and the simulator; on rt the panic killed the pool
    // worker and the run never returned).
    let bomb = "main: [.]\n    a := halloc 4611686018427387903\n    halt\n";
    for args in [&[][..], &["--sim", "2"], &["--rt", "1"]] {
        let (status, stderr) = tpal_run_bounded("bomb.tpal", bomb, args);
        assert_eq!(status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("halloc of 4611686018427387903 words exceeds the heap limit"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn stack_pointer_arithmetic_wraps_and_a_wild_pointer_faults() {
    // Both used to panic in debug builds ("attempt to subtract with
    // overflow" in `StackRef::deeper`, "attempt to add with overflow" in
    // `salloc`) and wrap silently in release. Pointer arithmetic now
    // wraps like integer arithmetic on every build, and using the wild
    // pointer is a typed fault.
    let prelude = "main: [.]\n    sp := snew\n    salloc sp, 2\n    x := 0\n    \
                   x := x - 9223372036854775807\n    x := x - 1\n";
    let wraps = format!("{prelude}    q := sp + x\n    halt\n");
    let wild = "main: [.]\n    sp := snew\n    x := 0\n    x := x - 9223372036854775807\n    \
                x := x - 1\n    q := sp + x\n    salloc q, 2\n    halt\n";
    for tier in ["ref", "decoded", "threaded"] {
        for substrate in [&[][..], &["--sim", "2"]] {
            let args: Vec<&str> = ["--exec-tier", tier]
                .iter()
                .chain(substrate)
                .copied()
                .collect();
            let (status, stderr) = tpal_run_bounded("wraps.tpal", &wraps, &args);
            assert_eq!(status.code(), Some(0), "{args:?}: {stderr}");
            let (status, stderr) = tpal_run_bounded("wild.tpal", wild, &args);
            assert_eq!(status.code(), Some(1), "{args:?}: {stderr}");
            assert!(
                stderr.contains(
                    "stack access at position 9223372036854775807 outside live cells (len 0)"
                ),
                "{args:?}: {stderr}"
            );
        }
    }
}

#[test]
fn a_salloc_bomb_is_a_runtime_fault_on_every_substrate() {
    // This used to abort the process (`memory allocation of 103079215080
    // bytes failed`, exit 134) on every substrate.
    let bomb = "main: [.]\n    sp := snew\n    salloc sp, 4294967295\n    halt\n";
    for args in [&[][..], &["--sim", "2"], &["--rt", "1"]] {
        let (status, stderr) = tpal_run_bounded("sbomb.tpal", bomb, args);
        assert_eq!(status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("salloc of 4294967295 cells exceeds the stack limit"),
            "{args:?}: {stderr}"
        );
    }
}

/// A simulated per-core-timer ♥ at or below the timer's 5-cycle service
/// cost never ran an instruction, so not even the step limit ended the
/// run (`fib(1)` spun for good). It is refused by name; the ping-thread
/// model has no such floor.
#[test]
fn a_heartbeat_the_timer_service_swallows_is_refused() {
    let fib = include_str!("../programs/fib.tpal");
    for hb in ["0", "5"] {
        let args = ["--set", "n=1", "--sim", "1", "--heartbeat", hb];
        let (status, stderr) = tpal_run_bounded("fib.tpal", fib, &args);
        assert_eq!(status.code(), Some(1), "♥ {hb}: {stderr}");
        assert!(
            stderr.contains("heartbeat") && stderr.contains(&format!("got {hb}")),
            "♥ {hb}: {stderr}"
        );
    }
    let linux = ["--set", "n=1", "--sim", "1", "--linux", "--heartbeat", "0"];
    let (status, stderr) = tpal_run_bounded("fib.tpal", fib, &linux);
    assert_eq!(status.code(), Some(0), "{stderr}");
}

/// Zero cores used to panic (exit 101) and zero workers ran silently;
/// both are the typed error the service gives.
#[test]
fn zero_cores_or_workers_are_refused() {
    let fib = include_str!("../programs/fib.tpal");
    for (flag, names) in [("--sim", "cores must be"), ("--rt", "workers must be")] {
        let (status, stderr) = tpal_run_bounded("fib.tpal", fib, &["--set", "n=5", flag, "0"]);
        assert_eq!(status.code(), Some(1), "{flag} 0: {stderr}");
        assert!(stderr.contains(names), "{flag} 0: {stderr}");
    }
}

#[test]
fn tau_is_refused_on_the_simulator() {
    let (ok, _, stderr) = tpal_run(&["programs/fib.tpal", "--sim", "2", "--tau", "5"]);
    assert!(!ok, "the simulator charges cycles, not τ");
    assert!(stderr.contains("--tau needs"), "{stderr}");
}

#[test]
fn interrupt_models_are_refused_off_the_simulator() {
    for args in [
        vec!["programs/fib.tpal", "--linux"],
        vec!["programs/fib.tpal", "--rt", "1", "--nautilus"],
    ] {
        let flag = args.last().unwrap();
        let (ok, _, stderr) = tpal_run(&args);
        assert!(!ok, "{args:?}");
        assert!(stderr.contains(&format!("{flag} needs")), "{stderr}");
    }
}

#[test]
fn mode_is_refused_without_ir() {
    let (ok, _, stderr) = tpal_run(&["programs/fib.tpal", "--mode", "serial"]);
    assert!(!ok, "an assembly program has no lowering mode");
    assert!(stderr.contains("--mode needs --ir"), "{stderr}");
}

/// Frontend errors name the stage that raised them, as the service's do.
#[test]
fn frontend_errors_name_their_stage() {
    for (name, program, args, stage) in [
        ("bad.tpal", "main: [.]\n    bogus\n", &[][..], "asm parse:"),
        ("bad.tpl", "fn main( {", &["--ir"][..], "ir parse:"),
        (
            "sum.tpl",
            SUM_TPL,
            &["--ir", "--mode", "bogus"][..],
            "unknown mode",
        ),
    ] {
        let (status, stderr) = tpal_run_bounded(name, program, args);
        assert_eq!(status.code(), Some(1), "{name}: {stderr}");
        assert!(stderr.contains(&format!("{name}: {stage}")), "{stderr}");
    }
}

/// A parallel-loop reduction in the task-parallel source language.
const SUM_TPL: &str =
    "fn main(n) {\n    s = 0;\n    parfor i in 0..n reduce(s: +, 0) { s = s + i; }\n    return s;\n}\n";

/// `tpal-run` and `tpal-serve` run one path: for every shipped program
/// at a small input, plus a `.tpl` source under `--ir`, the integer
/// registers `tpal-run` prints on `--sim 2` and on `--rt 1` are the
/// `result.registers` that `Engine::execute` renders for the same spec.
/// The runtime's ♥ is one second on both sides, so no real-time beat
/// lands in these short runs and the registers do not depend on when
/// one would have.
#[test]
fn the_cli_and_the_service_agree_on_registers() {
    use tpal::serve::engine::{Engine, RunInclude};
    use tpal::serve::spec::{ProgramSrc, RunSpec};

    let tpl = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("agree.tpl");
    std::fs::write(&tpl, SUM_TPL).unwrap();
    let mut programs: Vec<_> = std::fs::read_dir("programs")
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "tpal"))
        .collect();
    programs.sort();
    assert!(programs.len() >= 5, "{programs:?}");
    programs.push(tpl);
    let engine = Engine::new();
    for path in &programs {
        let sets: &[(&str, i64)] = match path.file_stem().unwrap().to_str().unwrap() {
            "fib" => &[("n", 12)],
            "pipeline" => &[("n", 100)],
            "pow" => &[("d", 300), ("e", 3)],
            "prod" => &[("a", 1000), ("b", 3)],
            "sum" => &[("main.n", 1000)],
            "agree" => &[("n", 100)],
            other => panic!("give programs/{other}.tpal a small input here"),
        };
        let ir = path.extension().unwrap() == "tpl";
        let source = std::fs::read_to_string(path).unwrap();
        let src = if ir {
            ProgramSrc::tpl(source, "heartbeat")
        } else {
            ProgramSrc::asm(source)
        };
        let entry = engine.cache().get_or_compile(&src).0.unwrap();
        let mut rt = RunSpec::rt(1);
        rt.heartbeat = Some(1_000_000);
        for (flags, mut spec) in [
            (&["--sim", "2"][..], RunSpec::sim(2)),
            (&["--rt", "1", "--heartbeat", "1000000"][..], rt),
        ] {
            let mut args = vec![path.to_str().unwrap().to_owned()];
            args.extend(flags.iter().map(|f| f.to_string()));
            if ir {
                args.push("--ir".to_owned());
            }
            for (k, v) in sets {
                args.extend(["--set".to_owned(), format!("{k}={v}")]);
                spec = spec.set(*k, *v);
            }
            let args: Vec<&str> = args.iter().map(String::as_str).collect();
            let (ok, stdout, stderr) = tpal_run(&args);
            assert!(ok, "{args:?}: {stderr}");
            // Between the header and the summary line: `  name = value`.
            let lines: Vec<&str> = stdout.lines().collect();
            let printed: Vec<String> = lines[1..lines.len() - 1]
                .iter()
                .map(|l| {
                    let (name, v) = l.trim().split_once(" = ").expect(l);
                    format!("\"{name}\":{v}")
                })
                .collect();
            let served = engine
                .execute(&entry, &spec, RunInclude::default())
                .unwrap_or_else(|e| panic!("{args:?}: {e}"));
            let want = format!("{{\"registers\":{{{}}}", printed.join(","));
            assert!(
                served.result.starts_with(&want),
                "{args:?}:\ntpal-run  {want}\ntpal-serve {}",
                served.result
            );
        }
    }
}

/// The benchmark suite's integer-input programs run by file through the
/// front door: `tpal-run FILE --ir --sim 4 --set …` at the Quick inputs
/// prints the checksum `sim_spec` expects. The other workloads take
/// arrays, which `--set` cannot carry.
#[test]
fn integer_input_workload_programs_run_by_file() {
    use tpal::workloads::{workload, Scale};

    for (name, params) in [
        ("mandelbrot", &["w", "h", "mi"][..]),
        ("pipeline-tokens", &["n"][..]),
        ("mandelbrot-tiles", &["mw", "mh", "mmi", "mth"][..]),
    ] {
        let spec = workload(name).unwrap().sim_spec(Scale::Quick);
        assert!(spec.input.arrays.is_empty(), "{name} takes arrays");
        let names: Vec<&str> = spec.input.ints.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, params, "{name}");
        let mut args = vec![
            format!("crates/workloads/programs/{name}.tpl"),
            "--ir".to_owned(),
            "--sim".to_owned(),
            "4".to_owned(),
        ];
        for (k, v) in &spec.input.ints {
            args.extend(["--set".to_owned(), format!("{k}={v}")]);
        }
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let (ok, stdout, stderr) = tpal_run(&args);
        assert!(ok, "{args:?}: {stderr}");
        let want = format!("result = {}", spec.expected);
        assert!(
            stdout.lines().any(|l| l.trim() == want),
            "{name}: want `{want}` in\n{stdout}"
        );
    }
}
