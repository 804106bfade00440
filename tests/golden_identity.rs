//! Golden identity of the text → `Program` stages: the assembler, the
//! lowering and the replay-token renderer must stay bit-identical —
//! same blocks, same names, same `Reg`/`Label` numbering, same token
//! bytes. Each row of `golden_identity.txt` is a subject, the FNV-1a
//! digest of its `print_program` text, and the digest of its
//! `(reg_names, label_names)` order, recorded at 6a98c33 (before the
//! front ends were rewritten).
//!
//! A deliberate change to any of the three is re-blessed by replacing
//! the file with the table this test prints when it fails.

use std::fmt::Write as _;

use tpal::core::asm::{parse_program, print_program};
use tpal::core::isa::{Label, Reg};
use tpal::core::program::Program;
use tpal::ir::{lower, parse_ir, Mode};
use tpal::serve::spec::{hex_decode, hex_encode, Fnv1a, RunSpec};
use tpal::workloads::{all_workloads, Scale};
use tpal_sched::HeartbeatSource;

const MODES: [(&str, Mode); 4] = [
    ("serial", Mode::Serial),
    ("heartbeat", Mode::Heartbeat),
    ("expanded", Mode::HeartbeatExpanded),
    ("eager4", Mode::Eager { workers: 4 }),
];

/// The service benchmark's request programs (`serve_hot`/`serve_cold`).
const SERVICE_SOURCES: [(&str, &str); 4] = [
    (
        "sum",
        "fn main(n) {\n    s = 0;\n    parfor i in 0..n reduce(s: +, 0) { s = s + i + 987654321; }\n    return s;\n}\n",
    ),
    (
        "fib",
        "fn fib(n) {\n    if n < 2 { return n; }\n    par {\n        a = fib(n - 1);\n        b = fib(n - 2);\n    }\n    return a + b;\n}\nfn main(n) {\n    r = fib(n);\n    return r + 987654321;\n}\n",
    ),
    (
        "pipeline",
        "fn main(n) {\n    c = chmake(2);\n    detach produce(c, n);\n    s = 987654321;\n    k = 0;\n    while k < n {\n        v = chpop(c);\n        s = s + v;\n        k = k + 1;\n    }\n    return s;\n}\nfn produce(c, n) {\n    for i in 0..n {\n        chpush(c, i);\n    }\n    chclose(c);\n    return 0;\n}\n",
    ),
    (
        "rows",
        "fn main(n) {\n    s = 0;\n    parfor i in 0..n reduce(s: +, 0) {\n        t = 987654321;\n        for j in 0..16 { t = t + i * j; }\n        s = s + t;\n    }\n    return s;\n}\n",
    ),
];

fn fnv(bytes: &[u8]) -> u64 {
    Fnv1a::new().write(bytes).finish()
}

/// Every register name in `Reg` order, then every label name in
/// `Label` order.
fn names(p: &Program) -> String {
    let mut out = String::new();
    for i in 0..p.reg_count() {
        out.push_str(p.reg_name(Reg::from_index(i)));
        out.push('\n');
    }
    out.push('\0');
    for i in 0..p.block_count() {
        out.push_str(p.label_name(Label::from_index(i)));
        out.push('\n');
    }
    out
}

fn row(table: &mut String, subject: &str, p: &Program) {
    let _ = writeln!(
        table,
        "{subject} {:016x} {:016x}",
        fnv(print_program(p).as_bytes()),
        fnv(names(p).as_bytes())
    );
}

/// A lowered program, and the same program after a trip through its
/// printed text (the assembler's numbering is its own: first use in
/// the text, not first use in the lowering).
fn lowered_rows(table: &mut String, subject: &str, p: &Program) {
    row(table, subject, p);
    let reparsed = parse_program(&print_program(p))
        .unwrap_or_else(|e| panic!("{subject}: printed text does not reparse: {e}"));
    row(table, &format!("{subject}/reparsed"), &reparsed);
}

fn token_specs() -> Vec<(&'static str, u64, RunSpec)> {
    let mut big = RunSpec::sim(4).set("main.n", 1_000).set("a", -7);
    big.heartbeat = Some(500);
    big.seed = u64::MAX - 3;
    big.step_limit = Some(10_000_000_000);
    let mut signal = RunSpec::rt(2).set("n", 10);
    signal.source = HeartbeatSource::TimerSignal;
    let quoted = RunSpec::sim(1).set("we\"ird\\name\n", i64::MIN);
    vec![
        ("sim-default", 0, RunSpec::sim(2)),
        (
            "sim-cold",
            0x0123_4567_89ab_cdef,
            RunSpec::sim(2).set("main.n", 500),
        ),
        ("sim-big", 0xdead_beef_0123_4567, big),
        ("rt-default", 1, RunSpec::rt(3).set("n", 20)),
        ("rt-signal", 7, signal),
        ("sim-escaped", u64::MAX, quoted),
    ]
}

fn actual_table() -> String {
    let mut table = String::new();

    let mut shipped: Vec<_> = std::fs::read_dir("programs")
        .expect("programs/ exists")
        .map(|e| e.expect("readable entry").path())
        .collect();
    shipped.sort();
    for path in shipped {
        let src = std::fs::read_to_string(&path).expect("readable program");
        let p = parse_program(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        row(&mut table, &format!("asm/{}", path.display()), &p);
    }

    for w in all_workloads() {
        let spec = w.sim_spec(Scale::Quick);
        for (mode_name, mode) in MODES {
            let lowered = lower(&spec.ir, mode)
                .unwrap_or_else(|e| panic!("{} in {mode_name}: {e}", w.name()));
            let subject = format!("workload/{}/{mode_name}", w.name());
            lowered_rows(&mut table, &subject, &lowered.program);
        }
    }

    for (name, tpl) in SERVICE_SOURCES {
        let ir = parse_ir(tpl).unwrap_or_else(|e| panic!("{name}: {e}"));
        for (mode_name, mode) in MODES {
            let lowered = lower(&ir, mode).unwrap_or_else(|e| panic!("{name}: {e}"));
            let subject = format!("service/{name}/{mode_name}");
            lowered_rows(&mut table, &subject, &lowered.program);
        }
    }

    for (name, hash, spec) in token_specs() {
        let token = spec.token(hash);
        let _ = writeln!(
            table,
            "token/{name} {:016x} {:016x}",
            fnv(token.as_bytes()),
            token.len()
        );
    }
    table
}

#[test]
fn front_ends_are_bit_identical_to_the_recorded_parent() {
    let actual = actual_table();
    let golden = include_str!("golden_identity.txt");
    if actual != golden {
        let differing = actual
            .lines()
            .zip(golden.lines())
            .find(|(a, g)| a != g)
            .map(|(a, g)| format!("first differing row:\n  actual {a}\n  golden {g}"))
            .unwrap_or_else(|| "the tables differ in length".to_owned());
        panic!("{differing}\n--- the whole actual table ---\n{actual}--- end ---");
    }
}

/// A token an older server minted may carry a label that is no longer
/// in the vocabulary: it fails to decode with the value named, never as
/// a neighbouring run. An rt token naming the simulator's victim still
/// decodes, and re-renders with the runtime's own.
#[test]
fn tokens_with_retired_labels_fail_by_name() {
    let sim = RunSpec::sim(2).set("main.n", 500);
    let rt = RunSpec::rt(3).set("n", 20);
    let edit = |spec: &RunSpec, from: &str, to: &str| {
        let payload = hex_decode(&spec.token(7)["r1-".len()..]).unwrap();
        let payload = String::from_utf8(payload).unwrap();
        let from = format!("\"policy\":\"{from}\"");
        assert!(payload.contains(&from), "{payload}");
        let edited = payload.replace(&from, &format!("\"policy\":\"{to}\""));
        format!("r1-{}", hex_encode(edited.as_bytes()))
    };
    for (spec, from, to, names) in [
        (
            &sim,
            "heartbeat/uniform",
            "adaptive:40/uniform",
            "`adaptive:40`",
        ),
        (&sim, "heartbeat/uniform", "eager/locality", "`locality`"),
        (
            &sim,
            "heartbeat/uniform",
            "heartbeat/uniform/random",
            "`random`",
        ),
        (
            &sim,
            "heartbeat/uniform",
            "heartbeat/sequence",
            "`sequence`",
        ),
        (
            &rt,
            "heartbeat/sequence",
            "adaptive:40/sequence",
            "`adaptive:40`",
        ),
        (&rt, "heartbeat/sequence", "never/locality", "`locality`"),
    ] {
        let e = RunSpec::from_token(&edit(spec, from, to)).unwrap_err();
        assert!(e.contains(names) && e.contains("policy"), "{to}: {e}");
    }
    let token = edit(&rt, "heartbeat/sequence", "heartbeat/uniform");
    let (hash, decoded) = RunSpec::from_token(&token).expect("an rt `/uniform` token decodes");
    assert_eq!((hash, &decoded), (7, &rt));
    assert_eq!(decoded.token(7), rt.token(7));
}

/// One token in full, so a digest mismatch above can be read, and the
/// decode side: today's token, and one minted before the `hbsrc` field
/// existed, both come back as the spec that rendered them.
#[test]
fn tokens_render_and_decode_as_recorded() {
    let spec = RunSpec::sim(2).set("main.n", 500);
    let token = spec.token(0x0123_4567_89ab_cdef);
    assert_eq!(
        token,
        "r1-7b22636f726573223a322c226862223a6e756c6c2c226862737263223a226c6f63616c2d74696d6572222\
         c226c696e7578223a66616c73652c22706f6c696379223a226865617274626561742f756e69666f726d222c2\
         270726f67223a2230313233343536373839616263646566222c2273656564223a22646563306465222c22736\
         57473223a7b226d61696e2e6e223a22353030227d2c22736c223a6e756c6c2c22737562223a2273696d222c2\
         274696572223a227468726561646564222c22776f726b657273223a307d"
    );
    let (hash, decoded) = RunSpec::from_token(&token).expect("decodes");
    assert_eq!(hash, 0x0123_4567_89ab_cdef);
    assert_eq!(decoded, spec);

    // {"cores":2,"hb":null,"linux":false,...}: no `hbsrc`.
    let legacy = token.replace(
        "226862737263223a226c6f63616c2d74696d6572222c", // "hbsrc":"local-timer",
        "",
    );
    assert_ne!(legacy, token, "the edit must remove the field");
    let (hash, decoded) = RunSpec::from_token(&legacy).expect("a legacy token decodes");
    assert_eq!(hash, 0x0123_4567_89ab_cdef);
    assert_eq!(decoded, spec);
}
