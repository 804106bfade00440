//! The four doors untrusted text comes in through — the assembler, the
//! `.tpl` frontend, the `/run` request parser and the replay-token
//! decoder — must answer any input with `Ok` or a typed error: never a
//! panic. Seeded byte flips, truncations, deletions and splices over a
//! corpus of real inputs; the seed is fixed, so a failure reproduces.
//!
//! A parsed program is also lowered (`.tpl`) or printed and reparsed
//! (`.tpal`): what a door lets in must not break the next stage.

use tpal::core::asm::{parse_program, print_program};
use tpal::ir::{lower, parse_ir, Mode};
use tpal::serve::proto::parse_run_request;
use tpal::serve::spec::RunSpec;

const TPL_SOURCES: [&str; 4] = [
    "fn main(n) {\n    s = 0;\n    parfor i in 0..n reduce(s: +, 0) { s = s + i + 987654321; }\n    return s;\n}\n",
    "fn fib(n) {\n    if n < 2 { return n; }\n    par {\n        a = fib(n - 1);\n        b = fib(n - 2);\n    }\n    return a + b;\n}\nfn main(n) {\n    r = fib(n);\n    return r + -9223372036854775808;\n}\n",
    "fn main(n) {\n    c = chmake(2);\n    detach produce(c, n);\n    s = 0;\n    k = 0;\n    while k < n {\n        v = chpop(c);\n        s = s + v;\n        k = k + 1;\n    }\n    return s;\n}\nfn produce(c, n) {\n    for i in 0..n {\n        chpush(c, i);\n    }\n    chclose(c);\n    return 0;\n}\n",
    "fn main(a, n) {\n    s = 0;\n    parfor i in 0..n reduce(s: +, 0) {\n        t = 0;\n        parfor j in 0..n reduce(t: max, -5) { t = max(t, a[i * n + j]); }\n        s = s + t;\n    }\n    return s;\n}\n",
];

const REQUESTS: [&str; 3] = [
    r#"{"source":"main: [.]\n  r := 6\n  r := r * 7\n  halt\n"}"#,
    r#"{"source":"fn main(n) { return n; }","ir":true,"mode":"expanded","substrate":"sim","cores":4,"linux":true,"heartbeat":3000,"policy":"adaptive:4/locality/random","tier":"decoded","seed":"18446744073709551615","step_limit":200000000,"sets":{"n":1000,"m":"-7"},"include":["trace","profile","metrics"]}"#,
    r#"{"source":"main: halt","substrate":"rt","workers":2,"heartbeat_source":"signal","sets":{}}"#,
];

/// xorshift64: the mutations are a pure function of the seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n.max(1) as u64) as usize
    }
}

/// One to three edits of `base`, kept valid UTF-8 (the doors take `&str`).
fn mutate(rng: &mut Rng, base: &str, splices: &[&str]) -> String {
    let mut bytes = base.as_bytes().to_vec();
    for _ in 0..1 + rng.below(3) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.below(bytes.len());
        match rng.below(5) {
            0 => bytes[at] ^= 1 << rng.below(8),
            1 => bytes.truncate(at),
            2 => {
                let end = (at + 1 + rng.below(16)).min(bytes.len());
                bytes.drain(at..end);
            }
            3 => bytes[at] = b"\0\n\"\\{}[]:;,.-%0987654321 \xc2\xb7\xff"[rng.below(28)],
            _ => {
                let splice = splices[rng.below(splices.len())];
                bytes.splice(at..at, splice.bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

const ASM_SPLICES: [&str; 14] = [
    " : ",
    " := ",
    "\n",
    " ; ",
    " [jtppt assoc; {a -> b}; main] ",
    " [prppt ",
    " mem[sp + 4294967296] ",
    " 99999999999999999999 ",
    " -9223372036854775808 ",
    " - ",
    " // ",
    " main ",
    " jralloc ",
    " \u{00B7} ",
];

#[test]
fn the_assembler_never_panics() {
    let mut corpus: Vec<String> = Vec::new();
    let mut shipped: Vec<_> = std::fs::read_dir("programs")
        .expect("programs/ exists")
        .map(|e| e.expect("readable entry").path())
        .collect();
    shipped.sort();
    for path in shipped {
        corpus.push(std::fs::read_to_string(path).expect("readable program"));
    }
    for tpl in TPL_SOURCES {
        let ir = parse_ir(tpl).expect("corpus parses");
        for mode in [Mode::Heartbeat, Mode::Eager { workers: 2 }] {
            corpus.push(print_program(
                &lower(&ir, mode).expect("corpus lowers").program,
            ));
        }
    }
    let mut rng = Rng(0x5EED_0001);
    let (mut accepted, mut rejected) = (0, 0);
    for i in 0..6000 {
        let text = mutate(&mut rng, &corpus[i % corpus.len()], &ASM_SPLICES);
        match parse_program(&text) {
            Ok(p) => {
                accepted += 1;
                let printed = print_program(&p);
                let again = parse_program(&printed)
                    .unwrap_or_else(|e| panic!("printed text does not reparse: {e}\n{printed}"));
                assert_eq!(print_program(&again), printed);
            }
            Err(e) => {
                rejected += 1;
                assert!(!e.msg.is_empty(), "an error says what is wrong");
            }
        }
    }
    assert!(
        accepted > 100 && rejected > 1000,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn the_tpl_frontend_never_panics() {
    let splices = [
        " fn ",
        " ( ",
        " ) ",
        " { ",
        " } ",
        " parfor ",
        " par ",
        " reduce(",
        " .. ",
        " = ",
        " 99999999999999999999 ",
        " -9223372036854775808 ",
        " 1_0_ ",
        " detach ",
        " f(x) ",
        " - ",
    ];
    let mut rng = Rng(0x5EED_0002);
    let (mut accepted, mut rejected) = (0, 0);
    for i in 0..6000 {
        let text = mutate(&mut rng, TPL_SOURCES[i % TPL_SOURCES.len()], &splices);
        match parse_ir(&text) {
            Ok(ir) => {
                accepted += 1;
                for mode in [Mode::Serial, Mode::Heartbeat, Mode::HeartbeatExpanded] {
                    // Unknown callees, arity mismatches and nested
                    // parallelism are typed errors too.
                    let _ = lower(&ir, mode);
                }
            }
            Err(e) => {
                rejected += 1;
                assert!(!e.msg.is_empty(), "an error says what is wrong");
            }
        }
    }
    assert!(
        accepted > 100 && rejected > 1000,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn the_request_parser_never_panics() {
    let splices = [
        "\"",
        "\\",
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "null",
        "true",
        "1e999",
        "-0",
        "\\u12",
        "\"sets\":{\"n\":99999999999999999999}",
        "\"cores\":0",
        "\"seed\":\"x\"",
    ];
    let mut rng = Rng(0x5EED_0003);
    let (mut accepted, mut rejected) = (0, 0);
    for i in 0..6000 {
        let body = mutate(&mut rng, REQUESTS[i % REQUESTS.len()], &splices);
        match parse_run_request(&body) {
            Ok(request) => {
                accepted += 1;
                // An accepted spec names a replayable run.
                let token = request.spec.token(request.src.content_hash());
                let (hash, spec) = RunSpec::from_token(&token).expect("a minted token decodes");
                assert_eq!(hash, request.src.content_hash());
                assert_eq!(spec, request.spec);
            }
            Err(e) => {
                rejected += 1;
                assert!(!e.is_empty(), "an error says what is wrong");
            }
        }
    }
    assert!(
        accepted > 100 && rejected > 1000,
        "{accepted} accepted, {rejected} rejected"
    );
}

#[test]
fn the_token_decoder_never_panics() {
    let mut big = RunSpec::sim(4)
        .set("main.n", 1_000)
        .set("we\"ird\\name\n", i64::MIN);
    big.heartbeat = Some(500);
    big.seed = u64::MAX;
    big.step_limit = Some(u64::MAX);
    let tokens = [
        RunSpec::sim(2).token(0),
        RunSpec::rt(3).set("n", 20).token(u64::MAX),
        big.token(0xdead_beef),
    ];
    // Hex digits, so that most edits survive the armour and reach the
    // JSON and field decoding behind it.
    let splices = [
        "22", "7b", "7d", "2c", "3a", "6e756c6c", "2d", "39393939", "5c", "g", "r1-",
    ];
    let mut rng = Rng(0x5EED_0004);
    let (mut accepted, mut rejected) = (0, 0);
    for i in 0..6000 {
        let token = mutate(&mut rng, &tokens[i % tokens.len()], &splices);
        match RunSpec::from_token(&token) {
            Ok((hash, spec)) => {
                accepted += 1;
                // Decoding canonicalizes: the spec's own token is a fixed point.
                let minted = spec.token(hash);
                assert_eq!(RunSpec::from_token(&minted), Ok((hash, spec)));
            }
            Err(e) => {
                rejected += 1;
                assert!(!e.is_empty(), "an error says what is wrong");
            }
        }
    }
    assert!(
        accepted > 20 && rejected > 1000,
        "{accepted} accepted, {rejected} rejected"
    );
}
