//! The six doors untrusted bytes come in through — the assembler, the
//! `.tpl` frontend, the `/run` request parser, the replay-token decoder,
//! the JSON parser under the last two and the HTTP framing in front of
//! them — must answer any input with `Ok` or a typed error: never a
//! panic. Seeded byte flips, truncations, deletions and splices over a
//! corpus of real inputs (the shipped `.tpal` programs, the benchmark
//! suite's `.tpl` programs and their lowerings among them); the seed is
//! fixed, so a failure reproduces.
//!
//! A parsed program is also lowered (`.tpl`) or printed and reparsed
//! (`.tpal`), a parsed document validated or read as a request: what a
//! door lets in must not break the next stage.

use tpal::core::asm::{parse_program, print_program};
use tpal::ir::{lower, parse_ir, Mode};
use tpal::serve::http::{read_request, ReadOutcome, MAX_BODY, MAX_HEADER};
use tpal::serve::proto::parse_run_request;
use tpal::serve::spec::RunSpec;
use tpal::trace::{chrome, json};

const TPL_SOURCES: [&str; 4] = [
    "fn main(n) {\n    s = 0;\n    parfor i in 0..n reduce(s: +, 0) { s = s + i + 987654321; }\n    return s;\n}\n",
    "fn fib(n) {\n    if n < 2 { return n; }\n    par {\n        a = fib(n - 1);\n        b = fib(n - 2);\n    }\n    return a + b;\n}\nfn main(n) {\n    r = fib(n);\n    return r + -9223372036854775808;\n}\n",
    "fn main(n) {\n    c = chmake(2);\n    detach produce(c, n);\n    s = 0;\n    k = 0;\n    while k < n {\n        v = chpop(c);\n        s = s + v;\n        k = k + 1;\n    }\n    return s;\n}\nfn produce(c, n) {\n    for i in 0..n {\n        chpush(c, i);\n    }\n    chclose(c);\n    return 0;\n}\n",
    "fn main(a, n) {\n    s = 0;\n    parfor i in 0..n reduce(s: +, 0) {\n        t = 0;\n        parfor j in 0..n reduce(t: max, -5) { t = max(t, a[i * n + j]); }\n        s = s + t;\n    }\n    return s;\n}\n",
];

/// The four sources above, then the workloads' shipped programs in
/// sorted order.
fn tpl_corpus() -> Vec<String> {
    let mut corpus: Vec<String> = TPL_SOURCES.iter().map(|s| s.to_string()).collect();
    let mut shipped: Vec<_> = std::fs::read_dir("crates/workloads/programs")
        .expect("crates/workloads/programs/ exists")
        .map(|e| e.expect("readable entry").path())
        .collect();
    shipped.sort();
    for path in shipped {
        corpus.push(std::fs::read_to_string(path).expect("readable program"));
    }
    corpus
}

const REQUESTS: [&str; 3] = [
    r#"{"source":"main: [.]\n  r := 6\n  r := r * 7\n  halt\n"}"#,
    r#"{"source":"fn main(n) { return n; }","ir":true,"mode":"expanded","substrate":"sim","cores":4,"linux":true,"heartbeat":3000,"policy":"eager/uniform","tier":"decoded","seed":"18446744073709551615","step_limit":200000000,"sets":{"n":1000,"m":"-7"},"include":["trace","profile","metrics"]}"#,
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
    String::from_utf8_lossy(&mutate_bytes(rng, base.as_bytes(), splices)).into_owned()
}

/// One to three edits of `base`, as raw bytes.
fn mutate_bytes(rng: &mut Rng, base: &[u8], splices: &[&str]) -> Vec<u8> {
    let mut bytes = base.to_vec();
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
    bytes
}

const JSON_SPLICES: [&str; 16] = [
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
    for tpl in tpl_corpus() {
        let ir = parse_ir(&tpl).expect("corpus parses");
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
    let corpus = tpl_corpus();
    let mut rng = Rng(0x5EED_0002);
    let (mut accepted, mut rejected) = (0, 0);
    for i in 0..6000 {
        let text = mutate(&mut rng, &corpus[i % corpus.len()], &splices);
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
    let mut rng = Rng(0x5EED_0003);
    let (mut accepted, mut rejected) = (0, 0);
    for i in 0..6000 {
        let body = mutate(&mut rng, REQUESTS[i % REQUESTS.len()], &JSON_SPLICES);
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

/// The Chrome trace of a traced `fib` run on two simulated cores.
fn fib_chrome_trace() -> String {
    let source = std::fs::read_to_string("programs/fib.tpal").expect("readable program");
    let program = parse_program(&source).expect("fib assembles");
    let mut config = tpal::sim::SimConfig::nautilus(2, 300);
    config.record_trace = true;
    let mut sim = tpal::sim::Sim::new(&program, config);
    sim.set_reg("n", 9).expect("fib takes n");
    let out = sim.run().expect("fib runs");
    chrome::chrome_json(&out.trace.expect("record_trace was set"))
}

#[test]
fn the_json_parser_never_panics() {
    // What the parser reads in production: a rendered trace (through
    // `chrome::validate`), a `/stats` body (clients and tests), and
    // request bodies (through `parse_run_request`).
    let trace = fib_chrome_trace();
    assert!(chrome::validate(&trace).is_ok(), "the corpus is valid");
    let stats = "{\"cache\":{\"decodes\":3,\"evictions\":0,\"hits\":41,\"misses\":3,\"programs\":3},\
                 \"completed\":44,\"draining\":false,\"ok\":true,\"queue_depth\":0,\"shed\":0,\"submitted\":44}";
    let mut corpus = vec![trace.as_str(), stats];
    corpus.extend(REQUESTS);
    let mut rng = Rng(0x5EED_0005);
    let (mut accepted, mut rejected) = (0, 0);
    for i in 0..3000 {
        let text = mutate(&mut rng, corpus[i % corpus.len()], &JSON_SPLICES);
        let parsed = json::parse(&text);
        // The exact reader accepts a subset, and the same values.
        match json::parse_exact(&text) {
            Ok(doc) => assert_eq!(Ok(&doc), parsed.as_ref()),
            Err(e) => assert!(e.starts_with("JSON parse error at char "), "{e}"),
        }
        match parsed {
            Ok(_) => {
                accepted += 1;
                if let Err(e) = chrome::validate(&text) {
                    assert!(!e.is_empty(), "an error says what is wrong");
                }
                if let Err(e) = parse_run_request(&text) {
                    assert!(!e.is_empty(), "an error says what is wrong");
                }
            }
            Err(e) => {
                rejected += 1;
                assert!(e.starts_with("JSON parse error at char "), "{e}");
            }
        }
    }
    assert!(
        accepted > 100 && rejected > 1000,
        "{accepted} accepted, {rejected} rejected"
    );
}

/// What `read_request` owes for the head it was given: the last
/// `Content-Length`, as the framing reads it.
fn declared_length(head: &[u8]) -> usize {
    String::from_utf8_lossy(head)
        .split("\r\n")
        .skip(1) // the request line
        .filter_map(|line| line.split_once(':'))
        .filter(|(name, _)| name.eq_ignore_ascii_case("content-length"))
        .filter_map(|(_, value)| value.trim().parse().ok())
        .last()
        .unwrap_or(0)
}

#[test]
fn the_http_reader_never_panics() {
    let frame = |method: &str, path: &str, body: &str| {
        format!(
            "{method} {path} HTTP/1.1\r\nHost: tpal-serve\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
    };
    let mut corpus: Vec<String> = REQUESTS
        .iter()
        .map(|body| frame("POST", "/run", body))
        .collect();
    corpus.push(frame(
        "GET",
        &format!("/replay/{}", RunSpec::sim(2).token(7)),
        "",
    ));
    corpus.push("GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n".to_owned());
    let splices = [
        "\r\n",
        "\r\n\r\n",
        "\n",
        ":",
        " ",
        "Content-Length: 7\r\n",
        "Content-Length: 99999999999999999999\r\n",
        "Content-Length: -1\r\n",
        "content-length:4194305\r\n",
        "Connection: close\r\n",
        "HTTP/1.1",
        "\u{00B7}",
    ];
    let mut rng = Rng(0x5EED_0006);
    let (mut accepted, mut rejected) = (0, 0);
    for i in 0..6000 {
        let bytes = mutate_bytes(&mut rng, corpus[i % corpus.len()].as_bytes(), &splices);
        let mut stream = std::io::Cursor::new(&bytes);
        match read_request(&mut stream) {
            ReadOutcome::Request(request) => {
                accepted += 1;
                let head = bytes
                    .windows(4)
                    .position(|w| w == b"\r\n\r\n")
                    .expect("an accepted head is terminated")
                    + 4;
                assert_eq!(request.body.len(), declared_length(&bytes[..head]));
                assert_eq!(
                    stream.position() as usize,
                    head + request.body.len(),
                    "the reader consumes its request and no more"
                );
                assert!(!request.method.is_empty() && !request.path.is_empty());
            }
            ReadOutcome::Malformed(why) => {
                rejected += 1;
                assert!(!why.is_empty(), "an error says what is wrong");
            }
            ReadOutcome::Closed => assert!(bytes.is_empty(), "only no bytes at all is a close"),
            ReadOutcome::Idle => unreachable!("a cursor never times out"),
        }
    }
    assert!(
        accepted > 100 && rejected > 1000,
        "{accepted} accepted, {rejected} rejected"
    );

    // The limits are refusals, not allocations: a head that never ends
    // stops at `MAX_HEADER`, a body is refused on its declared length
    // before a byte of it is reserved or read.
    let endless = vec![b'a'; 4 * MAX_HEADER];
    let mut stream = std::io::Cursor::new(&endless);
    assert!(
        matches!(read_request(&mut stream), ReadOutcome::Malformed(why) if why.contains("header"))
    );
    assert!(stream.position() as usize <= MAX_HEADER + 1);
    for length in [
        (MAX_BODY + 1).to_string(),
        "99999999999999999999".to_owned(),
    ] {
        let head = format!("POST /run HTTP/1.1\r\nContent-Length: {length}\r\n\r\nxyz");
        let mut stream = std::io::Cursor::new(head.as_bytes());
        assert!(matches!(
            read_request(&mut stream),
            ReadOutcome::Malformed(_)
        ));
        assert_eq!(stream.position() as usize, head.len() - 3, "{length}");
    }
    let head = format!("POST /run HTTP/1.1\r\nContent-Length: {MAX_BODY}\r\n\r\nshort");
    assert!(matches!(
        read_request(&mut std::io::Cursor::new(head.as_bytes())),
        ReadOutcome::Malformed(why) if why.contains("body read")
    ));
}
