//! Integration tests for `tpal-serve`: concurrent decode-cache
//! correctness, the deterministic-replay contract as a property test,
//! the TCP surface end-to-end, admission-control shedding, and the
//! graceful-drain contract.

use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::prelude::*;

use tpal_serve::engine::RunInclude;
use tpal_serve::http::Client;
use tpal_serve::server::{ServeConfig, Server};
use tpal_serve::spec::{ProgramSrc, RunSpec};
use tpal_serve::Engine;
use tpal_trace::json::{escape, parse, Json};

/// A distinct `.tpl` program per `k` — a parallel reduction whose
/// result (`k * Σ i`) certifies which program actually ran.
fn program(k: i64) -> ProgramSrc {
    ProgramSrc::tpl(
        format!(
            "fn main(n) {{\n    s = 0;\n    parfor i in 0..n reduce(s: +, 0) \
             {{ s = s + i * {k}; }}\n    return s;\n}}\n"
        ),
        "heartbeat",
    )
}

#[test]
fn concurrent_submitters_decode_each_program_exactly_once() {
    const PROGRAMS: i64 = 4;
    const THREADS_PER_PROGRAM: usize = 4;
    const RUNS_PER_THREAD: usize = 3;

    let engine = Arc::new(Engine::new());
    // Fresh single-threaded baseline results, one engine per run so no
    // cache state is shared with the system under test.
    let baseline: Vec<String> = (0..PROGRAMS)
        .map(|k| {
            let fresh = Engine::new();
            let (entry, hit) = fresh.cache().get_or_compile(&program(k));
            assert!(!hit);
            let spec = RunSpec::sim(3).set("n", 500);
            fresh
                .execute(&entry.unwrap(), &spec, RunInclude::default())
                .unwrap()
                .result
        })
        .collect();

    let handles: Vec<_> = (0..PROGRAMS)
        .flat_map(|k| (0..THREADS_PER_PROGRAM).map(move |_| k))
        .map(|k| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let mut results = Vec::new();
                for _ in 0..RUNS_PER_THREAD {
                    let (entry, _) = engine.cache().get_or_compile(&program(k));
                    let entry = entry.expect("program compiles");
                    let spec = RunSpec::sim(3).set("n", 500);
                    results.push(
                        engine
                            .execute(&entry, &spec, RunInclude::default())
                            .unwrap()
                            .result,
                    );
                }
                (k, results)
            })
        })
        .collect();
    for handle in handles {
        let (k, results) = handle.join().expect("submitter thread");
        for result in results {
            assert_eq!(
                result, baseline[k as usize],
                "cached run of program {k} must be bit-identical to a fresh run"
            );
        }
    }
    assert_eq!(
        engine.cache().decode_count(),
        PROGRAMS as u64,
        "each distinct program is decoded exactly once, however many submitters race"
    );
    assert_eq!(engine.cache().len(), PROGRAMS as usize);
    assert_eq!(
        engine.cache().hit_count() + engine.cache().miss_count(),
        (PROGRAMS as u64) * (THREADS_PER_PROGRAM as u64) * (RUNS_PER_THREAD as u64)
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The replay contract: for any run spec, decoding the token and
    /// re-executing reproduces the deterministic result object
    /// byte-for-byte.
    #[test]
    fn replay_token_reproduces_any_sim_run(
        cores in 1usize..5,
        heartbeat in prop_oneof![Just(None), (100u64..5_000).prop_map(Some)],
        seed in any::<u64>(),
        n in 0i64..26,
        linux in any::<bool>(),
        tier in proptest::sample::select(vec!["ref", "decoded", "threaded"]),
        promotion in proptest::sample::select(tpal_sched::Promotion::ALL),
    ) {
        let engine = Engine::new();
        let (entry, _) = engine.cache().get_or_compile(&program(3));
        let entry = entry.unwrap();
        let mut spec = RunSpec::sim(cores).set("n", n);
        if let tpal_serve::Substrate::Sim { linux: l, .. } = &mut spec.substrate {
            *l = linux;
        }
        spec.heartbeat = heartbeat;
        spec.seed = seed;
        spec.tier = tpal_core::tier::ExecTier::parse(tier).unwrap();
        spec.promotion = promotion;
        spec.canonicalize();

        let first = engine.execute(&entry, &spec, RunInclude::default()).unwrap();
        let token = spec.token(entry.hash());
        let (decoded, replayed) = engine.replay(&token).unwrap();
        prop_assert_eq!(&decoded, &spec, "token decodes to the spec that produced it");
        prop_assert_eq!(
            &replayed.result, &first.result,
            "replayed registers/stats/time must be bit-identical"
        );
    }
}

fn run_body(source: &str, extra: &str) -> String {
    format!("{{\"source\":\"{}\"{extra}}}", escape(source))
}

const SUM_TPL: &str =
    "fn main(n) {\n    s = 0;\n    parfor i in 0..n reduce(s: +, 0) { s = s + i; }\n    return s;\n}\n";

#[test]
fn tcp_round_trip_hit_miss_replay_and_errors() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let body = run_body(SUM_TPL, ",\"ir\":true,\"cores\":2,\"sets\":{\"n\":100}");

    let (status, first) = client.request("POST", "/run", &body).unwrap();
    assert_eq!(status, 200, "{first}");
    let first = parse(&first).unwrap();
    assert_eq!(first.get("cache").and_then(Json::as_str), Some("miss"));
    let result = first.get("result").expect("result object");
    assert_eq!(
        result
            .get("registers")
            .and_then(|r| r.get("result"))
            .and_then(Json::as_num),
        Some(4950.0),
        "sum 0..100 = 4950: {result:?}"
    );

    let (status, second) = client.request("POST", "/run", &body).unwrap();
    assert_eq!(status, 200);
    let second = parse(&second).unwrap();
    assert_eq!(second.get("cache").and_then(Json::as_str), Some("hit"));
    assert_eq!(first.get("result"), second.get("result"));

    let token = first
        .get("replay")
        .and_then(Json::as_str)
        .unwrap()
        .to_owned();
    let (status, replayed) = client
        .request("GET", &format!("/replay/{token}"), "")
        .unwrap();
    assert_eq!(status, 200);
    let replayed = parse(&replayed).unwrap();
    assert_eq!(first.get("result"), replayed.get("result"));

    // The native runtime over the same surface: registers agree with
    // the simulator's (the cross-substrate determinism contract).
    let rt_body = run_body(
        SUM_TPL,
        ",\"ir\":true,\"substrate\":\"rt\",\"workers\":2,\"sets\":{\"n\":100}",
    );
    let (status, rt) = client.request("POST", "/run", &rt_body).unwrap();
    assert_eq!(status, 200, "{rt}");
    let rt = parse(&rt).unwrap();
    assert_eq!(
        rt.get("cache").and_then(Json::as_str),
        Some("hit"),
        "same program, same cache entry"
    );
    assert_eq!(
        rt.get("result")
            .and_then(|r| r.get("registers"))
            .and_then(|r| r.get("result")),
        first
            .get("result")
            .and_then(|r| r.get("registers"))
            .and_then(|r| r.get("result")),
    );
    assert!(
        rt.get("rt_stats").is_some(),
        "rt runs report observational stats"
    );

    // Error paths: bad program (400), bad route (404), bad token (400),
    // unknown-program token (404).
    let (status, _) = client
        .request("POST", "/run", "{\"source\":\"nope\"}")
        .unwrap();
    assert_eq!(status, 400);
    let (status, _) = client.request("GET", "/nope", "").unwrap();
    assert_eq!(status, 404);
    let (status, _) = client.request("GET", "/replay/r1-zz", "").unwrap();
    assert_eq!(status, 400);
    let unknown = RunSpec::sim(1).token(0xffff);
    let (status, _) = client
        .request("GET", &format!("/replay/{unknown}"), "")
        .unwrap();
    assert_eq!(status, 404);

    let (status, health) = client.request("GET", "/healthz", "").unwrap();
    assert_eq!((status, health.as_str()), (200, "{\"ok\":true}"));

    server.shutdown();
    server.join();
}

const SPIN: &str = "spin: [.]\n    jump spin\n";
const FIB_TPL: &str = "fn fib(n) {\n    if n < 2 { return n; }\n    par {\n        \
    f1 = fib(n - 1);\n        f2 = fib(n - 2);\n    }\n    return f1 + f2;\n}\n";

/// A runaway program on the native runtime is that request's 400, in
/// bounded time, and the executor and pool worker that ran it serve the
/// next request: the step limit — the spec's, or the service's when the
/// spec has none — reaches the runtime's driver and clamps every
/// stretch. (It used not to: this program held its executor and pool
/// worker forever, so the body runs under a watchdog of its own.)
#[test]
fn a_spinning_rt_program_is_a_bounded_client_error_and_the_executor_lives() {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        // One executor: a wedged one would starve every later request.
        let server = Server::start(ServeConfig {
            executors: 1,
            ..ServeConfig::default()
        })
        .expect("bind");
        let mut client = Client::connect(server.addr()).expect("connect");

        let mut spin_is_refused = |extra: &str, limit: u64, within: Duration| {
            let start = Instant::now();
            let body = run_body(SPIN, &format!(",\"substrate\":\"rt\",\"workers\":1{extra}"));
            let (status, reply) = client.request("POST", "/run", &body).unwrap();
            assert_eq!(status, 400, "{reply}");
            assert!(
                reply.contains(&format!("step limit of {limit} instructions")),
                "{reply}"
            );
            assert!(start.elapsed() < within, "took {:?}", start.elapsed());
            let (status, health) = client.request("GET", "/healthz", "").unwrap();
            assert_eq!((status, health.as_str()), (200, "{\"ok\":true}"));
        };
        spin_is_refused(",\"step_limit\":1000", 1000, Duration::from_secs(2));
        spin_is_refused(
            "",
            tpal_serve::engine::SERVICE_STEP_LIMIT,
            Duration::from_secs(60),
        );

        // Same connection, same one-worker pool shape: still served.
        let body = run_body(
            FIB_TPL,
            ",\"ir\":true,\"substrate\":\"rt\",\"workers\":1,\"sets\":{\"n\":10}",
        );
        let (status, reply) = client.request("POST", "/run", &body).unwrap();
        assert_eq!(status, 200, "{reply}");
        assert!(reply.contains("\"result\":55"), "{reply}");

        server.shutdown();
        server.join();
        done.send(()).unwrap();
    });
    // A panic above drops `done`: that is a failure too, not a hang.
    finished
        .recv_timeout(Duration::from_secs(120))
        .expect("the spin program wedged the server (or an assertion above failed)");
}

/// Sends `bomb` `executors + 1` times on each substrate, asserting a 400
/// that says `message` each time, then asserts the service still runs
/// `fib` and answers `/healthz`. The body runs under a watchdog: a bomb
/// that kills an executor or a pool worker hangs rather than fails.
fn assert_bomb_is_a_client_error(bomb: &'static str, message: &'static str) {
    const EXECUTORS: usize = 2;
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let server = Server::start(ServeConfig {
            executors: EXECUTORS,
            ..ServeConfig::default()
        })
        .expect("bind");
        let mut client = Client::connect(server.addr()).expect("connect");
        for substrate in ["", ",\"substrate\":\"rt\",\"workers\":1"] {
            for _ in 0..=EXECUTORS {
                let body = run_body(bomb, substrate);
                let (status, reply) = client.request("POST", "/run", &body).unwrap();
                assert_eq!(status, 400, "{substrate}: {reply}");
                assert!(reply.contains(message), "{reply}");
            }
        }
        let body = run_body(FIB_TPL, ",\"ir\":true,\"sets\":{\"n\":10}");
        let (status, reply) = client.request("POST", "/run", &body).unwrap();
        assert_eq!(status, 200, "{reply}");
        assert!(reply.contains("\"result\":55"), "{reply}");
        let (status, health) = client.request("GET", "/healthz", "").unwrap();
        assert_eq!((status, health.as_str()), (200, "{\"ok\":true}"));

        server.shutdown();
        server.join();
        done.send(()).unwrap();
    });
    // A panic above drops `done`: that is a failure too, not a hang.
    finished
        .recv_timeout(Duration::from_secs(120))
        .expect("the bomb wedged the server (or an assertion above failed)");
}

/// A `halloc` that asks for more heap than the machine allows is that
/// request's 400 on both substrates, as often as it is sent, and the
/// service keeps answering. (It used to panic in the executor: the sim
/// request was a 503 and its executor never came back, and the rt one
/// killed a pool worker and hung.)
#[test]
fn a_halloc_bomb_is_a_client_error_and_every_executor_lives() {
    assert_bomb_is_a_client_error(
        "main: [.]\n    a := halloc 4611686018427387903\n    halt\n",
        "exceeds the heap limit",
    );
}

/// The same for a `salloc` past the stack limit. (It used to abort the
/// whole server: a failed allocation is not an unwinding panic.)
#[test]
fn a_salloc_bomb_is_a_client_error_and_every_executor_lives() {
    assert_bomb_is_a_client_error(
        "main: [.]\n    sp := snew\n    salloc sp, 4294967295\n    halt\n",
        "exceeds the stack limit",
    );
}

/// Executors share each native-runtime pool and block in their runs, so
/// a pool has a worker per executor: a quick request is answered while
/// a long one of the same pool shape is still running on the other
/// executor. (With one worker per pool the quick one would queue behind
/// the full service step limit.)
#[test]
fn overlapping_rt_requests_of_one_shape_run_side_by_side() {
    use std::sync::atomic::{AtomicBool, Ordering};

    let server = Server::start(ServeConfig {
        executors: 2,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    let spin_done = Arc::new(AtomicBool::new(false));
    let spinner = {
        let spin_done = Arc::clone(&spin_done);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect");
            let body = run_body(SPIN, ",\"substrate\":\"rt\",\"workers\":1");
            let reply = client.request("POST", "/run", &body).expect("spin reply");
            spin_done.store(true, Ordering::SeqCst);
            reply
        })
    };
    // Wait until an executor has taken the spin off the queue.
    let mut client = Client::connect(addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, stats) = client.request("GET", "/stats", "").unwrap();
        let stats = parse(&stats).unwrap();
        let field = |k: &str| stats.get(k).and_then(Json::as_num).unwrap_or(0.0);
        if field("submitted") >= 1.0 && field("queue_depth") == 0.0 {
            break;
        }
        assert!(Instant::now() < deadline, "spin never started: {stats:?}");
        std::thread::sleep(Duration::from_millis(2));
    }

    let body = run_body(
        FIB_TPL,
        ",\"ir\":true,\"substrate\":\"rt\",\"workers\":1,\"sets\":{\"n\":10}",
    );
    let (status, reply) = client.request("POST", "/run", &body).unwrap();
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("\"result\":55"), "{reply}");
    assert!(
        !spin_done.load(Ordering::SeqCst),
        "fib was answered only after the spin on the other executor ended"
    );

    let (status, reply) = spinner.join().expect("spinner thread");
    assert_eq!(status, 400, "{reply}");
    let limit = tpal_serve::engine::SERVICE_STEP_LIMIT;
    assert!(
        reply.contains(&format!("step limit of {limit} instructions")),
        "{reply}"
    );
    server.shutdown();
    server.join();
}

/// Input that nests without bound — a JSON body, a `.tpl` source, the
/// JSON inside a replay token — is that request's 400 with the ordinary
/// error body, not the process's stack: the same server, on the same
/// connection, answers the next request. So is a token whose fields do
/// not say what they should.
#[test]
fn hostile_nesting_and_token_fields_are_client_errors_and_the_server_lives() {
    use tpal_serve::spec::{hex_decode, hex_encode};

    let server = Server::start(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    // A token this server minted (its program is cached), edited below.
    let body = run_body(SUM_TPL, ",\"ir\":true,\"cores\":2,\"sets\":{\"n\":100}");
    let (status, reply) = client.request("POST", "/run", &body).unwrap();
    assert_eq!(status, 200, "{reply}");
    let reply = parse(&reply).unwrap();
    let token = reply.get("replay").and_then(Json::as_str).expect("token");
    let payload = String::from_utf8(hex_decode(&token["r1-".len()..]).unwrap()).unwrap();

    let mut refused = |method: &str, path: &str, body: &str, names: &str| {
        let (status, reply) = client.request(method, path, body).unwrap();
        assert_eq!(status, 400, "{reply}");
        let doc = parse(&reply).unwrap_or_else(|e| panic!("error body is JSON: {e}: {reply}"));
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        let error = doc
            .get("error")
            .and_then(Json::as_str)
            .expect("error field");
        assert!(error.contains(names), "{error}");
        let (status, health) = client.request("GET", "/healthz", "").unwrap();
        assert_eq!((status, health.as_str()), (200, "{\"ok\":true}"));
    };

    refused(
        "POST",
        "/run",
        &"[".repeat(1 << 20),
        "nesting deeper than 128",
    );
    refused(
        "POST",
        "/run",
        &"{\"a\":".repeat(200_000),
        "nesting deeper than 128",
    );
    let parens = format!(
        "fn main(n) {{ return {}n{}; }}",
        "(".repeat(100_000),
        ")".repeat(100_000)
    );
    refused(
        "POST",
        "/run",
        &run_body(&parens, ",\"ir\":true"),
        "nesting deeper than 64",
    );
    let chain = format!("fn main(n) {{ return n{}; }}", " + n".repeat(100_000));
    refused(
        "POST",
        "/run",
        &run_body(&chain, ",\"ir\":true"),
        "nesting deeper than 64",
    );
    // 60 000 hex digits of `[`: as much token as the header limit admits.
    refused(
        "GET",
        &format!("/replay/r1-{}", "5b".repeat(30_000)),
        "",
        "nesting deeper than 128",
    );

    for (from, to, names) in [
        ("\"linux\":false", "\"linux\":\"true\"", "`linux`"),
        ("\"sets\":{\"n\":\"100\"}", "\"sets\":[100]", "`sets`"),
        ("\"hb\":null", "\"hb\":1.5", "`hb`"),
        ("\"cores\":2", "\"cores\":2.5", "`cores`"),
        // Decoded as written, refused by the engine: not clamped to 1.
        ("\"cores\":2", "\"cores\":0", "cores must be in 1..="),
    ] {
        let edited = payload.replace(from, to);
        assert_ne!(edited, payload, "{from}");
        let path = format!("/replay/r1-{}", hex_encode(edited.as_bytes()));
        refused("GET", &path, "", names);
    }

    server.shutdown();
    server.join();
}

/// Every retired policy spelling — in a request or inside a token that
/// an older server minted — is that request's 400 naming the value, and
/// the server goes on serving. An rt request may still name either
/// victim.
#[test]
fn retired_policy_labels_are_client_errors_and_the_server_lives() {
    use tpal_serve::spec::{hex_decode, hex_encode};

    let server = Server::start(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let body = run_body(SUM_TPL, ",\"ir\":true,\"cores\":2,\"sets\":{\"n\":100}");
    let (status, reply) = client.request("POST", "/run", &body).unwrap();
    assert_eq!(status, 200, "{reply}");
    let reply = parse(&reply).unwrap();
    let token = reply.get("replay").and_then(Json::as_str).expect("token");
    let payload = String::from_utf8(hex_decode(&token["r1-".len()..]).unwrap()).unwrap();

    let mut refused = |method: &str, path: &str, body: &str, names: &str| {
        let (status, reply) = client.request(method, path, body).unwrap();
        assert_eq!(status, 400, "{path} {body}: {reply}");
        assert!(reply.contains(names), "{reply}");
        let (status, health) = client.request("GET", "/healthz", "").unwrap();
        assert_eq!((status, health.as_str()), (200, "{\"ok\":true}"));
    };
    for (label, names) in [
        ("adaptive:40/uniform", "`adaptive:40`"),
        ("eager/locality", "`locality`"),
        ("heartbeat/uniform/random", "`random`"),
        ("heartbeat/sequence", "`sequence`"),
    ] {
        let policy = format!(",\"ir\":true,\"cores\":2,\"policy\":\"{label}\"");
        refused("POST", "/run", &run_body(SUM_TPL, &policy), names);
        let edited = payload.replace(
            "\"policy\":\"heartbeat/uniform\"",
            &format!("\"policy\":\"{label}\""),
        );
        assert_ne!(edited, payload);
        let path = format!("/replay/r1-{}", hex_encode(edited.as_bytes()));
        refused("GET", &path, "", names);
    }

    for victim in ["uniform", "sequence"] {
        let rt = format!(
            ",\"ir\":true,\"substrate\":\"rt\",\"policy\":\"eager/{victim}\",\"sets\":{{\"n\":100}}"
        );
        let (status, reply) = client
            .request("POST", "/run", &run_body(SUM_TPL, &rt))
            .unwrap();
        assert_eq!(status, 200, "{reply}");
        assert!(reply.contains("\"result\":4950"), "{reply}");
    }
    server.shutdown();
    server.join();
}

/// A step limit above the service's and an rt ♥ below the floor are
/// refused by name before anything runs; the server then answers
/// `/healthz` and an ordinary rt request.
#[test]
fn service_numeric_bounds_are_client_errors_and_the_server_lives() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let over = tpal_serve::engine::SERVICE_STEP_LIMIT + 1;
    for (extra, names) in [
        (format!(",\"step_limit\":{over}"), "step_limit"),
        (
            format!(",\"substrate\":\"rt\",\"step_limit\":\"{over}\""),
            "step_limit",
        ),
        (
            ",\"substrate\":\"rt\",\"heartbeat\":1".to_owned(),
            "heartbeat",
        ),
        (
            ",\"substrate\":\"rt\",\"heartbeat\":19".to_owned(),
            "heartbeat",
        ),
    ] {
        let body = run_body(
            FIB_TPL,
            &format!(",\"ir\":true,\"sets\":{{\"n\":10}}{extra}"),
        );
        let start = Instant::now();
        let (status, reply) = client.request("POST", "/run", &body).unwrap();
        assert_eq!(status, 400, "{extra}: {reply}");
        assert!(reply.contains(names), "{extra}: {reply}");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "{extra}: refused late"
        );
        let (status, health) = client.request("GET", "/healthz", "").unwrap();
        assert_eq!((status, health.as_str()), (200, "{\"ok\":true}"));
    }
    let body = run_body(
        FIB_TPL,
        ",\"ir\":true,\"substrate\":\"rt\",\"heartbeat\":20,\"sets\":{\"n\":10}",
    );
    let (status, reply) = client.request("POST", "/run", &body).unwrap();
    assert_eq!(status, 200, "{reply}");
    assert!(reply.contains("\"result\":55"), "{reply}");
    server.shutdown();
    server.join();
}

/// A replay token naming a program this server never compiled must get
/// a *structured* 404 body: the program hash itself plus a hint that
/// only re-`POST`ing the source can repopulate the cache (tokens carry
/// the run spec, never the source).
#[test]
fn unknown_replay_token_error_is_structured() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let token = RunSpec::sim(1).token(0xDEAD_BEEF_0BAD_CAFE);
    let (status, body) = client
        .request("GET", &format!("/replay/{token}"), "")
        .unwrap();
    assert_eq!(status, 404, "{body}");
    let doc = parse(&body).unwrap();
    assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
    assert_eq!(
        doc.get("error").and_then(Json::as_str),
        Some("unknown program")
    );
    assert_eq!(
        doc.get("program").and_then(Json::as_str),
        Some("deadbeef0badcafe"),
        "the body names the missing hash as a field, not just prose"
    );
    let hint = doc.get("hint").and_then(Json::as_str).expect("hint field");
    assert!(
        hint.contains("POST"),
        "hint tells the client to re-POST: {hint}"
    );
    assert!(
        hint.contains("deadbeef0badcafe"),
        "hint names the hash: {hint}"
    );

    server.shutdown();
    server.join();
}

/// An infinite loop bounded only by `step_limit`: a knob for making a
/// run occupy an executor for a predictable number of steps.
fn spinner_body(steps: u64) -> String {
    run_body(
        "fn main() { x = 0; while 0 == 0 { x = x + 1; } return x; }",
        &format!(",\"ir\":true,\"step_limit\":{steps}"),
    )
}

#[test]
fn full_queue_sheds_with_429_and_retry_after() {
    let server = Server::start(ServeConfig {
        queue_cap: 1,
        executors: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    // Deterministic saturation, one step at a time: occupy the single
    // executor, confirm the job was popped, then fill the single queue
    // slot and confirm it is resident. Each occupier blocks on its
    // reply, so they run on their own threads.
    let mut stats_client = Client::connect(addr).expect("connect");
    let mut wait_for = |what: &str, cond: &dyn Fn(f64, f64, f64) -> bool| {
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let (_, stats) = stats_client.request("GET", "/stats", "").unwrap();
            let stats = parse(&stats).unwrap();
            let field = |k: &str| stats.get(k).and_then(Json::as_num).unwrap_or(0.0);
            if cond(field("submitted"), field("queue_depth"), field("completed")) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "never reached `{what}`: {stats:?}"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    let occupy = move || {
        let mut client = Client::connect(addr).expect("connect");
        client
            .request("POST", "/run", &spinner_body(60_000_000))
            .expect("occupier reply")
    };
    let first = std::thread::spawn(occupy);
    wait_for("executor busy", &|submitted, depth, completed| {
        submitted >= 1.0 && depth == 0.0 && completed == 0.0
    });
    let second = std::thread::spawn(occupy);
    wait_for("queue slot filled", &|_, depth, _| depth >= 1.0);
    let occupiers = [first, second];

    // Queue full: the next submission sheds immediately.
    let (status, headers, body) = stats_client
        .request_full("POST", "/run", &spinner_body(1))
        .unwrap();
    assert_eq!(status, 429, "{body}");
    assert_eq!(
        headers
            .iter()
            .find(|(name, _)| name == "retry-after")
            .map(|(_, v)| v.as_str()),
        Some("1"),
        "shed responses carry Retry-After: {headers:?}"
    );
    assert!(body.contains("queue full"), "{body}");

    // The occupiers were admitted and still finish (with the step-limit
    // fault — a 400, but a *reply*, not a drop).
    for occupier in occupiers {
        let (status, body) = occupier.join().expect("occupier thread");
        assert_eq!(status, 400, "{body}");
        assert!(
            body.contains("step limit") || body.contains("StepLimit"),
            "{body}"
        );
    }
    server.shutdown();
    server.join();
}

#[test]
fn shutdown_drains_every_admitted_run() {
    let server = Server::start(ServeConfig {
        queue_cap: 16,
        executors: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    // Admit a backlog of real runs on one executor.
    let submitters: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                // A submitter scheduled after the drain finds the listener
                // gone: refused like a 503, not dropped.
                let Ok(mut client) = Client::connect(addr) else {
                    return (503, String::from("connection refused"));
                };
                let body = run_body(
                    SUM_TPL,
                    &format!(",\"ir\":true,\"cores\":2,\"sets\":{{\"n\":{}}}", 200 + i),
                );
                client
                    .request("POST", "/run", &body)
                    .expect("admitted run must get a reply")
            })
        })
        .collect();

    // Let at least one get admitted, then start the drain.
    let mut client = Client::connect(addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (_, stats) = client.request("GET", "/stats", "").unwrap();
        let stats = parse(&stats).unwrap();
        if stats.get("submitted").and_then(Json::as_num).unwrap_or(0.0) >= 1.0 {
            break;
        }
        assert!(Instant::now() < deadline, "no run admitted: {stats:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
    let (status, body) = client.request("POST", "/shutdown", "").unwrap();
    assert_eq!(status, 200, "{body}");

    // Every run admitted before the drain completes with a real
    // response; late ones were refused outright (503), never dropped.
    let mut completed = 0;
    for submitter in submitters {
        let (status, body) = submitter.join().expect("submitter thread");
        assert!(
            status == 200 || status == 503,
            "unexpected {status}: {body}"
        );
        if status == 200 {
            completed += 1;
        }
    }
    assert!(completed >= 1, "at least the admitted backlog completed");
    server.join();

    // The drained server is gone: new connections are refused.
    assert!(
        std::net::TcpStream::connect(addr).is_err() || {
            // The OS may still accept into the dead listener's backlog;
            // a request on such a connection must at least fail.
            let mut c = Client::connect(addr).unwrap();
            c.request("GET", "/healthz", "").is_err()
        },
        "server must stop serving after the drain"
    );
}
