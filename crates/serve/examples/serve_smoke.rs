//! End-to-end smoke test for `tpal-serve`, used by the CI `serve-smoke`
//! job: starts a server in-process, submits one TPAL-assembly program
//! and one IR (`.tpl`) program over real TCP, asserts the decode cache
//! hits on resubmission, and checks that the replay token reproduces
//! each run bit-for-bit; then sends a program that never halts to the
//! native runtime under a 1 000-step limit, a retired `policy`, a
//! `step_limit` above the service's, an rt `heartbeat` of 1 µs and a
//! simulated per-core-timer `heartbeat` of 0 (which once held an
//! executor for good), and checks that each is a prompt 400 and that the
//! server goes on serving.
//!
//! Exits nonzero (panics) on any violated expectation.

use tpal_serve::http::Client;
use tpal_serve::server::{ServeConfig, Server};
use tpal_trace::json::{escape, parse, Json};

/// fib in TPAL assembly (the repo's Appendix B.2 program).
const FIB_TPAL: &str = include_str!("../../../programs/fib.tpal");

/// A parallel-loop reduction in the task-parallel source language.
const SUM_TPL: &str = "fn main(n) {\n    s = 0;\n    parfor i in 0..n reduce(s: +, 0) { s = s + i; }\n    return s;\n}\n";

fn run_body(source: &str, ir: bool, cores: u64, sets: &[(&str, i64)]) -> String {
    let sets = sets
        .iter()
        .map(|(k, v)| format!("\"{}\":{v}", escape(k)))
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "{{\"source\":\"{}\",\"ir\":{ir},\"cores\":{cores},\"sets\":{{{sets}}}}}",
        escape(source)
    )
}

/// Extracts a string field and the `result` object from a response.
fn parsed(body: &str) -> Json {
    parse(body).unwrap_or_else(|e| panic!("bad response JSON: {e}\n{body}"))
}

fn field<'j>(doc: &'j Json, key: &str) -> &'j Json {
    doc.get(key)
        .unwrap_or_else(|| panic!("response missing `{key}`: {doc:?}"))
}

fn main() {
    let server = Server::start(ServeConfig::default()).expect("bind");
    let addr = server.addr();
    println!("serve_smoke: server on {addr}");
    let mut client = Client::connect(addr).expect("connect");

    // Submit both programs twice: first a miss, then a hit, with
    // byte-identical deterministic results.
    for (name, body) in [
        ("fib.tpal", run_body(FIB_TPAL, false, 2, &[("n", 15)])),
        ("sum.tpl", run_body(SUM_TPL, true, 4, &[("n", 1000)])),
    ] {
        let (status, first) = client.request("POST", "/run", &body).expect("request");
        assert_eq!(status, 200, "{name}: {first}");
        let first = parsed(&first);
        assert_eq!(field(&first, "cache").as_str(), Some("miss"), "{name}");

        let (status, second) = client.request("POST", "/run", &body).expect("request");
        assert_eq!(status, 200, "{name}: {second}");
        let second = parsed(&second);
        assert_eq!(
            field(&second, "cache").as_str(),
            Some("hit"),
            "{name}: resubmission must hit the decode cache"
        );
        assert_eq!(
            field(&first, "result"),
            field(&second, "result"),
            "{name}: hit and miss runs must agree bit-for-bit"
        );
        assert_eq!(
            field(&first, "replay"),
            field(&second, "replay"),
            "{name}: same submission, same token"
        );

        // Replay the token and compare the deterministic result object.
        let token = field(&first, "replay").as_str().expect("token").to_owned();
        let (status, replayed) = client
            .request("GET", &format!("/replay/{token}"), "")
            .expect("replay");
        assert_eq!(status, 200, "{name}: {replayed}");
        let replayed = parsed(&replayed);
        assert_eq!(
            field(&first, "result"),
            field(&replayed, "result"),
            "{name}: replay must reproduce the run bit-for-bit"
        );
        println!("serve_smoke: {name} ok (miss -> hit -> replay identical)");
    }

    let (status, stats) = client.request("GET", "/stats", "").expect("stats");
    assert_eq!(status, 200);
    let stats = parsed(&stats);
    assert_eq!(
        field(&stats, "cache").get("decodes").and_then(Json::as_num),
        Some(2.0),
        "two distinct programs, two decodes: {stats:?}"
    );
    assert_eq!(
        field(&stats, "cache")
            .get("evictions")
            .and_then(Json::as_num),
        Some(0.0),
        "two programs are far below the cache's capacity: {stats:?}"
    );

    // A runaway program is its own request's 400, not a wedged executor
    // (the CI job's `timeout-minutes` is the backstop if it ever is).
    let on_rt = |source: &str, rest: &str| {
        format!(
            "{{\"source\":\"{}\",\"substrate\":\"rt\",{rest}}}",
            escape(source)
        )
    };
    let spin = on_rt("spin: [.]\n    jump spin\n", "\"step_limit\":1000");
    let (status, body) = client.request("POST", "/run", &spin).expect("request");
    assert_eq!(status, 400, "spin: {body}");
    assert!(body.contains("step limit of 1000"), "spin: {body}");
    // Same pool shape, so the same pool worker the spin ran on.
    let fib = on_rt(FIB_TPAL, "\"sets\":{\"n\":15}");
    let (status, body) = client.request("POST", "/run", &fib).expect("request");
    assert_eq!(status, 200, "after spin: {body}");
    assert!(body.contains("\"f\":610"), "after spin: {body}");
    println!("serve_smoke: spin on rt is a 400 at the step limit; next request served");

    // Requests the service refuses outright, each followed by one it
    // serves.
    let over = tpal_serve::engine::SERVICE_STEP_LIMIT + 1;
    for (what, body, names) in [
        (
            "retired policy",
            run_body(FIB_TPAL, false, 2, &[("n", 15)]).replace(
                "\"cores\":2",
                "\"cores\":2,\"policy\":\"adaptive:40/locality\"",
            ),
            "`adaptive:40`",
        ),
        (
            "step_limit above the service's",
            on_rt(FIB_TPAL, &format!("\"step_limit\":{over}")),
            "step_limit",
        ),
        (
            "sim heartbeat of 0",
            run_body(FIB_TPAL, false, 2, &[("n", 15)])
                .replace("\"cores\":2", "\"cores\":2,\"heartbeat\":0"),
            "heartbeat",
        ),
        (
            "rt heartbeat of 1",
            on_rt(FIB_TPAL, "\"heartbeat\":1"),
            "heartbeat",
        ),
    ] {
        let (status, body) = client.request("POST", "/run", &body).expect("request");
        assert_eq!(status, 400, "{what}: {body}");
        assert!(body.contains(names), "{what}: {body}");
        let (status, body) = client.request("POST", "/run", &fib).expect("request");
        assert_eq!(status, 200, "after {what}: {body}");
        println!("serve_smoke: {what} is a 400; next request served");
    }

    let (status, body) = client.request("POST", "/shutdown", "").expect("shutdown");
    assert_eq!(status, 200, "{body}");
    server.join();
    println!("serve_smoke: drained and shut down cleanly");
}
