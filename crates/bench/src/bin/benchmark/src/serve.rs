//! The service workloads (`serve_hot`, `serve_cold`): an in-process
//! `Server::start(ServeConfig::default())` driven over loopback by at
//! most two keep-alive connections.
//!
//! * `serve_hot` — eight resident programs (four sources, each as
//!   `.tpl` text and as printed `.tpal` text), argument values and
//!   request order drawn from `--seed`: every request hits the cache.
//! * `serve_cold` — every request carries a program the server has
//!   never seen (a salted constant, alternately `.tpl` and `.tpal`):
//!   every request compiles.
//!
//! Rates and latency limits are constants, never calibrated, so parent
//! and change see identical load. The open loop times each request
//! from when it was *due*, and reports how late the generator ran.
//! Every response's `result` must be byte-equal to an in-process
//! `Engine::execute` of the same spec.

use std::io::Cursor;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpal_core::asm::{parse_program, print_program};
use tpal_core::tier::{ExecBackend, ExecTier};
use tpal_ir::{lower, parse_ir, Mode};
use tpal_serve::engine::Engine;
use tpal_serve::http::{read_request, write_response, Client, ReadOutcome};
use tpal_serve::proto::parse_run_request;
use tpal_serve::server::{ServeConfig, Server};
use tpal_serve::spec::Substrate;
use tpal_trace::json::{escape, parse, Json};

use crate::affinity;
use crate::harness::{
    peak_rss_mb, rate, timed_setups, values, Budget, Metrics, Outcome, Reference, Sample, Tally,
};
use crate::registry::WorkloadDef;
use crate::spans::{Attribution, Recorder};
use crate::stats::{median, quantile, ratio, segmented_quantile, Rng, Summary};

/// Load-generating connections (= `nproc` of the reference host).
pub const CONNECTIONS: usize = 2;
/// Simulated cores of every submitted run.
pub const SIM_CORES: usize = 2;
/// Requests per tail segment (ten samples beyond the 99th percentile).
const SEGMENT: usize = 1000;
/// Argument values per resident program.
const ARGS_PER_PROGRAM: usize = 8;
/// The stand-in constant the `.tpal` templates carry where the salt goes.
const SALT_MARK: i64 = 987_654_321;
/// The reference kernel runs before every this-many-th request of a
/// connection (it costs half a hot request).
const REFERENCE_EVERY: u64 = 4;
/// The closed loops alternate in this many blocks each.
const BLOCKS: u64 = 4;
/// The offered rates of the traced run's ladder.
const LADDER_RPS: [f64; 4] = [500.0, 1000.0, 2000.0, 4000.0];

/// The constants that differ between the two workloads.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    pub hot: bool,
    /// Open-loop offered rate, requests per second.
    pub open_rps: f64,
    /// The latency limit: slower open-loop requests are counted
    /// (`serve.open.over_limit`), and a ladder step holds only if its
    /// p99 stays under it.
    pub limit_us: f64,
    /// What a closed loop completes per second on the reference host,
    /// roughly: it sizes those phases by request count, so memory growth
    /// does not depend on host speed.
    pub closed_rps: f64,
}

pub fn load(def: &WorkloadDef) -> Load {
    if def.name == "serve_hot" {
        Load {
            hot: true,
            open_rps: 1000.0,
            limit_us: 5_000.0,
            closed_rps: 5_000.0,
        }
    } else {
        Load {
            hot: false,
            open_rps: 600.0,
            limit_us: 20_000.0,
            closed_rps: 3_500.0,
        }
    }
}

/// The four sources. `{salt}` is a constant folded into the result, so
/// each salt is a distinct program doing identical work.
const SOURCES: [(&str, &str, i64); 4] = [
    (
        "sum",
        "fn main(n) {\n    s = 0;\n    parfor i in 0..n reduce(s: +, 0) { s = s + i + {salt}; }\n    return s;\n}\n",
        4000,
    ),
    (
        "fib",
        "fn fib(n) {\n    if n < 2 { return n; }\n    par {\n        a = fib(n - 1);\n        b = fib(n - 2);\n    }\n    return a + b;\n}\nfn main(n) {\n    r = fib(n);\n    return r + {salt};\n}\n",
        12,
    ),
    (
        "pipeline",
        "fn main(n) {\n    c = chmake(2);\n    detach produce(c, n);\n    s = {salt};\n    k = 0;\n    while k < n {\n        v = chpop(c);\n        s = s + v;\n        k = k + 1;\n    }\n    return s;\n}\nfn produce(c, n) {\n    for i in 0..n {\n        chpush(c, i);\n    }\n    chclose(c);\n    return 0;\n}\n",
        150,
    ),
    (
        "rows",
        "fn main(n) {\n    s = 0;\n    parfor i in 0..n reduce(s: +, 0) {\n        t = {salt};\n        for j in 0..16 { t = t + i * j; }\n        s = s + t;\n    }\n    return s;\n}\n",
        300,
    ),
];
/// The cold workload's small run.
const COLD_N: i64 = 500;

fn tpl_text(template: &str, salt: i64) -> String {
    template.replace("{salt}", &salt.to_string())
}

/// The `.tpal` text of a `.tpl` source: lowered, then printed. The
/// argument register is the lowered name of `n`.
fn tpal_text(template: &str, salt: i64) -> (String, String) {
    let ir = parse_ir(&tpl_text(template, salt)).expect("benchmark source parses");
    let lowered = lower(&ir, Mode::Heartbeat).expect("benchmark source lowers");
    (print_program(&lowered.program), lowered.param_reg("n"))
}

fn request_body(source: &str, ir: bool, param: &str, n: i64, sim_seed: u64) -> String {
    format!(
        "{{\"source\":\"{}\",\"ir\":{ir},\"cores\":{SIM_CORES},\"seed\":\"{sim_seed}\",\
         \"sets\":{{\"{param}\":{n}}}}}",
        escape(source)
    )
}

/// A request the generator can send, and (hot) what must come back.
pub struct Prepared {
    pub body: String,
    /// The canonical `result` object, when known ahead of time.
    pub expected: Option<String>,
}

/// Everything `--seed` decides about the traffic: program salts,
/// argument values, the simulator seed, the request order.
pub struct Traffic {
    pub hot: bool,
    seed: u64,
    /// Hot: every (program, argument) pair, expected results attached.
    table: Vec<Prepared>,
    /// Cold: the `sum` program as `.tpl` template and `.tpal` template.
    cold_tpl: &'static str,
    cold_tpal: String,
    cold_tpal_param: String,
}

impl Traffic {
    /// Generates the traffic; hot expected results come from `engine`.
    pub fn new(hot: bool, seed: u64, engine: &Engine, tally: &mut Tally) -> Traffic {
        let mut rng = Rng::new(seed ^ 0x7e57_ab1e);
        let mut table = Vec::new();
        if hot {
            for (_, template, nominal) in &SOURCES {
                let salt = 1 + rng.below(1_000_000) as i64;
                let tpl = tpl_text(template, salt);
                let (tpal, tpal_param) = tpal_text(template, salt);
                let args: Vec<i64> = (0..ARGS_PER_PROGRAM)
                    .map(|_| nominal - nominal / 10 + rng.below(*nominal as u64 / 5 + 1) as i64)
                    .collect();
                for (text, ir, param) in [(&tpl, true, "n"), (&tpal, false, tpal_param.as_str())] {
                    for &n in &args {
                        let body = request_body(text, ir, param, n, seed);
                        let expected = in_process_result(engine, &body);
                        tally.op(expected.clone().map(drop));
                        table.push(Prepared {
                            body,
                            expected: expected.ok(),
                        });
                    }
                }
            }
        }
        let (cold_tpal, cold_tpal_param) = tpal_text(SOURCES[0].1, SALT_MARK);
        Traffic {
            hot,
            seed,
            table,
            cold_tpl: SOURCES[0].1,
            cold_tpal,
            cold_tpal_param,
        }
    }

    /// The request with global index `index`: a pure function of the
    /// seed and the index. Cold indices are never reused within a run,
    /// so no cold program is seen twice.
    pub fn body(&self, index: u64) -> (String, Option<&str>) {
        if self.hot {
            let pick = Rng::new(self.seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .below(self.table.len() as u64);
            let p = &self.table[pick as usize];
            (p.body.clone(), p.expected.as_deref())
        } else {
            let salt = self.cold_salt(index);
            let body = if index.is_multiple_of(2) {
                request_body(&tpl_text(self.cold_tpl, salt), true, "n", COLD_N, self.seed)
            } else {
                let text = self
                    .cold_tpal
                    .replace(&SALT_MARK.to_string(), &salt.to_string());
                request_body(&text, false, &self.cold_tpal_param, COLD_N, self.seed)
            };
            (body, None)
        }
    }

    pub fn cold_salt(&self, index: u64) -> i64 {
        (((self.seed % 1024) << 44) + 1_000_000 + index) as i64
    }

    /// One request per resident program (hot) or eight fresh ones (cold).
    fn warm_up_indices(&self) -> Vec<usize> {
        if self.hot {
            (0..self.table.len()).step_by(ARGS_PER_PROGRAM).collect()
        } else {
            (0..8).collect()
        }
    }
}

/// Index spaces of the phases, so cold requests never repeat.
const LANE: u64 = 1 << 32;
fn lane(phase: u64, connection: usize) -> u64 {
    (phase * 8 + connection as u64) * LANE
}

/// Runs a request body through a private engine, as the server would:
/// the expected `result`.
fn in_process_result(engine: &Engine, body: &str) -> Result<String, String> {
    let request = parse_run_request(body)?;
    let (entry, _) = engine.cache().get_or_compile(&request.src);
    let entry = entry?;
    engine
        .execute(&entry, &request.spec, request.include)
        .map(|out| out.result)
        .map_err(|e| e.to_string())
}

/// The `result` object of a `/run` response, as the server rendered it.
fn result_of(response: &str) -> Option<&str> {
    let (_, rest) = response.split_once(",\"result\":")?;
    rest.rsplit_once(",\"wall_us\":").map(|(result, _)| result)
}

/// A 200 whose cache verdict matches the workload and whose result, if
/// already known, is byte-equal.
fn check_response(
    hot: bool,
    status: u16,
    response: &str,
    expected: Option<&str>,
) -> Result<(), String> {
    if status != 200 {
        return Err(format!("status {status}: {response}"));
    }
    let verdict = if hot { "\"hit\"" } else { "\"miss\"" };
    if !response.starts_with(&format!("{{\"cache\":{verdict}")) {
        return Err(format!("expected cache {verdict}: {response}"));
    }
    match (result_of(response), expected) {
        (None, _) => Err(format!("no result in {response}")),
        (Some(got), Some(want)) if got != want => {
            Err(format!("result differs: got {got}, want {want}"))
        }
        _ => Ok(()),
    }
}

/// One request over the wire, checked. Cold results are kept for the
/// check after the timed phase (`pending`).
fn send(
    client: &mut Client,
    traffic: &Traffic,
    index: u64,
    body: &str,
    expected: Option<&str>,
    pending: &mut Vec<(u64, String)>,
    rec: &mut Recorder,
) -> Result<(), String> {
    let reply = rec.span("serve.http.Client::request", |_| {
        client.request("POST", "/run", body)
    });
    rec.span("bench.check", |_| {
        let (status, response) = reply.map_err(|e| format!("socket: {e}"))?;
        check_response(traffic.hot, status, &response, expected)?;
        if expected.is_none() {
            let result = result_of(&response).expect("checked above").to_owned();
            pending.push((index, result));
        }
        Ok(())
    })
}

/// What one connection's thread brings back from a phase.
struct LaneResult {
    /// (global index, latency in us).
    latency_us: Vec<(u64, Sample)>,
    late_us: Vec<f64>,
    /// Paired in-process chain times, in us.
    in_process_us: Vec<Sample>,
    /// Whole request cycles of a closed loop, in seconds.
    cycles: Vec<Sample>,
    tally: Tally,
    pending: Vec<(u64, String)>,
    rec: Recorder,
    reference: Reference,
}

/// A running server and its warm connections.
struct Service {
    load: Load,
    server: Server,
    clients: Vec<Client>,
    traffic: Traffic,
    /// The benchmark's own engine: expected results, in-process chain.
    engine: Engine,
    /// The kernel time the watcher of the server's CPU publishes.
    server_level: Option<Arc<AtomicU64>>,
    replay_us: Vec<f64>,
}

/// The CPUs of (the load generator, the server): the first and the last
/// this process may use. With one CPU they coincide.
fn placement() -> Option<(usize, usize)> {
    let cpus = affinity::allowed_cpus();
    Some((*cpus.first()?, *cpus.last()?))
}

fn set_up(load: Load, seed: u64, awake: &affinity::KeepAwake, tally: &mut Tally) -> Service {
    let engine = Engine::new();
    let traffic = Traffic::new(load.hot, seed, &engine, tally);
    // The server's threads inherit this thread's mask as they start;
    // afterwards this thread joins the load generator's CPU.
    if let Some((client_cpu, server_cpu)) = placement() {
        affinity::pin_current_thread(&[server_cpu]);
        let server = Server::start(ServeConfig::default());
        affinity::pin_current_thread(&[client_cpu]);
        let mut service = connect(
            load,
            server.expect("bind a loopback port"),
            traffic,
            engine,
            tally,
        );
        service.server_level = awake.level_of(server_cpu);
        return service;
    }
    let server = Server::start(ServeConfig::default()).expect("bind a loopback port");
    connect(load, server, traffic, engine, tally)
}

fn connect(
    load: Load,
    server: Server,
    traffic: Traffic,
    engine: Engine,
    tally: &mut Tally,
) -> Service {
    let hot = traffic.hot;
    let mut clients: Vec<Client> = (0..=CONNECTIONS)
        .map(|_| Client::connect(server.addr()).expect("connect to the server"))
        .collect();

    // Warm-up: fill the cache (hot) and the connections, and check one
    // `/replay/<token>` round trip per program against the first answer.
    let mut replay_us = Vec::new();
    let mut rec = Recorder::new(Instant::now(), false);
    for (k, which) in traffic.warm_up_indices().into_iter().enumerate() {
        let (body, expected) = if hot {
            let p = &traffic.table[which];
            (p.body.clone(), p.expected.clone())
        } else {
            let (body, _) = traffic.body(lane(0, 0) + which as u64);
            let expected = in_process_result(&engine, &body);
            tally.op(expected.clone().map(drop));
            (body, expected.ok())
        };
        let client = &mut clients[k % (CONNECTIONS + 1)];
        let first = client.request("POST", "/run", &body);
        tally.op(match &first {
            // The first sight of a program is a miss on either workload.
            Ok((status, response)) => check_response(false, *status, response, expected.as_deref()),
            Err(e) => Err(format!("socket: {e}")),
        });
        let Ok((_, response)) = first else { continue };
        let token = parse(&response)
            .ok()
            .and_then(|doc| doc.get("replay").and_then(Json::as_str).map(str::to_owned));
        let start = Instant::now();
        let replayed = token
            .ok_or_else(|| "no replay token".to_owned())
            .and_then(|t| {
                client
                    .request("GET", &format!("/replay/{t}"), "")
                    .map_err(|e| format!("socket: {e}"))
            });
        replay_us.push(start.elapsed().as_secs_f64() * 1e6);
        tally.op(replayed.and_then(|(status, replay)| {
            let again = replay
                .split_once(",\"result\":")
                .map(|(_, r)| r.trim_end_matches('}'));
            let first = result_of(&response).map(|r| r.trim_end_matches('}'));
            if status == 200 && again.is_some() && again == first {
                Ok(())
            } else {
                Err(format!("replay differs: {replay} vs {response}"))
            }
        }));
        if hot {
            // Every connection sees every resident program once.
            for client in &mut clients {
                let mut pending = Vec::new();
                tally.op(send(
                    client,
                    &traffic,
                    0,
                    &body,
                    expected.as_deref(),
                    &mut pending,
                    &mut rec,
                ));
            }
        }
    }
    Service {
        load,
        server,
        clients,
        traffic,
        engine,
        server_level: None,
        replay_us,
    }
}

impl Service {
    /// `GET /stats` as (hits, misses, decodes, submitted, completed, shed).
    fn stats(&mut self) -> [f64; 6] {
        let (_, body) = self.clients[CONNECTIONS]
            .request("GET", "/stats", "")
            .expect("GET /stats");
        let doc = parse(&body).expect("stats JSON");
        let num = |j: Option<&Json>, k: &str| j.and_then(|j| j.get(k)).and_then(Json::as_num);
        let cache = doc.get("cache");
        [
            num(cache, "hits"),
            num(cache, "misses"),
            num(cache, "decodes"),
            num(Some(&doc), "submitted"),
            num(Some(&doc), "completed"),
            num(Some(&doc), "shed"),
        ]
        .map(|v| v.unwrap_or(0.0))
    }

    /// Open loop: request `i` is due at `start + i / rate` and goes out
    /// on connection `i % CONNECTIONS`; latency runs from the due time.
    fn open_loop(
        &mut self,
        phase: u64,
        rate: f64,
        total: u64,
        spans: Option<Instant>,
    ) -> Vec<LaneResult> {
        let traffic = &self.traffic;
        let server_level = &self.server_level;
        let start = Instant::now() + Duration::from_millis(20);
        std::thread::scope(|scope| {
            let handles: Vec<_> = self.clients[..CONNECTIONS]
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        let mut out = LaneResult::new(spans, server_level);
                        let mut i = c as u64;
                        while i < total {
                            let index = lane(phase, 0) + i;
                            let (body, expected) = traffic.body(index);
                            if (i / CONNECTIONS as u64).is_multiple_of(REFERENCE_EVERY) {
                                out.reference.tick();
                            }
                            let due = start + Duration::from_secs_f64(i as f64 / rate);
                            wait_until(due);
                            out.late_us.push(due.elapsed().as_secs_f64() * 1e6);
                            let sent = out.rec.span("bench.serve_request", |rec| {
                                send(
                                    client,
                                    traffic,
                                    index,
                                    &body,
                                    expected,
                                    &mut out.pending,
                                    rec,
                                )
                            });
                            let latency_us = due.elapsed().as_secs_f64() * 1e6;
                            if sent.is_ok() {
                                out.latency_us.push((i, out.reference.sample(latency_us)));
                            }
                            out.tally.op(sent);
                            i += CONNECTIONS as u64;
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load-generator thread"))
                .collect()
        })
    }

    /// Closed loop on the first `connections` connections: each sends
    /// its next request when the previous one has answered, until
    /// `requests` are done between them (or, on a host much slower than
    /// the reference, four times the time they should take has passed).
    /// `block` numbers the calls of one phase, so cold requests never
    /// repeat. With `spans`, every other request records spans. With
    /// `pair_in_process`, each request is followed by one through the
    /// in-process chain on the same thread, so the two are measured
    /// under the same disturbance.
    fn closed_loop(
        &mut self,
        (phase, block): (u64, u64),
        connections: usize,
        requests: u64,
        spans: Option<Instant>,
        pair_in_process: bool,
    ) -> Vec<LaneResult> {
        let per_connection = (requests / connections as u64).max(1);
        let length = Duration::from_secs_f64(4.0 * requests as f64 / self.load.closed_rps);
        let engine = &self.engine;
        let traffic = &self.traffic;
        let start = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self.clients[..connections]
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    scope.spawn(move || {
                        // Held against this thread's own yardstick: a closed
                        // loop keeps the server's CPU busy, so the watcher there
                        // (idle class) hardly runs and its figure goes stale.
                        let mut out = LaneResult::new(spans, &None);
                        let mut k = 0u64;
                        while k < per_connection && start.elapsed() < length {
                            if k.is_multiple_of(REFERENCE_EVERY) {
                                out.reference.tick();
                            }
                            let cycle = Instant::now();
                            let index = lane(phase, c) + (block << 24) + k;
                            let (body, expected) = traffic.body(index);
                            // In pairs, so that the cold workload's alternating `.tpl`
                            // and `.tpal` requests fall on both sides alike.
                            out.rec.set_enabled(spans.is_some() && (k / 2) % 2 == 1);
                            let sent_at = Instant::now();
                            let sent = out.rec.span("bench.serve_request", |rec| {
                                send(
                                    client,
                                    traffic,
                                    index,
                                    &body,
                                    expected,
                                    &mut out.pending,
                                    rec,
                                )
                            });
                            let latency_us = sent_at.elapsed().as_secs_f64() * 1e6;
                            if sent.is_ok() {
                                out.latency_us.push((k, out.reference.sample(latency_us)));
                                out.cycles
                                    .push(out.reference.sample(cycle.elapsed().as_secs_f64()));
                            }
                            out.tally.op(sent);
                            if pair_in_process {
                                // Hot: the private engine holds every
                                // program. Cold: a body it has not seen.
                                let body = if traffic.hot {
                                    body
                                } else {
                                    traffic.body(lane(4, c) + (block << 24) + k).0
                                };
                                let chain =
                                    in_process_chain(engine, &body, traffic.hot, &mut out.rec);
                                if let Ok(seconds) = chain {
                                    out.in_process_us.push(out.reference.sample(seconds * 1e6));
                                }
                                out.tally.op(chain.map(drop));
                            }
                            k += 1;
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("load-generator thread"))
                .collect()
        })
    }

    /// The check the cold workload defers: each kept result against an
    /// in-process run of the same request.
    fn check_pending(&self, lanes: &mut [LaneResult], tally: &mut Tally) {
        for lane in lanes {
            for (index, got) in lane.pending.drain(..) {
                let (body, _) = self.traffic.body(index);
                // A throw-away engine, so checked programs are not kept.
                let want = in_process_result(&Engine::new(), &body);
                if want.as_deref() != Ok(got.as_str()) {
                    // The op was counted when it was sent.
                    tally.fail(format!("request {index}: got {got}, want {want:?}"));
                }
            }
        }
    }

    fn shut_down(self) {
        drop(self.clients);
        self.server.shutdown();
        self.server.join();
    }
}

impl LaneResult {
    fn new(spans: Option<Instant>, server_level: &Option<Arc<AtomicU64>>) -> LaneResult {
        LaneResult {
            latency_us: Vec::new(),
            late_us: Vec::new(),
            in_process_us: Vec::new(),
            cycles: Vec::new(),
            tally: Tally::default(),
            pending: Vec::new(),
            rec: Recorder::new(spans.unwrap_or_else(Instant::now), spans.is_some()),
            reference: Reference::watching(server_level.clone()),
        }
    }
}

/// Sleeps until shortly before `due`, then spins: `thread::sleep`
/// alone overshoots by more than a hot request takes.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(120);
    if let Some(left) = due.checked_duration_since(Instant::now()) {
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        }
        while Instant::now() < due {
            std::hint::spin_loop();
        }
    }
}

fn merged_latencies(lanes: &[LaneResult]) -> Vec<f64> {
    let mut all: Vec<(u64, f64)> = lanes
        .iter()
        .flat_map(|l| l.latency_us.iter().map(|(i, s)| (*i, s.value)))
        .collect();
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, us)| us).collect()
}

/// Requests per second of a closed loop run in `blocks` blocks: the
/// connections of a block add up, the blocks take the median.
fn closed_rps(lanes: &[LaneResult], blocks: u64) -> f64 {
    let per_block = (lanes.len() / blocks.max(1) as usize).max(1);
    let each: Vec<f64> = lanes
        .chunks(per_block)
        .map(|block| block.iter().map(|l| rate(&l.cycles)).sum())
        .collect();
    median(&each)
}

fn merge_tallies(lanes: &mut [LaneResult], tally: &mut Tally) {
    for lane in lanes {
        tally.merge(std::mem::take(&mut lane.tally));
    }
}

/// The open loop's figures under their per-layer names, and a warning
/// if the generator ran late. Returns the median latency.
fn open_loop_metrics(open: &[LaneResult], limit_us: f64, m: &mut Metrics) -> Summary {
    let late: Vec<f64> = open
        .iter()
        .flat_map(|l| l.late_us.iter().copied())
        .collect();
    let late_p99 = quantile(&late, 0.99);
    if late_p99 > 1000.0 {
        eprintln!(
            "warning: the open-loop generator ran {late_p99:.0} us late at p99 (> 1 ms): \
             these numbers measure the host, not the program"
        );
    }
    let us = merged_latencies(open);
    let p50 = Summary {
        n: us.len(),
        ..Summary::exact(median(&us))
    };
    let over_limit = us.iter().filter(|us| **us > limit_us).count();
    // What the yardstick did to the run: the median from the clock's
    // own readings.
    let raw_us: Vec<f64> = open
        .iter()
        .flat_map(|l| l.latency_us.iter().map(|(_, s)| s.raw))
        .collect();
    m.insert(
        "bench.op_p50_raw_us".into(),
        Summary::exact(median(&raw_us)),
    );
    m.insert(
        "serve.open.p99_us".into(),
        segmented_quantile(&us, SEGMENT, 0.99),
    );
    m.insert("serve.open.late_us_p99".into(), Summary::exact(late_p99));
    m.insert(
        "serve.open.over_limit".into(),
        Summary::exact(over_limit as f64),
    );
    open[0].reference.report(m);
    p50
}

/// A request's raw bytes, as `Client::request` frames them.
fn framed(body: &str) -> Vec<u8> {
    format!(
        "POST /run HTTP/1.1\r\nHost: tpal-serve\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// One request through the public chain the server composes, in this
/// process: framing, protocol, hash, cache, engine, token, framing.
/// `resident` says whether the engine holds the program already (it
/// names the cache span). Returns the seconds it took.
fn in_process_chain(
    engine: &Engine,
    body: &str,
    resident: bool,
    rec: &mut Recorder,
) -> Result<f64, String> {
    let raw = framed(body);
    let start = Instant::now();
    rec.span("bench.serve_inproc", |rec| {
        let outcome = rec.span("serve.http.read_request", |_| {
            read_request(&mut Cursor::new(&raw))
        });
        let ReadOutcome::Request(request) = outcome else {
            return Err("framing rejected the request".to_owned());
        };
        let run = rec.span("serve.proto.parse_run_request", |_| {
            parse_run_request(&request.body)
        })?;
        let hash = rec.span("serve.spec.ProgramSrc::content_hash", |_| {
            run.src.content_hash()
        });
        let (entry, hit) = rec.span(
            if resident {
                "serve.cache.get_or_compile.hit"
            } else {
                "serve.cache.get_or_compile.miss"
            },
            |_| engine.cache().get_or_compile(&run.src),
        );
        let entry = entry?;
        let token = rec.span("serve.spec.RunSpec::token", |_| run.spec.token(hash));
        let name = match run.spec.substrate {
            Substrate::Sim { .. } => "serve.engine.Engine::execute",
            Substrate::Rt { .. } => "serve.engine.Engine::execute.rt",
        };
        let out = rec
            .span(name, |_| engine.execute(&entry, &run.spec, run.include))
            .map_err(|e| e.to_string())?;
        let mut wire = Vec::with_capacity(1024);
        rec.span("serve.http.write_response", |_| {
            // The body `server::execute_job` renders around the result.
            let body = format!(
                "{{\"cache\":\"{}\",\"ok\":true,\"replay\":\"{token}\",\"result\":{},\"wall_us\":0}}",
                if hit { "hit" } else { "miss" },
                out.result
            );
            write_response(&mut wire, 200, &[], &body)
        })
        .map_err(|e| e.to_string())?;
        std::hint::black_box(&wire);
        Ok(())
    })?;
    Ok(start.elapsed().as_secs_f64())
}

/// The untraced run: the end-to-end metrics.
pub fn run(def: &WorkloadDef, seed: u64, budget: &Budget) -> Outcome {
    let load = load(def);
    let mut tally = Tally::default();
    let awake = affinity::KeepAwake::start();
    // `timed_setups` stops each earlier server outside the timing.
    let (mut service, setup_s) = timed_setups(budget, || set_up(load, seed, &awake, &mut tally));

    // A: open loop at the fixed rate.
    let total = (load.open_rps * budget.seconds * 0.55) as u64;
    let mut open = service.open_loop(1, load.open_rps, total.max(1), None);
    // B and C in alternating blocks, so that their ratio sees one host:
    // closed loop on every connection; closed loop on one connection,
    // each request paired with the in-process chain.
    let requests = |share: f64| (load.closed_rps * budget.seconds * share) as u64 / BLOCKS;
    let (mut closed2, mut closed1) = (Vec::new(), Vec::new());
    for block in 0..BLOCKS {
        closed2.extend(service.closed_loop((2, block), CONNECTIONS, requests(0.25), None, false));
        closed1.extend(service.closed_loop((3, block), 1, requests(0.1), None, true));
    }

    for lanes in [&mut open, &mut closed2, &mut closed1] {
        merge_tallies(lanes, &mut tally);
        service.check_pending(lanes, &mut tally);
    }
    let mut m = Metrics::new();
    m.insert("setup_s".into(), setup_s);
    let p50 = open_loop_metrics(&open, load.limit_us, &mut m);
    m.insert("op_p50_us".into(), p50);
    m.insert(
        "ops_per_s".into(),
        Summary::exact(closed_rps(&closed2, BLOCKS)),
    );
    let closed1_us = merged_latencies(&closed1);
    let in_process_us: Vec<f64> = closed1
        .iter()
        .flat_map(|l| values(&l.in_process_us))
        .collect();
    m.insert(
        "overhead_ratio".into(),
        Summary {
            n: in_process_us.len(),
            ..Summary::exact(ratio(median(&closed1_us), median(&in_process_us)))
        },
    );
    service.shut_down();
    m.insert("peak_rss_mb".into(), Summary::exact(peak_rss_mb()));
    Outcome { tally, metrics: m }
}

/// Mean microseconds of `f` over the given inputs.
fn mean_us<T, R>(inputs: &[T], mut f: impl FnMut(&T) -> R) -> f64 {
    let start = Instant::now();
    for input in inputs {
        std::hint::black_box(f(input));
    }
    ratio(start.elapsed().as_secs_f64() * 1e6, inputs.len() as f64)
}

/// The compile path a cache miss pays, one public function at a time,
/// on sampled program texts of this workload's traffic.
fn compile_probes(traffic: &Traffic, m: &mut Metrics) {
    let salts: Vec<i64> = (0..16).map(|k| traffic.cold_salt(lane(6, 0) + k)).collect();
    let template = |k: usize| SOURCES[if traffic.hot { k % SOURCES.len() } else { 0 }].1;
    let tpls: Vec<String> = salts
        .iter()
        .enumerate()
        .map(|(k, &s)| tpl_text(template(k), s))
        .collect();
    let irs: Vec<_> = tpls
        .iter()
        .map(|t| parse_ir(t).expect("benchmark source parses"))
        .collect();
    let lowered: Vec<_> = irs
        .iter()
        .map(|ir| lower(ir, Mode::Heartbeat).expect("benchmark source lowers"))
        .collect();
    let tpals: Vec<String> = lowered.iter().map(|l| print_program(&l.program)).collect();
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_owned(), Summary::exact(v));
    };
    put("ir.parse_us", mean_us(&tpls, |t| parse_ir(t)));
    put(
        "ir.lower_us",
        mean_us(&irs, |ir| lower(ir, Mode::Heartbeat)),
    );
    put("core.asm.parse_us", mean_us(&tpals, |t| parse_program(t)));
    put(
        "core.decode_us",
        mean_us(&lowered, |l| {
            ExecBackend::new(&l.program, ExecTier::Decoded)
        }),
    );
    put(
        "core.threaded.compile_us",
        mean_us(&lowered, |l| {
            ExecBackend::new(&l.program, ExecTier::Threaded)
        }),
    );
    let instrs: usize = lowered.iter().map(|l| l.program.instr_count()).sum();
    put("ir.lowered_instrs", instrs as f64 / lowered.len() as f64);
    put("core.program.instrs", instrs as f64 / lowered.len() as f64);
}

/// The traced run: the per-layer metrics.
pub fn run_traced(def: &WorkloadDef, seed: u64, budget: &Budget) -> (Outcome, Vec<Recorder>) {
    let load = load(def);
    let mut tally = Tally::default();
    let awake = affinity::KeepAwake::start();
    let mut service = set_up(load, seed, &awake, &mut tally);
    let origin = Instant::now();
    let before = service.stats();
    let mut m = Metrics::new();
    let mut recorders = Vec::new();

    // Open loop with spans on every request.
    let total = ((load.open_rps * budget.seconds * 0.25) as u64).max(1);
    let mut open = service.open_loop(1, load.open_rps, total, Some(origin));
    let open_wall_s = total as f64 / load.open_rps;
    let requests = |share: f64| (load.closed_rps * budget.seconds * share) as u64;
    let mut closed2 = service.closed_loop((2, 0), CONNECTIONS, requests(0.1), None, false);
    // One connection, spans on every other request: their cost.
    let mut closed1 = service.closed_loop((3, 0), 1, requests(0.15), Some(origin), false);
    let after = service.stats();

    // The in-process chain, spans on, for the rest of the budget but
    // the ladder's share.
    let mut rec = Recorder::new(origin, true);
    let mut reference = Reference::new();
    let until = Instant::now() + budget.share(0.15);
    let mut k = 0u64;
    let rt_every = 16;
    while Instant::now() < until {
        if k.is_multiple_of(REFERENCE_EVERY) {
            reference.tick();
        }
        let index = if load.hot { lane(3, 0) } else { lane(4, 0) } + k;
        let (mut body, _) = service.traffic.body(index);
        if k % rt_every == rt_every - 1 {
            // The same request on the native runtime's warm pool.
            body = body.replacen(
                &format!("\"cores\":{SIM_CORES}"),
                "\"substrate\":\"rt\",\"workers\":2",
                1,
            );
        }
        tally.op(in_process_chain(&service.engine, &body, load.hot, &mut rec).map(drop));
        k += 1;
    }

    // The ladder: the highest fixed rate the service holds.
    let mut max_ok = 0.0;
    let ladder_requests = ((budget.seconds * 80.0) as u64).clamp(20, 1000);
    for (step, rate) in LADDER_RPS.into_iter().enumerate() {
        let shed_before = service.stats()[5];
        let mut lanes = service.open_loop(8 + step as u64, rate, ladder_requests, None);
        let us = merged_latencies(&lanes);
        let errors: u64 = lanes.iter().map(|l| l.tally.failed).sum();
        service.check_pending(&mut lanes, &mut tally);
        let held = errors == 0
            && service.stats()[5] == shed_before
            && quantile(&us, 0.99) <= load.limit_us;
        if !held {
            break;
        }
        max_ok = rate;
    }

    for lanes in [&mut open, &mut closed2, &mut closed1] {
        merge_tallies(lanes, &mut tally);
        service.check_pending(lanes, &mut tally);
    }
    let p50 = open_loop_metrics(&open, load.limit_us, &mut m);
    m.insert("bench.op_p50_us".into(), p50);
    let mut put = |name: &str, v: f64| {
        m.insert(name.to_owned(), Summary::exact(v));
    };
    let answered: usize = open.iter().map(|l| l.latency_us.len()).sum();
    put(
        "serve.open.achieved_rps",
        ratio(answered as f64, open_wall_s),
    );
    put("serve.closed.rps", closed_rps(&closed2, 1));
    let (spanned, plain): (Vec<_>, Vec<_>) = closed1[0]
        .latency_us
        .iter()
        .partition(|(k, _)| (k / 2) % 2 == 1);
    let us = |v: &[(u64, Sample)]| median(&v.iter().map(|(_, s)| s.value).collect::<Vec<_>>());
    put("serve.closed.p50_us", us(&plain));
    put(
        "bench.trace_overhead_ratio",
        ratio(us(&spanned), us(&plain)),
    );
    put("serve.ladder_max_ok_rps", max_ok);
    put("serve.replay_us", median(&service.replay_us));
    let lookups = (after[0] - before[0]) + (after[1] - before[1]);
    put(
        "serve.cache.hit_ratio",
        ratio(after[0] - before[0], lookups),
    );
    put("serve.cache.decodes", after[2] - before[2]);
    let last = service.stats();
    put("serve.submitted", last[3]);
    put("serve.completed", last[4]);
    put("serve.shed", last[5]);

    // The chain's spans: each link's mean, and their sum. Spans are raw
    // durations: scale them like every other timing.
    let chain = Attribution::of(&[&rec]);
    let scale = reference.scale();
    let links = [
        ("serve.http.read_request_us", "serve.http.read_request"),
        ("serve.proto.parse_us", "serve.proto.parse_run_request"),
        ("serve.spec.hash_us", "serve.spec.ProgramSrc::content_hash"),
        ("serve.cache.hit_us", "serve.cache.get_or_compile.hit"),
        ("serve.cache.miss_us", "serve.cache.get_or_compile.miss"),
        ("serve.engine.execute_us", "serve.engine.Engine::execute"),
        ("serve.spec.token_us", "serve.spec.RunSpec::token"),
        ("serve.http.write_response_us", "serve.http.write_response"),
    ];
    let requests = chain
        .by_name
        .get("bench.serve_inproc")
        .map_or(0, |t| t.count) as f64;
    let mut sum_us = 0.0;
    for (metric, span) in links {
        put(metric, chain.mean_us(span) * scale);
        // Weighted as they occurred: a hot run has no misses.
        if span != "serve.engine.Engine::execute" {
            sum_us += chain
                .by_name
                .get(span)
                .map_or(0.0, |t| ratio(t.total_ns as f64 / 1e3, requests))
                * scale;
        }
    }
    sum_us += chain.mean_us("serve.engine.Engine::execute") * scale;
    put("serve.inproc_sum_us", sum_us);
    put(
        "serve.engine.execute_rt_us",
        chain.mean_us("serve.engine.Engine::execute.rt") * scale,
    );
    put("serve.wire_queue_us", us(&plain) - sum_us);

    let bodies: Vec<String> = (0..64)
        .map(|k| service.traffic.body(lane(5, 0) + k).0)
        .collect();
    let bytes: usize = bodies.iter().map(String::len).sum();
    let start = Instant::now();
    for body in &bodies {
        std::hint::black_box(parse(body).is_ok());
    }
    put(
        "trace.json.parse_mb_per_s",
        ratio(bytes as f64 / 1e6, start.elapsed().as_secs_f64()),
    );
    compile_probes(&service.traffic, &mut m);

    recorders.extend(open.into_iter().map(|l| l.rec));
    recorders.extend(closed1.into_iter().map(|l| l.rec));
    recorders.push(rec);
    let spans = Attribution::of(&recorders.iter().collect::<Vec<_>>());
    m.insert("bench.spans".into(), Summary::exact(spans.spans as f64));
    m.insert(
        "bench.unattributed_ratio".into(),
        Summary::exact(spans.unattributed_ratio()),
    );
    m.insert(
        "bench.fail_ratio".into(),
        Summary::exact(ratio(tally.failed as f64, tally.attempted as f64)),
    );
    service.shut_down();
    (Outcome { tally, metrics: m }, recorders)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(hot: bool, seed: u64) -> Vec<String> {
        let mut tally = Tally::default();
        let traffic = Traffic::new(hot, seed, &Engine::new(), &mut tally);
        assert_eq!(tally.failed, 0, "{:?}", tally.notes);
        (0..40).map(|i| traffic.body(lane(1, 0) + i).0).collect()
    }

    #[test]
    fn the_seed_fixes_the_request_schedule_and_the_salts() {
        for hot in [true, false] {
            assert_eq!(schedule(hot, 21), schedule(hot, 21));
            assert_ne!(schedule(hot, 21), schedule(hot, 22));
        }
        let cold = schedule(false, 21);
        let distinct: std::collections::BTreeSet<&String> = cold.iter().collect();
        assert_eq!(distinct.len(), cold.len(), "no cold program repeats");
        assert!(cold[0].contains("\"ir\":true") && cold[1].contains("\"ir\":false"));
    }

    #[test]
    fn printed_tpal_forms_compute_what_their_tpl_sources_do() {
        let engine = Engine::new();
        for (name, template, n) in SOURCES {
            let (tpal, param) = tpal_text(template, 7);
            let a = in_process_result(
                &engine,
                &request_body(&tpl_text(template, 7), true, "n", n, 1),
            );
            let b = in_process_result(&engine, &request_body(&tpal, false, &param, n, 1));
            let (a, b) = (a.expect(name), b.expect(name));
            let stats = |r: &str| r.split_once("\"stats\"").map(|(_, s)| s.to_owned());
            assert!(
                stats(&a).is_some() && stats(&a) == stats(&b),
                "{name}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn smoke_runs_of_both_workloads_pass_their_checks() {
        for name in ["serve_hot", "serve_cold"] {
            let def = crate::registry::workload(name).unwrap();
            let out = run(def, 9, &Budget::smoke());
            assert_eq!(out.tally.failed, 0, "{name}: {:?}", out.tally.notes);
            for metric in &crate::registry::END_TO_END {
                assert!(
                    out.metrics[metric.name].median > 0.0,
                    "{name} {}",
                    metric.name
                );
            }
            let (traced, recorders) = run_traced(def, 9, &Budget::smoke());
            assert_eq!(traced.tally.failed, 0, "{name}: {:?}", traced.tally.notes);
            let hit_ratio = traced.metrics["serve.cache.hit_ratio"].median;
            assert_eq!(hit_ratio, if name == "serve_hot" { 1.0 } else { 0.0 });
            assert!(recorders.iter().any(|r| !r.spans().is_empty()));
        }
    }
}
