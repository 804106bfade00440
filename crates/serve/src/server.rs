//! The TCP server: bounded admission, a shared executor pool, and
//! graceful drain.
//!
//! Every connection gets a handler thread (connections are few and
//! long-lived under the intended load); every *run* goes through one
//! fixed-capacity admission queue serviced by a small executor pool, so
//! concurrent tenants contend on a bounded structure rather than
//! spawning unbounded work. When the queue is full the request is shed
//! immediately with `429` and a `Retry-After` hint — an overloaded
//! server stays responsive instead of building an invisible backlog.
//! `POST /shutdown` starts a drain: admission closes (`503`), executors
//! finish every admitted run, and [`Server::join`] returns once the
//! queue is empty.
//!
//! # Routes
//!
//! | Route                 | Meaning                                        |
//! |-----------------------|------------------------------------------------|
//! | `POST /run`           | Submit a program + run spec (JSON, [`crate::proto`]) |
//! | `GET /replay/<token>` | Re-execute a replay token bit-for-bit          |
//! | `GET /healthz`        | Liveness probe                                 |
//! | `GET /stats`          | Cache/queue/counter snapshot                   |
//! | `POST /shutdown`      | Begin graceful drain                           |

use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::engine::{Engine, EngineError};
use crate::http::{read_request, write_response, ReadOutcome, Request, READ_TIMEOUT};
use crate::proto::{error_body, parse_run_request, RunRequest};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (the default, for
    /// tests).
    pub addr: String,
    /// Admission-queue capacity: runs admitted but not yet started.
    /// Beyond it, submissions shed with `429`.
    pub queue_cap: usize,
    /// Executor threads servicing the queue.
    pub executors: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            queue_cap: 64,
            executors: 2,
        }
    }
}

enum Work {
    Run(Box<RunRequest>),
    Replay(String),
}

struct Job {
    work: Work,
    reply: SyncSender<(u16, String)>,
}

struct Shared {
    engine: Engine,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    queue_cap: usize,
    submitted: AtomicU64,
    shed: AtomicU64,
    completed: AtomicU64,
}

/// A running service instance.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let executors = config.executors.max(1);
        let shared = Arc::new(Shared {
            engine: Engine::shared_by(executors),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            queue_cap: config.queue_cap.max(1),
            submitted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            completed: AtomicU64::new(0),
        });
        let executors = (0..executors)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("tpal-serve-exec-{i}"))
                    .spawn(move || executor_main(&shared))
                    .expect("spawn executor")
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("tpal-serve-accept".to_owned())
                .spawn(move || acceptor_main(&listener, &shared))
                .expect("spawn acceptor")
        };
        Ok(Server {
            addr,
            shared,
            acceptor: Some(acceptor),
            executors,
        })
    }

    /// The bound address (with the resolved port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The execution engine (cache statistics, direct execution in
    /// tests).
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// Begins a graceful drain: admission closes, executors finish the
    /// admitted backlog. Idempotent; returns immediately.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.shared, self.addr);
    }

    /// Waits for the acceptor and executors to finish (i.e. for a
    /// shutdown to complete the drain).
    pub fn join(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for h in self.executors.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A dropped (not joined) server still drains cleanly.
        self.shutdown();
        self.stop();
    }
}

fn initiate_shutdown(shared: &Shared, addr: SocketAddr) {
    // The flag is read under the queue lock by submitters, so take the
    // lock here to order "no new admissions" before the drain begins.
    {
        let _q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        shared.shutdown.store(true, Ordering::Release);
    }
    shared.available.notify_all();
    // The acceptor blocks in `accept`; poke it awake so it observes the
    // flag and exits.
    drop(TcpStream::connect(addr));
}

fn acceptor_main(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        let addr = listener.local_addr().expect("listener has an address");
        // Handler threads are detached: they hold only a reply receiver
        // and exit as soon as the peer closes or shutdown is observed;
        // the executor drain guarantees every admitted run still gets
        // its response.
        let _ = std::thread::Builder::new()
            .name("tpal-serve-conn".to_owned())
            .spawn(move || handle_connection(stream, &shared, addr));
    }
}

fn handle_connection(stream: TcpStream, shared: &Shared, addr: SocketAddr) {
    stream.set_read_timeout(Some(READ_TIMEOUT)).ok();
    stream.set_nodelay(true).ok();
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    loop {
        match read_request(&mut reader) {
            ReadOutcome::Closed => break,
            ReadOutcome::Idle => {
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
            }
            ReadOutcome::Malformed(msg) => {
                let _ = write_response(&mut write_half, 400, &[], &error_body(&msg));
                break;
            }
            ReadOutcome::Request(req) => {
                let keep = req.keep_alive;
                let (status, headers, body) = route(shared, addr, &req);
                if write_response(&mut write_half, status, &headers, &body).is_err() || !keep {
                    break;
                }
            }
        }
    }
}

fn route(shared: &Shared, addr: SocketAddr, req: &Request) -> (u16, Vec<String>, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/run") => match parse_run_request(&req.body) {
            Ok(run) => submit(shared, Work::Run(Box::new(run))),
            Err(e) => (400, Vec::new(), error_body(&e)),
        },
        ("GET", path) if path.starts_with("/replay/") => {
            let token = path["/replay/".len()..].to_owned();
            submit(shared, Work::Replay(token))
        }
        ("GET", "/healthz") => (200, Vec::new(), "{\"ok\":true}".to_owned()),
        ("GET", "/stats") => (200, Vec::new(), stats_body(shared)),
        ("POST", "/shutdown") => {
            initiate_shutdown(shared, addr);
            (
                200,
                Vec::new(),
                "{\"draining\":true,\"ok\":true}".to_owned(),
            )
        }
        ("GET" | "POST", _) => (404, Vec::new(), error_body("no such route")),
        _ => (405, Vec::new(), error_body("method not allowed")),
    }
}

/// Bounded admission: enqueue and wait for the result, or shed.
fn submit(shared: &Shared, work: Work) -> (u16, Vec<String>, String) {
    let (tx, rx) = sync_channel(1);
    {
        let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if shared.shutdown.load(Ordering::Acquire) {
            return (503, Vec::new(), error_body("server is draining"));
        }
        if queue.len() >= shared.queue_cap {
            shared.shed.fetch_add(1, Ordering::Relaxed);
            return (
                429,
                vec!["Retry-After: 1".to_owned()],
                error_body("admission queue full; retry shortly"),
            );
        }
        queue.push_back(Job { work, reply: tx });
    }
    shared.submitted.fetch_add(1, Ordering::Relaxed);
    shared.available.notify_one();
    match rx.recv() {
        Ok((status, body)) => (status, Vec::new(), body),
        Err(_) => (503, Vec::new(), error_body("executor terminated")),
    }
}

fn executor_main(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                // Drain contract: exit only once the queue is empty
                // *and* shutdown was requested, so every admitted run
                // gets its response.
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared
                    .available
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let (status, body) = execute_job(&shared.engine, job.work);
        shared.completed.fetch_add(1, Ordering::Relaxed);
        // The handler may have given up (connection gone); the run's
        // effects are confined to the reply, so ignore send failures.
        let _ = job.reply.send((status, body));
    }
}

fn execute_job(engine: &Engine, work: Work) -> (u16, String) {
    match work {
        Work::Run(run) => {
            let hash = run.src.content_hash();
            let (entry, hit) = engine.cache().get_or_compile(&run.src);
            let entry = match entry {
                Ok(entry) => entry,
                Err(e) => return (400, error_body(&e)),
            };
            let token = run.spec.token(hash);
            let started = Instant::now();
            match engine.execute(&entry, &run.spec, run.include) {
                Ok(out) => {
                    let wall_us = started.elapsed().as_micros();
                    let mut body = format!(
                        "{{\"cache\":\"{}\",\"ok\":true,\"replay\":\"{token}\",\"result\":{}",
                        if hit { "hit" } else { "miss" },
                        out.result
                    );
                    for (key, value) in &out.extras {
                        body.push_str(&format!(",\"{key}\":{value}"));
                    }
                    body.push_str(&format!(",\"wall_us\":{wall_us}}}"));
                    (200, body)
                }
                Err(e) => (engine_status(&e), error_body(&e.to_string())),
            }
        }
        Work::Replay(token) => match engine.replay(&token) {
            Ok((_, out)) => {
                let mut body = format!(
                    "{{\"ok\":true,\"replay\":\"{token}\",\"result\":{}",
                    out.result
                );
                for (key, value) in &out.extras {
                    body.push_str(&format!(",\"{key}\":{value}"));
                }
                body.push('}');
                (200, body)
            }
            Err(e) => (engine_status(&e), replay_error_body(&e)),
        },
    }
}

/// Replay failures are structured: an unknown program hash names the
/// hash and tells the client how to recover (tokens carry the run spec
/// but never the source, so only a re-`POST /run` can repopulate the
/// cache on this server).
fn replay_error_body(e: &EngineError) -> String {
    match e {
        EngineError::UnknownProgram(h) => format!(
            "{{\"error\":\"unknown program\",\
             \"hint\":\"this server never compiled program {h:016x}; \
             POST its source to /run to repopulate the cache, then retry the token\",\
             \"ok\":false,\"program\":\"{h:016x}\"}}"
        ),
        EngineError::Bad(_) => error_body(&e.to_string()),
    }
}

fn engine_status(e: &EngineError) -> u16 {
    match e {
        EngineError::Bad(_) => 400,
        EngineError::UnknownProgram(_) => 404,
    }
}

fn stats_body(shared: &Shared) -> String {
    let cache = &shared.engine.cache();
    let depth = shared.queue.lock().unwrap_or_else(|e| e.into_inner()).len();
    format!(
        "{{\"cache\":{{\"decodes\":{},\"evictions\":{},\"hits\":{},\"misses\":{},\"programs\":{}}},\
         \"completed\":{},\"draining\":{},\"ok\":true,\"queue_depth\":{depth},\
         \"shed\":{},\"submitted\":{}}}",
        cache.decode_count(),
        cache.eviction_count(),
        cache.hit_count(),
        cache.miss_count(),
        cache.len(),
        shared.completed.load(Ordering::Relaxed),
        shared.shutdown.load(Ordering::Acquire),
        shared.shed.load(Ordering::Relaxed),
        shared.submitted.load(Ordering::Relaxed),
    )
}
