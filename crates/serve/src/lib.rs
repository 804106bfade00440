//! `tpal-serve`: multi-tenant TPAL simulation-as-a-service.
//!
//! A long-running server that accepts TPAL assembly or task-parallel
//! (`.tpl`) programs over a minimal HTTP/1.1 surface, validates and
//! compiles each distinct program **once** into a content-hash-keyed
//! decode cache, and dispatches runs onto the deterministic simulator
//! (`tpal-sim`) or a shared native-runtime pool (`tpal-rt`) behind
//! bounded admission control. Every response carries a deterministic
//! replay token — the run spec itself, canonically serialized — and
//! `GET /replay/<token>` reproduces the run bit-for-bit.
//!
//! The crate is dependency-free beyond the workspace: HTTP framing is
//! hand-rolled over [`std::net`], and JSON goes through `tpal-trace`'s
//! own reader/writer.
//!
//! # Layers
//!
//! * [`spec`] — run specifications, FNV-1a content hashing, replay
//!   tokens.
//! * [`cache`] — the once-only decode cache with lazily compiled
//!   per-tier execution backends.
//! * [`engine`] — spec → result rendering on either substrate, with a
//!   small set of warm native-runtime pools.
//! * [`proto`] — the JSON request/response protocol.
//! * [`http`] — minimal HTTP/1.1 framing (keep-alive, bounded bodies).
//! * [`server`] — the TCP server: bounded admission queue, executor
//!   threads, load shedding, graceful drain.
//!
//! # Quick start
//!
//! ```no_run
//! use tpal_serve::server::{Server, ServeConfig};
//!
//! let server = Server::start(ServeConfig::default()).unwrap();
//! println!("listening on {}", server.addr());
//! server.join(); // serve until POST /shutdown
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod engine;
pub mod http;
pub mod proto;
pub mod server;
pub mod spec;

pub use cache::{CachedProgram, ProgramCache};
pub use engine::{Engine, EngineError, RunInclude, RunOutput};
pub use server::{ServeConfig, Server};
pub use spec::{Fnv1a, ProgramSrc, RunSpec, Substrate};
