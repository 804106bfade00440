//! The scheduler kernel shared by the simulator and the native runtime.
//!
//! The paper's scheduler is one rule — promote the oldest latent
//! parallelism once per heartbeat — and its figures vary only how beats
//! arrive, against the eager and "interrupts only" baselines. This crate
//! holds exactly those choices, each in one place, as inherent methods on
//! the enums that name them:
//!
//! * [`Promotion`] — when a promotion-ready point promotes: on the
//!   heartbeat (the paper's scheme), eagerly at every opportunity
//!   (initial decomposition), or never ("serial, interrupts only").
//! * [`InterruptModel`] / [`HeartbeatSource`] — how beats reach cores:
//!   exact per-core timers or a modelled ping thread ([`PingChain`]) in
//!   the simulator; a native flag/deadline cell ([`HeartbeatCell`]) on
//!   the runtime.
//!
//! Everything else is structure, not choice: a thief on the simulator
//! probes one uniformly random other core ([`uniform_victim`], drawing
//! from the seeded [`SplitMix64`] stream), a runtime thief sweeps every
//! other worker ([`victim_sequence`]), and a channel wake resumes the
//! oldest waiter. On the simulator the promotion rule also decides when
//! that wake becomes a real task: a woken task stays latent on the
//! waking core until a beat reaches it under `heartbeat`
//! ([`Promotion::latent_wakes`], [`Promotion::beat_releases_wakes`]),
//! is queued at once under `eager`, and stays latent under `never`.
//! A policy label (`heartbeat/uniform`) names the
//! promotion rule and the substrate's steal rule; [`Promotion::parse`]
//! is the one reader of labels and [`Promotion::label`] the one writer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod delivery;
mod policy;
mod promote;
mod rng;
mod victim;

pub use delivery::{HeartbeatCell, HeartbeatSource, InterruptModel, PingChain};
pub use policy::{Domain, PolicyError};
pub use promote::{PromoteState, PromoteStep, Promotion};
pub use rng::SplitMix64;
pub use victim::{uniform_victim, victim_sequence};
