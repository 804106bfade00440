//! Heartbeat delivery: how beats reach the cores (§3.2 and §5 of the
//! paper), in both domains.
//!
//! The cycle domain (simulator) configures an [`InterruptModel`] and
//! advances ping rounds through [`PingChain`]. The tick domain (native
//! runtime) configures a [`HeartbeatSource`] and polls a per-worker
//! [`HeartbeatCell`]. The mechanisms correspond pairwise:
//! `PerCoreTimer` ↔ `LocalTimer`/`TimerSignal` (precise per-core
//! delivery — polled deadline vs real OS timer signal), `PingThread` ↔
//! `PingThread`, `Disabled` ↔ `Disabled`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::rng::SplitMix64;

/// How heartbeat interrupts reach simulated cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptModel {
    /// Per-core timer interrupts (Nautilus: APIC timer + Nemo IPIs).
    /// Every core's flag is raised exactly every ♥ cycles; servicing
    /// costs `service_cost` cycles on the interrupted core.
    PerCoreTimer {
        /// Cycles charged to the core per delivered interrupt.
        service_cost: u64,
    },
    /// A dedicated ping thread delivering OS signals to the cores one at
    /// a time (the Linux INT-PingThread mechanism). Each delivery
    /// occupies the signaller for `latency ± jitter` cycles, so a full
    /// round over `P` cores takes about `P × latency`; when that exceeds
    /// ♥ the target heartbeat rate is missed, as in Figure 10.
    PingThread {
        /// Signaller cycles per delivered signal.
        latency: u64,
        /// Uniform jitter added to each delivery, `[0, jitter]`.
        jitter: u64,
        /// Cycles charged to the receiving core per signal (kernel
        /// signal-frame overhead).
        service_cost: u64,
    },
    /// No heartbeats: latent parallelism is never promoted.
    Disabled,
}

impl InterruptModel {
    /// The signaller occupancy of one ping delivery: `latency` plus a
    /// uniform draw in `[0, jitter]`, drawn only when there is any jitter
    /// (so jitter-free configurations consume no stream positions). Only
    /// meaningful for [`InterruptModel::PingThread`]; 0 (and no draw)
    /// otherwise.
    pub fn ping_delay(&self, rng: &mut SplitMix64) -> u64 {
        match *self {
            InterruptModel::PingThread {
                latency, jitter, ..
            } if jitter > 0 => latency + rng.below(jitter + 1),
            InterruptModel::PingThread { latency, .. } => latency,
            _ => 0,
        }
    }

    /// A stable label for traces and reports, parallel to
    /// [`HeartbeatSource::label`].
    pub fn label(self) -> &'static str {
        match self {
            InterruptModel::PerCoreTimer { .. } => "per-core-timer",
            InterruptModel::PingThread { .. } => "ping",
            InterruptModel::Disabled => "disabled",
        }
    }
}

/// The ping-thread signaller's schedule: which core the next signal
/// targets and when, delivering round-robin and resting between rounds
/// so each round starts no earlier than one ♥ after the previous one.
/// Both simulator engines previously each hand-rolled this round-wrap
/// arithmetic; it lives here once now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PingChain {
    /// The core the next signal targets.
    pub next_core: usize,
    /// When the next signal lands. Maintained strictly increasing: at
    /// most one delivery per time unit.
    pub next_time: u64,
    /// When the current round nominally began.
    pub round_start: u64,
}

impl PingChain {
    /// A signaller whose first delivery (to core 0) lands at
    /// `first_time`, opening a round that nominally begins at
    /// `round_start`.
    pub fn new(first_time: u64, round_start: u64) -> PingChain {
        PingChain {
            next_core: 0,
            next_time: first_time,
            round_start,
        }
    }

    /// Advances past a delivery performed at `now` that occupied the
    /// signaller for `delay`: targets the next core, or wraps the round
    /// and rests until the next beat boundary. `next_time` is clamped
    /// strictly past `now` (one delivery per time unit).
    pub fn advance(&mut self, now: u64, cores: usize, interval: u64, delay: u64) {
        self.next_core += 1;
        if self.next_core == cores {
            // Round complete: rest until the next beat.
            self.next_core = 0;
            self.round_start += interval;
            self.next_time = (now + delay).max(self.round_start);
        } else {
            self.next_time = now + delay;
        }
        self.next_time = self.next_time.max(now + 1);
    }
}

/// How heartbeats reach native workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeartbeatSource {
    /// A dedicated thread raises each worker's flag in turn every ♥
    /// (the Linux `INT-PingThread` mechanism: simple, linear, jittery).
    PingThread,
    /// Each worker compares the CPU timestamp counter against a private
    /// deadline at promotion-ready points (the Nautilus per-core APIC
    /// timer mechanism: precise, no cross-thread traffic).
    LocalTimer,
    /// A per-worker OS interval timer delivers a real asynchronous
    /// signal whose handler raises the worker's flag — the paper's
    /// interrupt-driven delivery. Promotion-ready points collapse to one
    /// relaxed flag load: no clock read, no deadline arithmetic. The
    /// signal sets the flag between promotion-ready points and the beat
    /// takes effect at the next one — the rollforward analogue.
    TimerSignal,
    /// Heartbeats never fire; latent parallelism is never promoted.
    Disabled,
}

impl HeartbeatSource {
    /// Parses a user-facing source name (CLI flags, serve requests,
    /// replay tokens). Accepts both the short CLI spellings and the
    /// canonical [`HeartbeatSource::label`] spellings.
    pub fn parse(s: &str) -> Option<HeartbeatSource> {
        match s {
            "ping" | "ping-thread" => Some(HeartbeatSource::PingThread),
            "local-timer" | "local_timer" => Some(HeartbeatSource::LocalTimer),
            "signal" | "timer-signal" => Some(HeartbeatSource::TimerSignal),
            "disabled" | "none" => Some(HeartbeatSource::Disabled),
            _ => None,
        }
    }

    /// The canonical source name, as echoed in bench records, replay
    /// tokens, and trace headers. Round-trips through
    /// [`HeartbeatSource::parse`].
    pub fn label(self) -> &'static str {
        match self {
            HeartbeatSource::PingThread => "ping",
            HeartbeatSource::LocalTimer => "local-timer",
            HeartbeatSource::TimerSignal => "timer-signal",
            HeartbeatSource::Disabled => "disabled",
        }
    }
}

/// Per-worker heartbeat state: the delivery half of the native domain.
/// The clock is passed in ([`HeartbeatCell::poll`] takes a `now`
/// closure) so the cell itself stays domain-neutral and testable.
#[derive(Debug)]
pub struct HeartbeatCell {
    /// Raised by the ping thread; consumed at promotion-ready points.
    pub flag: AtomicBool,
    /// Next local-timer deadline in ticks.
    pub deadline: AtomicU64,
    /// Heartbeats delivered to this worker.
    pub delivered: AtomicU64,
}

impl Default for HeartbeatCell {
    fn default() -> Self {
        HeartbeatCell::new()
    }
}

impl HeartbeatCell {
    /// A cell with no pending beat and an unarmed timer.
    pub fn new() -> Self {
        HeartbeatCell {
            flag: AtomicBool::new(false),
            deadline: AtomicU64::new(u64::MAX),
            delivered: AtomicU64::new(0),
        }
    }

    /// Flag-raising delivery: called by the ping thread, or by the
    /// worker's own `TimerSignal` handler. Async-signal-safe by
    /// construction — two lock-free atomic operations, nothing else.
    pub fn raise(&self) {
        self.flag.store(true, Ordering::Release);
        self.delivered.fetch_add(1, Ordering::Relaxed);
    }

    /// The promotion-point check. Returns `true` when a heartbeat is due
    /// on this worker under the given source; `now` is read lazily (only
    /// the local-timer source consults the clock).
    #[inline]
    pub fn poll(
        &self,
        source: HeartbeatSource,
        interval_ticks: u64,
        now: impl FnOnce() -> u64,
    ) -> bool {
        match source {
            HeartbeatSource::Disabled => false,
            // Both flag-raising mechanisms consume identically: one
            // relaxed load in the common case. For `TimerSignal` the
            // raising store happens in a signal handler *on this same
            // thread* (SIGEV_THREAD_ID), so program order alone makes the
            // relaxed load sufficient; for `PingThread` the raise is a
            // release-store from the signaller thread.
            HeartbeatSource::PingThread | HeartbeatSource::TimerSignal => {
                if self.flag.load(Ordering::Relaxed) {
                    self.flag.store(false, Ordering::Relaxed);
                    true
                } else {
                    false
                }
            }
            HeartbeatSource::LocalTimer => {
                let now = now();
                let deadline = self.deadline.load(Ordering::Relaxed);
                if now >= deadline {
                    self.deadline
                        .store(now.wrapping_add(interval_ticks), Ordering::Relaxed);
                    self.delivered.fetch_add(1, Ordering::Relaxed);
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Clears the delivery counter. Must be part of every stats reset:
    /// delivery is counted here per worker rather than in any shared
    /// counter block, so resetting only shared counters would leave
    /// later serviced/delivered ratios computed against a stale
    /// cumulative denominator.
    pub fn reset_delivery(&self) {
        self.delivered.store(0, Ordering::Relaxed);
    }

    /// Arms the local timer: first deadline one interval from `now`.
    pub fn arm(&self, interval_ticks: u64, now: u64) {
        self.deadline
            .store(now.wrapping_add(interval_ticks), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_flag_consumed_once() {
        let c = HeartbeatCell::new();
        assert!(!c.poll(HeartbeatSource::PingThread, 0, || 0));
        c.raise();
        assert!(c.poll(HeartbeatSource::PingThread, 0, || 0));
        assert!(!c.poll(HeartbeatSource::PingThread, 0, || 0));
        assert_eq!(c.delivered.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn timer_signal_flag_consumed_once() {
        let c = HeartbeatCell::new();
        assert!(!c.poll(HeartbeatSource::TimerSignal, 0, || 0));
        c.raise();
        assert!(c.poll(HeartbeatSource::TimerSignal, 0, || 0));
        assert!(!c.poll(HeartbeatSource::TimerSignal, 0, || 0));
        assert_eq!(c.delivered.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn source_labels_round_trip() {
        for s in [
            HeartbeatSource::PingThread,
            HeartbeatSource::LocalTimer,
            HeartbeatSource::TimerSignal,
            HeartbeatSource::Disabled,
        ] {
            assert_eq!(HeartbeatSource::parse(s.label()), Some(s));
        }
        assert_eq!(
            HeartbeatSource::parse("signal"),
            Some(HeartbeatSource::TimerSignal)
        );
        assert_eq!(
            HeartbeatSource::parse("ping"),
            Some(HeartbeatSource::PingThread)
        );
        assert_eq!(HeartbeatSource::parse("bogus"), None);
    }

    #[test]
    fn disabled_never_beats() {
        let c = HeartbeatCell::new();
        c.raise();
        assert!(!c.poll(HeartbeatSource::Disabled, 0, || 0));
    }

    #[test]
    fn local_timer_beats_after_deadline_and_rearms() {
        let c = HeartbeatCell::new();
        c.arm(100, 0);
        assert!(!c.poll(HeartbeatSource::LocalTimer, 100, || 99));
        assert!(c.poll(HeartbeatSource::LocalTimer, 100, || 100));
        // Re-armed at now + interval.
        assert!(!c.poll(HeartbeatSource::LocalTimer, 100, || 199));
        assert!(c.poll(HeartbeatSource::LocalTimer, 100, || 200));
        assert_eq!(c.delivered.load(Ordering::Relaxed), 2);
        c.reset_delivery();
        assert_eq!(c.delivered.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn ping_chain_rests_between_rounds() {
        // 3 cores, ♥ = 100, zero-latency deliveries: three deliveries
        // back to back, then rest until the next beat boundary.
        let mut chain = PingChain::new(100, 100);
        chain.advance(100, 3, 100, 0);
        assert_eq!((chain.next_core, chain.next_time), (1, 101));
        chain.advance(101, 3, 100, 0);
        assert_eq!((chain.next_core, chain.next_time), (2, 102));
        chain.advance(102, 3, 100, 0);
        assert_eq!((chain.next_core, chain.next_time), (0, 200));
        assert_eq!(chain.round_start, 200);
    }

    #[test]
    fn ping_chain_slow_round_slips_past_beat() {
        // A round slower than ♥ starts the next one immediately (the
        // Figure 10 missed-rate regime).
        let mut chain = PingChain::new(100, 100);
        chain.advance(100, 2, 100, 90);
        assert_eq!((chain.next_core, chain.next_time), (1, 190));
        chain.advance(190, 2, 100, 90);
        assert_eq!((chain.next_core, chain.next_time), (0, 280));
    }

    /// The ping jitter is the delivery's only draw: one per delivery
    /// with jitter, none without, and never for the other models.
    #[test]
    fn ping_delay_draws_only_with_jitter() {
        let ping = |jitter| InterruptModel::PingThread {
            latency: 110,
            jitter,
            service_cost: 60,
        };
        let mut rng = SplitMix64::new(5);
        let position = rng.clone();
        assert_eq!(ping(0).ping_delay(&mut rng), 110);
        assert_eq!(InterruptModel::Disabled.ping_delay(&mut rng), 0);
        let timer = InterruptModel::PerCoreTimer { service_cost: 5 };
        assert_eq!(timer.ping_delay(&mut rng), 0);
        assert_eq!(rng.next_u64(), position.clone().next_u64(), "no draw");

        let mut rng = SplitMix64::new(5);
        let mut expect = SplitMix64::new(5);
        for _ in 0..100 {
            let d = ping(60).ping_delay(&mut rng);
            assert_eq!(d, 110 + expect.below(61));
            assert!((110..=170).contains(&d));
        }
    }
}
