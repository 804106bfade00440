//! Promotion: when a promotion-ready point promotes.

/// Per-core (simulator) promotion state. The delivery mechanism raises
/// `beat`; the promotion rule consumes it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PromoteState {
    /// A heartbeat has been delivered and not yet consumed.
    pub beat: bool,
    /// The previous machine-level decision was a handler diversion that
    /// has not forked yet. [`Promotion::Eager`]'s livelock guard: a
    /// handler that finds nothing to promote jumps straight back to the
    /// promotion-ready entry it diverted from, so an unconditional
    /// re-divert would spin forever; one ordinary instruction must run
    /// in between.
    pub bounced: bool,
}

impl PromoteState {
    /// The core's task forked: the diversion produced a task, so the
    /// eager bounce guard is cleared.
    #[inline]
    pub fn on_fork(&mut self) {
        self.bounced = false;
    }
}

/// What a core should do at a promotion-ready point (the simulator's
/// machine-level decision; the runtime's library constructs promote
/// directly and use [`Promotion::should_attempt`] instead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromoteStep {
    /// Divert the task to its promotion handler (a promotion attempt).
    Divert,
    /// Execute exactly one instruction without watching for
    /// promotion-ready entries: the point was declined and the task must
    /// step past it to make progress.
    StepPast,
    /// Run normally.
    Run,
}

/// When promotion-ready points promote.
///
/// Two surfaces serve the two domains, driven by one admission rule:
///
/// * The simulator executes TPAL programs, where promotion means
///   diverting a task to its handler block: it asks
///   [`watch`](Self::watch) around every instruction run,
///   [`decide`](Self::decide) at a promotion-ready point, and clears the
///   bounce guard with [`PromoteState::on_fork`] when a task forks.
/// * The native runtime's library constructs (`join2`, `reduce`) hold
///   the latent-parallelism list themselves: they ask
///   [`should_attempt`](Self::should_attempt) at each poll point and
///   promote directly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Promotion {
    /// Promote exactly one opportunity per delivered heartbeat — the
    /// paper's scheme, amortising task-creation cost τ against ♥ of
    /// useful work. The default.
    #[default]
    Heartbeat,
    /// Promote at every promotion-ready point — initial decomposition,
    /// the eager baseline heartbeat scheduling is measured against
    /// (task-creation cost on every opportunity).
    Eager,
    /// Never promote. With deliveries still armed this is the paper's
    /// "serial, interrupts only" configuration (Figures 9 and 13),
    /// isolating the cost of the interrupt mechanism itself.
    Never,
}

// These run on the engines' per-pause / per-poll hot paths in a
// different crate, so cross-crate inlining must be explicit.
impl Promotion {
    /// Every promotion rule, in label order.
    pub const ALL: [Promotion; 3] = [Promotion::Heartbeat, Promotion::Eager, Promotion::Never];

    /// Whether promotion-ready points matter right now: the (mildly
    /// expensive) point test is worth running, and instruction runs
    /// should pause at promotion-ready block entries (the decoded
    /// stream's `watch` flag).
    #[inline]
    pub fn watch(self, st: &PromoteState) -> bool {
        match self {
            Promotion::Heartbeat => st.beat,
            Promotion::Eager => true,
            Promotion::Never => false,
        }
    }

    /// The machine-level decision at a promotion-ready point. Consumes
    /// the beat and updates the bounce guard.
    #[inline]
    pub fn decide(self, st: &mut PromoteState) -> PromoteStep {
        match self {
            Promotion::Eager => {
                if st.bounced {
                    // The handler just bounced back here without forking;
                    // force one instruction of progress.
                    st.bounced = false;
                    PromoteStep::StepPast
                } else {
                    st.bounced = true;
                    PromoteStep::Divert
                }
            }
            _ if st.beat => {
                st.beat = false;
                if self.should_attempt(true) {
                    PromoteStep::Divert
                } else {
                    PromoteStep::Run
                }
            }
            _ => PromoteStep::Run,
        }
    }

    /// The library-level decision: should a poll point that consumed a
    /// due heartbeat iff `beat` attempt a promotion now?
    #[inline]
    pub fn should_attempt(self, beat: bool) -> bool {
        match self {
            Promotion::Heartbeat => beat,
            Promotion::Eager => true,
            Promotion::Never => false,
        }
    }

    /// Whether a channel wake stays *latent*: the woken task waits on the
    /// waking core, out of thieves' sight, and runs there once that
    /// core's own deque is empty — latent parallelism like a
    /// promotion-ready point's. Under `eager` every wake is a real,
    /// stealable task at once.
    #[inline]
    pub fn latent_wakes(self) -> bool {
        !matches!(self, Promotion::Eager)
    }

    /// Whether a beat delivered to a core makes its latent wakes real
    /// (queued on its deque, in wake order): under `heartbeat` only —
    /// `never` keeps them latent for good.
    #[inline]
    pub fn beat_releases_wakes(self) -> bool {
        matches!(self, Promotion::Heartbeat)
    }

    /// The rule's name: the first segment of a policy label.
    pub fn name(self) -> &'static str {
        match self {
            Promotion::Heartbeat => "heartbeat",
            Promotion::Eager => "eager",
            Promotion::Never => "never",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Domain;

    /// Default rule, step by step: a beat is consumed by exactly one
    /// diversion at a promotion-ready point, and watch mirrors the flag.
    #[test]
    fn heartbeat_consumes_one_beat_per_divert() {
        let p = Promotion::Heartbeat;
        let mut st = PromoteState::default();
        assert!(!p.watch(&st));
        st.beat = true;
        assert!(p.watch(&st));
        assert_eq!(p.decide(&mut st), PromoteStep::Divert);
        assert!(!st.beat);
        assert!(!p.watch(&st));
        assert_eq!(p.decide(&mut st), PromoteStep::Run);
    }

    /// Eager alternates Divert / StepPast at a bouncing handler (the
    /// livelock guard), and a fork re-arms the diversion.
    #[test]
    fn eager_bounce_guard_alternates_and_fork_rearms() {
        let p = Promotion::Eager;
        let mut st = PromoteState::default();
        assert_eq!(p.decide(&mut st), PromoteStep::Divert);
        assert_eq!(p.decide(&mut st), PromoteStep::StepPast);
        assert_eq!(p.decide(&mut st), PromoteStep::Divert);
        st.on_fork();
        assert!(!st.bounced);
        assert_eq!(p.decide(&mut st), PromoteStep::Divert);
        assert!(p.watch(&st));
        assert!(p.should_attempt(false), "eager ignores the beat");
    }

    /// Never: no watch, no attempts — beats pile up unread.
    #[test]
    fn never_declines_everything() {
        let p = Promotion::Never;
        let mut st = PromoteState {
            beat: true,
            ..Default::default()
        };
        assert!(!p.watch(&st));
        assert!(!p.should_attempt(true));
        assert_eq!(p.decide(&mut st), PromoteStep::Run);
    }

    /// Only `eager` makes a wake real at once, only `heartbeat` makes
    /// latent wakes real at a beat.
    #[test]
    fn wake_rules() {
        let latent = Promotion::ALL.map(Promotion::latent_wakes);
        let released = Promotion::ALL.map(Promotion::beat_releases_wakes);
        assert_eq!(latent, [true, false, true]);
        assert_eq!(released, [true, false, false]);
    }

    /// Every rule's name parses back to it, alone or as a label on
    /// either substrate; a name no rule has does not.
    #[test]
    fn parse_round_trips() {
        for p in Promotion::ALL {
            for domain in [Domain::Sim, Domain::Rt] {
                assert_eq!(Promotion::parse(p.name(), domain), Ok(p));
                assert_eq!(Promotion::parse(&p.label(domain), domain), Ok(p));
            }
        }
        assert!(Promotion::parse("sometimes", Domain::Sim).is_err());
        assert!(Promotion::parse("", Domain::Rt).is_err());
    }
}
