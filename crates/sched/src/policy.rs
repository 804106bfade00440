//! Policy labels: the `promotion/victim` names that `tpal-run --policy`,
//! `tpal-serve` requests, replay tokens and trace headers carry.
//!
//! Only the promotion rule is a choice. Each substrate steals by one
//! rule of its own — the simulator probes one uniformly random other
//! core ([`crate::uniform_victim`]), the runtime sweeps
//! ([`crate::victim_sequence`]) — and a label's second segment names
//! that rule, so every label ever rendered for a surviving choice keeps
//! its bytes.

use std::fmt;

use crate::promote::Promotion;

/// The substrate a label belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// The multicore simulator: thieves draw a uniform victim.
    Sim,
    /// The native runtime: thieves sweep every other worker.
    Rt,
}

impl Domain {
    /// The victim segment this substrate's labels render.
    pub fn victim(self) -> &'static str {
        match self {
            Domain::Sim => "uniform",
            Domain::Rt => "sequence",
        }
    }

    /// Whether a label's victim segment may say `victim` here. The
    /// simulator's steal rule is what every seeded run reproduces, so it
    /// takes its own name only; on the runtime the segment never decided
    /// anything, so both names that ever rendered are accepted.
    fn accepts(self, victim: &str) -> bool {
        match self {
            Domain::Sim => victim == "uniform",
            Domain::Rt => matches!(victim, "uniform" | "sequence"),
        }
    }
}

/// A policy label outside the vocabulary, naming the value at fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PolicyError {
    /// The first segment names no promotion rule (`adaptive:N` included).
    Promotion(String),
    /// The victim segment names a rule this substrate does not steal by
    /// (`locality` anywhere, `sequence` on the simulator).
    Victim {
        /// The segment as given.
        victim: String,
        /// The substrate the label was parsed for.
        domain: Domain,
    },
    /// A third segment (the retired channel-wake choice: a wake always
    /// resumes the oldest waiter).
    Extra(String),
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::Promotion(p) => write!(
                f,
                "unknown promotion policy `{p}` (expected heartbeat|eager|never)"
            ),
            PolicyError::Victim {
                victim,
                domain: Domain::Sim,
            } => write!(
                f,
                "victim policy `{victim}` is not the simulator's (expected uniform)"
            ),
            PolicyError::Victim {
                victim,
                domain: Domain::Rt,
            } => write!(
                f,
                "unknown victim policy `{victim}` (expected uniform|sequence)"
            ),
            PolicyError::Extra(segment) => write!(
                f,
                "unknown third policy segment `{segment}` (channel wakes are oldest-first)"
            ),
        }
    }
}

impl std::error::Error for PolicyError {}

impl Promotion {
    /// The label this rule renders on `domain`, e.g. `heartbeat/uniform`
    /// on the simulator and `heartbeat/sequence` on the runtime.
    pub fn label(self, domain: Domain) -> String {
        format!("{}/{}", self.name(), domain.victim())
    }

    /// Parses a label for `domain`: a promotion rule's name, optionally
    /// followed by `/` and a victim segment the substrate accepts.
    ///
    /// # Errors
    ///
    /// A [`PolicyError`] naming the first segment that is not in the
    /// vocabulary.
    pub fn parse(label: &str, domain: Domain) -> Result<Promotion, PolicyError> {
        let mut segments = label.split('/');
        let name = segments.next().unwrap_or_default();
        let promotion = Promotion::ALL
            .into_iter()
            .find(|p| p.name() == name)
            .ok_or_else(|| PolicyError::Promotion(name.to_owned()))?;
        if let Some(victim) = segments.next() {
            if !domain.accepts(victim) {
                return Err(PolicyError::Victim {
                    victim: victim.to_owned(),
                    domain,
                });
            }
        }
        match segments.next() {
            Some(extra) => Err(PolicyError::Extra(extra.to_owned())),
            None => Ok(promotion),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOMAINS: [Domain; 2] = [Domain::Sim, Domain::Rt];

    #[test]
    fn default_is_the_pre_kernel_configuration() {
        assert_eq!(Promotion::default(), Promotion::Heartbeat);
        assert_eq!(Promotion::default().label(Domain::Sim), "heartbeat/uniform");
        assert_eq!(Promotion::default().label(Domain::Rt), "heartbeat/sequence");
    }

    #[test]
    fn parse_combined_and_partial() {
        assert_eq!(Promotion::parse("eager", Domain::Sim), Ok(Promotion::Eager));
        assert_eq!(
            Promotion::parse("never/uniform", Domain::Sim),
            Ok(Promotion::Never)
        );
        // Both victim names that ever rendered for the runtime decode.
        for victim in ["uniform", "sequence"] {
            let label = format!("eager/{victim}");
            assert_eq!(Promotion::parse(&label, Domain::Rt), Ok(Promotion::Eager));
        }
        assert!(Promotion::parse("eager/elsewhere", Domain::Rt).is_err());
        assert!(Promotion::parse("nope/uniform", Domain::Sim).is_err());
        assert!(Promotion::parse("heartbeat/", Domain::Sim).is_err());
    }

    /// Every surviving label survives `label ∘ parse` on both substrates.
    #[test]
    fn label_round_trips() {
        for domain in DOMAINS {
            for p in Promotion::ALL {
                let label = p.label(domain);
                assert_eq!(Promotion::parse(&label, domain), Ok(p), "{label}");
                assert_eq!(
                    Promotion::parse(&label, domain).unwrap().label(domain),
                    label
                );
            }
        }
        // A runtime label naming the simulator's victim re-renders as
        // the runtime's own.
        let p = Promotion::parse("never/uniform", Domain::Rt).unwrap();
        assert_eq!(p.label(Domain::Rt), "never/sequence");
    }

    /// Each retired spelling is an error that names it, never a
    /// neighbouring rule.
    #[test]
    fn retired_labels_are_errors_naming_the_value() {
        let cases = [
            ("adaptive:40/uniform", Domain::Sim, "`adaptive:40`"),
            ("adaptive:5000", Domain::Rt, "`adaptive:5000`"),
            ("eager/locality", Domain::Sim, "`locality`"),
            ("never/locality", Domain::Rt, "`locality`"),
            ("heartbeat/sequence", Domain::Sim, "`sequence`"),
            ("heartbeat/uniform/random", Domain::Sim, "`random`"),
            ("heartbeat/uniform/fifo", Domain::Sim, "`fifo`"),
            ("eager/sequence/random", Domain::Rt, "`random`"),
        ];
        for (label, domain, names) in cases {
            let e = Promotion::parse(label, domain).unwrap_err();
            assert!(e.to_string().contains(names), "{label} on {domain:?}: {e}");
        }
        assert_eq!(
            Promotion::parse("heartbeat/sequence", Domain::Sim),
            Err(PolicyError::Victim {
                victim: "sequence".to_owned(),
                domain: Domain::Sim
            })
        );
        assert_eq!(
            Promotion::parse("adaptive:4/locality/random", Domain::Sim),
            Err(PolicyError::Promotion("adaptive:4".to_owned()))
        );
    }
}
