//! Steal-victim selection: each substrate's one rule.

use crate::rng::SplitMix64;

/// The simulator's steal rule: one uniformly random *other* core per
/// probe, `(id + 1 + rand(cores - 1)) % cores` — exactly one draw, which
/// is what lets the simulator skip a parked core's forced-failure
/// retries in O(1). Every simulated figure and exact count rests on
/// this stream. Requires `cores >= 2`.
#[inline]
pub fn uniform_victim(rng: &mut SplitMix64, id: usize, cores: usize) -> usize {
    debug_assert!(cores >= 2, "probing needs someone to probe");
    (id + 1 + rng.below(cores as u64 - 1) as usize) % cores
}

/// The victim probe order for worker `id` in a pool of `n` — the native
/// runtime's steal rule: every one of the other `n - 1` workers exactly
/// once, starting at a salt-chosen offset (so concurrent thieves spread
/// out). Empty for `n <= 1`.
///
/// The `k`-th victim is `(id + 1 + (salt + k) % (n - 1)) % n`; the
/// offsets `1 + (salt + k) % (n - 1)` for `k in 0..n-1` hit each of
/// `1..n` exactly once, so the sequence can neither probe the same victim
/// twice nor yield `id` itself. (An earlier version, then private to the
/// native runtime's pool, iterated `k in 0..n`, re-probing its first
/// victim on the final iteration — a wasted steal attempt per failed
/// round — and carried a dead `v == id` guard.)
pub fn victim_sequence(id: usize, n: usize, salt: usize) -> impl Iterator<Item = usize> {
    let salt = salt as u64;
    (0..n.saturating_sub(1) as u64)
        .map(move |k| (id + 1 + (salt.wrapping_add(k) % (n as u64 - 1)) as usize) % n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The probe order must cover each of the other workers exactly
    /// once — no duplicate probe, never self, and no division by zero
    /// for a single-worker pool. (The proptest in `tests/victim_prop.rs`
    /// extends this to arbitrary id/n/salt.)
    #[test]
    fn victim_sequence_covers_others_exactly_once() {
        for n in 1..=3usize {
            for id in 0..n {
                for salt in 0..7usize {
                    let seq: Vec<usize> = victim_sequence(id, n, salt).collect();
                    assert_eq!(seq.len(), n - 1, "n={n} id={id} salt={salt}");
                    assert!(!seq.contains(&id), "self-probe: n={n} id={id} {seq:?}");
                    let mut sorted = seq.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    assert_eq!(sorted.len(), n - 1, "duplicate probe: {seq:?}");
                    for v in &seq {
                        assert!(*v < n, "out of range: {seq:?}");
                    }
                }
            }
        }
    }

    /// Different salts rotate the starting victim, so concurrent thieves
    /// spread over victims instead of convoying.
    #[test]
    fn victim_sequence_salt_rotates_start() {
        let n = 3;
        let starts: std::collections::BTreeSet<usize> = (0..2)
            .map(|salt| victim_sequence(0, n, salt).next().unwrap())
            .collect();
        assert_eq!(starts.len(), 2, "salt must vary the first victim");
    }

    /// Uniform probing matches the simulator's historical expression
    /// draw for draw, and never names the thief.
    #[test]
    fn uniform_probe_matches_legacy_expression() {
        let cores = 7usize;
        let mut a = SplitMix64::new(99);
        let mut b = SplitMix64::new(99);
        for id in [0usize, 3, 6, 6, 2] {
            let legacy = (id + 1 + b.below(cores as u64 - 1) as usize) % cores;
            let got = uniform_victim(&mut a, id, cores);
            assert_eq!(got, legacy);
            assert_ne!(got, id);
        }
        assert_eq!(a.next_u64(), b.next_u64(), "one draw per probe");
    }

    /// The runtime's sweep is a pure function of `(id, n, salt)` — no
    /// generator to draw from — and one round of it probes everyone else.
    #[test]
    fn deterministic_policies_probe_everyone_without_draws() {
        let cores = 5usize;
        for id in 0..cores {
            for salt in [0usize, 3, usize::MAX] {
                let round: Vec<usize> = victim_sequence(id, cores, salt).collect();
                assert_eq!(round, victim_sequence(id, cores, salt).collect::<Vec<_>>());
                assert!(!round.contains(&id));
                let mut seen = round.clone();
                seen.sort_unstable();
                seen.dedup();
                assert_eq!(seen.len(), cores - 1, "a victim repeated: {round:?}");
            }
        }
    }
}
