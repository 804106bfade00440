//! The content-hash-keyed decode cache: validate and compile (decode +
//! install loop templates) each distinct program **once**, serve every
//! later run from the compiled artifact.
//!
//! Concurrency discipline: the outer map is held only long enough to
//! clone an `Arc` slot; compilation itself runs inside the slot's
//! `OnceLock`, so N racing submitters of the same new program perform
//! exactly one parse/validate (the others block on the lock and share
//! the result). Per-tier backends compile lazily under their own
//! `OnceLock`s — a program served only on the default tier never pays
//! for a second compiled copy. Failed compilations are cached too:
//! resubmitting a broken program costs a hash lookup, not a re-parse.
//!
//! The cache holds at most [`CAPACITY`] programs. Beyond that each new
//! program evicts one by second chance (CLOCK): a hand sweeps the
//! resident set, an entry hit since the hand last passed it is spared
//! once, the first one not hit goes. A program in steady use therefore
//! outlives any amount of one-shot traffic, as long as it is hit at
//! least once per sweep — [`CAPACITY`] evictions. Only completed
//! compilations are evicted (submitters racing on one program always
//! share one slot), and the evicted entry is dropped after the map lock
//! is released. Replaying a token of an evicted program is the same
//! "unknown program, resubmit the source" miss as on a server that never
//! saw it.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use tpal_core::asm::parse_program;
use tpal_core::program::Program;
use tpal_core::tier::{ExecBackend, ExecTier};
use tpal_ir::{lower, parse_ir, Lowered, Mode};

use crate::spec::ProgramSrc;

/// A validated program plus its lazily compiled per-tier backends.
pub struct CachedProgram {
    hash: u64,
    compiled: Compiled,
    /// One slot per [`ExecTier::ALL`] entry, compiled on first use.
    tiers: [OnceLock<ExecBackend>; 3],
}

enum Compiled {
    /// Parsed straight from TPAL assembly.
    Asm(Program),
    /// Lowered through the IR frontend (keeps the parameter-register
    /// mapping for `--set`-style argument names).
    Ir(Lowered),
}

impl CachedProgram {
    /// The content hash this entry is keyed by.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// The validated program.
    pub fn program(&self) -> &Program {
        match &self.compiled {
            Compiled::Asm(p) => p,
            Compiled::Ir(l) => &l.program,
        }
    }

    /// Maps a submitted argument name to the register it seeds: IR
    /// programs address entry parameters by bare name, assembly
    /// programs address registers directly.
    pub fn set_reg_name(&self, name: &str) -> String {
        match &self.compiled {
            Compiled::Asm(_) => name.to_owned(),
            Compiled::Ir(l) => l.param_reg(name),
        }
    }

    /// The compiled backend for `tier`, compiling it on first request
    /// (subsequent requests on any thread share the artifact).
    pub fn backend(&self, tier: ExecTier) -> &ExecBackend {
        let idx = ExecTier::ALL
            .iter()
            .position(|t| *t == tier)
            .expect("ExecTier::ALL covers every tier");
        self.tiers[idx].get_or_init(|| ExecBackend::new(self.program(), tier))
    }
}

/// Programs the cache keeps resident: about 20 KB each for a
/// request-sized program on one tier (83 instructions: 6 KB of program,
/// 14 KB of micro-ops and their side tables; 34 KB once a second
/// compiled tier is requested too), so tens of megabytes at most, and
/// orders of magnitude above any one tenant's working set.
pub const CAPACITY: usize = 1024;

/// One cache slot: the once-only compilation result for a content hash.
#[derive(Default)]
struct Slot {
    cell: OnceLock<Result<Arc<CachedProgram>, String>>,
    /// Hit since the eviction hand last passed (the second chance).
    used: AtomicBool,
}

/// The resident set: slots in a ring the eviction hand sweeps, and
/// where in the ring each hash sits.
#[derive(Default)]
struct Resident {
    index: HashMap<u64, usize>,
    ring: Vec<(u64, Arc<Slot>)>,
    hand: usize,
}

impl Resident {
    /// The slot for `hash`, inserting an empty one — in place of the
    /// evicted entry, returned for the caller to drop, once the ring is
    /// full.
    fn slot(&mut self, hash: u64) -> (Arc<Slot>, Option<Arc<Slot>>) {
        if let Some(&at) = self.index.get(&hash) {
            return (Arc::clone(&self.ring[at].1), None);
        }
        let slot = Arc::new(Slot::default());
        let entry = (hash, Arc::clone(&slot));
        let victim = if self.ring.len() < CAPACITY {
            None
        } else {
            // Two sweeps reach every entry with its second chance spent.
            (0..2 * self.ring.len()).find_map(|_| {
                let at = self.hand;
                self.hand = (self.hand + 1) % self.ring.len();
                let candidate = &self.ring[at].1;
                let spare =
                    candidate.cell.get().is_none() || candidate.used.swap(false, Ordering::Relaxed);
                (!spare).then_some(at)
            })
        };
        match victim {
            Some(at) => {
                self.index.insert(hash, at);
                let (old, evicted) = std::mem::replace(&mut self.ring[at], entry);
                self.index.remove(&old);
                (slot, Some(evicted))
            }
            // Room left — or every resident entry is mid-compile, which
            // takes as many concurrent submitters: grow by their number
            // at most.
            None => {
                self.index.insert(hash, self.ring.len());
                self.ring.push(entry);
                (slot, None)
            }
        }
    }
}

/// The decode cache. See the module docs for the locking and eviction
/// discipline.
pub struct ProgramCache {
    resident: Mutex<Resident>,
    decodes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ProgramCache {
    /// An empty cache.
    pub fn new() -> ProgramCache {
        ProgramCache {
            resident: Mutex::new(Resident::default()),
            decodes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Resident> {
        // Every update leaves the ring and its index consistent.
        self.resident.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks `src` up by content hash, compiling it exactly once if
    /// absent. Returns the entry (or the cached compile error) and
    /// whether this call was a hit (the compilation had already
    /// completed when the call arrived).
    pub fn get_or_compile(&self, src: &ProgramSrc) -> (Result<Arc<CachedProgram>, String>, bool) {
        let hash = src.content_hash();
        let (slot, evicted) = self.lock().slot(hash);
        if evicted.is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            // Freed here, outside the lock.
            drop(evicted);
        }
        let hit = slot.cell.get().is_some();
        if hit {
            slot.used.store(true, Ordering::Relaxed);
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let result = slot
            .cell
            .get_or_init(|| {
                // The decode path proper: counted so tests can assert
                // each distinct program is decoded exactly once no
                // matter how many submitters race.
                self.decodes.fetch_add(1, Ordering::Relaxed);
                compile(src, hash).map(Arc::new)
            })
            .clone();
        (result, hit)
    }

    /// Fetches a previously compiled program by content hash (the
    /// replay path: the token names the program, the cache supplies
    /// it). `None` if the hash is unknown (never submitted here, or
    /// evicted since) or its compilation failed.
    pub fn lookup(&self, hash: u64) -> Option<Arc<CachedProgram>> {
        let slot = {
            let resident = self.lock();
            Arc::clone(&resident.ring[*resident.index.get(&hash)?].1)
        };
        slot.used.store(true, Ordering::Relaxed);
        match slot.cell.get() {
            Some(Ok(entry)) => Some(Arc::clone(entry)),
            _ => None,
        }
    }

    /// Number of times the decode path actually ran (≤ distinct
    /// programs submitted; == when no compile failed).
    pub fn decode_count(&self) -> u64 {
        self.decodes.load(Ordering::Relaxed)
    }

    /// Lookups that found a completed entry.
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to wait for (or perform) a compilation.
    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Programs evicted to keep the cache within [`CAPACITY`].
    pub fn eviction_count(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Distinct content hashes resident.
    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ProgramCache {
    fn default() -> Self {
        ProgramCache::new()
    }
}

/// Parses the lowering-mode name accepted in requests and tokens.
pub fn parse_mode(mode: &str) -> Result<Mode, String> {
    match mode {
        "serial" => Ok(Mode::Serial),
        "heartbeat" => Ok(Mode::Heartbeat),
        "expanded" => Ok(Mode::HeartbeatExpanded),
        "eager" => Ok(Mode::Eager { workers: 15 }),
        other => Err(format!(
            "unknown mode `{other}` (serial|heartbeat|expanded|eager)"
        )),
    }
}

fn compile(src: &ProgramSrc, hash: u64) -> Result<CachedProgram, String> {
    let compiled = if src.ir {
        let ir = parse_ir(&src.source).map_err(|e| format!("ir parse: {e}"))?;
        let mode = parse_mode(&src.mode)?;
        let lowered = lower(&ir, mode).map_err(|e| format!("lowering: {e}"))?;
        Compiled::Ir(lowered)
    } else {
        let program = parse_program(&src.source).map_err(|e| format!("asm parse: {e}"))?;
        Compiled::Asm(program)
    };
    Ok(CachedProgram {
        hash,
        compiled,
        tiers: [OnceLock::new(), OnceLock::new(), OnceLock::new()],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUM_TPL: &str = "fn main(n) {\n    s = 0;\n    parfor i in 0..n reduce(s: +, 0) { s = s + i; }\n    return s;\n}\n";

    #[test]
    fn second_submission_is_a_hit_with_one_decode() {
        let cache = ProgramCache::new();
        let src = ProgramSrc::tpl(SUM_TPL, "heartbeat");
        let (a, hit_a) = cache.get_or_compile(&src);
        let (b, hit_b) = cache.get_or_compile(&src);
        assert!(a.is_ok() && b.is_ok());
        assert!(!hit_a);
        assert!(hit_b);
        assert_eq!(cache.decode_count(), 1);
        assert!(Arc::ptr_eq(&a.unwrap(), &b.unwrap()));
    }

    #[test]
    fn backends_compile_once_per_tier() {
        let cache = ProgramCache::new();
        let (entry, _) = cache.get_or_compile(&ProgramSrc::tpl(SUM_TPL, "heartbeat"));
        let entry = entry.unwrap();
        let a = entry.backend(ExecTier::Threaded) as *const ExecBackend;
        let b = entry.backend(ExecTier::Threaded) as *const ExecBackend;
        assert_eq!(a, b, "same compiled artifact on repeat requests");
        assert_eq!(
            entry.backend(ExecTier::Reference).tier(),
            ExecTier::Reference
        );
    }

    /// A distinct, trivially small program per `k`.
    fn numbered(k: usize) -> ProgramSrc {
        ProgramSrc::tpl(format!("fn main(n) {{ return n + {k}; }}\n"), "serial")
    }

    #[test]
    fn one_shot_traffic_is_evicted_and_a_program_in_use_is_not() {
        let cache = ProgramCache::new();
        let hot = ProgramSrc::tpl(SUM_TPL, "heartbeat");
        let (entry, _) = cache.get_or_compile(&hot);
        let entry = entry.unwrap();
        for k in 0..3 * CAPACITY {
            assert!(cache.get_or_compile(&numbered(k)).0.is_ok());
            let (again, hit) = cache.get_or_compile(&hot);
            assert!(hit, "still resident after {k} one-shot programs");
            assert!(Arc::ptr_eq(&entry, &again.unwrap()));
        }
        assert_eq!(cache.len(), CAPACITY);
        assert_eq!(cache.eviction_count(), (2 * CAPACITY + 1) as u64);
        assert_eq!(cache.decode_count(), (3 * CAPACITY + 1) as u64);
        // The oldest one-shot program is gone, so a token naming it
        // finds nothing; the newest is still there.
        assert!(cache.lookup(numbered(0).content_hash()).is_none());
        assert!(cache
            .lookup(numbered(3 * CAPACITY - 1).content_hash())
            .is_some());
        // Resubmitting an evicted program compiles it again.
        let (_, hit) = cache.get_or_compile(&numbered(0));
        assert!(!hit);
    }

    #[test]
    fn compile_errors_are_cached() {
        let cache = ProgramCache::new();
        let bad = ProgramSrc::asm("this is not tpal");
        let (r1, _) = cache.get_or_compile(&bad);
        let (r2, hit) = cache.get_or_compile(&bad);
        assert!(r1.is_err() && r2.is_err());
        assert!(hit, "cached failure still counts as a hit");
        assert_eq!(cache.decode_count(), 1, "broken programs parse once");
        assert!(cache.lookup(bad.content_hash()).is_none());
    }
}
