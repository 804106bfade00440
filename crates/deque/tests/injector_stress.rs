//! Contention stress for the MPMC injector (a `Mutex<VecDeque>` behind
//! an atomic length): N producers × M consumers with seeded random
//! yields, asserting no element is lost or delivered twice. (Loom is
//! unavailable offline, so this is a seeded stress harness; it runs in
//! CI un-ignored.)

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use tpal_deque::Injector;

/// SplitMix64 step, for cheap deterministic per-thread jitter.
fn next(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn run_stress(producers: usize, consumers: usize, per_producer: usize, seed: u64) {
    let q = Arc::new(Injector::<u64>::new());
    let done_producing = Arc::new(AtomicBool::new(false));
    // One bit per element; a double-delivery trips the second set.
    let total = producers * per_producer;
    let seen: Arc<Vec<AtomicU64>> =
        Arc::new((0..total.div_ceil(64)).map(|_| AtomicU64::new(0)).collect());
    let received = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::new();
    for p in 0..producers {
        let q = Arc::clone(&q);
        handles.push(std::thread::spawn(move || {
            let mut rng = seed ^ (p as u64).wrapping_mul(0xA076_1D64_78BD_642F);
            for i in 0..per_producer {
                q.push((p * per_producer + i) as u64);
                if next(&mut rng).is_multiple_of(13) {
                    std::thread::yield_now();
                }
            }
        }));
    }
    let mut consumers_h = Vec::new();
    for c in 0..consumers {
        let q = Arc::clone(&q);
        let done = Arc::clone(&done_producing);
        let seen = Arc::clone(&seen);
        let received = Arc::clone(&received);
        consumers_h.push(std::thread::spawn(move || {
            let mut rng = seed ^ (c as u64).wrapping_mul(0xE703_7ED1_A0B4_28DB) ^ 1;
            loop {
                // Read before the probe: if the producers had finished
                // by then and the probe still finds nothing, the queue
                // is drained. (Probing again *after* seeing the flag
                // would throw away whatever that probe popped.)
                let finished = done.load(Ordering::Acquire);
                match q.pop() {
                    Some(v) => {
                        let (word, bit) = ((v / 64) as usize, v % 64);
                        let old = seen[word].fetch_or(1 << bit, Ordering::Relaxed);
                        assert_eq!(old & (1 << bit), 0, "element {v} delivered twice");
                        received.fetch_add(1, Ordering::Relaxed);
                        if next(&mut rng).is_multiple_of(17) {
                            std::thread::yield_now();
                        }
                    }
                    None if finished && q.is_empty() => break,
                    None => std::thread::yield_now(),
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    done_producing.store(true, Ordering::Release);
    for h in consumers_h {
        h.join().unwrap();
    }
    assert_eq!(
        received.load(Ordering::Relaxed),
        total as u64,
        "every pushed element is delivered exactly once"
    );
    assert!(q.is_empty());
}

#[test]
fn mpmc_2x2() {
    run_stress(2, 2, 20_000, 0xDEC0DE);
}

#[test]
fn mpmc_4x4() {
    run_stress(4, 4, 10_000, 0xFEED);
}

#[test]
fn mpmc_many_producers_one_consumer() {
    run_stress(6, 1, 8_000, 0xBEEF);
}

#[test]
fn mpmc_one_producer_many_consumers() {
    run_stress(1, 6, 40_000, 0xCAFE);
}
