//! Thread placement for the service workloads. On a two-CPU host the
//! scheduler's choice of which threads share a core flips every few
//! hundred milliseconds and moves request latency by half, so the
//! benchmark fixes it: the server's threads on one CPU, the load
//! generator's on another, as a remote client's would be. Threads
//! inherit the mask of the thread that spawns them, so pinning the
//! thread that calls `Server::start` places the whole server.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The CPUs this process may run on, in ascending order.
pub fn allowed_cpus() -> Vec<usize> {
    imp::allowed_cpus()
}

/// Restricts the calling thread (and threads it spawns from now on) to
/// `cpus`. Returns whether the kernel accepted the mask; a host that
/// cannot pin still runs the benchmark, only noisier.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    imp::pin_current_thread(cpus)
}

/// Keeps every allowed CPU from going idle while it lives, and watches
/// how disturbed each is: one thread per CPU in the `SCHED_IDLE` class,
/// which any other runnable thread preempts at once, running the
/// benchmark's reference kernel back to back.
///
/// On a virtual machine an idle CPU halts, and waking it costs a trip
/// through the hypervisor whose length drifts between tens and hundreds
/// of microseconds; a request that hands off between two CPUs would
/// measure that drift. And the server's CPU is not the load
/// generator's: only a kernel run *there* tells whether a neighbour is
/// slowing the server down. Each watcher publishes the smallest of its
/// last three kernel times — a run the program preempted is long, the
/// smallest of three rarely is.
pub struct KeepAwake {
    stop: Arc<AtomicBool>,
    watchers: Vec<(usize, Arc<AtomicU64>, std::thread::JoinHandle<()>)>,
}

impl KeepAwake {
    /// Starts the watchers; none where the host cannot demote them to
    /// the idle class (they would then compete with the program).
    pub fn start() -> KeepAwake {
        let stop = Arc::new(AtomicBool::new(false));
        let watchers = allowed_cpus()
            .into_iter()
            .map(|cpu| {
                let stop = Arc::clone(&stop);
                let level = Arc::new(AtomicU64::new(0));
                let published = Arc::clone(&level);
                let handle = std::thread::spawn(move || {
                    if !(pin_current_thread(&[cpu]) && imp::enter_idle_class()) {
                        return;
                    }
                    let mut last = [f64::INFINITY; 3];
                    let mut next = 0;
                    while !stop.load(Ordering::Relaxed) {
                        last[next % 3] = crate::harness::reference_kernel_seconds();
                        next += 1;
                        let best = last.iter().copied().fold(f64::INFINITY, f64::min);
                        published.store(best.to_bits(), Ordering::Relaxed);
                    }
                });
                (cpu, level, handle)
            })
            .collect();
        KeepAwake { stop, watchers }
    }

    /// The published kernel time of `cpu`'s watcher, in seconds (0 until
    /// its first run, and on hosts without watchers).
    pub fn level_of(&self, cpu: usize) -> Option<Arc<AtomicU64>> {
        self.watchers
            .iter()
            .find(|(c, _, _)| *c == cpu)
            .map(|(_, level, _)| Arc::clone(level))
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for (_, _, watcher) in self.watchers.drain(..) {
            let _ = watcher.join();
        }
    }
}

#[cfg(target_os = "linux")]
mod imp {
    const SCHED_IDLE: i32 = 5;

    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }

    /// Moves the calling thread to the `SCHED_IDLE` class.
    pub fn enter_idle_class() -> bool {
        let param = SchedParam { sched_priority: 0 };
        // SAFETY: `param` is a valid `struct sched_param`; pid 0 names
        // the calling thread.
        unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
    }

    /// `cpu_set_t`: 1024 bits.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }

    pub fn allowed_cpus() -> Vec<usize> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } == 0;
        if !ok {
            return Vec::new();
        }
        (0..1024)
            .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    pub fn pin_current_thread(cpus: &[usize]) -> bool {
        let mut set: CpuSet = [0; 16];
        for &cpu in cpus.iter().filter(|&&cpu| cpu < 1024) {
            set[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: `set` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin_current_thread(_cpus: &[usize]) -> bool {
        false
    }

    pub fn enter_idle_class() -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pinned_thread_and_its_children_stay_on_the_cpu() {
        let all = allowed_cpus();
        if all.is_empty() {
            return;
        }
        let last = *all.last().unwrap();
        std::thread::spawn(move || {
            assert!(pin_current_thread(&[last]));
            assert_eq!(allowed_cpus(), [last]);
            let child = std::thread::spawn(allowed_cpus).join().unwrap();
            assert_eq!(child, [last], "children inherit the mask");
        })
        .join()
        .unwrap();
        assert_eq!(allowed_cpus(), all, "the test's own thread is untouched");
    }
}
