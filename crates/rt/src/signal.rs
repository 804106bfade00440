//! Interrupt-driven heartbeat delivery: per-worker POSIX interval
//! timers ([`HeartbeatSource::TimerSignal`](crate::HeartbeatSource)).
//!
//! Each worker owns a `timer_create(CLOCK_MONOTONIC, SIGEV_THREAD_ID)`
//! interval timer targeting its own thread. Every ♥ the kernel delivers
//! a real-time signal to that thread; the handler performs exactly one
//! job — raise the worker's [`HeartbeatCell`] flag — and promotion-ready
//! points consume it with a single relaxed load. This is the paper's
//! interrupt-driven delivery (Nautilus APIC timers + rollforward): the
//! interrupt lands asynchronously, and the beat takes effect at the next
//! promotion-ready point, with no clock read or deadline arithmetic on
//! the polling path.
//!
//! # Async-signal-safety
//!
//! The handler body is two lock-free atomic operations on a
//! `HeartbeatCell` reached through a *const-initialised* thread-local
//! pointer ([`HB_CELL`]): no allocation, no locks, no lazy TLS
//! initialisation (const-init `thread_local!` with no destructor lowers
//! to a plain TLS read), no libc calls. `SIGEV_THREAD_ID` guarantees the
//! signal is delivered to the worker thread that owns the cell, so the
//! handler runs on the thread whose TLS slot was registered — the raise
//! and the consuming poll are same-thread program-order, which is why
//! the consuming load can be `Relaxed`.
//!
//! # Memory ordering
//!
//! `raise` stores the flag with `Release` and the poll loads it
//! `Relaxed`; for same-thread signal delivery even `Relaxed`/`Relaxed`
//! would do (a signal handler is sequenced within its thread), and the
//! `delivered` counter is only statistical.
//!
//! # EINTR
//!
//! The handler is installed with `SA_RESTART`, so `accept`/`read`/
//! `sleep`-class syscalls on signalled threads restart transparently.
//! The runtime's own blocking sites are additionally robust by
//! construction: every park (the idle sleep's `park_timeout`, the
//! result latch's `park`) sits in a recheck loop that tolerates
//! spurious early returns, which is all a non-restartable futex wait
//! can produce.
//!
//! # Portability
//!
//! `SIGEV_THREAD_ID` timers are Linux-specific, and the hand-written
//! `extern "C"` declarations below pin the glibc x86_64/aarch64 ABI
//! (offline-shim discipline: no libc crate). Elsewhere this module
//! compiles to a stub whose [`supported`] returns `false`, and
//! [`Runtime::new`](crate::Runtime::new) falls back to
//! [`HeartbeatSource::PingThread`](crate::HeartbeatSource) — the
//! portable flag-raising mechanism with the same consumption semantics.

#[cfg(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
))]
mod imp {
    use std::cell::Cell;
    use std::sync::OnceLock;
    use std::time::Duration;

    use tpal_sched::HeartbeatCell;

    /// The heartbeat signal: a real-time signal safely inside the RT
    /// range (glibc reserves 32/33 for NPTL; SIGRTMIN is 34). A fixed
    /// number rather than `SIGRTMIN+n` so the `extern "C"` surface stays
    /// minimal; nothing else in the process uses RT signals.
    const HEARTBEAT_SIGNO: i32 = 40;

    const SIGEV_THREAD_ID: i32 = 4;
    const CLOCK_MONOTONIC: i32 = 1;
    const SA_RESTART: i32 = 0x1000_0000;
    #[cfg(target_arch = "x86_64")]
    const SYS_GETTID: i64 = 186;
    #[cfg(target_arch = "aarch64")]
    const SYS_GETTID: i64 = 178;

    /// glibc's `sigevent`, laid out for the `SIGEV_THREAD_ID` case: the
    /// kernel-thread-id field aliases the start of the union following
    /// the (value, signo, notify) header.
    #[repr(C)]
    struct SigEvent {
        sigev_value: usize,
        sigev_signo: i32,
        sigev_notify: i32,
        sigev_tid: i32,
        _pad: [i32; 11],
    }

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct TimeSpec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    #[repr(C)]
    struct ITimerSpec {
        it_interval: TimeSpec,
        it_value: TimeSpec,
    }

    /// glibc's `struct sigaction` (x86_64/aarch64): handler, a 1024-bit
    /// signal mask, flags, restorer (managed by glibc's wrapper).
    #[repr(C)]
    struct SigAction {
        sa_sigaction: usize,
        sa_mask: [u64; 16],
        sa_flags: i32,
        sa_restorer: usize,
    }

    extern "C" {
        fn timer_create(clockid: i32, sevp: *mut SigEvent, timerid: *mut usize) -> i32;
        fn timer_settime(
            timerid: usize,
            flags: i32,
            new_value: *const ITimerSpec,
            old_value: *mut ITimerSpec,
        ) -> i32;
        fn timer_delete(timerid: usize) -> i32;
        fn sigaction(signum: i32, act: *const SigAction, oldact: *mut SigAction) -> i32;
        fn syscall(num: i64, ...) -> i64;
    }

    thread_local! {
        /// The signal handler's target: a pointer to this worker's
        /// `HeartbeatCell`, registered before the timer is armed and
        /// cleared when it is torn down. Const-initialised and
        /// destructor-free, so handler access is a plain TLS read.
        static HB_CELL: Cell<*const HeartbeatCell> = const { Cell::new(std::ptr::null()) };
    }

    /// The signal handler. Async-signal-safe: one TLS read plus the two
    /// atomic operations of [`HeartbeatCell::raise`]. Null target (a
    /// stray signal after teardown, or a probe delivery) is a no-op.
    ///
    /// Installed *without* `SA_SIGINFO`: the handler reads nothing from
    /// `siginfo_t`/`ucontext_t`, and the three-argument frame is
    /// measurably more expensive to build (~4µs/beat of ~27µs on the
    /// virtualised dev host) than the classic one-argument frame.
    ///
    /// Nothing here may record a trace event: `SharedTracer::record`
    /// takes the track's lock, which the interrupted worker may hold, so
    /// a record from this handler would deadlock. The delivery instant is
    /// recorded by the worker when it consumes the flag.
    extern "C" fn on_heartbeat(_signo: i32) {
        let cell = HB_CELL.with(Cell::get);
        if !cell.is_null() {
            // SAFETY: the registering worker keeps the cell alive (it
            // lives in the pool's `Shared`, which the worker holds an
            // Arc to) until after its `WorkerTimer` is dropped, and the
            // drop clears this slot after deleting the timer.
            unsafe { (*cell).raise() };
        }
    }

    /// Installs the process-wide handler once. Subsequent calls return
    /// the first outcome.
    fn install_handler() -> bool {
        static INSTALLED: OnceLock<bool> = OnceLock::new();
        *INSTALLED.get_or_init(|| {
            let act = SigAction {
                sa_sigaction: on_heartbeat as *const () as usize,
                sa_mask: [0; 16],
                sa_flags: SA_RESTART,
                sa_restorer: 0,
            };
            // SAFETY: valid sigaction for a free RT signal; the handler
            // is async-signal-safe (see module docs).
            unsafe { sigaction(HEARTBEAT_SIGNO, &act, std::ptr::null_mut()) == 0 }
        })
    }

    fn gettid() -> i32 {
        // SAFETY: gettid takes no arguments and cannot fail.
        (unsafe { syscall(SYS_GETTID) }) as i32
    }

    /// Whether this platform can deliver timer-signal heartbeats,
    /// probed once per process: handler installation plus a dummy
    /// per-thread timer create/delete round trip (catching e.g. seccomp
    /// filters or RT-signal exhaustion at runtime, not just at cfg time).
    pub fn supported() -> bool {
        static SUPPORTED: OnceLock<bool> = OnceLock::new();
        *SUPPORTED.get_or_init(|| {
            if !install_handler() {
                return false;
            }
            let mut sev = SigEvent {
                sigev_value: 0,
                sigev_signo: HEARTBEAT_SIGNO,
                sigev_notify: SIGEV_THREAD_ID,
                sigev_tid: gettid(),
                _pad: [0; 11],
            };
            let mut id = 0usize;
            // SAFETY: well-formed sigevent; the timer is never armed and
            // deleted immediately, so no signal is generated.
            unsafe {
                if timer_create(CLOCK_MONOTONIC, &mut sev, &mut id) != 0 {
                    return false;
                }
                timer_delete(id);
            }
            true
        })
    }

    /// One worker's armed interval timer: RAII over
    /// `timer_create`/`timer_settime`/`timer_delete` plus the TLS
    /// handler-target registration. Must be created and dropped on the
    /// worker thread that owns `cell` (enforced by use: it lives on
    /// `worker_main`'s stack).
    pub struct WorkerTimer {
        id: usize,
    }

    impl WorkerTimer {
        /// Registers `cell` as this thread's signal target and arms a
        /// per-thread interval timer firing every `interval`. Returns
        /// `None` (with the registration rolled back) if the platform
        /// refuses — callers fall back to another source.
        ///
        /// The caller must keep `cell` alive until the returned guard is
        /// dropped; in the runtime the cell lives in `Shared` and the
        /// worker holds an `Arc<Shared>` across the guard's lifetime.
        pub fn install(cell: &HeartbeatCell, interval: Duration) -> Option<WorkerTimer> {
            if !supported() {
                return None;
            }
            HB_CELL.with(|c| c.set(cell as *const HeartbeatCell));
            let mut sev = SigEvent {
                sigev_value: 0,
                sigev_signo: HEARTBEAT_SIGNO,
                sigev_notify: SIGEV_THREAD_ID,
                sigev_tid: gettid(),
                _pad: [0; 11],
            };
            let mut id = 0usize;
            // SAFETY: well-formed sigevent targeting this thread; the
            // handler only touches `cell`, registered above.
            if unsafe { timer_create(CLOCK_MONOTONIC, &mut sev, &mut id) } != 0 {
                HB_CELL.with(|c| c.set(std::ptr::null()));
                return None;
            }
            let ns = interval.as_nanos().max(1).min(u128::from(u64::MAX)) as u64;
            let period = TimeSpec {
                tv_sec: (ns / 1_000_000_000) as i64,
                tv_nsec: (ns % 1_000_000_000) as i64,
            };
            let spec = ITimerSpec {
                it_interval: period,
                it_value: period,
            };
            // SAFETY: freshly created timer id; spec is non-zero so the
            // timer arms periodically.
            if unsafe { timer_settime(id, 0, &spec, std::ptr::null_mut()) } != 0 {
                // SAFETY: id came from timer_create above.
                unsafe { timer_delete(id) };
                HB_CELL.with(|c| c.set(std::ptr::null()));
                return None;
            }
            Some(WorkerTimer { id })
        }
    }

    impl Drop for WorkerTimer {
        fn drop(&mut self) {
            // Delete first, clear the target second: a signal already
            // pending at delete time may still run the handler, and the
            // cell is still alive here (the worker's Arc<Shared> outlives
            // this guard). After the clear, any stray delivery no-ops.
            // SAFETY: id came from timer_create in `install`.
            unsafe { timer_delete(self.id) };
            HB_CELL.with(|c| c.set(std::ptr::null()));
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::sync::atomic::Ordering;
        use std::time::Instant;

        #[test]
        fn timer_delivers_and_teardown_stops_delivery() {
            assert!(supported(), "test container is Linux glibc");
            // Order matters: `cell` declared before `timer` so the guard
            // drops first while the cell is still alive.
            let cell = HeartbeatCell::new();
            let timer = WorkerTimer::install(&cell, Duration::from_micros(100))
                .expect("install worker timer");
            let start = Instant::now();
            while cell.delivered.load(Ordering::Relaxed) < 5 {
                assert!(
                    start.elapsed() < Duration::from_secs(5),
                    "no deliveries within 5s"
                );
                std::hint::spin_loop();
            }
            assert!(
                cell.poll(tpal_sched::HeartbeatSource::TimerSignal, 0, || 0),
                "delivered beats must be consumable"
            );
            drop(timer);
            let after = cell.delivered.load(Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(5));
            // One pending signal may still land around the delete; the
            // stream must stop after that.
            let later = cell.delivered.load(Ordering::Relaxed);
            std::thread::sleep(Duration::from_millis(5));
            assert_eq!(
                cell.delivered.load(Ordering::Relaxed),
                later,
                "deliveries continued after teardown (armed={after})"
            );
        }
    }
}

#[cfg(not(all(
    target_os = "linux",
    any(target_arch = "x86_64", target_arch = "aarch64")
)))]
mod imp {
    use std::time::Duration;

    use tpal_sched::HeartbeatCell;

    /// Timer-signal delivery is Linux-only; see the module docs for the
    /// fallback story.
    pub fn supported() -> bool {
        false
    }

    /// Stub guard: never constructed off Linux.
    pub struct WorkerTimer {}

    impl WorkerTimer {
        /// Always `None`: callers fall back to
        /// [`HeartbeatSource::PingThread`](crate::HeartbeatSource).
        pub fn install(_cell: &HeartbeatCell, _interval: Duration) -> Option<WorkerTimer> {
            None
        }
    }
}

pub use imp::supported;
pub(crate) use imp::WorkerTimer;
