//! Work-stealing deques for the TPAL runtimes.
//!
//! Heartbeat scheduling (Acar et al., PLDI 2018; Rainey et al., PLDI 2021)
//! is agnostic to the load-balancing algorithm, but every practical
//! implementation in the paper uses *randomized work stealing*: each worker
//! owns a double-ended queue, pushes and pops promoted tasks at the bottom,
//! and idle workers steal from the top of a random victim.
//!
//! This crate provides that substrate, built from scratch:
//!
//! * [`chase_lev`] — the lock-free Chase–Lev dynamic circular deque
//!   (Chase & Lev, SPAA 2005, with the C11 memory orderings of Lê et al.,
//!   PPoPP 2013). This is what the runtimes use.
//! * [`injector`] — the runtime's global injector for external job
//!   submissions: a `Mutex<VecDeque>` whose atomic length lets an idle
//!   worker probe it empty without the lock. A push is paid once per
//!   run, so only the probe needs to be lock-free.
//! * [`mutex_deque`] — a trivially-correct mutex-protected deque with the
//!   same interface, used as the oracle in differential and stress tests.
//!
//! # Examples
//!
//! ```
//! use tpal_deque::{deque, Steal};
//!
//! let (worker, stealer) = deque::<u32>();
//! worker.push(1);
//! worker.push(2);
//! // The owner pops LIFO...
//! assert_eq!(worker.pop(), Some(2));
//! // ...while thieves steal FIFO from the other end.
//! assert_eq!(stealer.steal(), Steal::Success(1));
//! assert_eq!(stealer.steal(), Steal::Empty);
//! ```

#![warn(missing_docs)]

pub mod chase_lev;
pub mod injector;
pub mod mutex_deque;

pub use chase_lev::{deque, Steal, Stealer, Worker};
pub use injector::Injector;

/// Pads and aligns a value to a cache line, so two adjacent values in a
/// struct or array cannot false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);
