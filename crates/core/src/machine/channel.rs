//! Bounded FIFO channels — the shared store behind `chmake`, `chpush`,
//! `chpop`, and `chclose`.
//!
//! A channel is a bounded queue of integers plus a closed flag. Channel
//! identifiers are positive integers (like heap base addresses), so they
//! travel through registers, stack/heap cells, and fork register-file
//! copies without a new value kind.
//!
//! The store holds only the *data* side of channel semantics. The
//! *blocking* side — which tasks are parked on a full or empty channel
//! and in what order they wake — belongs to the executor driving
//! [`crate::machine::step_task`], because task identity is
//! executor-specific (the [`crate::machine::Machine`] — whose driver the
//! native runtime runs too — owns [`crate::machine::TaskState`] values,
//! the simulator has task ids). Keeping the store pure is what makes the
//! instruction-level transitions identical across executors.

use std::collections::VecDeque;

use crate::machine::value::MachineError;

/// One bounded FIFO channel.
#[derive(Debug, Clone)]
pub struct Channel {
    /// Capacity in items (≥ 1), fixed at `chmake`.
    pub cap: usize,
    /// Buffered items, oldest first.
    pub buf: VecDeque<i64>,
    /// Whether `chclose` has run. Closing is idempotent; a closed
    /// channel rejects pushes and lets pops drain the buffer before
    /// faulting.
    pub closed: bool,
    /// Total items ever pushed (occupancy metrics).
    pub pushed: u64,
    /// Total items ever popped (occupancy metrics).
    pub popped: u64,
    /// High-water mark of the buffer length.
    pub max_occupancy: usize,
}

impl Channel {
    /// Whether the buffer is at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.buf.len() >= self.cap
    }
}

/// The channel store: allocation-ordered, identifiers are `index + 1`
/// so that `0` is never a valid channel (mirroring the heap's null).
#[derive(Debug, Clone, Default)]
pub struct ChannelStore {
    chans: Vec<Channel>,
}

impl ChannelStore {
    /// An empty store.
    pub fn new() -> ChannelStore {
        ChannelStore::default()
    }

    /// Allocates a channel of capacity `cap` (≥ 1) and returns its
    /// identifier.
    pub fn make(&mut self, cap: usize) -> i64 {
        debug_assert!(cap >= 1);
        self.chans.push(Channel {
            cap,
            buf: VecDeque::with_capacity(cap.min(1024)),
            closed: false,
            pushed: 0,
            popped: 0,
            max_occupancy: 0,
        });
        self.chans.len() as i64
    }

    /// Resolves an identifier.
    ///
    /// # Errors
    ///
    /// [`MachineError::NotAChannel`] for identifiers never returned by
    /// [`ChannelStore::make`].
    #[inline]
    pub fn get(&self, id: i64) -> Result<&Channel, MachineError> {
        if id >= 1 && (id as usize) <= self.chans.len() {
            Ok(&self.chans[id as usize - 1])
        } else {
            Err(MachineError::NotAChannel { id })
        }
    }

    /// Mutable variant of [`ChannelStore::get`].
    #[inline]
    pub fn get_mut(&mut self, id: i64) -> Result<&mut Channel, MachineError> {
        if id >= 1 && (id as usize) <= self.chans.len() {
            Ok(&mut self.chans[id as usize - 1])
        } else {
            Err(MachineError::NotAChannel { id })
        }
    }

    /// Number of channels ever allocated.
    pub fn len(&self) -> usize {
        self.chans.len()
    }

    /// Whether no channel was ever allocated.
    pub fn is_empty(&self) -> bool {
        self.chans.is_empty()
    }

    /// Iterates channels with their identifiers, in allocation order.
    pub fn iter(&self) -> impl Iterator<Item = (i64, &Channel)> {
        self.chans
            .iter()
            .enumerate()
            .map(|(i, c)| (i as i64 + 1, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identifiers_start_at_one() {
        let mut s = ChannelStore::new();
        assert_eq!(s.make(2), 1);
        assert_eq!(s.make(4), 2);
        assert!(s.get(0).is_err());
        assert!(s.get(3).is_err());
        assert!(s.get(-1).is_err());
        assert_eq!(s.get(1).unwrap().cap, 2);
    }

    #[test]
    fn full_and_close_flags() {
        let mut s = ChannelStore::new();
        let id = s.make(1);
        let c = s.get_mut(id).unwrap();
        assert!(!c.is_full());
        c.buf.push_back(7);
        assert!(c.is_full());
        assert!(!c.closed);
        c.closed = true;
        assert!(s.get(id).unwrap().closed);
    }
}
