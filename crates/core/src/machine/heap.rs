//! The shared heap (the extension the paper's Appendix B.2 notes is
//! "also possible" but omits): a single word-addressed store of 64-bit
//! integers, shared by all tasks. Addresses are plain integers; address 0
//! is null. Allocation is a bump allocator; workloads are bounded, so
//! nothing is freed.

use crate::machine::value::MachineError;

/// The most words the heap may hold once `halloc` has run (2²⁴ words,
/// 128 MiB): an allocation that would take it past this faults with
/// [`MachineError::HeapExhausted`] instead of asking the host for it.
/// The largest heap any registry workload reaches at `Scale::Full`, on
/// every lowering, is `plus-reduce-array`'s 1 200 001 words (its input
/// array plus the null word), so this leaves 14× headroom.
pub const MAX_HEAP_WORDS: usize = 1 << 24;

/// The shared heap of a machine.
#[derive(Debug, Clone, Default)]
pub struct Heap {
    words: Vec<i64>,
}

impl Heap {
    /// Creates an empty heap. Word address 0 is reserved as null.
    pub fn new() -> Self {
        Heap { words: vec![0] }
    }

    /// Allocates `size` zero-initialised words, returning the base
    /// address.
    pub fn alloc(&mut self, size: usize) -> i64 {
        let base = self.next_base();
        self.words.resize(self.words.len() + size, 0);
        base
    }

    /// Allocates and initialises an array, returning its base address.
    /// The words are written once, straight from `data`.
    pub fn alloc_init(&mut self, data: &[i64]) -> i64 {
        let base = self.next_base();
        self.words.extend_from_slice(data);
        base
    }

    /// Where the next allocation starts, once the null word is reserved
    /// (a `Heap::default()` has none yet).
    fn next_base(&mut self) -> i64 {
        if self.words.is_empty() {
            self.words.push(0);
        }
        self.words.len() as i64
    }

    fn check(&self, addr: i64) -> Result<usize, MachineError> {
        if addr <= 0 || addr as usize >= self.words.len() {
            return Err(MachineError::HeapOutOfRange { addr });
        }
        Ok(addr as usize)
    }

    /// Loads the word at `base + offset`.
    #[inline]
    pub fn load(&self, base: i64, offset: i64) -> Result<i64, MachineError> {
        Self::load_in(&self.words, base, offset)
    }

    /// Stores a word at `base + offset`.
    #[inline]
    pub fn store(&mut self, base: i64, offset: i64, v: i64) -> Result<(), MachineError> {
        Self::store_in(&mut self.words, base, offset, v)
    }

    /// [`Heap::load`] over a borrowed word slice. Hot interpreter loops
    /// borrow the words once (nothing allocates between scheduling
    /// boundaries) so the slice stays in machine registers.
    ///
    /// (A negative address casts to a `usize` far beyond any length, so
    /// the single `get` doubles as the upper *and* lower range check;
    /// only null needs testing separately.)
    #[inline(always)]
    pub(crate) fn load_in(words: &[i64], base: i64, offset: i64) -> Result<i64, MachineError> {
        let addr = base.wrapping_add(offset);
        if addr == 0 {
            return Err(MachineError::HeapOutOfRange { addr });
        }
        words
            .get(addr as usize)
            .copied()
            .ok_or(MachineError::HeapOutOfRange { addr })
    }

    /// [`Heap::store`] over a borrowed word slice.
    #[inline(always)]
    pub(crate) fn store_in(
        words: &mut [i64],
        base: i64,
        offset: i64,
        v: i64,
    ) -> Result<(), MachineError> {
        let addr = base.wrapping_add(offset);
        if addr == 0 {
            return Err(MachineError::HeapOutOfRange { addr });
        }
        match words.get_mut(addr as usize) {
            Some(w) => {
                *w = v;
                Ok(())
            }
            None => Err(MachineError::HeapOutOfRange { addr }),
        }
    }

    /// The raw word slice, for hot loops that pair with
    /// [`Heap::load_in`]/[`Heap::store_in`].
    #[inline]
    pub(crate) fn words_mut(&mut self) -> &mut [i64] {
        &mut self.words
    }

    /// A view of `len` words starting at `base` (for reading results back
    /// out of a finished machine).
    pub fn slice(&self, base: i64, len: usize) -> Result<&[i64], MachineError> {
        let a = self.check(base)?;
        if a + len > self.words.len() {
            return Err(MachineError::HeapOutOfRange {
                addr: (a + len) as i64 - 1,
            });
        }
        Ok(&self.words[a..a + len])
    }

    /// Total words allocated (including the null word).
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Returns `true` if nothing beyond the null word was allocated.
    pub fn is_empty(&self) -> bool {
        self.words.len() <= 1
    }

    /// A deterministic checksum over the whole heap (an FNV-1a-style
    /// wrapping fold over every word, position included). Differential
    /// tests use it to compare two heaps without materialising both.
    pub fn checksum(&self) -> u64 {
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for &w in &self.words {
            h ^= w as u64;
            h = h.wrapping_mul(0x100_0000_01B3);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_load_store() {
        let mut h = Heap::new();
        let a = h.alloc(4);
        assert!(a > 0);
        h.store(a, 2, 42).unwrap();
        assert_eq!(h.load(a, 2).unwrap(), 42);
        assert_eq!(h.load(a, 0).unwrap(), 0);
    }

    #[test]
    fn null_and_out_of_range_rejected() {
        let mut h = Heap::new();
        let a = h.alloc(2);
        assert!(matches!(
            h.load(0, 0),
            Err(MachineError::HeapOutOfRange { .. })
        ));
        assert!(matches!(
            h.load(a, 2),
            Err(MachineError::HeapOutOfRange { .. })
        ));
        assert!(matches!(
            h.store(-1, 0, 1),
            Err(MachineError::HeapOutOfRange { .. })
        ));
    }

    #[test]
    fn alloc_init_roundtrip() {
        let mut h = Heap::new();
        let a = h.alloc_init(&[5, 6, 7]);
        assert_eq!(h.slice(a, 3).unwrap(), &[5, 6, 7]);
    }

    #[test]
    fn alloc_init_into_a_default_heap_reserves_null_first() {
        let mut h = Heap::default();
        let a = h.alloc_init(&[5, 6, 7]);
        assert_eq!(a, 1);
        assert_eq!(h.len(), 4);
        assert_eq!(h.slice(a, 3).unwrap(), &[5, 6, 7]);
        assert!(matches!(
            h.load(0, 0),
            Err(MachineError::HeapOutOfRange { .. })
        ));
        let b = h.alloc_init(&[]);
        assert_eq!(b, 4);
        assert_eq!(h.len(), 4);
    }

    #[test]
    fn distinct_allocations_do_not_overlap() {
        let mut h = Heap::new();
        let a = h.alloc(3);
        let b = h.alloc(3);
        h.store(a, 2, 1).unwrap();
        h.store(b, 0, 2).unwrap();
        assert_eq!(h.load(a, 2).unwrap(), 1);
        assert!(a + 3 <= b);
    }
}
