//! Untrusted external memory and the physical-attacker model (§3).
//!
//! Everything outside the processor chip — in particular RAM and the
//! memory bus — can be observed and modified by the adversary. The
//! functional engine keeps its backing store in an [`UntrustedMemory`],
//! and tests/examples attack it through the [`Adversary`] view, which can
//! flip bits, overwrite blocks, relocate data between addresses, and
//! mount **replay attacks** (snapshot a region, let the program update it,
//! then restore the stale bytes — exactly the §4.4 attack on XOM).
//!
//! The attack vocabulary itself lives in [`crate::adversary`] (it is
//! shared with the campaign engine); the historical paths
//! `storage::{Adversary, Snapshot, TamperKind}` remain as re-exports.

use std::fmt;

pub use crate::adversary::{Adversary, Snapshot, TamperKind};

/// Untrusted off-chip memory: a flat byte array the adversary controls.
///
/// # Examples
///
/// ```
/// use miv_core::storage::UntrustedMemory;
///
/// let mut mem = UntrustedMemory::new(1024);
/// mem.write(16, b"hello");
/// assert_eq!(mem.read_vec(16, 5), b"hello");
/// ```
#[derive(Clone)]
pub struct UntrustedMemory {
    bytes: Vec<u8>,
    reads: u64,
    writes: u64,
}

impl fmt::Debug for UntrustedMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("UntrustedMemory")
            .field("len", &self.bytes.len())
            .field("reads", &self.reads)
            .field("writes", &self.writes)
            .finish()
    }
}

impl UntrustedMemory {
    /// Allocates `len` bytes of zeroed memory.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the host's address space.
    pub fn new(len: u64) -> Self {
        UntrustedMemory {
            bytes: vec![0u8; usize::try_from(len).expect("memory size fits the address space")],
            reads: 0,
            writes: 0,
        }
    }

    /// Size in bytes.
    pub fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Returns `true` if the memory has zero length.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn read(&mut self, addr: u64, buf: &mut [u8]) {
        self.reads += 1;
        let a = usize::try_from(addr).expect("address within memory");
        buf.copy_from_slice(&self.bytes[a..a + buf.len()]);
    }

    /// Reads `len` bytes starting at `addr` into a fresh vector.
    pub fn read_vec(&mut self, addr: u64, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.read(addr, &mut buf);
        buf
    }

    /// Borrows `len` bytes starting at `addr` as one read transaction.
    /// The bulk tree build hashes whole levels through this without
    /// copying each chunk image out.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn region(&mut self, addr: u64, len: usize) -> &[u8] {
        self.reads += 1;
        let a = usize::try_from(addr).expect("address within memory");
        &self.bytes[a..a + len]
    }

    /// Writes `data` starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        self.writes += 1;
        let a = usize::try_from(addr).expect("address within memory");
        self.bytes[a..a + data.len()].copy_from_slice(data);
    }

    /// Number of read transactions performed (functional accounting).
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of write transactions performed.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut mem = UntrustedMemory::new(256);
        assert_eq!(mem.len(), 256);
        assert!(!mem.is_empty());
        mem.write(10, &[1, 2, 3]);
        assert_eq!(mem.read_vec(10, 3), vec![1, 2, 3]);
        assert_eq!(mem.read_vec(13, 1), vec![0]);
        assert_eq!(mem.writes(), 1);
        assert_eq!(mem.reads(), 2);
    }

    #[test]
    fn reexported_adversary_surface_still_reachable() {
        // Back-compat: the adversary surface moved to `crate::adversary`
        // but the `storage::` paths must keep working.
        let mut mem = UntrustedMemory::new(64);
        mem.write(5, &[0xFF]);
        let mut adv = Adversary::new(&mut mem);
        adv.tamper(5, TamperKind::BitFlip { bit: 0 });
        assert_eq!(adv.observe(5, 1), vec![0xFE]);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_read_panics() {
        let mut mem = UntrustedMemory::new(16);
        let _ = mem.read_vec(15, 2);
    }
}
