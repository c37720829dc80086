//! The trusted on-chip cache used by the functional verification engine.
//!
//! In the paper's *chash* family, tree machinery is merged with the L2:
//! anything resident in this cache is **trusted** — it was verified on the
//! way in (or produced on-chip) and physical attackers cannot reach it. A
//! cached tree node therefore acts as the root of a smaller subtree.
//!
//! Unlike the timing model in `miv-cache`, this cache carries real bytes.
//! It is fully associative with true-LRU replacement (the functional
//! engine cares about *what* is cached, not about set conflicts — those
//! belong to the timing model) and supports **pinning**: blocks involved
//! in an in-progress write-back cascade cannot be chosen as victims,
//! which is how the engine keeps multi-step updates atomic with respect
//! to re-entrant evictions.

#[expect(
    clippy::disallowed_types,
    reason = "hot-path lookup table; the only iteration sites are dirty_blocks (sorted before use) and iter_blocks, whose consumers fold into order-insensitive sets"
)]
use std::collections::{BTreeMap, HashMap};

use crate::error::ConfigError;

/// A block-granular trusted cache holding real data.
///
/// Keys are block-aligned physical addresses.
///
/// # Examples
///
/// ```
/// use miv_core::trusted_cache::TrustedCache;
///
/// let mut c = TrustedCache::new(2, 64);
/// c.insert(0, vec![1u8; 64], false);
/// c.insert(64, vec![2u8; 64], true);
/// assert!(c.needs_eviction());          // at capacity
/// assert_eq!(c.victim(), Some(0));      // 0 is least recently used
/// ```
#[derive(Debug, Clone)]
pub struct TrustedCache {
    capacity: usize,
    block_bytes: usize,
    #[expect(
        clippy::disallowed_types,
        reason = "per-access lookup is the hot path (bench-gated); iteration never feeds output directly"
    )]
    entries: HashMap<u64, Entry>,
    /// stamp → addr index for O(log n) LRU victim selection.
    lru: BTreeMap<u64, u64>,
    clock: u64,
    hits: u64,
    misses: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    data: Vec<u8>,
    dirty: bool,
    stamp: u64,
    pins: u32,
}

impl TrustedCache {
    /// Creates a cache holding up to `capacity` blocks of `block_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `block_bytes` is zero;
    /// [`try_new`](Self::try_new) is the fallible form.
    pub fn new(capacity: usize, block_bytes: usize) -> Self {
        Self::try_new(capacity, block_bytes)
            .expect("documented invariant: positive capacity and block size")
    }

    /// Fallible form of [`new`](Self::new), for callers building from a
    /// user-supplied spec.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::CacheTooSmall`] when `capacity` is zero
    /// and [`ConfigError::ZeroSize`] when `block_bytes` is zero.
    pub fn try_new(capacity: usize, block_bytes: usize) -> Result<Self, ConfigError> {
        if capacity < 1 {
            return Err(ConfigError::CacheTooSmall {
                blocks: capacity,
                min_blocks: 1,
            });
        }
        if block_bytes < 1 {
            return Err(ConfigError::ZeroSize { what: "block" });
        }
        Ok(TrustedCache {
            capacity,
            block_bytes,
            #[expect(
                clippy::disallowed_types,
                reason = "see the field declaration: lookup-only hot path"
            )]
            entries: HashMap::with_capacity(capacity + 4),
            lru: BTreeMap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        })
    }

    /// Capacity in blocks.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Whether `addr` is resident (no LRU side effect, not counted).
    pub fn contains(&self, addr: u64) -> bool {
        self.entries.contains_key(&addr)
    }

    /// The dirty bit of a resident block.
    pub fn dirty(&self, addr: u64) -> Option<bool> {
        self.entries.get(&addr).map(|e| e.dirty)
    }

    /// Reads a resident block, refreshing LRU and counting a hit/miss.
    pub fn get(&mut self, addr: u64) -> Option<&[u8]> {
        if self.entries.contains_key(&addr) {
            self.hits += 1;
            self.touch(addr);
            self.entries.get(&addr).map(|e| e.data.as_slice())
        } else {
            self.misses += 1;
            None
        }
    }

    /// Reads a resident block without counters or LRU effects.
    pub fn peek(&self, addr: u64) -> Option<&[u8]> {
        self.entries.get(&addr).map(|e| e.data.as_slice())
    }

    /// Mutably accesses a resident block, marking it dirty and refreshing
    /// LRU; counts a hit/miss.
    pub fn get_mut(&mut self, addr: u64) -> Option<&mut [u8]> {
        if self.entries.contains_key(&addr) {
            self.hits += 1;
            self.touch(addr);
            self.entries.get_mut(&addr).map(|e| {
                e.dirty = true;
                e.data.as_mut_slice()
            })
        } else {
            self.misses += 1;
            None
        }
    }

    /// Inserts a block (must not already be resident). The cache may
    /// exceed capacity transiently; callers drain it with
    /// [`victim`](Self::victim)/[`remove`](Self::remove).
    ///
    /// # Panics
    ///
    /// Panics if the block is already resident or `data` has the wrong
    /// length.
    pub fn insert(&mut self, addr: u64, data: Vec<u8>, dirty: bool) {
        assert_eq!(data.len(), self.block_bytes, "block size mismatch");
        assert!(
            !self.entries.contains_key(&addr),
            "block {addr:#x} already cached"
        );
        self.clock += 1;
        self.lru.insert(self.clock, addr);
        self.entries.insert(
            addr,
            Entry {
                data,
                dirty,
                stamp: self.clock,
                pins: 0,
            },
        );
    }

    /// Marks a resident block clean. Returns `true` if present.
    pub fn mark_clean(&mut self, addr: u64) -> bool {
        match self.entries.get_mut(&addr) {
            Some(e) => {
                e.dirty = false;
                true
            }
            None => false,
        }
    }

    /// Marks a resident block dirty without LRU/counter effects.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        match self.entries.get_mut(&addr) {
            Some(e) => {
                e.dirty = true;
                true
            }
            None => false,
        }
    }

    /// Removes and returns a block's `(data, dirty)`.
    ///
    /// # Panics
    ///
    /// Panics if the block is pinned.
    pub fn remove(&mut self, addr: u64) -> Option<(Vec<u8>, bool)> {
        if let Some(e) = self.entries.get(&addr) {
            assert_eq!(e.pins, 0, "removing pinned block {addr:#x}");
        }
        self.entries.remove(&addr).map(|e| {
            self.lru.remove(&e.stamp);
            (e.data, e.dirty)
        })
    }

    /// Whether the cache is at or above capacity.
    pub fn needs_eviction(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Whether the cache is strictly above capacity (insertions during a
    /// pinned cascade may overshoot by a bounded amount).
    pub fn over_capacity(&self) -> bool {
        self.entries.len() > self.capacity
    }

    /// The least-recently-used unpinned block, if any.
    pub fn victim(&self) -> Option<u64> {
        self.lru
            .values()
            .copied()
            .find(|addr| self.entries[addr].pins == 0)
    }

    /// Pins a resident block (nestable).
    ///
    /// # Panics
    ///
    /// Panics if the block is not resident.
    pub fn pin(&mut self, addr: u64) {
        self.entries
            .get_mut(&addr)
            .expect("pinning absent block")
            .pins += 1;
    }

    /// Unpins a resident block.
    ///
    /// # Panics
    ///
    /// Panics if the block is not resident or not pinned.
    pub fn unpin(&mut self, addr: u64) {
        let e = self.entries.get_mut(&addr).expect("unpinning absent block");
        assert!(e.pins > 0, "unpinning unpinned block {addr:#x}");
        e.pins -= 1;
    }

    /// Iterates over `(addr, dirty)` of all resident blocks (arbitrary
    /// order).
    pub fn iter_blocks(&self) -> impl Iterator<Item = (u64, bool)> + '_ {
        self.entries.iter().map(|(a, e)| (*a, e.dirty))
    }

    /// Addresses of all dirty blocks.
    pub fn dirty_blocks(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .entries
            .iter()
            .filter(|(_, e)| e.dirty)
            .map(|(a, _)| *a)
            .collect();
        v.sort_unstable();
        v
    }

    fn touch(&mut self, addr: u64) {
        self.clock += 1;
        let e = self.entries.get_mut(&addr).expect("present");
        self.lru.remove(&e.stamp);
        e.stamp = self.clock;
        self.lru.insert(self.clock, addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(n: u8) -> Vec<u8> {
        vec![n; 64]
    }

    #[test]
    fn try_new_rejects_zero_geometry() {
        assert!(matches!(
            TrustedCache::try_new(0, 64),
            Err(ConfigError::CacheTooSmall {
                blocks: 0,
                min_blocks: 1
            })
        ));
        assert!(matches!(
            TrustedCache::try_new(4, 0),
            Err(ConfigError::ZeroSize { what: "block" })
        ));
        assert!(TrustedCache::try_new(4, 64).is_ok());
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut c = TrustedCache::new(4, 64);
        c.insert(0, filled(1), false);
        assert_eq!(c.get(0).unwrap()[0], 1);
        assert!(c.get(64).is_none());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn get_mut_dirties() {
        let mut c = TrustedCache::new(4, 64);
        c.insert(0, filled(0), false);
        c.get_mut(0).unwrap()[5] = 9;
        assert_eq!(c.dirty(0), Some(true));
        assert_eq!(c.peek(0).unwrap()[5], 9);
        assert_eq!(c.dirty_blocks(), vec![0]);
    }

    #[test]
    fn lru_victim_order() {
        let mut c = TrustedCache::new(3, 64);
        c.insert(0, filled(0), false);
        c.insert(64, filled(1), false);
        c.insert(128, filled(2), false);
        assert!(c.needs_eviction());
        assert_eq!(c.victim(), Some(0));
        c.get(0); // refresh
        assert_eq!(c.victim(), Some(64));
    }

    #[test]
    fn pinned_blocks_are_not_victims() {
        let mut c = TrustedCache::new(2, 64);
        c.insert(0, filled(0), false);
        c.insert(64, filled(1), false);
        c.pin(0);
        assert_eq!(c.victim(), Some(64));
        c.pin(64);
        assert_eq!(c.victim(), None);
        c.unpin(0);
        assert_eq!(c.victim(), Some(0));
        c.unpin(64);
    }

    #[test]
    fn pins_nest() {
        let mut c = TrustedCache::new(2, 64);
        c.insert(0, filled(0), false);
        c.pin(0);
        c.pin(0);
        c.unpin(0);
        assert_eq!(c.victim(), None, "still pinned once");
        c.unpin(0);
        assert_eq!(c.victim(), Some(0));
    }

    #[test]
    #[should_panic(expected = "removing pinned")]
    fn remove_pinned_panics() {
        let mut c = TrustedCache::new(2, 64);
        c.insert(0, filled(0), false);
        c.pin(0);
        c.remove(0);
    }

    #[test]
    fn remove_returns_data_and_dirty() {
        let mut c = TrustedCache::new(2, 64);
        c.insert(0, filled(7), true);
        let (data, dirty) = c.remove(0).unwrap();
        assert!(dirty);
        assert_eq!(data[0], 7);
        assert!(c.remove(0).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn clean_dirty_transitions() {
        let mut c = TrustedCache::new(2, 64);
        c.insert(0, filled(0), true);
        assert!(c.mark_clean(0));
        assert_eq!(c.dirty(0), Some(false));
        assert!(c.mark_dirty(0));
        assert_eq!(c.dirty(0), Some(true));
        assert!(!c.mark_clean(999));
    }

    #[test]
    fn over_capacity_is_transient_state() {
        let mut c = TrustedCache::new(2, 64);
        c.insert(0, filled(0), false);
        c.insert(64, filled(1), false);
        c.insert(128, filled(2), false); // overshoot allowed
        assert!(c.over_capacity());
        let v = c.victim().unwrap();
        c.remove(v);
        assert!(!c.over_capacity());
    }

    #[test]
    #[should_panic(expected = "already cached")]
    fn double_insert_panics() {
        let mut c = TrustedCache::new(2, 64);
        c.insert(0, filled(0), false);
        c.insert(0, filled(0), false);
    }

    #[test]
    #[should_panic(expected = "block size mismatch")]
    fn wrong_size_rejected() {
        let mut c = TrustedCache::new(2, 64);
        c.insert(0, vec![0u8; 32], false);
    }
}
