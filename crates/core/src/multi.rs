//! Multiple protected compartments on one processor (§5.5's open
//! problem, §4.2/§4.3 motivation).
//!
//! The paper verifies one contiguous physical segment and notes that for
//! XOM-style systems — where an untrusted OS multiplexes mutually
//! mistrusting applications — "ensuring correctness when multiple
//! applications have data in the cache is a difficult problem that has
//! yet to be studied in detail". This module implements the conservative
//! solution the paper's machinery makes possible today:
//!
//! * each compartment owns its own tree, root and per-compartment key
//!   (derived from the processor secret, as in §4.1);
//! * on-chip secure memory banks one root set per compartment;
//! * a context switch **flushes and empties** the trusted cache, because
//!   a cached line is only trustworthy relative to the tree that verified
//!   it — the cost the paper alludes to, measurable here via the
//!   functional counters.
//!
//! The scheduler (the untrusted OS) decides *when* to switch but can
//! neither read nor forge compartment contents: swapping memory between
//! compartments, replaying a compartment's old state, or tampering any
//! byte is detected by the owning tree exactly as in the single-segment
//! case.

use std::collections::BTreeMap;
use std::fmt;

use miv_hash::md5::Md5;

use crate::engine::{MemoryBuilder, Protection, VerifiedMemory};
use crate::error::IntegrityError;

/// Identifier of a compartment (the XOM "compartment tag").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompartmentId(pub u32);

impl fmt::Display for CompartmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "compartment {}", self.0)
    }
}

/// A processor hosting several mutually mistrusting protected
/// compartments.
///
/// # Examples
///
/// ```
/// use miv_core::multi::{CompartmentId, SecureContextManager};
///
/// let mut cpu = SecureContextManager::new(*b"processor secret");
/// let a = cpu.create(CompartmentId(1), 16 * 1024).unwrap();
/// cpu.switch_to(a).unwrap();
/// cpu.current_mut().unwrap().write(0, b"private to A").unwrap();
/// ```
pub struct SecureContextManager {
    secret: [u8; 16],
    compartments: BTreeMap<CompartmentId, VerifiedMemory>,
    current: Option<CompartmentId>,
    /// Context switches performed (each costs a cache flush).
    switches: u64,
}

impl fmt::Debug for SecureContextManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SecureContextManager")
            .field("compartments", &self.compartments.len())
            .field("current", &self.current)
            .field("switches", &self.switches)
            .finish()
    }
}

impl SecureContextManager {
    /// Creates a manager around the processor secret.
    pub fn new(secret: [u8; 16]) -> Self {
        SecureContextManager {
            secret,
            compartments: BTreeMap::new(),
            current: None,
            switches: 0,
        }
    }

    /// Derives a compartment's key from the processor secret (the §4.1
    /// collision-resistant combination, keyed per compartment).
    pub fn compartment_key(&self, id: CompartmentId) -> [u8; 16] {
        let mut ctx = Md5::new();
        ctx.update(&self.secret);
        ctx.update(b"compartment-key");
        ctx.update(&id.0.to_le_bytes());
        ctx.finalize().into_bytes()
    }

    /// Creates a compartment with `data_bytes` of protected memory.
    ///
    /// # Errors
    ///
    /// Returns [`IntegrityError`] only from machinery (never for a fresh
    /// compartment); duplicate ids panic.
    ///
    /// # Panics
    ///
    /// Panics if the id already exists.
    pub fn create(
        &mut self,
        id: CompartmentId,
        data_bytes: u64,
    ) -> Result<CompartmentId, IntegrityError> {
        assert!(!self.compartments.contains_key(&id), "{id} already exists");
        let mem = MemoryBuilder::new()
            .data_bytes(data_bytes)
            .key(self.compartment_key(id))
            .protection(Protection::HashTree)
            .cache_blocks(256)
            .build();
        self.compartments.insert(id, mem);
        Ok(id)
    }

    /// Number of compartments.
    pub fn len(&self) -> usize {
        self.compartments.len()
    }

    /// Returns `true` if no compartments exist.
    pub fn is_empty(&self) -> bool {
        self.compartments.is_empty()
    }

    /// The currently scheduled compartment.
    pub fn current_id(&self) -> Option<CompartmentId> {
        self.current
    }

    /// Context switches performed so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// Switches execution to `id`, flushing and emptying the outgoing
    /// compartment's trusted cache (a cached line is only trusted
    /// relative to the tree that verified it).
    ///
    /// An outgoing compartment whose flush raises an integrity exception
    /// is **destroyed**: the paper's processor aborts a tampered task and
    /// never uses its key again, so there is nothing left to schedule.
    ///
    /// # Errors
    ///
    /// Never fails for the incoming compartment; returns the outgoing
    /// compartment's [`IntegrityError`] (after destroying it and still
    /// completing the switch) so callers can observe the abort.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not exist.
    pub fn switch_to(&mut self, id: CompartmentId) -> Result<(), IntegrityError> {
        assert!(self.compartments.contains_key(&id), "{id} does not exist");
        if self.current == Some(id) {
            return Ok(());
        }
        let mut aborted = None;
        if let Some(out) = self.current.take() {
            let mem = self.compartments.get_mut(&out).expect("current exists");
            if let Err(err) = mem.clear_cache() {
                // Tampered (poisoned) task: destroy it, per §5.8.
                self.compartments.remove(&out);
                aborted = Some(err);
            }
            self.switches += 1;
        }
        self.current = Some(id);
        match aborted {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }

    /// The scheduled compartment's memory.
    pub fn current_mut(&mut self) -> Option<&mut VerifiedMemory> {
        let id = self.current?;
        self.compartments.get_mut(&id)
    }

    /// Direct access to a compartment (tests / adversary plumbing).
    pub fn compartment_mut(&mut self, id: CompartmentId) -> Option<&mut VerifiedMemory> {
        self.compartments.get_mut(&id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::TamperKind;

    const SECRET: [u8; 16] = *b"fab-fused-secret";

    fn two_compartments() -> (SecureContextManager, CompartmentId, CompartmentId) {
        let mut cpu = SecureContextManager::new(SECRET);
        let a = cpu.create(CompartmentId(1), 16 * 1024).unwrap();
        let b = cpu.create(CompartmentId(2), 16 * 1024).unwrap();
        (cpu, a, b)
    }

    #[test]
    fn compartments_are_isolated_state() {
        let (mut cpu, a, b) = two_compartments();
        cpu.switch_to(a).unwrap();
        cpu.current_mut()
            .unwrap()
            .write(0, b"belongs to A")
            .unwrap();
        cpu.switch_to(b).unwrap();
        cpu.current_mut()
            .unwrap()
            .write(0, b"belongs to B")
            .unwrap();
        cpu.switch_to(a).unwrap();
        assert_eq!(
            cpu.current_mut().unwrap().read_vec(0, 12).unwrap(),
            b"belongs to A"
        );
        cpu.switch_to(b).unwrap();
        assert_eq!(
            cpu.current_mut().unwrap().read_vec(0, 12).unwrap(),
            b"belongs to B"
        );
        assert_eq!(cpu.switches(), 3);
    }

    #[test]
    fn keys_differ_per_compartment() {
        let cpu = SecureContextManager::new(SECRET);
        assert_ne!(
            cpu.compartment_key(CompartmentId(1)),
            cpu.compartment_key(CompartmentId(2))
        );
        // And per processor secret.
        let other = SecureContextManager::new(*b"other secret....");
        assert_ne!(
            cpu.compartment_key(CompartmentId(1)),
            other.compartment_key(CompartmentId(1))
        );
    }

    #[test]
    fn cross_compartment_transplant_is_detected() {
        // The OS copies compartment B's (plaintext-identical layout)
        // memory over compartment A's: A's tree rejects it even though
        // B's contents were self-consistent under B's tree.
        let (mut cpu, a, b) = two_compartments();
        cpu.switch_to(a).unwrap();
        cpu.current_mut().unwrap().write(0, b"AAAAAAAA").unwrap();
        cpu.current_mut().unwrap().flush().unwrap();
        cpu.switch_to(b).unwrap();
        cpu.current_mut().unwrap().write(0, b"BBBBBBBB").unwrap();
        cpu.current_mut().unwrap().flush().unwrap();

        // Steal B's whole physical image...
        let total = {
            let mem = cpu.compartment_mut(b).unwrap();
            let l = *mem.layout();
            l.total_chunks() * l.chunk_bytes() as u64
        };
        let stolen = {
            let mem = cpu.compartment_mut(b).unwrap();
            mem.adversary().snapshot(0, usize::try_from(total).unwrap())
        };
        // ...and transplant it into A.
        let mem_a = cpu.compartment_mut(a).unwrap();
        mem_a.clear_cache().unwrap();
        mem_a.adversary().replay(&stolen);
        assert!(
            mem_a.read_vec(0, 8).is_err(),
            "A's secure root must reject B's image"
        );
    }

    #[test]
    fn tampering_one_compartment_leaves_others_healthy() {
        let (mut cpu, a, b) = two_compartments();
        cpu.switch_to(a).unwrap();
        cpu.current_mut().unwrap().write(0x100, b"healthy").unwrap();
        cpu.current_mut().unwrap().flush().unwrap();
        // Attack B.
        cpu.switch_to(b).unwrap();
        cpu.current_mut().unwrap().write(0x100, b"target!").unwrap();
        cpu.current_mut().unwrap().clear_cache().unwrap();
        let phys = {
            let mem = cpu.compartment_mut(b).unwrap();
            mem.layout().data_phys_addr(0x100)
        };
        cpu.compartment_mut(b)
            .unwrap()
            .adversary()
            .tamper(phys, TamperKind::BitFlip { bit: 0 });
        assert!(cpu.compartment_mut(b).unwrap().read_vec(0x100, 7).is_err());
        // Switching away destroys the aborted compartment and reports it;
        // A is unaffected and still works.
        let abort = cpu.switch_to(a);
        assert!(abort.is_err(), "the outgoing poisoned task is reported");
        assert!(cpu.compartment_mut(b).is_none(), "B was destroyed");
        assert_eq!(cpu.current_id(), Some(a));
        assert_eq!(
            cpu.current_mut().unwrap().read_vec(0x100, 7).unwrap(),
            b"healthy"
        );
    }

    #[test]
    fn switch_to_same_compartment_is_free() {
        let (mut cpu, a, _) = two_compartments();
        cpu.switch_to(a).unwrap();
        cpu.switch_to(a).unwrap();
        assert_eq!(cpu.switches(), 0, "no outgoing flush on a no-op switch");
        assert_eq!(cpu.current_id(), Some(a));
    }

    #[test]
    fn context_switches_cost_cold_misses() {
        // The flush on switch makes the incoming compartment's reads cold
        // again: functional counters show re-verification.
        let (mut cpu, a, b) = two_compartments();
        cpu.switch_to(a).unwrap();
        cpu.current_mut().unwrap().write(0, &[7u8; 64]).unwrap();
        cpu.current_mut().unwrap().reset_stats();
        // Warm read: no verification.
        cpu.current_mut().unwrap().read_vec(0, 64).unwrap();
        assert_eq!(cpu.current_mut().unwrap().stats().chunk_verifications, 0);
        // Round trip through B...
        cpu.switch_to(b).unwrap();
        cpu.switch_to(a).unwrap();
        // ...and the same read now re-verifies.
        cpu.current_mut().unwrap().reset_stats();
        cpu.current_mut().unwrap().read_vec(0, 64).unwrap();
        assert!(cpu.current_mut().unwrap().stats().chunk_verifications > 0);
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_id_rejected() {
        let mut cpu = SecureContextManager::new(SECRET);
        cpu.create(CompartmentId(1), 8192).unwrap();
        cpu.create(CompartmentId(1), 8192).unwrap();
    }

    #[test]
    fn empty_manager() {
        let mut cpu = SecureContextManager::new(SECRET);
        assert!(cpu.is_empty());
        assert_eq!(cpu.len(), 0);
        assert_eq!(cpu.current_id(), None);
        assert!(cpu.current_mut().is_none());
        assert!(!format!("{cpu:?}").is_empty());
    }
}
