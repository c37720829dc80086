//! Hash-tree memory integrity verification — the core of the HPCA'03
//! reproduction.
//!
//! This crate implements the paper's contribution:
//!
//! * [`layout`] — the §5.5 linear chunk layout of an almost-balanced
//!   m-ary hash tree over a contiguous physical segment.
//! * [`engine`] — the **functional** engine ([`VerifiedMemory`]): real
//!   bytes, real MD5/SHA-1 digests or incremental MACs, real detection of
//!   tampering by a physical [`Adversary`].
//! * [`timing`] — the **cycle-level** checker ([`timing::L2Controller`]):
//!   the L2 cache with integrated tree machinery, read/write hash
//!   buffers, background verification, and the four schemes the paper
//!   evaluates ([`Scheme::Naive`], [`Scheme::CHash`], [`Scheme::MHash`],
//!   [`Scheme::IHash`]) plus the unprotected [`Scheme::Base`].
//! * [`storage`] — untrusted memory and the attacker model (bit flips,
//!   relocation, replay).
//! * [`dma`] — §5.7 device transfers: unchecked reads, raw DMA writes,
//!   and local tree rebuilds that adopt the data.
//! * [`multi`] — several mutually mistrusting compartments on one
//!   processor (the open problem §5.5 flags, solved conservatively).
//! * [`xom`] — a per-block MAC memory in the style of XOM, *without*
//!   freshness, used to demonstrate the §4.4 replay attack that hash
//!   trees defeat.
//!
//! State that must survive a power cycle lives in the `miv-store` block
//! store, which keeps this tree on an untrusted device; its format
//! parsers report [`FormatError`].
//!
//! # Quick start
//!
//! ```
//! use miv_core::{MemoryBuilder, TamperKind};
//!
//! let mut mem = MemoryBuilder::new().data_bytes(32 * 1024).build();
//! mem.write(0, b"launch code: 0000").unwrap();
//! mem.flush().unwrap();
//! mem.clear_cache().unwrap();
//!
//! // Physical attack on external RAM:
//! let phys = mem.layout().data_phys_addr(13);
//! mem.adversary().tamper(phys, TamperKind::BitFlip { bit: 0 });
//!
//! let err = mem.read_vec(0, 17).unwrap_err();
//! println!("detected: {err}");
//! ```

// A silently truncated chunk index or address would corrupt the tree
// walk instead of failing loudly: narrow with `try_from` instead.
// Every panicking public function documents it under `# Panics`; a
// constructor that can panic on input pairs with a `try_new`.
#![deny(clippy::cast_possible_truncation, clippy::missing_panics_doc)]

pub mod adversary;
pub mod dma;
pub mod engine;
pub mod error;
pub mod hash_unit;
pub mod layout;
pub mod multi;
pub mod observe;
pub mod storage;
pub mod timing;
pub mod trusted_cache;
pub mod xom;

pub use adversary::{parent_slot_addr, timestamp_byte_addr, Adversary, Snapshot, TamperKind};
pub use engine::{EngineStats, MemoryBuilder, Protection, VerifiedMemory};
pub use error::{ConfigError, FormatError, IntegrityError};
pub use layout::{ParentRef, TreeLayout};
pub use observe::HashUnitObserver;
pub use storage::UntrustedMemory;
pub use timing::{
    CheckerConfig, CheckerEvent, CheckerStats, L2Controller, Scheme, TamperDetection,
};
