//! `miv` — Memory Integrity Verification with caches and hash trees.
//!
//! A full reproduction of *"Caches and Hash Trees for Efficient Memory
//! Integrity Verification"* (Gassend, Suh, Clarke, van Dijk, Devadas —
//! HPCA 2003) as a Rust workspace. This facade crate re-exports every
//! subsystem so examples and downstream users need a single dependency:
//!
//! * [`hash`] — MD5/SHA-1, the XTEA-based PRP, the incremental XOR-MAC
//!   and the hash-unit timing model.
//! * [`cache`] — set-associative cache models (L1, unified L2).
//! * [`mem`] — DRAM and the shared 1.6 GB/s memory bus.
//! * [`cpu`] — the 4-wide out-of-order core timing model.
//! * [`trace`] — synthetic SPEC CPU2000-like workload generators.
//! * [`core`] — the paper's contribution: the hash-tree layout, the
//!   `naive`/`chash`/`mhash`/`ihash` schemes, the functional verification
//!   engine and the adversary model.
//! * [`store`] — the persistent verified block store: hash-tree pages
//!   on an untrusted block device behind a trusted page cache, with a
//!   redo journal, shadow superblocks and an atomic root commit.
//! * [`adversary`] — scripted attack campaigns: the online taxonomy
//!   (bit flips, splices, replays) and the offline store-tamper battery.
//! * [`sim`] — the full-system simulator and the experiment harness that
//!   regenerates every table and figure.
//! * [`obs`] — the dependency-free telemetry layer: metrics registry,
//!   typed simulation events, and the hand-rolled JSON emitter behind
//!   `--metrics-out` / `--trace-events`.
//!
//! # Quick start
//!
//! ```
//! use miv::core::{MemoryBuilder, TamperKind};
//!
//! // A verified memory of 64 KiB with 64-byte chunks (4-ary tree).
//! let mut mem = MemoryBuilder::new().data_bytes(64 * 1024).build();
//! mem.write(0x1000, b"secret state").unwrap();
//! assert_eq!(&mem.read_vec(0x1000, 12).unwrap(), b"secret state");
//!
//! // Push the state out to untrusted RAM (evict the trusted cache)...
//! mem.clear_cache().unwrap();
//! // ...where a physical attacker flips a bit on the memory bus...
//! let phys = mem.layout().data_phys_addr(0x1000);
//! mem.adversary().tamper(phys, TamperKind::BitFlip { bit: 3 });
//! // ...and the very next checked read detects it.
//! assert!(mem.read_vec(0x1000, 12).is_err());
//! ```

pub use miv_adversary as adversary;
pub use miv_cache as cache;
pub use miv_core as core;
pub use miv_cpu as cpu;
pub use miv_hash as hash;
pub use miv_mem as mem;
pub use miv_obs as obs;
pub use miv_sim as sim;
pub use miv_store as store;
pub use miv_trace as trace;
