//! Trusted state on untrusted storage: hibernate, restore, and reject
//! tampering and rollbacks.
//!
//! The related work the paper builds on (trusted databases on untrusted
//! storage) treats a disk exactly like the paper treats RAM: bulk data
//! lives outside the trust boundary and only the tree root must be kept
//! safe. This example hibernates a verified block store (`miv-store`) to
//! an attackable in-memory disk, powers it back on, and shows the two
//! attacks the trusted root defeats: tampering a stored page, and
//! rolling the whole disk back to an earlier image after the root moved
//! on. It then shows the store's atomic commit: a power cut in the
//! middle of a commit recovers the last committed root.
//!
//! ```text
//! cargo run --example persistence
//! ```

use miv::hash::digest::Md5Hasher;
use miv::store::{BlockStore, CrashMedium, MemMedium, MemRootStore, StoreConfig, StoreError};

/// Where the account balance lives.
const SAVINGS: u64 = 0x200;
/// A record on another page, which the last commit does not rewrite.
const OWNER: u64 = 0x1000;

fn main() -> Result<(), StoreError> {
    hibernate_demo()?;
    // The block store commits through a journal + shadow superblock, so
    // a power cut in the middle of a write burst can never tear the
    // committed state.
    crash_demo()
}

/// Commit → power off → tamper or roll back the disk → power on.
fn hibernate_demo() -> Result<(), StoreError> {
    let disk = MemMedium::new();
    let nvram = MemRootStore::new(); // trusted root: on-chip NVRAM, a TPM, a smartcard...
    let config = StoreConfig {
        data_bytes: 64 * 1024,
        page_bytes: 128,
        cache_pages: 16,
        journal_slots: 0, // sized automatically
    };
    let mut store = BlockStore::create(disk.clone(), nvram.clone(), config, Box::new(Md5Hasher))?;
    store.write(OWNER, b"owner = alice")?;
    store.write(SAVINGS, b"savings = 5000 credits")?;
    store.commit()?;
    // The attacker copies the disk while it holds 5000 credits...
    let old_image = disk.snapshot();
    // ...and the machine runs on and spends them.
    store.write(SAVINGS, b"savings =    0 credits")?;
    store.commit()?;
    let geom = store.geometry();
    let owner_offset = geom.page_offset(geom.layout().data_chunk_for(OWNER))
        + OWNER % u64::from(geom.page_bytes());
    let generation = store.generation();
    drop(store); // power off
    let committed = disk.snapshot();
    println!(
        "hibernated generation {generation} as {} KiB on untrusted storage; only the root stays on chip",
        committed.len() / 1024
    );

    // Attack 1: flip one bit of the owner page on disk. The last commit
    // did not journal that page, so nothing heals it at open; only the
    // tree walk against the root catches it.
    disk.flip(owner_offset, 0x01);
    let (mut store, _) = BlockStore::open(disk.clone(), nvram.clone(), Box::new(Md5Hasher), 16)?;
    match store.read_vec(OWNER, 13) {
        Ok(_) => unreachable!("a tampered page must not verify"),
        Err(err) => println!("tampered page rejected: {err}"),
    }
    drop(store);

    // Attack 2: rollback. Splice the old, internally consistent image
    // back in, hoping for a refund; the trusted root has moved on.
    disk.restore(&old_image);
    match BlockStore::open(disk.clone(), nvram.clone(), Box::new(Md5Hasher), 16) {
        Ok(_) => unreachable!("rollback must not open"),
        Err(err) => println!("rollback to the old image rejected: {err}"),
    }

    // Power back on with the image the processor committed last: only
    // that one verifies against the trusted root.
    disk.restore(&committed);
    let (mut store, _) = BlockStore::open(disk, nvram, Box::new(Md5Hasher), 16)?;
    store.verify_all()?;
    println!(
        "restored the committed image: {:?}",
        String::from_utf8_lossy(&store.read_vec(SAVINGS, 22)?)
    );
    Ok(())
}

/// Open → write → crash → recover on the verified block store. The
/// medium here is in-memory for a self-contained example; `FileMedium`
/// drops in for a real file (see `mivsim store`).
fn crash_demo() -> Result<(), StoreError> {
    println!("\n-- verified block store: crash and recover --");
    let disk = MemMedium::new();
    let nvram = MemRootStore::new();
    let config = StoreConfig {
        data_bytes: 16 * 1024,
        page_bytes: 128,
        cache_pages: 16,
        journal_slots: 0,
    };

    // Create the store and commit a first generation.
    let mut store = BlockStore::create(
        CrashMedium::new(disk.clone()),
        nvram.clone(),
        config,
        Box::new(Md5Hasher),
    )?;
    store.write(0x200, b"balance = 5000 credits")?;
    store.commit()?;
    println!(
        "generation {} committed after {} device steps",
        store.generation(),
        store.medium().steps()
    );

    // Keep writing, then lose power before the next commit completes:
    // the armed medium tears a device write in half and goes dead a
    // few steps into the commit's journal burst.
    let mut store = BlockStore::open(
        CrashMedium::new(disk.clone()).arm(8),
        nvram.clone(),
        Box::new(Md5Hasher),
        config.cache_pages,
    )?
    .0;
    store.write(0x200, b"balance =    0 credits")?;
    match store.commit() {
        Err(StoreError::Crashed) => println!("power cut mid-commit (torn device write)"),
        other => unreachable!("armed medium must crash the commit: {other:?}"),
    }
    drop(store);

    // Power back on: recovery replays the committed journal, discards
    // the in-flight generation's frames, and the tree verifies against
    // the trusted root — the committed balance is intact, not torn.
    let (mut store, recovery) = BlockStore::open(
        CrashMedium::new(disk),
        nvram,
        Box::new(Md5Hasher),
        config.cache_pages,
    )?;
    store.verify_all()?;
    println!(
        "recovered generation {} ({} frames replayed, {} orphaned frames discarded)",
        recovery.generation, recovery.replayed_entries, recovery.orphaned_entries
    );
    println!(
        "recovered state: {:?}",
        String::from_utf8_lossy(&store.read_vec(0x200, 22)?)
    );
    Ok(())
}
