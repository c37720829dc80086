//! Trusted state on untrusted storage: hibernate, restore, and reject
//! rollbacks.
//!
//! The related work the paper builds on (trusted databases on untrusted
//! storage) treats a disk exactly like the paper treats RAM: bulk data
//! lives outside the trust boundary and only the tree root must be kept
//! safe. This example hibernates a verified memory to an (attackable)
//! blob, restores it, and shows the two attacks the root defeats:
//! tampering the stored image, and rolling the image back to an earlier
//! version after the root moved on. It then moves from one-shot
//! hibernation to a *live* disk: the `miv-store` verified block store,
//! which keeps the tree on the device, commits atomically through a
//! shadow superblock, and recovers a committed root after a mid-write
//! power cut.
//!
//! ```text
//! cargo run --example persistence
//! ```

#![expect(
    clippy::unwrap_used,
    reason = "examples keep error handling out of the way of the API they demonstrate"
)]

use miv::core::persist::{restore, SavedImage};
use miv::core::{MemoryBuilder, Protection};
use miv::hash::digest::Md5Hasher;
use miv::store::{BlockStore, CrashMedium, MemMedium, MemRootStore, StoreConfig, StoreError};

const KEY: [u8; 16] = *b"hibernation-key!";

fn main() {
    // A running machine with application state.
    let mut mem = MemoryBuilder::new()
        .data_bytes(64 * 1024)
        .key(KEY)
        .cache_blocks(256)
        .build();
    mem.write(0x1000, b"savings = 5000 credits").unwrap();

    // Hibernate: the image goes to untrusted storage, the root stays in
    // the trust boundary (on-chip NVRAM, a TPM, a smartcard...).
    let image = mem.export_state().unwrap();
    let root = mem.export_root(Protection::HashTree, KEY);
    println!(
        "hibernated {} KiB to untrusted storage; {} digests stay on chip",
        image.as_bytes().len() / 1024,
        mem.secure_root().len()
    );

    // Power back on: the pair verifies and the state is live again.
    let mut revived = restore(&image, &root, 256, Box::new(Md5Hasher)).unwrap();
    println!(
        "restored: {:?}",
        String::from_utf8_lossy(&revived.read_vec(0x1000, 22).unwrap())
    );

    // Attack 1: the stored image is modified on disk. Decoding is
    // fallible — a malformed blob is rejected before any hashing — but
    // a single flipped payload bit still decodes fine; only the tree
    // check against the root catches it.
    let mut bytes = SavedImage::from_bytes(image.as_bytes().to_vec())
        .expect("the exported image always decodes")
        .as_bytes()
        .to_vec();
    let idx = bytes.len() / 2;
    bytes[idx] ^= 0x01;
    let tampered = SavedImage::from_bytes(bytes).expect("a payload flip still decodes");
    match restore(&tampered, &root, 256, Box::new(Md5Hasher)) {
        Ok(_) => unreachable!("tampered image must not restore"),
        Err(err) => println!("tampered image rejected: {err}"),
    }

    // Attack 2: rollback. The machine runs on (spends the savings), saves
    // again; the attacker restores the OLD image hoping to refund.
    revived.write(0x1000, b"savings =    0 credits").unwrap();
    let _new_image = revived.export_state().unwrap();
    let new_root = revived.export_root(Protection::HashTree, KEY);
    match restore(&image, &new_root, 256, Box::new(Md5Hasher)) {
        Ok(_) => unreachable!("rollback must not restore"),
        Err(err) => println!("rollback to the old image rejected: {err}"),
    }
    println!("only the (image, root) pair the processor saved together is accepted.");

    // Hibernation is one-shot; a live system wants a *disk*. The block
    // store keeps the hash tree on the untrusted device and commits
    // through a journal + shadow superblock, so a power cut in the
    // middle of a write burst can never tear the committed state.
    block_store_demo().expect("block store demo");
}

/// Open → write → crash → recover on the verified block store. The
/// medium here is in-memory for a self-contained example; `FileMedium`
/// drops in for a real file (see `mivsim store`).
fn block_store_demo() -> Result<(), StoreError> {
    println!("\n-- verified block store: crash and recover --");
    let disk = MemMedium::new();
    let nvram = MemRootStore::new(); // trusted root: on-chip NVRAM
    let config = StoreConfig {
        data_bytes: 16 * 1024,
        page_bytes: 128,
        cache_pages: 16,
        journal_slots: 0, // sized automatically
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
