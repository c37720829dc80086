//! The §4.4 replay attack: breaking a XOM-style per-block MAC, and
//! failing against the hash tree.
//!
//! XOM binds each off-chip block to its address and contents with a MAC,
//! which stops substitution and relocation — but provides **no
//! freshness**. The paper's example: a loop like
//!
//! ```c
//! for (i = 0; i < size; i++) { output_data(*data++); }
//! ```
//!
//! spills `i` to memory; an attacker records the memory image of `i`
//! during one iteration and replays it each time it is written back,
//! making the loop run far past `size` and leak the rest of the data
//! segment. This example mounts exactly that attack against [`XomMemory`]
//! (it succeeds) and against the hash-tree engine (it is detected).
//!
//! ```text
//! cargo run --example replay_attack
//! ```

#![expect(
    clippy::unwrap_used,
    reason = "examples keep error handling out of the way of the API they demonstrate"
)]

use miv::core::xom::XomMemory;
use miv::core::MemoryBuilder;

/// Simulated secure-compartment loop: reads the counter from (possibly
/// attacked) memory, "outputs" one word per iteration, writes the
/// incremented counter back. Returns how many words leaked.
fn run_loop_on_xom(mem: &mut XomMemory, replay: bool, size: u64) -> u64 {
    const COUNTER: u64 = 0;
    const SAFETY_CAP: u64 = 64;

    // The attacker snapshots the counter block (data + MAC) after
    // iteration 1 wrote i = 1.
    let mut snapshot = None;
    let mut leaked = 0;

    loop {
        // In the real attack the loop runs to the end of the data
        // segment; cap the demo by the amount leaked (the replayed
        // counter itself never advances — that is the attack).
        if leaked >= size + SAFETY_CAP {
            break;
        }
        // The compartment reads i from memory (MAC-checked).
        let block = mem.read_block(COUNTER).expect("XOM accepts the block");
        let i = u64::from_le_bytes(block[0..8].try_into().expect("8 bytes"));
        if i >= size {
            unreachable!("loop must exit at size without the replay");
        }
        leaked += 1; // output_data(*data++)

        // i++ spills back to memory.
        let mut next = block.clone();
        next[0..8].copy_from_slice(&(i + 1).to_le_bytes());
        mem.write_block(COUNTER, &next);

        if replay {
            let rec = mem.raw_record_addr(COUNTER);
            let len = mem.raw_record_len();
            if snapshot.is_none() {
                snapshot = Some(mem.adversary().snapshot(rec, len));
            }
            // The attacker restores the stale (data, MAC) pair: XOM's MAC
            // still verifies — the block is authentic, just old.
            mem.adversary().replay(snapshot.as_ref().expect("saved"));
        }

        if i + 1 >= size && !replay {
            break;
        }
    }
    leaked
}

fn main() {
    let size = 8u64;

    println!("--- XOM-style per-block MAC (no freshness) ---");
    let mut honest = XomMemory::new(4096, 64, *b"compartment-key!");
    let n = run_loop_on_xom(&mut honest, false, size);
    println!("honest memory: loop outputs {n} words (size = {size})  [correct]");

    let mut attacked = XomMemory::new(4096, 64, *b"compartment-key!");
    let n = run_loop_on_xom(&mut attacked, true, size);
    println!(
        "replayed counter: loop outputs {n} words before the demo cap — \
         the attacker walks the output past the end of the buffer!"
    );

    println!("\n--- hash tree (this paper) ---");
    let mut mem = MemoryBuilder::new()
        .data_bytes(4096)
        .cache_blocks(64)
        .build();
    // i lives at address 0; iteration 1 writes i = 1 and it reaches RAM.
    mem.write(0, &1u64.to_le_bytes()).unwrap();
    mem.flush().unwrap();
    let phys = mem.layout().data_phys_addr(0);
    let stale = mem.adversary().snapshot(phys, 64);

    // Iteration 2 writes i = 2...
    mem.write(0, &2u64.to_le_bytes()).unwrap();
    mem.flush().unwrap();
    mem.clear_cache().unwrap();
    // ...and the attacker replays the stale block.
    mem.adversary().replay(&stale);

    match mem.read_vec(0, 8) {
        Ok(_) => unreachable!("replay must not verify"),
        Err(err) => println!("replay detected on the next read: {err}"),
    }
    println!("the tree's parent hash had moved on; stale data can never re-enter.");
}
