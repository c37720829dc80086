//! Scheme-level behavioural tests of the cycle-level checker, beyond the
//! unit tests in `timing.rs`: cross-scheme invariants, traffic
//! accounting, and the ablation knobs.

use miv_cache::{CacheConfig, ReplacementPolicy};
use miv_core::timing::{CheckerConfig, CheckerEvent, L2Controller, Scheme};
use miv_mem::{MemoryBusConfig, TrafficClass};

fn controller(scheme: Scheme, l2_kb: u64, line: u32, chunk: u32) -> L2Controller {
    let mut cfg = CheckerConfig::hpca03(scheme);
    cfg.chunk_bytes = chunk;
    cfg.protected_bytes = 16 << 20;
    L2Controller::new(
        cfg,
        CacheConfig::l2(l2_kb << 10, line),
        MemoryBusConfig::default(),
    )
}

/// Drives a mixed read/write pattern and returns the controller.
fn drive(mut ctl: L2Controller, accesses: u64, stride: u64, write_every: u64) -> L2Controller {
    let mut now = 0;
    for i in 0..accesses {
        let write = write_every > 0 && i % write_every == 0;
        now = ctl.access(now, (i * stride) % (8 << 20), write, false);
    }
    ctl
}

#[test]
fn every_scheme_services_the_same_pattern() {
    for scheme in Scheme::ALL {
        let chunk = match scheme {
            Scheme::MHash | Scheme::IHash => 128,
            Scheme::Base | Scheme::Naive | Scheme::CHash => 64,
        };
        let ctl = drive(controller(scheme, 256, 64, chunk), 3000, 64 * 37, 5);
        let s = ctl.stats();
        assert!(s.data_fetches > 0, "{scheme}");
        if scheme.verifies() {
            assert!(s.verifications > 0, "{scheme}");
            assert!(ctl.verification_horizon() > 0, "{scheme}");
        } else {
            assert_eq!(s.verifications, 0);
            assert_eq!(ctl.bus_stats().hash_bytes(), 0);
        }
    }
}

#[test]
fn verification_horizon_is_monotone() {
    let mut ctl = controller(Scheme::CHash, 256, 64, 64);
    let mut now = 0;
    let mut last_horizon = 0;
    for i in 0..2000u64 {
        now = ctl.access(now, (i * 64 * 131) % (8 << 20), i % 7 == 0, false);
        let h = ctl.verification_horizon();
        assert!(
            h >= last_horizon,
            "horizon went backwards: {h} < {last_horizon}"
        );
        last_horizon = h;
    }
}

#[test]
fn data_ready_never_exceeds_verification_horizon_under_blocking() {
    let mut cfg = CheckerConfig::hpca03(Scheme::CHash);
    cfg.protected_bytes = 16 << 20;
    cfg.block_on_verify = true;
    let mut ctl = L2Controller::new(
        cfg,
        CacheConfig::l2(256 << 10, 64),
        MemoryBusConfig::default(),
    );
    let mut now = 0;
    for i in 0..500u64 {
        let ready = ctl.access(now, (i * 64 * 61) % (8 << 20), false, false);
        // With blocking semantics the returned time includes this access's
        // verification, which the horizon also covers.
        assert!(ctl.verification_horizon() >= ready || ready == now + 10);
        now = ready;
    }
}

#[test]
fn naive_writebacks_walk_the_tree() {
    // A write-heavy thrash pattern forces dirty evictions; in the naive
    // scheme every write-back does a read-modify-write per tree level.
    let ctl = drive(controller(Scheme::Naive, 256, 64, 64), 8000, 64 * 4099, 1);
    let s = ctl.stats();
    assert!(s.writebacks > 100, "write-backs occurred: {}", s.writebacks);
    let bus = ctl.bus_stats();
    let hash_writes = bus.bytes_for(TrafficClass::HashWrite);
    assert!(
        hash_writes > s.writebacks * 64 * 3,
        "each naive write-back rewrites several ancestor chunks: {hash_writes}"
    );
}

#[test]
fn chash_writebacks_update_parents_in_cache() {
    // Moderate locality so hash lines get reuse (a total thrash would
    // push chash toward naive's traffic).
    let ctl = drive(controller(Scheme::CHash, 256, 64, 64), 8000, 64 * 37, 4);
    let s = ctl.stats();
    assert!(s.writebacks > 50, "write-backs occurred: {}", s.writebacks);
    // Hash write-back traffic exists (dirty hash lines eventually spill)
    // but stays far below naive's per-level rewrite.
    let naive = drive(controller(Scheme::Naive, 256, 64, 64), 8000, 64 * 37, 4);
    let c_hash_bytes = ctl.bus_stats().hash_bytes();
    let n_hash_bytes = naive.bus_stats().hash_bytes();
    assert!(
        c_hash_bytes * 2 < n_hash_bytes,
        "chash {c_hash_bytes} vs naive {n_hash_bytes}"
    );
}

#[test]
fn mhash_sibling_fills_count_as_data_traffic() {
    let mut ctl = controller(Scheme::MHash, 1024, 64, 128);
    let mut now = 0;
    for i in 0..200u64 {
        now = ctl.access(now, i * 128, false, false);
    }
    let s = ctl.stats();
    // Every chunk miss fetched the demand block plus its sibling.
    assert_eq!(s.data_fetches, 200);
    assert_eq!(s.extra_data_fetches, 200);
    // Accessing all the siblings afterwards is free (they were filled).
    let before = ctl.stats().data_fetches;
    for i in 0..200u64 {
        now = ctl.access(now, i * 128 + 64, false, false);
    }
    assert_eq!(ctl.stats().data_fetches, before, "siblings were prefetched");
}

#[test]
fn ihash_writeback_traffic_shape() {
    // ihash write-backs: one unchecked old-value read + one block write +
    // MAC work; no sibling gather even when siblings are absent.
    let mut cfg = CheckerConfig::hpca03(Scheme::IHash);
    cfg.chunk_bytes = 256; // 4 blocks per chunk
    cfg.protected_bytes = 16 << 20;
    let mut ctl = L2Controller::new(
        cfg,
        CacheConfig::l2(256 << 10, 64),
        MemoryBusConfig::default(),
    );
    let mut now = 0;
    for i in 0..6000u64 {
        now = ctl.access(now, (i * 256 * 1021) % (8 << 20), true, true);
    }
    let s = ctl.stats();
    assert!(s.writebacks > 100);
    // With whole-line store allocation the read path never gathers, so
    // extra fetches ≈ one per write-back (the unchecked old read).
    let per_wb = s.extra_data_fetches as f64 / s.writebacks as f64;
    assert!(per_wb < 1.5, "ihash extra fetches per write-back: {per_wb}");
}

#[test]
fn replacement_policy_changes_behaviour_deterministically() {
    let run = |policy: ReplacementPolicy| {
        let mut cfg = CheckerConfig::hpca03(Scheme::CHash);
        cfg.protected_bytes = 16 << 20;
        cfg.l2_policy = policy;
        let ctl = L2Controller::new(
            cfg,
            CacheConfig::l2(256 << 10, 64),
            MemoryBusConfig::default(),
        );
        let ctl = drive(ctl, 5000, 64 * 97, 9);
        (ctl.l2_stats().data.misses(), ctl.stats().hash_fetches)
    };
    let lru = run(ReplacementPolicy::Lru);
    let fifo = run(ReplacementPolicy::Fifo);
    let random = run(ReplacementPolicy::Random);
    // Deterministic per policy.
    assert_eq!(lru, run(ReplacementPolicy::Lru));
    assert_eq!(random, run(ReplacementPolicy::Random));
    // The policies genuinely differ on this pattern.
    assert!(lru != fifo || lru != random, "{lru:?} {fifo:?} {random:?}");
}

#[test]
fn protected_segment_size_sets_walk_depth() {
    // A deeper tree (bigger protected segment) costs the naive scheme
    // proportionally more hash fetches per miss.
    let fetches = |protected: u64| {
        let mut cfg = CheckerConfig::hpca03(Scheme::Naive);
        cfg.protected_bytes = protected;
        let mut ctl = L2Controller::new(
            cfg,
            CacheConfig::l2(256 << 10, 64),
            MemoryBusConfig::default(),
        );
        ctl.access(0, 0, false, false);
        ctl.stats().hash_fetches
    };
    let shallow = fetches(1 << 20);
    let deep = fetches(256 << 20);
    assert!(deep >= shallow + 3, "deep {deep} vs shallow {shallow}");
}

#[test]
fn probe_records_a_cold_miss_walk() {
    let mut ctl = controller(Scheme::CHash, 1024, 64, 64);
    ctl.enable_probe();
    let ready = ctl.access(0, 0, false, false);
    let events = ctl.take_probe();
    let demands = events
        .iter()
        .filter(|e| matches!(e, CheckerEvent::DemandFetch { .. }))
        .count();
    let hash_fetches = events
        .iter()
        .filter(|e| matches!(e, CheckerEvent::HashFetch { .. }))
        .count();
    let verifies: Vec<_> = events
        .iter()
        .filter_map(|e| {
            if let CheckerEvent::VerifyComplete { chunk, done } = e {
                Some((*chunk, *done))
            } else {
                None
            }
        })
        .collect();
    assert_eq!(demands, 1);
    let depth = ctl.layout().unwrap().levels() as usize;
    assert_eq!(hash_fetches, depth, "cold walk fetches one chunk per level");
    assert_eq!(verifies.len(), depth + 1, "every level verifies");
    // The demand data returns before the background checks complete.
    let last_verify = verifies.iter().map(|(_, d)| *d).max().unwrap();
    assert!(ready < last_verify);
    // Probe is consumed.
    assert!(ctl.take_probe().is_empty());
    // Disabled by default: a fresh controller records nothing.
    let mut quiet = controller(Scheme::CHash, 1024, 64, 64);
    quiet.access(0, 0, false, false);
    assert!(quiet.take_probe().is_empty());
}

#[test]
fn probe_records_writebacks() {
    let mut ctl = controller(Scheme::CHash, 256, 64, 64);
    // Dirty enough lines to force write-backs, then probe one more round.
    let mut now = 0;
    for i in 0..5000u64 {
        now = ctl.access(now, (i * 64 * 4099) % (8 << 20), true, true);
    }
    ctl.enable_probe();
    for i in 5000..5300u64 {
        now = ctl.access(now, (i * 64 * 4099) % (8 << 20), true, true);
    }
    let events = ctl.take_probe();
    assert!(
        events
            .iter()
            .any(|e| matches!(e, CheckerEvent::WriteBack { .. })),
        "write-backs must be recorded"
    );
}

#[test]
fn miss_latency_stat_tracks_speculation() {
    let avg = |block: bool| {
        let mut cfg = CheckerConfig::hpca03(Scheme::CHash);
        cfg.protected_bytes = 16 << 20;
        cfg.block_on_verify = block;
        let ctl = L2Controller::new(
            cfg,
            CacheConfig::l2(256 << 10, 64),
            MemoryBusConfig::default(),
        );
        let ctl = drive(ctl, 2000, 64 * 61, 0);
        ctl.stats().avg_miss_latency()
    };
    let speculative = avg(false);
    let blocking = avg(true);
    assert!(
        blocking > speculative + 50.0,
        "blocking {blocking} must exceed speculative {speculative} by the hash latency"
    );
}
