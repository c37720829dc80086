//! Randomized property tests for the cycle-level checker: arbitrary
//! access streams never panic, timing is monotone and deterministic,
//! accounting invariants hold for every scheme, and attached telemetry
//! mirrors the built-in statistics.

use miv_cache::CacheConfig;
use miv_core::timing::{CheckerConfig, CheckerStats, L2Controller, Scheme};
use miv_mem::MemoryBusConfig;
use miv_obs::rng::Rng;
use miv_obs::{EventTrace, Registry};

#[derive(Debug, Clone, Copy)]
struct Access {
    addr: u64,
    write: bool,
    full_line: bool,
}

fn random_access(rng: &mut Rng) -> Access {
    let write = rng.gen_bool(0.5);
    Access {
        addr: rng.gen_range_u64(0, 4 << 20),
        write,
        full_line: write && rng.gen_bool(0.5),
    }
}

fn controller(scheme: Scheme, buffer_entries: u32) -> L2Controller {
    let mut cfg = CheckerConfig::hpca03(scheme);
    cfg.protected_bytes = 8 << 20;
    cfg.buffer_entries = buffer_entries;
    cfg.chunk_bytes = match scheme {
        Scheme::MHash | Scheme::IHash => 128,
        Scheme::Base | Scheme::Naive | Scheme::CHash => 64,
    };
    L2Controller::new(
        cfg,
        CacheConfig::l2(128 << 10, 64),
        MemoryBusConfig::default(),
    )
}

/// No access stream panics, data-ready times are sane, and the
/// bookkeeping adds up, for every scheme.
#[test]
fn any_stream_is_serviced() {
    let mut rng = Rng::seed_from_u64(0x7a11);
    for case in 0..48 {
        let scheme = Scheme::ALL[case % Scheme::ALL.len()];
        let buffers = rng.gen_range_u64(1, 20) as u32;
        let mut ctl = controller(scheme, buffers);
        let mut now = 0;
        let mut horizon = 0;
        let n = rng.gen_range_usize(1, 300);
        for _ in 0..n {
            let a = random_access(&mut rng);
            let ready = ctl.access(now, a.addr, a.write, a.full_line);
            assert!(ready >= now, "time went backwards");
            let h = ctl.verification_horizon();
            assert!(h >= horizon, "horizon went backwards");
            horizon = h;
            now = ready;
        }
        let s = ctl.stats();
        let l2 = ctl.l2_stats();
        // Every timed miss corresponds to an L2 data miss.
        assert_eq!(s.misses_timed, l2.data.misses());
        // Demand fetches + no-fetch allocations cover all misses for the
        // single-block schemes (multi-block chunks may satisfy a miss from
        // an earlier sibling fill).
        if matches!(scheme, Scheme::Base | Scheme::Naive | Scheme::CHash) {
            assert_eq!(s.data_fetches + s.alloc_no_fetch, l2.data.misses());
        } else {
            assert!(s.data_fetches + s.alloc_no_fetch <= l2.data.misses());
        }
        // Bus bytes are line-granular.
        assert_eq!(ctl.bus_stats().total_bytes() % 64, 0);
        if !scheme.verifies() {
            assert_eq!(ctl.bus_stats().hash_bytes(), 0);
            assert_eq!(ctl.verification_horizon(), 0);
        }
    }
}

/// Identical streams produce identical results (full determinism), and
/// attaching telemetry changes neither timing nor statistics.
#[test]
fn deterministic_and_observation_is_free() {
    let mut rng = Rng::seed_from_u64(0xde7e);
    for _case in 0..24 {
        let n = rng.gen_range_usize(1, 150);
        let accesses: Vec<Access> = (0..n).map(|_| random_access(&mut rng)).collect();
        let run = |observe: bool| {
            let mut ctl = controller(Scheme::CHash, 16);
            let registry = Registry::new();
            let trace = EventTrace::bounded(4096);
            if observe {
                ctl.attach_observability(&registry, trace.sink());
            }
            let mut now = 0;
            for a in &accesses {
                now = ctl.access(now, a.addr, a.write, a.full_line);
            }
            (
                now,
                ctl.stats(),
                *ctl.l2_stats(),
                ctl.bus_stats().total_bytes(),
            )
        };
        assert_eq!(run(false), run(false));
        assert_eq!(run(false), run(true));
    }
}

/// Verification makes nothing faster: for the same stream, chash
/// total time is at least base's, and naive at least chash's.
#[test]
fn scheme_cost_ordering() {
    let mut rng = Rng::seed_from_u64(0x0c05);
    for _case in 0..24 {
        let n = rng.gen_range_usize(20, 200);
        let accesses: Vec<Access> = (0..n).map(|_| random_access(&mut rng)).collect();
        let total = |scheme| {
            let mut ctl = controller(scheme, 16);
            let mut now = 0;
            for a in &accesses {
                now = ctl.access(now, a.addr, a.write, a.full_line);
            }
            now
        };
        let base = total(Scheme::Base);
        let chash = total(Scheme::CHash);
        let naive = total(Scheme::Naive);
        assert!(chash >= base, "chash {chash} < base {base}");
        assert!(naive >= chash, "naive {naive} < chash {chash}");
    }
}

/// Registry counters attached via `attach_observability` agree exactly
/// with the controller's own statistics, and the walk-depth histogram
/// counts one sample per verified demand miss.
#[test]
fn telemetry_mirrors_stats() {
    let mut rng = Rng::seed_from_u64(0x0b5e);
    for case in 0..24 {
        let scheme = [Scheme::Naive, Scheme::CHash, Scheme::MHash, Scheme::IHash][case % 4];
        let mut ctl = controller(scheme, 16);
        let registry = Registry::new();
        let trace = EventTrace::bounded(1 << 16);
        ctl.attach_observability(&registry, trace.sink());
        let mut now = 0;
        let n = rng.gen_range_usize(10, 200);
        for _ in 0..n {
            let a = random_access(&mut rng);
            now = ctl.access(now, a.addr, a.write, a.full_line);
        }
        let snap = registry.snapshot();
        let l2 = ctl.l2_stats();
        assert_eq!(snap.counters["l2.data.read_hits"], l2.data.read_hits);
        assert_eq!(snap.counters["l2.data.read_misses"], l2.data.read_misses);
        assert_eq!(snap.counters["l2.data.write_misses"], l2.data.write_misses);
        assert_eq!(snap.counters["l2.hash.read_hits"], l2.hash.read_hits);
        assert_eq!(snap.counters["l2.hash.evictions"], l2.hash.evictions);
        assert_eq!(
            snap.counters["bus.busy_cycles"],
            ctl.bus_stats().busy_cycles
        );
        assert_eq!(
            snap.histograms["bus.wait_cycles"].sum,
            ctl.bus_stats().wait_cycles
        );
        let engine = ctl.engine_stats();
        assert_eq!(snap.counters["hash_unit.ops"], engine.ops);
        assert_eq!(snap.counters["hash_unit.bytes"], engine.bytes);
        assert_eq!(
            snap.histograms["hash_unit.queue_wait"].sum,
            engine.wait_cycles
        );
        // One walk-depth sample per verified demand fetch (no-fetch
        // allocations and write-back walks are not demand walks).
        let walks = snap.histograms["checker.walk_depth"].count;
        assert_eq!(walks, ctl.stats().data_fetches);
        // Event stream saw one l2_miss per timed miss.
        let misses = trace
            .records()
            .iter()
            .filter(|r| r.event.kind() == "l2_miss")
            .count() as u64;
        assert_eq!(trace.dropped(), 0, "ring sized for the whole run");
        assert_eq!(misses, ctl.stats().misses_timed);
    }
}

fn random_checker_stats(rng: &mut Rng) -> CheckerStats {
    CheckerStats {
        data_fetches: rng.gen_range_u64(0, 1000),
        hash_fetches: rng.gen_range_u64(0, 1000),
        extra_data_fetches: rng.gen_range_u64(0, 1000),
        verifications: rng.gen_range_u64(0, 1000),
        writebacks: rng.gen_range_u64(0, 1000),
        alloc_no_fetch: rng.gen_range_u64(0, 1000),
        read_buffer_wait: rng.gen_range_u64(0, 1000),
        write_buffer_wait: rng.gen_range_u64(0, 1000),
        miss_latency: rng.gen_range_u64(0, 1000),
        misses_timed: rng.gen_range_u64(0, 1000),
    }
}

/// `CheckerStats::merge` is associative and commutative with the default
/// as identity, and `delta` inverts it.
#[test]
fn checker_stats_merge_is_associative() {
    let mut rng = Rng::seed_from_u64(0xc57a);
    for _case in 0..200 {
        let a = random_checker_stats(&mut rng);
        let b = random_checker_stats(&mut rng);
        let c = random_checker_stats(&mut rng);

        let mut left = a;
        left.merge(&b);
        left.merge(&c);
        let mut bc = b;
        bc.merge(&c);
        let mut right = a;
        right.merge(&bc);
        assert_eq!(left, right);

        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba);

        let mut with_zero = a;
        with_zero.merge(&CheckerStats::default());
        assert_eq!(with_zero, a);

        let mut sum = a;
        sum.merge(&b);
        assert_eq!(sum.delta(&a), b);
    }
}
