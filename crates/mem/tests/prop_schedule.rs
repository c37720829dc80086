//! Randomized property tests for the gap-filling interval scheduler and
//! the bus, driven by the workspace's deterministic PRNG
//! (`miv_obs::rng`).

use miv_mem::{BusStats, IntervalSchedule, MemoryBus, MemoryBusConfig, TrafficClass};
use miv_obs::rng::Rng;

/// Reference model: a plain sorted list of busy intervals with the same
/// earliest-gap placement, no coalescing, no pruning.
#[derive(Default)]
struct RefSchedule {
    busy: Vec<(u64, u64)>, // sorted by start, non-overlapping
}

impl RefSchedule {
    fn book(&mut self, ready: u64, duration: u64) -> u64 {
        let mut t = ready;
        // Intervals ending by `ready` cannot delay it; disjoint intervals
        // sorted by start are sorted by end too, so they form a prefix.
        let ended = self.busy.partition_point(|&(_, e)| e <= ready);
        for &(s, e) in &self.busy[ended..] {
            if e <= t {
                continue;
            }
            if t + duration <= s {
                break;
            }
            t = t.max(e);
        }
        let pos = self.busy.partition_point(|&(s, _)| s < t);
        self.busy.insert(pos, (t, t + duration));
        t
    }

    /// Busy cycles elapsed by `t`: each interval's overlap with `[0, t)`.
    fn busy_through(&self, t: u64) -> u64 {
        self.busy
            .iter()
            .map(|&(s, e)| e.min(t).saturating_sub(s))
            .sum()
    }

    /// Maximal busy runs: the intervals left once touching ones merge.
    fn runs(&self) -> usize {
        let touching = self.busy.windows(2).filter(|w| w[0].1 == w[1].0).count();
        self.busy.len() - touching
    }
}

/// Books `(ready, duration)` on both schedules and asserts they place it
/// at the same cycle; returns whether the booking pruned the schedule
/// (coalescing alone changes the retained count by at most one).
fn book_both(
    sut: &mut IntervalSchedule,
    reference: &mut RefSchedule,
    ready: u64,
    duration: u64,
) -> bool {
    let before = sut.retained();
    assert_eq!(
        sut.book(ready, duration),
        reference.book(ready, duration),
        "ready={ready} duration={duration}"
    );
    sut.retained() + 1 < before
}

/// The production scheduler places every booking exactly where the
/// straightforward reference model does.
#[test]
fn matches_reference() {
    let mut rng = Rng::seed_from_u64(0x5c4e);
    for _case in 0..64 {
        let mut sut = IntervalSchedule::new();
        let mut reference = RefSchedule::default();
        let n = rng.gen_range_usize(1, 200);
        for _ in 0..n {
            let ready = rng.gen_range_u64(0, 2000);
            let dur = rng.gen_range_u64(1, 100);
            assert_eq!(sut.book(ready, dur), reference.book(ready, dur));
        }
    }
}

/// At the scale the simulator books — prewarm-style bursts at one ready
/// time, strided 20-cycle hashes behind 40-cycle transfers and random
/// gap-fills, 40,000 bookings under an advancing low-water mark, enough
/// for several prunes — placements and `busy_through` at or above the
/// low-water mark still match the reference model, and the schedule
/// never holds more intervals than the reference's busy runs.
#[test]
fn matches_reference_at_scale_across_prunes() {
    const WINDOW: u64 = 300_000;
    let mut rng = Rng::seed_from_u64(0x9e3e);
    let mut sut = IntervalSchedule::new();
    let mut reference = RefSchedule::default();
    let mut now = 0u64;
    let mut prunes = 0;
    let mut round = 0u64;
    while reference.busy.len() < 40_000 {
        round += 1;
        // The core issues in time order, so the low-water mark trails
        // `now`; it holds still at first, as during the prewarm.
        if round > 100 {
            now += rng.gen_range_u64(0, 4_000);
            sut.advance_low_water(now);
        }
        let mut pruned = false;
        match rng.gen_range_usize(0, 4) {
            0 => {
                // Prewarm-style burst: many bookings at one ready time.
                let ready = now + rng.gen_range_u64(0, 200);
                for _ in 0..rng.gen_range_usize(8, 64) {
                    let duration = if rng.gen_bool(0.5) { 20 } else { 40 };
                    pruned |= book_both(&mut sut, &mut reference, ready, duration);
                }
            }
            1 | 2 => {
                // A chain far ahead: one 20-cycle hash per 40-cycle transfer.
                let base = now + rng.gen_range_u64(0, WINDOW);
                for k in 0..rng.gen_range_u64(8, 64) {
                    pruned |= book_both(&mut sut, &mut reference, base + 40 * k, 20);
                }
            }
            _ => {
                // Gap-fills: demand misses just ahead of `now`, background
                // work anywhere in the window.
                for _ in 0..rng.gen_range_usize(1, 16) {
                    let ahead = if rng.gen_bool(0.5) { 200 } else { WINDOW };
                    let ready = now + rng.gen_range_u64(0, ahead);
                    let duration = rng.gen_range_u64(1, 100);
                    pruned |= book_both(&mut sut, &mut reference, ready, duration);
                }
            }
        }
        prunes += usize::from(pruned);
        if pruned || round.is_multiple_of(16) {
            // Only queries at or above the low-water mark are exact.
            for t in [now, now + rng.gen_range_u64(0, WINDOW), now + 2 * WINDOW] {
                assert_eq!(sut.busy_through(t), reference.busy_through(t), "t={t}");
            }
            assert!(sut.retained() <= reference.runs());
        }
    }
    assert!(prunes >= 2, "only {prunes} prunes");
}

/// Bookings never overlap: replaying the grant times against their
/// durations yields pairwise-disjoint intervals.
#[test]
fn grants_never_overlap() {
    let mut rng = Rng::seed_from_u64(0x9a41);
    for _case in 0..32 {
        let mut sut = IntervalSchedule::new();
        let mut placed: Vec<(u64, u64)> = Vec::new();
        let n = rng.gen_range_usize(1, 300);
        for _ in 0..n {
            let ready = rng.gen_range_u64(0, 5000);
            let dur = rng.gen_range_u64(1, 200);
            let start = sut.book(ready, dur);
            assert!(start >= ready);
            for &(s, e) in &placed {
                assert!(
                    start >= e || start + dur <= s,
                    "overlap: [{start},{}) vs [{s},{e})",
                    start + dur
                );
            }
            placed.push((start, start + dur));
        }
    }
}

/// Bus reads never start their transfer before the DRAM latency has
/// elapsed, and total busy time equals the sum of transfer times.
#[test]
fn bus_conservation() {
    let mut rng = Rng::seed_from_u64(0xb05c);
    for _case in 0..64 {
        let cfg = MemoryBusConfig::default();
        let mut bus = MemoryBus::new(cfg);
        let mut expected_busy = 0;
        let n = rng.gen_range_usize(1, 200);
        for _ in 0..n {
            let now = rng.gen_range_u64(0, 10_000);
            let is_read = rng.gen_bool(0.5);
            let t = if is_read {
                bus.read(now, 64, TrafficClass::DataRead)
            } else {
                bus.write(now, 64, TrafficClass::DataWrite)
            };
            let min_start = if is_read { now + cfg.dram_latency } else { now };
            assert!(t.start >= min_start);
            assert_eq!(t.complete - t.start, cfg.transfer_cycles(64));
            expected_busy += cfg.transfer_cycles(64);
        }
        assert_eq!(bus.stats().busy_cycles, expected_busy);
        assert_eq!(bus.stats().total_bytes(), n as u64 * 64);
    }
}

/// Low-water pruning never changes grant times for monotone request
/// streams (the simulator's actual usage pattern).
#[test]
fn pruning_is_transparent_for_monotone_streams() {
    let mut rng = Rng::seed_from_u64(0x10b4);
    for _case in 0..32 {
        let mut pruned = IntervalSchedule::new();
        let mut unpruned = IntervalSchedule::new();
        let mut now = 0;
        let n = rng.gen_range_usize(1, 400);
        for _ in 0..n {
            now += rng.gen_range_u64(0, 120);
            pruned.advance_low_water(now);
            assert_eq!(pruned.book(now, 40), unpruned.book(now, 40));
        }
    }
}

/// `BusStats::merge` accumulates and `delta` inverts it, so
/// interval-sampled segments sum back to the whole run.
#[test]
fn bus_stats_segments_sum_to_whole() {
    let mut rng = Rng::seed_from_u64(0x5e65);
    for _case in 0..32 {
        let mut bus = MemoryBus::new(MemoryBusConfig::default());
        let n = rng.gen_range_usize(4, 100);
        let cut = rng.gen_range_usize(1, n);
        let mut merged = BusStats::default();
        let mut before_cut = BusStats::default();
        let mut now = 0;
        for i in 0..n {
            if i == cut {
                before_cut = *bus.stats();
                merged.merge(&before_cut);
            }
            now += rng.gen_range_u64(0, 200);
            let class = TrafficClass::ALL[rng.gen_range_usize(0, 4)];
            let bytes = 64 * rng.gen_range_u64(1, 3);
            if class.is_read() {
                bus.read(now, bytes, class);
            } else {
                bus.write(now, bytes, class);
            }
        }
        let whole = *bus.stats();
        merged.merge(&whole.delta(&before_cut));
        assert_eq!(merged, whole);
    }
}
