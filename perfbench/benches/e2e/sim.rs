//! The `sim-*` workloads: figure-sweep points run through
//! `miv_sim::System`, one after another on one thread, as a
//! `SweepRunner::new(1)` sweep runs them.
//!
//! An op is one simulated instruction. Each point first runs its
//! start-up (functional prewarm plus warm-up instructions), reported as
//! the point's *barrier*, then its measured window in fixed slices; a
//! slice's host time divided by its instructions is one op-latency
//! sample. Splitting the window into `run` calls inserts a
//! `reset_stats` per slice, which leaves timing unchanged (the sim
//! crate's `split_run_matches_unsplit_run` test).
//!
//! The traced run cannot put a span around each ~20 ns instruction, so
//! it records and replays instead, one segment at a time:
//!
//! 1. generate the segment's instructions (layer `trace`);
//! 2. run `Core` over a recording port wrapping a `Hierarchy`;
//! 3. replay the recorded port calls into a fresh `Hierarchy`;
//! 4. replay the L1-miss stream into a fresh `L2Controller` (layer
//!    `core.timing`); a bench-local L1 + controller pair mirroring
//!    `Hierarchy` records that stream;
//! 5. `cpu` = step 2 − step 3 and `cache.l1` = step 3 − step 4, except
//!    that for the prewarm prefix step 3 − step 4 is `sim.prewarm`
//!    (the prewarm's L2 work stays in `core.timing`).
//!
//! Every replayed return cycle must equal the recorded one, and the
//! recorded run's per-slice `RunResult`s must equal `System`'s.

use std::time::Instant;

use miv_cache::{Cache, CacheStats, LineKind};
use miv_core::timing::{CheckerStats, L2Controller};
use miv_core::Scheme;
use miv_cpu::{Core, MemoryPort, TraceInst};
use miv_sim::{Hierarchy, RunRequest, RunResult, SweepRunner, System, SystemConfig};
use miv_trace::{Benchmark, TraceGenerator};

use crate::harness::{
    peak_rss_mb, ratio, repeated_setup, Check, Digester, Opts, Outcome, Samples, Traced, Workload,
};
use crate::tracer::{self, Layer, Op, RawSpan};

/// One sweep point.
#[derive(Debug, Clone, Copy)]
struct Point {
    bench: Benchmark,
    scheme: Scheme,
    l2_bytes: u64,
}

impl Point {
    fn config(&self) -> SystemConfig {
        SystemConfig::hpca03(self.scheme, self.l2_bytes, 64)
    }
}

/// Sizes of one sim workload run.
#[derive(Debug, Clone)]
struct Spec {
    points: Vec<Point>,
    warmup: u64,
    slice: u64,
    slices: u64,
}

/// The workload's sweep at `--seconds S` (`None` for the smoke size).
fn spec(workload: Workload, seconds: Option<f64>) -> Spec {
    let (points, warmup, measure, slice) = match workload {
        // Working sets that fit the 1 MB L2: walks stop at a cached
        // parent and the prewarm is small, so host time goes to the
        // trace generator, the core model and the L1.
        Workload::SimL2Resident => {
            let mut points = Vec::new();
            for bench in [
                Benchmark::Gcc,
                Benchmark::Gzip,
                Benchmark::Twolf,
                Benchmark::Vpr,
                Benchmark::Vortex,
            ] {
                for scheme in [Scheme::Base, Scheme::CHash, Scheme::MHash, Scheme::IHash] {
                    points.push(Point {
                        bench,
                        scheme,
                        l2_bytes: 1 << 20,
                    });
                }
            }
            (points, 1_000_000, 23_000_000, 1_000_000)
        }
        // Footprints far beyond the L2: tree walks dominate, and the
        // 4 MB points pay a 16 MB functional prewarm.
        Workload::SimTreeWalk => {
            let mut points = Vec::new();
            for l2_bytes in [256 << 10, 4 << 20] {
                for bench in [
                    Benchmark::Mcf,
                    Benchmark::Swim,
                    Benchmark::Applu,
                    Benchmark::Art,
                ] {
                    for scheme in [Scheme::CHash, Scheme::Naive] {
                        points.push(Point {
                            bench,
                            scheme,
                            l2_bytes,
                        });
                    }
                }
            }
            (points, 200_000, 7_000_000, 250_000)
        }
        Workload::ServeMixed | Workload::ServeHotRead | Workload::StoreCommit => {
            unreachable!("not a sim workload")
        }
    };
    let Some(seconds) = seconds else {
        return Spec {
            points: points[..2].to_vec(),
            warmup: 2_000,
            slice: 5_000,
            slices: 2,
        };
    };
    let measure = (measure as f64 * seconds / 10.0).round() as u64;
    Spec {
        points,
        warmup,
        slice,
        slices: measure.div_ceil(slice).max(1),
    }
}

/// What the timed phase produced for each point, slice by slice.
struct Timed {
    results: Vec<Vec<RunResult>>,
    wall_s: f64,
    ops: u64,
    /// Host time per simulated instruction, in picosecond ticks.
    op: Samples,
    /// Host time per point start-up, in nanosecond ticks.
    barrier: Samples,
}

fn build(spec: &Spec, seed: u64) -> Vec<System> {
    spec.points
        .iter()
        .map(|p| System::for_benchmark(p.config(), p.bench, seed))
        .collect()
}

/// Runs every point: start-up, then the measured window slice by slice.
/// Each machine is dropped once its point is done, as a sweep drops it.
fn run_points(spec: &Spec, systems: Vec<System>) -> Timed {
    let mut timed = Timed {
        results: Vec::with_capacity(systems.len()),
        wall_s: 0.0,
        ops: 0,
        op: Samples::new(1e-6),
        barrier: Samples::new(1e-3),
    };
    let start = Instant::now();
    for mut sys in systems {
        let mut last = Instant::now();
        sys.run(spec.warmup, 0);
        timed.barrier.lap(&mut last);
        let mut slices = Vec::with_capacity(spec.slices as usize);
        for _ in 0..spec.slices {
            let r = sys.run(0, spec.slice);
            let now = Instant::now();
            let ps = (now - last).as_nanos() as u64 * 1000 / r.instructions.max(1);
            timed.op.record(ps);
            last = now;
            slices.push(r);
        }
        timed.ops += spec.warmup + spec.slice * spec.slices;
        timed.results.push(slices);
    }
    timed.wall_s = start.elapsed().as_secs_f64();
    timed
}

fn digest(results: &[Vec<RunResult>]) -> String {
    let mut d = Digester::new();
    for r in results.iter().flatten() {
        d.bytes(r.to_json().render().as_bytes());
    }
    d.finish()
}

/// Runs a sim workload.
pub fn run(opts: &Opts) -> Outcome {
    let spec = spec(opts.workload, (!opts.smoke).then_some(opts.seconds));
    let (systems, setup_s) = repeated_setup(opts.setup_reps(), || build(&spec, opts.seed));
    let timed = run_points(&spec, systems);

    let mut out = Outcome {
        setup_s,
        wall_s: timed.wall_s,
        peak_rss_mb: peak_rss_mb(),
        ops: timed.ops,
        digest: digest(&timed.results),
        op: timed.op,
        barrier: timed.barrier,
        ..Outcome::default()
    };
    for (p, slices) in spec.points.iter().zip(&timed.results) {
        for r in slices {
            let sane = r.instructions == spec.slice
                && r.cycles > 0
                && r.scheme == p.scheme.label()
                && r.benchmark == p.bench.name();
            out.failed_ops += u64::from(!sane) * spec.slice;
        }
    }
    let all = timed.results.iter().flatten();
    out.counts.insert("points".into(), spec.points.len() as u64);
    out.counts.insert("instructions".into(), timed.ops);
    out.counts
        .insert("cycles".into(), all.clone().map(|r| r.cycles).sum());
    out.counts
        .insert("bus_bytes".into(), all.clone().map(|r| r.bus_bytes).sum());
    out.counts
        .insert("l2_data_misses".into(), all.map(|r| r.l2_data_misses).sum());

    out.checks
        .push(split_matches_whole(opts, &spec, &timed.results));
    out.checks.push(
        opts.pins
            .check_canary(opts.workload, &canary(opts.workload)),
    );
    if let Some(check) = opts.pins.check_full(opts, &out.digest) {
        out.checks.push(check);
    }
    if opts.traced {
        out.traced = Some(trace(opts, &spec, &timed.results, &mut out.checks));
    }
    out
}

/// The sliced window of one point, summed, must equal one whole
/// `SweepRunner` run over the same instructions.
fn split_matches_whole(opts: &Opts, spec: &Spec, results: &[Vec<RunResult>]) -> Check {
    let i = (opts.seed % spec.points.len() as u64) as usize;
    let p = spec.points[i];
    let k = spec.slices.min(2) as usize;
    let request = RunRequest::new(
        p.config(),
        p.bench,
        spec.warmup,
        k as u64 * spec.slice,
        opts.seed,
    );
    let whole = SweepRunner::new(1).run(&[request]).remove(0).result;
    let parts = &results[i][..k];
    let sum = |f: fn(&RunResult) -> u64| parts.iter().map(f).sum::<u64>();
    let got = [
        sum(|r| r.instructions),
        sum(|r| r.cycles),
        sum(|r| r.bus_bytes),
        sum(|r| r.hash_bytes),
        sum(|r| r.l2_data_misses),
    ];
    let want = [
        whole.instructions,
        whole.cycles,
        whole.bus_bytes,
        whole.hash_bytes,
        whole.l2_data_misses,
    ];
    Check::equal("sliced run matches whole run", got, want)
}

/// A small fixed-seed run of the workload's first point, digested the
/// same way as the full run.
pub fn canary(workload: Workload) -> String {
    let mut spec = spec(workload, None);
    spec.points.truncate(1);
    digest(&run_points(&spec, build(&spec, 42)).results)
}

// ---------------------------------------------------------------------
// Traced run: record and replay.
// ---------------------------------------------------------------------

/// Longest stretch of warm-up generated and replayed at once, bounding
/// the recorded streams' memory.
const SEGMENT: u64 = 1_000_000;

const LOAD: u8 = 0;
const STORE: u8 = 1;
const STORE_FULL: u8 = 2;

/// One recorded core → hierarchy call and its answer.
#[derive(Debug, Clone, Copy)]
struct PortCall {
    now: u64,
    addr: u64,
    ret: u64,
    kind: u8,
}

/// One recorded L1 → L2-controller call and its answer.
#[derive(Debug, Clone, Copy)]
struct L2Call {
    now: u64,
    addr: u64,
    ret: u64,
    write: bool,
    full_line: bool,
}

/// A `Hierarchy` that logs every call the core makes into it.
struct Recorder {
    h: Hierarchy,
    log: Vec<PortCall>,
}

impl MemoryPort for Recorder {
    fn load(&mut self, now: u64, addr: u64) -> u64 {
        let ret = self.h.load(now, addr);
        self.log.push(PortCall {
            now,
            addr,
            ret,
            kind: LOAD,
        });
        ret
    }

    fn store(&mut self, now: u64, addr: u64, full_line: bool) -> u64 {
        let ret = self.h.store(now, addr, full_line);
        let kind = if full_line { STORE_FULL } else { STORE };
        self.log.push(PortCall {
            now,
            addr,
            ret,
            kind,
        });
        ret
    }

    fn verification_horizon(&self) -> u64 {
        self.h.verification_horizon()
    }
}

/// An L1 cache in front of an L2 controller, mirroring `Hierarchy`'s
/// access path so the calls that reach the controller can be logged.
struct Split {
    l1: Cache,
    l1_latency: u64,
    l2: L2Controller,
    log: Vec<L2Call>,
}

impl Split {
    fn new(cfg: &SystemConfig) -> Self {
        Split {
            l1: Cache::new(cfg.l1),
            l1_latency: cfg.l1_latency,
            l2: L2Controller::new(cfg.checker, cfg.l2, cfg.bus),
            log: Vec::new(),
        }
    }

    fn access(&mut self, now: u64, addr: u64, write: bool, full_line: bool) -> u64 {
        if self.l1.lookup(addr, LineKind::Data, write).is_hit() {
            return now + self.l1_latency;
        }
        let at = now + self.l1_latency;
        let ready = self.l2.access(at, addr, write, full_line);
        self.log.push(L2Call {
            now: at,
            addr,
            ret: ready,
            write,
            full_line,
        });
        if let Some(ev) = self.l1.fill(addr, LineKind::Data, write) {
            if ev.dirty {
                let ret = self.l2.access(ready, ev.addr, true, false);
                self.log.push(L2Call {
                    now: ready,
                    addr: ev.addr,
                    ret,
                    write: true,
                    full_line: false,
                });
            }
        }
        ready
    }
}

/// `System`'s run totals, assembled from a hierarchy's statistics since
/// its last `reset_stats`.
fn run_result(h: &Hierarchy, p: &Point, instructions: u64, cycles: u64) -> RunResult {
    let l2 = h.l2().l2_stats();
    let checker = h.l2().stats();
    let bus = h.l2().bus_stats();
    let (occ_data, occ_hash) = h.l2().l2_occupancy();
    let data_misses = l2.data.misses();
    RunResult {
        scheme: p.scheme.label().to_string(),
        benchmark: p.bench.name().to_string(),
        instructions,
        cycles,
        ipc: ratio(instructions, cycles),
        l2_data_miss_rate: l2.data.miss_rate(),
        l2_data_misses: data_misses,
        hash_hit_rate: if l2.hash.accesses() == 0 {
            1.0
        } else {
            ratio(l2.hash.hits(), l2.hash.accesses())
        },
        extra_loads_per_miss: ratio(checker.extra_loads(), data_misses),
        bus_bytes: bus.total_bytes(),
        hash_bytes: bus.hash_bytes(),
        bandwidth_gbps: ratio(bus.total_bytes(), cycles),
        l2_hash_occupancy: ratio(occ_hash, occ_data + occ_hash),
        read_buffer_wait: checker.read_buffer_wait,
    }
}

/// A kept span for one replayed or generated segment.
fn raw_span(segment: u64, layer: Layer, from: Instant, to: Instant) -> RawSpan {
    RawSpan {
        request: segment,
        layer,
        op: Op::Segment,
        parent: None,
        start_ns: tracer::clock_ns(from),
        end_ns: tracer::clock_ns(to),
    }
}

/// Time and work accumulated over the traced run.
#[derive(Debug, Default)]
struct Tally {
    gen_ns: u64,
    run_ns: u64,
    /// Hierarchy and L2 replay time, `[main, prewarm]`.
    hier_ns: [u64; 2],
    l2_ns: [u64; 2],
    instructions: u64,
    /// Port calls and L2 calls replayed, `[main, prewarm]`.
    port_calls: [u64; 2],
    l2_calls: [u64; 2],
    mismatches: u64,
    wall_ns: u64,
    segment: u64,
    l1: CacheStats,
    l2: CacheStats,
    checker: CheckerStats,
    bus_bytes: u64,
}

/// The fresh replay targets for one point.
struct Replay {
    hier: Hierarchy,
    split: Split,
    l2: L2Controller,
}

impl Replay {
    /// Replays one recorded segment: into the fresh hierarchy (timed),
    /// through the mirror pair (untimed, recording the L2 stream), and
    /// the L2 stream into the fresh controller (timed).
    fn segment(&mut self, log: &[PortCall], prewarm: bool, tally: &mut Tally) {
        let t0 = Instant::now();
        for c in log {
            let got = match c.kind {
                LOAD => self.hier.load(c.now, c.addr),
                kind => self.hier.store(c.now, c.addr, kind == STORE_FULL),
            };
            tally.mismatches += u64::from(got != c.ret);
        }
        let t1 = Instant::now();
        for c in log {
            let got = self
                .split
                .access(c.now, c.addr, c.kind != LOAD, c.kind == STORE_FULL);
            tally.mismatches += u64::from(got != c.ret);
        }
        let t2 = Instant::now();
        for c in &self.split.log {
            let got = self.l2.access(c.now, c.addr, c.write, c.full_line);
            tally.mismatches += u64::from(got != c.ret);
        }
        let t3 = Instant::now();
        let k = usize::from(prewarm);
        tally.hier_ns[k] += (t1 - t0).as_nanos() as u64;
        tally.l2_ns[k] += (t3 - t2).as_nanos() as u64;
        tally.port_calls[k] += log.len() as u64;
        tally.l2_calls[k] += self.split.log.len() as u64;
        let outer = if prewarm {
            Layer::SimPrewarm
        } else {
            Layer::CacheL1
        };
        tracer::add_raw(raw_span(tally.segment, outer, t0, t1));
        tracer::add_raw(raw_span(tally.segment, Layer::CoreTiming, t2, t3));
        self.split.log.clear();
    }
}

/// Records and replays one point, checking its slices against `want`.
fn trace_point(p: &Point, spec: &Spec, seed: u64, want: &[RunResult], tally: &mut Tally) -> u64 {
    let start = Instant::now();
    let mut replay_ns = 0u64;
    let cfg = p.config();
    let profile = p.bench.profile();
    let mut core = Core::new(
        cfg.core,
        Recorder {
            h: Hierarchy::new(&cfg),
            log: Vec::new(),
        },
    );
    let mut replay = Replay {
        hier: Hierarchy::new(&cfg),
        split: Split::new(&cfg),
        l2: L2Controller::new(cfg.checker, cfg.l2, cfg.bus),
    };
    let mut gen = TraceGenerator::new(profile, seed);
    let mut buf: Vec<TraceInst> = Vec::new();

    let mut flush =
        |core: &mut Core<Recorder>, replay: &mut Replay, prewarm: bool, tally: &mut Tally| {
            let t = Instant::now();
            let mut log = std::mem::take(&mut core.port_mut().log);
            replay.segment(&log, prewarm, tally);
            log.clear();
            core.port_mut().log = log;
            tally.segment += 1;
            replay_ns += t.elapsed().as_nanos() as u64;
        };
    // One segment: generate, then run the core over it.
    let mut step = |core: &mut Core<Recorder>, n: u64, tally: &mut Tally| {
        let t0 = Instant::now();
        buf.clear();
        buf.extend(gen.by_ref().take(n as usize));
        let t1 = Instant::now();
        let stats = core.run(buf.iter().copied());
        let t2 = Instant::now();
        tally.gen_ns += (t1 - t0).as_nanos() as u64;
        tally.run_ns += (t2 - t1).as_nanos() as u64;
        tally.instructions += n;
        tracer::add_raw(raw_span(tally.segment, Layer::Trace, t0, t1));
        tracer::add_raw(raw_span(tally.segment, Layer::Cpu, t1, t2));
        stats
    };

    // The loads `System`'s prewarm issues.
    let line = u64::from(cfg.l1.line_bytes);
    let span = profile.mid_set.min(4 * cfg.l2.size_bytes);
    let mut addr = 0;
    while addr < span {
        core.port_mut().load(0, addr);
        addr += line;
    }
    flush(&mut core, &mut replay, true, tally);

    let mut left = spec.warmup;
    while left > 0 {
        let n = left.min(SEGMENT);
        step(&mut core, n, tally);
        flush(&mut core, &mut replay, false, tally);
        left -= n;
    }
    core.port_mut().h.reset_stats();
    let mut bad = 0;
    for expected in want {
        let stats = step(&mut core, spec.slice, tally);
        let r = run_result(&core.port().h, p, stats.instructions, stats.cycles);
        bad += u64::from(&r != expected);
        core.port_mut().h.reset_stats();
        flush(&mut core, &mut replay, false, tally);
    }

    tally.l1.merge(replay.hier.l1().stats());
    tally.l2.merge(replay.l2.l2_stats());
    tally.checker.merge(&replay.l2.stats());
    tally.bus_bytes += replay.l2.bus_stats().total_bytes();
    tally.wall_ns += (start.elapsed().as_nanos() as u64).saturating_sub(replay_ns);
    bad
}

/// The traced phase: every point recorded and replayed.
fn trace(opts: &Opts, spec: &Spec, want: &[Vec<RunResult>], checks: &mut Vec<Check>) -> Traced {
    tracer::reset();
    let mut tally = Tally::default();
    let mut bad_slices = 0;
    for (p, want) in spec.points.iter().zip(want) {
        bad_slices += trace_point(p, spec, opts.seed, want, &mut tally);
    }
    checks.push(Check::equal(
        "replayed return cycles differing",
        tally.mismatches,
        0,
    ));
    checks.push(Check::equal(
        "recorded slices differing from System",
        bad_slices,
        0,
    ));

    // Self times: the recorded core run minus its hierarchy replay is
    // the core model; a hierarchy replay minus its L2 replay is the L1
    // (or, for the prewarm, the prewarm loop and its L1 work).
    let [hier_ns, hier_pre_ns] = tally.hier_ns;
    let [l2_ns, l2_pre_ns] = tally.l2_ns;
    let run_ns = tally.run_ns;
    tracer::add(Layer::Trace, Op::Segment, tally.gen_ns, tally.instructions);
    tracer::add(
        Layer::Cpu,
        Op::Segment,
        run_ns.saturating_sub(hier_ns),
        tally.instructions,
    );
    tracer::add(
        Layer::CacheL1,
        Op::Segment,
        hier_ns.saturating_sub(l2_ns),
        tally.port_calls[0],
    );
    tracer::add(
        Layer::SimPrewarm,
        Op::Segment,
        hier_pre_ns.saturating_sub(l2_pre_ns),
        tally.port_calls[1],
    );
    let l2_calls = tally.l2_calls[0] + tally.l2_calls[1];
    tracer::add(Layer::CoreTiming, Op::Access, l2_ns + l2_pre_ns, l2_calls);

    let mut traced = Traced {
        wall_s: tally.wall_ns as f64 * 1e-9,
        ..Traced::default()
    };
    let x = &mut traced.extras;
    let (l1, l2) = (tally.l1, tally.l2);
    x.insert("sim.prewarm.inclusive_s", hier_pre_ns as f64 * 1e-9);
    x.insert(
        "cache.l1.miss_ratio",
        ratio(l1.total_misses(), l1.total_accesses()),
    );
    x.insert(
        "core.timing.l2_data_miss_ratio",
        ratio(l2.data.misses(), l2.data.accesses()),
    );
    x.insert(
        "core.timing.hash_hit_ratio",
        ratio(l2.hash.hits(), l2.hash.accesses()),
    );
    let extra = tally.checker.extra_loads();
    x.insert(
        "core.timing.extra_loads_per_miss",
        ratio(extra, l2.data.misses()),
    );
    x.insert("core.timing.bus_bytes", tally.bus_bytes as f64);
    traced
}
