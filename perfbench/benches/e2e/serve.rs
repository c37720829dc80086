//! The `serve-*` workloads: four `mivsim serve` tenants (one per
//! verifying scheme) served in turn on one thread, as `serve --jobs 1`
//! serves them. Each tenant is a closed loop: a request is issued only
//! after the previous one returned.
//!
//! The request loop is `miv_sim::serve::run_shard`'s, with a
//! clock around each request; the same loop runs untimed at a tenth of
//! the size beside `run_shard` itself, and the two must agree on every
//! count, the drained cycle and the tamper-probe verdict. An op is a
//! read or write request; a flush request is a barrier.

use std::time::Instant;

use miv_cache::{CacheConfig, CacheStats};
use miv_core::engine::{EngineStats, MemoryBuilder, Protection, VerifiedMemory};
use miv_core::timing::{CheckerConfig, CheckerStats, L2Controller};
use miv_core::{IntegrityError, Scheme, TamperKind};
use miv_hash::ChunkHasher;
use miv_mem::MemoryBusConfig;
use miv_obs::{Histogram, Rng};
use miv_sim::serve::{run_shard, ServeSpec, ShardSpec, TamperProbe};
use miv_sim::Telemetry;

use crate::harness::{
    peak_rss_mb, ratio, repeated_setup, scaled, Check, Digester, Opts, Outcome, Samples, Traced,
    Workload,
};
use crate::tracer::{self, Layer, Off, On, Op, Probe, TimedHasher};

/// The share of each stream served untimed before the clock starts.
const WARMUP_PCT: u64 = 10;

/// The four-tenant fleet of `workload` at its 10-second size.
fn fleet(workload: Workload, seed: u64) -> ServeSpec {
    let mut spec = ServeSpec::full(seed);
    spec.shards = 4;
    match workload {
        // 384 KiB of 512 KiB touched at random: misses verify up the
        // tree, 30% partial-line writes are written back, and 1% of
        // requests flush.
        Workload::ServeMixed => spec.requests = 700_000,
        // 32 KiB fits the 64 KiB L2 and trusted cache: reads hit the
        // trusted cache, there are no writes, and flushes find nothing
        // dirty to write back.
        Workload::ServeHotRead => {
            spec.requests = 2_400_000;
            spec.working_set = 32 << 10;
            spec.write_pct = 0;
        }
        Workload::SimL2Resident | Workload::SimTreeWalk | Workload::StoreCommit => {
            unreachable!("not a serve workload")
        }
    }
    spec
}

/// One tenant's engines and stream state: `run_shard`'s locals.
struct Tenant {
    spec: ShardSpec,
    ctl: L2Controller,
    vm: VerifiedMemory,
    _telemetry: Telemetry,
    lat: [Histogram; 3],
    rng: Rng,
    blocks: u64,
    buf: Vec<u8>,
    wbuf: Vec<u8>,
    now: u64,
    reads: u64,
    writes: u64,
    flushes: u64,
}

/// Builds a tenant exactly as `run_shard` does.
fn build(spec: &ShardSpec, hasher: Box<dyn ChunkHasher + Send + Sync>) -> Tenant {
    let mut checker = CheckerConfig::hpca03(spec.scheme);
    checker.protected_bytes = spec.data_bytes;
    checker.chunk_bytes = spec.chunk_bytes();
    let mut ctl = L2Controller::try_new(
        checker,
        CacheConfig::l2(spec.l2_bytes, spec.line_bytes),
        MemoryBusConfig::default(),
    )
    .expect("serve geometry is valid");
    let mut init_rng = Rng::seed_from_u64(spec.seed ^ 0x007E_4A11);
    let mut init = vec![0u8; spec.data_bytes as usize];
    init_rng.fill_bytes(&mut init);
    let protection = match spec.scheme {
        Scheme::IHash => Protection::IncrementalMac,
        Scheme::Base | Scheme::Naive | Scheme::CHash | Scheme::MHash => Protection::HashTree,
    };
    let builder = MemoryBuilder::new()
        .data_bytes(spec.data_bytes)
        .chunk_bytes(spec.chunk_bytes())
        .block_bytes(spec.line_bytes)
        .protection(protection)
        .hasher(hasher)
        .cache_blocks((spec.l2_bytes / u64::from(spec.line_bytes)) as usize)
        .initial_data(init);
    let mut vm = VerifiedMemory::try_new(builder).expect("serve geometry is valid");

    let telemetry = Telemetry::with_event_capacity(4096);
    ctl.attach_observability(telemetry.registry(), telemetry.events().sink());
    vm.attach_observability(telemetry.registry(), telemetry.events().sink());
    let lat = ["read", "write", "flush"].map(|c| {
        telemetry
            .registry()
            .histogram(&format!("serve.latency.{c}"))
    });
    let line = u64::from(spec.line_bytes);
    Tenant {
        spec: *spec,
        ctl,
        vm,
        lat,
        _telemetry: telemetry,
        rng: Rng::seed_from_u64(spec.seed),
        blocks: (spec.working_set.min(spec.data_bytes) / line).max(1),
        buf: vec![0u8; spec.line_bytes as usize],
        wbuf: vec![0u8; spec.line_bytes as usize - 16],
        now: 0,
        reads: 0,
        writes: 0,
        flushes: 0,
    }
}

impl Tenant {
    /// Serves the next request of the stream; `Ok(true)` for a flush.
    fn step<P: Probe>(&mut self, p: P) -> Result<bool, IntegrityError> {
        let spec = self.spec;
        let roll = self.rng.gen_range_u64(0, 100);
        if roll < u64::from(spec.flush_pct) {
            let now = self.now;
            let done = p.time(Layer::CoreTiming, Op::Quiesce, || self.ctl.quiesce(now));
            self.lat[2].record(done - now);
            self.now = done;
            p.time(Layer::CoreEngine, Op::Flush, || self.vm.flush())?;
            self.flushes += 1;
            return Ok(true);
        }
        let write = roll < u64::from(spec.flush_pct + spec.write_pct);
        let addr = self.rng.gen_range_u64(0, self.blocks) * u64::from(spec.line_bytes);
        let now = self.now;
        let ready = p.time(Layer::CoreTiming, Op::Access, || {
            self.ctl.access(now, addr, write, false)
        });
        if write {
            self.rng.fill_bytes(&mut self.wbuf);
            let (vm, wbuf) = (&mut self.vm, &self.wbuf);
            p.time(Layer::CoreEngine, Op::Write, || vm.write(addr + 8, wbuf))?;
            self.lat[1].record(ready - now);
            self.writes += 1;
        } else {
            let (vm, buf) = (&mut self.vm, &mut self.buf);
            p.time(Layer::CoreEngine, Op::Read, || vm.read(addr, buf))?;
            self.lat[0].record(ready - now);
            self.reads += 1;
        }
        self.now = ready;
        Ok(false)
    }

    /// Final drain, as at the end of `run_shard`'s stream.
    fn drain(&mut self) -> u64 {
        self.now = self.ctl.quiesce(self.now);
        self.now
    }

    /// `run_shard`'s end-of-stream tamper probe.
    fn probe(&mut self) -> TamperProbe {
        let line = u64::from(self.spec.line_bytes);
        let mut rng = Rng::seed_from_u64(self.spec.seed ^ 0xA77A_C4ED);
        let target = rng.gen_range_u64(0, self.blocks) * line;
        self.vm
            .clear_cache()
            .expect("pre-probe cache drop verifies");
        let mut now = self.ctl.quiesce(self.now);
        let inject_cycle = now;
        let phys = self.vm.layout().data_phys_addr(target) + rng.gen_range_u64(0, line);
        let bit = rng.gen_u8() % 8;
        self.vm
            .adversary()
            .tamper(phys, TamperKind::BitFlip { bit });
        self.ctl.inject_tamper(phys, 1);
        now = self.ctl.access(now, target, false, false);
        now = self.ctl.quiesce(now);
        let timing = self.ctl.first_detection().map(|d| TamperProbe {
            detected: true,
            detector: "timing",
            latency: d.cycle.saturating_sub(inject_cycle),
        });
        let mut buf = vec![0u8; line as usize];
        let functional = self.vm.read(target, &mut buf).err().map(|_| TamperProbe {
            detected: true,
            detector: "functional",
            latency: now.saturating_sub(inject_cycle),
        });
        timing.or(functional).unwrap_or(TamperProbe {
            detected: false,
            detector: "none",
            latency: 0,
        })
    }
}

/// The timed stream of every tenant, in tenant order.
struct Served {
    wall_s: f64,
    ops: u64,
    op: Samples,
    barrier: Samples,
    errors: u64,
}

fn serve<P: Probe>(tenants: &mut [Tenant], p: P) -> Served {
    let requests = tenants.first().map_or(0, |t| t.spec.requests);
    let warm = requests * WARMUP_PCT / 100;
    let timed = requests - warm;
    let mut out = Served {
        wall_s: 0.0,
        ops: 0,
        op: Samples::new(1e-3),
        barrier: Samples::new(1e-3),
        errors: 0,
    };
    let mut id = 0u64;
    for t in tenants.iter_mut() {
        tracer::pause(true);
        for _ in 0..warm {
            out.errors += u64::from(t.step(Off).is_err());
        }
        tracer::pause(false);
        let start = Instant::now();
        let mut last = start;
        for _ in 0..timed {
            p.request(id);
            id += 1;
            match t.step(p) {
                Ok(true) => out.barrier.lap(&mut last),
                Ok(false) => out.op.lap(&mut last),
                Err(_) => {
                    out.errors += 1;
                    last = Instant::now();
                }
            }
        }
        out.wall_s += (last - start).as_secs_f64();
        out.ops += timed;
        t.drain();
    }
    out
}

fn tenants(specs: &[ShardSpec], traced: bool) -> Vec<Tenant> {
    specs
        .iter()
        .map(|s| {
            let hasher = if traced {
                Box::new(TimedHasher(s.hash.hasher())) as Box<dyn ChunkHasher + Send + Sync>
            } else {
                s.hash.hasher()
            };
            build(s, hasher)
        })
        .collect()
}

/// Serves whole streams through this request loop, untimed, returning
/// what `run_shard` reports: counts, drained cycle and probe verdict.
fn replica(specs: &[ShardSpec]) -> Vec<(u64, u64, u64, u64, TamperProbe)> {
    tenants(specs, false)
        .into_iter()
        .map(|mut t| {
            for _ in 0..t.spec.requests {
                t.step(Off).expect("tamper-free stream verifies");
            }
            let cycles = t.drain();
            let probe = t.probe();
            (t.reads, t.writes, t.flushes, cycles, probe)
        })
        .collect()
}

fn summary(o: &miv_sim::serve::ShardOutcome) -> (u64, u64, u64, u64, TamperProbe) {
    let probe = o.probe.expect("every tenant is probed");
    (o.reads, o.writes, o.flushes, o.cycles, probe)
}

/// A fixed-seed, fixed-size `run_shard` fleet, digested.
pub fn canary(workload: Workload) -> String {
    let mut spec = fleet(workload, 42);
    spec.requests = 1_000;
    let mut d = Digester::new();
    for s in spec.shards() {
        let (reads, writes, flushes, cycles, probe) = summary(&run_shard(&s));
        for v in [
            reads,
            writes,
            flushes,
            cycles,
            probe.latency,
            u64::from(probe.detected),
        ] {
            d.u64(v);
        }
    }
    d.finish()
}

/// Runs a serve workload.
pub fn run(opts: &Opts) -> Outcome {
    let mut spec = fleet(opts.workload, opts.seed);
    spec.requests = scaled(opts, spec.requests, 200);
    let shards = spec.shards();
    let (mut fleet_built, setup_s) = repeated_setup(opts.setup_reps(), || tenants(&shards, false));
    let served = serve(&mut fleet_built, Off);

    let mut out = Outcome {
        setup_s,
        wall_s: served.wall_s,
        peak_rss_mb: peak_rss_mb(),
        ops: served.ops,
        failed_ops: served.errors,
        op: served.op,
        barrier: served.barrier,
        ..Outcome::default()
    };
    let mut d = Digester::new();
    for t in &mut fleet_built {
        for root in t.vm.secure_root() {
            d.bytes(root);
        }
        let probe = t.probe();
        for v in [t.reads, t.writes, t.flushes, t.now, probe.latency] {
            d.u64(v);
        }
        out.checks.push(Check::new(
            "tamper probe detected",
            probe.detected,
            format!(
                "tenant-{} {} after {} cycles",
                t.spec.tenant, probe.detector, probe.latency
            ),
        ));
        let label = t.spec.label();
        out.counts.insert(format!("{label}.reads"), t.reads);
        out.counts.insert(format!("{label}.writes"), t.writes);
        out.counts.insert(format!("{label}.flushes"), t.flushes);
        out.counts.insert(format!("{label}.cycles"), t.now);
    }
    out.digest = d.finish();
    drop(fleet_built);

    // This request loop against `run_shard`, at a tenth of the size.
    let mut small = spec;
    small.requests = (small.requests / 10).max(100);
    let small = small.shards();
    let want: Vec<_> = small.iter().map(|s| summary(&run_shard(s))).collect();
    out.checks.push(Check::equal(
        "request loop matches run_shard",
        replica(&small),
        want,
    ));
    out.checks.push(
        opts.pins
            .check_canary(opts.workload, &canary(opts.workload)),
    );
    if let Some(check) = opts.pins.check_full(opts, &out.digest) {
        out.checks.push(check);
    }
    if opts.traced {
        out.traced = Some(trace(&shards, &mut out.checks));
    }
    out
}

/// The traced phase: the same streams on fresh tenants whose hashers
/// are timing wrappers, with spans around every engine call.
fn trace(shards: &[ShardSpec], checks: &mut Vec<Check>) -> Traced {
    let mut fleet_built = tenants(shards, true);
    tracer::reset();
    let served = serve(&mut fleet_built, On);
    checks.push(Check::equal("traced stream errors", served.errors, 0));
    let mut engine = EngineStats::default();
    let (mut hits, mut misses) = (0, 0);
    let (mut l2, mut checker, mut bus) = (CacheStats::default(), CheckerStats::default(), 0);
    for t in &fleet_built {
        engine.merge(&t.vm.stats());
        let (h, m) = t.vm.cache_counters();
        hits += h;
        misses += m;
        l2.merge(t.ctl.l2_stats());
        checker.merge(&t.ctl.stats());
        bus += t.ctl.bus_stats().total_bytes();
    }
    let mut traced = Traced {
        wall_s: served.wall_s,
        ..Traced::default()
    };
    let x = &mut traced.extras;
    let memo = engine.memo_hits;
    x.insert(
        "core.engine.memo_hit_ratio",
        ratio(memo, memo + engine.chunk_verifications),
    );
    x.insert("core.engine.cache_hit_ratio", ratio(hits, hits + misses));
    x.insert("core.engine.writebacks", engine.writebacks as f64);
    x.insert(
        "core.timing.l2_data_miss_ratio",
        ratio(l2.data.misses(), l2.data.accesses()),
    );
    x.insert(
        "core.timing.hash_hit_ratio",
        ratio(l2.hash.hits(), l2.hash.accesses()),
    );
    x.insert(
        "core.timing.extra_loads_per_miss",
        ratio(checker.extra_loads(), l2.data.misses()),
    );
    x.insert("core.timing.bus_bytes", bus as f64);
    traced
}
