//! What every workload shares: run options, the outcome a workload run
//! returns, summary statistics, digests, the pinned reference digests,
//! and the two metric sets printed at the end of a run.

use std::collections::BTreeMap;
use std::time::Instant;

use miv_hash::md5::Md5;
use miv_obs::JsonValue;

use crate::tracer::{self, Layer, Op};

/// The five workloads, in `--workload all` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure-sweep points whose working sets fit the 1 MB L2.
    SimL2Resident,
    /// Figure-sweep points dominated by hash-tree walks.
    SimTreeWalk,
    /// Four tenants serving reads, partial writes and flushes.
    ServeMixed,
    /// Four tenants re-reading a cache-resident working set.
    ServeHotRead,
    /// A file-backed block store with periodic commits.
    StoreCommit,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 5] = [
        Workload::SimL2Resident,
        Workload::SimTreeWalk,
        Workload::ServeMixed,
        Workload::ServeHotRead,
        Workload::StoreCommit,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimL2Resident => "sim-l2-resident",
            Workload::SimTreeWalk => "sim-tree-walk",
            Workload::ServeMixed => "serve-mixed",
            Workload::ServeHotRead => "serve-hot-read",
            Workload::StoreCommit => "store-commit",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Options for one workload run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// The workload.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Nominal timed-phase length. Work is fixed per workload and scales
    /// linearly with this (sized so 10 s of work takes about 10 s on a
    /// 2-core x86-64 container), so counts and digests repeat exactly.
    pub seconds: f64,
    /// Run the traced phase after the untraced one.
    pub traced: bool,
    /// Tiny sizes for the smoke test.
    pub smoke: bool,
    /// Reference digests.
    pub pins: Pins,
}

impl Opts {
    /// Work multiplier relative to the 10-second sizes.
    pub fn scale(&self) -> f64 {
        if self.smoke {
            0.002
        } else {
            self.seconds / 10.0
        }
    }

    /// How many times set-up is repeated (the median is reported).
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            2
        } else {
            9
        }
    }
}

/// Scales a 10-second work count, keeping at least `min`.
pub fn scaled(opts: &Opts, base: u64, min: u64) -> u64 {
    ((base as f64 * opts.scale()).round() as u64).max(min)
}

/// Reference digests: a small fixed-seed canary per workload, checked
/// on every run whatever its seed, and the full-run digest for the
/// pinned seeds at the pinned length.
#[derive(Debug, Clone, Default)]
pub struct Pins {
    /// Canary digest per workload.
    pub canary: BTreeMap<String, String>,
    /// Full-run digest per (workload, seed).
    pub full: BTreeMap<(String, u64), String>,
    /// The `--seconds` value the full digests were taken at.
    pub seconds: f64,
}

impl Pins {
    /// The digests committed beside the benchmark.
    pub fn committed() -> Pins {
        Pins::parse(include_str!("../../pinned.json")).expect("pinned.json parses")
    }

    /// Parses the `pinned.json` document.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let doc = JsonValue::parse(text)?;
        let mut pins = Pins {
            seconds: doc
                .get("seconds")
                .and_then(JsonValue::as_f64)
                .ok_or("pinned.json: missing seconds")?,
            ..Pins::default()
        };
        let Some(JsonValue::Object(workloads)) = doc.get("workloads") else {
            return Err("pinned.json: missing workloads".into());
        };
        for (name, entry) in workloads {
            if let Some(c) = entry.get("canary").and_then(JsonValue::as_str) {
                pins.canary.insert(name.clone(), c.to_string());
            }
            if let Some(JsonValue::Object(seeds)) = entry.get("full") {
                for (seed, digest) in seeds {
                    let seed: u64 = seed.parse().map_err(|_| format!("bad seed {seed}"))?;
                    let digest = digest.as_str().ok_or("digest must be a string")?;
                    pins.full.insert((name.clone(), seed), digest.to_string());
                }
            }
        }
        Ok(pins)
    }

    /// Checks `got` against the canary pinned for `workload`.
    pub fn check_canary(&self, workload: Workload, got: &str) -> Check {
        match self.canary.get(workload.name()) {
            Some(want) => Check::new(
                "canary digest",
                want == got,
                format!("{got} vs pinned {want}"),
            ),
            None => Check::new("canary digest", false, format!("{got}: nothing pinned")),
        }
    }

    /// Checks the full-run digest when this seed and length are pinned.
    pub fn check_full(&self, opts: &Opts, got: &str) -> Option<Check> {
        if opts.smoke || opts.seconds != self.seconds {
            return None;
        }
        let want = self
            .full
            .get(&(opts.workload.name().to_string(), opts.seed))?;
        Some(Check::new(
            "pinned digest",
            want == got,
            format!("{got} vs pinned {want}"),
        ))
    }
}

/// One run-level correctness check.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence, printed either way.
    pub detail: String,
}

impl Check {
    /// A check result.
    pub fn new(name: &str, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        }
    }

    /// Equality check that prints both sides.
    pub fn equal<T: PartialEq + std::fmt::Debug>(name: &str, got: T, want: T) -> Check {
        let ok = got == want;
        let detail = if ok {
            format!("{got:?}")
        } else {
            format!("{got:?} != {want:?}")
        };
        Check::new(name, ok, detail)
    }
}

/// What the traced phase adds to a run.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Wall time of the traced phase (the run the layers partition).
    pub wall_s: f64,
    /// Layer-specific counts and ratios, by metric name.
    pub extras: BTreeMap<&'static str, f64>,
}

/// What one workload run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall time of the timed phase.
    pub wall_s: f64,
    /// [`peak_rss_mb`] when the timed phase ended, before the checks.
    pub peak_rss_mb: f64,
    /// Ops completed in the timed phase.
    pub ops: u64,
    /// Host latency per op.
    pub op: Samples,
    /// Host latency per barrier.
    pub barrier: Samples,
    /// Ops whose result was wrong or which returned an error.
    pub failed_ops: u64,
    /// Run-level checks.
    pub checks: Vec<Check>,
    /// Deterministic counts (they repeat exactly for a seed).
    pub counts: BTreeMap<String, u64>,
    /// Digest of the run's results.
    pub digest: String,
    /// The traced phase, when run.
    pub traced: Option<Traced>,
}

impl Outcome {
    /// Whether every op and every check passed.
    pub fn correct(&self) -> bool {
        self.failed_ops == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// Failed ops as reported: a failed run-level check fails them all.
    pub fn failed(&self) -> u64 {
        if self.checks.iter().all(|c| c.ok) {
            self.failed_ops
        } else {
            self.ops.max(1)
        }
    }
}

/// A running MD5 over result bytes.
pub struct Digester(Md5);

impl Digester {
    /// An empty digest.
    pub fn new() -> Self {
        Digester(Md5::new())
    }

    /// Adds bytes.
    pub fn bytes(&mut self, data: &[u8]) {
        self.0.update(data);
    }

    /// Adds a number.
    pub fn u64(&mut self, v: u64) {
        self.0.update(&v.to_le_bytes());
    }

    /// The hex digest.
    pub fn finish(self) -> String {
        self.0.finalize().to_hex()
    }
}

/// Latency samples at a fixed integer resolution (a *tick*), kept as a
/// count per value: millions of requests cost kilobytes, and quantiles
/// are exact to the tick.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    tick_us: f64,
    /// Counts of values below [`Samples::DENSE`] ticks, by value.
    dense: Vec<u64>,
    /// Larger values, unsorted.
    tail: Vec<u64>,
    count: u64,
}

impl Samples {
    const DENSE: usize = 1 << 16;

    /// Samples whose tick is `tick_us` microseconds.
    pub fn new(tick_us: f64) -> Self {
        // Written (the opaque zero stops the allocation becoming a lazily
        // zeroed one), so every page is resident from the start and peak
        // memory does not depend on which values occur.
        let mut dense = Vec::with_capacity(Self::DENSE);
        dense.resize(Self::DENSE, std::hint::black_box(0));
        Samples {
            tick_us,
            dense,
            tail: Vec::new(),
            count: 0,
        }
    }

    /// Records one sample of `ticks`.
    pub fn record(&mut self, ticks: u64) {
        match self.dense.get_mut(ticks as usize) {
            Some(c) => *c += 1,
            None => self.tail.push(ticks),
        }
        self.count += 1;
    }

    /// Records the time since `*last` in nanosecond ticks and moves
    /// `*last` to now.
    pub fn lap(&mut self, last: &mut Instant) {
        let now = Instant::now();
        self.record((now - *last).as_nanos() as u64);
        *last = now;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// The `q` quantile in microseconds. Each value is taken as spread
    /// evenly over its tick, so a quantile moves smoothly with the
    /// distribution instead of snapping to whole ticks.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mut tail = self.tail.clone();
        tail.sort_unstable();
        let groups = self
            .dense
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(v, &c)| (v as u64, c))
            .chain(tail.chunk_by(|a, b| a == b).map(|g| (g[0], g.len() as u64)));
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut below = 0;
        let mut last = 0;
        for (v, c) in groups {
            if (below + c) as f64 >= target {
                let within = (target - below as f64) / c as f64;
                return (v as f64 - 0.5 + within) * self.tick_us;
            }
            below += c;
            last = v;
        }
        (last as f64 + 0.5) * self.tick_us
    }
}

/// Runs `build` `reps` times, timing each, and keeps the last result.
pub fn repeated_setup<R>(reps: usize, mut build: impl FnMut() -> R) -> (R, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), times)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The `q` quantile of `values` by linear interpolation between closest
/// ranks (0 for an empty set).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default exclusive method), so spreads printed here match
/// the ones a Python reader would compute.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// The process's peak resident set so far (`VmHWM`) less the
/// file-backed pages resident now (`RssFile`), in MB. File pages are the
/// program's own code and libraries; how many of them are mapped depends
/// on the host's page cache, not on the workload.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = |key: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(key))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (kb("VmHWM:") - kb("RssFile:")) / 1024.0
}

/// The end-to-end metrics, by name and unit, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("barrier_p50_us", "us"),
    ("barrier_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Layer-specific per-layer metrics beyond `self_s`/`calls`/`share`,
/// by name and unit, in `BENCHMARK.json` order.
pub const LAYER_EXTRAS: [(&str, &str); 26] = [
    ("trace.ns_per_inst", "ns"),
    ("cpu.ns_per_inst", "ns"),
    ("cache.l1.miss_ratio", "ratio"),
    ("sim.prewarm.inclusive_s", "s"),
    ("core.timing.ns_per_call", "ns"),
    ("core.timing.quiesce_s", "s"),
    ("core.timing.l2_data_miss_ratio", "ratio"),
    ("core.timing.hash_hit_ratio", "ratio"),
    ("core.timing.extra_loads_per_miss", "ratio"),
    ("core.timing.bus_bytes", "B"),
    ("core.engine.read_s", "s"),
    ("core.engine.write_s", "s"),
    ("core.engine.flush_s", "s"),
    ("core.engine.memo_hit_ratio", "ratio"),
    ("core.engine.cache_hit_ratio", "ratio"),
    ("core.engine.writebacks", "count"),
    ("hash.bytes", "B"),
    ("hash.ns_per_byte", "ns"),
    ("store.cache_hit_ratio", "ratio"),
    ("store.pages_hashed", "count"),
    ("store.journal_appends", "count"),
    ("store.medium.reads", "count"),
    ("store.medium.writes", "count"),
    ("store.medium.syncs", "count"),
    ("store.medium.bytes", "B"),
    ("store.root.saves", "count"),
];

/// Run-wide per-layer metrics, in `BENCHMARK.json` order.
pub const TRACE_TOTALS: [(&str, &str); 4] = [
    ("traced_wall_s", "s"),
    ("unexplained_s", "s"),
    ("unexplained_share", "ratio"),
    ("tracing_overhead_ratio", "ratio"),
];

/// A metric value with its unit.
pub type Metric = (String, f64, &'static str);

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let values = [
        quantile(&o.setup_s, 0.5),
        o.ops as f64 / o.wall_s,
        o.op.quantile_us(0.5),
        o.op.quantile_us(0.99),
        o.barrier.quantile_us(0.5),
        o.barrier.quantile_us(0.99),
        o.peak_rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), v, unit))
        .collect()
}

/// The per-layer metrics of a traced run: `self_s`, `calls` and
/// `share` for every layer, the layer-specific extras (0 where a layer
/// does no work on this workload), and the unexplained remainder.
pub fn per_layer(o: &Outcome) -> Vec<Metric> {
    let traced = o.traced.clone().unwrap_or_default();
    let accs = tracer::snapshot();
    let sum = |layer: Layer, op: Option<Op>| {
        accs.iter()
            .filter(|(l, o, _)| *l == layer && op.is_none_or(|op| *o == op))
            .fold((0u64, 0u64, 0u64), |(s, c, b), (_, _, a)| {
                (s + a.self_ns, c + a.calls, b + a.bytes)
            })
    };
    let wall = traced.wall_s;
    let share = |s: f64| if wall > 0.0 { s / wall } else { 0.0 };
    let mut out = Vec::new();
    let mut explained = 0.0;
    for layer in Layer::ALL {
        let (ns, calls, _) = sum(layer, None);
        let s = ns as f64 * 1e-9;
        explained += s;
        out.push((format!("{}.self_s", layer.name()), s, "s"));
        out.push((format!("{}.calls", layer.name()), calls as f64, "count"));
        out.push((format!("{}.share", layer.name()), share(s), "ratio"));
    }
    let secs = |layer: Layer, op: Op| sum(layer, Some(op)).0 as f64 * 1e-9;
    let calls = |layer: Layer, op: Op| sum(layer, Some(op)).1 as f64;
    let per_call = |layer: Layer| {
        let (ns, calls, _) = sum(layer, None);
        ratio(ns, calls)
    };
    let (hash_ns, _, hash_bytes) = sum(Layer::Hash, None);
    let derived = BTreeMap::from([
        ("trace.ns_per_inst", per_call(Layer::Trace)),
        ("cpu.ns_per_inst", per_call(Layer::Cpu)),
        ("core.timing.ns_per_call", per_call(Layer::CoreTiming)),
        (
            "core.timing.quiesce_s",
            secs(Layer::CoreTiming, Op::Quiesce),
        ),
        ("core.engine.read_s", secs(Layer::CoreEngine, Op::Read)),
        ("core.engine.write_s", secs(Layer::CoreEngine, Op::Write)),
        ("core.engine.flush_s", secs(Layer::CoreEngine, Op::Flush)),
        ("hash.bytes", hash_bytes as f64),
        ("hash.ns_per_byte", ratio(hash_ns, hash_bytes)),
        ("store.medium.reads", calls(Layer::StoreMedium, Op::Read)),
        ("store.medium.writes", calls(Layer::StoreMedium, Op::Write)),
        ("store.medium.syncs", calls(Layer::StoreMedium, Op::Sync)),
        ("store.medium.bytes", sum(Layer::StoreMedium, None).2 as f64),
        ("store.root.saves", calls(Layer::StoreRoot, Op::Save)),
    ]);
    for (name, unit) in LAYER_EXTRAS {
        let v = traced
            .extras
            .get(name)
            .or_else(|| derived.get(name))
            .copied()
            .unwrap_or(0.0);
        out.push((name.to_string(), v, unit));
    }
    let unexplained = wall - explained;
    let totals = [
        wall,
        unexplained,
        share(unexplained),
        if o.wall_s > 0.0 { wall / o.wall_s } else { 0.0 },
    ];
    for (&(name, unit), v) in TRACE_TOTALS.iter().zip(totals) {
        out.push((name.to_string(), v, unit));
    }
    out
}

/// Runs one workload.
pub fn run(opts: &Opts) -> Outcome {
    match opts.workload {
        Workload::SimL2Resident | Workload::SimTreeWalk => crate::sim::run(opts),
        Workload::ServeMixed | Workload::ServeHotRead => crate::serve::run(opts),
        Workload::StoreCommit => crate::store::run(opts),
    }
}

/// The metrics a run reports: end-to-end untraced, per-layer traced.
pub fn metrics(opts: &Opts, o: &Outcome) -> Vec<Metric> {
    if opts.traced {
        per_layer(o)
    } else {
        end_to_end(o)
    }
}

/// The run record `--json DIR` writes and `--compare` reads.
pub fn record(opts: &Opts, o: &Outcome, line: &JsonValue) -> JsonValue {
    let mut doc = JsonValue::obj();
    doc.push("workload", opts.workload.name());
    doc.push("seed", opts.seed);
    doc.push("seconds", opts.seconds);
    doc.push("traced", opts.traced);
    doc.push("digest", o.digest.as_str());
    let mut counts = JsonValue::obj();
    for (k, v) in &o.counts {
        counts.push(k, *v);
    }
    doc.push("counts", counts);
    let mut samples = JsonValue::obj();
    samples.push("setup", o.setup_s.len());
    samples.push("op", o.op.len());
    samples.push("barrier", o.barrier.len());
    doc.push("samples", samples);
    let checks: Vec<JsonValue> = o
        .checks
        .iter()
        .map(|c| {
            let mut v = JsonValue::obj();
            v.push("name", c.name.as_str());
            v.push("ok", c.ok);
            v.push("detail", c.detail.as_str());
            v
        })
        .collect();
    doc.push("checks", checks);
    doc.push("result", line.clone());
    doc
}

/// The result line: the last line a run prints.
pub fn result_line(o: &Outcome, metrics: &[Metric]) -> JsonValue {
    let mut m = JsonValue::obj();
    for (name, value, unit) in metrics {
        let mut v = JsonValue::obj();
        v.push("value", *value);
        v.push("unit", *unit);
        m.push(name, v);
    }
    let mut line = JsonValue::obj();
    line.push("correct", o.correct());
    line.push("attempted", o.ops.max(1));
    line.push("failed", o.failed());
    line.push("metrics", m);
    line
}
