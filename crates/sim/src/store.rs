//! `mivsim store`: drives the persistent verified block store
//! (`miv-store`) through three deterministic campaigns.
//!
//! * **bench** — a page-size × cache-size grid of seeded read/write
//!   workloads against real files, folding per-op modeled device
//!   latency into log2 histograms and cache hit-rate gauges. The grid
//!   fans out over [`SweepRunner::run_tasks`] (one file pair per cell,
//!   so workers never share a medium) and folds in grid order, which
//!   makes the `miv-store-v1` document byte-identical at any `--jobs`.
//! * **soak** — sequential open → write → commit → close → reopen →
//!   verify rounds against one file pair, with every read checked
//!   against an in-memory model; the durability treadmill.
//! * **fsck** — the crash-point matrix: a scripted two-commit workload
//!   is killed at *every* mutating device step (each point is an
//!   independent task on the worker pool), recovered from the trusted
//!   root, fully verified, and required to match one of the committed
//!   states byte-exactly — never a torn mixture.
//!
//! Latency figures are *modeled* ticks — a pure function of the
//! [`StoreStats`] deltas and the cost constants below, never of the
//! host filesystem — so reports stay deterministic on any machine.
//!
//! # Examples
//!
//! ```
//! use miv_sim::store::{run_fsck, StoreSpec};
//! use miv_sim::SweepRunner;
//!
//! let mut spec = StoreSpec::quick(7);
//! spec.ops = 40; // doctest-sized
//! let report = run_fsck(&spec, &SweepRunner::new(2)).unwrap();
//! assert!(report.clean());
//! assert!(report.recovered_old > 0 && report.recovered_new > 0);
//! ```

use std::path::{Path, PathBuf};

use miv_adversary::cell_seed;
use miv_hash::HashAlgo;
use miv_obs::{HistogramSnapshot, JsonValue, Registry, Rng};
use miv_store::{
    BlockStore, CrashMedium, FileMedium, FileRootStore, MemMedium, MemRootStore, StoreConfig,
    StoreError, StoreStats,
};

use crate::report::{f2, pct, Table};
use crate::sweep::SweepRunner;
use crate::telemetry::Telemetry;

/// Seed lane for store cells: keeps bench-cell seeds disjoint from the
/// online campaign (lanes 0..n_schemes) and the offline campaign (64).
const STORE_SEED_LANE: usize = 96;

/// Modeled ticks for a page-sized device read (seek + transfer).
pub const READ_PAGE_TICKS: u64 = 120;
/// Modeled ticks for a device write (page, journal frame or superblock).
pub const WRITE_PAGE_TICKS: u64 = 180;
/// Modeled ticks for hashing one page.
pub const HASH_PAGE_TICKS: u64 = 40;
/// Modeled ticks for a sync barrier.
pub const SYNC_TICKS: u64 = 600;
/// Modeled ticks for a trusted-cache hit.
pub const CACHE_HIT_TICKS: u64 = 4;

/// Everything the store campaigns need: plain data, fully determining
/// every report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreSpec {
    /// Master seed; every cell derives its own stream from it.
    pub seed: u64,
    /// Protected data region per store, in bytes.
    pub data_bytes: u64,
    /// Page sizes (tree chunk bytes) on the bench grid.
    pub page_sizes: Vec<u32>,
    /// Trusted-cache capacities (pages) on the bench grid.
    pub cache_sizes: Vec<usize>,
    /// Operations per bench cell / soak round.
    pub ops: u64,
    /// Store fraction of the op stream, in percent.
    pub write_pct: u32,
    /// Explicit commit every this many ops (bench and soak).
    pub commit_every: u64,
    /// Soak rounds (each ends in close + reopen + verify).
    pub soak_rounds: u32,
    /// Hash unit for every store's tree pages.
    pub hash: HashAlgo,
}

impl StoreSpec {
    /// The CI-sized campaign: small stores, short streams.
    pub fn quick(seed: u64) -> Self {
        StoreSpec {
            seed,
            data_bytes: 32 << 10,
            page_sizes: vec![128, 256],
            cache_sizes: vec![8, 16],
            ops: 400,
            write_pct: 60,
            commit_every: 64,
            soak_rounds: 3,
            hash: HashAlgo::Md5,
        }
    }

    /// The full campaign.
    pub fn full(seed: u64) -> Self {
        StoreSpec {
            seed,
            data_bytes: 128 << 10,
            page_sizes: vec![128, 256, 512],
            cache_sizes: vec![12, 24, 48],
            ops: 4000,
            write_pct: 60,
            commit_every: 512,
            soak_rounds: 8,
            hash: HashAlgo::Md5,
        }
    }

    /// Pre-flights every geometry the campaigns will build — each bench
    /// cell plus the soak and fsck configs — through the store's own
    /// fallible validation, so `mivsim store` rejects a bad spec before
    /// fanning work out to the pool.
    pub fn validate(&self) -> Result<(), String> {
        for cell in self.bench_cells() {
            let config = StoreConfig {
                data_bytes: cell.data_bytes,
                page_bytes: cell.page_bytes,
                cache_pages: cell.cache_pages,
                journal_slots: 0,
            };
            config
                .validate()
                .map_err(|e| format!("bench p{} c{}: {e}", cell.page_bytes, cell.cache_pages))?;
        }
        StoreConfig {
            data_bytes: self.data_bytes,
            page_bytes: self.page_sizes[0],
            cache_pages: self.cache_sizes[0],
            journal_slots: 0,
        }
        .validate()
        .map_err(|e| format!("soak: {e}"))?;
        fsck_config(self)
            .validate()
            .map_err(|e| format!("fsck: {e}"))
    }

    /// The bench grid in report order (page size outer, cache inner).
    pub fn bench_cells(&self) -> Vec<BenchCell> {
        let mut cells = Vec::new();
        for (pi, &page_bytes) in self.page_sizes.iter().enumerate() {
            for (ci, &cache_pages) in self.cache_sizes.iter().enumerate() {
                cells.push(BenchCell {
                    seed: cell_seed(self.seed, STORE_SEED_LANE, pi * 16 + ci, 0),
                    data_bytes: self.data_bytes,
                    page_bytes,
                    cache_pages,
                    ops: self.ops,
                    write_pct: self.write_pct,
                    commit_every: self.commit_every,
                    hash: self.hash,
                });
            }
        }
        cells
    }
}

/// One bench grid point: plain data, safe to hand to any worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchCell {
    /// Derived cell seed.
    pub seed: u64,
    /// Data region size in bytes.
    pub data_bytes: u64,
    /// Page (tree chunk) size in bytes.
    pub page_bytes: u32,
    /// Trusted-cache capacity in pages.
    pub cache_pages: usize,
    /// Operations in the stream.
    pub ops: u64,
    /// Store fraction in percent.
    pub write_pct: u32,
    /// Explicit commit cadence.
    pub commit_every: u64,
    /// Hash unit for the store's tree pages.
    pub hash: HashAlgo,
}

/// What one bench cell produced.
#[derive(Debug, Clone)]
pub struct BenchOutcome {
    /// The cell that ran.
    pub cell: BenchCell,
    /// Device and cache counters at end of stream.
    pub stats: StoreStats,
    /// Tree pages verified by the end-of-stream full walk.
    pub verified_pages: u64,
    /// Final committed generation.
    pub generation: u64,
    /// Per-op modeled latency distribution (ticks).
    pub latency: HistogramSnapshot,
}

impl BenchOutcome {
    /// Trusted-cache hit rate over the whole stream.
    pub fn hit_rate(&self) -> f64 {
        let total = self.stats.cache_hits + self.stats.cache_misses;
        if total == 0 {
            1.0
        } else {
            self.stats.cache_hits as f64 / total as f64
        }
    }
}

fn modeled_ticks(before: &StoreStats, after: &StoreStats) -> u64 {
    (after.cache_hits - before.cache_hits) * CACHE_HIT_TICKS
        + (after.device_reads - before.device_reads) * READ_PAGE_TICKS
        + (after.device_writes - before.device_writes) * WRITE_PAGE_TICKS
        + (after.pages_hashed - before.pages_hashed) * HASH_PAGE_TICKS
        + (after.syncs - before.syncs) * SYNC_TICKS
}

/// Runs one scripted op stream against an open store, recording per-op
/// modeled latency into `latency` and mirroring writes into `model`
/// when provided (reads are then checked against it; the mismatch
/// count comes back).
fn drive_stream<M, R>(
    store: &mut BlockStore<M, R>,
    rng: &mut Rng,
    ops: u64,
    write_pct: u32,
    commit_every: u64,
    latency: &miv_obs::Histogram,
    mut model: Option<&mut Vec<u8>>,
) -> Result<u64, StoreError>
where
    M: miv_store::StoreMedium,
    R: miv_store::RootStore,
{
    let data_bytes = store.geometry().layout().data_bytes();
    let mut mismatches = 0u64;
    for op in 1..=ops {
        let len = rng.gen_range_usize(16, 129);
        let addr = rng.gen_range_u64(0, data_bytes - len as u64);
        let is_write = rng.gen_range_u64(0, 100) < write_pct as u64;
        let before = store.stats();
        if is_write {
            let mut buf = vec![0u8; len];
            rng.fill_bytes(&mut buf);
            store.write(addr, &buf)?;
            if let Some(model) = model.as_deref_mut() {
                let at = usize::try_from(addr).expect("the model spans the data segment");
                model[at..at + len].copy_from_slice(&buf);
            }
        } else {
            let got = store.read_vec(addr, len)?;
            if let Some(model) = model.as_deref_mut() {
                let at = usize::try_from(addr).expect("the model spans the data segment");
                if got != model[at..at + len] {
                    mismatches += 1;
                }
            }
        }
        if commit_every > 0 && op % commit_every == 0 {
            store.commit()?;
        }
        let after = store.stats();
        latency.record(modeled_ticks(&before, &after));
    }
    store.commit()?;
    Ok(mismatches)
}

fn cell_paths(dir: &Path, cell: &BenchCell) -> (PathBuf, PathBuf) {
    let stem = format!("bench-p{}-c{}", cell.page_bytes, cell.cache_pages);
    (
        dir.join(format!("{stem}.img")),
        dir.join(format!("{stem}.root")),
    )
}

/// Runs one bench cell against its own file pair under `dir`.
pub fn run_bench_cell(cell: &BenchCell, dir: &Path) -> Result<BenchOutcome, String> {
    let (img, root) = cell_paths(dir, cell);
    let fail = |e: StoreError| format!("bench p{} c{}: {e}", cell.page_bytes, cell.cache_pages);
    let medium = FileMedium::create(&img).map_err(|e| format!("{}: {e}", img.display()))?;
    let config = StoreConfig {
        data_bytes: cell.data_bytes,
        page_bytes: cell.page_bytes,
        cache_pages: cell.cache_pages,
        journal_slots: 0,
    };
    let mut store =
        BlockStore::create(medium, FileRootStore::new(root), config, cell.hash.hasher())
            .map_err(fail)?;
    let registry = Registry::new();
    let latency = registry.histogram("store.op_ticks");
    let mut rng = Rng::seed_from_u64(cell.seed);
    drive_stream(
        &mut store,
        &mut rng,
        cell.ops,
        cell.write_pct,
        cell.commit_every,
        &latency,
        None,
    )
    .map_err(fail)?;
    let verified_pages = store.verify_all().map_err(fail)?;
    Ok(BenchOutcome {
        cell: *cell,
        stats: store.stats(),
        verified_pages,
        generation: store.generation(),
        latency: latency.snapshot(),
    })
}

/// Fans the bench grid out over `runner`'s worker pool. Each cell owns
/// a private file pair under `dir` (created if missing); the files are
/// removed afterwards, and `dir` itself is removed when it ends up
/// empty. Outcomes come back in grid order.
pub fn run_store_bench(
    spec: &StoreSpec,
    runner: &SweepRunner,
    dir: &Path,
) -> Result<Vec<BenchOutcome>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let cells = spec.bench_cells();
    let results = runner.run_tasks(&cells, |cell| run_bench_cell(cell, dir));
    for cell in &cells {
        let (img, root) = cell_paths(dir, cell);
        let _ = std::fs::remove_file(img);
        let _ = std::fs::remove_file(root);
    }
    let _ = std::fs::remove_dir(dir);
    results.into_iter().collect()
}

/// What the soak treadmill measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SoakReport {
    /// Rounds completed (each ends in close + reopen + verify).
    pub rounds: u32,
    /// Ops per round.
    pub ops: u64,
    /// Final committed generation after the last reopen.
    pub generation: u64,
    /// Journal frames redone across all reopens. Nonzero even for
    /// clean closes: the committed journal prefix is part of the
    /// committed state, and open re-applies it idempotently because it
    /// cannot know whether the post-commit fold finished.
    pub replayed_entries: u64,
    /// Tree pages verified by the final full walk.
    pub verified_pages: u64,
    /// Reads that disagreed with the in-memory model (must be 0).
    pub mismatches: u64,
}

impl SoakReport {
    /// No read ever disagreed with the model.
    pub fn clean(&self) -> bool {
        self.mismatches == 0
    }
}

/// Runs the soak treadmill: `spec.soak_rounds` rounds of open → ops →
/// commit → close → reopen → verify against one file pair under `dir`.
/// Sequential by design — the rounds share the store file.
pub fn run_soak(spec: &StoreSpec, dir: &Path) -> Result<SoakReport, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let img = dir.join("soak.img");
    let root = dir.join("soak.root");
    let config = StoreConfig {
        data_bytes: spec.data_bytes,
        page_bytes: spec.page_sizes[0],
        cache_pages: spec.cache_sizes[0],
        journal_slots: 0,
    };
    let fail = |stage: &str| {
        let stage = stage.to_string();
        move |e: StoreError| format!("soak {stage}: {e}")
    };
    let registry = Registry::new();
    let latency = registry.histogram("store.op_ticks");
    let data_len = usize::try_from(spec.data_bytes).expect("the segment fits host memory");
    let mut model = vec![0u8; data_len];
    let mut rng = Rng::seed_from_u64(cell_seed(spec.seed, STORE_SEED_LANE, 255, 0));
    let mut mismatches = 0u64;
    let mut replayed = 0u64;

    let medium = FileMedium::create(&img).map_err(|e| format!("{}: {e}", img.display()))?;
    let mut store = BlockStore::create(
        medium,
        FileRootStore::new(root.clone()),
        config,
        spec.hash.hasher(),
    )
    .map_err(fail("create"))?;
    for round in 0..spec.soak_rounds {
        mismatches += drive_stream(
            &mut store,
            &mut rng,
            spec.ops,
            spec.write_pct,
            spec.commit_every,
            &latency,
            Some(&mut model),
        )
        .map_err(fail("round"))?;
        drop(store);
        let medium = FileMedium::open(&img).map_err(|e| format!("{}: {e}", img.display()))?;
        let (reopened, recovery) = BlockStore::open(
            medium,
            FileRootStore::new(root.clone()),
            spec.hash.hasher(),
            config.cache_pages,
        )
        .map_err(fail("reopen"))?;
        store = reopened;
        replayed += recovery.replayed_entries;
        let check = store.read_vec(0, data_len).map_err(fail("readback"))?;
        if check != model {
            mismatches += 1;
        }
        let _ = round;
    }
    let verified_pages = store.verify_all().map_err(fail("verify"))?;
    let report = SoakReport {
        rounds: spec.soak_rounds,
        ops: spec.ops,
        generation: store.generation(),
        replayed_entries: replayed,
        verified_pages,
        mismatches,
    };
    drop(store);
    let _ = std::fs::remove_file(img);
    let _ = std::fs::remove_file(root);
    let _ = std::fs::remove_dir(dir);
    Ok(report)
}

/// How one injected crash point resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashVerdict {
    /// Recovered a committed generation whose data matched the model.
    Recovered {
        /// The committed generation the reopen landed on.
        generation: u64,
        /// Orphaned (newer-generation) journal frames discarded.
        orphaned: u64,
    },
    /// Reopen failed or the data region was a torn mixture.
    Torn(String),
}

/// What the crash-point matrix measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsckMatrixReport {
    /// Crash points exercised.
    pub points: u64,
    /// Points that recovered the pre-crash committed state.
    pub recovered_old: u64,
    /// Points that recovered the newly committed state.
    pub recovered_new: u64,
    /// Points whose recovery discarded orphaned journal frames.
    pub orphaned_points: u64,
    /// Torn or unrecoverable points (must be empty), capped at 8
    /// messages.
    pub torn: Vec<String>,
}

impl FsckMatrixReport {
    /// Every crash point recovered a committed state.
    pub fn clean(&self) -> bool {
        self.torn.is_empty() && self.recovered_old > 0 && self.recovered_new > 0
    }
}

/// The fsck script's write count per phase: small and fixed so the
/// matrix (one full run per device step) stays CI-sized.
const FSCK_WRITES_PER_PHASE: u64 = 24;

fn fsck_config(spec: &StoreSpec) -> StoreConfig {
    StoreConfig {
        data_bytes: spec.data_bytes.min(8 << 10),
        page_bytes: spec.page_sizes[0],
        cache_pages: spec.cache_sizes[0].max(12),
        journal_slots: 0,
    }
}

fn fsck_phase_writes(config: &StoreConfig, phase: u32) -> Vec<(u64, Vec<u8>)> {
    let (stride, len, tint) = match phase {
        1 => (211u64, 32usize, 0x11u8),
        _ => (389, 48, 0xA0),
    };
    (0..FSCK_WRITES_PER_PHASE)
        .map(|i| {
            let addr = (i * stride) % (config.data_bytes - len as u64);
            (
                addr,
                vec![tint ^ u8::try_from(i).expect("writes per fsck phase stay below 256"); len],
            )
        })
        .collect()
}

/// Runs the scripted two-commit workload; any device error aborts it,
/// exactly as a crash would. Returns the step counts at each commit.
fn fsck_script(
    medium: CrashMedium<MemMedium>,
    roots: MemRootStore,
    config: &StoreConfig,
    hash: HashAlgo,
) -> Result<(u64, u64), StoreError> {
    let mut store = BlockStore::create(medium, roots, *config, hash.hasher())?;
    for (addr, data) in fsck_phase_writes(config, 1) {
        store.write(addr, &data)?;
    }
    store.commit()?;
    let steps_old = store.medium().steps();
    for (addr, data) in fsck_phase_writes(config, 2) {
        store.write(addr, &data)?;
    }
    store.commit()?;
    Ok((steps_old, store.medium().steps()))
}

fn fsck_model(config: &StoreConfig, generation: u64) -> Vec<u8> {
    let mut data =
        vec![0u8; usize::try_from(config.data_bytes).expect("the segment fits host memory")];
    for phase in 1..=2u32 {
        if generation > phase as u64 {
            for (addr, bytes) in fsck_phase_writes(config, phase) {
                let at = usize::try_from(addr).expect("the model spans the data segment");
                data[at..at + bytes.len()].copy_from_slice(&bytes);
            }
        }
    }
    data
}

fn run_crash_point(fail_at: u64, config: &StoreConfig, hash: HashAlgo) -> CrashVerdict {
    let mem = MemMedium::new();
    let roots = MemRootStore::new();
    let outcome = fsck_script(
        CrashMedium::new(mem.clone()).arm(fail_at),
        roots.clone(),
        config,
        hash,
    );
    if !matches!(outcome, Err(StoreError::Crashed)) {
        return CrashVerdict::Torn(format!(
            "step {fail_at}: armed crash did not fire ({outcome:?})"
        ));
    }
    let (mut store, recovery) =
        match BlockStore::open(mem, roots, hash.hasher(), config.cache_pages) {
            Ok(opened) => opened,
            Err(e) => return CrashVerdict::Torn(format!("step {fail_at}: reopen failed: {e}")),
        };
    if let Err(e) = store.verify_all() {
        return CrashVerdict::Torn(format!("step {fail_at}: verify failed: {e}"));
    }
    let data_len = usize::try_from(config.data_bytes).expect("the segment fits host memory");
    let data = match store.read_vec(0, data_len) {
        Ok(data) => data,
        Err(e) => return CrashVerdict::Torn(format!("step {fail_at}: readback failed: {e}")),
    };
    if data != fsck_model(config, recovery.generation) {
        return CrashVerdict::Torn(format!(
            "step {fail_at}: generation {} data is a torn mixture",
            recovery.generation
        ));
    }
    CrashVerdict::Recovered {
        generation: recovery.generation,
        orphaned: recovery.orphaned_entries,
    }
}

/// Runs the crash-point matrix on `runner`'s worker pool: one
/// independent crash-and-recover task per mutating device step of the
/// scripted workload. Purely in-memory (`CrashMedium<MemMedium>`).
pub fn run_fsck(spec: &StoreSpec, runner: &SweepRunner) -> Result<FsckMatrixReport, String> {
    let config = fsck_config(spec);
    // Unarmed probe: measure the script's device steps.
    let (steps_old, steps_new) = fsck_script(
        CrashMedium::new(MemMedium::new()),
        MemRootStore::new(),
        &config,
        spec.hash,
    )
    .map_err(|e| format!("fsck probe: {e}"))?;
    if steps_old < 3 || steps_new <= steps_old {
        return Err(format!(
            "fsck probe produced a degenerate script ({steps_old}/{steps_new} steps)"
        ));
    }
    // Step 1 is create's image write: crashing there leaves no
    // committed root, so the matrix starts after create published
    // generation 1.
    let points: Vec<u64> = (3..=steps_new).collect();
    let verdicts = runner.run_tasks(&points, |&fail_at| {
        run_crash_point(fail_at, &config, spec.hash)
    });
    let mut report = FsckMatrixReport {
        points: points.len() as u64,
        recovered_old: 0,
        recovered_new: 0,
        orphaned_points: 0,
        torn: Vec::new(),
    };
    for verdict in verdicts {
        match verdict {
            CrashVerdict::Recovered {
                generation,
                orphaned,
            } => {
                if generation >= 3 {
                    report.recovered_new += 1;
                } else {
                    report.recovered_old += 1;
                }
                if orphaned > 0 {
                    report.orphaned_points += 1;
                }
            }
            CrashVerdict::Torn(msg) => {
                if report.torn.len() < 8 {
                    report.torn.push(msg);
                }
            }
        }
    }
    Ok(report)
}

fn spec_json(spec: &StoreSpec) -> JsonValue {
    let mut config = JsonValue::obj();
    config.push("data_bytes", spec.data_bytes);
    config.push(
        "page_sizes",
        spec.page_sizes
            .iter()
            .map(|&p| JsonValue::from(p))
            .collect::<Vec<_>>(),
    );
    config.push(
        "cache_sizes",
        spec.cache_sizes
            .iter()
            .map(|&c| JsonValue::from(c))
            .collect::<Vec<_>>(),
    );
    config.push("ops", spec.ops);
    config.push("write_pct", spec.write_pct);
    config.push("commit_every", spec.commit_every);
    config.push("soak_rounds", spec.soak_rounds);
    config.push("hash", spec.hash.label());
    config
}

fn document_header(spec: &StoreSpec, mode: &str) -> JsonValue {
    let mut doc = JsonValue::obj();
    doc.push("schema", "miv-store-v1");
    doc.push("mode", mode);
    doc.push("seed", spec.seed);
    doc.push("config", spec_json(spec));
    doc
}

/// Records the bench outcomes into `registry` as `store.*` counters
/// and per-cell hit-rate gauges.
pub fn record_bench(outcomes: &[BenchOutcome], registry: &Registry) {
    for o in outcomes {
        registry
            .counter("store.device.reads")
            .add(o.stats.device_reads);
        registry
            .counter("store.device.writes")
            .add(o.stats.device_writes);
        registry.counter("store.bytes.read").add(o.stats.read_bytes);
        registry
            .counter("store.bytes.written")
            .add(o.stats.write_bytes);
        registry.counter("store.cache.hits").add(o.stats.cache_hits);
        registry
            .counter("store.cache.misses")
            .add(o.stats.cache_misses);
        registry
            .counter("store.pages.hashed")
            .add(o.stats.pages_hashed);
        registry
            .counter("store.pages.verified")
            .add(o.stats.pages_verified);
        registry
            .counter("store.journal.appends")
            .add(o.stats.journal_appends);
        registry.counter("store.commits").add(o.stats.commits);
        registry
            .gauge(&format!(
                "store.hit_rate.p{}.c{}",
                o.cell.page_bytes, o.cell.cache_pages
            ))
            .set(o.hit_rate());
    }
}

/// The `miv-store-v1` bench document: the grid, per-cell counters and
/// latency quantiles, and the registry-backed metrics export.
pub fn store_bench_document(spec: &StoreSpec, outcomes: &[BenchOutcome]) -> JsonValue {
    let mut doc = document_header(spec, "bench");
    let mut merged = HistogramSnapshot::default();
    let mut cells = Vec::new();
    for o in outcomes {
        let mut cell = JsonValue::obj();
        cell.push("page_bytes", o.cell.page_bytes);
        cell.push("cache_pages", o.cell.cache_pages);
        cell.push("generation", o.generation);
        cell.push("verified_pages", o.verified_pages);
        cell.push("hit_rate", o.hit_rate());
        cell.push("device_reads", o.stats.device_reads);
        cell.push("device_writes", o.stats.device_writes);
        cell.push("read_bytes", o.stats.read_bytes);
        cell.push("write_bytes", o.stats.write_bytes);
        cell.push("syncs", o.stats.syncs);
        cell.push("journal_appends", o.stats.journal_appends);
        cell.push("commits", o.stats.commits);
        cell.push("auto_commits", o.stats.auto_commits);
        cell.push("latency_ticks", o.latency.to_json());
        cells.push(cell);
        merged.merge(&o.latency);
    }
    doc.push("cells", cells);
    let mut summary = JsonValue::obj();
    summary.push("cells", outcomes.len());
    summary.push("latency_ticks", merged.to_json());
    doc.push("summary", summary);
    let telemetry = Telemetry::new();
    record_bench(outcomes, telemetry.registry());
    doc.push("metrics", telemetry.aggregate_document());
    doc
}

/// The `miv-store-v1` soak document.
pub fn store_soak_document(spec: &StoreSpec, report: &SoakReport) -> JsonValue {
    let mut doc = document_header(spec, "soak");
    let mut body = JsonValue::obj();
    body.push("rounds", report.rounds);
    body.push("ops_per_round", report.ops);
    body.push("generation", report.generation);
    body.push("replayed_entries", report.replayed_entries);
    body.push("verified_pages", report.verified_pages);
    body.push("mismatches", report.mismatches);
    body.push("clean", report.clean());
    doc.push("soak", body);
    doc
}

/// The `miv-store-v1` fsck document.
pub fn store_fsck_document(spec: &StoreSpec, report: &FsckMatrixReport) -> JsonValue {
    let mut doc = document_header(spec, "fsck");
    let mut body = JsonValue::obj();
    body.push("crash_points", report.points);
    body.push("recovered_old", report.recovered_old);
    body.push("recovered_new", report.recovered_new);
    body.push("orphaned_points", report.orphaned_points);
    body.push(
        "torn",
        report
            .torn
            .iter()
            .map(|m| JsonValue::from(m.as_str()))
            .collect::<Vec<_>>(),
    );
    body.push("clean", report.clean());
    doc.push("fsck", body);
    doc
}

/// Renders the bench grid as a text table plus a one-line summary.
#[expect(
    clippy::cast_possible_truncation,
    reason = "latency quantiles are non-negative tick counts, printed as whole ticks"
)]
pub fn render_store_bench(spec: &StoreSpec, outcomes: &[BenchOutcome]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "store bench: seed {}, {} B data, {} ops/cell ({}% writes), commit every {}\n\n",
        spec.seed, spec.data_bytes, spec.ops, spec.write_pct, spec.commit_every
    ));
    let mut table = Table::new(vec![
        "page".into(),
        "cache".into(),
        "hit rate".into(),
        "dev reads".into(),
        "dev writes".into(),
        "commits".into(),
        "p50".into(),
        "p90".into(),
        "p99".into(),
        "mean".into(),
    ]);
    for o in outcomes {
        table.row(vec![
            o.cell.page_bytes.to_string(),
            o.cell.cache_pages.to_string(),
            pct(o.hit_rate()),
            o.stats.device_reads.to_string(),
            o.stats.device_writes.to_string(),
            o.stats.commits.to_string(),
            (o.latency.quantile(0.50) as u64).to_string(),
            (o.latency.quantile(0.90) as u64).to_string(),
            (o.latency.quantile(0.99) as u64).to_string(),
            f2(o.latency.mean()),
        ]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nbench summary: {} cells, every cell fully verified after its stream\n",
        outcomes.len()
    ));
    out
}

/// Renders the soak treadmill report.
pub fn render_soak(spec: &StoreSpec, report: &SoakReport) -> String {
    format!(
        "store soak: seed {}, {} rounds × {} ops, page {} B, cache {} pages\n\
         final generation {}, {} frames replayed, {} pages verified, {} mismatches — {}\n",
        spec.seed,
        report.rounds,
        report.ops,
        spec.page_sizes[0],
        spec.cache_sizes[0],
        report.generation,
        report.replayed_entries,
        report.verified_pages,
        report.mismatches,
        if report.clean() {
            "CLEAN"
        } else {
            "STORE HOLE"
        }
    )
}

/// Renders the crash-point matrix report.
pub fn render_fsck(spec: &StoreSpec, report: &FsckMatrixReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "store fsck: seed {}, crash matrix over a two-commit script ({} B data, {} B pages)\n",
        spec.seed,
        fsck_config(spec).data_bytes,
        spec.page_sizes[0]
    ));
    out.push_str(&format!(
        "{} crash points: {} recovered old state, {} recovered new state, {} discarded orphans, {} torn — {}\n",
        report.points,
        report.recovered_old,
        report.recovered_new,
        report.orphaned_points,
        report.torn.len(),
        if report.clean() { "CLEAN" } else { "TORN STATE" }
    ));
    for msg in &report.torn {
        out.push_str(&format!("  torn: {msg}\n"));
    }
    out
}

/// The default scratch directory for file-backed modes: under the OS
/// temp dir, namespaced by process id so concurrent runs never collide.
/// Never printed into reports — outputs must not depend on it.
pub fn default_store_dir() -> PathBuf {
    std::env::temp_dir().join(format!("miv-store-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_spec(tag: &str) -> (StoreSpec, PathBuf) {
        let mut spec = StoreSpec::quick(7);
        spec.ops = 60;
        spec.soak_rounds = 2;
        let dir = default_store_dir().join(tag);
        (spec, dir)
    }

    #[test]
    fn bench_document_identical_at_any_worker_count() {
        let (spec, dir) = test_spec("bench-det");
        let base = run_store_bench(&spec, &SweepRunner::new(1), &dir).unwrap();
        let base_json = store_bench_document(&spec, &base).render_pretty();
        let base_text = render_store_bench(&spec, &base);
        for jobs in [2, 4] {
            let outcomes = run_store_bench(&spec, &SweepRunner::new(jobs), &dir).unwrap();
            assert_eq!(
                store_bench_document(&spec, &outcomes).render_pretty(),
                base_json
            );
            assert_eq!(render_store_bench(&spec, &outcomes), base_text);
        }
        assert!(base_json.contains("\"schema\": \"miv-store-v1\""));
        assert!(base_json.contains("store.cache.hits"));
        assert!(
            !base_json.contains("miv-store-7"),
            "no host paths in the document"
        );
    }

    #[test]
    fn soak_round_trips_cleanly() {
        let (spec, dir) = test_spec("soak");
        let report = run_soak(&spec, &dir).unwrap();
        assert!(report.clean(), "{report:?}");
        // Create publishes generation 1 and every round commits at
        // least once more (journal pressure may add auto-commits).
        assert!(report.generation > report.rounds as u64);
        // Reopens redo the committed journal prefix idempotently.
        assert!(report.replayed_entries > 0);
        let text = render_soak(&spec, &report);
        assert!(text.contains("CLEAN"));
        assert!(store_soak_document(&spec, &report)
            .render_pretty()
            .contains("\"mode\": \"soak\""));
    }

    #[test]
    fn validate_accepts_quick_and_rejects_degenerate_cache() {
        assert!(StoreSpec::quick(7).validate().is_ok());
        let mut spec = StoreSpec::quick(7);
        spec.cache_sizes = vec![1];
        let err = spec.validate().unwrap_err();
        assert!(err.starts_with("bench"), "{err}");
    }

    #[test]
    fn sha256_store_round_trips() {
        let (mut spec, dir) = test_spec("sha256");
        spec.hash = HashAlgo::Sha256;
        spec.page_sizes = vec![128];
        spec.cache_sizes = vec![8];
        let outcomes = run_store_bench(&spec, &SweepRunner::new(2), &dir).unwrap();
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].verified_pages > 0);
        let json = store_bench_document(&spec, &outcomes).render_pretty();
        assert!(json.contains("\"hash\": \"sha256\""));
    }

    #[test]
    fn fsck_matrix_recovers_both_sides_and_never_tears() {
        let (spec, _) = test_spec("fsck");
        let report = run_fsck(&spec, &SweepRunner::new(4)).unwrap();
        assert!(report.clean(), "{report:?}");
        assert!(report.orphaned_points > 0, "some crash must orphan frames");
        let report_seq = run_fsck(&spec, &SweepRunner::new(1)).unwrap();
        assert_eq!(report, report_seq, "matrix is order-independent");
        assert!(render_fsck(&spec, &report).contains("CLEAN"));
    }
}
