//! The `store-commit` workload: one client of a file-backed
//! `BlockStore` issuing small reads and writes at random offsets, with
//! a commit after every 128 calls. It is a closed loop: each call
//! returns before the next is issued.
//!
//! This is the only workload that reaches the page cache, the journal,
//! the device and the root store. The medium is a real file, read and
//! written with the repository's `FileMedium`, but its syncs are not
//! passed to the disk (see [`Unsynced`]); the trusted root is the
//! in-memory `MemRootStore`, the model of on-chip NVRAM, because
//! rewriting a root file per commit stalls for milliseconds at random
//! on a shared disk. An op is a read or write call; a commit is a
//! barrier (and also counts as an op).

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use miv_hash::{ChunkHasher, HashAlgo};
use miv_obs::Rng;
use miv_store::{
    BlockStore, FileMedium, MemMedium, MemRootStore, RootStore, StoreConfig, StoreError,
    StoreMedium,
};

use crate::harness::{
    peak_rss_mb, ratio, repeated_setup, scaled, Check, Digester, Opts, Outcome, Samples, Traced,
};
use crate::tracer::{self, Layer, Off, On, Op, Probe, TimedHasher, TimedMedium, TimedRoot};

const CONFIG: StoreConfig = StoreConfig {
    data_bytes: 1 << 20,
    page_bytes: 256,
    cache_pages: 48,
    journal_slots: 0,
};
const COMMIT_EVERY: u64 = 128;
const WRITE_PCT: u64 = 60;
const MIN_LEN: u64 = 16;
const MAX_LEN: u64 = 128;

/// A directory for the store's files inside the build directory,
/// removed when dropped.
struct Scratch {
    dir: PathBuf,
    images: Cell<u32>,
}

impl Scratch {
    fn new(tag: &str) -> std::io::Result<Scratch> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let base = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = base.join(format!("perfbench-store-{}-{n}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch {
            dir,
            images: Cell::new(0),
        })
    }

    /// A fresh, empty image file and its path. Every store gets a new
    /// file: truncating one that was just written waits on the disk.
    fn image(&self) -> Result<(Unsynced, PathBuf), StoreError> {
        let k = self.images.get();
        self.images.set(k + 1);
        let path = self.dir.join(format!("store-{k}.img"));
        Ok((Unsynced(FileMedium::create(&path)?), path))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A file medium whose `sync` is counted by the store but not passed
/// to the disk: on a shared virtual disk an fsync's latency varies a
/// hundredfold between runs, which would drown any change to the
/// store's own code.
#[derive(Debug)]
struct Unsynced(FileMedium);

impl StoreMedium for Unsynced {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> std::io::Result<()> {
        self.0.read_at(offset, buf)
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> std::io::Result<()> {
        self.0.write_at(offset, data)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    fn len(&mut self) -> std::io::Result<u64> {
        self.0.len()
    }
}

fn hasher(traced: bool) -> Box<dyn ChunkHasher> {
    if traced {
        Box::new(TimedHasher(HashAlgo::Md5.hasher()))
    } else {
        HashAlgo::Md5.hasher()
    }
}

/// What the op loop saw.
#[derive(Debug, Default)]
struct Driven {
    wall_s: f64,
    ops: u64,
    reads: u64,
    writes: u64,
    wrong: u64,
    op: Samples,
    barrier: Samples,
}

/// Issues `ops` calls against `store`, mirroring every write into
/// `model` and checking every read against it.
fn drive<M: StoreMedium, R: RootStore, P: Probe>(
    store: &mut BlockStore<M, R>,
    model: &mut [u8],
    seed: u64,
    ops: u64,
    p: P,
) -> Driven {
    let mut rng = Rng::seed_from_u64(seed ^ 0x5707_E000);
    let mut buf = vec![0u8; MAX_LEN as usize];
    let mut d = Driven {
        op: Samples::new(1e-3),
        barrier: Samples::new(1e-3),
        ..Driven::default()
    };
    let start = Instant::now();
    let mut last = start;
    for i in 0..ops {
        p.request(i);
        let len = rng.gen_range_u64(MIN_LEN, MAX_LEN + 1);
        let addr = rng.gen_range_u64(0, CONFIG.data_bytes - len + 1);
        let (lo, hi) = (addr as usize, (addr + len) as usize);
        let ok = if rng.gen_range_u64(0, 100) < WRITE_PCT {
            let data = &mut buf[..len as usize];
            rng.fill_bytes(data);
            model[lo..hi].copy_from_slice(data);
            d.writes += 1;
            p.time(Layer::Store, Op::Write, || store.write(addr, data))
                .is_ok()
        } else {
            d.reads += 1;
            let got = p.time(Layer::Store, Op::Read, || {
                store.read_vec(addr, len as usize)
            });
            got.is_ok_and(|got| got == model[lo..hi])
        };
        d.wrong += u64::from(!ok);
        d.op.lap(&mut last);
        if (i + 1) % COMMIT_EVERY == 0 {
            d.wrong += u64::from(p.time(Layer::Store, Op::Commit, || store.commit()).is_err());
            d.barrier.lap(&mut last);
        }
    }
    d.wall_s = (last - start).as_secs_f64();
    d.ops = ops + d.barrier.len();
    d
}

fn op_count(opts: &Opts) -> u64 {
    scaled(opts, 1_200_000, 1_000)
}

/// A fixed-seed in-memory store run: the digest of its trusted root.
pub fn canary() -> String {
    let roots = MemRootStore::new();
    let mut store = BlockStore::create(MemMedium::new(), roots.clone(), CONFIG, hasher(false))
        .expect("canary store builds");
    let mut model = vec![0u8; CONFIG.data_bytes as usize];
    let d = drive(&mut store, &mut model, 42, 2_000, Off);
    store.commit().expect("canary commit");
    root_digest(&roots, d.wrong)
}

fn root_digest(roots: &MemRootStore, wrong: u64) -> String {
    let mut digest = Digester::new();
    digest.bytes(&roots.load().map(|r| r.to_bytes()).unwrap_or_default());
    digest.u64(wrong);
    digest.finish()
}

/// Reopens the store from its image and trusted root, audits every page
/// against the root and compares all data with the model.
fn reopen_and_audit(image: &Path, roots: MemRootStore, model: &[u8]) -> Vec<Check> {
    let reopened = FileMedium::open(image)
        .map_err(StoreError::from)
        .and_then(|m| BlockStore::open(m, roots, hasher(false), CONFIG.cache_pages));
    let (mut store, report) = match reopened {
        Ok(s) => s,
        Err(e) => return vec![Check::new("reopen", false, e.to_string())],
    };
    let mut checks = vec![Check::new("reopen", true, format!("{report:?}"))];
    checks.push(match store.verify_all() {
        Ok(pages) => Check::new("verify_all after reopen", true, format!("{pages} pages")),
        Err(e) => Check::new("verify_all after reopen", false, e.to_string()),
    });
    let chunk = 4096;
    let equal = (0..CONFIG.data_bytes).step_by(chunk).all(|at| {
        let lo = at as usize;
        store
            .read_vec(at, chunk)
            .is_ok_and(|got| got == model[lo..lo + chunk])
    });
    checks.push(Check::new("reopened data matches model", equal, ""));
    checks
}

/// Runs the store workload.
pub fn run(opts: &Opts) -> Outcome {
    let mut out = Outcome::default();
    let scratch = match Scratch::new("run") {
        Ok(s) => s,
        Err(e) => {
            out.checks
                .push(Check::new("scratch directory", false, e.to_string()));
            return out;
        }
    };
    let roots = MemRootStore::new();
    let (store, setup_s) = repeated_setup(opts.setup_reps(), || {
        let (medium, path) = scratch.image()?;
        BlockStore::create(medium, roots.clone(), CONFIG, hasher(false)).map(|s| (s, path))
    });
    out.setup_s = setup_s;
    let (mut store, path) = match store {
        Ok(s) => s,
        Err(e) => {
            out.checks.push(Check::new("create", false, e.to_string()));
            return out;
        }
    };
    let mut model = vec![0u8; CONFIG.data_bytes as usize];
    let d = drive(&mut store, &mut model, opts.seed, op_count(opts), Off);
    out.peak_rss_mb = peak_rss_mb();
    let last_commit = store.commit();
    out.checks.push(Check::new(
        "final commit",
        last_commit.is_ok(),
        format!("{last_commit:?}"),
    ));
    let stats = store.stats();
    drop(store);

    out.wall_s = d.wall_s;
    out.ops = d.ops;
    out.failed_ops = d.wrong;
    out.digest = root_digest(&roots, d.wrong);
    out.op = d.op;
    out.barrier = d.barrier;
    for (name, v) in [
        ("reads", d.reads),
        ("writes", d.writes),
        ("commits", stats.commits),
        ("auto_commits", stats.auto_commits),
        ("device_reads", stats.device_reads),
        ("device_writes", stats.device_writes),
        ("syncs", stats.syncs),
        ("cache_hits", stats.cache_hits),
        ("cache_misses", stats.cache_misses),
        ("pages_hashed", stats.pages_hashed),
        ("journal_appends", stats.journal_appends),
    ] {
        out.counts.insert(name.into(), v);
    }

    out.checks.extend(reopen_and_audit(&path, roots, &model));
    out.checks
        .push(opts.pins.check_canary(opts.workload, &canary()));
    if let Some(check) = opts.pins.check_full(opts, &out.digest) {
        out.checks.push(check);
    }
    if opts.traced {
        out.traced = Some(trace(opts, &scratch, &mut out.checks));
    }
    out
}

/// The traced phase: the same calls against a fresh store whose hasher,
/// medium and root store are timing wrappers.
fn trace(opts: &Opts, scratch: &Scratch, checks: &mut Vec<Check>) -> Traced {
    let created = scratch.image().and_then(|(m, _)| {
        BlockStore::create(
            TimedMedium(m),
            TimedRoot(MemRootStore::new()),
            CONFIG,
            hasher(true),
        )
    });
    let mut store = match created {
        Ok(s) => s,
        Err(e) => {
            checks.push(Check::new("traced create", false, e.to_string()));
            return Traced::default();
        }
    };
    let mut model = vec![0u8; CONFIG.data_bytes as usize];
    tracer::reset();
    let d = drive(&mut store, &mut model, opts.seed, op_count(opts), On);
    checks.push(Check::equal("traced run wrong results", d.wrong, 0));
    let stats = store.stats();
    let lookups = stats.cache_hits + stats.cache_misses;
    let mut traced = Traced {
        wall_s: d.wall_s,
        ..Traced::default()
    };
    let x = &mut traced.extras;
    x.insert("store.cache_hit_ratio", ratio(stats.cache_hits, lookups));
    x.insert("store.pages_hashed", stats.pages_hashed as f64);
    x.insert("store.journal_appends", stats.journal_appends as f64);
    traced
}
