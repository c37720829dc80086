//! Host-time spans for the traced run.
//!
//! Every layer is timed from outside: the workloads wrap calls into a
//! layer's public functions in a span, and the timing wrappers below
//! stand in for the hasher, the block device and the root store where
//! those are reached only from inside another layer. A span's self time
//! is its duration minus the time its child spans cover. Totals are
//! aggregated online per (layer, operation); raw spans are kept only
//! for every 64th request and written out when the run ends.
//!
//! The untraced run pays nothing: workload loops are generic over [`Probe`],
//! and [`Off`] compiles every span away.

use std::cell::RefCell;
use std::io;
use std::time::Instant;

use miv_hash::{ChunkHasher, Digest};
use miv_store::{RootStore, StoreError, StoreMedium, TrustedRoot};

/// The layers host time is split across, named after the modules they
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// miv-trace `TraceGenerator`.
    Trace,
    /// miv-cpu `Core::run`, excluding the memory hierarchy.
    Cpu,
    /// miv-cache L1 `Cache` inside miv-sim `Hierarchy`.
    CacheL1,
    /// miv-sim `System` functional prewarm: the loop and its L1 work (its
    /// L2 work counts as `CoreTiming`).
    SimPrewarm,
    /// miv-core `L2Controller`, with the miv-mem bus and hash-unit
    /// bookings it makes.
    CoreTiming,
    /// miv-core `VerifiedMemory`, with its trusted cache.
    CoreEngine,
    /// miv-hash `ChunkHasher`.
    Hash,
    /// miv-store `BlockStore`, excluding hashing and device calls.
    Store,
    /// miv-store `StoreMedium` (`FileMedium`).
    StoreMedium,
    /// miv-store `RootStore` (`MemRootStore`).
    StoreRoot,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 10] = [
        Layer::Trace,
        Layer::Cpu,
        Layer::CacheL1,
        Layer::SimPrewarm,
        Layer::CoreTiming,
        Layer::CoreEngine,
        Layer::Hash,
        Layer::Store,
        Layer::StoreMedium,
        Layer::StoreRoot,
    ];

    /// The metric-name prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Trace => "trace",
            Layer::Cpu => "cpu",
            Layer::CacheL1 => "cache.l1",
            Layer::SimPrewarm => "sim.prewarm",
            Layer::CoreTiming => "core.timing",
            Layer::CoreEngine => "core.engine",
            Layer::Hash => "hash",
            Layer::Store => "store",
            Layer::StoreMedium => "store.medium",
            Layer::StoreRoot => "store.root",
        }
    }
}

/// The operation a span covers, so a layer's time can be split further
/// (engine read/write/flush, controller access/quiesce, device sync).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// A whole replayed or generated segment (sim layers).
    Segment,
    /// `L2Controller::access`.
    Access,
    /// `L2Controller::quiesce`.
    Quiesce,
    /// An engine or store read.
    Read,
    /// An engine or store write.
    Write,
    /// `VerifiedMemory::flush`.
    Flush,
    /// `BlockStore::commit`.
    Commit,
    /// One `ChunkHasher` call.
    Digest,
    /// `StoreMedium::sync`.
    Sync,
    /// `StoreMedium::len`, `RootStore::load`.
    Query,
    /// `RootStore::save`.
    Save,
}

impl Op {
    const COUNT: usize = 11;

    /// The label written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Op::Segment => "segment",
            Op::Access => "access",
            Op::Quiesce => "quiesce",
            Op::Read => "read",
            Op::Write => "write",
            Op::Flush => "flush",
            Op::Commit => "commit",
            Op::Digest => "digest",
            Op::Sync => "sync",
            Op::Query => "query",
            Op::Save => "save",
        }
    }
}

/// Aggregated time and work for one (layer, operation).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Acc {
    /// Time not covered by child spans, in nanoseconds.
    pub self_ns: u64,
    /// Calls (or, for replayed sim layers, events) handled.
    pub calls: u64,
    /// Bytes handled (hashing and device traffic).
    pub bytes: u64,
}

/// One kept raw span.
#[derive(Debug, Clone, Copy)]
pub struct RawSpan {
    /// Request (or segment) id the span belongs to.
    pub request: u64,
    /// Layer timed.
    pub layer: Layer,
    /// Operation timed.
    pub op: Op,
    /// The enclosing span's layer, if any.
    pub parent: Option<Layer>,
    /// Start, in nanoseconds since tracing began.
    pub start_ns: u64,
    /// End, in nanoseconds since tracing began.
    pub end_ns: u64,
}

/// Raw spans are kept for requests whose id is a multiple of this.
pub const RAW_EVERY: u64 = 64;

struct Frame {
    layer: Layer,
    op: Op,
    start: Instant,
    child_ns: u64,
}

struct State {
    epoch: Instant,
    paused: bool,
    stack: Vec<Frame>,
    acc: [[Acc; Op::COUNT]; 10],
    request: u64,
    keep: bool,
    raw: Vec<RawSpan>,
}

impl State {
    fn new() -> Self {
        State {
            epoch: Instant::now(),
            paused: false,
            stack: Vec::with_capacity(8),
            acc: [[Acc::default(); Op::COUNT]; 10],
            request: 0,
            keep: true,
            raw: Vec::new(),
        }
    }

    fn close(&mut self, end: Instant) {
        let frame = self.stack.pop().expect("span guard without an open span");
        let total = end.duration_since(frame.start).as_nanos() as u64;
        let acc = &mut self.acc[frame.layer as usize][frame.op as usize];
        acc.self_ns += total.saturating_sub(frame.child_ns);
        acc.calls += 1;
        let parent = self.stack.last_mut().map(|p| {
            p.child_ns += total;
            p.layer
        });
        if self.keep {
            let start_ns = frame.start.duration_since(self.epoch).as_nanos() as u64;
            self.raw.push(RawSpan {
                request: self.request,
                layer: frame.layer,
                op: frame.op,
                parent,
                start_ns,
                end_ns: start_ns + total,
            });
        }
    }
}

thread_local! {
    static STATE: RefCell<State> = RefCell::new(State::new());
}

/// Clears every aggregate and raw span and restarts the span clock.
pub fn reset() {
    STATE.with(|s| *s.borrow_mut() = State::new());
}

/// Every non-empty (layer, operation) aggregate so far.
pub fn snapshot() -> Vec<(Layer, Op, Acc)> {
    const OPS: [Op; Op::COUNT] = [
        Op::Segment,
        Op::Access,
        Op::Quiesce,
        Op::Read,
        Op::Write,
        Op::Flush,
        Op::Commit,
        Op::Digest,
        Op::Sync,
        Op::Query,
        Op::Save,
    ];
    STATE.with(|s| {
        let s = s.borrow();
        let mut out = Vec::new();
        for layer in Layer::ALL {
            for op in OPS {
                let acc = s.acc[layer as usize][op as usize];
                if acc != Acc::default() {
                    out.push((layer, op, acc));
                }
            }
        }
        out
    })
}

/// Takes the kept raw spans.
pub fn take_raw() -> Vec<RawSpan> {
    STATE.with(|s| std::mem::take(&mut s.borrow_mut().raw))
}

/// Adds externally measured time and work to a layer (the sim layers,
/// which are timed by replay rather than by spans).
pub fn add(layer: Layer, op: Op, ns: u64, calls: u64) {
    STATE.with(|s| {
        let acc = &mut s.borrow_mut().acc[layer as usize][op as usize];
        acc.self_ns += ns;
        acc.calls += calls;
    });
}

/// Keeps a raw span for an externally timed segment.
pub fn add_raw(span: RawSpan) {
    STATE.with(|s| s.borrow_mut().raw.push(span));
}

/// Nanoseconds since tracing began.
pub fn clock_ns(at: Instant) -> u64 {
    STATE.with(|s| at.duration_since(s.borrow().epoch).as_nanos() as u64)
}

/// Stops (or resumes) collecting: spans opened while paused are not
/// recorded, so untimed work around the traced phase stays out of it.
pub fn pause(paused: bool) {
    STATE.with(|s| s.borrow_mut().paused = paused);
}

fn add_bytes(layer: Layer, op: Op, bytes: u64) {
    STATE.with(|s| {
        let mut s = s.borrow_mut();
        if !s.paused {
            s.acc[layer as usize][op as usize].bytes += bytes;
        }
    });
}

/// Whether spans are collected, chosen at compile time so the untraced
/// run carries no tracing code at all.
pub trait Probe: Copy {
    /// Runs `f` inside a span.
    fn time<R>(self, layer: Layer, op: Op, f: impl FnOnce() -> R) -> R;
    /// Starts request `id`: later spans carry it.
    fn request(self, id: u64);
}

/// No tracing.
#[derive(Debug, Clone, Copy)]
pub struct Off;

impl Probe for Off {
    #[inline(always)]
    fn time<R>(self, _layer: Layer, _op: Op, f: impl FnOnce() -> R) -> R {
        f()
    }

    #[inline(always)]
    fn request(self, _id: u64) {}
}

/// Spans on.
#[derive(Debug, Clone, Copy)]
pub struct On;

impl Probe for On {
    #[inline]
    fn time<R>(self, layer: Layer, op: Op, f: impl FnOnce() -> R) -> R {
        let open = STATE.with(|s| {
            let mut s = s.borrow_mut();
            if !s.paused {
                s.stack.push(Frame {
                    layer,
                    op,
                    start: Instant::now(),
                    child_ns: 0,
                });
            }
            !s.paused
        });
        let out = f();
        if open {
            let end = Instant::now();
            STATE.with(|s| s.borrow_mut().close(end));
        }
        out
    }

    fn request(self, id: u64) {
        STATE.with(|s| {
            let mut s = s.borrow_mut();
            s.request = id;
            s.keep = id.is_multiple_of(RAW_EVERY);
        });
    }
}

/// A [`ChunkHasher`] that times every call as a `hash` span.
#[derive(Debug)]
pub struct TimedHasher(pub Box<dyn ChunkHasher + Send + Sync>);

impl ChunkHasher for TimedHasher {
    fn digest(&self, data: &[u8]) -> Digest {
        add_bytes(Layer::Hash, Op::Digest, data.len() as u64);
        On.time(Layer::Hash, Op::Digest, || self.0.digest(data))
    }

    fn digest_batch(&self, msgs: &[&[u8]]) -> Vec<Digest> {
        let bytes = msgs.iter().map(|m| m.len() as u64).sum();
        add_bytes(Layer::Hash, Op::Digest, bytes);
        On.time(Layer::Hash, Op::Digest, || self.0.digest_batch(msgs))
    }

    fn batch_lanes(&self) -> usize {
        self.0.batch_lanes()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

/// A [`StoreMedium`] that times every call as a `store.medium` span.
#[derive(Debug)]
pub struct TimedMedium<M>(pub M);

impl<M: StoreMedium> StoreMedium for TimedMedium<M> {
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        add_bytes(Layer::StoreMedium, Op::Read, buf.len() as u64);
        On.time(Layer::StoreMedium, Op::Read, || self.0.read_at(offset, buf))
    }

    fn write_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        add_bytes(Layer::StoreMedium, Op::Write, data.len() as u64);
        On.time(Layer::StoreMedium, Op::Write, || {
            self.0.write_at(offset, data)
        })
    }

    fn sync(&mut self) -> io::Result<()> {
        On.time(Layer::StoreMedium, Op::Sync, || self.0.sync())
    }

    fn len(&mut self) -> io::Result<u64> {
        On.time(Layer::StoreMedium, Op::Query, || self.0.len())
    }
}

/// A [`RootStore`] that times every call as a `store.root` span.
#[derive(Debug)]
pub struct TimedRoot<R>(pub R);

impl<R: RootStore> RootStore for TimedRoot<R> {
    fn load(&self) -> Result<TrustedRoot, StoreError> {
        On.time(Layer::StoreRoot, Op::Query, || self.0.load())
    }

    fn save(&mut self, root: &TrustedRoot) -> Result<(), StoreError> {
        On.time(Layer::StoreRoot, Op::Save, || self.0.save(root))
    }
}
