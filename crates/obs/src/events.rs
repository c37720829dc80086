//! Structured event tracing: a bounded ring buffer of typed simulation
//! events with a cheap, enum-gated recording handle.
//!
//! Producers hold an [`EventSink`]; the owner (the simulator harness)
//! holds the [`EventTrace`] and drains it to JSONL at the end of a run.
//! When the ring fills, the oldest events are dropped and counted, so a
//! long run keeps its tail — the part that explains steady-state
//! behaviour — without unbounded memory.

#![expect(
    clippy::disallowed_types,
    reason = "recorders are deliberately non-Send (zero-overhead when disabled); the sweep crosses threads via plain-data EventTraceSnapshot absorb"
)]

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::json::JsonValue;

/// Which kind of line an event concerns (mirrors `miv-cache`'s
/// `LineKind` without depending on it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineClass {
    /// Ordinary program data.
    Data,
    /// Hash-tree (or MAC) metadata.
    Hash,
}

impl LineClass {
    /// Stable lowercase label used in JSON output.
    pub fn label(self) -> &'static str {
        match self {
            LineClass::Data => "data",
            LineClass::Hash => "hash",
        }
    }
}

/// A typed simulation event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimEvent {
    /// The L2 missed on `addr`.
    L2Miss {
        /// Line kind that missed.
        class: LineClass,
        /// Whether the access was a store.
        write: bool,
        /// Byte address of the access.
        addr: u64,
    },
    /// A hash-tree walk began for `chunk`.
    WalkStart {
        /// Chunk index whose ancestors are being fetched.
        chunk: u64,
    },
    /// A hash-tree walk terminated.
    WalkEnd {
        /// Chunk index the walk was for.
        chunk: u64,
        /// Number of tree levels actually fetched from memory.
        depth: u32,
        /// `true` if the walk climbed all the way to the secure root;
        /// `false` if it terminated early at a cached ancestor.
        reached_root: bool,
    },
    /// Work entered the hash-unit queue.
    HashEnqueue {
        /// Bytes to digest.
        bytes: u32,
    },
    /// Work left the hash-unit queue and started digesting.
    HashDequeue {
        /// Cycles spent waiting in the queue.
        wait: u64,
    },
    /// A dirty line was written back to memory.
    WriteBack {
        /// Line kind written back.
        class: LineClass,
        /// Byte address of the line.
        addr: u64,
    },
    /// The checker detected tampering.
    IntegrityViolation {
        /// Byte address implicated by the failed check.
        addr: u64,
        /// Chunk whose verification failed.
        chunk: u64,
        /// Stable label of the scheme that detected the violation.
        scheme: &'static str,
    },
}

impl SimEvent {
    /// Stable snake_case type tag used in JSON output.
    pub fn kind(&self) -> &'static str {
        match self {
            SimEvent::L2Miss { .. } => "l2_miss",
            SimEvent::WalkStart { .. } => "walk_start",
            SimEvent::WalkEnd { .. } => "walk_end",
            SimEvent::HashEnqueue { .. } => "hash_enqueue",
            SimEvent::HashDequeue { .. } => "hash_dequeue",
            SimEvent::WriteBack { .. } => "write_back",
            SimEvent::IntegrityViolation { .. } => "integrity_violation",
        }
    }
}

/// One recorded event with its timestamp (cycle for timing models,
/// operation index for the functional engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventRecord {
    /// When the event happened.
    pub cycle: u64,
    /// What happened.
    pub event: SimEvent,
}

impl EventRecord {
    /// One-line JSON object (JSONL row).
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::obj();
        o.push("cycle", self.cycle);
        o.push("type", self.event.kind());
        match self.event {
            SimEvent::L2Miss { class, write, addr } => {
                o.push("class", class.label());
                o.push("write", write);
                o.push("addr", addr);
            }
            SimEvent::WalkStart { chunk } => {
                o.push("chunk", chunk);
            }
            SimEvent::WalkEnd {
                chunk,
                depth,
                reached_root,
            } => {
                o.push("chunk", chunk);
                o.push("depth", depth);
                o.push("reached_root", reached_root);
            }
            SimEvent::HashEnqueue { bytes } => {
                o.push("bytes", bytes);
            }
            SimEvent::HashDequeue { wait } => {
                o.push("wait", wait);
            }
            SimEvent::WriteBack { class, addr } => {
                o.push("class", class.label());
                o.push("addr", addr);
            }
            SimEvent::IntegrityViolation {
                addr,
                chunk,
                scheme,
            } => {
                o.push("addr", addr);
                o.push("chunk", chunk);
                o.push("scheme", scheme);
            }
        }
        o
    }
}

#[derive(Debug)]
struct Ring {
    capacity: usize,
    buf: VecDeque<EventRecord>,
    recorded: u64,
    dropped: u64,
}

/// Owner handle over a bounded event ring.
#[derive(Debug, Clone)]
pub struct EventTrace {
    ring: Rc<RefCell<Ring>>,
}

impl EventTrace {
    /// A ring holding at most `capacity` events (oldest dropped first).
    pub fn bounded(capacity: usize) -> Self {
        EventTrace {
            ring: Rc::new(RefCell::new(Ring {
                capacity: capacity.max(1),
                buf: VecDeque::new(),
                recorded: 0,
                dropped: 0,
            })),
        }
    }

    /// A recording handle for producers.
    pub fn sink(&self) -> EventSink {
        EventSink(Some(Rc::clone(&self.ring)))
    }

    /// Events currently buffered (oldest first).
    pub fn records(&self) -> Vec<EventRecord> {
        self.ring.borrow().buf.iter().copied().collect()
    }

    /// Total events ever recorded (including dropped ones).
    pub fn recorded(&self) -> u64 {
        self.ring.borrow().recorded
    }

    /// Events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.ring.borrow().dropped
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.ring.borrow().capacity
    }

    /// Clears the buffer and zeroes the recorded/dropped counts.
    pub fn reset(&self) {
        let mut ring = self.ring.borrow_mut();
        ring.buf.clear();
        ring.recorded = 0;
        ring.dropped = 0;
    }

    /// Renders every buffered event as one JSON object per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for record in self.ring.borrow().buf.iter() {
            out.push_str(&record.to_json().render());
            out.push('\n');
        }
        out
    }

    /// Copies out the ring's state as an owned, `Send` value that can
    /// cross a thread boundary (the ring itself is `Rc`-shared and
    /// cannot).
    pub fn snapshot(&self) -> EventTraceSnapshot {
        let ring = self.ring.borrow();
        EventTraceSnapshot {
            records: ring.buf.iter().copied().collect(),
            recorded: ring.recorded,
            dropped: ring.dropped,
        }
    }

    /// Appends another ring's events to this one, oldest first, evicting
    /// this ring's oldest events once full and accumulating the
    /// recorded/dropped totals.
    ///
    /// This is the merge path for parallel sweeps: each worker records
    /// into its own cheap `Rc` ring, snapshots it, and the aggregator
    /// absorbs the snapshots *in run order*. Because an event evicted
    /// from a per-run ring of capacity `C` is more than `C` events from
    /// the end of that run's stream — and therefore could never survive
    /// in a shared ring of the same capacity either — absorbing
    /// equal-capacity per-run rings in run order reproduces, byte for
    /// byte, the ring a single sequential run sharing one `EventTrace`
    /// would have produced.
    pub fn absorb(&self, snap: &EventTraceSnapshot) {
        let mut ring = self.ring.borrow_mut();
        ring.recorded += snap.recorded;
        ring.dropped += snap.dropped;
        for &record in &snap.records {
            if ring.buf.len() == ring.capacity {
                ring.buf.pop_front();
                ring.dropped += 1;
            }
            ring.buf.push_back(record);
        }
    }
}

/// An owned, thread-transferable copy of an [`EventTrace`]'s state,
/// produced by [`EventTrace::snapshot`] and consumed by
/// [`EventTrace::absorb`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventTraceSnapshot {
    /// Buffered events, oldest first.
    pub records: Vec<EventRecord>,
    /// Total events ever recorded into the source ring.
    pub recorded: u64,
    /// Events the source ring evicted because it was full.
    pub dropped: u64,
}

/// Producer handle. `Default` is disabled: recording is a single branch.
#[derive(Debug, Clone, Default)]
pub struct EventSink(Option<Rc<RefCell<Ring>>>);

impl EventSink {
    /// A no-op sink.
    pub const fn disabled() -> Self {
        EventSink(None)
    }

    /// Whether events are actually being captured.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records an event at `cycle`.
    #[inline]
    pub fn record(&self, cycle: u64, event: SimEvent) {
        if let Some(ring) = &self.0 {
            let mut ring = ring.borrow_mut();
            ring.recorded += 1;
            if ring.buf.len() == ring.capacity {
                ring.buf.pop_front();
                ring.dropped += 1;
            }
            ring.buf.push_back(EventRecord { cycle, event });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    #[test]
    fn disabled_sink_is_inert() {
        let sink = EventSink::disabled();
        sink.record(1, SimEvent::WalkStart { chunk: 0 });
        assert!(!sink.is_enabled());
    }

    #[test]
    fn ring_drops_oldest() {
        let trace = EventTrace::bounded(2);
        let sink = trace.sink();
        for i in 0..5 {
            sink.record(i, SimEvent::HashDequeue { wait: i });
        }
        assert_eq!(trace.recorded(), 5);
        assert_eq!(trace.dropped(), 3);
        let records: Vec<u64> = trace.records().iter().map(|r| r.cycle).collect();
        assert_eq!(records, vec![3, 4]);
    }

    #[test]
    fn jsonl_rows_parse() {
        let trace = EventTrace::bounded(16);
        let sink = trace.sink();
        sink.record(
            7,
            SimEvent::L2Miss {
                class: LineClass::Hash,
                write: true,
                addr: 0x40,
            },
        );
        sink.record(
            9,
            SimEvent::WalkEnd {
                chunk: 3,
                depth: 2,
                reached_root: false,
            },
        );
        let jsonl = trace.to_jsonl();
        let rows: Vec<&str> = jsonl.lines().collect();
        assert_eq!(rows.len(), 2);
        let first = JsonValue::parse(rows[0]).unwrap();
        assert_eq!(first.get("type").unwrap().as_str(), Some("l2_miss"));
        assert_eq!(first.get("class").unwrap().as_str(), Some("hash"));
        assert_eq!(first.get("cycle").unwrap().as_u64(), Some(7));
        let second = JsonValue::parse(rows[1]).unwrap();
        assert_eq!(second.get("depth").unwrap().as_u64(), Some(2));
    }

    #[test]
    fn absorb_in_order_matches_shared_ring() {
        // Three "runs" of very different lengths, recorded (a) into one
        // shared ring sequentially and (b) into per-run rings that are
        // then absorbed in run order. Same capacity everywhere — the
        // final ring contents and counts must match exactly.
        let runs: [&[u64]; 3] = [&[1, 2, 3, 4, 5, 6, 7, 8, 9], &[10], &[11, 12]];
        let shared = EventTrace::bounded(4);
        for run in runs {
            let sink = shared.sink();
            for &c in run {
                sink.record(c, SimEvent::WalkStart { chunk: c });
            }
        }
        let merged = EventTrace::bounded(4);
        for run in runs {
            let per_run = EventTrace::bounded(4);
            let sink = per_run.sink();
            for &c in run {
                sink.record(c, SimEvent::WalkStart { chunk: c });
            }
            merged.absorb(&per_run.snapshot());
        }
        assert_eq!(merged.records(), shared.records());
        assert_eq!(merged.recorded(), shared.recorded());
        assert_eq!(merged.dropped(), shared.dropped());
        assert_eq!(merged.to_jsonl(), shared.to_jsonl());
    }

    #[test]
    fn snapshot_round_trips() {
        let trace = EventTrace::bounded(2);
        let sink = trace.sink();
        for i in 0..3 {
            sink.record(i, SimEvent::HashEnqueue { bytes: 64 });
        }
        let snap = trace.snapshot();
        assert_eq!(snap.recorded, 3);
        assert_eq!(snap.dropped, 1);
        assert_eq!(snap.records.len(), 2);
        let copy = EventTrace::bounded(2);
        copy.absorb(&snap);
        assert_eq!(copy.records(), trace.records());
        assert_eq!(copy.recorded(), 3);
        assert_eq!(copy.dropped(), 1);
    }

    #[test]
    fn reset_clears_counts() {
        let trace = EventTrace::bounded(4);
        trace.sink().record(1, SimEvent::WalkStart { chunk: 1 });
        trace.reset();
        assert_eq!(trace.recorded(), 0);
        assert!(trace.records().is_empty());
    }
}
