//! Metrics registry: named counters, gauges and log2-bucketed histograms.
//!
//! The simulator is single-threaded, so handles are `Rc<Cell<..>>` shared
//! with the registry — recording is a cell write, never a map lookup.
//! A *disabled* handle holds `None`; every operation on it is a single
//! branch and touches no memory, which keeps instrumented hot paths free
//! when telemetry is off (verified by `miv-bench`'s `obs_overhead`
//! comparison and an allocation-counting test).

#![expect(
    clippy::disallowed_types,
    reason = "recorders are deliberately non-Send (zero-overhead when disabled); the sweep crosses threads via plain-data TelemetrySnapshot absorb"
)]

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use crate::json::JsonValue;

/// A monotonic counter handle. Cheap to clone; `Default` is disabled.
#[derive(Debug, Clone, Default)]
pub struct Counter(Option<Rc<Cell<u64>>>);

impl Counter {
    /// A no-op handle: `inc`/`add` are single branches.
    pub const fn disabled() -> Self {
        Counter(None)
    }

    /// Increments by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increments by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(cell) = &self.0 {
            cell.set(cell.get().wrapping_add(n));
        }
    }

    /// The current value (0 when disabled).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.get())
    }

    /// Whether the handle is wired to a registry.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

/// A gauge handle holding the latest value of a measurement.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Option<Rc<Cell<f64>>>);

impl Gauge {
    /// A no-op handle.
    pub const fn disabled() -> Self {
        Gauge(None)
    }

    /// Replaces the current value.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(cell) = &self.0 {
            cell.set(v);
        }
    }

    /// The current value (0 when disabled).
    pub fn get(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |c| c.get())
    }
}

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i` holds
/// values in `[2^(i-1), 2^i)`, up to `u64::MAX` in bucket 64.
const BUCKETS: usize = 65;

#[derive(Debug, Clone)]
pub(crate) struct HistInner {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; BUCKETS],
}

impl HistInner {
    fn new() -> Self {
        HistInner {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Folds a snapshot's distribution into this live histogram.
    fn absorb(&mut self, snap: &HistogramSnapshot) {
        if snap.count == 0 {
            return;
        }
        self.count += snap.count;
        self.sum = self.sum.saturating_add(snap.sum);
        self.min = self.min.min(snap.min);
        self.max = self.max.max(snap.max);
        for &(i, n) in &snap.buckets {
            self.buckets[i as usize] += n;
        }
    }
}

#[inline]
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive value range covered by a bucket. The top bucket (64) is
/// saturated: it covers `[2^63, u64::MAX]` — note `saturating_mul(2)`
/// on `2^63` already yields `u64::MAX`, so subtracting 1 afterwards
/// would wrongly exclude `u64::MAX` from its own bucket.
fn bucket_bounds(i: usize) -> (u64, u64) {
    if i == 0 {
        (0, 0)
    } else if i >= BUCKETS - 1 {
        (1u64 << 63, u64::MAX)
    } else {
        (1u64 << (i - 1), (1u64 << i) - 1)
    }
}

/// A histogram handle recording a distribution in log2 buckets.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Option<Rc<RefCell<HistInner>>>);

impl Histogram {
    /// A no-op handle.
    pub const fn disabled() -> Self {
        Histogram(None)
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().record(v);
        }
    }

    /// Folds a snapshot's distribution into this histogram (no-op when
    /// disabled).
    fn absorb(&self, snap: &HistogramSnapshot) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().absorb(snap);
        }
    }

    /// Snapshot of the current distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        match &self.0 {
            Some(inner) => HistogramSnapshot::from_inner(&inner.borrow()),
            None => HistogramSnapshot::default(),
        }
    }
}

/// An immutable copy of a histogram's state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
    /// Smallest observation (0 when empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Occupied log2 buckets as `(bucket_index, count)` pairs.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    fn from_inner(inner: &HistInner) -> Self {
        HistogramSnapshot {
            count: inner.count,
            sum: inner.sum,
            min: if inner.count == 0 { 0 } else { inner.min },
            max: inner.max,
            buckets: inner
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| (i as u32, n))
                .collect(),
        }
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `p`-quantile (`p` in `[0, 1]`) by linear
    /// interpolation inside the containing log2 bucket, clamped to the
    /// observed `[min, max]`.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (p.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            if seen + n >= rank {
                let (lo, hi) = bucket_bounds(i as usize);
                let frac = (rank - seen) as f64 / n as f64;
                let est = lo as f64 + (hi - lo) as f64 * frac;
                return est.clamp(self.min as f64, self.max as f64);
            }
            seen += n;
        }
        self.max as f64
    }

    /// Merges another snapshot into this one (bucket-wise sum).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let mut merged: BTreeMap<u32, u64> = self.buckets.iter().copied().collect();
        for &(i, n) in &other.buckets {
            *merged.entry(i).or_insert(0) += n;
        }
        self.buckets = merged.into_iter().collect();
    }

    /// JSON form: count/sum/min/max/mean/p50/p90/p99 plus raw buckets.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::obj();
        o.push("count", self.count);
        o.push("sum", self.sum);
        o.push("min", self.min);
        o.push("max", self.max);
        o.push("mean", self.mean());
        o.push("p50", self.quantile(0.50));
        o.push("p90", self.quantile(0.90));
        o.push("p99", self.quantile(0.99));
        o.push(
            "buckets",
            self.buckets
                .iter()
                .map(|&(i, n)| JsonValue::Array(vec![i.into(), n.into()]))
                .collect::<Vec<_>>(),
        );
        o
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Rc<Cell<u64>>>,
    gauges: BTreeMap<String, Rc<Cell<f64>>>,
    histograms: BTreeMap<String, Rc<RefCell<HistInner>>>,
}

/// A registry of named metrics. Clones share the same underlying store.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    inner: Rc<RefCell<RegistryInner>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns (creating if needed) the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.borrow_mut();
        let cell = inner.counters.entry(name.to_string()).or_default();
        Counter(Some(Rc::clone(cell)))
    }

    /// Returns (creating if needed) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.borrow_mut();
        let cell = inner.gauges.entry(name.to_string()).or_default();
        Gauge(Some(Rc::clone(cell)))
    }

    /// Returns (creating if needed) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut inner = self.inner.borrow_mut();
        let cell = inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Rc::new(RefCell::new(HistInner::new())));
        Histogram(Some(Rc::clone(cell)))
    }

    /// Copies out every metric's current value.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.borrow();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), HistogramSnapshot::from_inner(&v.borrow())))
                .collect(),
        }
    }

    /// Accumulates a snapshot into this registry's live metrics:
    /// counters add, gauges take the snapshot's (latest-wins) value, and
    /// histograms merge bucket-wise. Missing metrics are created;
    /// outstanding handles stay valid.
    ///
    /// This is the merge path for parallel sweeps: each worker records
    /// into its own cheap `Rc`-shared registry, snapshots it (a
    /// [`MetricsSnapshot`] is plain owned data and crosses threads
    /// freely), and the aggregator absorbs the snapshots in run order.
    /// Counter and histogram aggregation are order-independent; gauges
    /// are latest-wins, so absorbing in a fixed (request) order keeps
    /// the merged document deterministic at any worker count.
    pub fn absorb(&self, snap: &MetricsSnapshot) {
        for (name, v) in &snap.counters {
            self.counter(name).add(*v);
        }
        for (name, v) in &snap.gauges {
            self.gauge(name).set(*v);
        }
        for (name, h) in &snap.histograms {
            self.histogram(name).absorb(h);
        }
    }

    /// Zeroes every metric without invalidating outstanding handles.
    pub fn reset(&self) {
        let inner = self.inner.borrow();
        for cell in inner.counters.values() {
            cell.set(0);
        }
        for cell in inner.gauges.values() {
            cell.set(0.0);
        }
        for cell in inner.histograms.values() {
            *cell.borrow_mut() = HistInner::new();
        }
    }
}

/// A point-in-time copy of a registry's metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Accumulates `other` into `self`: counters and histogram buckets
    /// add; gauges take `other`'s (latest-wins) value.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            self.gauges.insert(name.clone(), *v);
        }
        for (name, h) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(h);
        }
    }

    /// JSON form: `{"counters": {...}, "gauges": {...}, "histograms": {...}}`.
    pub fn to_json(&self) -> JsonValue {
        let mut counters = JsonValue::obj();
        for (name, v) in &self.counters {
            counters.push(name, *v);
        }
        let mut gauges = JsonValue::obj();
        for (name, v) in &self.gauges {
            gauges.push(name, *v);
        }
        let mut histograms = JsonValue::obj();
        for (name, h) in &self.histograms {
            histograms.push(name, h.to_json());
        }
        let mut o = JsonValue::obj();
        o.push("counters", counters);
        o.push("gauges", gauges);
        o.push("histograms", histograms);
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let c = Counter::disabled();
        c.inc();
        c.add(10);
        assert_eq!(c.get(), 0);
        assert!(!c.is_enabled());
        let g = Gauge::disabled();
        g.set(3.5);
        assert_eq!(g.get(), 0.0);
        let h = Histogram::disabled();
        h.record(7);
        assert_eq!(h.snapshot().count, 0);
    }

    #[test]
    fn registry_shares_handles_by_name() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(reg.snapshot().counters["x"], 3);
    }

    #[test]
    fn reset_keeps_handles_live() {
        let reg = Registry::new();
        let c = reg.counter("c");
        let h = reg.histogram("h");
        c.add(5);
        h.record(9);
        reg.reset();
        assert_eq!(c.get(), 0);
        c.inc();
        h.record(2);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["c"], 1);
        assert_eq!(snap.histograms["h"].count, 1);
    }

    #[test]
    fn bucket_index_bounds() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every bucket's bounds — including the saturated top bucket —
        // must map back to the same bucket index.
        for i in 1..=64 {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(bucket_index(lo), i);
            assert_eq!(bucket_index(hi), i);
        }
        assert_eq!(bucket_bounds(64), (1u64 << 63, u64::MAX));
    }

    #[test]
    fn singleton_histogram_quantiles_are_exact() {
        // One observation: every quantile must return exactly that value
        // (the [min, max] clamp pins the in-bucket interpolation).
        for v in [0u64, 1, 2, 3, 64, 1000, u64::MAX] {
            let reg = Registry::new();
            let h = reg.histogram("one");
            h.record(v);
            let snap = h.snapshot();
            for p in [0.0, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(snap.quantile(p), v as f64, "v={v} p={p}");
            }
        }
    }

    #[test]
    fn all_in_one_bucket_quantiles_stay_in_observed_range() {
        // Many identical observations deep inside one bucket: the
        // estimate must not leak past the observed min/max even though
        // the bucket spans [64, 127].
        let reg = Registry::new();
        let h = reg.histogram("same");
        for _ in 0..1000 {
            h.record(100);
        }
        let snap = h.snapshot();
        for p in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(snap.quantile(p), 100.0, "p={p}");
        }
        // Mixed values in the same bucket: estimates stay inside
        // [min, max] and are monotone in p.
        let reg = Registry::new();
        let h = reg.histogram("mixed");
        for v in [64u64, 80, 127, 127] {
            h.record(v);
        }
        let snap = h.snapshot();
        let (p50, p99) = (snap.quantile(0.5), snap.quantile(0.99));
        assert!((64.0..=127.0).contains(&p50), "p50 {p50}");
        assert!((64.0..=127.0).contains(&p99), "p99 {p99}");
        assert!(p50 <= p99);
    }

    #[test]
    fn saturated_top_bucket_quantiles() {
        // Values in bucket 64 ([2^63, u64::MAX]): before the bounds fix
        // the bucket's upper bound excluded u64::MAX itself.
        let reg = Registry::new();
        let h = reg.histogram("top");
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(1u64 << 63);
        let snap = h.snapshot();
        assert_eq!(snap.min, 1u64 << 63);
        assert_eq!(snap.max, u64::MAX);
        let p99 = snap.quantile(0.99);
        assert_eq!(p99, u64::MAX as f64, "p99 must reach the top value");
        assert!(snap.quantile(0.0) >= (1u64 << 63) as f64);
    }

    #[test]
    fn quantiles_are_order_of_magnitude_correct() {
        let reg = Registry::new();
        let h = reg.histogram("lat");
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 1000);
        let p50 = snap.quantile(0.5);
        let p99 = snap.quantile(0.99);
        // Log2 buckets give coarse estimates; require the right ballpark.
        assert!((256.0..=1000.0).contains(&p50), "p50 {p50}");
        assert!(p99 > p50, "p99 {p99} <= p50 {p50}");
        assert!((400.0..=1001.0).contains(&p99), "p99 {p99}");
        assert_eq!(snap.mean(), 500.5);
    }

    #[test]
    fn snapshot_merge_matches_uninterrupted() {
        let run = |vals: &[u64]| {
            let reg = Registry::new();
            let c = reg.counter("n");
            let h = reg.histogram("v");
            for &v in vals {
                c.inc();
                h.record(v);
            }
            reg.snapshot()
        };
        let all = [3u64, 0, 17, 9, 1024, 8, 8, 2];
        let whole = run(&all);
        let mut merged = run(&all[..3]);
        merged.merge(&run(&all[3..]));
        assert_eq!(merged, whole);
    }

    #[test]
    fn absorb_matches_recording_directly() {
        // Recording into two registries and absorbing the second's
        // snapshot must be indistinguishable from recording everything
        // into one registry.
        let record = |reg: &Registry, vals: &[u64], gauge: f64| {
            let c = reg.counter("ops");
            let h = reg.histogram("lat");
            for &v in vals {
                c.inc();
                h.record(v);
            }
            reg.gauge("level").set(gauge);
        };
        let whole = Registry::new();
        record(&whole, &[3, 0, 1024, 9], 0.25);
        record(&whole, &[7, 7, 2], 0.75);

        let main = Registry::new();
        record(&main, &[3, 0, 1024, 9], 0.25);
        let worker = Registry::new();
        record(&worker, &[7, 7, 2], 0.75);
        main.absorb(&worker.snapshot());
        assert_eq!(main.snapshot(), whole.snapshot());
        // Absorb creates missing metrics without touching live handles.
        let other = Registry::new();
        other.counter("extra").add(2);
        main.absorb(&other.snapshot());
        assert_eq!(main.snapshot().counters["extra"], 2);
    }

    #[test]
    fn histogram_json_shape() {
        let reg = Registry::new();
        let h = reg.histogram("x");
        h.record(5);
        h.record(64);
        let j = h.snapshot().to_json();
        assert_eq!(j.get("count").unwrap().as_u64(), Some(2));
        assert_eq!(j.get("sum").unwrap().as_u64(), Some(69));
        assert!(j.get("p50").unwrap().as_f64().is_some());
        assert_eq!(j.get("buckets").unwrap().as_array().unwrap().len(), 2);
    }
}
