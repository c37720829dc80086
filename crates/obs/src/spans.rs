//! Hierarchical cycle-attribution spans.
//!
//! A [`SpanTracer`] owns a tree of named spans and a current-position
//! stack. Simulation code opens a span with the RAII guard form
//! ([`SpanTracer::span`]) and attributes *simulated cycles* — never
//! wall-clock time — to the innermost open span with
//! [`SpanTracer::attribute`]. Resource-occupancy accounting that is not
//! nested under the current access (hash-unit busy windows, bus
//! transfers) goes through [`SpanTracer::attribute_path`], which
//! addresses a leaf by absolute path without touching the stack.
//!
//! Like the PR-1 metric recorders, a disabled tracer holds `None`: every
//! operation is a single branch that allocates nothing, so span calls
//! can live permanently in the verification hot path. And like
//! [`Registry::absorb`](crate::Registry::absorb), the tracer never
//! crosses threads itself — workers return a plain-data
//! [`ProfileSnapshot`] which the aggregator folds in request order, so
//! merged profiles are byte-identical at any `--jobs` count.

#![expect(
    clippy::disallowed_types,
    reason = "span tracers are deliberately non-Send like the metric recorders; parallel sweeps cross threads via plain-data ProfileSnapshot merge"
)]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::json::JsonValue;

/// One node in the span tree: a name, its attributed self-cycles, and
/// how many times it was entered (or directly attributed via path).
#[derive(Debug)]
struct SpanNode {
    name: String,
    children: Vec<usize>,
    cycles: u64,
    count: u64,
}

#[derive(Debug)]
struct TracerInner {
    /// Arena of nodes; index 0 is the unnamed root sentinel.
    nodes: Vec<SpanNode>,
    /// Indices of currently open spans, innermost last.
    stack: Vec<usize>,
}

impl TracerInner {
    fn new() -> Self {
        TracerInner {
            nodes: vec![SpanNode {
                name: String::new(),
                children: Vec::new(),
                cycles: 0,
                count: 0,
            }],
            stack: Vec::new(),
        }
    }

    /// Finds or creates the child of `parent` named `name`.
    fn child(&mut self, parent: usize, name: &str) -> usize {
        if let Some(&idx) = self.nodes[parent]
            .children
            .iter()
            .find(|&&c| self.nodes[c].name == name)
        {
            return idx;
        }
        let idx = self.nodes.len();
        self.nodes.push(SpanNode {
            name: name.to_string(),
            children: Vec::new(),
            cycles: 0,
            count: 0,
        });
        self.nodes[parent].children.push(idx);
        idx
    }

    fn enter(&mut self, name: &str) {
        let parent = self.stack.last().copied().unwrap_or(0);
        let idx = self.child(parent, name);
        self.nodes[idx].count += 1;
        self.stack.push(idx);
    }

    fn exit(&mut self) {
        self.stack.pop();
    }

    fn attribute(&mut self, cycles: u64) {
        let idx = match self.stack.last().copied() {
            Some(idx) => idx,
            // Attribution outside any open span is kept visible rather
            // than dropped: it lands under a sentinel leaf.
            None => self.child(0, "(unattributed)"),
        };
        self.nodes[idx].cycles += cycles;
    }

    fn add_path(&mut self, path: &[&str], cycles: u64, count: u64) {
        let mut idx = 0;
        for name in path {
            idx = self.child(idx, name);
        }
        if idx != 0 {
            self.nodes[idx].cycles += cycles;
            self.nodes[idx].count += count;
        }
    }

    fn collect(&self, idx: usize, path: &mut Vec<String>, out: &mut Vec<SpanSnapshot>) {
        for &c in &self.nodes[idx].children {
            let node = &self.nodes[c];
            path.push(node.name.clone());
            if node.cycles > 0 || node.count > 0 {
                out.push(SpanSnapshot {
                    path: path.clone(),
                    cycles: node.cycles,
                    count: node.count,
                });
            }
            self.collect(c, path, out);
            path.pop();
        }
    }
}

/// A handle to a span tree. Cheap to clone (clones share the tree);
/// `Default` is disabled, exactly like [`Counter`](crate::Counter).
#[derive(Debug, Clone, Default)]
pub struct SpanTracer(Option<Rc<RefCell<TracerInner>>>);

impl SpanTracer {
    /// A no-op tracer: every operation is a single branch, zero
    /// allocations (asserted by `miv-bench`'s counting-allocator test).
    pub const fn disabled() -> Self {
        SpanTracer(None)
    }

    /// A live tracer with an empty span tree.
    pub fn enabled() -> Self {
        SpanTracer(Some(Rc::new(RefCell::new(TracerInner::new()))))
    }

    /// Whether the tracer records anything.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Opens a child span of the innermost open span and returns a guard
    /// that closes it on drop. This is the only way to open a span: a
    /// manual enter/exit pair would silently corrupt the whole tree if
    /// one side were missed on an early return or `?`.
    #[inline]
    #[must_use = "dropping the guard closes the span immediately"]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().enter(name);
            SpanGuard(Some(Rc::clone(inner)))
        } else {
            SpanGuard(None)
        }
    }

    /// Attributes `cycles` simulated cycles to the innermost open span.
    /// With no span open, the cycles land under an `(unattributed)`
    /// sentinel leaf so conservation checks can still see them.
    #[inline]
    pub fn attribute(&self, cycles: u64) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().attribute(cycles);
        }
    }

    /// Attributes `cycles` to the leaf addressed by `path` from the
    /// root, independent of the open-span stack, and bumps its count by
    /// one. Used for resource-occupancy domains (hash unit, bus) that
    /// overlap the access being serviced rather than nesting inside it.
    #[inline]
    pub fn attribute_path(&self, path: &[&str], cycles: u64) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().add_path(path, cycles, 1);
        }
    }

    /// Copies the span tree out as plain owned data, paths sorted.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let mut spans = Vec::new();
        if let Some(inner) = &self.0 {
            let inner = inner.borrow();
            inner.collect(0, &mut Vec::new(), &mut spans);
        }
        spans.sort_by(|a, b| a.path.cmp(&b.path));
        ProfileSnapshot { spans }
    }

    /// Folds a snapshot back into this live tree (cycles and counts
    /// add). This is the worker-merge path, mirroring
    /// [`Registry::absorb`](crate::Registry::absorb): absorbing worker
    /// snapshots in request order makes the merged profile independent
    /// of the worker count.
    pub fn absorb(&self, snap: &ProfileSnapshot) {
        if let Some(inner) = &self.0 {
            let mut inner = inner.borrow_mut();
            for span in &snap.spans {
                let path: Vec<&str> = span.path.iter().map(String::as_str).collect();
                inner.add_path(&path, span.cycles, span.count);
            }
        }
    }
}

/// RAII guard returned by [`SpanTracer::span`]; closes the span when
/// dropped. Holds a clone of the tracer handle, never a borrow, so the
/// tracer stays usable while guards are open.
#[derive(Debug)]
#[must_use = "dropping the guard closes the span immediately"]
pub struct SpanGuard(Option<Rc<RefCell<TracerInner>>>);

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(inner) = &self.0 {
            inner.borrow_mut().exit();
        }
    }
}

/// One span's aggregate in a [`ProfileSnapshot`]: its full path from
/// the root, self-attributed cycles, and enter/attribution count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Names from the root to this span, outermost first.
    pub path: Vec<String>,
    /// Simulated cycles attributed directly to this span (children not
    /// included — subtree totals are derived, e.g. by
    /// [`ProfileSnapshot::cycles_under`]).
    pub cycles: u64,
    /// Number of times the span was entered or path-attributed.
    pub count: u64,
}

/// An owned, `Send` copy of a tracer's span tree, sorted by path.
/// Produced by [`SpanTracer::snapshot`] in a worker, merged with
/// [`ProfileSnapshot::merge`] or [`SpanTracer::absorb`] on the
/// aggregating side.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileSnapshot {
    /// Every span with a nonzero cycle or count total, sorted by path.
    pub spans: Vec<SpanSnapshot>,
}

impl ProfileSnapshot {
    /// Accumulates `other` into `self`: cycles and counts add per path;
    /// the result stays sorted. Order-independent, so merging worker
    /// snapshots in request order is deterministic at any worker count.
    pub fn merge(&mut self, other: &ProfileSnapshot) {
        let mut by_path: BTreeMap<Vec<String>, (u64, u64)> = self
            .spans
            .drain(..)
            .map(|s| (s.path, (s.cycles, s.count)))
            .collect();
        for span in &other.spans {
            let slot = by_path.entry(span.path.clone()).or_insert((0, 0));
            slot.0 += span.cycles;
            slot.1 += span.count;
        }
        self.spans = by_path
            .into_iter()
            .map(|(path, (cycles, count))| SpanSnapshot {
                path,
                cycles,
                count,
            })
            .collect();
    }

    /// Total self-cycles across every span (all attribution is
    /// self-attribution, so this is the grand total).
    pub fn total_cycles(&self) -> u64 {
        self.spans.iter().map(|s| s.cycles).sum()
    }

    /// Total cycles attributed anywhere under the top-level span named
    /// `root` (the span itself included).
    pub fn cycles_under(&self, root: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.path.first().is_some_and(|n| n == root))
            .map(|s| s.cycles)
            .sum()
    }

    /// JSON form: a sorted array of `{"path": "a;b;c", "cycles": n,
    /// "count": m}` objects. Deterministic byte-for-byte.
    pub fn to_json(&self) -> JsonValue {
        self.spans
            .iter()
            .map(|s| {
                let mut o = JsonValue::obj();
                o.push("path", s.path.join(";"));
                o.push("cycles", s.cycles);
                o.push("count", s.count);
                o
            })
            .collect::<Vec<_>>()
            .into()
    }

    /// Flamegraph-compatible folded stacks: one `a;b;c cycles` line per
    /// span with nonzero self-cycles, sorted by path. Feed directly to
    /// `flamegraph.pl` or any folded-stack consumer.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            if s.cycles > 0 {
                let _ = writeln!(out, "{} {}", s.path.join(";"), s.cycles);
            }
        }
        out
    }

    /// Renders an indented attribution tree with subtree totals and
    /// percentages of the grand total. Deterministic.
    pub fn render_tree(&self) -> String {
        let mut totals: BTreeMap<Vec<String>, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            for depth in 1..=s.path.len() {
                let slot = totals.entry(s.path[..depth].to_vec()).or_insert((0, 0));
                slot.0 += s.cycles;
                if depth == s.path.len() {
                    slot.1 = s.count;
                }
            }
        }
        let grand = self.total_cycles().max(1);
        let width = totals
            .keys()
            .map(|p| 2 * (p.len() - 1) + p.last().map_or(0, String::len))
            .max()
            .unwrap_or(0)
            .max(12);
        let mut out = String::new();
        for (path, (cycles, count)) in &totals {
            let indent = "  ".repeat(path.len() - 1);
            let name = path.last().map_or("", String::as_str);
            let label = format!("{indent}{name}");
            let pct = 100.0 * *cycles as f64 / grand as f64;
            let _ = writeln!(
                out,
                "{label:<width$}  {cycles:>14} cyc  {pct:>5.1}%  x{count}"
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = SpanTracer::disabled();
        assert!(!t.is_enabled());
        {
            let _g = t.span("a");
            t.attribute(10);
        }
        t.attribute_path(&["x", "y"], 5);
        assert_eq!(t.snapshot(), ProfileSnapshot::default());
    }

    #[test]
    fn guard_nesting_builds_paths() {
        let t = SpanTracer::enabled();
        {
            let _a = t.span("access");
            {
                let _b = t.span("l2");
                t.attribute(3);
            }
            {
                let _b = t.span("bus");
                t.attribute(7);
                t.attribute(2);
            }
        }
        {
            let _a = t.span("access");
            let _b = t.span("l2");
            t.attribute(1);
        }
        let snap = t.snapshot();
        let paths: Vec<String> = snap.spans.iter().map(|s| s.path.join(";")).collect();
        assert_eq!(paths, ["access", "access;bus", "access;l2"]);
        assert_eq!(snap.spans[2].cycles, 4);
        assert_eq!(snap.spans[2].count, 2);
        assert_eq!(snap.spans[0].cycles, 0);
        assert_eq!(snap.spans[0].count, 2);
        assert_eq!(snap.total_cycles(), 13);
        assert_eq!(snap.cycles_under("access"), 13);
        assert_eq!(snap.cycles_under("other"), 0);
    }

    #[test]
    fn attribute_path_ignores_open_stack() {
        let t = SpanTracer::enabled();
        let _g = t.span("access");
        t.attribute_path(&["background", "bus"], 40);
        t.attribute_path(&["background", "bus"], 2);
        drop(_g);
        let snap = t.snapshot();
        assert_eq!(snap.cycles_under("background"), 42);
        assert_eq!(snap.cycles_under("access"), 0);
        let bus = snap
            .spans
            .iter()
            .find(|s| s.path == ["background", "bus"])
            .expect("bus span");
        assert_eq!(bus.count, 2);
    }

    #[test]
    fn unattributed_cycles_stay_visible() {
        let t = SpanTracer::enabled();
        t.attribute(9);
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].path, ["(unattributed)"]);
        assert_eq!(snap.total_cycles(), 9);
    }

    #[test]
    fn merge_and_absorb_match_single_recorder() {
        let record = |pairs: &[(&[&str], u64)]| {
            let t = SpanTracer::enabled();
            for (path, cycles) in pairs {
                t.attribute_path(path, *cycles);
            }
            t.snapshot()
        };
        let whole = record(&[
            (&["a", "b"], 10),
            (&["a", "c"], 5),
            (&["a", "b"], 1),
            (&["d"], 7),
        ]);
        let mut merged = record(&[(&["a", "b"], 10), (&["a", "c"], 5)]);
        merged.merge(&record(&[(&["a", "b"], 1), (&["d"], 7)]));
        assert_eq!(merged, whole);

        let agg = SpanTracer::enabled();
        agg.absorb(&record(&[(&["a", "b"], 10), (&["a", "c"], 5)]));
        agg.absorb(&record(&[(&["a", "b"], 1), (&["d"], 7)]));
        assert_eq!(agg.snapshot(), whole);
    }

    #[test]
    fn merge_is_order_independent() {
        let t = SpanTracer::enabled();
        t.attribute_path(&["x"], 3);
        let a = t.snapshot();
        let u = SpanTracer::enabled();
        u.attribute_path(&["y", "z"], 4);
        let b = u.snapshot();
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        assert_eq!(ab.total_cycles(), 7);
    }

    #[test]
    fn folded_and_json_are_sorted_and_stable() {
        let t = SpanTracer::enabled();
        t.attribute_path(&["b", "leaf"], 2);
        t.attribute_path(&["a"], 1);
        let snap = t.snapshot();
        assert_eq!(snap.to_folded(), "a 1\nb;leaf 2\n");
        let json = snap.to_json().render_pretty();
        let reparsed = JsonValue::parse(&json).expect("round-trips");
        let arr = reparsed.as_array().expect("array");
        assert_eq!(arr.len(), 2);
        assert_eq!(arr[0].get("path").and_then(JsonValue::as_str), Some("a"));
        assert_eq!(arr[1].get("cycles").and_then(JsonValue::as_u64), Some(2));
    }

    #[test]
    fn tree_render_includes_interior_totals() {
        let t = SpanTracer::enabled();
        t.attribute_path(&["root", "a"], 30);
        t.attribute_path(&["root", "b"], 70);
        let tree = t.snapshot().render_tree();
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[0].contains("root") && lines[0].contains("100"),
            "{tree}"
        );
        assert!(
            lines[1].contains("a") && lines[1].contains("30.0%"),
            "{tree}"
        );
        assert!(
            lines[2].contains("b") && lines[2].contains("70.0%"),
            "{tree}"
        );
    }

    #[test]
    fn guard_closes_on_early_drop() {
        let t = SpanTracer::enabled();
        let g = t.span("outer");
        drop(g);
        {
            let _g = t.span("sibling");
            t.attribute(5);
        }
        let snap = t.snapshot();
        assert_eq!(snap.cycles_under("sibling"), 5);
        assert_eq!(snap.cycles_under("outer"), 0);
    }
}
