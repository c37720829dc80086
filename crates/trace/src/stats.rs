//! Trace summarization utilities.

use miv_cpu::{LoadDep, TraceInst, TraceOp};

/// Aggregate statistics over a trace window.
///
/// # Examples
///
/// ```
/// use miv_trace::{Benchmark, TraceSummary};
///
/// let summary = TraceSummary::from_trace(Benchmark::Swim.trace(1).take(10_000));
/// assert!(summary.mem_fraction() > 0.3);
/// assert!(summary.unique_lines(64) > 10);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// Total instructions.
    pub instructions: u64,
    /// Loads observed.
    pub loads: u64,
    /// Stores observed.
    pub stores: u64,
    /// Dependent (pointer-chasing) loads.
    pub dependent_loads: u64,
    /// Whole-line streaming stores.
    pub full_line_stores: u64,
    /// Conditional branches.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Addresses touched (for footprint estimation).
    addrs: Vec<u64>,
}

impl TraceSummary {
    /// Builds a summary from a trace window.
    pub fn from_trace<I: IntoIterator<Item = TraceInst>>(trace: I) -> Self {
        let mut s = TraceSummary::default();
        for inst in trace {
            s.instructions += 1;
            match inst.op {
                TraceOp::Load { addr, dep } => {
                    s.loads += 1;
                    if dep != LoadDep::Independent {
                        s.dependent_loads += 1;
                    }
                    s.addrs.push(addr);
                }
                TraceOp::Store { addr, full_line } => {
                    s.stores += 1;
                    if full_line {
                        s.full_line_stores += 1;
                    }
                    s.addrs.push(addr);
                }
                TraceOp::Branch { mispredicted } => {
                    s.branches += 1;
                    if mispredicted {
                        s.mispredicts += 1;
                    }
                }
                TraceOp::Compute { .. } | TraceOp::CryptoBarrier => {}
            }
        }
        s
    }

    /// Fraction of instructions that touch memory.
    pub fn mem_fraction(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            (self.loads + self.stores) as f64 / self.instructions as f64
        }
    }

    /// Number of distinct cache lines touched at the given line size.
    pub fn unique_lines(&self, line_bytes: u64) -> usize {
        let mut lines: Vec<u64> = self.addrs.iter().map(|a| a / line_bytes).collect();
        lines.sort_unstable();
        lines.dedup();
        lines.len()
    }

    /// Footprint in bytes at the given line size.
    pub fn footprint(&self, line_bytes: u64) -> u64 {
        self.unique_lines(line_bytes) as u64 * line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmark::Benchmark;

    #[test]
    fn summary_counts() {
        let s = TraceSummary::from_trace(vec![
            TraceInst::compute(),
            TraceInst::load(0),
            TraceInst::load_dep(64, LoadDep::OnLoadsAgo(1)),
            TraceInst::store_full_line(128),
            TraceInst::store(8),
        ]);
        assert_eq!(s.instructions, 5);
        assert_eq!(s.loads, 2);
        assert_eq!(s.stores, 2);
        assert_eq!(s.dependent_loads, 1);
        assert_eq!(s.full_line_stores, 1);
        assert_eq!(s.unique_lines(64), 3);
        assert_eq!(s.footprint(64), 192);
        assert!((s.mem_fraction() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_summary() {
        let s = TraceSummary::from_trace(Vec::new());
        assert_eq!(s.mem_fraction(), 0.0);
        assert_eq!(s.unique_lines(64), 0);
    }

    #[test]
    fn big_benchmarks_have_big_footprints() {
        // Streaming benchmarks keep touching new lines; vpr's footprint
        // saturates at its capacity-interesting mid region. The window
        // must be long enough for swim's linear growth to clear vpr's
        // plateau.
        let n = 3_000_000;
        let swim = TraceSummary::from_trace(Benchmark::Swim.trace(2).take(n));
        let vpr = TraceSummary::from_trace(Benchmark::Vpr.trace(2).take(n));
        assert!(
            swim.footprint(64) as f64 > 1.4 * vpr.footprint(64) as f64,
            "swim {} vs vpr {}",
            swim.footprint(64),
            vpr.footprint(64)
        );
    }
}
