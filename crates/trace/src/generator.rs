//! The stochastic trace generator.

use miv_cpu::{LoadDep, TraceInst};
use miv_obs::rng::Rng;

use crate::profile::Profile;

/// Word size accesses advance by within a sequential run.
const WORD: u64 = 8;
/// Cache-line granularity assumed for streaming whole-line overwrites.
const LINE: u64 = 64;

/// A deterministic, infinite instruction stream for one [`Profile`].
///
/// Implements [`Iterator`] over [`TraceInst`]; drive it into
/// `miv_cpu::Core::run` via `.take(n)`.
///
/// Accesses walk word-by-word through *sequential runs* whose lengths are
/// geometric with mean [`Profile::run_words`]; a finished run jumps to a
/// fresh location in the hot or cold region. Store runs in streaming
/// profiles align to cache lines and overwrite them fully, producing the
/// `full_line` stores the §5.3 optimization exploits.
///
/// # Examples
///
/// ```
/// use miv_trace::{Profile, TraceGenerator};
///
/// let gen = TraceGenerator::new(Profile::streaming_scan("scan", 1 << 20), 7);
/// let window: Vec<_> = gen.take(100).collect();
/// assert!(window.iter().any(|i| i.is_mem()));
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: Profile,
    rng: Rng,
    /// Current sequential cursor (absolute address).
    cursor: u64,
    /// Words remaining in the current sequential run.
    run_left: u32,
    /// Whether the current run is a whole-line streaming store run.
    store_run: bool,
}

impl TraceGenerator {
    /// Creates a generator for `profile` seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid (see [`Profile::validate`]).
    pub fn new(profile: Profile, seed: u64) -> Self {
        profile.validate();
        let mut rng = Rng::seed_from_u64(seed ^ 0x6d69_765f_7472 /* "miv_tr" */);
        let cursor = rng.gen_range_u64(0, profile.working_set) & !(WORD - 1);
        let mut gen = TraceGenerator {
            profile,
            rng,
            cursor,
            run_left: 0,
            store_run: false,
        };
        gen.start_run(false);
        gen
    }

    /// The profile driving this generator.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Jumps to a new location and draws a fresh run length.
    fn start_run(&mut self, streaming_store: bool) {
        let p = self.profile;
        // Region pick: far (long reuse distance), hot (tight reuse), or
        // the capacity-interesting mid region.
        let r: f64 = self.rng.gen_f64();
        let region = if r < p.far_fraction {
            p.working_set
        } else if r < p.far_fraction + p.hot_fraction && p.hot_set >= 4096 {
            p.hot_set
        } else {
            p.mid_set
        };
        self.cursor = self.rng.gen_range_u64(0, region) & !(WORD - 1);
        // Geometric-ish run length with the configured mean (at least 1).
        let mean = p.run_words.max(1) as f64;
        let u: f64 = self.rng.gen_f64();
        self.run_left = ((-mean * (1.0 - u).ln()).ceil() as u32).clamp(1, 1 << 20);
        self.store_run = streaming_store;
        if streaming_store {
            // Align to a line boundary and cover whole lines.
            self.cursor &= !(LINE - 1);
            self.run_left = self.run_left.max((LINE / WORD) as u32);
            // Round the run up to whole lines so every line it touches is
            // fully overwritten.
            let wpl = (LINE / WORD) as u32;
            self.run_left = self.run_left.div_ceil(wpl) * wpl;
        }
    }

    /// Returns the current address and advances the run.
    fn step(&mut self) -> u64 {
        let addr = self.cursor % self.profile.working_set;
        self.cursor += WORD;
        self.run_left = self.run_left.saturating_sub(1);
        addr
    }
}

impl Iterator for TraceGenerator {
    type Item = TraceInst;

    fn next(&mut self) -> Option<TraceInst> {
        let p = self.profile;
        if p.branch_fraction > 0.0 && self.rng.gen_bool(p.branch_fraction) {
            return Some(if self.rng.gen_bool(p.mispredict_rate) {
                TraceInst::branch_mispredicted()
            } else {
                TraceInst::branch()
            });
        }
        // Scale so the overall memory share stays near `mem_fraction`
        // despite the branch draw happening first.
        let mem_p = (p.mem_fraction / (1.0 - p.branch_fraction)).min(1.0);
        if !self.rng.gen_bool(mem_p) {
            return Some(TraceInst::compute());
        }
        if self.run_left == 0 {
            // A fresh run; streaming-store runs start with probability
            // `streaming_stores` scaled by the write fraction so the
            // overall store share stays near `write_fraction`.
            let streaming = p.streaming_stores > 0.0
                && self.rng.gen_bool(p.streaming_stores * p.write_fraction);
            self.start_run(streaming);
        }
        if self.store_run {
            let addr = self.step();
            return Some(TraceInst::store_full_line(addr));
        }
        // Within ordinary runs the store share is scaled down by the
        // streaming share, keeping the overall store fraction near
        // `write_fraction` while streaming profiles emit most of their
        // stores as whole-line runs.
        let is_store = self
            .rng
            .gen_bool(p.write_fraction * (1.0 - p.streaming_stores));
        let addr = self.step();
        if is_store {
            Some(TraceInst::store(addr))
        } else {
            let dep = if self.rng.gen_bool(p.pointer_chase) {
                LoadDep::OnLoadsAgo(1)
            } else {
                LoadDep::Independent
            };
            Some(TraceInst::load_dep(addr, dep))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miv_cpu::TraceOp;

    fn count_kinds(profile: Profile, n: usize) -> (usize, usize, usize, usize) {
        let gen = TraceGenerator::new(profile, 1);
        let mut loads = 0;
        let mut stores = 0;
        let mut computes = 0;
        let mut chases = 0;
        for inst in gen.take(n) {
            match inst.op {
                TraceOp::Compute { .. } => computes += 1,
                TraceOp::Load { dep, .. } => {
                    loads += 1;
                    if dep != LoadDep::Independent {
                        chases += 1;
                    }
                }
                TraceOp::Store { .. } => stores += 1,
                TraceOp::Branch { .. } | TraceOp::CryptoBarrier => {}
            }
        }
        (loads, stores, computes, chases)
    }

    #[test]
    fn mem_fraction_is_respected() {
        let p = Profile::cache_friendly("t", 1 << 20);
        let (l, s, _c, _) = count_kinds(p, 100_000);
        let mem_frac = (l + s) as f64 / 100_000.0;
        assert!(
            (mem_frac - p.mem_fraction).abs() < 0.02,
            "mem_frac = {mem_frac}"
        );
        let wr_frac = s as f64 / (l + s) as f64;
        // Streaming runs perturb the store share somewhat.
        assert!(
            (wr_frac - p.write_fraction).abs() < 0.15,
            "wr_frac = {wr_frac}"
        );
    }

    #[test]
    fn pointer_chaser_emits_dependent_loads() {
        let p = Profile::pointer_chaser("t", 16 << 20);
        let (l, _, _, chases) = count_kinds(p, 50_000);
        let frac = chases as f64 / l as f64;
        assert!((frac - p.pointer_chase).abs() < 0.05, "chase frac = {frac}");
        let friendly = Profile::streaming_scan("s", 16 << 20);
        let (_, _, _, none) = count_kinds(friendly, 50_000);
        assert_eq!(none, 0);
    }

    #[test]
    fn addresses_stay_in_working_set() {
        let p = Profile::streaming_scan("t", 1 << 20);
        for inst in TraceGenerator::new(p, 3).take(50_000) {
            match inst.op {
                TraceOp::Load { addr, .. } | TraceOp::Store { addr, .. } => {
                    assert!(addr < p.working_set, "addr {addr:#x}");
                }
                TraceOp::Compute { .. } | TraceOp::Branch { .. } | TraceOp::CryptoBarrier => {}
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let p = Profile::cache_friendly("t", 1 << 20);
        let a: Vec<_> = TraceGenerator::new(p, 9).take(5000).collect();
        let b: Vec<_> = TraceGenerator::new(p, 9).take(5000).collect();
        let c: Vec<_> = TraceGenerator::new(p, 10).take(5000).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn streaming_profile_emits_full_line_stores() {
        // Shorter runs than the applu/swim profiles so the sample holds
        // enough runs for the full/partial ratio to be stable.
        let p = Profile {
            run_words: 256,
            ..Profile::streaming_scan("t", 8 << 20)
        };
        let mut full = 0;
        let mut partial = 0;
        for inst in TraceGenerator::new(p, 5).take(300_000) {
            if let TraceOp::Store { full_line, .. } = inst.op {
                if full_line {
                    full += 1;
                } else {
                    partial += 1;
                }
            }
        }
        assert!(
            full > partial,
            "streaming scan: {full} full vs {partial} partial"
        );
        // Cache-friendly code writes mostly partial lines.
        let p2 = Profile::cache_friendly("t2", 1 << 20);
        let mut full2 = 0;
        let mut partial2 = 0;
        for inst in TraceGenerator::new(p2, 5).take(100_000) {
            if let TraceOp::Store { full_line, .. } = inst.op {
                if full_line {
                    full2 += 1;
                } else {
                    partial2 += 1;
                }
            }
        }
        assert!(partial2 > full2);
    }

    #[test]
    fn streaming_run_covers_whole_line() {
        // Within a streaming run, consecutive full-line stores walk every
        // word of a line.
        let p = Profile::streaming_scan("t", 1 << 20);
        let insts: Vec<_> = TraceGenerator::new(p, 11).take(200_000).collect();
        let mut run: Vec<u64> = Vec::new();
        let mut saw_complete_run = false;
        for inst in insts {
            if let TraceOp::Store {
                addr,
                full_line: true,
            } = inst.op
            {
                if let Some(&last) = run.last() {
                    if addr == last + WORD {
                        run.push(addr);
                    } else {
                        run = vec![addr];
                    }
                } else {
                    run = vec![addr];
                }
                if run.len() == (LINE / WORD) as usize && run[0].is_multiple_of(LINE) {
                    saw_complete_run = true;
                    break;
                }
            }
        }
        assert!(saw_complete_run, "no complete line-overwrite run observed");
    }

    #[test]
    fn long_runs_reuse_lines() {
        // With a long mean run, consecutive memory accesses land on the
        // same 64-B line most of the time (spatial locality).
        let long = Profile {
            run_words: 1024,
            ..Profile::cache_friendly("l", 8 << 20)
        };
        let short = Profile {
            run_words: 2,
            ..Profile::cache_friendly("s", 8 << 20)
        };
        let same_line_frac = |p: Profile| {
            let mut prev: Option<u64> = None;
            let mut same = 0u32;
            let mut total = 0u32;
            for inst in TraceGenerator::new(p, 13).take(100_000) {
                if let TraceOp::Load { addr, .. } | TraceOp::Store { addr, .. } = inst.op {
                    if let Some(pl) = prev {
                        total += 1;
                        if addr / LINE == pl {
                            same += 1;
                        }
                    }
                    prev = Some(addr / LINE);
                }
            }
            same as f64 / total as f64
        };
        assert!(same_line_frac(long) > 0.8);
        assert!(same_line_frac(short) < 0.6);
    }
}
