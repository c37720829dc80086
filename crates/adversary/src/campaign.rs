//! Campaign planning and aggregation.
//!
//! A [`CampaignSpec`] expands into a flat list of [`CellConfig`]s — one
//! per scheme × attack × trial — that an executor (sequential or a
//! worker pool) runs in any order. [`CampaignReport::from_outcomes`]
//! then folds the outcomes into a detection-coverage matrix and
//! per-scheme latency statistics. Aggregation iterates the spec, not the
//! outcome order, so the report is identical no matter how the cells
//! were scheduled — the property the CLI's `--jobs` determinism check
//! rests on.

use miv_core::{ConfigError, Scheme};
use miv_hash::HashAlgo;
use miv_obs::{JsonValue, Registry};

use crate::attack::{AttackClass, Trigger};
use crate::cell::{CellConfig, CellOutcome, Detector};

/// The plan for one campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Master seed; every cell derives its own stream from it.
    pub seed: u64,
    /// Trials per scheme × attack cell (each with a different trigger).
    pub trials: u32,
    /// Schemes under test, in report order.
    pub schemes: Vec<Scheme>,
    /// Protected data segment size in bytes.
    pub data_bytes: u64,
    /// L2 capacity in bytes.
    pub l2_bytes: u64,
    /// Cache line / tree block size in bytes.
    pub line_bytes: u32,
    /// Span of the synthetic access stream in bytes.
    pub working_set: u64,
    /// Accesses per cell.
    pub accesses: u64,
    /// Store fraction of the stream, in percent.
    pub write_ratio_pct: u32,
    /// Capture event traces inside each cell.
    pub capture_events: bool,
    /// Hash unit for the functional engines (the timing model is
    /// unchanged, keeping latency tables comparable across units).
    pub hash: HashAlgo,
}

impl CampaignSpec {
    /// A CI-sized campaign: every scheme, every attack, two trials, a
    /// couple of seconds of wall clock.
    pub fn quick(seed: u64) -> Self {
        CampaignSpec {
            seed,
            trials: 2,
            schemes: Scheme::ALL.to_vec(),
            data_bytes: 256 << 10,
            l2_bytes: 32 << 10,
            line_bytes: 64,
            working_set: 128 << 10,
            accesses: 2_500,
            write_ratio_pct: 30,
            capture_events: false,
            hash: HashAlgo::Md5,
        }
    }

    /// The full campaign: five trials per cell over a larger memory and
    /// a longer access stream, for stable latency percentiles.
    pub fn full(seed: u64) -> Self {
        CampaignSpec {
            seed,
            trials: 5,
            schemes: Scheme::ALL.to_vec(),
            data_bytes: 1 << 20,
            l2_bytes: 64 << 10,
            line_bytes: 64,
            working_set: 512 << 10,
            accesses: 20_000,
            write_ratio_pct: 30,
            capture_events: false,
            hash: HashAlgo::Md5,
        }
    }

    /// Pre-flights every distinct per-scheme geometry through the
    /// fallible constructors (timing controller and functional
    /// builder) without running anything, so a bad spec surfaces as a
    /// readable CLI error instead of a worker panic.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] any scheme's geometry
    /// produces.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let mut seen = std::collections::BTreeSet::new();
        for cell in self.cells() {
            // Geometry only varies by scheme; one representative
            // per scheme covers the grid.
            if seen.insert(cell.scheme.label()) {
                cell.validate()?;
            }
        }
        Ok(())
    }

    /// Expands the spec into every cell, scheme-major. Trials rotate
    /// through the three trigger forms so each matrix cell mixes
    /// touch-gated, cycle-gated and random injection timing.
    pub fn cells(&self) -> Vec<CellConfig> {
        let mut cells = Vec::new();
        for (si, &scheme) in self.schemes.iter().enumerate() {
            for (ai, &attack) in AttackClass::ALL.iter().enumerate() {
                for trial in 0..self.trials {
                    let trigger = match trial % 3 {
                        0 => Trigger::AfterTargetTouches { count: 1 },
                        1 => Trigger::AtCycle {
                            cycle: self.accesses * 75,
                        },
                        _ => Trigger::Random {
                            per_access_ppm: u32::try_from(2_000_000 / self.accesses)
                                .expect("quotient of 2e6 fits u32")
                                .max(1),
                        },
                    };
                    cells.push(CellConfig {
                        scheme,
                        attack,
                        trigger,
                        trial,
                        seed: cell_seed(self.seed, si, ai, trial),
                        data_bytes: self.data_bytes,
                        l2_bytes: self.l2_bytes,
                        line_bytes: self.line_bytes,
                        working_set: self.working_set,
                        accesses: self.accesses,
                        write_ratio_pct: self.write_ratio_pct,
                        capture_events: self.capture_events,
                        hash: self.hash,
                    });
                }
            }
        }
        cells
    }
}

/// Derives a well-mixed per-cell seed from the campaign seed and the
/// cell's coordinates (splitmix64-style finalizer, so neighbouring cells
/// get unrelated streams).
pub fn cell_seed(seed: u64, scheme_index: usize, attack_index: usize, trial: u32) -> u64 {
    let mut z = seed
        .wrapping_add((scheme_index as u64) << 40)
        .wrapping_add((attack_index as u64) << 20)
        .wrapping_add(trial as u64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One scheme × attack entry of the coverage matrix, folded over all
/// trials.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixCell {
    /// Scheme under attack.
    pub scheme: Scheme,
    /// Attack class.
    pub attack: AttackClass,
    /// Whether the attack applies to the scheme at all.
    pub applicable: bool,
    /// Whether a correct checker must detect it.
    pub expected_detected: bool,
    /// Trials run.
    pub trials: u32,
    /// Trials whose injection was caught.
    pub detected: u32,
    /// Trials whose injection went uncaught.
    pub missed: u32,
    /// Alarms with no preceding injection.
    pub false_alarms: u32,
    /// Detections credited to the cycle-level checker.
    pub by_timing: u32,
    /// Detections credited to the functional engine.
    pub by_functional: u32,
    /// Detections credited to the end-of-run audit.
    pub by_audit: u32,
}

impl MatrixCell {
    /// `detected`/`missed`/`ok` verdict for the text report: a cell is
    /// bad when it missed an expected detection or raised a false alarm.
    pub fn verdict(&self) -> &'static str {
        if !self.applicable {
            "n/a"
        } else if self.false_alarms > 0 {
            "false-alarm"
        } else if self.expected_detected && self.missed > 0 {
            "MISSED"
        } else if self.expected_detected {
            "detected"
        } else if self.detected > 0 {
            // `base` somehow detecting, or a control cell detecting:
            // both impossible by construction, surfaced loudly.
            "unexpected"
        } else {
            "blind"
        }
    }
}

/// Detection-latency statistics for one scheme, folded over every
/// detected injection (any attack, any trial).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyStats {
    /// Scheme.
    pub scheme: Scheme,
    /// Number of detections the percentiles are computed over.
    pub detections: u64,
    /// Median injection-to-detection latency in cycles.
    pub p50: u64,
    /// 90th-percentile latency in cycles.
    pub p90: u64,
    /// 99th-percentile latency in cycles.
    pub p99: u64,
    /// Worst observed latency in cycles.
    pub max: u64,
    /// Mean latency in cycles.
    pub mean: f64,
    /// The sorted raw samples (feeds the registry histograms).
    pub samples: Vec<u64>,
}

/// Nearest-rank percentile of an ascending-sorted slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a nearest rank is at most len for p <= 100, and the clamp bounds it anyway"
    )]
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The aggregated result of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Scheme × attack coverage matrix, spec order.
    pub matrix: Vec<MatrixCell>,
    /// Per-scheme latency statistics (schemes with detections only).
    pub latency: Vec<LatencyStats>,
    /// Cells that actually ran (applicable ones).
    pub cells: u64,
    /// Injections caught, campaign-wide.
    pub detected: u64,
    /// Expected detections that were missed — a checker hole.
    pub missed_expected: u64,
    /// Alarms with no injection — a checker lie.
    pub false_alarms: u64,
}

impl CampaignReport {
    /// Folds cell outcomes into the matrix and latency tables. Iterates
    /// the spec's scheme × attack grid and *selects* matching outcomes,
    /// so outcome order (i.e. worker scheduling) cannot affect the
    /// report.
    pub fn from_outcomes(spec: &CampaignSpec, outcomes: &[CellOutcome]) -> Self {
        let mut matrix = Vec::new();
        let mut latency = Vec::new();
        let mut cells = 0u64;
        let mut detected = 0u64;
        let mut missed_expected = 0u64;
        let mut false_alarms = 0u64;

        for &scheme in &spec.schemes {
            let mut samples: Vec<u64> = Vec::new();
            for &attack in &AttackClass::ALL {
                let mut cell = MatrixCell {
                    scheme,
                    attack,
                    applicable: attack.applies_to(scheme),
                    expected_detected: attack.expected_detected(scheme),
                    trials: 0,
                    detected: 0,
                    missed: 0,
                    false_alarms: 0,
                    by_timing: 0,
                    by_functional: 0,
                    by_audit: 0,
                };
                let mut trials: Vec<&CellOutcome> = outcomes
                    .iter()
                    .filter(|o| o.scheme == scheme && o.attack == attack)
                    .collect();
                trials.sort_by_key(|o| o.trial);
                for out in trials {
                    cell.trials += 1;
                    if !out.applicable {
                        continue;
                    }
                    cells += 1;
                    if out.false_alarm {
                        cell.false_alarms += 1;
                        false_alarms += 1;
                    }
                    if out.injection.is_none() {
                        continue;
                    }
                    match out.detection {
                        Some(det) => {
                            cell.detected += 1;
                            detected += 1;
                            samples.push(det.latency);
                            match det.detector {
                                Detector::Timing => cell.by_timing += 1,
                                Detector::Functional => cell.by_functional += 1,
                                Detector::Audit => cell.by_audit += 1,
                            }
                        }
                        None => {
                            cell.missed += 1;
                            if cell.expected_detected {
                                missed_expected += 1;
                            }
                        }
                    }
                }
                matrix.push(cell);
            }
            if !samples.is_empty() {
                samples.sort_unstable();
                let sum: u64 = samples.iter().sum();
                latency.push(LatencyStats {
                    scheme,
                    detections: samples.len() as u64,
                    p50: percentile(&samples, 50.0),
                    p90: percentile(&samples, 90.0),
                    p99: percentile(&samples, 99.0),
                    max: samples.last().copied().unwrap_or(0),
                    mean: sum as f64 / samples.len() as f64,
                    samples,
                });
            }
        }

        CampaignReport {
            matrix,
            latency,
            cells,
            detected,
            missed_expected,
            false_alarms,
        }
    }

    /// Whether the campaign found no checker holes and no checker lies.
    pub fn clean(&self) -> bool {
        self.missed_expected == 0 && self.false_alarms == 0
    }

    /// Serialises the report as the documented `miv-attack-v1` schema.
    pub fn to_json(&self, spec: &CampaignSpec) -> JsonValue {
        let mut root = JsonValue::obj();
        root.push("schema", "miv-attack-v1");
        root.push("seed", spec.seed);
        root.push("trials", spec.trials);

        let mut config = JsonValue::obj();
        config.push("data_bytes", spec.data_bytes);
        config.push("l2_bytes", spec.l2_bytes);
        config.push("line_bytes", spec.line_bytes);
        config.push("working_set", spec.working_set);
        config.push("accesses", spec.accesses);
        config.push("write_ratio_pct", spec.write_ratio_pct);
        config.push("hash", spec.hash.label());
        root.push("config", config);

        let mut matrix = Vec::new();
        for cell in &self.matrix {
            let mut row = JsonValue::obj();
            row.push("scheme", cell.scheme.label());
            row.push("attack", cell.attack.label());
            row.push("applicable", cell.applicable);
            row.push("expected_detected", cell.expected_detected);
            row.push("trials", cell.trials);
            row.push("detected", cell.detected);
            row.push("missed", cell.missed);
            row.push("false_alarms", cell.false_alarms);
            let mut by = JsonValue::obj();
            by.push("timing", cell.by_timing);
            by.push("functional", cell.by_functional);
            by.push("audit", cell.by_audit);
            row.push("detectors", by);
            matrix.push(row);
        }
        root.push("matrix", JsonValue::Array(matrix));

        let mut latency = Vec::new();
        for stats in &self.latency {
            let mut row = JsonValue::obj();
            row.push("scheme", stats.scheme.label());
            row.push("detections", stats.detections);
            row.push("p50", stats.p50);
            row.push("p90", stats.p90);
            row.push("p99", stats.p99);
            row.push("max", stats.max);
            row.push("mean", stats.mean);
            latency.push(row);
        }
        root.push("latency", JsonValue::Array(latency));

        let mut summary = JsonValue::obj();
        summary.push("cells", self.cells);
        summary.push("detected", self.detected);
        summary.push("missed_expected", self.missed_expected);
        summary.push("false_alarms", self.false_alarms);
        root.push("summary", summary);
        root
    }

    /// Publishes the campaign's aggregate counters and per-scheme
    /// latency histograms into `registry` (`attack.*` namespace), for
    /// the shared `miv-metrics-v1` export path.
    pub fn record_into(&self, registry: &Registry) {
        registry.counter("attack.cells").add(self.cells);
        registry.counter("attack.detected").add(self.detected);
        registry.counter("attack.missed").add(self.missed_expected);
        registry
            .counter("attack.false_alarms")
            .add(self.false_alarms);
        for stats in &self.latency {
            let hist = registry.histogram(&format!("attack.latency.{}", stats.scheme.label()));
            for &sample in &stats.samples {
                hist.record(sample);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::run_cell;

    #[test]
    fn quick_spec_expands_to_the_full_grid() {
        let spec = CampaignSpec::quick(7);
        let cells = spec.cells();
        assert_eq!(
            cells.len(),
            Scheme::ALL.len() * AttackClass::ALL.len() * spec.trials as usize
        );
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cells.len(), "cell seeds must be distinct");
        for cell in &cells {
            let expected = ["after-touches", "at-cycle", "random"][cell.trial as usize % 3];
            assert_eq!(cell.trigger.label(), expected);
        }
    }

    #[test]
    fn report_is_order_independent() {
        let spec = CampaignSpec {
            trials: 1,
            schemes: vec![Scheme::Base, Scheme::CHash],
            accesses: 600,
            data_bytes: 128 << 10,
            l2_bytes: 16 << 10,
            working_set: 64 << 10,
            ..CampaignSpec::quick(3)
        };
        let outcomes: Vec<_> = spec.cells().iter().map(run_cell).collect();
        let forward = CampaignReport::from_outcomes(&spec, &outcomes);
        let reversed: Vec<_> = outcomes.iter().rev().cloned().collect();
        let backward = CampaignReport::from_outcomes(&spec, &reversed);
        assert_eq!(forward, backward);
        assert_eq!(forward.missed_expected, 0, "chash must catch everything");
        assert_eq!(forward.false_alarms, 0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 90.0), 90);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[42], 99.0), 42);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn json_export_carries_the_schema_tag() {
        let spec = CampaignSpec {
            trials: 1,
            schemes: vec![Scheme::Naive],
            accesses: 600,
            data_bytes: 128 << 10,
            l2_bytes: 16 << 10,
            working_set: 64 << 10,
            ..CampaignSpec::quick(11)
        };
        let outcomes: Vec<_> = spec.cells().iter().map(run_cell).collect();
        let report = CampaignReport::from_outcomes(&spec, &outcomes);
        let json = report.to_json(&spec);
        let text = json.render_pretty();
        assert!(text.contains("\"schema\": \"miv-attack-v1\""));
        assert!(text.contains("\"matrix\""));
        assert!(text.contains("\"latency\""));
        let parsed = JsonValue::parse(&text).expect("round-trips");
        assert_eq!(
            parsed.get("summary").and_then(|s| s.get("false_alarms")),
            Some(&JsonValue::UInt(0))
        );
    }

    #[test]
    fn registry_receives_counters_and_histograms() {
        let spec = CampaignSpec {
            trials: 1,
            schemes: vec![Scheme::CHash],
            accesses: 600,
            data_bytes: 128 << 10,
            l2_bytes: 16 << 10,
            working_set: 64 << 10,
            ..CampaignSpec::quick(5)
        };
        let outcomes: Vec<_> = spec.cells().iter().map(run_cell).collect();
        let report = CampaignReport::from_outcomes(&spec, &outcomes);
        let registry = Registry::new();
        report.record_into(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counters.get("attack.cells"), Some(&report.cells));
        assert_eq!(snap.counters.get("attack.missed"), Some(&0));
        assert!(snap.histograms.contains_key("attack.latency.chash"));
        assert!(report.detected > 0);
    }
}
