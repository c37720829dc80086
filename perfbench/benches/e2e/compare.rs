//! `--compare DIR_A DIR_B`: the two-sided comparison of run records
//! written with `--json DIR`, one row per (workload, metric).
//!
//! Runs are paired in order of (seed, repetition). A side wins a pair
//! when its value is better in the metric's direction. The verdict
//! follows the measurement rule for claiming a change:
//!
//! - *improved*: B wins at least 9 in 10 pairs and the medians differ
//!   by more than A's interquartile range;
//! - *unresolved*: either side's interquartile range, as a share of its
//!   median, is wider than the metric's bound, and not every B run
//!   beats every A run;
//! - *regressed*: B's median is worse than A's by more than the bound;
//! - *unchanged*: otherwise.
//!
//! Counts and digests of runs with the same seed are compared exactly.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use miv_obs::JsonValue;

use crate::harness::{quantile, quartiles};

/// Direction and regression bound of an end-to-end metric.
#[derive(Debug, Clone, Copy)]
struct Rule {
    higher_is_better: bool,
    bound: f64,
}

/// Reads the end-to-end metric rules from `BENCHMARK.json`. Per-layer
/// metrics have no bound, so they get medians and quartiles but no
/// verdict.
fn rules() -> BTreeMap<String, Rule> {
    let doc =
        JsonValue::parse(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let metrics = doc
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[]);
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(JsonValue::as_str)
                .unwrap_or_default();
            let rule = Rule {
                higher_is_better: m.get("better").and_then(JsonValue::as_str) == Some("higher"),
                bound: m.get("bound").and_then(JsonValue::as_f64).unwrap_or(0.0),
            };
            (name.to_string(), rule)
        })
        .collect()
}

/// One run record.
struct Run {
    workload: String,
    traced: bool,
    seed: u64,
    file: String,
    metrics: BTreeMap<String, f64>,
    counts: BTreeMap<String, u64>,
    digest: String,
}

fn load(dir: &Path) -> Result<Vec<Run>, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut runs = Vec::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let str_of = |k: &str| {
            doc.get(k)
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_string()
        };
        let mut metrics = BTreeMap::new();
        if let Some(JsonValue::Object(ms)) = doc.get("result").and_then(|r| r.get("metrics")) {
            for (name, v) in ms {
                if let Some(x) = v.get("value").and_then(JsonValue::as_f64) {
                    metrics.insert(name.clone(), x);
                }
            }
        }
        let mut counts = BTreeMap::new();
        if let Some(JsonValue::Object(cs)) = doc.get("counts") {
            for (name, v) in cs {
                counts.insert(name.clone(), v.as_u64().unwrap_or(u64::MAX));
            }
        }
        runs.push(Run {
            workload: str_of("workload"),
            traced: doc.get("traced") == Some(&JsonValue::Bool(true)),
            seed: doc.get("seed").and_then(JsonValue::as_u64).unwrap_or(0),
            file: path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default(),
            metrics,
            counts,
            digest: str_of("digest"),
        });
    }
    runs.sort_by(|a, b| (a.seed, &a.file).cmp(&(b.seed, &b.file)));
    Ok(runs)
}

fn verdict(rule: Option<Rule>, a: &[f64], b: &[f64]) -> (f64, &'static str) {
    let Some(rule) = rule else {
        return (0.0, "-");
    };
    let better = |x: f64, y: f64| if rule.higher_is_better { x > y } else { x < y };
    let pairs = a.len().min(b.len());
    let won = (0..pairs).filter(|&i| better(b[i], a[i])).count();
    let won_share = if pairs == 0 {
        0.0
    } else {
        won as f64 / pairs as f64
    };
    let (ma, mb) = (quantile(a, 0.5), quantile(b, 0.5));
    let [a1, _, a3] = quartiles(a);
    let [b1, _, b3] = quartiles(b);
    let spread = |q1: f64, q3: f64, m: f64| if m == 0.0 { 0.0 } else { (q3 - q1) / m.abs() };
    let bound = rule.bound;
    let all_better = a.iter().all(|&x| b.iter().all(|&y| better(y, x)));
    let worse_by = if rule.higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let v = if won_share >= 0.9 && better(mb, ma) && (mb - ma).abs() > a3 - a1 {
        "improved"
    } else if spread(a1, a3, ma).max(spread(b1, b3, mb)) > bound && !all_better {
        "unresolved"
    } else if worse_by > bound {
        "regressed"
    } else {
        "unchanged"
    };
    (won_share, v)
}

/// Prints the comparison table; returns whether any metric regressed or
/// any count or digest differs.
pub fn compare(dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let (runs_a, runs_b) = (load(dir_a)?, load(dir_b)?);
    let rules = rules();
    let groups: BTreeSet<(String, bool)> = runs_a
        .iter()
        .chain(&runs_b)
        .map(|r| (r.workload.clone(), r.traced))
        .collect();
    let mut bad = false;
    println!(
        "{:<16} {:<34} {:>36} {:>36} {:>6} verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "B won"
    );
    for (workload, traced) in &groups {
        let pick = |runs: &[Run]| -> Vec<usize> {
            (0..runs.len())
                .filter(|&i| runs[i].workload == *workload && runs[i].traced == *traced)
                .collect()
        };
        let (ia, ib) = (pick(&runs_a), pick(&runs_b));
        let names: Vec<String> = ia
            .iter()
            .flat_map(|&i| runs_a[i].metrics.keys().cloned())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        for name in names {
            let values = |runs: &[Run], idx: &[usize]| -> Vec<f64> {
                idx.iter()
                    .filter_map(|&i| runs[i].metrics.get(&name).copied())
                    .collect()
            };
            let (a, b) = (values(&runs_a, &ia), values(&runs_b, &ib));
            if a.is_empty() || b.is_empty() {
                continue;
            }
            let rule = if *traced {
                None
            } else {
                rules.get(&name).copied()
            };
            let (won, v) = verdict(rule, &a, &b);
            bad |= v == "regressed";
            let side = |x: &[f64]| {
                let [q1, _, q3] = quartiles(x);
                format!("{:.6} [{:.6}, {:.6}]", quantile(x, 0.5), q1, q3)
            };
            println!(
                "{workload:<16} {name:<34} {:>36} {:>36} {:>6.2} {v} (n={}/{})",
                side(&a),
                side(&b),
                won,
                a.len(),
                b.len()
            );
        }
        // Counts and digests, seed by seed.
        for &i in &ia {
            let Some(&j) = ib.iter().find(|&&j| runs_b[j].seed == runs_a[i].seed) else {
                continue;
            };
            let (ra, rb) = (&runs_a[i], &runs_b[j]);
            let differing: Vec<&String> = ra
                .counts
                .keys()
                .chain(rb.counts.keys())
                .filter(|k| ra.counts.get(*k) != rb.counts.get(*k))
                .collect();
            let same = differing.is_empty() && ra.digest == rb.digest;
            bad |= !same;
            println!(
                "{workload:<16} counts+digest seed {:<10} {}",
                ra.seed,
                if same {
                    "identical".to_string()
                } else {
                    format!(
                        "DIFFER (digest {} vs {}; counts {differing:?})",
                        ra.digest, rb.digest
                    )
                }
            );
        }
    }
    Ok(bad)
}
