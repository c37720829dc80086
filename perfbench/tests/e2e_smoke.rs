//! Smoke test of the end-to-end benchmark: every workload at `--smoke`
//! size, untraced and traced, plus the check that a wrong pinned digest
//! fails the run. Run with `cargo test --release --manifest-path
//! perfbench/Cargo.toml`.

#![allow(dead_code)]

#[path = "../benches/e2e/compare.rs"]
mod compare;
#[path = "../benches/e2e/harness.rs"]
mod harness;
#[path = "../benches/e2e/serve.rs"]
mod serve;
#[path = "../benches/e2e/sim.rs"]
mod sim;
#[path = "../benches/e2e/store.rs"]
mod store;
#[path = "../benches/e2e/tracer.rs"]
mod tracer;

use harness::{Opts, Outcome, Pins, Workload};
use miv_obs::JsonValue;

fn smoke(workload: Workload, traced: bool, pins: Pins) -> Outcome {
    harness::run(&Opts {
        workload,
        seed: 42,
        seconds: 10.0,
        traced,
        smoke: true,
        pins,
    })
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let doc =
        JsonValue::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn names(metrics: &[harness::Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|(n, _, u)| (n.clone(), u.to_string()))
        .collect()
}

fn failing(o: &Outcome) -> Vec<String> {
    o.checks
        .iter()
        .filter(|c| !c.ok)
        .map(|c| format!("{}: {}", c.name, c.detail))
        .collect()
}

#[test]
fn untraced_runs_report_every_metric_and_repeat_exactly() {
    for w in Workload::ALL {
        let a = smoke(w, false, Pins::committed());
        assert!(a.correct(), "{}: {:?}", w.name(), failing(&a));
        assert_eq!(a.failed(), 0, "{}", w.name());
        let metrics = harness::end_to_end(&a);
        assert_eq!(names(&metrics), declared("end_to_end"), "{}", w.name());
        for (name, value, _) in &metrics {
            assert!(
                value.is_finite() && *value > 0.0,
                "{} {name} = {value}",
                w.name()
            );
        }
        let b = smoke(w, false, Pins::committed());
        assert_eq!(a.counts, b.counts, "{}", w.name());
        assert_eq!(a.digest, b.digest, "{}", w.name());
    }
}

#[test]
fn traced_layers_and_remainder_sum_to_wall_time() {
    for w in Workload::ALL {
        let o = smoke(w, true, Pins::committed());
        assert!(o.correct(), "{}: {:?}", w.name(), failing(&o));
        let metrics = harness::per_layer(&o);
        assert_eq!(names(&metrics), declared("per_layer"), "{}", w.name());
        let value = |n: &str| metrics.iter().find(|m| m.0 == n).map(|m| m.1).expect(n);
        let layers: f64 = tracer::Layer::ALL
            .iter()
            .map(|l| value(&format!("{}.self_s", l.name())))
            .sum();
        let wall = value("traced_wall_s");
        assert!(wall > 0.0, "{}", w.name());
        let sum = layers + value("unexplained_s");
        assert!(
            (sum - wall).abs() <= 1e-9 * wall,
            "{}: {sum} vs {wall}",
            w.name()
        );
    }
}

#[test]
fn a_wrong_pinned_digest_fails_every_op() {
    for w in Workload::ALL {
        let mut pins = Pins::committed();
        pins.canary.insert(w.name().to_string(), "0".repeat(32));
        let o = smoke(w, false, pins);
        assert!(!o.correct(), "{}", w.name());
        assert_eq!(o.failed(), o.ops, "{}: fail ratio must be 1", w.name());
    }
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(harness::quartiles(&xs), [2.75, 5.5, 8.25]);
    assert_eq!(harness::quantile(&xs, 0.5), 5.5);
}
