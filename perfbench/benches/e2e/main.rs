//! End-to-end host-time benchmark: five workloads over the simulator,
//! the functional engine, the serving path and the block store.
//!
//! ```text
//! cargo bench --manifest-path perfbench/Cargo.toml --bench e2e -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] \
//!     [--spans-out PATH] [--json DIR] [--smoke]
//! cargo bench --manifest-path perfbench/Cargo.toml --bench e2e -- \
//!     --compare DIR_A DIR_B
//! ```
//!
//! A run prints a human-readable report and, as its last line, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics, or with `--trace 1` the per-layer ones). See
//! `perfbench/README.md`.

mod compare;
mod harness;
mod serve;
mod sim;
mod store;
mod tracer;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use harness::{quantile, Opts, Outcome, Pins, Workload};
use miv_obs::JsonValue;

const USAGE: &str = "usage: e2e --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] \
                     [--spans-out PATH] [--json DIR] [--smoke]\n       e2e --compare DIR_A DIR_B";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    spans_out: Option<PathBuf>,
    json: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        traced: false,
        smoke: false,
        spans_out: None,
        json: None,
        compare: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--spans-out" => args.spans_out = Some(value()?.into()),
            "--json" => args.json = Some(value()?.into()),
            "--smoke" => args.smoke = true,
            "--compare" => {
                let a = value()?;
                let b = it.next().ok_or("--compare needs two directories")?;
                args.compare = Some((a.into(), b.into()));
            }
            // Cargo passes `--bench` to every bench target.
            "--bench" => {}
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.compare.is_none() && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare::compare(a, b) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        };
    }
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(workload) = Workload::parse(&args.workload) else {
        eprintln!("unknown workload {}\n{USAGE}", args.workload);
        return ExitCode::from(2);
    };
    let opts = Opts {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
        pins: Pins::committed(),
    };
    let outcome = harness::run(&opts);
    let metrics = harness::metrics(&opts, &outcome);
    report(&opts, &outcome, &metrics);
    let line = harness::result_line(&outcome, &metrics);
    if let Some(path) = &args.spans_out {
        if let Err(e) = write_spans(path) {
            eprintln!("writing spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let Some(dir) = &args.json {
        if let Err(e) = write_record(dir, &opts, &harness::record(&opts, &outcome, &line)) {
            eprintln!("writing the run record to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", line.render());
    ExitCode::SUCCESS
}

/// The human-readable part of a run's output.
fn report(opts: &Opts, o: &Outcome, metrics: &[harness::Metric]) {
    println!(
        "{} seed {} seconds {}{}{}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        if opts.traced { " traced" } else { "" },
        if opts.smoke { " smoke" } else { "" },
    );
    println!(
        "  setup    n={:<8} median {:.6} s",
        o.setup_s.len(),
        quantile(&o.setup_s, 0.5)
    );
    for (what, s) in [("op", &o.op), ("barrier", &o.barrier)] {
        println!(
            "  {what:<8} n={:<8} median {:.6} us  p99 {:.6} us",
            s.len(),
            s.quantile_us(0.5),
            s.quantile_us(0.99)
        );
    }
    println!(
        "  timed phase {:.3} s, {} ops, {} failed",
        o.wall_s, o.ops, o.failed_ops
    );
    for c in &o.checks {
        println!(
            "  check {:<4} {}: {}",
            if c.ok { "ok" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    for (k, v) in &o.counts {
        println!("  count {k} = {v}");
    }
    println!("  digest {}", o.digest);
    for (name, value, unit) in metrics {
        println!("  metric {name} = {value} {unit}");
    }
}

/// Writes the kept raw spans, one JSON object per line.
fn write_spans(path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in tracer::take_raw() {
        let mut v = JsonValue::obj();
        v.push("request", s.request);
        v.push("layer", s.layer.name());
        v.push("op", s.op.name());
        v.push(
            "parent",
            s.parent.map_or(JsonValue::Null, |p| p.name().into()),
        );
        v.push("start_ns", s.start_ns);
        v.push("end_ns", s.end_ns);
        writeln!(out, "{}", v.render())?;
    }
    out.flush()
}

/// Writes the run record as `<workload>.seed<N>.trace<T>.<k>.json`,
/// with the first free `k`.
fn write_record(dir: &Path, opts: &Opts, doc: &JsonValue) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}.seed{}.trace{}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.traced)
    );
    let path = (1..)
        .map(|k| dir.join(format!("{stem}.{k}.json")))
        .find(|p| !p.exists())
        .expect("a free file name");
    std::fs::write(path, doc.render_pretty() + "\n")
}

/// `--workload all`: each workload in its own process, so each reports
/// its own peak memory.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("locating the benchmark binary: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        if let Some(dir) = &args.json {
            cmd.arg("--json").arg(dir);
        }
        if let Some(path) = &args.spans_out {
            cmd.arg("--spans-out")
                .arg(format!("{}.{}", path.display(), w.name()));
        }
        let out = match cmd.output() {
            Ok(o) => o,
            Err(e) => {
                eprintln!("{}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let correct = stdout
            .lines()
            .last()
            .and_then(|l| JsonValue::parse(l).ok())
            .and_then(|v| v.get("correct").cloned())
            == Some(JsonValue::Bool(true));
        ok &= out.status.success() && correct;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
