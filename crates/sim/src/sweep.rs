//! Parallel sweep engine: run many independent simulations across
//! worker threads and get results back in request order.
//!
//! The paper's evaluation is a grid of independent runs — schemes ×
//! benchmarks × parameter points — and every run is deterministic given
//! its [`RunRequest`] (the trace generator is seeded, the machine is
//! cycle-accurate). That makes the sweep embarrassingly parallel: a
//! [`SweepRunner`] spawns `jobs` scoped workers that pull requests off a
//! shared atomic index, execute them on private machines, and post the
//! [`RunOutcome`]s back into per-request slots. Because outcomes are
//! keyed by request index, the returned vector is identical at any
//! thread count, so everything downstream (tables, claims, JSON export)
//! is byte-for-byte reproducible whether you run with `--jobs 1` or
//! `--jobs 32`.
//!
//! Telemetry crosses the thread boundary as data, not as handles:
//! `miv-obs` recorders are deliberately `Rc`-cheap and not `Send`, so
//! each run records into a private [`Telemetry`] and the worker returns
//! its [`TelemetrySnapshot`] (plain owned maps and vectors) inside the
//! outcome. The caller aggregates by [`Telemetry::absorb`]ing the
//! snapshots in request order — counters sum, histograms merge, the
//! event ring keeps the tail — which reproduces exactly the document a
//! sequential sweep sharing one recorder would have written.
//!
//! # Examples
//!
//! ```
//! use miv_core::Scheme;
//! use miv_sim::{RunRequest, SweepRunner, SystemConfig};
//! use miv_trace::Benchmark;
//!
//! let mut cfg = SystemConfig::hpca03(Scheme::CHash, 256 << 10, 64);
//! cfg.checker.protected_bytes = 128 << 20;
//! let requests: Vec<RunRequest> = [Benchmark::Gzip, Benchmark::Mcf]
//!     .into_iter()
//!     .map(|bench| RunRequest::new(cfg, bench, 2_000, 10_000, 42))
//!     .collect();
//! let outcomes = SweepRunner::new(2).run(&requests);
//! assert_eq!(outcomes.len(), 2);
//! assert_eq!(outcomes[0].result.benchmark, "gzip"); // request order
//! assert!(outcomes[1].result.ipc > 0.0);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use miv_cpu::TraceInst;
use miv_trace::{Benchmark, Profile};

use crate::config::SystemConfig;
use crate::system::{RunResult, System};
use crate::telemetry::{Sample, Telemetry, TelemetrySnapshot};

/// What a [`RunRequest`] simulates: a named paper benchmark, a custom
/// synthetic profile, or a recorded trace. Plain data, so requests can
/// cross thread boundaries freely; a recorded trace is shared, not
/// copied, by every request that replays it.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// One of the paper's SPEC-calibrated benchmarks.
    Benchmark(Benchmark),
    /// A custom synthetic profile (e.g. from `--custom`).
    Profile(Profile),
    /// A recorded trace (e.g. from `--trace`), replayed without a
    /// prewarm; see [`System::replay`].
    Trace {
        /// Display name, e.g. the trace file's path.
        name: Arc<str>,
        /// The recorded instructions.
        insts: Arc<[TraceInst]>,
    },
}

impl Workload {
    /// The workload's display name.
    pub fn name(&self) -> &str {
        match self {
            Workload::Benchmark(b) => b.profile().name,
            Workload::Profile(p) => p.name,
            Workload::Trace { name, .. } => name,
        }
    }
}

impl From<Benchmark> for Workload {
    fn from(b: Benchmark) -> Self {
        Workload::Benchmark(b)
    }
}

impl From<Profile> for Workload {
    fn from(p: Profile) -> Self {
        Workload::Profile(p)
    }
}

/// One simulation job: everything needed to build a machine, run it and
/// measure it. Requests are plain data (`Send`), independent of each
/// other, and fully determine their [`RunOutcome`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// The machine to build.
    pub config: SystemConfig,
    /// The workload to run on it.
    pub workload: Workload,
    /// Warm-up instructions (statistics discarded).
    pub warmup: u64,
    /// Measured instructions.
    pub measure: u64,
    /// Trace seed (unused by a recorded trace).
    pub seed: u64,
    /// Instructions per time-series sample; `0` takes a single sample
    /// covering the whole measurement window.
    pub sample_interval: u64,
}

impl RunRequest {
    /// A request with a whole-window single sample.
    pub fn new(
        config: SystemConfig,
        workload: impl Into<Workload>,
        warmup: u64,
        measure: u64,
        seed: u64,
    ) -> Self {
        RunRequest {
            config,
            workload: workload.into(),
            warmup,
            measure,
            seed,
            sample_interval: 0,
        }
    }

    /// Overrides the time-series sampling interval.
    pub fn with_sample_interval(mut self, interval: u64) -> Self {
        self.sample_interval = interval;
        self
    }

    /// Builds the machine, attaches `telemetry` if given, and runs the
    /// request on the calling thread.
    pub fn run(&self, telemetry: Option<&Telemetry>) -> (RunResult, Vec<Sample>) {
        let mut sys = match &self.workload {
            Workload::Benchmark(b) => System::for_benchmark(self.config, *b, self.seed),
            Workload::Profile(p) => System::new(self.config, *p, self.seed),
            Workload::Trace { name, insts } => System::replay(self.config, name, insts.clone()),
        };
        if let Some(t) = telemetry {
            sys.attach_telemetry(t);
        }
        sys.run_sampled(self.warmup, self.measure, self.sample_interval)
    }
}

/// The measured results of one [`RunRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Run totals (IPC, miss rates, bus traffic, …).
    pub result: RunResult,
    /// Per-interval time series (one entry when `sample_interval` is 0).
    pub samples: Vec<Sample>,
    /// The run's private telemetry recording, when the runner captures
    /// telemetry; absorb these in request order via
    /// [`Telemetry::absorb`] to aggregate a sweep.
    pub telemetry: Option<TelemetrySnapshot>,
}

/// Executes batches of [`RunRequest`]s across worker threads.
///
/// Workers are spawned per [`run`](Self::run) call inside
/// [`std::thread::scope`] and pull requests off a shared atomic index —
/// no channels, no work stealing, no idle workers while requests
/// remain. Outcomes land in per-request slots, so the returned vector
/// is in request order and independent of scheduling.
#[derive(Debug, Clone, Copy)]
pub struct SweepRunner {
    jobs: usize,
    event_capacity: Option<usize>,
}

impl SweepRunner {
    /// A runner with `jobs` worker threads; `0` means one per available
    /// core ([`available_jobs`](Self::available_jobs)).
    pub fn new(jobs: usize) -> Self {
        SweepRunner {
            jobs: if jobs == 0 {
                Self::available_jobs()
            } else {
                jobs
            },
            event_capacity: None,
        }
    }

    /// The default worker count: the machine's available parallelism.
    pub fn available_jobs() -> usize {
        std::thread::available_parallelism().map_or(1, usize::from)
    }

    /// The resolved worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Captures per-run telemetry: each run records into a private
    /// [`Telemetry`] with an event ring of `event_capacity`, and its
    /// snapshot is returned in the outcome. Off by default — attaching
    /// recorders costs a few percent of simulation time.
    pub fn capture_telemetry(mut self, event_capacity: usize) -> Self {
        self.event_capacity = Some(event_capacity);
        self
    }

    /// Executes one request on the calling thread.
    fn execute(&self, request: &RunRequest) -> RunOutcome {
        let telemetry = self.event_capacity.map(Telemetry::with_event_capacity);
        let (result, samples) = request.run(telemetry.as_ref());
        RunOutcome {
            result,
            samples,
            telemetry: telemetry.map(|t| t.snapshot()),
        }
    }

    /// Runs every request and returns the outcomes in request order.
    ///
    /// With one worker (or zero/one requests) everything runs inline on
    /// the calling thread — the sequential path spawns nothing. A panic
    /// in any run (e.g. a working set exceeding the protected segment)
    /// propagates to the caller when the scope joins.
    pub fn run(&self, requests: &[RunRequest]) -> Vec<RunOutcome> {
        self.run_tasks(requests, |r| self.execute(r))
    }

    /// The generic engine behind [`run`](Self::run): executes `exec`
    /// over every task on this runner's worker pool and returns the
    /// results in task order.
    ///
    /// Tasks must be independent (workers pull them off a shared atomic
    /// index in unspecified order) and `exec` must be a pure function of
    /// its task for the task-order result to be scheduling-independent.
    /// Other crates' grids — e.g. the adversary campaign's scheme ×
    /// attack cells — fan out through this without reimplementing the
    /// pool.
    pub fn run_tasks<T, R, F>(&self, tasks: &[T], exec: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let workers = self.jobs.min(tasks.len());
        if workers <= 1 {
            return tasks.iter().map(exec).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = tasks.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(task) = tasks.get(i) else {
                        break;
                    };
                    let result = exec(task);
                    *slots[i].lock().expect("slot lock") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock")
                    .expect("every task executed")
            })
            .collect()
    }
}

impl Default for SweepRunner {
    fn default() -> Self {
        SweepRunner::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use miv_core::timing::Scheme;

    fn requests() -> Vec<RunRequest> {
        let mut reqs = Vec::new();
        for scheme in [Scheme::Base, Scheme::CHash, Scheme::Naive] {
            for bench in [Benchmark::Gzip, Benchmark::Swim] {
                let mut cfg = SystemConfig::hpca03(scheme, 256 << 10, 64);
                cfg.checker.protected_bytes = 128 << 20;
                reqs.push(RunRequest::new(cfg, bench, 2_000, 10_000, 7));
            }
        }
        reqs
    }

    #[test]
    fn requests_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<RunRequest>();
        assert_send::<RunOutcome>();
        assert_send::<TelemetrySnapshot>();
    }

    #[test]
    fn parallel_outcomes_match_sequential_in_request_order() {
        let reqs = requests();
        let seq = SweepRunner::new(1).run(&reqs);
        let par = SweepRunner::new(3).run(&reqs);
        assert_eq!(seq, par);
        for (req, out) in reqs.iter().zip(&seq) {
            assert_eq!(out.result.benchmark, req.workload.name());
            assert_eq!(out.result.scheme, req.config.checker.scheme.label());
            assert_eq!(out.result.instructions, req.measure);
        }
    }

    #[test]
    fn telemetry_snapshots_absorb_deterministically() {
        let reqs = requests();
        let aggregate = |jobs: usize| {
            let telemetry = Telemetry::with_event_capacity(512);
            for outcome in SweepRunner::new(jobs).capture_telemetry(512).run(&reqs) {
                telemetry.absorb(&outcome.telemetry.expect("captured"));
            }
            telemetry.aggregate_document().render_pretty()
        };
        let doc1 = aggregate(1);
        let doc4 = aggregate(4);
        assert_eq!(doc1, doc4);
        assert!(doc1.contains("l2.data.read_misses"));
    }

    #[test]
    fn capture_is_off_by_default() {
        let reqs = &requests()[..1];
        let outcomes = SweepRunner::new(1).run(reqs);
        assert!(outcomes[0].telemetry.is_none());
    }

    #[test]
    fn jobs_resolution() {
        assert!(SweepRunner::new(0).jobs() >= 1);
        assert_eq!(SweepRunner::new(5).jobs(), 5);
        assert_eq!(SweepRunner::default().jobs(), SweepRunner::available_jobs());
    }

    #[test]
    fn more_workers_than_requests_is_fine() {
        let reqs = &requests()[..2];
        let outcomes = SweepRunner::new(16).run(reqs);
        assert_eq!(outcomes.len(), 2);
    }

    #[test]
    fn run_tasks_keeps_task_order_at_any_worker_count() {
        let tasks: Vec<u64> = (0..97).collect();
        let exec = |t: &u64| t * t + 1;
        let seq = SweepRunner::new(1).run_tasks(&tasks, exec);
        for jobs in [2, 3, 8, 128] {
            assert_eq!(SweepRunner::new(jobs).run_tasks(&tasks, exec), seq);
        }
        assert_eq!(seq[10], 101);
        let empty: Vec<u64> = Vec::new();
        assert!(SweepRunner::new(4).run_tasks(&empty, exec).is_empty());
    }

    #[test]
    fn custom_profile_workload_runs() {
        let profile = Profile::cache_friendly("custom", 4 << 20);
        let mut cfg = SystemConfig::hpca03(Scheme::CHash, 256 << 10, 64);
        cfg.checker.protected_bytes = 128 << 20;
        let req = RunRequest::new(cfg, profile, 1_000, 5_000, 3);
        assert_eq!(req.workload.name(), "custom");
        let out = &SweepRunner::new(2).run(std::slice::from_ref(&req))[0];
        assert_eq!(out.result.benchmark, "custom");
        assert_eq!(out.samples.len(), 1, "interval 0 = one sample");
    }
}
