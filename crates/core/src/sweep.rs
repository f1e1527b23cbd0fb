//! Deterministic parallel sweep runner.
//!
//! The paper's evaluation is a grid of *independent* experiment
//! configurations (NF × metadata model × optimization level × frequency
//! × traffic). Each experiment is a self-contained, seeded, event-driven
//! simulation with no shared mutable state, so a sweep parallelizes
//! perfectly **across** runs while every individual run stays exactly as
//! serial — and therefore bit-identical — as before.
//!
//! [`SweepSpec`] collects labelled runs (an [`ExperimentBuilder`] per
//! run, each carrying its own explicit seed, or an arbitrary job closure
//! for non-FastClick dataplanes) and executes them on a pool of
//! work-stealing `std::thread` workers. Results are returned **in input
//! order** regardless of thread count or completion order, so output
//! built from a sweep is byte-identical at `threads = 1` and
//! `threads = N`.
//!
//! The worker count comes from, in priority order: an explicit
//! [`SweepSpec::run_with_threads`] argument, [`set_default_threads`]
//! (set by the `--threads` CLI flag via [`configure_from_args`]), and
//! finally [`std::thread::available_parallelism`].
//!
//! Every process-wide default below resolves the same way: the
//! builder's own setter, else the `set_default_*` value (set by the CLI
//! flag), else off. Nothing here reads the environment, so what a test
//! or a reference run simulates never depends on ambient variables.

use crate::engine::Measurement;
use crate::experiment::{ExperimentBuilder, ExperimentError};
use crate::report::{measurement_to_json, RunReport, SCHEMA};
use pm_telemetry::{Json, Table};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

type Job =
    Box<dyn FnOnce() -> Result<(Measurement, Option<RunReport>), ExperimentError> + Send + 'static>;

/// Process-wide default worker count override (0 = unset).
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Process-wide default for per-element profiling.
static DEFAULT_PROFILE: AtomicBool = AtomicBool::new(false);

/// Process-wide default fault plan (`--faults <spec>`).
static DEFAULT_FAULTS: Mutex<Option<pm_sim::FaultPlan>> = Mutex::new(None);

/// Process-wide default workload (`--workload <spec>`).
static DEFAULT_WORKLOAD: Mutex<Option<pm_traffic::WorkloadSpec>> = Mutex::new(None);

/// Process-wide default flight-recorder timeline window: 0 = off, else
/// the `f64::to_bits` of the window in µs (a positive window never
/// encodes to 0).
static DEFAULT_TIMELINE: AtomicU64 = AtomicU64::new(0);

/// Process-wide default lifecycle-trace destination (`--trace <path>`).
static DEFAULT_TRACE: Mutex<Option<PathBuf>> = Mutex::new(None);

/// The timeline window a bare `--timeline` selects, in µs.
pub const DEFAULT_TIMELINE_WINDOW_US: f64 = 100.0;

/// Sets the process-wide timeline default for runs that don't set
/// [`ExperimentBuilder::timeline_us`] explicitly (the `--timeline` CLI
/// flag). `None` turns recording off.
///
/// # Panics
///
/// Panics on a non-positive window.
pub fn set_default_timeline(window_us: Option<f64>) {
    let v = match window_us {
        None => 0,
        Some(w) => {
            assert!(w > 0.0, "timeline window must be positive, got {w}");
            w.to_bits()
        }
    };
    DEFAULT_TIMELINE.store(v, Ordering::Relaxed);
}

/// The timeline default, in µs: [`set_default_timeline`] (set by
/// `--timeline[=window_us]`), else off.
pub fn default_timeline() -> Option<f64> {
    match DEFAULT_TIMELINE.load(Ordering::Relaxed) {
        0 => None,
        bits => Some(f64::from_bits(bits)),
    }
}

/// Sets the process-wide trace destination (the `--trace <path>` CLI
/// flag). Setting a path also turns lifecycle tracing on for runs that
/// don't set [`ExperimentBuilder::packet_trace`] explicitly. `None`
/// clears it.
pub fn set_default_trace(path: Option<PathBuf>) {
    *DEFAULT_TRACE.lock().expect("trace default poisoned") = path;
}

/// The trace-destination default: [`set_default_trace`] (set by
/// `--trace`), else none.
pub fn default_trace() -> Option<PathBuf> {
    DEFAULT_TRACE
        .lock()
        .expect("trace default poisoned")
        .clone()
}

/// Sets the process-wide fault plan for runs that don't set
/// [`ExperimentBuilder::fault_plan`] explicitly (the `--faults` CLI
/// flag). `None` clears it (runs unfaulted).
pub fn set_default_faults(plan: Option<pm_sim::FaultPlan>) {
    *DEFAULT_FAULTS.lock().expect("fault default poisoned") = plan;
}

/// The fault-plan default: [`set_default_faults`] (set by `--faults`),
/// else none.
pub fn default_faults() -> Option<pm_sim::FaultPlan> {
    DEFAULT_FAULTS
        .lock()
        .expect("fault default poisoned")
        .clone()
}

/// Sets the process-wide workload for runs that don't set
/// [`ExperimentBuilder::workload`] explicitly (the `--workload` CLI
/// flag). `None` clears it (runs replay the stock trace profiles).
pub fn set_default_workload(spec: Option<pm_traffic::WorkloadSpec>) {
    *DEFAULT_WORKLOAD.lock().expect("workload default poisoned") = spec;
}

/// The workload default: [`set_default_workload`] (set by
/// `--workload`), else none.
pub fn default_workload() -> Option<pm_traffic::WorkloadSpec> {
    DEFAULT_WORKLOAD
        .lock()
        .expect("workload default poisoned")
        .clone()
}

/// Sets the process-wide profiling default for runs that don't set
/// [`ExperimentBuilder::profile`] explicitly.
pub fn set_default_profile(on: bool) {
    DEFAULT_PROFILE.store(on, Ordering::Relaxed);
}

/// The profiling default: [`set_default_profile`] (set by the
/// `--profile` CLI flag), else off.
pub fn default_profile() -> bool {
    DEFAULT_PROFILE.load(Ordering::Relaxed)
}

/// Overrides the default worker count for subsequent sweeps. `0` clears
/// the override.
pub fn set_default_threads(n: usize) {
    DEFAULT_THREADS.store(n, Ordering::Relaxed);
}

/// The worker count a sweep uses when none is given explicitly:
/// [`set_default_threads`], else
/// [`std::thread::available_parallelism`].
pub fn default_threads() -> usize {
    match DEFAULT_THREADS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        forced => forced,
    }
}

/// What a benchmark binary's command line asks of the binary itself;
/// the per-run flags (`--threads`, `--profile`, `--faults`,
/// `--workload`, `--timeline`) live in the process defaults instead,
/// where every sweep and builder reads them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepCli {
    /// Where to write the JSON run-report artifact (`--json <path>`).
    pub json: Option<PathBuf>,
    /// Simulated core count requested on the command line
    /// (`--cores N`). `None` leaves each figure's default in place.
    /// Note this is *simulated* cores inside one experiment, unlike
    /// `--threads`, which is host workers across experiments.
    pub cores: Option<usize>,
    /// Lifecycle-trace destination (`--trace <path>`); also enables
    /// trace recording when set.
    pub trace: Option<PathBuf>,
    /// Flow/route-scale ceiling requested on the command line
    /// (`--flows N`). `None` leaves each figure's default in place.
    pub flows: Option<u64>,
}

/// The value of the value flag `name` when `args[*i]` is that flag, in
/// either spelling: `--x=v`, or `--x v` (which also steps `*i` over the
/// value). Another `--flag` is never taken as the value.
fn value_of<'a>(args: &'a [String], i: &mut usize, name: &str) -> Option<&'a str> {
    let rest = args[*i].strip_prefix(name)?;
    if let Some(v) = rest.strip_prefix('=') {
        return Some(v);
    }
    if !rest.is_empty() {
        return None; // a longer flag that merely starts with `name`
    }
    let v = args.get(*i + 1).filter(|v| !v.starts_with("--"))?;
    *i += 1;
    Some(v)
}

/// Parses `--threads N`, `--profile`, `--faults <spec>`,
/// `--workload <spec>`, `--flows N`, `--cores N`,
/// `--timeline[=window_us]`, `--trace <path>` and `--json <path>` from
/// the process arguments, installs the thread, profile, fault, workload,
/// timeline and trace defaults process-wide, and returns what is left
/// for the binary itself. Unparsable counts are ignored. Call once from
/// a benchmark binary's `main`.
///
/// # Panics
///
/// Panics on an unparsable `--faults`, `--workload` or `--timeline=`
/// value (running a different experiment than the one asked for is
/// worse than exiting).
pub fn configure_from_args() -> SweepCli {
    let args: Vec<String> = std::env::args().collect();
    let positive = |v: &str| v.parse::<u64>().ok().filter(|&n| n > 0);
    let mut cli = SweepCli::default();
    let mut i = 1;
    while i < args.len() {
        if let Some(v) = value_of(&args, &mut i, "--threads") {
            if let Some(n) = positive(v) {
                set_default_threads(n as usize);
            }
        } else if let Some(v) = value_of(&args, &mut i, "--faults") {
            let plan = pm_sim::FaultPlan::parse(v).unwrap_or_else(|e| panic!("--faults: {e}"));
            set_default_faults(Some(plan));
        } else if let Some(v) = value_of(&args, &mut i, "--workload") {
            let spec =
                pm_traffic::WorkloadSpec::parse(v).unwrap_or_else(|e| panic!("--workload: {e}"));
            set_default_workload(Some(spec));
        } else if let Some(v) = value_of(&args, &mut i, "--flows") {
            cli.flows = positive(v).or(cli.flows);
        } else if let Some(v) = value_of(&args, &mut i, "--cores") {
            cli.cores = positive(v).map(|n| n as usize).or(cli.cores);
        } else if let Some(v) = value_of(&args, &mut i, "--trace") {
            set_default_trace(Some(PathBuf::from(v)));
        } else if let Some(v) = value_of(&args, &mut i, "--json") {
            cli.json = Some(PathBuf::from(v));
        } else if args[i] == "--profile" {
            set_default_profile(true);
        } else if args[i] == "--timeline" {
            set_default_timeline(Some(DEFAULT_TIMELINE_WINDOW_US));
        } else if let Some(v) = args[i].strip_prefix("--timeline=") {
            // `0` disables, `1` (or nothing) picks the default window,
            // any other positive number is the window in µs.
            set_default_timeline(match v {
                "0" => None,
                "" | "1" => Some(DEFAULT_TIMELINE_WINDOW_US),
                w => Some(
                    w.parse::<f64>()
                        .ok()
                        .filter(|w| *w > 0.0)
                        .unwrap_or_else(|| panic!("--timeline: invalid window '{v}' (µs, > 0)")),
                ),
            });
        }
        i += 1;
    }
    cli.trace = default_trace();
    cli
}

/// Wraps per-sweep groups (from [`SweepResults::to_json`]) into the
/// top-level artifact document:
/// `{"schema": "packetmill-run-report/v1", "groups": […]}`.
pub fn artifact_document(groups: Vec<Json>) -> Json {
    Json::obj(vec![
        ("schema", Json::Str(SCHEMA.to_string())),
        ("groups", Json::Arr(groups)),
    ])
}

/// A declarative list of labelled experiment runs.
#[derive(Default)]
pub struct SweepSpec {
    runs: Vec<(String, Job)>,
    progress: bool,
}

impl fmt::Debug for SweepSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepSpec")
            .field("runs", &self.runs.len())
            .field("progress", &self.progress)
            .finish()
    }
}

impl SweepSpec {
    /// An empty sweep.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enables or disables per-run progress lines on stderr.
    #[must_use]
    pub fn progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// Appends one experiment. The builder carries every parameter of
    /// the run, including its explicit RNG seed, so the run's result
    /// does not depend on where or when a worker picks it up.
    pub fn push(&mut self, label: impl Into<String>, builder: ExperimentBuilder) -> &mut Self {
        self.runs.push((
            label.into(),
            Box::new(move || builder.run_with_report().map(|(m, r)| (m, Some(r)))),
        ));
        self
    }

    /// Appends an arbitrary job (e.g. [`ExperimentBuilder::run_with_dataplane`]
    /// for the Fig. 11 framework comparators). The job must be
    /// self-contained: it is executed at most once, on any worker. Jobs
    /// produce no [`RunReport`]; their artifact carries the measurement
    /// only.
    pub fn push_job<F>(&mut self, label: impl Into<String>, job: F) -> &mut Self
    where
        F: FnOnce() -> Result<Measurement, ExperimentError> + Send + 'static,
    {
        self.runs
            .push((label.into(), Box::new(move || job().map(|m| (m, None)))));
        self
    }

    /// Number of queued runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True if no runs are queued.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Executes the sweep with [`default_threads`] workers.
    pub fn run(self) -> SweepResults {
        let threads = default_threads();
        self.run_with_threads(threads)
    }

    /// Executes the sweep on `threads` workers and returns outcomes in
    /// input order.
    ///
    /// Workers steal the next unclaimed run from a shared cursor, so
    /// load imbalance (experiments vary widely in cost) never idles a
    /// core while work remains. A panicking run is caught and reported
    /// as a failed [`RunOutcome`]; the rest of the sweep proceeds.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn run_with_threads(self, threads: usize) -> SweepResults {
        assert!(threads > 0, "a sweep needs at least one worker");
        let n = self.runs.len();
        let progress = self.progress;
        let started = Instant::now();

        let slots: Vec<(String, Mutex<Option<Job>>)> = self
            .runs
            .into_iter()
            .map(|(label, job)| (label, Mutex::new(Some(job))))
            .collect();
        let outcomes: Vec<Mutex<Option<RunOutcome>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);
        let reuse = Mutex::new(ReuseCounts::default());

        let claim_runs = || loop {
            let idx = cursor.fetch_add(1, Ordering::Relaxed);
            if idx >= n {
                break;
            }
            let (label, slot) = &slots[idx];
            let job = slot
                .lock()
                .expect("job slot")
                .take()
                .expect("each run claimed once");
            let run_started = Instant::now();
            let (result, report) = match catch_unwind(AssertUnwindSafe(job)) {
                Ok(Ok((m, r))) => (
                    Ok(m),
                    r.map(|mut r| {
                        r.label = label.clone();
                        r
                    }),
                ),
                Ok(Err(e)) => (Err(format!("experiment error: {e}")), None),
                Err(payload) => (
                    Err(format!("panicked: {}", panic_message(payload.as_ref()))),
                    None,
                ),
            };
            let seconds = run_started.elapsed().as_secs_f64();
            let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
            if progress {
                match &result {
                    Ok(m) => eprintln!(
                        "[{done}/{n}] {label}: {:.1} Gbps, {:.2} Mpps ({seconds:.2} s)",
                        m.throughput_gbps, m.mpps
                    ),
                    Err(e) => eprintln!("[{done}/{n}] {label}: FAILED — {e} ({seconds:.2} s)"),
                }
            }
            *outcomes[idx].lock().expect("outcome slot") = Some(RunOutcome {
                label: label.clone(),
                result,
                seconds,
                report,
            });
        };

        let worker = |_worker_id: usize| {
            // A synthetic FIB handed from each run to the next.
            let fibs = pm_elements::route::FibReuse::open();
            let before = pm_traffic::cache_counts();
            claim_runs();
            let after = pm_traffic::cache_counts();
            let (fibs_built, fibs_reused) = fibs.counts();
            let mut r = reuse.lock().expect("reuse counts");
            r.traces_built += after.traces_built - before.traces_built;
            r.traces_reused += after.traces_reused - before.traces_reused;
            r.hash_memos_built += after.hash_memos_built - before.hash_memos_built;
            r.hash_memos_reused += after.hash_memos_reused - before.hash_memos_reused;
            r.fibs_built += fibs_built;
            r.fibs_reused += fibs_reused;
        };

        let threads = threads.min(n.max(1));
        if threads <= 1 {
            worker(0);
        } else {
            std::thread::scope(|s| {
                for w in 0..threads {
                    s.spawn(move || worker(w));
                }
            });
        }

        SweepResults {
            outcomes: outcomes
                .into_iter()
                .map(|m| {
                    m.into_inner()
                        .expect("no poison")
                        .expect("all runs executed")
                })
                .collect(),
            threads,
            wall_seconds: started.elapsed().as_secs_f64(),
            reuse: reuse.into_inner().expect("no poison"),
        }
    }
}

/// How often a sweep's runs found a seed-determined input already built
/// (`reused`) and how often they had to build it (`built`), summed over
/// the workers. Host telemetry like the wall-clock: it depends on what
/// the process ran before and on which worker claimed which run, so it
/// goes to stderr with the [`SweepReport`], never into the artifact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseCounts {
    /// Traces synthesized into the process-wide cache.
    pub traces_built: u64,
    /// Trace requests served from that cache.
    pub traces_reused: u64,
    /// Per-trace RSS-hash memos computed.
    pub hash_memos_built: u64,
    /// Engines that took their frame hashes from a memo.
    pub hash_memos_reused: u64,
    /// Synthetic FIBs built by a `SYNTH` configure.
    pub fibs_built: u64,
    /// `SYNTH` configures that took over the previous one's table.
    pub fibs_reused: u64,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One finished run: its label, result, and wall-clock cost.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The label given at [`SweepSpec::push`] time.
    pub label: String,
    /// The measurement, or a description of the failure (experiment
    /// error or caught panic).
    pub result: Result<Measurement, String>,
    /// Wall-clock seconds this run took on its worker.
    pub seconds: f64,
    /// The structured run artifact ([`SweepSpec::push`] runs only).
    pub report: Option<RunReport>,
}

impl RunOutcome {
    /// Serializes this outcome for the sweep artifact. Successful
    /// builder runs emit their full [`RunReport`]; job runs emit label +
    /// measurement; failures emit label + error. Wall-clock time is
    /// deliberately excluded so artifacts are byte-identical across
    /// worker counts and machines.
    pub fn to_json(&self) -> Json {
        match (&self.result, &self.report) {
            (Ok(_), Some(r)) => r.to_json(),
            (Ok(m), None) => Json::obj(vec![
                ("label", Json::Str(self.label.clone())),
                ("measurement", measurement_to_json(m)),
            ]),
            (Err(e), _) => Json::obj(vec![
                ("label", Json::Str(self.label.clone())),
                ("error", Json::Str(e.clone())),
            ]),
        }
    }
}

/// Every outcome of a sweep, in input order, plus aggregate timing.
#[derive(Debug, Clone)]
pub struct SweepResults {
    /// Per-run outcomes, in the order the runs were pushed.
    pub outcomes: Vec<RunOutcome>,
    /// Worker threads actually used.
    pub threads: usize,
    /// Wall-clock seconds for the whole sweep.
    pub wall_seconds: f64,
    /// What the runs built and what they found built.
    pub reuse: ReuseCounts,
}

impl SweepResults {
    /// The measurements in input order.
    ///
    /// # Panics
    ///
    /// Panics with the failing run's label if any run failed.
    pub fn expect_all(&self) -> Vec<Measurement> {
        self.outcomes
            .iter()
            .map(|o| match &o.result {
                Ok(m) => *m,
                Err(e) => panic!("sweep run '{}' failed: {e}", o.label),
            })
            .collect()
    }

    /// Number of failed runs.
    pub fn failures(&self) -> usize {
        self.outcomes.iter().filter(|o| o.result.is_err()).count()
    }

    /// Sum of per-run wall-clock seconds — what a serial execution of
    /// the same sweep would have cost.
    pub fn serial_seconds(&self) -> f64 {
        self.outcomes.iter().map(|o| o.seconds).sum()
    }

    /// Serializes the sweep as one named artifact group:
    /// `{"name": …, "runs": [RunOutcome::to_json(), …]}` in input order.
    /// Contains no timing or thread-count fields, so the same sweep is
    /// byte-identical at any `--threads`.
    pub fn to_json(&self, name: &str) -> Json {
        Json::obj(vec![
            ("name", Json::Str(name.to_string())),
            (
                "runs",
                Json::Arr(self.outcomes.iter().map(|o| o.to_json()).collect()),
            ),
        ])
    }

    /// The aggregate report.
    pub fn report(&self) -> SweepReport {
        let serial = self.serial_seconds();
        let n = self.outcomes.len();
        SweepReport {
            runs: n,
            failures: self.failures(),
            threads: self.threads,
            serial_seconds: serial,
            wall_seconds: self.wall_seconds,
            mean_run_seconds: if n == 0 { 0.0 } else { serial / n as f64 },
            max_run_seconds: self
                .outcomes
                .iter()
                .map(|o| o.seconds)
                .fold(0.0f64, f64::max),
            reuse: self.reuse,
        }
    }
}

/// Aggregate sweep telemetry: run counts and serial-equivalent vs.
/// actual wall-clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepReport {
    /// Total runs executed.
    pub runs: usize,
    /// Runs that failed (experiment error or panic).
    pub failures: usize,
    /// Worker threads used.
    pub threads: usize,
    /// Sum of per-run seconds (serial-equivalent cost).
    pub serial_seconds: f64,
    /// Actual wall-clock seconds.
    pub wall_seconds: f64,
    /// Mean per-run wall-clock seconds (0 for an empty sweep).
    pub mean_run_seconds: f64,
    /// Slowest single run's wall-clock seconds.
    pub max_run_seconds: f64,
    /// What the runs built and what they found built.
    pub reuse: ReuseCounts,
}

impl SweepReport {
    /// Serial-equivalent over actual wall-clock.
    pub fn speedup(&self) -> f64 {
        self.serial_seconds / self.wall_seconds.max(1e-9)
    }

    /// One-line account of the build-once inputs (printed under the
    /// table): whether the fast set-up path engaged.
    pub fn reuse_line(&self) -> String {
        let r = &self.reuse;
        format!(
            "reuse: traces {} built / {} reused; hash memos {} built / {} reused; FIBs {} built / {} reused",
            r.traces_built,
            r.traces_reused,
            r.hash_memos_built,
            r.hash_memos_reused,
            r.fibs_built,
            r.fibs_reused,
        )
    }

    /// Renders as a `pm-telemetry` table.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec![
            "runs",
            "failures",
            "threads",
            "serial-equivalent (s)",
            "wall-clock (s)",
            "mean run (s)",
            "max run (s)",
            "speedup",
        ]);
        t.row(vec![
            format!("{}", self.runs),
            format!("{}", self.failures),
            format!("{}", self.threads),
            format!("{:.2}", self.serial_seconds),
            format!("{:.2}", self.wall_seconds),
            format!("{:.2}", self.mean_run_seconds),
            format!("{:.2}", self.max_run_seconds),
            format!("{:.2}x", self.speedup()),
        ]);
        t
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The table ends its last row with a newline.
        write!(f, "{}{}", self.to_table(), self.reuse_line())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Nf;

    fn mini_builder(i: usize) -> ExperimentBuilder {
        ExperimentBuilder::new(Nf::Forwarder)
            .frequency_ghz(1.2 + 0.3 * i as f64)
            .packets(512)
            .seed(0xCAFE + i as u64)
    }

    #[test]
    fn results_keep_input_order() {
        let mut spec = SweepSpec::new();
        for i in 0..4 {
            spec.push(format!("run-{i}"), mini_builder(i));
        }
        let r = spec.run_with_threads(2);
        let labels: Vec<&str> = r.outcomes.iter().map(|o| o.label.as_str()).collect();
        assert_eq!(labels, ["run-0", "run-1", "run-2", "run-3"]);
        assert_eq!(r.failures(), 0);
    }

    #[test]
    fn report_aggregates() {
        let mut spec = SweepSpec::new();
        spec.push("a", mini_builder(0));
        spec.push("b", mini_builder(1));
        let r = spec.run_with_threads(2);
        let rep = r.report();
        assert_eq!(rep.runs, 2);
        assert_eq!(rep.failures, 0);
        assert_eq!(rep.threads, 2);
        assert!(rep.serial_seconds > 0.0);
        assert!(rep.wall_seconds > 0.0);
        assert!(rep.mean_run_seconds > 0.0);
        assert!(rep.max_run_seconds >= rep.mean_run_seconds);
        let rendered = rep.to_table().to_string();
        assert!(rendered.contains("speedup"));
    }

    #[test]
    fn thread_count_never_exceeds_runs() {
        let mut spec = SweepSpec::new();
        spec.push("only", mini_builder(0));
        let r = spec.run_with_threads(8);
        assert_eq!(r.threads, 1, "clamped to the number of runs");
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        SweepSpec::new().run_with_threads(0);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let r = SweepSpec::new().run_with_threads(4);
        assert!(r.outcomes.is_empty());
        assert_eq!(r.report().runs, 0);
    }

    #[test]
    fn experiment_error_is_reported_not_fatal() {
        let mut spec = SweepSpec::new();
        spec.push("bad", ExperimentBuilder::new(Nf::Custom("x -> ;".into())));
        spec.push("good", mini_builder(0));
        let r = spec.run_with_threads(2);
        assert_eq!(r.failures(), 1);
        assert!(r.outcomes[0]
            .result
            .as_ref()
            .unwrap_err()
            .contains("experiment error"));
        assert!(r.outcomes[1].result.is_ok());
    }
}
