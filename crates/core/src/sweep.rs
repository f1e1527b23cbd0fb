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
//! run, each carrying its own explicit seed, optionally with a
//! non-FastClick dataplane factory) and executes them on a pool of
//! work-stealing `std::thread` workers. Results are returned **in input
//! order** regardless of thread count or completion order, so output
//! built from a sweep is byte-identical at `threads = 1` and
//! `threads = N`.
//!
//! A benchmark binary parses its command line once, with [`Cli::parse`],
//! and hands the value to [`SweepSpec::from_cli`]. The sweep carries the
//! worker count (`--threads`, else
//! [`std::thread::available_parallelism`]) and the [`RunDefaults`]
//! (`--profile`, `--faults`, `--workload`, `--timeline`, `--trace`).
//! Each run setting resolves the same way: the builder's own setter,
//! else the sweep's `RunDefaults`, else off. Nothing here is
//! process-wide and nothing reads the environment, so two sweeps in one
//! process never see each other's settings, and what a test or a
//! reference run simulates never depends on ambient variables.

use crate::engine::Measurement;
use crate::experiment::{ExperimentBuilder, ExperimentError};
use crate::report::{measurement_to_json, RunReport, SCHEMA};
use pm_frameworks::Dataplane;
use pm_telemetry::{Json, Table};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

type Job =
    Box<dyn FnOnce() -> Result<(Measurement, Option<RunReport>), ExperimentError> + Send + 'static>;

/// The timeline window a bare `--timeline` selects, in µs.
pub const DEFAULT_TIMELINE_WINDOW_US: f64 = 100.0;

/// The run settings a command line turns on for every run of a sweep.
/// A run whose builder sets one of them explicitly keeps its own value;
/// [`RunDefaults::default`] is all off.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunDefaults {
    /// Per-element profiling (`--profile`).
    pub profile: bool,
    /// The fault plan injected into every run (`--faults <spec>`).
    pub faults: Option<pm_sim::FaultPlan>,
    /// The flow-population workload every run replays
    /// (`--workload <spec>`).
    pub workload: Option<pm_traffic::WorkloadSpec>,
    /// The flight-recorder timeline window in µs
    /// (`--timeline[=window_us]`).
    pub timeline_us: Option<f64>,
    /// Sampled per-packet lifecycle tracing, on whenever a
    /// `--trace <path>` destination is given.
    pub packet_trace: bool,
}

/// A benchmark binary's command line, parsed once by [`Cli::parse`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cli {
    /// The positional arguments before the first flag (`pm-bench`'s
    /// figure keys).
    pub keys: Vec<String>,
    /// Host worker count (`--threads N`); `None` uses every core.
    pub threads: Option<usize>,
    /// Where to write the JSON run-report artifact (`--json <path>`).
    pub json: Option<PathBuf>,
    /// Where to write the Chrome lifecycle trace (`--trace <path>`).
    pub trace: Option<PathBuf>,
    /// Simulated core count requested on the command line
    /// (`--cores N`). `None` leaves each figure's default in place.
    /// Note this is *simulated* cores inside one experiment, unlike
    /// `--threads`, which is host workers across experiments.
    pub cores: Option<usize>,
    /// Flow/route-scale ceiling requested on the command line
    /// (`--flows N`). `None` leaves each figure's default in place.
    pub flows: Option<u64>,
    /// The Figure 7 surface (`--surface n1|n5|both`), checked by the
    /// binary that runs it.
    pub surface: Option<String>,
    /// The run settings every sweep built from this command line
    /// applies ([`SweepSpec::from_cli`]).
    pub defaults: RunDefaults,
}

impl Cli {
    /// Parses `args` (the process arguments after the program name):
    /// the positional keys, then `--threads N`, `--profile`,
    /// `--faults <spec>`, `--workload <spec>`, `--flows N`, `--cores N`,
    /// `--surface <name>`, `--timeline[=window_us]`, `--trace <path>` and
    /// `--json <path>`. A value flag takes `--x v` or `--x=v`. Installs
    /// nothing: the returned value is the whole of what the command line
    /// asks for.
    ///
    /// # Errors
    ///
    /// An unknown flag, a positional argument after a flag, a value on
    /// `--profile`, a value flag without its value, a count that is not a
    /// [`pm_sim::spec::parse_count`] above zero, or an unparsable
    /// `--faults`, `--workload` or `--timeline=` value: running a
    /// different experiment than the one asked for is worse than exiting.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Cli, String> {
        let mut args = args.into_iter().peekable();
        let mut cli = Cli::default();
        let mut flagged = false;
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                if flagged {
                    return Err(format!("{arg}: positional arguments go before the flags"));
                }
                cli.keys.push(arg);
                continue;
            }
            flagged = true;
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (arg, None),
            };
            let mut value = || {
                inline
                    .clone()
                    .or_else(|| args.next_if(|v| !v.starts_with("--")))
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            let count = |v: String| {
                pm_sim::spec::parse_count(&v)
                    .filter(|&n| n > 0)
                    .ok_or_else(|| format!("{flag}: expected a count above 0, got '{v}'"))
            };
            let d = &mut cli.defaults;
            match flag.as_str() {
                "--threads" => cli.threads = Some(count(value()?)? as usize),
                "--cores" => cli.cores = Some(count(value()?)? as usize),
                "--flows" => cli.flows = Some(count(value()?)?),
                "--surface" => cli.surface = Some(value()?),
                "--faults" => {
                    let plan = pm_sim::FaultPlan::parse(&value()?)
                        .map_err(|e| format!("--faults: {e}"))?;
                    d.faults = Some(plan);
                }
                "--workload" => {
                    let spec = pm_traffic::WorkloadSpec::parse(&value()?)
                        .map_err(|e| format!("--workload: {e}"))?;
                    d.workload = Some(spec);
                }
                "--trace" => {
                    cli.trace = Some(PathBuf::from(value()?));
                    d.packet_trace = true;
                }
                "--json" => cli.json = Some(PathBuf::from(value()?)),
                "--profile" if inline.is_none() => d.profile = true,
                "--profile" => return Err("--profile takes no value".to_string()),
                // Bare, `=1` or `=` picks the default window, `=0` disables,
                // any other positive number is the window in µs.
                "--timeline" => {
                    d.timeline_us = match inline.as_deref() {
                        None | Some("" | "1") => Some(DEFAULT_TIMELINE_WINDOW_US),
                        Some("0") => None,
                        Some(w) => {
                            Some(w.parse::<f64>().ok().filter(|w| *w > 0.0).ok_or_else(|| {
                                format!("--timeline: invalid window '{w}' (µs, > 0)")
                            })?)
                        }
                    }
                }
                _ => return Err(format!("{flag}: unknown flag")),
            }
        }
        Ok(cli)
    }
}

/// What each of the five stateless shims below panics with when handed
/// anything but the off value. They exist only because the frozen
/// `benchmark/` crate pins the run defaults it never sets; ROADMAP item 1
/// (unfreezing `benchmark/`) deletes them.
const DEFAULTS_GONE: &str = "process-wide defaults are gone; set it on the builder or the `Cli`";

/// Stateless benchmark shim: accepts `false`, panics otherwise.
/// ROADMAP item 1 deletes it.
pub fn set_default_profile(on: bool) {
    assert!(!on, "{DEFAULTS_GONE}");
}

/// Stateless benchmark shim: accepts `None`, panics otherwise.
/// ROADMAP item 1 deletes it.
pub fn set_default_faults(plan: Option<pm_sim::FaultPlan>) {
    assert!(plan.is_none(), "{DEFAULTS_GONE}");
}

/// Stateless benchmark shim: accepts `None`, panics otherwise.
/// ROADMAP item 1 deletes it.
pub fn set_default_workload(spec: Option<pm_traffic::WorkloadSpec>) {
    assert!(spec.is_none(), "{DEFAULTS_GONE}");
}

/// Stateless benchmark shim: accepts `None`, panics otherwise.
/// ROADMAP item 1 deletes it.
pub fn set_default_timeline(window_us: Option<f64>) {
    assert!(window_us.is_none(), "{DEFAULTS_GONE}");
}

/// Stateless benchmark shim: accepts `None`, panics otherwise.
/// ROADMAP item 1 deletes it.
pub fn set_default_trace(path: Option<PathBuf>) {
    assert!(path.is_none(), "{DEFAULTS_GONE}");
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

/// A declarative list of labelled experiment runs, with the worker
/// count and the run defaults they execute under.
#[derive(Default)]
pub struct SweepSpec {
    runs: Vec<(String, Job)>,
    progress: bool,
    threads: Option<usize>,
    defaults: RunDefaults,
}

impl fmt::Debug for SweepSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepSpec")
            .field("runs", &self.runs.len())
            .field("progress", &self.progress)
            .field("threads", &self.threads)
            .field("defaults", &self.defaults)
            .finish()
    }
}

impl SweepSpec {
    /// An empty sweep: every run setting off unless its builder sets it,
    /// run on every core.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty sweep under `cli`'s worker count and [`RunDefaults`].
    pub fn from_cli(cli: &Cli) -> Self {
        SweepSpec {
            threads: cli.threads,
            defaults: cli.defaults.clone(),
            ..Self::default()
        }
    }

    /// Enables or disables per-run progress lines on stderr.
    #[must_use]
    pub fn progress(mut self, on: bool) -> Self {
        self.progress = on;
        self
    }

    /// Appends one experiment. The builder carries every parameter of
    /// the run, including its explicit RNG seed, so the run's result
    /// does not depend on where or when a worker picks it up. Run
    /// settings the builder leaves unset come from the sweep's
    /// [`RunDefaults`].
    pub fn push(&mut self, label: impl Into<String>, builder: ExperimentBuilder) -> &mut Self {
        let builder = builder.or_defaults(&self.defaults);
        self.runs.push((
            label.into(),
            Box::new(move || builder.run_with_report().map(|(m, r)| (m, Some(r)))),
        ));
        self
    }

    /// Appends one experiment run over a non-FastClick dataplane (the
    /// Fig. 11 framework comparators; see
    /// [`ExperimentBuilder::run_with_dataplane`]), with the same
    /// defaulting as [`Self::push`]. Such runs produce no [`RunReport`];
    /// their artifact carries the measurement only.
    pub fn push_dataplane<F>(
        &mut self,
        label: impl Into<String>,
        builder: ExperimentBuilder,
        factory: F,
    ) -> &mut Self
    where
        F: Fn() -> Box<dyn Dataplane> + Send + 'static,
    {
        let builder = builder.or_defaults(&self.defaults);
        self.runs.push((
            label.into(),
            Box::new(move || builder.run_with_dataplane(factory).map(|m| (m, None))),
        ));
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

    /// Executes the sweep on its `--threads` worker count, else on
    /// [`std::thread::available_parallelism`] workers.
    pub fn run(self) -> SweepResults {
        let threads = self
            .threads
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
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

    fn cli(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn cli_reads_counts_and_paths_and_skips_the_binarys_own_arguments() {
        let c = cli(&[
            "fig7",
            "table1",
            "--surface",
            "n1",
            "--cores",
            "4",
            "--flows=10k",
            "--json",
            "a.json",
            "--threads=2",
            "--profile",
            "--timeline=25",
            "--trace",
            "t.json",
        ]);
        let c = c.expect("valid command line");
        assert_eq!(c.keys, ["fig7", "table1"]);
        assert_eq!(c.surface.as_deref(), Some("n1"));
        assert_eq!(c.cores, Some(4));
        assert_eq!(c.flows, Some(10_000));
        assert_eq!(c.threads, Some(2));
        assert_eq!(c.json, Some(PathBuf::from("a.json")));
        assert_eq!(c.trace, Some(PathBuf::from("t.json")));
        let d = &c.defaults;
        assert!(d.profile && d.packet_trace);
        assert_eq!(d.timeline_us, Some(25.0));
        assert_eq!((d.faults.as_ref(), d.workload.as_ref()), (None, None));
        assert_eq!(cli(&["--flows", "0x10"]).unwrap().flows, Some(16));
        assert_eq!(
            cli(&["--surface=n5"]).unwrap().surface.as_deref(),
            Some("n5")
        );
        assert_eq!(
            cli(&["--timeline"]).unwrap().defaults.timeline_us,
            Some(DEFAULT_TIMELINE_WINDOW_US)
        );
        assert_eq!(cli(&[]).unwrap(), Cli::default());
    }

    #[test]
    fn cli_rejects_every_bad_form() {
        for bad in [
            &["--threads", "x"][..],
            &["--threads=0"],
            &["--threads"],
            &["--thread", "2"],
            &["--profle"],
            &["--profile=0"],
            &["--surface"],
            &["--cores", "-1"],
            &["--cores", "--profile"],
            &["--flows", "1.5"],
            &["--json"],
            &["--trace"],
            &["--faults", "bitflip@..:rate=7"],
            &["--workload=zipf=x"],
            &["--timeline=abc"],
            &["--timeline=-5"],
        ] {
            let e = cli(bad).expect_err(&format!("{bad:?} must be rejected"));
            assert!(
                e.starts_with(bad[0].split('=').next().unwrap()),
                "{bad:?}: {e}"
            );
        }
        // A value the parser does not take is not skipped either.
        let e = cli(&["fig4", "--timeline", "25"]).expect_err("stray value");
        assert!(e.starts_with("25:"), "{e}");
    }

    #[test]
    fn a_sweep_fills_only_what_its_builders_leave_unset() {
        let c = cli(&["--profile", "--faults", "seed=1;drop@..:rate=2000ppm"]).unwrap();
        let builder = mini_builder(0).fault_plan(pm_sim::FaultPlan::default());
        let filled = builder.clone().or_defaults(&c.defaults);
        assert!(filled.profile_effective(), "unset: the sweep's default");
        assert!(filled.fault_plan_effective().is_none(), "set: its own plan");
        assert!(!builder.profile_effective(), "a bare builder is all off");
        assert!(!mini_builder(0)
            .profile(false)
            .or_defaults(&c.defaults)
            .profile_effective());
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
