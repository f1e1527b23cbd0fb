//! The untraced pass: end-to-end metrics of one workload.
//!
//! Load shape: batch, one process, one sweep worker, repetitions back to
//! back. One discarded warm-up repetition fills the process-wide trace
//! cache (as run 1 of any real sweep does), then timed repetitions run
//! until the `--seconds` window is used (at least [`MIN_REPS`]). Every
//! reported host-time value is a median; peak RSS is read once, after
//! the process's first repetition.

use crate::assembly;
use crate::fidelity;
use crate::stats::fnv1a;
use crate::workloads::{self, RunSpec};
use packetmill::sweep::artifact_document;
use packetmill::{Measurement, SweepResults, SweepSpec};
use std::time::Instant;

/// Fewest timed repetitions, however long each takes.
pub const MIN_REPS: usize = 3;
/// Set-up passes per process: at least `SETUP_PASSES.0`, then more
/// while they fit in [`SETUP_WINDOW_S`], up to `SETUP_PASSES.1` (cheap
/// set-ups are the noisiest). The reported `setup_s` is their median.
pub const SETUP_PASSES: (usize, usize) = (5, 41);
pub const SETUP_WINDOW_S: f64 = 1.5;

/// One repetition of a workload: the sweep, its serialised artifact and
/// the host seconds both took.
pub struct Rep {
    pub seconds: f64,
    pub artifact: String,
    pub results: SweepResults,
}

/// Runs every run of the workload once through the facade's sweep
/// runner and serialises the artifact exactly as `--json` does.
pub fn repetition(name: &str, runs: &[RunSpec], threads: usize) -> Rep {
    let started = Instant::now();
    let mut sweep = SweepSpec::new();
    for r in runs {
        sweep.push(r.label.clone(), r.builder());
    }
    let results = sweep.run_with_threads(threads);
    let artifact = artifact_document(vec![results.to_json(name)]).to_pretty();
    Rep {
        seconds: started.elapsed().as_secs_f64(),
        artifact,
        results,
    }
}

/// Runs of `results` that fail a check: an error or panic (which is how
/// an unbalanced aggregate ledger surfaces — the engine asserts it), a
/// per-queue or fault ledger that does not balance, or nothing sent.
pub fn failed_runs(results: &SweepResults) -> Vec<String> {
    let mut failed = Vec::new();
    for o in &results.outcomes {
        let why = match (&o.result, &o.report) {
            (Err(e), _) => Some(e.clone()),
            (Ok(m), _) if m.tx_packets == 0 => Some("tx_packets == 0".to_string()),
            (Ok(_), Some(r)) => {
                let queues_ok = r.cores.iter().flatten().all(|q| q.balances());
                let faults_ok = r.faults.as_ref().is_none_or(|f| f.ledger.balances());
                (!(queues_ok && faults_ok)).then(|| "conservation ledger unbalanced".to_string())
            }
            (Ok(_), None) => Some("run produced no report".to_string()),
        };
        if let Some(why) = why {
            failed.push(format!("{}: {why}", o.label));
        }
    }
    failed
}

/// `(label, measurement)` of every successful run.
pub fn measurements(results: &SweepResults) -> Vec<(String, Measurement)> {
    results
        .outcomes
        .iter()
        .filter_map(|o| o.result.as_ref().ok().map(|m| (o.label.clone(), *m)))
        .collect()
}

/// What the untraced pass measured.
pub struct EndToEnd {
    /// Host seconds of each timed repetition.
    pub rep_seconds: Vec<f64>,
    /// Σ generated packets of one repetition.
    pub packets: u64,
    /// Host seconds of each set-up pass (Σ over the workload's runs).
    pub setup_seconds: Vec<f64>,
    pub peak_rss_mib: f64,
    pub paper_err_throughput: fidelity::MeanError,
    pub paper_err_ipc: fidelity::MeanError,
    /// FNV-1a of the first timed repetition's artifact.
    pub sim_digest: u64,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// `VmHWM` of this process in MiB (Linux; 0 elsewhere, which the
/// caller reports as a failed check).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The untraced pass over workload `name`.
pub fn end_to_end(name: &str, seed: u64, seconds: f64, quick: bool) -> EndToEnd {
    let runs = workloads::runs(name, seed, quick);
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    // Peak RSS of one sweep in a fresh process (what the user of a sweep
    // binary sees): read after the process's first repetition only.
    // Later repetitions raise `VmHWM` by a whole 8 MiB step of glibc's
    // heap at a repetition that depends on the seed — that is the
    // benchmark's repeating, not the program's footprint.
    let mut peak_rss_mib = None;
    let mut check = |rep: &Rep, failures: &mut Vec<String>| {
        peak_rss_mib.get_or_insert_with(self::peak_rss_mib);
        attempted += rep.results.outcomes.len() as u64;
        failures.extend(failed_runs(&rep.results));
    };

    // Quick: one repetition and one set-up pass, no warm-up, no windows.
    let (min_reps, rep_window_s, min_passes, setup_window_s) = if quick {
        (1, 0.0, 1, 0.0)
    } else {
        check(&repetition(name, &runs, 1), &mut failures);
        (MIN_REPS, seconds, SETUP_PASSES.0, SETUP_WINDOW_S)
    };
    let window = Instant::now();
    let mut rep_seconds = Vec::new();
    let mut first: Option<Rep> = None;
    while rep_seconds.len() < min_reps || window.elapsed().as_secs_f64() < rep_window_s {
        let rep = repetition(name, &runs, 1);
        check(&rep, &mut failures);
        rep_seconds.push(rep.seconds);
        match &first {
            None => first = Some(rep),
            Some(f) if f.artifact != rep.artifact => failures.push(format!(
                "repetition {} artifact differs from the first (digest {:016x} vs {:016x})",
                rep_seconds.len(),
                fnv1a(rep.artifact.as_bytes()),
                fnv1a(f.artifact.as_bytes()),
            )),
            Some(_) => {}
        }
    }
    let first = first.expect("at least one timed repetition");

    let window = Instant::now();
    let mut setup_seconds = Vec::new();
    while setup_seconds.len() < min_passes
        || (setup_seconds.len() < SETUP_PASSES.1 && window.elapsed().as_secs_f64() < setup_window_s)
    {
        let pass = runs
            .iter()
            .map(|r| assembly::assemble(r, false).setup.total());
        setup_seconds.push(pass.sum());
    }

    let probe = repetition(
        "paper_reference",
        &workloads::reference_runs(seed, workloads::GRID_PACKETS),
        1,
    );
    check(&probe, &mut failures);
    let (paper_err_throughput, paper_err_ipc) =
        fidelity::errors(&fidelity::points(), &measurements(&probe.results)).unwrap_or_else(|e| {
            failures.push(format!("paper reference: {e}"));
            ((f64::NAN, 0), (f64::NAN, 0))
        });

    let peak_rss_mib = peak_rss_mib.expect("read after the first repetition");
    if peak_rss_mib <= 0.0 {
        failures.push("VmHWM unreadable".to_string());
    }
    EndToEnd {
        rep_seconds,
        packets: runs.iter().map(|r| r.packets as u64).sum(),
        setup_seconds,
        peak_rss_mib,
        paper_err_throughput,
        paper_err_ipc,
        sim_digest: fnv1a(first.artifact.as_bytes()),
        attempted,
        failures,
    }
}
