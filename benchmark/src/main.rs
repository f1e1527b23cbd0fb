//! `pm-benchmark`: the repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! pm-benchmark run   [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE]
//! pm-benchmark trace [...]            # run --trace 1
//! pm-benchmark compare A.json B.json
//! ```
//!
//! `run --workload W` measures one workload in this process and prints,
//! after a table, one JSON line `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Without `--workload`, every workload runs
//! in a child process of its own, so peak RSS is per workload.

mod assembly;
mod compare;
mod fidelity;
mod layers;
mod metrics;
mod record;
mod run;
mod stats;
mod trace;
mod workloads;

use metrics::{Sample, END_TO_END, PER_LAYER};
use record::RunRecord;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: pm-benchmark run|trace [--workload W] [--seed N] [--seconds S] \
[--trace 0|1] [--quick] [--out FILE]\n       pm-benchmark compare A.json B.json";

/// Where the traced pass writes its Chrome traces, relative to the
/// directory the benchmark is run from (the repo root).
const OUT_DIR: &str = "benchmark/out";

#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_run_args(args: &[String], traced: bool) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: None,
        seed: 0xCAFE,
        seconds: 10.0,
        traced,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            out.quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                if !workloads::WORKLOADS.iter().any(|w| w.name == value) {
                    return Err(format!("unknown workload '{value}'"));
                }
                out.workload = Some(value.clone());
            }
            "--seed" => out.seed = parse_u64(value).ok_or_else(bad)?,
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1.0..=60.0).contains(s))
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                out.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => out.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    if out.quick && out.out.is_some() {
        return Err("--quick numbers are not comparable and are not recorded: drop --out".into());
    }
    Ok(out)
}

/// Measures one workload in this process.
fn run_workload(name: &str, args: &RunArgs) -> Result<bool, String> {
    // The benchmark sets every knob on its builders; pin the
    // process-wide defaults so PM_* environment variables cannot change
    // what is measured.
    packetmill::sweep::set_default_profile(false);
    packetmill::sweep::set_default_faults(None);
    packetmill::sweep::set_default_workload(None);
    packetmill::sweep::set_default_timeline(None);
    packetmill::sweep::set_default_trace(None);

    let (mut record, defs) = if args.traced {
        let t = trace::traced(name, args.seed, args.quick);
        trace::write_chrome_trace(Path::new(OUT_DIR), name, &t)
            .map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let record = RunRecord {
            workload: name.to_string(),
            seed: args.seed,
            traced: true,
            attempted: t.attempted,
            failures: t.failures,
            sim_digest: None,
            metrics: t.metrics,
        };
        (record, &PER_LAYER[..])
    } else {
        let e = run::end_to_end(name, args.seed, args.seconds, args.quick);
        let rate = e.rep_seconds.iter().map(|s| e.packets as f64 / s).collect();
        let metrics = vec![
            Sample::median_of("sim_pkts_per_host_s", rate),
            Sample::median_of("setup_s", e.setup_seconds.clone()),
            Sample::over("peak_rss_mib", e.peak_rss_mib, 1),
            Sample::over(
                "paper_err_throughput_pct",
                e.paper_err_throughput.0,
                e.paper_err_throughput.1,
            ),
            Sample::over("paper_err_ipc_pct", e.paper_err_ipc.0, e.paper_err_ipc.1),
        ];
        let record = RunRecord {
            workload: name.to_string(),
            seed: args.seed,
            traced: false,
            attempted: e.attempted,
            failures: e.failures,
            sim_digest: Some(e.sim_digest),
            metrics,
        };
        (record, &END_TO_END[..])
    };

    for d in defs {
        if !record.metrics.iter().any(|m| m.name == d.name) {
            record
                .failures
                .push(format!("metric {} not measured", d.name));
        }
    }

    print!("{}", record.table(defs));
    if args.quick {
        println!("quick: numbers not comparable");
    }
    if let Some(path) = &args.out {
        record::append(path, record.to_json(defs))?;
    }
    println!("{}", record.result_line(defs));
    Ok(record.correct())
}

/// Runs every workload, each in a child process of its own.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut ok = true;
    for w in &workloads::WORKLOADS {
        println!("## {} — {}", w.name, w.why);
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["run", "--workload", w.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }]);
        if args.quick {
            cmd.arg("--quick");
        }
        if let Some(out) = &args.out {
            cmd.arg("--out").arg(out);
        }
        let status = cmd.status().map_err(|e| format!("spawn {}: {e}", w.name))?;
        ok &= status.success();
        println!();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some(cmd @ ("run" | "trace")) => {
            parse_run_args(&args[1..], cmd == "trace").and_then(|a| match &a.workload {
                Some(w) => run_workload(w, &a),
                None => run_all(&a),
            })
        }
        Some("compare") if args.len() == 3 => {
            compare::compare(Path::new(&args[1]), Path::new(&args[2]))
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("pm-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_invocation_parses() {
        let a = parse_run_args(
            &args("--workload nf_heavy --seed 7 --seconds 10 --trace 1"),
            false,
        )
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("nf_heavy"));
        assert_eq!(
            (a.seed, a.seconds, a.traced, a.quick),
            (7, 10.0, true, false)
        );
        assert_eq!(
            parse_run_args(&args("--seed 0xCAFE"), false).unwrap().seed,
            0xCAFE
        );
        assert!(
            parse_run_args(&[], true).unwrap().traced,
            "`trace` subcommand"
        );
    }

    #[test]
    fn bad_invocations_are_rejected() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds 61",
            "--trace 2",
            "--frobnicate 1",
            "--seed",
            "--quick --out x.json",
        ] {
            assert!(parse_run_args(&args(bad), false).is_err(), "{bad}");
        }
    }
}
