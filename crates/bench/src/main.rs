//! Regenerates the paper's tables and figures on the parallel sweep
//! runner: `cargo run --release -p pm-bench -- <key>… | all
//! [--threads N] [--profile] [--json <path>] [--trace <path>]
//! [--faults <spec>] [--workload <spec>] [--timeline[=window_us]]`.
//! Keys come first, flags after; no key prints the list, and so does an
//! unknown flag, a bad value or a `--json`/`--trace` path in a missing
//! directory, exiting 2 before anything runs. A write that still fails
//! after the sweep exits 1. Tables go to stdout, sweep telemetry to
//! stderr.
//!
//! `fig7` runs both surfaces under `== N = … ==` headings
//! (`--surface n1|n5|both` picks) and `ablations` the six ablation
//! studies under theirs; `fig-multicore` takes `--cores N`
//! (default 8) and `fig-flowscale` `--flows N` (default 10M — the full
//! Internet-scale sweep); under `all` they stop at 4 cores and 100k
//! flows. `fig-timeline` always records, so it needs no `--timeline`;
//! with `--trace <path>` its sampled packet lifecycles open in
//! `ui.perfetto.dev`.

use packetmill::Cli;
use pm_bench::figures::{self, Artifact, Figure, ABLATIONS, FIGURES};

fn usage(problem: &str) -> ! {
    eprintln!("{problem}\nusage: pm-bench <key>... | all [--flags]\nkeys:");
    eprintln!("  fig7  both Figure 7 surfaces (--surface n1|n5|both)");
    eprintln!("  ablations  all six ablation studies");
    for f in FIGURES.iter().chain(&ABLATIONS) {
        eprintln!("  {}  {}", f.key, f.title);
    }
    std::process::exit(2);
}

fn find(key: &str) -> &'static Figure {
    FIGURES
        .iter()
        .chain(&ABLATIONS)
        .find(|f| f.key == key)
        .unwrap_or_else(|| usage(&format!("unknown figure '{key}'")))
}

/// The Figure 7 surfaces `--surface` selects, each under its heading.
fn fig7_surfaces(surface: Option<&str>) -> Vec<(Option<&'static str>, &'static Figure)> {
    let n1 = (Some("N = 1"), find("fig7-n1"));
    let n5 = (Some("N = 5"), find("fig7-n5"));
    match surface.unwrap_or("both") {
        "n1" => vec![n1],
        "n5" => vec![n5],
        "both" => vec![n1, n5],
        other => usage(&format!(
            "unknown --surface '{other}' (expected n1, n5, or both)"
        )),
    }
}

fn main() {
    let cli = Cli::parse(std::env::args().skip(1)).unwrap_or_else(|e| usage(&e));
    figures::check_cli_outputs(&cli).unwrap_or_else(|e| usage(&e));
    let groups: Vec<(&str, Artifact)> = if cli.keys == ["all"] {
        figures::run_all(&cli)
    } else {
        // Resolve every key before running anything: a typo should not
        // cost a sweep.
        let mut plan = Vec::new();
        for key in &cli.keys {
            if key == "fig7" {
                plan.extend(fig7_surfaces(cli.surface.as_deref()));
            } else if key == "ablations" {
                plan.extend(ABLATIONS.iter().map(|f| (Some(f.title), f)));
            } else {
                plan.push((None, find(key)));
            }
        }
        if plan.is_empty() {
            usage("no figure named");
        }
        plan.into_iter()
            .map(|(heading, figure)| {
                if let Some(heading) = heading {
                    println!("== {heading} ==\n");
                }
                let artifact = (figure.run)(&cli);
                artifact.emit();
                (figure.key, artifact)
            })
            .collect()
    };
    let refs: Vec<(&str, &Artifact)> = groups.iter().map(|(n, a)| (*n, a)).collect();
    if let Err(e) = figures::write_cli_outputs(&cli, &refs) {
        eprintln!("pm-bench: {e}");
        std::process::exit(1);
    }
}
