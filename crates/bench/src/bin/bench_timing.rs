//! Wall-clock timing harness for the simulator itself — host seconds,
//! not simulated cycles. Run with
//! `cargo run --release -p pm-bench --bin bench_timing --
//!  --bench-json BENCH_simulator.json [--rounds N] [--threads N]
//!  [--only <substring>]`.
//!
//! Times the headline surfaces — the fig7 N = 1 golden surface, the full
//! fig7 sweep (N = 1 and N = 5), the complete `figures_all`
//! regeneration, and the `fig_multicore` cores = 1..=8 scaling sweep —
//! as `--rounds` (default 3) round-robin-interleaved passes: every
//! benchmark runs once per round before any runs twice, so slow host
//! drift (thermal throttling, noisy neighbours) biases all of them
//! roughly equally instead of penalizing whichever happened to run last.
//! Before the timed rounds, `--warmup` (default 1) whole interleaved
//! rounds run and are discarded: the first pass through each benchmark
//! pays one-time host costs no steady sample should carry — binary
//! page-in, allocator arena growth, branch-predictor training on the
//! simulator's hot loops. For an A/B comparison between two checkouts,
//! run this harness from each build alternately and compare the emitted
//! files; within one invocation the interleaving only de-skews the
//! benchmarks against each other.
//!
//! The emitted JSON (`BENCH_simulator.json` by convention) records the
//! per-round samples plus mean and min. **`min_s` is the headline
//! statistic**: wall-clock noise on a loaded host is strictly additive
//! (nothing makes a deterministic simulation run faster than its code),
//! so the minimum over warm rounds is the best estimate of true cost;
//! `mean_s` is kept only to make drift visible in diffs. The file is
//! deliberately host-field-free: no hostname, CPU model, core count, or
//! timestamp, so two committed files diff meaningfully and the only
//! varying fields are the measurements themselves. Tables still print to
//! stdout while timing (the work must be real); redirect to `/dev/null`
//! when only the JSON matters.

use packetmill::Json;
use std::time::Instant;

/// Rounds a sample to milliseconds: wall-clock below that is pure host
/// noise and only churns committed diffs.
fn ms(secs: f64) -> f64 {
    (secs * 1000.0).round() / 1000.0
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut bench_json: Option<std::path::PathBuf> = None;
    let mut rounds = 3usize;
    let mut warmup = 1usize;
    let mut threads = 1usize;
    let mut only: Option<String> = None;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--bench-json" => {
                bench_json = args.get(i + 1).map(Into::into);
                i += 1;
            }
            "--rounds" => {
                rounds = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(rounds);
                i += 1;
            }
            "--warmup" => {
                warmup = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(warmup);
                i += 1;
            }
            "--threads" => {
                threads = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(threads);
                i += 1;
            }
            "--only" => {
                only = args.get(i + 1).cloned();
                i += 1;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!("usage: bench_timing --bench-json <path> [--rounds N] [--warmup N] [--threads N] [--only <substring>]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let Some(path) = bench_json else {
        eprintln!("--bench-json <path> is required");
        std::process::exit(2);
    };

    // Single-threaded by default: the recorded targets are per-core
    // simulator speed, and one worker keeps samples comparable across
    // machines with different core counts.
    packetmill::sweep::set_default_threads(threads);
    packetmill::sweep::set_default_profile(false);
    // Per-run progress lines are pure stderr traffic but thousands of
    // them are not free; keep the timed region honest about what a
    // redirected CI invocation pays.
    if std::env::var("PM_PROGRESS").is_err() {
        std::env::set_var("PM_PROGRESS", "0");
    }

    type BenchFn = fn();
    let benches: Vec<(&str, &str, BenchFn)> = vec![
        (
            "fig7_n1",
            "fig7 N=1 surface (the golden fixture sweep)",
            || drop(pm_bench::figures::fig7(1)),
        ),
        ("fig7", "full fig7 sweep, N=1 and N=5 surfaces", || {
            drop(pm_bench::figures::fig7(1));
            drop(pm_bench::figures::fig7(5));
        }),
        (
            "figures_all",
            "every paper table/figure regenerated once",
            || drop(pm_bench::figures::run_all()),
        ),
        (
            "fig_multicore_c8",
            "multi-core scaling sweep, 5 NFs x cores 1..=8",
            || drop(pm_bench::figures::fig_multicore(8)),
        ),
        (
            "fig_timeline",
            "flight-recorder showcase (timeline + trace recording on)",
            || drop(pm_bench::figures::fig_timeline()),
        ),
        (
            "fig_flowscale",
            "flow-scale sweep, 3 stateful NFs x flows 1k..=1M x 2 page modes",
            || drop(pm_bench::figures::fig_flowscale(1_000_000)),
        ),
    ];
    let benches: Vec<_> = benches
        .into_iter()
        .filter(|(name, _, _)| only.as_deref().is_none_or(|o| name.contains(o)))
        .collect();
    if benches.is_empty() {
        eprintln!("--only '{}' matches no benchmark", only.unwrap_or_default());
        std::process::exit(2);
    }

    for round in 0..warmup {
        for (name, _, run) in &benches {
            let start = Instant::now();
            run();
            let secs = start.elapsed().as_secs_f64();
            eprintln!(
                "bench {name} warmup {}/{warmup}: {secs:.3} s (discarded)",
                round + 1
            );
        }
    }
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); benches.len()];
    for round in 0..rounds {
        for (i, (name, _, run)) in benches.iter().enumerate() {
            let start = Instant::now();
            run();
            let secs = start.elapsed().as_secs_f64();
            eprintln!("bench {name} round {}/{rounds}: {secs:.3} s", round + 1);
            samples[i].push(secs);
        }
    }
    for ((name, _, _), s) in benches.iter().zip(&samples) {
        let min = s.iter().copied().fold(f64::INFINITY, f64::min);
        eprintln!("bench {name} min: {min:.3} s");
    }

    let doc = Json::obj(vec![
        ("schema", Json::Str("packetmill-bench/v1".into())),
        (
            "config",
            Json::obj(vec![
                ("threads", Json::U64(threads as u64)),
                ("rounds", Json::U64(rounds as u64)),
                ("warmup", Json::U64(warmup as u64)),
                ("interleaved", Json::Bool(true)),
                ("profile", Json::Bool(false)),
            ]),
        ),
        (
            "benchmarks",
            Json::Arr(
                benches
                    .iter()
                    .zip(&samples)
                    .map(|((name, what, _), s)| {
                        let mean = s.iter().sum::<f64>() / s.len() as f64;
                        let min = s.iter().copied().fold(f64::INFINITY, f64::min);
                        Json::obj(vec![
                            ("name", Json::Str((*name).into())),
                            ("what", Json::Str((*what).into())),
                            (
                                "samples_s",
                                Json::Arr(s.iter().map(|&v| Json::F64(ms(v))).collect()),
                            ),
                            ("mean_s", Json::F64(ms(mean))),
                            ("min_s", Json::F64(ms(min))),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    std::fs::write(&path, doc.to_pretty()).expect("write --bench-json file");
    eprintln!("wrote {}", path.display());
}
