//! What a run simulates comes from its builder and from the
//! `RunDefaults` its sweep carries — never from the process environment
//! and never from another sweep in the same process. Earlier versions
//! read a `PM_<OPTION>` variable behind every default, inside the
//! library, so an ambient variable changed what tests and reference runs
//! simulated, and an unparsable one panicked every run in the process;
//! later ones kept the command line's defaults in process-wide statics.

use packetmill::{Cli, ExperimentBuilder, Nf, SweepResults, SweepSpec};
use std::sync::Barrier;

#[test]
fn ambient_variables_do_not_reach_a_builder() {
    for (option, value) in [
        ("FAULTS", "not-a-spec"),
        ("WORKLOAD", "not-a-spec"),
        ("PROFILE", "1"),
        ("TIMELINE", "1"),
        ("TRACE", "ambient-trace.json"),
        ("THREADS", "3"),
    ] {
        std::env::set_var(format!("PM_{option}"), value);
    }
    let b = ExperimentBuilder::new(Nf::Forwarder);
    assert!(b.fault_plan_effective().is_none());
    assert!(b.workload_effective().is_none());
    assert!(!b.profile_effective());
    assert!(b.timeline_us_effective().is_none());
    assert!(!b.packet_trace_effective());
    let cli = Cli::parse(Vec::new()).expect("an empty command line");
    assert_eq!(cli, Cli::default(), "no worker count, no run default");
}

/// A two-run sweep under the settings `args` asks for.
fn sweep(args: &[&str]) -> SweepSpec {
    let cli = Cli::parse(args.iter().map(|a| a.to_string())).expect("valid command line");
    let mut s = SweepSpec::from_cli(&cli);
    for (i, nf) in [Nf::Forwarder, Nf::Router].into_iter().enumerate() {
        s.push(
            format!("{nf:?}"),
            ExperimentBuilder::new(nf)
                .packets(3_000)
                .seed(0xA3B1 + i as u64),
        );
    }
    s
}

const PROFILED_FAULTED: [&str; 5] = [
    "--profile",
    "--faults",
    "seed=0xF417;drop@..:rate=2000ppm;flap@40us..60us",
    "--threads",
    "2",
];

fn artifact(r: &SweepResults) -> String {
    r.to_json("sweep").to_pretty()
}

#[test]
fn defaults_are_per_sweep_not_per_process() {
    let alone = (
        artifact(&sweep(&PROFILED_FAULTED).run()),
        artifact(&sweep(&[]).run()),
    );
    // Both sweeps exist, defaults applied, before either runs.
    let both_built = Barrier::new(2);
    let side_by_side = |args: &'static [&'static str]| {
        let s = sweep(args);
        both_built.wait();
        s.run()
    };
    let (with, without) = std::thread::scope(|s| {
        let with = s.spawn(|| side_by_side(&PROFILED_FAULTED));
        let without = s.spawn(|| side_by_side(&[]));
        (
            with.join().expect("profiled sweep"),
            without.join().expect("plain sweep"),
        )
    });
    assert_eq!(
        (artifact(&with), artifact(&without)),
        alone,
        "each sweep's artifact must equal the same sweep run alone"
    );
    for o in &with.outcomes {
        let r = o.report.as_ref().expect("builder runs carry reports");
        assert!(r.profile.is_some() && r.faults.is_some(), "{}", o.label);
    }
    for o in &without.outcomes {
        let r = o.report.as_ref().expect("builder runs carry reports");
        assert!(r.profile.is_none() && r.faults.is_none(), "{}", o.label);
    }
}
