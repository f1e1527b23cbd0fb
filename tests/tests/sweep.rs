//! The parallel sweep runner's contract: bit-identical results at any
//! thread count, input-order collection, and panic isolation.

use packetmill::{
    Dataplane, ExperimentBuilder, Measurement, MetadataModel, Nf, OptLevel, SweepSpec,
};

/// A 12-configuration mini-sweep spanning NFs, metadata models, and
/// optimization levels — small enough to run three times in a test,
/// varied enough that a scheduling-dependent bug would show up as a
/// field mismatch somewhere.
fn mini_sweep() -> SweepSpec {
    mini_sweep_with(false)
}

/// Same grid, optionally with per-element profiling (set explicitly on
/// every builder).
fn mini_sweep_with(profile: bool) -> SweepSpec {
    let nfs = [Nf::Forwarder, Nf::Router, Nf::Nat];
    let variants = [
        (MetadataModel::Copying, OptLevel::Vanilla),
        (MetadataModel::Overlaying, OptLevel::Vanilla),
        (MetadataModel::XChange, OptLevel::AllSource),
        (MetadataModel::XChange, OptLevel::Full),
    ];
    let mut spec = SweepSpec::new();
    for (i, nf) in nfs.into_iter().enumerate() {
        for (model, opt) in variants {
            spec.push(
                format!("{nf:?}/{model:?}/{opt:?}"),
                ExperimentBuilder::new(nf.clone())
                    .metadata_model(model)
                    .optimization(opt)
                    .frequency_ghz(2.3)
                    .packets(4_000)
                    .seed(0x5EED ^ i as u64)
                    .profile(profile),
            );
        }
    }
    assert_eq!(spec.len(), 12);
    spec
}

fn assert_measurements_identical(a: &[Measurement], b: &[Measurement], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: run counts differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        // Measurement is PartialEq over every field; compare via Debug on
        // mismatch so the failing field is visible in the assertion output.
        assert_eq!(x, y, "{what}: run {i} differs:\n  {x:?}\n  {y:?}");
    }
}

#[test]
fn sweep_is_deterministic_across_thread_counts() {
    let serial = mini_sweep().run_with_threads(1).expect_all();
    let two = mini_sweep().run_with_threads(2).expect_all();
    let eight = mini_sweep().run_with_threads(8).expect_all();
    assert_measurements_identical(&serial, &two, "threads=1 vs threads=2");
    assert_measurements_identical(&serial, &eight, "threads=1 vs threads=8");
}

#[test]
fn sweep_results_are_in_input_order() {
    let results = mini_sweep().run_with_threads(8);
    let labels: Vec<&str> = results.outcomes.iter().map(|o| o.label.as_str()).collect();
    let expected: Vec<String> = mini_sweep()
        .run_with_threads(1)
        .outcomes
        .into_iter()
        .map(|o| o.label)
        .collect();
    assert_eq!(labels, expected);
}

#[test]
fn panicking_experiment_is_reported_without_poisoning_the_sweep() {
    let mut spec = SweepSpec::new();
    spec.push(
        "healthy-before",
        ExperimentBuilder::new(Nf::Forwarder).packets(2_000),
    );
    spec.push_dataplane(
        "deliberate-panic",
        ExperimentBuilder::new(Nf::Forwarder).packets(2_000),
        || -> Box<dyn Dataplane> { panic!("injected failure for test") },
    );
    spec.push(
        "healthy-after",
        ExperimentBuilder::new(Nf::Router).packets(2_000),
    );

    let results = spec.run_with_threads(4);
    assert_eq!(results.outcomes.len(), 3);

    assert_eq!(
        results.failures(),
        1,
        "exactly the injected panic should fail"
    );
    let failed: Vec<_> = results
        .outcomes
        .iter()
        .filter(|o| o.result.is_err())
        .collect();
    assert_eq!(failed[0].label, "deliberate-panic");
    let err = failed[0].result.as_ref().unwrap_err();
    assert!(
        err.contains("injected failure for test"),
        "panic message should be captured, got: {err}"
    );

    // The healthy runs on either side of the panic still completed.
    assert!(
        results.outcomes[0].result.is_ok(),
        "run before panic poisoned"
    );
    assert!(
        results.outcomes[2].result.is_ok(),
        "run after panic poisoned"
    );
    assert_eq!(results.report().runs, 3);
    assert_eq!(results.report().failures, 1);
}

/// The full structured artifact — measurements, configs, and per-element
/// profiles — serializes byte-identically at any worker count.
#[test]
fn profiled_sweep_artifacts_are_byte_identical_across_thread_counts() {
    let json_of = |threads: usize| {
        mini_sweep_with(true)
            .run_with_threads(threads)
            .to_json("mini")
            .to_pretty()
    };
    let serial = json_of(1);
    assert_eq!(serial, json_of(2), "threads=1 vs threads=2");
    assert_eq!(serial, json_of(8), "threads=1 vs threads=8");

    // The artifact really carries profiles: every run has a records
    // array with a populated rx/pmd stage.
    let doc = packetmill::Json::parse(&serial).expect("valid JSON");
    let runs = match doc.get("runs") {
        Some(packetmill::Json::Arr(v)) => v,
        other => panic!("runs not an array: {other:?}"),
    };
    assert_eq!(runs.len(), 12);
    for run in runs {
        let profile = run.get("profile").expect("profile key");
        let records = match profile.get("records") {
            Some(packetmill::Json::Arr(v)) => v,
            other => panic!("records not an array: {other:?}"),
        };
        assert!(
            records.iter().any(|r| {
                matches!(r.get("name"), Some(packetmill::Json::Str(s)) if s == "rx/pmd")
            }),
            "every profiled run attributes the rx/pmd stage"
        );
    }
}

/// Profiling is pure observation: enabling it must not change any
/// measured number.
#[test]
fn profiling_does_not_change_measurements() {
    let plain = mini_sweep_with(false).run_with_threads(4).expect_all();
    let profiled = mini_sweep_with(true).run_with_threads(4).expect_all();
    assert_measurements_identical(&plain, &profiled, "profile off vs on");
}

/// A 4-KiB and a hugepage run of one synthesized-FIB router: the pair a
/// flow-scale sweep hands the table across.
fn router_scale_pair() -> Vec<(String, ExperimentBuilder)> {
    let routes = if cfg!(debug_assertions) {
        5_000
    } else {
        1_000_000
    };
    let workload = pm_traffic::WorkloadSpec::parse(&format!(
        "seed=0xF1B5;flows={routes};zipf=1.1;life=2000;frames=8192"
    ))
    .expect("valid workload spec");
    [false, true]
        .into_iter()
        .map(|huge| {
            let b = ExperimentBuilder::new(Nf::RouterScale(routes))
                .metadata_model(MetadataModel::XChange)
                .optimization(OptLevel::AllSource)
                .packets(if cfg!(debug_assertions) {
                    2_000
                } else {
                    20_000
                })
                .workload(workload.clone())
                .hugepage_tables(huge);
            (format!("router huge={huge}"), b)
        })
        .collect()
}

/// Handing the FIB, the trace's hash memo and its workload stats from
/// run to run is invisible in the results: the pair's run reports are
/// byte-identical outside any sweep (nothing reused) and inside one at
/// 1, 2 and 8 workers — and the sweep leaves no table behind.
#[test]
fn reused_inputs_do_not_change_run_reports() {
    use pm_elements::route::FibReuse;
    let alone: Vec<String> = router_scale_pair()
        .into_iter()
        .map(|(label, b)| {
            let (_, mut report) = b.run_with_report().expect("stand-alone run");
            assert!(!FibReuse::holds_table(), "no scope outside a sweep");
            report.label = label;
            report.to_json().to_pretty()
        })
        .collect();
    assert_ne!(alone[0], alone[1], "page mode shows in the report");

    for threads in [1usize, 2, 8] {
        let mut spec = SweepSpec::new();
        for (label, b) in router_scale_pair() {
            spec.push(label, b);
        }
        let results = spec.run_with_threads(threads);
        assert_eq!(results.failures(), 0, "threads={threads}");
        let swept: Vec<String> = results
            .outcomes
            .iter()
            .map(|o| o.to_json().to_pretty())
            .collect();
        assert_eq!(swept, alone, "threads={threads}");

        let r = results.report().reuse;
        assert_eq!(r.fibs_built + r.fibs_reused, 2, "two SYNTH configures");
        assert_eq!(
            r.traces_built + r.traces_reused,
            4,
            "engine + report, twice"
        );
        assert_eq!(r.hash_memos_built + r.hash_memos_reused, 2);
        if threads == 1 {
            // One worker runs both: the second run takes the table over.
            assert_eq!((r.fibs_built, r.fibs_reused), (1, 1));
            assert!(r.hash_memos_reused >= 1, "{r:?}");
            // The worker was this thread; its scope closed with it.
            assert!(!FibReuse::holds_table(), "no FIB outlives the sweep");
        }
        assert!(results.report().reuse_line().contains("FIBs"));
    }
}
