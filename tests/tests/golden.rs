//! Golden-artifact regression for the simulator fast path.
//!
//! The committed fixtures under `tests/golden/` are stdout table and
//! `--json` artifact pairs: the Figure 7 N = 1 surface and Table 1,
//! captured before the move-to-front caches, page-cached TLB and
//! range-batched charging landed, and the faulted fig7, cores = 2
//! multi-core, flight-recorder and 10k-flow flow-scale sweeps, each
//! captured when its feature did. Re-running a sweep must reproduce its
//! pair **byte for byte**: every optimization in the simulator hot path
//! is required to be semantically invisible, so any diff here is a
//! correctness bug, not a tolerance question.

use packetmill::sweep::{artifact_document, set_default_profile};
use pm_integration_tests::check_fixture;

#[test]
fn fig7_n1_artifact_matches_committed_fixture() {
    set_default_profile(true);
    let a = pm_bench::figures::fig7(1);

    let stdout = format!("== N = 1 ==\n\n{}\n", a.table);
    let json = artifact_document(vec![a.results.to_json("fig7-n1")]).to_pretty() + "\n";
    check_fixture("fig7-n1", Some(&stdout), Some(&json));
}

/// The fault plan baked into the faulted fig7 fixture: always-on wire
/// damage plus a link flap and a mempool-exhaustion window, expressed in
/// `--faults` spec syntax so the fixture also pins the spec grammar.
const FAULT_SPEC: &str = "seed=0xF417;bitflip@..:rate=5000ppm;trunc@..:rate=5000ppm;\
                          drop@..:rate=2000ppm;flap@40us..60us;pool@100us..140us";

#[test]
fn fig7_n1_faulted_artifact_matches_committed_fixture() {
    set_default_profile(true);
    let plan = packetmill::FaultPlan::parse(FAULT_SPEC).expect("valid fault spec");
    let a = pm_bench::figures::fig7_with(1, Some(plan));

    let stdout = format!("== N = 1 (faulted) ==\n\n{}\n", a.table);
    let json = artifact_document(vec![a.results.to_json("fig7-n1-faulted")]).to_pretty() + "\n";
    check_fixture("fig7-n1-faulted", Some(&stdout), Some(&json));
}

/// The multi-core scaling sweep, cores = 2 — PR 6 pinned only the stdout
/// table (`tests/tests/multicore.rs`); this pins the profiled `--json`
/// artifact too, so per-stage cycle/miss attribution across the shared
/// LLC/DDIO path is also locked byte-for-byte.
#[test]
fn fig_multicore_c2_profiled_artifact_matches_committed_fixture() {
    set_default_profile(true);
    let a = pm_bench::figures::fig_multicore(2);
    let json = artifact_document(vec![a.results.to_json("fig-multicore")]).to_pretty() + "\n";
    check_fixture("fig-multicore-c2", None, Some(&json));
}

/// The flight-recorder showcase: pins the per-window time series, the
/// sampled packet lifecycles, and the link-flap dip/recovery summary —
/// table and `--json` artifact — byte for byte. Any change to recorder
/// bucketing, sampling hashes, or span attribution shows up here.
#[test]
fn fig_timeline_artifact_matches_committed_fixture() {
    set_default_profile(true);
    let a = pm_bench::figures::fig_timeline();

    let stdout = format!("{}\n", a.table);
    let json = artifact_document(vec![a.results.to_json("fig-timeline")]).to_pretty() + "\n";
    check_fixture("fig-timeline", Some(&stdout), Some(&json));

    // The fixture really carries the claim: a dip window with zero
    // throughput during the flap and a recovery back to line rate.
    assert!(stdout.contains("dip"), "summary rows present");
    assert!(stdout.contains("recovered"), "recovery row present");
    assert!(json.contains("\"link_down\""), "drop series by cause");
}

/// The flow-scale sweep at the 10k rung of the ladder (1k and 10k flows
/// × 3 stateful NF presets × 4-KiB vs hugepage tables): pins the
/// workload-driven trace synthesis, the scaled-table presets, the
/// per-table counters in the artifact, and the hugepage table placement
/// byte for byte. Any change to the flow-population hashing or the
/// cuckoo/trie/conntrack charging shows up here.
#[test]
fn fig_flowscale_artifact_matches_committed_fixture() {
    set_default_profile(true);
    let a = pm_bench::figures::fig_flowscale(10_000);

    let stdout = format!("{}\n", a.table);
    let json = artifact_document(vec![a.results.to_json("fig-flowscale")]).to_pretty() + "\n";
    check_fixture("fig-flowscale", Some(&stdout), Some(&json));

    // The fixture carries the workload section: canonical spec, churn
    // accounting, and the per-table counters.
    assert!(json.contains("\"workload\""), "workload section present");
    assert!(json.contains("\"tables\""), "per-table counters present");
    assert!(
        json.contains("\"hugepage_tables\": true"),
        "hugepage runs present"
    );
}

#[test]
fn table1_artifact_matches_committed_fixture() {
    set_default_profile(true);
    let a = pm_bench::figures::table1();

    let stdout = format!("{}\n", a.table);
    let json = artifact_document(vec![a.results.to_json("table1")]).to_pretty() + "\n";
    check_fixture("table1", Some(&stdout), Some(&json));
}
