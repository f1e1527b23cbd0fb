//! Multi-core data-plane battery: determinism across host thread
//! counts, per-queue conservation under faults, single-core artifact
//! stability, NIC-level flow affinity, and the committed cores=2
//! scaling fixture.
//!
//! The determinism tests run the same 4-core sweep at `--threads`
//! 1/2/8 and require byte-identical artifacts: the simulated cores are
//! interleaved deterministically inside one experiment, so host
//! parallelism must be invisible in every artifact byte.

use packetmill::sweep::artifact_document;
use packetmill::{ExperimentBuilder, Json, MetadataModel, Nf, OptLevel, SweepSpec};
use pm_integration_tests::{assert_same, check_fixture};
use pm_mem::AddressSpace;
use pm_nic::{IndirectionTable, Nic, NicConfig};
use pm_packet::builder::PacketBuilder;

/// A debug-friendly 4-core grid over three NFs.
fn small_multicore_sweep() -> SweepSpec {
    let mut s = SweepSpec::new();
    for nf in [Nf::Forwarder, Nf::Router, Nf::Nat] {
        s.push(
            format!("{nf:?} 4c"),
            ExperimentBuilder::new(nf)
                .metadata_model(MetadataModel::XChange)
                .optimization(OptLevel::AllSource)
                .cores(4)
                .frequency_ghz(2.3)
                .packets(2048),
        );
    }
    s
}

#[test]
fn multicore_artifact_is_byte_identical_across_thread_counts() {
    let render = |threads: usize| {
        let results = small_multicore_sweep().run_with_threads(threads);
        artifact_document(vec![results.to_json("multicore")]).to_pretty()
    };
    let serial = render(1);
    assert_same(&render(2), &serial, "threads=2 vs threads=1");
    assert_same(&render(8), &serial, "threads=8 vs threads=1");

    // Every run in the document carries the per-queue ledger sections.
    let doc = Json::parse(&serial).expect("valid artifact JSON");
    let Some(Json::Arr(groups)) = doc.get("groups") else {
        panic!("artifact document must carry groups");
    };
    let Some(Json::Arr(runs)) = groups[0].get("runs") else {
        panic!("group must carry runs");
    };
    assert_eq!(runs.len(), 3);
    for run in runs {
        let Some(Json::Arr(sections)) = run.get("cores") else {
            panic!("multi-core run must carry a cores array");
        };
        assert_eq!(sections.len(), 4, "one section per queue at 4 cores");
    }
}

#[test]
fn per_queue_ledgers_balance_under_faults() {
    let plan = packetmill::FaultPlan::parse(
        "seed=0xBEEF;bitflip@..:rate=4000ppm;drop@..:rate=2000ppm;trunc@..:rate=2000ppm",
    )
    .expect("valid fault spec");
    let (_, report) = ExperimentBuilder::new(Nf::Router)
        .metadata_model(MetadataModel::XChange)
        .optimization(OptLevel::AllSource)
        .cores(4)
        .packets(4096)
        .fault_plan(plan)
        .run_with_report()
        .expect("faulted multi-core run");

    let faults = report.faults.as_ref().expect("fault section present");
    assert!(faults.ledger.balances(), "aggregate ledger must balance");

    let cores = report.cores.as_ref().expect("per-queue sections present");
    assert_eq!(cores.len(), 4, "one section per (nic, queue) pair");
    for ql in cores {
        assert!(
            ql.balances(),
            "queue (core {}, nic {}, queue {}) out of balance: {ql:?}",
            ql.core,
            ql.nic,
            ql.queue
        );
    }
    // Every executing core owns its own queue in the 1-NIC, 4-core map.
    let mut owners: Vec<usize> = cores.iter().map(|q| q.core).collect();
    owners.sort_unstable();
    assert_eq!(owners, vec![0, 1, 2, 3]);
    // The per-queue sections decompose the whole-run aggregate TX count
    // exactly (the measurement's own counter only covers the post-warm-up
    // window, so the ledger is the right aggregate to match).
    assert_eq!(
        cores.iter().map(|q| q.tx_sent).sum::<u64>(),
        faults.ledger.tx_sent
    );
}

#[test]
fn single_core_report_stays_on_the_legacy_schema() {
    let run = || {
        let (_, report) = ExperimentBuilder::new(Nf::Router)
            .metadata_model(MetadataModel::XChange)
            .optimization(OptLevel::AllSource)
            .packets(2048)
            .run_with_report()
            .expect("single-core run");
        report
    };
    let report = run();
    assert!(
        report.cores.is_none(),
        "single-core runs must not grow a cores section"
    );
    let json = report.to_json().to_pretty();
    let parsed = Json::parse(&json).expect("valid report JSON");
    assert_eq!(
        parsed.get("cores"),
        None,
        "single-core artifact must not carry the top-level cores key"
    );
    assert_same(&run().to_json().to_pretty(), &json, "repeat run");
}

#[test]
fn nic_steering_keeps_a_flow_on_one_queue() {
    let mut space = AddressSpace::new();
    let nic = Nic::new(
        &NicConfig {
            queues: 3, // deliberately not a divisor of the 128-entry table
            rx_ring_size: 64,
            tx_ring_size: 64,
            ..NicConfig::default()
        },
        &mut space,
    );
    let table = IndirectionTable::round_robin(3);

    // The NAT's flow affinity: one 4-tuple must land on one queue no
    // matter how the frame length varies across the flow's packets.
    let flow_queue = |src: [u8; 4], sp: u16, len: usize| {
        let frame = PacketBuilder::udp()
            .src_ip(src)
            .dst_ip([192, 0, 2, 1])
            .src_port(sp)
            .dst_port(53)
            .frame_len(len)
            .build();
        table.queue_for(nic.rss_hash(&frame))
    };
    let mut used = [false; 3];
    for flow in 0..64u16 {
        let src = [10, 0, (flow >> 8) as u8, flow as u8];
        let q = flow_queue(src, 1000 + flow, 64);
        assert!(q < 3, "steering must stay inside the queue set");
        for len in [64, 128, 512, 1472] {
            assert_eq!(
                flow_queue(src, 1000 + flow, len),
                q,
                "flow {flow} migrated queues at frame length {len}"
            );
        }
        used[q] = true;
    }
    assert!(
        used.iter().all(|&u| u),
        "64 flows should populate all 3 queues: {used:?}"
    );
}

#[test]
fn fig_multicore_c2_matches_committed_fixture() {
    let a = pm_bench::figures::fig_multicore(&packetmill::Cli::default(), 2);
    let stdout = format!("{}\n", a.table);
    check_fixture("fig-multicore-c2", Some(&stdout), None);
}
