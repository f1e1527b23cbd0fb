//! Flow-population workload properties: empirical Zipf frequencies vs
//! the analytic CDF, churn conservation under arbitrary lifetimes and
//! windows, `--workload` spec round-trips, sweep byte-identity across
//! worker-thread counts, and attack mixes running under a fault plan
//! with the conservation ledger intact.

use packetmill::sweep::artifact_document;
use packetmill::{ExperimentBuilder, MetadataModel, Nf, OptLevel, SweepSpec};
use pm_traffic::{AttackEvent, AttackKind, FramePlan, SizeModel, Trace, Workload, WorkloadSpec};
use proptest::prelude::*;
use std::sync::Arc;

/// A spec with no attacks: the pure popularity/churn model.
fn plain_spec(seed: u64, flows: u64, zipf_x1000: u32, life: u64) -> WorkloadSpec {
    WorkloadSpec {
        seed,
        flows,
        zipf_x1000,
        life,
        frames: 0,
        size: SizeModel::Campus,
        attacks: Vec::new(),
    }
}

proptest! {
    /// Empirical slot frequencies from the pure-hash per-frame plan
    /// match the analytic Zipf CDF: the mass observed at ranks
    /// `0..=k` stays within sampling error of `cdf(k)` at several
    /// quantile points.
    #[test]
    fn zipf_frequencies_match_analytic_cdf(
        seed in any::<u64>(),
        flows in 16u64..2_000,
        zipf_x1000 in 0u32..2_000,
    ) {
        const SAMPLES: u64 = 2_048;
        let w = Workload::new(plain_spec(seed, flows, zipf_x1000, 0));
        let mut slots = Vec::with_capacity(SAMPLES as usize);
        for seq in 0..SAMPLES {
            match w.plan(seq) {
                FramePlan::Normal { slot, .. } => slots.push(slot),
                other => prop_assert!(false, "no attacks configured, got {other:?}"),
            }
        }
        for k in [0, flows / 4, flows / 2, flows - 1] {
            let analytic = w.zipf().cdf(k as usize);
            let observed = slots.iter().filter(|&&s| s <= k).count() as f64
                / SAMPLES as f64;
            // Binomial standard error at n=2048 is <= 0.011; 6 sigma.
            prop_assert!(
                (observed - analytic).abs() < 0.07,
                "rank {k}/{flows} alpha {}: observed {observed:.4} vs cdf {analytic:.4}",
                zipf_x1000 as f64 / 1000.0,
            );
        }
    }

    /// The churn identity `arrivals - expiries == live` holds for any
    /// lifetime and window, stats are monotone in the window, and the
    /// same spec always produces the same accounting (pure hashing).
    #[test]
    fn churn_conserves_over_arbitrary_windows(
        seed in any::<u64>(),
        flows in 1u64..300,
        life in 0u64..200,
        n in 1u64..2_000,
    ) {
        let w = Workload::new(plain_spec(seed, flows, 800, life));
        let s = w.stats(n);
        prop_assert!(s.conserves(), "n={n}: {s:?}");
        prop_assert_eq!(s.live, flows);
        prop_assert_eq!(s.normal_frames + s.syn_frames + s.scan_frames, n);
        if life == 0 {
            prop_assert_eq!(s.arrivals, flows, "static population");
            prop_assert_eq!(s.expiries, 0u64);
        } else {
            // Each slot rotates at most ceil(n / life) times in n frames.
            let max_rotations = flows * n.div_ceil(life);
            prop_assert!(s.expiries <= max_rotations, "{s:?}");
        }
        let wider = w.stats(n + life + 1);
        prop_assert!(wider.arrivals >= s.arrivals, "arrivals monotone");
        prop_assert!(wider.expiries >= s.expiries, "expiries monotone");
        prop_assert_eq!(w.stats(n), s, "pure hash: stats reproduce");
    }

    /// `to_spec` round-trips through `parse` for arbitrary well-formed
    /// specs, including attack windows and open-ended ranges.
    #[test]
    fn spec_round_trips_through_canonical_form(
        seed in any::<u64>(),
        flows in 1u64..50_000_000,
        zipf_x1000 in 0u32..=4_000,
        life in 0u64..1_000_000,
        frames in 0u64..=4_000_000,
        fixed in any::<bool>(),
        size in 64u16..=1_500,
        syn_rate in 0u32..=1_000_000,
        scan_from in 0u64..1_000_000,
        scan_len in 1u64..1_000_000,
        open_ended in any::<bool>(),
    ) {
        let spec = WorkloadSpec {
            seed,
            flows,
            zipf_x1000,
            life,
            frames,
            size: if fixed { SizeModel::Fixed(size) } else { SizeModel::Campus },
            attacks: vec![
                AttackEvent {
                    kind: AttackKind::SynFlood,
                    from: 0,
                    until: u64::MAX,
                    rate_ppm: syn_rate,
                },
                AttackEvent {
                    kind: AttackKind::PortScan,
                    from: scan_from,
                    until: if open_ended { u64::MAX } else { scan_from + scan_len },
                    rate_ppm: 1_000,
                },
            ],
        };
        let parsed = WorkloadSpec::parse(&spec.to_spec());
        prop_assert_eq!(parsed, Ok(spec));
    }
}

/// The attack-heavy spec used by the engine-level tests below: Zipf
/// churned traffic with a SYN-flood burst and a background port scan.
const ATTACK_SPEC: &str = "seed=0xA77AC4;flows=4000;zipf=1.1;life=1500;frames=6000;\
     syn@1000..4000:rate=0.25;scan@..:rate=0.05";

fn attack_builder() -> ExperimentBuilder {
    let spec = WorkloadSpec::parse(ATTACK_SPEC).expect("valid workload spec");
    ExperimentBuilder::new(Nf::NatScale(10_000))
        .metadata_model(MetadataModel::XChange)
        .optimization(OptLevel::AllSource)
        .packets(if cfg!(debug_assertions) { 2_000 } else { 8_000 })
        .workload(spec)
}

/// A workload-driven sweep produces byte-identical artifacts at 1, 2,
/// and 8 worker threads: every per-frame decision is a pure hash of the
/// spec, so scheduling order cannot leak into the JSON.
#[test]
fn workload_sweep_is_byte_identical_across_thread_counts() {
    let spec = || {
        let mut s = SweepSpec::new();
        for flows in [1_000u64, 5_000] {
            for huge in [false, true] {
                s.push(
                    format!("flows={flows} huge={huge}"),
                    attack_builder()
                        .workload(WorkloadSpec {
                            flows,
                            ..WorkloadSpec::parse(ATTACK_SPEC).expect("valid")
                        })
                        .hugepage_tables(huge),
                );
            }
        }
        s
    };
    let docs: Vec<String> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| {
            let results = spec().run_with_threads(threads);
            assert_eq!(results.failures(), 0, "threads={threads}");
            artifact_document(vec![results.to_json("workload-threads")]).to_pretty()
        })
        .collect();
    assert_eq!(docs[0], docs[1], "1 vs 2 workers");
    assert_eq!(docs[0], docs[2], "1 vs 8 workers");
}

/// An attack mix under an active fault plan still satisfies both
/// conservation identities: the workload's churn accounting and the
/// engine's packet ledger (asserted inside `Engine::run`), with the
/// per-table counters recording the insertion pressure.
#[test]
fn attack_mix_under_faults_keeps_ledgers_balanced() {
    let plan = packetmill::FaultPlan::parse(
        "seed=0xFA17;bitflip@..:rate=3000ppm;drop@..:rate=1000ppm;flap@100us..140us",
    )
    .expect("valid fault plan");
    let (m, report) = attack_builder()
        .fault_plan(plan)
        .run_with_report()
        .expect("faulted attack run completes");
    assert!(m.tx_packets > 0, "traffic still flows under faults");

    let w = report.workload.as_ref().expect("workload section present");
    assert!(w.stats.conserves(), "churn identity: {:?}", w.stats);
    assert!(w.stats.syn_frames > 0, "SYN flood present in the mix");
    assert!(w.stats.scan_frames > 0, "port scan present in the mix");
    assert_eq!(
        w.stats.syn_frames + w.stats.scan_frames + w.stats.normal_frames,
        w.frames,
    );
    assert_eq!(
        w.spec,
        WorkloadSpec::parse(&w.spec).expect("round-trips").to_spec()
    );

    let f = report.faults.as_ref().expect("fault section present");
    assert!(f.ledger.balances(), "packet ledger: {:?}", f.ledger);

    let nat = w
        .tables
        .iter()
        .find(|t| t.kind == "cuckoo")
        .expect("NAT reports its flow table");
    assert!(nat.insertions > 0, "SYN flood forces insertions");
    assert!(nat.lookups >= nat.insertions);
    assert!(nat.occupancy <= nat.capacity);
}

/// The workload section only appears for workload-driven runs, and its
/// spec string is the canonical form of what the builder was given.
#[test]
fn workload_report_carries_canonical_spec() {
    let (_, plain) = ExperimentBuilder::new(Nf::Forwarder)
        .packets(1_000)
        .run_with_report()
        .expect("plain run");
    assert!(plain.workload.is_none(), "no workload unless configured");

    let spec = WorkloadSpec::parse(ATTACK_SPEC).expect("valid");
    let (_, driven) = attack_builder().run_with_report().expect("workload run");
    let w = driven.workload.expect("workload section");
    assert_eq!(w.spec, spec.to_spec());
    assert_eq!(w.frames, 6_000);
}

/// A workload trace carries the accounting `Workload::stats` would
/// compute over it — churn and attack mix included — so the run report
/// never has to build the workload again.
#[test]
fn trace_carries_the_workload_stats() {
    let spec = WorkloadSpec::parse(ATTACK_SPEC).expect("valid workload spec");
    let w = Workload::new(spec.clone());
    let expected = w.stats(w.frames() as u64);
    assert!(expected.expiries > 0 && expected.syn_frames > 0 && expected.scan_frames > 0);
    assert_eq!(Trace::from_workload(&w).workload_stats(), Some(expected));
    assert_eq!(
        Trace::from_workload_spec_cached(&spec).workload_stats(),
        Some(expected)
    );
    // Immortal flows take the other churn branch.
    let w = Workload::new(plain_spec(0x1AB, 300, 900, 0));
    assert_eq!(
        Trace::from_workload(&w).workload_stats(),
        Some(w.stats(w.frames() as u64))
    );
    // Only workload traces have any.
    let t = Trace::synthesize(&pm_traffic::TraceConfig::default());
    assert_eq!(t.workload_stats(), None);
}

/// `Trace::frame_hashes` is what the NIC would compute frame by frame,
/// for the default key and a custom one, and each key is hashed once:
/// later calls, from any clone, return the first call's allocation.
/// Covers campus, fixed-size, workload (SYN and scan frames too) and
/// captured traces: the memo hashes stored heads, which must hold every
/// byte the NIC reads, captured frames cut short inside the headers too.
#[test]
fn trace_hash_memo_matches_the_nic_per_key() {
    use pm_traffic::{TraceConfig, TrafficProfile};
    let spec = WorkloadSpec::parse(ATTACK_SPEC).expect("valid workload spec");
    let trace = Trace::from_workload(&Workload::new(spec));
    let campus = Trace::synthesize(&TraceConfig {
        packets: 4_000,
        ..TraceConfig::default()
    });
    let fixed = [64, 1500].map(|size| {
        Trace::synthesize(&TraceConfig {
            packets: 1_000,
            profile: TrafficProfile::FixedSize(size),
            ..TraceConfig::default()
        })
    });
    let tcp = pm_packet::builder::PacketBuilder::tcp()
        .src_port(4242)
        .frame_len(300)
        .build();
    let mut captured: Vec<Vec<u8>> = (0..=60).map(|len| tcp[..len].to_vec()).collect();
    captured.push(tcp);
    captured.push(pm_packet::builder::PacketBuilder::arp().build());
    let captured = Trace::from_frames(captured);
    let mut nic = pm_nic::Nic::new(
        &pm_nic::NicConfig::default(),
        &mut pm_mem::AddressSpace::new(),
    );
    let mut custom = [0u8; 40];
    for (i, b) in custom.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(37).wrapping_add(11);
    }

    let before = pm_traffic::cache_counts();
    let mut memos = Vec::new();
    for key in [pm_nic::rss::MSFT_KEY, custom] {
        nic.set_rss_key(key);
        assert_eq!(nic.rss_key(), &key);
        for t in [&campus, &fixed[0], &fixed[1], &captured, &trace] {
            let hashes = t.frame_hashes(&key);
            assert_eq!(hashes.len(), t.len());
            for (i, &h) in hashes.iter().enumerate() {
                assert_eq!(h, nic.rss_hash(t.frame(i)), "frame {i}");
            }
        }
        memos.push(trace.frame_hashes(&key));
    }
    assert_ne!(memos[0], memos[1], "the key matters");
    let clone = trace.clone();
    assert!(Arc::ptr_eq(
        &memos[0],
        &clone.frame_hashes(&pm_nic::rss::MSFT_KEY)
    ));
    assert!(Arc::ptr_eq(&memos[1], &trace.frame_hashes(&custom)));
    let after = pm_traffic::cache_counts();
    assert_eq!(after.hash_memos_built - before.hash_memos_built, 10);
    assert_eq!(after.hash_memos_reused - before.hash_memos_reused, 4);
}
