//! Fault-injection invariants at the experiment level: the
//! packet-conservation ledger balances for every NF preset × metadata
//! model × fault plan, faulted runs are bit-identical at any thread
//! count, resource exhaustion degrades gracefully, an empty plan is
//! byte-invisible in the run artifact, and truncated frames reach the
//! dataplane as exactly the trace's bytes.
//!
//! Plans are always set explicitly per builder.

use packetmill::{
    Dataplane, Engine, EngineConfig, ExperimentBuilder, FaultKind, FaultPlan, MetadataModel, Nf,
    OptLevel, SimTime, SweepSpec, Trace, TraceConfig,
};
use pm_dpdk::RxDesc;
use pm_frameworks::ProcessResult;
use pm_mem::{AddressSpace, Cost, MemoryHierarchy};
use std::cell::Cell;
use std::rc::Rc;

const PRESETS: [Nf; 5] = [
    Nf::Forwarder,
    Nf::Router,
    Nf::IdsRouter,
    Nf::Nat,
    Nf::Firewall,
];

const MODELS: [MetadataModel; 3] = [
    MetadataModel::Copying,
    MetadataModel::Overlaying,
    MetadataModel::XChange,
];

/// A plan exercising every fault kind at once: always-on wire damage,
/// a mid-run link flap, a mempool-exhaustion window, and an element
/// slow-down.
fn rich_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with(
            FaultKind::BitFlip { rate_ppm: 20_000 },
            SimTime::ZERO,
            SimTime::MAX,
        )
        .with(
            FaultKind::Truncate { rate_ppm: 20_000 },
            SimTime::ZERO,
            SimTime::MAX,
        )
        .with(
            FaultKind::DescDrop { rate_ppm: 10_000 },
            SimTime::ZERO,
            SimTime::MAX,
        )
        .with(
            FaultKind::LinkFlap,
            SimTime::from_us(10.0),
            SimTime::from_us(18.0),
        )
        .with(
            FaultKind::PoolExhaust,
            SimTime::from_us(30.0),
            SimTime::from_us(40.0),
        )
        .with(
            FaultKind::Slowdown {
                element: "CheckIPHeader".into(),
                factor_x1000: 2_500,
            },
            SimTime::ZERO,
            SimTime::MAX,
        )
}

fn faulted(nf: Nf, model: MetadataModel, plan: FaultPlan) -> ExperimentBuilder {
    ExperimentBuilder::new(nf)
        .metadata_model(model)
        .optimization(OptLevel::Vanilla)
        .frequency_ghz(2.3)
        .packets(2_000)
        .fault_plan(plan)
}

/// Every preset × metadata model survives the full fault battery with
/// an exactly balanced conservation ledger (the engine asserts balance;
/// this also checks the exported counters are real, not vacuous).
#[test]
fn ledger_balances_for_every_preset_and_model() {
    for nf in PRESETS {
        for model in MODELS {
            let (_, report) = faulted(nf.clone(), model, rich_plan(0xFA17))
                .run_with_report()
                .unwrap_or_else(|e| panic!("{nf:?}/{model:?}: {e}"));
            let f = report
                .faults
                .as_ref()
                .unwrap_or_else(|| panic!("{nf:?}/{model:?}: faulted run must export counters"));
            let l = &f.ledger;
            assert!(l.balances(), "{nf:?}/{model:?}: unbalanced {l}");
            assert!(l.generated > 0, "{nf:?}/{model:?}: nothing generated");
            assert!(
                l.fcs_dropped > 0 && l.truncated_delivered > 0 && l.desc_dropped > 0,
                "{nf:?}/{model:?}: wire faults never fired: {l}"
            );
            assert!(
                l.link_down_dropped > 0,
                "{nf:?}/{model:?}: link flap never fired: {l}"
            );
            assert!(
                l.tx_sent > 0,
                "{nf:?}/{model:?}: nothing survived the fault battery: {l}"
            );
        }
    }
}

/// Deterministically sampled plans (random rates, windows, and seeds)
/// all keep the ledger balanced, and re-running the same plan
/// reproduces the same ledger bit-for-bit.
#[test]
fn sampled_plans_balance_and_reproduce() {
    let mut rng = proptest::TestRng::default_for_test("sampled_plans_balance_and_reproduce");
    for i in 0..8 {
        let mut plan = FaultPlan::new(rng.next_u64());
        for _ in 0..=rng.below(3) {
            let from = SimTime::from_ns(rng.below(60_000) as f64);
            let until = from + SimTime::from_ns(1_000.0 + rng.below(80_000) as f64);
            let kind = match rng.below(5) {
                0 => FaultKind::BitFlip {
                    rate_ppm: rng.below(300_000) as u32,
                },
                1 => FaultKind::Truncate {
                    rate_ppm: rng.below(300_000) as u32,
                },
                2 => FaultKind::DescDrop {
                    rate_ppm: rng.below(300_000) as u32,
                },
                3 => FaultKind::LinkFlap,
                _ => FaultKind::PoolExhaust,
            };
            plan = plan.with(kind, from, until);
        }
        let nf = PRESETS[i % PRESETS.len()].clone();
        let model = MODELS[i % MODELS.len()];
        let run = || {
            faulted(nf.clone(), model, plan.clone())
                .run_with_report()
                .unwrap_or_else(|e| panic!("{nf:?}/{model:?} sample {i}: {e}"))
        };
        let (m1, r1) = run();
        let (m2, r2) = run();
        let l = &r1.faults.as_ref().expect("counters exported").ledger;
        assert!(l.balances(), "sample {i} {nf:?}/{model:?}: unbalanced {l}");
        assert_eq!(m1, m2, "sample {i}: measurement not reproducible");
        assert_eq!(
            r1.to_json().to_compact(),
            r2.to_json().to_compact(),
            "sample {i}: report not reproducible"
        );
    }
}

/// A faulted sweep serializes byte-identically at 1, 2, and 8 worker
/// threads: fault decisions are pure functions of (plan, stream, seq),
/// never of scheduling.
#[test]
fn faulted_sweep_identical_across_thread_counts() {
    let spec = || {
        let mut s = SweepSpec::new();
        for (i, nf) in [Nf::Router, Nf::Nat, Nf::IdsRouter].into_iter().enumerate() {
            for model in [MetadataModel::Copying, MetadataModel::XChange] {
                s.push(
                    format!("{nf:?}/{model:?}"),
                    faulted(nf.clone(), model, rich_plan(0xD00D + i as u64)),
                );
            }
        }
        s
    };
    let one = spec().run_with_threads(1).to_json("faulted").to_pretty();
    let two = spec().run_with_threads(2).to_json("faulted").to_pretty();
    let eight = spec().run_with_threads(8).to_json("faulted").to_pretty();
    assert_eq!(one, two, "1-thread vs 2-thread artifacts differ");
    assert_eq!(one, eight, "1-thread vs 8-thread artifacts differ");
    assert!(
        one.contains("\"faults\""),
        "faulted artifact carries counters"
    );
}

/// Mempool exhaustion starves replenishment without panicking or losing
/// accounting: denials are counted and the run still completes.
#[test]
fn pool_exhaustion_is_graceful() {
    let plan = FaultPlan::new(7).with(
        FaultKind::PoolExhaust,
        SimTime::from_us(5.0),
        SimTime::from_us(60.0),
    );
    let (m, report) = faulted(Nf::Router, MetadataModel::Copying, plan)
        .run_with_report()
        .expect("run completes");
    let l = &report.faults.as_ref().expect("counters").ledger;
    assert!(l.pool_denials > 0, "exhaustion window never bit: {l}");
    assert!(l.balances(), "unbalanced: {l}");
    assert!(m.tx_packets > 0, "forwarding stopped entirely");
}

/// An element slow-down lowers throughput but changes no packet
/// accounting: same drops, same tx count, worse timing.
#[test]
fn slowdown_changes_timing_not_accounting() {
    let baseline = faulted(Nf::Router, MetadataModel::Copying, FaultPlan::new(1))
        .run_with_report()
        .expect("baseline");
    let slowed = faulted(
        Nf::Router,
        MetadataModel::Copying,
        FaultPlan::new(1).with(
            FaultKind::Slowdown {
                element: "LookupIPRoute".into(),
                factor_x1000: 4_000,
            },
            SimTime::ZERO,
            SimTime::MAX,
        ),
    )
    .run_with_report()
    .expect("slowed");
    assert!(
        slowed.0.cycles_per_packet > baseline.0.cycles_per_packet,
        "4x slow-down must inflate per-packet cycles: {} vs {}",
        slowed.0.cycles_per_packet,
        baseline.0.cycles_per_packet
    );
    assert_eq!(slowed.0.tx_packets, baseline.0.tx_packets);
    assert_eq!(slowed.0.nf_dropped, baseline.0.nf_dropped);
}

/// The zero-cost invariant at the artifact level: a run with an
/// explicitly empty plan is byte-identical to a run with no plan at
/// all — no `faults` key, same measurement, same serialized report.
#[test]
fn empty_plan_is_byte_invisible() {
    let bare = ExperimentBuilder::new(Nf::Router)
        .metadata_model(MetadataModel::XChange)
        .optimization(OptLevel::AllSource)
        .frequency_ghz(2.3)
        .packets(2_000);
    let empty = bare.clone().fault_plan(FaultPlan::new(0xABCD));

    let (m1, r1) = bare.run_with_report().expect("bare");
    let (m2, r2) = empty.run_with_report().expect("empty plan");
    assert!(r1.faults.is_none() && r2.faults.is_none());
    assert_eq!(m1, m2, "empty plan changed the measurement");
    assert_eq!(
        r1.to_json().to_pretty(),
        r2.to_json().to_pretty(),
        "empty plan changed the serialized artifact"
    );
    assert!(!r1.to_json().to_pretty().contains("faults"));
}

/// Data area of the engine's DMA buffers: 2 176 B with 128 B of
/// headroom.
const DATA_CAPACITY: usize = 2_048;

/// A dataplane that checks every packet's bytes against the trace, then
/// scribbles over the whole buffer it was handed.
struct TraceChecker {
    trace: Trace,
    processed: Rc<Cell<u64>>,
}

impl Dataplane for TraceChecker {
    fn label(&self) -> String {
        "trace checker".into()
    }

    fn metadata_model(&self) -> MetadataModel {
        MetadataModel::Copying
    }

    fn process(
        &mut self,
        _core: usize,
        _mem: &mut MemoryHierarchy,
        desc: &RxDesc,
        data: &mut [u8],
    ) -> ProcessResult {
        let len = desc.len as usize;
        assert_eq!(data.len(), DATA_CAPACITY, "seq {}", desc.seq);
        assert_eq!(
            data[..len],
            self.trace.frame(desc.seq as usize)[..len],
            "seq {}: bytes differ from the trace",
            desc.seq
        );
        // Whatever this packet leaves behind must not reach the next one.
        data.fill(0xA5);
        self.processed.set(self.processed.get() + 1);
        ProcessResult {
            tx_len: Some(desc.len),
            cost: Cost::compute(100),
        }
    }
}

/// The NIC moves no bytes, so the dataplane is handed a whole buffer
/// data area that holds exactly the trace's `frame(seq)[..len]` —
/// truncated frames included — and nothing a previous packet left in it.
#[test]
fn dataplane_sees_exactly_the_trace_bytes() {
    let trace = Trace::synthesize(&TraceConfig {
        packets: 1_024,
        ..TraceConfig::default()
    });
    let processed = Rc::new(Cell::new(0));
    let checker = TraceChecker {
        trace: trace.clone(),
        processed: Rc::clone(&processed),
    };
    let cfg = EngineConfig {
        packets: 4_000,
        warmup: 0,
        faults: Some(FaultPlan::parse("trunc@..:rate=200000ppm").expect("valid spec")),
        ..EngineConfig::default()
    };
    let mut space = AddressSpace::new();
    let mut engine = Engine::new(cfg, vec![Box::new(checker)], vec![trace], &mut space);
    engine.run();
    let ledger = engine.ledger().expect("ran");
    assert!(
        ledger.truncated_delivered > 0,
        "no truncated frame reached the dataplane: {ledger}"
    );
    let delivered = engine.queue_ledgers().expect("ran")[0].delivered;
    assert_eq!(processed.get(), delivered, "every delivered frame checked");
}
