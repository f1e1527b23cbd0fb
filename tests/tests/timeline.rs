//! Flight-recorder invariants at the experiment level: recording is
//! measurement-neutral (bit-identical `Measurement` with the recorder on
//! vs off), timeline/trace artifacts are byte-identical at any worker
//! thread count, the windowed series reconcile with the conservation
//! ledger, and the Chrome-trace export is deterministic and well formed.
//!
//! Recording is always enabled explicitly per builder.

use packetmill::{
    chrome_trace, ExperimentBuilder, FaultKind, FaultPlan, Json, MetadataModel, Nf, OptLevel,
    SimTime, SweepSpec,
};

const PACKETS: usize = 8_000;

/// A plan with a link flap and a mempool squeeze inside the run, over
/// always-on wire damage — every drop cause shows up in the series.
fn plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with(
            FaultKind::BitFlip { rate_ppm: 20_000 },
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
            SimTime::from_us(150.0),
            SimTime::from_us(200.0),
        )
        .with(
            FaultKind::PoolExhaust,
            SimTime::from_us(300.0),
            SimTime::from_us(340.0),
        )
}

fn recorded(nf: Nf, cores: usize) -> ExperimentBuilder {
    ExperimentBuilder::new(nf)
        .metadata_model(MetadataModel::XChange)
        .optimization(OptLevel::AllSource)
        .frequency_ghz(2.3)
        .cores(cores)
        .packets(PACKETS)
        .timeline_us(50.0)
        .packet_trace(true)
}

/// Recording must be free: the recorder only reads engine state, so a
/// run with timeline + trace enabled produces the bit-identical
/// `Measurement` of the same run with the recorder off — faulted,
/// multi-core, every metadata model.
#[test]
fn recorder_is_measurement_neutral() {
    for (nf, cores, faults) in [
        (Nf::Router, 1, Some(plan(0xBEEF))),
        (Nf::Router, 1, None),
        (Nf::Nat, 4, None),
        (Nf::IdsRouter, 2, Some(plan(0x5151))),
    ] {
        let base = || {
            let b = ExperimentBuilder::new(nf.clone())
                .metadata_model(MetadataModel::XChange)
                .optimization(OptLevel::AllSource)
                .frequency_ghz(2.3)
                .cores(cores)
                .packets(PACKETS);
            match &faults {
                Some(p) => b.fault_plan(p.clone()),
                None => b,
            }
        };
        let off = base().run().expect("recorder-off run");
        let on = base()
            .timeline_us(50.0)
            .packet_trace(true)
            .run()
            .expect("recorder-on run");
        assert_eq!(
            on, off,
            "{nf:?}/{cores}c: recording changed the measurement"
        );
    }
}

/// The one experiment-level oracle for the default resolver (tight
/// walk, resident filter, scan elision, batched attribution): every
/// metadata model × 1 and 4 cores × profile on/off, recorder on, plus
/// one faulted run, must serialize a byte-identical run report — the
/// windowed series and per-element attribution included — to the same
/// run forced through the reference per-call walk.
#[test]
fn default_walk_equals_reference_walk() {
    let mut cases = Vec::new();
    for (model, opt) in [
        (MetadataModel::Copying, OptLevel::Vanilla),
        (MetadataModel::Overlaying, OptLevel::AllSource),
        (MetadataModel::XChange, OptLevel::AllSource),
    ] {
        for cores in [1, 4] {
            for profile in [false, true] {
                cases.push((Nf::Router, model, opt, cores, profile, None));
            }
        }
    }
    cases.push((
        Nf::Nat,
        MetadataModel::XChange,
        OptLevel::AllSource,
        2,
        true,
        Some(plan(0x1D1D)),
    ));
    for (nf, model, opt, cores, profile, faults) in cases {
        let base = || {
            let b = recorded(nf.clone(), cores)
                .metadata_model(model)
                .optimization(opt)
                .profile(profile);
            match &faults {
                Some(p) => b.fault_plan(p.clone()),
                None => b,
            }
        };
        let what = format!("{nf:?}/{model:?}/{cores}c/profile={profile}");
        let default = base().run_with_report().expect("default run");
        let reference = base()
            .reference_walk(true)
            .run_with_report()
            .expect("reference run");
        assert_eq!(
            default.0, reference.0,
            "{what}: measurement diverges from the reference walk"
        );
        assert_eq!(
            default.1.to_json().to_pretty(),
            reference.1.to_json().to_pretty(),
            "{what}: run report diverges from the reference walk"
        );
    }
}

/// A recorder-off run's artifact carries neither a `timeline` nor a
/// `trace` key, so pre-recorder golden fixtures stay byte-identical.
#[test]
fn recorder_off_artifact_has_no_recorder_keys() {
    let (_, r) = ExperimentBuilder::new(Nf::Router)
        .frequency_ghz(2.3)
        .packets(PACKETS)
        .run_with_report()
        .expect("run");
    let j = r.to_json();
    assert_eq!(j.get("timeline"), None, "no timeline key when off");
    assert_eq!(j.get("trace"), None, "no trace key when off");
}

/// Timeline and trace sections are driven entirely by virtual time, so
/// the full sweep artifact — per-window series and sampled packet
/// lifecycles included — serializes byte-identically at 1, 2, and 8
/// worker threads.
#[test]
fn recorded_sweep_identical_across_thread_counts() {
    let spec = || {
        let mut s = SweepSpec::new();
        s.push(
            "router 1c faulted",
            recorded(Nf::Router, 1).fault_plan(plan(0xAB)),
        );
        s.push("router 4c", recorded(Nf::Router, 4));
        s.push("nat 2c", recorded(Nf::Nat, 2));
        s
    };
    let one = spec().run_with_threads(1).to_json("timeline").to_pretty();
    let two = spec().run_with_threads(2).to_json("timeline").to_pretty();
    let eight = spec().run_with_threads(8).to_json("timeline").to_pretty();
    assert_eq!(one, two, "1-thread vs 2-thread artifacts differ");
    assert_eq!(one, eight, "1-thread vs 8-thread artifacts differ");
    assert!(one.contains("\"timeline\""), "artifact carries the series");
    assert!(one.contains("\"trace\""), "artifact carries the traces");
}

/// The windowed drop/tx series must account for exactly what the
/// conservation ledger counted: summing any per-window series over the
/// whole run reproduces the whole-run counter.
#[test]
fn timeline_series_reconcile_with_conservation_ledger() {
    let (_, r) = recorded(Nf::Router, 1)
        .fault_plan(plan(0xC0DE))
        .run_with_report()
        .expect("run");
    let tl = r.timeline.as_ref().expect("timeline recorded");
    let ledger = &r.faults.as_ref().expect("faulted run").ledger;

    let tx: u64 = tl.cores.iter().map(|c| c.tx.iter().sum::<u64>()).sum();
    assert_eq!(tx, ledger.tx_sent, "per-window tx vs ledger");

    let sum = |label: &str| -> u64 {
        tl.drops
            .iter()
            .find(|(l, _)| *l == label)
            .unwrap_or_else(|| panic!("missing drop series {label}"))
            .1
            .iter()
            .sum()
    };
    assert_eq!(sum("fcs"), ledger.fcs_dropped, "fcs series vs ledger");
    assert_eq!(
        sum("link_down"),
        ledger.link_down_dropped,
        "link_down series vs ledger"
    );
    assert_eq!(sum("desc"), ledger.desc_dropped, "desc series vs ledger");
    assert_eq!(
        sum("rx_ring"),
        ledger.rx_ring_dropped,
        "rx_ring series vs ledger"
    );
    assert_eq!(sum("nf"), ledger.nf_dropped, "nf series vs ledger");
    assert_eq!(
        sum("tx_ring"),
        ledger.tx_ring_dropped,
        "tx_ring series vs ledger"
    );

    // The flap windows really show the dip: some window overlapping the
    // 150–200 µs outage has link-down drops and zero tx.
    let flap = tl
        .window_end_us
        .iter()
        .position(|&end| end > 160.0)
        .expect("run reaches the flap");
    assert!(
        tl.drops
            .iter()
            .any(|(l, v)| *l == "link_down" && v[flap] > 0),
        "flap window records link-down drops"
    );
}

/// Every sampled-and-recorded packet reaches a terminal fate, and its
/// lifecycle timestamps are monotone.
#[test]
fn traced_packets_have_monotone_lifecycles() {
    let (_, r) = recorded(Nf::Router, 2)
        .fault_plan(plan(0xFACE))
        .run_with_report()
        .expect("run");
    let tr = r.trace.as_ref().expect("trace recorded");
    assert!(!tr.packets.is_empty(), "head sampling recorded packets");
    for p in &tr.packets {
        assert!(p.fate.is_some(), "seq {} has a terminal fate", p.seq);
        let fate = p.fate.unwrap();
        if fate == "tx" {
            let arrival = p.arrival_ps.expect("tx packet was delivered");
            let poll = p.poll_ps.expect("tx packet was polled");
            assert!(p.gen_ps <= arrival, "gen before DMA completion");
            assert!(arrival <= poll, "DMA completion before poll");
            let mut prev = poll;
            for s in &p.spans {
                assert!(s.start_ps >= prev, "spans start after the poll");
                assert!(s.end_ps >= s.start_ps, "span ends after it starts");
                prev = s.start_ps;
            }
            assert!(
                p.done_ps.expect("tx departure") >= poll,
                "departure after poll"
            );
        }
    }
}

/// The Chrome-trace export is deterministic and structurally valid:
/// every event has the required keys and a known phase.
#[test]
fn chrome_trace_export_is_deterministic_and_well_formed() {
    let run = || {
        recorded(Nf::Router, 1)
            .fault_plan(plan(0x7777))
            .run_with_report()
            .expect("run")
            .1
    };
    let (r1, r2) = (run(), run());
    let t1 = chrome_trace(&[("run", r1.trace.as_ref().unwrap())]).to_pretty();
    let t2 = chrome_trace(&[("run", r2.trace.as_ref().unwrap())]).to_pretty();
    assert_eq!(t1, t2, "export not reproducible");

    let doc = Json::parse(&t1).expect("valid JSON");
    let Some(Json::Arr(events)) = doc.get("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    assert!(events.len() > 10, "export has events");
    for e in events {
        let ph = match e.get("ph") {
            Some(Json::Str(s)) => s.clone(),
            other => panic!("event without ph: {other:?}"),
        };
        assert!(
            ["M", "X", "i"].contains(&ph.as_str()),
            "unexpected phase {ph}"
        );
        assert!(e.get("name").is_some(), "event without name");
        assert!(e.get("pid").is_some(), "event without pid");
    }
}
