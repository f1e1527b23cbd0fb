//! Functional correctness of the NFs on real packet bytes, exercised
//! through the public facade (dataplane level), plus engine-level
//! accounting invariants.

use packetmill::{
    standard_registry, ClickDataplane, ConfigGraph, Dataplane, ExecPlan, ExperimentBuilder, Graph,
    MetadataModel, Nf, OptLevel,
};
use pm_click::GraphRuntime;
use pm_dpdk::RxDesc;
use pm_mem::{AddressSpace, MemoryHierarchy};
use pm_packet::builder::PacketBuilder;
use pm_packet::ipv4::Ipv4Header;
use pm_packet::tcp::TcpHeader;

fn dataplane(nf: &Nf, plan: ExecPlan) -> ClickDataplane {
    let cfg = ConfigGraph::parse(&nf.config_text()).expect("parse");
    let graph = Graph::build(&cfg, &standard_registry()).expect("build");
    let mut space = AddressSpace::new();
    ClickDataplane::new(GraphRuntime::new(graph, plan, &mut space), 0, "test")
}

fn desc(seq: u64, len: usize) -> RxDesc {
    RxDesc {
        buf_id: (seq % 1024) as u32,
        len: len as u32,
        rss_hash: 0,
        arrival: pm_sim::SimTime::ZERO,
        gen: pm_sim::SimTime::ZERO,
        seq,
        data_addr: 0x1_000_000 + (seq % 1024) * 2176,
        meta_addr: 0x8_000_000 + (seq % 1024) * 256,
        xslot: None,
    }
}

/// The full NAT pipeline rewrites the source, keeps checksums valid, and
/// is per-flow consistent across packets.
#[test]
fn nat_pipeline_end_to_end() {
    let mut dp = dataplane(&Nf::Nat, ExecPlan::vanilla(MetadataModel::Copying));
    let mut mem = MemoryHierarchy::skylake(1);
    let mut ports = Vec::new();
    for round in 0..3 {
        let mut f = PacketBuilder::tcp()
            .src_ip([10, 0, 0, 9])
            .src_port(7777)
            .dst_ip([192, 168, 1, 1])
            .frame_len(128)
            .build();
        let d = desc(round, f.len());
        let r = dp.process(0, &mut mem, &d, &mut f);
        assert!(r.tx_len.is_some(), "round {round} forwarded");
        let ip = Ipv4Header::parse(&f[14..]).unwrap();
        assert_eq!(ip.src, [198, 51, 100, 1], "source NATted");
        assert!(ip.verify_checksum(&f[14..]));
        assert_eq!(ip.ttl, 63, "router path decremented TTL");
        ports.push(TcpHeader::parse(&f[34..]).unwrap().src_port);
    }
    assert!(
        ports.windows(2).all(|w| w[0] == w[1]),
        "stable binding: {ports:?}"
    );

    // A different flow gets a different external port.
    let mut f = PacketBuilder::tcp()
        .src_ip([10, 0, 0, 9])
        .src_port(8888)
        .dst_ip([192, 168, 1, 1])
        .frame_len(128)
        .build();
    let r = dp.process(0, &mut mem, &desc(99, f.len()), &mut f);
    assert!(r.tx_len.is_some());
    let other = TcpHeader::parse(&f[34..]).unwrap().src_port;
    assert_ne!(other, ports[0]);
}

/// The IDS+router forwards clean traffic VLAN-tagged and drops scans.
#[test]
fn ids_router_tags_and_filters() {
    let mut dp = dataplane(&Nf::IdsRouter, ExecPlan::vanilla(MetadataModel::Copying));
    let mut mem = MemoryHierarchy::skylake(1);

    let mut ok = PacketBuilder::tcp()
        .dst_ip([10, 5, 5, 5])
        .frame_len(256)
        .build();
    ok.resize(2176, 0); // buffer headroom for the VLAN tag
    let r = dp.process(0, &mut mem, &desc(0, 256), &mut ok);
    assert_eq!(r.tx_len, Some(260), "VLAN tag adds 4 bytes");
    let tag = pm_packet::vlan::VlanTag::parse_frame(&ok).expect("tagged");
    assert_eq!(tag.vid, 42);

    let mut scan = PacketBuilder::tcp()
        .tcp_flags(pm_packet::tcp::TcpFlags::SYN | pm_packet::tcp::TcpFlags::FIN)
        .dst_ip([10, 5, 5, 5])
        .frame_len(256)
        .build();
    scan.resize(2176, 0);
    let r = dp.process(0, &mut mem, &desc(1, 256), &mut scan);
    assert_eq!(r.tx_len, None, "SYN+FIN scan dropped by the IDS");
}

/// Differential check: the fully optimized plan produces byte-identical
/// output and identical forward/drop decisions to vanilla.
#[test]
fn optimized_plan_preserves_behavior() {
    let mut vanilla = dataplane(&Nf::Router, ExecPlan::vanilla(MetadataModel::Copying));
    let all = ExperimentBuilder::new(Nf::Router)
        .optimization(OptLevel::AllSource)
        .build_ir()
        .expect("ir");
    let mut optimized = dataplane(&Nf::Router, all.plan);
    let mut mem_a = MemoryHierarchy::skylake(1);
    let mut mem_b = MemoryHierarchy::skylake(1);
    let trace = packetmill::Trace::synthesize(&packetmill::TraceConfig {
        packets: 512,
        ..Default::default()
    });
    for i in 0..trace.len() {
        let frame = trace.frame(i);
        let mut a = frame.to_vec();
        let mut b = frame.to_vec();
        let ra = vanilla.process(0, &mut mem_a, &desc(i as u64, frame.len()), &mut a);
        let rb = optimized.process(0, &mut mem_b, &desc(i as u64, frame.len()), &mut b);
        assert_eq!(ra.tx_len, rb.tx_len, "packet {i}: same fate");
        assert_eq!(a, b, "packet {i}: identical bytes");
    }
}

/// The same holds across metadata models (X-Change vs Copying).
#[test]
fn xchange_preserves_behavior() {
    let mut copy = dataplane(&Nf::Router, ExecPlan::vanilla(MetadataModel::Copying));
    let mut xchg = dataplane(&Nf::Router, ExecPlan::vanilla(MetadataModel::XChange));
    let mut mem_a = MemoryHierarchy::skylake(1);
    let mut mem_b = MemoryHierarchy::skylake(1);
    let trace = packetmill::Trace::synthesize(&packetmill::TraceConfig {
        packets: 256,
        ..Default::default()
    });
    for i in 0..trace.len() {
        let frame = trace.frame(i);
        let mut a = frame.to_vec();
        let mut b = frame.to_vec();
        let ra = copy.process(0, &mut mem_a, &desc(i as u64, frame.len()), &mut a);
        let rb = xchg.process(0, &mut mem_b, &desc(i as u64, frame.len()), &mut b);
        assert_eq!(ra.tx_len, rb.tx_len, "packet {i}");
        assert_eq!(a, b, "packet {i}");
    }
}

/// Engine accounting: runs are deterministic for a fixed seed, packets
/// are conserved, and latency respects the configured floor.
#[test]
fn engine_accounting_invariants() {
    let build = || {
        ExperimentBuilder::new(Nf::Router)
            .metadata_model(MetadataModel::XChange)
            .optimization(OptLevel::AllSource)
            .packets(8_000)
            .seed(42)
    };
    let a = build().run().expect("run a");
    let b = build().run().expect("run b");
    assert_eq!(a, b, "identical seeds must give identical measurements");

    assert!(a.tx_packets > 0);
    assert!(
        a.median_latency_us >= 4.0,
        "latency floor is the base latency"
    );
    assert!(a.p99_latency_us >= a.median_latency_us);
    assert!(a.mean_latency_us > 0.0);
    assert!(a.throughput_gbps > 0.0 && a.throughput_gbps < 100.5);
    assert!(a.ipc > 0.5 && a.ipc < 4.0, "IPC {:.2} plausible", a.ipc);
}

/// Changing the seed changes the trace but not the qualitative outcome.
#[test]
fn seed_affects_trace_not_shape() {
    let run = |seed| {
        ExperimentBuilder::new(Nf::Forwarder)
            .metadata_model(MetadataModel::XChange)
            .packets(8_000)
            .seed(seed)
            .run()
            .expect("run")
    };
    let a = run(1);
    let b = run(2);
    assert_ne!(a, b, "different traffic");
    let ratio = a.throughput_gbps / b.throughput_gbps;
    assert!((0.8..1.25).contains(&ratio), "ratio {ratio:.2} stays close");
}

/// The Full optimization level runs the profile-guided reordering pass:
/// hot fields move to the front of the Packet layout.
#[test]
fn full_opt_reorders_packet_layout() {
    let ir = ExperimentBuilder::new(Nf::Router)
        .metadata_model(MetadataModel::Copying)
        .optimization(OptLevel::Full)
        .packets(4_096)
        .build_ir()
        .expect("ir");
    let default = packetmill::ExecPlan::vanilla(MetadataModel::Copying).packet_layout;
    assert_ne!(
        ir.plan.packet_layout, default,
        "reordering must change the layout"
    );
    // The router's hottest fields now live in the first cache line.
    for f in ["dst_ip_anno", "net_hdr", "paint_anno"] {
        assert_eq!(ir.plan.packet_layout.line_of(f), 0, "{f} should be hot");
    }
    assert_eq!(
        ir.plan.packet_layout.fields().len(),
        default.fields().len(),
        "field set preserved"
    );
}

/// Per-element handlers: packet counts are flow-conserving along the
/// firewall pipeline (in = out + drops at each stage).
#[test]
fn element_handlers_conserve_packets() {
    let (m, handlers) = ExperimentBuilder::new(Nf::Firewall)
        .packets(10_000)
        .run_with_handlers()
        .expect("run");
    let get = |name: &str| {
        handlers
            .iter()
            .find(|(n, _, _)| n == name)
            .unwrap_or_else(|| panic!("{name} missing from {handlers:?}"))
    };
    let (_, fw_seen, fw_drops) = get("fw");
    let (_, rt_seen, _) = get("rt");
    assert_eq!(fw_seen - fw_drops, *rt_seen, "firewall out == router in");
    let (_, check_seen, check_drops) = get("CheckIPHeader@3");
    assert_eq!(
        check_seen - check_drops,
        *fw_seen,
        "check out == firewall in"
    );
    assert!(m.nf_dropped >= *fw_drops / 2, "NF drops include denials");
}

/// Pcap round trip through the whole stack: synthesize → save → load →
/// replay through the engine, matching the synthetic run exactly.
#[test]
fn pcap_replay_matches_synthetic() {
    let trace = packetmill::Trace::synthesize(&packetmill::TraceConfig {
        packets: 2_048,
        ..Default::default()
    });
    let mut path = std::env::temp_dir();
    path.push(format!("pm_replay_{}.pcap", std::process::id()));
    trace.to_pcap(&path).expect("save");
    let loaded = packetmill::Trace::from_pcap(&path).expect("load");
    std::fs::remove_file(&path).ok();

    let run = |t: packetmill::Trace| {
        ExperimentBuilder::new(Nf::Forwarder)
            .metadata_model(MetadataModel::XChange)
            .packets(6_000)
            .trace(t)
            .run()
            .expect("run")
    };
    let a = run(trace);
    let b = run(loaded);
    assert_eq!(a, b, "bit-identical trace must give identical measurement");
    assert!(a.tx_packets > 0);
}
