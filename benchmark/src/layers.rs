//! Fixed-op-count loops over the public functions of the layers that
//! cannot be wrapped from outside (`pm-mem`, `pm-nic`, `pm-dpdk`, the
//! element tables, trace synthesis, telemetry). Workload-independent:
//! the same loops run beside every workload's traced pass. Host time;
//! each value is the median of [`REPS`] timed repetitions.

use crate::metrics::Sample;
use packetmill::{
    chrome_trace, ExperimentBuilder, FaultPlan, Json, MetadataModel, MetadataSpec, Nf, SimTime,
    SizeModel, Trace, TraceConfig, Workload, WorkloadSpec,
};
use pm_dpdk::{Mempool, MempoolMode, Pmd, PmdConfig, TxSend};
use pm_elements::cuckoo::CuckooHash;
use pm_elements::trie::{RadixTrie, Route};
use pm_mem::{AccessKind, AddressSpace, Cost, HierarchyParams, MemoryHierarchy, ProgramBuilder};
use pm_nic::{DmaMemory, Nic, NicConfig};
use pm_sim::SplitMix64;
use pm_telemetry::LatencyHistogram;
use std::hint::black_box;
use std::time::Instant;

/// Timed repetitions per loop.
const REPS: usize = 5;

/// ns per op of `REPS` repetitions of `ops` calls of `f(i)`, after one
/// untimed repetition.
fn ns_per_op(ops: u64, mut f: impl FnMut(u64)) -> Vec<f64> {
    (0..=REPS)
        .map(|_| {
            let t = Instant::now();
            for i in 0..ops {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .skip(1)
        .collect()
}

fn mem_loops(scale: u64, out: &mut Vec<Sample>) {
    // 16 L1-resident lines, revisited round-robin.
    let mut mem = MemoryHierarchy::skylake(1);
    out.push(Sample::median_of(
        "mem.access_hit_ns",
        ns_per_op(2_000_000 / scale, |i| {
            black_box(mem.access(0, 0x10000 + (i & 15) * 64, 8, AccessKind::Load));
        }),
    ));

    // Pseudorandom lines across 256 MiB: most walk all levels to DRAM.
    let mut mem = MemoryHierarchy::skylake(1);
    let mut rng = SplitMix64::new(0xBEEF);
    out.push(Sample::median_of(
        "mem.access_miss_ns",
        ns_per_op(300_000 / scale, |_| {
            let addr = rng.next_u64() & (256 * 1024 * 1024 - 1);
            black_box(mem.access(0, addr, 8, AccessKind::Load));
        }),
    ));

    // One MTU-sized store span (23 lines) over 64 cycling buffers.
    let mut mem = MemoryHierarchy::skylake(1);
    let per_span = ns_per_op(100_000 / scale, |i| {
        black_box(mem.access_range(0, 0x20_0000 + (i & 63) * 2048, 1472, AccessKind::Store));
    });
    out.push(Sample::median_of(
        "mem.access_range_ns_per_line",
        per_span.iter().map(|ns| ns / 23.0).collect(),
    ));

    // Dispatch-shaped program on fixed bases: an armed-signature replay
    // on the fast resolver, a per-line walk on the reference one.
    let dispatch = ProgramBuilder::new()
        .prefetch(0, 0, 64)
        .load(0, 0, 32)
        .compute(18)
        .load(1, 0, 8)
        .build();
    let bases = [0x10_000u64, 0x12_000];
    let mut mem = MemoryHierarchy::skylake(1);
    out.push(Sample::median_of(
        "mem.program_replay_ns",
        ns_per_op(2_000_000 / scale, |_| {
            let mut cost = Cost::ZERO;
            mem.run_program(0, &dispatch, &bases, &mut cost);
            black_box(cost);
        }),
    ));
    let mut mem = MemoryHierarchy::with_reference_walk(&HierarchyParams::skylake(1));
    out.push(Sample::median_of(
        "mem.program_walk_ns",
        ns_per_op(1_000_000 / scale, |_| {
            let mut cost = Cost::ZERO;
            mem.run_program(0, &dispatch, &bases, &mut cost);
            black_box(cost);
        }),
    ));

    // The PMD's burst shape: 32 strided WQE rows per call.
    let wqe = ProgramBuilder::new().store(0, 0, 16).compute(4).build();
    let rows: Vec<[u64; 1]> = (0..32u64).map(|k| [0x48_000 + k * 16]).collect();
    let mut mem = MemoryHierarchy::skylake(1);
    let per_batch = ns_per_op(60_000 / scale, |_| {
        let mut cost = Cost::ZERO;
        black_box(mem.run_program_batch(0, &wqe, &rows, &mut cost));
    });
    out.push(Sample::median_of(
        "mem.program_batch32_ns_per_row",
        per_batch.iter().map(|ns| ns / 32.0).collect(),
    ));

    // DDIO fill of one MTU frame (23 lines) into 4096 cycling buffers.
    let mut mem = MemoryHierarchy::skylake(1);
    let per_frame = ns_per_op(200_000 / scale, |i| {
        mem.dma_write(0x100_0000 + (i & 4095) * 2176, 1472);
    });
    out.push(Sample::median_of(
        "mem.dma_write_ns_per_line",
        per_frame.iter().map(|ns| ns / 23.0).collect(),
    ));

    let params = HierarchyParams::skylake(1);
    out.push(Sample::median_of(
        "mem.new_us",
        ns_per_op(12, |_| {
            black_box(MemoryHierarchy::new(&params));
        })
        .iter()
        .map(|ns| ns / 1e3)
        .collect(),
    ));
}

/// What the null-NF I/O loop measured for one metadata model.
struct IoLoop {
    rx_deliver_ns_per_frame: f64,
    rx_burst_ns_per_pkt: f64,
    tx_burst_ns_per_pkt: f64,
    steady_burst_ratio: f64,
    batch_replay_ratio: f64,
    signature_replays_per_pkt: f64,
    signature_kills_per_pkt: f64,
    bursts: usize,
}

/// `Nic::rx_deliver_hashed` → `Pmd::rx_burst` → `Pmd::tx_burst` at the
/// engine's own sizes (4096/1024 rings, burst 32), campus frames paced
/// at 100 Gbps, no NF in between.
fn io_loop(model: MetadataModel, trace: &Trace, bursts: usize) -> IoLoop {
    const BURST: usize = 32;
    let mut space = AddressSpace::new();
    let mut mem = MemoryHierarchy::skylake(1);
    let mut nic = Nic::new(&NicConfig::default(), &mut space);
    let n_bufs = (4096 + 1024 + 4 * BURST) as u32;
    let mut dma = DmaMemory::new(&mut space, n_bufs, 2176, 128);
    let mut pmd = Pmd::new(
        PmdConfig {
            burst: BURST,
            model,
            spec: MetadataSpec::routing(),
            pool_size: n_bufs,
            ..PmdConfig::default()
        },
        &mut space,
    );
    pmd.setup(0, &mut nic, 0, &dma, &mut mem);
    mem.mark_hugepages(dma.region());
    for r in pmd.hugepage_regions() {
        mem.mark_hugepages(r);
    }
    let hashes: Vec<u32> = (0..trace.len())
        .map(|i| nic.rss_hash(trace.frame(i)))
        .collect();

    let (mut deliver_ns, mut rx_ns, mut tx_ns) = (0u128, 0u128, 0u128);
    let (mut delivered, mut received) = (0u64, 0u64);
    let mut now = SimTime::ZERO;
    let mut seq = 0usize;
    let mut sends: Vec<TxSend> = Vec::with_capacity(BURST);
    for _ in 0..bursts {
        let t = Instant::now();
        for _ in 0..BURST {
            let frame = trace.frame(seq);
            let hash = hashes[seq % hashes.len()];
            let q = nic.rx_deliver_hashed(frame, hash, now, seq as u64, &mut mem, &mut dma);
            delivered += u64::from(q.is_some());
            now += SimTime::from_ps((frame.len() as u64 + 20) * 8 * 10);
            seq += 1;
        }
        deliver_ns += t.elapsed().as_nanos();

        // Poll once the burst's DMA has landed.
        let poll_at = now + SimTime::from_us(2.0);
        let t = Instant::now();
        let (pkts, _) = pmd.rx_burst(0, &mut nic, 0, &dma, &mut mem, poll_at);
        rx_ns += t.elapsed().as_nanos();
        received += pkts.len() as u64;

        sends.clear();
        sends.extend(pkts.iter().map(|d| TxSend {
            desc: *d,
            len: d.len,
        }));
        let t = Instant::now();
        black_box(pmd.tx_burst(0, &mut nic, 0, &mut mem, poll_at, &sends));
        tx_ns += t.elapsed().as_nanos();
    }
    let stats = pmd.stats();
    IoLoop {
        rx_deliver_ns_per_frame: deliver_ns as f64 / delivered.max(1) as f64,
        rx_burst_ns_per_pkt: rx_ns as f64 / received.max(1) as f64,
        tx_burst_ns_per_pkt: tx_ns as f64 / received.max(1) as f64,
        steady_burst_ratio: pmd.steady_bursts() as f64 / stats.rx_bursts.max(1) as f64,
        batch_replay_ratio: pmd.batch_replays() as f64 / stats.rx_packets.max(1) as f64,
        signature_replays_per_pkt: mem.signature_replays() as f64 / received.max(1) as f64,
        signature_kills_per_pkt: mem.signature_kills() as f64 / received.max(1) as f64,
        bursts,
    }
}

fn io_loops(scale: u64, out: &mut Vec<Sample>) {
    let trace = Trace::synthesize(&TraceConfig::default());
    let bursts = (3_000 / scale) as usize;
    let loops: Vec<(&'static str, IoLoop)> = [
        ("dpdk.rx_burst_ns_per_pkt.copying", MetadataModel::Copying),
        (
            "dpdk.rx_burst_ns_per_pkt.overlaying",
            MetadataModel::Overlaying,
        ),
        ("dpdk.rx_burst_ns_per_pkt.xchange", MetadataModel::XChange),
    ]
    .into_iter()
    .map(|(name, model)| (name, io_loop(model, &trace, bursts)))
    .collect();
    // One total per loop, over `bursts` timed bursts.
    for (name, l) in &loops {
        out.push(Sample::over(name, l.rx_burst_ns_per_pkt, l.bursts));
    }
    // The Copying loop stands for the model-independent parts.
    let (_, l) = &loops[0];
    for (name, value) in [
        ("nic.rx_deliver_ns_per_frame", l.rx_deliver_ns_per_frame),
        ("dpdk.tx_burst_ns_per_pkt", l.tx_burst_ns_per_pkt),
        ("dpdk.steady_burst_ratio", l.steady_burst_ratio),
        ("mem.batch_replay_ratio", l.batch_replay_ratio),
        ("mem.signature_replays_per_pkt", l.signature_replays_per_pkt),
        ("mem.signature_kills_per_pkt", l.signature_kills_per_pkt),
    ] {
        out.push(Sample::over(name, value, l.bursts));
    }

    let mut space = AddressSpace::new();
    let nic = Nic::new(&NicConfig::default(), &mut space);
    out.push(Sample::median_of(
        "nic.rss_hash_ns",
        ns_per_op(400_000 / scale, |i| {
            black_box(nic.rss_hash(trace.frame(i as usize)));
        }),
    ));

    let mut mem = MemoryHierarchy::skylake(1);
    let mut pool = Mempool::new(&mut space, 8192, MempoolMode::Fifo);
    out.push(Sample::median_of(
        "dpdk.mempool_cycle_ns",
        ns_per_op(1_000_000 / scale, |_| {
            let (id, _) = pool.alloc(0, &mut mem);
            black_box(pool.free(0, &mut mem, id.expect("pool never drains")));
        }),
    ));
}

fn table_loops(scale: u64, out: &mut Vec<Sample>) {
    let entries = 1_000_000 / scale;
    let key = |i: u64| SplitMix64::new(i).next_u64();

    // Sized like the scaled NAT preset: 1.3× slack, 4-way buckets.
    let buckets = ((entries as f64 * 1.3 / 4.0).ceil() as usize).next_power_of_two();
    let mut table: CuckooHash<u64, u32> = CuckooHash::new(buckets);
    for i in 0..entries {
        table.insert(key(i), i as u32);
    }
    out.push(Sample::median_of(
        "elements.cuckoo_lookup_ns",
        ns_per_op(400_000 / scale, |i| {
            black_box(table.lookup(&key(i.wrapping_mul(7919) % entries)));
        }),
    ));
    drop(table);

    // Prefixes /8../28 inside 10/8, like the synthesized FIB.
    let mut trie = RadixTrie::new();
    for i in 0..entries {
        let h = key(i);
        let len = 8 + ((h >> 8) % 21) as u8;
        let prefix = (0x0a00_0000 | ((h >> 16) as u32 & 0x00ff_ffff)) & (u32::MAX << (32 - len));
        trie.insert(
            prefix,
            len,
            Route {
                port: (h >> 48) as u16 & 3,
                gateway: 0,
            },
        );
    }
    out.push(Sample::median_of(
        "elements.lpm_lookup_ns",
        ns_per_op(400_000 / scale, |i| {
            black_box(trie.lookup(0x0a00_0000 | (key(i) as u32 & 0x00ff_ffff)));
        }),
    ));
}

fn traffic_loops(scale: u64, out: &mut Vec<Sample>) {
    let cfg = TraceConfig::default();
    let per_trace = ns_per_op(1, |_| {
        black_box(Trace::synthesize(&cfg));
    });
    out.push(Sample::median_of(
        "traffic.synth_campus_ns_per_frame",
        per_trace.iter().map(|ns| ns / cfg.packets as f64).collect(),
    ));

    // Includes the O(flows) Zipf table build, as a cold set-up pays it.
    let frames = 16_384;
    let spec = WorkloadSpec {
        seed: 0xF10E5,
        flows: 1_000_000 / scale,
        zipf_x1000: 1_100,
        life: frames / 4,
        frames,
        size: SizeModel::Campus,
        attacks: Vec::new(),
    };
    let per_trace = ns_per_op(1, |_| {
        black_box(Trace::from_workload(&Workload::new(spec.clone())));
    });
    out.push(Sample::median_of(
        "traffic.synth_workload_ns_per_frame",
        per_trace.iter().map(|ns| ns / frames as f64).collect(),
    ));
}

fn telemetry_loops(scale: u64, out: &mut Vec<Sample>) {
    let mut hist = LatencyHistogram::new();
    let mut rng = SplitMix64::new(7);
    out.push(Sample::median_of(
        "telemetry.histogram_record_ns",
        ns_per_op(2_000_000 / scale, |_| {
            hist.record(4_000 + (rng.next_u64() & 0xf_ffff));
        }),
    ));
    black_box(hist.p99());

    // A small recorded run supplies a realistic document and trace.
    let (_, report) = ExperimentBuilder::new(Nf::Router)
        .metadata_model(MetadataModel::XChange)
        .packets(8_192)
        .profile(true)
        .timeline_us(50.0)
        .packet_trace(true)
        .run_with_report()
        .expect("router preset runs");
    let doc = Json::Arr(vec![report.to_json(); 8]);
    let kib = doc.to_pretty().len() as f64 / 1024.0;
    out.push(Sample::median_of(
        "telemetry.json_pretty_ns_per_kib",
        ns_per_op(1, |_| {
            black_box(doc.to_pretty());
        })
        .iter()
        .map(|ns| ns / kib)
        .collect(),
    ));

    let trace = report.trace.as_ref().expect("run recorded packet traces");
    let events = match chrome_trace(&[("router", trace)]).get("traceEvents") {
        Some(Json::Arr(e)) => e.len() as f64,
        _ => 1.0,
    };
    out.push(Sample::median_of(
        "telemetry.chrome_trace_ns_per_event",
        ns_per_op(8, |_| {
            black_box(chrome_trace(&[("router", trace)]));
        })
        .iter()
        .map(|ns| ns / events)
        .collect(),
    ));

    let plan = FaultPlan::parse("seed=0x71AE;bitflip@..:rate=2000ppm;flap@800us..1000us")
        .expect("static fault spec is valid");
    out.push(Sample::median_of(
        "sim.fault_decide_ns",
        ns_per_op(2_000_000 / scale, |i| {
            black_box(plan.wire_fault(0, i, SimTime::from_ns(i as f64 * 80.0), 981));
        }),
    ));
}

/// Runs every layer loop. `quick` divides op counts and table sizes by
/// ten.
pub fn run(quick: bool) -> Vec<Sample> {
    let scale = if quick { 10 } else { 1 };
    let mut out = Vec::new();
    mem_loops(scale, &mut out);
    io_loops(scale, &mut out);
    table_loops(scale, &mut out);
    traffic_loops(scale, &mut out);
    telemetry_loops(scale, &mut out);
    out
}
