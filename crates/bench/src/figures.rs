//! Figure/table generators.
//!
//! Every function reproduces one evaluation artifact of the paper. The
//! workload, parameters, and reported series mirror §4; absolute numbers
//! come from the simulated testbed, so the *shape* (orderings, factors,
//! crossovers) is the claim, not the exact values. `EXPERIMENTS.md`
//! records paper-vs-measured for each.
//!
//! Each artifact declares its full experiment grid as a
//! [`SweepSpec`] and executes it on the parallel sweep runner; the
//! table rows are assembled from the in-input-order results, so the
//! printed artifact is byte-identical at any `--threads` setting. Every
//! generator takes the parsed command line ([`Cli`]) and builds its
//! sweep with [`SweepSpec::from_cli`], so the worker count and the run
//! flags reach each run that does not set that knob itself.

use packetmill::{
    BessEngine, Cli, ExperimentBuilder, L2Fwd, MempoolMode, MetaField, MetadataModel, MetadataSpec,
    Nf, OptLevel, SweepReport, SweepResults, SweepSpec, Table, TrafficProfile, VppEngine,
};
use std::io::IsTerminal;
use std::path::Path;

/// Packets per data point (per NIC). Chosen so every figure regenerates
/// in minutes while past the warm-up transients.
const PACKETS: usize = 40_000;

/// The frequency sweep used by Figs. 4, 5, and 8 (GHz).
pub const FREQS: [f64; 7] = [1.2, 1.5, 1.8, 2.1, 2.3, 2.6, 3.0];

/// One generated artifact: the paper-style table plus the full sweep
/// results (per-run measurements, structured reports, profiles) that
/// produced it.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The paper-style rows (deterministic: independent of threading).
    pub table: Table,
    /// Aggregate sweep telemetry (runs, failures, wall-clock, speedup).
    pub report: SweepReport,
    /// The per-run outcomes the table was assembled from, in input
    /// order — carries each run's [`packetmill::RunReport`].
    pub results: SweepResults,
}

impl Artifact {
    /// Wraps a rendered table with the sweep results that produced it.
    pub fn new(table: Table, results: SweepResults) -> Self {
        Artifact {
            table,
            report: results.report(),
            results,
        }
    }

    /// Prints the table to stdout and profile tables + the sweep report
    /// to stderr, so redirected artifact output stays byte-identical
    /// across thread counts while the telemetry remains visible.
    pub fn emit(&self) {
        println!("{}", self.table);
        self.emit_profiles();
        eprintln!("sweep report:\n{}", self.report);
    }

    /// Prints each profiled run's `perf report`-style table to stderr
    /// (no-op when the sweep ran without `--profile`), followed by each
    /// faulted run's conservation ledger (no-op without `--faults`).
    pub fn emit_profiles(&self) {
        for o in &self.results.outcomes {
            if let Some(p) = o.report.as_ref().and_then(|r| r.profile.as_ref()) {
                eprintln!("profile — {}:\n{}", o.label, p.to_table());
            }
        }
        for o in &self.results.outcomes {
            if let Some(f) = o.report.as_ref().and_then(|r| r.faults.as_ref()) {
                eprintln!("faults — {} [{}]:\n{}", o.label, f.spec, f.ledger);
            }
        }
    }
}

/// Writes named artifact groups as one `packetmill-run-report/v1` JSON
/// document (the `--json <path>` output of the benchmark binaries).
pub fn write_artifacts(path: &Path, groups: &[(&str, &Artifact)]) -> std::io::Result<()> {
    let doc = packetmill::sweep::artifact_document(
        groups.iter().map(|(n, a)| a.results.to_json(n)).collect(),
    );
    std::fs::write(path, doc.to_pretty() + "\n")
}

/// Writes every traced run in the given artifact groups as one Chrome
/// `trace_event` JSON document (the `--trace <path>` output; open in
/// `ui.perfetto.dev` or `chrome://tracing`). No-op runs without a trace
/// are skipped, so this works on mixed sweeps.
pub fn write_trace(path: &Path, groups: &[(&str, &Artifact)]) -> std::io::Result<()> {
    let mut runs = Vec::new();
    for (_, a) in groups {
        for o in &a.results.outcomes {
            if let Some(t) = o.report.as_ref().and_then(|r| r.trace.as_ref()) {
                runs.push((o.label.as_str(), t));
            }
        }
    }
    std::fs::write(path, packetmill::chrome_trace(&runs).to_pretty() + "\n")
}

/// The standard output tail of every benchmark binary: writes the
/// `--json <path>` run-report document and the `--trace <path>` Chrome
/// trace when the CLI asked for them.
pub fn write_cli_outputs(cli: &Cli, groups: &[(&str, &Artifact)]) {
    if let Some(path) = &cli.json {
        write_artifacts(path, groups).expect("write --json artifact");
        eprintln!("wrote {}", path.display());
    }
    if let Some(path) = &cli.trace {
        write_trace(path, groups).expect("write --trace file");
        eprintln!("wrote {}", path.display());
    }
}

/// Per-run progress lines are for someone watching: on when stderr is
/// a terminal, off when it is a pipe or a file.
fn sweep(cli: &Cli) -> SweepSpec {
    SweepSpec::from_cli(cli).progress(std::io::stderr().is_terminal())
}

/// Fixed-size sweeps drop most arrivals at small sizes; scale the run so
/// the post-warm-up window still observes tens of thousands of packets.
fn packets_for_size(size: usize) -> usize {
    (PACKETS * 1472 / size).clamp(PACKETS, PACKETS * 16)
}

fn router(model: MetadataModel, opt: OptLevel, f: f64) -> ExperimentBuilder {
    ExperimentBuilder::new(Nf::Router)
        .metadata_model(model)
        .optimization(opt)
        .frequency_ghz(f)
        .packets(PACKETS)
}

/// Figure 1: 99th-percentile latency vs throughput for the router on one
/// 2.3-GHz core, vanilla FastClick vs full PacketMill, offered-load sweep.
pub fn fig1(cli: &Cli) -> Artifact {
    const OFFERED: [f64; 10] = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0];
    let mut s = sweep(cli);
    for offered in OFFERED {
        s.push(
            format!("fig1 {offered:.0}G vanilla"),
            router(MetadataModel::Copying, OptLevel::Vanilla, 2.3).offered_gbps(offered),
        );
        s.push(
            format!("fig1 {offered:.0}G packetmill"),
            router(MetadataModel::XChange, OptLevel::AllSource, 2.3).offered_gbps(offered),
        );
    }
    let results = s.run();
    let ms = results.expect_all();

    let mut t = Table::new(vec![
        "offered (Gbps)",
        "vanilla tput",
        "vanilla p99 (us)",
        "packetmill tput",
        "packetmill p99 (us)",
    ]);
    for (offered, pair) in OFFERED.iter().zip(ms.chunks_exact(2)) {
        let (v, p) = (&pair[0], &pair[1]);
        t.row(vec![
            format!("{offered:.0}"),
            format!("{:.1}", v.throughput_gbps),
            format!("{:.0}", v.p99_latency_us),
            format!("{:.1}", p.throughput_gbps),
            format!("{:.0}", p.p99_latency_us),
        ]);
    }
    Artifact::new(t, results)
}

/// The five source-optimization variants of Fig. 4 / Table 1.
const VARIANTS: [(&str, OptLevel); 5] = [
    ("vanilla", OptLevel::Vanilla),
    ("devirtualize", OptLevel::Devirtualize),
    ("constants", OptLevel::ConstantEmbed),
    ("static-graph", OptLevel::StaticGraph),
    ("all", OptLevel::AllSource),
];

/// Figure 4: router throughput and median latency vs core frequency for
/// the five source-optimization variants (Copying model).
pub fn fig4(cli: &Cli) -> Artifact {
    let mut s = sweep(cli);
    for &f in &FREQS {
        for (name, opt) in VARIANTS {
            s.push(
                format!("fig4 {f:.1}GHz {name}"),
                router(MetadataModel::Copying, opt, f),
            );
        }
    }
    let results = s.run();
    let ms = results.expect_all();

    let mut t = Table::new(vec![
        "freq (GHz)",
        "variant",
        "Gbps",
        "Mpps",
        "p50 lat (us)",
    ]);
    let mut it = ms.iter();
    for &f in &FREQS {
        for (name, _) in VARIANTS {
            let m = it.next().expect("one result per (freq, variant)");
            t.row(vec![
                format!("{f:.1}"),
                name.to_string(),
                format!("{:.1}", m.throughput_gbps),
                format!("{:.2}", m.mpps),
                format!("{:.0}", m.median_latency_us),
            ]);
        }
    }
    Artifact::new(t, results)
}

/// Table 1: micro-architectural metrics at 3 GHz for the five variants.
pub fn table1(cli: &Cli) -> Artifact {
    let mut s = sweep(cli);
    for (name, opt) in VARIANTS {
        s.push(
            format!("table1 {name}"),
            router(MetadataModel::Copying, opt, 3.0),
        );
    }
    let results = s.run();
    let ms = results.expect_all();

    let mut t = Table::new(vec![
        "metric",
        "vanilla",
        "devirt",
        "constants",
        "static",
        "all",
    ]);
    t.row_f64(
        "LLC kilo loads / 100ms",
        &ms.iter()
            .map(|m| m.llc_loads_per_100ms / 1e3)
            .collect::<Vec<_>>(),
        0,
    );
    t.row_f64(
        "LLC kilo load-misses / 100ms",
        &ms.iter()
            .map(|m| m.llc_misses_per_100ms / 1e3)
            .collect::<Vec<_>>(),
        1,
    );
    t.row_f64("IPC", &ms.iter().map(|m| m.ipc).collect::<Vec<_>>(), 2);
    t.row_f64("Mpps", &ms.iter().map(|m| m.mpps).collect::<Vec<_>>(), 2);
    Artifact::new(t, results)
}

/// The three metadata-management models, in presentation order.
const MODELS: [MetadataModel; 3] = [
    MetadataModel::Copying,
    MetadataModel::Overlaying,
    MetadataModel::XChange,
];

/// Figure 5a: forwarder throughput vs frequency for the three metadata
/// models (no source optimizations — isolating metadata management).
pub fn fig5a(cli: &Cli) -> Artifact {
    let mut s = sweep(cli);
    for &f in &FREQS {
        for model in MODELS {
            s.push(
                format!("fig5a {f:.1}GHz {model:?}"),
                ExperimentBuilder::new(Nf::Forwarder)
                    .metadata_model(model)
                    .frequency_ghz(f)
                    .packets(PACKETS),
            );
        }
    }
    let results = s.run();
    let ms = results.expect_all();

    let mut t = Table::new(vec!["freq (GHz)", "copying", "overlaying", "x-change"]);
    for (&f, triple) in FREQS.iter().zip(ms.chunks_exact(3)) {
        let vals: Vec<f64> = triple.iter().map(|m| m.throughput_gbps).collect();
        t.row_f64(format!("{f:.1}"), &vals, 1);
    }
    Artifact::new(t, results)
}

/// Figure 5b: the same sweep with two 100-Gbps NICs polled by one core —
/// total throughput exceeds 100 Gbps only under X-Change.
pub fn fig5b(cli: &Cli) -> Artifact {
    let mut s = sweep(cli);
    for &f in &FREQS {
        for model in MODELS {
            s.push(
                format!("fig5b {f:.1}GHz {model:?} 2xNIC"),
                ExperimentBuilder::new(Nf::Forwarder)
                    .metadata_model(model)
                    .frequency_ghz(f)
                    .nics(2)
                    .packets(PACKETS / 2),
            );
        }
    }
    let results = s.run();
    let ms = results.expect_all();

    let mut t = Table::new(vec![
        "freq (GHz)",
        "copying total",
        "overlaying total",
        "x-change total",
    ]);
    for (&f, triple) in FREQS.iter().zip(ms.chunks_exact(3)) {
        let vals: Vec<f64> = triple.iter().map(|m| m.throughput_gbps).collect();
        t.row_f64(format!("{f:.1}"), &vals, 1);
    }
    Artifact::new(t, results)
}

/// Packet sizes for the fixed-size sweeps (Figs. 6 and 11).
pub const SIZES: [usize; 12] = [64, 128, 192, 320, 448, 576, 704, 832, 960, 1088, 1216, 1472];

/// Figure 6: router @2.3 GHz, Gbps and Mpps vs fixed packet size,
/// vanilla vs PacketMill.
pub fn fig6(cli: &Cli) -> Artifact {
    let mut s = sweep(cli);
    for &size in &SIZES {
        s.push(
            format!("fig6 {size}B vanilla"),
            router(MetadataModel::Copying, OptLevel::Vanilla, 2.3)
                .traffic(TrafficProfile::FixedSize(size))
                .packets(packets_for_size(size)),
        );
        s.push(
            format!("fig6 {size}B packetmill"),
            router(MetadataModel::XChange, OptLevel::AllSource, 2.3)
                .traffic(TrafficProfile::FixedSize(size))
                .packets(packets_for_size(size)),
        );
    }
    let results = s.run();
    let ms = results.expect_all();

    let mut t = Table::new(vec![
        "size (B)",
        "vanilla Gbps",
        "vanilla Mpps",
        "packetmill Gbps",
        "packetmill Mpps",
    ]);
    for (&size, pair) in SIZES.iter().zip(ms.chunks_exact(2)) {
        let (v, p) = (&pair[0], &pair[1]);
        t.row(vec![
            format!("{size}"),
            format!("{:.1}", v.throughput_gbps),
            format!("{:.2}", v.mpps),
            format!("{:.1}", p.throughput_gbps),
            format!("{:.2}", p.mpps),
        ]);
    }
    Artifact::new(t, results)
}

/// The (W, S) grid of the Fig. 7 surfaces.
const FIG7_W: [u32; 5] = [0, 4, 8, 16, 20];
const FIG7_S: [u32; 5] = [1, 4, 8, 12, 16];

/// Figure 7: PacketMill's improvement (%) over vanilla for the synthetic
/// WorkPackage NF over (W, S) grids, at `n` accesses per packet.
///
/// At N = 1 the optimized configuration saturates the simulated pipe
/// over much of the grid (our ceiling sits above the paper's testbed
/// plateau), which flattens its absolute numbers there; the N = 5
/// surface is fully CPU/memory-bound and shows the paper's decay
/// structure cleanly (see EXPERIMENTS.md).
pub fn fig7(cli: &Cli, n: u32) -> Artifact {
    let mut s = sweep(cli);
    for &w in &FIG7_W {
        for &sz in &FIG7_S {
            let nf = Nf::WorkPackage { w, s_mb: sz, n };
            s.push(
                format!("fig7 N={n} W={w} S={sz} vanilla"),
                ExperimentBuilder::new(nf.clone())
                    .metadata_model(MetadataModel::Copying)
                    .optimization(OptLevel::Vanilla)
                    .frequency_ghz(2.3)
                    .packets(PACKETS),
            );
            s.push(
                format!("fig7 N={n} W={w} S={sz} packetmill"),
                ExperimentBuilder::new(nf)
                    .metadata_model(MetadataModel::XChange)
                    .optimization(OptLevel::AllSource)
                    .frequency_ghz(2.3)
                    .packets(PACKETS),
            );
        }
    }
    let results = s.run();
    let ms = results.expect_all();

    let mut t = Table::new(vec![
        "W (rands)",
        "S (MB)",
        "vanilla Gbps",
        "packetmill Gbps",
        "improvement (%)",
    ]);
    let mut it = ms.chunks_exact(2);
    for &w in &FIG7_W {
        for &sz in &FIG7_S {
            let pair = it.next().expect("one pair per (W, S)");
            let (v, p) = (&pair[0], &pair[1]);
            let imp = (p.throughput_gbps / v.throughput_gbps - 1.0) * 100.0;
            t.row(vec![
                format!("{w}"),
                format!("{sz}"),
                format!("{:.1}", v.throughput_gbps),
                format!("{:.1}", p.throughput_gbps),
                format!("{imp:.1}"),
            ]);
        }
    }
    Artifact::new(t, results)
}

/// Figure 8: IDS+router throughput and median latency vs frequency.
pub fn fig8(cli: &Cli) -> Artifact {
    let mut s = sweep(cli);
    for &f in &FREQS {
        s.push(
            format!("fig8 {f:.1}GHz vanilla"),
            ExperimentBuilder::new(Nf::IdsRouter)
                .metadata_model(MetadataModel::Copying)
                .optimization(OptLevel::Vanilla)
                .frequency_ghz(f)
                .packets(PACKETS),
        );
        s.push(
            format!("fig8 {f:.1}GHz packetmill"),
            ExperimentBuilder::new(Nf::IdsRouter)
                .metadata_model(MetadataModel::XChange)
                .optimization(OptLevel::AllSource)
                .frequency_ghz(f)
                .packets(PACKETS),
        );
    }
    let results = s.run();
    let ms = results.expect_all();

    let mut t = Table::new(vec![
        "freq (GHz)",
        "vanilla Gbps",
        "vanilla p50 (us)",
        "packetmill Gbps",
        "packetmill p50 (us)",
    ]);
    for (&f, pair) in FREQS.iter().zip(ms.chunks_exact(2)) {
        let (v, p) = (&pair[0], &pair[1]);
        t.row(vec![
            format!("{f:.1}"),
            format!("{:.1}", v.throughput_gbps),
            format!("{:.0}", v.median_latency_us),
            format!("{:.1}", p.throughput_gbps),
            format!("{:.0}", p.median_latency_us),
        ]);
    }
    Artifact::new(t, results)
}

/// Figure 9: zooming into the N=1, W=4 slice — throughput, LLC-load-miss
/// percentage, and LLC loads vs memory footprint.
pub fn fig9(cli: &Cli) -> Artifact {
    let sizes_kb: [u64; 12] = [
        256, 512, 1024, 2048, 3072, 5120, 8192, 10240, 12288, 14336, 16384, 20480,
    ];
    let mut s = sweep(cli);
    for &kb in &sizes_kb {
        let nf = Nf::WorkPackageKb {
            w: 4,
            s_kb: kb,
            n: 1,
        };
        s.push(
            format!("fig9 {kb}KB vanilla"),
            ExperimentBuilder::new(nf.clone())
                .metadata_model(MetadataModel::Copying)
                .optimization(OptLevel::Vanilla)
                .packets(PACKETS),
        );
        s.push(
            format!("fig9 {kb}KB packetmill"),
            ExperimentBuilder::new(nf)
                .metadata_model(MetadataModel::XChange)
                .optimization(OptLevel::AllSource)
                .packets(PACKETS),
        );
    }
    let results = s.run();
    let ms = results.expect_all();

    let mut t = Table::new(vec![
        "S (MB)",
        "vanilla Gbps",
        "packetmill Gbps",
        "vanilla miss (%)",
        "packetmill miss (%)",
        "vanilla loads (k/100ms)",
        "packetmill loads (k/100ms)",
    ]);
    for (&kb, pair) in sizes_kb.iter().zip(ms.chunks_exact(2)) {
        let (v, p) = (&pair[0], &pair[1]);
        t.row(vec![
            format!("{:.2}", kb as f64 / 1024.0),
            format!("{:.1}", v.throughput_gbps),
            format!("{:.1}", p.throughput_gbps),
            format!("{:.1}", v.llc_miss_pct),
            format!("{:.1}", p.llc_miss_pct),
            format!("{:.0}", v.llc_loads_per_100ms / 1e3),
            format!("{:.0}", p.llc_loads_per_100ms / 1e3),
        ]);
    }
    Artifact::new(t, results)
}

/// Figure 10: NAT throughput vs core count @2.3 GHz (RSS spreads flows).
pub fn fig10(cli: &Cli) -> Artifact {
    let mut s = sweep(cli);
    for cores in 1..=4usize {
        s.push(
            format!("fig10 {cores}c vanilla"),
            ExperimentBuilder::new(Nf::Nat)
                .metadata_model(MetadataModel::Copying)
                .optimization(OptLevel::Vanilla)
                .cores(cores)
                .packets(PACKETS),
        );
        s.push(
            format!("fig10 {cores}c packetmill"),
            ExperimentBuilder::new(Nf::Nat)
                .metadata_model(MetadataModel::XChange)
                .optimization(OptLevel::AllSource)
                .cores(cores)
                .packets(PACKETS),
        );
    }
    let results = s.run();
    let ms = results.expect_all();

    let mut t = Table::new(vec!["cores", "vanilla Gbps", "packetmill Gbps"]);
    for (cores, pair) in (1..=4usize).zip(ms.chunks_exact(2)) {
        t.row(vec![
            format!("{cores}"),
            format!("{:.1}", pair[0].throughput_gbps),
            format!("{:.1}", pair[1].throughput_gbps),
        ]);
    }
    Artifact::new(t, results)
}

/// The five NF presets of the multi-core scaling sweep.
const MULTICORE_NFS: [(&str, Nf); 5] = [
    ("forwarder", Nf::Forwarder),
    ("router", Nf::Router),
    ("ids-router", Nf::IdsRouter),
    ("nat", Nf::Nat),
    ("firewall", Nf::Firewall),
];

/// Multi-core scaling sweep: throughput and tail latency vs simulated
/// core count (1..=`max_cores`) for all five NF presets, full PacketMill
/// configuration (X-Change + all source optimizations) @2.3 GHz.
///
/// Each run steers traffic over RSS to per-core RX queues, executes one
/// PMD + dataplane pair per (nic, queue) on its owning core, and shares
/// the LLC/DDIO path across cores; the engine asserts a per-queue
/// conservation ledger for every multi-core run. The speedup column is
/// relative to the same NF on one core; efficiency is speedup per core.
pub fn fig_multicore(cli: &Cli, max_cores: usize) -> Artifact {
    let mut s = sweep(cli);
    for (name, nf) in MULTICORE_NFS {
        for cores in 1..=max_cores {
            s.push(
                format!("fig_multicore {name} {cores}c"),
                ExperimentBuilder::new(nf.clone())
                    .metadata_model(MetadataModel::XChange)
                    .optimization(OptLevel::AllSource)
                    .cores(cores)
                    .frequency_ghz(2.3)
                    .packets(PACKETS),
            );
        }
    }
    let results = s.run();
    let ms = results.expect_all();

    let mut t = Table::new(vec![
        "nf",
        "cores",
        "Gbps",
        "Mpps",
        "p50 (us)",
        "p99 (us)",
        "LLC miss (%)",
        "speedup",
        "efficiency (%)",
    ]);
    for ((name, _), per_nf) in MULTICORE_NFS.iter().zip(ms.chunks_exact(max_cores)) {
        let base = per_nf[0].throughput_gbps;
        for (cores, m) in (1..=max_cores).zip(per_nf) {
            let speedup = m.throughput_gbps / base;
            t.row(vec![
                name.to_string(),
                format!("{cores}"),
                format!("{:.1}", m.throughput_gbps),
                format!("{:.2}", m.mpps),
                format!("{:.0}", m.median_latency_us),
                format!("{:.0}", m.p99_latency_us),
                format!("{:.1}", m.llc_miss_pct),
                format!("{speedup:.2}"),
                format!("{:.0}", speedup / cores as f64 * 100.0),
            ]);
        }
    }
    Artifact::new(t, results)
}

/// The flow-population ladder of the flow-scale sweep (concurrent
/// flows; for the router preset, FIB prefixes).
pub const FLOW_LADDER: [u64; 5] = [1_000, 10_000, 100_000, 1_000_000, 10_000_000];

/// The churned Zipf workload driving one flow-scale data point: α 1.1
/// popularity (Internet-like head skew), campus frame sizes, and four
/// flow generations rotating per trace cycle so tables see sustained
/// insert/expire pressure, not just a warmed steady state.
pub fn flowscale_workload(flows: u64) -> packetmill::WorkloadSpec {
    let frames = flows.clamp(1_024, 131_072);
    packetmill::WorkloadSpec {
        seed: 0xF10E5,
        flows,
        zipf_x1000: 1_100,
        life: (frames / 4).max(1),
        frames,
        size: packetmill::SizeModel::Campus,
        attacks: Vec::new(),
    }
}

/// Flow-scale sweep: the three stateful presets (scaled NAT, conntrack
/// firewall, synthesized-FIB router) under the [`flowscale_workload`]
/// churn at every population in [`FLOW_LADDER`] up to `max_flows`, with
/// element tables on 4-KiB pages vs 2-MiB hugepages.
///
/// The claim is the inflection: LLC miss ratio and DTLB misses per
/// packet climb as the live table outgrows the LLC (~23 MiB) and the
/// 4-KiB page working set outgrows the two-level TLB, and hugepages
/// claw back a measurable share of that cost at ≥1M flows. Runs are
/// profiled so the artifact can report DTLB misses; occupancy and
/// eviction columns come from the per-table counters in the run report.
pub fn fig_flowscale(cli: &Cli, max_flows: u64) -> Artifact {
    let ladder: Vec<u64> = FLOW_LADDER
        .iter()
        .copied()
        .filter(|&f| f <= max_flows)
        .collect();
    assert!(!ladder.is_empty(), "flow ladder needs max_flows >= 1000");
    type ScaledNf = fn(u64) -> Nf;
    let stateful: [(&str, ScaledNf); 3] = [
        ("nat", Nf::NatScale),
        ("firewall", Nf::FirewallScale),
        ("router", Nf::RouterScale),
    ];
    const PAGES: [(&str, bool); 2] = [("4k", false), ("huge", true)];
    let mut s = sweep(cli);
    for &flows in &ladder {
        for (name, nf) in stateful {
            for (pages, huge) in PAGES {
                s.push(
                    format!("fig_flowscale {name} {flows} flows {pages}"),
                    ExperimentBuilder::new(nf(flows))
                        .metadata_model(MetadataModel::XChange)
                        .optimization(OptLevel::AllSource)
                        .frequency_ghz(2.3)
                        .packets(PACKETS)
                        .profile(true)
                        .workload(flowscale_workload(flows))
                        .hugepage_tables(huge),
                );
            }
        }
    }
    let results = s.run();
    let ms = results.expect_all();

    let mut t = Table::new(vec![
        "flows",
        "nf",
        "pages",
        "Gbps",
        "Mpps",
        "LLC miss (%)",
        "DTLB miss/pkt",
        "occupancy",
        "evictions",
    ]);
    let mut it = results.outcomes.iter().zip(&ms);
    for &flows in &ladder {
        for (name, _) in stateful {
            for (pages, _) in PAGES {
                let (o, m) = it.next().expect("one run per (flows, nf, pages)");
                let r = o.report.as_ref().expect("builder runs carry reports");
                let dtlb: u64 = r
                    .profile
                    .as_ref()
                    .map_or(0, |p| p.records.iter().map(|rec| rec.dtlb_misses).sum());
                let w = r.workload.as_ref().expect("workload-driven run");
                let occupancy: u64 = w.tables.iter().map(|ts| ts.occupancy).sum();
                let evictions: u64 = w.tables.iter().map(|ts| ts.evictions).sum();
                t.row(vec![
                    format!("{flows}"),
                    name.to_string(),
                    pages.to_string(),
                    format!("{:.1}", m.throughput_gbps),
                    format!("{:.2}", m.mpps),
                    format!("{:.1}", m.llc_miss_pct),
                    format!("{:.2}", dtlb as f64 / m.tx_packets.max(1) as f64),
                    format!("{occupancy}"),
                    format!("{evictions}"),
                ]);
            }
        }
    }
    Artifact::new(t, results)
}

/// The fault plan driving [`fig_timeline`]'s faulted run: a 200-µs link
/// flap and a later 200-µs mempool squeeze, both inside the measurement
/// window of the ~3.1-ms run, over a low-rate FCS-corruption background.
pub const TIMELINE_FAULT_SPEC: &str =
    "seed=0x71AE;bitflip@..:rate=2000ppm;flap@800us..1000us;pool@1600us..1800us";

/// Flight-recorder window (µs) used by [`fig_timeline`] — small enough
/// that the 200-µs link flap spans several windows.
pub const TIMELINE_WINDOW_US: f64 = 50.0;

/// Flight-recorder showcase: two full-PacketMill router runs recorded at
/// a 50-µs timeline window with sampled packet traces. The first runs on
/// one core under [`TIMELINE_FAULT_SPEC`] — the link-flap throughput dip
/// and its recovery window are the artifact's claim; the second is a
/// clean 4-core run whose per-window `tx min/core` vs `tx max/core`
/// spread shows RSS imbalance. Recording is set on each builder, so
/// `--timeline` does not change these runs and `--trace` only names
/// where their traces go; the faulted run's own plan wins over
/// `--faults`, which reaches only the 4-core run. Like every figure,
/// the runs take `--profile` and `--workload` from `cli`.
pub fn fig_timeline(cli: &Cli) -> Artifact {
    let plan = packetmill::FaultPlan::parse(TIMELINE_FAULT_SPEC).expect("valid fault spec");
    let recorded = |b: ExperimentBuilder| b.timeline_us(TIMELINE_WINDOW_US).packet_trace(true);
    let mut s = sweep(cli);
    s.push(
        "fig_timeline router 1c faulted".to_string(),
        recorded(router(MetadataModel::XChange, OptLevel::AllSource, 2.3)).fault_plan(plan),
    );
    s.push(
        "fig_timeline router 4c".to_string(),
        recorded(router(MetadataModel::XChange, OptLevel::AllSource, 2.3)).cores(4),
    );
    let results = s.run();
    results.expect_all();

    let mut t = Table::new(vec![
        "run",
        "window",
        "t_end (us)",
        "Gbps",
        "p99 (us)",
        "drops",
        "tx min/core",
        "tx max/core",
    ]);
    for o in &results.outcomes {
        let r = o.report.as_ref().expect("sweep runs carry reports");
        let tl = r.timeline.as_ref().expect("run recorded a timeline");
        let per_core: Vec<Vec<f64>> = (0..tl.cores.len()).map(|c| tl.gbps(c)).collect();
        let total: Vec<f64> = (0..tl.window_end_us.len())
            .map(|i| per_core.iter().map(|g| g[i]).sum())
            .collect();
        for (i, &end) in tl.window_end_us.iter().enumerate() {
            let p99 = tl
                .cores
                .iter()
                .filter_map(|c| c.p99_us[i])
                .fold(None::<f64>, |a, v| Some(a.map_or(v, |x| x.max(v))));
            let drops: u64 = tl.drops.iter().map(|(_, v)| v[i]).sum();
            let tx_min = tl.cores.iter().map(|c| c.tx[i]).min().unwrap_or(0);
            let tx_max = tl.cores.iter().map(|c| c.tx[i]).max().unwrap_or(0);
            t.row(vec![
                o.label.clone(),
                format!("{i}"),
                format!("{end:.0}"),
                format!("{:.1}", total[i]),
                p99.map_or("-".to_string(), |v| format!("{v:.1}")),
                format!("{drops}"),
                format!("{tx_min}"),
                format!("{tx_max}"),
            ]);
        }
        // Dip/recovery summary for the faulted run: the flap must show as
        // a throughput dip, and the line rate must come back afterwards.
        if r.faults.is_some() {
            let pre: Vec<f64> = tl
                .window_end_us
                .iter()
                .zip(&total)
                .filter(|(&end, _)| end > 400.0 && end <= 800.0)
                .map(|(_, &g)| g)
                .collect();
            let pre_mean = pre.iter().sum::<f64>() / pre.len() as f64;
            let (dip_i, dip_g) = total
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite Gbps"))
                .expect("at least one window");
            let recovered = total
                .iter()
                .enumerate()
                .skip(dip_i)
                .find(|&(_, &g)| g >= 0.9 * pre_mean);
            let summary = |tag: &str, win: String, end: String, g: f64| {
                vec![
                    format!("{} {tag}", o.label),
                    win,
                    end,
                    format!("{g:.1}"),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                ]
            };
            t.row(summary("pre-flap mean", "-".into(), "-".into(), pre_mean));
            t.row(summary(
                "dip",
                format!("{dip_i}"),
                format!("{:.0}", tl.window_end_us[dip_i]),
                *dip_g,
            ));
            match recovered {
                Some((i, &g)) => t.row(summary(
                    "recovered",
                    format!("{i}"),
                    format!("{:.0}", tl.window_end_us[i]),
                    g,
                )),
                None => t.row(summary("recovered", "never".into(), "-".into(), 0.0)),
            }
        }
    }
    Artifact::new(t, results)
}

/// The Fig. 11 comparator experiment: the forwarder on one 1.2-GHz
/// core at a fixed frame size, for a non-FastClick dataplane to run
/// ([`SweepSpec::push_dataplane`]).
fn comparator(size: usize) -> ExperimentBuilder {
    ExperimentBuilder::new(Nf::Forwarder)
        .frequency_ghz(1.2)
        .traffic(TrafficProfile::FixedSize(size))
        .packets(packets_for_size(size))
}

/// Figure 11a: FastClick vs `l2fwd` vs PacketMill vs `l2fwd-xchg`,
/// fixed-size sweep on one 1.2-GHz core.
pub fn fig11a(cli: &Cli) -> Artifact {
    let mut s = sweep(cli);
    for &size in &SIZES {
        s.push(
            format!("fig11a {size}B fastclick"),
            ExperimentBuilder::new(Nf::Forwarder)
                .metadata_model(MetadataModel::Copying)
                .frequency_ghz(1.2)
                .traffic(TrafficProfile::FixedSize(size))
                .packets(PACKETS),
        );
        s.push(
            format!("fig11a {size}B packetmill"),
            ExperimentBuilder::new(Nf::Forwarder)
                .metadata_model(MetadataModel::XChange)
                .optimization(OptLevel::AllSource)
                .frequency_ghz(1.2)
                .traffic(TrafficProfile::FixedSize(size))
                .packets(PACKETS),
        );
        s.push_dataplane(format!("fig11a {size}B l2fwd"), comparator(size), || {
            Box::new(L2Fwd::plain())
        });
        s.push_dataplane(
            format!("fig11a {size}B l2fwd-xchg"),
            comparator(size),
            || Box::new(L2Fwd::xchg()),
        );
    }
    let results = s.run();
    let ms = results.expect_all();

    let mut t = Table::new(vec![
        "size (B)",
        "FastClick (Copying)",
        "l2fwd",
        "PacketMill (X-Change)",
        "l2fwd-xchg",
    ]);
    for (&size, quad) in SIZES.iter().zip(ms.chunks_exact(4)) {
        t.row(vec![
            format!("{size}"),
            format!("{:.1}", quad[0].throughput_gbps),
            format!("{:.1}", quad[2].throughput_gbps),
            format!("{:.1}", quad[1].throughput_gbps),
            format!("{:.1}", quad[3].throughput_gbps),
        ]);
    }
    Artifact::new(t, results)
}

/// Figure 11b: VPP vs FastClick (Copying) vs FastClick-Light (Overlaying)
/// vs BESS vs PacketMill, fixed-size sweep on one 1.2-GHz core.
pub fn fig11b(cli: &Cli) -> Artifact {
    let fc = |size: usize, model: MetadataModel, opt: OptLevel| {
        ExperimentBuilder::new(Nf::Forwarder)
            .metadata_model(model)
            .optimization(opt)
            .frequency_ghz(1.2)
            .traffic(TrafficProfile::FixedSize(size))
            .packets(packets_for_size(size))
    };
    let mut s = sweep(cli);
    for &size in &SIZES {
        s.push_dataplane(format!("fig11b {size}B vpp"), comparator(size), || {
            Box::new(VppEngine)
        });
        s.push(
            format!("fig11b {size}B fastclick"),
            fc(size, MetadataModel::Copying, OptLevel::Vanilla),
        );
        s.push(
            format!("fig11b {size}B fastclick-light"),
            fc(size, MetadataModel::Overlaying, OptLevel::Vanilla),
        );
        s.push_dataplane(format!("fig11b {size}B bess"), comparator(size), || {
            Box::new(BessEngine)
        });
        s.push(
            format!("fig11b {size}B packetmill"),
            fc(size, MetadataModel::XChange, OptLevel::AllSource),
        );
    }
    let results = s.run();
    let ms = results.expect_all();

    let mut t = Table::new(vec![
        "size (B)",
        "VPP",
        "FastClick (Copying)",
        "FastClick-Light (Overlaying)",
        "BESS",
        "PacketMill (X-Change)",
    ]);
    for (&size, five) in SIZES.iter().zip(ms.chunks_exact(5)) {
        let mut row = vec![format!("{size}")];
        row.extend(five.iter().map(|m| format!("{:.1}", m.throughput_gbps)));
        t.row(row);
    }
    Artifact::new(t, results)
}

// Ablation studies for the design choices DESIGN.md calls out — the
// knobs the paper discusses but does not sweep (§3.1 bullet list, §4.1
// "reordering contributes one third", the testbed's `IIO LLC WAYS`
// setting).

/// §4.1: "Reordering contributes to one third of the improvements" of
/// LTO. Compare vanilla vs vanilla+reorder vs all-source on the router.
fn reorder_contribution(cli: &Cli) -> Artifact {
    let variants = [
        ("vanilla", OptLevel::Vanilla),
        ("vanilla + reorder", OptLevel::Reorder),
        ("all source opts", OptLevel::AllSource),
        ("all + reorder (Full)", OptLevel::Full),
    ];
    let mut s = sweep(cli);
    for (name, opt) in variants {
        s.push(
            format!("reorder {name}"),
            router(MetadataModel::Copying, opt, 3.0),
        );
    }
    let results = s.run();
    let ms = results.expect_all();
    let mut t = Table::new(vec!["variant", "Mpps", "p50 lat (us)"]);
    for ((name, _), m) in variants.iter().zip(&ms) {
        t.row(vec![
            (*name).to_string(),
            format!("{:.2}", m.mpps),
            format!("{:.0}", m.median_latency_us),
        ]);
    }
    Artifact::new(t, results)
}

/// The testbed sets `IIO LLC WAYS` to widen DDIO. Sweep the DMA way
/// partition and watch the router's miss rate and throughput.
fn ddio_ways(cli: &Cli) -> Artifact {
    let ways_sweep = [1usize, 2, 4, 6, 8];
    let mut s = sweep(cli);
    for ways in ways_sweep {
        s.push(
            format!("ddio {ways} ways"),
            router(MetadataModel::XChange, OptLevel::AllSource, 2.3).ddio_ways(ways),
        );
    }
    let results = s.run();
    let ms = results.expect_all();
    let mut t = Table::new(vec!["ddio ways", "Gbps", "LLC miss (%)"]);
    for (ways, m) in ways_sweep.iter().zip(&ms) {
        t.row(vec![
            format!("{ways}"),
            format!("{:.1}", m.throughput_gbps),
            format!("{:.1}", m.llc_miss_pct),
        ]);
    }
    Artifact::new(t, results)
}

/// BURST is a constant the paper embeds; sweep it.
fn burst_size(cli: &Cli) -> Artifact {
    let bursts = [4usize, 8, 16, 32, 64];
    let mut s = sweep(cli);
    for burst in bursts {
        s.push(
            format!("burst {burst} vanilla"),
            router(MetadataModel::Copying, OptLevel::Vanilla, 2.3).burst(burst),
        );
        s.push(
            format!("burst {burst} packetmill"),
            router(MetadataModel::XChange, OptLevel::AllSource, 2.3).burst(burst),
        );
    }
    let results = s.run();
    let ms = results.expect_all();
    let mut t = Table::new(vec!["burst", "vanilla Gbps", "packetmill Gbps"]);
    for (burst, pair) in bursts.iter().zip(ms.chunks_exact(2)) {
        t.row(vec![
            format!("{burst}"),
            format!("{:.1}", pair[0].throughput_gbps),
            format!("{:.1}", pair[1].throughput_gbps),
        ]);
    }
    Artifact::new(t, results)
}

/// FIFO pool rings maximize reuse distance; a LIFO (per-core cache hit
/// path) keeps buffers warm — quantifying the pool-cycling cost the
/// paper attributes to the Copying model.
fn pool_mode(cli: &Cli) -> Artifact {
    let modes = [
        ("fifo (ring)", MempoolMode::Fifo),
        ("lifo (stack)", MempoolMode::Lifo),
    ];
    let mut s = sweep(cli);
    for (name, mode) in modes {
        s.push(
            format!("pool {name}"),
            router(MetadataModel::Copying, OptLevel::Vanilla, 2.3).pool_mode(mode),
        );
    }
    let results = s.run();
    let ms = results.expect_all();
    let mut t = Table::new(vec!["pool order", "Gbps", "LLC loads (k/100ms)"]);
    for ((name, _), m) in modes.iter().zip(&ms) {
        t.row(vec![
            (*name).to_string(),
            format!("{:.1}", m.throughput_gbps),
            format!("{:.0}", m.llc_loads_per_100ms / 1e3),
        ]);
    }
    Artifact::new(t, results)
}

/// X-Change lets the NF declare exactly the fields it needs; sweep the
/// spec width from the two-field minimum to the full mbuf set.
fn xchange_spec_width(cli: &Cli) -> Artifact {
    let specs = [
        ("minimal (l2fwd-xchg)", MetadataSpec::minimal()),
        ("routing", MetadataSpec::routing()),
        (
            "full rte_mbuf set",
            MetadataSpec::custom(MetaField::RX_FULL.to_vec()),
        ),
    ];
    let mut s = sweep(cli);
    for (name, spec) in &specs {
        s.push(
            format!("spec {name}"),
            ExperimentBuilder::new(Nf::Forwarder)
                .metadata_model(MetadataModel::XChange)
                .optimization(OptLevel::AllSource)
                .frequency_ghz(1.2)
                .traffic(TrafficProfile::FixedSize(128))
                .metadata_spec(spec.clone())
                .packets(PACKETS * 4),
        );
    }
    let results = s.run();
    let ms = results.expect_all();
    let mut t = Table::new(vec!["spec", "fields", "Gbps @1.2 GHz, 128B"]);
    for ((name, spec), m) in specs.iter().zip(&ms) {
        t.row(vec![
            (*name).to_string(),
            format!("{}", spec.len()),
            format!("{:.1}", m.throughput_gbps),
        ]);
    }
    Artifact::new(t, results)
}

/// The RX descriptor ring bounds the standing queue, trading drops for
/// tail latency (the knee depth of Fig. 1).
fn ring_size_latency(cli: &Cli) -> Artifact {
    let rings = [256usize, 1024, 4096];
    let mut s = sweep(cli);
    for ring in rings {
        s.push(
            format!("rx ring {ring}"),
            router(MetadataModel::Copying, OptLevel::Vanilla, 2.3).rx_ring(ring),
        );
    }
    let results = s.run();
    let ms = results.expect_all();
    let mut t = Table::new(vec!["rx ring", "Gbps", "p50 (us)", "p99 (us)"]);
    for (ring, m) in rings.iter().zip(&ms) {
        t.row(vec![
            format!("{ring}"),
            format!("{:.1}", m.throughput_gbps),
            format!("{:.0}", m.median_latency_us),
            format!("{:.0}", m.p99_latency_us),
        ]);
    }
    Artifact::new(t, results)
}

/// One registered artifact.
pub struct Figure {
    /// The `pm-bench <key>` name and the `--json` group name.
    pub key: &'static str,
    /// The heading [`run_all`] and `pm-bench ablations` print above the
    /// table.
    pub title: &'static str,
    /// The generator. Every figure runs its sweep under the command
    /// line's worker count and [`packetmill::RunDefaults`]; besides
    /// those it reads only the two ceilings, `--cores` (`fig-multicore`)
    /// and `--flows` (`fig-flowscale`).
    pub run: fn(&Cli) -> Artifact,
}

/// Every artifact of the evaluation, in presentation order.
pub static FIGURES: [Figure; 16] = [
    Figure {
        key: "fig1",
        title: "Figure 1 — p99 latency vs throughput (router, 1 core @2.3 GHz)",
        run: fig1,
    },
    Figure {
        key: "fig4",
        title: "Figure 4 — source-code optimizations vs frequency (router)",
        run: fig4,
    },
    Figure {
        key: "table1",
        title: "Table 1 — micro-architectural metrics @3 GHz (router)",
        run: table1,
    },
    Figure {
        key: "fig5a",
        title: "Figure 5a — metadata models vs frequency (forwarder, 1 NIC)",
        run: fig5a,
    },
    Figure {
        key: "fig5b",
        title: "Figure 5b — metadata models, two NICs, one core",
        run: fig5b,
    },
    Figure {
        key: "fig6",
        title: "Figure 6 — packet-size sweep (router @2.3 GHz)",
        run: fig6,
    },
    Figure {
        key: "fig7-n1",
        title: "Figure 7a — WorkPackage improvement surface (N=1)",
        run: |cli| fig7(cli, 1),
    },
    Figure {
        key: "fig7-n5",
        title: "Figure 7b — WorkPackage improvement surface (N=5)",
        run: |cli| fig7(cli, 5),
    },
    Figure {
        key: "fig8",
        title: "Figure 8 — IDS+router vs frequency",
        run: fig8,
    },
    Figure {
        key: "fig9",
        title: "Figure 9 — memory-footprint slice (N=1, W=4)",
        run: fig9,
    },
    Figure {
        key: "fig10",
        title: "Figure 10 — multicore NAT @2.3 GHz",
        run: fig10,
    },
    Figure {
        key: "fig-multicore",
        title: "Multi-core scaling — five NFs, PacketMill config @2.3 GHz",
        run: |cli| fig_multicore(cli, cli.cores.unwrap_or(8)),
    },
    Figure {
        key: "fig-timeline",
        title: "Flight recorder — link-flap dip/recovery + 4-core imbalance",
        run: fig_timeline,
    },
    Figure {
        key: "fig-flowscale",
        title: "Flow-scale sweep — stateful NFs, 1k..=100k flows, 4-KiB vs hugepage tables",
        run: |cli| fig_flowscale(cli, cli.flows.unwrap_or(10_000_000)),
    },
    Figure {
        key: "fig11a",
        title: "Figure 11a — FastClick vs l2fwd vs PacketMill vs l2fwd-xchg @1.2 GHz",
        run: fig11a,
    },
    Figure {
        key: "fig11b",
        title: "Figure 11b — framework comparison @1.2 GHz",
        run: fig11b,
    },
];

/// The ablation studies, in presentation order: `pm-bench ablations`
/// runs all six, a key runs one; [`run_all`] leaves them out.
pub static ABLATIONS: [Figure; 6] = [
    Figure {
        key: "reorder",
        title: "Ablation: struct reordering (router @3 GHz, Copying)",
        run: reorder_contribution,
    },
    Figure {
        key: "ddio-ways",
        title: "Ablation: DDIO way partition (PacketMill router @2.3 GHz)",
        run: ddio_ways,
    },
    Figure {
        key: "burst",
        title: "Ablation: RX/TX burst size (router @2.3 GHz)",
        run: burst_size,
    },
    Figure {
        key: "pool-mode",
        title: "Ablation: mempool recycling order (vanilla router @2.3 GHz)",
        run: pool_mode,
    },
    Figure {
        key: "xchg-spec",
        title: "Ablation: X-Change metadata-spec width (forwarder @1.2 GHz)",
        run: xchange_spec_width,
    },
    Figure {
        key: "rx-ring",
        title: "Ablation: RX ring depth under overload (vanilla router @2.3 GHz)",
        run: ring_size_latency,
    },
];

/// Runs every artifact, prints paper-style output (tables on stdout,
/// sweep telemetry on stderr), and returns the artifacts keyed by group
/// name for `--json` emission. Every sweep runs under `cli`'s worker
/// count and run defaults, but the two scalable sweeps stop at 4 cores
/// and 100k flows here, whatever the command line says, so regenerating
/// everything stays a matter of minutes.
pub fn run_all(cli: &Cli) -> Vec<(&'static str, Artifact)> {
    let ceilings = Cli {
        cores: Some(4),
        flows: Some(100_000),
        ..cli.clone()
    };
    let mut out = Vec::new();
    for f in &FIGURES {
        let artifact = (f.run)(&ceilings);
        println!("== {} ==\n", f.title);
        println!("{}", artifact.table);
        // Timing goes to stderr so redirected artifact output stays
        // byte-identical across runs and thread counts.
        artifact.emit_profiles();
        eprintln!(
            "sweep report ({:.1} s wall, {:.1} s serial-equivalent, {} threads):\n{}",
            artifact.report.wall_seconds,
            artifact.report.serial_seconds,
            artifact.report.threads,
            artifact.report,
        );
        out.push((f.key, artifact));
    }
    out
}
