//! The five workloads: which experiment configurations each one runs,
//! and why. Packet counts were calibrated once on the 2-vCPU reference
//! box so one repetition of a workload takes ≈ 1.5–2 s of host time, and
//! are frozen here: changing them changes what every number means.

use packetmill::{
    ExperimentBuilder, FaultPlan, MetadataModel, Nf, OptLevel, SizeModel, TrafficProfile,
    WorkloadSpec,
};

/// One experiment configuration of a workload. The benchmark keeps its
/// own description (rather than an opaque [`ExperimentBuilder`]) because
/// the traced pass assembles the same run from public parts.
#[derive(Debug, Clone)]
pub struct RunSpec {
    pub label: String,
    pub nf: Nf,
    pub model: MetadataModel,
    pub opt: OptLevel,
    pub freq_ghz: f64,
    pub cores: usize,
    pub offered_gbps: f64,
    pub packets: usize,
    pub traffic: TrafficProfile,
    pub seed: u64,
    /// Per-element attribution on.
    pub profile: bool,
    /// Flight-recorder timeline window (µs) and sampled packet traces.
    pub timeline_us: Option<f64>,
    pub packet_trace: bool,
    pub faults: Option<FaultPlan>,
    pub workload: Option<WorkloadSpec>,
    pub hugepage_tables: bool,
}

impl RunSpec {
    fn new(label: impl Into<String>, nf: Nf, seed: u64, packets: usize) -> Self {
        RunSpec {
            label: label.into(),
            nf,
            model: MetadataModel::Copying,
            opt: OptLevel::Vanilla,
            freq_ghz: 2.3,
            cores: 1,
            offered_gbps: 100.0,
            packets,
            traffic: TrafficProfile::CampusMix,
            seed,
            profile: false,
            timeline_us: None,
            packet_trace: false,
            faults: None,
            workload: None,
            hugepage_tables: false,
        }
    }

    /// Full PacketMill: X-Change metadata + all source optimizations.
    fn packetmill(mut self) -> Self {
        self.model = MetadataModel::XChange;
        self.opt = OptLevel::AllSource;
        self
    }

    fn with(mut self, model: MetadataModel, opt: OptLevel) -> Self {
        self.model = model;
        self.opt = opt;
        self
    }

    fn freq(mut self, ghz: f64) -> Self {
        self.freq_ghz = ghz;
        self
    }

    fn observed(mut self) -> Self {
        self.profile = true;
        self.timeline_us = Some(50.0);
        self.packet_trace = true;
        self
    }

    /// The same run with every observer (attribution, timeline, packet
    /// traces) off — the baseline of the observer-overhead metrics.
    pub fn unobserved(&self) -> RunSpec {
        RunSpec {
            profile: false,
            timeline_us: None,
            packet_trace: false,
            ..self.clone()
        }
    }

    /// The facade builder for this run. Every observer knob is set
    /// explicitly; `main` pins the process-wide defaults so `PM_*`
    /// environment variables cannot change what is measured.
    pub fn builder(&self) -> ExperimentBuilder {
        let mut b = ExperimentBuilder::new(self.nf.clone())
            .metadata_model(self.model)
            .optimization(self.opt)
            .frequency_ghz(self.freq_ghz)
            .cores(self.cores)
            .offered_gbps(self.offered_gbps)
            .packets(self.packets)
            .traffic(self.traffic)
            .seed(self.seed)
            .profile(self.profile)
            .packet_trace(self.packet_trace)
            .hugepage_tables(self.hugepage_tables);
        if let Some(w) = self.timeline_us {
            b = b.timeline_us(w);
        }
        if let Some(p) = &self.faults {
            b = b.fault_plan(p.clone());
        }
        if let Some(w) = &self.workload {
            b = b.workload(w.clone());
        }
        b
    }
}

/// A workload's name and the one-line reason it exists ([`runs`] gives
/// its runs).
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// The workloads, in reporting order. `why` is copied verbatim into
/// `BENCHMARK.json` (a self-test checks it).
pub const WORKLOADS: [WorkloadDef; 5] = [
    WorkloadDef {
        name: "paper_grid",
        why: "22 short 40k-packet runs across the paper's figures: what users do (regenerate figures), so per-run fixed cost counts",
    },
    WorkloadDef {
        name: "io_line_rate",
        why: "trivial forwarder under three metadata models: engine loop, pm-nic DMA, pm-dpdk PMD and pm-mem replay dominate, set-up is negligible",
    },
    WorkloadDef {
        name: "nf_heavy",
        why: "overloaded vanilla IDS+router, router and NAT: pm-click dispatch, element bodies, metadata copying and LLC misses dominate, I/O does little",
    },
    WorkloadDef {
        name: "flow_scale",
        why: "1M-flow Zipf churn on million-entry cuckoo/trie tables: cold table lines, DTLB walks, large RSS and the only large set-up",
    },
    WorkloadDef {
        name: "observed_multicore",
        why: "4/8-core runs with attribution, timeline, packet traces and a fault plan on: multi-core stepping, recorder and a large artifact",
    },
];

/// Packets per run in `paper_grid` — the figures' own `PACKETS`.
pub const GRID_PACKETS: usize = 40_000;
const IO_PACKETS: usize = 300_000;
const NF_PACKETS: usize = 250_000;
const FLOW_PACKETS: usize = 150_000;
const OBSERVED_PACKETS: usize = 70_000;

/// The fault plan of the observed runs (the `fig_timeline` plan), with
/// the decision seed derived from the benchmark seed.
fn observed_faults(seed: u64) -> FaultPlan {
    let spec = format!(
        "seed={:#x};bitflip@..:rate=2000ppm;flap@800us..1000us;pool@1600us..1800us",
        seed ^ 0x71AE
    );
    FaultPlan::parse(&spec).expect("static fault spec is valid")
}

/// 1 M flows, Zipf 1.1, 131 072 distinct frames, four flow generations
/// per trace cycle, campus frame sizes (the `fig_flowscale` 1 M rung).
fn million_flows(seed: u64) -> WorkloadSpec {
    WorkloadSpec {
        seed: seed ^ 0xF10E5,
        flows: 1_000_000,
        zipf_x1000: 1_100,
        life: 32_768,
        frames: 131_072,
        size: SizeModel::Campus,
        attacks: Vec::new(),
    }
}

/// The five source-optimization variants of Fig. 4 / Table 1.
pub const VARIANTS: [(&str, OptLevel); 5] = [
    ("vanilla", OptLevel::Vanilla),
    ("devirtualize", OptLevel::Devirtualize),
    ("constants", OptLevel::ConstantEmbed),
    ("static-graph", OptLevel::StaticGraph),
    ("all", OptLevel::AllSource),
];

/// Label of the Copying-router run of `variant` at `freq_ghz` — the key
/// `paper_reference.json` points are matched to runs by.
pub fn reference_label(variant: &str, freq_ghz: f64) -> String {
    format!("router copying {variant} {freq_ghz:.1}GHz")
}

/// The nine runs that have paper reference values: the five Copying
/// variants at 3 GHz (Table 1), and vanilla / all at 1.2 and 2.3 GHz
/// (Fig. 4 fits).
pub fn reference_runs(seed: u64, packets: usize) -> Vec<RunSpec> {
    let run = |variant: &str, opt, f| {
        RunSpec::new(reference_label(variant, f), Nf::Router, seed, packets)
            .with(MetadataModel::Copying, opt)
            .freq(f)
    };
    let mut out: Vec<RunSpec> = VARIANTS.iter().map(|&(v, o)| run(v, o, 3.0)).collect();
    for f in [1.2, 2.3] {
        out.push(run("vanilla", OptLevel::Vanilla, f));
        out.push(run("all", OptLevel::AllSource, f));
    }
    out
}

/// The runs of workload `name` for `seed`. `quick` divides packet
/// counts by ten (smoke use; numbers not comparable).
///
/// # Panics
///
/// Panics on an unknown workload name (callers validate first).
pub fn runs(name: &str, seed: u64, quick: bool) -> Vec<RunSpec> {
    let scale = |p: usize| if quick { p / 10 } else { p };
    let mut out = Vec::new();
    match name {
        "paper_grid" => {
            let p = scale(GRID_PACKETS);
            let run = |label: String, nf: Nf| RunSpec::new(label, nf, seed, p);
            // Table 1 + Fig. 4: the runs with paper reference values.
            out.extend(reference_runs(seed, p));
            // Profile-guided reordering: includes the profiling pre-run.
            out.push(
                run("router full 3.0GHz".into(), Nf::Router)
                    .with(MetadataModel::Copying, OptLevel::Full)
                    .freq(3.0),
            );
            // Fig. 1 at the knee.
            let mut v = run("fig1 60G vanilla".into(), Nf::Router);
            v.offered_gbps = 60.0;
            let mut m = run("fig1 60G packetmill".into(), Nf::Router).packetmill();
            m.offered_gbps = 60.0;
            out.extend([v, m]);
            // Fig. 5a: metadata models without source optimizations.
            for model in [MetadataModel::Overlaying, MetadataModel::XChange] {
                out.push(
                    run(format!("fig5a 2.3GHz {model:?}"), Nf::Forwarder)
                        .with(model, OptLevel::Vanilla),
                );
            }
            // Fig. 6: a fixed mid-size frame.
            let mut v = run("fig6 576B vanilla".into(), Nf::Router);
            v.traffic = TrafficProfile::FixedSize(576);
            let mut m = run("fig6 576B packetmill".into(), Nf::Router).packetmill();
            m.traffic = TrafficProfile::FixedSize(576);
            out.extend([v, m]);
            // Fig. 8, Fig. 7 (N=5, W=4, S=8) and Fig. 10 (2 cores).
            out.push(run("fig8 2.3GHz vanilla".into(), Nf::IdsRouter));
            out.push(run("fig8 2.3GHz packetmill".into(), Nf::IdsRouter).packetmill());
            let wp = Nf::WorkPackage {
                w: 4,
                s_mb: 8,
                n: 5,
            };
            out.push(run("fig7 N=5 W=4 S=8 vanilla".into(), wp.clone()));
            out.push(run("fig7 N=5 W=4 S=8 packetmill".into(), wp).packetmill());
            let mut v = run("fig10 2c vanilla".into(), Nf::Nat);
            v.cores = 2;
            let mut m = run("fig10 2c packetmill".into(), Nf::Nat).packetmill();
            m.cores = 2;
            out.extend([v, m]);
        }
        "io_line_rate" => {
            let p = scale(IO_PACKETS);
            for (model, opt) in [
                (MetadataModel::XChange, OptLevel::AllSource),
                (MetadataModel::Overlaying, OptLevel::AllSource),
                (MetadataModel::Copying, OptLevel::Vanilla),
            ] {
                out.push(
                    RunSpec::new(format!("forwarder {model:?}"), Nf::Forwarder, seed, p)
                        .with(model, opt),
                );
            }
        }
        "nf_heavy" => {
            let p = scale(NF_PACKETS);
            for (label, nf) in [
                ("ids-router vanilla", Nf::IdsRouter),
                ("router vanilla", Nf::Router),
                ("nat vanilla", Nf::Nat),
            ] {
                out.push(RunSpec::new(label, nf, seed, p));
            }
        }
        "flow_scale" => {
            let p = scale(FLOW_PACKETS);
            const M: u64 = 1_000_000;
            for (label, nf, huge) in [
                ("nat 1M 4k", Nf::NatScale(M), false),
                ("firewall 1M 4k", Nf::FirewallScale(M), false),
                ("router 1M 4k", Nf::RouterScale(M), false),
                ("router 1M huge", Nf::RouterScale(M), true),
            ] {
                let mut r = RunSpec::new(label, nf, seed, p).packetmill();
                r.workload = Some(million_flows(seed));
                r.hugepage_tables = huge;
                out.push(r);
            }
        }
        "observed_multicore" => {
            let p = scale(OBSERVED_PACKETS);
            let run = |label: &str, nf: Nf, cores: usize, faulted: bool| {
                let mut r = RunSpec::new(label, nf, seed, p).packetmill().observed();
                r.cores = cores;
                r.faults = faulted.then(|| observed_faults(seed));
                r
            };
            out.push(run("nat 4c", Nf::Nat, 4, false));
            out.push(run("ids-router 4c faulted", Nf::IdsRouter, 4, true));
            out.push(run("router 1c faulted", Nf::Router, 1, true));
            out.push(run("router 8c", Nf::Router, 8, false));
        }
        other => panic!("unknown workload '{other}'"),
    }
    out
}
