//! The experiment facade: one builder that assembles configuration
//! parsing, the PacketMill optimization pipeline (including the
//! profile-guided reordering pass), the simulated testbed, and the
//! measurement run.

use crate::click_dataplane::ClickDataplane;
use crate::engine::{Engine, EngineConfig, Measurement};
use crate::report::RunReport;
use crate::sweep::RunDefaults;
use pm_click::{ConfigError, ConfigGraph, Graph, GraphRuntime};
use pm_compile::MillIr;
use pm_dpdk::{MetadataModel, MetadataSpec};
use pm_elements::standard_registry;
use pm_frameworks::Dataplane;
use pm_mem::AddressSpace;
use pm_sim::{FaultPlan, Frequency, SimTime};
use pm_traffic::{Trace, TraceConfig, TrafficProfile, WorkloadSpec};
use std::error::Error;
use std::fmt;

/// Per-element `(name, packets, drops)` statistics, as exposed by the
/// Click read handlers.
pub type ElementStats = Vec<(String, u64, u64)>;

/// Which network function to run (paper §A).
#[derive(Debug, Clone, PartialEq)]
pub enum Nf {
    /// §A.1 — the simple forwarder (EtherMirror).
    Forwarder,
    /// §A.2 — the standard IP router.
    Router,
    /// §A.3 — IDS + router (+ VLAN encapsulation).
    IdsRouter,
    /// §A.3 — the stateful NAT.
    Nat,
    /// Extension: stateless ACL firewall + router (first-match rules
    /// over the 5-tuple, default deny).
    Firewall,
    /// The NAT preset scaled to a target concurrent-flow count: cuckoo
    /// table sized for the flows, idle-expiry, evict-on-full.
    NatScale(u64),
    /// The firewall preset with a conntrack cache sized to a target
    /// tracked-flow count (established flows skip the rule scan).
    FirewallScale(u64),
    /// The router preset with a synthesized FIB of the given size.
    RouterScale(u64),
    /// §A.4 — the synthetic WorkPackage NF: `w` random numbers, `n`
    /// accesses into `s_mb` megabytes, per packet.
    WorkPackage {
        /// Pseudo-random numbers generated per packet.
        w: u32,
        /// Array size in MB.
        s_mb: u32,
        /// Random accesses per packet.
        n: u32,
    },
    /// Like `WorkPackage` but with KB-granular array size (Fig. 9 sweep).
    WorkPackageKb {
        /// Pseudo-random numbers generated per packet.
        w: u32,
        /// Array size in KB.
        s_kb: u64,
        /// Random accesses per packet.
        n: u32,
    },
    /// A custom Click configuration.
    Custom(String),
}

impl Nf {
    /// The Click configuration text for this NF.
    pub fn config_text(&self) -> String {
        use pm_elements::configs;
        match self {
            Nf::Forwarder => configs::forwarder(),
            Nf::Router => configs::router(),
            Nf::IdsRouter => configs::ids_router(),
            Nf::Nat => configs::nat(),
            Nf::Firewall => configs::firewall(),
            Nf::NatScale(flows) => configs::nat_scaled(*flows),
            Nf::FirewallScale(flows) => configs::firewall_scaled(*flows),
            Nf::RouterScale(routes) => configs::router_scaled(*routes),
            Nf::WorkPackage { w, s_mb, n } => configs::work_package(*w, *s_mb, *n),
            Nf::WorkPackageKb { w, s_kb, n } => configs::work_package_kb(*w, *s_kb, *n),
            Nf::Custom(text) => text.clone(),
        }
    }
}

/// Which PacketMill optimizations to apply (the Fig. 4 / Table 1
/// variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptLevel {
    /// No optimization.
    Vanilla,
    /// `click-devirtualize` only.
    Devirtualize,
    /// Constant embedding only.
    ConstantEmbed,
    /// Static graph only.
    StaticGraph,
    /// All source-code optimizations.
    AllSource,
    /// Only the profile-guided metadata reordering pass (the §4.1
    /// "LTO & structure reordering" ablation; Copying model only).
    Reorder,
    /// All source-code optimizations plus the profile-guided metadata
    /// reordering pass (applies under the Copying model, like the paper).
    Full,
}

/// Errors from building or running an experiment.
#[derive(Debug)]
pub enum ExperimentError {
    /// The configuration failed to parse or build.
    Config(ConfigError),
    /// A testbed setting no run can use: a zero offered load never
    /// finishes sending, a negative one sends every frame at t = 0, and
    /// a core cannot tick at a zero or non-finite frequency.
    OutOfRange {
        /// The builder setting, e.g. `"offered_gbps"`.
        param: &'static str,
        /// The value it was given.
        value: f64,
    },
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Config(e) => write!(f, "configuration error: {e}"),
            ExperimentError::OutOfRange { param, value } => {
                write!(f, "{param} must be finite and above 0, got {value}")
            }
        }
    }
}

impl Error for ExperimentError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ExperimentError::Config(e) => Some(e),
            ExperimentError::OutOfRange { .. } => None,
        }
    }
}

impl From<ConfigError> for ExperimentError {
    fn from(e: ConfigError) -> Self {
        ExperimentError::Config(e)
    }
}

/// Builds and runs one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    nf: Nf,
    model: MetadataModel,
    opt: OptLevel,
    freq_ghz: f64,
    cores: usize,
    nics: usize,
    offered_gbps: f64,
    packets: usize,
    warmup_fraction: f64,
    traffic: TrafficProfile,
    seed: u64,
    rx_ring: usize,
    burst: usize,
    ddio_ways: Option<usize>,
    pool_mode: Option<pm_dpdk::MempoolMode>,
    spec: Option<MetadataSpec>,
    custom_trace: Option<Trace>,
    profile: Option<bool>,
    faults: Option<FaultPlan>,
    timeline_us: Option<f64>,
    packet_trace: Option<bool>,
    reference_walk: bool,
    workload: Option<WorkloadSpec>,
    hugepage_tables: bool,
}

impl ExperimentBuilder {
    /// Starts a builder for `nf` with the paper's defaults: Copying,
    /// vanilla, 2.3 GHz, one core, one NIC, 100-Gbps offered load,
    /// campus-mix traffic.
    pub fn new(nf: Nf) -> Self {
        ExperimentBuilder {
            nf,
            model: MetadataModel::Copying,
            opt: OptLevel::Vanilla,
            freq_ghz: 2.3,
            cores: 1,
            nics: 1,
            offered_gbps: 100.0,
            packets: 100_000,
            warmup_fraction: 0.2,
            traffic: TrafficProfile::CampusMix,
            seed: 0xCAFE,
            rx_ring: 4096,
            burst: 32,
            ddio_ways: None,
            pool_mode: None,
            spec: None,
            custom_trace: None,
            profile: None,
            faults: None,
            timeline_us: None,
            packet_trace: None,
            reference_walk: false,
            workload: None,
            hugepage_tables: false,
        }
    }

    /// Sets the metadata-management model.
    pub fn metadata_model(mut self, m: MetadataModel) -> Self {
        self.model = m;
        self
    }

    /// Sets the optimization level.
    pub fn optimization(mut self, o: OptLevel) -> Self {
        self.opt = o;
        self
    }

    /// Sets the core frequency in GHz.
    pub fn frequency_ghz(mut self, f: f64) -> Self {
        self.freq_ghz = f;
        self
    }

    /// Sets the number of processing cores (RSS spreads flows).
    pub fn cores(mut self, c: usize) -> Self {
        self.cores = c;
        self
    }

    /// Sets the number of NICs (2 for the >100-Gbps experiment).
    pub fn nics(mut self, n: usize) -> Self {
        self.nics = n;
        self
    }

    /// Sets the offered load per NIC in Gbps.
    pub fn offered_gbps(mut self, g: f64) -> Self {
        self.offered_gbps = g;
        self
    }

    /// Sets the number of generated packets per NIC.
    pub fn packets(mut self, p: usize) -> Self {
        self.packets = p;
        self
    }

    /// Sets the traffic profile.
    pub fn traffic(mut self, t: TrafficProfile) -> Self {
        self.traffic = t;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self
    }

    /// Sets the RX descriptor ring size.
    pub fn rx_ring(mut self, r: usize) -> Self {
        self.rx_ring = r;
        self
    }

    /// Sets the RX/TX burst size (default 32, like the paper's configs).
    pub fn burst(mut self, b: usize) -> Self {
        self.burst = b;
        self
    }

    /// Overrides the LLC ways DDIO may fill (ablation knob).
    pub fn ddio_ways(mut self, w: usize) -> Self {
        self.ddio_ways = Some(w);
        self
    }

    /// Overrides the mempool recycling order (ablation knob).
    pub fn pool_mode(mut self, m: pm_dpdk::MempoolMode) -> Self {
        self.pool_mode = Some(m);
        self
    }

    /// Overrides the X-Change metadata spec (which fields the driver
    /// delivers; default: [`MetadataSpec::routing`]).
    pub fn metadata_spec(mut self, s: MetadataSpec) -> Self {
        self.spec = Some(s);
        self
    }

    /// Replays an explicit trace (e.g. loaded from a pcap capture)
    /// instead of synthesizing one; used for every NIC.
    pub fn trace(mut self, t: Trace) -> Self {
        self.custom_trace = Some(t);
        self
    }

    /// Enables (or disables) per-element profiling for this run,
    /// overriding the sweep's default ([`RunDefaults::profile`], set by
    /// `--profile`).
    pub fn profile(mut self, on: bool) -> Self {
        self.profile = Some(on);
        self
    }

    /// Whether this run collects a per-element profile: the explicit
    /// [`Self::profile`] setting, else off.
    pub fn profile_effective(&self) -> bool {
        self.profile.unwrap_or(false)
    }

    /// Injects a deterministic [`FaultPlan`] into this run, overriding
    /// the sweep's default ([`RunDefaults::faults`], set by
    /// `--faults <spec>`). An empty plan is equivalent to no plan at
    /// all.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The fault plan this run injects, normalized so an empty plan
    /// reads as `None` (the zero-cost baseline).
    pub fn fault_plan_effective(&self) -> Option<FaultPlan> {
        self.faults.clone().filter(|p| !p.is_empty())
    }

    /// Records a flight-recorder timeline with the given virtual-time
    /// window (µs) for this run, overriding the sweep's default
    /// ([`RunDefaults::timeline_us`], set by `--timeline`).
    pub fn timeline_us(mut self, window_us: f64) -> Self {
        self.timeline_us = Some(window_us);
        self
    }

    /// The timeline window this run records (µs), if any.
    pub fn timeline_us_effective(&self) -> Option<f64> {
        self.timeline_us
    }

    /// Enables (or disables) sampled per-packet lifecycle tracing for
    /// this run, overriding the sweep's default
    /// ([`RunDefaults::packet_trace`], on whenever a `--trace <path>`
    /// destination is given). The sample set is a pure function of the
    /// run seed and packet identity, so traces are thread-count
    /// independent.
    pub fn packet_trace(mut self, on: bool) -> Self {
        self.packet_trace = Some(on);
        self
    }

    /// Whether this run records lifecycle traces: the explicit
    /// [`Self::packet_trace`] setting, else off.
    pub fn packet_trace_effective(&self) -> bool {
        self.packet_trace.unwrap_or(false)
    }

    /// Resolves every access program through the reference per-call walk
    /// (resident filter and invalidation-scan elision off). This is the
    /// bit-identity regression knob: a run with the flag on
    /// must produce byte-identical artifacts to the same run with it off.
    pub fn reference_walk(mut self, on: bool) -> Self {
        self.reference_walk = on;
        self
    }

    /// Drives the run from a deterministic flow-population workload
    /// (Zipf popularity, seeded churn, attack mixes) instead of the
    /// stock trace profiles, overriding the sweep's default
    /// ([`RunDefaults::workload`], set by `--workload <spec>`). An
    /// explicit [`Self::trace`] wins over both.
    pub fn workload(mut self, spec: WorkloadSpec) -> Self {
        self.workload = Some(spec);
        self
    }

    /// The workload this run replays, if any.
    pub fn workload_effective(&self) -> Option<WorkloadSpec> {
        self.workload.clone()
    }

    /// Fills every run setting this builder leaves unset from a sweep's
    /// `defaults`; a setting the builder sets explicitly wins.
    pub(crate) fn or_defaults(mut self, d: &RunDefaults) -> Self {
        self.profile = self.profile.or(Some(d.profile));
        self.faults = self.faults.or_else(|| d.faults.clone());
        self.workload = self.workload.or_else(|| d.workload.clone());
        self.timeline_us = self.timeline_us.or(d.timeline_us);
        self.packet_trace = self.packet_trace.or(Some(d.packet_trace));
        self
    }

    /// Backs element-owned tables (NAT bindings, conntrack, FIB nodes)
    /// with 2-MiB pages, shrinking their DTLB footprint. Off by
    /// default: the 4-KiB baseline is what the flow-scale sweep
    /// contrasts against.
    pub fn hugepage_tables(mut self, on: bool) -> Self {
        self.hugepage_tables = on;
        self
    }

    /// Builds the optimized IR (configuration + plan) without running —
    /// useful for inspecting the transformation log.
    ///
    /// Every run starts here, so this is where an out-of-range offered
    /// load or frequency is reported, before anything is built.
    pub fn build_ir(&self) -> Result<MillIr, ExperimentError> {
        for (param, value) in [
            ("offered_gbps", self.offered_gbps),
            ("frequency_ghz", self.freq_ghz),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(ExperimentError::OutOfRange { param, value });
            }
        }
        let config = ConfigGraph::parse(&self.nf.config_text())?;
        let mut ir = MillIr::new(config, self.model);
        if let Some(pm_dpdk::MempoolMode::Lifo) = self.pool_mode {
            ir.plan.lifo_packet_pool = true;
        }
        match self.opt {
            OptLevel::Vanilla | OptLevel::Reorder => {}
            OptLevel::Devirtualize => pm_compile::devirtualize(&mut ir),
            OptLevel::ConstantEmbed => pm_compile::embed_constants(&mut ir),
            OptLevel::StaticGraph => pm_compile::static_graph(&mut ir),
            OptLevel::AllSource | OptLevel::Full => pm_compile::packetmill(&mut ir),
        }
        if matches!(self.opt, OptLevel::Full | OptLevel::Reorder)
            && self.model == MetadataModel::Copying
        {
            let profile = self.collect_profile(&ir)?;
            pm_compile::reorder_fields(&mut ir, &profile);
        }
        Ok(ir)
    }

    /// Runs a short profiling pass to collect per-field access counts.
    fn collect_profile(&self, ir: &MillIr) -> Result<pm_click::FieldProfile, ExperimentError> {
        let mut engine = self.build_engine(ir, 4_096, true)?;
        engine.set_profiling(true);
        let _ = engine.run();
        Ok(engine.take_profile().unwrap_or_default())
    }

    fn engine_config(&self, ir: &MillIr, packets: usize) -> EngineConfig {
        EngineConfig {
            cores: self.cores,
            nics: self.nics,
            freq: Frequency::from_ghz(self.freq_ghz),
            rx_ring: self.rx_ring,
            burst: self.burst,
            model: self.model,
            spec: self.spec.clone().unwrap_or_else(MetadataSpec::routing),
            xchg_layout: (self.model == MetadataModel::XChange)
                .then(|| ir.plan.packet_layout.clone()),
            offered_gbps: self.offered_gbps,
            packets,
            warmup: (packets as f64 * self.warmup_fraction) as usize,
            ddio_ways: self.ddio_ways,
            pool_mode: self.pool_mode,
            profile: self.profile_effective(),
            faults: self.fault_plan_effective(),
            timeline: self.timeline_us_effective().map(SimTime::from_us),
            trace: self
                .packet_trace_effective()
                .then(|| pm_telemetry::TraceSpec {
                    seed: self.seed,
                    ..pm_telemetry::TraceSpec::default()
                }),
            reference_walk: self.reference_walk,
            hugepage_tables: self.hugepage_tables,
        }
    }

    /// The trace NIC `n` replays: an explicit custom trace, else frames
    /// synthesized from the effective workload (per-NIC seed split so
    /// NICs don't replay identical flows), else the stock profile.
    fn trace_for_nic(&self, n: usize, packets: usize) -> Trace {
        if let Some(t) = &self.custom_trace {
            return t.clone();
        }
        if let Some(spec) = self.workload_effective() {
            return Trace::from_workload_spec_cached(&WorkloadSpec {
                seed: spec.seed ^ (n as u64) << 32,
                ..spec
            });
        }
        Trace::synthesize_cached(&TraceConfig {
            packets: 8_192.min(packets.max(1)),
            profile: self.traffic,
            seed: self.seed ^ (n as u64) << 32,
            ..TraceConfig::default()
        })
    }

    /// The configuration as stable key/value pairs (for [`RunReport`]).
    /// Every key is always present so artifact schemas stay stable.
    fn config_entries(&self) -> Vec<(String, String)> {
        let kv: Vec<(&str, String)> = vec![
            ("nf", format!("{:?}", self.nf)),
            ("model", format!("{:?}", self.model)),
            ("opt", format!("{:?}", self.opt)),
            ("freq_ghz", format!("{}", self.freq_ghz)),
            ("cores", format!("{}", self.cores)),
            ("nics", format!("{}", self.nics)),
            ("offered_gbps", format!("{}", self.offered_gbps)),
            ("packets", format!("{}", self.packets)),
            ("traffic", format!("{:?}", self.traffic)),
            ("rx_ring", format!("{}", self.rx_ring)),
            ("burst", format!("{}", self.burst)),
            ("ddio_ways", format!("{:?}", self.ddio_ways)),
            ("pool_mode", format!("{:?}", self.pool_mode)),
        ];
        kv.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    }

    fn build_engine(
        &self,
        ir: &MillIr,
        packets: usize,
        for_profiling: bool,
    ) -> Result<Engine, ExperimentError> {
        let mut cfg = self.engine_config(ir, packets);
        if for_profiling {
            // The field-access profiling pre-run is internal plumbing for
            // the reordering pass, not a reported run — and the resulting
            // layout must not depend on any fault plan.
            cfg.warmup = 0;
            cfg.profile = false;
            cfg.faults = None;
            cfg.timeline = None;
            cfg.trace = None;
        }
        let qpn = Engine::queues_per_nic(&cfg);
        let registry = standard_registry();
        let mut space = AddressSpace::new();

        let mut dataplanes: Vec<Box<dyn Dataplane>> = Vec::new();
        for nic in 0..self.nics {
            for _q in 0..qpn {
                let graph = Graph::build(&ir.config, &registry)?;
                let mut rt = GraphRuntime::new(graph, ir.plan.clone(), &mut space);
                if let Some(plan) = &cfg.faults {
                    rt.set_fault_slowdowns(plan);
                }
                // Multi-source configs map source ordinal to the NIC; the
                // presets have one source, shared across NICs.
                let n_sources = rt.graph.sources.len();
                let ordinal = if n_sources > 1 { nic % n_sources } else { 0 };
                dataplanes.push(Box::new(ClickDataplane::new(
                    rt,
                    ordinal,
                    format!("FastClick ({})", ir.plan.label()),
                )));
            }
        }

        let traces: Vec<Trace> = (0..self.nics)
            .map(|n| self.trace_for_nic(n, packets))
            .collect();

        Ok(Engine::new(cfg, dataplanes, traces, &mut space))
    }

    /// Runs the experiment with the FastClick dataplane under the
    /// configured optimization level and metadata model.
    pub fn run(&self) -> Result<Measurement, ExperimentError> {
        Ok(self.run_with_handlers()?.0)
    }

    /// Like [`Self::run`], also returning the per-element
    /// `(name, packets, drops)` statistics (Click read handlers).
    pub fn run_with_handlers(&self) -> Result<(Measurement, ElementStats), ExperimentError> {
        let ir = self.build_ir()?;
        let mut engine = self.build_engine(&ir, self.packets, false)?;
        let m = engine.run();
        Ok((m, engine.element_stats()))
    }

    /// Like [`Self::run`], also returning the structured [`RunReport`]
    /// artifact (configuration + seed + measurement + per-element
    /// profile when [`Self::profile_effective`] is on).
    pub fn run_with_report(&self) -> Result<(Measurement, RunReport), ExperimentError> {
        let ir = self.build_ir()?;
        let mut engine = self.build_engine(&ir, self.packets, false)?;
        let m = engine.run();
        let report = RunReport {
            label: format!("{:?} [{}]", self.nf, ir.plan.label()),
            config: self.config_entries(),
            seed: self.seed,
            measurement: m,
            profile: engine.profile_report(),
            // Per-queue sections only for multi-core runs: single-core
            // artifacts stay byte-identical to the golden fixtures.
            cores: if self.cores > 1 {
                engine.queue_ledgers().map(<[_]>::to_vec)
            } else {
                None
            },
            faults: engine.fault_plan().map(|p| crate::report::FaultReport {
                spec: p.to_spec(),
                ledger: engine.ledger().unwrap_or_default(),
            }),
            workload: self.workload_effective().map(|spec| {
                // Stats cover one trace cycle of the base (NIC-0) spec;
                // the engine replays the cycle until `packets` is met.
                // NIC 0 replays exactly this trace, so the lookup hits
                // the cache and reads the stats computed with it.
                let base = Trace::from_workload_spec_cached(&spec);
                crate::report::WorkloadReport {
                    spec: spec.to_spec(),
                    hugepage_tables: self.hugepage_tables,
                    frames: base.len() as u64,
                    stats: base
                        .workload_stats()
                        .expect("a workload trace carries its stats"),
                    tables: engine.table_stats(),
                }
            }),
            timeline: engine.take_timeline(),
            trace: engine.take_trace(),
        };
        Ok((m, report))
    }

    /// Runs the experiment with an arbitrary dataplane factory instead of
    /// FastClick (for the framework comparison of Fig. 11). The factory
    /// is called once per (nic, queue) pair; the metadata model comes
    /// from the dataplane itself.
    pub fn run_with_dataplane<F>(&self, factory: F) -> Result<Measurement, ExperimentError>
    where
        F: Fn() -> Box<dyn Dataplane>,
    {
        let ir = self.build_ir()?;
        let mut cfg = self.engine_config(&ir, self.packets);
        let qpn = Engine::queues_per_nic(&cfg);
        let probe = factory();
        cfg.model = probe.metadata_model();
        cfg.spec = MetadataSpec::minimal();
        cfg.xchg_layout = None;
        drop(probe);

        let mut space = AddressSpace::new();
        let dataplanes: Vec<Box<dyn Dataplane>> = (0..self.nics * qpn).map(|_| factory()).collect();
        let traces: Vec<Trace> = (0..self.nics)
            .map(|n| self.trace_for_nic(n, self.packets))
            .collect();
        let mut engine = Engine::new(cfg, dataplanes, traces, &mut space);
        Ok(engine.run())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nf_presets_have_configs() {
        for nf in [
            Nf::Forwarder,
            Nf::Router,
            Nf::IdsRouter,
            Nf::Nat,
            Nf::Firewall,
        ] {
            let text = nf.config_text();
            assert!(text.contains("FromDPDKDevice"), "{nf:?}");
            assert!(ConfigGraph::parse(&text).is_ok(), "{nf:?} parses");
        }
        let wp = Nf::WorkPackage {
            w: 2,
            s_mb: 4,
            n: 1,
        }
        .config_text();
        assert!(wp.contains("WorkPackage(W 2, S 4, N 1)"));
    }

    #[test]
    fn custom_config_round_trips() {
        let custom = Nf::Custom("a :: FromDPDKDevice(0); a -> Discard;".into());
        assert_eq!(
            custom.config_text(),
            "a :: FromDPDKDevice(0); a -> Discard;"
        );
    }

    #[test]
    fn bad_custom_config_is_reported() {
        let err = ExperimentBuilder::new(Nf::Custom("x -> ;".into()))
            .build_ir()
            .unwrap_err();
        assert!(matches!(err, ExperimentError::Config(_)));
        assert!(err.to_string().contains("configuration error"));
    }

    #[test]
    fn out_of_range_testbed_is_an_error_not_a_hang() {
        let base = || ExperimentBuilder::new(Nf::Forwarder).packets(100);
        let cases = [
            (base().offered_gbps(0.0), "offered_gbps"),
            (base().offered_gbps(-5.0), "offered_gbps"),
            (base().offered_gbps(f64::INFINITY), "offered_gbps"),
            (base().frequency_ghz(0.0), "frequency_ghz"),
            (base().frequency_ghz(f64::NAN), "frequency_ghz"),
        ];
        for (builder, name) in cases {
            for err in [
                builder.run().map(drop).unwrap_err(),
                builder.run_with_report().map(drop).unwrap_err(),
                builder
                    .run_with_dataplane(|| Box::new(pm_frameworks::l2fwd::L2Fwd::plain()))
                    .map(drop)
                    .unwrap_err(),
            ] {
                assert!(
                    matches!(err, ExperimentError::OutOfRange { param, .. } if param == name),
                    "{err}"
                );
                assert!(err
                    .to_string()
                    .starts_with(&format!("{name} must be finite and above 0")));
            }
        }
    }

    #[test]
    fn unknown_element_class_is_reported() {
        let err = ExperimentBuilder::new(Nf::Custom(
            "a :: FromDPDKDevice(0); a -> NoSuchElement -> Discard;".into(),
        ))
        .packets(64)
        .run()
        .unwrap_err();
        assert!(err.to_string().contains("unknown element class"));
    }

    #[test]
    fn pipeline_matches_opt_level() {
        use pm_click::DispatchMode::{Direct, Inlined, Virtual};
        // X-Change skips the reordering pre-run; the flags do not depend
        // on the model.
        for (opt, dispatch, constants, static_graph) in [
            (OptLevel::Vanilla, Virtual, false, false),
            (OptLevel::Devirtualize, Direct, false, false),
            (OptLevel::ConstantEmbed, Virtual, true, false),
            (OptLevel::StaticGraph, Inlined, false, true),
            (OptLevel::AllSource, Inlined, true, true),
            (OptLevel::Reorder, Virtual, false, false),
            (OptLevel::Full, Inlined, true, true),
        ] {
            let plan = ExperimentBuilder::new(Nf::Forwarder)
                .metadata_model(MetadataModel::XChange)
                .optimization(opt)
                .build_ir()
                .expect("ir")
                .plan;
            assert_eq!(
                (plan.dispatch, plan.constants_embedded, plan.static_graph),
                (dispatch, constants, static_graph),
                "{opt:?}"
            );
        }
    }

    #[test]
    fn build_ir_applies_passes() {
        let ir = ExperimentBuilder::new(Nf::Router)
            .optimization(OptLevel::AllSource)
            .build_ir()
            .expect("ir");
        assert!(ir.plan.static_graph);
        assert!(ir.plan.constants_embedded);
        assert!(ir.log.iter().any(|l| l.contains("static-graph")));
    }

    #[test]
    fn reorder_skipped_for_non_copying() {
        // Profile-guided reordering applies only under Copying (like the
        // paper's pass); XChange keeps the default layout.
        let ir = ExperimentBuilder::new(Nf::Router)
            .metadata_model(MetadataModel::XChange)
            .optimization(OptLevel::Full)
            .packets(2_048)
            .build_ir()
            .expect("ir");
        assert_eq!(
            ir.plan.packet_layout,
            pm_click::default_packet_layout(),
            "layout untouched for X-Change"
        );
    }
}
