//! The benchmark's own assembly of one run from the crates' public
//! parts — the same steps `ExperimentBuilder::run_with_report` takes
//! (`build_ir` → trace → `Graph::build` + `GraphRuntime::new` →
//! `Engine::new` → `Engine::run` → `RunReport`), so each step can be
//! timed from outside. The traced pass checks that a run assembled here
//! measures bit for bit what the facade measures.

use crate::workloads::RunSpec;
use packetmill::{
    standard_registry, ClickDataplane, Dataplane, Engine, EngineConfig, FaultReport, Frequency,
    Graph, Measurement, MetadataModel, MetadataSpec, RunReport, SimTime, Trace, TraceConfig,
    TraceSpec, Workload, WorkloadReport,
};
use pm_click::GraphRuntime;
use pm_mem::AddressSpace;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Host seconds of each set-up stage of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Setup {
    pub build_ir_s: f64,
    pub trace_s: f64,
    pub graph_s: f64,
    pub engine_new_s: f64,
}

impl Setup {
    /// Host seconds to reach a ready-to-step engine.
    pub fn total(&self) -> f64 {
        self.build_ir_s + self.trace_s + self.graph_s + self.engine_new_s
    }
}

/// Host time spent inside `Dataplane::process`, summed over calls.
#[derive(Debug, Default)]
pub struct DataplaneClock {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl DataplaneClock {
    pub fn seconds(&self) -> f64 {
        self.ns.get() as f64 / 1e9
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

/// Decorator that times `process()` and forwards everything else: the
/// one layer boundary inside `Engine::run` reachable from outside.
pub struct TimedDataplane {
    inner: Box<dyn Dataplane>,
    clock: Rc<DataplaneClock>,
}

impl TimedDataplane {
    pub fn new(inner: Box<dyn Dataplane>, clock: Rc<DataplaneClock>) -> Self {
        TimedDataplane { inner, clock }
    }
}

impl Dataplane for TimedDataplane {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn metadata_model(&self) -> MetadataModel {
        self.inner.metadata_model()
    }

    fn process(
        &mut self,
        core: usize,
        mem: &mut pm_mem::MemoryHierarchy,
        desc: &pm_dpdk::RxDesc,
        data: &mut [u8],
    ) -> pm_frameworks::ProcessResult {
        let started = Instant::now();
        let r = self.inner.process(core, mem, desc, data);
        let ns = started.elapsed().as_nanos() as u64;
        self.clock.ns.set(self.clock.ns.get() + ns);
        self.clock.calls.set(self.clock.calls.get() + 1);
        r
    }

    fn per_batch_cost(&self, n: usize) -> pm_mem::Cost {
        self.inner.per_batch_cost(n)
    }

    fn set_profiling(&mut self, on: bool) {
        self.inner.set_profiling(on);
    }

    fn take_profile(&mut self) -> Option<pm_click::FieldProfile> {
        self.inner.take_profile()
    }

    fn element_stats(&self) -> Vec<(String, u64, u64)> {
        self.inner.element_stats()
    }

    fn table_stats(&self) -> Vec<pm_click::TableStats> {
        self.inner.table_stats()
    }

    fn table_regions(&self) -> Vec<pm_mem::Region> {
        self.inner.table_regions()
    }

    fn set_span_recording(&mut self, on: bool) {
        self.inner.set_span_recording(on);
    }

    fn take_spans(&mut self, out: &mut Vec<(String, pm_mem::Cost)>) {
        self.inner.take_spans(out);
    }
}

/// Host ns one `process()` call costs more through a [`TimedDataplane`]
/// than directly: the decorator around a dataplane that does nothing,
/// against that dataplane alone, 1 M boxed calls each; median of five.
pub fn timed_call_overhead_ns() -> f64 {
    struct Null;
    impl Dataplane for Null {
        fn label(&self) -> String {
            "null".into()
        }
        fn metadata_model(&self) -> MetadataModel {
            MetadataModel::Copying
        }
        fn process(
            &mut self,
            _core: usize,
            _mem: &mut pm_mem::MemoryHierarchy,
            desc: &pm_dpdk::RxDesc,
            _data: &mut [u8],
        ) -> pm_frameworks::ProcessResult {
            pm_frameworks::ProcessResult {
                tx_len: Some(desc.len),
                cost: pm_mem::Cost::ZERO,
            }
        }
    }
    const CALLS: u32 = 1_000_000;
    let mut mem = pm_mem::MemoryHierarchy::skylake(1);
    let desc = pm_dpdk::RxDesc {
        buf_id: 0,
        len: 64,
        rss_hash: 0,
        arrival: SimTime::ZERO,
        gen: SimTime::ZERO,
        seq: 0,
        data_addr: 0x10_0000,
        meta_addr: 0x20_0000,
        xslot: None,
    };
    let mut data = [0u8; 64];
    let mut ns_per_call = |dp: &mut Box<dyn Dataplane>| {
        let t = Instant::now();
        for _ in 0..CALLS {
            std::hint::black_box(dp.process(0, &mut mem, &desc, &mut data));
        }
        t.elapsed().as_nanos() as f64 / f64::from(CALLS)
    };
    let mut plain: Box<dyn Dataplane> = Box::new(Null);
    let mut timed: Box<dyn Dataplane> = Box::new(TimedDataplane::new(
        Box::new(Null),
        Rc::new(DataplaneClock::default()),
    ));
    let diffs: Vec<f64> = (0..5)
        .map(|_| ns_per_call(&mut timed) - ns_per_call(&mut plain))
        .collect();
    crate::stats::median(&diffs)
}

/// A ready-to-step engine and how long each stage took to build it.
pub struct Assembled {
    pub engine: Engine,
    pub setup: Setup,
    /// `Some` when the dataplanes were wrapped in [`TimedDataplane`].
    pub clock: Option<Rc<DataplaneClock>>,
    plan_label: String,
}

/// Builds the engine for `spec` without any process-wide cache (trace
/// synthesis is paid every time, as a cold process pays it). With
/// `timed`, every dataplane is wrapped in a [`TimedDataplane`].
///
/// # Panics
///
/// Panics if the configuration does not build — the workloads are fixed
/// and valid, so that is a bug.
pub fn assemble(spec: &RunSpec, timed: bool) -> Assembled {
    let mut setup = Setup::default();

    let t = Instant::now();
    let ir = spec.builder().build_ir().expect("workload config builds");
    setup.build_ir_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let trace = match &spec.workload {
        Some(w) => Trace::from_workload(&Workload::new(w.clone())),
        None => Trace::synthesize(&TraceConfig {
            packets: 8_192.min(spec.packets.max(1)),
            profile: spec.traffic,
            seed: spec.seed,
            ..TraceConfig::default()
        }),
    };
    setup.trace_s = t.elapsed().as_secs_f64();

    let cfg = EngineConfig {
        cores: spec.cores,
        freq: Frequency::from_ghz(spec.freq_ghz),
        model: spec.model,
        spec: MetadataSpec::routing(),
        xchg_layout: (spec.model == MetadataModel::XChange).then(|| ir.plan.packet_layout.clone()),
        offered_gbps: spec.offered_gbps,
        packets: spec.packets,
        warmup: (spec.packets as f64 * 0.2) as usize,
        profile: spec.profile,
        faults: spec.faults.clone().filter(|p| !p.is_empty()),
        timeline: spec.timeline_us.map(SimTime::from_us),
        trace: spec.packet_trace.then(|| TraceSpec {
            seed: spec.seed,
            ..TraceSpec::default()
        }),
        hugepage_tables: spec.hugepage_tables,
        ..EngineConfig::default()
    };

    let t = Instant::now();
    let clock = timed.then(|| Rc::new(DataplaneClock::default()));
    let registry = standard_registry();
    let mut space = AddressSpace::new();
    let plan_label = ir.plan.label();
    let dataplanes: Vec<Box<dyn Dataplane>> = (0..Engine::queues_per_nic(&cfg))
        .map(|_| {
            let graph = Graph::build(&ir.config, &registry).expect("workload graph builds");
            let mut rt = GraphRuntime::new(graph, ir.plan.clone(), &mut space);
            if let Some(plan) = &cfg.faults {
                rt.set_fault_slowdowns(plan);
            }
            let dp: Box<dyn Dataplane> = Box::new(ClickDataplane::new(
                rt,
                0,
                format!("FastClick ({plan_label})"),
            ));
            match &clock {
                Some(c) => Box::new(TimedDataplane::new(dp, Rc::clone(c))),
                None => dp,
            }
        })
        .collect();
    setup.graph_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let engine = Engine::new(cfg, dataplanes, vec![trace], &mut space);
    setup.engine_new_s = t.elapsed().as_secs_f64();

    Assembled {
        engine,
        setup,
        clock,
        plan_label,
    }
}

impl Assembled {
    /// Builds the run's [`RunReport`] after `engine.run()` returned `m`,
    /// taking the recorder outputs out of the engine.
    pub fn report(&mut self, spec: &RunSpec, m: Measurement) -> RunReport {
        let engine = &mut self.engine;
        RunReport {
            label: format!("{:?} [{}]", spec.nf, self.plan_label),
            config: [
                ("nf", format!("{:?}", spec.nf)),
                ("model", format!("{:?}", spec.model)),
                ("opt", format!("{:?}", spec.opt)),
                ("freq_ghz", format!("{}", spec.freq_ghz)),
                ("cores", format!("{}", spec.cores)),
                ("offered_gbps", format!("{}", spec.offered_gbps)),
                ("packets", format!("{}", spec.packets)),
                ("traffic", format!("{:?}", spec.traffic)),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
            seed: spec.seed,
            measurement: m,
            profile: engine.profile_report(),
            cores: (spec.cores > 1)
                .then(|| engine.queue_ledgers().map(<[_]>::to_vec))
                .flatten(),
            faults: engine.fault_plan().map(|p| FaultReport {
                spec: p.to_spec(),
                ledger: engine.ledger().unwrap_or_default(),
            }),
            workload: spec.workload.as_ref().map(|w| {
                let workload = Workload::new(w.clone());
                let frames = workload.frames() as u64;
                WorkloadReport {
                    spec: w.to_spec(),
                    hugepage_tables: spec.hugepage_tables,
                    frames,
                    stats: workload.stats(frames),
                    tables: engine.table_stats(),
                }
            }),
            timeline: engine.take_timeline(),
            trace: engine.take_trace(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    /// Plain and `TimedDataplane`-wrapped assemblies of `spec` must both
    /// measure exactly what the facade measures.
    fn assert_neutral(spec: &RunSpec) {
        let (expected, _) = spec.builder().run_with_report().expect("facade run");
        let mut plain = assemble(spec, false);
        assert_eq!(
            plain.engine.run(),
            expected,
            "{}: plain assembly",
            spec.label
        );
        let mut timed = assemble(spec, true);
        assert_eq!(
            timed.engine.run(),
            expected,
            "{}: timed assembly",
            spec.label
        );
        let clock = timed.clock.expect("timed assembly carries a clock");
        assert!(clock.calls() > 0 && clock.seconds() > 0.0);
        assert!(plain.clock.is_none());
    }

    #[test]
    fn timed_dataplane_is_neutral_on_a_4k_packet_router_run() {
        assert_neutral(&workloads::reference_runs(0xCAFE, 4_096)[0]);
    }

    #[test]
    fn assembly_matches_the_facade_with_every_knob_on() {
        // Multi-core, X-Change layout, attribution, recorder and a fault
        // plan (observed_multicore), then a workload-driven run on
        // hugepage tables (flow_scale) — at quick size.
        assert_neutral(&workloads::runs("observed_multicore", 7, true)[1]);
        let mut spec = workloads::runs("flow_scale", 7, true)[3].clone();
        spec.nf = packetmill::Nf::RouterScale(20_000);
        let w = spec.workload.as_mut().expect("workload-driven run");
        (w.flows, w.frames, w.life) = (20_000, 4_096, 1_024);
        assert_neutral(&spec);
    }

    #[test]
    fn report_serialises_like_the_facades() {
        let spec = &workloads::runs("observed_multicore", 7, true)[2];
        let (_, expected) = spec.builder().run_with_report().expect("facade run");
        let mut a = assemble(spec, true);
        let m = a.engine.run();
        let report = a.report(spec, m);
        // Everything but the label and the config echo is the engine's.
        for key in ["measurement", "profile", "faults", "timeline", "trace"] {
            assert_eq!(
                report.to_json().get(key),
                expected.to_json().get(key),
                "section {key}"
            );
        }
    }
}
