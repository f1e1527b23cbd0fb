//! The traced pass: per-layer metrics of one workload.
//!
//! End-to-end numbers are measured with tracing off (`run.rs`). This
//! pass runs the workload through the benchmark's own assembly and
//! records host spans from benchmark code only — around the calls into
//! each layer, never inside the program. Spans are kept in memory and
//! written as Chrome trace-event JSON when the pass ends.
//!
//! Every dataplane is wrapped in a `TimedDataplane`, and each run so
//! assembled must measure bit for bit what `ExperimentBuilder`
//! measures. The tracing overhead is the decorator's per-call price
//! times the calls it saw.

use crate::assembly::{assemble, timed_call_overhead_ns, Setup};
use crate::layers;
use crate::metrics::Sample;
use crate::run::{failed_runs, measurements, repetition};
use crate::stats::{median, percentile};
use crate::workloads::{self, RunSpec};
use packetmill::sweep::artifact_document;
use packetmill::{Json, Measurement};
use std::path::Path;
use std::time::Instant;

/// One host span: a call into a layer, made by benchmark code.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Index of the workload run the span belongs to.
    pub run: usize,
    pub parent: Option<&'static str>,
    pub start_us: f64,
    pub dur_us: f64,
    /// `run.dataplane` only: calls summed into this one span.
    pub calls: Option<u64>,
}

/// In-memory span log with one clock origin.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Records a top-level span (`at` = start and duration, µs).
    fn push(&mut self, name: &'static str, run: usize, at: (f64, f64)) {
        self.spans.push(Span {
            name,
            run,
            parent: None,
            start_us: at.0,
            dur_us: at.1,
            calls: None,
        });
    }

    /// Times `f` as a span.
    fn time<T>(&mut self, name: &'static str, run: usize, f: impl FnOnce() -> T) -> (T, f64) {
        let start = self.now_us();
        let out = f();
        let dur = self.now_us() - start;
        self.push(name, run, (start, dur));
        (out, dur / 1e6)
    }

    /// Lays the four set-up stages out back to back, ending now.
    fn setup(&mut self, run: usize, s: &Setup) {
        let mut at = self.now_us() - s.total() * 1e6;
        for (name, secs) in [
            ("setup.build_ir", s.build_ir_s),
            ("setup.trace", s.trace_s),
            ("setup.graph", s.graph_s),
            ("setup.engine_new", s.engine_new_s),
        ] {
            self.push(name, run, (at, secs * 1e6));
            at += secs * 1e6;
        }
    }

    /// Chrome trace-event JSON (`chrome://tracing`, ui.perfetto.dev):
    /// one thread per workload run, `X` complete events.
    pub fn chrome_trace(&self, workload: &str, labels: &[String]) -> Json {
        let mut events = vec![Json::obj(vec![
            ("ph", Json::Str("M".into())),
            ("pid", Json::U64(0)),
            ("name", Json::Str("process_name".into())),
            (
                "args",
                Json::obj(vec![(
                    "name",
                    Json::Str(format!("pm-benchmark {workload}")),
                )]),
            ),
        ])];
        for (tid, label) in labels.iter().enumerate() {
            events.push(Json::obj(vec![
                ("ph", Json::Str("M".into())),
                ("pid", Json::U64(0)),
                ("tid", Json::U64(tid as u64)),
                ("name", Json::Str("thread_name".into())),
                ("args", Json::obj(vec![("name", Json::Str(label.clone()))])),
            ]));
        }
        for s in &self.spans {
            let mut args = vec![("run", Json::U64(s.run as u64))];
            if let Some(p) = s.parent {
                args.push(("parent", Json::Str(p.into())));
            }
            if let Some(c) = s.calls {
                args.push(("calls_summed", Json::U64(c)));
            }
            events.push(Json::obj(vec![
                ("ph", Json::Str("X".into())),
                ("pid", Json::U64(0)),
                ("tid", Json::U64(s.run as u64)),
                ("cat", Json::Str("host".into())),
                ("name", Json::Str(s.name.into())),
                ("ts", Json::F64(s.start_us)),
                ("dur", Json::F64(s.dur_us)),
                ("args", Json::obj(args)),
            ]));
        }
        Json::obj(vec![
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::Str("ms".into())),
        ])
    }

    /// Σ duration (seconds) of the spans called `name`.
    fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .sum::<f64>()
            / 1e6
    }
}

/// What the traced pass measured.
pub struct Traced {
    pub metrics: Vec<Sample>,
    pub spans: Spans,
    pub labels: Vec<String>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

/// Packets of the runs the observer overheads are measured on.
const OVERHEAD_PACKETS: usize = 30_000;
/// Back-to-back (base, variant) pairs per observer overhead.
const OVERHEAD_PAIRS: usize = 7;

/// The measurement and `Engine::run` host seconds of a fresh plain
/// assembly of `spec`.
fn engine_run(spec: &RunSpec) -> (Measurement, f64) {
    let mut a = assemble(spec, false);
    let t = Instant::now();
    let m = a.engine.run();
    (m, t.elapsed().as_secs_f64())
}

/// The traced pass over workload `name`.
pub fn traced(name: &str, seed: u64, quick: bool) -> Traced {
    let runs = workloads::runs(name, seed, quick);
    let labels: Vec<String> = runs.iter().map(|r| r.label.clone()).collect();
    let packets: f64 = runs.iter().map(|r| r.packets as f64).sum();
    let n = runs.len();
    let mut failures = Vec::new();
    let mut metrics = Vec::new();

    // The facade's own numbers: the reference every assembly below must
    // reproduce (this first sweep also warms the trace cache), then a
    // warm single-worker sweep and a two-worker one for the runner's
    // own metrics.
    let reference = repetition(name, &runs, 1);
    failures.extend(failed_runs(&reference.results));
    let expected = measurements(&reference.results);
    let t1 = repetition(name, &runs, 1);
    let t2 = repetition(name, &runs, 2);
    for rep in [&t1, &t2] {
        failures.extend(failed_runs(&rep.results));
        if rep.artifact != reference.artifact {
            failures.push("sweep artifact differs between repetitions".to_string());
        }
    }
    let mut attempted = 3 * n as u64;
    let run_ms: Vec<f64> = t1
        .results
        .outcomes
        .iter()
        .map(|o| o.seconds * 1e3)
        .collect();
    metrics.extend([
        Sample::over("sweep.run_host_ms_p50", median(&run_ms), n),
        Sample::over("sweep.run_host_ms_p95", percentile(&run_ms, 95.0), n),
        Sample::over(
            "sweep.overhead_us_per_run",
            (t1.results.wall_seconds - t1.results.serial_seconds()) * 1e6 / n as f64,
            n,
        ),
        Sample::over(
            "sweep.speedup_t2",
            t1.results.wall_seconds / t2.results.wall_seconds,
            n,
        ),
    ]);

    // The traced pass proper: every run through the benchmark's own
    // assembly with timed dataplanes, spans recorded.
    let mut spans = Spans::new();
    let mut setups = Vec::new();
    let mut dataplane_s = 0.0;
    let mut reports = Vec::new();
    let mut report_build_us = Vec::new();
    for (i, spec) in runs.iter().enumerate() {
        let mut a = assemble(spec, true);
        spans.setup(i, &a.setup);
        setups.push(a.setup);
        let start = spans.now_us();
        let (m, _) = spans.time("run.engine", i, || a.engine.run());
        let clock = a.clock.clone().expect("timed assembly carries a clock");
        spans.spans.push(Span {
            name: "run.dataplane",
            run: i,
            parent: Some("run.engine"),
            start_us: start,
            dur_us: clock.seconds() * 1e6,
            calls: Some(clock.calls()),
        });
        dataplane_s += clock.seconds();
        attempted += 1;
        if expected.iter().all(|(l, e)| *l != spec.label || *e != m) {
            failures.push(format!(
                "{}: traced assembly measures differently from ExperimentBuilder",
                spec.label
            ));
        }
        let (mut report, secs) = spans.time("report.build", i, || a.report(spec, m));
        report.label = spec.label.clone();
        report_build_us.push(secs * 1e6);
        reports.push(report.to_json());
    }
    let group = Json::obj(vec![
        ("name", Json::Str(name.to_string())),
        ("runs", Json::Arr(reports)),
    ]);
    let (text, serialise_s) = spans.time("report.serialise", n - 1, || {
        artifact_document(vec![group]).to_pretty()
    });
    std::hint::black_box(text);

    let traced_run_s = spans.total_s("run.engine");
    let per_pkt = |secs: f64| secs * 1e9 / packets;
    let mean_us = |f: fn(&Setup) -> f64| setups.iter().map(f).sum::<f64>() * 1e6 / n as f64;
    metrics.extend([
        Sample::over("engine.run_ns_per_pkt", per_pkt(traced_run_s), n),
        Sample::over(
            "engine.io_self_ns_per_pkt",
            per_pkt(traced_run_s - dataplane_s),
            n,
        ),
        Sample::over("click.dataplane_ns_per_pkt", per_pkt(dataplane_s), n),
        Sample::over(
            "click.dataplane_share_pct",
            dataplane_s / traced_run_s * 100.0,
            n,
        ),
        Sample::over("engine.new_us", mean_us(|s| s.engine_new_s), n),
        Sample::over("click.build_ir_us", mean_us(|s| s.build_ir_s), n),
        Sample::over("click.graph_build_us", mean_us(|s| s.graph_s), n),
        Sample::median_of("report.build_us", report_build_us),
        Sample::over("report.serialise_ms", serialise_s * 1e3, 1),
    ]);

    // What the decorator costs: its per-call price (timed on a null
    // dataplane) × the calls made, against the run time without it. A
    // whole-run A/B difference of ≈ 2 % drowns in this box's speed
    // drift; the per-call price does not.
    let calls: u64 = spans.spans.iter().filter_map(|s| s.calls).sum();
    let decorator_s = timed_call_overhead_ns() * calls as f64 / 1e9;
    metrics.push(Sample::over(
        "trace_overhead_pct",
        decorator_s / (traced_run_s - decorator_s) * 100.0,
        calls as usize,
    ));

    // What the engine's own observers cost, on the workload's first run
    // cut to at most OVERHEAD_PACKETS: the median of OVERHEAD_PAIRS
    // back-to-back (observers off, observer on) pairs each. Neither may
    // change the measurement.
    let base = RunSpec {
        packets: runs[0].packets.min(OVERHEAD_PACKETS),
        ..runs[0].unobserved()
    };
    for (what, observed) in [
        (
            "engine.recorder_overhead_pct",
            RunSpec {
                timeline_us: Some(50.0),
                packet_trace: true,
                ..base.clone()
            },
        ),
        (
            "engine.profile_overhead_pct",
            RunSpec {
                profile: true,
                ..base.clone()
            },
        ),
    ] {
        let pcts = (0..if quick { 1 } else { OVERHEAD_PAIRS })
            .map(|_| {
                let (m, base_s) = engine_run(&base);
                let (mo, observed_s) = engine_run(&observed);
                attempted += 1;
                if mo != m {
                    failures.push(format!("{what}: observing changed the measurement"));
                }
                (observed_s - base_s) / base_s * 100.0
            })
            .collect();
        metrics.push(Sample::median_of(what, pcts));
    }

    // Simulated per-packet counts: one profiled assembly of the first
    // run at full size.
    let mut a = assemble(
        &RunSpec {
            profile: true,
            ..runs[0].clone()
        },
        false,
    );
    let tx = a.engine.run().tx_packets.max(1) as f64;
    let profile = a.engine.profile_report().expect("profiled run");
    let sum = |f: fn(&pm_telemetry::ProfileRecord) -> u64| {
        profile.records.iter().map(f).sum::<u64>() as f64
    };
    let accesses_per_pkt = sum(|r| r.loads + r.stores) / tx;
    let batches: Vec<(u64, u64)> = profile
        .records
        .iter()
        .flat_map(|r| r.batches.iter().copied())
        .collect();
    let polls: u64 = batches.iter().map(|&(_, v)| v).sum();
    let run0_ns_per_pkt = spans
        .spans
        .iter()
        .find(|s| s.name == "run.engine")
        .map_or(f64::NAN, |s| s.dur_us * 1e3 / runs[0].packets as f64);
    metrics.extend([
        Sample::over("mem.sim_accesses_per_pkt", accesses_per_pkt, 1),
        Sample::over("mem.llc_miss_per_pkt", sum(|r| r.llc_load_misses) / tx, 1),
        Sample::over("mem.dtlb_miss_per_pkt", sum(|r| r.dtlb_misses) / tx, 1),
        Sample::over(
            "engine.host_ns_per_sim_access",
            run0_ns_per_pkt / accesses_per_pkt,
            1,
        ),
        Sample::over(
            "dpdk.mean_rx_batch",
            batches.iter().map(|&(k, v)| k * v).sum::<u64>() as f64 / polls.max(1) as f64,
            polls as usize,
        ),
    ]);
    let dropped: u64 = expected.iter().map(|(_, m)| m.rx_dropped).sum();
    metrics.push(Sample::over(
        "nic.rx_drop_pct",
        dropped as f64 / packets * 100.0,
        n,
    ));

    metrics.extend(layers::run(quick));

    Traced {
        metrics,
        spans,
        labels,
        attempted,
        failures,
    }
}

/// Writes the span log of workload `name` under `dir`.
pub fn write_chrome_trace(dir: &Path, name: &str, t: &Traced) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("trace-{name}.json")),
        t.spans.chrome_trace(name, &t.labels).to_pretty(),
    )
}
