//! The metric catalogue: every name the benchmark prints, with its unit
//! and direction. `BENCHMARK.json` repeats it (a self-test keeps the two
//! in step).

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before it counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
    /// Simulated quantity (deterministic for a seed) rather than host
    /// time.
    pub sim: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
    sim: bool,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        sim,
    }
}

const fn host(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound: None,
        sim: false,
    }
}

const fn sim(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound: None,
        sim: true,
    }
}

const fn higher(mut m: MetricDef) -> MetricDef {
    m.better = "higher";
    m
}

/// What a user of the simulator sees, per workload.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("sim_pkts_per_host_s", "1/s", "higher", 0.20, false),
    e2e("setup_s", "s", "lower", 0.25, false),
    e2e("peak_rss_mib", "MiB", "lower", 0.05, false),
    e2e("paper_err_throughput_pct", "%", "lower", 0.05, true),
    e2e("paper_err_ipc_pct", "%", "lower", 0.05, true),
];

/// Single layers, measured by the traced pass and the layer loops.
pub const PER_LAYER: [MetricDef; 49] = [
    // packetmill: engine, report, sweep runner.
    host("engine.run_ns_per_pkt", "ns"),
    host("engine.io_self_ns_per_pkt", "ns"),
    host("engine.new_us", "us"),
    host("engine.host_ns_per_sim_access", "ns"),
    host("engine.recorder_overhead_pct", "%"),
    host("engine.profile_overhead_pct", "%"),
    host("report.build_us", "us"),
    host("report.serialise_ms", "ms"),
    host("sweep.overhead_us_per_run", "us"),
    host("sweep.run_host_ms_p50", "ms"),
    host("sweep.run_host_ms_p95", "ms"),
    higher(host("sweep.speedup_t2", "x")),
    host("trace_overhead_pct", "%"),
    // pm-click / pm-compile.
    host("click.dataplane_ns_per_pkt", "ns"),
    host("click.dataplane_share_pct", "%"),
    host("click.build_ir_us", "us"),
    host("click.graph_build_us", "us"),
    // pm-mem.
    host("mem.access_hit_ns", "ns"),
    host("mem.access_miss_ns", "ns"),
    host("mem.access_range_ns_per_line", "ns"),
    host("mem.program_replay_ns", "ns"),
    host("mem.program_walk_ns", "ns"),
    host("mem.program_batch32_ns_per_row", "ns"),
    host("mem.dma_write_ns_per_line", "ns"),
    host("mem.new_us", "us"),
    sim("mem.sim_accesses_per_pkt", "count"),
    sim("mem.llc_miss_per_pkt", "count"),
    sim("mem.dtlb_miss_per_pkt", "count"),
    higher(sim("mem.batch_replay_ratio", "ratio")),
    higher(sim("mem.signature_replays_per_pkt", "count")),
    sim("mem.signature_kills_per_pkt", "count"),
    // pm-nic.
    host("nic.rx_deliver_ns_per_frame", "ns"),
    host("nic.rss_hash_ns", "ns"),
    sim("nic.rx_drop_pct", "%"),
    // pm-dpdk.
    host("dpdk.rx_burst_ns_per_pkt.copying", "ns"),
    host("dpdk.rx_burst_ns_per_pkt.overlaying", "ns"),
    host("dpdk.rx_burst_ns_per_pkt.xchange", "ns"),
    host("dpdk.tx_burst_ns_per_pkt", "ns"),
    host("dpdk.mempool_cycle_ns", "ns"),
    higher(sim("dpdk.steady_burst_ratio", "ratio")),
    higher(sim("dpdk.mean_rx_batch", "count")),
    // pm-elements.
    host("elements.cuckoo_lookup_ns", "ns"),
    host("elements.lpm_lookup_ns", "ns"),
    // pm-traffic.
    host("traffic.synth_campus_ns_per_frame", "ns"),
    host("traffic.synth_workload_ns_per_frame", "ns"),
    // pm-telemetry / pm-sim.
    host("telemetry.histogram_record_ns", "ns"),
    host("telemetry.json_pretty_ns_per_kib", "ns"),
    host("telemetry.chrome_trace_ns_per_event", "ns"),
    host("sim.fault_decide_ns", "ns"),
];

/// One measured value and the observations behind it.
#[derive(Debug, Clone)]
pub struct Sample {
    pub name: &'static str,
    pub value: f64,
    /// Observations `value` summarises.
    pub n: usize,
    /// The per-repetition values when `value` is their median; empty
    /// when `value` is one total over `n` operations.
    pub samples: Vec<f64>,
}

impl Sample {
    /// The median of per-repetition `samples`.
    pub fn median_of(name: &'static str, samples: Vec<f64>) -> Sample {
        Sample {
            name,
            value: crate::stats::median(&samples),
            n: samples.len(),
            samples,
        }
    }

    /// One value aggregated over `n` observations.
    pub fn over(name: &'static str, value: f64, n: usize) -> Sample {
        Sample {
            name,
            value,
            n,
            samples: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_units_and_bounds_are_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name), "bad metric name {:?}", m.name);
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {:?}",
                m.unit
            );
            assert!(m.better == "higher" || m.better == "lower");
        }
        for m in &END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}: bound {b}", m.name);
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        for w in &crate::workloads::WORKLOADS {
            assert!(name_ok(w.name), "bad workload name {:?}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "name {} used twice", w.name);
        }
    }

    /// `BENCHMARK.json` must say what this catalogue and the workload
    /// table say, with exactly the contract's keys.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        use packetmill::Json;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let Json::Obj(doc) = Json::parse(&text).expect("valid JSON") else {
            panic!("BENCHMARK.json is an object");
        };
        let keys: Vec<&str> = doc.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let doc = Json::Obj(doc);
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            _ => panic!("`{key}` is an array"),
        };
        let text = |j: &Json, key: &str| match j.get(key) {
            Some(Json::Str(s)) => s.clone(),
            _ => panic!("`{key}` is a string"),
        };
        assert_eq!(list("paths"), [Json::Str("benchmark".into())]);

        let workloads = list("workloads");
        assert_eq!(workloads.len(), crate::workloads::WORKLOADS.len());
        for (j, w) in workloads.iter().zip(&crate::workloads::WORKLOADS) {
            assert_eq!(
                (text(j, "name").as_str(), text(j, "why").as_str()),
                (w.name, w.why)
            );
        }
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let items = list(key);
            assert_eq!(items.len(), defs.len(), "{key}");
            for (j, d) in items.iter().zip(defs) {
                assert_eq!(text(j, "name"), d.name);
                assert_eq!(text(j, "unit"), d.unit, "{}", d.name);
                assert_eq!(text(j, "better"), d.better, "{}", d.name);
                assert_eq!(j.get("bound").and_then(Json::as_f64), d.bound, "{}", d.name);
            }
        }
    }
}
