//! Error of the simulated results against the paper's own numbers.
//!
//! Only the Copying router has reference values (Table 1 and the Fig. 4
//! fits, frozen in `paper_reference.json`); every other configuration
//! the benchmark runs is unvalidated and gets no error figure. The
//! error is a property of the simulator commit, not of a workload, so
//! the nine reference runs are repeated — untimed — in every workload's
//! process and the same two numbers are reported beside each workload's
//! host-time metrics.

use crate::workloads::reference_label;
use packetmill::{Json, Measurement};

const REFERENCE: &str = include_str!("../paper_reference.json");

/// One frozen paper value and the run + measurement field it is
/// compared against.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    pub label: String,
    pub quantity: String,
    pub paper: f64,
}

/// Parses a `paper_reference.json` document.
pub fn parse_points(text: &str) -> Result<Vec<Point>, String> {
    let doc = Json::parse(text).map_err(|e| format!("paper reference: {e:?}"))?;
    let Some(Json::Arr(points)) = doc.get("points") else {
        return Err("paper reference: no `points` array".into());
    };
    points
        .iter()
        .map(|p| {
            let field = |k: &str| {
                p.get(k)
                    .ok_or(format!("paper reference: point lacks `{k}`"))
            };
            let num = |k: &str| {
                field(k)?
                    .as_f64()
                    .ok_or(format!("paper reference: `{k}` is not a number"))
            };
            let text = |k: &str| match field(k)? {
                Json::Str(s) => Ok(s.clone()),
                _ => Err(format!("paper reference: `{k}` is not a string")),
            };
            Ok(Point {
                label: reference_label(&text("variant")?, num("freq_ghz")?),
                quantity: text("quantity")?,
                paper: num("paper")?,
            })
        })
        .collect()
}

/// The committed reference points.
pub fn points() -> Vec<Point> {
    parse_points(REFERENCE).expect("committed paper_reference.json is valid")
}

/// Mean relative error against the paper in percent, with the number
/// of points behind it.
pub type MeanError = (f64, usize);

/// `(throughput, ipc)` errors — throughput over the Mpps and Gbps
/// points, IPC over the IPC points. `runs` are `(label, measurement)`
/// pairs that must cover every point's label.
pub fn errors(
    points: &[Point],
    runs: &[(String, Measurement)],
) -> Result<(MeanError, MeanError), String> {
    let mut tput = Vec::new();
    let mut ipc = Vec::new();
    for p in points {
        let m = runs
            .iter()
            .find(|(l, _)| *l == p.label)
            .map(|(_, m)| m)
            .ok_or(format!("no run labelled '{}'", p.label))?;
        let (sim, bucket) = match p.quantity.as_str() {
            "mpps" => (m.mpps, &mut tput),
            "gbps" => (m.throughput_gbps, &mut tput),
            "ipc" => (m.ipc, &mut ipc),
            q => return Err(format!("unknown quantity '{q}'")),
        };
        bucket.push((sim - p.paper).abs() / p.paper * 100.0);
    }
    if tput.is_empty() || ipc.is_empty() {
        return Err("reference needs throughput and IPC points".into());
    }
    let mean = |v: &[f64]| (v.iter().sum::<f64>() / v.len() as f64, v.len());
    Ok((mean(&tput), mean(&ipc)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn measurement(mpps: f64, gbps: f64, ipc: f64) -> Measurement {
        Measurement {
            throughput_gbps: gbps,
            mpps,
            median_latency_us: 0.0,
            p99_latency_us: 0.0,
            mean_latency_us: 0.0,
            ipc,
            llc_loads_per_100ms: 0.0,
            llc_misses_per_100ms: 0.0,
            llc_miss_pct: 0.0,
            rx_dropped: 0,
            nf_dropped: 0,
            tx_dropped: 0,
            tx_packets: 1,
            elapsed_ms: 0.0,
            instr_per_packet: 0.0,
            cycles_per_packet: 0.0,
            uncore_ns_per_packet: 0.0,
        }
    }

    #[test]
    fn errors_match_hand_computed_fixture() {
        let fixture = r#"{"points": [
            {"variant": "vanilla", "freq_ghz": 3.0, "quantity": "mpps", "paper": 10.0},
            {"variant": "all", "freq_ghz": 1.2, "quantity": "gbps", "paper": 40.0},
            {"variant": "vanilla", "freq_ghz": 3.0, "quantity": "ipc", "paper": 2.0}
        ]}"#;
        let points = parse_points(fixture).unwrap();
        let runs = vec![
            // |9 - 10| / 10 = 10 %; |2.5 - 2| / 2 = 25 %.
            (reference_label("vanilla", 3.0), measurement(9.0, 0.0, 2.5)),
            // |50 - 40| / 40 = 25 %.
            (reference_label("all", 1.2), measurement(0.0, 50.0, 0.0)),
        ];
        let ((tput, n_tput), (ipc, n_ipc)) = errors(&points, &runs).unwrap();
        assert!((tput - 17.5).abs() < 1e-12, "mean of 10 % and 25 %: {tput}");
        assert!((ipc - 25.0).abs() < 1e-12, "{ipc}");
        assert_eq!((n_tput, n_ipc), (2, 1));
    }

    #[test]
    fn missing_run_is_an_error() {
        let points = points();
        assert!(errors(&points, &[])
            .unwrap_err()
            .contains("no run labelled"));
    }

    #[test]
    fn committed_reference_is_covered_by_the_reference_runs() {
        let points = points();
        assert_eq!(points.len(), 16, "11 throughput + 5 IPC points");
        let labels: Vec<String> = crate::workloads::reference_runs(1, 64)
            .into_iter()
            .map(|r| r.label)
            .collect();
        for p in &points {
            assert!(labels.contains(&p.label), "{} has no run", p.label);
        }
    }
}
