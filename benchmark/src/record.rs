//! The result of one benchmark process, its printed forms, and the
//! results file `--out` appends it to.

use crate::metrics::{MetricDef, Sample};
use crate::stats::quartiles;
use packetmill::Json;
use std::path::Path;

pub const SCHEMA: &str = "pm-benchmark-results/v1";

/// One workload measured by one process.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failures: Vec<String>,
    /// FNV-1a of the artifact (untraced pass only).
    pub sim_digest: Option<u64>,
    pub metrics: Vec<Sample>,
}

fn unit_of(defs: &[MetricDef], name: &str) -> &'static str {
    defs.iter().find(|d| d.name == name).map_or("?", |d| d.unit)
}

impl RunRecord {
    pub fn correct(&self) -> bool {
        self.failures.is_empty() && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn failed(&self) -> u64 {
        (self.failures.len() as u64).min(self.attempted)
    }

    /// The table a person reads: every metric by name with unit,
    /// direction, bound and sample count (quartiles where the value is a
    /// median of repetitions).
    pub fn table(&self, defs: &[MetricDef]) -> String {
        let mut out = format!(
            "workload {} seed {:#x} ({})\n{:<40} {:>16} {:<6} {:<7} {:>6} {:>7}  {:<5} {}\n",
            self.workload,
            self.seed,
            if self.traced {
                "traced pass: per-layer metrics"
            } else {
                "tracing off: end-to-end metrics"
            },
            "metric",
            "value",
            "unit",
            "better",
            "bound",
            "n",
            "time",
            "q1..q3 of the n samples"
        );
        for s in &self.metrics {
            let def = defs.iter().find(|d| d.name == s.name);
            let q =
                quartiles(&s.samples).map_or(String::new(), |(q1, q3)| format!("{q1:.6}..{q3:.6}"));
            out.push_str(&format!(
                "{:<40} {:>16.6} {:<6} {:<7} {:>6} {:>7}  {:<5} {q}\n",
                s.name,
                s.value,
                def.map_or("?", |d| d.unit),
                def.map_or("?", |d| d.better),
                def.and_then(|d| d.bound)
                    .map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                s.n,
                if def.is_some_and(|d| d.sim) {
                    "sim"
                } else {
                    "host"
                },
            ));
        }
        if let Some(d) = self.sim_digest {
            out.push_str(&format!("sim_digest {d:016x}\n"));
        }
        out.push_str(&format!(
            "attempted {} failed {}\n",
            self.attempted,
            self.failed()
        ));
        for f in &self.failures {
            out.push_str(&format!("FAILED: {f}\n"));
        }
        out
    }

    /// `{name: {value, unit}}`, plus sample count and samples when
    /// `full`.
    fn metrics_json(&self, defs: &[MetricDef], full: bool) -> Json {
        let entry = |s: &Sample| {
            let mut fields = vec![
                ("value", Json::F64(s.value)),
                ("unit", Json::Str(unit_of(defs, s.name).to_string())),
            ];
            if full {
                fields.push(("n", Json::U64(s.n as u64)));
                let samples = s.samples.iter().map(|&v| Json::F64(v)).collect();
                fields.push(("samples", Json::Arr(samples)));
            }
            (s.name.to_string(), Json::obj(fields))
        };
        Json::Obj(self.metrics.iter().map(entry).collect())
    }

    /// The one-line result the driver reads: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        Json::obj(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted.max(1))),
            ("failed", Json::U64(self.failed())),
            ("metrics", self.metrics_json(defs, false)),
        ])
        .to_compact()
    }

    /// The entry appended to a results file.
    pub fn to_json(&self, defs: &[MetricDef]) -> Json {
        Json::obj(vec![
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::U64(self.seed)),
            ("traced", Json::Bool(self.traced)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed())),
            (
                "sim_digest",
                self.sim_digest
                    .map_or(Json::Null, |d| Json::Str(format!("{d:016x}"))),
            ),
            ("metrics", self.metrics_json(defs, true)),
        ])
    }
}

/// The machine the numbers were taken on — recorded next to, never
/// inside, the metric values.
fn reference_box() -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    Json::obj(vec![
        (
            "available_parallelism",
            Json::U64(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("cpu", Json::Str(cpu)),
    ])
}

/// Appends `entry` to the results file at `path`, creating it (with the
/// reference box and a null claim) if it does not exist.
pub fn append(path: &Path, entry: Json) -> Result<(), String> {
    let mut runs = match std::fs::read_to_string(path) {
        Ok(text) => match Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))? {
            Json::Obj(members) => members,
            _ => return Err(format!("{}: not a results file", path.display())),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => vec![
            ("schema".to_string(), Json::Str(SCHEMA.to_string())),
            ("reference_box".to_string(), reference_box()),
            ("runs".to_string(), Json::Arr(Vec::new())),
            // A results file records measurements; it claims no gain.
            ("claim".to_string(), Json::Null),
        ],
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    match runs.iter_mut().find(|(k, _)| k == "runs") {
        Some((_, Json::Arr(list))) => list.push(entry),
        _ => return Err(format!("{}: no `runs` array", path.display())),
    }
    std::fs::write(path, Json::Obj(runs).to_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::END_TO_END;

    fn record() -> RunRecord {
        RunRecord {
            workload: "paper_grid".into(),
            seed: 0xCAFE,
            traced: false,
            attempted: 110,
            failures: Vec::new(),
            sim_digest: Some(0xdead_beef),
            metrics: vec![
                Sample::median_of(
                    "sim_pkts_per_host_s",
                    vec![400_000.5, 390_000.25, 410_000.0],
                ),
                Sample::over("peak_rss_mib", 72.5, 1),
            ],
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_round_trips() {
        let line = record().result_line(&END_TO_END);
        assert!(!line.contains('\n'));
        let Json::Obj(members) = Json::parse(&line).expect("valid JSON") else {
            panic!("result is an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let doc = Json::Obj(members);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let m = doc
            .get("metrics")
            .unwrap()
            .get("sim_pkts_per_host_s")
            .unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(400_000.5));
        assert_eq!(m.get("unit"), Some(&Json::Str("1/s".into())));
    }

    #[test]
    fn non_finite_value_or_failure_is_incorrect() {
        let mut r = record();
        r.metrics[1].value = f64::NAN;
        assert!(!r.correct());
        let mut r = record();
        r.failures.push("router: panicked".into());
        assert!(!r.correct());
        assert!(r.result_line(&END_TO_END).contains("\"failed\":1"));
    }

    #[test]
    fn results_file_appends_and_round_trips() {
        // Inside the crate's own ignored `out/`, not a system temp dir.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("results.json");
        let _ = std::fs::remove_file(&path);
        append(&path, record().to_json(&END_TO_END)).unwrap();
        append(&path, record().to_json(&END_TO_END)).unwrap();
        let doc = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(doc.get("schema"), Some(&Json::Str(SCHEMA.into())));
        assert_eq!(doc.get("claim"), Some(&Json::Null));
        assert!(doc.get("reference_box").unwrap().get("cpu").is_some());
        let Some(Json::Arr(runs)) = doc.get("runs") else {
            panic!("runs array");
        };
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[1], record().to_json(&END_TO_END));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
