//! `compare A.json B.json`: one row per workload × end-to-end metric,
//! A being the base (parent) and B the change.
//!
//! Values are per process (one per appended run), as in a ten-pair
//! alternating A/B. A difference beyond the bound is only called when
//! the runs resolve it: the wider of the two interquartile spreads is
//! within the bound, or every run of one side beats every run of the
//! other. Otherwise the row is `unresolved`, never `within`.

use crate::metrics::{MetricDef, END_TO_END};
use crate::stats::{median, quartiles, spread};
use crate::workloads::WORKLOADS;
use packetmill::Json;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on per-run values `a` (base) and `b` (change) of `def`.
pub fn verdict(def: &MetricDef, a: &[f64], b: &[f64]) -> Verdict {
    let bound = def.bound.expect("end-to-end metric");
    // Change in the bad direction, as a share of the base median.
    let sign = if def.better == "lower" { 1.0 } else { -1.0 };
    let worse_by = sign * (median(b) - median(a)) / median(a).abs();
    let beats = |x: &[f64], y: &[f64]| {
        // Every run of x reads better than every run of y.
        x.iter()
            .all(|&xv| y.iter().all(|&yv| sign * (yv - xv) > 0.0))
    };
    if a.len() < 2 || b.len() < 2 {
        // One run a side cannot show a spread; a difference inside the
        // bound is all it can vouch for.
        return if worse_by.abs() <= bound {
            Verdict::Within
        } else {
            Verdict::Unresolved
        };
    }
    if spread(a).max(spread(b)) > bound && !beats(a, b) && !beats(b, a) {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

/// The untraced runs of a results file, as parsed JSON entries.
fn load(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    if doc.get("schema") != Some(&Json::Str(crate::record::SCHEMA.to_string())) {
        return Err(format!(
            "{}: not a {} file",
            path.display(),
            crate::record::SCHEMA
        ));
    }
    match doc.get("runs") {
        Some(Json::Arr(runs)) => Ok(runs
            .iter()
            .filter(|r| r.get("traced") == Some(&Json::Bool(false)))
            .cloned()
            .collect()),
        _ => Err(format!("{}: no `runs` array", path.display())),
    }
}

fn of_workload<'a>(runs: &'a [Json], workload: &str) -> Vec<&'a Json> {
    runs.iter()
        .filter(|r| r.get("workload") == Some(&Json::Str(workload.to_string())))
        .collect()
}

fn values(runs: &[&Json], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn count(runs: &[&Json], key: &str) -> f64 {
    runs.iter()
        .filter_map(|r| r.get(key)?.as_f64())
        .sum::<f64>()
}

fn summary(v: &[f64]) -> String {
    match quartiles(v) {
        Some((q1, q3)) => format!("{:.6} [{q1:.6}..{q3:.6}] n={}", median(v), v.len()),
        None => format!("{:.6} n={}", median(v), v.len()),
    }
}

/// Prints the comparison; `Ok(true)` when nothing is worse and B's
/// failed-run share is no higher than A's.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a_runs, b_runs) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    println!(
        "A (base) = {}   B (change) = {}\nratio = median B / median A; bound = share of A's median the metric may worsen by",
        a_path.display(),
        b_path.display()
    );
    for w in &WORKLOADS {
        let (a, b) = (of_workload(&a_runs, w.name), of_workload(&b_runs, w.name));
        if a.is_empty() || b.is_empty() {
            println!(
                "\n{}: no runs on {} side",
                w.name,
                if a.is_empty() { "A" } else { "B" }
            );
            continue;
        }
        println!("\n{}", w.name);
        for def in &END_TO_END {
            let (av, bv) = (values(&a, def.name), values(&b, def.name));
            if av.is_empty() || bv.is_empty() {
                println!("  {:<26} missing", def.name);
                continue;
            }
            let v = verdict(def, &av, &bv);
            ok &= v != Verdict::Worse;
            println!(
                "  {:<26} {:<6} A {}  B {}  ratio {:.4} (base {:.6})  bound {:.0}% ({} is better)  {}",
                def.name,
                def.unit,
                summary(&av),
                summary(&bv),
                median(&bv) / median(&av),
                median(&av),
                def.bound.unwrap_or(0.0) * 100.0,
                def.better,
                v.as_str()
            );
        }
        let share = |r: &[&Json]| count(r, "failed") / count(r, "attempted").max(1.0);
        let (fa, fb) = (share(&a), share(&b));
        if fb > fa {
            ok = false;
        }
        println!(
            "  failed-run share           A {fa:.4}  B {fb:.4}  {}",
            if fb > fa { "worse" } else { "ok" }
        );
        // Simulated results: equal digests for a seed mean the two
        // commits' artifacts are byte-identical on it.
        let digest = |r: &Json| Some((r.get("seed")?.as_f64()?, r.get("sim_digest")?.clone()));
        let (mut same, mut differ) = (0, 0);
        for (seed, da) in a.iter().filter_map(|r| digest(r)) {
            for (_, db) in b
                .iter()
                .filter_map(|r| digest(r))
                .filter(|(s, _)| *s == seed)
            {
                if da == db {
                    same += 1;
                } else {
                    differ += 1;
                }
            }
        }
        println!("  sim_digest                 {same} same-seed pairs identical, {differ} differ");
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    const fn def(better: &'static str, bound: f64) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "u",
            better,
            bound: Some(bound),
            sim: false,
        }
    }
    const RATE: &MetricDef = &def("higher", 0.05);
    const SETUP: &MetricDef = &def("lower", 0.25);

    #[test]
    fn resolved_differences_are_called() {
        let a = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(
            verdict(RATE, &a, &[110.0, 111.0, 109.0, 110.5]),
            Verdict::Better
        );
        assert_eq!(verdict(RATE, &a, &[90.0, 91.0, 89.0, 90.5]), Verdict::Worse);
        assert_eq!(
            verdict(RATE, &a, &[98.0, 99.0, 97.5, 98.5]),
            Verdict::Within
        );
        // Lower-is-better: a 30 % rise is worse, a 30 % drop better.
        assert_eq!(
            verdict(SETUP, &a, &[130.0, 131.0, 129.0, 130.5]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(SETUP, &a, &[70.0, 71.0, 69.0, 70.5]),
            Verdict::Better
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_runs_separate() {
        // IQR/median ≈ 30 % > 5 %: medians 8 % apart cannot be called.
        let noisy_a = [80.0, 100.0, 120.0, 90.0, 110.0];
        let noisy_b = [88.0, 108.0, 128.0, 98.0, 118.0];
        assert_eq!(verdict(RATE, &noisy_a, &noisy_b), Verdict::Unresolved);
        // Even equal medians are not "within" under that spread.
        assert_eq!(verdict(RATE, &noisy_a, &noisy_a), Verdict::Unresolved);
        // Every run of B beats every run of A: better despite the spread.
        let far_b = [200.0, 260.0, 230.0, 215.0, 245.0];
        assert_eq!(verdict(RATE, &noisy_a, &far_b), Verdict::Better);
        assert_eq!(verdict(RATE, &far_b, &noisy_a), Verdict::Worse);
    }

    #[test]
    fn one_run_a_side_only_vouches_for_within() {
        assert_eq!(verdict(RATE, &[100.0], &[102.0]), Verdict::Within);
        assert_eq!(verdict(RATE, &[100.0], &[80.0]), Verdict::Unresolved);
        assert_eq!(verdict(RATE, &[100.0], &[130.0]), Verdict::Unresolved);
    }
}
