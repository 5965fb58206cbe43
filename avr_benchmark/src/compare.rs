//! `--compare`: two sets of runs, metric by metric, against the direction
//! and bound each end-to-end metric has in `BENCHMARK.json`.
//!
//! For every (workload, metric) the row is `regressed` when the second
//! set's median is worse than the first's by more than the bound,
//! `unresolved` when either set's interquartile range is wider than the
//! bound (the sets cannot tell that difference apart), and `ok` otherwise.
//! A larger failure share in the second set is a regression too, and so is
//! a workload or metric of the first set that the second set lacks.

use std::collections::BTreeMap;
use std::process::ExitCode;

use avr_server::Json;

use crate::stats::{median, quartiles};

/// One end-to-end metric's direction and bound.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// The `end_to_end` entries of a `BENCHMARK.json`.
pub fn parse_spec(text: &str) -> Result<Vec<MetricSpec>, String> {
    let doc = Json::parse(text)?;
    let entries = doc.get("end_to_end").and_then(Json::as_arr).ok_or("no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let better = e.get("better").and_then(Json::as_str).ok_or("metric without better")?;
            let bound = e.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            Ok(MetricSpec { name: name.to_string(), lower_is_better: better == "lower", bound })
        })
        .collect()
}

/// One workload's result from one report file.
#[derive(Clone, Debug)]
pub struct RunResult {
    pub workload: String,
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → (value, within-run q1, within-run q3).
    pub metrics: BTreeMap<String, (f64, f64, f64)>,
}

/// Read a report: one workload's report object, or the all-workload
/// report (`{"workloads": [...]}`).
pub fn parse_report(text: &str) -> Result<Vec<RunResult>, String> {
    let doc = Json::parse(text.trim())?;
    let one = |r: &Json| -> Result<RunResult, String> {
        let workload = r.get("workload").and_then(Json::as_str).ok_or("report without workload")?;
        let count = |k: &str| r.get(k).and_then(Json::as_u64).ok_or(format!("report without {k}"));
        let mut metrics = BTreeMap::new();
        if let Some(Json::Obj(fields)) = r.get("metrics") {
            for (name, m) in fields {
                let num = |k: &str| m.get(k).and_then(Json::as_f64);
                let Some(value) = num("value") else { continue };
                metrics.insert(
                    name.clone(),
                    (value, num("q1").unwrap_or(value), num("q3").unwrap_or(value)),
                );
            }
        }
        Ok(RunResult {
            workload: workload.to_string(),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    };
    match doc.get("workloads").and_then(Json::as_arr) {
        Some(list) => list.iter().map(one).collect(),
        None => Ok(vec![one(&doc)?]),
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Status {
    Ok,
    Regressed,
    Unresolved,
}

impl Status {
    fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Regressed => "regressed",
            Status::Unresolved => "unresolved",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub before: f64,
    pub after: f64,
    /// Signed worsening as a share of `before` (positive = worse).
    pub worse_by: f64,
    pub bound: f64,
    pub status: Status,
}

/// Median and relative interquartile range of one metric over a set of
/// runs; a single run falls back to its own within-run quartiles.
fn spread(runs: &[&RunResult], metric: &str) -> Option<(f64, f64)> {
    let vals: Vec<(f64, f64, f64)> =
        runs.iter().filter_map(|r| r.metrics.get(metric)).copied().collect();
    let (med, q1, q3) = match vals.as_slice() {
        [] => return None,
        [(v, q1, q3)] => (*v, *q1, *q3),
        _ => {
            let values: Vec<f64> = vals.iter().map(|v| v.0).collect();
            let (q1, q3) = quartiles(&values);
            (median(&values), q1, q3)
        }
    };
    Some((med, (q3 - q1).abs() / med.abs().max(f64::MIN_POSITIVE)))
}

/// Compare `after` against `before` for every workload of `before`. A
/// workload or metric that `before` has and `after` lacks is a regression:
/// a child that died reports no metrics, and its workload must not pass.
pub fn compare(spec: &[MetricSpec], before: &[RunResult], after: &[RunResult]) -> Vec<Row> {
    let mut workloads: Vec<&str> = Vec::new();
    for r in before {
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    let mut rows = Vec::new();
    for w in workloads {
        let a: Vec<&RunResult> = before.iter().filter(|r| r.workload == w).collect();
        let b: Vec<&RunResult> = after.iter().filter(|r| r.workload == w).collect();
        for m in spec {
            let Some((ma, sa)) = spread(&a, &m.name) else { continue };
            let Some((mb, sb)) = spread(&b, &m.name) else {
                rows.push(Row {
                    workload: w.to_string(),
                    metric: m.name.clone(),
                    before: ma,
                    after: f64::NAN,
                    worse_by: f64::INFINITY,
                    bound: m.bound,
                    status: Status::Regressed,
                });
                continue;
            };
            let delta = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
            let worse_by = if m.lower_is_better { delta } else { -delta };
            let status = if sa > m.bound || sb > m.bound {
                Status::Unresolved
            } else if worse_by > m.bound {
                Status::Regressed
            } else {
                Status::Ok
            };
            rows.push(Row {
                workload: w.to_string(),
                metric: m.name.clone(),
                before: ma,
                after: mb,
                worse_by,
                bound: m.bound,
                status,
            });
        }
        // No report at all: as if the child had died.
        let frac = |runs: &[&RunResult]| {
            let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
            let failed: u64 = runs.iter().map(|r| r.failed).sum();
            if runs.is_empty() {
                1.0
            } else {
                failed as f64 / attempted.max(1) as f64
            }
        };
        let (fa, fb) = (frac(&a), frac(&b));
        rows.push(Row {
            workload: w.to_string(),
            metric: "failed_frac".to_string(),
            before: fa,
            after: fb,
            worse_by: fb - fa,
            bound: 0.0,
            status: if fb > fa { Status::Regressed } else { Status::Ok },
        });
    }
    rows
}

/// The `--compare` command: print one row per (workload, metric) and fail
/// on any regression.
pub fn run(spec_path: &str, before: &[String], after: &[String]) -> ExitCode {
    let load = |paths: &[String]| -> Result<Vec<RunResult>, String> {
        let mut all = Vec::new();
        for p in paths {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
            all.extend(parse_report(&text).map_err(|e| format!("{p}: {e}"))?);
        }
        Ok(all)
    };
    let spec = std::fs::read_to_string(spec_path)
        .map_err(|e| format!("{spec_path}: {e}"))
        .and_then(|t| parse_spec(&t));
    let (spec, a, b) = match (spec, load(before), load(after)) {
        (Ok(s), Ok(a), Ok(b)) => (s, a, b),
        (s, a, b) => {
            for e in [s.err(), a.err(), b.err()].into_iter().flatten() {
                eprintln!("error: {e}");
            }
            return ExitCode::from(2);
        }
    };
    let rows = compare(&spec, &a, &b);
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>7}  status",
        "workload", "metric", "before", "after", "worse", "bound"
    );
    for r in &rows {
        println!(
            "{:<14} {:<18} {:>14.6} {:>14.6} {:>8.2}% {:>6.1}%  {}",
            r.workload,
            r.metric,
            r.before,
            r.after,
            100.0 * r.worse_by,
            100.0 * r.bound,
            r.status.label()
        );
    }
    if rows.is_empty() {
        eprintln!("error: the first set holds no workload");
        return ExitCode::from(2);
    }
    if rows.iter().any(|r| r.status == Status::Regressed) {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(w: &str, value: f64, failed: u64) -> RunResult {
        let mut metrics = BTreeMap::new();
        metrics.insert("sim_blocks_per_s".to_string(), (value, value, value));
        RunResult { workload: w.to_string(), attempted: 10, failed, metrics }
    }

    fn spec() -> Vec<MetricSpec> {
        vec![MetricSpec { name: "sim_blocks_per_s".into(), lower_is_better: false, bound: 0.1 }]
    }

    fn status(before: &[RunResult], after: &[RunResult]) -> Vec<Status> {
        compare(&spec(), before, after).iter().map(|r| r.status).collect()
    }

    #[test]
    fn applies_direction_bound_and_spread() {
        let base = [run("w", 100.0, 0), run("w", 101.0, 0), run("w", 99.0, 0)];
        let same = [run("w", 100.5, 0), run("w", 99.5, 0), run("w", 100.0, 0)];
        assert_eq!(status(&base, &same), [Status::Ok, Status::Ok]);
        let slower = [run("w", 80.0, 0), run("w", 81.0, 0), run("w", 79.0, 0)];
        assert_eq!(status(&base, &slower), [Status::Regressed, Status::Ok]);
        let faster = [run("w", 150.0, 0), run("w", 151.0, 0), run("w", 149.0, 0)];
        assert_eq!(status(&base, &faster), [Status::Ok, Status::Ok]);
        let noisy = [run("w", 50.0, 0), run("w", 100.0, 0), run("w", 150.0, 0)];
        assert_eq!(status(&base, &noisy), [Status::Unresolved, Status::Ok]);
        let failing = [run("w", 100.0, 1)];
        assert_eq!(status(&base, &failing), [Status::Ok, Status::Regressed]);
    }

    /// A workload whose child died (all cells failed, no metrics) and a
    /// workload missing from the second set both count as regressed.
    #[test]
    fn a_dead_or_missing_workload_regresses() {
        let base = [run("w", 100.0, 0), run("v", 100.0, 0)];
        let dead = RunResult {
            workload: "w".to_string(),
            attempted: 6,
            failed: 6,
            metrics: BTreeMap::new(),
        };
        let rows = compare(&spec(), &base, &[dead, run("v", 100.0, 0)]);
        let of = |w: &str| -> Vec<Status> {
            rows.iter().filter(|r| r.workload == w).map(|r| r.status).collect()
        };
        assert_eq!(of("w"), [Status::Regressed, Status::Regressed]);
        assert_eq!(of("v"), [Status::Ok, Status::Ok]);

        let rows = compare(&spec(), &base, &[run("v", 100.0, 0)]);
        let missing: Vec<_> = rows.iter().filter(|r| r.workload == "w").collect();
        assert_eq!(missing.len(), 2);
        assert!(missing.iter().all(|r| r.status == Status::Regressed));
        assert_eq!(missing[1].after, 1.0, "a missing workload failed every cell");
    }

    #[test]
    fn reads_the_committed_benchmark_file() {
        let spec = parse_spec(include_str!("../../BENCHMARK.json")).unwrap();
        let names: Vec<&str> = spec.iter().map(|m| m.name.as_str()).collect();
        let expected: Vec<&str> = crate::report::END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn reads_single_and_combined_reports() {
        let one = r#"{"workload":"w","attempted":3,"failed":0,
            "metrics":{"setup_s":{"value":1.5,"unit":"s","q1":1.0,"q3":2.0,"n":5}}}"#;
        let runs = parse_report(one).unwrap();
        assert_eq!(runs[0].metrics["setup_s"], (1.5, 1.0, 2.0));
        let all = format!("{{\"workloads\":[{one},{one}]}}");
        assert_eq!(parse_report(&all).unwrap().len(), 2);
    }
}
