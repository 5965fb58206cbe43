//! One workload's result: the metric summaries, failure accounting and
//! provenance, rendered as the one-line result, a table and a JSON file.

use std::path::Path;

use avr_server::Json;

use crate::pins::Checker;
use crate::plan::WorkloadKind;
use crate::stats::Summary;

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("sim_blocks_per_s", "blocks/s"),
    ("cell_ms_p50", "ms"),
    ("cell_ms_p99", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_traffic_mb", "MB"),
    ("output_error", "fraction"),
];

pub struct Report {
    pub workload: &'static str,
    /// `run` or `trace`.
    pub mode: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub pool_threads: usize,
    pub cells_per_pass: usize,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
    pub metrics: Vec<(&'static str, &'static str, Summary)>,
    /// Cold golden-run milliseconds per program, from the last set-up.
    pub golden_ms: Vec<(String, f64)>,
    /// Mode-specific detail (the trace's per-cell breakdown).
    pub detail: Vec<(String, Json)>,
}

impl Report {
    pub fn new(
        kind: WorkloadKind,
        mode: &'static str,
        seed: u64,
        seconds: f64,
        cells: usize,
    ) -> Report {
        Report {
            workload: kind.name(),
            mode,
            seed,
            seconds,
            pool_threads: kind.pool_threads(),
            cells_per_pass: cells,
            passes: 0,
            attempted: 0,
            failed: 0,
            reasons: Vec::new(),
            metrics: Vec::new(),
            golden_ms: Vec::new(),
            detail: Vec::new(),
        }
    }

    /// The report of a workload whose child died, ran out of time or
    /// printed no result: every cell of the workload failed.
    pub fn dead(
        kind: WorkloadKind,
        mode: &'static str,
        seed: u64,
        seconds: f64,
        reason: &str,
    ) -> Report {
        let cells = kind.cells().len();
        let mut r = Report::new(kind, mode, seed, seconds, cells);
        r.attempted = cells as u64;
        r.failed = cells as u64;
        r.reasons.push(format!("child: {reason}"));
        r
    }

    pub fn set_failures(&mut self, checker: Checker) {
        self.attempted = checker.attempted;
        self.failed = checker.failed.min(checker.attempted);
        self.reasons = checker.reasons;
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.reasons.is_empty()
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The last line of standard output: `correct`, `attempted`, `failed`
    /// and each metric's value and unit.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, unit, s)| {
                (*name, Json::obj([("value", Json::from(s.value)), ("unit", Json::from(*unit))]))
            })
            .collect::<Vec<_>>();
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
        .render()
    }

    /// The full report: result, per-metric spread and provenance.
    pub fn to_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|(name, unit, s)| {
            (
                *name,
                Json::obj([
                    ("value", Json::from(s.value)),
                    ("unit", Json::from(*unit)),
                    ("median", Json::from(s.median)),
                    ("q1", Json::from(s.q1)),
                    ("q3", Json::from(s.q3)),
                    ("n", Json::from(s.n)),
                ]),
            )
        });
        let golden = self.golden_ms.iter().map(|(k, ms)| (k.as_str(), Json::from(*ms)));
        let mut fields = vec![
            ("workload".to_string(), Json::from(self.workload)),
            ("mode".to_string(), Json::from(self.mode)),
            ("correct".to_string(), Json::from(self.correct())),
            ("attempted".to_string(), Json::from(self.attempted)),
            ("failed".to_string(), Json::from(self.failed)),
            ("failed_frac".to_string(), Json::from(self.failed_frac())),
            (
                "failures".to_string(),
                Json::Arr(self.reasons.iter().map(|r| Json::from(r.as_str())).collect()),
            ),
            ("metrics".to_string(), Json::obj(metrics)),
            ("provenance".to_string(), self.provenance()),
            ("golden_cold_ms".to_string(), Json::obj(golden)),
        ];
        fields.extend(self.detail.iter().cloned());
        Json::Obj(fields)
    }

    fn provenance(&self) -> Json {
        let host = std::thread::available_parallelism().map_or(1, |n| n.get());
        Json::obj([
            ("seed", Json::from(self.seed)),
            ("seconds", Json::from(self.seconds)),
            ("pool_threads", Json::from(self.pool_threads)),
            ("available_parallelism", Json::from(host)),
            ("cells_per_pass", Json::from(self.cells_per_pass)),
            ("passes", Json::from(self.passes)),
            ("git_head", git_head().map_or(Json::Null, Json::from)),
            // The child refuses to start otherwise (see `main`).
            ("avr_env_clean", Json::from(true)),
        ])
    }

    /// Name, unit and value of every metric, with the median, quartiles
    /// and count of the per-pass samples behind it.
    pub fn print_table(&self) {
        eprintln!(
            "{} ({}): seed {}, {} pass(es) x {} cells, attempted {}, failed {} ({:.2} %)",
            self.workload,
            self.mode,
            self.seed,
            self.passes,
            self.cells_per_pass,
            self.attempted,
            self.failed,
            100.0 * self.failed_frac()
        );
        eprintln!(
            "  {:<34} {:<11} {:>14} {:>14} {:>14} {:>14} {:>4}",
            "metric", "unit", "value", "median", "q1", "q3", "n"
        );
        for (name, unit, s) in &self.metrics {
            eprintln!(
                "  {:<34} {:<11} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>4}",
                name, unit, s.value, s.median, s.q1, s.q3, s.n
            );
        }
        for r in &self.reasons {
            eprintln!("  FAILED {r}");
        }
    }
}

/// Peak resident set of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The checked-out commit, when run from a git working tree.
fn git_head() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed.lines().find_map(|l| {
        let (id, name) = l.split_once(' ')?;
        (name == reference).then(|| id.to_string())
    })
}
