//! Committed `metrics_digest` pins for every cell at the default seed, and
//! the per-cell output checks every run applies.

use avr_sim::RunMetrics;
use avr_types::CellSpec;
use avr_workloads::metrics_digest;

use crate::measure::run_cell;
use crate::plan::{cell_label, Resolved, WorkloadKind};

/// `pins.txt`: one `<workload> <cell label> 0x<digest>` line per cell,
/// captured by `--print-pins`.
const PINS: &str = include_str!("../pins.txt");

fn key(kind: WorkloadKind, spec: &CellSpec) -> String {
    format!("{} {}", kind.name(), cell_label(spec))
}

/// The pinned digest of `spec` in `kind`, if one is committed.
pub fn pin(kind: WorkloadKind, spec: &CellSpec) -> Option<u64> {
    let key = key(kind, spec);
    PINS.lines().filter(|l| !l.starts_with('#')).find_map(|line| {
        let (k, hex) = line.rsplit_once(' ')?;
        (k == key).then(|| u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok())?
    })
}

/// Render the pins file for every cell of every workload. Slow (it runs
/// every cell once); used to regenerate `pins.txt` after an intended change
/// to simulated results.
pub fn render_pins() -> String {
    let mut out = String::from(
        "# metrics_digest of every benchmark cell.\n\
         # Regenerate with `avr_benchmark --print-pins > avr_benchmark/pins.txt`.\n",
    );
    for kind in WorkloadKind::ALL {
        for spec in kind.cells() {
            let r = Resolved::new(spec);
            let m = run_cell(&r).result.unwrap_or_else(|p| panic!("{}: {p}", cell_label(&r.spec)));
            out.push_str(&format!("{} 0x{:016x}\n", key(kind, &r.spec), metrics_digest(&m)));
        }
    }
    out
}

/// How many failure reasons a report keeps (the count is always exact).
const MAX_REASONS: usize = 20;

/// The output checks: a cell fails when it panicked, when its output error
/// is not finite, when its digest differs between passes, or when it
/// differs from the committed pin.
pub struct Checker {
    kind: WorkloadKind,
    first: Vec<Option<u64>>,
    /// Cell executions checked (each pass of each cell counts once).
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Checker {
    pub fn new(kind: WorkloadKind, cells: usize) -> Checker {
        Checker { kind, first: vec![None; cells], attempted: 0, failed: 0, reasons: Vec::new() }
    }

    /// Record one failure with its reason.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.reasons.len() < MAX_REASONS {
            self.reasons.push(reason);
        }
    }

    /// Check cell `i`'s outcome; returns whether it passed.
    pub fn check(
        &mut self,
        i: usize,
        spec: &CellSpec,
        outcome: &Result<RunMetrics, String>,
    ) -> bool {
        self.attempted += 1;
        let label = cell_label(spec);
        let m = match outcome {
            Ok(m) => m,
            Err(panic) => {
                self.fail(format!("{label}: panicked: {panic}"));
                return false;
            }
        };
        if !m.output_error.is_finite() {
            self.fail(format!("{label}: output error {}", m.output_error));
            return false;
        }
        let digest = metrics_digest(m);
        if *self.first[i].get_or_insert(digest) != digest {
            self.fail(format!("{label}: digest 0x{digest:016x} changed between passes"));
            return false;
        }
        match pin(self.kind, spec) {
            Some(p) if p == digest => true,
            Some(p) => {
                self.fail(format!("{label}: digest 0x{digest:016x} != pinned 0x{p:016x}"));
                false
            }
            None => {
                self.fail(format!("{label}: no committed pin"));
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed_vm::TimedVm;
    use avr_core::{BackendKind, DesignKind, LayoutKind, System, SystemConfig};
    use avr_workloads::{all_benchmarks, golden_run, mean_relative_error, BenchScale};

    /// `("heat", DesignKind::Baseline, 0x…)` rows of the workspace's
    /// design-digest test — the pins the server workload must agree with.
    fn design_test_pins() -> Vec<(String, DesignKind, u64)> {
        include_str!("../../tests/designs.rs")
            .lines()
            .filter_map(|line| {
                let row = line.trim().strip_prefix("(\"")?.strip_suffix("),")?;
                let mut parts = row.split(", ");
                let program = parts.next()?.trim_end_matches('"').to_string();
                let design = parts.next()?.strip_prefix("DesignKind::")?;
                let design = DesignKind::ALL.into_iter().find(|d| format!("{d:?}") == design)?;
                let hex = parts.next()?.trim_start_matches("0x");
                Some((program, design, u64::from_str_radix(hex, 16).ok()?))
            })
            .collect()
    }

    /// Wrapped and unwrapped `System` runs agree on every output bit and on
    /// the digest, for every tiny program × design, and those digests are
    /// the workspace's design pins.
    #[test]
    fn timed_vm_is_transparent_on_every_tiny_cell() {
        let pins = design_test_pins();
        assert_eq!(pins.len(), 70, "expected 10 programs x 7 designs");
        let cfg = SystemConfig::tiny().with_backend(BackendKind::Exact);
        for w in all_benchmarks(BenchScale::Tiny) {
            let golden = golden_run(w.as_ref());
            for design in DesignKind::ALL {
                let run = |wrap: bool| {
                    let mut sys = System::new(cfg.clone(), design);
                    let out = if wrap {
                        let mut timed = TimedVm::new(&mut sys);
                        let out = w.run_in(&mut timed, LayoutKind::Soa);
                        assert!(timed.stats.calls() > 0, "the wrapper saw no calls");
                        out
                    } else {
                        w.run_in(&mut sys, LayoutKind::Soa)
                    };
                    let mut m = sys.finish(w.name());
                    m.output_error = mean_relative_error(&golden, &out);
                    (out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), metrics_digest(&m))
                };
                let (plain_out, plain_digest) = run(false);
                let (timed_out, timed_digest) = run(true);
                let tag = format!("{} {design:?}", w.name());
                assert_eq!(plain_out, timed_out, "{tag}: outputs differ under the wrapper");
                assert_eq!(plain_digest, timed_digest, "{tag}: digest differs under the wrapper");
                let pin = pins
                    .iter()
                    .find(|(p, d, _)| p == w.name() && *d == design)
                    .unwrap_or_else(|| panic!("{tag}: no design pin"))
                    .2;
                assert_eq!(timed_digest, pin, "{tag}: digest != tests/designs.rs pin");
            }
        }
    }

    /// The server workload's committed pins are exactly the design pins.
    #[test]
    fn server_pins_are_the_design_pins() {
        let pins = design_test_pins();
        let cells = WorkloadKind::ServerMixed.cells();
        assert_eq!(cells.len(), pins.len());
        for c in &cells {
            let want = pins.iter().find(|(p, d, _)| *p == c.workload && *d == c.design).unwrap().2;
            assert_eq!(pin(WorkloadKind::ServerMixed, c), Some(want), "{}", cell_label(c));
        }
    }

    /// Every cell of every workload has a pin, and one fresh run per
    /// workload reproduces its pin.
    #[test]
    fn pins_cover_every_cell_and_match_fresh_runs() {
        for kind in WorkloadKind::ALL {
            let cells = kind.cells();
            for c in &cells {
                assert!(pin(kind, c).is_some(), "{} {}: no pin", kind.name(), cell_label(c));
            }
            let cheapest = match kind {
                WorkloadKind::DedupMemo => "lattice",
                _ => "bscholes",
            };
            let c = cells.into_iter().find(|c| c.workload == cheapest).unwrap();
            let r = Resolved::new(c);
            let mut checker = Checker::new(kind, 1);
            let ok = checker.check(0, &r.spec, &run_cell(&r).result);
            assert!(ok, "{}: {:?}", kind.name(), checker.reasons);
        }
    }

    #[test]
    fn checker_flags_panics_drift_and_pin_mismatches() {
        let kind = WorkloadKind::ServerMixed;
        let spec = kind.cells().remove(0);
        let mut checker = Checker::new(kind, 1);
        assert!(!checker.check(0, &spec, &Err("boom".into())));
        let m = RunMetrics { output_error: f64::NAN, ..Default::default() };
        assert!(!checker.check(0, &spec, &Ok(m)));
        let m = RunMetrics::default();
        assert!(!checker.check(0, &spec, &Ok(m)), "an all-zero run cannot match its pin");
        assert_eq!(checker.failed, 3);
    }
}
