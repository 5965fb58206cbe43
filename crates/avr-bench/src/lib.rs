//! Benchmark-harness support: the (benchmark × design) sweep that every
//! table and figure is derived from, plus the text renderers that print
//! them in the paper's format.
//!
//! Scales:
//! * `tiny`  — smoke scale, the default for `cargo bench` (so the whole
//!   workspace bench suite stays minutes, not hours);
//! * `bench` — the evaluation scale with paper-like footprint:LLC
//!   ratios; select with `AVR_SCALE=bench`.

use avr_core::{DesignKind, SimPool, SystemConfig};
use avr_sim::stats::geomean;
use avr_sim::RunMetrics;
use avr_workloads::{run_suite_on_pool, BenchScale};
use std::collections::HashMap;

pub mod codec_kernels;
pub mod render;

pub use render::*;

/// Benchmark names in figure order: the paper's seven, then the two
/// extension workloads. `particles` (the layout axis's mixed-criticality
/// workload) rides every sweep but stays out of the paper-format figures,
/// which reproduce the published nine-column layout.
pub const BENCH_ORDER: [&str; 9] =
    ["heat", "lattice", "lbm", "orbit", "kmeans", "bscholes", "wrf", "sobel", "fft"];

/// Resolve the scale from `AVR_SCALE` (tiny | bench).
pub fn scale_from_env() -> BenchScale {
    match std::env::var("AVR_SCALE").as_deref() {
        Ok("bench") => BenchScale::Bench,
        _ => BenchScale::Tiny,
    }
}

/// Human label for a scale.
pub fn scale_label(scale: BenchScale) -> &'static str {
    match scale {
        BenchScale::Tiny => "tiny",
        BenchScale::Bench => "bench",
    }
}

/// The system configuration used for figure regeneration: one core with
/// its per-core share of the paper's hierarchy (`avr_core::multicore`
/// describes the partitioned-share model). The tiny
/// smoke scale pairs with the proportionally tiny hierarchy so that
/// footprints still exceed the LLC and the AVR machinery activates.
pub fn figure_config_for(scale: BenchScale) -> SystemConfig {
    match scale {
        BenchScale::Tiny => SystemConfig::tiny(),
        BenchScale::Bench => SystemConfig::per_core_scaled(),
    }
}

/// Results of a sweep, keyed by (benchmark, design label).
pub struct Sweep {
    pub runs: HashMap<(String, &'static str), RunMetrics>,
    pub designs: Vec<DesignKind>,
}

impl Sweep {
    /// Run `designs` × the full suite at `scale` on an environment-sized
    /// pool (each run is an independent single-threaded simulation).
    pub fn run(scale: BenchScale, designs: &[DesignKind]) -> Sweep {
        Sweep::run_on(&SimPool::from_env(), scale, designs)
    }

    /// Run the (workload × design) grid on `pool`. Results are
    /// bit-identical for any pool width.
    pub fn run_on(pool: &SimPool, scale: BenchScale, designs: &[DesignKind]) -> Sweep {
        let cfg = figure_config_for(scale);
        let runs = run_suite_on_pool(pool, scale, &cfg, designs)
            .into_iter()
            .map(|c| ((c.workload.to_string(), c.design.label()), c.metrics))
            .collect();
        Sweep { runs, designs: designs.to_vec() }
    }

    pub fn get(&self, bench: &str, design: DesignKind) -> &RunMetrics {
        self.runs
            .get(&(bench.to_string(), design.label()))
            .unwrap_or_else(|| panic!("missing run ({bench}, {})", design.label()))
    }

    pub fn baseline(&self, bench: &str) -> &RunMetrics {
        self.get(bench, DesignKind::Baseline)
    }

    /// Normalized metric per benchmark for one design, plus the geomean —
    /// one figure row.
    pub fn normalized_row(
        &self,
        design: DesignKind,
        metric: impl Fn(&RunMetrics, &RunMetrics) -> f64,
    ) -> (Vec<f64>, f64) {
        let vals: Vec<f64> =
            BENCH_ORDER.iter().map(|b| metric(self.get(b, design), self.baseline(b))).collect();
        let gm = geomean(&vals);
        (vals, gm)
    }
}

/// The four comparison designs the figures plot (baseline is the
/// normalization target).
pub const FIGURE_DESIGNS: [DesignKind; 4] =
    [DesignKind::Doppelganger, DesignKind::Truncate, DesignKind::ZeroAvr, DesignKind::Avr];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_runs_all_cells_at_tiny_scale() {
        let sweep = Sweep::run(BenchScale::Tiny, &[DesignKind::Baseline, DesignKind::Avr]);
        // Ten workloads (BENCH_ORDER's nine + particles) x two designs.
        assert_eq!(sweep.runs.len(), 20);
        for b in BENCH_ORDER {
            let base = sweep.baseline(b);
            assert!(base.cycles > 0, "{b} baseline must have run");
            let avr = sweep.get(b, DesignKind::Avr);
            assert!(avr.cycles > 0);
        }
    }

    #[test]
    fn normalized_rows_have_nine_entries() {
        let sweep = Sweep::run(BenchScale::Tiny, &[DesignKind::Baseline, DesignKind::Avr]);
        let (vals, gm) = sweep.normalized_row(DesignKind::Avr, |m, b| m.exec_time_norm(b));
        assert_eq!(vals.len(), 9);
        assert!(gm > 0.0);
    }
}
