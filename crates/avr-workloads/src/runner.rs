//! Workload trait + the measurement harness.
//!
//! A run of (workload × design) produces a [`RunMetrics`]: the timed system
//! executes the workload (approximation feeding back into its data), and
//! the output vector is compared element-wise against a golden run on
//! [`avr_core::ExactVm`] to produce Table 3's mean-relative-error
//! metric.

use crate::golden::{golden_run, GoldenKey};
use avr_core::{DesignKind, LayoutKind, SimPool, System, SystemConfig, Vm};
use avr_sim::RunMetrics;

/// A benchmark program.
pub trait Workload: Sync {
    /// The paper's benchmark name (figure/table row label).
    fn name(&self) -> &'static str;

    /// Execute against a VM under `layout`, one of [`Workload::layouts`],
    /// and return the application output values. The SoA path must
    /// reproduce the historical allocation sequence bit-for-bit so goldens
    /// stay layout-invariant.
    fn run_in(&self, vm: &mut dyn Vm, layout: LayoutKind) -> Vec<f64>;

    /// Execute in SoA, the layout every workload supports (the golden
    /// run's path).
    fn run(&self, vm: &mut dyn Vm) -> Vec<f64> {
        self.run_in(vm, LayoutKind::Soa)
    }

    /// The layouts this workload's schema supports. The grid runner
    /// intersects this with the requested layout axis, so a workload that
    /// only declares SoA simply contributes one row per design, and
    /// [`run_on_design_in`] rejects any layout not listed here.
    fn layouts(&self) -> &'static [LayoutKind] {
        &[LayoutKind::Soa]
    }

    /// Identity of this instance's golden (exact) run, enabling the
    /// process-wide memoization in [`crate::golden`]. Return a key only if
    /// `run` is a **pure function of the keyed fields** — same name, same
    /// parameters, same seed ⇒ bit-identical output. The default (`None`)
    /// opts out: the golden run is recomputed every time, which is always
    /// correct.
    fn golden_key(&self) -> Option<GoldenKey> {
        None
    }

    /// Relative cost estimate for size-aware pool scheduling — arbitrary
    /// units (the nine in-tree workloads report approximate element
    /// touches per run); **only the ordering matters**, and a coarse
    /// estimate is fine: scheduling only degrades toward the unweighted
    /// order if heavy jobs are misranked. The default makes every job
    /// equal, which reduces to index-order claiming.
    fn cost_hint(&self) -> u64 {
        1
    }
}

/// Which problem size to instantiate — defined in `avr-types` (the wire
/// layer names it too), re-exported here where every workload uses it.
pub use avr_types::BenchScale;

/// Mean relative error between a golden output and an approximate output
/// (the paper's quality metric: "the mean of the relative errors for each
/// output value").
pub fn mean_relative_error(golden: &[f64], approx: &[f64]) -> f64 {
    assert_eq!(golden.len(), approx.len(), "output shapes must match");
    assert!(!golden.is_empty(), "workload produced no output");
    // Scale guard: values at or below `tiny` relative to the output's
    // magnitude are compared absolutely against that floor, avoiding
    // division blow-ups on incidental zeros.
    let mag = golden.iter().map(|g| g.abs()).sum::<f64>() / golden.len() as f64;
    let floor = (mag * 1e-9).max(f64::MIN_POSITIVE);
    let mut sum = 0.0;
    for (g, a) in golden.iter().zip(approx) {
        let denom = g.abs().max(floor);
        let err = ((a - g).abs() / denom).min(10.0); // cap runaways at 1000 %
        sum += err;
    }
    sum / golden.len() as f64
}

/// FNV-1a fold over one `u64` of digest input.
#[inline]
fn fnv1a(h: u64, x: u64) -> u64 {
    let mut h = h;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A 64-bit digest over every paper-facing field of a [`RunMetrics`]:
/// all event counters, traffic bytes, fault events, cycles, the exact bit
/// patterns of the derived floats (energy stack, IPC, output error,
/// compression ratio, footprint) — everything a table or figure is built
/// from. Two runs digest equal iff they are bit-identical on all of it.
///
/// The field list is **frozen**: `tests/designs.rs` pins digests captured
/// on the tree *before* the design-policy extraction, so this function must
/// keep hashing exactly these fields in exactly this order. Counters added
/// by later PRs (e.g. the memo breakdown) are deliberately excluded —
/// they are asserted separately where they matter.
pub fn metrics_digest(m: &RunMetrics) -> u64 {
    let c = &m.counters;
    let fields = [
        c.instructions,
        c.loads,
        c.stores,
        c.l1_hits,
        c.l2_hits,
        c.llc_requests_total,
        c.llc_misses_total,
        c.approx_requests.miss,
        c.approx_requests.uncompressed_hit,
        c.approx_requests.dbuf_hit,
        c.approx_requests.compressed_hit,
        c.evictions.recompress,
        c.evictions.lazy_writeback,
        c.evictions.fetch_recompress,
        c.evictions.uncompressed_writeback,
        c.traffic.approx_read_bytes,
        c.traffic.approx_write_bytes,
        c.traffic.nonapprox_read_bytes,
        c.traffic.nonapprox_write_bytes,
        c.traffic.metadata_bytes,
        c.amat_cycles_sum,
        c.amat_count,
        c.miss_lat_sum,
        c.miss_lat_count,
        c.miss_lat_max,
        c.compressed_hit_cycles_sum,
        c.blocks_compressed,
        c.blocks_decompressed,
        c.compression_failures,
        c.compression_skips,
        c.block_reuse_sum,
        c.block_reuse_count,
        c.faults.injected_bit_flips,
        c.faults.faulted_lines,
        c.faults.retries,
        c.faults.degraded_lines,
        c.faults.sanitized_values,
        c.faults.ecc_scrubs,
        m.cycles,
        m.exec_seconds.to_bits(),
        m.ipc.to_bits(),
        m.energy.core.to_bits(),
        m.energy.l1l2.to_bits(),
        m.energy.llc.to_bits(),
        m.energy.dram.to_bits(),
        m.energy.compressor.to_bits(),
        m.output_error.to_bits(),
        m.compression_ratio.to_bits(),
        m.approx_blocks,
        m.compressible_blocks,
        m.footprint_fraction.to_bits(),
        m.llc_cms_fraction.to_bits(),
    ];
    fields.iter().fold(0xcbf2_9ce4_8422_2325, |h, &x| fnv1a(h, x))
}

/// Run `workload` on `design`, returning full metrics including the output
/// error vs. the exact golden run.
pub fn run_on_design(
    workload: &dyn Workload,
    cfg: &SystemConfig,
    design: DesignKind,
) -> RunMetrics {
    run_on_design_in(workload, cfg, design, LayoutKind::Soa)
}

/// Run `workload` on `design` under `layout`, which must be one of the
/// workload's [`Workload::layouts`]. The golden run is always taken in SoA
/// on the exact VM — `ExactVm` is lossless, so the reference output is a
/// layout-invariant property of the workload, and every layout variant is
/// scored against the same golden.
pub fn run_on_design_in(
    workload: &dyn Workload,
    cfg: &SystemConfig,
    design: DesignKind,
    layout: LayoutKind,
) -> RunMetrics {
    assert!(
        workload.layouts().contains(&layout),
        "{} does not declare the {} layout",
        workload.name(),
        layout.label()
    );
    // Golden runs are design-, backend-, and layout-invariant; memoized
    // when the workload provides a key (see `crate::golden`).
    let golden = golden_run(workload);

    let mut sys = System::new(cfg.clone(), design);
    let out = workload.run_in(&mut sys, layout);
    let mut metrics = sys.finish(workload.name());
    metrics.output_error = mean_relative_error(&golden, &out);
    metrics
}

/// The full benchmark suite at the requested scale: the paper's seven in
/// figure order, then the extension workloads (`sobel`, `fft`), then the
/// mixed-criticality `particles` kernel added with the layout axis.
pub fn all_benchmarks(scale: BenchScale) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(crate::heat::Heat::at_scale(scale)),
        Box::new(crate::lattice::Lattice::at_scale(scale)),
        Box::new(crate::lbm::Lbm::at_scale(scale)),
        Box::new(crate::orbit::Orbit::at_scale(scale)),
        Box::new(crate::kmeans::KMeans::at_scale(scale)),
        Box::new(crate::bscholes::BlackScholes::at_scale(scale)),
        Box::new(crate::wrf::Wrf::at_scale(scale)),
        Box::new(crate::sobel::Sobel::at_scale(scale)),
        Box::new(crate::fft::Fft::at_scale(scale)),
        Box::new(crate::particles::Particles::at_scale(scale)),
    ]
}

/// One cell of a pooled (workload × layout × design) grid run.
#[derive(Clone, Debug)]
pub struct GridRun {
    pub workload: &'static str,
    pub design: DesignKind,
    pub layout: LayoutKind,
    pub metrics: RunMetrics,
}

/// A workload's first design cell computes (or waits on) the memoized
/// golden run; later cells hit the warm cache. Weighting the first cell
/// heavier schedules all the golden computations into the pool's opening
/// claims — one per worker, different workloads — instead of letting four
/// workers claim four cells of the *same* heavy workload and serialize on
/// its once-cell. Coarse by design: only the claiming order depends on it.
pub const GOLDEN_CELL_BOOST: u64 = 4;

/// Run the full (workload × design) grid on `pool`, returning cells in
/// workload-major, design-minor order. Each cell is an independent
/// deterministic simulation, so the results are bit-identical for any pool
/// width (`tests/determinism.rs` pins this). Cells are claimed
/// heaviest-first using each workload's [`Workload::cost_hint`] — the
/// suite's job mix is heavily skewed (fft is ~45× more simulated blocks
/// than the lightest workloads), and starting the long poles first is
/// what keeps the sweep's makespan near `total/N` instead of
/// `t_longest + rest/N`.
pub fn run_grid(
    pool: &SimPool,
    suite: &[Box<dyn Workload>],
    cfg: &SystemConfig,
    designs: &[DesignKind],
) -> Vec<GridRun> {
    run_grid_layouts(pool, suite, cfg, designs, &[LayoutKind::Soa])
}

/// Run the (workload × layout × design) grid on `pool`, returning cells in
/// workload-major, layout-mid, design-minor order. Each workload
/// contributes only the layouts it supports (the intersection of
/// [`Workload::layouts`] with `layouts`, in `layouts` order), so a
/// SoA-only workload yields one row per design and a three-layout schema
/// yields three. The first cell of each workload carries the golden-run
/// boost regardless of which layout it lands on — goldens are
/// layout-invariant, so one computation serves the whole row block.
pub fn run_grid_layouts(
    pool: &SimPool,
    suite: &[Box<dyn Workload>],
    cfg: &SystemConfig,
    designs: &[DesignKind],
    layouts: &[LayoutKind],
) -> Vec<GridRun> {
    struct Cell {
        wi: usize,
        layout: LayoutKind,
        design: DesignKind,
        golden_cell: bool,
    }
    let mut cells: Vec<Cell> = Vec::new();
    for (wi, w) in suite.iter().enumerate() {
        let supported = w.layouts();
        let mut first = true;
        for &layout in layouts.iter().filter(|l| supported.contains(l)) {
            for &design in designs {
                cells.push(Cell { wi, layout, design, golden_cell: first });
                first = false;
            }
        }
    }
    let weight = |i: usize| {
        let c = &cells[i];
        let hint = suite[c.wi].cost_hint().max(1);
        if c.golden_cell {
            hint.saturating_mul(GOLDEN_CELL_BOOST)
        } else {
            hint
        }
    };
    pool.run_jobs_weighted(cells.len(), weight, |ctx| {
        let c = &cells[ctx.index];
        let w = &suite[c.wi];
        GridRun {
            workload: w.name(),
            design: c.design,
            layout: c.layout,
            metrics: run_on_design_in(w.as_ref(), cfg, c.design, c.layout),
        }
    })
}

/// Look up one workload of the suite **by its registered name** at the
/// requested scale — the sweep server's path from a wire-level job spec to
/// a runnable instance. Returns `None` for names the suite doesn't carry,
/// so a caller can reject a bad job instead of panicking mid-batch.
/// Construction is cheap (workload constructors only record parameters;
/// inputs are generated inside `run`).
pub fn workload_by_name(name: &str, scale: BenchScale) -> Option<Box<dyn Workload>> {
    all_benchmarks(scale).into_iter().find(|w| w.name() == name)
}

/// The registered workload names, in suite order (what
/// [`workload_by_name`] accepts — a job service can echo this in errors).
pub fn workload_names() -> Vec<&'static str> {
    all_benchmarks(BenchScale::Tiny).iter().map(|w| w.name()).collect()
}

/// Convenience: build the suite at `scale` and run the grid on `pool`.
pub fn run_suite_on_pool(
    pool: &SimPool,
    scale: BenchScale,
    cfg: &SystemConfig,
    designs: &[DesignKind],
) -> Vec<GridRun> {
    run_grid(pool, &all_benchmarks(scale), cfg, designs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_relative_error_basics() {
        let g = [1.0, 2.0, 4.0];
        let a = [1.1, 2.0, 4.0];
        // one value 10 % off over three values
        assert!((mean_relative_error(&g, &a) - 0.1 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn identical_outputs_are_zero_error() {
        let g = [3.0, -5.0, 0.0];
        assert_eq!(mean_relative_error(&g, &g), 0.0);
    }

    #[test]
    fn runaway_errors_are_capped() {
        let g = [1.0];
        let a = [1.0e9];
        assert_eq!(mean_relative_error(&g, &a), 10.0);
    }

    #[test]
    fn zero_golden_values_use_magnitude_floor() {
        let g = [0.0, 100.0];
        let a = [1.0e-7, 100.0];
        // The 1e-7 absolute error on a zero is tiny relative to the
        // output's ~50 magnitude but is compared against the 5e-8 floor;
        // it must not produce a huge error after capping.
        let e = mean_relative_error(&g, &a);
        assert!(e <= 10.0 / 2.0);
    }

    #[test]
    fn suite_has_paper_order_then_extensions_then_particles() {
        let suite = all_benchmarks(BenchScale::Tiny);
        let names: Vec<_> = suite.iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            [
                "heat",
                "lattice",
                "lbm",
                "orbit",
                "kmeans",
                "bscholes",
                "wrf",
                "sobel",
                "fft",
                "particles"
            ]
        );
    }

    #[test]
    fn every_workload_supports_soa_and_aos() {
        // The layout axis is only an axis if the grid can sweep it: every
        // schema-declaring port must run in at least SoA and AoS.
        for w in all_benchmarks(BenchScale::Tiny) {
            let ls = w.layouts();
            assert!(ls.contains(&LayoutKind::Soa), "{} must support soa", w.name());
            assert!(ls.contains(&LayoutKind::Aos), "{} must support aos", w.name());
        }
    }

    #[test]
    fn registry_resolves_every_suite_name_and_rejects_strangers() {
        for scale in [BenchScale::Tiny, BenchScale::Bench] {
            for name in workload_names() {
                let w = workload_by_name(name, scale)
                    .unwrap_or_else(|| panic!("{name} missing at {scale:?}"));
                assert_eq!(w.name(), name);
            }
        }
        assert!(workload_by_name("heatx", BenchScale::Tiny).is_none());
        assert!(workload_by_name("", BenchScale::Tiny).is_none());
        assert_eq!(workload_names().len(), 10);
    }

    #[test]
    #[should_panic(expected = "heat does not declare the partitioned layout")]
    fn run_on_design_in_rejects_an_undeclared_layout() {
        let heat = workload_by_name("heat", BenchScale::Tiny).unwrap();
        let cfg = avr_core::SystemConfig::tiny();
        run_on_design_in(heat.as_ref(), &cfg, DesignKind::Avr, LayoutKind::Partitioned);
    }

    #[test]
    fn grid_cells_come_back_in_workload_major_order() {
        use avr_core::SimPool;
        let suite = all_benchmarks(BenchScale::Tiny);
        let short: Vec<Box<dyn Workload>> =
            suite.into_iter().filter(|w| matches!(w.name(), "bscholes" | "kmeans")).collect();
        let designs = [DesignKind::Baseline, DesignKind::Avr];
        let grid = run_grid(&SimPool::new(2), &short, &avr_core::SystemConfig::tiny(), &designs);
        let labels: Vec<_> = grid.iter().map(|c| (c.workload, c.design)).collect();
        assert_eq!(
            labels,
            [
                ("kmeans", DesignKind::Baseline),
                ("kmeans", DesignKind::Avr),
                ("bscholes", DesignKind::Baseline),
                ("bscholes", DesignKind::Avr),
            ]
        );
        for c in &grid {
            assert_eq!(c.layout, LayoutKind::Soa);
            assert!(c.metrics.cycles > 0);
        }
    }

    #[test]
    fn layout_grid_is_workload_major_layout_mid_design_minor() {
        use avr_core::SimPool;
        let suite = all_benchmarks(BenchScale::Tiny);
        let short: Vec<Box<dyn Workload>> =
            suite.into_iter().filter(|w| matches!(w.name(), "bscholes" | "kmeans")).collect();
        let designs = [DesignKind::Baseline, DesignKind::Avr];
        let layouts = [LayoutKind::Soa, LayoutKind::Aos, LayoutKind::Partitioned];
        let grid = run_grid_layouts(
            &SimPool::new(2),
            &short,
            &avr_core::SystemConfig::tiny(),
            &designs,
            &layouts,
        );
        // kmeans supports {soa, aos}; bscholes supports all three.
        let labels: Vec<_> = grid.iter().map(|c| (c.workload, c.layout, c.design)).collect();
        let mut expect = Vec::new();
        for l in [LayoutKind::Soa, LayoutKind::Aos] {
            for d in designs {
                expect.push(("kmeans", l, d));
            }
        }
        for l in layouts {
            for d in designs {
                expect.push(("bscholes", l, d));
            }
        }
        assert_eq!(labels, expect);
        for c in &grid {
            assert!(c.metrics.cycles > 0, "{} {:?} {:?}", c.workload, c.layout, c.design);
        }
    }
}
