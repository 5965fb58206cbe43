//! End-to-end simulation-rate benchmark: drives the full workload suite
//! (the paper's seven, the extensions, and `particles`) through
//! the `SimPool` engine and emits a machine-readable `BENCH_<tag>.json`
//! recording **blocks/s per workload** — the whole-simulator throughput the
//! perf trajectory tracks beyond the codec kernels (ROADMAP).
//!
//! The file is one line of JSON, written and read back through
//! [`avr_server::Json`].
//!
//! One "block" is the AVR 1 KB memory-block unit: a workload's block count
//! is its simulated DRAM traffic in 1 KB units, which is deterministic for
//! a fixed (workload, design, scale); the wall clock is the only measured
//! quantity. Each workload entry times the *full* end-to-end pipeline —
//! golden run, timed AVR-design simulation, and the parallel Table 4
//! compression summary. A PR that intentionally changes simulation speed
//! (or the simulated traffic) should regenerate and commit the next
//! `BENCH_PRn.json` and point CI's `--check` at it.
//!
//! ```text
//! bench_e2e [--smoke] [--check BASELINE.json] [--out PATH]
//! ```
//!
//! * default: measures the `smoke` (tiny-scale) *and* `full` (bench-scale)
//!   sections — the committed BENCH_PRn.json trajectory files come from
//!   this mode;
//! * `--smoke`: tiny scale only — CI's perf gate;
//! * `--check B.json`: after measuring, compare this run's smoke section
//!   against `B.json`'s and exit non-zero if any workload's blocks/s
//!   regressed more than the 25 % budget. Ratios are **median-calibrated**
//!   first: each workload's current/baseline ratio is divided by the
//!   median ratio across all workloads, so a uniform machine-speed
//!   difference (a slower CI runner, host frequency drift) cancels out and
//!   the gate fires on *differential* regressions — one workload's engine
//!   path getting slower — which is what a committed-baseline gate can
//!   actually detect across machines. A uniform drift beyond the budget is
//!   reported loudly but does not fail the gate. Workloads are paired
//!   **by name**: an entry present on only one side (a PR adding or
//!   retiring a workload without regenerating the baseline) **fails the
//!   gate** — set drift means the committed trajectory no longer describes
//!   the suite, so the fix is to commit the next `BENCH_PRn.json`, never
//!   to let the gate skip quietly. The device error-model **backend set**
//!   (see below) is held to the same standard. A baseline entry of
//!   0 blocks/s fails the gate as a corrupt trajectory file instead of
//!   being divided by. The baseline is read before measuring, so an
//!   unreadable or corrupt one fails at once.
//!
//! The Table 4 sweep (the full suite × AVR) is also timed on one
//! thread vs. the pool so the engine's scaling is part of the record.
//!
//! Each section also carries a **backend axis**: the suite × AVR
//! grid re-run under every device error-model backend (exact, relaxed
//! DRAM, approximate MRAM) at that backend's default fault rates,
//! recording aggregate blocks/s plus the injected-fault/degradation
//! counters — the robustness trajectory next to the throughput one.
//!
//! Each section also carries a **layout axis** (PR 8): the suite × AVR
//! grid re-run once per memory layout (`soa`, `aos`, `partitioned`), each
//! entry recording aggregate blocks/s, the compressible-block fraction
//! (`compressible_blocks / approx_blocks` — the granularity-gap headline:
//! AoS interleaving collapses it on multi-field records), and the mean
//! output error across the workloads that support the layout. The layout
//! set is gated against the baseline exactly like the workload and backend
//! sets, so the smoke gate always exercises the non-default layouts.
//!
//! Each section also carries a **design axis** (PR 10): the full suite
//! re-run once per `DesignKind::ALL` design — every policy the
//! `DesignPolicy` layer constructs, including the memoization family —
//! each entry recording aggregate blocks/s plus the memo hit/serve/elide
//! counters. The design set is gated against the baseline exactly like
//! the other axes: adding a design without regenerating the committed
//! trajectory fails `--check`.
//!
//! # Host-width provenance and the scaling curve
//!
//! The top-level `host` object records `available_parallelism` and the
//! pool width the sweep timings used. The PR-2..PR-6 trajectory files
//! recorded `pool_threads: 4` with sweep speedups of 0.94–0.97× and *no
//! way to tell* whether that was an engine regression or a
//! 1-hardware-thread recording container time-slicing four workers (it
//! was the latter, plus real engine overhead — see PERFORMANCE.md).
//! `--check` now warns loudly when the baseline and the current host
//! widths differ, and on a multi-core host **fails** if the pooled
//! Table 4 sweep is slower than single-thread.
//!
//! Each section also carries a `scaling` object: the full nine-workload ×
//! five-design grid timed at 1/2/4/N threads (golden runs pre-warmed into
//! the memoization cache so the curve measures the *engine*, not the
//! share of golden recomputation the cache already removed), plus a
//! per-workload single-vs-pooled speedup over that workload's five-design
//! column.
//!
//! The `host` object also records every resolved `AVR_*` knob
//! (`avr_types::knobs`). Files up to `BENCH_PR16.json` also carry a
//! top-level `server` object, which `--check` ignores; the repository
//! benchmark's `server-mixed` workload times the sweep server.

use avr_core::{BackendKind, DesignKind, LayoutKind, SimPool, SystemConfig};
use avr_server::{base_config, Json};
use avr_types::knobs::knobs;
use avr_workloads::{
    all_benchmarks, golden_run, run_grid, run_grid_layouts, run_on_design, BenchScale, Workload,
};
use std::time::Instant;

/// Regression budget for `--check`: fail when a workload's blocks/s drops
/// below this fraction of the committed baseline.
const GATE_FRACTION: f64 = 0.75;

/// `--check` scaling gate, active only when the *current* host has ≥ 2
/// cores: the pooled Table 4 sweep must not be slower than single-thread.
const SCALING_GATE: f64 = 1.0;

struct WorkloadRate {
    workload: &'static str,
    sim_blocks: u64,
    wall_ms: f64,
}

impl WorkloadRate {
    fn blocks_per_sec(&self) -> f64 {
        self.sim_blocks as f64 / (self.wall_ms / 1e3).max(1e-9)
    }
}

struct SweepTiming {
    pool_threads: usize,
    single_thread_ms: f64,
    pooled_ms: f64,
}

/// One error-model backend's aggregate grid throughput and fault record.
struct BackendRate {
    backend: &'static str,
    sim_blocks: u64,
    wall_ms: f64,
    injected_bit_flips: u64,
    faulted_lines: u64,
    retries: u64,
    degraded_lines: u64,
    ecc_scrubs: u64,
}

impl BackendRate {
    fn blocks_per_sec(&self) -> f64 {
        self.sim_blocks as f64 / (self.wall_ms / 1e3).max(1e-9)
    }
}

/// One design's aggregate grid throughput plus the memoization record
/// (all-zero outside the memo family).
struct DesignRate {
    design: &'static str,
    sim_blocks: u64,
    wall_ms: f64,
    memo_hits: u64,
    memo_served: u64,
    memo_elided: u64,
}

impl DesignRate {
    fn blocks_per_sec(&self) -> f64 {
        self.sim_blocks as f64 / (self.wall_ms / 1e3).max(1e-9)
    }
}

/// One memory layout's aggregate grid result: throughput plus the
/// compressibility and output-error record across the workloads that
/// support the layout.
struct LayoutRate {
    layout: &'static str,
    /// How many of the suite's workloads declare support for this layout.
    workloads: usize,
    sim_blocks: u64,
    wall_ms: f64,
    approx_blocks: u64,
    compressible_blocks: u64,
    error_sum: f64,
}

impl LayoutRate {
    fn blocks_per_sec(&self) -> f64 {
        self.sim_blocks as f64 / (self.wall_ms / 1e3).max(1e-9)
    }

    /// The layout axis's headline number: what fraction of the scanned
    /// approximable blocks the codec accepted.
    fn compressible_fraction(&self) -> f64 {
        self.compressible_blocks as f64 / (self.approx_blocks as f64).max(1.0)
    }

    fn mean_output_error(&self) -> f64 {
        self.error_sum / (self.workloads as f64).max(1.0)
    }
}

/// One width's measurement of the full (9 workloads × 5 designs) grid.
struct ScalingPoint {
    threads: usize,
    wall_ms: f64,
}

/// One workload's five-design column timed single-thread vs. pooled.
struct WorkloadScaling {
    workload: &'static str,
    single_thread_ms: f64,
    pooled_ms: f64,
}

/// The engine scaling curve for one section.
struct Scaling {
    grid_jobs: usize,
    points: Vec<ScalingPoint>,
    max_threads: usize,
    per_workload: Vec<WorkloadScaling>,
}

struct Section {
    scale_label: &'static str,
    workloads: Vec<WorkloadRate>,
    sweep: SweepTiming,
    backends: Vec<BackendRate>,
    layouts: Vec<LayoutRate>,
    designs: Vec<DesignRate>,
    scaling: Scaling,
}

/// Time one full (golden + AVR + summary) run per workload, best-of-N so
/// the trajectory numbers resist noise. Short workloads (sub-10 ms runs)
/// get extra reps until ~60 ms of total measurement accumulates — a
/// 0.7 ms tiny-scale run measured only twice would dominate the gate's
/// flakiness on shared CI runners.
const MIN_MEASURE_MS: f64 = 60.0;
/// The *sub-3 ms* tiny workloads (`orbit`, `kmeans`) are the gate's
/// flakiest point: even best-of-N over 60 ms, their raw ratios swung
/// ±15 % run-to-run on a busy 1-core host (ROADMAP PR-3 note). Runs that
/// short accumulate a longer window instead of a bigger budget.
const TINY_RUN_MS: f64 = 3.0;
const TINY_MIN_MEASURE_MS: f64 = 240.0;
/// Hard rep cap: bounds wall time if a workload is pathologically fast
/// (240 ms / 0.5 ms ≈ 480 would otherwise be possible).
const MAX_REPS: u32 = 400;

fn measure_workloads(
    suite: &[Box<dyn Workload>],
    cfg: &SystemConfig,
    reps: u32,
) -> Vec<WorkloadRate> {
    suite
        .iter()
        .map(|w| {
            let mut best_ms = f64::MAX;
            let mut total_ms = 0.0;
            let blocks;
            let mut rep = 0;
            loop {
                let t0 = Instant::now();
                let m = run_on_design(w.as_ref(), cfg, DesignKind::Avr);
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                best_ms = best_ms.min(ms);
                total_ms += ms;
                rep += 1;
                // Sub-3 ms runs keep accumulating to the longer window.
                let min_ms =
                    if best_ms < TINY_RUN_MS { TINY_MIN_MEASURE_MS } else { MIN_MEASURE_MS };
                if rep >= reps && (total_ms >= min_ms || rep >= MAX_REPS) {
                    // The simulated traffic is deterministic per (workload,
                    // design, scale): any rep's count is the count.
                    blocks =
                        m.counters.traffic.total().div_ceil(avr_types::addr::BLOCK_BYTES as u64);
                    break;
                }
            }
            WorkloadRate { workload: w.name(), sim_blocks: blocks, wall_ms: best_ms }
        })
        .collect()
}

/// Prime the golden-run memoization cache for every workload in `suite`,
/// so sweep/scaling timings measure the engine rather than a one-off
/// cold-cache golden recomputation on whichever width runs first.
fn prime_goldens(suite: &[Box<dyn Workload>]) {
    for w in suite {
        let _ = golden_run(w.as_ref());
    }
}

/// Time the Table 4 sweep (nine workloads × AVR) single-threaded vs. on
/// the pool. Best-of-2 per width: a single tiny-scale grid is ~tens of
/// milliseconds, and the `--check` scaling gate compares these two
/// numbers directly.
fn measure_sweep(
    suite: &[Box<dyn Workload>],
    cfg: &SystemConfig,
    pool_threads: usize,
) -> SweepTiming {
    let designs = [DesignKind::Avr];
    prime_goldens(suite);
    let time_width = |threads: usize| {
        let mut best_ms = f64::MAX;
        let mut grid = Vec::new();
        for _ in 0..2 {
            let t0 = Instant::now();
            grid = run_grid(&SimPool::new(threads), suite, cfg, &designs);
            best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        (best_ms, grid)
    };
    let (single_thread_ms, serial) = time_width(1);
    let (pooled_ms, pooled) = time_width(pool_threads);
    // The engine's determinism contract, asserted on every bench run.
    for (a, b) in serial.iter().zip(&pooled) {
        assert_eq!(
            a.metrics.cycles, b.metrics.cycles,
            "{}: pool changed the simulation",
            a.workload
        );
    }
    SweepTiming { pool_threads, single_thread_ms, pooled_ms }
}

/// The engine scaling curve: the full (9 workloads × 5 designs) grid at
/// 1/2/4/N threads, plus each workload's five-design column at 1 vs. max
/// width. Goldens are pre-warmed (see [`prime_goldens`]); the committed
/// JSON records the honest result for whatever host ran it — the `host`
/// provenance object is what makes the number interpretable.
fn measure_scaling(
    suite: &[Box<dyn Workload>],
    cfg: &SystemConfig,
    pool_threads: usize,
) -> Scaling {
    let designs = DesignKind::ALL;
    prime_goldens(suite);
    let mut widths = vec![1usize, 2, 4];
    if pool_threads > 4 {
        widths.push(pool_threads);
    }
    let max_threads = *widths.last().unwrap();
    let points = widths
        .iter()
        .map(|&threads| {
            let t0 = Instant::now();
            let grid = run_grid(&SimPool::new(threads), suite, cfg, &designs);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(grid.len(), suite.len() * designs.len());
            ScalingPoint { threads, wall_ms }
        })
        .collect();
    let per_workload = suite
        .iter()
        .map(|w| {
            let col = std::slice::from_ref(w);
            let time_width = |threads: usize| {
                let t0 = Instant::now();
                let _ = run_grid(&SimPool::new(threads), col, cfg, &designs);
                t0.elapsed().as_secs_f64() * 1e3
            };
            WorkloadScaling {
                workload: w.name(),
                single_thread_ms: time_width(1),
                pooled_ms: time_width(max_threads),
            }
        })
        .collect();
    Scaling { grid_jobs: suite.len() * designs.len(), points, max_threads, per_workload }
}

/// Run the nine-workload × AVR grid once per error-model backend at the
/// backend's default fault rates, recording aggregate throughput and the
/// fault/degradation counters the run accumulated.
fn measure_backends(suite: &[Box<dyn Workload>], cfg: &SystemConfig) -> Vec<BackendRate> {
    let designs = [DesignKind::Avr];
    BackendKind::ALL
        .iter()
        .map(|&kind| {
            let cfg = cfg.clone().with_backend(kind);
            let t0 = Instant::now();
            let grid = run_grid(&SimPool::new(1), suite, &cfg, &designs);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let mut r = BackendRate {
                backend: kind.label(),
                sim_blocks: 0,
                wall_ms,
                injected_bit_flips: 0,
                faulted_lines: 0,
                retries: 0,
                degraded_lines: 0,
                ecc_scrubs: 0,
            };
            for e in &grid {
                let m = &e.metrics;
                r.sim_blocks +=
                    m.counters.traffic.total().div_ceil(avr_types::addr::BLOCK_BYTES as u64);
                let f = &m.counters.faults;
                r.injected_bit_flips += f.injected_bit_flips;
                r.faulted_lines += f.faulted_lines;
                r.retries += f.retries;
                r.degraded_lines += f.degraded_lines;
                r.ecc_scrubs += f.ecc_scrubs;
            }
            r
        })
        .collect()
}

/// Run the full suite once per design (`DesignKind::ALL` — every policy
/// the `DesignPolicy` layer can construct), recording aggregate blocks/s
/// and the memoization counters: the design axis of the trajectory, which
/// keeps the smoke gate exercising every design's engine path including
/// the memo family's table/window machinery. Single-threaded so the
/// per-design wall clocks are comparable to each other.
fn measure_designs(suite: &[Box<dyn Workload>], cfg: &SystemConfig) -> Vec<DesignRate> {
    prime_goldens(suite);
    DesignKind::ALL
        .iter()
        .map(|&design| {
            let t0 = Instant::now();
            let grid = run_grid(&SimPool::new(1), suite, cfg, &[design]);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            let mut r = DesignRate {
                design: design.label(),
                sim_blocks: 0,
                wall_ms,
                memo_hits: 0,
                memo_served: 0,
                memo_elided: 0,
            };
            for e in &grid {
                let m = &e.metrics;
                r.sim_blocks +=
                    m.counters.traffic.total().div_ceil(avr_types::addr::BLOCK_BYTES as u64);
                r.memo_hits += m.counters.memo.in_hits;
                r.memo_served += m.counters.memo.in_served;
                r.memo_elided += m.counters.memo.out_elided;
            }
            r
        })
        .collect()
}

/// Run the suite × AVR grid once per memory layout, aggregating blocks/s,
/// the compressible-block fraction and the mean output error over the
/// workloads that support each layout. Single-threaded so the per-layout
/// wall clocks are comparable to each other.
fn measure_layouts(suite: &[Box<dyn Workload>], cfg: &SystemConfig) -> Vec<LayoutRate> {
    let designs = [DesignKind::Avr];
    prime_goldens(suite);
    LayoutKind::ALL
        .iter()
        .map(|&layout| {
            let covered = suite.iter().filter(|w| w.layouts().contains(&layout)).count();
            let t0 = Instant::now();
            let grid = run_grid_layouts(&SimPool::new(1), suite, cfg, &designs, &[layout]);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(grid.len(), covered, "layout grid covered the wrong workloads");
            let mut r = LayoutRate {
                layout: layout.label(),
                workloads: covered,
                sim_blocks: 0,
                wall_ms,
                approx_blocks: 0,
                compressible_blocks: 0,
                error_sum: 0.0,
            };
            for e in &grid {
                let m = &e.metrics;
                r.sim_blocks +=
                    m.counters.traffic.total().div_ceil(avr_types::addr::BLOCK_BYTES as u64);
                r.approx_blocks += m.approx_blocks;
                r.compressible_blocks += m.compressible_blocks;
                r.error_sum += m.output_error;
            }
            r
        })
        .collect()
}

fn measure_section(scale: BenchScale, reps: u32, pool_threads: usize) -> Section {
    let suite = all_benchmarks(scale);
    let cfg = base_config(scale);
    Section {
        scale_label: scale.label(),
        workloads: measure_workloads(&suite, &cfg, reps),
        sweep: measure_sweep(&suite, &cfg, pool_threads),
        backends: measure_backends(&suite, &cfg),
        layouts: measure_layouts(&suite, &cfg),
        designs: measure_designs(&suite, &cfg),
        scaling: measure_scaling(&suite, &cfg, pool_threads),
    }
}

/// The smoke-section axes `--check` pairs by name: each entry list's key
/// and the field naming an entry.
const AXES: [(&str, &str); 4] = [
    ("workloads", "workload"),
    ("backends", "backend"),
    ("layouts", "layout"),
    ("designs", "design"),
];

/// This run's entry names per [`AXES`] axis.
fn axis_names(s: &Section) -> [Vec<&'static str>; 4] {
    [
        s.workloads.iter().map(|w| w.workload).collect(),
        s.backends.iter().map(|b| b.backend).collect(),
        s.layouts.iter().map(|l| l.layout).collect(),
        s.designs.iter().map(|d| d.design).collect(),
    ]
}

fn section_json(s: &Section) -> Json {
    let workloads = s.workloads.iter().map(|w| {
        Json::obj([
            ("workload", w.workload.into()),
            ("design", "AVR".into()),
            ("sim_blocks", w.sim_blocks.into()),
            ("wall_ms", w.wall_ms.into()),
            ("blocks_per_sec", w.blocks_per_sec().into()),
        ])
    });
    let backends = s.backends.iter().map(|b| {
        Json::obj([
            ("backend", b.backend.into()),
            ("sim_blocks", b.sim_blocks.into()),
            ("wall_ms", b.wall_ms.into()),
            ("blocks_per_sec", b.blocks_per_sec().into()),
            ("injected_bit_flips", b.injected_bit_flips.into()),
            ("faulted_lines", b.faulted_lines.into()),
            ("retries", b.retries.into()),
            ("degraded_lines", b.degraded_lines.into()),
            ("ecc_scrubs", b.ecc_scrubs.into()),
        ])
    });
    let layouts = s.layouts.iter().map(|l| {
        Json::obj([
            ("layout", l.layout.into()),
            ("workloads", l.workloads.into()),
            ("sim_blocks", l.sim_blocks.into()),
            ("wall_ms", l.wall_ms.into()),
            ("blocks_per_sec", l.blocks_per_sec().into()),
            ("approx_blocks", l.approx_blocks.into()),
            ("compressible_blocks", l.compressible_blocks.into()),
            ("compressible_fraction", l.compressible_fraction().into()),
            ("mean_output_error", l.mean_output_error().into()),
        ])
    });
    let designs = s.designs.iter().map(|d| {
        Json::obj([
            ("design", d.design.into()),
            ("sim_blocks", d.sim_blocks.into()),
            ("wall_ms", d.wall_ms.into()),
            ("blocks_per_sec", d.blocks_per_sec().into()),
            ("memo_hits", d.memo_hits.into()),
            ("memo_served", d.memo_served.into()),
            ("memo_elided", d.memo_elided.into()),
        ])
    });
    let sw = &s.sweep;
    let sc = &s.scaling;
    let base_ms = sc.points[0].wall_ms;
    let points = sc.points.iter().map(|p| {
        Json::obj([
            ("threads", p.threads.into()),
            ("wall_ms", p.wall_ms.into()),
            ("speedup", (base_ms / p.wall_ms.max(1e-9)).into()),
        ])
    });
    let per_workload = sc.per_workload.iter().map(|w| {
        Json::obj([
            ("workload", w.workload.into()),
            ("threads", sc.max_threads.into()),
            ("single_thread_ms", w.single_thread_ms.into()),
            ("pooled_ms", w.pooled_ms.into()),
            ("speedup", (w.single_thread_ms / w.pooled_ms.max(1e-9)).into()),
        ])
    });
    Json::obj([
        ("scale", s.scale_label.into()),
        ("workloads", Json::Arr(workloads.collect())),
        ("backends", Json::Arr(backends.collect())),
        ("layouts", Json::Arr(layouts.collect())),
        ("designs", Json::Arr(designs.collect())),
        (
            "table4_sweep",
            Json::obj([
                ("pool_threads", sw.pool_threads.into()),
                ("single_thread_ms", sw.single_thread_ms.into()),
                ("pooled_ms", sw.pooled_ms.into()),
                ("speedup", (sw.single_thread_ms / sw.pooled_ms.max(1e-9)).into()),
            ]),
        ),
        (
            "scaling",
            Json::obj([
                ("grid_jobs", sc.grid_jobs.into()),
                ("points", Json::Arr(points.collect())),
                ("per_workload", Json::Arr(per_workload.collect())),
            ]),
        ),
    ])
}

/// What `--check` reads from a committed trajectory file.
struct Baseline {
    /// Smoke-section `(name, blocks_per_sec)` entries per [`AXES`] axis. An
    /// axis the file predates reads as empty, so this run's entries on it
    /// count as drift.
    axes: [Vec<(String, f64)>; 4],
    /// The recording host's width, or `None` for trajectory files
    /// predating the provenance record (BENCH_PR6.json and earlier).
    host_width: Option<u64>,
}

impl Baseline {
    /// Fails on a file with no smoke-section workloads, and on a workload
    /// recording a non-positive blocks/s: that is a corrupt trajectory
    /// file, not a slow host, and the gate would divide by it.
    fn read(doc: &Json) -> Result<Baseline, String> {
        let smoke = doc.get("sections").and_then(|s| s.get("smoke"));
        let axes = AXES.map(|(list, key)| {
            let entries =
                smoke.and_then(|s| s.get(list)).and_then(Json::as_arr).unwrap_or_default();
            entries
                .iter()
                .filter_map(|e| {
                    let name = e.get(key)?.as_str()?.to_string();
                    Some((name, e.get("blocks_per_sec")?.as_f64()?))
                })
                .collect::<Vec<_>>()
        });
        if axes[0].is_empty() {
            return Err("no smoke-section workloads found".to_string());
        }
        if let Some((name, bps)) = axes[0].iter().find(|(_, bps)| *bps <= 0.0) {
            return Err(format!("baseline {name} records {bps} blocks/s — corrupt baseline file"));
        }
        let host_width =
            doc.get("host").and_then(|h| h.get("available_parallelism")).and_then(Json::as_u64);
        Ok(Baseline { axes, host_width })
    }

    /// One `GATE: FAIL` line per entry present on only one side of an
    /// axis. Set drift means the baseline no longer describes the suite:
    /// the fix is to commit a regenerated BENCH_PRn.json.
    fn drift(&self, current: &[Vec<&str>; 4]) -> Vec<String> {
        let mut fails = Vec::new();
        for (((_, axis), base), cur) in AXES.iter().zip(&self.axes).zip(current) {
            for (name, _) in base.iter().filter(|(name, _)| !cur.contains(&name.as_str())) {
                fails.push(format!(
                    "GATE: FAIL — baseline {axis} {name} is absent from this run; retiring a \
                     {axis} requires committing a regenerated BENCH_PRn.json"
                ));
            }
            for name in cur.iter().filter(|name| !base.iter().any(|(b, _)| b == *name)) {
                fails.push(format!(
                    "GATE: FAIL — {axis} {name} is not in the baseline; adding a {axis} \
                     requires committing a regenerated BENCH_PRn.json"
                ));
            }
        }
        fails
    }
}

/// The `--check` gate: exits non-zero on set drift, on a differential
/// blocks/s regression, or on a pooled sweep slower than single-thread.
fn check(baseline_path: &str, baseline: &Baseline, smoke: &Section, host_width: usize) {
    let drift = baseline.drift(&axis_names(smoke));
    if !drift.is_empty() {
        for line in &drift {
            eprintln!("{line}");
        }
        eprintln!("GATE: workload/backend/layout/design set drift vs {baseline_path}");
        std::process::exit(1);
    }
    // Without drift every baseline workload ran: pair them by name.
    let ratios: Vec<(&str, f64, f64)> = baseline.axes[0]
        .iter()
        .map(|(name, base_bps)| {
            let cur = smoke.workloads.iter().find(|w| w.workload == name).expect("no drift");
            (name.as_str(), *base_bps, cur.blocks_per_sec() / base_bps)
        })
        .collect();
    let mut sorted: Vec<f64> = ratios.iter().map(|r| r.2).collect();
    sorted.sort_by(f64::total_cmp);
    let machine_speed = sorted[sorted.len() / 2];
    eprintln!("GATE: machine-speed factor vs baseline host: {machine_speed:.2}x (median)");
    if machine_speed < GATE_FRACTION {
        eprintln!(
            "GATE: WARNING — this host runs the whole suite {:.0} % slower than the \
             baseline host; uniform drift is not gated, only per-workload deltas",
            (1.0 - machine_speed) * 100.0
        );
    }
    let mut failed = false;
    for (name, base_bps, raw) in &ratios {
        let calibrated = raw / machine_speed;
        let verdict = if calibrated < GATE_FRACTION { "REGRESSED" } else { "ok" };
        eprintln!(
            "GATE {name:<10} baseline {base_bps:>12.0}  raw {raw:>5.2}  calibrated \
             {calibrated:>5.2}  {verdict}"
        );
        failed |= calibrated < GATE_FRACTION;
    }
    if failed {
        eprintln!(
            "GATE: a workload's blocks/s regressed more than {:.0} % beyond the \
             fleet median",
            (1.0 - GATE_FRACTION) * 100.0
        );
        std::process::exit(1);
    }
    eprintln!("GATE: all workloads within the {:.0} % budget", (1.0 - GATE_FRACTION) * 100.0);

    // Width provenance: a raw speedup comparison across hosts with
    // different hardware widths is meaningless — say so loudly, every
    // time, so the PR-2 "1-thread container → speedup ≈ 1×" ambiguity
    // can never silently recur.
    match baseline.host_width {
        Some(bw) if bw != host_width as u64 => eprintln!(
            "GATE: WARNING — baseline {baseline_path} was recorded at \
             available_parallelism={bw} but this host has {host_width}; pooled-speedup \
             numbers are NOT comparable across host widths (only the current-host scaling \
             gate below is meaningful)"
        ),
        Some(bw) => eprintln!("GATE: host width matches baseline ({bw} hardware threads)"),
        None => eprintln!(
            "GATE: WARNING — baseline {baseline_path} predates host-width provenance; \
             its sweep speedups cannot be attributed to the engine or the recording host"
        ),
    }
    // Current-host scaling gate: on any multi-core host, a pooled
    // sweep that loses to single-thread is an engine regression, full
    // stop — the exact class of failure the 0.94–0.97× trajectory
    // entries could not flag.
    let sweep_speedup = smoke.sweep.single_thread_ms / smoke.sweep.pooled_ms.max(1e-9);
    if host_width >= 2 {
        if sweep_speedup < SCALING_GATE {
            eprintln!(
                "GATE: FAIL — Table 4 sweep pooled speedup {sweep_speedup:.2}x < \
                 {SCALING_GATE:.2}x on a {host_width}-thread host ({} threads pooled): the \
                 parallel engine is slower than single-thread",
                smoke.sweep.pool_threads
            );
            std::process::exit(1);
        }
        eprintln!(
            "GATE: pooled sweep speedup {sweep_speedup:.2}x on {host_width} hardware \
             threads — ok"
        );
    } else {
        eprintln!(
            "GATE: single-hardware-thread host — pooled speedup {sweep_speedup:.2}x \
             recorded, scaling gate skipped (needs >= 2 cores)"
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke_only = args.iter().any(|a| a == "--smoke");
    let check_path = args
        .iter()
        .position(|a| a == "--check")
        .map(|i| args.get(i + 1).expect("--check needs a baseline path").clone());
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .map(|i| args.get(i + 1).expect("--out needs a path").clone())
        .unwrap_or_else(|| "BENCH_current.json".to_string());

    // Fail on an unwritable destination or an unusable baseline before
    // spending the measurement.
    if let Err(e) = std::fs::write(&out_path, "{}\n") {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    let baseline = check_path.map(|path| {
        let read = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read baseline: {e}"))
            .and_then(|text| Json::parse(&text))
            .and_then(|doc| Baseline::read(&doc));
        match read {
            Ok(baseline) => (path, baseline),
            Err(e) => {
                eprintln!("error: {e} in {path}");
                std::process::exit(1);
            }
        }
    });

    let env_pool = SimPool::from_env();
    // The scaling record always exercises ≥ 4 workers (they time-slice on
    // smaller machines; the JSON records the honest result either way).
    let sweep_threads = env_pool.threads().max(4);
    // Host-width provenance: without this, a committed "speedup 0.97×"
    // from a 1-hardware-thread container is indistinguishable from a real
    // engine regression (the PR-2..PR-6 ambiguity).
    let host_width = std::thread::available_parallelism().map_or(1, |n| n.get());

    eprintln!("bench_e2e: smoke section (tiny scale)...");
    let smoke = measure_section(BenchScale::Tiny, 3, sweep_threads);
    let full = if smoke_only {
        None
    } else {
        eprintln!("bench_e2e: full section (bench scale)...");
        Some(measure_section(BenchScale::Bench, 1, sweep_threads))
    };

    let mut sections = vec![("smoke", section_json(&smoke))];
    if let Some(full) = &full {
        sections.push(("full", section_json(full)));
    }
    let doc = Json::obj([
        ("bench", "e2e".into()),
        ("unit", "blocks_per_sec (1 KB simulated DRAM blocks / wall s)".into()),
        ("mode", if smoke_only { "smoke" } else { "full" }.into()),
        ("target", "host-native (.cargo/config.toml)".into()),
        (
            "host",
            Json::obj([
                ("available_parallelism", host_width.into()),
                ("pool_threads", sweep_threads.into()),
                ("knobs", Json::obj(knobs().entries().map(|(name, value)| (name, value.into())))),
            ]),
        ),
        ("sections", Json::obj(sections)),
    ]);

    for s in [Some(&smoke), full.as_ref()].into_iter().flatten() {
        eprintln!("-- {} scale --", s.scale_label);
        for w in &s.workloads {
            eprintln!(
                "{:<10} {:>9} blocks  {:>8.1} ms  {:>12.0} blocks/s",
                w.workload,
                w.sim_blocks,
                w.wall_ms,
                w.blocks_per_sec()
            );
        }
        for b in &s.backends {
            eprintln!(
                "backend {:<8} {:>9} blocks  {:>8.1} ms  {:>12.0} blocks/s  \
                 flips {} retries {} degraded {}",
                b.backend,
                b.sim_blocks,
                b.wall_ms,
                b.blocks_per_sec(),
                b.injected_bit_flips,
                b.retries,
                b.degraded_lines
            );
        }
        for l in &s.layouts {
            eprintln!(
                "layout {:<11} {:>2} workloads {:>9} blocks  {:>8.1} ms  {:>12.0} blocks/s  \
                 compressible {:.1}% ({}/{})  mean err {:.4}",
                l.layout,
                l.workloads,
                l.sim_blocks,
                l.wall_ms,
                l.blocks_per_sec(),
                100.0 * l.compressible_fraction(),
                l.compressible_blocks,
                l.approx_blocks,
                l.mean_output_error()
            );
        }
        for d in &s.designs {
            eprintln!(
                "design {:<10} {:>9} blocks  {:>8.1} ms  {:>12.0} blocks/s  \
                 memo hits {} served {} elided {}",
                d.design,
                d.sim_blocks,
                d.wall_ms,
                d.blocks_per_sec(),
                d.memo_hits,
                d.memo_served,
                d.memo_elided
            );
        }
        let sw = &s.sweep;
        eprintln!(
            "table4 sweep: 1 thread {:.0} ms, {} threads {:.0} ms, speedup {:.2}x",
            sw.single_thread_ms,
            sw.pool_threads,
            sw.pooled_ms,
            sw.single_thread_ms / sw.pooled_ms.max(1e-9)
        );
        let sc = &s.scaling;
        let base_ms = sc.points[0].wall_ms;
        let curve: Vec<String> = sc
            .points
            .iter()
            .map(|p| format!("{}T {:.0} ms ({:.2}x)", p.threads, p.wall_ms, base_ms / p.wall_ms))
            .collect();
        eprintln!(
            "scaling ({} jobs, host width {}): {}",
            sc.grid_jobs,
            host_width,
            curve.join("  ")
        );
    }

    std::fs::write(&out_path, doc.render() + "\n").expect("write trajectory file");
    eprintln!("wrote {out_path}");

    if let Some((baseline_path, baseline)) = baseline {
        check(&baseline_path, &baseline, &smoke, host_width);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(pr: u32) -> Json {
        let path = format!("{}/../../BENCH_PR{pr}.json", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        Json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    #[test]
    fn committed_e2e_baselines_give_their_smoke_workloads() {
        // particles joined the suite in PR 8.
        for (pr, workloads) in [
            (2, 9),
            (4, 9),
            (5, 9),
            (6, 9),
            (7, 9),
            (8, 10),
            (9, 10),
            (10, 10),
            (12, 10),
            (14, 10),
            (15, 10),
            (16, 10),
        ] {
            let b = Baseline::read(&committed(pr)).unwrap();
            assert_eq!(b.axes[0].len(), workloads, "BENCH_PR{pr}");
            assert!(b.axes[0].iter().all(|(_, bps)| *bps > 0.0), "BENCH_PR{pr}");
        }
    }

    #[test]
    fn host_width_reads_where_recorded() {
        for pr in [2, 4, 5, 6] {
            assert_eq!(Baseline::read(&committed(pr)).unwrap().host_width, None, "BENCH_PR{pr}");
        }
        for pr in [7, 8, 9, 10] {
            assert_eq!(Baseline::read(&committed(pr)).unwrap().host_width, Some(1), "BENCH_PR{pr}");
        }
        assert_eq!(Baseline::read(&committed(12)).unwrap().host_width, Some(2));
    }

    #[test]
    fn a_missing_axis_reads_empty_and_counts_as_drift() {
        let b = Baseline::read(&committed(6)).unwrap();
        assert!(b.axes[2].is_empty(), "BENCH_PR6 predates the layout axis");
        let mut current: [Vec<&str>; 4] = Default::default();
        for (axis, base) in current.iter_mut().zip(&b.axes) {
            axis.extend(base.iter().map(|(name, _)| name.as_str()));
        }
        assert!(b.drift(&current).is_empty());
        current[2].push("soa");
        let drift = b.drift(&current);
        assert_eq!(drift.len(), 1, "{drift:?}");
        assert!(drift[0].contains("layout soa is not in the baseline"), "{drift:?}");
    }

    #[test]
    fn zero_rate_and_smokeless_baselines_do_not_read() {
        let doc = Json::parse(
            r#"{"sections":{"smoke":{"workloads":[{"workload":"heat","blocks_per_sec":0}]}}}"#,
        )
        .unwrap();
        let err = Baseline::read(&doc).err().expect("0 blocks/s must not read");
        assert!(err.contains("corrupt"), "{err}");
        assert!(Baseline::read(&committed(3)).is_err(), "the codec file has no smoke section");
    }

    #[test]
    fn a_rendered_section_parses_back_to_the_same_rates() {
        let s = Section {
            scale_label: "tiny",
            workloads: vec![WorkloadRate { workload: "heat", sim_blocks: 761, wall_ms: 3.7 }],
            sweep: SweepTiming { pool_threads: 4, single_thread_ms: 12.5, pooled_ms: 7.25 },
            backends: vec![BackendRate {
                backend: "relaxed",
                sim_blocks: 7610,
                wall_ms: 41.3,
                injected_bit_flips: 9,
                faulted_lines: 8,
                retries: 7,
                degraded_lines: 1,
                ecc_scrubs: 2,
            }],
            layouts: vec![LayoutRate {
                layout: "aos",
                workloads: 10,
                sim_blocks: 5000,
                wall_ms: 33.3,
                approx_blocks: 400,
                compressible_blocks: 101,
                error_sum: 0.07,
            }],
            designs: vec![DesignRate {
                design: "memoin",
                sim_blocks: 3001,
                wall_ms: 0.9,
                memo_hits: 5,
                memo_served: 4,
                memo_elided: 0,
            }],
            scaling: Scaling {
                grid_jobs: 70,
                points: vec![ScalingPoint { threads: 1, wall_ms: 700.1 }],
                max_threads: 4,
                per_workload: vec![],
            },
        };
        let doc = Json::obj([("sections", Json::obj([("smoke", section_json(&s))]))]);
        let b = Baseline::read(&Json::parse(&doc.render()).unwrap()).unwrap();
        let rate = |name: &str, bps: f64| vec![(name.to_string(), bps)];
        assert_eq!(b.axes[0], rate("heat", s.workloads[0].blocks_per_sec()));
        assert_eq!(b.axes[1], rate("relaxed", s.backends[0].blocks_per_sec()));
        assert_eq!(b.axes[2], rate("aos", s.layouts[0].blocks_per_sec()));
        assert_eq!(b.axes[3], rate("memoin", s.designs[0].blocks_per_sec()));
        assert!(b.drift(&axis_names(&s)).is_empty());
    }
}
