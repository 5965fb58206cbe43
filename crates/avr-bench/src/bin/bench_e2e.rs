//! End-to-end simulation-rate benchmark: times the workload suite's
//! simulation cells and emits a machine-readable `BENCH_<tag>.json`
//! recording **blocks/s** per workload, per device backend, per memory
//! layout and per design — the whole-simulator throughput the perf
//! trajectory tracks beyond the codec kernels (ROADMAP).
//!
//! The file is one line of JSON, written and read back through
//! [`avr_server::Json`].
//!
//! One "block" is the AVR 1 KB memory-block unit: a cell's block count is
//! its simulated DRAM traffic in 1 KB units, which is deterministic for a
//! fixed (workload, design, layout, backend, scale); the wall clock is the
//! only measured quantity. A cell's time covers its timed simulation, the
//! end-of-run Table 4 compression summary and the output-error scoring;
//! golden runs are primed once before any timing. A PR that intentionally
//! changes simulation speed (or the simulated traffic) should regenerate
//! and commit the next `BENCH_PRn.json` and point CI's `--check` at it.
//!
//! ```text
//! bench_e2e [--smoke] [--check BASELINE.json] [--out PATH]
//! ```
//!
//! * default: measures the `smoke` (tiny-scale) *and* `full` (bench-scale)
//!   sections — the committed BENCH_PRn.json trajectory files come from
//!   this mode;
//! * `--smoke`: tiny scale only — CI's perf gate;
//! * `--check B.json`: after measuring, gate this run's smoke section
//!   against `B.json`'s (see "The gate").
//!
//! # One table, timed in rounds
//!
//! A section builds one table of the distinct (workload, design, layout,
//! backend) cells its four axes need — 104 at tiny scale:
//!
//! * `workloads`: each workload on AVR (SoA, default backend) — the ten
//!   cells the gate reads;
//! * `backends`: the suite on AVR under each device error model (exact,
//!   relaxed DRAM, approximate MRAM) at its default fault rates, with the
//!   injected-fault and degradation counters;
//! * `layouts`: the suite on AVR under each memory layout (`soa`, `aos`,
//!   `partitioned`), over the workloads that declare it, with the
//!   compressible-block fraction (`compressible_blocks / approx_blocks` —
//!   the granularity-gap headline) and the mean output error;
//! * `designs`: the suite on each `DesignKind::ALL` design, with the
//!   memo hit/serve/elide counters.
//!
//! A cell several axes share (a workload's cell is also in `backends`'
//! exact entry, `layouts`' soa entry and `designs`' AVR entry) is one
//! table cell. One routine ([`time_rounds`]) times the table in
//! interleaved rounds: each round runs every gated cell once and, in the
//! first rounds only, every other cell once, each group starting further
//! along than in the round before. A change in host speed then lands on
//! all cells of a round alike instead of on a stretch of neighbours. Every
//! axis entry's `wall_ms` is the sum of its cells' median times.
//!
//! The `scaling` object is the design axis's 70-cell grid: its 1-thread
//! point is the sum of those cells' medians, and its pooled points (2, 4
//! and, on wider pools, the pool's width) are the only extra runs — one
//! `run_grid` each, which must reproduce every cell's cycles.
//!
//! # The gate
//!
//! `--check` reads and validates the baseline before measuring, so an
//! unreadable or corrupt one fails at once. After measuring it fails on:
//!
//! * **set drift**: workloads, backends, layouts and designs are paired by
//!   name, and an entry present on one side only (a PR adding or retiring
//!   one without regenerating the baseline) fails — the fix is to commit
//!   the next `BENCH_PRn.json`, never to let the gate skip quietly. A
//!   baseline workload recording 0 blocks/s fails as a corrupt file;
//! * a **differential regression**: in each gate round, every workload's
//!   blocks/s over its baseline blocks/s is divided by that round's median
//!   ratio, so a uniform host-speed difference (a slower CI runner, drift
//!   within the run) cancels; a workload whose median calibrated ratio over
//!   the rounds is below the 25 % budget fails ([`calibrate`]). A uniformly
//!   slower host is reported loudly, not failed;
//! * on a host with ≥ 2 cores, a pooled design grid slower than its
//!   1-thread time.
//!
//! # Host-width provenance
//!
//! The top-level `host` object records `available_parallelism`, the pool
//! width of the scaling curve and every resolved `AVR_*` knob
//! (`avr_types::knobs`). `BENCH_PR2.json`–`BENCH_PR6.json` recorded pooled
//! speedups of 0.94–0.97× with no way to tell an engine regression from a
//! 1-hardware-thread container time-slicing four workers (it was mostly
//! the latter — see PERFORMANCE.md); `--check` says when the baseline and
//! current host widths differ. Files up to `BENCH_PR16.json` also
//! carry a `table4_sweep` object (the AVR column timed serial vs. pooled)
//! and a top-level `server` object, which `--check` ignores.

use avr_core::{BackendKind, DesignKind, LayoutKind, SimPool, SystemConfig};
use avr_server::{base_config, Json};
use avr_sim::RunMetrics;
use avr_types::knobs::knobs;
use avr_workloads::{all_benchmarks, golden_run, run_grid, run_on_design_in, BenchScale, Workload};
use std::time::Instant;

/// Regression budget for `--check`: fail when a workload's calibrated
/// blocks/s drops below this fraction of the committed baseline.
const GATE_FRACTION: f64 = 0.75;

/// `--check` scaling gate, active only when the *current* host has ≥ 2
/// cores: the pooled design grid must not be slower than single-thread.
const SCALING_GATE: f64 = 1.0;

/// How many rounds a section times: the gated workload cells run in every
/// round, every other cell in the first `table` rounds.
#[derive(Clone, Copy)]
struct Rounds {
    gate: usize,
    table: usize,
}

/// A `--smoke` run, which is what CI's `--check` measures (~0.15 s per
/// gate round and ~1 s per table round on a shared 2-core host).
const SMOKE_ROUNDS: Rounds = Rounds { gate: 11, table: 3 };

/// A recording's tiny section. Later checks divide by its rates, so its
/// gated cells run more rounds: in a prototype of this scheme on a noisy
/// host, 7-round checks false-failed 16 of 552 pairs against 9-round
/// baselines and none of 1,716 against 18-round ones.
const RECORD_ROUNDS: Rounds = Rounds { gate: 31, table: 3 };

/// A recording's bench-scale section: not gated, and one pass of its table
/// takes about a minute.
const BENCH_ROUNDS: Rounds = Rounds { gate: 1, table: 1 };

/// One distinct simulation of a section's table.
#[derive(Clone, Copy, PartialEq)]
struct Cell {
    /// Index into the section's suite.
    workload: usize,
    design: DesignKind,
    layout: LayoutKind,
    backend: BackendKind,
}

/// A table cell's result (the same in every round) and its wall times,
/// one per round it ran in.
struct Timed {
    cell: Cell,
    metrics: RunMetrics,
    samples_ms: Vec<f64>,
}

impl Timed {
    fn blocks(&self) -> u64 {
        self.metrics.counters.traffic.total().div_ceil(avr_types::addr::BLOCK_BYTES as u64)
    }

    fn median_ms(&self) -> f64 {
        median(&self.samples_ms)
    }
}

/// One axis entry: its name and the table cells it sums over.
struct Entry {
    name: &'static str,
    cells: Vec<usize>,
}

struct Section {
    scale_label: &'static str,
    rounds: Rounds,
    table: Vec<Timed>,
    /// The entries of each [`AXES`] axis.
    axes: [Vec<Entry>; 4],
    /// The design grid timed on the pool: `(threads, wall_ms)` per width.
    pooled: Vec<(usize, f64)>,
}

fn blocks_per_sec(blocks: u64, wall_ms: f64) -> f64 {
    blocks as f64 / (wall_ms / 1e3).max(1e-9)
}

/// The middle value; the upper of the two middle values for an even count.
fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[sorted.len() / 2]
}

/// The distinct cells the four axes need, and each axis's entries as
/// indices into them. The workloads axis is built first, so its cells —
/// the gated ones — lead the table.
fn table_cells(suite: &[Box<dyn Workload>], backend: BackendKind) -> (Vec<Cell>, [Vec<Entry>; 4]) {
    let mut cells: Vec<Cell> = Vec::new();
    let mut entry = |name: &'static str, wanted: Vec<Cell>| Entry {
        name,
        cells: wanted
            .into_iter()
            .map(|cell| match cells.iter().position(|c| *c == cell) {
                Some(i) => i,
                None => {
                    cells.push(cell);
                    cells.len() - 1
                }
            })
            .collect(),
    };
    // The suite on one (design, layout, backend), over the workloads that
    // declare the layout.
    let column = |design, layout, backend| -> Vec<Cell> {
        (0..suite.len())
            .filter(|&w| suite[w].layouts().contains(&layout))
            .map(|workload| Cell { workload, design, layout, backend })
            .collect()
    };
    let avr = DesignKind::Avr;
    let soa = LayoutKind::Soa;
    let workloads = (0..suite.len())
        .map(|w| {
            entry(suite[w].name(), vec![Cell { workload: w, design: avr, layout: soa, backend }])
        })
        .collect();
    let backends =
        BackendKind::ALL.iter().map(|&b| entry(b.label(), column(avr, soa, b))).collect();
    let layouts =
        LayoutKind::ALL.iter().map(|&l| entry(l.label(), column(avr, l, backend))).collect();
    let designs =
        DesignKind::ALL.iter().map(|&d| entry(d.label(), column(d, soa, backend))).collect();
    (cells, [workloads, backends, layouts, designs])
}

/// Time the table in interleaved rounds. Every round runs the `gated`
/// leading cells once and, in the first `rounds.table` rounds, every other
/// cell once; each group starts a share of its length further along than
/// in the round before, so every cell takes every part of the round in
/// turn. Goldens are primed first, so no sample pays for a golden run.
/// This is the one place that times a single-threaded cell.
fn time_rounds(
    suite: &[Box<dyn Workload>],
    cfg: &SystemConfig,
    cells: Vec<Cell>,
    gated: usize,
    rounds: Rounds,
) -> Vec<Timed> {
    for w in suite {
        let _ = golden_run(w.as_ref());
    }
    let mut table: Vec<Timed> = cells
        .into_iter()
        .map(|cell| Timed { cell, metrics: RunMetrics::default(), samples_ms: Vec::new() })
        .collect();
    for round in 0..rounds.gate {
        let (head, tail) = table.split_at_mut(gated);
        let mut groups = vec![(head, rounds.gate)];
        if round < rounds.table {
            groups.push((tail, rounds.table));
        }
        for (group, group_rounds) in groups {
            let n = group.len();
            let start = round * n / group_rounds;
            for k in 0..n {
                let t = &mut group[(start + k) % n];
                let cell = t.cell;
                let cfg = cfg.clone().with_backend(cell.backend);
                let t0 = Instant::now();
                let m =
                    run_on_design_in(suite[cell.workload].as_ref(), &cfg, cell.design, cell.layout);
                t.samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                if round == 0 {
                    t.metrics = m;
                }
            }
        }
    }
    table
}

/// Time the design axis's grid once per pooled width (2, 4, and the pool
/// width when wider). The engine's determinism contract is asserted on
/// every bench run: each pooled cell reproduces its table cell's cycles.
fn time_pooled(
    suite: &[Box<dyn Workload>],
    cfg: &SystemConfig,
    backend: BackendKind,
    table: &[Timed],
    pool_threads: usize,
) -> Vec<(usize, f64)> {
    let mut widths = vec![2usize, 4];
    if pool_threads > 4 {
        widths.push(pool_threads);
    }
    widths
        .into_iter()
        .map(|threads| {
            let t0 = Instant::now();
            let grid = run_grid(&SimPool::new(threads), suite, cfg, &DesignKind::ALL);
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            for run in &grid {
                let workload = suite.iter().position(|w| w.name() == run.workload);
                let cell = Cell {
                    workload: workload.expect("a suite workload"),
                    design: run.design,
                    layout: run.layout,
                    backend,
                };
                let serial = table.iter().find(|t| t.cell == cell).expect("a design-axis cell");
                assert_eq!(
                    serial.metrics.cycles,
                    run.metrics.cycles,
                    "{} on {}: the pool changed the simulation",
                    run.workload,
                    run.design.label()
                );
            }
            (threads, wall_ms)
        })
        .collect()
}

fn measure_section(scale: BenchScale, rounds: Rounds, pool_threads: usize) -> Section {
    let suite = all_benchmarks(scale);
    // Pinning the resolved default backend lets a workload's cell and the
    // same cell in `backends` be one table cell.
    let backend = knobs().backend;
    let cfg = base_config(scale).with_backend(backend);
    let (cells, axes) = table_cells(&suite, backend);
    let table = time_rounds(&suite, &cfg, cells, suite.len(), rounds);
    let pooled = time_pooled(&suite, &cfg, backend, &table, pool_threads);
    Section { scale_label: scale.label(), rounds, table, axes, pooled }
}

impl Section {
    /// An entry's simulated blocks and summed median wall time.
    fn totals(&self, e: &Entry) -> (u64, f64) {
        let cells = e.cells.iter().map(|&i| &self.table[i]);
        (cells.clone().map(Timed::blocks).sum(), cells.map(Timed::median_ms).sum())
    }

    fn sum(&self, e: &Entry, count: impl Fn(&RunMetrics) -> u64) -> u64 {
        e.cells.iter().map(|&i| count(&self.table[i].metrics)).sum()
    }

    /// The fields particular to an entry of axis `axis` of [`AXES`].
    fn extras(&self, axis: usize, e: &Entry) -> Vec<(&'static str, Json)> {
        let sum = |count: fn(&RunMetrics) -> u64| Json::from(self.sum(e, count));
        match AXES[axis].0 {
            "workloads" => vec![("design", DesignKind::Avr.label().into())],
            "backends" => vec![
                ("injected_bit_flips", sum(|m| m.counters.faults.injected_bit_flips)),
                ("faulted_lines", sum(|m| m.counters.faults.faulted_lines)),
                ("retries", sum(|m| m.counters.faults.retries)),
                ("degraded_lines", sum(|m| m.counters.faults.degraded_lines)),
                ("ecc_scrubs", sum(|m| m.counters.faults.ecc_scrubs)),
            ],
            "layouts" => {
                let approx = self.sum(e, |m| m.approx_blocks);
                let compressible = self.sum(e, |m| m.compressible_blocks);
                let error: f64 = e.cells.iter().map(|&i| self.table[i].metrics.output_error).sum();
                vec![
                    ("workloads", e.cells.len().into()),
                    ("approx_blocks", approx.into()),
                    ("compressible_blocks", compressible.into()),
                    ("compressible_fraction", (compressible as f64 / approx.max(1) as f64).into()),
                    ("mean_output_error", (error / e.cells.len().max(1) as f64).into()),
                ]
            }
            _ => vec![
                ("memo_hits", sum(|m| m.counters.memo.in_hits)),
                ("memo_served", sum(|m| m.counters.memo.in_served)),
                ("memo_elided", sum(|m| m.counters.memo.out_elided)),
            ],
        }
    }

    /// The design grid's single-thread time and job count.
    fn one_thread(&self) -> (f64, usize) {
        let designs = &self.axes[3];
        (
            designs.iter().map(|e| self.totals(e).1).sum(),
            designs.iter().map(|e| e.cells.len()).sum(),
        )
    }

    /// The scaling curve: `(threads, wall_ms)`, single-thread first.
    fn curve(&self) -> Vec<(usize, f64)> {
        let mut points = vec![(1, self.one_thread().0)];
        points.extend(&self.pooled);
        points
    }

    /// Each gate round's blocks/s of the workloads axis, in axis order.
    fn gate_rates(&self) -> Vec<Vec<f64>> {
        (0..self.rounds.gate)
            .map(|round| {
                let cells = self.axes[0].iter().map(|e| &self.table[e.cells[0]]);
                cells.map(|t| blocks_per_sec(t.blocks(), t.samples_ms[round])).collect()
            })
            .collect()
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
    s.axes.each_ref().map(|entries| entries.iter().map(|e| e.name).collect())
}

fn section_json(s: &Section) -> Json {
    let axes = AXES.iter().zip(&s.axes).enumerate().map(|(axis, ((list, key), entries))| {
        let entries = entries.iter().map(|e| {
            let (blocks, wall_ms) = s.totals(e);
            let mut fields = vec![
                (*key, e.name.into()),
                ("sim_blocks", blocks.into()),
                ("wall_ms", wall_ms.into()),
                ("blocks_per_sec", blocks_per_sec(blocks, wall_ms).into()),
            ];
            fields.extend(s.extras(axis, e));
            Json::obj(fields)
        });
        (*list, Json::Arr(entries.collect()))
    });
    let curve = s.curve();
    let points = curve.iter().map(|&(threads, wall_ms)| {
        Json::obj([
            ("threads", threads.into()),
            ("wall_ms", wall_ms.into()),
            ("speedup", (curve[0].1 / wall_ms.max(1e-9)).into()),
        ])
    });
    let mut fields = vec![("scale", s.scale_label.into())];
    fields.extend(axes);
    fields.extend([
        ("rounds", Json::obj([("gate", s.rounds.gate.into()), ("table", s.rounds.table.into())])),
        (
            "scaling",
            Json::obj([
                ("grid_jobs", s.one_thread().1.into()),
                ("points", Json::Arr(points.collect())),
            ]),
        ),
    ]);
    Json::obj(fields)
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

/// The gate's arithmetic. `rounds[r][w]` is workload `w`'s blocks/s in
/// gate round `r` and `baseline[w]` its baseline blocks/s. In each round,
/// every workload's ratio to its baseline is divided by the round's median
/// ratio, so a change in host speed that hits the whole round cancels; a
/// workload's calibrated ratio is the median of its per-round values, so
/// one disturbed round does not decide it. Returns the machine-speed
/// factor (the median of the rounds' median ratios) and each workload's
/// calibrated ratio.
fn calibrate(rounds: &[Vec<f64>], baseline: &[f64]) -> (f64, Vec<f64>) {
    let mut speeds = Vec::with_capacity(rounds.len());
    let mut calibrated = vec![Vec::with_capacity(rounds.len()); baseline.len()];
    for rates in rounds {
        let ratios: Vec<f64> = rates.iter().zip(baseline).map(|(rate, base)| rate / base).collect();
        let speed = median(&ratios);
        speeds.push(speed);
        for (per_round, ratio) in calibrated.iter_mut().zip(&ratios) {
            per_round.push(ratio / speed);
        }
    }
    (median(&speeds), calibrated.iter().map(|per_round| median(per_round)).collect())
}

/// The `--check` gate: exits non-zero on set drift, on a differential
/// blocks/s regression, or on a pooled grid slower than single-thread.
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
    let base_bps: Vec<f64> = smoke.axes[0]
        .iter()
        .map(|e| baseline.axes[0].iter().find(|(name, _)| name == e.name).expect("no drift").1)
        .collect();
    let (machine_speed, calibrated) = calibrate(&smoke.gate_rates(), &base_bps);
    eprintln!(
        "GATE: machine-speed factor vs baseline host: {machine_speed:.2}x (median over {} \
         rounds)",
        smoke.rounds.gate
    );
    if machine_speed < GATE_FRACTION {
        eprintln!(
            "GATE: WARNING — this host runs the whole suite {:.0} % slower than the \
             baseline host; uniform drift is not gated, only per-workload deltas",
            (1.0 - machine_speed) * 100.0
        );
    }
    let mut failed = false;
    for ((e, base), calibrated) in smoke.axes[0].iter().zip(&base_bps).zip(calibrated) {
        let (blocks, wall_ms) = smoke.totals(e);
        let raw = blocks_per_sec(blocks, wall_ms) / base;
        let verdict = if calibrated < GATE_FRACTION { "REGRESSED" } else { "ok" };
        eprintln!(
            "GATE {:<10} baseline {base:>12.0}  raw {raw:>5.2}  calibrated {calibrated:>5.2}  \
             {verdict}",
            e.name
        );
        failed |= calibrated < GATE_FRACTION;
    }
    if failed {
        eprintln!(
            "GATE: a workload's blocks/s regressed more than {:.0} % beyond the \
             round median",
            (1.0 - GATE_FRACTION) * 100.0
        );
        std::process::exit(1);
    }
    eprintln!("GATE: all workloads within the {:.0} % budget", (1.0 - GATE_FRACTION) * 100.0);

    // Width provenance: a raw speedup comparison across hosts with
    // different hardware widths is meaningless — say so every time.
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
             its pooled speedups cannot be attributed to the engine or the recording host"
        ),
    }
    // Current-host scaling gate: on any multi-core host, a pooled grid
    // that loses to single-thread is an engine regression.
    let (one_thread_ms, _) = smoke.one_thread();
    let &(threads, pooled_ms) = smoke.pooled.last().expect("at least two pooled widths");
    let speedup = one_thread_ms / pooled_ms.max(1e-9);
    if host_width < 2 {
        eprintln!(
            "GATE: single-hardware-thread host — pooled speedup {speedup:.2}x recorded, \
             scaling gate skipped (needs >= 2 cores)"
        );
    } else if speedup < SCALING_GATE {
        eprintln!(
            "GATE: FAIL — design grid pooled speedup {speedup:.2}x < {SCALING_GATE:.2}x on a \
             {host_width}-thread host ({threads} threads pooled): the parallel engine is \
             slower than single-thread"
        );
        std::process::exit(1);
    } else {
        eprintln!("GATE: pooled grid speedup {speedup:.2}x on {host_width} hardware threads — ok");
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

    // The scaling curve always exercises ≥ 4 workers (they time-slice on
    // smaller machines; the JSON records the honest result either way).
    let pool_threads = SimPool::from_env().threads().max(4);
    let host_width = std::thread::available_parallelism().map_or(1, |n| n.get());

    eprintln!("bench_e2e: smoke section (tiny scale)...");
    let tiny_rounds = if smoke_only { SMOKE_ROUNDS } else { RECORD_ROUNDS };
    let smoke = measure_section(BenchScale::Tiny, tiny_rounds, pool_threads);
    let full = (!smoke_only).then(|| {
        eprintln!("bench_e2e: full section (bench scale)...");
        measure_section(BenchScale::Bench, BENCH_ROUNDS, pool_threads)
    });

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
                ("pool_threads", pool_threads.into()),
                ("knobs", Json::obj(knobs().entries().map(|(name, value)| (name, value.into())))),
            ]),
        ),
        ("sections", Json::obj(sections)),
    ]);

    for s in [Some(&smoke), full.as_ref()].into_iter().flatten() {
        eprintln!(
            "-- {} scale: {} cells, {} gate rounds, {} table rounds --",
            s.scale_label,
            s.table.len(),
            s.rounds.gate,
            s.rounds.table
        );
        for (axis, ((_, key), entries)) in AXES.iter().zip(&s.axes).enumerate() {
            for e in entries {
                let (blocks, wall_ms) = s.totals(e);
                let extras: Vec<String> = s
                    .extras(axis, e)
                    .into_iter()
                    .map(|(k, v)| match v {
                        Json::F64(x) => format!("{k} {x:.4}"),
                        Json::Str(text) => format!("{k} {text}"),
                        v => format!("{k} {}", v.render()),
                    })
                    .collect();
                eprintln!(
                    "{key:<8} {:<11} {:>9} blocks {:>8.1} ms {:>10.0} blocks/s  {}",
                    e.name,
                    blocks,
                    wall_ms,
                    blocks_per_sec(blocks, wall_ms),
                    extras.join(", ")
                );
            }
        }
        let curve = s.curve();
        let points: Vec<String> = curve
            .iter()
            .map(|&(threads, ms)| format!("{threads}T {ms:.0} ms ({:.2}x)", curve[0].1 / ms))
            .collect();
        eprintln!(
            "scaling ({} jobs, host width {host_width}): {}",
            s.one_thread().1,
            points.join("  ")
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
            (20, 10),
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
        assert_eq!(Baseline::read(&committed(20)).unwrap().host_width, Some(2));
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

    /// Ten workloads' baseline rates, spread like the tiny suite's.
    const BASE: [f64; 10] = [1.3e5, 5.3e4, 2.7e4, 6.2e4, 5.0e4, 2.2e5, 1.6e5, 2.9e5, 3.0e5, 4.6e5];

    /// `n` rounds of rates at `speed` times the baseline, with `slow`
    /// (a workload index) slowed by `factor` in every round.
    fn rounds_at(speed: f64, n: usize, slow: Option<(usize, f64)>) -> Vec<Vec<f64>> {
        let round = |_| {
            let mut rates: Vec<f64> = BASE.iter().map(|b| b * speed).collect();
            if let Some((w, factor)) = slow {
                rates[w] /= factor;
            }
            rates
        };
        (0..n).map(round).collect()
    }

    #[test]
    fn a_uniform_drift_cancels() {
        for speed in [0.5, 2.0] {
            let (machine_speed, calibrated) = calibrate(&rounds_at(speed, 7, None), &BASE);
            assert!((machine_speed - speed).abs() < 1e-9, "{machine_speed}");
            assert!(calibrated.iter().all(|c| (c - 1.0).abs() < 1e-9), "{calibrated:?}");
        }
    }

    #[test]
    fn a_one_and_a_half_times_slowdown_of_one_workload_fails_it_alone() {
        let (_, calibrated) = calibrate(&rounds_at(2.0, 7, Some((2, 1.5))), &BASE);
        for (w, c) in calibrated.iter().enumerate() {
            assert_eq!(*c < GATE_FRACTION, w == 2, "workload {w}: {calibrated:?}");
        }
        assert!((calibrated[2] - 1.0 / 1.5).abs() < 1e-9, "{calibrated:?}");
    }

    #[test]
    fn one_wild_round_does_not_flip_a_workload() {
        let mut rounds = rounds_at(1.0, 7, None);
        // One round where half the suite ran at a third of its speed and
        // one workload at a tenth.
        for rate in &mut rounds[3][..5] {
            *rate /= 3.0;
        }
        rounds[3][7] /= 10.0;
        let (machine_speed, calibrated) = calibrate(&rounds, &BASE);
        assert!((machine_speed - 1.0).abs() < 1e-9, "{machine_speed}");
        assert!(calibrated.iter().all(|c| (c - 1.0).abs() < 1e-9), "{calibrated:?}");
    }

    #[test]
    fn a_rendered_section_parses_back_to_the_same_rates() {
        let timed = |workload, design, layout, backend, blocks: u64, samples_ms: Vec<f64>| {
            let mut metrics = RunMetrics::default();
            metrics.counters.traffic.approx_read_bytes =
                blocks * avr_types::addr::BLOCK_BYTES as u64;
            metrics.counters.faults.injected_bit_flips = 9;
            metrics.counters.memo.in_hits = 5;
            metrics.approx_blocks = 400;
            metrics.compressible_blocks = 101;
            metrics.output_error = 0.07;
            Timed { cell: Cell { workload, design, layout, backend }, metrics, samples_ms }
        };
        let (avr, soa, exact) = (DesignKind::Avr, LayoutKind::Soa, BackendKind::Exact);
        let entry = |name, cells| Entry { name, cells };
        let s = Section {
            scale_label: "tiny",
            rounds: Rounds { gate: 3, table: 1 },
            table: vec![
                timed(0, avr, soa, exact, 761, vec![3.7, 3.5, 4.9]),
                timed(0, avr, soa, BackendKind::RelaxedDram, 770, vec![4.1]),
                timed(0, avr, LayoutKind::Aos, exact, 5000, vec![33.3]),
                timed(0, DesignKind::MemoIn, soa, exact, 3001, vec![0.9]),
            ],
            axes: [
                vec![entry("heat", vec![0])],
                vec![entry("exact", vec![0]), entry("relaxed", vec![1])],
                vec![entry("aos", vec![2])],
                vec![entry("AVR", vec![0]), entry("memoin", vec![3])],
            ],
            pooled: vec![(2, 2.5), (4, 2.0)],
        };
        let doc = Json::obj([("sections", Json::obj([("smoke", section_json(&s))]))]);
        let b = Baseline::read(&Json::parse(&doc.render()).unwrap()).unwrap();
        let rate =
            |name: &str, blocks: u64, ms: f64| (name.to_string(), blocks_per_sec(blocks, ms));
        assert_eq!(b.axes[0], vec![rate("heat", 761, 3.7)], "the median of three samples");
        assert_eq!(b.axes[1], vec![rate("exact", 761, 3.7), rate("relaxed", 770, 4.1)]);
        assert_eq!(b.axes[2], vec![rate("aos", 5000, 33.3)]);
        assert_eq!(b.axes[3], vec![rate("AVR", 761, 3.7), rate("memoin", 3001, 0.9)]);
        assert!(b.drift(&axis_names(&s)).is_empty());
        assert_eq!(s.curve(), vec![(1, 3.7 + 0.9), (2, 2.5), (4, 2.0)]);
        assert_eq!(
            s.gate_rates(),
            vec![
                vec![blocks_per_sec(761, 3.7)],
                vec![blocks_per_sec(761, 3.5)],
                vec![blocks_per_sec(761, 4.9)]
            ]
        );
    }
}
