//! The traced run: per-layer host time measured from outside the layers.
//!
//! Untraced passes, then traced passes in which every cell's `System` is
//! wrapped in a [`TimedVm`] and `golden_run`, `System::new` and
//! `System::finish` are timed around it. Every non-baseline cell also runs
//! its baseline-design twin, so a design's share of `Vm` time shows by
//! subtraction. Each cell keeps its fastest execution of
//! each kind. The codec is timed by replaying `compress`/`decompress` on
//! the approximable blocks of each program's exact-execution memory, and
//! the server workload adds timed client calls. The simulated counters
//! come from the same cells; the traced cells must reproduce the untraced
//! digests.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use avr_compress::{compress, decompress, Thresholds};
use avr_core::{DesignKind, ExactVm, SimPool, System};
use avr_server::{metrics_to_json, result_event, Json};
use avr_sim::RunMetrics;
use avr_types::CellSpec;
use avr_workloads::runner::GOLDEN_CELL_BOOST;
use avr_workloads::{golden, golden_run, mean_relative_error};

use crate::measure::{panic_message, run_batch, run_cell, Batch};
use crate::pins::Checker;
use crate::plan::{cell_label, shuffled, Resolved, Setup, WorkloadKind};
use crate::probe::probe_ms;
use crate::report::Report;
use crate::stats::{median, Summary};
use crate::timed_vm::{calibrate_timer_ns, Family, TimedVm, VmStats};

/// Every per-layer metric: name, unit, and which direction is better.
/// Layers are named after the crates (`bench` is this harness).
pub const PER_LAYER: [(&str, &str, &str); 62] = [
    ("bench.timer_ns", "ns", "lower"),
    ("bench.probe_ms", "ms", "lower"),
    ("bench.trace_overhead_frac", "fraction", "lower"),
    ("workloads.compute_ms", "ms", "lower"),
    ("workloads.compute_share", "fraction", "lower"),
    ("workloads.golden_cold_ms", "ms", "lower"),
    ("core.vm_ms", "ms", "lower"),
    ("core.vm_share", "fraction", "lower"),
    ("core.vm.ns_per_call", "ns", "lower"),
    ("core.vm.word.calls", "count", "lower"),
    ("core.vm.word.share", "fraction", "lower"),
    ("core.vm.contig.calls", "count", "lower"),
    ("core.vm.contig.share", "fraction", "lower"),
    ("core.vm.strided.calls", "count", "lower"),
    ("core.vm.strided.share", "fraction", "lower"),
    ("core.vm.gather.calls", "count", "lower"),
    ("core.vm.gather.share", "fraction", "lower"),
    ("core.vm.rmw.calls", "count", "lower"),
    ("core.vm.rmw.share", "fraction", "lower"),
    ("core.vm.compute.calls", "count", "lower"),
    ("core.vm.compute.share", "fraction", "lower"),
    ("core.vm.alloc.calls", "count", "lower"),
    ("core.vm.alloc.share", "fraction", "lower"),
    ("core.new_ms", "ms", "lower"),
    ("core.finish_ms", "ms", "lower"),
    ("design.extra_ms", "ms", "lower"),
    ("design.AVR.extra_share", "fraction", "lower"),
    ("design.dganger.extra_share", "fraction", "lower"),
    ("design.memoin.extra_share", "fraction", "lower"),
    ("design.memoout.extra_share", "fraction", "lower"),
    ("memo.in_hit_ratio", "fraction", "higher"),
    ("memo.in_served", "count", "higher"),
    ("memo.out_elide_ratio", "fraction", "higher"),
    ("cache.llc_requests", "count", "lower"),
    ("cache.llc_misses", "count", "lower"),
    ("cache.llc_hit_ratio", "fraction", "higher"),
    ("cache.vm_ns_per_llc_request", "ns", "lower"),
    ("cache.approx.miss", "count", "lower"),
    ("cache.approx.dbuf_hit", "count", "higher"),
    ("cache.approx.compressed_hit", "count", "higher"),
    ("cache.evict.recompress", "count", "lower"),
    ("cache.evict.lazy_writeback", "count", "lower"),
    ("compress.compress_ns_per_block", "ns", "lower"),
    ("compress.decompress_ns_per_block", "ns", "lower"),
    ("compress.replay_blocks", "count", "higher"),
    ("compress.accept_ratio", "fraction", "higher"),
    ("compress.blocks_compressed", "count", "higher"),
    ("compress.blocks_decompressed", "count", "lower"),
    ("compress.failures", "count", "lower"),
    ("compress.est_share", "fraction", "lower"),
    ("dram.read_mb", "MB", "lower"),
    ("dram.write_mb", "MB", "lower"),
    ("dram.metadata_mb", "MB", "lower"),
    ("sim.instructions", "count", "lower"),
    ("sim.cycles", "count", "lower"),
    ("sim.ipc", "instr/cycle", "higher"),
    ("pool.makespan_over_ideal", "ratio", "lower"),
    ("server.render_us_per_cell", "us", "lower"),
    ("server.parse_us_per_event", "us", "lower"),
    ("server.bytes_per_event", "bytes", "lower"),
    ("server.wire_overhead_frac", "fraction", "lower"),
    ("server.golden_hits", "count", "higher"),
];

/// The designs whose extra `Vm` time over the baseline twin is reported.
const EXTRA_DESIGNS: [(DesignKind, &str); 4] = [
    (DesignKind::Avr, "design.AVR.extra_share"),
    (DesignKind::Doppelganger, "design.dganger.extra_share"),
    (DesignKind::MemoIn, "design.memoin.extra_share"),
    (DesignKind::MemoOut, "design.memoout.extra_share"),
];

const FAMILY_METRICS: [(&str, &str); 7] = [
    ("core.vm.word.calls", "core.vm.word.share"),
    ("core.vm.contig.calls", "core.vm.contig.share"),
    ("core.vm.strided.calls", "core.vm.strided.share"),
    ("core.vm.gather.calls", "core.vm.gather.share"),
    ("core.vm.rmw.calls", "core.vm.rmw.share"),
    ("core.vm.compute.calls", "core.vm.compute.share"),
    ("core.vm.alloc.calls", "core.vm.alloc.share"),
];

/// Approximable blocks replayed through the codec per program (an even
/// sample when a program has more).
const REPLAY_BLOCKS: usize = 16_384;

/// Passes of each kind (untraced, traced, twins): at least
/// `TRACE_PASSES`, and more while they total under `TRACE_WARM`, because
/// short tiny-scale passes run slow for the first second of a process.
const TRACE_PASSES: usize = 2;
const TRACE_WARM: Duration = Duration::from_secs(2);

/// Host-speed probes behind `bench.probe_ms`.
const PROBES: usize = 9;

/// Server batches the traced server run submits.
const TRACE_BATCHES: usize = 5;

/// Wire-render repetitions behind the server-layer timings.
const RENDER_REPS: usize = 5;

/// One traced cell: host nanoseconds per boundary and the metrics. Times
/// include the wrapper's own clock reads; `bench.timer_ns` and
/// `bench.trace_overhead_frac` say how much that is.
pub struct Traced {
    pub wall_ns: f64,
    pub golden_ns: f64,
    pub new_ns: f64,
    pub finish_ns: f64,
    pub vm: VmStats,
    pub metrics: RunMetrics,
}

impl Traced {
    fn vm_ns(&self) -> f64 {
        self.vm.total_ns() as f64
    }

    /// Workload host work: the cell wall minus every timed boundary.
    fn compute_ns(&self) -> f64 {
        self.wall_ns - self.golden_ns - self.new_ns - self.finish_ns - self.vm_ns()
    }
}

/// Run `r` exactly like `run_on_design_in`, with the boundaries timed.
pub fn trace_cell(r: &Resolved) -> Result<Traced, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let ns = |t: Instant| t.elapsed().as_nanos() as f64;
        let t0 = Instant::now();
        let golden = golden_run(r.workload.as_ref());
        let golden_ns = ns(t0);
        let t1 = Instant::now();
        let mut sys = System::new(r.cfg.clone(), r.spec.design);
        let new_ns = ns(t1);
        let mut timed = TimedVm::new(&mut sys);
        let out = r.workload.run_in(&mut timed, r.spec.layout);
        let vm = timed.stats;
        let t2 = Instant::now();
        let mut metrics = sys.finish(r.workload.name());
        let finish_ns = ns(t2);
        metrics.output_error = mean_relative_error(&golden, &out);
        drop(sys);
        Traced { wall_ns: ns(t0), golden_ns, new_ns, finish_ns, vm, metrics }
    }))
    .map_err(panic_message)
}

/// Scheduling weights like the server's: cost hint, with each program's
/// first cell boosted so golden runs start early. The grid runner and the
/// server compute these inline and export no helper, so the direct passes
/// repeat the rule to schedule cells as the server does.
fn weights(cells: &[Resolved]) -> Vec<u64> {
    let mut seen = Vec::new();
    cells
        .iter()
        .map(|c| {
            let hint = c.workload.cost_hint().max(1);
            let key = (c.spec.workload.clone(), c.spec.scale);
            if seen.contains(&key) {
                hint
            } else {
                seen.push(key);
                hint.saturating_mul(GOLDEN_CELL_BOOST)
            }
        })
        .collect()
}

/// Each cell's fastest execution over the passes, and the fastest pass's
/// wall and summed cell nanoseconds.
struct Fastest<T> {
    cells: Vec<T>,
    passes: usize,
    pass_ns: f64,
    pass_cells_ns: f64,
}

/// Run passes of `job` over `cells` on `pool` (see [`TRACE_PASSES`]),
/// handing every execution to `each` and keeping each cell's fastest.
fn fastest_of_passes<T: Send>(
    pool: &SimPool,
    cells: &[Resolved],
    job: impl Fn(&Resolved) -> T + Sync,
    time_ns: impl Fn(&T) -> f64,
    mut each: impl FnMut(usize, &T),
) -> Fastest<T> {
    let weight = weights(cells);
    let mut best =
        Fastest { cells: Vec::new(), passes: 0, pass_ns: f64::INFINITY, pass_cells_ns: 0.0 };
    let start = Instant::now();
    while best.passes < TRACE_PASSES || start.elapsed() < TRACE_WARM {
        best.passes += 1;
        let t0 = Instant::now();
        let runs = pool.run_jobs_weighted(cells.len(), |i| weight[i], |ctx| job(&cells[ctx.index]));
        let wall_ns = t0.elapsed().as_nanos() as f64;
        for (i, r) in runs.iter().enumerate() {
            each(i, r);
        }
        if wall_ns < best.pass_ns {
            best.pass_ns = wall_ns;
            best.pass_cells_ns = runs.iter().map(&time_ns).sum();
        }
        if best.cells.is_empty() {
            best.cells = runs;
        } else {
            for (b, r) in best.cells.iter_mut().zip(runs) {
                if time_ns(&r) < time_ns(b) {
                    *b = r;
                }
            }
        }
    }
    best
}

/// A traced execution's wall, or infinity for one that panicked.
fn traced_ns(t: &Result<Traced, String>) -> f64 {
    t.as_ref().map_or(f64::INFINITY, |t| t.wall_ns)
}

/// Codec replay totals.
#[derive(Default)]
struct Replay {
    blocks: u64,
    accepted: u64,
    compress_ns: f64,
    decompress_ns: f64,
}

/// Replay the codec on the approximable blocks of each distinct program's
/// exact-execution memory, in the layout the workload runs it in.
fn codec_replay(cells: &[Resolved]) -> Replay {
    let mut replay = Replay::default();
    let mut seen = Vec::new();
    for c in cells {
        let key = (c.spec.workload.clone(), c.spec.scale, c.spec.layout);
        if seen.contains(&key) {
            continue;
        }
        seen.push(key);
        let mut vm = ExactVm::new();
        c.workload.run_in(&mut vm, c.spec.layout);
        let th = Thresholds::new(c.cfg.avr.t1, c.cfg.avr.t2);
        let max_lines = c.cfg.avr.max_compressed_lines;
        let blocks: Vec<_> = vm.space.approx_blocks().collect();
        let step = blocks.len().div_ceil(REPLAY_BLOCKS).max(1);
        for &(block, dt) in blocks.iter().step_by(step) {
            let data = vm.mem.read_block(block);
            let t0 = Instant::now();
            let outcome = compress(&data, dt, &th, max_lines);
            replay.compress_ns += t0.elapsed().as_nanos() as f64;
            replay.blocks += 1;
            if let Ok(o) = outcome {
                let t1 = Instant::now();
                std::hint::black_box(decompress(&o.compressed));
                replay.decompress_ns += t1.elapsed().as_nanos() as f64;
                replay.accepted += 1;
            }
        }
    }
    replay
}

/// Server-layer cost of this workload's results: render each cell's
/// result event and parse it back, as the server and client do. Returns
/// microseconds per render and per parse, and bytes per event.
fn wire_costs(results: &[(&CellSpec, &RunMetrics)]) -> (f64, f64, f64) {
    let mut render_us = Vec::new();
    let mut parse_us = Vec::new();
    let mut bytes = 0usize;
    let n = results.len().max(1) as f64;
    for _ in 0..RENDER_REPS {
        let (mut render_ns, mut parse_ns) = (0.0, 0.0);
        bytes = 0;
        for (i, (spec, m)) in results.iter().enumerate() {
            let t0 = Instant::now();
            let line = result_event(1, i, spec, m);
            render_ns += t0.elapsed().as_nanos() as f64;
            let t1 = Instant::now();
            let parsed = Json::parse(&line);
            parse_ns += t1.elapsed().as_nanos() as f64;
            assert!(parsed.is_ok(), "a rendered result event must parse");
            bytes += line.len();
        }
        render_us.push(render_ns / n / 1e3);
        parse_us.push(parse_ns / n / 1e3);
    }
    (median(&render_us), median(&parse_us), bytes as f64 / n)
}

/// Where a cell's baseline twin ran: in the batch itself, or as an extra.
enum TwinRef {
    Batch(usize),
    Extra(usize),
}

/// The traced run of `kind`.
pub fn run(kind: WorkloadKind, seed: u64) -> std::io::Result<Report> {
    let timer_ns = calibrate_timer_ns();
    let probe_ms = median(&(0..PROBES).map(|_| probe_ms()).collect::<Vec<_>>());
    let (mut setup, _) = Setup::timed(kind)?;
    let cells = &setup.cells;
    let n = cells.len();
    let mut report = Report::new(kind, "trace", seed, 0.0, n);
    let mut checker = Checker::new(kind, n);
    let pool = SimPool::new(kind.pool_threads());

    // Every execution is checked, so the traced cells must reproduce the
    // untraced digests.
    let hits0 = golden::stats::hits();
    let untraced = fastest_of_passes(
        &pool,
        cells,
        run_cell,
        |r| r.secs * 1e9,
        |i, r| {
            checker.check(i, &cells[i].spec, &r.result);
        },
    );
    let golden_hits = (golden::stats::hits() - hits0) / untraced.passes as u64;
    let traced = fastest_of_passes(&pool, cells, trace_cell, traced_ns, |i, t| {
        let outcome = t.as_ref().map(|t| t.metrics.clone()).map_err(Clone::clone);
        checker.check(i, &cells[i].spec, &outcome);
    });
    let ok: Vec<(usize, &Traced)> =
        traced.cells.iter().enumerate().filter_map(|(i, t)| Some((i, t.as_ref().ok()?))).collect();

    // Twins: the baseline design for every non-baseline cell (the server
    // batch carries its own).
    let in_batch_baseline = |c: &Resolved| {
        cells.iter().position(|b| {
            b.spec.design == DesignKind::Baseline
                && (&b.spec.workload, b.spec.layout, b.spec.backend)
                    == (&c.spec.workload, c.spec.layout, c.spec.backend)
        })
    };
    let mut twins: Vec<Resolved> = Vec::new();
    let mut base_twin: Vec<Option<TwinRef>> = Vec::with_capacity(n);
    for c in cells {
        base_twin.push(match (c.spec.design, in_batch_baseline(c)) {
            (DesignKind::Baseline, _) => None,
            (_, Some(j)) => Some(TwinRef::Batch(j)),
            (_, None) => {
                twins.push(c.twin(DesignKind::Baseline));
                Some(TwinRef::Extra(twins.len() - 1))
            }
        });
    }
    let twin_runs = fastest_of_passes(&pool, &twins, trace_cell, traced_ns, |i, t| {
        checker.attempted += 1;
        if let Err(panic) = t {
            checker.fail(format!("{} (twin): panicked: {panic}", cell_label(&twins[i].spec)));
        }
    });
    let twin = |r: &TwinRef| match *r {
        TwinRef::Batch(j) => traced.cells[j].as_ref().ok(),
        TwinRef::Extra(j) => twin_runs.cells[j].as_ref().ok(),
    };

    let replay = codec_replay(cells);

    // Server: a few timed batches through the wire.
    let mut server_batches: Vec<Batch> = Vec::new();
    if let Some(server) = setup.server.as_mut() {
        let reference: Vec<Option<String>> = untraced
            .cells
            .iter()
            .map(|r| r.result.as_ref().ok().map(|m| metrics_to_json(m).render()))
            .collect();
        let mut rng = seed;
        for _ in 0..TRACE_BATCHES {
            let order = shuffled(n, &mut rng);
            match run_batch(&mut server.client, cells, &order, &reference, &mut checker) {
                Some(b) => server_batches.push(b),
                None => break,
            }
        }
    }

    // ---- per-layer metrics ----
    let sum = |f: &dyn Fn(&Traced) -> f64| ok.iter().map(|(_, t)| f(t)).sum::<f64>();
    let count = |f: &dyn Fn(&RunMetrics) -> u64| ok.iter().map(|(_, t)| f(&t.metrics)).sum::<u64>();
    let wall = sum(&|t| t.wall_ns);
    let vm_ns = sum(&|t| t.vm_ns());
    let mut vm_total = VmStats::default();
    for (_, t) in &ok {
        vm_total.merge(&t.vm);
    }
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut v: HashMap<&'static str, f64> = HashMap::new();
    v.insert("bench.timer_ns", timer_ns);
    v.insert("bench.probe_ms", probe_ms);
    let untraced_ns: f64 = ok.iter().map(|&(i, _)| untraced.cells[i].secs * 1e9).sum();
    v.insert("bench.trace_overhead_frac", ratio(wall, untraced_ns) - 1.0);
    v.insert("workloads.compute_ms", sum(&|t| t.compute_ns()) / 1e6);
    v.insert("workloads.compute_share", ratio(sum(&|t| t.compute_ns()), wall));
    v.insert("workloads.golden_cold_ms", setup.golden_ms.iter().map(|(_, ms)| ms).sum());
    v.insert("core.vm_ms", vm_ns / 1e6);
    v.insert("core.vm_share", ratio(vm_ns, wall));
    v.insert("core.vm.ns_per_call", ratio(vm_ns, vm_total.calls() as f64));
    for (fam, (calls, share)) in Family::ALL.iter().zip(FAMILY_METRICS) {
        let f = vm_total.get(*fam);
        v.insert(calls, f.calls as f64);
        v.insert(share, ratio(f.ns as f64, vm_ns));
    }
    v.insert("core.new_ms", sum(&|t| t.new_ns) / 1e6);
    v.insert("core.finish_ms", sum(&|t| t.finish_ns) / 1e6);

    let mut extra_ns = 0.0;
    for (design, name) in EXTRA_DESIGNS {
        let (mut extra, mut cell_wall) = (0.0, 0.0);
        for &(i, t) in ok.iter().filter(|(i, _)| cells[*i].spec.design == design) {
            if let Some(base) = base_twin[i].as_ref().and_then(twin) {
                extra += t.vm_ns() - base.vm_ns();
                cell_wall += t.wall_ns;
            }
        }
        extra_ns += extra;
        v.insert(name, ratio(extra, cell_wall));
    }
    v.insert("design.extra_ms", extra_ns / 1e6);
    let memo = |f: &dyn Fn(&avr_sim::MemoBreakdown) -> u64| count(&|m| f(&m.counters.memo)) as f64;
    v.insert("memo.in_hit_ratio", ratio(memo(&|m| m.in_hits), memo(&|m| m.in_probes)));
    v.insert("memo.in_served", memo(&|m| m.in_served));
    v.insert("memo.out_elide_ratio", ratio(memo(&|m| m.out_elided), memo(&|m| m.out_windows)));

    let requests = count(&|m| m.counters.llc_requests_total) as f64;
    let misses = count(&|m| m.counters.llc_misses_total) as f64;
    v.insert("cache.llc_requests", requests);
    v.insert("cache.llc_misses", misses);
    v.insert("cache.llc_hit_ratio", 1.0 - ratio(misses, requests));
    v.insert("cache.vm_ns_per_llc_request", ratio(vm_ns, requests));
    v.insert("cache.approx.miss", count(&|m| m.counters.approx_requests.miss) as f64);
    v.insert("cache.approx.dbuf_hit", count(&|m| m.counters.approx_requests.dbuf_hit) as f64);
    v.insert(
        "cache.approx.compressed_hit",
        count(&|m| m.counters.approx_requests.compressed_hit) as f64,
    );
    v.insert("cache.evict.recompress", count(&|m| m.counters.evictions.recompress) as f64);
    v.insert("cache.evict.lazy_writeback", count(&|m| m.counters.evictions.lazy_writeback) as f64);

    let compress_ns = ratio(replay.compress_ns, replay.blocks as f64);
    let compressed = count(&|m| m.counters.blocks_compressed) as f64;
    let failures = count(&|m| m.counters.compression_failures) as f64;
    // The simulation's host codec calls: every compression attempt during
    // the run plus the end-of-run summary scan over every approximable
    // block. Decompression is modelled, not executed: a compression call
    // already yields the reconstructed values.
    let attempts = compressed + failures + count(&|m| m.approx_blocks) as f64;
    v.insert("compress.compress_ns_per_block", compress_ns);
    v.insert(
        "compress.decompress_ns_per_block",
        ratio(replay.decompress_ns, replay.accepted as f64),
    );
    v.insert("compress.replay_blocks", replay.blocks as f64);
    v.insert("compress.accept_ratio", ratio(replay.accepted as f64, replay.blocks as f64));
    v.insert("compress.blocks_compressed", compressed);
    v.insert("compress.blocks_decompressed", count(&|m| m.counters.blocks_decompressed) as f64);
    v.insert("compress.failures", failures);
    v.insert("compress.est_share", ratio(attempts * compress_ns, wall));

    let traffic = |f: &dyn Fn(&avr_sim::Traffic) -> u64| count(&|m| f(&m.counters.traffic)) as f64;
    v.insert("dram.read_mb", traffic(&|t| t.approx_read_bytes + t.nonapprox_read_bytes) / 1e6);
    v.insert("dram.write_mb", traffic(&|t| t.approx_write_bytes + t.nonapprox_write_bytes) / 1e6);
    v.insert("dram.metadata_mb", traffic(&|t| t.metadata_bytes) / 1e6);

    let instructions = count(&|m| m.counters.instructions) as f64;
    let cycles = count(&|m| m.cycles) as f64;
    v.insert("sim.instructions", instructions);
    v.insert("sim.cycles", cycles);
    v.insert("sim.ipc", ratio(instructions, cycles));

    let ideal_ns = untraced.pass_cells_ns / pool.threads() as f64;
    v.insert("pool.makespan_over_ideal", ratio(untraced.pass_ns, ideal_ns));

    let results: Vec<_> = ok.iter().map(|&(i, t)| (&cells[i].spec, &t.metrics)).collect();
    let (render_us, parse_us, bytes) = wire_costs(&results);
    v.insert("server.render_us_per_cell", render_us);
    v.insert("server.parse_us_per_event", parse_us);
    v.insert("server.bytes_per_event", bytes);
    let server_ns = server_batches.iter().map(|b| b.wall_s * 1e9).fold(f64::INFINITY, f64::min);
    let wire_overhead =
        if server_batches.is_empty() { 0.0 } else { server_ns / untraced.pass_ns - 1.0 };
    v.insert("server.wire_overhead_frac", wire_overhead);
    v.insert("server.golden_hits", golden_hits as f64);

    report.metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| {
            let value = *v.get(name).unwrap_or_else(|| panic!("per-layer metric {name} unset"));
            (name, unit, Summary::single(value))
        })
        .collect();
    report.passes = traced.passes;
    report.golden_ms = setup.golden_ms.clone();

    // ---- detail: the per-cell breakdown behind the totals ----
    let cell_rows = ok
        .iter()
        .map(|&(i, t)| {
            let mut row = vec![
                ("cell", Json::from(cell_label(&cells[i].spec))),
                ("wall_ms", Json::from(t.wall_ns / 1e6)),
                ("untraced_ms", Json::from(untraced.cells[i].secs * 1e3)),
                ("golden_ms", Json::from(t.golden_ns / 1e6)),
                ("new_ms", Json::from(t.new_ns / 1e6)),
                ("vm_ms", Json::from(t.vm_ns() / 1e6)),
                ("finish_ms", Json::from(t.finish_ns / 1e6)),
                ("compute_ms", Json::from(t.compute_ns() / 1e6)),
                (
                    "vm_calls",
                    Json::obj(Family::ALL.map(|f| (f.label(), Json::from(t.vm.get(f).calls)))),
                ),
            ];
            if let Some(base) = base_twin[i].as_ref().and_then(twin) {
                row.push(("baseline_twin_vm_ms", Json::from(base.vm_ns() / 1e6)));
            }
            Json::obj(row)
        })
        .collect();
    report.detail.push(("cells".to_string(), Json::Arr(cell_rows)));
    if !server_batches.is_empty() {
        let ms = |f: &dyn Fn(&Batch) -> f64| {
            Json::from(median(&server_batches.iter().map(f).collect::<Vec<_>>()))
        };
        report.detail.push((
            "server".to_string(),
            Json::obj([
                ("batches", Json::from(server_batches.len())),
                ("batch_ms", ms(&|b| b.wall_s * 1e3)),
                ("direct_batch_ms", Json::from(untraced.pass_ns / 1e6)),
                ("submit_ack_ms", ms(&|b| b.ack_ms)),
                ("next_event_us", ms(&|b| b.event_us)),
            ]),
        ));
    }
    if let Some(server) = setup.server.take() {
        server.stop()?;
    }
    report.set_failures(checker);
    Ok(report)
}
