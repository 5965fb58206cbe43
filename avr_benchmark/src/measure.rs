//! The untraced run: set up, measure whole passes for the run's time
//! budget, and summarize the end-to-end metrics.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use avr_core::SimPool;
use avr_server::{metrics_to_json, Json};
use avr_sim::RunMetrics;
use avr_types::addr::BLOCK_BYTES;
use avr_workloads::run_on_design_in;

use crate::pins::Checker;
use crate::plan::{cell_label, shuffled, Resolved, Setup, WorkloadKind};
use crate::probe::{self, probe_ms};
use crate::report::{peak_rss_mb, Report, END_TO_END};
use crate::stats::{percentile, Summary};

/// Set-ups timed before the first pass. One more is timed before every
/// pass, so `setup_s`, the median of all of them, samples the host under
/// the same conditions as the passes: on the 2-core development host a
/// process sometimes ran 45 % slower for a while (the other tenants' load
/// moves between cores), and set-ups timed back to back at the start of a
/// run all landed on one side of that.
const FIRST_SETUPS: usize = 3;
/// Passes a run measures however long they take. Peak memory is read
/// after this many, so that it covers the same work on a slow host as on
/// a fast one: the server keeps every finished batch's results, so its
/// peak grows with the number of batches.
const MIN_PASSES: usize = 3;

/// One cell execution: host seconds and the metrics, or the panic message.
pub struct CellRun {
    pub secs: f64,
    pub result: Result<RunMetrics, String>,
}

/// Run one cell exactly as the library's grid does, isolating a panic.
pub fn run_cell(r: &Resolved) -> CellRun {
    let t0 = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_on_design_in(r.workload.as_ref(), &r.cfg, r.spec.design, r.spec.layout)
    }))
    .map_err(panic_message);
    CellRun { secs: t0.elapsed().as_secs_f64(), result }
}

pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Simulated 1 KB DRAM blocks a run moved.
fn sim_blocks(m: &RunMetrics) -> u64 {
    m.counters.traffic.total().div_ceil(BLOCK_BYTES as u64)
}

/// One measured pass: a batch of every cell, run directly on the pool or
/// submitted to the server.
struct Pass {
    /// Wall seconds, scaled to the reference host.
    wall_s: f64,
    /// Per cell in canonical order: ms from the start of the pass to the
    /// cell's result, scaled to the reference host (`NaN` where the cell
    /// produced no result).
    cell_ms: Vec<f64>,
    /// Unscaled wall seconds.
    raw_wall_s: f64,
    /// The probe times (ms) that scaled it: one before each cell and one
    /// after the last for a batch workload, one before and one after a
    /// server batch.
    probe_ms: Vec<f64>,
}

/// What a run measured: its passes; each cell's simulated result from its
/// first passing execution (the digest check makes every pass agree with
/// it); and the peak memory after [`MIN_PASSES`] passes.
struct Samples {
    passes: Vec<Pass>,
    results: Vec<Option<RunMetrics>>,
    rss_mb: Option<f64>,
}

impl Samples {
    fn new(cells: usize) -> Samples {
        Samples { passes: Vec::new(), results: vec![None; cells], rss_mb: None }
    }

    fn passes(&self) -> usize {
        self.passes.len()
    }

    fn record_result(&mut self, i: usize, m: &RunMetrics) {
        if self.results[i].is_none() {
            self.results[i] = Some(m.clone());
        }
    }

    fn push(&mut self, pass: Pass) {
        self.passes.push(pass);
        if self.passes() == MIN_PASSES {
            self.rss_mb = Some(peak_rss_mb());
        }
    }

    fn blocks(&self) -> u64 {
        self.results.iter().flatten().map(sim_blocks).sum()
    }

    /// The end-to-end metrics in [`END_TO_END`] order. Each time is the
    /// median over the passes of a per-pass value: blocks over the pass's
    /// wall time, and the 50th and 99th percentile of its cells' latencies
    /// from the start of the pass. On the shared development host the
    /// other tenants' load slowed whole stretches of a run, and these
    /// medians moved less between runs than the fastest pass did (see the
    /// README).
    fn metrics(&self, setup_secs: &[f64]) -> Vec<(&'static str, &'static str, Summary)> {
        let blocks = self.blocks() as f64;
        let rates: Vec<f64> = self.passes.iter().map(|p| blocks / p.wall_s).collect();
        let latency = |q: f64| -> Vec<f64> {
            self.passes
                .iter()
                .map(|p| {
                    let ms: Vec<f64> =
                        p.cell_ms.iter().copied().filter(|v| v.is_finite()).collect();
                    percentile(&ms, q)
                })
                .collect()
        };
        let ok: Vec<&RunMetrics> = self.results.iter().flatten().collect();
        let traffic = ok.iter().map(|m| m.counters.traffic.total()).sum::<u64>() as f64 / 1e6;
        let error = ok.iter().map(|m| m.output_error).sum::<f64>() / ok.len().max(1) as f64;
        let summaries = [
            Summary::of(&rates),
            Summary::of(&latency(50.0)),
            Summary::of(&latency(99.0)),
            Summary::of(setup_secs),
            Summary::single(self.rss_mb.unwrap_or_else(peak_rss_mb)),
            Summary::single(traffic),
            Summary::single(error),
        ];
        END_TO_END.iter().zip(summaries).map(|(&(name, unit), s)| (name, unit, s)).collect()
    }

    /// The raw samples, for the report.
    fn to_json(&self) -> Json {
        let arr = |v: &[f64]| Json::Arr(v.iter().map(|&x| Json::from(x)).collect());
        let col = |f: &dyn Fn(&Pass) -> Json| Json::Arr(self.passes.iter().map(f).collect());
        Json::obj([
            ("wall_s", col(&|p| Json::from(p.wall_s))),
            ("cell_ms", col(&|p| arr(&p.cell_ms))),
            ("raw_wall_s", col(&|p| Json::from(p.raw_wall_s))),
            ("probe_ms", col(&|p| arr(&p.probe_ms))),
        ])
    }
}

/// Whether another pass starts: always for the first [`MIN_PASSES`], then
/// while one more pass of the average length so far, its set-up included,
/// ends within `budget` measured from `start`.
fn another_pass(start: Instant, budget: Duration, samples: &Samples) -> bool {
    let done = samples.passes() as u32;
    done < MIN_PASSES as u32 || start.elapsed() * (done + 1) / done <= budget
}

/// Set up from cold, returning the set-up and its seconds scaled to the
/// reference host.
fn scaled_setup(kind: WorkloadKind) -> std::io::Result<(Setup, f64)> {
    let before = probe_ms();
    let (setup, secs) = Setup::timed(kind)?;
    Ok((setup, secs * probe::scale(&[before, probe_ms()])))
}

/// The untraced run of `kind`, measuring for about `seconds`.
pub fn run(kind: WorkloadKind, seed: u64, seconds: f64) -> std::io::Result<Report> {
    let mut setup_secs = Vec::new();
    let mut kept: Option<Setup> = None;
    for _ in 0..FIRST_SETUPS {
        if let Some(old) = kept.take() {
            old.stop()?;
        }
        let (setup, secs) = scaled_setup(kind)?;
        setup_secs.push(secs);
        kept = Some(setup);
    }
    let mut setup = kept.expect("at least one set-up");
    let mut report = Report::new(kind, "run", seed, seconds, setup.cells.len());
    let mut checker = Checker::new(kind, setup.cells.len());
    let budget = Duration::from_secs_f64(seconds);
    let samples = if kind == WorkloadKind::ServerMixed {
        measure_server(&mut setup, seed, budget, &mut checker, &mut setup_secs)?
    } else {
        measure_batch(&setup, kind, budget, &mut checker, &mut setup_secs)?
    };
    report.passes = samples.passes();
    report.metrics = samples.metrics(&setup_secs);
    report.detail.push(("samples".to_string(), samples.to_json()));
    report.golden_ms = setup.golden_ms.clone();
    setup.stop()?;
    report.set_failures(checker);
    Ok(report)
}

/// Time one more cold set-up before a pass and discard it.
fn extra_setup(kind: WorkloadKind, setup_secs: &mut Vec<f64>) -> std::io::Result<()> {
    let (setup, secs) = scaled_setup(kind)?;
    setup_secs.push(secs);
    setup.stop()
}

/// Passes of the cells run directly on the workload's pool, like a batch
/// that is not sent through the server. The probe runs before every cell
/// and after the last.
fn measure_batch(
    setup: &Setup,
    kind: WorkloadKind,
    budget: Duration,
    checker: &mut Checker,
    setup_secs: &mut Vec<f64>,
) -> std::io::Result<Samples> {
    let pool = SimPool::new(kind.pool_threads());
    let cells = &setup.cells;
    let mut samples = Samples::new(cells.len());
    let start = Instant::now();
    while another_pass(start, budget, &samples) {
        extra_setup(kind, setup_secs)?;
        let runs = pool.run_jobs(cells.len(), |ctx| (probe_ms(), run_cell(&cells[ctx.index])));
        let mut probes: Vec<f64> = runs.iter().map(|(probe, _)| *probe).collect();
        probes.push(probe_ms());
        let scale = probe::scale(&probes);
        let mut done_s = 0.0;
        let mut cell_ms = Vec::with_capacity(cells.len());
        for (i, (_, run)) in runs.iter().enumerate() {
            done_s += run.secs;
            if let (true, Ok(m)) = (checker.check(i, &cells[i].spec, &run.result), &run.result) {
                samples.record_result(i, m);
                cell_ms.push(done_s * 1e3 * scale);
            } else {
                cell_ms.push(f64::NAN);
            }
        }
        samples.push(Pass {
            wall_s: done_s * scale,
            cell_ms,
            raw_wall_s: done_s,
            probe_ms: probes,
        });
    }
    Ok(samples)
}

/// The closed loop: one client submits the 70-cell batch in a
/// seed-shuffled order, waits for `job_done`, and repeats. Each wire result
/// must equal a direct run of the same cell; the direct runs and a first
/// verification batch are untimed. The probe runs before and after every
/// batch, on the client's thread while the server's workers are idle.
fn measure_server(
    setup: &mut Setup,
    seed: u64,
    budget: Duration,
    checker: &mut Checker,
    setup_secs: &mut Vec<f64>,
) -> std::io::Result<Samples> {
    let cells = &setup.cells;
    let client = &mut setup.server.as_mut().expect("server workload has a server").client;
    let mut samples = Samples::new(cells.len());
    let mut reference: Vec<Option<String>> = Vec::with_capacity(cells.len());
    for (i, c) in cells.iter().enumerate() {
        let run = run_cell(c);
        let ok = checker.check(i, &c.spec, &run.result);
        if let (true, Ok(m)) = (ok, &run.result) {
            samples.record_result(i, m);
        }
        reference.push(samples.results[i].as_ref().map(|m| metrics_to_json(m).render()));
    }
    let identity: Vec<usize> = (0..cells.len()).collect();
    if run_batch(client, cells, &identity, &reference, checker).is_none() {
        return Ok(samples);
    }
    let mut rng = seed;
    let start = Instant::now();
    while another_pass(start, budget, &samples) {
        extra_setup(WorkloadKind::ServerMixed, setup_secs)?;
        let order = shuffled(cells.len(), &mut rng);
        let before = probe_ms();
        let Some(batch) = run_batch(client, cells, &order, &reference, checker) else {
            break;
        };
        let probes = vec![before, probe_ms()];
        let scale = probe::scale(&probes);
        samples.push(Pass {
            wall_s: batch.wall_s * scale,
            cell_ms: batch.cell_ms.iter().map(|ms| ms * scale).collect(),
            raw_wall_s: batch.wall_s,
            probe_ms: probes,
        });
    }
    Ok(samples)
}

/// One server batch as the client saw it.
pub struct Batch {
    /// Submit-to-result milliseconds per cell in canonical cell order
    /// (`NaN` for a cell without a result).
    pub cell_ms: Vec<f64>,
    /// Submit to `job_done`.
    pub wall_s: f64,
    /// Submit to the server's ack.
    pub ack_ms: f64,
    /// Mean microseconds per `next_event` call.
    pub event_us: f64,
}

/// Submit the cells in `order` and collect the job's events, checking each
/// wire result against `reference`. `None` when the server stopped
/// answering; every unanswered cell is then counted failed.
pub fn run_batch(
    client: &mut avr_server::Client,
    cells: &[Resolved],
    order: &[usize],
    reference: &[Option<String>],
    checker: &mut Checker,
) -> Option<Batch> {
    let specs = order.iter().map(|&i| cells[i].spec.clone()).collect();
    checker.attempted += order.len() as u64;
    let t0 = Instant::now();
    let job = match client.submit(specs) {
        Ok(job) => job,
        Err(e) => {
            for &i in order {
                checker.fail(format!("{}: submit failed: {e}", cell_label(&cells[i].spec)));
            }
            return None;
        }
    };
    let ack_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut latency: Vec<Option<f64>> = vec![None; order.len()];
    let (mut events, mut event_ns) = (0u32, 0.0);
    loop {
        let t1 = Instant::now();
        let next = client.next_event();
        event_ns += t1.elapsed().as_nanos() as f64;
        events += 1;
        let event = match next {
            Ok(event) => event,
            Err(e) => {
                for (pos, &i) in order.iter().enumerate() {
                    if latency[pos].is_none() {
                        checker.fail(format!("{}: no result: {e}", cell_label(&cells[i].spec)));
                    }
                }
                return None;
            }
        };
        if event.get("job").and_then(Json::as_u64) != Some(job) {
            continue;
        }
        match event.get("event").and_then(Json::as_str) {
            Some("result") => {
                let ms = t0.elapsed().as_secs_f64() * 1e3;
                let Some(pos) = event.get("cell").and_then(Json::as_u64).map(|p| p as usize) else {
                    checker.fail("result event without a cell index".to_string());
                    continue;
                };
                let Some(&i) = order.get(pos) else {
                    checker.fail(format!("result for unknown cell {pos}"));
                    continue;
                };
                latency[pos] = Some(ms);
                let wire = event.get("metrics").map(Json::render);
                if reference[i].is_none() || wire != reference[i] {
                    checker.fail(format!(
                        "{}: wire result differs from the direct run",
                        cell_label(&cells[i].spec)
                    ));
                }
            }
            Some("job_done") => break,
            _ => {}
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let mut cell_ms = vec![f64::NAN; cells.len()];
    for (pos, &i) in order.iter().enumerate() {
        match latency[pos] {
            Some(ms) => cell_ms[i] = ms,
            None => checker.fail(format!("{}: missing result", cell_label(&cells[i].spec))),
        }
    }
    Some(Batch { cell_ms, wall_s, ack_ms, event_us: event_ns / f64::from(events) / 1e3 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(wall_s: f64, cell_ms: &[f64]) -> Pass {
        Pass { wall_s, cell_ms: cell_ms.to_vec(), raw_wall_s: wall_s, probe_ms: vec![2.0] }
    }

    /// Every time is the median over the passes of a per-pass value; a
    /// cell without a result drops out of its pass's percentiles; peak
    /// memory is read once the third pass is in.
    #[test]
    fn times_are_medians_over_passes() {
        let mut samples = Samples::new(2);
        let mut m = RunMetrics::default();
        m.counters.traffic.approx_read_bytes = 10 * BLOCK_BYTES as u64;
        samples.record_result(0, &m);
        samples.push(pass(1.0, &[100.0, 200.0]));
        samples.push(pass(2.0, &[300.0, f64::NAN]));
        assert!(samples.rss_mb.is_none());
        samples.push(pass(4.0, &[50.0, 60.0]));
        assert!(samples.rss_mb.is_some());

        let metrics = samples.metrics(&[0.1, 0.3, 0.2]);
        let value = |name: &str| metrics.iter().find(|(n, ..)| *n == name).unwrap().2.value;
        assert_eq!(value("sim_blocks_per_s"), 5.0); // 10 blocks over 1, 2 and 4 s
        assert_eq!(value("cell_ms_p50"), 150.0); // of 150, 300 and 55
        assert!((value("cell_ms_p99") - 199.0).abs() < 1e-9); // of 199, 300 and 59.9
        assert_eq!(value("setup_s"), 0.2);
    }

    /// The first passes always run; later ones only while one more pass of
    /// the average length so far fits in the budget.
    #[test]
    fn passes_fill_the_budget() {
        let mut samples = Samples::new(1);
        let ago = |s: u64| Instant::now().checked_sub(Duration::from_secs(s)).unwrap();
        let budget = Duration::from_secs(12);
        for _ in 0..MIN_PASSES - 1 {
            samples.push(pass(1.0, &[1.0]));
        }
        assert!(another_pass(ago(100), budget, &samples));
        samples.push(pass(1.0, &[1.0]));
        // Three passes in 8 s: a fourth would end at about 10.7 s.
        assert!(another_pass(ago(8), budget, &samples));
        // Three passes in 10 s: a fourth would end at about 13.3 s.
        assert!(!another_pass(ago(10), budget, &samples));
    }
}
