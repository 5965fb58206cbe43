//! The sweep server: a TCP accept loop, per-connection sessions, and one
//! engine thread that feeds submitted batches into a [`SimPool`].
//!
//! # Determinism contract
//!
//! A submitted batch produces results **bit-identical to running the same
//! cells serially** with `run_on_design_in` — at any worker width, any
//! submission interleaving, and across client disconnects. The contract
//! holds because
//!
//! * each cell is an independent deterministic simulation whose config is
//!   resolved from the cell spec alone ([`CellSpec::config`] pins the
//!   backend, so the server's own environment never leaks into results);
//! * the pool writes each cell's result into its own preallocated slot, so
//!   scheduling affects only *when* a cell finishes, never *what* it
//!   computes;
//! * result lines are rendered once, server-side, by the shared
//!   [`crate::proto`] encoder and stored per cell — every subscriber
//!   (including one that reconnects mid-batch) replays the same bytes.
//!
//! Batches run one at a time, in submission order, on the full pool —
//! cells within a batch are claimed heaviest-first by
//! [`Workload::cost_hint`], with the first cell of each distinct
//! (workload, scale) boosted so memoized golden runs compute early
//! (mirroring `run_grid_layouts`).

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use avr_core::{PoolControl, SimPool};
use avr_types::knobs::knobs;
use avr_types::{BenchScale, CellSpec, SystemConfig};
use avr_workloads::runner::GOLDEN_CELL_BOOST;
use avr_workloads::{golden, run_on_design_in, workload_by_name, workload_names, Workload};

use crate::json::Json;
use crate::proto::{self, Request};

/// The one scale → config mapping: what a cell's overrides apply to, and
/// what the bench harness's sweeps run on, so a wire cell with no
/// overrides is the exact config of the corresponding direct run. `bench`
/// is one core with its per-core share of the paper's hierarchy; `tiny`
/// pairs with a proportionally tiny hierarchy, so footprints still exceed
/// the LLC.
pub fn base_config(scale: BenchScale) -> SystemConfig {
    match scale {
        BenchScale::Tiny => SystemConfig::tiny(),
        BenchScale::Bench => SystemConfig::per_core_scaled(),
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Phase {
    Accepting,
    Draining,
    Shutdown,
}

impl Phase {
    fn label(self) -> &'static str {
        match self {
            Phase::Accepting => "accepting",
            Phase::Draining => "draining",
            Phase::Shutdown => "shutdown",
        }
    }
}

#[derive(Clone, Copy, Debug)]
enum JobPhase {
    Queued,
    Running,
    Done { completed: usize, cancelled: usize },
}

impl JobPhase {
    fn label(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Done { .. } => "done",
        }
    }
}

/// Everything the server remembers about one submitted batch. Results are
/// pre-rendered wire lines, stored per cell under `inner`'s lock — the
/// same lock that registers subscribers, so a replay-then-subscribe can
/// neither miss nor duplicate an event.
struct JobState {
    id: u64,
    tag: Option<String>,
    specs: Vec<CellSpec>,
    ctl: PoolControl,
    inner: Mutex<JobInner>,
}

struct JobInner {
    phase: JobPhase,
    results: Vec<Option<Arc<String>>>,
    done_line: Option<Arc<String>>,
    subs: Vec<mpsc::Sender<Arc<String>>>,
}

impl JobState {
    fn new(id: u64, tag: Option<String>, specs: Vec<CellSpec>) -> Self {
        let cells = specs.len();
        JobState {
            id,
            tag,
            specs,
            ctl: PoolControl::new(),
            inner: Mutex::new(JobInner {
                phase: JobPhase::Queued,
                results: vec![None; cells],
                done_line: None,
                subs: Vec::new(),
            }),
        }
    }

    /// Store a finished cell's wire line and fan it out to live
    /// subscribers; dead ones (writer gone) are pruned.
    fn publish(&self, cell: usize, line: String) {
        let mut inner = self.inner.lock().unwrap();
        let line = Arc::new(line);
        inner.results[cell] = Some(line.clone());
        inner.subs.retain(|tx| tx.send(line.clone()).is_ok());
    }

    /// Seal the job: record the terminal event and release subscribers.
    fn finish(&self, completed: usize, cancelled: usize) {
        let mut inner = self.inner.lock().unwrap();
        inner.phase = JobPhase::Done { completed, cancelled };
        let line = Arc::new(proto::job_done_event(self.id, completed, cancelled));
        inner.done_line = Some(line.clone());
        for tx in inner.subs.drain(..) {
            let _ = tx.send(line.clone());
        }
    }

    /// Replay finished cells with index >= `from` (ascending), then either
    /// deliver the terminal event (done jobs) or attach `tx` as a live
    /// subscriber. Atomic w.r.t. [`JobState::publish`], so a reconnecting
    /// client sees every event exactly once.
    fn subscribe(&self, from: usize, tx: &mpsc::Sender<Arc<String>>) {
        let mut inner = self.inner.lock().unwrap();
        for line in inner.results.iter().skip(from).flatten() {
            let _ = tx.send(line.clone());
        }
        if let JobPhase::Done { .. } = inner.phase {
            if let Some(done) = &inner.done_line {
                let _ = tx.send(done.clone());
            }
        } else {
            inner.subs.push(tx.clone());
        }
    }

    fn status_json(&self) -> Json {
        let inner = self.inner.lock().unwrap();
        let (completed, cancelled) = match inner.phase {
            JobPhase::Queued => (0, 0),
            JobPhase::Running => (self.ctl.finished(), 0),
            JobPhase::Done { completed, cancelled } => (completed, cancelled),
        };
        let mut fields = vec![
            ("job".to_string(), Json::from(self.id)),
            ("state".to_string(), Json::from(inner.phase.label())),
            ("cells".to_string(), Json::from(self.specs.len())),
            ("completed".to_string(), Json::from(completed)),
            ("cancelled".to_string(), Json::from(cancelled)),
        ];
        if let Some(tag) = &self.tag {
            fields.insert(1, ("tag".to_string(), Json::from(tag.as_str())));
        }
        Json::Obj(fields)
    }
}

struct QueueState {
    phase: Phase,
    queue: VecDeque<Arc<JobState>>,
}

struct ServerState {
    pool: SimPool,
    addr: SocketAddr,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    jobs: Mutex<BTreeMap<u64, Arc<JobState>>>,
    next_job: AtomicU64,
    current: Mutex<Option<Arc<JobState>>>,
    completed_cells: AtomicU64,
    worker_busy: Vec<AtomicBool>,
    worker_cells: Vec<AtomicU64>,
    engine_done: AtomicBool,
}

/// A bound-but-not-yet-running sweep server. [`SweepServer::run`] blocks
/// until a `drain` or `shutdown` request completes; [`SweepServer::spawn`]
/// does the same on a background thread.
pub struct SweepServer {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl SweepServer {
    /// Bind on `addr` (use port 0 for an OS-assigned port) with the
    /// default-width pool ([`SimPool::from_env`]: `AVR_THREADS`, else the
    /// host parallelism).
    pub fn bind(addr: &str) -> std::io::Result<SweepServer> {
        Self::bind_with(addr, SimPool::from_env())
    }

    /// Bind with an explicit pool (tests pin widths this way).
    pub fn bind_with(addr: &str, pool: SimPool) -> std::io::Result<SweepServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let threads = pool.threads();
        let state = Arc::new(ServerState {
            pool,
            addr,
            queue: Mutex::new(QueueState { phase: Phase::Accepting, queue: VecDeque::new() }),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(BTreeMap::new()),
            next_job: AtomicU64::new(0),
            current: Mutex::new(None),
            completed_cells: AtomicU64::new(0),
            worker_busy: (0..threads).map(|_| AtomicBool::new(false)).collect(),
            worker_cells: (0..threads).map(|_| AtomicU64::new(0)).collect(),
            engine_done: AtomicBool::new(false),
        });
        Ok(SweepServer { listener, state })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Pool width serving batches.
    pub fn threads(&self) -> usize {
        self.state.pool.threads()
    }

    /// Serve until drained or shut down. Each connection gets a reader
    /// (requests) and a writer (replies + subscribed events) thread;
    /// batches execute on the engine thread's pool, one at a time. Returns
    /// once every session has sent all it holds and closed its socket.
    pub fn run(self) -> std::io::Result<()> {
        let state = self.state;
        let engine = {
            let state = state.clone();
            thread::spawn(move || {
                engine_loop(&state);
                state.engine_done.store(true, Ordering::SeqCst);
                // Unblock the acceptor with a throwaway connection.
                let _ = TcpStream::connect(state.addr);
            })
        };
        // Each live session's socket and thread, for the teardown below.
        let mut sessions: Vec<(TcpStream, thread::JoinHandle<()>)> = Vec::new();
        for conn in self.listener.incoming() {
            if state.engine_done.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let Ok(socket) = stream.try_clone() else { continue };
            sessions.retain(|(_, session)| !session.is_finished());
            let state = state.clone();
            sessions.push((socket, thread::spawn(move || session(&state, stream))));
        }
        let engine = engine.join().map_err(|_| std::io::Error::other("engine panicked"));
        close_sessions(sessions);
        engine
    }

    /// Run on a background thread, returning the bound address and the
    /// handle to join after a drain/shutdown request.
    pub fn spawn(self) -> (SocketAddr, thread::JoinHandle<std::io::Result<()>>) {
        let addr = self.local_addr();
        (addr, thread::spawn(move || self.run()))
    }
}

/// Pop-and-run until the phase forbids further work. On `drain` the queue
/// empties first; on `shutdown` queued jobs are sealed as fully cancelled
/// without touching the pool.
fn engine_loop(state: &Arc<ServerState>) {
    loop {
        let job = {
            let mut q = state.queue.lock().unwrap();
            loop {
                if q.phase == Phase::Shutdown {
                    let leftovers: Vec<_> = q.queue.drain(..).collect();
                    drop(q);
                    for job in leftovers {
                        job.ctl.cancel();
                        job.finish(0, job.specs.len());
                    }
                    return;
                }
                if let Some(job) = q.queue.pop_front() {
                    break job;
                }
                if q.phase == Phase::Draining {
                    return;
                }
                q = state.queue_cv.wait(q).unwrap();
            }
        };
        run_batch(state, &job);
    }
}

/// Execute one batch on the pool. Cells were validated at submit, so the
/// registry lookups here cannot fail.
fn run_batch(state: &Arc<ServerState>, job: &Arc<JobState>) {
    *state.current.lock().unwrap() = Some(job.clone());
    {
        let mut inner = job.inner.lock().unwrap();
        inner.phase = JobPhase::Running;
    }

    struct Resolved {
        workload: Box<dyn Workload>,
        cfg: SystemConfig,
        spec_index: usize,
        weight: u64,
    }
    let mut seen: HashSet<(&str, BenchScale)> = HashSet::new();
    let resolved: Vec<Resolved> = job
        .specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let workload =
                workload_by_name(&spec.workload, spec.scale).expect("validated at submit");
            let cfg = spec.config(&base_config(spec.scale));
            let hint = workload.cost_hint().max(1);
            let weight = if seen.insert((workload.name(), spec.scale)) {
                hint.saturating_mul(GOLDEN_CELL_BOOST)
            } else {
                hint
            };
            Resolved { workload, cfg, spec_index: i, weight }
        })
        .collect();

    let out = state.pool.run_jobs_weighted_ctl(
        resolved.len(),
        |i| resolved[i].weight,
        |ctx| {
            let r = &resolved[ctx.index];
            let spec = &job.specs[r.spec_index];
            state.worker_busy[ctx.worker].store(true, Ordering::Relaxed);
            let metrics = run_on_design_in(r.workload.as_ref(), &r.cfg, spec.design, spec.layout);
            job.publish(r.spec_index, proto::result_event(job.id, r.spec_index, spec, &metrics));
            state.worker_cells[ctx.worker].fetch_add(1, Ordering::Relaxed);
            state.completed_cells.fetch_add(1, Ordering::Relaxed);
            state.worker_busy[ctx.worker].store(false, Ordering::Relaxed);
        },
        &job.ctl,
    );
    let completed = out.iter().filter(|cell| cell.is_some()).count();
    job.finish(completed, resolved.len() - completed);
    *state.current.lock().unwrap() = None;
}

/// One connection: a blocking reader loop here, plus a writer thread that
/// owns the outbox channel. Responses and subscribed events share the
/// outbox, so everything a session emits is serialized in one place.
fn session(state: &Arc<ServerState>, stream: TcpStream) {
    let Ok(write_half) = stream.try_clone() else { return };
    let (tx, rx) = mpsc::channel::<Arc<String>>();
    let writer = thread::spawn(move || {
        let mut out = BufWriter::new(write_half);
        for line in rx {
            if out.write_all(line.as_bytes()).is_err()
                || out.write_all(b"\n").is_err()
                || out.flush().is_err()
            {
                // Dropping `rx` makes every subsequent subscriber send
                // fail, which prunes this session from job fan-out lists.
                break;
            }
        }
    });
    let send = |reply: String| tx.send(Arc::new(reply)).map_err(|_| ());
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        let sent = match read_line(&mut reader, &mut line, MAX_LINE_BYTES) {
            Ok(Line::Eof) | Err(_) => break,
            Ok(Line::TooLong) => send(proto::error_response(&format!(
                "request line longer than the {MAX_LINE_BYTES}-byte limit; discarded"
            ))),
            Ok(Line::Read) => match std::str::from_utf8(&line) {
                Ok(text) if text.trim().is_empty() => Ok(()),
                Ok(text) => dispatch(state, text, &tx),
                Err(_) => send(proto::error_response("request line is not UTF-8")),
            },
        };
        if sent.is_err() {
            break;
        }
    }
    drop(tx);
    let _ = writer.join();
    // `run` holds a handle on the socket too, so dropping ours would not
    // close it: shut it, and the client reads EOF after the last event.
    let _ = reader.get_ref().shutdown(Shutdown::Both);
}

/// How long teardown waits for session writers before it cuts the
/// connections of clients that stopped reading.
const TEARDOWN_GRACE: Duration = Duration::from_secs(5);

/// End every session once the engine has stopped. Every job is sealed by
/// then, so each session's outbox already holds its last event and no job
/// still holds a sender to it. Shutting a socket's read side ends the
/// session's request loop (the client stays connected); the session then
/// lets its writer send everything queued and shuts the socket. Nothing
/// here waits for a client to disconnect: a writer still blocked on a
/// client that stopped reading after [`TEARDOWN_GRACE`] has its connection
/// cut.
fn close_sessions(sessions: Vec<(TcpStream, thread::JoinHandle<()>)>) {
    for (socket, _) in &sessions {
        let _ = socket.shutdown(Shutdown::Read);
    }
    let deadline = Instant::now() + TEARDOWN_GRACE;
    while Instant::now() < deadline && sessions.iter().any(|(_, s)| !s.is_finished()) {
        thread::sleep(Duration::from_millis(5));
    }
    for (socket, session) in sessions {
        let _ = socket.shutdown(Shutdown::Both);
        let _ = session.join();
    }
}

/// The longest request line a session reads, in bytes without its
/// newline. The largest request an in-repo client sends (a 210-cell
/// submit) is about 16 KB.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The most cells one `submit` may carry. The largest in-repo batch is the
/// stacking study's 210 cells; a job keeps ~1.5 KB of rendered results per
/// cell for the life of the server, so one request line of bare cells
/// (~43 k fit in [`MAX_LINE_BYTES`]) would otherwise pin ~66 MB.
pub const MAX_SUBMIT_CELLS: usize = 4096;

/// What [`read_line`] found: a line, a line over the limit (dropped), or
/// the end of the stream.
#[derive(Debug, PartialEq, Eq)]
enum Line {
    Read,
    TooLong,
    Eof,
}

/// Read one `\n`-terminated line into `buf`, without the newline. A line
/// longer than `max` bytes is read through its newline but not kept, so
/// `buf` never holds, nor allocates, more than `max` bytes.
fn read_line(reader: &mut impl BufRead, buf: &mut Vec<u8>, max: usize) -> std::io::Result<Line> {
    buf.clear();
    let mut too_long = false;
    loop {
        let chunk = reader.fill_buf()?;
        let (end, eof) = (chunk.iter().position(|&b| b == b'\n'), chunk.is_empty());
        let part = &chunk[..end.unwrap_or(chunk.len())];
        too_long |= buf.len() + part.len() > max;
        if too_long {
            buf.clear();
        } else {
            // Grow geometrically, but never past the limit.
            let want = (buf.len() + part.len()).max(2 * buf.capacity()).min(max);
            buf.reserve_exact(want - buf.len());
            buf.extend_from_slice(part);
        }
        let used = part.len() + end.is_some() as usize;
        reader.consume(used);
        if end.is_some() || eof {
            return Ok(if too_long {
                Line::TooLong
            } else if eof && buf.is_empty() {
                Line::Eof
            } else {
                Line::Read
            });
        }
    }
}

/// Handle one request line; `Err` means the outbox is gone and the session
/// should end. A malformed request earns an error reply, never a
/// disconnect — the connection stays usable.
fn dispatch(
    state: &Arc<ServerState>,
    line: &str,
    tx: &mpsc::Sender<Arc<String>>,
) -> Result<(), ()> {
    let send = |reply: String| tx.send(Arc::new(reply)).map_err(|_| ());
    match Request::parse(line) {
        Err(e) => send(proto::error_response(&e)),
        Ok(Request::Submit { tag, cells }) => submit(state, tag, cells, tx),
        Ok(Request::Results { job, from }) => results(state, job, from, tx),
        Ok(Request::Status) => send(status(state)),
        Ok(Request::Cancel { job }) => send(cancel(state, job)),
        Ok(Request::Drain) => send(set_phase(state, Phase::Draining)),
        Ok(Request::Shutdown) => send(set_phase(state, Phase::Shutdown)),
    }
}

fn submit(
    state: &Arc<ServerState>,
    tag: Option<String>,
    cells: Vec<CellSpec>,
    tx: &mpsc::Sender<Arc<String>>,
) -> Result<(), ()> {
    let send = |reply: String| tx.send(Arc::new(reply)).map_err(|_| ());
    if cells.len() > MAX_SUBMIT_CELLS {
        return send(proto::error_response(&format!(
            "submit of {} cells exceeds the {MAX_SUBMIT_CELLS}-cell limit; split the batch",
            cells.len()
        )));
    }
    for (i, spec) in cells.iter().enumerate() {
        let Some(w) = workload_by_name(&spec.workload, spec.scale) else {
            return send(proto::error_response(&format!(
                "cell {i}: unknown workload {:?} (known: {})",
                spec.workload,
                workload_names().join(", ")
            )));
        };
        if !w.layouts().contains(&spec.layout) {
            return send(proto::error_response(&format!(
                "cell {i}: workload {:?} does not support layout {:?}",
                spec.workload,
                spec.layout.label()
            )));
        }
    }
    // The phase check and the enqueue share one hold of the queue lock, so
    // a drain or shutdown cannot slip between them and leave an acked job
    // that the stopped engine never seals.
    let mut q = state.queue.lock().unwrap();
    if q.phase != Phase::Accepting {
        drop(q);
        return send(proto::error_response("server is draining; submissions are closed"));
    }
    let id = state.next_job.fetch_add(1, Ordering::Relaxed) + 1;
    let cell_count = cells.len();
    let job = Arc::new(JobState::new(id, tag, cells));
    state.jobs.lock().unwrap().insert(id, job.clone());
    // Ack before enqueueing: the job cannot start until it is queued, so
    // the ack is guaranteed to precede this job's events on this session.
    send(
        Json::obj([
            ("ok", Json::from(true)),
            ("job", Json::from(id)),
            ("cells", Json::from(cell_count)),
        ])
        .render(),
    )?;
    job.subscribe(0, tx);
    q.queue.push_back(job);
    state.queue_cv.notify_all();
    Ok(())
}

fn results(
    state: &Arc<ServerState>,
    job_id: u64,
    from: usize,
    tx: &mpsc::Sender<Arc<String>>,
) -> Result<(), ()> {
    let send = |reply: String| tx.send(Arc::new(reply)).map_err(|_| ());
    let Some(job) = state.jobs.lock().unwrap().get(&job_id).cloned() else {
        return send(proto::error_response(&format!("unknown job {job_id}")));
    };
    let label = job.inner.lock().unwrap().phase.label();
    send(
        Json::obj([
            ("ok", Json::from(true)),
            ("job", Json::from(job_id)),
            ("cells", Json::from(job.specs.len())),
            ("state", Json::from(label)),
        ])
        .render(),
    )?;
    job.subscribe(from, tx);
    Ok(())
}

fn cancel(state: &Arc<ServerState>, job_id: u64) -> String {
    let Some(job) = state.jobs.lock().unwrap().get(&job_id).cloned() else {
        return proto::error_response(&format!("unknown job {job_id}"));
    };
    // In-flight cells run to completion (results are never torn); cells
    // not yet started are skipped. Cancelling a done job is a no-op.
    job.ctl.cancel();
    Json::obj([("ok", Json::from(true)), ("job", Json::from(job_id))]).render()
}

fn status(state: &Arc<ServerState>) -> String {
    let (phase, queue_depth) = {
        let q = state.queue.lock().unwrap();
        (q.phase, q.queue.len())
    };
    let running = match state.current.lock().unwrap().as_ref() {
        Some(job) => Json::obj([
            ("job", Json::from(job.id)),
            ("cells", Json::from(job.specs.len())),
            ("started", Json::from(job.ctl.started())),
            ("finished", Json::from(job.ctl.finished())),
            ("in_flight", Json::from(job.ctl.in_flight())),
        ]),
        None => Json::Null,
    };
    let workers = Json::Arr(
        (0..state.pool.threads())
            .map(|w| {
                Json::obj([
                    ("busy", Json::from(state.worker_busy[w].load(Ordering::Relaxed))),
                    ("cells_done", Json::from(state.worker_cells[w].load(Ordering::Relaxed))),
                ])
            })
            .collect(),
    );
    let jobs =
        Json::Arr(state.jobs.lock().unwrap().values().map(|job| job.status_json()).collect());
    Json::obj([
        ("ok", Json::from(true)),
        ("phase", Json::from(phase.label())),
        ("queue_depth", Json::from(queue_depth)),
        ("running", running),
        ("workers", Json::from(state.pool.threads())),
        ("worker_util", workers),
        ("completed_cells", Json::from(state.completed_cells.load(Ordering::Relaxed))),
        (
            "golden",
            Json::obj([
                ("hits", Json::from(golden::stats::hits())),
                ("computes", Json::from(golden::stats::computes())),
            ]),
        ),
        ("jobs", jobs),
        ("knobs", Json::obj(knobs().entries().map(|(name, value)| (name, value.into())))),
    ])
    .render()
}

fn set_phase(state: &Arc<ServerState>, to: Phase) -> String {
    let mut q = state.queue.lock().unwrap();
    if to > q.phase {
        q.phase = to;
    }
    let phase = q.phase;
    if phase == Phase::Shutdown {
        for job in &q.queue {
            job.ctl.cancel();
        }
        if let Some(job) = state.current.lock().unwrap().as_ref() {
            job.ctl.cancel();
        }
    }
    state.queue_cv.notify_all();
    Json::obj([("ok", Json::from(true)), ("phase", Json::from(phase.label()))]).render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn lines(input: &[u8], max: usize) -> Vec<(Line, Vec<u8>)> {
        // A tiny read buffer makes every line span several chunks.
        let mut reader = BufReader::with_capacity(3, Cursor::new(input));
        let mut buf = Vec::new();
        let mut out = Vec::new();
        loop {
            let line = read_line(&mut reader, &mut buf, max).unwrap();
            if line == Line::Eof {
                return out;
            }
            out.push((line, buf.clone()));
        }
    }

    #[test]
    fn lines_over_the_limit_are_dropped_and_reading_resumes() {
        let got = lines(b"short\nexactly8\nnine byte\n\nlast", 8);
        assert_eq!(
            got,
            vec![
                (Line::Read, b"short".to_vec()),
                (Line::Read, b"exactly8".to_vec()),
                (Line::TooLong, vec![]),
                (Line::Read, vec![]),
                (Line::Read, b"last".to_vec()),
            ]
        );
        assert_eq!(lines(b"unterminated and long", 8), vec![(Line::TooLong, vec![])]);
    }

    #[test]
    fn a_16_mib_line_never_grows_the_buffer_past_the_limit() {
        let mut input = vec![b'['; 16 << 20];
        input.extend_from_slice(b"\n{\"cmd\":\"status\"}\n");
        let mut reader = BufReader::new(Cursor::new(input));
        let mut buf = Vec::new();
        assert_eq!(read_line(&mut reader, &mut buf, MAX_LINE_BYTES).unwrap(), Line::TooLong);
        assert!(buf.capacity() <= MAX_LINE_BYTES, "buffer grew to {} bytes", buf.capacity());
        assert_eq!(read_line(&mut reader, &mut buf, MAX_LINE_BYTES).unwrap(), Line::Read);
        assert_eq!(buf, b"{\"cmd\":\"status\"}");
        assert!(buf.capacity() <= MAX_LINE_BYTES, "buffer grew to {} bytes", buf.capacity());
    }
}
