//! The three workloads: which grid cells each one runs, what the seed
//! drives, and the timed set-up that precedes measurement.

use std::io;
use std::thread::JoinHandle;
use std::time::Instant;

use avr_core::{BackendKind, DesignKind, LayoutKind, SimPool, SystemConfig};
use avr_server::{base_config, Client, SweepServer};
use avr_types::{BenchScale, CellSpec};
use avr_workloads::{golden, golden_run, workload_by_name, workload_names, Workload};

/// The default `--seed`.
pub const DEFAULT_SEED: u64 = 1;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Ten programs on the AVR design, SoA, exact backend, bench scale.
    AvrBench,
    /// The dedup and memoization designs on the programs where they cost
    /// the most host time, tiny scale.
    DedupMemo,
    /// The sweep server under a closed-loop client: tiny 70-cell batches.
    ServerMixed,
}

impl WorkloadKind {
    pub const ALL: [WorkloadKind; 3] =
        [WorkloadKind::AvrBench, WorkloadKind::DedupMemo, WorkloadKind::ServerMixed];

    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::AvrBench => "avr-bench",
            WorkloadKind::DedupMemo => "dedup-memo",
            WorkloadKind::ServerMixed => "server-mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Simulation workers: batch workloads run on one, the server on two.
    pub fn pool_threads(self) -> usize {
        match self {
            WorkloadKind::ServerMixed => 2,
            _ => 1,
        }
    }

    /// The cells of one pass, in canonical order: SoA layout, exact DRAM.
    /// They do not depend on the seed, because program inputs are fixed by
    /// the ports; the seed only orders the server's batches.
    pub fn cells(self) -> Vec<CellSpec> {
        match self {
            WorkloadKind::AvrBench => workload_names()
                .into_iter()
                .map(|p| spec(p, BenchScale::Bench, DesignKind::Avr))
                .collect(),
            // Tiny scale: at bench scale one `dganger` cell is a 4-7 s
            // memory-bound scan whose time varied by 30 % between passes
            // of one run on a shared host. At tiny scale the same scans
            // still cost `dganger` 5-6x the baseline on lbm and wrf.
            WorkloadKind::DedupMemo => [
                ("lbm", DesignKind::Doppelganger),
                ("wrf", DesignKind::Doppelganger),
                ("fft", DesignKind::MemoIn),
                ("particles", DesignKind::MemoIn),
                ("lattice", DesignKind::MemoOut),
                ("lbm", DesignKind::MemoOut),
            ]
            .into_iter()
            .map(|(p, d)| spec(p, BenchScale::Tiny, d))
            .collect(),
            WorkloadKind::ServerMixed => workload_names()
                .into_iter()
                .flat_map(|p| {
                    DesignKind::ALL.into_iter().map(move |d| spec(p, BenchScale::Tiny, d))
                })
                .collect(),
        }
    }
}

/// A SoA cell with its backend pinned to exact DRAM, so that an ambient
/// `AVR_BACKEND` could not change what is measured.
fn spec(program: &str, scale: BenchScale, design: DesignKind) -> CellSpec {
    let mut c = CellSpec::new(program);
    c.scale = scale;
    c.design = design;
    c.layout = LayoutKind::Soa;
    c.backend = Some(BackendKind::Exact);
    c
}

/// Human label of a cell: `program/design/layout/backend/scale`.
pub fn cell_label(c: &CellSpec) -> String {
    format!(
        "{}/{}/{}/{}/{}",
        c.workload,
        c.design.label(),
        c.layout.label(),
        c.backend.unwrap_or(BackendKind::Exact).label(),
        c.scale.label()
    )
}

/// A cell resolved to a runnable workload instance and its full config.
pub struct Resolved {
    pub spec: CellSpec,
    pub workload: Box<dyn Workload>,
    pub cfg: SystemConfig,
}

impl Resolved {
    pub fn new(spec: CellSpec) -> Resolved {
        let workload = workload_by_name(&spec.workload, spec.scale)
            .unwrap_or_else(|| panic!("unknown program {:?}", spec.workload));
        let cfg = spec.config(&base_config(spec.scale));
        Resolved { spec, workload, cfg }
    }

    /// The same cell on another design (the baseline twin).
    pub fn twin(&self, design: DesignKind) -> Resolved {
        let mut spec = self.spec.clone();
        spec.design = design;
        Resolved::new(spec)
    }
}

/// A running in-process sweep server and the benchmark's one connection.
pub struct Server {
    pub client: Client,
    handle: JoinHandle<io::Result<()>>,
}

impl Server {
    /// Shut the server down and wait for its threads.
    pub fn stop(mut self) -> io::Result<()> {
        self.client.shutdown()?;
        self.handle.join().map_err(|_| io::Error::other("server thread panicked"))?
    }
}

/// Everything measurement needs: resolved cells, cold golden runs, and
/// for the server workload a bound server with a connected client.
pub struct Setup {
    pub cells: Vec<Resolved>,
    /// Cold golden-run milliseconds per distinct program.
    pub golden_ms: Vec<(String, f64)>,
    pub server: Option<Server>,
}

impl Setup {
    fn build(kind: WorkloadKind) -> io::Result<Setup> {
        let cells: Vec<Resolved> = kind.cells().into_iter().map(Resolved::new).collect();
        golden::clear();
        let mut golden_ms = Vec::new();
        for c in &cells {
            let key = format!("{}/{}", c.spec.workload, c.spec.scale.label());
            if golden_ms.iter().any(|(k, _)| *k == key) {
                continue;
            }
            let t0 = Instant::now();
            golden_run(c.workload.as_ref());
            golden_ms.push((key, t0.elapsed().as_secs_f64() * 1e3));
        }
        let server = if kind == WorkloadKind::ServerMixed {
            let server = SweepServer::bind_with("127.0.0.1:0", SimPool::new(kind.pool_threads()))?;
            let (addr, handle) = server.spawn();
            Some(Server { client: Client::connect(addr)?, handle })
        } else {
            None
        };
        Ok(Setup { cells, golden_ms, server })
    }

    /// Set up from cold, returning the set-up and its wall seconds.
    pub fn timed(kind: WorkloadKind) -> io::Result<(Setup, f64)> {
        let t0 = Instant::now();
        let setup = Setup::build(kind)?;
        Ok((setup, t0.elapsed().as_secs_f64()))
    }

    /// Stop the set-up's server, if it has one, and wait for its threads.
    pub fn stop(self) -> io::Result<()> {
        self.server.map_or(Ok(()), Server::stop)
    }
}

/// splitmix64: the seed stream behind the server workload's cell order.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A Fisher–Yates permutation of `0..n` drawn from `state`.
pub fn shuffled(n: usize, state: &mut u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}
