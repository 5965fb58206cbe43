//! Pluggable design policies (ROADMAP item 2): the design axis behind a
//! trait.
//!
//! A [`DesignPolicy`] owns everything that makes one evaluated design
//! different from another: its LLC variant, the per-request routing, the
//! served-line sizing, the writeback/compression behavior, and the
//! end-of-run compression-ratio summary. The [`System`] owns everything the
//! designs share — core, L1/L2, DRAM and its fault model, backing store,
//! counters — and dispatches each LLC-level request/writeback through the
//! trait. The seven shipped designs:
//!
//! * [`ConventionalPolicy`] — `Baseline` (approx annotations ignored) and
//!   `Truncate` (fp32→fp16-style line truncation, 2:1 traffic) over a
//!   conventional set-associative LLC.
//! * [`DedupPolicy`] — `Doppelganger`, the approximate-dedup LLC.
//! * [`crate::avr_ops::DecoupledPolicy`] — `ZeroAvr` and `Avr`, the paper's
//!   decoupled UCL/CMS cache with the Fig. 7/8 request and eviction flows.
//! * [`crate::memo::MemoInPolicy`] / [`crate::memo::MemoOutPolicy`] — the
//!   HPAC-style input/output memoization designs recast as memory-system
//!   techniques (see `memo.rs`).
//!
//! # Determinism
//!
//! A policy's behavior must be a deterministic function of (config,
//! workload, design) alone — bit-identical at any `SimPool` thread width,
//! with the per-word and batched timed walks, and with or without SIMD
//! codec kernels. Every shipped policy achieves this the same way the
//! device fault model does: all policy state lives inside the owning `System`
//! (one per simulated run; nothing global), and every decision is a pure
//! function of line *content* and architected state — no RNG anywhere in
//! the design layer. The memoization designs' threshold matches and
//! sliding-window gates are plain arithmetic over the backing store's
//! values, so they inherit the same guarantee (`tests/designs.rs` pins
//! both the legacy designs' bit-identity and the memo designs'
//! thread-width invariance).
//!
//! # Value-feedback contract
//!
//! The backing store ([`avr_sim::PhysMem`]) always holds the latest
//! *architecturally visible* values; caches track presence only. Any
//! policy that serves lossy data must rewrite the backing store at the
//! architecturally correct moment (truncation on fetch, reconstruction
//! after compression, dedup mapping, memo-table canonicalization), so
//! approximation error feeds back into the running application and the
//! workload runner's output-error measurement stays honest.
//!
//! # Adding an eighth design
//!
//! 1. Add a variant to `avr_types::DesignKind` (and its `label()` /
//!    `ALL`), plus any new knobs in an `ErrorModelParams`-style config
//!    block (`MemoParams` is the template) on `SystemConfig`.
//! 2. Implement [`DesignPolicy`] in a new module here. Route every DRAM
//!    transfer through the `System` helpers (`dram_write_line`,
//!    `count_traffic`, `device_line_faults`) so traffic accounting and the
//!    device error-model hooks keep working; honor the value-feedback
//!    contract above. Preallocate any per-region state in
//!    [`DesignPolicy::on_region`] so the steady-state request path never
//!    allocates (`tests/zero_alloc.rs` pins this).
//! 3. Register the variant in [`policy_for`].
//! 4. That is the whole integration: the grid runners, figure sweeps,
//!    sweep server, `bench_e2e` design axis, and the determinism /
//!    fault-injection / layout test suites all iterate
//!    `DesignKind::ALL`, so they pick the new design up automatically.
//!    Regenerate the committed `BENCH_PRn.json` (the `--check` gate
//!    hard-fails on design-set drift by design).

use avr_baselines::truncate::{truncate_line, TRUNCATED_LINE_BYTES};
use avr_cache::set_assoc::{Lookup, SetAssocCache};
use avr_dram::AccessKind;
use avr_sim::vm::Region;
use avr_types::{DesignKind, LineAddr, SystemConfig, CL_BYTES};

use crate::summary::BlockScan;
use crate::system::System;

/// One evaluated design's policy: LLC variant, request routing, writeback
/// behavior, and summary accounting. See the module docs for the contract
/// and the extension guide.
///
/// `Send` because a `System` (which owns its policy) migrates across
/// `SimPool` workers.
pub trait DesignPolicy: Send {
    /// Whether this design honors approx annotations (`false` for
    /// Baseline/ZeroAVR: they treat every region as precise).
    fn honor_approx(&self) -> bool;

    /// Serve an LLC-level request for `line` issued at cycle `t`,
    /// returning the completion cycle. The `System` has already counted
    /// `llc_requests_total` and the LLC tag touch.
    fn request(&mut self, sys: &mut System, line: LineAddr, t: u64) -> u64;

    /// Accept a dirty line cast out of L2 at cycle `now` (write-buffered:
    /// costs traffic and events, never request latency).
    fn writeback(&mut self, sys: &mut System, line: LineAddr, now: u64);

    /// Allocation hook: called once per `malloc`/`approx_malloc`, in
    /// region order, so policies can size per-region state up front and
    /// keep the steady-state access path allocation-free.
    fn on_region(&mut self, _region: &Region) {}

    /// Does this design power a compressor module (static energy)?
    fn has_compressor(&self) -> bool {
        false
    }

    /// Codec lifetime stats: `(blocks_compressed, compression_failures)`.
    fn codec_stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// Fraction of LLC capacity holding compressed images at end of run.
    fn llc_cms_fraction(&self) -> f64 {
        0.0
    }

    /// End-of-run compression summary: the design's footprint compression
    /// ratio plus the Table 4 block scan (non-compressing designs return
    /// ratio 1.0 and an empty scan).
    fn summary(&mut self, _sys: &mut System) -> (f64, BlockScan) {
        (1.0, BlockScan::default())
    }

    /// Downcast support for tests and diagnostics.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// Construct the policy implementing `design` under `cfg` — the one place
/// that maps the `DesignKind` enum onto concrete policies.
pub fn policy_for(design: DesignKind, cfg: &SystemConfig) -> Box<dyn DesignPolicy> {
    match design {
        DesignKind::Baseline | DesignKind::Truncate => {
            Box::new(ConventionalPolicy::new(design, cfg))
        }
        DesignKind::Doppelganger => Box::new(DedupPolicy::new(cfg)),
        DesignKind::ZeroAvr | DesignKind::Avr => {
            Box::new(crate::avr_ops::DecoupledPolicy::new(design, cfg))
        }
        DesignKind::MemoIn => Box::new(crate::memo::MemoInPolicy::new(cfg)),
        DesignKind::MemoOut => Box::new(crate::memo::MemoOutPolicy::new(cfg)),
    }
}

// ----------------------------------------------------------------------
// Baseline / Truncate: a conventional set-associative LLC
// ----------------------------------------------------------------------

/// `Baseline` and `Truncate` over a conventional LLC. Baseline ignores
/// approx annotations entirely; Truncate moves approximable lines as 32 B
/// truncated transfers and feeds the truncation back into the backing
/// store on every DRAM crossing.
pub struct ConventionalPolicy {
    kind: DesignKind,
    llc: SetAssocCache,
}

impl ConventionalPolicy {
    pub(crate) fn new(kind: DesignKind, cfg: &SystemConfig) -> Self {
        debug_assert!(matches!(kind, DesignKind::Baseline | DesignKind::Truncate));
        ConventionalPolicy { kind, llc: SetAssocCache::new(cfg.llc) }
    }

    /// Write `line` to DRAM, truncating approximable lines under the
    /// Truncate design (value feedback: memory only holds truncated data).
    fn write_line(&mut self, sys: &mut System, line: LineAddr, now: u64) {
        let approx = sys.approx_of(line);
        let bytes = match (self.kind, approx) {
            (DesignKind::Truncate, Some(dt)) => {
                let truncated = truncate_line(&sys.mem.read_line(line), dt);
                sys.mem.write_line(line, &truncated);
                TRUNCATED_LINE_BYTES as usize
            }
            _ => CL_BYTES,
        };
        sys.dram.access_bytes(line, AccessKind::Write, now, bytes);
        sys.count_traffic(approx.is_some(), true, bytes as u64);
        sys.device_line_faults(line, AccessKind::Write, now);
    }
}

impl DesignPolicy for ConventionalPolicy {
    fn honor_approx(&self) -> bool {
        self.kind == DesignKind::Truncate
    }

    fn request(&mut self, sys: &mut System, line: LineAddr, t: u64) -> u64 {
        let llc_lat = sys.cfg.llc.latency;
        let approx = sys.approx_of(line);
        let Lookup::Miss(victim) = self.llc.access(line, false) else {
            if approx.is_some() {
                sys.counters.approx_requests.uncompressed_hit += 1;
            }
            return t + llc_lat;
        };
        // Miss: fetch from DRAM.
        sys.counters.llc_misses_total += 1;
        if approx.is_some() {
            sys.counters.approx_requests.miss += 1;
        }
        let bytes = match (self.kind, approx) {
            (DesignKind::Truncate, Some(_)) => TRUNCATED_LINE_BYTES as usize,
            _ => CL_BYTES,
        };
        let resp = sys.dram.access_bytes(line, AccessKind::Read, t + llc_lat, bytes);
        sys.count_traffic(approx.is_some(), false, bytes as u64);
        if let (DesignKind::Truncate, Some(dt)) = (self.kind, approx) {
            // Value feedback: memory only holds truncated data.
            let truncated = truncate_line(&sys.mem.read_line(line), dt);
            sys.mem.write_line(line, &truncated);
        }
        sys.device_line_faults(line, AccessKind::Read, resp.complete_at);
        if let Some(ev) = self.llc.fill(victim, line, false) {
            if ev.dirty {
                self.write_line(sys, ev.line, resp.complete_at);
            }
        }
        resp.complete_at
    }

    fn writeback(&mut self, sys: &mut System, line: LineAddr, now: u64) {
        if let Some(ev) = self.llc.writeback(line) {
            if ev.dirty {
                self.write_line(sys, ev.line, now);
            }
        }
    }

    fn summary(&mut self, _sys: &mut System) -> (f64, BlockScan) {
        let ratio = match self.kind {
            DesignKind::Truncate => 2.0,
            _ => 1.0,
        };
        (ratio, BlockScan::default())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

// ----------------------------------------------------------------------
// Doppelganger: the approximate-dedup LLC
// ----------------------------------------------------------------------

/// `Doppelganger`: similar approximable lines share one data entry in the
/// dedup LLC; mapping a line to a representative rewrites the backing
/// store (destructive dedup — readers observe the representative).
pub struct DedupPolicy {
    llc: avr_baselines::doppelganger::DoppelLlc,
}

impl DedupPolicy {
    pub(crate) fn new(cfg: &SystemConfig) -> Self {
        DedupPolicy { llc: avr_baselines::doppelganger::DoppelLlc::new(cfg.llc) }
    }

    /// The dedup LLC (tests/diagnostics: hit, dedup and eviction counts).
    pub fn llc(&self) -> &avr_baselines::doppelganger::DoppelLlc {
        &self.llc
    }

    /// Insert `line`, which just missed, with its current backing-store
    /// values, feed a dedup mapping back into the store (destructive dedup:
    /// readers observe the representative from now on), and write back the
    /// dirty lines the insert evicted, in the order the LLC reports them.
    fn fill(&mut self, sys: &mut System, line: LineAddr, approx: bool, dirty: bool, now: u64) {
        let values = sys.mem.read_line(line);
        let out = self.llc.insert(line, &values, approx, dirty);
        if let Some(rep) = out.mapped_to {
            sys.mem.write_line(line, &rep);
        }
        for &(l, dirty) in out.evicted {
            if dirty {
                sys.dram_write_line(l, now);
            }
        }
    }
}

impl DesignPolicy for DedupPolicy {
    fn honor_approx(&self) -> bool {
        true
    }

    fn request(&mut self, sys: &mut System, line: LineAddr, t: u64) -> u64 {
        let llc_lat = sys.cfg.llc.latency;
        let approx = sys.approx_of(line);
        if self.llc.access(line, false) {
            if approx.is_some() {
                sys.counters.approx_requests.uncompressed_hit += 1;
            }
            return t + llc_lat;
        }
        sys.counters.llc_misses_total += 1;
        if approx.is_some() {
            sys.counters.approx_requests.miss += 1;
        }
        let resp = sys.dram.access(line, AccessKind::Read, t + llc_lat);
        sys.count_traffic(approx.is_some(), false, CL_BYTES as u64);
        // Corrupt before the dedup insert so the map ingests what the
        // device actually delivered.
        sys.device_line_faults(line, AccessKind::Read, resp.complete_at);
        self.fill(sys, line, approx.is_some(), false, resp.complete_at);
        resp.complete_at
    }

    fn writeback(&mut self, sys: &mut System, line: LineAddr, now: u64) {
        if !self.llc.access(line, true) {
            let approx = sys.approx_of(line).is_some();
            self.fill(sys, line, approx, true, now);
        }
    }

    fn summary(&mut self, _sys: &mut System) -> (f64, BlockScan) {
        (self.llc.dedup_factor(), BlockScan::default())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}
