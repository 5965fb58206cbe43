//! The full-system simulator: core → L1 → L2 → LLC(design) → DDR4.
//!
//! One `System` simulates one core (the figure benches run it on one
//! core's share of the paper's CMP, `SystemConfig::per_core_scaled`). Data
//! values live in the backing store ([`avr_sim::PhysMem`]); the caches track
//! presence, and every lossy event (AVR compression, fp16 truncation,
//! Doppelgänger dedup) rewrites the backing store at the architecturally
//! correct moment so approximation error feeds back into the running
//! application.

use avr_cache::set_assoc::{Lookup, SetAssocCache, Victim};
use avr_dram::{device_for, AccessKind, Dram, FaultCtx, FaultModel};
use avr_sim::energy::{EnergyEvents, EnergyModel};
use avr_sim::vm::{AddressSpace, PhysMem, Region, RegionOpts};
use avr_sim::{Counters, FaultBreakdown, IntervalCore, RunMetrics};
use avr_types::knobs::knobs;
use avr_types::{DataType, DesignKind, LineAddr, PhysAddr, SystemConfig, CL_BYTES};

use crate::design::DesignPolicy;
use crate::vm_api::Vm;

/// One simulated system instance.
pub struct System {
    pub cfg: SystemConfig,
    pub design: DesignKind,
    pub(crate) core: IntervalCore,
    pub(crate) l1: SetAssocCache,
    pub(crate) l2: SetAssocCache,
    /// The design policy: the LLC variant, per-request routing, and
    /// writeback/compression behavior live behind [`DesignPolicy`]
    /// (`crate::design`). Boxed in an `Option` so [`System::with_policy`]
    /// can lend the policy and the `System` to each other without
    /// aliasing.
    policy: Option<Box<dyn DesignPolicy>>,
    pub mem: PhysMem,
    pub space: AddressSpace,
    pub counters: Counters,
    pub(crate) energy_model: EnergyModel,
    /// 64 B-granularity LLC data accesses (energy accounting).
    pub(crate) llc_line_touches: u64,
    /// Approx annotations honored? (false for Baseline/ZeroAVR)
    honor_approx: bool,
    /// Batched span-level timed walk enabled? Defaults to on; the
    /// `AVR_NO_BATCHED_WALK` knob (or [`System::set_batched_walk`]) forces
    /// the retained per-word reference walk.
    batched_walk: bool,
    /// Remaining graceful-degradation budget (timed exact re-serves of
    /// implausible lines).
    retries_left: u64,
    /// Per-region fault accounting, parallel to `space.regions()`.
    region_faults: Vec<FaultBreakdown>,
    /// Once-per-run latch for the span_hits fallback warning.
    span_fallback_warned: bool,
    // The device is declared last: declared among the fields above, the
    // engine's ~200 bytes made the benchmark's `dedup-memo` workload run
    // 2-3 % slower (shared 2-core x86-64 host).
    /// The DDR4 timing engine, running with the device's refresh
    /// interval ([`device_for`]).
    pub(crate) dram: Dram,
    /// The device's error model (exact DRAM, relaxed-refresh DRAM,
    /// approximate MRAM).
    fault_model: FaultModel,
}

impl System {
    pub fn new(cfg: SystemConfig, design: DesignKind) -> Self {
        let policy = crate::design::policy_for(design, &cfg);
        let honor_approx = policy.honor_approx();
        let (dram, fault_model) = device_for(&cfg.dram, &cfg.error_model);
        System {
            core: IntervalCore::new(cfg.issue_width, cfg.rob_size, cfg.mshrs),
            l1: SetAssocCache::new(cfg.l1),
            l2: SetAssocCache::new(cfg.l2),
            policy: Some(policy),
            dram,
            fault_model,
            mem: PhysMem::new(),
            space: AddressSpace::new(),
            counters: Counters::default(),
            energy_model: EnergyModel::default(),
            honor_approx,
            llc_line_touches: 0,
            batched_walk: !knobs().no_batched_walk,
            retries_left: cfg.error_model.retry_budget,
            region_faults: Vec::new(),
            span_fallback_warned: false,
            design,
            cfg,
        }
    }

    /// Lend the design policy and the `System` to each other: the policy
    /// is taken out of its slot for the duration of `f`, so policy code
    /// gets `&mut self` access to the shared machinery (DRAM, backing
    /// store, counters, fault hooks) without aliasing its own state.
    /// Policies never re-enter the LLC dispatch (the access path only
    /// reaches them through `llc_request`/`llc_writeback`), so the empty
    /// slot is unobservable.
    pub(crate) fn with_policy<R>(
        &mut self,
        f: impl FnOnce(&mut dyn DesignPolicy, &mut System) -> R,
    ) -> R {
        let mut p = self.policy.take().expect("design policy present");
        let r = f(p.as_mut(), self);
        self.policy = Some(p);
        r
    }

    /// Downcast the design policy to a concrete type (tests/diagnostics).
    pub fn policy_as<T: 'static>(&self) -> Option<&T> {
        self.policy.as_ref().and_then(|p| p.as_any().downcast_ref())
    }

    /// Force (or re-enable) the batched span-level timed walk. The
    /// per-word walk is the reference semantics; the batched walk is
    /// bit-identical to it (`tests/batched_walk.rs` pins this), so this
    /// knob exists for the equivalence oracle and for debugging, not for
    /// choosing a different simulation.
    pub fn set_batched_walk(&mut self, on: bool) {
        self.batched_walk = on;
    }

    /// Is the batched timed walk active? (The `AVR_NO_BATCHED_WALK` knob
    /// turns it off at construction.)
    pub fn batched_walk(&self) -> bool {
        self.batched_walk
    }

    /// L1 metadata statistics (diagnostics / equivalence tests).
    pub fn l1_stats(&self) -> avr_cache::set_assoc::CacheStats {
        self.l1.stats
    }

    /// L2 metadata statistics (diagnostics / equivalence tests).
    pub fn l2_stats(&self) -> avr_cache::set_assoc::CacheStats {
        self.l2.stats
    }

    /// The effective approximability of a line under this design.
    #[inline]
    pub(crate) fn approx_of(&self, line: LineAddr) -> Option<DataType> {
        if self.honor_approx {
            self.space.approx_of_line(line)
        } else {
            None
        }
    }

    /// The index into `space.regions()` of the approx region holding
    /// `line` under this design: the region whose value type
    /// [`Self::approx_of`] reports, found by the same one scan.
    #[inline]
    pub(crate) fn approx_region_of(&self, line: LineAddr) -> Option<usize> {
        if self.honor_approx {
            self.space.approx_region_index_of_line(line)
        } else {
            None
        }
    }

    /// Which device backend this system runs on.
    pub fn backend_kind(&self) -> avr_types::BackendKind {
        self.fault_model.kind()
    }

    /// Per-region fault/degradation counters, parallel to
    /// `space.regions()`. Empty slots for runs on the exact backend.
    pub fn region_faults(&self) -> impl Iterator<Item = (&Region, &FaultBreakdown)> {
        self.space.regions().iter().zip(self.region_faults.iter())
    }

    /// Remaining graceful-degradation retry budget.
    pub fn retries_left(&self) -> u64 {
        self.retries_left
    }

    // ------------------------------------------------------------------
    // Device error-model hooks
    // ------------------------------------------------------------------

    /// Is a line's reconstruction implausible — i.e. does it carry damage
    /// the application could never have produced? Injected flips in an f32
    /// exponent show up as NaN/Inf or magnitude blowouts far past the
    /// workloads' dynamic range. Fixed32 has no implausible bit patterns
    /// (every word decodes to a bounded value), so its faults always pass
    /// through as small value noise.
    fn line_implausible(data: &avr_types::CacheLine, dt: DataType) -> bool {
        match dt {
            DataType::F32 => data.to_f32().iter().any(|v| !v.is_finite() || v.abs() > 1e30),
            DataType::Fixed32 => false,
        }
    }

    /// Zero out the implausible values of a degraded line (committed once
    /// the retry budget is exhausted), returning how many were sanitized.
    /// Keeping NaN/Inf out of the backing store bounds the blast radius:
    /// the run stays finite and flagged instead of poisoning every
    /// downstream reduction.
    fn sanitize_line(data: &mut avr_types::CacheLine, dt: DataType) -> u64 {
        if dt != DataType::F32 {
            return 0;
        }
        let mut fixed = 0;
        for w in data.words.iter_mut() {
            let v = f32::from_bits(*w);
            if !v.is_finite() || v.abs() > 1e30 {
                *w = 0f32.to_bits();
                fixed += 1;
            }
        }
        fixed
    }

    /// Device error-model hook: called after every DRAM data transfer of
    /// `line`. Critical (non-approximable under this design) lines are
    /// always served exactly — optionally counting an ECC scrub.
    /// Approximable lines pass through the fault model's `corrupt_line`; a
    /// corrupted-but-plausible line commits to the backing store (value
    /// feedback, like every other lossy event), while an implausible one is
    /// re-served exactly by a timed retry until the budget runs out, after
    /// which it commits sanitized and the run is flagged as degraded.
    pub(crate) fn device_line_faults(&mut self, line: LineAddr, kind: AccessKind, now: u64) {
        if !self.fault_model.injects_faults() {
            return;
        }
        let Some(ri) = self.approx_region_of(line) else {
            if self.cfg.error_model.ecc_protect_critical {
                self.counters.faults.ecc_scrubs += 1;
            }
            return;
        };
        let region = self.space.regions()[ri];
        let dt = region.approx.expect("an approx region has a value type");
        let ctx = FaultCtx {
            region_base: region.base.0,
            block: line.block().0,
            rate_scale: region.opts.fault_scale(),
            critical_mask: region.critical_mask_of_line(line),
        };
        let mut data = self.mem.read_line(line);
        let flips = self.fault_model.corrupt_line(&ctx, kind, &mut data);
        if flips == 0 {
            return;
        }
        self.counters.faults.injected_bit_flips += flips as u64;
        self.counters.faults.faulted_lines += 1;
        self.region_faults[ri].injected_bit_flips += flips as u64;
        self.region_faults[ri].faulted_lines += 1;
        if Self::line_implausible(&data, dt) {
            if self.retries_left > 0 {
                // Graceful degradation, phase 1: spend budget on a timed
                // exact re-serve (refetch on reads, verify-rewrite on
                // writes). The exact values stay in the backing store.
                self.retries_left -= 1;
                self.counters.faults.retries += 1;
                self.region_faults[ri].retries += 1;
                self.dram.access(line, kind, now);
                self.count_traffic(true, kind == AccessKind::Write, CL_BYTES as u64);
                return;
            }
            // Phase 2: budget exhausted — commit, but sanitized, so the
            // run stays finite (flagged via degraded_lines).
            self.counters.faults.degraded_lines += 1;
            self.region_faults[ri].degraded_lines += 1;
            let fixed = Self::sanitize_line(&mut data, dt);
            self.counters.faults.sanitized_values += fixed;
            self.region_faults[ri].sanitized_values += fixed;
        }
        self.mem.write_line(line, &data);
    }

    /// Burst variant of [`Self::device_line_faults`]: `n` consecutive
    /// lines from `first`. Compressed-block transfers proxy their fault
    /// exposure onto the block's leading lines this way — the compressed
    /// image occupies `size_lines` device lines, so that is the exposed
    /// surface, applied to the reconstructed data the backing store holds.
    pub(crate) fn device_burst_faults(
        &mut self,
        first: LineAddr,
        n: usize,
        kind: AccessKind,
        now: u64,
    ) {
        if !self.fault_model.injects_faults() {
            return;
        }
        for i in 0..n {
            self.device_line_faults(LineAddr(first.0 + i as u64), kind, now);
        }
    }

    // ------------------------------------------------------------------
    // Core-side access path
    // ------------------------------------------------------------------

    fn access(&mut self, addr: PhysAddr, store: Option<u32>) -> u32 {
        self.access_timed(addr.line(), store.is_some());
        match store {
            Some(v) => {
                self.mem.write_u32(addr, v);
                v
            }
            None => self.mem.read_u32(addr),
        }
    }

    /// The timing half of one word access: core issue, cache walk,
    /// counters — everything except the final value movement. This is the
    /// per-word reference walk: the bulk fast paths run it for every
    /// span's *leading* word (and for every word under
    /// `AVR_NO_BATCHED_WALK=1`), then fold the span's remaining
    /// guaranteed-L1-hits into the closed-form [`Self::span_hits`] batch —
    /// cycle-exact, so every counter stays bit-identical to the
    /// word-at-a-time path while values move as one slice copy per span.
    ///
    /// Ordering contract the bulk paths rely on: only a *miss* can touch
    /// the backing store (fetch-triggered reconstruction, truncation,
    /// dedup, eviction writeback). After the first access to a line, the
    /// line is resident in L1 and further accesses to it are pure-metadata
    /// hits — so within one cacheline span, values can be moved once,
    /// after the first timed access, without changing anything observable,
    /// and the hit tail can be folded without changing any counter.
    fn access_timed(&mut self, line: LineAddr, is_write: bool) {
        let t0 = self.core.issue_memory();
        if is_write {
            self.counters.stores += 1;
        } else {
            self.counters.loads += 1;
        }

        // Each level is probed once: a miss carries the set's victim to
        // the fill. Nothing below a level touches its sets before the fill
        // (the LLC designs never back-invalidate L1/L2), so the victims
        // stay valid.
        let completion = match self.l1.access(line, is_write) {
            Lookup::Hit => {
                self.counters.l1_hits += 1;
                t0 + self.cfg.l1.latency
            }
            Lookup::Miss(l1_victim) => {
                let t_l1 = t0 + self.cfg.l1.latency;
                match self.l2.access(line, false) {
                    Lookup::Hit => {
                        self.counters.l2_hits += 1;
                        let done = t_l1 + self.cfg.l2.latency;
                        self.fill_l1(l1_victim, line, is_write, done);
                        done
                    }
                    Lookup::Miss(l2_victim) => {
                        let t_l2 = t_l1 + self.cfg.l2.latency;
                        let done = self.llc_request(line, t_l2);
                        self.fill_l2(l2_victim, line, done);
                        self.fill_l1(l1_victim, line, is_write, done);
                        done
                    }
                }
            }
        };
        self.core.complete_memory(t0, completion);
        let lat = completion - t0;
        self.counters.amat_cycles_sum += lat;
        self.counters.amat_count += 1;
        if lat > 50 {
            self.counters.miss_lat_sum += lat;
            self.counters.miss_lat_count += 1;
            self.counters.miss_lat_max = self.counters.miss_lat_max.max(lat);
        }
    }

    /// Split `[addr, addr + 4 * words)` into spans that each stay within
    /// one cacheline: `(span start, span word count)` in address order.
    fn line_spans(addr: PhysAddr, words: usize) -> impl Iterator<Item = (PhysAddr, usize)> {
        let line_words = CL_BYTES as u64 / 4;
        let mut next = addr.0;
        let end = addr.0 + 4 * words as u64;
        std::iter::from_fn(move || {
            if next >= end {
                return None;
            }
            let start = next;
            let line_end = (start - start % CL_BYTES as u64) + CL_BYTES as u64;
            next = line_end.min(end);
            let take = ((next - start) / 4).min(line_words) as usize;
            Some((PhysAddr(start), take))
        })
    }

    /// Do the batched-walk preconditions hold? Beyond the enable knob, the
    /// closed form requires an L1 hit to be a *pure* slot/counter event in
    /// `access_timed`: hidden by the OoO window (no `complete_memory`
    /// side effects) and below the 50-cycle miss-latency diagnostic cut.
    /// Every shipped configuration satisfies both; an exotic one falls
    /// back to the per-word walk rather than approximating.
    #[inline]
    fn batch_hits_ok(&self) -> bool {
        self.batched_walk
            && self.cfg.l1.latency <= self.core.hide_window()
            && self.cfg.l1.latency <= 50
    }

    /// [`Self::batch_hits_ok`], plus a once-per-run stderr warning when the
    /// walk is *enabled* but the latency preconditions fail: a config sweep
    /// that raises L1 latency past the ROB-hide or 50-cycle bound would
    /// otherwise lose the batched speedup invisibly. Explicitly disabling
    /// the walk (`AVR_NO_BATCHED_WALK=1` / `set_batched_walk(false)`) is a
    /// deliberate choice and stays silent.
    #[inline]
    fn batch_hits_ok_or_warn(&mut self) -> bool {
        if self.batch_hits_ok() {
            return true;
        }
        if self.batched_walk && !self.span_fallback_warned {
            self.span_fallback_warned = true;
            eprintln!(
                "avr: batched timed walk falling back to per-word: L1 latency {} exceeds \
                 the ROB-hide window {} or the 50-cycle bound (results stay bit-identical, \
                 bulk accesses just lose their speedup)",
                self.cfg.l1.latency,
                self.core.hide_window()
            );
        }
        false
    }

    /// Has this run warned about the span_hits per-word fallback?
    pub fn span_fallback_warned(&self) -> bool {
        self.span_fallback_warned
    }

    /// `n` guaranteed-L1-hit accesses to `line`. Residency is the caller's
    /// contract: the span's leading access (a full [`Self::access_timed`])
    /// just touched the line, so it is resident in L1 and every further
    /// access to it is a pure-metadata hit (see the ordering contract on
    /// `access_timed`). The closed form folds all `n` per-word walks into
    /// one interval-core batch, one L1 tag probe and one counter update —
    /// bit-identical to `n` per-word walks, which remain reachable via
    /// `AVR_NO_BATCHED_WALK=1`.
    fn span_hits(&mut self, line: LineAddr, n: u64, is_write: bool) {
        if n == 0 {
            return;
        }
        if !self.batch_hits_ok_or_warn() {
            for _ in 0..n {
                self.access_timed(line, is_write);
            }
            return;
        }
        let lat = self.cfg.l1.latency;
        self.core.issue_complete_short_n(n, lat);
        if is_write {
            self.counters.stores += n;
        } else {
            self.counters.loads += n;
        }
        self.l1.access_hit_n(line, n, is_write);
        self.counters.l1_hits += n;
        self.counters.amat_cycles_sum += n * lat;
        self.counters.amat_count += n;
    }

    /// Timed walk of a same-line span — `words` contiguous words starting
    /// at `start`, or a [`Self::line_run`] of strided/gathered elements
    /// whose leading element is `start`: full machinery for the leading
    /// access, closed-form hit batch for the rest.
    #[inline]
    fn span_timed(&mut self, start: PhysAddr, words: usize, is_write: bool) {
        let line = start.line();
        self.access_timed(line, is_write);
        self.span_hits(line, words as u64 - 1, is_write);
    }

    /// Length of the run of consecutive elements starting at `k` (of
    /// `len` total) whose addresses all fall on element `k`'s cacheline;
    /// `addr_of` maps element index → address. Shared by the strided and
    /// gather/scatter fast paths so every same-line run goes through the
    /// one [`Self::span_timed`] leading-access + hit-tail protocol.
    fn line_run(addr_of: impl Fn(usize) -> PhysAddr, k: usize, len: usize) -> usize {
        let line = addr_of(k).line();
        let mut run = 1;
        while k + run < len && addr_of(k + run).line() == line {
            run += 1;
        }
        run
    }

    /// Pre-scan for the gather/scatter fast path: a strictly ascending
    /// index set whose adjacent gaps are all ≥ one cacheline of elements
    /// can never place two consecutive elements on the same (64 B-aligned)
    /// line, so every run is provably length 1 and run-building can be
    /// skipped wholesale. Short-circuits at the first clustered pair, so
    /// the scan costs one early-exiting pass over dense index sets.
    fn indices_non_clustered(idx: &[u32]) -> bool {
        const LINE_ELEMS: u32 = (CL_BYTES / 4) as u32;
        idx.windows(2).all(|w| w[1] >= w[0].saturating_add(LINE_ELEMS))
    }

    fn fill_l1(&mut self, victim: Victim, line: LineAddr, dirty: bool, now: u64) {
        if let Some(ev) = self.l1.fill(victim, line, dirty) {
            if ev.dirty {
                // Write back into L2 (allocating): its victim cascades to
                // the LLC off the critical path.
                if let Some(ev2) = self.l2.writeback(ev.line) {
                    if ev2.dirty {
                        self.llc_writeback(ev2.line, now);
                    }
                }
            }
        }
    }

    fn fill_l2(&mut self, victim: Victim, line: LineAddr, now: u64) {
        if let Some(ev) = self.l2.fill(victim, line, false) {
            if ev.dirty {
                self.llc_writeback(ev.line, now);
            }
        }
    }

    // ------------------------------------------------------------------
    // LLC-level request, dispatched per design
    // ------------------------------------------------------------------

    fn llc_request(&mut self, line: LineAddr, t: u64) -> u64 {
        self.counters.llc_requests_total += 1;
        self.llc_line_touches += 1;
        self.with_policy(|p, sys| p.request(sys, line, t))
    }

    fn llc_writeback(&mut self, line: LineAddr, now: u64) {
        self.llc_line_touches += 1;
        self.with_policy(|p, sys| p.writeback(sys, line, now));
    }

    // ------------------------------------------------------------------
    // DRAM helpers with paper-facing traffic accounting
    // ------------------------------------------------------------------

    /// Write a full line to DRAM with traffic accounting and the device
    /// fault hook. Policies with design-specific writeback sizing
    /// (Truncate) implement their own variant; everything else funnels
    /// through here.
    pub(crate) fn dram_write_line(&mut self, line: LineAddr, now: u64) {
        let approx = self.approx_of(line);
        self.dram.access_bytes(line, AccessKind::Write, now, CL_BYTES);
        self.count_traffic(approx.is_some(), true, CL_BYTES as u64);
        self.device_line_faults(line, AccessKind::Write, now);
    }

    pub(crate) fn count_traffic(&mut self, approx: bool, write: bool, bytes: u64) {
        let t = &mut self.counters.traffic;
        match (approx, write) {
            (true, false) => t.approx_read_bytes += bytes,
            (true, true) => t.approx_write_bytes += bytes,
            (false, false) => t.nonapprox_read_bytes += bytes,
            (false, true) => t.nonapprox_write_bytes += bytes,
        }
    }

    // ------------------------------------------------------------------
    // Run finalization
    // ------------------------------------------------------------------

    /// Core diagnostics: (leading misses, trailing misses, stall cycles).
    pub fn core_diag(&self) -> (u64, u64, u64) {
        (self.core.leading_misses, self.core.trailing_misses, self.core.stall_cycles)
    }

    /// Drain the pipeline and assemble the paper-facing metrics.
    pub fn finish(&mut self, benchmark: &str) -> RunMetrics {
        self.core.drain();
        let policy = self.policy.as_ref().expect("design policy present");
        let (blocks_compressed, compression_failures) = policy.codec_stats();
        let has_compressor = policy.has_compressor();
        let llc_cms_fraction = policy.llc_cms_fraction();
        self.counters.instructions = self.core.instructions;
        self.counters.blocks_compressed = blocks_compressed;
        self.counters.compression_failures = compression_failures;

        let cycles = self.core.cycles;
        let exec_seconds = cycles as f64 / self.cfg.clock_hz;

        let events = EnergyEvents {
            instructions: self.core.instructions,
            l1_accesses: self.counters.loads + self.counters.stores,
            l2_accesses: self.l2.stats.hits + self.l2.stats.misses,
            llc_line_accesses: self.llc_line_touches,
            dram_bytes: self.dram.stats.total_bytes(),
            dram_activates: self.dram.stats.activates,
            dram_refreshes: self.dram.stats.refreshes,
            ecc_scrubs: self.counters.faults.ecc_scrubs,
            blocks_compressed,
            blocks_decompressed: self.counters.blocks_decompressed,
        };
        let energy = self.energy_model.breakdown(&events, exec_seconds, has_compressor);

        let (ratio, footprint, scan) = self.compression_summary();

        RunMetrics {
            design: self.design.label().to_string(),
            benchmark: benchmark.to_string(),
            counters: self.counters,
            cycles,
            exec_seconds,
            ipc: self.core.ipc(),
            energy,
            output_error: 0.0, // filled by the workload runner
            compression_ratio: ratio,
            approx_blocks: scan.blocks,
            compressible_blocks: scan.compressible,
            footprint_fraction: footprint,
            llc_cms_fraction,
        }
    }

    /// Table 4: sweep the approximable regions, compress every block from
    /// its final values, and report the footprint-weighted ratio plus the
    /// whole-application footprint fraction. The block scan
    /// ([`crate::summary`]) reuses one compressor's scratch for every
    /// block.
    fn compression_summary(&mut self) -> (f64, f64, crate::summary::BlockScan) {
        let (total, approx) = self.space.footprint();
        if total == 0 {
            return (1.0, 1.0, crate::summary::BlockScan::default());
        }
        let (ratio, scan) = self.with_policy(|p, sys| p.summary(sys));
        let approx_f = approx as f64;
        let nonapprox_f = (total - approx) as f64;
        let effective = if self.honor_approx { approx_f / ratio.max(1.0) } else { approx_f };
        let footprint = (effective + nonapprox_f) / total as f64;
        (ratio, footprint, scan)
    }
}

impl Vm for System {
    fn malloc(&mut self, len_bytes: usize) -> Region {
        // Per-region fault slots (and any per-region policy state) are
        // sized at malloc time so neither the fault hook nor the policy
        // request path allocates in steady state (tests/zero_alloc.rs).
        self.region_faults.push(FaultBreakdown::default());
        let r = self.space.malloc(len_bytes);
        if let Some(p) = self.policy.as_mut() {
            p.on_region(&r);
        }
        r
    }

    fn approx_malloc(&mut self, len_bytes: usize, dt: DataType) -> Region {
        self.region_faults.push(FaultBreakdown::default());
        let r = self.space.approx_malloc(len_bytes, dt);
        if let Some(p) = self.policy.as_mut() {
            p.on_region(&r);
        }
        r
    }

    fn approx_malloc_with(&mut self, len_bytes: usize, dt: DataType, opts: RegionOpts) -> Region {
        self.region_faults.push(FaultBreakdown::default());
        let r = self.space.approx_malloc_with(len_bytes, dt, opts);
        if let Some(p) = self.policy.as_mut() {
            p.on_region(&r);
        }
        r
    }

    fn read_u32(&mut self, addr: PhysAddr) -> u32 {
        self.access(addr, None)
    }

    fn write_u32(&mut self, addr: PhysAddr, val: u32) {
        self.access(addr, Some(val));
    }

    fn compute(&mut self, n: u64) {
        self.core.compute(n);
    }

    // ------------------------------------------------------------------
    // Bulk fast paths: one dyn dispatch per batch, then two batching
    // levels per cacheline span, both bit-identical to the word-at-a-time
    // decomposition (tests/bulk_api.rs and tests/batched_walk.rs pin this
    // per workload × design):
    //
    // * value movement — translation hoisted per span, values moved as
    //   one slice copy;
    // * the timed walk — the span's leading word runs the full
    //   `access_timed` machinery, the remaining words are guaranteed L1
    //   hits folded into closed-form core/cache/counter updates
    //   (`span_hits`; per-word walk retained behind
    //   `AVR_NO_BATCHED_WALK=1`).
    //
    // Value-movement ordering: within one cacheline span, only the first
    // timed access can mutate the backing store (see `access_timed`), so
    // the span's values move in a single slice copy after its timed walk;
    // spans are processed in address order so a later span's miss-path
    // machinery (compression, truncation, dedup of whole blocks) observes
    // every earlier value exactly as the per-word path would.
    // ------------------------------------------------------------------

    fn read_u32s(&mut self, addr: PhysAddr, out: &mut [u32]) {
        let mut done = 0;
        for (start, n) in Self::line_spans(addr, out.len()) {
            self.span_timed(start, n, false);
            self.mem.read_words(start, &mut out[done..done + n]);
            done += n;
        }
    }

    fn write_u32s(&mut self, addr: PhysAddr, vals: &[u32]) {
        let mut done = 0;
        for (start, n) in Self::line_spans(addr, vals.len()) {
            self.span_timed(start, n, true);
            self.mem.write_words(start, &vals[done..done + n]);
            done += n;
        }
    }

    fn read_f32s(&mut self, addr: PhysAddr, out: &mut [f32]) {
        let mut done = 0;
        for (start, n) in Self::line_spans(addr, out.len()) {
            self.span_timed(start, n, false);
            self.mem.read_words_f32(start, &mut out[done..done + n]);
            done += n;
        }
    }

    fn write_f32s(&mut self, addr: PhysAddr, vals: &[f32]) {
        let mut done = 0;
        for (start, n) in Self::line_spans(addr, vals.len()) {
            self.span_timed(start, n, true);
            self.mem.write_words_f32(start, &vals[done..done + n]);
            done += n;
        }
    }

    fn read_f32s_strided(&mut self, base: PhysAddr, stride_bytes: u64, out: &mut [f32]) {
        // Consecutive elements share a line whenever the stride is small
        // (planar sub-line walks, stride-0 broadcasts): batch each
        // same-line run like a contiguous span. Hit accesses never touch
        // the backing store and value moves never touch timing, so
        // hoisting the run's timed walk ahead of its value reads is
        // unobservable (the per-word reference interleaves them).
        let addr_of = |j: usize| PhysAddr(base.0 + j as u64 * stride_bytes);
        // Two addresses ≥ one cacheline apart can never share a line, so
        // wide strides skip the per-element run-building pass outright.
        let wide = stride_bytes >= CL_BYTES as u64;
        let mut k = 0;
        while k < out.len() {
            let run = if wide { 1 } else { Self::line_run(addr_of, k, out.len()) };
            self.span_timed(addr_of(k), run, false);
            for (j, o) in out[k..k + run].iter_mut().enumerate() {
                *o = f32::from_bits(self.mem.read_u32(addr_of(k + j)));
            }
            k += run;
        }
    }

    fn write_f32s_strided(&mut self, base: PhysAddr, stride_bytes: u64, vals: &[f32]) {
        let addr_of = |j: usize| PhysAddr(base.0 + j as u64 * stride_bytes);
        let wide = stride_bytes >= CL_BYTES as u64; // runs are provably length 1
        let mut k = 0;
        while k < vals.len() {
            let run = if wide { 1 } else { Self::line_run(addr_of, k, vals.len()) };
            self.span_timed(addr_of(k), run, true);
            for (j, v) in vals[k..k + run].iter().enumerate() {
                self.mem.write_u32(addr_of(k + j), v.to_bits());
            }
            k += run;
        }
    }

    fn read_u32s_strided(&mut self, base: PhysAddr, stride_bytes: u64, out: &mut [u32]) {
        let addr_of = |j: usize| PhysAddr(base.0 + j as u64 * stride_bytes);
        let wide = stride_bytes >= CL_BYTES as u64;
        let mut k = 0;
        while k < out.len() {
            let run = if wide { 1 } else { Self::line_run(addr_of, k, out.len()) };
            self.span_timed(addr_of(k), run, false);
            for (j, o) in out[k..k + run].iter_mut().enumerate() {
                *o = self.mem.read_u32(addr_of(k + j));
            }
            k += run;
        }
    }

    fn write_u32s_strided(&mut self, base: PhysAddr, stride_bytes: u64, vals: &[u32]) {
        let addr_of = |j: usize| PhysAddr(base.0 + j as u64 * stride_bytes);
        let wide = stride_bytes >= CL_BYTES as u64;
        let mut k = 0;
        while k < vals.len() {
            let run = if wide { 1 } else { Self::line_run(addr_of, k, vals.len()) };
            self.span_timed(addr_of(k), run, true);
            for (j, v) in vals[k..k + run].iter().enumerate() {
                self.mem.write_u32(addr_of(k + j), *v);
            }
            k += run;
        }
    }

    fn read_f32s_gather(&mut self, base: PhysAddr, idx: &[u32], out: &mut [f32]) {
        assert_eq!(idx.len(), out.len(), "gather index/output shapes must match");
        // Gathers over clustered index sets (plane walks, stencil
        // neighborhoods) visit the same line many times in a row —
        // including duplicate indices; batch each same-line run. A sorted
        // index set whose gaps are all at least a cacheline is the
        // opposite extreme: every run is provably length 1, so skip the
        // per-element run-building pass (the gather twin of the wide-
        // stride fast path above).
        let addr_of = |j: usize| PhysAddr(base.0 + 4 * idx[j] as u64);
        let scattered = Self::indices_non_clustered(idx);
        let mut k = 0;
        while k < idx.len() {
            let run = if scattered { 1 } else { Self::line_run(addr_of, k, idx.len()) };
            self.span_timed(addr_of(k), run, false);
            for j in k..k + run {
                out[j] = f32::from_bits(self.mem.read_u32(addr_of(j)));
            }
            k += run;
        }
    }

    fn write_f32s_scatter(&mut self, base: PhysAddr, idx: &[u32], vals: &[f32]) {
        assert_eq!(idx.len(), vals.len(), "scatter index/value shapes must match");
        let addr_of = |j: usize| PhysAddr(base.0 + 4 * idx[j] as u64);
        let scattered = Self::indices_non_clustered(idx);
        let mut k = 0;
        while k < idx.len() {
            let run = if scattered { 1 } else { Self::line_run(addr_of, k, idx.len()) };
            self.span_timed(addr_of(k), run, true);
            // Value writes stay in element order: duplicate indices keep
            // last-write-wins semantics exactly like the per-word loop.
            for j in k..k + run {
                self.mem.write_u32(addr_of(j), vals[j].to_bits());
            }
            k += run;
        }
    }

    fn for_each_f32_mut(
        &mut self,
        addr: PhysAddr,
        n: usize,
        compute_per_value: u64,
        f: &mut dyn FnMut(usize, f32) -> f32,
    ) {
        const LINE_WORDS: usize = CL_BYTES / 4;
        let mut old = [0f32; LINE_WORDS];
        let mut new = [0f32; LINE_WORDS];
        let mut done = 0;
        for (start, m) in Self::line_spans(addr, n) {
            let line = start.line();
            // First timed load may fetch/reconstruct the line; snapshot
            // the span's (possibly rewritten) values right after it —
            // every later access in the span is an L1 hit, and the
            // defaults' interleaved stores can't be observed before the
            // splice because nothing reads the backing store in between.
            self.access_timed(line, false);
            self.mem.read_words_f32(start, &mut old[..m]);
            if self.batch_hits_ok_or_warn() {
                // Per-word order is R0 C0 W0 R1 C1 W1 …; everything after
                // R0 is an L1 hit. The one order-sensitive event is MSHR
                // back-pressure, which can only fire at the first issue
                // after R0 — that is W0, and it must see the cycle count
                // *after* element 0's compute — so: compute, then one
                // closed-form batch of the 2m-1 remaining hits (W0 plus
                // m-1 R/W pairs), then the m-1 remaining computes (slot
                // draining is an integer carry; the fold commutes).
                new[0] = f(done, old[0]);
                self.core.compute(compute_per_value);
                let hits = 2 * m as u64 - 1;
                let lat = self.cfg.l1.latency;
                self.core.issue_complete_short_n(hits, lat);
                self.core.compute(compute_per_value * (m as u64 - 1));
                for k in 1..m {
                    new[k] = f(done + k, old[k]);
                }
                self.counters.loads += m as u64 - 1;
                self.counters.stores += m as u64;
                self.l1.access_hit_n(line, hits, true);
                self.counters.l1_hits += hits;
                self.counters.amat_cycles_sum += hits * lat;
                self.counters.amat_count += hits;
            } else {
                for k in 0..m {
                    if k > 0 {
                        self.access_timed(line, false);
                    }
                    new[k] = f(done + k, old[k]);
                    self.core.compute(compute_per_value);
                    self.access_timed(line, true);
                }
            }
            self.mem.write_words_f32(start, &new[..m]);
            done += m;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avr_types::SystemConfig;

    fn sys(design: DesignKind) -> System {
        System::new(SystemConfig::tiny(), design)
    }

    #[test]
    fn read_after_write_is_exact_on_baseline() {
        let mut s = sys(DesignKind::Baseline);
        let r = s.approx_malloc(8192, DataType::F32);
        for i in 0..128u64 {
            s.write_f32(PhysAddr(r.base.0 + 4 * i), i as f32 * 1.5);
        }
        for i in 0..128u64 {
            assert_eq!(s.read_f32(PhysAddr(r.base.0 + 4 * i)), i as f32 * 1.5);
        }
    }

    #[test]
    fn l1_hits_are_cheap() {
        let mut s = sys(DesignKind::Baseline);
        let r = s.malloc(64);
        s.write_u32(r.base, 7);
        let c0 = s.core.cycles;
        for _ in 0..100 {
            s.read_u32(r.base);
        }
        // 100 L1 hits at width 4 -> ~25 cycles + change.
        assert!(s.core.cycles - c0 < 60, "L1 hits cost {}", s.core.cycles - c0);
        assert!(s.counters.l1_hits >= 100);
    }

    #[test]
    fn misses_reach_dram_and_count_traffic() {
        let mut s = sys(DesignKind::Baseline);
        let r = s.malloc(1 << 20); // 1 MB streams past the tiny hierarchy
        for i in (0..1 << 20).step_by(64) {
            s.read_u32(PhysAddr(r.base.0 + i as u64));
        }
        assert!(s.counters.llc_misses_total > 10_000);
        assert_eq!(s.counters.traffic.nonapprox_read_bytes, s.counters.llc_misses_total * 64);
    }

    #[test]
    fn truncate_halves_approx_read_traffic() {
        let run = |design| {
            let mut s = sys(design);
            let r = s.approx_malloc(1 << 20, DataType::F32);
            for i in (0..1 << 20).step_by(64) {
                s.read_u32(PhysAddr(r.base.0 + i as u64));
            }
            s.counters.traffic.approx_read_bytes
        };
        let base = run(DesignKind::Baseline);
        let trunc = run(DesignKind::Truncate);
        // Baseline ignores the annotation: bytes land in nonapprox; compare
        // absolute volumes instead.
        assert_eq!(base, 0);
        let mut s = sys(DesignKind::Baseline);
        let r = s.approx_malloc(1 << 20, DataType::F32);
        for i in (0..1 << 20).step_by(64) {
            s.read_u32(PhysAddr(r.base.0 + i as u64));
        }
        let base_bytes = s.counters.traffic.total();
        assert!((trunc as f64) < 0.6 * base_bytes as f64, "{trunc} vs {base_bytes}");
    }

    #[test]
    fn truncate_loses_low_mantissa_bits() {
        // Pin the exact backend: this test asserts a tight per-value error
        // band that a fault-injecting AVR_BACKEND override would smear.
        let cfg = SystemConfig::tiny().with_backend(avr_types::BackendKind::Exact);
        let mut s = System::new(cfg, DesignKind::Truncate);
        let r = s.approx_malloc(1 << 20, DataType::F32);
        let v = 1.2345678f32;
        s.write_f32(r.base, v);
        // Stream far past the hierarchy so the line is evicted & refetched.
        for i in (64..1 << 20).step_by(64) {
            s.read_u32(PhysAddr(r.base.0 + i as u64));
        }
        let back = s.read_f32(r.base);
        assert_ne!(back, v, "low bits must have been truncated");
        assert!(((back - v) / v).abs() < 0.01, "error bounded by fp16 cut");
    }

    #[test]
    fn zero_avr_never_compresses() {
        let mut s = sys(DesignKind::ZeroAvr);
        let r = s.approx_malloc(1 << 18, DataType::F32);
        for i in (0..1 << 18).step_by(4) {
            s.write_f32(PhysAddr(r.base.0 + i as u64), (i as f32 * 0.001).sin());
        }
        for i in (0..1 << 18).step_by(64) {
            s.read_u32(PhysAddr(r.base.0 + i as u64));
        }
        let p = s.policy_as::<crate::avr_ops::DecoupledPolicy>().unwrap();
        assert_eq!(p.compressor.attempts, 0);
        assert_eq!(s.counters.approx_requests.total(), 0, "no approx classification");
    }

    #[test]
    fn bulk_ops_are_bit_identical_to_word_at_a_time() {
        use crate::vm_api::WordAtATime;
        // Drive the same unaligned, cross-block access pattern through the
        // bulk fast paths and through the default decompositions; every
        // metric and every memory value must match on every design.
        let drive = |vm: &mut dyn Vm| {
            let r = vm.approx_malloc(256 << 10, DataType::F32);
            let scratch = vm.malloc(64 << 10);
            let vals: Vec<f32> = (0..20_000).map(|i| 100.0 + (i as f32) * 0.01).collect();
            // Unaligned base (word 3), spans many 1 KB blocks.
            vm.write_f32s(PhysAddr(r.base.0 + 12), &vals);
            vm.compute(5_000);
            let mut buf = vec![0f32; 20_000];
            vm.read_f32s(PhysAddr(r.base.0 + 12), &mut buf);
            // Column walk (stride = one line) + scatter/gather.
            vm.write_f32s_strided(r.base, 64, &buf[..512]);
            let mut col = vec![0f32; 512];
            vm.read_f32s_strided(r.base, 64, &mut col);
            let idx: Vec<u32> = (0..700u32).map(|i| (i * 997) % 20_000).collect();
            vm.write_f32s_scatter(r.base, &idx, &buf[..700]);
            let mut g = vec![0f32; 700];
            vm.read_f32s_gather(r.base, &idx, &mut g);
            // Fused sweep over a region that spills the tiny hierarchy.
            vm.for_each_f32_mut(r.base, 30_000, 2, &mut |k, v| v + (k % 7) as f32);
            // Precise u32 traffic through the scratch region.
            let words: Vec<u32> = (0..4096).map(|i| i * 31).collect();
            vm.write_u32s(scratch.base, &words);
            let mut wb = vec![0u32; 4096];
            vm.read_u32s(scratch.base, &mut wb);
        };
        for design in DesignKind::ALL {
            let mut fast = sys(design);
            drive(&mut fast);
            let mut word = sys(design);
            drive(&mut WordAtATime(&mut word));
            assert_eq!(fast.core.cycles, word.core.cycles, "{design:?}: cycles");
            assert_eq!(fast.counters.traffic, word.counters.traffic, "{design:?}: traffic");
            assert_eq!(fast.counters.loads, word.counters.loads, "{design:?}: loads");
            assert_eq!(fast.counters.stores, word.counters.stores, "{design:?}: stores");
            assert_eq!(fast.counters.l1_hits, word.counters.l1_hits, "{design:?}: l1 hits");
            assert_eq!(
                fast.counters.llc_misses_total, word.counters.llc_misses_total,
                "{design:?}: LLC misses"
            );
            assert_eq!(fast.core.instructions, word.core.instructions, "{design:?}: instructions");
            for i in 0..(320 << 10) / 4u64 {
                let a = PhysAddr(4096 + 4 * i);
                assert_eq!(
                    fast.mem.read_u32(a),
                    word.mem.read_u32(a),
                    "{design:?}: mem diverges at {a:?}"
                );
            }
        }
    }

    #[test]
    fn span_fallback_warns_once_when_batch_preconditions_fail() {
        use crate::vm_api::Vm;
        // An L1 latency past the batch ceiling forces the per-word fallback;
        // the walk is still correct but the user should hear about it once.
        let mut cfg = SystemConfig::tiny();
        cfg.l1.latency = 60;
        let mut s = System::new(cfg, DesignKind::Baseline);
        // Pin batching on so the AVR_NO_BATCHED_WALK=1 CI leg (a deliberate
        // opt-out, which must stay silent) still tests the warning.
        s.set_batched_walk(true);
        let r = s.malloc(4096);
        let vals = vec![1.5f32; 256];
        Vm::write_f32s(&mut s, r.base, &vals);
        assert!(s.span_fallback_warned(), "degraded batch walk must warn");
        let mut buf = vec![0f32; 256];
        Vm::read_f32s(&mut s, r.base, &mut buf);
        assert_eq!(buf, vals, "fallback path must still move correct values");

        // Default geometry: batch preconditions hold, no warning.
        let mut ok = sys(DesignKind::Baseline);
        ok.set_batched_walk(true);
        let r = ok.malloc(4096);
        Vm::write_f32s(&mut ok, r.base, &vals);
        assert!(!ok.span_fallback_warned());

        // Explicitly disabling the batched walk is a deliberate choice, not
        // a degradation — same fallback, no warning.
        let mut cfg = SystemConfig::tiny();
        cfg.l1.latency = 60;
        let mut off = System::new(cfg, DesignKind::Baseline);
        off.set_batched_walk(false);
        let r = off.malloc(4096);
        Vm::write_f32s(&mut off, r.base, &vals);
        assert!(!off.span_fallback_warned());
    }

    #[test]
    fn wide_strides_skip_run_building_and_stay_bit_identical() {
        use crate::vm_api::{Vm, WordAtATime};
        // Strides of at least one cacheline can never share a line between
        // consecutive elements, so the strided paths skip the per-element
        // run-building pass — timing and values must not change.
        for design in DesignKind::ALL {
            // Lossy designs may reconstruct different values than were
            // written, so compare the two paths against each other.
            let drive = |vm: &mut dyn Vm| -> Vec<u32> {
                let r = vm.approx_malloc(256 << 10, DataType::F32);
                let vals: Vec<f32> = (0..1500).map(|i| 1.0 + i as f32 * 0.25).collect();
                vm.write_f32s_strided(r.base, 128, &vals);
                let mut back = vec![0f32; 1500];
                vm.read_f32s_strided(r.base, 128, &mut back);
                back.iter().map(|v| v.to_bits()).collect()
            };
            let mut fast = sys(design);
            let fast_back = drive(&mut fast);
            let mut word = sys(design);
            let word_back = drive(&mut WordAtATime(&mut word));
            assert_eq!(fast_back, word_back, "{design:?}: read-back values");
            assert_eq!(fast.core.cycles, word.core.cycles, "{design:?}: cycles");
            assert_eq!(fast.counters.traffic, word.counters.traffic, "{design:?}: traffic");
            assert_eq!(fast.counters.l1_hits, word.counters.l1_hits, "{design:?}: l1 hits");
        }
    }

    #[test]
    fn scattered_gathers_skip_run_building_and_stay_bit_identical() {
        use crate::vm_api::{Vm, WordAtATime};
        // A sorted index set with gaps of ≥ 16 elements (one cacheline)
        // provably never clusters, so the gather/scatter paths skip
        // run-building — timing, counters, and values must not change.
        // Mix in a clustered index set in the same run to cover the
        // pre-scan's negative branch against the same oracle.
        for design in DesignKind::ALL {
            let drive = |vm: &mut dyn Vm| -> Vec<u32> {
                let r = vm.approx_malloc(256 << 10, DataType::F32);
                let vals: Vec<f32> = (0..1200).map(|i| 2.0 + i as f32 * 0.125).collect();
                // Non-clustered: ascending, gap 17 elements (> one line).
                let sparse: Vec<u32> = (0..1200u32).map(|i| i * 17).collect();
                vm.write_f32s_scatter(r.base, &sparse, &vals);
                let mut back = vec![0f32; 1200];
                vm.read_f32s_gather(r.base, &sparse, &mut back);
                // Clustered: stencil-style neighborhoods with duplicates.
                let dense: Vec<u32> =
                    (0..300u32).flat_map(|i| [i * 5, i * 5 + 1, i * 5 + 1, i * 5 + 9]).collect();
                vm.write_f32s_scatter(r.base, &dense, &vals);
                let mut dback = vec![0f32; 1200];
                vm.read_f32s_gather(r.base, &dense, &mut dback);
                back.iter().chain(dback.iter()).map(|v| v.to_bits()).collect()
            };
            let mut fast = sys(design);
            let fast_back = drive(&mut fast);
            let mut word = sys(design);
            let word_back = drive(&mut WordAtATime(&mut word));
            assert_eq!(fast_back, word_back, "{design:?}: read-back values");
            assert_eq!(fast.core.cycles, word.core.cycles, "{design:?}: cycles");
            assert_eq!(fast.counters.traffic, word.counters.traffic, "{design:?}: traffic");
            assert_eq!(fast.counters.l1_hits, word.counters.l1_hits, "{design:?}: l1 hits");
            assert_eq!(fast.counters.loads, word.counters.loads, "{design:?}: loads");
            assert_eq!(fast.counters.stores, word.counters.stores, "{design:?}: stores");
        }
    }

    #[test]
    fn u32_strided_paths_match_word_at_a_time() {
        use crate::vm_api::{Vm, WordAtATime};
        // The u32 strided entry points (new with the layout axis: AoS /
        // partitioned walks of integer fields) get the same oracle pinning
        // as their f32 twins — narrow and wide strides, precise and approx.
        for design in DesignKind::ALL {
            let drive = |vm: &mut dyn Vm| -> Vec<u32> {
                let p = vm.malloc(64 << 10);
                let a = vm.approx_malloc(128 << 10, DataType::F32);
                let vals: Vec<u32> =
                    (0..1000u32).map(|i| i.wrapping_mul(2654435761).wrapping_add(i)).collect();
                vm.write_u32s_strided(p.base, 20, &vals); // sub-line stride
                vm.write_u32s_strided(a.base, 128, &vals); // wide stride
                let mut n = vec![0u32; 1000];
                vm.read_u32s_strided(p.base, 20, &mut n);
                let mut w = vec![0u32; 1000];
                vm.read_u32s_strided(a.base, 128, &mut w);
                n.extend_from_slice(&w);
                n
            };
            let mut fast = sys(design);
            let fast_back = drive(&mut fast);
            let mut word = sys(design);
            let word_back = drive(&mut WordAtATime(&mut word));
            assert_eq!(fast_back, word_back, "{design:?}: read-back values");
            assert_eq!(fast.core.cycles, word.core.cycles, "{design:?}: cycles");
            assert_eq!(fast.counters.traffic, word.counters.traffic, "{design:?}: traffic");
            assert_eq!(fast.counters.l1_hits, word.counters.l1_hits, "{design:?}: l1 hits");
        }
    }

    #[test]
    fn finish_produces_consistent_metrics() {
        let mut s = sys(DesignKind::Baseline);
        let r = s.malloc(1 << 16);
        for i in (0..1 << 16).step_by(64) {
            s.read_u32(PhysAddr(r.base.0 + i as u64));
            s.compute(10);
        }
        let m = s.finish("smoke");
        assert!(m.cycles > 0);
        assert!(m.ipc > 0.0);
        assert!(m.exec_seconds > 0.0);
        assert!(m.energy.total() > 0.0);
        assert_eq!(m.energy.compressor, 0.0, "baseline has no compressor");
        assert!(m.counters.amat() >= 1.0);
        assert_eq!(m.design, "baseline");
    }
}
