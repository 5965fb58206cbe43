//! The AVR memory operations (paper §3.5) as a [`DesignPolicy`]: the LLC
//! request flow of Fig. 7 and the eviction flow of Fig. 8, orchestrated
//! over the decoupled LLC, the compressor module, the CMT, the DBUF and
//! the PFE. Implements both `ZeroAvr` (the decoupled cache with the
//! compression path disabled by construction: approx annotations are not
//! honored, so every line takes the precise UCL path) and `Avr`.
//!
//! ### Value-feedback semantics
//!
//! The backing store always holds the *latest architecturally visible*
//! values. Each successful compression writes `reconstruct(compress(block))`
//! back to the store (outliers exact), so later readers — whether they hit
//! the compressed image in the LLC, the DBUF, or fetch from memory — observe
//! exactly what the hardware would decode. Overlaying lazily evicted lines
//! and dirty UCLs during recompaction needs no special handling: their
//! values are already current in the store. The one simplification: a
//! recompression folds in the values of *all* lines of the block, including
//! ones whose UCLs are still dirty upstream, which is a latest-value
//! resolution of an ordering the paper leaves unspecified.

use avr_cache::cmt::{CmtCache, CmtTable, CMT_MISS_BYTES};
use avr_cache::dbuf::Dbuf;
use avr_cache::llc::{AvrLlc, Evicted};
use avr_cache::pfe::PrefetchEngine;
use avr_compress::{Compressor, Thresholds};
use avr_dram::AccessKind;
use avr_types::{
    BlockAddr, DataType, DesignKind, LineAddr, SystemConfig, CL_BYTES, LINES_PER_BLOCK,
};

use crate::design::DesignPolicy;
use crate::summary::BlockScan;
use crate::system::System;

/// `ZeroAvr` and `Avr`: the decoupled UCL/CMS cache plus the AVR block
/// machinery (compressor, CMT + its on-chip cache, DBUF, PFE).
pub struct DecoupledPolicy {
    kind: DesignKind,
    pub(crate) llc: AvrLlc,
    pub(crate) compressor: Compressor,
    pub(crate) cmt: CmtTable,
    cmt_cache: CmtCache,
    dbuf: Dbuf,
    pfe: PrefetchEngine,
    /// Reusable eviction work queue: LLC operations append what they
    /// displace here, and the eviction machine drains it (capacity retained
    /// across requests so the steady-state path never allocates).
    evict_queue: Vec<Evicted>,
}

impl DecoupledPolicy {
    pub(crate) fn new(kind: DesignKind, cfg: &SystemConfig) -> Self {
        debug_assert!(matches!(kind, DesignKind::ZeroAvr | DesignKind::Avr));
        let thresholds = Thresholds::new(cfg.avr.t1, cfg.avr.t2);
        DecoupledPolicy {
            kind,
            llc: AvrLlc::new(cfg.llc),
            compressor: Compressor::new(thresholds, cfg.avr.max_compressed_lines),
            cmt: CmtTable::default(),
            cmt_cache: CmtCache::new(cfg.avr.cmt_cache_pages),
            dbuf: Dbuf::new(),
            pfe: PrefetchEngine::new(cfg.avr.pfe_threshold),
            evict_queue: Vec::with_capacity(256),
        }
    }

    /// Consult the CMT through its on-chip cache; misses cost metadata
    /// bandwidth (§3.2).
    fn cmt_touch(&mut self, sys: &mut System, block: BlockAddr) {
        if !self.cmt_cache.touch(block) {
            sys.counters.traffic.metadata_bytes += CMT_MISS_BYTES;
        }
    }

    // ------------------------------------------------------------------
    // Fig. 7: LLC requests
    // ------------------------------------------------------------------

    /// The approximate-request flow of Fig. 7.
    fn avr_request(&mut self, sys: &mut System, line: LineAddr, dt: DataType, t: u64) -> u64 {
        let llc_lat = sys.cfg.llc.latency;
        let block = line.block();

        // (a) DBUF lookup (accessed in parallel with the LLC tag array).
        if sys.cfg.avr.enable_dbuf && self.dbuf.request(line) {
            sys.counters.approx_requests.dbuf_hit += 1;
            // "the UCL is also written from DBUF to the LLC".
            self.insert_ucl(sys, line, false, t);
            return t + llc_lat;
        }

        // (b) UCL lookup.
        if self.llc.access_ucl(line, false) {
            sys.counters.approx_requests.uncompressed_hit += 1;
            return t + llc_lat;
        }

        // (c) CMS lookup: the compressed block is resident — read all its
        // sub-blocks (one LLC access each) and decompress.
        if let Some(count) = self.llc.probe_cms(block) {
            sys.counters.approx_requests.compressed_hit += 1;
            sys.llc_line_touches += count as u64;
            let lat = llc_lat * count as u64 + self.compressor.latency.decompress_total();
            sys.counters.compressed_hit_cycles_sum += lat;
            sys.counters.blocks_decompressed += 1;
            self.load_dbuf(sys, block, line, t);
            self.insert_ucl(sys, line, false, t + lat);
            return t + lat;
        }

        // (d) Full miss: consult the CMT and go to memory.
        sys.counters.approx_requests.miss += 1;
        sys.counters.llc_misses_total += 1;
        self.cmt_touch(sys, block);
        let entry = self.cmt.get(block);

        if !entry.compressed {
            // Block stored uncompressed: fetch just the requested line.
            let resp = sys.dram.access(line, AccessKind::Read, t + llc_lat);
            sys.count_traffic(true, false, CL_BYTES as u64);
            sys.device_line_faults(line, AccessKind::Read, resp.complete_at);
            self.insert_ucl(sys, line, false, resp.complete_at);
            return resp.complete_at;
        }

        // Compressed block (+ any lazily evicted lines) comes on-chip.
        // The demand request is served as soon as the compressed image
        // (summary + bitmap + outliers) arrives and decompresses; the lazy
        // lines stream in behind it and only gate the background
        // recompaction, not the core.
        let resp = sys.dram.access_burst(
            block.line(0),
            entry.size_lines as usize,
            AccessKind::Read,
            t + llc_lat,
        );
        if entry.n_lazy > 0 {
            sys.dram.access_burst(
                block.line(entry.size_lines as usize),
                entry.n_lazy as usize,
                AccessKind::Read,
                t + llc_lat,
            );
        }
        let lines = (entry.size_lines + entry.n_lazy) as usize;
        sys.count_traffic(true, false, (lines * CL_BYTES) as u64);
        // The compressed image + lazy lines occupy the block's first
        // `lines` device lines — that is the exposed fault surface, applied
        // (before any recompression below reads the block) to the
        // reconstructed data the backing store holds for them.
        sys.device_burst_faults(block.line(0), lines, AccessKind::Read, resp.complete_at);
        sys.counters.blocks_decompressed += 1;
        let completion = resp.complete_at + self.compressor.latency.decompress_total();

        if entry.n_lazy > 0 {
            // Incorporate the lazy lines and immediately recompress
            // (values are already current in the backing store).
            let data = sys.mem.read_block(block);
            match self.compressor.compress(&data, dt) {
                Ok(o) => {
                    sys.mem.write_block(block, &o.reconstructed);
                    let size = o.compressed.size_lines() as u8;
                    let e = self.cmt.get_mut(block);
                    e.compressed = true;
                    e.size_lines = size;
                    e.n_lazy = 0;
                    e.method = o.compressed.method.encode();
                    e.bias = o.compressed.bias;
                    e.record_attempt(true);
                    if sys.cfg.avr.store_cms_in_llc {
                        // Dirty: memory's image is stale until written back.
                        self.insert_cms(sys, block, size, true, completion);
                        sys.llc_line_touches += size as u64;
                    } else {
                        // Without LLC co-location the recompacted image goes
                        // straight back to memory.
                        sys.dram.access_burst(
                            block.line(0),
                            size as usize,
                            AccessKind::Write,
                            completion,
                        );
                        sys.count_traffic(true, true, size as u64 * CL_BYTES as u64);
                        sys.device_burst_faults(
                            block.line(0),
                            size as usize,
                            AccessKind::Write,
                            completion,
                        );
                    }
                }
                Err(_) => {
                    // The updated block no longer compresses: it reverts to
                    // uncompressed storage, written back in full.
                    let e = self.cmt.get_mut(block);
                    e.compressed = false;
                    e.n_lazy = 0;
                    e.record_attempt(false);
                    sys.dram.access_burst(
                        block.line(0),
                        LINES_PER_BLOCK,
                        AccessKind::Write,
                        completion,
                    );
                    sys.count_traffic(true, true, (LINES_PER_BLOCK * CL_BYTES) as u64);
                    sys.device_burst_faults(
                        block.line(0),
                        LINES_PER_BLOCK,
                        AccessKind::Write,
                        completion,
                    );
                }
            }
        } else if sys.cfg.avr.store_cms_in_llc {
            // Store the compressed image in the LLC as-is (clean).
            self.insert_cms(sys, block, entry.size_lines, false, completion);
            sys.llc_line_touches += entry.size_lines as u64;
        }

        self.load_dbuf(sys, block, line, completion);
        self.insert_ucl(sys, line, false, completion);
        completion
    }

    /// Replace the DBUF contents with `block`, consulting the PFE about the
    /// outgoing block's unsaved lines (§3.3).
    fn load_dbuf(&mut self, sys: &mut System, block: BlockAddr, requested: LineAddr, now: u64) {
        debug_assert_eq!(requested.block(), block);
        if !sys.cfg.avr.enable_dbuf {
            return;
        }
        let old = self.dbuf.load(block, Some(requested.cl_offset()));
        if let Some(ev) = old {
            sys.counters.block_reuse_sum += ev.requested_mask.count_ones() as u64;
            sys.counters.block_reuse_count += 1;
            let save = self.pfe.decide(&ev);
            for cl in save.iter() {
                let l = ev.block.line(cl as usize);
                if !self.llc.probe_ucl(l) {
                    self.insert_ucl(sys, l, false, now);
                    sys.llc_line_touches += 1;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Fig. 8: LLC evictions
    // ------------------------------------------------------------------

    /// Insert a UCL into the LLC and run the eviction machine over what it
    /// displaced.
    fn insert_ucl(&mut self, sys: &mut System, line: LineAddr, dirty: bool, now: u64) {
        self.llc.insert_ucl(line, dirty, &mut self.evict_queue);
        self.handle_avr_evictions(sys, now);
    }

    /// Install `block`'s compressed image in the LLC and run the eviction
    /// machine over what it displaced.
    fn insert_cms(&mut self, sys: &mut System, block: BlockAddr, size: u8, dirty: bool, now: u64) {
        self.llc.insert_cms(block, size, dirty, &mut self.evict_queue);
        self.handle_avr_evictions(sys, now);
    }

    /// Run the eviction state machine over everything the last LLC
    /// operation appended to `evict_queue`, then empty it. Evictions are
    /// write-buffered: they cost traffic and events but do not extend the
    /// triggering request's latency. Recompressions append their own
    /// displacements to the same work list, behind the events still
    /// pending.
    fn handle_avr_evictions(&mut self, sys: &mut System, now: u64) {
        if self.evict_queue.is_empty() {
            return;
        }
        let mut work = std::mem::take(&mut self.evict_queue);
        let mut next = 0;
        while next < work.len() {
            let ev = work[next];
            next += 1;
            match ev {
                Evicted::Ucl { line, dirty } => {
                    if !dirty {
                        continue;
                    }
                    match sys.approx_of(line) {
                        None => {
                            sys.dram.access(line, AccessKind::Write, now);
                            sys.count_traffic(false, true, CL_BYTES as u64);
                            sys.device_line_faults(line, AccessKind::Write, now);
                        }
                        Some(dt) => self.evict_dirty_approx_ucl(sys, line, dt, now, &mut work),
                    }
                }
                Evicted::CmsBlock { block, dirty, size_lines } => {
                    if !dirty {
                        continue; // memory's image is current
                    }
                    self.writeback_dirty_image(sys, block, size_lines, now);
                }
            }
        }
        work.clear();
        self.evict_queue = work;
    }

    /// Fig. 8, dirty-UCL path.
    fn evict_dirty_approx_ucl(
        &mut self,
        sys: &mut System,
        line: LineAddr,
        dt: DataType,
        now: u64,
        work: &mut Vec<Evicted>,
    ) {
        let block = line.block();

        // Compressed block resident in LLC? -> update + recompress on-chip.
        if let Some(count) = self.llc.probe_cms(block) {
            sys.llc_line_touches += count as u64;
            sys.counters.blocks_decompressed += 1;
            let data = sys.mem.read_block(block);
            if let Ok(o) = self.compressor.compress(&data, dt) {
                sys.counters.evictions.recompress += 1;
                sys.mem.write_block(block, &o.reconstructed);
                let size = o.compressed.size_lines() as u8;
                debug_assert!(sys.cfg.avr.store_cms_in_llc, "CMS hit implies co-location");
                self.llc.insert_cms(block, size, true, work);
                // The block's other dirty UCLs folded into the dirty image
                // ("Overlay Dirty UCLs", Fig. 8): they are clean now.
                self.llc.clean_ucls_of(block);
                sys.llc_line_touches += size as u64;
                return;
            }
            // Recompression failed: fall through to the lazy/fetch paths.
        }

        self.cmt_touch(sys, block);
        let entry = self.cmt.get(block);

        if sys.cfg.avr.enable_lazy && entry.compressed && entry.lazy_space() > 0 {
            // Lazy writeback: park the line uncompressed in the block's
            // free space.
            sys.counters.evictions.lazy_writeback += 1;
            sys.dram.access(line, AccessKind::Write, now);
            sys.count_traffic(true, true, CL_BYTES as u64);
            sys.device_line_faults(line, AccessKind::Write, now);
            self.cmt.get_mut(block).n_lazy += 1;
            return;
        }

        if entry.compressed {
            // No free space: fetch, merge, recompress, write back.
            sys.counters.evictions.fetch_recompress += 1;
            let lines = (entry.size_lines + entry.n_lazy) as usize;
            sys.dram.access_burst(block.line(0), lines, AccessKind::Read, now);
            sys.count_traffic(true, false, (lines * CL_BYTES) as u64);
            sys.device_burst_faults(block.line(0), lines, AccessKind::Read, now);
            sys.counters.blocks_decompressed += 1;
            if self.compress_to_memory(sys, block, dt, now) {
                self.llc.clean_ucls_of(block);
            }
            return;
        }

        // Block is uncompressed in memory. Honor the skip history before
        // re-attempting compression (§3.5 last paragraph).
        if sys.cfg.avr.enable_skip_history && entry.should_skip() {
            sys.counters.evictions.uncompressed_writeback += 1;
            sys.counters.compression_skips += 1;
            self.cmt.get_mut(block).record_skip();
            sys.dram.access(line, AccessKind::Write, now);
            sys.count_traffic(true, true, CL_BYTES as u64);
            sys.device_line_faults(line, AccessKind::Write, now);
            return;
        }

        // Attempt to compress the whole block: read its other 15 lines.
        sys.counters.evictions.fetch_recompress += 1;
        sys.dram.access_burst(block.line(0), LINES_PER_BLOCK - 1, AccessKind::Read, now);
        sys.count_traffic(true, false, ((LINES_PER_BLOCK - 1) * CL_BYTES) as u64);
        sys.device_burst_faults(block.line(0), LINES_PER_BLOCK - 1, AccessKind::Read, now);
        if self.compress_to_memory(sys, block, dt, now) {
            // Sibling dirty UCLs folded in ("Overlay Dirty UCLs", Fig. 8).
            self.llc.clean_ucls_of(block);
        } else {
            // Failure: the dirty line goes back as-is.
            sys.counters.evictions.fetch_recompress -= 1;
            sys.counters.evictions.uncompressed_writeback += 1;
            sys.dram.access(line, AccessKind::Write, now);
            sys.count_traffic(true, true, CL_BYTES as u64);
            sys.device_line_faults(line, AccessKind::Write, now);
        }
    }

    /// Compress `block` from its current values and write the result to
    /// memory, updating the CMT. Returns `false` on compression failure
    /// (CMT then marks the block uncompressed; the caller handles the data
    /// writeback).
    fn compress_to_memory(
        &mut self,
        sys: &mut System,
        block: BlockAddr,
        dt: DataType,
        now: u64,
    ) -> bool {
        let data = sys.mem.read_block(block);
        match self.compressor.compress(&data, dt) {
            Ok(o) => {
                sys.mem.write_block(block, &o.reconstructed);
                let size = o.compressed.size_lines();
                sys.dram.access_burst(block.line(0), size, AccessKind::Write, now);
                sys.count_traffic(true, true, (size * CL_BYTES) as u64);
                sys.device_burst_faults(block.line(0), size, AccessKind::Write, now);
                let e = self.cmt.get_mut(block);
                e.compressed = true;
                e.size_lines = size as u8;
                e.n_lazy = 0;
                e.method = o.compressed.method.encode();
                e.bias = o.compressed.bias;
                e.record_attempt(true);
                true
            }
            Err(_) => {
                let e = self.cmt.get_mut(block);
                let was_compressed = e.compressed;
                e.compressed = false;
                e.n_lazy = 0;
                e.record_attempt(false);
                if was_compressed {
                    // The block reverts to uncompressed storage in full.
                    sys.dram.access_burst(block.line(0), LINES_PER_BLOCK, AccessKind::Write, now);
                    sys.count_traffic(true, true, (LINES_PER_BLOCK * CL_BYTES) as u64);
                    sys.device_burst_faults(block.line(0), LINES_PER_BLOCK, AccessKind::Write, now);
                }
                false
            }
        }
    }

    /// Fig. 8, dirty-CMS path: a dirty compressed image leaves the LLC.
    /// Dirty UCLs of the block fold in (their values are already current in
    /// the backing store) and become clean.
    fn writeback_dirty_image(
        &mut self,
        sys: &mut System,
        block: BlockAddr,
        size_lines: u8,
        now: u64,
    ) {
        debug_assert!(size_lines > 0);
        let Some(dt) = sys.approx_of(block.line(0)) else {
            debug_assert!(false, "compressed image of a precise block");
            return;
        };
        self.cmt_touch(sys, block);
        sys.counters.blocks_decompressed += 1;
        sys.llc_line_touches += size_lines as u64;
        // On failure compress_to_memory already wrote the block back
        // uncompressed (it was compressed: an image existed). Either way a
        // DBUF copy of the block stays valid, its values are current.
        self.compress_to_memory(sys, block, dt, now);
        self.llc.clean_ucls_of(block);
    }
}

impl DesignPolicy for DecoupledPolicy {
    fn honor_approx(&self) -> bool {
        self.kind == DesignKind::Avr
    }

    /// Request `line` at cycle `t` from the decoupled LLC (ZeroAVR + AVR).
    fn request(&mut self, sys: &mut System, line: LineAddr, t: u64) -> u64 {
        let llc_lat = sys.cfg.llc.latency;
        match sys.approx_of(line) {
            None => {
                // Conventional UCL path for precise lines.
                if self.llc.access_ucl(line, false) {
                    return t + llc_lat;
                }
                sys.counters.llc_misses_total += 1;
                let resp = sys.dram.access(line, AccessKind::Read, t + llc_lat);
                sys.count_traffic(false, false, CL_BYTES as u64);
                sys.device_line_faults(line, AccessKind::Read, resp.complete_at);
                self.insert_ucl(sys, line, false, resp.complete_at);
                resp.complete_at
            }
            Some(dt) => self.avr_request(sys, line, dt, t),
        }
    }

    fn writeback(&mut self, sys: &mut System, line: LineAddr, now: u64) {
        // Decoupled LLC: a resident UCL turns dirty, a missing one
        // allocates dirty (one probe of its set); the displacements run the
        // Fig. 8 eviction machine.
        self.llc.writeback_ucl(line, &mut self.evict_queue);
        self.handle_avr_evictions(sys, now);
    }

    fn has_compressor(&self) -> bool {
        true
    }

    fn codec_stats(&self) -> (u64, u64) {
        (self.compressor.blocks_compressed, self.compressor.failures)
    }

    fn llc_cms_fraction(&self) -> f64 {
        self.llc.cms_fraction()
    }

    fn summary(&mut self, sys: &mut System) -> (f64, BlockScan) {
        let blocks: Vec<_> = sys.space.approx_blocks().collect();
        if blocks.is_empty() || self.kind == DesignKind::ZeroAvr {
            return (1.0, BlockScan::default());
        }
        let mut comp = Compressor::new(self.compressor.thresholds, self.compressor.max_lines);
        let scan = crate::summary::scan_blocks(&mut comp, &sys.mem, &blocks);
        (scan.raw_bytes as f64 / scan.stored_bytes.max(1) as f64, scan)
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm_api::Vm;
    use avr_types::{PhysAddr, SystemConfig};

    fn avr_sys() -> System {
        System::new(SystemConfig::tiny(), DesignKind::Avr)
    }

    fn policy(s: &System) -> &DecoupledPolicy {
        s.policy_as::<DecoupledPolicy>().expect("AVR system runs the decoupled policy")
    }

    /// Write a smooth field into an approx region, then stream enough
    /// precise data to flush the hierarchy.
    fn warm_and_flush(s: &mut System, approx_bytes: usize) -> avr_sim::vm::Region {
        let r = s.approx_malloc(approx_bytes, DataType::F32);
        for i in 0..(approx_bytes / 4) as u64 {
            let v = 100.0 + (i as f32) * 0.001;
            s.write_f32(PhysAddr(r.base.0 + 4 * i), v);
        }
        let flush = s.malloc(1 << 18);
        for i in (0..1 << 18).step_by(64) {
            s.read_u32(PhysAddr(flush.base.0 + i as u64));
        }
        r
    }

    #[test]
    fn dirty_evictions_trigger_compression() {
        let mut s = avr_sys();
        warm_and_flush(&mut s, 64 << 10);
        let c = &policy(&s).compressor;
        assert!(c.attempts > 0, "evictions must attempt compression");
        assert!(
            c.blocks_compressed > 0,
            "smooth data must compress ({} attempts, {} failures)",
            c.attempts,
            c.failures
        );
    }

    #[test]
    fn compressed_reads_fetch_fewer_lines() {
        let mut s = avr_sys();
        let r = warm_and_flush(&mut s, 64 << 10);
        let before = s.counters.traffic.approx_read_bytes;
        // Re-read the whole region: compressed blocks come back as short
        // bursts.
        for i in (0..64 << 10).step_by(64) {
            s.read_u32(PhysAddr(r.base.0 + i as u64));
        }
        let read_bytes = s.counters.traffic.approx_read_bytes - before;
        assert!(read_bytes < (64 << 10) / 2, "re-read moved {read_bytes} B for a 65536 B region");
    }

    #[test]
    fn reads_after_compression_see_bounded_error() {
        // Pin the exact backend: the 2% per-value band leaves no headroom
        // for injected device faults under an AVR_BACKEND override.
        let cfg = SystemConfig::tiny().with_backend(avr_types::BackendKind::Exact);
        let mut s = System::new(cfg, DesignKind::Avr);
        let r = warm_and_flush(&mut s, 64 << 10);
        for i in 0..(64 << 10) / 4_u64 {
            let expect = 100.0 + (i as f32) * 0.001;
            let got = s.read_f32(PhysAddr(r.base.0 + 4 * i));
            let rel = ((got - expect) / expect).abs();
            assert!(rel <= 0.02 + 1e-6, "value {i}: {got} vs {expect} (rel {rel})");
        }
    }

    #[test]
    fn dbuf_and_compressed_hits_appear() {
        let mut s = avr_sys();
        let r = warm_and_flush(&mut s, 64 << 10);
        for i in (0..64 << 10).step_by(4) {
            s.read_f32(PhysAddr(r.base.0 + i as u64));
        }
        let b = s.counters.approx_requests;
        assert!(b.dbuf_hit > 0, "sequential block reads must hit DBUF: {b:?}");
        assert!(b.total() > 0);
    }

    #[test]
    fn rough_data_fails_and_backs_off() {
        let mut s = avr_sys();
        let r = s.approx_malloc(16 << 10, DataType::F32);
        // White noise: incompressible.
        let mut state = 0x9E3779B9u32;
        for i in 0..(16 << 10) / 4_u64 {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            let v = (state as f32 / u32::MAX as f32) * 1000.0 - 500.0;
            s.write_f32(PhysAddr(r.base.0 + 4 * i), v);
        }
        // Flush repeatedly so the same blocks see repeated eviction
        // attempts; each round rewrites fresh noise (still incompressible).
        let flush = s.malloc(1 << 18);
        for _round in 0..3 {
            for i in 0..(16 << 10) / 4_u64 {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                let v = (state as f32 / u32::MAX as f32) * 1000.0 - 500.0;
                s.write_f32(PhysAddr(r.base.0 + 4 * i), v);
            }
            for i in (0..1 << 18).step_by(64) {
                s.read_u32(PhysAddr(flush.base.0 + i as u64));
            }
        }
        assert!(policy(&s).compressor.failures > 0, "noise must fail compression");
        assert!(s.counters.compression_skips > 0, "skip history must suppress some attempts");
        assert!(s.counters.evictions.uncompressed_writeback > 0);
    }

    #[test]
    fn lazy_writebacks_fill_free_space() {
        let mut s = avr_sys();
        let r = warm_and_flush(&mut s, 64 << 10);
        // Dirty a single line per block and flush: the block is compressed
        // in memory, absent from the LLC, and has free space -> lazy WB.
        for blk in 0..((64 << 10) / 1024) as u64 {
            s.write_f32(PhysAddr(r.base.0 + blk * 1024), 101.5);
        }
        let flush = s.malloc(1 << 18);
        for i in (0..1 << 18).step_by(64) {
            s.read_u32(PhysAddr(flush.base.0 + i as u64));
        }
        assert!(
            s.counters.evictions.lazy_writeback > 0,
            "expected lazy writebacks: {:?}",
            s.counters.evictions
        );
    }

    #[test]
    fn metrics_report_compression_ratio() {
        let mut s = avr_sys();
        warm_and_flush(&mut s, 64 << 10);
        let m = s.finish("smoke");
        assert!(
            m.compression_ratio > 4.0,
            "smooth ramp should compress well, got {}",
            m.compression_ratio
        );
        assert!(m.footprint_fraction < 1.0);
    }

    #[test]
    fn cmt_invariants_hold_after_activity() {
        let mut s = avr_sys();
        let r = warm_and_flush(&mut s, 32 << 10);
        for i in (0..32 << 10).step_by(64) {
            s.read_u32(PhysAddr(r.base.0 + i as u64));
        }
        let p = policy(&s);
        for (_, e) in p.cmt.iter() {
            if e.compressed {
                assert!((1..=8).contains(&e.size_lines));
                assert!(e.size_lines + e.n_lazy <= 16);
            }
            let _ = e.encode(); // must fit 24 bits (debug asserts inside)
        }
        p.llc.check_invariants();
    }
}
