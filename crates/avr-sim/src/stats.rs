//! Statistics: everything §4.3's figures and tables are built from.

use crate::energy::EnergyBreakdown;

/// Figure 14: outcome classes of LLC requests on approximate cachelines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LlcRequestBreakdown {
    /// Request missed entirely (went to DRAM).
    pub miss: u64,
    /// Hit an uncompressed cacheline in the LLC.
    pub uncompressed_hit: u64,
    /// Served from the decompressed-block buffer.
    pub dbuf_hit: u64,
    /// Hit a compressed block resident in the LLC (decompress on hit).
    pub compressed_hit: u64,
}

impl LlcRequestBreakdown {
    pub fn total(&self) -> u64 {
        self.miss + self.uncompressed_hit + self.dbuf_hit + self.compressed_hit
    }

    /// Shares in Figure 14 order: [miss, uncompressed, dbuf, compressed].
    pub fn shares(&self) -> [f64; 4] {
        let t = self.total().max(1) as f64;
        [
            self.miss as f64 / t,
            self.uncompressed_hit as f64 / t,
            self.dbuf_hit as f64 / t,
            self.compressed_hit as f64 / t,
        ]
    }
}

/// Figure 15: outcome classes of LLC evictions of approximate cachelines.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvictionBreakdown {
    /// Block resident compressed in LLC: updated + recompressed in place.
    pub recompress: u64,
    /// Written back uncompressed into the block's free space in memory.
    pub lazy_writeback: u64,
    /// Block fetched from memory, updated, recompressed, written back.
    pub fetch_recompress: u64,
    /// Block is uncompressed (failed/skipped): plain line writeback.
    pub uncompressed_writeback: u64,
}

impl EvictionBreakdown {
    pub fn total(&self) -> u64 {
        self.recompress + self.lazy_writeback + self.fetch_recompress + self.uncompressed_writeback
    }

    /// Shares in Figure 15 order.
    pub fn shares(&self) -> [f64; 4] {
        let t = self.total().max(1) as f64;
        [
            self.recompress as f64 / t,
            self.lazy_writeback as f64 / t,
            self.fetch_recompress as f64 / t,
            self.uncompressed_writeback as f64 / t,
        ]
    }
}

/// Figure 11: DRAM traffic split into approximate / non-approximate bytes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Traffic {
    pub approx_read_bytes: u64,
    pub approx_write_bytes: u64,
    pub nonapprox_read_bytes: u64,
    pub nonapprox_write_bytes: u64,
    /// CMT metadata fetches (counted with non-approx in the figure).
    pub metadata_bytes: u64,
}

impl Traffic {
    pub fn approx(&self) -> u64 {
        self.approx_read_bytes + self.approx_write_bytes
    }

    pub fn nonapprox(&self) -> u64 {
        self.nonapprox_read_bytes + self.nonapprox_write_bytes + self.metadata_bytes
    }

    pub fn total(&self) -> u64 {
        self.approx() + self.nonapprox()
    }
}

/// Device error-model events (PR 6): what the fault-injecting backends did
/// to approximable lines, and how the graceful-degradation layer responded.
/// All zero under the exact backend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultBreakdown {
    /// Bits flipped by the device (whether later caught or committed).
    pub injected_bit_flips: u64,
    /// Device transfers that left at least one bit flipped.
    pub faulted_lines: u64,
    /// Implausible lines re-served exactly (a timed refetch/rewrite) while
    /// the retry budget lasted.
    pub retries: u64,
    /// Implausible lines committed after the retry budget ran out.
    pub degraded_lines: u64,
    /// Values zeroed while sanitizing degraded lines (NaN/Inf/blowouts).
    pub sanitized_values: u64,
    /// ECC scrub events protecting critical (non-approximable) lines.
    pub ecc_scrubs: u64,
}

/// Memoization-design events (PR 10): what the `MemoIn` reconstruction
/// table and the `MemoOut` temporal predictor did. All zero under every
/// other design.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoBreakdown {
    /// `MemoIn`: dirty approximable writebacks probed against the table.
    pub in_probes: u64,
    /// `MemoIn`: probes that matched a slot within the error threshold
    /// (the line's DRAM write was replaced by a table mapping).
    pub in_hits: u64,
    /// `MemoIn`: probes that seeded a fresh table slot.
    pub in_inserts: u64,
    /// `MemoIn`: LLC read misses served from the reconstruction table
    /// instead of DRAM.
    pub in_served: u64,
    /// `MemoOut`: dirty approximable writebacks pushed into a line's
    /// sliding window.
    pub out_windows: u64,
    /// `MemoOut`: writebacks elided because the window's signature RSD was
    /// under threshold (last committed content re-served).
    pub out_elided: u64,
    /// `MemoOut`: writebacks committed exactly (window not yet full,
    /// unstable, or the consecutive-elision cap fired).
    pub out_commits: u64,
}

impl MemoBreakdown {
    /// Whether either memo mechanism redeemed any traffic at all.
    pub fn any_hits(&self) -> bool {
        self.in_hits + self.in_served + self.out_elided > 0
    }
}

/// Raw event counters accumulated during a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub instructions: u64,
    pub loads: u64,
    pub stores: u64,
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub llc_requests_total: u64,
    pub llc_misses_total: u64,
    pub approx_requests: LlcRequestBreakdown,
    pub evictions: EvictionBreakdown,
    pub traffic: Traffic,
    /// Sum/count of memory-request latencies for AMAT.
    pub amat_cycles_sum: u64,
    pub amat_count: u64,
    /// Latency sum/max over LLC-missing requests (diagnostics).
    pub miss_lat_sum: u64,
    pub miss_lat_count: u64,
    pub miss_lat_max: u64,
    /// Sum/count of LLC-hit-on-compressed latencies (§4.3 quotes 20–74 cy).
    pub compressed_hit_cycles_sum: u64,
    pub blocks_compressed: u64,
    pub blocks_decompressed: u64,
    pub compression_failures: u64,
    pub compression_skips: u64,
    /// Distinct lines delivered from each decompressed block before its
    /// eviction (block-reuse metric, §4.3 quotes 7–16).
    pub block_reuse_sum: u64,
    pub block_reuse_count: u64,
    /// Device error-model events (all zero on the exact backend).
    pub faults: FaultBreakdown,
    /// Memoization-design events (all zero outside `MemoIn`/`MemoOut`).
    pub memo: MemoBreakdown,
}

impl Counters {
    /// Average memory access time (cycles) over all core memory requests.
    pub fn amat(&self) -> f64 {
        if self.amat_count == 0 {
            0.0
        } else {
            self.amat_cycles_sum as f64 / self.amat_count as f64
        }
    }

    /// LLC misses per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.llc_misses_total as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Mean LLC latency when hitting a compressed block.
    pub fn avg_compressed_hit_latency(&self) -> f64 {
        if self.approx_requests.compressed_hit == 0 {
            0.0
        } else {
            self.compressed_hit_cycles_sum as f64 / self.approx_requests.compressed_hit as f64
        }
    }

    /// Mean distinct cachelines used per decompressed block.
    pub fn avg_block_reuse(&self) -> f64 {
        if self.block_reuse_count == 0 {
            0.0
        } else {
            self.block_reuse_sum as f64 / self.block_reuse_count as f64
        }
    }
}

/// Everything one (benchmark × design) run produces — the row unit of every
/// table and figure.
#[derive(Clone, Debug, Default)]
pub struct RunMetrics {
    pub design: String,
    pub benchmark: String,
    pub counters: Counters,
    pub cycles: u64,
    pub exec_seconds: f64,
    pub ipc: f64,
    pub energy: EnergyBreakdown,
    /// Mean relative error of the application's output values vs. the
    /// precise run (Table 3's metric).
    pub output_error: f64,
    /// Footprint-weighted compression ratio over approximable data
    /// (Table 4, "Compr. Ratio").
    pub compression_ratio: f64,
    /// Approximable 1 KB blocks scanned by the end-of-run compression
    /// summary (AVR designs only; zero for designs without the codec).
    pub approx_blocks: u64,
    /// How many of those blocks the codec accepted (compressed to fewer
    /// lines than raw). The ratio `compressible_blocks / approx_blocks` is
    /// the layout axis's headline number: interleaving critical words into
    /// approximable records (AoS) collapses it, which is the
    /// granularity-gap effect made measurable.
    pub compressible_blocks: u64,
    /// Total memory footprint as a fraction of the baseline footprint
    /// (Table 4, "Mem. Footprint").
    pub footprint_fraction: f64,
    /// Fraction of LLC data capacity holding compressed blocks (§4.3
    /// quotes 2–16 %).
    pub llc_cms_fraction: f64,
}

impl RunMetrics {
    /// Execution time normalized to a baseline run.
    pub fn exec_time_norm(&self, baseline: &RunMetrics) -> f64 {
        self.exec_seconds / baseline.exec_seconds
    }

    /// DRAM traffic normalized to a baseline run.
    pub fn traffic_norm(&self, baseline: &RunMetrics) -> f64 {
        self.counters.traffic.total() as f64 / baseline.counters.traffic.total().max(1) as f64
    }

    /// AMAT normalized to a baseline run.
    pub fn amat_norm(&self, baseline: &RunMetrics) -> f64 {
        self.counters.amat() / baseline.counters.amat().max(f64::MIN_POSITIVE)
    }

    /// MPKI normalized to a baseline run.
    pub fn mpki_norm(&self, baseline: &RunMetrics) -> f64 {
        self.counters.mpki() / baseline.counters.mpki().max(f64::MIN_POSITIVE)
    }

    /// Total energy normalized to a baseline run.
    pub fn energy_norm(&self, baseline: &RunMetrics) -> f64 {
        self.energy.total() / baseline.energy.total().max(f64::MIN_POSITIVE)
    }
}

/// Geometric mean helper for the figures' "Geom. Mean" column.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty());
    let log_sum: f64 = values.iter().map(|v| v.max(f64::MIN_POSITIVE).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_shares_sum_to_one() {
        let b = LlcRequestBreakdown {
            miss: 10,
            uncompressed_hit: 20,
            dbuf_hit: 30,
            compressed_hit: 40,
        };
        let s = b.shares();
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((s[3] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn eviction_shares_sum_to_one() {
        let b = EvictionBreakdown {
            recompress: 1,
            lazy_writeback: 2,
            fetch_recompress: 3,
            uncompressed_writeback: 4,
        };
        assert!((b.shares().iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(b.total(), 10);
    }

    #[test]
    fn traffic_totals() {
        let t = Traffic {
            approx_read_bytes: 100,
            approx_write_bytes: 50,
            nonapprox_read_bytes: 30,
            nonapprox_write_bytes: 10,
            metadata_bytes: 5,
        };
        assert_eq!(t.approx(), 150);
        assert_eq!(t.nonapprox(), 45);
        assert_eq!(t.total(), 195);
    }

    #[test]
    fn amat_and_mpki() {
        let c = Counters {
            instructions: 10_000,
            llc_misses_total: 25,
            amat_cycles_sum: 5_000,
            amat_count: 1_000,
            ..Default::default()
        };
        assert!((c.amat() - 5.0).abs() < 1e-12);
        assert!((c.mpki() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn zero_division_guards() {
        let c = Counters::default();
        assert_eq!(c.amat(), 0.0);
        assert_eq!(c.mpki(), 0.0);
        assert_eq!(c.avg_compressed_hit_latency(), 0.0);
        assert_eq!(c.avg_block_reuse(), 0.0);
    }

    #[test]
    fn geomean_of_equal_values_is_value() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn normalization_ratios() {
        let mut base = RunMetrics { exec_seconds: 2.0, ..Default::default() };
        base.counters.traffic.approx_read_bytes = 1000;
        let mut m = RunMetrics { exec_seconds: 1.0, ..Default::default() };
        m.counters.traffic.approx_read_bytes = 300;
        assert!((m.exec_time_norm(&base) - 0.5).abs() < 1e-12);
        assert!((m.traffic_norm(&base) - 0.3).abs() < 1e-12);
    }
}
