//! Energy model — the McPAT/CACTI substitute.
//!
//! Figure 10 of the paper is a *normalized, stacked* energy breakdown
//! {core, L1+L2, LLC, DRAM, compressor}. Relative energy is driven by event
//! counts × per-event costs plus static power × execution time, which is
//! exactly what this model computes. The constants below are 32 nm-class
//! values in the range CACTI 6.0 / McPAT report for the paper's geometries
//! (64 KB L1, 256 KB L2, 8 MB LLC, DDR4); absolute joules are not the
//! reproduction target — the normalized stacks are.

/// Per-event and static energy constants. All dynamic energies in
/// nanojoules, powers in watts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// Average core energy per retired instruction (OoO 4-wide, 32 nm).
    pub core_nj_per_instr: f64,
    /// L1 access (64 KB, 4-way).
    pub l1_nj_per_access: f64,
    /// L2 access (256 KB, 8-way).
    pub l2_nj_per_access: f64,
    /// LLC access, per 64 B line touched (8 MB, 16-way).
    pub llc_nj_per_access: f64,
    /// DRAM transfer energy per byte (≈20 pJ/bit incl. I/O).
    pub dram_nj_per_byte: f64,
    /// Row activation energy.
    pub dram_nj_per_activate: f64,
    /// All-bank refresh burst energy per refresh event (per channel) —
    /// what the relaxed-refresh backend trades retention errors against.
    pub dram_nj_per_refresh: f64,
    /// ECC check-and-scrub energy per protected critical-line transfer
    /// (only charged when the error model scrubs, i.e. never on exact).
    pub ecc_nj_per_scrub: f64,
    /// Compressor energy per block compression (49-cycle pipeline pass).
    pub compress_nj_per_block: f64,
    /// Decompressor energy per block decompression (12-cycle pass).
    pub decompress_nj_per_block: f64,
    /// Static power: per core.
    pub core_static_w: f64,
    /// Static power: L1+L2 per core.
    pub l1l2_static_w: f64,
    /// Static power: LLC + interconnect.
    pub llc_static_w: f64,
    /// DRAM background power.
    pub dram_static_w: f64,
    /// Compressor/decompressor leakage (~200k cells).
    pub compressor_static_w: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            core_nj_per_instr: 0.25,
            l1_nj_per_access: 0.05,
            l2_nj_per_access: 0.18,
            llc_nj_per_access: 0.9,
            dram_nj_per_byte: 0.15,
            dram_nj_per_activate: 2.0,
            dram_nj_per_refresh: 60.0,
            ecc_nj_per_scrub: 0.05,
            compress_nj_per_block: 0.6,
            decompress_nj_per_block: 0.25,
            core_static_w: 0.45,
            l1l2_static_w: 0.08,
            llc_static_w: 0.9,
            dram_static_w: 0.7,
            compressor_static_w: 0.02,
        }
    }
}

/// The Figure 10 stack components, in joules.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    pub core: f64,
    pub l1l2: f64,
    pub llc: f64,
    pub dram: f64,
    pub compressor: f64,
}

impl EnergyBreakdown {
    pub fn total(&self) -> f64 {
        self.core + self.l1l2 + self.llc + self.dram + self.compressor
    }

    /// Normalize each component to another run's total (the figures
    /// normalize to the baseline design).
    pub fn normalized_to(&self, baseline_total: f64) -> EnergyBreakdown {
        assert!(baseline_total > 0.0);
        EnergyBreakdown {
            core: self.core / baseline_total,
            l1l2: self.l1l2 / baseline_total,
            llc: self.llc / baseline_total,
            dram: self.dram / baseline_total,
            compressor: self.compressor / baseline_total,
        }
    }
}

/// Event counts the model consumes.
#[derive(Clone, Copy, Debug, Default)]
pub struct EnergyEvents {
    pub instructions: u64,
    pub l1_accesses: u64,
    pub l2_accesses: u64,
    /// 64 B lines touched in the LLC (UCL + CMS reads/writes).
    pub llc_line_accesses: u64,
    pub dram_bytes: u64,
    pub dram_activates: u64,
    /// All-bank refresh bursts issued (the relaxed backend issues fewer).
    pub dram_refreshes: u64,
    /// ECC scrubs of critical lines under a fault-injecting error model.
    pub ecc_scrubs: u64,
    pub blocks_compressed: u64,
    pub blocks_decompressed: u64,
}

impl EnergyModel {
    /// Compute the energy stack for a run of `exec_seconds` wall-clock (at
    /// the simulated clock) on one core. `has_compressor` gates the
    /// compressor's static power (baseline/truncate lack the module;
    /// Doppelgänger has its own map structures charged the same).
    pub fn breakdown(
        &self,
        ev: &EnergyEvents,
        exec_seconds: f64,
        has_compressor: bool,
    ) -> EnergyBreakdown {
        let nj = 1e-9;
        EnergyBreakdown {
            core: ev.instructions as f64 * self.core_nj_per_instr * nj
                + self.core_static_w * exec_seconds,
            l1l2: (ev.l1_accesses as f64 * self.l1_nj_per_access
                + ev.l2_accesses as f64 * self.l2_nj_per_access)
                * nj
                + self.l1l2_static_w * exec_seconds,
            llc: ev.llc_line_accesses as f64 * self.llc_nj_per_access * nj
                + self.llc_static_w * exec_seconds,
            dram: (ev.dram_bytes as f64 * self.dram_nj_per_byte
                + ev.dram_activates as f64 * self.dram_nj_per_activate
                + ev.dram_refreshes as f64 * self.dram_nj_per_refresh
                + ev.ecc_scrubs as f64 * self.ecc_nj_per_scrub)
                * nj
                + self.dram_static_w * exec_seconds,
            compressor: if has_compressor {
                (ev.blocks_compressed as f64 * self.compress_nj_per_block
                    + ev.blocks_decompressed as f64 * self.decompress_nj_per_block)
                    * nj
                    + self.compressor_static_w * exec_seconds
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events() -> EnergyEvents {
        EnergyEvents {
            instructions: 1_000_000,
            l1_accesses: 300_000,
            l2_accesses: 50_000,
            llc_line_accesses: 20_000,
            dram_bytes: 640_000,
            dram_activates: 2_000,
            dram_refreshes: 100,
            ecc_scrubs: 0,
            blocks_compressed: 500,
            blocks_decompressed: 1_500,
        }
    }

    #[test]
    fn all_components_positive() {
        let m = EnergyModel::default();
        let b = m.breakdown(&events(), 0.001, true);
        assert!(b.core > 0.0 && b.l1l2 > 0.0 && b.llc > 0.0 && b.dram > 0.0);
        assert!(b.compressor > 0.0);
        assert!(b.total() > 0.0);
    }

    #[test]
    fn no_compressor_means_zero_compressor_energy() {
        let m = EnergyModel::default();
        let b = m.breakdown(&events(), 0.001, false);
        assert_eq!(b.compressor, 0.0);
    }

    #[test]
    fn less_traffic_means_less_dram_energy() {
        let m = EnergyModel::default();
        let mut low = events();
        low.dram_bytes /= 4;
        low.dram_activates /= 4;
        let b_low = m.breakdown(&low, 0.001, true);
        let b_hi = m.breakdown(&events(), 0.001, true);
        assert!(b_low.dram < b_hi.dram);
    }

    #[test]
    fn fewer_refreshes_cut_dram_energy() {
        // The relaxed-refresh backend's whole point: stretching tREFI by k
        // divides the refresh count by k, and the model must reward it.
        let m = EnergyModel::default();
        let mut relaxed = events();
        relaxed.dram_refreshes /= 4;
        let b_relaxed = m.breakdown(&relaxed, 0.001, true);
        let b_nominal = m.breakdown(&events(), 0.001, true);
        let expect = 75.0 * m.dram_nj_per_refresh * 1e-9;
        assert!((b_nominal.dram - b_relaxed.dram - expect).abs() < 1e-15);
    }

    #[test]
    fn shorter_runtime_cuts_static_energy() {
        let m = EnergyModel::default();
        let fast = m.breakdown(&events(), 0.0005, true);
        let slow = m.breakdown(&events(), 0.001, true);
        assert!(fast.total() < slow.total());
        // Dynamic component is identical, so the delta equals static power
        // x time delta.
        let static_w = m.core_static_w
            + m.l1l2_static_w
            + m.llc_static_w
            + m.dram_static_w
            + m.compressor_static_w;
        let expect = static_w * 0.0005;
        assert!((slow.total() - fast.total() - expect).abs() < 1e-12);
    }

    #[test]
    fn normalization_is_proportional() {
        let m = EnergyModel::default();
        let b = m.breakdown(&events(), 0.001, true);
        let n = b.normalized_to(b.total());
        assert!((n.total() - 1.0).abs() < 1e-12);
    }
}
