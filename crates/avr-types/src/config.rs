//! System configuration — Table 1 of the paper, plus AVR knobs.

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub capacity: usize,
    /// Associativity.
    pub ways: usize,
    /// Access latency in CPU cycles.
    pub latency: u64,
}

impl CacheGeometry {
    /// Number of sets (capacity / 64 B / ways).
    pub fn sets(&self) -> usize {
        self.capacity / crate::addr::CL_BYTES / self.ways
    }

    /// log2(sets) — the number of index bits `n` in the paper's Fig. 6.
    pub fn index_bits(&self) -> u32 {
        let s = self.sets();
        assert!(s.is_power_of_two(), "set count must be a power of two, got {s}");
        s.trailing_zeros()
    }
}

/// DRAM timing/geometry parameters (DDR4-1600-class defaults).
///
/// All timings are expressed in *memory-clock* cycles; `cpu_cycles_per_mem_clk`
/// converts to CPU cycles (3.2 GHz CPU / 800 MHz DDR4-1600 clock = 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DramParams {
    pub channels: usize,
    pub banks_per_channel: usize,
    pub rows_per_bank: usize,
    /// Row-buffer (page) size in bytes.
    pub row_bytes: usize,
    /// CAS latency.
    pub cl: u64,
    /// RAS-to-CAS delay.
    pub trcd: u64,
    /// Row precharge.
    pub trp: u64,
    /// Minimum row-open time.
    pub tras: u64,
    /// Data burst duration for one 64 B line (BL8 on a 64-bit bus = 4 clocks).
    pub burst: u64,
    /// Refresh interval (0 disables refresh modelling).
    pub trefi: u64,
    /// Refresh duration.
    pub trfc: u64,
    /// CPU cycles per memory clock.
    pub cpu_cycles_per_mem_clk: u64,
}

impl Default for DramParams {
    fn default() -> Self {
        // DDR4-1600: tCK = 1.25 ns, CL=tRCD=tRP=11, tRAS=28, tREFI=7.8 us,
        // tRFC=280 ns. CPU at 3.2 GHz -> 4 CPU cycles per memory clock.
        DramParams {
            channels: 2,
            banks_per_channel: 16,
            rows_per_bank: 1 << 15,
            row_bytes: 2048,
            cl: 11,
            trcd: 11,
            trp: 11,
            tras: 28,
            burst: 4,
            trefi: 6240,
            trfc: 224,
            cpu_cycles_per_mem_clk: 4,
        }
    }
}

/// AVR-specific architectural knobs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AvrParams {
    /// Per-value relative error threshold T1 (fraction, e.g. 0.02 = 2 %).
    pub t1: f64,
    /// Block-average relative error threshold T2; the paper uses T1 = 2*T2.
    pub t2: f64,
    /// PFE threshold: prefetch remaining DBUF lines into the LLC when at
    /// least this fraction of the block's lines were explicitly requested.
    pub pfe_threshold: f64,
    /// On-chip CMT cache capacity in pages (misses cost metadata traffic).
    pub cmt_cache_pages: usize,
    /// Maximum compressed size in cachelines (paper: 8, i.e. 2:1 worst case).
    pub max_compressed_lines: usize,
    /// Ablation: park dirty lines in the block's free space (§3.1 lazy
    /// evictions) instead of recompacting immediately.
    pub enable_lazy: bool,
    /// Ablation: keep the decompressed block in the DBUF and serve
    /// subsequent requests from it (§3.3).
    pub enable_dbuf: bool,
    /// Ablation: back off from recompressing blocks that keep failing
    /// (§3.2 #failed/#skipped history).
    pub enable_skip_history: bool,
    /// Ablation: co-locate compressed blocks in the LLC alongside
    /// uncompressed lines (§3.4) rather than keeping them memory-only.
    pub store_cms_in_llc: bool,
}

impl Default for AvrParams {
    fn default() -> Self {
        AvrParams {
            t1: 0.02,
            t2: 0.01,
            pfe_threshold: 0.5,
            cmt_cache_pages: 1024,
            max_compressed_lines: 8,
            enable_lazy: true,
            enable_dbuf: true,
            enable_skip_history: true,
            store_cms_in_llc: true,
        }
    }
}

/// A T1/T2 setting outside the range the codec accepts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ThresholdError {
    /// T1 (`t1`) must lie in (0, 1).
    T1OutOfRange(f64),
    /// T2 (`t2`) must be greater than 0.
    T2NotPositive(f64),
}

impl std::fmt::Display for ThresholdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThresholdError::T1OutOfRange(v) => write!(f, "t1 must be in (0, 1), got {v}"),
            ThresholdError::T2NotPositive(v) => write!(f, "t2 must be > 0, got {v}"),
        }
    }
}

impl std::error::Error for ThresholdError {}

/// The one range check on an [`AvrParams`] T1/T2 pair: T1 in (0, 1) and
/// T2 > 0 (NaN fails either; T1 is reported first). The codec's
/// `Thresholds::new` asserts it, and the sweep server runs it on every
/// submitted cell, so the two cannot drift.
pub fn check_thresholds(t1: f64, t2: f64) -> Result<(), ThresholdError> {
    let t1_ok = t1 > 0.0 && t1 < 1.0;
    let t2_ok = t2 > 0.0;
    if !t1_ok {
        return Err(ThresholdError::T1OutOfRange(t1));
    }
    if !t2_ok {
        return Err(ThresholdError::T2NotPositive(t2));
    }
    Ok(())
}

/// Which device serves main memory (the device axis, ROADMAP item 4). All
/// devices share the DDR4 timing engine; they differ in its refresh
/// interval and in whether — and how — stored bits decay
/// (`avr_dram::device_for`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Bit-exact storage: today's behaviour, no fault injection.
    Exact,
    /// DRAM refreshed at a multiple of nominal tREFI: approximable lines
    /// suffer retention-failure bit flips when read from the device.
    RelaxedDram,
    /// Non-volatile MRAM written with reduced write margins: approximable
    /// lines suffer asymmetric 0→1 / 1→0 write errors, and refresh
    /// disappears entirely.
    ApproxMram,
}

impl BackendKind {
    /// The three backends in bench/sweep order.
    pub const ALL: [BackendKind; 3] =
        [BackendKind::Exact, BackendKind::RelaxedDram, BackendKind::ApproxMram];

    /// Label used in bench output and the `AVR_BACKEND` env knob.
    pub fn label(&self) -> &'static str {
        match self {
            BackendKind::Exact => "exact",
            BackendKind::RelaxedDram => "relaxed",
            BackendKind::ApproxMram => "mram",
        }
    }

    /// Inverse of [`BackendKind::label`] (the wire/CLI spelling).
    pub fn from_label(label: &str) -> Option<BackendKind> {
        BackendKind::ALL.into_iter().find(|k| k.label() == label)
    }
}

/// Device error-model parameters (fault rates, seeding, and the graceful-
/// degradation budget). Only consulted by the fault-injecting devices;
/// the exact device ignores everything but `backend`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorModelParams {
    /// Pinned backend. `None` resolves the `AVR_BACKEND` environment knob
    /// (`exact` when unset); `Some` always wins over the environment.
    pub backend: Option<BackendKind>,
    /// Root seed of every per-(region, block, access-count) fault stream.
    pub seed: u64,
    /// Per-bit retention-failure probability per *nominal refresh interval
    /// of added retention time* (RelaxedDram). The effective per-read flip
    /// rate is `retention_fail_per_bit * (refresh_multiplier - 1)`.
    pub retention_fail_per_bit: f64,
    /// tREFI multiplier for RelaxedDram: 1 = nominal refresh (no failures,
    /// full refresh energy), larger values trade retention errors for
    /// fewer refreshes.
    pub refresh_multiplier: u64,
    /// MRAM per-bit 0→1 write-error rate at margin level 0.
    pub mram_p01: f64,
    /// MRAM per-bit 1→0 write-error rate at margin level 0.
    pub mram_p10: f64,
    /// Number of per-region write-margin levels; a region at level `k` has
    /// its error rates scaled by `2^k` (the level is chosen
    /// deterministically from the region base address).
    pub mram_margin_levels: u32,
    /// Model ECC scrubbing of critical (non-approximable) lines: they are
    /// always served exactly either way, but scrubs are counted and cost
    /// energy when enabled.
    pub ecc_protect_critical: bool,
    /// Graceful-degradation budget: how many implausible reconstructions
    /// may be re-served exactly (a timed refetch/rewrite) before the system
    /// starts committing sanitized degraded data instead.
    pub retry_budget: u64,
}

impl Default for ErrorModelParams {
    fn default() -> Self {
        ErrorModelParams {
            backend: None,
            seed: 0x5EED_AB1E,
            retention_fail_per_bit: 5e-8,
            refresh_multiplier: 4,
            mram_p01: 1e-7,
            mram_p10: 5e-8,
            mram_margin_levels: 3,
            ecc_protect_critical: true,
            retry_budget: 64,
        }
    }
}

/// Memoization-design parameters (the `MemoIn`/`MemoOut` designs). Only
/// consulted by those two designs; every other design ignores this block.
///
/// All thresholds are deterministic pure functions of line *content* — no
/// RNG anywhere — so memo behaviour is bit-identical at any `SimPool`
/// width and across per-word/batched/SIMD walks.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemoParams {
    /// `MemoIn` reconstruction-table capacity in cacheline slots. Slots
    /// are allocated once per run (at the first approximable `malloc`) and
    /// filled first-come-first-served; the table never evicts, so a line's
    /// table mapping stays valid for the whole run.
    pub table_slots: usize,
    /// `MemoIn` per-value relative-error match threshold: a candidate line
    /// matches a table slot when *every* value is within this relative
    /// error of the slot's value (and the line means agree to the same
    /// threshold). Plays the role of AVR's T1.
    pub match_threshold: f64,
    /// `MemoOut` sliding-window length in writebacks (capped at 8).
    pub window: usize,
    /// `MemoOut` relative-standard-deviation gate: once a line's window is
    /// full and the RSD of its value signatures is at or under this
    /// threshold, the dirty writeback is elided and the last committed
    /// content re-served.
    pub rsd_threshold: f64,
    /// `MemoOut` safety valve: after this many consecutive elisions the
    /// next writeback commits exactly regardless of the RSD gate, bounding
    /// how long a drifting-but-stable-looking line can go uncommitted.
    pub max_consecutive_elides: u32,
}

impl Default for MemoParams {
    fn default() -> Self {
        MemoParams {
            table_slots: 256,
            match_threshold: 0.04,
            window: 4,
            rsd_threshold: 0.04,
            max_consecutive_elides: 3,
        }
    }
}

/// Which memory layout a workload's record data is instantiated in (the
/// layout-transform axis, ROADMAP item 3). Layouts change *placement*, not
/// math: an exact run produces bit-identical output in every variant, while
/// approximating designs see different per-block value mixes — the
/// granularity-gap effect the Akiyama papers describe.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LayoutKind {
    /// Structure-of-arrays: each field is a contiguous plane. This is the
    /// historical layout of every in-tree workload and the default.
    #[default]
    Soa,
    /// Array-of-structures: whole records are interleaved word-by-word, so
    /// a 1 KB block mixes every field (and criticality class) of ~records
    /// worth of data.
    Aos,
    /// Hot/cold criticality partitioning: approximable fields are
    /// interleaved together in an approximate region, critical fields in a
    /// separate precise region (the data-partitioning transform of
    /// arXiv:2004.01637).
    Partitioned,
}

impl LayoutKind {
    /// The three layouts in bench/sweep order.
    pub const ALL: [LayoutKind; 3] = [LayoutKind::Soa, LayoutKind::Aos, LayoutKind::Partitioned];

    /// Label used in bench output.
    pub fn label(&self) -> &'static str {
        match self {
            LayoutKind::Soa => "soa",
            LayoutKind::Aos => "aos",
            LayoutKind::Partitioned => "partitioned",
        }
    }

    /// Inverse of [`LayoutKind::label`] (the wire/CLI spelling).
    pub fn from_label(label: &str) -> Option<LayoutKind> {
        LayoutKind::ALL.into_iter().find(|k| k.label() == label)
    }
}

/// Which evaluated design a `System` implements: the paper's five plus the
/// two HPAC-style memoization designs (Tziantzioulis et al., IEEE Micro
/// 2018) recast as memory-system techniques.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DesignKind {
    /// Unmodified system, no compression.
    Baseline,
    /// AVR hardware present but no data marked approximable.
    ZeroAvr,
    /// fp32 -> fp16 truncation of approximable data (2:1).
    Truncate,
    /// Doppelganger-style approximate-dedup LLC (4x tags).
    Doppelganger,
    /// The full AVR architecture.
    Avr,
    /// Input memoization: a content-fingerprint table of whole cachelines;
    /// within-threshold matches are served from the on-chip reconstruction
    /// table instead of DRAM (exact fallback on miss).
    MemoIn,
    /// Temporal output memoization: per-line sliding-window prediction —
    /// a dirty writeback whose value signature is temporally stable
    /// (window RSD under threshold) is elided and the last committed
    /// content re-served; unstable lines commit exactly.
    MemoOut,
}

impl DesignKind {
    pub const ALL: [DesignKind; 7] = [
        DesignKind::Baseline,
        DesignKind::Doppelganger,
        DesignKind::Truncate,
        DesignKind::ZeroAvr,
        DesignKind::Avr,
        DesignKind::MemoIn,
        DesignKind::MemoOut,
    ];

    /// Label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            DesignKind::Baseline => "baseline",
            DesignKind::ZeroAvr => "ZeroAVR",
            DesignKind::Truncate => "truncate",
            DesignKind::Doppelganger => "dganger",
            DesignKind::Avr => "AVR",
            DesignKind::MemoIn => "memoin",
            DesignKind::MemoOut => "memoout",
        }
    }

    /// Inverse of [`DesignKind::label`] (the wire/CLI spelling).
    pub fn from_label(label: &str) -> Option<DesignKind> {
        DesignKind::ALL.into_iter().find(|k| k.label() == label)
    }
}

/// Which problem size a workload instantiates (moved here from the
/// workload runner when the sweep-server wire format needed to name it;
/// `avr_workloads` re-exports it, so workload code is unaffected).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BenchScale {
    /// Tiny: unit/integration tests (sub-second per design).
    Tiny,
    /// Bench: the figure-regeneration scale (footprint : LLC ratios match
    /// the paper's Table 2 against the per-core-scaled hierarchy).
    Bench,
}

impl BenchScale {
    /// Both scales, tiny first.
    pub const ALL: [BenchScale; 2] = [BenchScale::Tiny, BenchScale::Bench];

    /// Label used on the wire and in bench output.
    pub fn label(&self) -> &'static str {
        match self {
            BenchScale::Tiny => "tiny",
            BenchScale::Bench => "bench",
        }
    }

    /// Inverse of [`BenchScale::label`] (the wire/CLI spelling).
    pub fn from_label(label: &str) -> Option<BenchScale> {
        BenchScale::ALL.into_iter().find(|k| k.label() == label)
    }
}

/// Full system configuration (Table 1).
#[derive(Clone, Debug, PartialEq)]
pub struct SystemConfig {
    /// Core clock in Hz (3.2 GHz).
    pub clock_hz: f64,
    /// Issue/commit width.
    pub issue_width: u64,
    /// Reorder-buffer size (bounds miss overlap in the interval model).
    pub rob_size: u64,
    /// Miss-status registers per core (caps memory-level parallelism).
    pub mshrs: u64,
    pub l1: CacheGeometry,
    pub l2: CacheGeometry,
    pub llc: CacheGeometry,
    pub dram: DramParams,
    pub avr: AvrParams,
    /// Device error-model backend selection and fault rates.
    pub error_model: ErrorModelParams,
    /// Memoization-design knobs (`MemoIn`/`MemoOut` only).
    pub memo: MemoParams,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            clock_hz: 3.2e9,
            issue_width: 4,
            rob_size: 224,
            mshrs: 8,
            l1: CacheGeometry { capacity: 64 << 10, ways: 4, latency: 1 },
            l2: CacheGeometry { capacity: 256 << 10, ways: 8, latency: 8 },
            llc: CacheGeometry { capacity: 8 << 20, ways: 16, latency: 15 },
            dram: DramParams::default(),
            avr: AvrParams::default(),
            error_model: ErrorModelParams::default(),
            memo: MemoParams::default(),
        }
    }
}

impl SystemConfig {
    /// Table 1: the 8 MB LLC and the two DDR4 channels that the paper's 8
    /// cores share. [`SystemConfig::per_core_scaled`] is one core's share.
    pub fn paper() -> Self {
        Self::default()
    }

    /// One core with its share of the shared LLC (8 MB / 8 cores),
    /// preserving the footprint:capacity ratios that drive the paper's
    /// results while keeping simulations laptop-fast. The figure benches
    /// simulate the 8-core CMP as this one core: a partitioned-share model
    /// with no interference between cores beyond the static shares
    /// (`examples/multicore_cmp.rs` runs all eight).
    #[allow(clippy::field_reassign_with_default)] // builder-style tweaks read clearer
    pub fn per_core_scaled() -> Self {
        let mut c = Self::default();
        c.llc = CacheGeometry { capacity: 1 << 20, ways: 16, latency: 15 };
        // One core also only gets its share of the memory system: one
        // channel at half the per-channel burst rate approximates 1/4 of
        // the 2-channel DDR4-1600 system (8 cores competing for 2
        // channels). Latency parameters are unchanged.
        c.dram.channels = 1;
        c.dram.burst = 8;
        c
    }

    /// This configuration pinned to a specific device backend (wins over
    /// the `AVR_BACKEND` environment knob).
    pub fn with_backend(mut self, kind: BackendKind) -> Self {
        self.error_model.backend = Some(kind);
        self
    }

    /// A tiny configuration for unit/integration tests.
    #[allow(clippy::field_reassign_with_default)]
    pub fn tiny() -> Self {
        let mut c = Self::default();
        c.l1 = CacheGeometry { capacity: 4 << 10, ways: 4, latency: 1 };
        c.l2 = CacheGeometry { capacity: 16 << 10, ways: 8, latency: 8 };
        c.llc = CacheGeometry { capacity: 64 << 10, ways: 16, latency: 15 };
        c.avr.cmt_cache_pages = 64;
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_check_names_the_field_and_its_range() {
        assert_eq!(check_thresholds(0.02, 0.01), Ok(()));
        assert_eq!(check_thresholds(0.999, f64::INFINITY), Ok(()));
        for t1 in [-1.0, 0.0, -0.0, 1.0, 2.0, f64::NAN, f64::INFINITY] {
            let e = check_thresholds(t1, 0.01).unwrap_err();
            assert!(matches!(e, ThresholdError::T1OutOfRange(v) if v.to_bits() == t1.to_bits()));
            assert!(e.to_string().starts_with("t1 must be in (0, 1), got "), "{e}");
        }
        for t2 in [-0.5, 0.0, -0.0, f64::NAN, f64::NEG_INFINITY] {
            let e = check_thresholds(0.02, t2).unwrap_err();
            assert!(matches!(e, ThresholdError::T2NotPositive(v) if v.to_bits() == t2.to_bits()));
            assert!(e.to_string().starts_with("t2 must be > 0, got "), "{e}");
        }
        // Both out of range: T1 is reported first.
        assert!(matches!(check_thresholds(-1.0, -1.0), Err(ThresholdError::T1OutOfRange(_))));
        let d = AvrParams::default();
        assert_eq!(check_thresholds(d.t1, d.t2), Ok(()));
    }

    #[test]
    fn table1_geometry() {
        let c = SystemConfig::paper();
        assert_eq!(c.l1.sets(), 256);
        assert_eq!(c.l2.sets(), 512);
        assert_eq!(c.llc.sets(), 8192);
        assert_eq!(c.llc.index_bits(), 13);
    }

    #[test]
    fn scaled_keeps_ratio() {
        let paper = SystemConfig::paper();
        let scaled = SystemConfig::per_core_scaled();
        // Table 1's 8 MB LLC is shared by 8 cores.
        let per_core_share = paper.llc.capacity / 8;
        assert_eq!(scaled.llc.capacity, per_core_share);
    }

    #[test]
    fn design_labels_match_paper() {
        assert_eq!(DesignKind::Avr.label(), "AVR");
        assert_eq!(DesignKind::Doppelganger.label(), "dganger");
        assert_eq!(DesignKind::ALL.len(), 7);
        // The memoization designs ride the same label/from_label contract.
        assert_eq!(DesignKind::MemoIn.label(), "memoin");
        assert_eq!(DesignKind::MemoOut.label(), "memoout");
        for k in DesignKind::ALL {
            assert_eq!(DesignKind::from_label(k.label()), Some(k));
        }
        assert_eq!(DesignKind::from_label("memofoo"), None);
    }

    #[test]
    fn memo_defaults_are_sane() {
        let m = MemoParams::default();
        assert!(m.table_slots > 0 && m.table_slots < u16::MAX as usize);
        assert!(m.window >= 2 && m.window <= 8);
        assert!(m.match_threshold > 0.0 && m.rsd_threshold > 0.0);
    }

    #[test]
    fn backend_labels_and_pinning() {
        assert_eq!(BackendKind::ALL.map(|b| b.label()), ["exact", "relaxed", "mram"]);
        let c = SystemConfig::tiny();
        assert_eq!(c.error_model.backend, None, "default resolves the env knob");
        let pinned = c.with_backend(BackendKind::ApproxMram);
        assert_eq!(pinned.error_model.backend, Some(BackendKind::ApproxMram));
    }

    #[test]
    fn dram_defaults_are_ddr4_1600_class() {
        let d = DramParams::default();
        assert_eq!(d.channels, 2);
        assert_eq!(d.cpu_cycles_per_mem_clk, 4);
        assert!(d.tras >= d.trcd + d.burst);
    }
}
