//! Pluggable device error-model backends (ROADMAP item 4).
//!
//! AVR approximates by *reconstruction*; the other half of the
//! approximate-memory field approximates at the *device*: cells flip bits
//! under relaxed refresh or reduced write margins. [`DramBackend`] puts the
//! DDR4 timing engine ([`Dram`]) behind a trait so both worlds — and their
//! combination — run through the same simulator:
//!
//! * [`ExactDram`] — bit-exact storage, today's behaviour.
//! * [`RelaxedRefreshDram`] — tREFI stretched by a configurable multiplier;
//!   approximable lines suffer retention-failure bit flips on every read
//!   served by the device.
//! * [`ApproxMram`] — no refresh at all (non-volatile), but writes land with
//!   asymmetric 0→1 / 1→0 error rates scaled by a per-region write-margin
//!   level.
//!
//! # Determinism: the fault-stream seeding scheme
//!
//! Fault injection must be bit-identical at any `SimPool` thread width and
//! across repeated runs, so no backend owns a global RNG whose consumption
//! order could depend on scheduling. Instead every *fault opportunity* — one
//! `corrupt_line` call — derives a fresh splitmix64 stream from a key chain:
//!
//! ```text
//! s0 = splitmix64(config seed)
//! s1 = splitmix64(s0 ^ region base address)
//! s2 = splitmix64(s1 ^ block address)
//! s3 = splitmix64(s2 ^ exposure ordinal)     // per-backend corrupt count
//! ```
//!
//! Each simulated `System` owns its backend, and a `System` issues memory
//! operations in program order, so the exposure ordinal — the count of
//! `corrupt_line` calls this backend has served — is a deterministic
//! function of (config, workload, design) alone. Thread width only changes
//! *which OS thread* runs a given simulation, never the order of fault
//! opportunities within it (`tests/fault_injection.rs` pins this).
//!
//! Within one opportunity, per-bit flips are drawn by geometric
//! skip-sampling: the stream yields the gap to the next candidate bit
//! directly, so the cost is proportional to the (tiny) expected number of
//! flips rather than 512 Bernoulli draws per line. Asymmetric rates sample
//! at `max(p01, p10)` and thin each candidate by the rate that applies to
//! the bit's current value.
//!
//! # Adding a fourth backend
//!
//! 1. Add a variant to `avr_types::BackendKind` (and its `label()`, which
//!    the `AVR_BACKEND` knob also reads), plus any new rate knobs to
//!    `ErrorModelParams`.
//! 2. Implement [`DramBackend`] here, wrapping a [`Dram`] for timing (adjust
//!    `DramParams` in your constructor if the device refreshes differently).
//!    Put all randomness through [`FaultRng::for_exposure`] keyed by your
//!    own exposure counter — never a shared/global RNG.
//! 3. Register the variant in [`backend_for`].
//! 4. Extend `tests/fault_injection.rs`'s backend list — the thread-width
//!    bit-identity tests and the bench `backends` axis pick it up from
//!    `BackendKind::ALL`.
//!
//! The backends deliberately *do not* decide which lines are eligible for
//! corruption: `avr-core` calls `corrupt_line` only for lines inside
//! approximable regions (critical data is always served exactly, optionally
//! counting ECC scrubs), and owns the graceful-degradation retry path.

use avr_types::knobs::knobs;
use avr_types::{BackendKind, CacheLine, DramParams, ErrorModelParams, LineAddr, CL_BYTES};

use crate::{AccessKind, Dram, DramResponse, DramStats};

/// Bits per cacheline (the per-line fault-opportunity space).
pub const LINE_BITS: u64 = (CL_BYTES * 8) as u64;

/// Identifies one fault opportunity to the seeding scheme: where the line
/// lives. The *when* (exposure ordinal) is tracked by the backend itself.
///
/// The two sub-block fields carry the region's device metadata
/// (`avr_sim::RegionOpts`) down to the error model. Neither participates
/// in the RNG key chain — they modulate *probabilities* (and flip
/// eligibility), never the stream — so a layout or placement-policy change
/// perturbs fault behavior without re-keying unrelated regions, and
/// determinism at any pool width is untouched.
#[derive(Clone, Copy, Debug)]
pub struct FaultCtx {
    /// Base byte address of the containing approximable region.
    pub region_base: u64,
    /// The containing 1 KB memory block (raw `BlockAddr` bits).
    pub block: u64,
    /// Per-region fault-rate multiplier (1.0 nominal): the region's
    /// retention / write-margin derating. Multiplies the backend's bit
    /// error rates for this line.
    pub rate_scale: f64,
    /// Critical words of this line (bit `w` set ⇒ word `w` of the line is
    /// precision-critical): the device must never flip their bits. This is
    /// how an `Aggressive` interleaved layout keeps its integer fields
    /// device-safe even though the whole region is approximable.
    pub critical_mask: u16,
}

impl FaultCtx {
    /// A context with nominal rate and no critical words — the shape every
    /// pre-layout caller used.
    pub fn nominal(region_base: u64, block: u64) -> FaultCtx {
        FaultCtx { region_base, block, rate_scale: 1.0, critical_mask: 0 }
    }
}

/// Device-level fault counters (what the cells did, before any
/// graceful-degradation handling upstream).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// `corrupt_line` calls served (fault opportunities).
    pub exposures: u64,
    /// Lines that left the device with at least one flipped bit.
    pub faulted_lines: u64,
    /// Total bits flipped.
    pub bit_flips: u64,
}

#[inline]
fn splitmix64(z: u64) -> u64 {
    let mut z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One deterministic fault stream (a splitmix64 sequence).
#[derive(Clone, Copy, Debug)]
pub struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Derive the stream for one fault opportunity — see the module docs
    /// for the key chain.
    pub fn for_exposure(seed: u64, ctx: &FaultCtx, exposure: u64) -> FaultRng {
        let s0 = splitmix64(seed);
        let s1 = splitmix64(s0 ^ ctx.region_base);
        let s2 = splitmix64(s1 ^ ctx.block);
        FaultRng { state: splitmix64(s2 ^ exposure) }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let out = splitmix64(self.state);
        self.state = out;
        out
    }

    /// Uniform in [0, 1).
    #[inline]
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Geometric skip: bits to pass over before the next candidate when
    /// each bit is a candidate independently with probability `p`
    /// (`ln1m = ln(1 - p)`).
    #[inline]
    fn skip(&mut self, ln1m: f64) -> u64 {
        // u < 1 always, so ln(1-u) is finite; the f64→u64 cast saturates,
        // which is exactly "no candidate within this line".
        ((1.0 - self.next_f64()).ln() / ln1m) as u64
    }
}

/// Flip bits of `line` in place: each bit is hit with probability `p01`
/// (if currently 0) or `p10` (if currently 1), except bits of words set in
/// `critical_mask`, which are never flipped (the per-region sub-block
/// criticality contract — modelled as per-word ECC at the device).
/// Returns the flip count.
fn inject_flips(
    rng: &mut FaultRng,
    line: &mut CacheLine,
    p01: f64,
    p10: f64,
    critical_mask: u16,
) -> u32 {
    let p_max = p01.max(p10);
    if p_max <= 0.0 {
        return 0;
    }
    // Sample candidate positions at the max rate, then thin each candidate
    // by the rate that applies to its current value (0→1 vs 1→0). Critical
    // words thin to rate 0: the candidate is drawn (stream consumption
    // stays a function of p_max alone) and then always rejected.
    let ln1m = (1.0 - p_max.min(1.0)).ln();
    let mut flips = 0u32;
    let mut bit = rng.skip(ln1m);
    while bit < LINE_BITS {
        let word = (bit / 32) as usize;
        let mask = 1u32 << (bit % 32);
        let critical = critical_mask >> word & 1 != 0;
        let is_one = line.words[word] & mask != 0;
        let p_bit = if critical {
            0.0
        } else if is_one {
            p10
        } else {
            p01
        };
        if p_bit >= p_max || rng.next_f64() * p_max < p_bit {
            line.words[word] ^= mask;
            flips += 1;
        }
        bit += 1 + rng.skip(ln1m);
    }
    flips
}

/// A main-memory device: DDR4-class timing plus an error model.
///
/// Timing methods mirror [`Dram`]'s API one-for-one so `avr-core` is
/// agnostic to the backend. `corrupt_line` is the error model's single
/// entry point; `avr-core` calls it once per device transfer of an
/// *approximable* line, passing the line's current data in place.
pub trait DramBackend: Send {
    /// Which backend this is (bench labels, summaries).
    fn kind(&self) -> BackendKind;

    /// Time a (possibly partial) cacheline transfer. See [`Dram::access_bytes`].
    fn access_bytes(
        &mut self,
        line: LineAddr,
        kind: AccessKind,
        now: u64,
        bytes: usize,
    ) -> DramResponse;

    /// Time one full cacheline transfer.
    fn access(&mut self, line: LineAddr, kind: AccessKind, now: u64) -> DramResponse {
        self.access_bytes(line, kind, now, CL_BYTES)
    }

    /// Time `n` consecutive cachelines starting at `first`; returns the
    /// completion of the last transfer. See [`Dram::access_burst`].
    fn access_burst(
        &mut self,
        first: LineAddr,
        n: usize,
        kind: AccessKind,
        now: u64,
    ) -> DramResponse {
        assert!(n > 0, "burst must transfer at least one line");
        let mut resp = self.access(first, kind, now);
        for i in 1..n {
            let r = self.access(LineAddr(first.0 + i as u64), kind, now);
            resp = DramResponse {
                complete_at: resp.complete_at.max(r.complete_at),
                row_hit: resp.row_hit && r.row_hit,
            };
        }
        resp
    }

    /// Timing-engine counters (reads/writes/row hits/refreshes...).
    fn stats(&self) -> &DramStats;

    /// Device-level fault counters.
    fn fault_stats(&self) -> &FaultStats;

    /// Whether `corrupt_line` can ever flip a bit. `avr-core` caches this
    /// to keep the exact backend's hot path free of fault-hook work.
    fn injects_faults(&self) -> bool {
        false
    }

    /// Apply the error model to one approximable line's data in place;
    /// returns the number of bits flipped. Read-side backends corrupt on
    /// `Read`, write-side backends on `Write`; exact backends never do.
    fn corrupt_line(&mut self, _ctx: &FaultCtx, _kind: AccessKind, _data: &mut CacheLine) -> u32 {
        0
    }

    /// Minimum possible read latency in CPU cycles (row hit, idle bus).
    fn best_case_latency(&self) -> u64;

    /// Row-miss latency in CPU cycles (closed bank).
    fn row_miss_latency(&self) -> u64;

    /// Effective timing parameters (after any backend adjustments, e.g.
    /// the stretched tREFI of [`RelaxedRefreshDram`]).
    fn params(&self) -> &DramParams;
}

/// Today's bit-exact DDR4: pure timing, no error model.
pub struct ExactDram {
    dram: Dram,
    faults: FaultStats,
}

impl ExactDram {
    /// Build from the configured timing parameters, unchanged.
    pub fn new(params: DramParams) -> Self {
        ExactDram { dram: Dram::new(params), faults: FaultStats::default() }
    }
}

impl DramBackend for ExactDram {
    fn kind(&self) -> BackendKind {
        BackendKind::Exact
    }

    #[inline]
    fn access_bytes(
        &mut self,
        line: LineAddr,
        kind: AccessKind,
        now: u64,
        bytes: usize,
    ) -> DramResponse {
        self.dram.access_bytes(line, kind, now, bytes)
    }

    fn access_burst(
        &mut self,
        first: LineAddr,
        n: usize,
        kind: AccessKind,
        now: u64,
    ) -> DramResponse {
        self.dram.access_burst(first, n, kind, now)
    }

    fn stats(&self) -> &DramStats {
        &self.dram.stats
    }

    fn fault_stats(&self) -> &FaultStats {
        &self.faults
    }

    fn best_case_latency(&self) -> u64 {
        self.dram.best_case_latency()
    }

    fn row_miss_latency(&self) -> u64 {
        self.dram.row_miss_latency()
    }

    fn params(&self) -> &DramParams {
        self.dram.params()
    }
}

/// DRAM refreshed every `refresh_multiplier × tREFI`: cells near the tail
/// of the retention distribution fail, flipping bits of approximable lines
/// each time the device serves a read. Flip direction is symmetric (a
/// retention failure decays toward either rail depending on cell polarity,
/// which is address-random in commodity parts).
pub struct RelaxedRefreshDram {
    dram: Dram,
    seed: u64,
    /// Effective per-bit flip probability per read exposure.
    p_flip: f64,
    faults: FaultStats,
}

impl RelaxedRefreshDram {
    /// Stretch the refresh interval and derive the effective per-read
    /// flip rate `retention_fail_per_bit * (refresh_multiplier - 1)`.
    pub fn new(params: DramParams, em: &ErrorModelParams) -> Self {
        let mult = em.refresh_multiplier.max(1);
        let mut p = params;
        p.trefi = p.trefi.saturating_mul(mult);
        let p_flip = em.retention_fail_per_bit * (mult - 1) as f64;
        RelaxedRefreshDram {
            dram: Dram::new(p),
            seed: em.seed,
            p_flip,
            faults: FaultStats::default(),
        }
    }
}

impl DramBackend for RelaxedRefreshDram {
    fn kind(&self) -> BackendKind {
        BackendKind::RelaxedDram
    }

    #[inline]
    fn access_bytes(
        &mut self,
        line: LineAddr,
        kind: AccessKind,
        now: u64,
        bytes: usize,
    ) -> DramResponse {
        self.dram.access_bytes(line, kind, now, bytes)
    }

    fn stats(&self) -> &DramStats {
        &self.dram.stats
    }

    fn fault_stats(&self) -> &FaultStats {
        &self.faults
    }

    fn injects_faults(&self) -> bool {
        self.p_flip > 0.0
    }

    fn corrupt_line(&mut self, ctx: &FaultCtx, kind: AccessKind, data: &mut CacheLine) -> u32 {
        if kind != AccessKind::Read {
            return 0; // retention failures manifest on reads
        }
        let exposure = self.faults.exposures;
        self.faults.exposures += 1;
        let p = self.p_flip * ctx.rate_scale;
        let mut rng = FaultRng::for_exposure(self.seed, ctx, exposure);
        let flips = inject_flips(&mut rng, data, p, p, ctx.critical_mask);
        if flips > 0 {
            self.faults.faulted_lines += 1;
            self.faults.bit_flips += flips as u64;
        }
        flips
    }

    fn best_case_latency(&self) -> u64 {
        self.dram.best_case_latency()
    }

    fn row_miss_latency(&self) -> u64 {
        self.dram.row_miss_latency()
    }

    fn params(&self) -> &DramParams {
        self.dram.params()
    }
}

/// Non-volatile MRAM written with reduced write margins: no refresh at all
/// (tREFI = 0), but each write lands with asymmetric 0→1 / 1→0 error rates.
/// Every region gets a deterministic write-margin *level* derived from its
/// base address; a region at level `k` runs its rates scaled by `2^k`,
/// modelling banks provisioned with different write pulse energies.
pub struct ApproxMram {
    dram: Dram,
    em: ErrorModelParams,
    faults: FaultStats,
}

impl ApproxMram {
    /// Build with refresh disabled (the device is non-volatile).
    pub fn new(params: DramParams, em: &ErrorModelParams) -> Self {
        let mut p = params;
        p.trefi = 0;
        ApproxMram { dram: Dram::new(p), em: *em, faults: FaultStats::default() }
    }

    /// The deterministic write-margin level of a region (0 is the best
    /// margin; each level doubles the error rates).
    pub fn margin_level(seed: u64, levels: u32, region_base: u64) -> u32 {
        if levels <= 1 {
            return 0;
        }
        (splitmix64(splitmix64(seed ^ 0x4D52_414D) ^ region_base) % levels as u64) as u32
    }
}

impl DramBackend for ApproxMram {
    fn kind(&self) -> BackendKind {
        BackendKind::ApproxMram
    }

    #[inline]
    fn access_bytes(
        &mut self,
        line: LineAddr,
        kind: AccessKind,
        now: u64,
        bytes: usize,
    ) -> DramResponse {
        self.dram.access_bytes(line, kind, now, bytes)
    }

    fn stats(&self) -> &DramStats {
        &self.dram.stats
    }

    fn fault_stats(&self) -> &FaultStats {
        &self.faults
    }

    fn injects_faults(&self) -> bool {
        self.em.mram_p01 > 0.0 || self.em.mram_p10 > 0.0
    }

    fn corrupt_line(&mut self, ctx: &FaultCtx, kind: AccessKind, data: &mut CacheLine) -> u32 {
        if kind != AccessKind::Write {
            return 0; // MRAM reads are non-destructive and retention is ~infinite
        }
        let exposure = self.faults.exposures;
        self.faults.exposures += 1;
        let level = Self::margin_level(self.em.seed, self.em.mram_margin_levels, ctx.region_base);
        let scale = (1u64 << level) as f64 * ctx.rate_scale;
        let mut rng = FaultRng::for_exposure(self.em.seed, ctx, exposure);
        let flips = inject_flips(
            &mut rng,
            data,
            self.em.mram_p01 * scale,
            self.em.mram_p10 * scale,
            ctx.critical_mask,
        );
        if flips > 0 {
            self.faults.faulted_lines += 1;
            self.faults.bit_flips += flips as u64;
        }
        flips
    }

    fn best_case_latency(&self) -> u64 {
        self.dram.best_case_latency()
    }

    fn row_miss_latency(&self) -> u64 {
        self.dram.row_miss_latency()
    }

    fn params(&self) -> &DramParams {
        self.dram.params()
    }
}

/// Build the backend selected by `em.backend`, falling back to the
/// `AVR_BACKEND` knob (`avr_types::knobs`) when unpinned.
pub fn backend_for(params: &DramParams, em: &ErrorModelParams) -> Box<dyn DramBackend> {
    match em.backend.unwrap_or(knobs().backend) {
        BackendKind::Exact => Box::new(ExactDram::new(*params)),
        BackendKind::RelaxedDram => Box::new(RelaxedRefreshDram::new(*params, em)),
        BackendKind::ApproxMram => Box::new(ApproxMram::new(*params, em)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> FaultCtx {
        FaultCtx::nominal(0x1_0000, 42)
    }

    fn em(backend: Option<BackendKind>) -> ErrorModelParams {
        ErrorModelParams { backend, ..Default::default() }
    }

    #[test]
    fn exact_backend_matches_raw_dram_timing() {
        let p = DramParams::default();
        let mut raw = Dram::new(p);
        let mut exact = ExactDram::new(p);
        for i in 0..64u64 {
            let kind = if i % 3 == 0 { AccessKind::Write } else { AccessKind::Read };
            let a = raw.access(LineAddr(i * 7), kind, i * 50);
            let b = exact.access(LineAddr(i * 7), kind, i * 50);
            assert_eq!(a.complete_at, b.complete_at);
            assert_eq!(a.row_hit, b.row_hit);
        }
        let burst_a = raw.access_burst(LineAddr(1024), 16, AccessKind::Read, 9999);
        let burst_b = exact.access_burst(LineAddr(1024), 16, AccessKind::Read, 9999);
        assert_eq!(burst_a.complete_at, burst_b.complete_at);
        assert_eq!(raw.stats, *exact.stats());
        assert!(!exact.injects_faults());
        let mut data = CacheLine::ZERO;
        assert_eq!(exact.corrupt_line(&ctx(), AccessKind::Read, &mut data), 0);
        assert_eq!(data, CacheLine::ZERO);
    }

    #[test]
    fn fault_streams_are_reproducible_and_keyed() {
        let mut a = FaultRng::for_exposure(1, &ctx(), 0);
        let mut b = FaultRng::for_exposure(1, &ctx(), 0);
        assert_eq!(a.next_u64(), b.next_u64());
        // Any key component changing changes the stream.
        let base = FaultRng::for_exposure(1, &ctx(), 0).next_u64();
        assert_ne!(FaultRng::for_exposure(2, &ctx(), 0).next_u64(), base);
        assert_ne!(FaultRng::for_exposure(1, &ctx(), 1).next_u64(), base);
        let other = FaultCtx::nominal(0x2_0000, 42);
        assert_ne!(FaultRng::for_exposure(1, &other, 0).next_u64(), base);
    }

    #[test]
    fn inject_flip_rate_tracks_probability() {
        // At p = 1/64 per bit over 512 bits, expect ~8 flips per line.
        let mut total = 0u64;
        let trials = 2000;
        for t in 0..trials {
            let mut rng = FaultRng::for_exposure(7, &ctx(), t);
            let mut line = CacheLine::ZERO;
            total += inject_flips(&mut rng, &mut line, 1.0 / 64.0, 1.0 / 64.0, 0) as u64;
        }
        let mean = total as f64 / trials as f64;
        assert!((6.0..10.0).contains(&mean), "mean flips per line {mean}");
    }

    #[test]
    fn asymmetric_rates_respect_bit_values() {
        // p10 = 0 on an all-ones line must never flip anything; p01 = 0 on
        // an all-zeros line likewise.
        let ones = CacheLine { words: [u32::MAX; avr_types::VALUES_PER_LINE] };
        for t in 0..200 {
            let mut rng = FaultRng::for_exposure(3, &ctx(), t);
            let mut line = ones;
            assert_eq!(inject_flips(&mut rng, &mut line, 0.5, 0.0, 0), 0);
            let mut rng = FaultRng::for_exposure(3, &ctx(), t);
            let mut zeros = CacheLine::ZERO;
            assert_eq!(inject_flips(&mut rng, &mut zeros, 0.0, 0.5, 0), 0);
        }
        // And the allowed direction does fire at a high rate.
        let mut rng = FaultRng::for_exposure(3, &ctx(), 1000);
        let mut line = ones;
        assert!(inject_flips(&mut rng, &mut line, 0.0, 0.5, 0) > 0);
    }

    #[test]
    fn relaxed_dram_stretches_trefi_and_flips_on_reads_only() {
        let mut e = em(Some(BackendKind::RelaxedDram));
        e.retention_fail_per_bit = 0.005;
        e.refresh_multiplier = 4;
        let p = DramParams::default();
        let mut d = RelaxedRefreshDram::new(p, &e);
        assert_eq!(d.params().trefi, p.trefi * 4);
        assert!(d.injects_faults());
        let mut data = CacheLine { words: [0xDEAD_BEEF; avr_types::VALUES_PER_LINE] };
        let orig = data;
        assert_eq!(d.corrupt_line(&ctx(), AccessKind::Write, &mut data), 0);
        assert_eq!(data, orig, "writes are stored exactly");
        let mut flips = 0;
        for _ in 0..50 {
            flips += d.corrupt_line(&ctx(), AccessKind::Read, &mut data);
        }
        assert!(flips > 0, "p=1.5e-2/bit over 50 reads must flip something");
        assert_eq!(d.fault_stats().bit_flips, flips as u64);
    }

    #[test]
    fn relaxed_dram_at_nominal_refresh_is_exact() {
        let mut e = em(Some(BackendKind::RelaxedDram));
        e.refresh_multiplier = 1;
        let d = RelaxedRefreshDram::new(DramParams::default(), &e);
        assert_eq!(d.params().trefi, DramParams::default().trefi);
        assert!(!d.injects_faults());
    }

    #[test]
    fn mram_never_refreshes_and_flips_on_writes_only() {
        let mut e = em(Some(BackendKind::ApproxMram));
        e.mram_p01 = 0.01;
        e.mram_p10 = 0.005;
        let mut d = ApproxMram::new(DramParams::default(), &e);
        assert_eq!(d.params().trefi, 0, "MRAM is non-volatile");
        assert!(d.injects_faults());
        let mut data = CacheLine { words: [0x1234_5678; avr_types::VALUES_PER_LINE] };
        let orig = data;
        assert_eq!(d.corrupt_line(&ctx(), AccessKind::Read, &mut data), 0);
        assert_eq!(data, orig, "reads are non-destructive");
        let mut flips = 0;
        for _ in 0..50 {
            flips += d.corrupt_line(&ctx(), AccessKind::Write, &mut data);
        }
        assert!(flips > 0);
        assert_eq!(d.stats().refreshes, 0);
    }

    #[test]
    fn mram_margin_levels_are_deterministic_and_bounded() {
        for region in [0u64, 0x1000, 0x2000, 0xFFFF_0000] {
            let a = ApproxMram::margin_level(9, 3, region);
            let b = ApproxMram::margin_level(9, 3, region);
            assert_eq!(a, b);
            assert!(a < 3);
        }
        assert_eq!(ApproxMram::margin_level(9, 1, 0x1000), 0);
        assert_eq!(ApproxMram::margin_level(9, 0, 0x1000), 0);
    }

    #[test]
    fn backend_for_honors_pinned_kind() {
        let p = DramParams::default();
        for kind in BackendKind::ALL {
            let b = backend_for(&p, &em(Some(kind)));
            assert_eq!(b.kind(), kind);
        }
    }

    #[test]
    fn rate_scale_zero_silences_and_scale_amplifies() {
        let mut e = em(Some(BackendKind::RelaxedDram));
        e.retention_fail_per_bit = 0.002;
        e.refresh_multiplier = 4;
        let mut flips = [0u64; 3];
        for (i, scale) in [0.0, 1.0, 8.0].into_iter().enumerate() {
            let mut d = RelaxedRefreshDram::new(DramParams::default(), &e);
            let c = FaultCtx { rate_scale: scale, ..ctx() };
            for _ in 0..400 {
                let mut line = CacheLine { words: [0x5A5A_5A5A; avr_types::VALUES_PER_LINE] };
                flips[i] += d.corrupt_line(&c, AccessKind::Read, &mut line) as u64;
            }
        }
        assert_eq!(flips[0], 0, "a zero-rated region never faults");
        assert!(flips[1] > 0);
        assert!(flips[2] > flips[1] * 3, "8x derating must amplify: {flips:?}");
    }

    #[test]
    fn critical_mask_words_never_flip() {
        // Even at an absurd per-bit rate, masked words come through intact
        // while the unmasked words are shredded.
        let mask: u16 = 0b0000_1010_0001_0001; // words 0, 4, 9, 11
        for t in 0..100 {
            let mut rng = FaultRng::for_exposure(11, &ctx(), t);
            let mut line = CacheLine { words: [0xCAFE_F00D; avr_types::VALUES_PER_LINE] };
            let flips = inject_flips(&mut rng, &mut line, 0.3, 0.3, mask);
            assert!(flips > 0, "0.3/bit must flip plenty");
            for w in 0..avr_types::VALUES_PER_LINE {
                if mask >> w & 1 != 0 {
                    assert_eq!(line.words[w], 0xCAFE_F00D, "critical word {w} flipped");
                }
            }
        }
        // An all-critical line is untouched entirely.
        let mut rng = FaultRng::for_exposure(11, &ctx(), 1000);
        let mut line = CacheLine { words: [0xCAFE_F00D; avr_types::VALUES_PER_LINE] };
        assert_eq!(inject_flips(&mut rng, &mut line, 0.3, 0.3, 0xFFFF), 0);
    }

    #[test]
    fn mram_honors_region_metadata() {
        let mut e = em(Some(BackendKind::ApproxMram));
        e.mram_p01 = 0.02;
        e.mram_p10 = 0.02;
        e.mram_margin_levels = 1;
        let mut d = ApproxMram::new(DramParams::default(), &e);
        let quiet = FaultCtx { rate_scale: 0.0, ..ctx() };
        let armored = FaultCtx { critical_mask: 0xFFFF, ..ctx() };
        for _ in 0..50 {
            let mut line = CacheLine { words: [7; avr_types::VALUES_PER_LINE] };
            assert_eq!(d.corrupt_line(&quiet, AccessKind::Write, &mut line), 0);
            assert_eq!(d.corrupt_line(&armored, AccessKind::Write, &mut line), 0);
            assert_eq!(line.words[0], 7);
        }
        let mut line = CacheLine { words: [7; avr_types::VALUES_PER_LINE] };
        let mut flips = 0;
        for _ in 0..50 {
            flips += d.corrupt_line(&ctx(), AccessKind::Write, &mut line);
        }
        assert!(flips > 0, "nominal context still faults");
    }

    #[test]
    fn corrupt_calls_are_order_deterministic() {
        // Two backends fed the same corrupt-call sequence produce the same
        // flips — the thread-width invariance property at the unit level.
        let mut e = em(Some(BackendKind::RelaxedDram));
        e.retention_fail_per_bit = 0.01;
        let mk = || RelaxedRefreshDram::new(DramParams::default(), &e);
        let (mut d1, mut d2) = (mk(), mk());
        for i in 0..64u64 {
            let c = FaultCtx::nominal(0x4000 * (i % 3), i / 2);
            let mut l1 = CacheLine { words: [i as u32; avr_types::VALUES_PER_LINE] };
            let mut l2 = l1;
            let f1 = d1.corrupt_line(&c, AccessKind::Read, &mut l1);
            let f2 = d2.corrupt_line(&c, AccessKind::Read, &mut l2);
            assert_eq!(f1, f2);
            assert_eq!(l1, l2);
        }
        assert_eq!(*d1.fault_stats(), *d2.fault_stats());
    }
}
