//! The device axis (ROADMAP item 4): one timing engine plus a fault-model
//! value.
//!
//! AVR approximates by *reconstruction*; the other half of the
//! approximate-memory field approximates at the *device*: cells flip bits
//! under relaxed refresh or reduced write margins. Every device runs on
//! the same DDR4 timing engine ([`Dram`]), and the three shipped devices
//! differ only in data, which [`device_for`] builds from the configuration:
//!
//! * **exact** DDR4 — nominal timing, bit-exact storage.
//! * **relaxed**-refresh DRAM — tREFI stretched by a configurable
//!   multiplier; approximable lines suffer retention-failure bit flips on
//!   every read served by the device.
//! * approximate **MRAM** — no refresh at all (non-volatile), but writes
//!   land with asymmetric 0→1 / 1→0 error rates scaled by a per-region
//!   write-margin level.
//!
//! That data is the refresh interval the engine runs with, plus a
//! [`FaultModel`]: which transfer direction exposes an approximable line,
//! the two per-bit flip rates, and how many write-margin levels the
//! regions spread over.
//!
//! # Determinism: the fault-stream seeding scheme
//!
//! Fault injection must be bit-identical at any `SimPool` thread width and
//! across repeated runs, so no device owns a global RNG whose consumption
//! order could depend on scheduling. Instead every *fault opportunity* — one
//! exposing `corrupt_line` call — derives a fresh splitmix64 stream from a
//! key chain:
//!
//! ```text
//! s0 = splitmix64(config seed)
//! s1 = splitmix64(s0 ^ region base address)
//! s2 = splitmix64(s1 ^ block address)
//! s3 = splitmix64(s2 ^ exposure ordinal)     // per-model exposure count
//! ```
//!
//! Each simulated `System` owns its fault model, and a `System` issues
//! memory operations in program order, so the exposure ordinal — the count
//! of exposing `corrupt_line` calls this model has served — is a
//! deterministic function of (config, workload, design) alone. Thread width
//! only changes *which OS thread* runs a given simulation, never the order
//! of fault opportunities within it (`tests/fault_injection.rs` pins this).
//!
//! Within one opportunity, per-bit flips are drawn by geometric
//! skip-sampling: the stream yields the gap to the next candidate bit
//! directly, so the cost is proportional to the (tiny) expected number of
//! flips rather than 512 Bernoulli draws per line. Asymmetric rates sample
//! at `max(p01, p10)` and thin each candidate by the rate that applies to
//! the bit's current value.
//!
//! # Adding a fourth device
//!
//! Add a variant to `avr_types::BackendKind` (and its `label()`, which the
//! `AVR_BACKEND` knob also reads), plus any new rate knobs to
//! `ErrorModelParams`; then give it an arm in [`device_for`] that sets the
//! engine's `DramParams` and the [`FaultModel`]'s fields. The thread-width
//! tests and the bench `backends` axis pick the variant up from
//! `BackendKind::ALL`. A fault-injecting device also joins the device list
//! of `tests/fault_injection.rs`'s digest pins and of `avr-bench`'s
//! `design_digest`, which prints its new pins.
//!
//! The fault model deliberately *does not* decide which lines are eligible
//! for corruption: `avr-core` calls `corrupt_line` only for lines inside
//! approximable regions (critical data is always served exactly, optionally
//! counting ECC scrubs), and owns the graceful-degradation retry path.

use avr_types::knobs::knobs;
use avr_types::{BackendKind, CacheLine, DramParams, ErrorModelParams, CL_BYTES};

use crate::{AccessKind, Dram};

/// Bits per cacheline (the per-line fault-opportunity space).
const LINE_BITS: u64 = (CL_BYTES * 8) as u64;

/// Identifies one fault opportunity to the seeding scheme: where the line
/// lives. The *when* (exposure ordinal) is tracked by the fault model.
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
    /// retention / write-margin derating. Multiplies the device's bit
    /// error rates for this line.
    pub rate_scale: f64,
    /// Critical words of this line (bit `w` set ⇒ word `w` of the line is
    /// precision-critical): the device must never flip their bits. This is
    /// how an `Aggressive` interleaved layout keeps its integer fields
    /// device-safe even though the whole region is approximable.
    pub critical_mask: u16,
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
struct FaultRng {
    state: u64,
}

impl FaultRng {
    /// Derive the stream for one fault opportunity — see the module docs
    /// for the key chain.
    fn for_exposure(seed: u64, ctx: &FaultCtx, exposure: u64) -> FaultRng {
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

/// The deterministic write-margin level of a region (0 is the best
/// margin; each level doubles the error rates). One level or none puts
/// every region at level 0.
fn margin_level(seed: u64, levels: u32, region_base: u64) -> u32 {
    if levels <= 1 {
        return 0;
    }
    (splitmix64(splitmix64(seed ^ 0x4D52_414D) ^ region_base) % levels as u64) as u32
}

/// A device's error model: which transfers expose an approximable line,
/// at which per-bit rates. `avr-core` calls [`FaultModel::corrupt_line`]
/// once per device transfer of an *approximable* line, passing the line's
/// current data in place.
#[derive(Clone, Debug)]
pub struct FaultModel {
    kind: BackendKind,
    /// Root of every fault stream's key chain.
    seed: u64,
    /// The transfer direction that exposes a line: retention failures
    /// show on reads, write errors on writes.
    side: AccessKind,
    /// Per-bit 0→1 flip probability per exposure, at margin level 0.
    p01: f64,
    /// Per-bit 1→0 flip probability per exposure, at margin level 0.
    p10: f64,
    /// Write-margin levels the regions spread over; a region at level `k`
    /// runs its rates scaled by `2^k`.
    margin_levels: u32,
    /// Exposing `corrupt_line` calls served so far: the key chain's
    /// ordinal.
    exposures: u64,
}

impl FaultModel {
    /// Which device this is (bench labels, summaries).
    pub fn kind(&self) -> BackendKind {
        self.kind
    }

    /// Whether [`Self::corrupt_line`] can ever flip a bit. `avr-core`
    /// checks it before any fault-hook work, which keeps the exact
    /// device's paths free of it.
    #[inline]
    pub fn injects_faults(&self) -> bool {
        self.p01 > 0.0 || self.p10 > 0.0
    }

    /// Apply the error model to one approximable line's data in place;
    /// returns the number of bits flipped. Only a transfer in the model's
    /// direction exposes the line (and counts as an exposure).
    pub fn corrupt_line(&mut self, ctx: &FaultCtx, kind: AccessKind, data: &mut CacheLine) -> u32 {
        if kind != self.side {
            return 0;
        }
        let exposure = self.exposures;
        self.exposures += 1;
        let level = margin_level(self.seed, self.margin_levels, ctx.region_base);
        let scale = (1u64 << level) as f64 * ctx.rate_scale;
        let mut rng = FaultRng::for_exposure(self.seed, ctx, exposure);
        inject_flips(&mut rng, data, self.p01 * scale, self.p10 * scale, ctx.critical_mask)
    }
}

/// Build the device selected by `em.backend`, falling back to the
/// `AVR_BACKEND` knob (`avr_types::knobs`) when unpinned: the timing
/// engine, run with the device's refresh interval, and its fault model.
pub fn device_for(params: &DramParams, em: &ErrorModelParams) -> (Dram, FaultModel) {
    let kind = em.backend.unwrap_or(knobs().backend);
    // (tREFI, exposing side, p01, p10, margin levels) per device.
    let (trefi, side, p01, p10, margin_levels) = match kind {
        BackendKind::Exact => (params.trefi, AccessKind::Read, 0.0, 0.0, 1),
        // Refreshed every `mult × tREFI`: cells near the tail of the
        // retention distribution fail on reads, flipping toward either
        // rail (cell polarity is address-random in commodity parts).
        BackendKind::RelaxedDram => {
            let mult = em.refresh_multiplier.max(1);
            let p_flip = em.retention_fail_per_bit * (mult - 1) as f64;
            (params.trefi.saturating_mul(mult), AccessKind::Read, p_flip, p_flip, 1)
        }
        // Non-volatile, so never refreshed; reads are non-destructive, but
        // writes land with asymmetric errors at the region's margin level.
        BackendKind::ApproxMram => {
            (0, AccessKind::Write, em.mram_p01, em.mram_p10, em.mram_margin_levels)
        }
    };
    let model = FaultModel { kind, seed: em.seed, side, p01, p10, margin_levels, exposures: 0 };
    (Dram::new(DramParams { trefi, ..*params }), model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use avr_types::{LineAddr, VALUES_PER_LINE};

    fn nominal(region_base: u64, block: u64) -> FaultCtx {
        FaultCtx { region_base, block, rate_scale: 1.0, critical_mask: 0 }
    }

    fn ctx() -> FaultCtx {
        nominal(0x1_0000, 42)
    }

    fn em(backend: BackendKind) -> ErrorModelParams {
        ErrorModelParams { backend: Some(backend), ..Default::default() }
    }

    #[test]
    fn exact_keeps_nominal_timing_and_never_flips() {
        let p = DramParams::default();
        let (dram, mut model) = device_for(&p, &em(BackendKind::Exact));
        assert_eq!(dram.params, p);
        assert!(!model.injects_faults());
        let orig = CacheLine { words: [0xDEAD_BEEF; VALUES_PER_LINE] };
        let mut data = orig;
        for kind in [AccessKind::Read, AccessKind::Write] {
            assert_eq!(model.corrupt_line(&ctx(), kind, &mut data), 0);
        }
        assert_eq!(data, orig);
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
        let other = nominal(0x2_0000, 42);
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
        let ones = CacheLine { words: [u32::MAX; VALUES_PER_LINE] };
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
        let mut e = em(BackendKind::RelaxedDram);
        e.retention_fail_per_bit = 0.005;
        e.refresh_multiplier = 4;
        let p = DramParams::default();
        let (dram, mut d) = device_for(&p, &e);
        assert_eq!(dram.params.trefi, p.trefi * 4);
        assert!(d.injects_faults());
        let mut data = CacheLine { words: [0xDEAD_BEEF; VALUES_PER_LINE] };
        let orig = data;
        assert_eq!(d.corrupt_line(&ctx(), AccessKind::Write, &mut data), 0);
        assert_eq!(data, orig, "writes are stored exactly");
        assert_eq!(d.exposures, 0, "a write is no exposure");
        let mut flips = 0;
        for _ in 0..50 {
            flips += d.corrupt_line(&ctx(), AccessKind::Read, &mut data);
        }
        assert!(flips > 0, "p=1.5e-2/bit over 50 reads must flip something");
        assert_eq!(d.exposures, 50);
    }

    #[test]
    fn relaxed_dram_at_nominal_refresh_is_exact() {
        let mut e = em(BackendKind::RelaxedDram);
        e.refresh_multiplier = 1;
        let (dram, d) = device_for(&DramParams::default(), &e);
        assert_eq!(dram.params.trefi, DramParams::default().trefi);
        assert!(!d.injects_faults());
    }

    #[test]
    fn mram_never_refreshes_and_flips_on_writes_only() {
        let mut e = em(BackendKind::ApproxMram);
        e.mram_p01 = 0.01;
        e.mram_p10 = 0.005;
        let (mut dram, mut d) = device_for(&DramParams::default(), &e);
        assert_eq!(dram.params.trefi, 0, "MRAM is non-volatile");
        assert!(d.injects_faults());
        let mut data = CacheLine { words: [0x1234_5678; VALUES_PER_LINE] };
        let orig = data;
        assert_eq!(d.corrupt_line(&ctx(), AccessKind::Read, &mut data), 0);
        assert_eq!(data, orig, "reads are non-destructive");
        assert_eq!(d.exposures, 0, "a read is no exposure");
        let mut flips = 0;
        for _ in 0..50 {
            flips += d.corrupt_line(&ctx(), AccessKind::Write, &mut data);
        }
        assert!(flips > 0);
        assert_eq!(d.exposures, 50);
        dram.access(LineAddr(0), AccessKind::Read, 1 << 30);
        assert_eq!(dram.stats.refreshes, 0);
    }

    #[test]
    fn mram_margin_levels_are_deterministic_and_bounded() {
        for region in [0u64, 0x1000, 0x2000, 0xFFFF_0000] {
            let a = margin_level(9, 3, region);
            let b = margin_level(9, 3, region);
            assert_eq!(a, b);
            assert!(a < 3);
        }
        assert_eq!(margin_level(9, 1, 0x1000), 0);
        assert_eq!(margin_level(9, 0, 0x1000), 0);
    }

    #[test]
    fn device_for_honors_pinned_kind() {
        let p = DramParams::default();
        for kind in BackendKind::ALL {
            assert_eq!(device_for(&p, &em(kind)).1.kind(), kind);
        }
    }

    #[test]
    fn rate_scale_zero_silences_and_scale_amplifies() {
        let mut e = em(BackendKind::RelaxedDram);
        e.retention_fail_per_bit = 0.002;
        e.refresh_multiplier = 4;
        let mut flips = [0u64; 3];
        for (i, scale) in [0.0, 1.0, 8.0].into_iter().enumerate() {
            let (_, mut d) = device_for(&DramParams::default(), &e);
            let c = FaultCtx { rate_scale: scale, ..ctx() };
            for _ in 0..400 {
                let mut line = CacheLine { words: [0x5A5A_5A5A; VALUES_PER_LINE] };
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
            let mut line = CacheLine { words: [0xCAFE_F00D; VALUES_PER_LINE] };
            let flips = inject_flips(&mut rng, &mut line, 0.3, 0.3, mask);
            assert!(flips > 0, "0.3/bit must flip plenty");
            for w in 0..VALUES_PER_LINE {
                if mask >> w & 1 != 0 {
                    assert_eq!(line.words[w], 0xCAFE_F00D, "critical word {w} flipped");
                }
            }
        }
        // An all-critical line is untouched entirely.
        let mut rng = FaultRng::for_exposure(11, &ctx(), 1000);
        let mut line = CacheLine { words: [0xCAFE_F00D; VALUES_PER_LINE] };
        assert_eq!(inject_flips(&mut rng, &mut line, 0.3, 0.3, 0xFFFF), 0);
    }

    #[test]
    fn mram_honors_region_metadata() {
        let mut e = em(BackendKind::ApproxMram);
        e.mram_p01 = 0.02;
        e.mram_p10 = 0.02;
        e.mram_margin_levels = 1;
        let (_, mut d) = device_for(&DramParams::default(), &e);
        let quiet = FaultCtx { rate_scale: 0.0, ..ctx() };
        let armored = FaultCtx { critical_mask: 0xFFFF, ..ctx() };
        for _ in 0..50 {
            let mut line = CacheLine { words: [7; VALUES_PER_LINE] };
            assert_eq!(d.corrupt_line(&quiet, AccessKind::Write, &mut line), 0);
            assert_eq!(d.corrupt_line(&armored, AccessKind::Write, &mut line), 0);
            assert_eq!(line.words[0], 7);
        }
        let mut line = CacheLine { words: [7; VALUES_PER_LINE] };
        let mut flips = 0;
        for _ in 0..50 {
            flips += d.corrupt_line(&ctx(), AccessKind::Write, &mut line);
        }
        assert!(flips > 0, "nominal context still faults");
    }

    #[test]
    fn corrupt_calls_are_order_deterministic() {
        // Two models fed the same corrupt-call sequence produce the same
        // flips — the thread-width invariance property at the unit level.
        let mut e = em(BackendKind::RelaxedDram);
        e.retention_fail_per_bit = 0.01;
        let mk = || device_for(&DramParams::default(), &e).1;
        let (mut d1, mut d2) = (mk(), mk());
        for i in 0..64u64 {
            let c = nominal(0x4000 * (i % 3), i / 2);
            let mut l1 = CacheLine { words: [i as u32; VALUES_PER_LINE] };
            let mut l2 = l1;
            let f1 = d1.corrupt_line(&c, AccessKind::Read, &mut l1);
            let f2 = d2.corrupt_line(&c, AccessKind::Read, &mut l2);
            assert_eq!(f1, f2);
            assert_eq!(l1, l2);
        }
        assert_eq!((d1.exposures, d2.exposures), (64, 64));
    }
}
