//! The portable scalar arm: the PR-1 fused loops, verbatim. These are the
//! oracle the explicit AVX2 kernels are property-tested against, and the
//! fallback every CPU without AVX2 (or `AVR_NO_SIMD=1`) runs.

use super::{ChunkVerdict, CHUNK};
use crate::block::SUMMARY_VALUES;
use crate::convert::{round_ties_even_f32, shift_exponent, unbias, F32_SCALE_F, FRAC_BITS};
use crate::interp::reconstruct_into_clamped_scalar;
use crate::Layout;
use avr_types::VALUES_PER_BLOCK;

/// Branchless batch float→fixed conversion of the whole block — the fused
/// path's replacement for 256 scalar `to_fixed` calls. Semantics are
/// identical for every (block, bias) pair the compressor produces: the
/// bias comes from `choose_bias` on the same block, so a nonzero bias
/// implies the block holds no NaN/Inf (rule (a)) and the biased exponent
/// can never reach the special range (the ≥255 case clamps to max finite).
pub(crate) fn to_fixed_block_f32(
    words: &[u32; VALUES_PER_BLOCK],
    bias: i8,
    out: &mut [i32; VALUES_PER_BLOCK],
) {
    #[inline(always)]
    fn round_clamp(f: f32) -> i32 {
        // Same RNE magic-constant rounding as `to_fixed`, pure f32/i32
        // lanes; the saturating cast handles the Inf overflow of the scale.
        round_ties_even_f32(f * (1u64 << FRAC_BITS) as f32) as i32
    }
    if bias == 0 {
        for (o, &bits) in out.iter_mut().zip(words) {
            let f = f32::from_bits(bits);
            *o = if f.is_finite() { round_clamp(f) } else { 0 };
        }
    } else {
        // apply_bias, flattened to eager selects (no specials can be
        // present when bias != 0; see above).
        let b = bias as i32;
        for (o, &bits) in out.iter_mut().zip(words) {
            *o = round_clamp(f32::from_bits(shift_exponent(bits, b)));
        }
    }
}

/// Fused fixed→float + unbias + error-check over one 64-value chunk of one
/// variant (F32), structured as three flat passes (convert map, classify
/// map, reduce) so each loop is branch-free and vectorizable.
pub(crate) fn check_chunk_f32(
    ow: &[u32; CHUNK],
    rf: &[i32; CHUNK],
    rw: &mut [u32; CHUNK],
    neg_bias: i32,
    mantissa_limit: u32,
) -> ChunkVerdict {
    // Pass 1 — from_fixed: scale to float and unbias (pure 32-bit map).
    for (w, &v) in rw.iter_mut().zip(rf) {
        let f = v as f32 * F32_SCALE_F;
        *w = unbias(f.to_bits(), neg_bias);
    }
    // Pass 2 — classify: outlier flag + error contribution per value.
    let mut flags = [0u8; CHUNK];
    let mut errs = [0u32; CHUNK];
    for j in 0..CHUNK {
        let orig = ow[j];
        let recon = rw[j];
        let exp_o = (orig >> 23) & 0xFF;
        let diff = (orig & 0x7F_FFFF).abs_diff(recon & 0x7F_FFFF);
        let se_match = (orig >> 23) == (recon >> 23);
        let both_zero = (orig | recon) & 0x7FFF_FFFF == 0;
        // Eager bitwise logic (no short-circuit branches) so the whole
        // classification if-converts and vectorizes.
        let outlier = (orig != recon)
            & ((exp_o == 255) | (!se_match & !both_zero) | (se_match & (diff >= mantissa_limit)));
        flags[j] = outlier as u8;
        errs[j] = if outlier { 0 } else { diff };
    }
    // Pass 3 — reduce: bitmap word, outlier count, error sum.
    let mut bitmap = 0u64;
    for (j, &f) in flags.iter().enumerate() {
        bitmap |= (f as u64) << j;
    }
    ChunkVerdict {
        bitmap,
        outliers: flags.iter().map(|&f| f as u32).sum::<u32>(),
        err_sum: errs.iter().map(|&e| e as u64).sum::<u64>(),
    }
}

/// 1-D clamped reconstruction (table entry wrapper).
pub(crate) fn reconstruct_1d(summary: &[i64; SUMMARY_VALUES], out: &mut [i32; VALUES_PER_BLOCK]) {
    reconstruct_into_clamped_scalar(Layout::Linear1D, summary, out);
}

/// 2-D clamped reconstruction (table entry wrapper).
pub(crate) fn reconstruct_2d(summary: &[i64; SUMMARY_VALUES], out: &mut [i32; VALUES_PER_BLOCK]) {
    reconstruct_into_clamped_scalar(Layout::Square2D, summary, out);
}
