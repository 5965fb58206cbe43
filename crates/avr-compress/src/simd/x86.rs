//! Explicit x86-64 AVX2 kernels, dispatched only after
//! `is_x86_feature_detected!("avx2")`. Every kernel is bit-identical to
//! its scalar twin in [`super::scalar`]; see the module docs of
//! [`crate::simd`] for why the arithmetic guarantees that and the per-arm
//! oracle in `tests/codec_properties.rs` for the enforcement.
//!
//! Numeric notes:
//!
//! * `cvtps2dq`/`cvtdq2ps` use the MXCSR default rounding (round to
//!   nearest, ties to even) — exactly the scalar path's magic-constant
//!   rounding and `as f32` conversion. Rust never reprograms MXCSR.
//! * A saturating float→i32 cast is `cvtps2dq` plus one compare-xor:
//!   the instruction returns `0x8000_0000` for any out-of-range input,
//!   which is already `i32::MIN` for negative overflow; xoring with the
//!   `x ≥ 2^31` mask flips positive overflow to `i32::MAX`. NaN lanes
//!   never reach the cast (both call sites filter or preclude specials).
//! * The interpolation kernels run in f64 lanes: every intermediate of
//!   the integer lerp is ≤ 2³⁷ in magnitude, exactly representable, and
//!   power-of-two scales are exact, so `cvttpd` truncation reproduces the
//!   scalar i64 truncated division bit-for-bit (requires i32-range
//!   summaries — guaranteed by the pipeline).
//!
//! # Safety
//!
//! Every `unsafe fn` here needs AVX2: it is compiled with
//! `#[target_feature(enable = "avx2")]` or called only from such a
//! function. The safe wrappers are the module's only entry points, and
//! the dispatch layer hands out their table only after detection.

use super::{ChunkVerdict, CHUNK};
use crate::block::SUMMARY_VALUES;
use crate::convert::{F32_SCALE_F, FRAC_BITS};
use crate::downsample::{round_avg, GRID, TILE};
use avr_types::VALUES_PER_BLOCK;
use std::arch::x86_64::*;

const N: usize = VALUES_PER_BLOCK;

/// First f32 the saturating cast clamps to `i32::MAX`.
const I32_OVERFLOW_F32: f32 = 2_147_483_648.0;
const I32_MIN_F64: f64 = i32::MIN as f64;
const I32_MAX_F64: f64 = i32::MAX as f64;

/// 1-D interpolation weights toward the right anchor (positions
/// `8+16i+k` carry `w = 2k+1`; see `interp::LUT_1D`), and their
/// complements `32 - w`, as f64 lanes.
const W1D: [f64; 16] = {
    let mut a = [0.0; 16];
    let mut k = 0;
    while k < 16 {
        a[k] = (2 * k + 1) as f64;
        k += 1;
    }
    a
};
const WA1D: [f64; 16] = {
    let mut a = [0.0; 16];
    let mut k = 0;
    while k < 16 {
        a[k] = (32 - (2 * k + 1)) as f64;
        k += 1;
    }
    a
};
/// 2-D axis weights (interior positions `4t+2+k` carry `w = 2k+1` toward
/// the right/lower anchor; see `interp::LUT_2D`), step 8.
const W2D: [f64; 4] = [1.0, 3.0, 5.0, 7.0];
const WA2D: [f64; 4] = [7.0, 5.0, 3.0, 1.0];

// ----------------------------------------------------------------------
// Safe wrappers: these are what the AVX2 table points at.
// ----------------------------------------------------------------------

pub(super) fn to_fixed_f32_avx2(words: &[u32; N], bias: i8, out: &mut [i32; N]) {
    // SAFETY: the dispatch layer (`kernels_for`/`kernels`) hands out the
    // AVX2 table only after `is_x86_feature_detected!("avx2")`.
    unsafe { to_fixed_f32_avx2_impl(words, bias, out) }
}

pub(super) fn downsample_both_avx2(
    fixed: &[i32; N],
    out_1d: &mut [i64; SUMMARY_VALUES],
    out_2d: &mut [i64; SUMMARY_VALUES],
) {
    // SAFETY: dispatched only after AVX2 detection (see above).
    unsafe { downsample_both_avx2_impl(fixed, out_1d, out_2d) }
}

pub(super) fn reconstruct_1d_avx2(summary: &[i64; SUMMARY_VALUES], out: &mut [i32; N]) {
    // SAFETY: dispatched only after AVX2 detection (see above).
    unsafe { reconstruct_1d_avx2_impl(summary, out) }
}

pub(super) fn reconstruct_2d_avx2(summary: &[i64; SUMMARY_VALUES], out: &mut [i32; N]) {
    // SAFETY: dispatched only after AVX2 detection (see above).
    unsafe { reconstruct_2d_avx2_impl(summary, out) }
}

pub(super) fn check_chunk_f32_avx2(
    ow: &[u32; CHUNK],
    rf: &[i32; CHUNK],
    rw: &mut [u32; CHUNK],
    neg_bias: i32,
    mantissa_limit: u32,
) -> ChunkVerdict {
    // SAFETY: dispatched only after AVX2 detection (see above).
    unsafe { check_chunk_f32_avx2_impl(ow, rf, rw, neg_bias, mantissa_limit) }
}

// ----------------------------------------------------------------------
// Helpers
// ----------------------------------------------------------------------

/// Sum the four i32/u32 lanes (no overflow at the call sites' bounds).
#[inline(always)]
unsafe fn hsum_epi32(v: __m128i) -> u32 {
    let s = _mm_add_epi32(v, _mm_unpackhi_epi64(v, v));
    let s = _mm_add_epi32(s, _mm_shuffle_epi32::<0b01>(s));
    _mm_cvtsi128_si32(s) as u32
}

#[target_feature(enable = "avx2")]
#[inline]
unsafe fn select_epi32_256(mask: __m256i, a: __m256i, b: __m256i) -> __m256i {
    _mm256_blendv_epi8(b, a, mask)
}

/// Vector [`crate::convert::shift_exponent`]: add `delta` to every lane's
/// exponent field with the same eager-select semantics (overflow clamps to
/// max finite, zero-exponent input and underflow collapse to signed zero).
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn shift_exponent_epi32_256(bits: __m256i, delta: __m256i) -> __m256i {
    let exp_mask = _mm256_set1_epi32(0xFF);
    let e = _mm256_and_si256(_mm256_srli_epi32(bits, 23), exp_mask);
    let sign = _mm256_and_si256(bits, _mm256_set1_epi32(0x8000_0000u32 as i32));
    let e2 = _mm256_add_epi32(e, delta);
    let r = _mm256_or_si256(
        _mm256_and_si256(bits, _mm256_set1_epi32(0x807F_FFFFu32 as i32)),
        _mm256_slli_epi32(_mm256_and_si256(e2, exp_mask), 23),
    );
    let overflow = _mm256_cmpgt_epi32(e2, _mm256_set1_epi32(254));
    let r = select_epi32_256(overflow, _mm256_or_si256(sign, _mm256_set1_epi32(0x7F7F_FFFF)), r);
    let collapse = _mm256_or_si256(
        _mm256_cmpeq_epi32(e, _mm256_setzero_si256()),
        _mm256_cmpgt_epi32(_mm256_set1_epi32(1), e2),
    );
    select_epi32_256(collapse, sign, r)
}

/// Saturating RNE f32→i32 of already-scaled lanes (never NaN).
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn cvt_sat_epi32_256(scaled: __m256) -> __m256i {
    let cvt = _mm256_cvtps_epi32(scaled);
    let too_big =
        _mm256_castps_si256(_mm256_cmp_ps::<_CMP_GE_OQ>(scaled, _mm256_set1_ps(I32_OVERFLOW_F32)));
    _mm256_xor_si256(cvt, too_big)
}

#[target_feature(enable = "avx2")]
#[inline]
unsafe fn hsum_epi32_256(v: __m256i) -> u32 {
    hsum_epi32(_mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v)))
}

/// The integer-lerp tail in four f64 lanes: `trunc((num ± half)/step)`
/// (sign picks the addend, matching the scalar round-to-nearest for
/// truncated division), clamped to i32 and narrowed. `inv_step` must be a
/// power-of-two reciprocal so the scale is exact.
#[target_feature(enable = "avx2")]
#[inline]
unsafe fn lerp_tail_pd_256(num: __m256d, half: __m256d, inv_step: __m256d) -> __m128i {
    let h = _mm256_or_pd(_mm256_and_pd(num, _mm256_set1_pd(-0.0)), half);
    let q = _mm256_mul_pd(_mm256_add_pd(num, h), inv_step);
    let q =
        _mm256_min_pd(_mm256_max_pd(q, _mm256_set1_pd(I32_MIN_F64)), _mm256_set1_pd(I32_MAX_F64));
    _mm256_cvttpd_epi32(q)
}

// ----------------------------------------------------------------------
// AVX2 kernels
// ----------------------------------------------------------------------

#[target_feature(enable = "avx2")]
unsafe fn to_fixed_f32_avx2_impl(words: &[u32; N], bias: i8, out: &mut [i32; N]) {
    let scale = _mm256_set1_ps((1u64 << FRAC_BITS) as f32);
    let exp_mask = _mm256_set1_epi32(0xFF);
    if bias == 0 {
        for (src, dst) in words.chunks_exact(8).zip(out.chunks_exact_mut(8)) {
            let v = _mm256_loadu_si256(src.as_ptr() as *const __m256i);
            let special =
                _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_srli_epi32(v, 23), exp_mask), exp_mask);
            let f = _mm256_castsi256_ps(_mm256_andnot_si256(special, v));
            let scaled = _mm256_mul_ps(f, scale);
            _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, cvt_sat_epi32_256(scaled));
        }
    } else {
        let delta = _mm256_set1_epi32(bias as i32);
        for (src, dst) in words.chunks_exact(8).zip(out.chunks_exact_mut(8)) {
            let v = _mm256_loadu_si256(src.as_ptr() as *const __m256i);
            let b = shift_exponent_epi32_256(v, delta);
            let scaled = _mm256_mul_ps(_mm256_castsi256_ps(b), scale);
            _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, cvt_sat_epi32_256(scaled));
        }
    }
}

#[target_feature(enable = "avx2")]
unsafe fn downsample_both_avx2_impl(
    fixed: &[i32; N],
    out_1d: &mut [i64; SUMMARY_VALUES],
    out_2d: &mut [i64; SUMMARY_VALUES],
) {
    let mut sums_2d = [0i64; SUMMARY_VALUES];
    for (r, row) in fixed.chunks_exact(GRID).enumerate() {
        let tile_base = (r / TILE) * (GRID / TILE);
        let mut s1 = 0i64;
        for (j, quad) in row.chunks_exact(TILE).enumerate() {
            let v = _mm_loadu_si128(quad.as_ptr() as *const __m128i);
            let wide = _mm256_cvtepi32_epi64(v);
            let pair =
                _mm_add_epi64(_mm256_castsi256_si128(wide), _mm256_extracti128_si256::<1>(wide));
            let q = _mm_cvtsi128_si64(pair) + _mm_cvtsi128_si64(_mm_unpackhi_epi64(pair, pair));
            sums_2d[tile_base + j] += q;
            s1 += q;
        }
        out_1d[r] = round_avg(s1);
    }
    for (o, &s) in out_2d.iter_mut().zip(&sums_2d) {
        *o = round_avg(s);
    }
}

#[target_feature(enable = "avx2")]
unsafe fn reconstruct_1d_avx2_impl(summary: &[i64; SUMMARY_VALUES], out: &mut [i32; N]) {
    let mut sf = [0f64; SUMMARY_VALUES];
    for (d, &s) in sf.iter_mut().zip(summary) {
        *d = s as f64; // exact: wrapper guarantees i32 range
    }
    out[..8].fill(summary[0] as i32);
    out[N - 8..].fill(summary[SUMMARY_VALUES - 1] as i32);
    let half = _mm256_set1_pd(16.0);
    let inv_step = _mm256_set1_pd(1.0 / 32.0);
    for seg in 0..SUMMARY_VALUES - 1 {
        let a = _mm256_set1_pd(sf[seg]);
        let b = _mm256_set1_pd(sf[seg + 1]);
        let dst = &mut out[8 + seg * 16..8 + seg * 16 + 16];
        for k in (0..16).step_by(4) {
            let wa = _mm256_loadu_pd(WA1D[k..].as_ptr());
            let wb = _mm256_loadu_pd(W1D[k..].as_ptr());
            let num = _mm256_add_pd(_mm256_mul_pd(a, wa), _mm256_mul_pd(b, wb));
            let q = lerp_tail_pd_256(num, half, inv_step);
            _mm_storeu_si128(dst[k..].as_mut_ptr() as *mut __m128i, q);
        }
    }
}

#[target_feature(enable = "avx2")]
#[inline]
unsafe fn profiles_2d_avx2(sf: &[f64; SUMMARY_VALUES]) -> [[f64; GRID]; GRID / TILE] {
    let half = _mm256_set1_pd(4.0);
    let inv_step = _mm256_set1_pd(1.0 / 8.0);
    let wa = _mm256_loadu_pd(WA2D.as_ptr());
    let wb = _mm256_loadu_pd(W2D.as_ptr());
    let mut prof = [[0f64; GRID]; GRID / TILE];
    for (a, row) in prof.iter_mut().enumerate() {
        let s = &sf[a * (GRID / TILE)..];
        row[0] = s[0];
        row[1] = s[0];
        row[GRID - 2] = s[3];
        row[GRID - 1] = s[3];
        for t in 0..GRID / TILE - 1 {
            let va = _mm256_set1_pd(s[t]);
            let vb = _mm256_set1_pd(s[t + 1]);
            let num = _mm256_add_pd(_mm256_mul_pd(va, wa), _mm256_mul_pd(vb, wb));
            let q = lerp_tail_pd_256(num, half, inv_step);
            // Back to exact f64 for the vertical pass.
            _mm256_storeu_pd(row[4 * t + 2..].as_mut_ptr(), _mm256_cvtepi32_pd(q));
        }
    }
    prof
}

#[target_feature(enable = "avx2")]
unsafe fn reconstruct_2d_avx2_impl(summary: &[i64; SUMMARY_VALUES], out: &mut [i32; N]) {
    let mut sf = [0f64; SUMMARY_VALUES];
    for (d, &s) in sf.iter_mut().zip(summary) {
        *d = s as f64; // exact: wrapper guarantees i32 range
    }
    let prof = profiles_2d_avx2(&sf);
    for (r, a) in [(0usize, 0usize), (1, 0), (GRID - 2, 3), (GRID - 1, 3)] {
        for (o, &p) in out[r * GRID..(r + 1) * GRID].iter_mut().zip(&prof[a]) {
            *o = p as i32;
        }
    }
    let half = _mm256_set1_pd(4.0);
    let inv_step = _mm256_set1_pd(1.0 / 8.0);
    for t in 0..GRID / TILE - 1 {
        let (top, bot) = (&prof[t], &prof[t + 1]);
        for k in 0..TILE {
            let r = TILE * t + 2 + k;
            let wb = _mm256_set1_pd(W2D[k]);
            let wa = _mm256_set1_pd(WA2D[k]);
            let dst = &mut out[r * GRID..(r + 1) * GRID];
            for c in (0..GRID).step_by(4) {
                let vt = _mm256_loadu_pd(top[c..].as_ptr());
                let vb = _mm256_loadu_pd(bot[c..].as_ptr());
                let num = _mm256_add_pd(_mm256_mul_pd(vt, wa), _mm256_mul_pd(vb, wb));
                let q = lerp_tail_pd_256(num, half, inv_step);
                _mm_storeu_si128(dst[c..].as_mut_ptr() as *mut __m128i, q);
            }
        }
    }
}

#[target_feature(enable = "avx2")]
unsafe fn check_chunk_f32_avx2_impl(
    ow: &[u32; CHUNK],
    rf: &[i32; CHUNK],
    rw: &mut [u32; CHUNK],
    neg_bias: i32,
    mantissa_limit: u32,
) -> ChunkVerdict {
    let scale = _mm256_set1_ps(F32_SCALE_F);
    let delta = _mm256_set1_epi32(neg_bias);
    let exp_mask = _mm256_set1_epi32(0xFF);
    let m23 = _mm256_set1_epi32(0x7F_FFFF);
    let abs_mask = _mm256_set1_epi32(0x7FFF_FFFF);
    let lim = _mm256_set1_epi32(mantissa_limit as i32 - 1);
    let ones = _mm256_set1_epi32(-1);
    let mut bitmap = 0u64;
    let mut cnt = _mm256_setzero_si256();
    let mut err = _mm256_setzero_si256();
    for i in (0..CHUNK).step_by(8) {
        let v = _mm256_loadu_si256(rf[i..].as_ptr() as *const __m256i);
        let f = _mm256_mul_ps(_mm256_cvtepi32_ps(v), scale);
        let w = shift_exponent_epi32_256(_mm256_castps_si256(f), delta);
        _mm256_storeu_si256(rw[i..].as_mut_ptr() as *mut __m256i, w);
        let o = _mm256_loadu_si256(ow[i..].as_ptr() as *const __m256i);
        let d = _mm256_sub_epi32(_mm256_and_si256(o, m23), _mm256_and_si256(w, m23));
        let diff = _mm256_abs_epi32(d);
        let se_match = _mm256_cmpeq_epi32(_mm256_srli_epi32(o, 23), _mm256_srli_epi32(w, 23));
        let both_zero = _mm256_cmpeq_epi32(
            _mm256_and_si256(_mm256_or_si256(o, w), abs_mask),
            _mm256_setzero_si256(),
        );
        let neq = _mm256_xor_si256(_mm256_cmpeq_epi32(o, w), ones);
        let special =
            _mm256_cmpeq_epi32(_mm256_and_si256(_mm256_srli_epi32(o, 23), exp_mask), exp_mask);
        let diff_over = _mm256_cmpgt_epi32(diff, lim);
        let cond = _mm256_or_si256(
            special,
            _mm256_or_si256(
                _mm256_andnot_si256(se_match, _mm256_xor_si256(both_zero, ones)),
                _mm256_and_si256(se_match, diff_over),
            ),
        );
        let outlier = _mm256_and_si256(neq, cond);
        bitmap |= (_mm256_movemask_ps(_mm256_castsi256_ps(outlier)) as u32 as u64) << i;
        cnt = _mm256_sub_epi32(cnt, outlier);
        err = _mm256_add_epi32(err, _mm256_andnot_si256(outlier, diff));
    }
    ChunkVerdict { bitmap, outliers: hsum_epi32_256(cnt), err_sum: hsum_epi32_256(err) as u64 }
}
