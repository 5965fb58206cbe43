//! Approximate reconstruction by interpolation (paper §3.3, Fig. 5).
//!
//! "For decompression, the average values are distributed evenly and
//! bi-linear interpolation is applied to reconstruct the approximate values
//! in-between." Each sub-block average is anchored at the sub-block's
//! *center*; values between anchors interpolate linearly (1-D layout) or
//! bilinearly (2-D layout), and values outside the outermost anchors clamp
//! to the nearest anchor (flat extrapolation).
//!
//! All arithmetic is integer fixed-point, exactly as the hardware pipeline
//! would compute it. Coordinates are scaled by 2 so the half-integer anchor
//! centers stay integral.

use crate::block::{Layout, SUMMARY_VALUES};
use crate::convert::Fixed;
use crate::downsample::{GRID, SUB_BLOCK, TILE};
use avr_types::VALUES_PER_BLOCK;

/// 1-D anchor of sub-block `i`, in x2 coordinates: 2*(16i + 7.5).
#[inline]
const fn anchor_1d(i: usize) -> i64 {
    (2 * SUB_BLOCK * i + SUB_BLOCK - 1) as i64
}

/// 2-D anchor of tile index `t` along one axis, in x2 coordinates:
/// 2*(4t + 1.5).
#[inline]
const fn anchor_2d(t: usize) -> i64 {
    (2 * TILE * t + TILE - 1) as i64
}

/// Locate `pos` (x2 coordinates) between anchors spaced `step` apart:
/// returns (left anchor index, weight toward the right anchor in [0, step)).
#[inline]
const fn locate(pos: i64, first_anchor: i64, step: i64, last_idx: usize) -> (usize, i64) {
    if pos <= first_anchor {
        return (0, 0);
    }
    let span = pos - first_anchor;
    let idx = (span / step) as usize;
    if idx >= last_idx {
        return (last_idx, 0);
    }
    (idx, span % step)
}

/// Linear interpolation with round-to-nearest.
#[inline]
const fn lerp(a: i64, b: i64, w: i64, step: i64) -> i64 {
    let num = a * (step - w) + b * w;
    // round-to-nearest for possibly-negative numerators
    if num >= 0 {
        (num + step / 2) / step
    } else {
        (num - step / 2) / step
    }
}

/// x2-coordinate anchor step between 1-D sub-block centers.
const STEP_1D: i64 = 2 * SUB_BLOCK as i64;
/// x2-coordinate anchor step between 2-D tile centers.
const STEP_2D: i64 = 2 * TILE as i64;

/// Per-position (left anchor index, interpolation weight) for the 1-D
/// layout, fixed by the block geometry and precomputed at compile time so
/// the reconstruction loop is pure arithmetic (no `locate` per value).
const LUT_1D: [(u8, u8); VALUES_PER_BLOCK] = {
    let mut t = [(0u8, 0u8); VALUES_PER_BLOCK];
    let mut x = 0;
    while x < VALUES_PER_BLOCK {
        let (i, w) = locate(2 * x as i64, anchor_1d(0), STEP_1D, SUMMARY_VALUES - 1);
        t[x] = (i as u8, w as u8);
        x += 1;
    }
    t
};

/// Per-row/column (tile index, weight) for the 2-D layout axes.
const LUT_2D: [(u8, u8); GRID] = {
    let mut t = [(0u8, 0u8); GRID];
    let mut r = 0;
    while r < GRID {
        let (i, w) = locate(2 * r as i64, anchor_2d(0), STEP_2D, GRID / TILE - 1);
        t[r] = (i as u8, w as u8);
        r += 1;
    }
    t
};

/// Horizontal interpolation profiles for the 2-D layout: `prof[a][c]` is
/// the column interpolation of anchor row `a` at column `c`. Every output
/// row reuses the profiles of its two neighbouring anchor rows, so the 2-D
/// reconstruction computes 4×16 horizontal lerps once instead of re-deriving
/// them per cell.
fn profiles_2d(summary: &[Fixed; SUMMARY_VALUES]) -> [[i64; GRID]; GRID / TILE] {
    let tiles = GRID / TILE;
    let mut prof = [[0i64; GRID]; GRID / TILE];
    for (a, row) in prof.iter_mut().enumerate() {
        for (c, p) in row.iter_mut().enumerate() {
            let (tc, wc) = LUT_2D[c];
            let (tc, wc) = (tc as usize, wc as i64);
            let s = &summary[a * tiles..];
            *p = if wc == 0 { s[tc] } else { lerp(s[tc], s[tc + 1], wc, STEP_2D) };
        }
    }
    prof
}

/// Reconstruct the full 256-value block from its 16-value summary, writing
/// into caller-provided storage (the hot path; no stack-array return).
pub fn reconstruct_into(
    layout: Layout,
    summary: &[Fixed; SUMMARY_VALUES],
    out: &mut [Fixed; VALUES_PER_BLOCK],
) {
    match layout {
        Layout::Linear1D => {
            for (x, o) in out.iter_mut().enumerate() {
                let (i, w) = LUT_1D[x];
                let (i, w) = (i as usize, w as i64);
                *o = if w == 0 { summary[i] } else { lerp(summary[i], summary[i + 1], w, STEP_1D) };
            }
        }
        Layout::Square2D => {
            let prof = profiles_2d(summary);
            for r in 0..GRID {
                let (tr, wr) = LUT_2D[r];
                let (tr, wr) = (tr as usize, wr as i64);
                let row = &mut out[r * GRID..(r + 1) * GRID];
                if wr == 0 {
                    row.copy_from_slice(&prof[tr]);
                } else {
                    let (top, bot) = (&prof[tr], &prof[tr + 1]);
                    for (c, o) in row.iter_mut().enumerate() {
                        *o = lerp(top[c], bot[c], wr, STEP_2D);
                    }
                }
            }
        }
    }
}

/// [`reconstruct_into`] fused with the value clamp of the fixed→float
/// write-out: every reconstructed value lands in i32 range (`from_fixed`
/// clamps anyway), so narrowing at store costs nothing and hands the
/// codec's conversion loops packed 32-bit lanes.
///
/// This is the **scalar arm** of the codec's reconstruction dispatch
/// (handling the full i64 summary domain); the codec reaches it — or its
/// AVX2 twins, which require i32-range summaries — through the kernel
/// table ([`crate::simd::kernels`]). Both arms are bit-identical.
pub(crate) fn reconstruct_into_clamped_scalar(
    layout: Layout,
    summary: &[Fixed; SUMMARY_VALUES],
    out: &mut [i32; VALUES_PER_BLOCK],
) {
    const LO: i64 = i32::MIN as i64;
    const HI: i64 = i32::MAX as i64;
    match layout {
        Layout::Linear1D => {
            // Segment-structured: positions 8+16i..8+16(i+1) interpolate
            // between anchors i and i+1 with the constant weight pattern
            // 1,3,…,31 (see LUT_1D); the first/last 8 positions clamp flat.
            let first = summary[0].clamp(LO, HI) as i32;
            let last = summary[SUMMARY_VALUES - 1].clamp(LO, HI) as i32;
            out[..SUB_BLOCK / 2].fill(first);
            out[VALUES_PER_BLOCK - SUB_BLOCK / 2..].fill(last);
            let segments =
                out[SUB_BLOCK / 2..VALUES_PER_BLOCK - SUB_BLOCK / 2].chunks_exact_mut(SUB_BLOCK);
            for (i, seg) in segments.enumerate() {
                let (a, b) = (summary[i], summary[i + 1]);
                for (k, o) in seg.iter_mut().enumerate() {
                    let w = 2 * k as i64 + 1;
                    *o = lerp(a, b, w, STEP_1D).clamp(LO, HI) as i32;
                }
            }
        }
        Layout::Square2D => {
            let prof = profiles_2d(summary);
            for r in 0..GRID {
                let (tr, wr) = LUT_2D[r];
                let (tr, wr) = (tr as usize, wr as i64);
                let row = &mut out[r * GRID..(r + 1) * GRID];
                if wr == 0 {
                    for (o, &p) in row.iter_mut().zip(&prof[tr]) {
                        *o = p.clamp(LO, HI) as i32;
                    }
                } else {
                    let (top, bot) = (&prof[tr], &prof[tr + 1]);
                    for (c, o) in row.iter_mut().enumerate() {
                        *o = lerp(top[c], bot[c], wr, STEP_2D).clamp(LO, HI) as i32;
                    }
                }
            }
        }
    }
}

/// Reconstruct the full 256-value block from its 16-value summary.
pub fn reconstruct_summary(
    layout: Layout,
    summary: &[Fixed; SUMMARY_VALUES],
) -> [Fixed; VALUES_PER_BLOCK] {
    let mut out = [0i64; VALUES_PER_BLOCK];
    reconstruct_into(layout, summary, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::downsample::downsample;

    #[test]
    fn constant_summary_reconstructs_constant() {
        let summary = [999i64; SUMMARY_VALUES];
        for layout in [Layout::Linear1D, Layout::Square2D] {
            let r = reconstruct_summary(layout, &summary);
            assert!(r.iter().all(|&v| v == 999));
        }
    }

    #[test]
    fn linear_ramp_reconstructs_nearly_exactly() {
        // A perfectly linear signal is reproduced exactly by linear
        // interpolation between sub-block means (up to edge clamping).
        let mut fixed = [0i64; VALUES_PER_BLOCK];
        for (i, v) in fixed.iter_mut().enumerate() {
            *v = 1000 + (i as i64) * 64;
        }
        let s = downsample(Layout::Linear1D, &fixed);
        let r = reconstruct_summary(Layout::Linear1D, &s);
        for (i, (&orig, &rec)) in fixed.iter().zip(&r).enumerate() {
            // Interior: exact (the mean sits at the segment midpoint).
            // Edges (first/last 8 values): clamped flat, bounded error.
            if (8..VALUES_PER_BLOCK - 8).contains(&i) {
                assert!((orig - rec).abs() <= 32, "i={i} {orig} vs {rec}");
            } else {
                assert!((orig - rec).abs() <= 64 * 8, "edge i={i} {orig} vs {rec}");
            }
        }
    }

    #[test]
    fn planar_2d_field_reconstructs_interior_exactly() {
        // f(r,c) = a*r + b*c + k is affine; bilinear interpolation between
        // tile means reproduces it exactly away from the clamped border.
        let (a, b, k) = (48i64, -32i64, 5_000i64);
        let mut fixed = [0i64; VALUES_PER_BLOCK];
        for r in 0..GRID {
            for c in 0..GRID {
                fixed[r * GRID + c] = a * r as i64 + b * c as i64 + k;
            }
        }
        let s = downsample(Layout::Square2D, &fixed);
        let rec = reconstruct_summary(Layout::Square2D, &s);
        for r in 2..GRID - 2 {
            for c in 2..GRID - 2 {
                let i = r * GRID + c;
                assert!((fixed[i] - rec[i]).abs() <= 8, "({r},{c}): {} vs {}", fixed[i], rec[i]);
            }
        }
    }

    #[test]
    fn edges_clamp_to_nearest_anchor() {
        let mut summary = [0i64; SUMMARY_VALUES];
        summary[0] = 500;
        summary[SUMMARY_VALUES - 1] = -500;
        let r = reconstruct_summary(Layout::Linear1D, &summary);
        // Positions 0..=7 sit at/before the first anchor.
        for &v in &r[0..8] {
            assert_eq!(v, 500);
        }
        // Positions 248..=255 sit at/after the last anchor.
        for &v in &r[248..256] {
            assert_eq!(v, -500);
        }
    }

    #[test]
    fn interpolation_stays_within_summary_bounds() {
        // Convexity: every reconstructed value lies within [min, max] of the
        // summary for both layouts.
        let mut summary = [0i64; SUMMARY_VALUES];
        for (i, s) in summary.iter_mut().enumerate() {
            *s = ((i as i64 * 7919) % 1000) - 500;
        }
        let (lo, hi) = (*summary.iter().min().unwrap(), *summary.iter().max().unwrap());
        for layout in [Layout::Linear1D, Layout::Square2D] {
            for v in reconstruct_summary(layout, &summary) {
                assert!(v >= lo - 1 && v <= hi + 1, "{v} outside [{lo},{hi}]");
            }
        }
    }
}
