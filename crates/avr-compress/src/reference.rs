//! The straightforward, pre-refactor compression pipeline, retained
//! verbatim as the **oracle** for the fused hot path in [`crate::codec`]:
//!
//! * property tests assert [`compress_reference`] and
//!   [`crate::compress`] are bit-identical on success (compressed block
//!   and reconstruction) and agree on the failure mode;
//! * `avr-bench`'s `bench_codec` binary measures the fused path's speedup
//!   against this implementation, tracked in the repo's `BENCH_*.json`
//!   trajectory files.
//!
//! Everything here mirrors the original per-stage structure: each layout
//! variant is evaluated end-to-end (its own downsample pass with per-value
//! index arithmetic, its own `locate`-per-value reconstruction, 256 scalar
//! `from_fixed`/`check_value` calls), and bitmap/outlier compaction
//! allocates. The one intentional difference from the seed: the size cap is
//! checked *before* the average-error gate, matching the fused path's
//! early-abort semantics (the reported failure kind changes for blocks
//! failing both; the simulator only branches on `Err(_)`).

use crate::bias::choose_bias;
use crate::block::{CompressedBlock, Layout, Method, SUMMARY_VALUES};
use crate::codec::{CompressFailure, CompressOutcome};
use crate::convert::{from_fixed, to_fixed, Fixed};
use crate::downsample::{downsample, GRID, SUB_BLOCK, TILE};
use crate::error::{check_value, ErrorCheck, Thresholds};
use crate::outlier::{build_bitmap, compact_outliers, scatter_outliers, OutlierVec};
use avr_types::{BlockData, DataType, VALUES_PER_BLOCK};

/// 1-D anchor of sub-block `i`, in x2 coordinates: 2*(16i + 7.5).
#[inline]
fn anchor_1d(i: usize) -> i64 {
    (2 * SUB_BLOCK * i + SUB_BLOCK - 1) as i64
}

/// 2-D anchor of tile index `t` along one axis, in x2 coordinates:
/// 2*(4t + 1.5).
#[inline]
fn anchor_2d(t: usize) -> i64 {
    (2 * TILE * t + TILE - 1) as i64
}

/// Locate `pos` (x2 coordinates) between anchors spaced `step` apart.
#[inline]
fn locate(pos: i64, first_anchor: i64, step: i64, last_idx: usize) -> (usize, i64) {
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
fn lerp(a: i64, b: i64, w: i64, step: i64) -> i64 {
    let num = a * (step - w) + b * w;
    if num >= 0 {
        (num + step / 2) / step
    } else {
        (num - step / 2) / step
    }
}

/// The original per-value `locate`/`lerp` reconstruction.
pub fn reconstruct_summary_reference(
    layout: Layout,
    summary: &[Fixed; SUMMARY_VALUES],
) -> [Fixed; VALUES_PER_BLOCK] {
    let mut out = [0i64; VALUES_PER_BLOCK];
    match layout {
        Layout::Linear1D => {
            let step = 2 * SUB_BLOCK as i64;
            for (x, o) in out.iter_mut().enumerate() {
                let (i, w) = locate(2 * x as i64, anchor_1d(0), step, SUMMARY_VALUES - 1);
                *o = if w == 0 { summary[i] } else { lerp(summary[i], summary[i + 1], w, step) };
            }
        }
        Layout::Square2D => {
            let tiles = GRID / TILE;
            let step = 2 * TILE as i64;
            for r in 0..GRID {
                let (tr, wr) = locate(2 * r as i64, anchor_2d(0), step, tiles - 1);
                for c in 0..GRID {
                    let (tc, wc) = locate(2 * c as i64, anchor_2d(0), step, tiles - 1);
                    let s = |a: usize, b: usize| summary[a * tiles + b];
                    let top =
                        if wc == 0 { s(tr, tc) } else { lerp(s(tr, tc), s(tr, tc + 1), wc, step) };
                    let v = if wr == 0 {
                        top
                    } else {
                        let bot = if wc == 0 {
                            s(tr + 1, tc)
                        } else {
                            lerp(s(tr + 1, tc), s(tr + 1, tc + 1), wc, step)
                        };
                        lerp(top, bot, wr, step)
                    };
                    out[r * GRID + c] = v;
                }
            }
        }
    }
    out
}

struct Variant {
    layout: Layout,
    summary: [Fixed; SUMMARY_VALUES],
    recon_words: [u32; VALUES_PER_BLOCK],
    flags: [bool; VALUES_PER_BLOCK],
    check: ErrorCheck,
}

fn try_variant(
    layout: Layout,
    words: &[u32; VALUES_PER_BLOCK],
    fixed: &[Fixed; VALUES_PER_BLOCK],
    dt: DataType,
    bias: i8,
    th: &Thresholds,
) -> Variant {
    let summary = downsample(layout, fixed);
    let recon_fixed = reconstruct_summary_reference(layout, &summary);
    let mut recon_words = [0u32; VALUES_PER_BLOCK];
    let mut flags = [false; VALUES_PER_BLOCK];
    let mut check = ErrorCheck::default();
    for i in 0..VALUES_PER_BLOCK {
        recon_words[i] = from_fixed(recon_fixed[i], dt, bias);
        let v = check_value(words[i], recon_words[i], dt, th);
        flags[i] = v.outlier;
        check.push(v);
    }
    Variant { layout, summary, recon_words, flags, check }
}

/// The pre-refactor `compress`: both layout variants evaluated end-to-end,
/// then the better one kept.
pub fn compress_reference(
    block: &BlockData,
    dt: DataType,
    th: &Thresholds,
    max_lines: usize,
) -> Result<CompressOutcome, CompressFailure> {
    let bias = match dt {
        DataType::F32 => choose_bias(&block.words).value(),
        DataType::Fixed32 => 0,
    };
    let mut fixed = [0i64; VALUES_PER_BLOCK];
    for (f, &w) in fixed.iter_mut().zip(&block.words) {
        *f = to_fixed(w, dt, bias);
    }

    let v1 = try_variant(Layout::Linear1D, &block.words, &fixed, dt, bias, th);
    let v2 = try_variant(Layout::Square2D, &block.words, &fixed, dt, bias, th);
    let best = {
        let (o1, o2) = (v1.check.outliers(), v2.check.outliers());
        if o1 < o2 || (o1 == o2 && v1.check.avg_err() <= v2.check.avg_err()) {
            v1
        } else {
            v2
        }
    };

    // Size cap first (the inline outlier buffer is sized to the format's
    // 16-line bound, so an over-cap block must bail before compaction).
    let lines = crate::codec::lines_for_outliers(best.check.outliers() as usize);
    if lines > max_lines {
        return Err(CompressFailure::TooManyOutliers { lines_needed: lines });
    }

    let bitmap = build_bitmap(&best.flags);
    let outliers = compact_outliers(&block.words, &bitmap);
    let mut summary = [0i32; SUMMARY_VALUES];
    for (s, &v) in summary.iter_mut().zip(&best.summary) {
        *s = v.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
    }
    let compressed = CompressedBlock {
        method: Method { layout: best.layout, dtype: dt },
        bias,
        summary,
        bitmap,
        outliers: OutlierVec::from_slice(&outliers),
    };
    debug_assert_eq!(compressed.size_lines(), lines);
    if !best.check.passes(th) {
        return Err(CompressFailure::AvgErrorTooHigh { avg_err: best.check.avg_err() });
    }

    let mut recon = BlockData { words: best.recon_words };
    scatter_outliers(&mut recon.words, &compressed.bitmap, &compressed.outliers);
    Ok(CompressOutcome {
        avg_err: best.check.avg_err(),
        outlier_count: compressed.outlier_count(),
        compressed,
        reconstructed: recon,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::reconstruct_summary;

    #[test]
    fn lut_reconstruction_matches_locate_based_reference() {
        let mut state = 0xD1CEu64;
        for _ in 0..100 {
            let mut summary = [0i64; SUMMARY_VALUES];
            for s in summary.iter_mut() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                *s = ((state >> 30) as i64 & 0xFFFF_FFFF) - (1 << 31);
            }
            for layout in [Layout::Linear1D, Layout::Square2D] {
                assert_eq!(
                    reconstruct_summary(layout, &summary),
                    reconstruct_summary_reference(layout, &summary),
                    "{layout:?}"
                );
            }
        }
    }
}
