//! The full compression/decompression pipeline (paper Fig. 4).
//!
//! Compression: bias → float-to-fixed → downsample (both layout variants in
//! parallel) → re-decompress → error check → outlier select/compact → pick
//! the best variant → CBUF. Decompression: interpolate → fixed-to-float →
//! unbias → scatter outliers → DBUF.
//!
//! ### The fused hot path
//!
//! This module implements the pipeline as a *fused, allocation-free* kernel
//! (the pre-refactor per-stage version survives as
//! [`crate::reference::compress_reference`] and is kept bit-identical by
//! property tests):
//!
//! * the float→fixed conversion runs once and is shared by both variants;
//! * both layouts' summaries are computed in a single pass
//!   ([`crate::downsample`]);
//! * reconstruction uses compile-time (anchor, weight) tables
//!   ([`reconstruct_into`]);
//! * the fixed→float conversion and the error check are fused into flat
//!   branch-free chunked loops over the 256 values that the autovectorizer
//!   can digest, interleaving both variants;
//! * a variant **early-aborts** as soon as its outlier count exceeds what
//!   `max_lines` can hold — incompressible (noise) blocks bail out without
//!   paying for the full evaluation;
//! * all scratch storage lives in a reusable [`CompressScratch`] (owned by
//!   [`Compressor`]) and outliers pack into the inline
//!   [`OutlierVec`]: the steady-state path
//!   performs **zero heap allocations**;
//! * the four hot loops (conversion, dual downsample, reconstruction,
//!   chunked error check) run on the kernel arm the scratch was built
//!   with ([`crate::simd`]): AVX2 where the CPU has it, the scalar loops
//!   everywhere else — both arms bit-identical.
//!
//! Failure-order semantics: the size cap is checked before the average
//! error (the cap is what the early abort can decide without finishing the
//! block). A block failing both reports `TooManyOutliers`.

use crate::bias::choose_bias;
use crate::block::{CompressedBlock, Layout, Method, SUMMARY_VALUES};
use crate::convert::{unbias, Fixed, FRAC_BITS};
use crate::error::Thresholds;
use crate::interp::reconstruct_into;
use crate::latency::Latency;
use crate::outlier::{compact_outliers_into, scatter_outliers, OutlierVec, BITMAP_WORDS};
use crate::simd;
use avr_types::{BlockData, DataType, CL_BYTES, VALUES_PER_BLOCK};

/// Why a compression attempt was rejected.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CompressFailure {
    /// Summary + bitmap + outliers would exceed the compressed-size cap.
    /// When the fused path aborts a block early, `lines_needed` is computed
    /// from the outlier count at the abort point: a lower bound on the true
    /// size, always greater than `max_lines`.
    TooManyOutliers { lines_needed: usize },
    /// The average relative error of non-outliers exceeds T2.
    AvgErrorTooHigh { avg_err: f64 },
}

/// A successful compression: the compressed block plus the value-feedback
/// view (what any subsequent reader of the block will observe).
#[derive(Clone, Debug)]
pub struct CompressOutcome {
    pub compressed: CompressedBlock,
    /// `decompress(compressed)` — approximate values with exact outliers.
    pub reconstructed: BlockData,
    pub avg_err: f64,
    pub outlier_count: usize,
}

// ----------------------------------------------------------------------
// Scratch storage
// ----------------------------------------------------------------------

/// Per-variant scratch arrays. Reconstruction is stored clamped to i32
/// (what the fixed→float write-out sees anyway) so the conversion loops
/// work on packed 32-bit lanes.
#[derive(Clone)]
struct VariantScratch {
    summary: [Fixed; SUMMARY_VALUES],
    recon_fixed: [i32; VALUES_PER_BLOCK],
    recon_words: [u32; VALUES_PER_BLOCK],
    bitmap: [u64; BITMAP_WORDS],
}

impl VariantScratch {
    const fn new() -> Self {
        VariantScratch {
            summary: [0; SUMMARY_VALUES],
            recon_fixed: [0; VALUES_PER_BLOCK],
            recon_words: [0; VALUES_PER_BLOCK],
            bitmap: [0; BITMAP_WORDS],
        }
    }
}

/// Reusable scratch buffers for the fused compression kernel (~9 KB),
/// and the SIMD kernel table every compression through them runs on.
/// [`Compressor`] owns one; the free [`compress`] function keeps one on the
/// stack. Either way the kernel itself never touches the heap.
#[derive(Clone)]
pub struct CompressScratch {
    kernels: &'static simd::CodecKernels,
    fixed: [i32; VALUES_PER_BLOCK],
    vars: [VariantScratch; 2],
}

impl CompressScratch {
    /// Scratch on the process's dispatch arm ([`simd::kernels`]).
    pub fn new() -> Self {
        Self::with_kernels(simd::kernels())
    }

    /// Scratch on one arm's table, such as [`simd::kernels_for`]`(arm)`.
    /// Both arms are bit-identical.
    pub const fn with_kernels(kernels: &'static simd::CodecKernels) -> Self {
        CompressScratch {
            kernels,
            fixed: [0; VALUES_PER_BLOCK],
            vars: [VariantScratch::new(), VariantScratch::new()],
        }
    }
}

impl Default for CompressScratch {
    fn default() -> Self {
        CompressScratch::new()
    }
}

impl std::fmt::Debug for CompressScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CompressScratch { .. }")
    }
}

// ----------------------------------------------------------------------
// Fused kernel helpers
// ----------------------------------------------------------------------

const FIXED_MIN: i64 = i32::MIN as i64;
const FIXED_MAX: i64 = i32::MAX as i64;

/// Multiplying by 2^-23 is bit-identical to dividing by 2^23 (both are
/// exact power-of-two exponent shifts in IEEE-754 double precision).
const F32_SCALE: f64 = 1.0 / (1u64 << FRAC_BITS) as f64;

/// Maximum outlier count representable within `max_lines` cachelines:
/// 64 B summary + 32 B bitmap + 4n B ≤ 64·max_lines B. A count beyond this
/// can never fit, so a variant crossing it aborts.
#[inline]
fn outlier_cap(max_lines: usize) -> usize {
    (max_lines * CL_BYTES).saturating_sub(CL_BYTES + BITMAP_WORDS * 8) / 4
}

/// Compressed size in cachelines for a given outlier count (mirrors
/// [`CompressedBlock::size_lines`]).
#[inline]
pub(crate) fn lines_for_outliers(n: usize) -> usize {
    let bytes = if n == 0 { CL_BYTES } else { CL_BYTES + BITMAP_WORDS * 8 + 4 * n };
    bytes.div_ceil(CL_BYTES)
}

/// Running totals of one variant's error check.
#[derive(Clone, Copy, Default)]
struct VariantCheck {
    outliers: u32,
    /// Integer sum of mantissa differences (F32 path). Each non-outlier's
    /// relative error is diff·2^-23 with diff < 2^23; the f64 running sum
    /// the hardware-model accumulates is therefore *exact*, and equals
    /// `err_int as f64 * 2^-23` — keeping this integral keeps the fused
    /// loop free of float ops while staying bit-identical.
    err_int: u64,
    /// Sequential f64 error sum (Fixed32 path, where per-value division
    /// makes the running sum order-sensitive).
    err_f: f64,
    aborted: bool,
}

impl VariantCheck {
    /// Average relative error over non-outliers, replicating
    /// `ErrorCheck::avg_err` bit-for-bit.
    fn avg_err(&self, dt: DataType) -> f64 {
        let non = VALUES_PER_BLOCK as u32 - self.outliers;
        if non == 0 {
            return 0.0;
        }
        let sum = match dt {
            DataType::F32 => self.err_int as f64 * F32_SCALE,
            DataType::Fixed32 => self.err_f,
        };
        sum / non as f64
    }
}

/// Fused fixed→float + unbias + error-check over one 64-value chunk of one
/// variant (F32) — on the scratch's SIMD arm (the scalar arm is
/// [`crate::simd::scalar::check_chunk_f32`]; all arms are bit-identical).
#[inline]
fn check_chunk_f32(
    kern: &simd::CodecKernels,
    words: &[u32; VALUES_PER_BLOCK],
    var: &mut VariantScratch,
    chunk: usize,
    neg_bias: i32,
    mantissa_limit: u32,
    check: &mut VariantCheck,
) {
    let base = chunk * simd::CHUNK;
    let rf: &[i32; simd::CHUNK] = var.recon_fixed[base..base + simd::CHUNK].try_into().unwrap();
    let rw: &mut [u32; simd::CHUNK] =
        (&mut var.recon_words[base..base + simd::CHUNK]).try_into().unwrap();
    let ow: &[u32; simd::CHUNK] = words[base..base + simd::CHUNK].try_into().unwrap();
    let verdict = (kern.check_chunk_f32)(ow, rf, rw, neg_bias, mantissa_limit);
    var.bitmap[chunk] = verdict.bitmap;
    check.outliers += verdict.outliers;
    check.err_int += verdict.err_sum;
}

/// Fused fixed→float + error-check over one 64-value chunk (Fixed32).
/// The relative-error sum divides per value, so accumulation stays scalar
/// and in index order to remain bit-identical to the streaming reference.
#[inline]
fn check_chunk_fixed(
    words: &[u32; VALUES_PER_BLOCK],
    var: &mut VariantScratch,
    chunk: usize,
    n_msbit: u32,
    check: &mut VariantCheck,
) {
    let base = chunk * 64;
    let mut bits_out = 0u64;
    for j in 0..64 {
        let i = base + j;
        let recon = var.recon_fixed[i] as u32;
        var.recon_words[i] = recon;
        let orig = words[i] as i32;
        let rec = recon as i32;
        let outlier = if orig == rec {
            false
        } else if orig == 0 {
            true
        } else {
            let diff = (orig as i64 - rec as i64).unsigned_abs();
            let mag = (orig as i64).unsigned_abs();
            if diff << n_msbit > mag {
                true
            } else {
                check.err_f += diff as f64 / mag as f64;
                false
            }
        };
        bits_out |= (outlier as u64) << j;
        check.outliers += outlier as u32;
    }
    var.bitmap[chunk] = bits_out;
}

// ----------------------------------------------------------------------
// The fused compress
// ----------------------------------------------------------------------

/// Compress one memory block into caller-provided scratch, trying both
/// layout variants and keeping the better one (fewer outliers, then lower
/// average error — smaller compressed size wins, matching the hardware's
/// "best compression" selection).
pub fn compress_with(
    scratch: &mut CompressScratch,
    block: &BlockData,
    dt: DataType,
    th: &Thresholds,
    max_lines: usize,
) -> Result<CompressOutcome, CompressFailure> {
    // The format cannot express more than a whole block of lines, and the
    // inline outlier buffer is sized to that bound.
    assert!(max_lines <= avr_types::LINES_PER_BLOCK, "max_lines {max_lines} > 16");
    // Every hot loop below runs on the scratch's arm.
    let kern = scratch.kernels;
    let bias = match dt {
        DataType::F32 => choose_bias(&block.words).value(),
        DataType::Fixed32 => 0,
    };
    match dt {
        DataType::F32 => (kern.to_fixed_f32)(&block.words, bias, &mut scratch.fixed),
        DataType::Fixed32 => {
            // Native fixed data converts by reinterpretation.
            for (f, &w) in scratch.fixed.iter_mut().zip(&block.words) {
                *f = w as i32;
            }
        }
    }

    // Both summaries in one sweep, then both reconstructions — straight
    // through the fetched kernel table (not the public wrappers), so one
    // compress never re-dispatches or mixes arms. The wide reconstruction
    // arms' i32-range precondition holds by construction here: every
    // summary value is a sub-block average of i32 fixed values.
    let (v0, v1) = {
        let [a, b] = &mut scratch.vars;
        (a, b)
    };
    (kern.downsample_both)(&scratch.fixed, &mut v0.summary, &mut v1.summary);
    (kern.reconstruct_1d)(&v0.summary, &mut v0.recon_fixed);
    (kern.reconstruct_2d)(&v1.summary, &mut v1.recon_fixed);

    // Interleaved error checks with early abort at the outlier cap.
    let cap = outlier_cap(max_lines) as u32;
    let neg_bias = bias.wrapping_neg() as i32;
    let mut checks = [VariantCheck::default(), VariantCheck::default()];
    for chunk in 0..BITMAP_WORDS {
        for (vi, var) in [&mut *v0, &mut *v1].into_iter().enumerate() {
            let c = &mut checks[vi];
            if c.aborted {
                continue;
            }
            match dt {
                DataType::F32 => check_chunk_f32(
                    kern,
                    &block.words,
                    var,
                    chunk,
                    neg_bias,
                    th.mantissa_limit(),
                    c,
                ),
                DataType::Fixed32 => check_chunk_fixed(&block.words, var, chunk, th.n_msbit, c),
            }
            if c.outliers > cap {
                c.aborted = true;
            }
        }
        if checks[0].aborted && checks[1].aborted {
            // Neither variant can fit max_lines; the counts at the abort
            // point lower-bound the true sizes.
            let n = checks[0].outliers.min(checks[1].outliers) as usize;
            return Err(CompressFailure::TooManyOutliers { lines_needed: lines_for_outliers(n) });
        }
    }

    // Winner selection, identical ordering to the reference: fewer
    // outliers, then lower average error, ties to the 1-D layout. An
    // aborted variant has strictly more outliers than a surviving one.
    let pick0 = match (checks[0].aborted, checks[1].aborted) {
        (false, true) => true,
        (true, false) => false,
        _ => {
            let (o0, o1) = (checks[0].outliers, checks[1].outliers);
            o0 < o1 || (o0 == o1 && checks[0].avg_err(dt) <= checks[1].avg_err(dt))
        }
    };
    let (win, layout) = if pick0 { (&*v0, Layout::Linear1D) } else { (&*v1, Layout::Square2D) };
    let check = &checks[if pick0 { 0 } else { 1 }];
    let avg_err = check.avg_err(dt);

    let mut summary = [0i32; SUMMARY_VALUES];
    for (s, &v) in summary.iter_mut().zip(&win.summary) {
        *s = v.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
    }
    let mut outliers = OutlierVec::new();
    compact_outliers_into(&block.words, &win.bitmap, &mut outliers);
    let compressed = CompressedBlock {
        method: Method { layout, dtype: dt },
        bias,
        summary,
        bitmap: win.bitmap,
        outliers,
    };
    let lines = compressed.size_lines();
    if lines > max_lines {
        return Err(CompressFailure::TooManyOutliers { lines_needed: lines });
    }
    if avg_err > th.t2 {
        return Err(CompressFailure::AvgErrorTooHigh { avg_err });
    }

    // Value feedback: non-outliers become their reconstruction, outliers
    // stay exact.
    let mut recon = BlockData { words: win.recon_words };
    scatter_outliers(&mut recon.words, &compressed.bitmap, &compressed.outliers);
    Ok(CompressOutcome {
        avg_err,
        outlier_count: compressed.outliers.len(),
        compressed,
        reconstructed: recon,
    })
}

/// Compress one memory block with stack-local scratch (no heap use; for
/// the steady-state hot path prefer a [`Compressor`], which reuses its
/// scratch across calls).
pub fn compress(
    block: &BlockData,
    dt: DataType,
    th: &Thresholds,
    max_lines: usize,
) -> Result<CompressOutcome, CompressFailure> {
    let mut scratch = CompressScratch::new();
    compress_with(&mut scratch, block, dt, th, max_lines)
}

/// Decompress a compressed block back into 256 raw words.
pub fn decompress(cb: &CompressedBlock) -> BlockData {
    let mut summary = [0i64; SUMMARY_VALUES];
    for (s, &v) in summary.iter_mut().zip(&cb.summary) {
        *s = v as i64;
    }
    let mut recon_fixed = [0i64; VALUES_PER_BLOCK];
    reconstruct_into(cb.method.layout, &summary, &mut recon_fixed);
    let mut words = [0u32; VALUES_PER_BLOCK];
    match cb.method.dtype {
        DataType::F32 => {
            let neg_bias = cb.bias.wrapping_neg() as i32;
            for (w, &v) in words.iter_mut().zip(&recon_fixed) {
                let f = (v.clamp(FIXED_MIN, FIXED_MAX) as f64) * F32_SCALE;
                *w = unbias((f as f32).to_bits(), neg_bias);
            }
        }
        DataType::Fixed32 => {
            for (w, &v) in words.iter_mut().zip(&recon_fixed) {
                *w = (v.clamp(FIXED_MIN, FIXED_MAX) as i32) as u32;
            }
        }
    }
    scatter_outliers(&mut words, &cb.bitmap, &cb.outliers);
    BlockData { words }
}

/// Convenience: the value-feedback transform `decompress ∘ compress`, or
/// `None` if the block does not compress.
pub fn reconstruct(
    block: &BlockData,
    dt: DataType,
    th: &Thresholds,
    max_lines: usize,
) -> Option<BlockData> {
    compress(block, dt, th, max_lines).ok().map(|o| o.reconstructed)
}

/// Distinct inputs a [`Compressor`] remembers with their results.
///
/// The simulator's backing store holds each block's latest values, so the
/// skip-history retries of an uncompressed block (paper §3.5) and
/// back-to-back on-chip recompressions often hand the codec the input it
/// saw a few calls ago. Replaying `avr-bench`'s calls through an LRU memo
/// hits 36.7 % of them with 1 entry, 49.8 % with 4, 57.3 % with 8 and
/// 58.1 % with 16 (61.6 % unbounded); see PERFORMANCE.md.
pub const MEMO_ENTRIES: usize = 8;

/// One remembered codec call: its whole input and its result.
#[derive(Clone)]
struct MemoEntry {
    block: BlockData,
    dt: DataType,
    thresholds: Thresholds,
    max_lines: usize,
    result: Result<CompressOutcome, CompressFailure>,
    /// The memo clock at the entry's last use (a larger stamp is newer).
    stamp: u64,
}

/// The last [`MEMO_ENTRIES`] distinct inputs of [`Compressor::compress`],
/// least recently used replaced first. Keyed on the block's content, not
/// its address: the codec is a pure function of (block, datatype,
/// thresholds, size cap), so a hit returns exactly what a fresh call
/// would, and a block whose values changed (a store, a device fault) just
/// misses.
struct CodecMemo {
    /// Capacity [`MEMO_ENTRIES`], reserved up front: filling it never
    /// allocates.
    entries: Vec<MemoEntry>,
    clock: u64,
    /// Calls answered from the memo.
    hits: u64,
}

impl Clone for CodecMemo {
    /// Keeps the full capacity (a derived clone would shrink it to the
    /// filled length, and the copy would allocate when it fills up).
    fn clone(&self) -> Self {
        let mut entries = Vec::with_capacity(MEMO_ENTRIES);
        entries.extend_from_slice(&self.entries);
        CodecMemo { entries, clock: self.clock, hits: self.hits }
    }
}

impl std::fmt::Debug for CodecMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "CodecMemo {{ {} of {MEMO_ENTRIES} entries, {} hits }}",
            self.entries.len(),
            self.hits
        )
    }
}

impl CodecMemo {
    fn new() -> Self {
        CodecMemo { entries: Vec::with_capacity(MEMO_ENTRIES), clock: 0, hits: 0 }
    }

    /// Index of the entry holding exactly this input, refreshed as most
    /// recently used.
    fn find(
        &mut self,
        block: &BlockData,
        dt: DataType,
        th: &Thresholds,
        max_lines: usize,
    ) -> Option<usize> {
        self.clock += 1;
        // The first word tells distinct blocks apart before the full
        // 1 KB compare.
        let i = self.entries.iter().position(|e| {
            e.block.words[0] == block.words[0]
                && e.dt == dt
                && e.max_lines == max_lines
                && e.thresholds == *th
                && e.block == *block
        })?;
        self.entries[i].stamp = self.clock;
        self.hits += 1;
        Some(i)
    }

    /// The entry for an input [`Self::find`] just missed: a new one while
    /// the memo fills, else the least recently used. Its key is set; its
    /// result is the caller's to write.
    fn claim(
        &mut self,
        block: &BlockData,
        dt: DataType,
        th: &Thresholds,
        max_lines: usize,
    ) -> &mut MemoEntry {
        let i = if self.entries.len() < MEMO_ENTRIES {
            self.entries.push(MemoEntry {
                block: block.clone(),
                dt,
                thresholds: *th,
                max_lines,
                result: Err(CompressFailure::TooManyOutliers { lines_needed: 0 }),
                stamp: self.clock,
            });
            self.entries.len() - 1
        } else {
            let lru = (0..MEMO_ENTRIES)
                .min_by_key(|&i| self.entries[i].stamp)
                .expect("a full memo has entries");
            let e = &mut self.entries[lru];
            e.block.words = block.words;
            e.dt = dt;
            e.thresholds = *th;
            e.max_lines = max_lines;
            e.stamp = self.clock;
            lru
        };
        &mut self.entries[i]
    }
}

/// A reusable compressor front-end bundling thresholds, the latency model,
/// reusable scratch buffers, a memo of recent results and attempt
/// statistics — the "AVR layer" module of Fig. 1. Its scratch fixes the
/// SIMD arm at construction: the process's dispatch arm.
#[derive(Clone, Debug)]
pub struct Compressor {
    pub thresholds: Thresholds,
    pub latency: Latency,
    pub max_lines: usize,
    pub attempts: u64,
    pub failures: u64,
    pub blocks_compressed: u64,
    pub compressed_lines_total: u64,
    scratch: CompressScratch,
    memo: CodecMemo,
}

impl Compressor {
    pub fn new(thresholds: Thresholds, max_lines: usize) -> Self {
        Compressor {
            thresholds,
            latency: Latency::default(),
            max_lines,
            attempts: 0,
            failures: 0,
            blocks_compressed: 0,
            compressed_lines_total: 0,
            scratch: CompressScratch::new(),
            memo: CodecMemo::new(),
        }
    }

    /// Attempt compression, updating statistics. An input identical to one
    /// of the last [`MEMO_ENTRIES`] distinct ones (same block content,
    /// datatype, thresholds and size cap) returns the remembered result
    /// without running the codec; the statistics count it like any other
    /// attempt. Zero heap allocations per call.
    pub fn compress(
        &mut self,
        block: &BlockData,
        dt: DataType,
    ) -> Result<CompressOutcome, CompressFailure> {
        let (th, max_lines) = (self.thresholds, self.max_lines);
        let result = match self.memo.find(block, dt, &th, max_lines) {
            Some(i) => self.memo.entries[i].result.clone(),
            None => {
                // The codec writes straight into the claimed entry.
                let e = self.memo.claim(block, dt, &th, max_lines);
                e.result = compress_with(&mut self.scratch, block, dt, &th, max_lines);
                e.result.clone()
            }
        };
        self.attempts += 1;
        match &result {
            Ok(o) => {
                self.blocks_compressed += 1;
                self.compressed_lines_total += o.compressed.size_lines() as u64;
            }
            Err(_) => self.failures += 1,
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avr_types::VALUES_PER_LINE;

    fn th() -> Thresholds {
        Thresholds::paper_default()
    }

    fn f32_block(mut f: impl FnMut(usize) -> f32) -> BlockData {
        let mut b = BlockData::default();
        for (i, w) in b.words.iter_mut().enumerate() {
            *w = f(i).to_bits();
        }
        b
    }

    #[test]
    fn constant_block_compresses_16_to_1() {
        let b = f32_block(|_| 42.5);
        let o = compress(&b, DataType::F32, &th(), 8).unwrap();
        assert_eq!(o.outlier_count, 0);
        assert_eq!(o.compressed.size_lines(), 1);
        assert_eq!(o.compressed.ratio(), 16.0);
        // Reconstruction of a constant is (nearly) exact.
        for w in o.reconstructed.words {
            let v = f32::from_bits(w);
            assert!((v - 42.5).abs() / 42.5 < 0.001, "{v}");
        }
    }

    #[test]
    fn smooth_2d_field_compresses_well() {
        // A smooth "temperature" field: the kind of data heat/lbm hold.
        let b = f32_block(|i| {
            let (r, c) = ((i / 16) as f32, (i % 16) as f32);
            300.0 + 0.5 * r + 0.3 * c + 0.01 * r * c
        });
        let o = compress(&b, DataType::F32, &th(), 8).unwrap();
        assert!(o.compressed.size_lines() <= 2, "{} lines", o.compressed.size_lines());
        assert_eq!(o.compressed.method.layout, Layout::Square2D);
        assert!(o.avg_err <= 0.01);
    }

    #[test]
    fn smooth_1d_ramp_prefers_linear_layout() {
        let b = f32_block(|i| 1000.0 + i as f32 * 0.25);
        let o = compress(&b, DataType::F32, &th(), 8).unwrap();
        assert_eq!(o.compressed.method.layout, Layout::Linear1D);
        assert_eq!(o.outlier_count, 0);
    }

    #[test]
    fn decompress_matches_reconstructed_view() {
        // Gentle sinusoid: curvature low enough that downsampling error
        // stays within T1 for most values.
        let b = f32_block(|i| (i as f32 * 0.02).sin() * 50.0 + 120.0);
        let o = compress(&b, DataType::F32, &th(), 8).unwrap();
        assert_eq!(decompress(&o.compressed), o.reconstructed);
    }

    #[test]
    fn outliers_are_exact_in_reconstruction() {
        // Smooth field with a few spikes: spikes must come back bit-exact.
        let spike_at = [37usize, 120, 200];
        let b =
            f32_block(
                |i| {
                    if spike_at.contains(&i) {
                        -9.75e6
                    } else {
                        64.0 + (i % 16) as f32 * 0.01
                    }
                },
            );
        let o = compress(&b, DataType::F32, &th(), 8).unwrap();
        assert!(o.outlier_count >= spike_at.len());
        for &i in &spike_at {
            assert!(o.compressed.is_outlier(i));
            assert_eq!(o.reconstructed.words[i], b.words[i], "spike {i} must be exact");
        }
    }

    #[test]
    fn non_outliers_respect_t1() {
        let b = f32_block(|i| ((i as f32) * 0.37).cos() * 10.0 + 80.0);
        if let Ok(o) = compress(&b, DataType::F32, &th(), 8) {
            for i in 0..VALUES_PER_BLOCK {
                if !o.compressed.is_outlier(i) {
                    let orig = f32::from_bits(b.words[i]) as f64;
                    let rec = f32::from_bits(o.reconstructed.words[i]) as f64;
                    if orig != 0.0 {
                        let rel = ((rec - orig) / orig).abs();
                        assert!(rel <= th().t1 + 1e-9, "value {i}: rel {rel}");
                    }
                }
            }
        }
    }

    #[test]
    fn random_noise_fails_to_compress() {
        // White noise has no inter-value similarity: nearly every value is
        // an outlier, blowing the size cap.
        let mut state = 0x1234_5678u32;
        let b = f32_block(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            (state as f32 / u32::MAX as f32) * 2000.0 - 1000.0
        });
        let r = compress(&b, DataType::F32, &th(), 8);
        assert!(matches!(r, Err(CompressFailure::TooManyOutliers { .. })), "{r:?}");
    }

    #[test]
    fn all_zero_block_is_one_line() {
        let b = BlockData::default();
        let o = compress(&b, DataType::F32, &th(), 8).unwrap();
        assert_eq!(o.compressed.size_lines(), 1);
        assert_eq!(o.reconstructed, b);
    }

    #[test]
    fn fixed_point_block_compresses() {
        let mut b = BlockData::default();
        for (i, w) in b.words.iter_mut().enumerate() {
            // Smooth Q16.16 ramp around 100.0.
            *w = ((100 << 16) + (i as i32) * 300) as u32;
        }
        let o = compress(&b, DataType::Fixed32, &th(), 8).unwrap();
        assert_eq!(o.compressed.method.dtype, DataType::Fixed32);
        assert!(o.compressed.size_lines() <= 2);
        assert_eq!(decompress(&o.compressed), o.reconstructed);
    }

    #[test]
    fn huge_values_bias_and_compress() {
        let b = f32_block(|i| 3.0e18 + (i as f32) * 1.0e14);
        let o = compress(&b, DataType::F32, &th(), 8).unwrap();
        assert_ne!(o.compressed.bias, 0);
        assert!(o.outlier_count < 20, "{}", o.outlier_count);
    }

    #[test]
    fn compressor_tracks_stats() {
        let mut c = Compressor::new(th(), 8);
        let smooth = f32_block(|i| 10.0 + i as f32 * 0.001);
        let mut state = 7u32;
        let noise = f32_block(|_| {
            state = state.wrapping_mul(48271);
            state as f32
        });
        c.compress(&smooth, DataType::F32).unwrap();
        let _ = c.compress(&noise, DataType::F32);
        assert_eq!(c.attempts, 2);
        assert_eq!(c.blocks_compressed, 1);
        assert_eq!(c.failures, 1);
    }

    #[test]
    fn scratch_is_reusable_across_outcomes() {
        // Interleave compressible and incompressible blocks through one
        // scratch: stale scratch from an aborted attempt must never leak
        // into the next result.
        let mut scratch = CompressScratch::new();
        let smooth = f32_block(|i| 10.0 + i as f32 * 0.001);
        let mut state = 99u32;
        let noise = f32_block(|_| {
            state = state.wrapping_mul(48271).wrapping_add(13);
            (state as f32 / u32::MAX as f32) * 2.0e6 - 1.0e6
        });
        let first = compress_with(&mut scratch, &smooth, DataType::F32, &th(), 8).unwrap();
        assert!(compress_with(&mut scratch, &noise, DataType::F32, &th(), 8).is_err());
        let again = compress_with(&mut scratch, &smooth, DataType::F32, &th(), 8).unwrap();
        assert_eq!(first.compressed, again.compressed);
        assert_eq!(first.reconstructed, again.reconstructed);
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Bit-exact equality of two codec results.
    fn assert_same(
        got: &Result<CompressOutcome, CompressFailure>,
        want: &Result<CompressOutcome, CompressFailure>,
        ctx: &str,
    ) {
        match (got, want) {
            (Ok(g), Ok(w)) => {
                assert_eq!(g.compressed, w.compressed, "{ctx}");
                assert_eq!(g.reconstructed, w.reconstructed, "{ctx}");
                assert_eq!(g.avg_err.to_bits(), w.avg_err.to_bits(), "{ctx}");
                assert_eq!(g.outlier_count, w.outlier_count, "{ctx}");
            }
            (Err(g), Err(w)) => assert_eq!(format!("{g:?}"), format!("{w:?}"), "{ctx}"),
            _ => panic!("{ctx}: {got:?} vs {want:?}"),
        }
    }

    /// A seeded block of one of five kinds: smooth or noisy, F32 or
    /// Fixed32, or a smooth F32 field with a few spikes.
    fn seeded_block(rng: &mut u64) -> (BlockData, DataType) {
        let r = splitmix64(rng);
        let (base, slope) = ((r % 1000) as f32 + 1.0, ((r >> 16) % 100) as f32 * 1e-3);
        let mut b = BlockData::default();
        let dt = match r >> 61 {
            0 | 1 => {
                for (i, w) in b.words.iter_mut().enumerate() {
                    *w = (base + slope * i as f32).to_bits();
                }
                DataType::F32
            }
            2 => {
                for (i, w) in b.words.iter_mut().enumerate() {
                    *w = if i % 37 == (r as usize >> 40) % 37 { 1.0e9 } else { base }.to_bits();
                }
                DataType::F32
            }
            3 | 4 => {
                for w in b.words.iter_mut() {
                    *w = ((splitmix64(rng) >> 40) as f32 - 8.0e6).to_bits();
                }
                DataType::F32
            }
            5 => {
                for (i, w) in b.words.iter_mut().enumerate() {
                    *w = (((base as i32) << 16) + i as i32 * (r as i32 >> 24 & 0xFF)) as u32;
                }
                DataType::Fixed32
            }
            _ => {
                for w in b.words.iter_mut() {
                    *w = splitmix64(rng) as u32;
                }
                DataType::Fixed32
            }
        };
        (b, dt)
    }

    #[test]
    fn memo_returns_exactly_what_a_fresh_codec_call_does() {
        let mut rng = 0x5EED_u64;
        let mut c = Compressor::new(th(), 8);
        let (mut attempts, mut failures, mut compressed, mut lines) = (0u64, 0u64, 0u64, 0u64);
        let mut history: Vec<(BlockData, DataType)> = Vec::new();
        let mut distances = [0u32; 13];
        for call in 0..3000 {
            // Half the calls repeat the input from 1 to 12 calls back, so
            // some repeats find their entry and some find it replaced.
            let r = splitmix64(&mut rng);
            let d = 1 + (r % 12) as usize;
            let (block, dt) = if r & (1 << 32) != 0 && d <= history.len() {
                distances[d] += 1;
                history[history.len() - d].clone()
            } else {
                seeded_block(&mut rng)
            };
            let got = c.compress(&block, dt);
            let want = compress_with(&mut CompressScratch::new(), &block, dt, &th(), 8);
            assert_same(&got, &want, &format!("call {call}"));
            attempts += 1;
            match &want {
                Ok(o) => {
                    compressed += 1;
                    lines += o.compressed.size_lines() as u64;
                }
                Err(_) => failures += 1,
            }
            assert_eq!(
                (c.attempts, c.failures, c.blocks_compressed, c.compressed_lines_total),
                (attempts, failures, compressed, lines),
                "call {call}"
            );
            history.push((block, dt));
        }
        // The stream covered both outcomes, both datatypes, and repeats at
        // every distance, and the memo both hit and missed.
        assert!(compressed > 300 && failures > 300, "{compressed} accepted, {failures} failed");
        assert!(history.iter().any(|(_, dt)| *dt == DataType::Fixed32));
        assert!(distances[1..].iter().all(|&n| n > 20), "{distances:?}");
        assert!(c.memo.hits > 500 && c.memo.hits < attempts - 1000, "{} hits", c.memo.hits);
    }

    #[test]
    fn memo_misses_when_thresholds_or_the_size_cap_change() {
        // One spike spoils its sub-block: a few lines of outliers.
        let b = f32_block(|i| if i == 3 { 1.0e9 } else { 50.0 + (i % 16) as f32 * 0.01 });
        let mut c = Compressor::new(th(), 8);
        let lines = c.compress(&b, DataType::F32).unwrap().compressed.size_lines();
        assert!(lines > 1 && lines < 8, "{lines}");
        // A smaller cap rejects the block: a hit would wrongly accept it.
        c.max_lines = lines - 1;
        assert!(c.memo.find(&b, DataType::F32, &th(), lines - 1).is_none());
        let capped = c.compress(&b, DataType::F32);
        assert_same(
            &capped,
            &compress_with(&mut CompressScratch::new(), &b, DataType::F32, &th(), lines - 1),
            "smaller cap",
        );
        assert!(capped.is_err());
        // Other thresholds, and the other datatype, miss as well.
        c.max_lines = 8;
        let loose = Thresholds::new(0.25, 0.2);
        assert!(c.memo.find(&b, DataType::F32, &loose, 8).is_none());
        assert!(c.memo.find(&b, DataType::Fixed32, &th(), 8).is_none());
        c.thresholds = loose;
        let hits = c.memo.hits;
        let got = c.compress(&b, DataType::F32);
        assert_eq!(c.memo.hits, hits, "changed thresholds must miss");
        assert_same(
            &got,
            &compress_with(&mut CompressScratch::new(), &b, DataType::F32, &loose, 8),
            "loose thresholds",
        );
        // The original input still hits once the settings come back.
        c.thresholds = th();
        c.compress(&b, DataType::F32).unwrap();
        assert_eq!(c.memo.hits, hits + 1);
        assert_eq!(c.attempts, 4);
    }

    #[test]
    fn nan_values_become_outliers_and_stay_exact() {
        let nan_at = 99usize;
        let b = f32_block(|i| if i == nan_at { f32::NAN } else { 70.0 + (i % 7) as f32 * 0.01 });
        let o = compress(&b, DataType::F32, &th(), 8).unwrap();
        assert!(o.compressed.is_outlier(nan_at));
        assert_eq!(o.reconstructed.words[nan_at], b.words[nan_at]);
        // The NaN converts to fixed 0 and drags its sub-block average down,
        // turning the whole neighbourhood into outliers — but the block must
        // still fit the 8-line cap and every non-NaN value must survive.
        assert!(o.compressed.size_lines() <= 8);
        for (i, (&ow, &bw)) in o.reconstructed.words.iter().zip(&b.words).enumerate() {
            if i != nan_at && o.compressed.is_outlier(i) {
                assert_eq!(ow, bw);
            }
        }
    }

    #[test]
    fn per_line_serialization_size_is_consistent() {
        // size_lines x 64B always >= size_bytes, < size_bytes + 64.
        let b = f32_block(|i| if i % 31 == 0 { 1.0e9 } else { 55.0 });
        if let Ok(o) = compress(&b, DataType::F32, &th(), 8) {
            let lines = o.compressed.size_lines() * VALUES_PER_LINE * 4;
            assert!(lines >= o.compressed.size_bytes());
            assert!(lines < o.compressed.size_bytes() + 64);
        }
    }

    #[test]
    fn outlier_cap_matches_size_lines() {
        // The abort cap must be exactly the largest count whose compressed
        // size still fits, for every max_lines the CMT can encode.
        for max_lines in 1..=16usize {
            let cap = outlier_cap(max_lines);
            assert!(lines_for_outliers(cap) <= max_lines, "cap {cap} @ {max_lines}");
            assert!(lines_for_outliers(cap + 1) > max_lines, "cap {cap} @ {max_lines}");
        }
        assert_eq!(outlier_cap(8), 104); // the paper's 2:1 worst case
    }
}
