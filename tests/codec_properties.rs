//! Property-based tests of the AVR codec: the invariants §3.3 promises,
//! checked over randomized finite blocks. The generator is a deterministic
//! splitmix64 stream (the build environment is offline, so no proptest);
//! every failure reports the case seed for replay.

use avr::compress::simd;
use avr::compress::{
    compress, compress_reference, compress_with, decompress, CompressFailure, CompressScratch,
    Thresholds,
};
use avr::types::{BlockData, DataType, VALUES_PER_BLOCK};

mod common;
use common::Rng;

/// Finite, non-degenerate magnitudes the workloads actually produce.
fn finite_f32(rng: &mut Rng) -> f32 {
    match rng.next_u64() % 4 {
        0 => rng.range_f32(-1.0e6, 1.0e6),
        1 => rng.range_f32(-1.0, 1.0),
        2 => rng.range_f32(1.0e-6, 1.0e-3),
        _ => 0.0,
    }
}

/// base + slope*i + curvature: the compressible family.
fn smooth_block(rng: &mut Rng) -> BlockData {
    let b = rng.range_f32(10.0, 1000.0);
    let s = rng.range_f32(-0.5, 0.5);
    let c = rng.range_f32(-0.001, 0.001);
    let mut words = [0u32; VALUES_PER_BLOCK];
    for (i, w) in words.iter_mut().enumerate() {
        let x = i as f32;
        *w = (b + s * x + c * x * x).to_bits();
    }
    BlockData { words }
}

fn arbitrary_block(rng: &mut Rng) -> BlockData {
    let mut words = [0u32; VALUES_PER_BLOCK];
    for w in words.iter_mut() {
        *w = finite_f32(rng).to_bits();
    }
    BlockData { words }
}

const CASES: u64 = 128;

fn for_arbitrary_blocks(seed: u64, mut check: impl FnMut(u64, &BlockData)) {
    for case in 0..CASES {
        let mut rng = Rng(seed ^ case);
        let block = arbitrary_block(&mut rng);
        check(case, &block);
    }
}

/// Whatever happens, a successful compression fits the size cap and its
/// bitmap popcount equals its outlier count.
#[test]
fn compressed_blocks_respect_the_size_cap() {
    let th = Thresholds::paper_default();
    for_arbitrary_blocks(0x5eed_0001, |case, block| {
        if let Ok(o) = compress(block, DataType::F32, &th, 8) {
            assert!(o.compressed.size_lines() <= 8, "case {case}");
            assert_eq!(o.compressed.outlier_count(), o.compressed.outliers.len(), "case {case}");
            assert!(o.compressed.ratio() >= 2.0, "case {case}");
        }
    });
}

/// decompress(compress(x)) is exactly the reconstructed view the simulator
/// feeds back into application memory.
#[test]
fn decompress_matches_reconstruction() {
    let th = Thresholds::paper_default();
    for_arbitrary_blocks(0x5eed_0002, |case, block| {
        if let Ok(o) = compress(block, DataType::F32, &th, 8) {
            assert_eq!(decompress(&o.compressed), o.reconstructed, "case {case}");
        }
    });
}

/// Non-outlier values respect the per-value threshold T1; outliers are
/// reproduced bit-exactly.
#[test]
fn t1_bounds_every_non_outlier() {
    let th = Thresholds::paper_default();
    for_arbitrary_blocks(0x5eed_0003, |case, block| {
        if let Ok(o) = compress(block, DataType::F32, &th, 8) {
            for i in 0..VALUES_PER_BLOCK {
                let orig = f32::from_bits(block.words[i]);
                let recon = f32::from_bits(o.reconstructed.words[i]);
                if o.compressed.is_outlier(i) {
                    assert_eq!(block.words[i], o.reconstructed.words[i], "case {case} value {i}");
                } else if orig != 0.0 && orig.is_finite() {
                    let rel = ((recon - orig) / orig).abs() as f64;
                    assert!(rel <= th.t1 + 1e-9, "case {case} value {i}: rel {rel}");
                }
            }
            assert!(o.avg_err <= th.t2 + 1e-12, "case {case}");
        }
    });
}

/// Smooth data always compresses, and well.
#[test]
fn smooth_blocks_always_compress() {
    let th = Thresholds::paper_default();
    for case in 0..CASES {
        let mut rng = Rng(0x5eed_0004 ^ case);
        let block = smooth_block(&mut rng);
        let o = compress(&block, DataType::F32, &th, 8);
        assert!(o.is_ok(), "case {case}: smooth block failed: {o:?}");
        assert!(o.unwrap().compressed.size_lines() <= 4, "case {case}");
    }
}

/// Tightening T1 never decreases the outlier count.
#[test]
fn tighter_thresholds_mean_more_outliers() {
    let loose = Thresholds::new(0.05, 0.025);
    let tight = Thresholds::new(0.005, 0.0025);
    for_arbitrary_blocks(0x5eed_0005, |case, block| {
        let lo = compress(block, DataType::F32, &loose, 16);
        let to = compress(block, DataType::F32, &tight, 16);
        if let (Ok(l), Ok(t)) = (lo, to) {
            assert!(t.outlier_count >= l.outlier_count, "case {case}");
        }
    });
}

/// Failure is always one of the two documented reasons.
#[test]
fn failures_are_classified() {
    let th = Thresholds::paper_default();
    for_arbitrary_blocks(0x5eed_0006, |case, block| match compress(block, DataType::F32, &th, 8) {
        Ok(_) => {}
        Err(CompressFailure::TooManyOutliers { lines_needed }) => {
            assert!(lines_needed > 8, "case {case}");
        }
        Err(CompressFailure::AvgErrorTooHigh { avg_err }) => {
            assert!(avg_err > th.t2, "case {case}");
        }
    });
}

/// One block drawn from the families the fused/reference oracle sweeps:
/// smooth fields, ramps, noise, NaN-sprinkled and bias-heavy (huge / tiny
/// magnitude) blocks, plus mixtures.
fn oracle_f32_block(rng: &mut Rng) -> BlockData {
    let family = rng.next_u64() % 6;
    let mut words = [0u32; VALUES_PER_BLOCK];
    match family {
        // Smooth quadratic field.
        0 => {
            let b = rng.range_f32(10.0, 1000.0);
            let s = rng.range_f32(-0.5, 0.5);
            let c = rng.range_f32(-0.001, 0.001);
            for (i, w) in words.iter_mut().enumerate() {
                let x = i as f32;
                *w = (b + s * x + c * x * x).to_bits();
            }
        }
        // Linear ramp with occasional spikes.
        1 => {
            let base = rng.range_f32(1.0, 5000.0);
            let slope = rng.range_f32(-2.0, 2.0);
            for (i, w) in words.iter_mut().enumerate() {
                let spike = rng.next_u64().is_multiple_of(37);
                let v = if spike { rng.range_f32(-1.0e8, 1.0e8) } else { base + slope * i as f32 };
                *w = v.to_bits();
            }
        }
        // White noise (incompressible).
        2 => {
            for w in words.iter_mut() {
                *w = rng.range_f32(-1.0e6, 1.0e6).to_bits();
            }
        }
        // Smooth with NaN/Inf sprinkles.
        3 => {
            let b = rng.range_f32(50.0, 500.0);
            for (i, w) in words.iter_mut().enumerate() {
                *w = match rng.next_u64() % 61 {
                    0 => f32::NAN.to_bits(),
                    1 => f32::INFINITY.to_bits(),
                    _ => (b + (i as f32 * 0.3).sin()).to_bits(),
                };
            }
        }
        // Bias-heavy: huge or tiny magnitudes.
        4 => {
            let scale = if rng.flip() { 1.0e18 } else { 1.0e-18 };
            let b = rng.range_f32(1.0, 9.0) * scale;
            for (i, w) in words.iter_mut().enumerate() {
                *w = (b * (1.0 + i as f32 * 1.0e-4)).to_bits();
            }
        }
        // Fully arbitrary finite values (mixed magnitudes + zeros).
        _ => {
            for w in words.iter_mut() {
                *w = finite_f32(rng).to_bits();
            }
        }
    }
    BlockData { words }
}

/// Q16.16 analogue of the oracle families.
fn oracle_fixed_block(rng: &mut Rng) -> BlockData {
    let family = rng.next_u64() % 3;
    let mut words = [0u32; VALUES_PER_BLOCK];
    match family {
        // Smooth Q16.16 ramp.
        0 => {
            let base = (rng.next_u64() % 2000) as i32 - 1000;
            let slope = (rng.next_u64() % 2000) as i32 - 1000;
            for (i, w) in words.iter_mut().enumerate() {
                *w = ((base << 16).wrapping_add(slope.wrapping_mul(i as i32))) as u32;
            }
        }
        // Noise over the full 32-bit range.
        1 => {
            for w in words.iter_mut() {
                *w = rng.next_u64() as u32;
            }
        }
        // Mostly-smooth with zero runs and spikes.
        _ => {
            for (i, w) in words.iter_mut().enumerate() {
                *w = match rng.next_u64() % 13 {
                    0 => 0,
                    1 => rng.next_u64() as u32,
                    _ => ((500i32 << 16) + (i as i32) * 700) as u32,
                };
            }
        }
    }
    BlockData { words }
}

/// Assert one fused outcome matches the reference outcome bit-for-bit
/// (success payloads identical, failures agreeing on mode and reported
/// average error).
#[track_caller]
fn assert_matches_reference(
    fused: &Result<avr::compress::CompressOutcome, CompressFailure>,
    reference: &Result<avr::compress::CompressOutcome, CompressFailure>,
    ctx: &str,
) {
    match (fused, reference) {
        (Ok(f), Ok(r)) => {
            assert_eq!(f.compressed, r.compressed, "{ctx}: block");
            assert_eq!(f.reconstructed, r.reconstructed, "{ctx}: reconstruction");
            assert_eq!(f.avg_err.to_bits(), r.avg_err.to_bits(), "{ctx}: avg_err");
            assert_eq!(f.outlier_count, r.outlier_count, "{ctx}: outlier count");
        }
        (Err(f), Err(r)) => {
            assert_eq!(
                std::mem::discriminant(f),
                std::mem::discriminant(r),
                "{ctx}: failure mode {f:?} vs {r:?}"
            );
            if let (
                CompressFailure::AvgErrorTooHigh { avg_err: fa },
                CompressFailure::AvgErrorTooHigh { avg_err: ra },
            ) = (f, r)
            {
                assert_eq!(fa.to_bits(), ra.to_bits(), "{ctx}: avg_err");
            }
        }
        other => panic!("{ctx}: outcome diverged: {other:?}"),
    }
}

/// Compress `block` on every arm the CPU supports and assert each outcome
/// is bit-identical to the reference implementation. The arm's table
/// travels in the scratch, so concurrent tests cannot change it.
fn assert_all_arms_match_reference(
    block: &BlockData,
    dt: DataType,
    th: &Thresholds,
    max_lines: usize,
    ctx: &str,
) {
    let reference = compress_reference(block, dt, th, max_lines);
    for arm in simd::supported_arms() {
        let table = simd::kernels_for(arm).expect("supported arm");
        let fused =
            compress_with(&mut CompressScratch::with_kernels(table), block, dt, th, max_lines);
        assert_matches_reference(&fused, &reference, &format!("{ctx} [{}]", arm.name()));
    }
}

/// The oracle: the fused hot path is **bit-identical** to the retained
/// pre-refactor reference on success, and agrees on the failure mode, over
/// ≥1000 randomized blocks per data type (and several `max_lines` caps) —
/// on **every** arm the host supports (scalar, AVX2).
#[test]
fn fused_codec_is_bit_identical_to_reference() {
    let th = Thresholds::paper_default();
    for (dt, cases) in [(DataType::F32, 1200u64), (DataType::Fixed32, 1200u64)] {
        for case in 0..cases {
            let mut rng = Rng(0x0eac_1e00 ^ (case << 1) ^ dt as u64);
            let block = match dt {
                DataType::F32 => oracle_f32_block(&mut rng),
                DataType::Fixed32 => oracle_fixed_block(&mut rng),
            };
            let max_lines = [8usize, 4, 16][(case % 3) as usize];
            assert_all_arms_match_reference(
                &block,
                dt,
                &th,
                max_lines,
                &format!("{dt:?} case {case}"),
            );
        }
    }
}

/// Adversarial IEEE-754 corner blocks: all-NaN, mixed ±Inf, subnormal
/// fields, sign-flip boundaries and special-studded smooth data — every
/// arm must agree with the reference bit-for-bit on all of them.
#[test]
fn adversarial_blocks_are_bit_identical_on_every_arm() {
    let th = Thresholds::paper_default();
    let mut blocks: Vec<(&'static str, BlockData)> = Vec::new();

    let from_fn = |f: &dyn Fn(usize) -> u32| {
        let mut words = [0u32; VALUES_PER_BLOCK];
        for (i, w) in words.iter_mut().enumerate() {
            *w = f(i);
        }
        BlockData { words }
    };

    // Every value NaN (varied payloads and signs).
    blocks.push((
        "all_nan",
        from_fn(&|i| f32::NAN.to_bits() | ((i as u32) << 13) | ((i as u32 & 1) << 31)),
    ));
    // Alternating ±Inf, with a smooth backdrop every fourth value.
    blocks.push((
        "mixed_inf",
        from_fn(&|i| match i % 4 {
            0 => f32::INFINITY.to_bits(),
            1 => f32::NEG_INFINITY.to_bits(),
            _ => (100.0 + i as f32 * 0.01).to_bits(),
        }),
    ));
    // A smooth, strictly subnormal field (max subnormal down-ramp).
    blocks.push(("subnormal_ramp", from_fn(&|i| 0x007F_FFFF - (i as u32 * 0x2000))));
    // Subnormals of both signs around zero.
    blocks.push((
        "subnormal_signs",
        from_fn(&|i| (i as u32 * 0x1003) & 0x007F_FFFF | (((i / 3) as u32 & 1) << 31)),
    ));
    // Sign-flip boundary: values hugging ±0 with alternating signs.
    blocks.push((
        "signflip_zeros",
        from_fn(&|i| match i % 4 {
            0 => 0x0000_0000,           // +0
            1 => 0x8000_0000,           // -0
            2 => 1e-30f32.to_bits(),    // tiny +
            _ => (-1e-30f32).to_bits(), // tiny -
        }),
    ));
    // Sign flips at full magnitude (alternating ±same value).
    blocks.push((
        "signflip_large",
        from_fn(&|i| (if i % 2 == 0 { 750.25f32 } else { -750.25 }).to_bits()),
    ));
    // Smooth block with one special of each kind (the bias path must
    // still collapse to bias 0 and keep every special an exact outlier).
    blocks.push((
        "smooth_with_specials",
        from_fn(&|i| match i {
            17 => f32::NAN.to_bits(),
            99 => f32::INFINITY.to_bits(),
            200 => f32::NEG_INFINITY.to_bits(),
            231 => 0x0000_0001, // min subnormal
            _ => (3000.0 + i as f32 * 0.125).to_bits(),
        }),
    ));
    // Extremes: ±f32::MAX checkerboard (bias overflow clamping).
    blocks.push((
        "max_magnitude",
        from_fn(&|i| (if (i / 16 + i) % 2 == 0 { f32::MAX } else { -f32::MAX }).to_bits()),
    ));

    for (name, block) in &blocks {
        for max_lines in [4usize, 8, 16] {
            assert_all_arms_match_reference(
                block,
                DataType::F32,
                &th,
                max_lines,
                &format!("adversarial {name} max_lines {max_lines}"),
            );
        }
    }
}

/// Compression is deterministic.
#[test]
fn compression_is_deterministic() {
    let th = Thresholds::paper_default();
    for_arbitrary_blocks(0x5eed_0007, |case, block| {
        let a = compress(block, DataType::F32, &th, 8);
        let b = compress(block, DataType::F32, &th, 8);
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(x.compressed, y.compressed, "case {case}"),
            (Err(_), Err(_)) => {}
            other => panic!("case {case}: divergent outcomes: {other:?}"),
        }
    });
}
