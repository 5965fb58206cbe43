//! The codec microbenchmark kernels: the blocks the `bench_codec` JSON
//! emitter times, shared with the allocation tests so both drive the same
//! codec paths.

use avr_types::BlockData;

/// A smooth 16×16 "temperature field" block — the best case: both layout
/// variants evaluate fully, zero outliers.
pub fn smooth_block() -> BlockData {
    let mut b = BlockData::default();
    for (i, w) in b.words.iter_mut().enumerate() {
        let (r, c) = ((i / 16) as f32, (i % 16) as f32);
        *w = (250.0 + 0.8 * r + 0.4 * c).to_bits();
    }
    b
}

/// The smooth field with large negative spikes every 32 values — a block
/// that still compresses but forces outlier selection and compaction.
/// (Denser spikes — the seed bench used every 11th — push the block past
/// the 8-line cap and silently measure the failure path instead.)
pub fn spiky_block() -> BlockData {
    let mut b = smooth_block();
    for i in (0..256).step_by(32) {
        b.words[i] = (-1.0e9f32).to_bits();
    }
    b
}

/// White noise — incompressible; exercises the early-abort path.
pub fn noise_block() -> BlockData {
    let mut b = BlockData::default();
    let mut state = 0xACE1u32;
    for w in b.words.iter_mut() {
        state = state.wrapping_mul(48271) % 0x7FFF_FFFF;
        *w = (state as f32).to_bits();
    }
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use avr_compress::{compress, CompressFailure, Thresholds};
    use avr_types::DataType;

    #[test]
    fn kernels_exercise_the_intended_paths() {
        let th = Thresholds::paper_default();
        let smooth = compress(&smooth_block(), DataType::F32, &th, 8).unwrap();
        assert!(
            smooth.outlier_count <= 8,
            "smooth kernel must stay nearly outlier-free (corner clamping \
             may flag a few): {}",
            smooth.outlier_count
        );
        let spiky = compress(&spiky_block(), DataType::F32, &th, 8).unwrap();
        assert!(spiky.outlier_count >= 8, "spiky kernel must keep its spikes exact");
        let noise = compress(&noise_block(), DataType::F32, &th, 8);
        assert!(
            matches!(noise, Err(CompressFailure::TooManyOutliers { .. })),
            "noise kernel must be incompressible: {noise:?}"
        );
    }
}
