//! Error calculation & outlier selection (paper §3.3).
//!
//! Two thresholds control the approximation: the relative error of each
//! individual value may not exceed T1, and the average relative error across
//! a block's non-outlier values may not exceed T2 (the paper runs T1 = 2·T2).
//!
//! For floats the hardware never divides: a value is within T1 = 1/2^N iff
//! sign and exponent match exactly *and* the mantissa difference stays below
//! the N-th most-significant mantissa bit. The block average error is the
//! mean of the mantissa differences (scaled by 2^-23) over non-outliers.
//! For fixed point, a subtraction and comparison serve the same role
//! (paper footnote 1).

use avr_types::config::check_thresholds;
use avr_types::DataType;

/// The T1/T2 error thresholds, pre-lowered to hardware comparisons.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Thresholds {
    /// Per-value relative threshold T1 (fraction).
    pub t1: f64,
    /// Block-average relative threshold T2 (fraction).
    pub t2: f64,
    /// N such that 1/2^N <= T1: the mantissa MSbit position compared.
    pub n_msbit: u32,
}

impl Thresholds {
    /// Build from T1/T2 fractions. `n_msbit` is the largest N with
    /// 1/2^N <= T1 so the hardware check is at least as strict as T1.
    ///
    /// Panics if [`check_thresholds`] rejects the pair.
    pub fn new(t1: f64, t2: f64) -> Self {
        if let Err(e) = check_thresholds(t1, t2) {
            panic!("{e}");
        }
        let n_msbit = (1.0 / t1).log2().ceil() as u32;
        Thresholds { t1, t2, n_msbit: n_msbit.min(23) }
    }

    /// The paper's default knob setting: T1 = 2 %, T2 = 1 %.
    pub fn paper_default() -> Self {
        Thresholds::new(0.02, 0.01)
    }

    /// Maximum allowed mantissa difference (exclusive bound is the N-th
    /// MSbit, i.e. bit 23-N).
    #[inline]
    pub fn mantissa_limit(&self) -> u32 {
        1u32 << (23 - self.n_msbit)
    }
}

/// Per-value verdict plus the error contribution for the block average.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ValueCheck {
    pub outlier: bool,
    /// Relative-error estimate of a non-outlier (0 for outliers — they are
    /// stored exactly and excluded from the average).
    pub rel_err: f64,
}

/// Compare one original raw word against its reconstruction.
#[inline]
pub fn check_value(orig: u32, recon: u32, dt: DataType, th: &Thresholds) -> ValueCheck {
    match dt {
        DataType::F32 => check_f32(orig, recon, th),
        DataType::Fixed32 => check_fixed(orig as i32, recon as i32, th),
    }
}

#[inline]
fn check_f32(orig: u32, recon: u32, th: &Thresholds) -> ValueCheck {
    if orig == recon {
        return ValueCheck { outlier: false, rel_err: 0.0 };
    }
    let sign_o = orig >> 31;
    let sign_r = recon >> 31;
    let exp_o = (orig >> 23) & 0xFF;
    let exp_r = (recon >> 23) & 0xFF;
    // NaN/Inf originals can never be reproduced approximately: outlier.
    if exp_o == 255 {
        return ValueCheck { outlier: true, rel_err: 0.0 };
    }
    // (i) exact sign and exponent match required.
    if sign_o != sign_r || exp_o != exp_r {
        // Special case: +0 vs -0 are numerically identical.
        if (orig | recon) & 0x7FFF_FFFF == 0 {
            return ValueCheck { outlier: false, rel_err: 0.0 };
        }
        return ValueCheck { outlier: true, rel_err: 0.0 };
    }
    // (ii) mantissa difference below the N-th MSbit.
    let m_o = orig & 0x7F_FFFF;
    let m_r = recon & 0x7F_FFFF;
    let diff = m_o.abs_diff(m_r);
    if diff >= th.mantissa_limit() {
        return ValueCheck { outlier: true, rel_err: 0.0 };
    }
    ValueCheck { outlier: false, rel_err: diff as f64 / (1u32 << 23) as f64 }
}

#[inline]
fn check_fixed(orig: i32, recon: i32, th: &Thresholds) -> ValueCheck {
    if orig == recon {
        return ValueCheck { outlier: false, rel_err: 0.0 };
    }
    let diff = (orig as i64 - recon as i64).unsigned_abs();
    if orig == 0 {
        // Any nonzero reconstruction of a zero is an outlier.
        return ValueCheck { outlier: true, rel_err: 0.0 };
    }
    // Divide-free: diff * 2^N > |orig|  <=>  diff/|orig| > 1/2^N.
    let mag = (orig as i64).unsigned_abs();
    if diff << th.n_msbit > mag {
        return ValueCheck { outlier: true, rel_err: 0.0 };
    }
    ValueCheck { outlier: false, rel_err: diff as f64 / mag as f64 }
}

/// Streaming accumulator for the block-average error.
#[derive(Clone, Copy, Debug, Default)]
pub struct ErrorCheck {
    sum_rel_err: f64,
    non_outliers: u32,
    outliers: u32,
}

impl ErrorCheck {
    pub fn push(&mut self, v: ValueCheck) {
        if v.outlier {
            self.outliers += 1;
        } else {
            self.non_outliers += 1;
            self.sum_rel_err += v.rel_err;
        }
    }

    pub fn outliers(&self) -> u32 {
        self.outliers
    }

    /// Average relative error across non-outlier values.
    pub fn avg_err(&self) -> f64 {
        if self.non_outliers == 0 {
            0.0
        } else {
            self.sum_rel_err / self.non_outliers as f64
        }
    }

    /// Does the block pass the T2 average-error gate?
    pub fn passes(&self, th: &Thresholds) -> bool {
        self.avg_err() <= th.t2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn th() -> Thresholds {
        Thresholds::paper_default()
    }

    #[test]
    #[should_panic(expected = "t1 must be in (0, 1), got -1")]
    fn new_panics_with_the_check_message() {
        let _ = Thresholds::new(-1.0, 0.01);
    }

    #[test]
    fn paper_default_maps_to_n6() {
        // T1 = 2 %: 1/2^6 = 1.5625 % <= 2 % but 1/2^5 = 3.125 % > 2 %.
        assert_eq!(th().n_msbit, 6);
        assert_eq!(th().mantissa_limit(), 1 << 17);
    }

    #[test]
    fn exact_match_never_outlier() {
        for v in [0.0f32, -0.0, 1.5, f32::MAX] {
            let c = check_value(v.to_bits(), v.to_bits(), DataType::F32, &th());
            assert!(!c.outlier);
            assert_eq!(c.rel_err, 0.0);
        }
    }

    #[test]
    fn sign_flip_is_outlier() {
        let c = check_value(1.0f32.to_bits(), (-1.0f32).to_bits(), DataType::F32, &th());
        assert!(c.outlier);
    }

    #[test]
    fn exponent_change_is_outlier() {
        let c = check_value(1.0f32.to_bits(), 2.0f32.to_bits(), DataType::F32, &th());
        assert!(c.outlier);
    }

    #[test]
    fn small_mantissa_drift_passes() {
        let orig = 1.0f32;
        let recon = f32::from_bits(orig.to_bits() + 1000); // ~1e-4 relative
        let c = check_value(orig.to_bits(), recon.to_bits(), DataType::F32, &th());
        assert!(!c.outlier);
        assert!(c.rel_err > 0.0 && c.rel_err < 0.001);
    }

    #[test]
    fn mantissa_limit_boundary() {
        let orig = 1.5f32.to_bits();
        let just_under = orig + th().mantissa_limit() - 1;
        let at_limit = orig + th().mantissa_limit();
        assert!(!check_f32(orig, just_under, &th()).outlier);
        assert!(check_f32(orig, at_limit, &th()).outlier);
    }

    #[test]
    fn zero_vs_nonzero_is_outlier() {
        let c = check_value(0.0f32.to_bits(), 0.001f32.to_bits(), DataType::F32, &th());
        assert!(c.outlier);
        let c2 = check_value(0.0f32.to_bits(), (-0.0f32).to_bits(), DataType::F32, &th());
        assert!(!c2.outlier);
    }

    #[test]
    fn nan_is_always_outlier() {
        let c = check_value(f32::NAN.to_bits(), 0.0f32.to_bits(), DataType::F32, &th());
        assert!(c.outlier);
    }

    #[test]
    fn relative_check_is_scale_invariant() {
        // The hardware compares mantissa differences against 2^(23-N), which
        // over-counts relative error by up to 2x when the mantissa is close
        // to 2.0. A drift below T1/2 therefore passes at *any* magnitude.
        for scale in [1e-20f32, 1.0, 1e20] {
            let orig = 1.27 * scale;
            let recon = orig * 1.007;
            let c = check_value(orig.to_bits(), recon.to_bits(), DataType::F32, &th());
            assert!(!c.outlier, "scale {scale}");
        }
    }

    #[test]
    fn fixed_within_threshold_passes() {
        let orig = 100_000i32;
        let recon = orig + 1000; // 1 % — within 1/2^6 = 1.5625 %
        let c = check_value(orig as u32, recon as u32, DataType::Fixed32, &th());
        assert!(!c.outlier);
        assert!((c.rel_err - 0.01).abs() < 1e-9);
    }

    #[test]
    fn fixed_beyond_threshold_is_outlier() {
        let orig = 100_000i32;
        let recon = orig + 2000; // 2 % > 1.5625 %
        let c = check_value(orig as u32, recon as u32, DataType::Fixed32, &th());
        assert!(c.outlier);
    }

    #[test]
    fn fixed_zero_rules() {
        assert!(check_value(0, 1, DataType::Fixed32, &th()).outlier);
        assert!(!check_value(0, 0, DataType::Fixed32, &th()).outlier);
    }

    #[test]
    fn average_gate() {
        let mut acc = ErrorCheck::default();
        // 10 values at 0.8 % error, T2 = 1 % -> passes.
        for _ in 0..10 {
            acc.push(ValueCheck { outlier: false, rel_err: 0.008 });
        }
        assert!(acc.passes(&th()));
        // Push enough 1.5 % values to push the mean over 1 %.
        for _ in 0..30 {
            acc.push(ValueCheck { outlier: false, rel_err: 0.015 });
        }
        assert!(!acc.passes(&th()));
        assert_eq!(acc.outliers(), 0);
    }

    #[test]
    fn outliers_excluded_from_average() {
        let mut acc = ErrorCheck::default();
        acc.push(ValueCheck { outlier: true, rel_err: 0.0 });
        acc.push(ValueCheck { outlier: false, rel_err: 0.004 });
        assert_eq!(acc.outliers(), 1);
        assert!((acc.avg_err() - 0.004).abs() < 1e-12);
    }
}
