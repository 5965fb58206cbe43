//! Explicit-SIMD backends for the codec's four hot loops, behind one
//! runtime dispatch point.
//!
//! PR 1 left the fused pipeline as flat chunked loops the autovectorizer
//! digests at SSE2 width (~2 ns/value, PERFORMANCE.md "Known costs left on
//! the table"). This module lifts those loops into explicit `std::arch`
//! x86-64 kernels — an SSE2 baseline (always present on x86-64) and an
//! AVX2 variant selected at runtime via `is_x86_feature_detected!` — while
//! retaining the original scalar loops as the portable fallback for every
//! other architecture and as the oracle the wide arms are tested against.
//!
//! The four kernels (one [`CodecKernels`] entry each):
//!
//! * **`to_fixed_f32`** — the batch float→fixed conversion
//!   (bias application, RNE scaling, saturating cast);
//! * **`downsample_both`** — both layouts' strided sub-block sums in one
//!   sweep;
//! * **`reconstruct_1d` / `reconstruct_2d`** — the LUT-driven
//!   interpolation fused with the i32 write-out clamp;
//! * **`check_chunk_f32`** — the fused fixed→float write-out + outlier
//!   classification + error reduction over one 64-value chunk.
//!
//! ### Bit-identical by construction
//!
//! Every kernel is required to be **bit-identical** to the scalar path
//! (and therefore to `crate::reference::compress_reference`) on all inputs
//! the pipeline can produce — the per-arm oracle in
//! `tests/codec_properties.rs` enforces this over randomized and
//! adversarial (NaN/Inf/subnormal) blocks. The arithmetic makes that
//! tractable:
//!
//! * classification, biasing and the error totals are pure integer ops
//!   (order-free, exact);
//! * the float work is all power-of-two scaling plus IEEE round-to-nearest
//!   conversions, which `cvtps2dq`/`cvtdq2ps` implement exactly as the
//!   scalar casts do (MXCSR default rounding);
//! * the interpolation's integer lerp is evaluated in f64 lanes where
//!   every intermediate (≤ 2³⁷) is exactly representable, so the truncated
//!   division comes out identical to the scalar i64 arithmetic.
//!
//! The Fixed32 error check keeps its scalar form everywhere: its running
//! f64 relative-error sum divides per value and is order-sensitive.
//!
//! ### Dispatch
//!
//! [`kernels`] is the process's dispatch table. The arm is detected once
//! (and cached): AVX2 if the CPU reports it, else SSE2 on x86-64, else
//! scalar. The `AVR_NO_SIMD` knob (`avr_types::knobs`) forces the scalar
//! fallback (CI runs a leg with it so the portable path cannot rot). The
//! codec runs on the table its scratch carries
//! ([`crate::CompressScratch::with_kernels`]), which is [`kernels`] unless
//! the caller picks one arm's table from [`dispatch_kernels_for`] or
//! [`kernels_for`], as the per-arm tests and benches do.

use crate::block::SUMMARY_VALUES;
use avr_types::knobs::knobs;
use avr_types::VALUES_PER_BLOCK;
use std::sync::OnceLock;

pub(crate) mod scalar;
#[cfg(target_arch = "x86_64")]
mod x86;

/// One dispatch arm of the codec kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdArm {
    /// Portable scalar loops (the PR-1 autovectorized path).
    Scalar,
    /// Explicit 128-bit `std::arch` kernels (x86-64 baseline).
    Sse2,
    /// Explicit 256-bit kernels, runtime-detected.
    Avx2,
}

impl SimdArm {
    /// Short lower-case label (for logs, JSON and bench output).
    pub fn name(self) -> &'static str {
        match self {
            SimdArm::Scalar => "scalar",
            SimdArm::Sse2 => "sse2",
            SimdArm::Avx2 => "avx2",
        }
    }

    /// All arms, strongest last.
    pub const ALL: [SimdArm; 3] = [SimdArm::Scalar, SimdArm::Sse2, SimdArm::Avx2];
}

/// Verdict of one 64-value chunk of the fused error check: the chunk's
/// bitmap word, its outlier count, and the integer mantissa-difference
/// error total of its non-outliers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChunkVerdict {
    pub bitmap: u64,
    pub outliers: u32,
    pub err_sum: u64,
}

/// The fused error check's chunk width (one bitmap word of values).
pub const CHUNK: usize = 64;

/// Signature of the chunked error-check kernel: `(orig_words,
/// recon_fixed, recon_words_out, neg_bias, mantissa_limit)`.
pub type CheckChunkF32Fn =
    fn(&[u32; CHUNK], &[i32; CHUNK], &mut [u32; CHUNK], i32, u32) -> ChunkVerdict;

/// One arm's kernel table — the four hot loops as plain `fn` pointers so
/// the codec body stays arm-agnostic.
pub struct CodecKernels {
    pub arm: SimdArm,
    /// Batch float→fixed conversion of a whole block (see the crate-
    /// private `scalar::to_fixed_block_f32` for the exact semantics).
    pub to_fixed_f32: fn(&[u32; VALUES_PER_BLOCK], i8, &mut [i32; VALUES_PER_BLOCK]),
    /// Both layouts' sub-block averages in one sweep.
    pub downsample_both:
        fn(&[i32; VALUES_PER_BLOCK], &mut [i64; SUMMARY_VALUES], &mut [i64; SUMMARY_VALUES]),
    /// 1-D reconstruction fused with the i32 write-out clamp. The wide
    /// arms require every summary value in i32 range — guaranteed by
    /// construction for the codec (summaries are sub-block averages of
    /// i32 fixed values); other callers must uphold it or use the scalar
    /// arm, which handles the full i64 domain.
    pub reconstruct_1d: fn(&[i64; SUMMARY_VALUES], &mut [i32; VALUES_PER_BLOCK]),
    /// 2-D (4×4-tile bilinear) reconstruction, same contract.
    pub reconstruct_2d: fn(&[i64; SUMMARY_VALUES], &mut [i32; VALUES_PER_BLOCK]),
    /// Fused fixed→float + unbias + classify + reduce over one 64-value
    /// chunk (F32 data): writes the reconstructed words and returns the
    /// chunk's bitmap/outlier-count/error-sum.
    pub check_chunk_f32: CheckChunkF32Fn,
}

static SCALAR_KERNELS: CodecKernels = CodecKernels {
    arm: SimdArm::Scalar,
    to_fixed_f32: scalar::to_fixed_block_f32,
    downsample_both: crate::downsample::downsample_both_scalar,
    reconstruct_1d: scalar::reconstruct_1d,
    reconstruct_2d: scalar::reconstruct_2d,
    check_chunk_f32: scalar::check_chunk_f32,
};

#[cfg(target_arch = "x86_64")]
static SSE2_KERNELS: CodecKernels = CodecKernels {
    arm: SimdArm::Sse2,
    to_fixed_f32: x86::to_fixed_f32_sse2,
    downsample_both: x86::downsample_both_sse2,
    reconstruct_1d: x86::reconstruct_1d_sse2,
    reconstruct_2d: x86::reconstruct_2d_sse2,
    check_chunk_f32: x86::check_chunk_f32_sse2,
};

#[cfg(target_arch = "x86_64")]
static AVX2_KERNELS: CodecKernels = CodecKernels {
    arm: SimdArm::Avx2,
    to_fixed_f32: x86::to_fixed_f32_avx2,
    downsample_both: x86::downsample_both_avx2,
    reconstruct_1d: x86::reconstruct_1d_avx2,
    reconstruct_2d: x86::reconstruct_2d_avx2,
    check_chunk_f32: x86::check_chunk_f32_avx2,
};

/// The *dispatch* table for SSE2-only hosts: a per-kernel arm mix. The
/// SSE2 `reconstruct_1d` (a 2-lane f64 lerp) measures *slower* than the
/// scalar arm's autovectorized integer loop (PERFORMANCE.md, ROADMAP
/// PR-3 note), so the mix keeps every other kernel on the explicit
/// 128-bit path and routes the 1-D reconstruction to the scalar loop.
/// Irrelevant on AVX2 hosts — their dispatch table is pure AVX2. All arms
/// are bit-identical, so the mix changes performance only; the per-arm
/// oracle in `tests/codec_properties.rs` and the `equivalence` module
/// below cover the mixed table alongside the pure ones.
#[cfg(target_arch = "x86_64")]
static SSE2_DISPATCH_KERNELS: CodecKernels = CodecKernels {
    arm: SimdArm::Sse2,
    to_fixed_f32: x86::to_fixed_f32_sse2,
    downsample_both: x86::downsample_both_sse2,
    reconstruct_1d: scalar::reconstruct_1d,
    reconstruct_2d: x86::reconstruct_2d_sse2,
    check_chunk_f32: x86::check_chunk_f32_sse2,
};

/// Does the running CPU support `arm`? (Scalar always does.)
pub fn arm_supported(arm: SimdArm) -> bool {
    match arm {
        SimdArm::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        SimdArm::Sse2 => true,
        #[cfg(target_arch = "x86_64")]
        SimdArm::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        #[cfg(not(target_arch = "x86_64"))]
        _ => false,
    }
}

/// The arms the running CPU supports, strongest last.
pub fn supported_arms() -> impl Iterator<Item = SimdArm> {
    SimdArm::ALL.into_iter().filter(|&a| arm_supported(a))
}

/// The *pure* kernel table of a specific arm, if the CPU supports it —
/// every slot on that arm's explicit kernels. This ignores `AVR_NO_SIMD`
/// — it is the tests'/benches' direct line to one arm's kernels
/// (including the SSE2 1-D lerp the dispatch mix avoids).
pub fn kernels_for(arm: SimdArm) -> Option<&'static CodecKernels> {
    if !arm_supported(arm) {
        return None;
    }
    Some(match arm {
        SimdArm::Scalar => &SCALAR_KERNELS,
        #[cfg(target_arch = "x86_64")]
        SimdArm::Sse2 => &SSE2_KERNELS,
        #[cfg(target_arch = "x86_64")]
        SimdArm::Avx2 => &AVX2_KERNELS,
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("arm_supported() admits only Scalar off x86-64"),
    })
}

/// The *dispatch* table of a specific arm: what [`kernels`] actually
/// serves when that arm is active. Scalar and AVX2 dispatch their pure
/// tables; SSE2 dispatches the per-kernel mix (scalar 1-D reconstruction,
/// explicit 128-bit everything else).
pub fn dispatch_kernels_for(arm: SimdArm) -> Option<&'static CodecKernels> {
    #[cfg(target_arch = "x86_64")]
    if arm == SimdArm::Sse2 {
        return Some(&SSE2_DISPATCH_KERNELS);
    }
    kernels_for(arm)
}

/// Runtime-detected arm: AVX2 > SSE2 > scalar, or scalar when the
/// `AVR_NO_SIMD` knob is on.
fn detected_arm() -> SimdArm {
    if knobs().no_simd {
        return SimdArm::Scalar;
    }
    SimdArm::ALL.into_iter().rev().find(|&a| arm_supported(a)).unwrap_or(SimdArm::Scalar)
}

/// The process's dispatch table: the *dispatch* table of the detected arm
/// — a per-kernel arm mix where a wide kernel loses to the scalar loop
/// (today: the SSE2 1-D reconstruction). Detected once per process.
#[inline]
pub fn kernels() -> &'static CodecKernels {
    static DISPATCH: OnceLock<&'static CodecKernels> = OnceLock::new();
    DISPATCH.get_or_init(|| {
        dispatch_kernels_for(detected_arm()).expect("the detected arm is supported")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_supported_and_dispatch_follows_the_knob() {
        assert!(arm_supported(SimdArm::Scalar));
        assert!(std::ptr::eq(kernels(), dispatch_kernels_for(detected_arm()).unwrap()));
        assert_eq!(
            kernels().arm == SimdArm::Scalar,
            knobs().no_simd || !arm_supported(SimdArm::Sse2)
        );
    }

    #[test]
    fn supported_arms_have_tables_with_matching_tags() {
        for arm in supported_arms() {
            let k = kernels_for(arm).expect("supported arm must have a table");
            assert_eq!(k.arm, arm);
            let d = dispatch_kernels_for(arm).expect("supported arm must have a dispatch table");
            assert_eq!(d.arm, arm);
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_is_baseline_on_x86_64() {
        assert!(arm_supported(SimdArm::Sse2));
        assert!(kernels_for(SimdArm::Sse2).is_some());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn sse2_dispatch_is_the_documented_per_kernel_mix() {
        let pure = kernels_for(SimdArm::Sse2).unwrap();
        let mix = dispatch_kernels_for(SimdArm::Sse2).unwrap();
        // The 1-D reconstruction routes to the scalar loop (the SSE2 f64
        // lerp is slower — ROADMAP PR-3 note)...
        assert_eq!(mix.reconstruct_1d as usize, SCALAR_KERNELS.reconstruct_1d as usize);
        assert_ne!(mix.reconstruct_1d as usize, pure.reconstruct_1d as usize);
        // ...while every other slot keeps the explicit 128-bit kernel.
        assert_eq!(mix.to_fixed_f32 as usize, pure.to_fixed_f32 as usize);
        assert_eq!(mix.downsample_both as usize, pure.downsample_both as usize);
        assert_eq!(mix.reconstruct_2d as usize, pure.reconstruct_2d as usize);
        assert_eq!(mix.check_chunk_f32 as usize, pure.check_chunk_f32 as usize);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn scalar_and_avx2_dispatch_tables_are_their_pure_tables() {
        assert!(std::ptr::eq(
            dispatch_kernels_for(SimdArm::Scalar).unwrap(),
            kernels_for(SimdArm::Scalar).unwrap()
        ));
        if arm_supported(SimdArm::Avx2) {
            assert!(std::ptr::eq(
                dispatch_kernels_for(SimdArm::Avx2).unwrap(),
                kernels_for(SimdArm::Avx2).unwrap()
            ));
        }
    }
}

/// Kernel-level bit-identity: every wide arm against the scalar oracle on
/// adversarial inputs (full random bit patterns — NaN/Inf/subnormals —
/// plus i32 extremes), beyond what pipeline-reachable blocks exercise.
/// The whole-pipeline per-arm oracle lives in `tests/codec_properties.rs`.
#[cfg(test)]
mod equivalence {
    use super::*;

    /// splitmix64 — deterministic, offline-friendly.
    struct Rng(u64);

    impl Rng {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
    }

    /// Every non-scalar table the host can execute: each wide arm's pure
    /// kernels *and* its dispatch mix (deduplicated), so the mixed SSE2
    /// table is oracled exactly like the pure ones.
    fn wide_arms() -> Vec<&'static CodecKernels> {
        let mut tables: Vec<&'static CodecKernels> = Vec::new();
        for a in supported_arms().filter(|&a| a != SimdArm::Scalar) {
            for t in
                [kernels_for(a).expect("supported"), dispatch_kernels_for(a).expect("supported")]
            {
                if !tables.iter().any(|have| std::ptr::eq(*have, t)) {
                    tables.push(t);
                }
            }
        }
        tables
    }

    /// Random raw words with a heavy dose of specials: NaN payloads, ±Inf,
    /// subnormals, ±0 and sign-flip pairs.
    fn adversarial_words(rng: &mut Rng) -> [u32; VALUES_PER_BLOCK] {
        let mut words = [0u32; VALUES_PER_BLOCK];
        for w in words.iter_mut() {
            *w = match rng.next_u64() % 8 {
                0 => f32::NAN.to_bits() | (rng.next_u32() & 0x7F_FFFF),
                1 => f32::INFINITY.to_bits() | (rng.next_u32() & 0x8000_0000),
                2 => rng.next_u32() & 0x807F_FFFF, // subnormal / ±0
                3 => rng.next_u32() ^ 0x8000_0000, // sign-flipped twin
                _ => rng.next_u32(),
            };
        }
        words
    }

    #[test]
    fn to_fixed_arms_match_scalar_on_adversarial_words() {
        let mut rng = Rng(0x51D0_0001);
        for case in 0..200 {
            let words = adversarial_words(&mut rng);
            // Specials only ever meet bias 0 in the pipeline (choose_bias
            // rule (a)), but the kernels are deterministic on any (words,
            // bias) pair — test the full product.
            let bias = (rng.next_u64() & 0xFF) as u8 as i8;
            let mut want = [0i32; VALUES_PER_BLOCK];
            (SCALAR_KERNELS.to_fixed_f32)(&words, bias, &mut want);
            for k in wide_arms() {
                let mut got = [0i32; VALUES_PER_BLOCK];
                (k.to_fixed_f32)(&words, bias, &mut got);
                assert_eq!(got, want, "case {case} bias {bias} arm {:?}", k.arm);
            }
        }
    }

    #[test]
    fn downsample_arms_match_scalar_on_extreme_fixed() {
        let mut rng = Rng(0x51D0_0002);
        for case in 0..200 {
            let mut fixed = [0i32; VALUES_PER_BLOCK];
            for v in fixed.iter_mut() {
                *v = match rng.next_u64() % 5 {
                    0 => i32::MIN,
                    1 => i32::MAX,
                    _ => rng.next_u32() as i32,
                };
            }
            let (mut w1, mut w2) = ([0i64; SUMMARY_VALUES], [0i64; SUMMARY_VALUES]);
            (SCALAR_KERNELS.downsample_both)(&fixed, &mut w1, &mut w2);
            for k in wide_arms() {
                let (mut g1, mut g2) = ([0i64; SUMMARY_VALUES], [0i64; SUMMARY_VALUES]);
                (k.downsample_both)(&fixed, &mut g1, &mut g2);
                assert_eq!((g1, g2), (w1, w2), "case {case} arm {:?}", k.arm);
            }
        }
    }

    #[test]
    fn reconstruct_arms_match_scalar_over_the_i32_summary_domain() {
        let mut rng = Rng(0x51D0_0003);
        for case in 0..400 {
            let mut summary = [0i64; SUMMARY_VALUES];
            for s in summary.iter_mut() {
                *s = match rng.next_u64() % 6 {
                    0 => i32::MIN as i64,
                    1 => i32::MAX as i64,
                    2 => 0,
                    _ => rng.next_u32() as i32 as i64,
                };
            }
            for (name, pick) in [
                ("1d", (|k: &CodecKernels| k.reconstruct_1d) as fn(&CodecKernels) -> _),
                ("2d", |k: &CodecKernels| k.reconstruct_2d),
            ] {
                let mut want = [0i32; VALUES_PER_BLOCK];
                pick(&SCALAR_KERNELS)(&summary, &mut want);
                for k in wide_arms() {
                    let mut got = [0i32; VALUES_PER_BLOCK];
                    pick(k)(&summary, &mut got);
                    assert_eq!(got, want, "case {case} {name} arm {:?}", k.arm);
                }
            }
        }
    }

    #[test]
    fn check_chunk_arms_match_scalar_on_adversarial_pairs() {
        let mut rng = Rng(0x51D0_0004);
        for case in 0..300 {
            let words = adversarial_words(&mut rng);
            let ow: &[u32; CHUNK] = words[..CHUNK].try_into().unwrap();
            let mut rf = [0i32; CHUNK];
            for v in rf.iter_mut() {
                *v = match rng.next_u64() % 4 {
                    0 => i32::MIN,
                    1 => i32::MAX,
                    _ => rng.next_u32() as i32,
                };
            }
            let neg_bias = (rng.next_u64() & 0xFF) as u8 as i8 as i32;
            // Every mantissa limit Thresholds::new can produce (N = 1..=23).
            let limit = 1u32 << (rng.next_u64() % 23);
            let mut want_rw = [0u32; CHUNK];
            let want = (SCALAR_KERNELS.check_chunk_f32)(ow, &rf, &mut want_rw, neg_bias, limit);
            for k in wide_arms() {
                let mut got_rw = [0u32; CHUNK];
                let got = (k.check_chunk_f32)(ow, &rf, &mut got_rw, neg_bias, limit);
                assert_eq!(got, want, "case {case} arm {:?}", k.arm);
                assert_eq!(got_rw, want_rw, "case {case} arm {:?}: recon words", k.arm);
            }
        }
    }
}
