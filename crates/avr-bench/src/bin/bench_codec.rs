//! Codec throughput comparison: retained reference implementation vs. the
//! fused hot path, emitted as a machine-readable `BENCH_<tag>.json`
//! trajectory file (one line of JSON, written through
//! [`avr_server::Json`]) so every PR's codec performance is tracked in-repo.
//!
//! Usage: `bench_codec [output.json]` (default `BENCH_current.json`).
//! The committed codec trajectory file is `BENCH_PR3.json`; CI's smoke
//! mode (the `AVR_BENCH_FAST` knob) shrinks the measurement.
//!
//! Three sections are measured:
//!
//! * **`kernels`** — reference vs. fused whole-codec timing on the
//!   smooth/spiky/noise blocks, on the auto-dispatched SIMD arm (the
//!   numbers the PR1→PR2→… trajectory compares);
//! * **`codec_arms`** — the fused codec re-timed on each arm's dispatch
//!   table the host supports (scalar / SSE2 / AVX2), so the win of each
//!   explicit-SIMD backend is part of the record;
//! * **`simd_kernels`** — per-kernel ns/value microbenchmarks of the four
//!   dispatched hot loops (`to_fixed_f32`, `downsample_both`,
//!   `reconstruct_1d`/`2d`, `check_chunk_f32`) on every arm.
//!
//! Measurement: reference and fused samples interleave (`SAMPLES` batches
//! of `ITERS` calls each) and the reported figure is the per-iteration
//! median — robust to scheduler noise on shared machines.

use avr_bench::codec_kernels::{noise_block, smooth_block, spiky_block};
use avr_compress::simd::{self, CodecKernels};
use avr_compress::{choose_bias, compress_reference, compress_with, CompressScratch, Thresholds};
use avr_server::Json;
use avr_types::knobs::knobs;
use avr_types::{BlockData, DataType, VALUES_PER_BLOCK};
use std::time::Instant;

struct Measurement {
    kernel: &'static str,
    reference_ns: f64,
    fused_ns: f64,
}

impl Measurement {
    fn speedup(&self) -> f64 {
        self.reference_ns / self.fused_ns
    }
}

/// One arm's fused whole-codec timing on one block kernel.
struct ArmMeasurement {
    kernel: &'static str,
    arm: &'static str,
    fused_ns: f64,
}

/// One arm's ns/value on one of the four dispatched hot loops.
struct KernelTiming {
    kernel: &'static str,
    arm: &'static str,
    ns_per_value: f64,
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn measure(kernel: &'static str, block: &BlockData, fast: bool) -> Measurement {
    let th = Thresholds::paper_default();
    // The fused kernel on reused scratch, as `Compressor` runs it, but
    // without its memo: every call here repeats one input.
    let mut scratch = CompressScratch::new();
    let (iters, samples, warmup) = if fast { (500u32, 11, 2_000u32) } else { (2_000, 41, 10_000) };

    let reference = || compress_reference(block, DataType::F32, &th, 8).is_ok();
    let mut fused = || compress_with(&mut scratch, block, DataType::F32, &th, 8).is_ok();
    for _ in 0..warmup {
        std::hint::black_box(reference());
        std::hint::black_box(fused());
    }

    let mut ref_ns = Vec::with_capacity(samples);
    let mut fused_ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(reference());
        }
        ref_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        let t0 = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(fused());
        }
        fused_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    Measurement { kernel, reference_ns: median(ref_ns), fused_ns: median(fused_ns) }
}

/// Median ns per call of `f` over interleaved sample batches.
fn time_ns(mut f: impl FnMut(), iters: u32, samples: usize, warmup: u32) -> f64 {
    for _ in 0..warmup {
        f();
    }
    let mut ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    median(ns)
}

/// Fused whole-codec timing on each arm's dispatch table.
fn measure_codec_arms(kernels: &[(&'static str, BlockData)], fast: bool) -> Vec<ArmMeasurement> {
    let th = Thresholds::paper_default();
    let (iters, samples, warmup) = if fast { (500u32, 9, 1_000u32) } else { (2_000, 21, 5_000) };
    let mut out = Vec::new();
    for arm in simd::supported_arms() {
        let table = simd::dispatch_kernels_for(arm).expect("supported arm");
        for (name, block) in kernels {
            let mut scratch = CompressScratch::with_kernels(table);
            let ns = time_ns(
                || {
                    std::hint::black_box(
                        compress_with(&mut scratch, block, DataType::F32, &th, 8).is_ok(),
                    );
                },
                iters,
                samples,
                warmup,
            );
            out.push(ArmMeasurement { kernel: name, arm: arm.name(), fused_ns: ns });
        }
    }
    out
}

/// ns/value microbenchmarks of the four dispatched hot loops, per arm.
/// All kernels process one 256-value block per call (`check_chunk_f32`
/// covers its four 64-value chunks).
fn measure_simd_kernels(fast: bool) -> Vec<KernelTiming> {
    let th = Thresholds::paper_default();
    let block = smooth_block();
    let bias = choose_bias(&block.words).value();
    let neg_bias = bias.wrapping_neg() as i32;
    let limit = th.mantissa_limit();
    let (iters, samples, warmup) = if fast { (2_000u32, 9, 1_000u32) } else { (20_000, 21, 5_000) };
    let per_call = VALUES_PER_BLOCK as f64;

    let mut out = Vec::new();
    for arm in simd::supported_arms() {
        let k: &'static CodecKernels = simd::kernels_for(arm).expect("supported arm");
        // Representative inputs, produced by the pipeline itself.
        let mut fixed = [0i32; VALUES_PER_BLOCK];
        (k.to_fixed_f32)(&block.words, bias, &mut fixed);
        let mut sum_1d = [0i64; 16];
        let mut sum_2d = [0i64; 16];
        (k.downsample_both)(&fixed, &mut sum_1d, &mut sum_2d);
        let mut recon = [0i32; VALUES_PER_BLOCK];
        let mut recon_words = [0u32; VALUES_PER_BLOCK];
        (k.reconstruct_1d)(&sum_1d, &mut recon);

        let mut push = |kernel: &'static str, ns_per_call: f64| {
            out.push(KernelTiming { kernel, arm: arm.name(), ns_per_value: ns_per_call / per_call })
        };
        push(
            "to_fixed_f32",
            time_ns(
                || (k.to_fixed_f32)(std::hint::black_box(&block.words), bias, &mut fixed),
                iters,
                samples,
                warmup,
            ),
        );
        push(
            "downsample_both",
            time_ns(
                || (k.downsample_both)(std::hint::black_box(&fixed), &mut sum_1d, &mut sum_2d),
                iters,
                samples,
                warmup,
            ),
        );
        push(
            "reconstruct_1d",
            time_ns(
                || (k.reconstruct_1d)(std::hint::black_box(&sum_1d), &mut recon),
                iters,
                samples,
                warmup,
            ),
        );
        push(
            "reconstruct_2d",
            time_ns(
                || (k.reconstruct_2d)(std::hint::black_box(&sum_2d), &mut recon),
                iters,
                samples,
                warmup,
            ),
        );
        push(
            "check_chunk_f32",
            time_ns(
                || {
                    for chunk in 0..4usize {
                        let base = chunk * simd::CHUNK;
                        let ow: &[u32; simd::CHUNK] =
                            block.words[base..base + simd::CHUNK].try_into().unwrap();
                        let rf: &[i32; simd::CHUNK] =
                            recon[base..base + simd::CHUNK].try_into().unwrap();
                        let rw: &mut [u32; simd::CHUNK] =
                            (&mut recon_words[base..base + simd::CHUNK]).try_into().unwrap();
                        std::hint::black_box((k.check_chunk_f32)(ow, rf, rw, neg_bias, limit));
                    }
                },
                iters,
                samples,
                warmup,
            ),
        );
    }
    out
}

fn main() {
    let out_path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_current.json".to_string());
    // Fail on an unwritable destination *before* spending the measurement.
    if let Err(e) = std::fs::write(&out_path, "{}\n") {
        eprintln!("error: cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    let fast = knobs().bench_fast;

    let kernels: [(&'static str, BlockData); 3] = [
        ("smooth_block", smooth_block()),
        ("spiky_block", spiky_block()),
        ("noise_block", noise_block()),
    ];
    let dispatch_arm = simd::kernels().arm;
    let results: Vec<Measurement> =
        kernels.iter().map(|(name, block)| measure(name, block, fast)).collect();
    let arm_results = measure_codec_arms(&kernels, fast);
    let kernel_results = measure_simd_kernels(fast);

    let kernel_rows = results.iter().map(|m| {
        Json::obj([
            ("kernel", m.kernel.into()),
            ("reference_ns", m.reference_ns.into()),
            ("fused_ns", m.fused_ns.into()),
            ("speedup", m.speedup().into()),
            ("fused_blocks_per_sec", (1e9 / m.fused_ns).into()),
        ])
    });
    let arm_rows = arm_results.iter().map(|m| {
        Json::obj([
            ("kernel", m.kernel.into()),
            ("arm", m.arm.into()),
            ("fused_ns", m.fused_ns.into()),
        ])
    });
    let simd_rows = kernel_results.iter().map(|m| {
        Json::obj([
            ("kernel", m.kernel.into()),
            ("arm", m.arm.into()),
            ("ns_per_value", m.ns_per_value.into()),
        ])
    });
    let doc = Json::obj([
        ("bench", "codec_kernels".into()),
        ("unit", "ns_per_block".into()),
        ("mode", if fast { "fast_smoke" } else { "full" }.into()),
        ("target", "host-native (.cargo/config.toml)".into()),
        ("dispatch_arm", dispatch_arm.name().into()),
        ("kernels", Json::Arr(kernel_rows.collect())),
        ("codec_arms", Json::Arr(arm_rows.collect())),
        ("simd_kernels", Json::Arr(simd_rows.collect())),
    ]);

    println!("dispatch arm: {}", dispatch_arm.name());
    for m in &results {
        println!(
            "{:<14} reference {:>8.1} ns  fused {:>8.1} ns  speedup {:.2}x",
            m.kernel,
            m.reference_ns,
            m.fused_ns,
            m.speedup()
        );
    }
    for m in &arm_results {
        println!("{:<14} [{:<6}] fused {:>8.1} ns", m.kernel, m.arm, m.fused_ns);
    }
    for m in &kernel_results {
        println!("{:<16} [{:<6}] {:>7.3} ns/value", m.kernel, m.arm, m.ns_per_value);
    }
    std::fs::write(&out_path, doc.render() + "\n").expect("write trajectory file");
    println!("wrote {out_path}");

    // The PR's tracked acceptance bar: >= 2x on the compressible kernels.
    // (Informational here; CI treats the committed BENCH_*.json as record.)
    for m in &results {
        if m.kernel != "noise_block" && m.speedup() < 2.0 {
            eprintln!("WARNING: {} speedup {:.2}x below the 2x target", m.kernel, m.speedup());
        }
    }
}
