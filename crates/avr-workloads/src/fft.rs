//! `fft` — radix-2 FFT spectral analysis (AxBench's fft, the extension
//! suite's second workload beyond the paper's seven). An iterative
//! decimation-in-time FFT transforms a full-band linear chirp (no
//! amplitude window — see the input loop); approximable data: the planar
//! re/im working arrays (every pass streams both, so the paper's
//! compress-on-evict machinery sees the data at each stage of the
//! transform). Twiddle factors are computed precisely on the host, once
//! per pass, and never touch simulated memory.
//!
//! The chirp sweeps the whole band, so the output — power integrated over
//! 16 equal frequency bands — has no near-zero entries and the mean
//! relative error stays a meaningful quality metric (AxBench's fft is also
//! judged on average relative error of the spectrum).

use crate::golden::GoldenKey;
use crate::runner::{BenchScale, Workload};
use avr_core::{FieldSpec, Layout, LayoutKind, RecordSchema, Vm};

/// Number of output frequency bands.
const BANDS: usize = 16;

/// Sample index carrying the tiny-scale pulse (see [`Fft::pulse_amp`]):
/// close to t = 0, so the pulse's spectral phase `e^{-2πik·t₀/n}` turns
/// slowly in k and the spectrum is locally smooth.
const PULSE_T: usize = 8;

/// The FFT spectral-analysis benchmark. `log2_n` fixes the transform size.
pub struct Fft {
    pub log2_n: u32,
    /// `BenchScale`-aware input shaping: amplitude of a single-sample
    /// pulse superposed on the chirp (`0.0` = pure chirp, the bench-scale
    /// input, bit-identical to before the knob existed). A chirp's
    /// spectrum has pseudo-random phase bin-to-bin, so the tiny-scale
    /// re/im arrays ended their run 100 % outlier blocks and smoke runs
    /// never exercised the compressor (ROADMAP PR-2 note). The pulse adds
    /// a flat, slowly-turning spectral floor of amplitude `pulse_amp`;
    /// against it the chirp's ~√n-magnitude bins read as relative noise,
    /// so `pulse_amp` is sized (empirically, via `diag_compressibility`)
    /// to land blocks *around* the T1 boundary: partially compressible
    /// final/in-flight states without collapsing the simulated traffic.
    /// Band powers stay flat (the pulse is all-band), keeping the output
    /// metric well-conditioned.
    pub pulse_amp: f32,
}

impl Fft {
    pub fn at_scale(scale: BenchScale) -> Self {
        match scale {
            // 16 K points: 128 KB of planar re/im against the 64 KB tiny
            // LLC, so every pass spills and recompresses.
            BenchScale::Tiny => Fft { log2_n: 14, pulse_amp: 16384.0 },
            // 512 K points: 4 MB against the 1 MB per-core LLC share.
            BenchScale::Bench => Fft { log2_n: 19, pulse_amp: 0.0 },
        }
    }

    #[inline]
    fn n(&self) -> usize {
        1 << self.log2_n
    }

    /// One record per sample: the complex pair. SoA keeps the planar
    /// re/im arrays of the historical port; AoS stores interleaved
    /// complex values, the other textbook FFT memory layout.
    fn schema() -> RecordSchema {
        RecordSchema::new("cpx", vec![FieldSpec::approx_f32("re"), FieldSpec::approx_f32("im")])
    }
}

/// Field indices into [`Fft::schema`].
const RE: usize = 0;
const IM: usize = 1;

impl Workload for Fft {
    fn name(&self) -> &'static str {
        "fft"
    }

    fn golden_key(&self) -> Option<GoldenKey> {
        Some(GoldenKey::new(
            "fft",
            &[u64::from(self.log2_n), u64::from(self.pulse_amp.to_bits())],
            0,
        ))
    }

    fn cost_hint(&self) -> u64 {
        // log2(n) butterfly passes over planar re/im — the suite's long
        // pole (~45× the lightest workloads in simulated blocks).
        (self.n() as u64) * u64::from(self.log2_n) * 4
    }

    fn layouts(&self) -> &'static [LayoutKind] {
        &[LayoutKind::Soa, LayoutKind::Aos]
    }

    fn run_in(&self, vm: &mut dyn Vm, layout: LayoutKind) -> Vec<f64> {
        let n = self.n();
        // Approximable: the complex working arrays, placed by the layout.
        let map = Layout::new(Self::schema(), layout).instantiate(vm, n);

        // Input: a full-band linear chirp sweeping DC → Nyquist, written
        // directly in bit-reversed positions so the passes run in order —
        // a textbook scatter, issued in index chunks. No amplitude window:
        // a windowed chirp's band powers follow the window's envelope,
        // which would starve the edge bands; the bare chirp keeps all 16
        // output bands comparably powered.
        const CHUNK: usize = 1024;
        let nf = n as f64;
        let mut sc_idx = vec![0u32; CHUNK];
        let mut sc_val = vec![0f32; CHUNK];
        for start in (0..n).step_by(CHUNK) {
            let len = CHUNK.min(n - start);
            for o in 0..len {
                let i = start + o;
                let t = i as f64 / nf;
                let phase = std::f64::consts::PI * nf * 0.5 * t * t;
                let chirp = phase.cos() as f32;
                // Tiny-scale pulse (see `pulse_amp`); the bench-scale
                // branch (pulse_amp == 0) writes the exact pre-knob chirp
                // stream.
                let rev = ((i as u64).reverse_bits() >> (64 - self.log2_n)) as usize;
                sc_idx[o] = map.elem(RE, rev);
                sc_val[o] = if self.pulse_amp != 0.0 && i == PULSE_T {
                    chirp + self.pulse_amp
                } else {
                    chirp
                };
            }
            vm.compute(14 * len as u64);
            vm.write_f32s_scatter(map.base(), &sc_idx[..len], &sc_val[..len]);
        }
        // The imaginary plane starts at zero everywhere.
        let zeros = vec![0f32; n];
        map.write_f32s(vm, IM, 0, &zeros);

        // Iterative Cooley–Tukey: log2(n) passes over the full arrays.
        // Each butterfly group's a/b halves are contiguous, so one group
        // is four bulk loads + four bulk stores.
        let mut ar = vec![0f32; n / 2];
        let mut ai = vec![0f32; n / 2];
        let mut br = vec![0f32; n / 2];
        let mut bi = vec![0f32; n / 2];
        let mut twr = vec![0f32; n / 2];
        let mut twi = vec![0f32; n / 2];
        let mut len = 2usize;
        while len <= n {
            let half = len / 2;
            let ang = -2.0 * std::f64::consts::PI / len as f64;
            // Every group of a pass uses the same `half` twiddles: compute
            // them once per pass (n - 1 cos/sin pairs over the transform
            // instead of n / 2 per pass), so the butterflies are pure f32.
            for (k, (wr, wi)) in twr[..half].iter_mut().zip(&mut twi[..half]).enumerate() {
                let a = ang * k as f64;
                (*wr, *wi) = (a.cos() as f32, a.sin() as f32);
            }
            let (twr, twi) = (&twr[..half], &twi[..half]);
            for start in (0..n).step_by(len) {
                let (ar, ai) = (&mut ar[..half], &mut ai[..half]);
                let (br, bi) = (&mut br[..half], &mut bi[..half]);
                map.read_f32s(vm, RE, start, ar);
                map.read_f32s(vm, IM, start, ai);
                map.read_f32s(vm, RE, start + half, br);
                map.read_f32s(vm, IM, start + half, bi);
                for k in 0..half {
                    let (wr, wi) = (twr[k], twi[k]);
                    let tr = wr * br[k] - wi * bi[k];
                    let ti = wr * bi[k] + wi * br[k];
                    let (a_r, a_i) = (ar[k], ai[k]);
                    ar[k] = a_r + tr;
                    ai[k] = a_i + ti;
                    br[k] = a_r - tr;
                    bi[k] = a_i - ti;
                }
                vm.compute(12 * half as u64);
                map.write_f32s(vm, RE, start, ar);
                map.write_f32s(vm, IM, start, ai);
                map.write_f32s(vm, RE, start + half, br);
                map.write_f32s(vm, IM, start + half, bi);
            }
            len <<= 1;
        }

        // Output: power per frequency band over the positive spectrum,
        // read band-by-band with two bulk loads.
        let half = n / 2;
        let per_band = half / BANDS;
        let mut out = Vec::with_capacity(BANDS);
        let mut re_band = vec![0f32; per_band];
        let mut im_band = vec![0f32; per_band];
        for b in 0..BANDS {
            map.read_f32s(vm, RE, b * per_band, &mut re_band);
            map.read_f32s(vm, IM, b * per_band, &mut im_band);
            vm.compute(3 * per_band as u64);
            let acc: f64 = re_band
                .iter()
                .zip(&im_band)
                .map(|(&r, &i)| {
                    let (r, i) = (r as f64, i as f64);
                    r * r + i * i
                })
                .sum();
            out.push(acc / per_band as f64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_on_design;
    use avr_core::{DesignKind, ExactVm, SystemConfig};

    #[test]
    fn exact_spectrum_is_deterministic_and_broadband() {
        let w = Fft::at_scale(BenchScale::Tiny);
        let mut vm1 = ExactVm::new();
        let o1 = w.run(&mut vm1);
        let mut vm2 = ExactVm::new();
        let o2 = w.run(&mut vm2);
        assert_eq!(o1, o2);
        assert_eq!(o1.len(), BANDS);
        // The chirp powers every band: min/max within two orders of
        // magnitude keeps relative error well-conditioned.
        let max = o1.iter().cloned().fold(f64::MIN, f64::max);
        let min = o1.iter().cloned().fold(f64::MAX, f64::min);
        assert!(min > 0.0, "dead band in chirp spectrum");
        assert!(max / min < 100.0, "spectrum too peaky: {max} / {min}");
    }

    #[test]
    fn avr_error_is_bounded_on_tiny_run() {
        let w = Fft::at_scale(BenchScale::Tiny);
        // Codec-only band: pin the exact device so an AVR_BACKEND
        // override can't smear it (fault behavior is covered by
        // tests/fault_injection.rs).
        let cfg = SystemConfig::tiny().with_backend(avr_core::BackendKind::Exact);
        let m = run_on_design(&w, &cfg, DesignKind::Avr);
        assert!(m.output_error < 0.06, "fft AVR error {}", m.output_error);
        assert!(m.cycles > 0);
    }
}
