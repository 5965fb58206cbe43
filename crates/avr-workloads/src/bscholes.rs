//! `bscholes` — Black-Scholes option pricing (AxBench): predicts option
//! prices from historical parameters. Approximable data: the option
//! parameters ("Options"); output: the prices. The input has repeated
//! field values across entries (the property Doppelgänger exploits), and
//! the benchmark is compute-bound — the paper sees little impact from any
//! design here.

use crate::golden::GoldenKey;
use crate::runner::{BenchScale, Workload};
use crate::terrain::hash01;
use avr_core::{FieldSpec, Layout, LayoutKind, RecordSchema, Vm};

/// The Black-Scholes benchmark.
pub struct BlackScholes {
    pub options: usize,
}

impl BlackScholes {
    pub fn at_scale(scale: BenchScale) -> Self {
        match scale {
            BenchScale::Tiny => BlackScholes { options: 4096 },
            // 7 arrays x 4 B x N ≈ 6 MB, matching the paper's footprint;
            // ~29 % of it approximable (spot + strike).
            BenchScale::Bench => BlackScholes { options: 220_000 },
        }
    }

    /// One record per option: the AxBench seven-field option structure.
    /// Only spot and strike are approximable, so conservative AoS prices
    /// the whole record precise (the granularity gap), while partitioned
    /// placement splits the record into an approximable {spot, strike}
    /// pair and a precise five-field remainder.
    fn schema() -> RecordSchema {
        RecordSchema::new(
            "option",
            vec![
                FieldSpec::approx_f32("spot"),
                FieldSpec::approx_f32("strike"),
                FieldSpec::precise_f32("expiry"),
                FieldSpec::precise_f32("rate"),
                FieldSpec::precise_f32("vol"),
                FieldSpec::precise_f32("call"),
                FieldSpec::precise_f32("put"),
            ],
        )
    }
}

/// Field indices into [`BlackScholes::schema`].
const SPOT: usize = 0;
const STRIKE: usize = 1;
const EXPIRY: usize = 2;
const RATE: usize = 3;
const VOL: usize = 4;
const CALL: usize = 5;
const PUT: usize = 6;

/// Standard normal CDF via the Abramowitz–Stegun polynomial (the usual
/// blackscholes-kernel approximation).
fn norm_cdf(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.2316419 * x.abs());
    let poly = t
        * (0.319381530
            + t * (-0.356563782 + t * (1.781477937 + t * (-1.821255978 + t * 1.330274429))));
    let pdf = (-(x * x) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt();
    if x >= 0.0 {
        1.0 - pdf * poly
    } else {
        pdf * poly
    }
}

impl Workload for BlackScholes {
    fn name(&self) -> &'static str {
        "bscholes"
    }

    fn golden_key(&self) -> Option<GoldenKey> {
        Some(GoldenKey::new("bscholes", &[self.options as u64], 0))
    }

    fn cost_hint(&self) -> u64 {
        // Seven input/output arrays streamed once, plus the kernel math.
        (self.options * 8) as u64
    }

    fn layouts(&self) -> &'static [LayoutKind] {
        &[LayoutKind::Soa, LayoutKind::Aos, LayoutKind::Partitioned]
    }

    fn run_in(&self, vm: &mut dyn Vm, layout: LayoutKind) -> Vec<f64> {
        let n = self.options;
        // The seven option fields (approximable spot/strike, precise
        // rest), placed by the layout.
        let map = Layout::new(Self::schema(), layout).instantiate(vm, n);

        // Inputs: clustered around a handful of underlyings, so many
        // entries share identical field values (AxBench-style data).
        // Chunked generation: one bulk store per field per chunk.
        const CHUNK: usize = 2048;
        let mut buf_s = vec![0f32; CHUNK];
        let mut buf_k = vec![0f32; CHUNK];
        let mut buf_t = vec![0f32; CHUNK];
        let mut buf_r = vec![0f32; CHUNK];
        let mut buf_v = vec![0f32; CHUNK];
        for start in (0..n).step_by(CHUNK) {
            let len = CHUNK.min(n - start);
            for o in 0..len {
                let i = start + o;
                // Underlying groups are block-aligned (256 entries = one
                // AVR memory block), entries within a group drift gently,
                // and a sprinkle of idiosyncratic quotes provides the
                // outliers that hold the ratio near the paper's 4.7:1.
                let underlying = 40.0 + 20.0 * ((i / 256) % 8) as f32;
                let mut s = underlying + (i % 256) as f32 * 0.002;
                if i % 16 == 7 {
                    s += 4.0 + 8.0 * hash01(i as u64, 0xB5);
                }
                buf_s[o] = s;
                buf_k[o] = underlying * 0.85 + 0.3 * ((i / 64) % 4) as f32;
                buf_t[o] = 0.25 + 0.25 * ((i / 256) % 4) as f32;
                buf_r[o] = 0.02 + 0.0 * hash01(i as u64, 3);
                buf_v[o] = 0.20 + 0.10 * ((i / 32) % 3) as f32;
            }
            vm.compute(24 * len as u64);
            map.write_f32s(vm, SPOT, start, &buf_s[..len]);
            map.write_f32s(vm, STRIKE, start, &buf_k[..len]);
            map.write_f32s(vm, EXPIRY, start, &buf_t[..len]);
            map.write_f32s(vm, RATE, start, &buf_r[..len]);
            map.write_f32s(vm, VOL, start, &buf_v[..len]);
        }

        // Price every option: stream the five input fields chunk-wise and
        // store each chunk's call/put prices with two bulk writes.
        let mut buf_c = vec![0f32; CHUNK];
        let mut buf_p = vec![0f32; CHUNK];
        for start in (0..n).step_by(CHUNK) {
            let len = CHUNK.min(n - start);
            map.read_f32s(vm, SPOT, start, &mut buf_s[..len]);
            map.read_f32s(vm, STRIKE, start, &mut buf_k[..len]);
            map.read_f32s(vm, EXPIRY, start, &mut buf_t[..len]);
            map.read_f32s(vm, RATE, start, &mut buf_r[..len]);
            map.read_f32s(vm, VOL, start, &mut buf_v[..len]);
            for o in 0..len {
                let s = buf_s[o] as f64;
                let k = buf_k[o] as f64;
                let t = buf_t[o] as f64;
                let r = buf_r[o] as f64;
                let v = buf_v[o] as f64;
                let sqrt_t = t.sqrt();
                let d1 = ((s / k).ln() + (r + v * v / 2.0) * t) / (v * sqrt_t);
                let d2 = d1 - v * sqrt_t;
                let c = s * norm_cdf(d1) - k * (-r * t).exp() * norm_cdf(d2);
                let p = k * (-r * t).exp() * norm_cdf(-d2) - s * norm_cdf(-d1);
                buf_c[o] = c as f32;
                buf_p[o] = p as f32;
            }
            // The kernel costs ~200 scalar ops (ln, exp, sqrt, divisions,
            // two CDF polynomials): this is what makes it compute-bound.
            vm.compute(420 * len as u64);
            map.write_f32s(vm, CALL, start, &buf_c[..len]);
            map.write_f32s(vm, PUT, start, &buf_p[..len]);
        }

        // Output: the predicted prices (every 16th option).
        let samples = n.div_ceil(16);
        let mut out_c = vec![0f32; samples];
        let mut out_p = vec![0f32; samples];
        map.read_f32s_every(vm, CALL, 0, 16, &mut out_c);
        map.read_f32s_every(vm, PUT, 0, 16, &mut out_p);
        let mut out = Vec::with_capacity(2 * samples);
        for (c, p) in out_c.iter().zip(&out_p) {
            out.push(*c as f64);
            out.push(*p as f64);
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
    fn norm_cdf_sanity() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!(norm_cdf(3.0) > 0.998);
        assert!(norm_cdf(-3.0) < 0.002);
        // Symmetry.
        assert!((norm_cdf(1.2) + norm_cdf(-1.2) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn prices_respect_no_arbitrage_bounds() {
        let w = BlackScholes::at_scale(BenchScale::Tiny);
        let mut vm = ExactVm::new();
        let out = w.run(&mut vm);
        // Calls and puts are nonnegative and bounded by the underlying /
        // strike scale.
        for pair in out.chunks(2) {
            assert!(pair[0] >= -1e-6, "negative call {}", pair[0]);
            assert!(pair[1] >= -1e-6, "negative put {}", pair[1]);
            assert!(pair[0] < 200.0 && pair[1] < 200.0);
        }
    }

    #[test]
    fn put_call_parity_holds_on_exact_run() {
        // C - P = S - K e^{-rT}; spot-check one configuration.
        let s = 60.0f64;
        let k = 57.0f64;
        let (t, r, v) = (0.5f64, 0.02f64, 0.25f64);
        let sqrt_t = t.sqrt();
        let d1 = ((s / k).ln() + (r + v * v / 2.0) * t) / (v * sqrt_t);
        let d2 = d1 - v * sqrt_t;
        let c = s * norm_cdf(d1) - k * (-r * t).exp() * norm_cdf(d2);
        let p = k * (-r * t).exp() * norm_cdf(-d2) - s * norm_cdf(-d1);
        assert!((c - p - (s - k * (-r * t).exp())).abs() < 1e-6);
    }

    #[test]
    fn avr_error_is_small() {
        let w = BlackScholes::at_scale(BenchScale::Tiny);
        // Codec-only band: pin the exact device so an AVR_BACKEND
        // override can't smear it (fault behavior is covered by
        // tests/fault_injection.rs).
        let cfg = SystemConfig::tiny().with_backend(avr_core::BackendKind::Exact);
        let m = run_on_design(&w, &cfg, DesignKind::Avr);
        assert!(m.output_error < 0.05, "bscholes AVR error {}", m.output_error);
    }
}
