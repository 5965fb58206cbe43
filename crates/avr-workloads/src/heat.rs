//! `heat` — 2-D thermodynamics (Quinn): Jacobi iteration propagating heat
//! over a grid. Approximable data: the two temperature grids (the paper
//! approximates "Temps"; output is also temperatures). The temperature
//! field is spatially smooth, which is why the paper sees a 10.5:1
//! compression ratio and an ~8× footprint reduction.
//!
//! The initial condition is `BenchScale`-aware (the sobel/fft treatment,
//! ROADMAP PR-3): a 1 KB block is 256 consecutive f32 values regardless of
//! grid size, so the 96-px tiny grid packs ~2.7 *rows* per block where the
//! 928-px bench grid packs a third of one row — the tiny field's per-pixel
//! gradients are ~10× steeper against the same fixed block granularity,
//! and the hard `x == 0` hot-wall jump (500 vs. ~20) lands inside *every*
//! tiny block instead of one block in four. Both together made 100 % of
//! tiny blocks outlier-incompressible, so smoke runs never exercised the
//! compressor path. The tiny scale therefore softens the per-pixel
//! profile: gentler spot amplitudes and an exponentially tapered west
//! wall (same 500-peak, decay length ≫ the 16-value anchor stride). The
//! bench-scale field is bit-identical to what it always was (`wall_taper
//! = 0` takes the exact hard-wall branch).

use crate::golden::GoldenKey;
use crate::runner::{BenchScale, Workload};
use avr_core::{FieldSpec, Layout, LayoutKind, RecordSchema, Vm};
use avr_types::PhysAddr;

/// Cool-plate base temperature.
const PLATE: f32 = 20.0;
/// West-wall peak temperature.
const WALL: f32 = 500.0;

/// The heat-diffusion benchmark.
pub struct Heat {
    pub width: usize,
    pub height: usize,
    pub iters: usize,
    /// Gaussian hot-spot amplitudes (scale-aware; see module docs).
    pub spot_amp: (f32, f32),
    /// West-wall profile: `0` = the paper-style hard `x == 0` wall at
    /// `WALL` (bench); `> 0` = exponential taper with this pixel decay
    /// length (tiny — smooth at the fixed 1 KB block granularity).
    pub wall_taper: f32,
}

impl Heat {
    pub fn at_scale(scale: BenchScale) -> Self {
        match scale {
            // Spot amplitudes ×0.15 and a 48-px wall taper land tiny
            // blocks *astride* the outlier threshold (diag_compressibility:
            // a healthy compressible fraction with real outliers left), so
            // smoke runs exercise compression, outlier packing and the
            // failure path alike.
            BenchScale::Tiny => {
                Heat { width: 96, height: 96, iters: 4, spot_amp: (67.5, 45.0), wall_taper: 48.0 }
            }
            // ~6.8 MB of approximable grids against the 1 MB per-core LLC
            // share: footprint >> LLC, like the paper's 8.2 MB/core.
            BenchScale::Bench => Heat {
                width: 928,
                height: 928,
                iters: 4,
                spot_amp: (450.0, 300.0),
                wall_taper: 0.0,
            },
        }
    }

    #[inline]
    fn addr(base: PhysAddr, idx: usize) -> PhysAddr {
        PhysAddr(base.0 + 4 * idx as u64)
    }

    /// One record per grid cell: the two temperature planes. Both are
    /// approximable, so every layout keeps the field fully compressible;
    /// what AoS changes is that each block interleaves this-iteration and
    /// last-iteration values word by word.
    fn schema() -> RecordSchema {
        RecordSchema::new("cell", vec![FieldSpec::approx_f32("a"), FieldSpec::approx_f32("b")])
    }
}

/// Field indices into [`Heat::schema`].
const A: usize = 0;
const B: usize = 1;

impl Workload for Heat {
    fn name(&self) -> &'static str {
        "heat"
    }

    fn golden_key(&self) -> Option<GoldenKey> {
        // Pure function of every field: grid shape, trip count, and the
        // scale-aware initial-condition knobs.
        Some(GoldenKey::new(
            "heat",
            &[
                self.width as u64,
                self.height as u64,
                self.iters as u64,
                u64::from(self.spot_amp.0.to_bits()),
                u64::from(self.spot_amp.1.to_bits()),
                u64::from(self.wall_taper.to_bits()),
            ],
            0,
        ))
    }

    fn cost_hint(&self) -> u64 {
        // Five stencil reads + one write per cell per Jacobi iteration.
        (self.width * self.height * self.iters * 6) as u64
    }

    fn layouts(&self) -> &'static [LayoutKind] {
        &[LayoutKind::Soa, LayoutKind::Aos]
    }

    fn run_in(&self, vm: &mut dyn Vm, layout: LayoutKind) -> Vec<f64> {
        let (w, h) = (self.width, self.height);
        let n = w * h;
        // Approximable: both temperature grids, placed by the layout.
        let map = Layout::new(Self::schema(), layout).instantiate(vm, n);
        // Precise: per-row heat totals used as a convergence monitor.
        let rowsum = vm.malloc(4 * h).base;

        // Initial condition: two Gaussian hot spots on a cool plate, plus a
        // hot west wall — smooth, like a physical temperature field. Rows
        // are generated into a buffer and stored with one bulk write each.
        let mut row = vec![0f32; w];
        for y in 0..h {
            let yf = y as f32;
            for (x, t) in row.iter_mut().enumerate() {
                let xf = x as f32;
                let spot = |cx: f32, cy: f32, s: f32, amp: f32| {
                    let d2 = (xf - cx).powi(2) + (yf - cy).powi(2);
                    amp * (-d2 / (2.0 * s * s)).exp()
                };
                // Spot *widths* scale with the grid; the amplitudes and
                // the wall profile are the scale-aware knobs (see module
                // docs — bench takes the exact pre-knob computation).
                let mut v = PLATE;
                v += spot(w as f32 * 0.3, h as f32 * 0.4, w as f32 * 0.3, self.spot_amp.0);
                v += spot(w as f32 * 0.7, h as f32 * 0.65, w as f32 * 0.35, self.spot_amp.1);
                if self.wall_taper > 0.0 {
                    v += (WALL - PLATE) * (-xf / self.wall_taper).exp();
                } else if x == 0 {
                    v = WALL;
                }
                *t = v;
            }
            vm.compute(12 * w as u64);
            map.write_f32s(vm, A, y * w, &row);
        }

        // Jacobi sweeps (fixed boundaries): each destination row reads the
        // row above, the row below and its own row as three contiguous
        // slices — the 5-point stencil expressed at cacheline granularity.
        let mut up = vec![0f32; w];
        let mut cur = vec![0f32; w];
        let mut down = vec![0f32; w];
        let mut next = vec![0f32; w - 2];
        let mut col = vec![0f32; h];
        let (mut src, mut dst) = (A, B);
        for _ in 0..self.iters {
            for y in 1..h - 1 {
                map.read_f32s(vm, src, (y - 1) * w, &mut up);
                map.read_f32s(vm, src, (y + 1) * w, &mut down);
                map.read_f32s(vm, src, y * w, &mut cur);
                let mut acc = 0.0f32;
                for x in 1..w - 1 {
                    let t = 0.25 * (up[x] + down[x] + cur[x - 1] + cur[x + 1]);
                    next[x - 1] = t;
                    acc += t;
                }
                vm.compute(6 * (w - 2) as u64 + 2);
                map.write_f32s(vm, dst, y * w + 1, &next);
                vm.write_f32(Self::addr(rowsum, y), acc);
            }
            // Copy the fixed boundary rows/cols into dst so reads next
            // iteration see them. The column walks step one grid row per
            // element (`step = w`), whatever the physical stride.
            map.read_f32s(vm, src, 0, &mut cur);
            map.write_f32s(vm, dst, 0, &cur);
            map.read_f32s(vm, src, (h - 1) * w, &mut cur);
            map.write_f32s(vm, dst, (h - 1) * w, &cur);
            map.read_f32s_every(vm, src, 0, w, &mut col);
            map.write_f32s_every(vm, dst, 0, w, &col);
            map.read_f32s_every(vm, src, w - 1, w, &mut col);
            map.write_f32s_every(vm, dst, w - 1, w, &col);
            std::mem::swap(&mut src, &mut dst);
        }

        // Output: the final temperature field.
        let mut field = vec![0f32; n];
        map.read_f32s(vm, src, 0, &mut field);
        field.iter().map(|&t| t as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_on_design;
    use avr_core::{DesignKind, ExactVm, SystemConfig};

    #[test]
    fn exact_run_is_deterministic_and_physical() {
        let w = Heat::at_scale(BenchScale::Tiny);
        let mut vm1 = ExactVm::new();
        let o1 = w.run(&mut vm1);
        let mut vm2 = ExactVm::new();
        let o2 = w.run(&mut vm2);
        assert_eq!(o1, o2);
        assert_eq!(o1.len(), 96 * 96);
        // Temperatures stay within [cool plate, west wall].
        assert!(o1.iter().all(|&t| (19.0..=680.0).contains(&t)), "temps out of range");
        // Diffusion keeps interior warmer than the initial cool plate near
        // the hot wall.
        assert!(o1[48 * 96 + 1] > 100.0);
    }

    #[test]
    fn diffusion_smooths_the_field() {
        let w = Heat::at_scale(BenchScale::Tiny);
        let mut vm = ExactVm::new();
        let out = w.run(&mut vm);
        // Total variation along a row is modest after smoothing.
        let row: Vec<f64> = out[48 * 96..49 * 96].to_vec();
        let tv: f64 = row.windows(2).map(|p| (p[1] - p[0]).abs()).sum();
        let range = row.iter().cloned().fold(f64::MIN, f64::max)
            - row.iter().cloned().fold(f64::MAX, f64::min);
        assert!(tv < 4.0 * range + 1.0, "field too jagged: tv={tv} range={range}");
    }

    #[test]
    fn avr_error_is_small_on_tiny_run() {
        let w = Heat::at_scale(BenchScale::Tiny);
        // Codec-only band: pin the exact device so an AVR_BACKEND
        // override can't smear it (fault behavior is covered by
        // tests/fault_injection.rs).
        let cfg = SystemConfig::tiny().with_backend(avr_core::BackendKind::Exact);
        let m = run_on_design(&w, &cfg, DesignKind::Avr);
        assert!(m.output_error < 0.05, "heat AVR error {}", m.output_error);
        assert!(m.cycles > 0);
    }
}
