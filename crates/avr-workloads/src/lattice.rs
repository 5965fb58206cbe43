//! `lattice` — 2-D lattice-Boltzmann (D2Q9, Ansumali'03) simulating air
//! flow over a solid object; the paper's input is a car silhouette, which
//! we rasterize procedurally. Approximable data: the particle distribution
//! functions ("P and M"); output: velocity and pressure fields.
#![allow(clippy::needless_range_loop)] // parallel gather/scatter arrays read clearer indexed

use crate::golden::GoldenKey;
use crate::runner::{BenchScale, Workload};
use crate::terrain::car_silhouette;
use avr_core::{FieldSpec, Layout, LayoutKind, RecordSchema, Vm};
use avr_types::PhysAddr;

/// D2Q9 lattice velocities and weights.
const EX: [i32; 9] = [0, 1, 0, -1, 0, 1, -1, -1, 1];
const EY: [i32; 9] = [0, 0, 1, 0, -1, 1, 1, -1, -1];
const W: [f32; 9] = [
    4.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 9.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
];
/// Opposite-direction index (bounce-back).
const OPP: [usize; 9] = [0, 3, 4, 1, 2, 7, 8, 5, 6];

/// The 2-D lattice-Boltzmann benchmark.
pub struct Lattice {
    pub width: usize,
    pub height: usize,
    pub iters: usize,
    /// Inlet velocity (lattice units).
    pub u0: f32,
    /// BGK relaxation time.
    pub tau: f32,
}

impl Lattice {
    pub fn at_scale(scale: BenchScale) -> Self {
        match scale {
            BenchScale::Tiny => Lattice { width: 64, height: 32, iters: 4, u0: 0.06, tau: 0.8 },
            // 2 x 9 x H x W x 4 B ≈ 2.7 MB of distributions (~86 %
            // approximable), the paper's 5 MB/core shape.
            BenchScale::Bench => Lattice { width: 288, height: 128, iters: 6, u0: 0.06, tau: 0.8 },
        }
    }

    #[inline]
    fn at(base: PhysAddr, idx: usize) -> PhysAddr {
        PhysAddr(base.0 + 4 * idx as u64)
    }

    /// One record per lattice cell: the nine distribution functions.
    /// `packed()` keeps SoA plane-major inside a single region — the
    /// historical layout, where the per-cell gather is a plane-strided
    /// read; AoS turns that same gather into one contiguous 9-word read.
    fn schema() -> RecordSchema {
        const NAMES: [&str; 9] = ["f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8"];
        RecordSchema::new("dist", NAMES.iter().map(|&n| FieldSpec::approx_f32(n)).collect())
            .packed()
    }

    fn feq(i: usize, rho: f32, ux: f32, uy: f32) -> f32 {
        let eu = EX[i] as f32 * ux + EY[i] as f32 * uy;
        let u2 = ux * ux + uy * uy;
        W[i] * rho * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * u2)
    }
}

impl Workload for Lattice {
    fn name(&self) -> &'static str {
        "lattice"
    }

    fn golden_key(&self) -> Option<GoldenKey> {
        Some(GoldenKey::new(
            "lattice",
            &[
                self.width as u64,
                self.height as u64,
                self.iters as u64,
                u64::from(self.u0.to_bits()),
                u64::from(self.tau.to_bits()),
            ],
            0,
        ))
    }

    fn cost_hint(&self) -> u64 {
        // Nine distributions × (stream gather + collide + write) per cell
        // per iteration.
        (self.width * self.height * self.iters * 9 * 6) as u64
    }

    fn layouts(&self) -> &'static [LayoutKind] {
        &[LayoutKind::Soa, LayoutKind::Aos]
    }

    fn run_in(&self, vm: &mut dyn Vm, layout: LayoutKind) -> Vec<f64> {
        let (w, h) = (self.width, self.height);
        let cells = w * h;
        // Approximable: both copies of the nine distribution functions.
        let map_f = Layout::new(Self::schema(), layout).instantiate(vm, cells);
        let map_f2 = Layout::new(Self::schema(), layout).instantiate(vm, cells);
        // Precise: the obstacle mask and the output fields.
        let mask = vm.malloc(4 * cells).base;
        let vel_out = vm.malloc(4 * cells).base;
        let p_out = vm.malloc(4 * cells).base;

        let solid = car_silhouette(w, h);
        let mask_words: Vec<u32> = solid.iter().map(|&s| s as u32).collect();
        vm.write_u32s(mask, &mask_words);

        // Equilibrium init at uniform inflow — both buffers, so boundary
        // entries the streaming step never writes hold sane values. Each
        // distribution plane is a constant, stored with one bulk write.
        let eq0: [f32; 9] = std::array::from_fn(|i| Self::feq(i, 1.0, self.u0, 0.0));
        let mut plane = vec![0f32; cells];
        for (i, &v) in eq0.iter().enumerate() {
            plane.fill(v);
            vm.compute(10 * cells as u64);
            map_f.write_f32s(vm, i, 0, &plane);
            map_f2.write_f32s(vm, i, 0, &plane);
        }

        // Under packed SoA the per-cell record read resolves to a
        // plane-strided gather and the streaming step scatters across
        // planes; under AoS both collapse to (near-)contiguous accesses.
        let mut mask_row = vec![0u32; w];
        let (mut src, mut dst) = (&map_f, &map_f2);
        for _step in 0..self.iters {
            for y in 0..h {
                vm.read_u32s(Self::at(mask, y * w), &mut mask_row);
                for x in 0..w {
                    let idx = y * w + x;
                    let is_solid = mask_row[x] != 0;
                    // Gather the cell's nine distributions.
                    let mut fi = [0f32; 9];
                    src.read_record_f32s(vm, idx, &mut fi);
                    let mut post = [0f32; 9];
                    if is_solid {
                        // Full bounce-back.
                        for i in 0..9 {
                            post[OPP[i]] = fi[i];
                        }
                        vm.compute(9);
                    } else {
                        // BGK collision.
                        let rho: f32 = fi.iter().sum();
                        let ux = fi.iter().enumerate().map(|(i, &v)| EX[i] as f32 * v).sum::<f32>()
                            / rho;
                        let uy = fi.iter().enumerate().map(|(i, &v)| EY[i] as f32 * v).sum::<f32>()
                            / rho;
                        for i in 0..9 {
                            let eq = Self::feq(i, rho, ux, uy);
                            post[i] = fi[i] - (fi[i] - eq) / self.tau;
                        }
                        vm.compute(90);
                    }
                    // Streaming (periodic wrap vertically, clamped
                    // horizontally; the inlet/outlet overwrite below): one
                    // scatter over the in-bounds directions.
                    let mut sc_idx = [0u32; 9];
                    let mut sc_val = [0f32; 9];
                    let mut m = 0;
                    for i in 0..9 {
                        let nx = x as i32 + EX[i];
                        let ny = (y as i32 + EY[i]).rem_euclid(h as i32) as usize;
                        if nx < 0 || nx >= w as i32 {
                            continue;
                        }
                        let nidx = ny * w + nx as usize;
                        sc_idx[m] = dst.elem(i, nidx);
                        sc_val[m] = post[i];
                        m += 1;
                    }
                    vm.write_f32s_scatter(dst.base(), &sc_idx[..m], &sc_val[..m]);
                }
            }
            // Inlet (west): equilibrium at u0. Outlet (east): copy — each
            // one whole-record access.
            let mut inner = [0f32; 9];
            for y in 0..h {
                dst.write_record_f32s(vm, y * w, &eq0);
                dst.read_record_f32s(vm, y * w + w - 2, &mut inner);
                dst.write_record_f32s(vm, y * w + w - 1, &inner);
                vm.compute(40);
            }
            std::mem::swap(&mut src, &mut dst);
        }

        // Output pass: velocity magnitude and pressure (rho / 3), stored
        // row-wise with two bulk writes per row.
        let mut out = Vec::with_capacity(2 * cells);
        let mut vel_row = vec![0f32; w];
        let mut p_row = vec![0f32; w];
        for y in 0..h {
            for x in 0..w {
                let idx = y * w + x;
                let mut fi = [0f32; 9];
                src.read_record_f32s(vm, idx, &mut fi);
                let rho: f32 = fi.iter().sum();
                let ux = fi.iter().enumerate().map(|(i, &v)| EX[i] as f32 * v).sum::<f32>() / rho;
                let uy = fi.iter().enumerate().map(|(i, &v)| EY[i] as f32 * v).sum::<f32>() / rho;
                let vmag = (ux * ux + uy * uy).sqrt();
                let p = rho / 3.0;
                vm.compute(30);
                vel_row[x] = vmag;
                p_row[x] = p;
                out.push(vmag as f64);
                out.push(p as f64);
            }
            vm.write_f32s(Self::at(vel_out, y * w), &vel_row);
            vm.write_f32s(Self::at(p_out, y * w), &p_row);
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
    fn flow_is_finite_and_mass_is_conserved() {
        let w = Lattice::at_scale(BenchScale::Tiny);
        let mut vm = ExactVm::new();
        let out = w.run(&mut vm);
        assert_eq!(out.len(), 2 * 64 * 32);
        assert!(out.iter().all(|v| v.is_finite()));
        // Mean pressure stays near the initial rho/3 = 1/3 (inlet/outlet
        // allow slight drift).
        let mean_p: f64 = out.iter().skip(1).step_by(2).sum::<f64>() / (64.0 * 32.0);
        assert!((mean_p - 1.0 / 3.0).abs() < 0.05, "mean pressure {mean_p}");
    }

    #[test]
    fn obstacle_blocks_flow() {
        let w = Lattice::at_scale(BenchScale::Tiny);
        let mut vm = ExactVm::new();
        let out = w.run(&mut vm);
        let solid = car_silhouette(64, 32);
        // Velocity inside the solid is ~0 relative to the free stream.
        let mut inside_max = 0.0f64;
        let mut free = 0.0f64;
        for (idx, &s) in solid.iter().enumerate() {
            let v = out[2 * idx];
            if s {
                inside_max = inside_max.max(v);
            } else {
                free = free.max(v);
            }
        }
        assert!(free > 0.02, "free-stream flow exists: {free}");
        assert!(inside_max < free, "solid interior slower than free stream");
    }

    #[test]
    fn deterministic() {
        let w = Lattice::at_scale(BenchScale::Tiny);
        let mut a = ExactVm::new();
        let mut b = ExactVm::new();
        assert_eq!(w.run(&mut a), w.run(&mut b));
    }

    #[test]
    fn avr_error_is_small() {
        let w = Lattice::at_scale(BenchScale::Tiny);
        // Codec-only band: pin the exact device so an AVR_BACKEND
        // override can't smear it (fault behavior is covered by
        // tests/fault_injection.rs).
        let cfg = SystemConfig::tiny().with_backend(avr_core::BackendKind::Exact);
        let m = run_on_design(&w, &cfg, DesignKind::Avr);
        assert!(m.output_error < 0.05, "lattice AVR error {}", m.output_error);
    }
}
