//! `lbm` — 3-D lattice-Boltzmann (D3Q19, the SPEC CPU2006 470.lbm kernel):
//! fluid flow over a sphere. Approximable data: the distribution functions
//! / velocities — ~98 % of the footprint, and extremely smooth, which is
//! why the paper reports a 15.6:1 ratio here.
#![allow(clippy::needless_range_loop)] // parallel gather/scatter arrays read clearer indexed

use crate::golden::GoldenKey;
use crate::runner::{BenchScale, Workload};
use avr_core::{FieldSpec, Layout, LayoutKind, RecordSchema, Vm};
use avr_types::PhysAddr;

/// D3Q19 lattice: rest + 6 face + 12 edge velocities.
const E: [(i32, i32, i32); 19] = [
    (0, 0, 0),
    (1, 0, 0),
    (-1, 0, 0),
    (0, 1, 0),
    (0, -1, 0),
    (0, 0, 1),
    (0, 0, -1),
    (1, 1, 0),
    (-1, -1, 0),
    (1, -1, 0),
    (-1, 1, 0),
    (1, 0, 1),
    (-1, 0, -1),
    (1, 0, -1),
    (-1, 0, 1),
    (0, 1, 1),
    (0, -1, -1),
    (0, 1, -1),
    (0, -1, 1),
];
const OPP: [usize; 19] = [0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 16, 15, 18, 17];

fn weight(i: usize) -> f32 {
    match i {
        0 => 1.0 / 3.0,
        1..=6 => 1.0 / 18.0,
        _ => 1.0 / 36.0,
    }
}

/// The 3-D lattice-Boltzmann benchmark.
pub struct Lbm {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub iters: usize,
    pub u0: f32,
    pub tau: f32,
}

impl Lbm {
    pub fn at_scale(scale: BenchScale) -> Self {
        match scale {
            BenchScale::Tiny => Lbm { nx: 12, ny: 12, nz: 16, iters: 3, u0: 0.05, tau: 0.9 },
            // 2 x 19 x 32x32x48 x 4 B ≈ 7.5 MB of distributions (~98 %
            // approximable) against the 1 MB LLC share: strongly memory
            // bound, like the paper's 325 MB/core configuration.
            BenchScale::Bench => Lbm { nx: 32, ny: 32, nz: 48, iters: 4, u0: 0.05, tau: 0.9 },
        }
    }

    /// One record per duct cell: the nineteen distribution functions,
    /// plane-major inside one region under packed SoA (the 470.lbm
    /// layout) or word-interleaved per cell under AoS.
    fn schema() -> RecordSchema {
        const NAMES: [&str; 19] = [
            "f0", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10", "f11", "f12", "f13",
            "f14", "f15", "f16", "f17", "f18",
        ];
        RecordSchema::new("dist", NAMES.iter().map(|&n| FieldSpec::approx_f32(n)).collect())
            .packed()
    }

    fn feq(i: usize, rho: f32, u: (f32, f32, f32)) -> f32 {
        let (ex, ey, ez) = E[i];
        let eu = ex as f32 * u.0 + ey as f32 * u.1 + ez as f32 * u.2;
        let u2 = u.0 * u.0 + u.1 * u.1 + u.2 * u.2;
        weight(i) * rho * (1.0 + 3.0 * eu + 4.5 * eu * eu - 1.5 * u2)
    }
}

impl Workload for Lbm {
    fn name(&self) -> &'static str {
        "lbm"
    }

    fn golden_key(&self) -> Option<GoldenKey> {
        Some(GoldenKey::new(
            "lbm",
            &[
                self.nx as u64,
                self.ny as u64,
                self.nz as u64,
                self.iters as u64,
                u64::from(self.u0.to_bits()),
                u64::from(self.tau.to_bits()),
            ],
            0,
        ))
    }

    fn cost_hint(&self) -> u64 {
        // Nineteen distributions × (neighbor gather + collide + write) per
        // cell per iteration — the suite's heaviest per-cell kernel.
        (self.nx * self.ny * self.nz * self.iters * 19 * 6) as u64
    }

    fn layouts(&self) -> &'static [LayoutKind] {
        &[LayoutKind::Soa, LayoutKind::Aos]
    }

    fn run_in(&self, vm: &mut dyn Vm, layout: LayoutKind) -> Vec<f64> {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let cells = nx * ny * nz;
        let idx_of = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;

        // Approximable: both distribution buffers (the 470.lbm working set).
        let map_f = Layout::new(Self::schema(), layout).instantiate(vm, cells);
        let map_f2 = Layout::new(Self::schema(), layout).instantiate(vm, cells);
        // Precise: sphere mask.
        let mask = vm.malloc(4 * cells).base;

        // A solid sphere in the front third of the duct, rasterized one
        // x-row at a time (one bulk mask store per row).
        let (cx, cy, cz) = (nx as f32 / 2.0, ny as f32 / 2.0, nz as f32 / 3.0);
        let r = nx as f32 / 4.5;
        let mut mask_row = vec![0u32; nx];
        for z in 0..nz {
            for y in 0..ny {
                for (x, m) in mask_row.iter_mut().enumerate() {
                    let d2 =
                        (x as f32 - cx).powi(2) + (y as f32 - cy).powi(2) + (z as f32 - cz).powi(2);
                    *m = (d2 <= r * r) as u32;
                }
                vm.compute(8 * nx as u64);
                vm.write_u32s(PhysAddr(mask.0 + 4 * idx_of(0, y, z) as u64), &mask_row);
            }
        }

        // Equilibrium init: uniform flow along +z — both buffers, so
        // boundary entries the streaming step never writes hold sane
        // values. Each distribution plane is constant: one bulk store.
        let eq0: [f32; 19] = std::array::from_fn(|i| Self::feq(i, 1.0, (0.0, 0.0, self.u0)));
        let mut plane = vec![0f32; cells];
        for (i, &v) in eq0.iter().enumerate() {
            plane.fill(v);
            vm.compute(12 * cells as u64);
            map_f.write_f32s(vm, i, 0, &plane);
            map_f2.write_f32s(vm, i, 0, &plane);
        }

        // Packed SoA: the per-cell distribution gather is one strided
        // read across the 19 planes; streaming is one scatter. AoS folds
        // the gather into one contiguous 19-word record read.
        let (mut src, mut dst) = (&map_f, &map_f2);
        for _ in 0..self.iters {
            for z in 0..nz {
                for y in 0..ny {
                    vm.read_u32s(PhysAddr(mask.0 + 4 * idx_of(0, y, z) as u64), &mut mask_row);
                    for x in 0..nx {
                        let idx = idx_of(x, y, z);
                        let solid = mask_row[x] != 0;
                        let mut fi = [0f32; 19];
                        src.read_record_f32s(vm, idx, &mut fi);
                        let mut post = [0f32; 19];
                        if solid {
                            for i in 0..19 {
                                post[OPP[i]] = fi[i];
                            }
                            vm.compute(19);
                        } else {
                            let rho: f32 = fi.iter().sum();
                            let mut u = (0f32, 0f32, 0f32);
                            for (i, &v) in fi.iter().enumerate() {
                                u.0 += E[i].0 as f32 * v;
                                u.1 += E[i].1 as f32 * v;
                                u.2 += E[i].2 as f32 * v;
                            }
                            u = (u.0 / rho, u.1 / rho, u.2 / rho);
                            for i in 0..19 {
                                let eq = Self::feq(i, rho, u);
                                post[i] = fi[i] - (fi[i] - eq) / self.tau;
                            }
                            vm.compute(200);
                        }
                        let mut sc_idx = [0u32; 19];
                        let mut sc_val = [0f32; 19];
                        let mut m = 0;
                        for i in 0..19 {
                            let nxp = x as i32 + E[i].0;
                            let nyp = y as i32 + E[i].1;
                            let nzp = z as i32 + E[i].2;
                            if nxp < 0
                                || nxp >= nx as i32
                                || nyp < 0
                                || nyp >= ny as i32
                                || nzp < 0
                                || nzp >= nz as i32
                            {
                                continue;
                            }
                            let nidx = idx_of(nxp as usize, nyp as usize, nzp as usize);
                            sc_idx[m] = dst.elem(i, nidx);
                            sc_val[m] = post[i];
                            m += 1;
                        }
                        vm.write_f32s_scatter(dst.base(), &sc_idx[..m], &sc_val[..m]);
                    }
                }
            }
            // Inflow (z = 0) and outflow (z = nz-1): one whole-record
            // access per column.
            let mut inner = [0f32; 19];
            for y in 0..ny {
                for x in 0..nx {
                    dst.write_record_f32s(vm, idx_of(x, y, 0), &eq0);
                    dst.read_record_f32s(vm, idx_of(x, y, nz - 2), &mut inner);
                    dst.write_record_f32s(vm, idx_of(x, y, nz - 1), &inner);
                    vm.compute(80);
                }
            }
            std::mem::swap(&mut src, &mut dst);
        }

        // Output: velocity magnitude per cell (the paper's approximated
        // output is the velocity field).
        let mut out = Vec::with_capacity(cells);
        for idx in 0..cells {
            let mut fi = [0f32; 19];
            src.read_record_f32s(vm, idx, &mut fi);
            let rho: f32 = fi.iter().sum();
            let mut u = (0f32, 0f32, 0f32);
            for (i, &v) in fi.iter().enumerate() {
                u.0 += E[i].0 as f32 * v;
                u.1 += E[i].1 as f32 * v;
                u.2 += E[i].2 as f32 * v;
            }
            vm.compute(60);
            let vmag = ((u.0 * u.0 + u.1 * u.1 + u.2 * u.2).sqrt() / rho.max(1e-6)) as f64;
            out.push(vmag);
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
    fn d3q19_tables_are_consistent() {
        // Opposites really are opposite.
        for i in 0..19 {
            let (a, b) = (E[i], E[OPP[i]]);
            assert_eq!((a.0 + b.0, a.1 + b.1, a.2 + b.2), (0, 0, 0));
        }
        // Weights sum to one.
        let s: f32 = (0..19).map(weight).sum();
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn flow_develops_around_sphere() {
        let w = Lbm::at_scale(BenchScale::Tiny);
        let mut vm = ExactVm::new();
        let out = w.run(&mut vm);
        assert!(out.iter().all(|v| v.is_finite()));
        // Downstream of the sphere (z > 2/3) flow still moves.
        let cells_per_slice = 12 * 12;
        let downstream: f64 = out[12 * cells_per_slice..13 * cells_per_slice].iter().sum::<f64>()
            / cells_per_slice as f64;
        assert!(downstream > 0.005, "downstream mean velocity {downstream}");
    }

    #[test]
    fn avr_error_is_small() {
        let w = Lbm::at_scale(BenchScale::Tiny);
        // Codec-only band: pin the exact device so an AVR_BACKEND
        // override can't smear it (fault behavior is covered by
        // tests/fault_injection.rs).
        let cfg = SystemConfig::tiny().with_backend(avr_core::BackendKind::Exact);
        let m = run_on_design(&w, &cfg, DesignKind::Avr);
        assert!(m.output_error < 0.05, "lbm AVR error {}", m.output_error);
    }
}
