//! `wrf` — a weather-forecasting proxy for SPEC CPU2006 481.wrf: a
//! multi-field 3-D atmospheric stencil over terrain. Only the
//! geographically ordered weather metrics (temperature and humidity) are
//! approximable — about 15 % of the footprint, matching the paper — and
//! they carry terrain-correlated fine structure, which limits AVR to the
//! ~3.4:1 ratio of Table 4. Output: the temperature field.
#![allow(clippy::needless_range_loop)] // terrain blending indexes two profiles at once

use crate::golden::GoldenKey;
use crate::runner::{BenchScale, Workload};
use crate::terrain::fractal_terrain;
use avr_core::{FieldSpec, Layout, LayoutKind, RecordSchema, Vm};
use avr_types::PhysAddr;

/// The weather-model benchmark.
pub struct Wrf {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub steps: usize,
}

impl Wrf {
    pub fn at_scale(scale: BenchScale) -> Self {
        match scale {
            BenchScale::Tiny => Wrf { nx: 24, ny: 24, nz: 6, steps: 3 },
            // 13 grids x 72x72x12 x 4 B ≈ 3.2 MB total, 2 of them (T, Q)
            // approximable ≈ 15 %.
            BenchScale::Bench => Wrf { nx: 72, ny: 72, nz: 12, steps: 5 },
        }
    }

    #[inline]
    fn at(base: PhysAddr, idx: usize) -> PhysAddr {
        PhysAddr(base.0 + 4 * idx as u64)
    }

    /// One record per atmosphere cell: the two approximable weather
    /// metrics. The eleven dynamics/scratch grids stay separate precise
    /// arrays — 481.wrf keeps them in distinct Fortran fields, and they
    /// are the 85 % of the footprint the paper never approximates.
    fn schema() -> RecordSchema {
        RecordSchema::new("met", vec![FieldSpec::approx_f32("t"), FieldSpec::approx_f32("q")])
    }
}

/// Field indices into [`Wrf::schema`].
const T: usize = 0;
const Q: usize = 1;

impl Workload for Wrf {
    fn name(&self) -> &'static str {
        "wrf"
    }

    fn golden_key(&self) -> Option<GoldenKey> {
        Some(GoldenKey::new(
            "wrf",
            &[self.nx as u64, self.ny as u64, self.nz as u64, self.steps as u64],
            0,
        ))
    }

    fn cost_hint(&self) -> u64 {
        // Thirteen grids touched per cell per step.
        (self.nx * self.ny * self.nz * self.steps * 13) as u64
    }

    fn layouts(&self) -> &'static [LayoutKind] {
        &[LayoutKind::Soa, LayoutKind::Aos]
    }

    fn run_in(&self, vm: &mut dyn Vm, layout: LayoutKind) -> Vec<f64> {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let cells = nx * ny * nz;
        let idx_of = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;

        // Approximable: the geo-ordered weather metrics (temperature and
        // humidity), placed by the layout.
        let map = Layout::new(Self::schema(), layout).instantiate(vm, cells);

        // Precise: everything else (dynamics + scratch), 11 more grids.
        let t_new = vm.malloc(4 * cells).base;
        let q_new = vm.malloc(4 * cells).base;
        let p = vm.malloc(4 * cells).base; // pressure
        let u = vm.malloc(4 * cells).base; // wind x
        let v = vm.malloc(4 * cells).base; // wind y
        let wz = vm.malloc(4 * cells).base; // wind z
        let rho_a = vm.malloc(4 * cells).base; // air density
        let rain = vm.malloc(4 * cells).base; // accumulated precipitation
        let srad = vm.malloc(4 * cells).base; // radiative source
        let scratch1 = vm.malloc(4 * cells).base;
        let scratch2 = vm.malloc(4 * cells).base;
        let terr = vm.malloc(4 * nx * ny).base; // surface elevation (2-D)

        // Terrain: two orthogonal fractal profiles blended, stored one
        // bulk row at a time.
        let tx = fractal_terrain(nx, 300.0, 180.0, 0.7, 0xA11CE);
        let ty = fractal_terrain(ny, 300.0, 180.0, 0.7, 0xB0B);
        let mut row = vec![0f32; nx];
        for y in 0..ny {
            for (x, e) in row.iter_mut().enumerate() {
                *e = 0.5 * (tx[x] + ty[y]);
            }
            vm.write_f32s(Self::at(terr, y * nx), &row);
        }

        // Initial atmosphere: lapse rate with altitude, terrain heating,
        // and weak fine structure (what keeps the ratio near 3.4:1). Each
        // of the 11 fields takes one bulk row store per x-row.
        let mut rows: Vec<Vec<f32>> = (0..9).map(|_| vec![0f32; nx]).collect();
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    let elev = 0.5 * (tx[x] + ty[y]);
                    let alt = z as f32 * 500.0 + elev;
                    let fine = ((x as f32 * 1.9).sin() + (y as f32 * 2.3).cos()) * 0.8;
                    // Multiplicative fine structure keeps the *relative*
                    // roughness of humidity uniform across altitudes.
                    rows[0][x] = 288.0 - 0.0065 * alt + fine;
                    rows[1][x] = (0.8 - 0.00009 * alt).max(0.2) * (1.0 + 0.009 * fine);
                    rows[2][x] = 1013.0 * (-alt / 8000.0).exp();
                    rows[3][x] = 3.0 + 0.01 * y as f32;
                    rows[4][x] = 1.0;
                    rows[5][x] = 0.0;
                    rows[6][x] = 1.2 * (-alt / 9000.0).exp();
                    rows[7][x] = 0.0;
                    rows[8][x] = (elev / 500.0).min(1.5);
                }
                let idx = idx_of(0, y, z);
                vm.compute(16 * nx as u64);
                map.write_f32s(vm, T, idx, &rows[0]);
                map.write_f32s(vm, Q, idx, &rows[1]);
                vm.write_f32s(Self::at(p, idx), &rows[2]);
                vm.write_f32s(Self::at(u, idx), &rows[3]);
                vm.write_f32s(Self::at(v, idx), &rows[4]);
                vm.write_f32s(Self::at(wz, idx), &rows[5]);
                vm.write_f32s(Self::at(rho_a, idx), &rows[6]);
                vm.write_f32s(Self::at(rain, idx), &rows[7]);
                vm.write_f32s(Self::at(srad, idx), &rows[8]);
                rows[5].fill(0.0);
                vm.write_f32s(Self::at(scratch1, idx), &rows[5]);
                vm.write_f32s(Self::at(scratch2, idx), &rows[5]);
            }
        }

        let dt = 0.2f32;
        // Row buffers for the stencil passes: each destination row reads
        // its field rows (own row + the upwind/neighbor rows) as
        // contiguous slices.
        let mut t_cur = vec![0f32; nx];
        let mut t_prev = vec![0f32; nx];
        let mut q_cur = vec![0f32; nx];
        let mut q_prev = vec![0f32; nx];
        let mut u_row = vec![0f32; nx];
        let mut v_row = vec![0f32; nx];
        let mut heat_row = vec![0f32; nx];
        let mut nt_row = vec![0f32; nx - 2];
        let mut nq_row = vec![0f32; nx - 2];
        let mut p_n = vec![0f32; nx];
        let mut p_s = vec![0f32; nx];
        let mut p_cur = vec![0f32; nx];
        for _step in 0..self.steps {
            for z in 0..nz {
                for y in 1..ny - 1 {
                    let idx = idx_of(0, y, z);
                    map.read_f32s(vm, T, idx, &mut t_cur);
                    map.read_f32s(vm, T, idx_of(0, y - 1, z), &mut t_prev);
                    map.read_f32s(vm, Q, idx, &mut q_cur);
                    map.read_f32s(vm, Q, idx_of(0, y - 1, z), &mut q_prev);
                    vm.read_f32s(Self::at(u, idx), &mut u_row);
                    vm.read_f32s(Self::at(v, idx), &mut v_row);
                    vm.read_f32s(Self::at(srad, idx), &mut heat_row);
                    for x in 1..nx - 1 {
                        let (tc, qc) = (t_cur[x], q_cur[x]);
                        let (uw, vw, heat) = (u_row[x], v_row[x], heat_row[x]);
                        // Upwind advection.
                        let adv_t = uw * (tc - t_cur[x - 1]) * 0.02 + vw * (tc - t_prev[x]) * 0.02;
                        let adv_q = uw * (qc - q_cur[x - 1]) * 0.02 + vw * (qc - q_prev[x]) * 0.02;
                        // Condensation: saturated humidity rains out and
                        // releases latent heat.
                        let sat = 0.02 * (tc - 250.0).max(1.0) * 0.01;
                        let excess = (qc - sat).max(0.0);
                        let cond = excess * 0.3;
                        nt_row[x - 1] = tc - adv_t * dt + heat * 0.05 * dt + cond * 20.0 * dt;
                        nq_row[x - 1] = (qc - adv_q * dt - cond * dt).max(0.0);
                        if cond > 0.0 {
                            let a = Self::at(rain, idx_of(x, y, z));
                            let r0 = vm.read_f32(a);
                            vm.write_f32(a, r0 + cond * dt);
                        }
                    }
                    vm.compute(150 * (nx - 2) as u64);
                    vm.write_f32s(Self::at(t_new, idx_of(1, y, z)), &nt_row);
                    vm.write_f32s(Self::at(q_new, idx_of(1, y, z)), &nq_row);
                }
            }
            // Commit T/Q and relax pressure toward the new state: the
            // pressure update is a compute-fused read-modify-write sweep.
            for z in 0..nz {
                for y in 1..ny - 1 {
                    let idx1 = idx_of(1, y, z);
                    vm.read_f32s(Self::at(t_new, idx1), &mut nt_row);
                    vm.read_f32s(Self::at(q_new, idx1), &mut nq_row);
                    map.write_f32s(vm, T, idx1, &nt_row);
                    map.write_f32s(vm, Q, idx1, &nq_row);
                    // Pressure responds to temperature.
                    let nt = &nt_row;
                    vm.for_each_f32_mut(Self::at(p, idx1), nx - 2, 45, &mut |k, pv| {
                        pv * (1.0 + (nt[k] - 288.0) * 1e-5)
                    });
                }
            }
            // Winds follow the pressure gradient (geostrophic-lite).
            for z in 0..nz {
                for y in 1..ny - 1 {
                    let idx = idx_of(0, y, z);
                    vm.read_f32s(Self::at(p, idx), &mut p_cur);
                    vm.read_f32s(Self::at(p, idx_of(0, y + 1, z)), &mut p_n);
                    vm.read_f32s(Self::at(p, idx_of(0, y - 1, z)), &mut p_s);
                    vm.read_f32s(Self::at(u, idx), &mut u_row);
                    vm.read_f32s(Self::at(v, idx), &mut v_row);
                    for x in 1..nx - 1 {
                        let (pe, pw) = (p_cur[x + 1], p_cur[x - 1]);
                        let (pn, ps) = (p_n[x], p_s[x]);
                        nt_row[x - 1] = u_row[x] - (pe - pw) * 0.01 * dt;
                        nq_row[x - 1] = v_row[x] - (pn - ps) * 0.01 * dt;
                    }
                    vm.compute(50 * (nx - 2) as u64);
                    vm.write_f32s(Self::at(u, idx_of(1, y, z)), &nt_row);
                    vm.write_f32s(Self::at(v, idx_of(1, y, z)), &nq_row);
                }
            }
        }

        // Output: the forecast temperature field.
        let mut field = vec![0f32; cells];
        map.read_f32s(vm, T, 0, &mut field);
        field.iter().map(|&v| v as f64).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_on_design;
    use avr_core::{DesignKind, ExactVm, SystemConfig};

    #[test]
    fn temperatures_stay_atmospheric() {
        let w = Wrf::at_scale(BenchScale::Tiny);
        let mut vm = ExactVm::new();
        let out = w.run(&mut vm);
        assert_eq!(out.len(), 24 * 24 * 6);
        assert!(out.iter().all(|v| v.is_finite()));
        // Kelvin range for a troposphere slice.
        assert!(out.iter().all(|&t| (200.0..320.0).contains(&t)), "temps out of range");
    }

    #[test]
    fn higher_altitude_is_colder() {
        let w = Wrf::at_scale(BenchScale::Tiny);
        let mut vm = ExactVm::new();
        let out = w.run(&mut vm);
        let cells_per_slice = 24 * 24;
        let ground: f64 = out[..cells_per_slice].iter().sum::<f64>() / cells_per_slice as f64;
        let top: f64 = out[5 * cells_per_slice..].iter().sum::<f64>() / cells_per_slice as f64;
        assert!(ground > top + 5.0, "lapse rate lost: ground {ground} top {top}");
    }

    #[test]
    fn approx_fraction_is_about_15_percent() {
        let w = Wrf::at_scale(BenchScale::Tiny);
        let mut vm = ExactVm::new();
        let _ = w.run(&mut vm);
        let (total, approx) = vm.space.footprint();
        let frac = approx as f64 / total as f64;
        assert!((0.10..0.22).contains(&frac), "approx fraction {frac}");
    }

    #[test]
    fn avr_error_is_moderate() {
        let w = Wrf::at_scale(BenchScale::Tiny);
        // Codec-only band: pin the exact device so an AVR_BACKEND
        // override can't smear it (fault behavior is covered by
        // tests/fault_injection.rs).
        let cfg = SystemConfig::tiny().with_backend(avr_core::BackendKind::Exact);
        let m = run_on_design(&w, &cfg, DesignKind::Avr);
        assert!(m.output_error < 0.15, "wrf AVR error {}", m.output_error);
    }
}
