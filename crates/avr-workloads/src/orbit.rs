//! `orbit` — the FLASH two-particle orbit problem: two bodies orbit their
//! common center of mass while a smooth gas field is evolved on a 3-D
//! grid. Approximable data: the tabulated physics field ("Phys. data") —
//! about half the footprint. The gas density is a smooth background with
//! mild body-centered perturbations (FLASH evolves gas, not bare 1/r
//! potentials), which is why the paper sees a near-perfect 16:1 ratio.
//!
//! Feedback: each body feels, besides exact mutual gravity, a gas-coupling
//! acceleration sampled from the *stored* density gradient — so
//! approximation error in the field perturbs the trajectories.

use crate::golden::GoldenKey;
use crate::runner::{BenchScale, Workload};
use avr_core::{FieldSpec, Layout, LayoutKind, RecordSchema, Vm};

/// The two-body orbit benchmark.
pub struct Orbit {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    pub steps: usize,
}

impl Orbit {
    pub fn at_scale(scale: BenchScale) -> Self {
        match scale {
            BenchScale::Tiny => Orbit { nx: 32, ny: 32, nz: 16, steps: 4 },
            // rho_gas (approx) + rho deposit (precise) at 2 MB each: the
            // 50/50 approximable split of the paper's orbit configuration.
            BenchScale::Bench => Orbit { nx: 128, ny: 128, nz: 32, steps: 6 },
        }
    }

    /// One record per grid cell: the approximable tabulated gas density
    /// next to the precise mass-deposit accumulator. Conservative AoS
    /// therefore forfeits approximation entirely (the precise deposit
    /// rides in every record); partitioned placement recovers it.
    fn schema() -> RecordSchema {
        RecordSchema::new("cell", vec![FieldSpec::approx_f32("gas"), FieldSpec::precise_f32("rho")])
    }
}

/// Field indices into [`Orbit::schema`].
const GAS: usize = 0;
const RHO: usize = 1;

impl Workload for Orbit {
    fn name(&self) -> &'static str {
        "orbit"
    }

    fn golden_key(&self) -> Option<GoldenKey> {
        Some(GoldenKey::new(
            "orbit",
            &[self.nx as u64, self.ny as u64, self.nz as u64, self.steps as u64],
            0,
        ))
    }

    fn cost_hint(&self) -> u64 {
        // Per step: re-tabulate the gas field (one write per cell) plus
        // the gathered stencil probes.
        (self.nx * self.ny * self.nz * self.steps * 2) as u64
    }

    fn layouts(&self) -> &'static [LayoutKind] {
        &[LayoutKind::Soa, LayoutKind::Aos, LayoutKind::Partitioned]
    }

    fn run_in(&self, vm: &mut dyn Vm, layout: LayoutKind) -> Vec<f64> {
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        let cells = nx * ny * nz;
        let idx_of = |x: usize, y: usize, z: usize| (z * ny + y) * nx + x;

        // Approximable gas field + precise deposit grid, placed by the
        // layout (the "physics data" halves of the FLASH configuration).
        let map = Layout::new(Self::schema(), layout).instantiate(vm, cells);

        // Two equal masses orbiting their center of mass (grid center).
        let m = 50.0f32;
        let center = (nx as f32 / 2.0, ny as f32 / 2.0, nz as f32 / 2.0);
        let sep = nx as f32 / 4.0;
        let d = sep / 2.0;
        // Circular two-body orbit: v² = G m / (4 d), G = 1.
        let v = (m / (4.0 * d)).sqrt();
        let mut p1 = (center.0 - d, center.1, center.2);
        let mut p2 = (center.0 + d, center.1, center.2);
        let mut v1 = (0.0f32, v, 0.0f32);
        let mut v2 = (0.0f32, -v, 0.0f32);
        let dt = 0.1f32;

        // Gas parameters: broad Gaussian wakes around each body on a
        // uniform background.
        let rho0 = 1000.0f32;
        // Distinct wake amplitudes/widths per body: real FLASH fields have
        // no exact mirror symmetry (and symmetric fields would make
        // Doppelgänger's dedup accidentally lossless).
        let (amp1, amp2) = (0.12f32, 0.09f32);
        let (sigma1, sigma2) = (nx as f32 / 4.0, nx as f32 / 4.6);
        let gas_coupling = 0.8f32;

        let mut trajectory = Vec::new();
        let mut gas_row = vec![0f32; nx];
        for _step in 0..self.steps {
            // (1) Tabulate the gas density on the grid, one bulk row store
            // per x-row.
            for z in 0..nz {
                for y in 0..ny {
                    let (yf, zf) = (y as f32, z as f32);
                    for (x, g) in gas_row.iter_mut().enumerate() {
                        let xf = x as f32;
                        let r1 = (xf - p1.0).powi(2) + (yf - p1.1).powi(2) + (zf - p1.2).powi(2);
                        let r2 = (xf - p2.0).powi(2) + (yf - p2.1).powi(2) + (zf - p2.2).powi(2);
                        let s1 = 2.0 * sigma1 * sigma1;
                        let s2 = 2.0 * sigma2 * sigma2;
                        *g = rho0 * (1.0 + amp1 * (-r1 / s1).exp() + amp2 * (-r2 / s2).exp());
                    }
                    vm.compute(24 * nx as u64);
                    map.write_f32s(vm, GAS, idx_of(0, y, z), &gas_row);
                }
            }
            // (2) Deposit particle mass into the precise density grid.
            for p in [p1, p2] {
                let (x, y, z) = (
                    (p.0.round() as usize).min(nx - 1),
                    (p.1.round() as usize).min(ny - 1),
                    (p.2.round() as usize).min(nz - 1),
                );
                let rec = idx_of(x, y, z);
                let old = map.read_f32(vm, RHO, rec);
                map.write_f32(vm, RHO, rec, old + m);
                vm.compute(6);
            }
            // (3) Accelerations: exact mutual gravity + the gas-coupling
            // term sampled from the *stored* (possibly approximated) field.
            let grav = |a: (f32, f32, f32), b: (f32, f32, f32)| {
                let (dx, dy, dz) = (b.0 - a.0, b.1 - a.1, b.2 - a.2);
                let r2 = dx * dx + dy * dy + dz * dz + 1e-3;
                let inv_r3 = 1.0 / (r2 * r2.sqrt());
                (m * dx * inv_r3, m * dy * inv_r3, m * dz * inv_r3)
            };
            let mut gas_grad = |pos: (f32, f32, f32)| {
                let (xi, yi, zi) = (
                    (pos.0.round() as i64).clamp(1, nx as i64 - 2) as usize,
                    (pos.1.round() as i64).clamp(1, ny as i64 - 2) as usize,
                    (pos.2.round() as i64).clamp(1, nz as i64 - 2) as usize,
                );
                // The 6-point central-difference stencil is one gather;
                // `elem` folds the layout's field placement into the
                // element indices.
                let idx = [
                    map.elem(GAS, idx_of(xi + 1, yi, zi)),
                    map.elem(GAS, idx_of(xi - 1, yi, zi)),
                    map.elem(GAS, idx_of(xi, yi + 1, zi)),
                    map.elem(GAS, idx_of(xi, yi - 1, zi)),
                    map.elem(GAS, idx_of(xi, yi, zi + 1)),
                    map.elem(GAS, idx_of(xi, yi, zi - 1)),
                ];
                let mut g = [0f32; 6];
                vm.read_f32s_gather(map.base(), &idx, &mut g);
                let [gx1, gx0, gy1, gy0, gz1, gz0] = g;
                vm.compute(30);
                // Gas pushes bodies down-gradient, scaled by the coupling.
                (
                    -gas_coupling * (gx1 - gx0) / (2.0 * rho0),
                    -gas_coupling * (gy1 - gy0) / (2.0 * rho0),
                    -gas_coupling * (gz1 - gz0) / (2.0 * rho0),
                )
            };
            let g12 = grav(p1, p2);
            let g21 = grav(p2, p1);
            let d1 = gas_grad(p1);
            let d2 = gas_grad(p2);
            let a1 = (g12.0 + d1.0, g12.1 + d1.1, g12.2 + d1.2);
            let a2 = (g21.0 + d2.0, g21.1 + d2.1, g21.2 + d2.2);
            // (4) Semi-implicit Euler.
            v1 = (v1.0 + a1.0 * dt, v1.1 + a1.1 * dt, v1.2 + a1.2 * dt);
            v2 = (v2.0 + a2.0 * dt, v2.1 + a2.1 * dt, v2.2 + a2.2 * dt);
            p1 = (p1.0 + v1.0 * dt, p1.1 + v1.1 * dt, p1.2 + v1.2 * dt);
            p2 = (p2.0 + v2.0 * dt, p2.1 + v2.1 * dt, p2.2 + v2.2 * dt);
            trajectory.extend_from_slice(&[
                p1.0 as f64,
                p1.1 as f64,
                p1.2 as f64,
                p2.0 as f64,
                p2.1 as f64,
                p2.2 as f64,
            ]);
        }

        // Output: trajectories + a sample of the final field (the paper's
        // output is the physics data itself) — every 7th cell, one bulk
        // strided read whatever the layout.
        let mut out = trajectory;
        let mut sample = vec![0f32; cells.div_ceil(7)];
        map.read_f32s_every(vm, GAS, 0, 7, &mut sample);
        out.extend(sample.iter().map(|&v| v as f64));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_on_design;
    use avr_core::{DesignKind, ExactVm, SystemConfig};

    #[test]
    fn bodies_stay_bound_and_separated() {
        let w = Orbit::at_scale(BenchScale::Tiny);
        let mut vm = ExactVm::new();
        let out = w.run(&mut vm);
        for step in 0..w.steps {
            let p1 = (out[6 * step], out[6 * step + 1], out[6 * step + 2]);
            let p2 = (out[6 * step + 3], out[6 * step + 4], out[6 * step + 5]);
            let d = ((p1.0 - p2.0).powi(2) + (p1.1 - p2.1).powi(2) + (p1.2 - p2.2).powi(2)).sqrt();
            assert!(d > 1.0, "bodies collapsed at step {step}: d={d}");
            assert!(d < 32.0, "bodies escaped at step {step}: d={d}");
            assert!((0.0..32.0).contains(&p1.0) && (0.0..32.0).contains(&p2.0));
        }
    }

    #[test]
    fn gas_field_is_positive_and_near_background() {
        let w = Orbit::at_scale(BenchScale::Tiny);
        let mut vm = ExactVm::new();
        let out = w.run(&mut vm);
        let field = &out[6 * w.steps..];
        assert!(!field.is_empty());
        assert!(field.iter().all(|&p| (900.0..1400.0).contains(&p)), "density out of band");
    }

    #[test]
    fn orbital_motion_is_symmetric_about_com() {
        let w = Orbit::at_scale(BenchScale::Tiny);
        let mut vm = ExactVm::new();
        let out = w.run(&mut vm);
        let last = w.steps - 1;
        let p1y = out[6 * last + 1];
        let p2y = out[6 * last + 4];
        let com_y = (p1y + p2y) / 2.0;
        assert!((com_y - 16.0).abs() < 1.0, "CoM drifted: {com_y}");
    }

    #[test]
    fn avr_error_is_tiny() {
        let w = Orbit::at_scale(BenchScale::Tiny);
        // Codec-only band: pin the exact device so an AVR_BACKEND
        // override can't smear it (fault behavior is covered by
        // tests/fault_injection.rs).
        let cfg = SystemConfig::tiny().with_backend(avr_core::BackendKind::Exact);
        let m = run_on_design(&w, &cfg, DesignKind::Avr);
        // Paper: <0.05 % for orbit under AVR; tolerate tiny-scale slack.
        assert!(m.output_error < 0.02, "orbit AVR error {}", m.output_error);
    }
}
