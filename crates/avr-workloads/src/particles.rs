//! `particles` — a 2-D particle/cell-list step (molecular-dynamics style),
//! added with the layout axis as the suite's genuinely mixed-criticality
//! record: each particle carries four approximable f32 fields (position,
//! velocity) *and* a precise i32 cell index in the same logical record.
//!
//! This is the workload the granularity gap is about. Under SoA the cell
//! indices live in their own precise region and approximation is free to
//! work on the float planes. Under AoS the record is interleaved at word
//! granularity, and the schema's **aggressive** placement policy keeps the
//! region approximable anyway — marking the index words critical so the
//! *device* backends protect them, while the AVR codec (which only sees
//! 1 KB blocks) may still smear them. The kernel therefore treats every
//! cell index read from memory as untrusted and clamps it before use:
//! corruption degrades the output, it must never crash the run.

use crate::golden::GoldenKey;
use crate::runner::{BenchScale, Workload};
use crate::terrain::hash01;
use avr_core::{FieldSpec, Layout, LayoutKind, RecordSchema, Vm};

/// Output stripes (rows of cells) for counts and mean speeds.
const STRIPES: usize = 16;

/// The particle-in-cell benchmark.
pub struct Particles {
    /// Particle count.
    pub n: usize,
    /// Cell grid side (the domain is `side × side` unit cells).
    pub side: usize,
    pub steps: usize,
}

impl Particles {
    pub fn at_scale(scale: BenchScale) -> Self {
        match scale {
            BenchScale::Tiny => Particles { n: 8192, side: 16, steps: 4 },
            // 5 words x 256 K particles ≈ 5 MB of records (80 %
            // approximable under SoA), the suite's footprint shape.
            BenchScale::Bench => Particles { n: 1 << 18, side: 64, steps: 6 },
        }
    }

    /// The mixed-criticality record. `aggressive()` is the point: under
    /// AoS the interleaved region *stays* approximable, with the index
    /// words marked critical for the device error models.
    fn schema() -> RecordSchema {
        RecordSchema::new(
            "particle",
            vec![
                FieldSpec::approx_f32("x"),
                FieldSpec::approx_f32("y"),
                FieldSpec::approx_f32("vx"),
                FieldSpec::approx_f32("vy"),
                FieldSpec::precise_i32("ci"),
            ],
        )
        .aggressive()
    }
}

/// Field indices into [`Particles::schema`].
const X: usize = 0;
const Y: usize = 1;
const VX: usize = 2;
const VY: usize = 3;
const CI: usize = 4;

impl Workload for Particles {
    fn name(&self) -> &'static str {
        "particles"
    }

    fn golden_key(&self) -> Option<GoldenKey> {
        Some(GoldenKey::new("particles", &[self.n as u64, self.side as u64, self.steps as u64], 0))
    }

    fn cost_hint(&self) -> u64 {
        // Five record words streamed + the force/update math per particle
        // per step.
        (self.n * self.steps * 8) as u64
    }

    fn layouts(&self) -> &'static [LayoutKind] {
        &[LayoutKind::Soa, LayoutKind::Aos, LayoutKind::Partitioned]
    }

    fn run_in(&self, vm: &mut dyn Vm, layout: LayoutKind) -> Vec<f64> {
        let n = self.n;
        let side = self.side;
        let cells = side * side;
        let sidef = side as f32;

        let map = Layout::new(Self::schema(), layout).instantiate(vm, n);
        // Precise: the per-cell occupancy histogram, rebuilt every step.
        let hist = vm.malloc(4 * cells).base;

        // Init: particles scattered over the unit-cell domain with a mild
        // deterministic velocity field. Chunked bulk stores per field.
        const CHUNK: usize = 1024;
        let mut bx = vec![0f32; CHUNK];
        let mut by = vec![0f32; CHUNK];
        let mut bvx = vec![0f32; CHUNK];
        let mut bvy = vec![0f32; CHUNK];
        let mut bci = vec![0u32; CHUNK];
        for start in (0..n).step_by(CHUNK) {
            let len = CHUNK.min(n - start);
            for o in 0..len {
                let i = (start + o) as u64;
                let x = hash01(i, 0xA11) * sidef;
                let y = hash01(i, 0xB22) * sidef;
                bx[o] = x;
                by[o] = y;
                bvx[o] = 0.4 * (hash01(i, 0xC33) - 0.5);
                bvy[o] = 0.4 * (hash01(i, 0xD44) - 0.5);
                bci[o] = (y as usize).min(side - 1) as u32 * side as u32
                    + (x as usize).min(side - 1) as u32;
            }
            vm.compute(20 * len as u64);
            map.write_f32s(vm, X, start, &bx[..len]);
            map.write_f32s(vm, Y, start, &by[..len]);
            map.write_f32s(vm, VX, start, &bvx[..len]);
            map.write_f32s(vm, VY, start, &bvy[..len]);
            map.write_u32s(vm, CI, start, &bci[..len]);
        }

        let dt = 0.1f32;
        let spring = 0.8f32;
        let swirl = 0.15f32;
        let center = sidef / 2.0;
        let mut counts = vec![0u32; cells];
        let mut speed_sum = [0f64; STRIPES];
        let mut stripe_n = [0u64; STRIPES];
        for _step in 0..self.steps {
            counts.fill(0);
            speed_sum.fill(0.0);
            stripe_n.fill(0);
            for start in (0..n).step_by(CHUNK) {
                let len = CHUNK.min(n - start);
                map.read_f32s(vm, X, start, &mut bx[..len]);
                map.read_f32s(vm, Y, start, &mut by[..len]);
                map.read_f32s(vm, VX, start, &mut bvx[..len]);
                map.read_f32s(vm, VY, start, &mut bvy[..len]);
                map.read_u32s(vm, CI, start, &mut bci[..len]);
                for o in 0..len {
                    // The stored index is untrusted (an aggressive AoS
                    // block may have smeared it): clamp before indexing.
                    let ci = (bci[o] as usize).min(cells - 1);
                    let (cx, cy) = ((ci % side) as f32 + 0.5, (ci / side) as f32 + 0.5);
                    // Spring toward the *stored* cell center + a global
                    // swirl: corrupted positions/indices bend trajectories
                    // but everything stays bounded.
                    let ax = spring * (cx - bx[o]) + swirl * (center - by[o]);
                    let ay = spring * (cy - by[o]) - swirl * (center - bx[o]);
                    bvx[o] += ax * dt;
                    bvy[o] += ay * dt;
                    bx[o] = (bx[o] + bvx[o] * dt).rem_euclid(sidef);
                    by[o] = (by[o] + bvy[o] * dt).rem_euclid(sidef);
                    // Re-bin.
                    let nci =
                        (by[o] as usize).min(side - 1) * side + (bx[o] as usize).min(side - 1);
                    bci[o] = nci as u32;
                    counts[nci] += 1;
                    let stripe = (by[o] / sidef * STRIPES as f32) as usize % STRIPES;
                    let sp = (bvx[o] * bvx[o] + bvy[o] * bvy[o]).sqrt();
                    speed_sum[stripe] += sp as f64;
                    stripe_n[stripe] += 1;
                }
                vm.compute(40 * len as u64);
                map.write_f32s(vm, X, start, &bx[..len]);
                map.write_f32s(vm, Y, start, &by[..len]);
                map.write_f32s(vm, VX, start, &bvx[..len]);
                map.write_f32s(vm, VY, start, &bvy[..len]);
                map.write_u32s(vm, CI, start, &bci[..len]);
            }
            // Commit the occupancy histogram (precise output surface).
            vm.write_u32s(hist, &counts);
        }

        // Output: per-stripe occupancy + per-stripe mean speed from the
        // final step, with the histogram re-read from (precise) memory.
        let mut final_counts = vec![0u32; cells];
        vm.read_u32s(hist, &mut final_counts);
        vm.compute(2 * cells as u64);
        let rows_per_stripe = side.div_ceil(STRIPES).max(1);
        let mut out = vec![0f64; STRIPES];
        for (ci, &c) in final_counts.iter().enumerate() {
            let stripe = ((ci / side) / rows_per_stripe).min(STRIPES - 1);
            out[stripe] += c as f64;
        }
        out.extend((0..STRIPES).map(|s| speed_sum[s] / stripe_n[s].max(1) as f64));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_on_design;
    use avr_core::{DesignKind, ExactVm, SystemConfig};

    #[test]
    fn exact_run_is_deterministic_and_conserves_particles() {
        let w = Particles::at_scale(BenchScale::Tiny);
        let mut vm1 = ExactVm::new();
        let o1 = w.run(&mut vm1);
        let mut vm2 = ExactVm::new();
        let o2 = w.run(&mut vm2);
        assert_eq!(o1, o2);
        assert_eq!(o1.len(), 2 * STRIPES);
        // Every particle lands in exactly one stripe.
        let total: f64 = o1[..STRIPES].iter().sum();
        assert_eq!(total, w.n as f64);
        // Speeds are positive and bounded (the spring/swirl field cannot
        // accelerate without bound at dt = 0.1).
        assert!(o1[STRIPES..].iter().all(|&s| s > 0.0 && s < 10.0));
    }

    #[test]
    fn every_layout_is_bit_identical_on_the_exact_vm() {
        // The layout contract: placement must not change functional
        // behavior when nothing corrupts memory.
        let w = Particles::at_scale(BenchScale::Tiny);
        let mut vm = ExactVm::new();
        let golden = w.run(&mut vm);
        for layout in [LayoutKind::Aos, LayoutKind::Partitioned] {
            let mut vm = ExactVm::new();
            assert_eq!(w.run_in(&mut vm, layout), golden, "{layout:?} diverged");
        }
    }

    #[test]
    fn corrupted_cell_indices_are_clamped_not_fatal() {
        // Poison the stored indices mid-schema-contract: a run whose CI
        // words decode to garbage must still complete with a conserved
        // particle count. We emulate this by checking the clamp in
        // isolation — indices ≥ cells map to the last cell.
        let w = Particles::at_scale(BenchScale::Tiny);
        let cells = w.side * w.side;
        for raw in [0u32, cells as u32 - 1, cells as u32, u32::MAX] {
            let ci = (raw as usize).min(cells - 1);
            assert!(ci < cells);
        }
    }

    #[test]
    fn avr_error_is_moderate_on_soa() {
        let w = Particles::at_scale(BenchScale::Tiny);
        // Codec-only band: pin the exact device so an AVR_BACKEND
        // override can't smear it (fault behavior is covered by
        // tests/fault_injection.rs).
        let cfg = SystemConfig::tiny().with_backend(avr_core::BackendKind::Exact);
        let m = run_on_design(&w, &cfg, DesignKind::Avr);
        assert!(m.output_error < 0.15, "particles AVR error {}", m.output_error);
        assert!(m.cycles > 0);
    }
}
