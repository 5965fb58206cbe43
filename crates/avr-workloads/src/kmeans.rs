//! `kmeans` — 1-D k-means clustering applied to a geographic elevation map
//! (the paper uses a Swedish topological survey tile; we use fractal
//! terrain with matching statistics, see [`crate::terrain`]). Approximable
//! data: the elevation samples ("Topol."); output: the cluster centroids.
//!
//! This is the one benchmark whose *work* depends on data quality: the
//! iteration count until convergence can grow when the input is
//! approximated (the paper calls this out explicitly for AVR).

use crate::golden::GoldenKey;
use crate::runner::{BenchScale, Workload};
use crate::terrain::{fractal_terrain, hash01};
use avr_core::{FieldSpec, Layout, LayoutKind, RecordSchema, Vm};
use avr_types::PhysAddr;

/// The k-means benchmark.
pub struct KMeans {
    pub points: usize,
    pub k: usize,
    pub max_iters: usize,
    /// Convergence threshold on total centroid movement (meters).
    pub eps: f32,
}

impl KMeans {
    pub fn at_scale(scale: BenchScale) -> Self {
        match scale {
            BenchScale::Tiny => KMeans { points: 4096, k: 8, max_iters: 40, eps: 6.0 },
            // ~4 MB of elevations + 1 MB assignments ≈ the paper's
            // 5.5 MB/core footprint shape.
            BenchScale::Bench => KMeans { points: 1 << 20, k: 16, max_iters: 25, eps: 6.0 },
        }
    }

    #[inline]
    fn at(base: PhysAddr, i: usize) -> PhysAddr {
        PhysAddr(base.0 + 4 * i as u64)
    }

    /// One record per survey point: just the elevation sample. A
    /// single-field record is the degenerate case where AoS and SoA
    /// coincide — the byte-packed assignments can't ride in the record
    /// (four of them share a word), so they stay a separate precise array.
    fn schema() -> RecordSchema {
        RecordSchema::new("sample", vec![FieldSpec::approx_f32("elev")])
    }
}

/// Field index into [`KMeans::schema`].
const ELEV: usize = 0;

impl Workload for KMeans {
    fn name(&self) -> &'static str {
        "kmeans"
    }

    fn golden_key(&self) -> Option<GoldenKey> {
        Some(GoldenKey::new(
            "kmeans",
            &[
                self.points as u64,
                self.k as u64,
                self.max_iters as u64,
                u64::from(self.eps.to_bits()),
            ],
            0,
        ))
    }

    fn cost_hint(&self) -> u64 {
        // One elevation stream per assign pass, up to max_iters passes
        // (convergence may stop earlier — a coarse upper bound is fine).
        (self.points * self.max_iters) as u64
    }

    fn layouts(&self) -> &'static [LayoutKind] {
        &[LayoutKind::Soa, LayoutKind::Aos]
    }

    fn run_in(&self, vm: &mut dyn Vm, layout: LayoutKind) -> Vec<f64> {
        let n = self.points;
        let k = self.k;
        // Approximable: the elevation samples.
        let map = Layout::new(Self::schema(), layout).instantiate(vm, n);
        // Precise: assignments (one byte per point, packed 4/word) and the
        // centroid table.
        let asg = vm.malloc(n).base;
        let cent = vm.malloc(4 * k).base;

        // Input: correlated terrain — rough at the 16-sample sub-block
        // scale, like real elevation data (this is what limits AVR to a
        // ~2.3:1 ratio in Table 4). The 700 m base keeps relative local
        // relief in the few-percent band where *some* values become
        // outliers but blocks still compress.
        let coarse = fractal_terrain(n, 700.0, 180.0, 0.55, 0x5EED);
        // Fine-scale bumps with a ~4-sample correlation length and a fixed
        // amplitude: local (sub-block-scale) roughness is then independent
        // of the dataset size, like real survey data.
        let fine_amp = 16.0f32;
        let terrain: Vec<f32> = coarse
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let cell = (i / 4) as u64;
                let frac = (i % 4) as f32 / 4.0;
                let a = hash01(cell, 0xF1E1) * 2.0 - 1.0;
                let b = hash01(cell + 1, 0xF1E1) * 2.0 - 1.0;
                c + fine_amp * (a * (1.0 - frac) + b * frac)
            })
            .collect();
        map.write_f32s(vm, ELEV, 0, &terrain);

        // Initialize centroids evenly over the value range.
        let (lo, hi) =
            terrain.iter().fold((f32::MAX, f32::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let init: Vec<f32> = (0..k).map(|c| lo + (hi - lo) * (c as f32 + 0.5) / k as f32).collect();
        vm.write_f32s(cent, &init);

        // The assign pass streams the elevations in chunks: one bulk read
        // per chunk, plus one packed bulk write of the chunk's assignments.
        const CHUNK: usize = 1024;
        let mut elev = vec![0f32; CHUNK];
        let mut packed = vec![0u32; CHUNK / 4];
        let mut c = vec![0f32; k];
        let mut iterations = 0usize;
        for _ in 0..self.max_iters {
            iterations += 1;
            // Load centroids into registers (they are tiny + precise).
            vm.read_f32s(cent, &mut c);
            let mut sums = vec![0f64; k];
            let mut counts = vec![0u64; k];

            // Assign.
            for start in (0..n).step_by(CHUNK) {
                let len = CHUNK.min(n - start);
                map.read_f32s(vm, ELEV, start, &mut elev[..len]);
                for (o, &e) in elev[..len].iter().enumerate() {
                    let mut best = 0usize;
                    let mut best_d = f32::MAX;
                    for (j, &cv) in c.iter().enumerate() {
                        let d = (e - cv).abs();
                        if d < best_d {
                            best_d = d;
                            best = j;
                        }
                    }
                    sums[best] += e as f64;
                    counts[best] += 1;
                    // Pack the assignment byte.
                    if o % 4 == 0 {
                        packed[o / 4] = best as u32;
                    }
                }
                vm.compute(3 * k as u64 * len as u64);
                vm.write_u32s(Self::at(asg, start / 4), &packed[..len.div_ceil(4)]);
            }

            // Update.
            let mut moved = 0f32;
            for j in 0..k {
                if counts[j] > 0 {
                    let nv = (sums[j] / counts[j] as f64) as f32;
                    moved += (nv - c[j]).abs();
                    c[j] = nv;
                }
            }
            vm.write_f32s(cent, &c);
            vm.compute(8 * k as u64);
            if moved < self.eps {
                break;
            }
        }

        // Output: the centroids (sorted — cluster identity is arbitrary).
        // The iteration count (workload inflation under approximation) is
        // visible through the instruction counters, not the output error.
        let _ = iterations;
        let mut fin = vec![0f32; k];
        vm.read_f32s(cent, &mut fin);
        let mut out: Vec<f64> = fin.iter().map(|&v| v as f64).collect();
        out.sort_by(|a, b| a.partial_cmp(b).unwrap());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_on_design;
    use avr_core::{DesignKind, ExactVm, SystemConfig};

    #[test]
    fn converges_on_exact_run() {
        let w = KMeans::at_scale(BenchScale::Tiny);
        let mut vm = ExactVm::new();
        let out = w.run(&mut vm);
        assert_eq!(out.len(), w.k);
        // Centroids are sorted and within the data range.
        let cents = &out[..w.k];
        assert!(cents.windows(2).all(|p| p[0] <= p[1]));
        assert!(cents.iter().all(|&c| (0.0..1200.0).contains(&c)));
    }

    #[test]
    fn centroids_partition_the_range() {
        let w = KMeans::at_scale(BenchScale::Tiny);
        let mut vm = ExactVm::new();
        let out = w.run(&mut vm);
        let cents = &out[..w.k];
        // Spread: max - min covers a good share of the terrain relief.
        assert!(cents[w.k - 1] - cents[0] > 100.0);
    }

    #[test]
    fn avr_error_is_moderate_and_bounded() {
        let w = KMeans::at_scale(BenchScale::Tiny);
        // Codec-only band: pin the exact device so an AVR_BACKEND
        // override can't smear it (fault behavior is covered by
        // tests/fault_injection.rs).
        let cfg = SystemConfig::tiny().with_backend(avr_core::BackendKind::Exact);
        let m = run_on_design(&w, &cfg, DesignKind::Avr);
        // The paper reports 1.2 % for kmeans — allow slack at tiny scale.
        assert!(m.output_error < 0.10, "kmeans AVR error {}", m.output_error);
    }
}
