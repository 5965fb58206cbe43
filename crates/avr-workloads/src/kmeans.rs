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
    /// coincide — the assignment array (one word per four points, see
    /// `run_in`) can't ride in the record, so it stays a separate precise
    /// array.
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
        // Precise: the assignment array and the centroid table. The array
        // is sized and written like a byte-per-point packed one (n bytes,
        // four points to a word), but word i holds point 4i's whole
        // centroid index: the store traffic is a packed array's, the
        // stored values a simplification.
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
        // per chunk, plus one bulk write of the chunk's assignment words.
        const CHUNK: usize = 1024;
        let mut elev = vec![0f32; CHUNK];
        let mut best_d = vec![0f32; CHUNK];
        let mut best = vec![0u32; CHUNK];
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
                let (elev, best) = (&mut elev[..len], &mut best[..len]);
                map.read_f32s(vm, ELEV, start, elev);
                nearest_centroids(elev, &c, &mut best_d[..len], best);
                add_to_clusters(elev, best, &mut sums, &mut counts);
                // Word i of the chunk's assignments: point 4i's centroid.
                for (w, &b) in packed.iter_mut().zip(best.iter().step_by(4)) {
                    *w = b;
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

/// Sets `best[i]` to the index of the centroid nearest `points[i]`: the
/// first `j` in centroid order whose `|points[i] - cents[j]|` is strictly
/// below every earlier distance and below `f32::MAX`, else `0`. The loop
/// runs centroid-outer, so the point loop inside is a vector compare and
/// select; each point still sees the same compares in the same order as a
/// point-at-a-time scan, so it gets the same first minimum, NaN and ±inf
/// included. `best_d` is scratch of `points`' length.
fn nearest_centroids(points: &[f32], cents: &[f32], best_d: &mut [f32], best: &mut [u32]) {
    let n = points.len();
    let (best_d, best) = (&mut best_d[..n], &mut best[..n]);
    best_d.fill(f32::MAX);
    best.fill(0);
    for (j, &cv) in (0u32..).zip(cents) {
        for ((bd, b), &e) in best_d.iter_mut().zip(best.iter_mut()).zip(points) {
            let d = (e - cv).abs();
            let closer = d < *bd;
            *bd = if closer { d } else { *bd };
            *b = if closer { j } else { *b };
        }
    }
}

/// Adds every point to its cluster's sum and count, in point order. Each
/// run of same-cluster points accumulates in a local, so the `f64`
/// additions into `sums[c]` are the ones `sums[best[i]] += points[i] as f64`
/// makes, in the same order, without a store and reload per point.
fn add_to_clusters(points: &[f32], best: &[u32], sums: &mut [f64], counts: &mut [u64]) {
    let Some(&first) = best.first() else { return };
    let (mut cur, mut acc, mut run) = (first as usize, sums[first as usize], 0u64);
    for (&e, &b) in points.iter().zip(best) {
        let b = b as usize;
        if b != cur {
            sums[cur] = acc;
            counts[cur] += run;
            (cur, acc, run) = (b, sums[b], 0);
        }
        acc += e as f64;
        run += 1;
    }
    sums[cur] = acc;
    counts[cur] += run;
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

    /// The point-at-a-time first-minimum scan that `nearest_centroids`
    /// reorders: the reference its output must match point for point.
    fn nearest_reference(e: f32, cents: &[f32]) -> u32 {
        let mut best = 0usize;
        let mut best_d = f32::MAX;
        for (j, &cv) in cents.iter().enumerate() {
            let d = (e - cv).abs();
            if d < best_d {
                best_d = d;
                best = j;
            }
        }
        best as u32
    }

    /// `nearest_centroids` and `add_to_clusters` against the reference
    /// scan and a per-point `sums[best] += e` on sums that start non-zero.
    fn check_against_reference(points: &[f32], cents: &[f32]) {
        let (n, k) = (points.len(), cents.len());
        let (mut best_d, mut best) = (vec![0f32; n], vec![u32::MAX; n]);
        nearest_centroids(points, cents, &mut best_d, &mut best);
        let (mut sums, mut counts) = (vec![0.25f64; k], vec![1u64; k]);
        add_to_clusters(points, &best, &mut sums, &mut counts);
        let (mut want_sums, mut want_counts) = (vec![0.25f64; k], vec![1u64; k]);
        for (i, &e) in points.iter().enumerate() {
            let want = nearest_reference(e, cents);
            assert_eq!(best[i], want, "point {i} = {e} against {cents:?}");
            want_sums[want as usize] += e as f64;
            want_counts[want as usize] += 1;
        }
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&sums), bits(&want_sums), "sums against {cents:?}");
        assert_eq!(counts, want_counts, "counts against {cents:?}");
    }

    #[test]
    fn centroid_outer_assignment_matches_the_per_point_scan() {
        // Seeded points at the shipped k values, over lengths on both
        // sides of the vector width and its unrolled multiples (the
        // shipped chunk is a multiple of all of them).
        for k in [1usize, 8, 16] {
            let cents: Vec<f32> =
                (0..k).map(|j| hash01(j as u64, 0xCE27) * 1000.0 - 100.0).collect();
            for len in [0usize, 1, 3, 7, 8, 9, 17, 31, 33, 63, 65, 1000, 1024] {
                let points: Vec<f32> =
                    (0..len).map(|i| hash01(i as u64, k as u64) * 1200.0 - 200.0).collect();
                check_against_reference(&points, &cents);
            }
        }
        // Points equidistant from two centroids, and a repeated centroid:
        // the first in centroid order wins.
        let ties: Vec<f32> = (0..37).map(|i| 5.0 * i as f32 - 20.0).collect();
        check_against_reference(&ties, &[0.0, 10.0, 20.0, 30.0, 10.0, 60.0, 50.0]);
        // NaN and ±inf points among ordinary ones (never closer than
        // f32::MAX, so they take centroid 0), and NaN centroids, which no
        // point is ever closer to.
        let odd: Vec<f32> = (0..45)
            .map(|i| match i % 5 {
                0 => f32::NAN,
                1 => f32::INFINITY,
                2 => f32::NEG_INFINITY,
                3 => f32::MAX,
                _ => 7.0 * i as f32 - 100.0,
            })
            .collect();
        for cents in [
            vec![0.0f32],
            vec![f32::NAN, 5.0, 100.0],
            vec![5.0, f32::NAN, 100.0, -50.0],
            vec![f32::NAN],
            vec![f32::INFINITY, -10.0, f32::NEG_INFINITY, 80.0],
        ] {
            check_against_reference(&odd, &cents);
            check_against_reference(&ties, &cents);
        }
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
