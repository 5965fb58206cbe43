//! Shared synthetic-input generators.
//!
//! Two of the paper's inputs are external artifacts we cannot ship: the car
//! silhouette used as the lattice obstacle and the Swedish topological
//! survey used as the k-means input. Both are replaced by procedural
//! equivalents with the same role: a rasterized car-shaped
//! mask and a midpoint-displacement fractal elevation profile with
//! realistic spatial correlation.

/// Minimal deterministic PRNG (splitmix64) so the generators need no
/// external RNG crate; sequences are stable across platforms and releases.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform f32 in [lo, hi).
    fn gen_range(&mut self, range: std::ops::Range<f32>) -> f32 {
        let unit = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32;
        range.start + unit * (range.end - range.start)
    }
}

/// 1-D fractal terrain via midpoint displacement.
///
/// `roughness` in (0,1): higher = rougher (H = 1 - roughness). The result
/// is deterministic in `seed` and sized to exactly `n` samples.
pub fn fractal_terrain(n: usize, base: f32, amplitude: f32, roughness: f32, seed: u64) -> Vec<f32> {
    assert!(n >= 2);
    let mut rng = SplitMix64(seed);
    // Work on a power-of-two + 1 grid, then truncate.
    let size = (n - 1).next_power_of_two() + 1;
    let mut h = vec![0f32; size];
    h[0] = base + rng.gen_range(-amplitude..amplitude);
    h[size - 1] = base + rng.gen_range(-amplitude..amplitude);
    let mut step = size - 1;
    let mut amp = amplitude;
    while step > 1 {
        let half = step / 2;
        let mut i = half;
        while i < size {
            let mid = (h[i - half] + h[(i + half).min(size - 1)]) * 0.5;
            h[i] = mid + rng.gen_range(-amp..amp);
            i += step;
        }
        step = half;
        amp *= 0.5f32.powf(1.0 - roughness);
    }
    h.truncate(n);
    h
}

/// A 2-D obstacle mask shaped like a car silhouette (side view): a body
/// box, a cabin box and two wheels, placed in the left third of the domain.
/// Returns row-major booleans (`true` = solid).
pub fn car_silhouette(width: usize, height: usize) -> Vec<bool> {
    let mut mask = vec![false; width * height];
    let w = width as f32;
    let h = height as f32;
    // Geometry in fractional coordinates.
    let body = (0.10 * w, 0.40 * h, 0.38 * w, 0.62 * h); // x0,y0,x1,y1
    let cabin = (0.17 * w, 0.28 * h, 0.30 * w, 0.42 * h);
    let wheels = [(0.16 * w, 0.66 * h), (0.33 * w, 0.66 * h)];
    let wheel_r = 0.06 * h.min(w);
    for y in 0..height {
        for x in 0..width {
            let (xf, yf) = (x as f32, y as f32);
            let in_box = |b: (f32, f32, f32, f32)| xf >= b.0 && xf <= b.2 && yf >= b.1 && yf <= b.3;
            let in_wheel = wheels
                .iter()
                .any(|(cx, cy)| (xf - cx).powi(2) + (yf - cy).powi(2) <= wheel_r * wheel_r);
            if in_box(body) || in_box(cabin) || in_wheel {
                mask[y * width + x] = true;
            }
        }
    }
    mask
}

/// Deterministic pseudo-random f32 in [0,1) from an index (for workloads
/// that need cheap per-element randomness without an RNG object).
#[inline]
pub fn hash01(i: u64, salt: u64) -> f32 {
    let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(salt);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    (x >> 40) as f32 / (1u64 << 24) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terrain_is_deterministic_and_sized() {
        let a = fractal_terrain(1000, 350.0, 120.0, 0.6, 42);
        let b = fractal_terrain(1000, 350.0, 120.0, 0.6, 42);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1000);
    }

    #[test]
    fn terrain_respects_amplitude_scale() {
        let t = fractal_terrain(4096, 500.0, 100.0, 0.5, 7);
        let (min, max) = t.iter().fold((f32::MAX, f32::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        assert!(min > 0.0, "elevations stay positive: {min}");
        assert!(max - min > 50.0, "terrain has relief: {}", max - min);
        assert!(max - min < 1000.0, "relief bounded: {}", max - min);
    }

    #[test]
    fn rougher_terrain_has_more_local_variation() {
        let smooth = fractal_terrain(4096, 0.0, 100.0, 0.2, 9);
        let rough = fractal_terrain(4096, 0.0, 100.0, 0.9, 9);
        let tv = |t: &[f32]| -> f32 { t.windows(2).map(|w| (w[1] - w[0]).abs()).sum() };
        assert!(tv(&rough) > 2.0 * tv(&smooth));
    }

    #[test]
    fn car_mask_is_solid_in_the_left_third() {
        let (w, h) = (128, 64);
        let mask = car_silhouette(w, h);
        let solid = mask.iter().filter(|&&s| s).count();
        assert!(solid > 0);
        // Everything solid lies in the left half.
        for y in 0..h {
            for x in w / 2..w {
                assert!(!mask[y * w + x], "solid at ({x},{y})");
            }
        }
        // Body center is solid.
        assert!(mask[(h / 2) * w + w / 5]);
    }

    #[test]
    fn hash01_is_uniform_ish() {
        let n = 10_000;
        let mean: f32 = (0..n).map(|i| hash01(i, 1)).sum::<f32>() / n as f32;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
