//! The host-speed probe: a fixed piece of work, independent of the
//! simulator's code, timed next to every measured pass and set-up.
//!
//! On the shared 2-core development host the other tenants' load moved the
//! probe's time between 2 and 6 ms within a single run, and unscaled pass
//! times spread by 8-39 % between runs, more than any bound the benchmark
//! could hold. Both cores slowed together (two threads probing at once
//! agreed with a correlation of 0.96 over 0.5 s windows), and a pure
//! compute loop slowed less than half as much, so the load is on the
//! memory system the two cores share. The probe is slowed by the same load, so the
//! benchmark scales each host time by [`scale`] of the probes run around
//! it: a time is reported as it would be on a host where the probe takes
//! [`REFERENCE_MS`].
//!
//! The probe is hash-map inserts and lookups in a table of about 2 MB,
//! allocated once per thread so that it leaves the allocator and the peak
//! memory alone. Of the probes tried (a compute loop, pointer chases over
//! 0.5-32 MB, streaming, page faults, small allocations, block copies, hash
//! maps) it followed the simulator best: over a 120 s `dedup-memo` run its
//! time and the pass time moved together with a correlation of 0.96. It
//! runs on the measuring thread between cells, never beside them: a thread
//! probing every 25 ms on the other core made the simulator's passes more
//! than 50 % slower.

use std::cell::RefCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

use crate::plan::splitmix64;

/// Probe time on the reference host, in ms: a round number just under the
/// probe's fastest times on the development host (2.0-2.3 ms; 3-4 ms
/// typical).
pub const REFERENCE_MS: f64 = 2.0;

/// How strongly the simulator's host time follows the probe's, as the
/// exponent of the probe ratio in [`scale`]. The simulator spends part of
/// its time computing, which the load slows less than the probe's memory
/// accesses. Over four sets of ten runs of each workload, 0.9 gave the
/// smallest worst-case spread of the scaled times in three sets; single
/// workloads did best anywhere from 0.8 to 1.0 (README, "Measured spread").
const ELASTICITY: f64 = 0.9;

/// A fixed hasher, so that every probe does the same work.
type Table = HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>;

thread_local! {
    static TABLE: RefCell<Table> =
        RefCell::new(Table::with_capacity_and_hasher(1 << 16, Default::default()));
}

/// Run the probe and return its time in ms.
pub fn probe_ms() -> f64 {
    const OPS: usize = 60_000;
    const KEYS: u64 = (1 << 20) - 1;
    TABLE.with(|table| {
        let mut table = table.borrow_mut();
        table.clear();
        let t0 = Instant::now();
        let mut state = 11;
        for _ in 0..OPS {
            *table.entry(splitmix64(&mut state) & KEYS).or_insert(0) += 1;
        }
        let mut hits = 0;
        for _ in 0..OPS {
            hits += table.get(&(splitmix64(&mut state) & KEYS)).copied().unwrap_or(0);
        }
        black_box(hits);
        t0.elapsed().as_secs_f64() * 1e3
    })
}

/// The factor that scales a host time measured between `probes` (ms) to
/// the reference host: [`REFERENCE_MS`] over their mean, to the power
/// [`ELASTICITY`].
pub fn scale(probes: &[f64]) -> f64 {
    let mean = probes.iter().sum::<f64>() / probes.len() as f64;
    (REFERENCE_MS / mean).powf(ELASTICITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_follows_the_mean_probe() {
        assert_eq!(scale(&[REFERENCE_MS, REFERENCE_MS]), 1.0);
        assert_eq!(scale(&[3.0 * REFERENCE_MS, REFERENCE_MS]), 0.5f64.powf(ELASTICITY));
        assert!(scale(&[4.0]) < scale(&[3.0]));
        assert!(probe_ms() > 0.0);
    }
}
