//! Memoization of the design-invariant **golden runs**.
//!
//! Every measured cell of a (workload × design × backend) grid needs the
//! workload's *exact* output — the [`avr_core::ExactVm`] "golden" run that
//! Table 3's mean-relative-error metric compares against. That run is a
//! pure function of the workload instance: it does not depend on the
//! design, the device error-model backend, or the thread the cell happens
//! to execute on. Recomputing it per cell made the goldens a dominant
//! share of `bench_e2e` wall time once the timed engine got fast
//! (ROADMAP PR-5 note): a five-design grid paid the same exact run five
//! times, and every backend axis paid it again.
//!
//! [`golden_run`] computes each golden **once per process** and shares it
//! across designs, backends and pool widths. The cache key is
//! [`GoldenKey`]: the workload's name, a fingerprint of its
//! size-determining parameters (which is what distinguishes the `tiny`
//! from the `bench` scale — and also keeps user-constructed custom sizes
//! apart), and a seed slot for stochastic workloads. Workloads opt in by
//! implementing [`crate::Workload::golden_key`]; the default (`None`)
//! keeps third-party workloads on the always-recompute path, so a
//! workload whose `run` is *not* a pure function of its fields can never
//! be served a stale output.
//!
//! # Memoization contract
//!
//! * The cached output is **bit-identical** to a fresh [`ExactVm`] run
//!   (`tests/golden_cache.rs` pins memoized vs. recomputed per workload,
//!   across designs, backends and thread widths). This holds because
//!   `ExactVm` is deterministic and `run` draws no ambient state.
//! * Under concurrency each key is computed **exactly once**: racing pool
//!   workers block on the per-key [`OnceLock`] instead of duplicating the
//!   run (the [`stats`] counters make this assertable).
//! * [`clear`] empties the cache for cold-cache sections and tests.

use crate::runner::Workload;
use avr_core::ExactVm;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Identity of one golden run: `(workload, parameter fingerprint, seed)`.
///
/// The fingerprint captures the *scale* — every field that changes the
/// simulated input or trip counts must be folded in, or two instances
/// would collide on one cached output. [`GoldenKey::new`] hashes the
/// provided parameter words with splitmix64 so callers just list their
/// size-determining fields (floats via `to_bits`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GoldenKey {
    /// The workload's `name()`.
    pub workload: &'static str,
    /// Splitmix64 fold of the size-determining parameters.
    pub params: u64,
    /// Seed slot for stochastic workloads (the deterministic nine use 0).
    pub seed: u64,
}

impl GoldenKey {
    /// Build a key from the workload name, its size-determining parameter
    /// words, and a seed.
    pub fn new(workload: &'static str, params: &[u64], seed: u64) -> Self {
        let mut h = 0x243F_6A88_85A3_08D3u64; // π digits: an arbitrary non-zero start
        for &p in params {
            // splitmix64 round over the running fold — cheap, stable, and
            // collision-resistant far beyond a nine-workload grid.
            let mut z = h ^ p.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h = z ^ (z >> 31);
        }
        GoldenKey { workload, params: h, seed }
    }
}

/// Cache hit/compute counters (process-global, for tests and bench logs).
pub mod stats {
    use super::*;

    pub(super) static HITS: AtomicU64 = AtomicU64::new(0);
    pub(super) static COMPUTES: AtomicU64 = AtomicU64::new(0);

    /// Lookups served from an already-computed entry.
    pub fn hits() -> u64 {
        HITS.load(Ordering::Relaxed)
    }

    /// Golden runs actually executed through the cache (equals the number
    /// of distinct keys seen since the last [`super::clear`], even under
    /// concurrent lookups).
    pub fn computes() -> u64 {
        COMPUTES.load(Ordering::Relaxed)
    }
}

type Entry = Arc<OnceLock<Arc<Vec<f64>>>>;

fn map() -> &'static Mutex<HashMap<GoldenKey, Entry>> {
    static MAP: OnceLock<Mutex<HashMap<GoldenKey, Entry>>> = OnceLock::new();
    MAP.get_or_init(Mutex::default)
}

/// Empty the cache (cold-cache timing sections, test isolation). Counters
/// in [`stats`] keep accumulating; diff around a region instead.
pub fn clear() {
    map().lock().unwrap().clear();
}

/// The workload's golden (exact-execution) output — memoized across
/// designs, backends and threads when the workload provides a
/// [`crate::Workload::golden_key`], recomputed otherwise. See the module
/// docs for the contract.
pub fn golden_run(workload: &dyn Workload) -> Arc<Vec<f64>> {
    let compute = || {
        let mut exact = ExactVm::new();
        Arc::new(workload.run(&mut exact))
    };
    let Some(key) = workload.golden_key() else {
        return compute();
    };
    // Entry resolution holds the map lock only for the HashMap probe; the
    // golden run itself executes under the per-key once-cell, so two
    // workers racing on *different* keys compute in parallel and two
    // racing on the *same* key compute it once (the loser blocks — it has
    // nothing else to do before its timed run needs this output anyway).
    let entry: Entry = {
        let mut m = map().lock().unwrap();
        Arc::clone(m.entry(key).or_default())
    };
    let mut computed = false;
    let out = entry.get_or_init(|| {
        computed = true;
        stats::COMPUTES.fetch_add(1, Ordering::Relaxed);
        compute()
    });
    if !computed {
        stats::HITS.fetch_add(1, Ordering::Relaxed);
    }
    Arc::clone(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_distinguishes_params_and_seed() {
        let a = GoldenKey::new("w", &[96, 96, 4], 0);
        let b = GoldenKey::new("w", &[96, 96, 5], 0);
        let c = GoldenKey::new("w", &[96, 96, 4], 1);
        assert_ne!(a, b, "param change must change the key");
        assert_ne!(a, c, "seed change must change the key");
        assert_eq!(a, GoldenKey::new("w", &[96, 96, 4], 0), "keys are pure");
    }

    #[test]
    fn order_of_params_matters() {
        // (width=2, height=3) and (width=3, height=2) are different runs.
        let a = GoldenKey::new("w", &[2, 3], 0);
        let b = GoldenKey::new("w", &[3, 2], 0);
        assert_ne!(a.params, b.params);
    }
}
