//! The golden-run memoization contract (`avr::workloads::golden`): a
//! cached golden is **bit-identical** to a fresh `ExactVm` run, shared
//! across designs / backends / pool widths, and computed **exactly once**
//! per key under concurrency.
//!
//! The cache and its hit/compute counters are process-global, so every
//! test here serializes on one lock and diffs the counters inside it.

use avr::arch::{BackendKind, DesignKind, ExactVm, SimPool, SystemConfig};
use avr::workloads::golden::{clear, stats};
use avr::workloads::{all_benchmarks, golden_run, run_on_design, BenchScale, Workload};
use std::sync::Mutex;

/// Serializes tests sharing the process-global cache; `cargo test` runs
/// the tests in this binary on parallel threads otherwise.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // A panicking test poisons the lock; the cache state is still valid
    // for the next test because each test clears it first.
    CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn memoized_golden_is_bit_identical_to_a_fresh_exact_run_for_every_workload() {
    let _guard = lock();
    for w in all_benchmarks(BenchScale::Tiny) {
        clear();
        let cold = golden_run(w.as_ref()); // computes + populates
        let warm = golden_run(w.as_ref()); // served from the cache
        let mut exact = ExactVm::new();
        let fresh = w.run(&mut exact);
        assert_eq!(cold.len(), fresh.len(), "{}: output shape", w.name());
        for (i, (c, f)) in cold.iter().zip(&fresh).enumerate() {
            assert_eq!(
                c.to_bits(),
                f.to_bits(),
                "{}: cached golden differs from a fresh run at [{i}]",
                w.name()
            );
        }
        // The warm lookup returns the *same* allocation — shared, not
        // recomputed-and-equal.
        assert!(std::sync::Arc::ptr_eq(&cold, &warm), "{}: warm lookup reran", w.name());
    }
}

#[test]
fn all_nine_workloads_opt_into_memoization_with_distinct_keys() {
    let _guard = lock();
    let suite = all_benchmarks(BenchScale::Tiny);
    let mut keys = std::collections::HashSet::new();
    for w in &suite {
        let key = w
            .golden_key()
            .unwrap_or_else(|| panic!("{}: in-tree workload must provide a golden key", w.name()));
        assert_eq!(key.workload, w.name());
        assert!(keys.insert(key), "{}: key collides with another workload", w.name());
        // The two scales must not collide on one cached output.
        assert!(w.cost_hint() >= 1, "{}: degenerate cost hint", w.name());
    }
    for w in all_benchmarks(BenchScale::Bench) {
        let key = w.golden_key().unwrap();
        assert!(keys.insert(key), "{}: bench-scale key collides with tiny", w.name());
    }
}

#[test]
fn golden_is_shared_across_designs_and_backends() {
    let _guard = lock();
    clear();
    let suite = all_benchmarks(BenchScale::Tiny);
    let w = suite.iter().find(|w| w.name() == "bscholes").unwrap();
    let (h0, c0) = (stats::hits(), stats::computes());

    // Five designs × three backends of measured cells: one golden compute,
    // fourteen cache hits, and the same error metric basis everywhere the
    // engine is exact.
    let mut errs = Vec::new();
    for backend in BackendKind::ALL {
        let cfg = SystemConfig::tiny().with_backend(backend);
        for design in DesignKind::ALL {
            errs.push(run_on_design(w.as_ref(), &cfg, design).output_error);
        }
    }
    assert_eq!(stats::computes() - c0, 1, "golden recomputed across designs/backends");
    assert_eq!(stats::hits() - h0, (DesignKind::ALL.len() * BackendKind::ALL.len() - 1) as u64);
    assert!(errs.iter().all(|e| e.is_finite()));
}

#[test]
fn concurrent_pool_workers_compute_each_golden_exactly_once() {
    let _guard = lock();
    clear();
    let suite = all_benchmarks(BenchScale::Tiny);
    let w = suite.iter().find(|w| w.name() == "kmeans").unwrap();
    let (h0, c0) = (stats::hits(), stats::computes());

    // Eight workers race on one key: the per-key once-cell admits exactly
    // one compute; the other seven block and then hit.
    let pool = SimPool::new(8);
    let outs = pool.run_jobs(8, |_ctx| golden_run(w.as_ref()));
    assert_eq!(stats::computes() - c0, 1, "racing workers duplicated a golden run");
    assert_eq!(stats::hits() - h0, 7);
    for o in &outs[1..] {
        assert!(std::sync::Arc::ptr_eq(&outs[0], o), "workers saw different goldens");
    }
}

#[test]
fn pooled_grid_computes_one_golden_per_workload() {
    let _guard = lock();
    clear();
    let suite = all_benchmarks(BenchScale::Tiny);
    let light: Vec<Box<dyn Workload>> =
        suite.into_iter().filter(|w| matches!(w.name(), "orbit" | "kmeans" | "bscholes")).collect();
    let c0 = stats::computes();
    let grid =
        avr::workloads::run_grid(&SimPool::new(4), &light, &SystemConfig::tiny(), &DesignKind::ALL);
    assert_eq!(grid.len(), light.len() * DesignKind::ALL.len());
    assert_eq!(
        stats::computes() - c0,
        light.len() as u64,
        "a (workload × design) grid must compute each golden once, not once per cell"
    );
}

/// FNV-1a over an output's length and every value's `f64` bit pattern.
fn output_digest(out: &[f64]) -> u64 {
    std::iter::once(out.len() as u64).chain(out.iter().map(|v| v.to_bits())).fold(
        0xcbf2_9ce4_8422_2325,
        |h, x| {
            x.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
        },
    )
}

/// Digests of the golden outputs: all ten programs at tiny scale, and the
/// three programs whose host arithmetic is restructured for speed (kmeans's
/// centroid-outer assignment, fft's per-pass twiddle table, particles'
/// in-range wrap) at bench scale. Captured before that restructuring; a
/// change to any program's arithmetic that moves one output bit fails here.
const GOLDEN_PINS: [(&str, BenchScale, u64); 13] = [
    ("heat", BenchScale::Tiny, 0x8682_e6af_15d1_f6c2),
    ("lattice", BenchScale::Tiny, 0x9f70_2be2_899d_17c6),
    ("lbm", BenchScale::Tiny, 0x3ad9_e187_0e1f_24be),
    ("orbit", BenchScale::Tiny, 0x7823_c2c5_ab1e_47ec),
    ("kmeans", BenchScale::Tiny, 0x70a4_cd01_af16_657d),
    ("bscholes", BenchScale::Tiny, 0x3e0e_c828_9e29_628a),
    ("wrf", BenchScale::Tiny, 0x8a94_6934_848a_89c5),
    ("sobel", BenchScale::Tiny, 0xec9f_f1bc_cfaa_0715),
    ("fft", BenchScale::Tiny, 0x4694_2acc_706f_35ca),
    ("particles", BenchScale::Tiny, 0x2220_029c_5691_daa2),
    ("kmeans", BenchScale::Bench, 0x26e4_e44e_d1cb_a1ea),
    ("fft", BenchScale::Bench, 0xa4c6_7061_b5d2_12b0),
    ("particles", BenchScale::Bench, 0x811a_d3d4_e534_6133),
];

#[test]
fn golden_outputs_match_their_pins() {
    let _guard = lock();
    let names = avr::workloads::workload_names();
    let tiny = GOLDEN_PINS.iter().filter(|p| p.1 == BenchScale::Tiny).count();
    assert_eq!(tiny, names.len(), "every program has a tiny-scale pin");
    let mut failed = Vec::new();
    for &(name, scale, pin) in &GOLDEN_PINS {
        let w = avr::workloads::workload_by_name(name, scale).unwrap();
        let got = output_digest(&golden_run(w.as_ref()));
        if got != pin {
            failed.push(format!("{name}/{scale:?}: {got:#018x} (pinned {pin:#018x})"));
        }
    }
    assert!(failed.is_empty(), "golden outputs moved:\n{}", failed.join("\n"));
}
