//! The CI legs select alternate implementations through `AVR_*` knobs:
//! `test-scalar` sets `AVR_NO_SIMD=1`, `test-perword`
//! `AVR_NO_BATCHED_WALK=1`, `test-relaxed` `AVR_BACKEND=relaxed` and
//! `test-pooled` `AVR_THREADS=4`. This test reads those four variables
//! itself, without `avr_types::knobs`, and checks that every consumer
//! follows them. It runs in every leg, so each leg proves it selected
//! what it claims to, and the default legs prove the defaults.

use avr::arch::{BackendKind, DesignKind, SimPool, System, SystemConfig};
use avr::compress::simd::{self, SimdArm};

fn var(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// The flag rule: on when non-empty and not `0`.
fn flag(name: &str) -> bool {
    var(name).is_some_and(|v| !v.is_empty() && v != "0")
}

#[test]
fn ci_leg_variables_reach_every_consumer() {
    let arm = simd::kernels().arm;
    if flag("AVR_NO_SIMD") {
        assert_eq!(arm, SimdArm::Scalar, "AVR_NO_SIMD is on");
    } else {
        let strongest = simd::supported_arms().last().expect("scalar is always supported");
        assert_eq!(arm, strongest, "AVR_NO_SIMD is off");
    }

    let sys = System::new(SystemConfig::tiny(), DesignKind::Avr);
    assert_eq!(sys.batched_walk(), !flag("AVR_NO_BATCHED_WALK"));
    let backend = match var("AVR_BACKEND").as_deref().map(str::trim) {
        Some("relaxed") => BackendKind::RelaxedDram,
        Some("mram") => BackendKind::ApproxMram,
        _ => BackendKind::Exact,
    };
    assert_eq!(sys.backend_kind(), backend, "AVR_BACKEND={:?}", var("AVR_BACKEND"));

    let threads = SimPool::from_env().threads();
    match var("AVR_THREADS").and_then(|v| v.trim().parse::<usize>().ok()).filter(|&n| n >= 1) {
        Some(n) => assert_eq!(threads, n, "AVR_THREADS={n}"),
        None => {
            let host = std::thread::available_parallelism().map_or(1, |n| n.get());
            assert_eq!(threads, host, "AVR_THREADS unset: the host's parallelism");
        }
    }
}
