//! The batched span-level timed walk vs. the retained per-word walk.
//!
//! `System` folds the guaranteed-L1-hit tail of every cacheline span into
//! closed-form core/cache/counter updates (`IntervalCore::
//! issue_complete_short_n`, `SetAssocCache::access_hit_n`). The contract
//! is **cycle-exactness**: the batched walk is a host-speed optimization
//! and must never change the simulation. This file pins default (batched)
//! runs bit-identical to `AVR_NO_BATCHED_WALK=1` (per-word) runs — every
//! counter, the traffic split, the energy breakdown and the application's
//! output bits — for all ten workloads on every design. The CI matrix leg
//! that runs the whole suite under `AVR_NO_BATCHED_WALK=1` keeps the
//! per-word reference walk alive forever; this file keeps the two walks
//! equal.

use avr::arch::{DesignKind, System, SystemConfig};
use avr::workloads::{all_benchmarks, BenchScale};

/// Run one workload twice — batched walk on and off — and require every
/// observable to match exactly.
fn assert_walks_identical(design: DesignKind) {
    let cfg = SystemConfig::tiny();
    for w in all_benchmarks(BenchScale::Tiny) {
        let mut batched_sys = System::new(cfg.clone(), design);
        batched_sys.set_batched_walk(true);
        let batched_out = w.run(&mut batched_sys);
        let batched = batched_sys.finish(w.name());

        let mut word_sys = System::new(cfg.clone(), design);
        word_sys.set_batched_walk(false);
        let word_out = w.run(&mut word_sys);
        let word = word_sys.finish(w.name());

        let ctx = format!("{} on {design:?}", w.name());
        assert_eq!(batched.cycles, word.cycles, "{ctx}: cycles");
        assert_eq!(batched.counters.instructions, word.counters.instructions, "{ctx}: instr");
        assert_eq!(batched.counters.loads, word.counters.loads, "{ctx}: loads");
        assert_eq!(batched.counters.stores, word.counters.stores, "{ctx}: stores");
        assert_eq!(batched.counters.l1_hits, word.counters.l1_hits, "{ctx}: L1 hits");
        assert_eq!(batched.counters.l2_hits, word.counters.l2_hits, "{ctx}: L2 hits");
        assert_eq!(
            batched.counters.llc_requests_total, word.counters.llc_requests_total,
            "{ctx}: LLC requests"
        );
        assert_eq!(
            batched.counters.llc_misses_total, word.counters.llc_misses_total,
            "{ctx}: LLC misses"
        );
        assert_eq!(batched.counters.traffic, word.counters.traffic, "{ctx}: traffic");
        assert_eq!(
            batched.counters.approx_requests, word.counters.approx_requests,
            "{ctx}: approx request breakdown"
        );
        assert_eq!(
            batched.counters.evictions, word.counters.evictions,
            "{ctx}: eviction breakdown"
        );
        assert_eq!(batched.counters.memo, word.counters.memo, "{ctx}: memo events");
        assert_eq!(
            batched.counters.amat_cycles_sum, word.counters.amat_cycles_sum,
            "{ctx}: AMAT sum"
        );
        assert_eq!(batched.counters.amat_count, word.counters.amat_count, "{ctx}: AMAT count");
        assert_eq!(
            (batched.counters.miss_lat_sum, batched.counters.miss_lat_count),
            (word.counters.miss_lat_sum, word.counters.miss_lat_count),
            "{ctx}: miss-latency diagnostics"
        );
        assert_eq!(
            batched_sys.core_diag(),
            word_sys.core_diag(),
            "{ctx}: (leading, trailing, stalls)"
        );
        assert_eq!(batched_sys.l1_stats(), word_sys.l1_stats(), "{ctx}: L1 stats");
        assert_eq!(batched_sys.l2_stats(), word_sys.l2_stats(), "{ctx}: L2 stats");
        assert_eq!(batched.energy, word.energy, "{ctx}: energy breakdown");
        assert_eq!(batched.ipc.to_bits(), word.ipc.to_bits(), "{ctx}: IPC");
        assert_eq!(
            batched.compression_ratio.to_bits(),
            word.compression_ratio.to_bits(),
            "{ctx}: compression ratio"
        );
        assert_eq!(
            batched.footprint_fraction.to_bits(),
            word.footprint_fraction.to_bits(),
            "{ctx}: footprint"
        );
        assert_eq!(batched_out.len(), word_out.len(), "{ctx}: output shape");
        for (i, (a, b)) in batched_out.iter().zip(&word_out).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: output bit-diverges at {i}");
        }
    }
}

#[test]
fn batched_walk_is_cycle_exact_on_avr() {
    assert_walks_identical(DesignKind::Avr);
}

#[test]
fn batched_walk_is_cycle_exact_on_baseline() {
    assert_walks_identical(DesignKind::Baseline);
}

#[test]
fn batched_walk_is_cycle_exact_on_zero_avr() {
    assert_walks_identical(DesignKind::ZeroAvr);
}

#[test]
fn batched_walk_is_cycle_exact_on_truncate() {
    assert_walks_identical(DesignKind::Truncate);
}

#[test]
fn batched_walk_is_cycle_exact_on_doppelganger() {
    assert_walks_identical(DesignKind::Doppelganger);
}

#[test]
fn batched_walk_is_cycle_exact_on_memoin() {
    assert_walks_identical(DesignKind::MemoIn);
}

#[test]
fn batched_walk_is_cycle_exact_on_memoout() {
    assert_walks_identical(DesignKind::MemoOut);
}

/// The escape hatch is honored at construction: a default-constructed
/// `System` must agree with whatever `AVR_NO_BATCHED_WALK` says right
/// now. Read-only on the environment (mutating it mid-suite is a
/// `setenv`/`getenv` data race on glibc), this asserts the *enabled*
/// default on the normal CI legs and the *disabled* state on the
/// `test-perword` matrix leg — so both sides of the hatch are exercised
/// across the matrix.
#[test]
fn escape_hatch_env_is_honored_at_construction() {
    let disabled =
        matches!(std::env::var("AVR_NO_BATCHED_WALK"), Ok(v) if !v.is_empty() && v != "0");
    let sys = System::new(SystemConfig::tiny(), DesignKind::Avr);
    assert_eq!(
        sys.batched_walk(),
        !disabled,
        "System::new must follow AVR_NO_BATCHED_WALK (disabled={disabled})"
    );
}
