//! The whole simulator is deterministic: identical runs produce identical
//! cycle counts, traffic, and outputs — a property the regenerated figures
//! and the committed trajectory files depend on.

use avr::arch::{DesignKind, SimPool, SystemConfig};
use avr::workloads::{all_benchmarks, run_grid, run_on_design, BenchScale};

#[test]
fn repeated_runs_are_bit_identical() {
    let cfg = SystemConfig::tiny();
    for w in all_benchmarks(BenchScale::Tiny) {
        // heat + kmeans cover the stencil and convergence-loop classes;
        // running all nine twice would double CI time for no extra signal.
        if !matches!(w.name(), "heat" | "kmeans") {
            continue;
        }
        for design in [DesignKind::Avr, DesignKind::Doppelganger, DesignKind::Truncate] {
            let a = run_on_design(w.as_ref(), &cfg, design);
            let b = run_on_design(w.as_ref(), &cfg, design);
            assert_eq!(a.cycles, b.cycles, "{} {:?} cycles differ", w.name(), design);
            assert_eq!(
                a.counters.traffic,
                b.counters.traffic,
                "{} {:?} traffic differs",
                w.name(),
                design
            );
            assert_eq!(
                a.output_error,
                b.output_error,
                "{} {:?} output error differs",
                w.name(),
                design
            );
            assert_eq!(a.counters.llc_misses_total, b.counters.llc_misses_total);
        }
    }
}

#[test]
fn pool_runs_are_bit_identical_to_single_threaded_for_every_workload() {
    // The SimPool engine's core contract: sharding the (workload × design)
    // grid across N workers changes nothing — not a cycle, not a byte of
    // traffic, not an output bit — for any of the nine workloads.
    let cfg = SystemConfig::tiny();
    let suite = all_benchmarks(BenchScale::Tiny);
    let designs = [DesignKind::Avr];
    let serial = run_grid(&SimPool::new(1), &suite, &cfg, &designs);
    for threads in [4, 9] {
        let pooled = run_grid(&SimPool::new(threads), &suite, &cfg, &designs);
        assert_eq!(pooled.len(), serial.len());
        for (a, b) in serial.iter().zip(&pooled) {
            assert_eq!(a.workload, b.workload, "{threads} threads reordered the grid");
            assert_eq!(a.design, b.design);
            let (ma, mb) = (&a.metrics, &b.metrics);
            assert_eq!(ma.cycles, mb.cycles, "{}: cycles differ", a.workload);
            assert_eq!(ma.counters.traffic, mb.counters.traffic, "{}: traffic", a.workload);
            assert_eq!(ma.counters.llc_misses_total, mb.counters.llc_misses_total);
            assert_eq!(ma.counters.instructions, mb.counters.instructions);
            assert_eq!(
                ma.output_error.to_bits(),
                mb.output_error.to_bits(),
                "{}: output error differs",
                a.workload
            );
            assert_eq!(
                ma.compression_ratio.to_bits(),
                mb.compression_ratio.to_bits(),
                "{}: compression summary differs",
                a.workload
            );
        }
    }
}

#[test]
fn parallel_compression_summary_is_thread_count_invariant() {
    // The Table 4 block scan partitions across workers; u64 byte totals
    // make the partition unobservable. Exercise it through a real system
    // run with summary_threads raised.
    let cfg = SystemConfig::tiny();
    let suite = all_benchmarks(BenchScale::Tiny);
    let w = suite.iter().find(|w| w.name() == "bscholes").unwrap();
    let run_with = |threads: usize| {
        let mut sys = avr::arch::System::new(cfg.clone(), DesignKind::Avr);
        sys.set_summary_threads(threads);
        let _ = w.run(&mut sys);
        let m = sys.finish(w.name());
        (m.compression_ratio, m.footprint_fraction)
    };
    let (r1, f1) = run_with(1);
    let (r4, f4) = run_with(4);
    assert_eq!(r1.to_bits(), r4.to_bits(), "ratio differs across summary widths");
    assert_eq!(f1.to_bits(), f4.to_bits(), "footprint differs across summary widths");
    assert!(r1 > 1.0, "bscholes must compress at tiny scale");
}

#[test]
fn design_does_not_perturb_instruction_stream_except_kmeans() {
    // All benchmarks but kmeans execute a fixed amount of work regardless
    // of approximation (paper §4.3); kmeans may converge differently.
    let cfg = SystemConfig::tiny();
    for w in all_benchmarks(BenchScale::Tiny) {
        if w.name() == "kmeans" {
            continue;
        }
        let base = run_on_design(w.as_ref(), &cfg, DesignKind::Baseline);
        let avr = run_on_design(w.as_ref(), &cfg, DesignKind::Avr);
        assert_eq!(
            base.counters.instructions,
            avr.counters.instructions,
            "{} instruction count must not depend on the design",
            w.name()
        );
    }
}
