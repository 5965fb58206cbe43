//! Robustness harness for the pluggable device error model: fault
//! injection must be deterministic (bit-identical at any SimPool thread
//! width), must respect criticality (designs that don't honor the approx
//! annotation never see a flipped bit), and must degrade gracefully —a
//! hostile fault rate exhausts the retry budget into a flagged-but-finite
//! run, never a panic or a poisoned NaN cascade. Digest pins freeze what
//! the two fault-injecting devices produce, cell by cell.

use avr::arch::{
    BackendKind, DesignKind, FieldSpec, Layout, LayoutKind, RecordSchema, SimPool, System,
    SystemConfig,
};
use avr::workloads::{
    all_benchmarks, metrics_digest, run_grid, run_on_design, run_on_design_in, BenchScale,
};

/// Fault rates high enough that every workload sees injected flips at
/// tiny scale, low enough that the runs stay sane.
fn faulty_cfg(kind: BackendKind) -> SystemConfig {
    let mut cfg = SystemConfig::tiny().with_backend(kind);
    cfg.error_model.retention_fail_per_bit = 1e-5;
    cfg.error_model.mram_p01 = 1e-5;
    cfg.error_model.mram_p10 = 5e-6;
    cfg
}

/// A retention failure rate four orders of magnitude past plausible and a
/// token retry budget: runs retry, then degrade.
fn hostile_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::tiny().with_backend(BackendKind::RelaxedDram);
    cfg.error_model.retention_fail_per_bit = 2e-2;
    cfg.error_model.retry_budget = 4;
    cfg
}

/// `metrics_digest` of every (workload × design) cell on the two
/// fault-injecting devices under [`faulty_cfg`]: tiny scale, SoA layout,
/// one thread. Baseline and ZeroAVR ignore approximation, so no flip
/// reaches them and their pins hold the device's timing (relaxed's
/// stretched tREFI, MRAM's missing refresh). Captured with `avr-bench`'s `design_digest` (its second
/// table) on the tree before the device axis became one `Dram` plus a
/// `FaultModel` value; regenerate them the same way, and only for a change
/// that is meant to alter results.
const FAULT_DIGESTS: &[(BackendKind, &str, DesignKind, u64)] = &[
    (BackendKind::RelaxedDram, "heat", DesignKind::Baseline, 0x7910ca6f2df60ec1),
    (BackendKind::RelaxedDram, "heat", DesignKind::Doppelganger, 0x46dcb0d69e66cf59),
    (BackendKind::RelaxedDram, "heat", DesignKind::Truncate, 0x1c9e4949c285fecc),
    (BackendKind::RelaxedDram, "heat", DesignKind::ZeroAvr, 0x7a9c9132ae33fead),
    (BackendKind::RelaxedDram, "heat", DesignKind::Avr, 0xc0c40e5576a475c1),
    (BackendKind::RelaxedDram, "heat", DesignKind::MemoIn, 0xbc440a5963cee35b),
    (BackendKind::RelaxedDram, "heat", DesignKind::MemoOut, 0x67690de6e1bea350),
    (BackendKind::RelaxedDram, "lattice", DesignKind::Baseline, 0xde0168f587ba4b2f),
    (BackendKind::RelaxedDram, "lattice", DesignKind::Doppelganger, 0x880233656edb10e4),
    (BackendKind::RelaxedDram, "lattice", DesignKind::Truncate, 0xd11b00b7f01bab14),
    (BackendKind::RelaxedDram, "lattice", DesignKind::ZeroAvr, 0x1c600a60433ebd31),
    (BackendKind::RelaxedDram, "lattice", DesignKind::Avr, 0xd143efba02d32903),
    (BackendKind::RelaxedDram, "lattice", DesignKind::MemoIn, 0xc943de16958c6b5d),
    (BackendKind::RelaxedDram, "lattice", DesignKind::MemoOut, 0x7b15c661e823bc0f),
    (BackendKind::RelaxedDram, "lbm", DesignKind::Baseline, 0x7b1adc0d37f147ef),
    (BackendKind::RelaxedDram, "lbm", DesignKind::Doppelganger, 0x6bf67bb58789c4bf),
    (BackendKind::RelaxedDram, "lbm", DesignKind::Truncate, 0x624f05d9c871c6e6),
    (BackendKind::RelaxedDram, "lbm", DesignKind::ZeroAvr, 0x6cb8ed4ec994af66),
    (BackendKind::RelaxedDram, "lbm", DesignKind::Avr, 0x650be341f47a4d72),
    (BackendKind::RelaxedDram, "lbm", DesignKind::MemoIn, 0xeacbe6e2a361bfac),
    (BackendKind::RelaxedDram, "lbm", DesignKind::MemoOut, 0x3200c6b62ca04158),
    (BackendKind::RelaxedDram, "orbit", DesignKind::Baseline, 0x8eeb0bc628dfad3e),
    (BackendKind::RelaxedDram, "orbit", DesignKind::Doppelganger, 0xfa30a64c1d52c6d5),
    (BackendKind::RelaxedDram, "orbit", DesignKind::Truncate, 0xd9fe99a639f389e0),
    (BackendKind::RelaxedDram, "orbit", DesignKind::ZeroAvr, 0x460ee8a8ed06a7fb),
    (BackendKind::RelaxedDram, "orbit", DesignKind::Avr, 0xa0e5c7dff89e08de),
    (BackendKind::RelaxedDram, "orbit", DesignKind::MemoIn, 0x9febaf6661e81c71),
    (BackendKind::RelaxedDram, "orbit", DesignKind::MemoOut, 0x7fa6afdb35ccf02a),
    (BackendKind::RelaxedDram, "kmeans", DesignKind::Baseline, 0x576230ac677383b1),
    (BackendKind::RelaxedDram, "kmeans", DesignKind::Doppelganger, 0x45ae74300a79c0f1),
    (BackendKind::RelaxedDram, "kmeans", DesignKind::Truncate, 0xad9523a795d8c78b),
    (BackendKind::RelaxedDram, "kmeans", DesignKind::ZeroAvr, 0x00e01d927c2c9fa7),
    (BackendKind::RelaxedDram, "kmeans", DesignKind::Avr, 0x3f0bb4b894201fd8),
    (BackendKind::RelaxedDram, "kmeans", DesignKind::MemoIn, 0xa71393a679ea3687),
    (BackendKind::RelaxedDram, "kmeans", DesignKind::MemoOut, 0xa71393a679ea3687),
    (BackendKind::RelaxedDram, "bscholes", DesignKind::Baseline, 0xf5aedce30b9af03f),
    (BackendKind::RelaxedDram, "bscholes", DesignKind::Doppelganger, 0x4de7f4cd8cbee3d2),
    (BackendKind::RelaxedDram, "bscholes", DesignKind::Truncate, 0x89df81c157761eb1),
    (BackendKind::RelaxedDram, "bscholes", DesignKind::ZeroAvr, 0x0891e35e063f22e0),
    (BackendKind::RelaxedDram, "bscholes", DesignKind::Avr, 0x61c11784023ea96b),
    (BackendKind::RelaxedDram, "bscholes", DesignKind::MemoIn, 0x5cee72bd9b05232e),
    (BackendKind::RelaxedDram, "bscholes", DesignKind::MemoOut, 0xa4e475d8674fe054),
    (BackendKind::RelaxedDram, "wrf", DesignKind::Baseline, 0xe81c97fa16b69244),
    (BackendKind::RelaxedDram, "wrf", DesignKind::Doppelganger, 0xd41c0b01a5232c8e),
    (BackendKind::RelaxedDram, "wrf", DesignKind::Truncate, 0xccac936eda440cd7),
    (BackendKind::RelaxedDram, "wrf", DesignKind::ZeroAvr, 0x04ae9cc076ca67c9),
    (BackendKind::RelaxedDram, "wrf", DesignKind::Avr, 0x9cb5e6f6aa896503),
    (BackendKind::RelaxedDram, "wrf", DesignKind::MemoIn, 0xbcd910ab45a55ad0),
    (BackendKind::RelaxedDram, "wrf", DesignKind::MemoOut, 0xf92e2689d9203989),
    (BackendKind::RelaxedDram, "sobel", DesignKind::Baseline, 0x863e296c92150997),
    (BackendKind::RelaxedDram, "sobel", DesignKind::Doppelganger, 0x39310b3a7c94d058),
    (BackendKind::RelaxedDram, "sobel", DesignKind::Truncate, 0xcc27728d5c772347),
    (BackendKind::RelaxedDram, "sobel", DesignKind::ZeroAvr, 0xbd4c570d13d680d4),
    (BackendKind::RelaxedDram, "sobel", DesignKind::Avr, 0x7c541777c229df55),
    (BackendKind::RelaxedDram, "sobel", DesignKind::MemoIn, 0x86e9385b36ced8f4),
    (BackendKind::RelaxedDram, "sobel", DesignKind::MemoOut, 0x79614db9f2cee17b),
    (BackendKind::RelaxedDram, "fft", DesignKind::Baseline, 0x672bfa43c1b007af),
    (BackendKind::RelaxedDram, "fft", DesignKind::Doppelganger, 0x129e3eb4125a2adb),
    (BackendKind::RelaxedDram, "fft", DesignKind::Truncate, 0xa18011043b0cb347),
    (BackendKind::RelaxedDram, "fft", DesignKind::ZeroAvr, 0x43a7d8482f001cc3),
    (BackendKind::RelaxedDram, "fft", DesignKind::Avr, 0x610a91895166546e),
    (BackendKind::RelaxedDram, "fft", DesignKind::MemoIn, 0x80e69073e5293f61),
    (BackendKind::RelaxedDram, "fft", DesignKind::MemoOut, 0x3d548355ded8b581),
    (BackendKind::RelaxedDram, "particles", DesignKind::Baseline, 0xff9ec4869376a8dc),
    (BackendKind::RelaxedDram, "particles", DesignKind::Doppelganger, 0xf91597e4613ad816),
    (BackendKind::RelaxedDram, "particles", DesignKind::Truncate, 0x2e01649ed7f62f97),
    (BackendKind::RelaxedDram, "particles", DesignKind::ZeroAvr, 0xedb9d04a7256e36c),
    (BackendKind::RelaxedDram, "particles", DesignKind::Avr, 0x3ee1615993afdf47),
    (BackendKind::RelaxedDram, "particles", DesignKind::MemoIn, 0x4a87efa3bc91bfe9),
    (BackendKind::RelaxedDram, "particles", DesignKind::MemoOut, 0x728448ea635f8905),
    (BackendKind::ApproxMram, "heat", DesignKind::Baseline, 0xd37f7ee10c5dfc2f),
    (BackendKind::ApproxMram, "heat", DesignKind::Doppelganger, 0x8350bfbdffeacb23),
    (BackendKind::ApproxMram, "heat", DesignKind::Truncate, 0x01af601da1fd1387),
    (BackendKind::ApproxMram, "heat", DesignKind::ZeroAvr, 0x78e3996c2d257833),
    (BackendKind::ApproxMram, "heat", DesignKind::Avr, 0x0b91e5aa4b7ec46e),
    (BackendKind::ApproxMram, "heat", DesignKind::MemoIn, 0x2d1635854cf30052),
    (BackendKind::ApproxMram, "heat", DesignKind::MemoOut, 0xb642be6284a10859),
    (BackendKind::ApproxMram, "lattice", DesignKind::Baseline, 0x3846addd8b375ba3),
    (BackendKind::ApproxMram, "lattice", DesignKind::Doppelganger, 0xe3529a79ebe5a6be),
    (BackendKind::ApproxMram, "lattice", DesignKind::Truncate, 0x1bef04fd1b4e7756),
    (BackendKind::ApproxMram, "lattice", DesignKind::ZeroAvr, 0x978c148e8ab48529),
    (BackendKind::ApproxMram, "lattice", DesignKind::Avr, 0x64d626ae2024059a),
    (BackendKind::ApproxMram, "lattice", DesignKind::MemoIn, 0x023a7fd8c6f06940),
    (BackendKind::ApproxMram, "lattice", DesignKind::MemoOut, 0x7a94bbfbb8171131),
    (BackendKind::ApproxMram, "lbm", DesignKind::Baseline, 0xfe6fcd0cff92b0b1),
    (BackendKind::ApproxMram, "lbm", DesignKind::Doppelganger, 0x0847430b83e4bca0),
    (BackendKind::ApproxMram, "lbm", DesignKind::Truncate, 0x3879f41733268700),
    (BackendKind::ApproxMram, "lbm", DesignKind::ZeroAvr, 0x99b415f75d69f83e),
    (BackendKind::ApproxMram, "lbm", DesignKind::Avr, 0xb118bf730aa3339d),
    (BackendKind::ApproxMram, "lbm", DesignKind::MemoIn, 0x2f0f30619eb912eb),
    (BackendKind::ApproxMram, "lbm", DesignKind::MemoOut, 0x4b8b907f21a6efaf),
    (BackendKind::ApproxMram, "orbit", DesignKind::Baseline, 0x87511cf933f086a8),
    (BackendKind::ApproxMram, "orbit", DesignKind::Doppelganger, 0x7accd7f070a30905),
    (BackendKind::ApproxMram, "orbit", DesignKind::Truncate, 0x4c46a3f1bd62c6d6),
    (BackendKind::ApproxMram, "orbit", DesignKind::ZeroAvr, 0xfbe0d149b507daed),
    (BackendKind::ApproxMram, "orbit", DesignKind::Avr, 0x0dc35dea92ea8c62),
    (BackendKind::ApproxMram, "orbit", DesignKind::MemoIn, 0xed87fb6658ca7a23),
    (BackendKind::ApproxMram, "orbit", DesignKind::MemoOut, 0x6bce758ecd5544bd),
    (BackendKind::ApproxMram, "kmeans", DesignKind::Baseline, 0x576230ac677383b1),
    (BackendKind::ApproxMram, "kmeans", DesignKind::Doppelganger, 0x424d5050ef9b3b79),
    (BackendKind::ApproxMram, "kmeans", DesignKind::Truncate, 0x86a9dd57182d91ab),
    (BackendKind::ApproxMram, "kmeans", DesignKind::ZeroAvr, 0x00e01d927c2c9fa7),
    (BackendKind::ApproxMram, "kmeans", DesignKind::Avr, 0xa77cc6f7908728b8),
    (BackendKind::ApproxMram, "kmeans", DesignKind::MemoIn, 0x34125936f7b31ca7),
    (BackendKind::ApproxMram, "kmeans", DesignKind::MemoOut, 0x34125936f7b31ca7),
    (BackendKind::ApproxMram, "bscholes", DesignKind::Baseline, 0xf92c8dd559fe430b),
    (BackendKind::ApproxMram, "bscholes", DesignKind::Doppelganger, 0x5f4918df2028a918),
    (BackendKind::ApproxMram, "bscholes", DesignKind::Truncate, 0x1747fb96e4e90ce0),
    (BackendKind::ApproxMram, "bscholes", DesignKind::ZeroAvr, 0x7a904f9365c11476),
    (BackendKind::ApproxMram, "bscholes", DesignKind::Avr, 0x2dcad477dbdfee57),
    (BackendKind::ApproxMram, "bscholes", DesignKind::MemoIn, 0x885a44c8b84574b3),
    (BackendKind::ApproxMram, "bscholes", DesignKind::MemoOut, 0x1335bf50064c84d5),
    (BackendKind::ApproxMram, "wrf", DesignKind::Baseline, 0x3054f019aca2e4c7),
    (BackendKind::ApproxMram, "wrf", DesignKind::Doppelganger, 0xcfc5aa58d4b2f426),
    (BackendKind::ApproxMram, "wrf", DesignKind::Truncate, 0x850ff8563eefe411),
    (BackendKind::ApproxMram, "wrf", DesignKind::ZeroAvr, 0xa95a5db2df06dcb2),
    (BackendKind::ApproxMram, "wrf", DesignKind::Avr, 0x02d8e357b5844652),
    (BackendKind::ApproxMram, "wrf", DesignKind::MemoIn, 0x250d00ebc0191f78),
    (BackendKind::ApproxMram, "wrf", DesignKind::MemoOut, 0xf371f2d3729e884b),
    (BackendKind::ApproxMram, "sobel", DesignKind::Baseline, 0xf93f13c29e3975af),
    (BackendKind::ApproxMram, "sobel", DesignKind::Doppelganger, 0x329c96940f78832a),
    (BackendKind::ApproxMram, "sobel", DesignKind::Truncate, 0x5522f0bd595c91dc),
    (BackendKind::ApproxMram, "sobel", DesignKind::ZeroAvr, 0xf91a3f6e3239b600),
    (BackendKind::ApproxMram, "sobel", DesignKind::Avr, 0xf13208cee0046668),
    (BackendKind::ApproxMram, "sobel", DesignKind::MemoIn, 0x92a551f79fdc65eb),
    (BackendKind::ApproxMram, "sobel", DesignKind::MemoOut, 0x68b4bf91cf7dfa38),
    (BackendKind::ApproxMram, "fft", DesignKind::Baseline, 0xc169800585c45ff5),
    (BackendKind::ApproxMram, "fft", DesignKind::Doppelganger, 0x7d313978cb9d4312),
    (BackendKind::ApproxMram, "fft", DesignKind::Truncate, 0x2e2dafb866201914),
    (BackendKind::ApproxMram, "fft", DesignKind::ZeroAvr, 0xb5384e8e6563e23a),
    (BackendKind::ApproxMram, "fft", DesignKind::Avr, 0x1f826975c46f7e02),
    (BackendKind::ApproxMram, "fft", DesignKind::MemoIn, 0xcfc512aa8f75ce30),
    (BackendKind::ApproxMram, "fft", DesignKind::MemoOut, 0x71ec0fc4136e5de3),
    (BackendKind::ApproxMram, "particles", DesignKind::Baseline, 0x509513c3a2c57079),
    (BackendKind::ApproxMram, "particles", DesignKind::Doppelganger, 0x7c510ceaee9d9ddb),
    (BackendKind::ApproxMram, "particles", DesignKind::Truncate, 0x33bf3f13c59c48e2),
    (BackendKind::ApproxMram, "particles", DesignKind::ZeroAvr, 0x96e31ed5de4a37ba),
    (BackendKind::ApproxMram, "particles", DesignKind::Avr, 0x94f1f8998dce40a6),
    (BackendKind::ApproxMram, "particles", DesignKind::MemoIn, 0x5c059e5da001aafa),
    (BackendKind::ApproxMram, "particles", DesignKind::MemoOut, 0x37b79adcf2dfa2f3),
];

/// `design_digest`'s last line: heat on AVR under [`hostile_cfg`].
const HOSTILE_DIGEST: u64 = 0x268420d89dfde202;

#[test]
fn fault_model_digests_match_pins() {
    let suite = all_benchmarks(BenchScale::Tiny);
    let mut checked = 0;
    for kind in [BackendKind::RelaxedDram, BackendKind::ApproxMram] {
        let cfg = faulty_cfg(kind);
        for w in &suite {
            for design in DesignKind::ALL {
                let pin = FAULT_DIGESTS
                    .iter()
                    .find(|(k, n, d, _)| *k == kind && *n == w.name() && *d == design)
                    .unwrap_or_else(|| panic!("no pin for {kind:?} {} {design:?}", w.name()))
                    .3;
                let m = run_on_design_in(w.as_ref(), &cfg, design, LayoutKind::Soa);
                let got = metrics_digest(&m);
                assert_eq!(
                    got,
                    pin,
                    "{kind:?} {} {design:?}: digest 0x{got:016x} != pinned 0x{pin:016x}",
                    w.name()
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, FAULT_DIGESTS.len(), "every pin exercised");
    let heat = suite.iter().find(|w| w.name() == "heat").unwrap();
    let got = metrics_digest(&run_on_design(heat.as_ref(), &hostile_cfg(), DesignKind::Avr));
    assert_eq!(
        got, HOSTILE_DIGEST,
        "hostile: digest 0x{got:016x} != pinned 0x{HOSTILE_DIGEST:016x}"
    );
}

#[test]
fn injected_faults_are_thread_width_invariant() {
    // The core determinism contract extended to the error model: the fault
    // stream is keyed off (seed, region, block, exposure ordinal), never
    // off scheduling, so an N-thread grid reproduces the 1-thread grid
    // bit-for-bit — outputs, counters, and every fault statistic.
    let suite = all_benchmarks(BenchScale::Tiny);
    let designs = [DesignKind::Avr];
    for kind in BackendKind::ALL {
        let cfg = faulty_cfg(kind);
        let serial = run_grid(&SimPool::new(1), &suite, &cfg, &designs);
        let pooled = run_grid(&SimPool::new(4), &suite, &cfg, &designs);
        assert_eq!(serial.len(), pooled.len());
        let mut total_flips = 0;
        for (a, b) in serial.iter().zip(&pooled) {
            assert_eq!(a.workload, b.workload, "{kind:?}: grid order changed");
            let (ma, mb) = (&a.metrics, &b.metrics);
            let ctx = format!("{kind:?} {}", a.workload);
            assert_eq!(ma.cycles, mb.cycles, "{ctx}: cycles");
            assert_eq!(ma.counters.traffic, mb.counters.traffic, "{ctx}: traffic");
            assert_eq!(ma.counters.llc_misses_total, mb.counters.llc_misses_total, "{ctx}: LLC");
            assert_eq!(ma.counters.instructions, mb.counters.instructions, "{ctx}: instrs");
            assert_eq!(ma.counters.faults, mb.counters.faults, "{ctx}: fault counters");
            assert_eq!(ma.output_error.to_bits(), mb.output_error.to_bits(), "{ctx}: output error");
            assert_eq!(
                ma.compression_ratio.to_bits(),
                mb.compression_ratio.to_bits(),
                "{ctx}: compression"
            );
            total_flips += ma.counters.faults.injected_bit_flips;
        }
        match kind {
            BackendKind::Exact => {
                assert_eq!(total_flips, 0, "exact backend must never flip a bit")
            }
            _ => assert!(total_flips > 0, "{kind:?} at elevated rates must inject faults"),
        }
    }
}

#[test]
fn repeated_faulty_runs_are_bit_identical() {
    let cfg = faulty_cfg(BackendKind::RelaxedDram);
    let suite = all_benchmarks(BenchScale::Tiny);
    let w = suite.iter().find(|w| w.name() == "heat").unwrap();
    let a = run_on_design(w.as_ref(), &cfg, DesignKind::Avr);
    let b = run_on_design(w.as_ref(), &cfg, DesignKind::Avr);
    assert_eq!(a.counters.faults, b.counters.faults);
    assert_eq!(a.output_error.to_bits(), b.output_error.to_bits());
    assert_eq!(a.cycles, b.cycles);
    assert!(a.counters.faults.injected_bit_flips > 0);
}

#[test]
fn critical_only_designs_never_see_injected_faults() {
    // Baseline and ZeroAVR ignore the approx annotation, so every line is
    // critical — the error model must serve them exactly (scrubbing via
    // ECC instead of corrupting), whatever the backend and rates.
    let cfg = faulty_cfg(BackendKind::RelaxedDram);
    let suite = all_benchmarks(BenchScale::Tiny);
    let w = suite.iter().find(|w| w.name() == "heat").unwrap();
    for design in [DesignKind::Baseline, DesignKind::ZeroAvr] {
        let m = run_on_design(w.as_ref(), &cfg, design);
        assert_eq!(
            m.counters.faults.injected_bit_flips, 0,
            "{design:?} has no approximable lines to fault"
        );
        assert_eq!(m.counters.faults.degraded_lines, 0);
        assert!(m.counters.faults.ecc_scrubs > 0, "critical transfers must scrub");
    }
}

#[test]
fn seed_changes_the_fault_stream() {
    let suite = all_benchmarks(BenchScale::Tiny);
    let w = suite.iter().find(|w| w.name() == "heat").unwrap();
    let mut cfg = faulty_cfg(BackendKind::RelaxedDram);
    let a = run_on_design(w.as_ref(), &cfg, DesignKind::Avr);
    cfg.error_model.seed ^= 0xDEAD_BEEF;
    let b = run_on_design(w.as_ref(), &cfg, DesignKind::Avr);
    assert!(a.counters.faults.injected_bit_flips > 0);
    assert!(b.counters.faults.injected_bit_flips > 0);
    assert_ne!(
        (a.counters.faults.injected_bit_flips, a.output_error.to_bits()),
        (b.counters.faults.injected_bit_flips, b.output_error.to_bits()),
        "different seeds must not replay the identical fault stream"
    );
}

#[test]
fn layout_fault_scale_scales_the_per_region_fault_stream() {
    // The per-region override end-to-end: a layout's fault scale rides on
    // its approx regions' `RegionOpts` and multiplies the device fault
    // probability for those regions only — 0 silences them, > 1 amplifies
    // — while the RNG key chain is untouched, so each scale's run is
    // reproducible on its own.
    let cfg = faulty_cfg(BackendKind::RelaxedDram);
    let records = 1usize << 15;
    let run_with = |scale: f64| {
        let mut sys = System::new(cfg.clone(), DesignKind::Avr);
        let schema = RecordSchema::new(
            "rec",
            vec![FieldSpec::approx_f32("v"), FieldSpec::precise_f32("chk")],
        );
        let map = Layout::new(schema, LayoutKind::Partitioned)
            .with_fault_scale(scale)
            .instantiate(&mut sys, records);
        let data: Vec<f32> = (0..records).map(|i| 50.0 + (i % 97) as f32 * 0.01).collect();
        map.write_f32s(&mut sys, 0, 0, &data);
        map.write_f32s(&mut sys, 1, 0, &data);
        let mut back = vec![0f32; records];
        for _ in 0..4 {
            map.read_f32s(&mut sys, 0, 0, &mut back);
            map.read_f32s(&mut sys, 1, 0, &mut back);
        }
        sys.finish("fault-scale").counters.faults.injected_bit_flips
    };
    let silenced = run_with(0.0);
    let nominal = run_with(1.0);
    let amplified = run_with(16.0);
    assert_eq!(silenced, 0, "scale 0 must silence the region's faults");
    assert!(nominal > 0, "nominal rates must inject at this footprint");
    assert!(
        amplified > nominal,
        "scale 16 must inject more than nominal ({amplified} vs {nominal})"
    );
}

#[test]
fn hostile_fault_rate_exhausts_budget_but_stays_finite() {
    // Adversarial configuration (see `hostile_cfg`). The run must
    // complete — flagged as degraded, output error finite — rather than
    // panic or emit NaN/Inf.
    let cfg = hostile_cfg();
    let suite = all_benchmarks(BenchScale::Tiny);
    let w = suite.iter().find(|w| w.name() == "heat").unwrap();
    let m = run_on_design(w.as_ref(), &cfg, DesignKind::Avr);
    let f = &m.counters.faults;
    assert!(f.injected_bit_flips > 0, "hostile rate must inject");
    assert!(f.retries <= 4, "retries cannot exceed the budget: {}", f.retries);
    assert!(f.degraded_lines > 0, "budget exhaustion must flag degradation");
    assert!(f.sanitized_values > 0, "degraded lines commit sanitized");
    assert!(m.output_error.is_finite(), "degraded runs stay finite");
    assert!(m.cycles > 0);
}
