//! Ablation study of the AVR design choices the paper calls out: lazy
//! evictions (§3.1), the DBUF (§3.3), the compression-failure backoff
//! (§3.2), and storing compressed blocks in the LLC (§3.4). Each knob is
//! disabled in isolation and the damage measured on two contrasting
//! benchmarks (lattice and lbm, the most mechanism-sensitive workloads).
//!
//! Not a paper figure — it quantifies the contribution of each mechanism
//! the paper's Conclusions enumerate. Scale via AVR_SCALE=tiny|bench.

use avr_bench::{figure_config_for, scale_from_env};
use avr_core::DesignKind;
use avr_types::SystemConfig;
use avr_workloads::{all_benchmarks, run_on_design};
use criterion::{criterion_group, criterion_main, Criterion};

fn knob_variants(base: &SystemConfig) -> Vec<(&'static str, SystemConfig)> {
    let mut v = vec![("full AVR", base.clone())];
    let mut c = base.clone();
    c.avr.enable_lazy = false;
    v.push(("no lazy evictions", c));
    let mut c = base.clone();
    c.avr.enable_dbuf = false;
    v.push(("no DBUF", c));
    let mut c = base.clone();
    c.avr.enable_skip_history = false;
    v.push(("no skip history", c));
    let mut c = base.clone();
    c.avr.store_cms_in_llc = false;
    v.push(("no CMS in LLC", c));
    let mut c = base.clone();
    c.avr.pfe_threshold = 1.0; // prefetch only fully-requested blocks = never anything left
    v.push(("no PFE", c));
    v
}

fn regenerate_and_bench(c: &mut Criterion) {
    let scale = scale_from_env();
    let cfg = figure_config_for(scale);
    let suite = all_benchmarks(scale);

    println!("\n=== Ablation: AVR mechanisms disabled one at a time ===");
    for bench_name in ["lattice", "lbm"] {
        let w = suite.iter().find(|w| w.name() == bench_name).expect("in suite");
        let base = run_on_design(w.as_ref(), &cfg, DesignKind::Baseline);
        println!("\n{bench_name}:");
        println!(
            "{:<22}{:>12}{:>12}{:>12}{:>12}",
            "variant", "exec norm", "traffic", "error %", "MPKI norm"
        );
        for (label, vcfg) in knob_variants(&cfg) {
            let m = run_on_design(w.as_ref(), &vcfg, DesignKind::Avr);
            println!(
                "{label:<22}{:>12.3}{:>12.3}{:>12.3}{:>12.3}",
                m.exec_time_norm(&base),
                m.traffic_norm(&base),
                m.output_error * 100.0,
                m.mpki_norm(&base),
            );
        }
    }

    // Criterion target: the end-to-end simulation rate of the smallest
    // benchmark × AVR cell.
    let w = suite.iter().find(|w| w.name() == "bscholes").expect("bscholes");
    c.bench_function("ablation_reference_run", |b| {
        b.iter(|| run_on_design(w.as_ref(), &cfg, DesignKind::Avr).cycles)
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = regenerate_and_bench
}
criterion_main!(benches);
