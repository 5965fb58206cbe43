//! Print the per-(workload × design) [`avr_workloads::metrics_digest`]
//! values for the tiny-scale suite — the capture half of two bit-identity
//! contracts:
//!
//! * `DIGESTS` in `tests/designs.rs`: tiny scale, SoA layout, the exact
//!   backend, one thread. These were captured on the tree *before* the
//!   `DesignPolicy` extraction.
//! * `FAULT_DIGESTS` and `HOSTILE_DIGEST` in `tests/fault_injection.rs`:
//!   the same cells on the relaxed-refresh DRAM and the approximate MRAM
//!   under that file's `faulty_cfg` (elevated fault rates), then heat on
//!   AVR under its `hostile_cfg`, which retries and degrades. These were
//!   captured on the tree *before* the device axis became one `Dram`
//!   plus a `FaultModel` value.
//!
//! Rerun this after any change that legitimately alters simulation
//! results (and only then) to regenerate the constants to paste there.
//! The configurations below must stay equal to the tests' own.

use avr_types::{BackendKind, DesignKind, LayoutKind, SystemConfig};
use avr_workloads::{all_benchmarks, metrics_digest, run_on_design_in, BenchScale};

/// `tests/fault_injection.rs`'s `faulty_cfg`.
fn faulty_cfg(kind: BackendKind) -> SystemConfig {
    let mut cfg = SystemConfig::tiny().with_backend(kind);
    cfg.error_model.retention_fail_per_bit = 1e-5;
    cfg.error_model.mram_p01 = 1e-5;
    cfg.error_model.mram_p10 = 5e-6;
    cfg
}

/// `tests/fault_injection.rs`'s `hostile_cfg`.
fn hostile_cfg() -> SystemConfig {
    let mut cfg = SystemConfig::tiny().with_backend(BackendKind::RelaxedDram);
    cfg.error_model.retention_fail_per_bit = 2e-2;
    cfg.error_model.retry_budget = 4;
    cfg
}

fn main() {
    let suite = all_benchmarks(BenchScale::Tiny);
    let digest = |w: &str, cfg: &SystemConfig, design| {
        let w = suite.iter().find(|s| s.name() == w).expect("suite workload");
        metrics_digest(&run_on_design_in(w.as_ref(), cfg, design, LayoutKind::Soa))
    };

    println!("// tests/designs.rs: DIGESTS");
    let exact = SystemConfig::tiny().with_backend(BackendKind::Exact);
    for w in &suite {
        for design in DesignKind::ALL {
            let d = digest(w.name(), &exact, design);
            println!("(\"{}\", DesignKind::{design:?}, 0x{d:016x}),", w.name());
        }
    }

    println!("// tests/fault_injection.rs: FAULT_DIGESTS");
    for kind in [BackendKind::RelaxedDram, BackendKind::ApproxMram] {
        let cfg = faulty_cfg(kind);
        for w in &suite {
            for design in DesignKind::ALL {
                let d = digest(w.name(), &cfg, design);
                println!(
                    "(BackendKind::{kind:?}, \"{}\", DesignKind::{design:?}, 0x{d:016x}),",
                    w.name()
                );
            }
        }
    }

    println!("// tests/fault_injection.rs: HOSTILE_DIGEST");
    println!("0x{:016x}", digest("heat", &hostile_cfg(), DesignKind::Avr));
}
