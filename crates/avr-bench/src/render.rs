//! Text renderers: each function prints one of the paper's tables/figures
//! from a [`Sweep`], in the same row/series structure the paper uses.

use crate::{Sweep, BENCH_ORDER, FIGURE_DESIGNS};
use avr_core::DesignKind;
use avr_server::base_config;
use avr_sim::RunMetrics;
use avr_types::AvrParams;
use avr_workloads::{run_on_design, workload_by_name, BenchScale};

fn header(title: &str) -> String {
    let mut s = String::new();
    s.push_str(&format!("\n=== {title} ===\n"));
    s.push_str(&format!("{:<10}", ""));
    for b in BENCH_ORDER {
        s.push_str(&format!("{b:>10}"));
    }
    s.push_str(&format!("{:>10}\n", "geomean"));
    s
}

fn norm_figure(
    sweep: &Sweep,
    title: &str,
    metric: impl Fn(&RunMetrics, &RunMetrics) -> f64,
) -> String {
    let mut s = header(title);
    for design in FIGURE_DESIGNS {
        if !sweep.designs.contains(&design) {
            continue;
        }
        let (vals, gm) = sweep.normalized_row(design, &metric);
        s.push_str(&format!("{:<10}", design.label()));
        for v in vals {
            s.push_str(&format!("{v:>10.3}"));
        }
        s.push_str(&format!("{gm:>10.3}\n"));
    }
    s
}

/// Table 3: application output error (percent). The paper's three lossy
/// designs plus the memoization family (baseline and ZeroAVR are exact by
/// construction and stay out of the table).
pub fn table3(sweep: &Sweep) -> String {
    let mut s = header("Table 3: Application output error (%)");
    for design in [
        DesignKind::Doppelganger,
        DesignKind::Truncate,
        DesignKind::Avr,
        DesignKind::MemoIn,
        DesignKind::MemoOut,
    ] {
        if !sweep.designs.contains(&design) {
            continue;
        }
        s.push_str(&format!("{:<10}", design.label()));
        for b in BENCH_ORDER {
            let e = sweep.get(b, design).output_error * 100.0;
            if e > 100.0 {
                s.push_str(&format!("{:>10}", ">100%"));
            } else {
                s.push_str(&format!("{e:>9.2}%"));
            }
        }
        s.push('\n');
    }
    s
}

/// Table 4: AVR compression ratio and memory footprint.
pub fn table4(sweep: &Sweep) -> String {
    let mut s = header("Table 4: AVR compression ratio and footprint vs baseline");
    s.push_str(&format!("{:<10}", "ratio"));
    for b in BENCH_ORDER {
        s.push_str(&format!("{:>9.1}x", sweep.get(b, DesignKind::Avr).compression_ratio));
    }
    s.push('\n');
    s.push_str(&format!("{:<10}", "footprint"));
    for b in BENCH_ORDER {
        let f = sweep.get(b, DesignKind::Avr).footprint_fraction * 100.0;
        s.push_str(&format!("{f:>9.1}%"));
    }
    s.push('\n');
    s
}

/// Figure 9: normalized execution time.
pub fn fig09(sweep: &Sweep) -> String {
    norm_figure(sweep, "Figure 9: Execution time (norm. to baseline)", |m, b| m.exec_time_norm(b))
}

/// Figure 10: normalized energy with the component stack.
pub fn fig10(sweep: &Sweep) -> String {
    let mut s = header("Figure 10: System energy (norm. to baseline)");
    for design in FIGURE_DESIGNS {
        if !sweep.designs.contains(&design) {
            continue;
        }
        let (vals, gm) = sweep.normalized_row(design, |m, b| m.energy_norm(b));
        s.push_str(&format!("{:<10}", design.label()));
        for v in vals {
            s.push_str(&format!("{v:>10.3}"));
        }
        s.push_str(&format!("{gm:>10.3}\n"));
    }
    // The component stacks for AVR (the paper plots all designs; AVR's is
    // the informative one).
    s.push_str("\nAVR energy stack (fraction of baseline total):\n");
    s.push_str(&format!(
        "{:<10}{:>10}{:>10}{:>10}{:>10}{:>10}\n",
        "", "core", "l1+l2", "llc", "dram", "compr"
    ));
    for b in BENCH_ORDER {
        let base_total = sweep.baseline(b).energy.total();
        let e = sweep.get(b, DesignKind::Avr).energy.normalized_to(base_total);
        s.push_str(&format!(
            "{b:<10}{:>10.3}{:>10.3}{:>10.3}{:>10.3}{:>10.3}\n",
            e.core, e.l1l2, e.llc, e.dram, e.compressor
        ));
    }
    s
}

/// Figure 11: normalized memory traffic with the approx/non-approx split.
pub fn fig11(sweep: &Sweep) -> String {
    let mut s = norm_figure(sweep, "Figure 11: Memory traffic (norm. to baseline)", |m, b| {
        m.traffic_norm(b)
    });
    s.push_str("\nAVR traffic split (fraction of baseline total):\n");
    s.push_str(&format!("{:<10}{:>12}{:>12}\n", "", "approx", "non-approx"));
    for b in BENCH_ORDER {
        let base = sweep.baseline(b).counters.traffic.total().max(1) as f64;
        let t = sweep.get(b, DesignKind::Avr).counters.traffic;
        s.push_str(&format!(
            "{b:<10}{:>12.3}{:>12.3}\n",
            t.approx() as f64 / base,
            t.nonapprox() as f64 / base
        ));
    }
    s
}

/// Figure 12: normalized average memory access time.
pub fn fig12(sweep: &Sweep) -> String {
    norm_figure(sweep, "Figure 12: AMAT (norm. to baseline)", |m, b| m.amat_norm(b))
}

/// Figure 13: normalized LLC MPKI.
pub fn fig13(sweep: &Sweep) -> String {
    norm_figure(sweep, "Figure 13: LLC MPKI (norm. to baseline)", |m, b| m.mpki_norm(b))
}

/// Figure 14: AVR LLC request breakdown on approximate cachelines.
pub fn fig14(sweep: &Sweep) -> String {
    let mut s = String::from("\n=== Figure 14: AVR LLC requests on approximate cachelines ===\n");
    s.push_str(&format!(
        "{:<10}{:>10}{:>14}{:>10}{:>14}\n",
        "", "miss%", "uncompr.hit%", "dbuf%", "compr.hit%"
    ));
    for b in BENCH_ORDER.iter().rev() {
        let r = sweep.get(b, DesignKind::Avr).counters.approx_requests;
        let sh = r.shares();
        s.push_str(&format!(
            "{b:<10}{:>10.1}{:>14.1}{:>10.1}{:>14.1}\n",
            sh[0] * 100.0,
            sh[1] * 100.0,
            sh[2] * 100.0,
            sh[3] * 100.0
        ));
    }
    s.push_str("\n§4.3 extras:\n");
    for b in BENCH_ORDER {
        let c = &sweep.get(b, DesignKind::Avr).counters;
        s.push_str(&format!(
            "{b:<10} avg compressed-hit latency {:>6.1} cy, block reuse {:>5.1} lines\n",
            c.avg_compressed_hit_latency(),
            c.avg_block_reuse()
        ));
    }
    s
}

/// Figure 15: AVR LLC eviction breakdown of approximate cachelines.
pub fn fig15(sweep: &Sweep) -> String {
    let mut s = String::from("\n=== Figure 15: AVR LLC evictions of approximate cachelines ===\n");
    s.push_str(&format!(
        "{:<10}{:>12}{:>10}{:>18}{:>14}\n",
        "", "recompr.%", "lazy%", "fetch+recompr.%", "uncompr.wb%"
    ));
    for b in BENCH_ORDER.iter().rev() {
        let e = sweep.get(b, DesignKind::Avr).counters.evictions;
        let sh = e.shares();
        s.push_str(&format!(
            "{b:<10}{:>12.1}{:>10.1}{:>18.1}{:>14.1}\n",
            sh[0] * 100.0,
            sh[1] * 100.0,
            sh[2] * 100.0,
            sh[3] * 100.0
        ));
    }
    s
}

/// An ablation row: its label and the edit that disables one mechanism.
type Knob = (&'static str, fn(&mut AvrParams));

const AVR_KNOBS: [Knob; 6] = [
    ("full AVR", |_| {}),
    ("no lazy evictions", |a| a.enable_lazy = false),
    ("no DBUF", |a| a.enable_dbuf = false),
    ("no skip history", |a| a.enable_skip_history = false),
    ("no CMS in LLC", |a| a.store_cms_in_llc = false),
    // Prefetch only fully-requested blocks: nothing is ever left to fetch.
    ("no PFE", |a| a.pfe_threshold = 1.0),
];

/// Ablation (not a paper figure): the AVR mechanisms the paper's
/// Conclusions enumerate — lazy evictions (§3.1), the DBUF (§3.3), the
/// compression-failure backoff (§3.2), compressed blocks in the LLC (§3.4)
/// and prefetch-on-fetch — each disabled in isolation on lattice and lbm,
/// the most mechanism-sensitive workloads, normalized to the sweep's
/// baseline cell at `scale`.
pub fn ablation(sweep: &Sweep, scale: BenchScale) -> String {
    let mut s = String::from("\n=== Ablation: AVR mechanisms disabled one at a time ===\n");
    for bench in ["lattice", "lbm"] {
        let w = workload_by_name(bench, scale).expect("in suite");
        let base = sweep.baseline(bench);
        s.push_str(&format!(
            "\n{bench}:\n{:<22}{:>12}{:>12}{:>12}{:>12}\n",
            "variant", "exec norm", "traffic", "error %", "MPKI norm"
        ));
        for (label, disable) in AVR_KNOBS {
            let mut cfg = base_config(scale);
            disable(&mut cfg.avr);
            let m = run_on_design(w.as_ref(), &cfg, DesignKind::Avr);
            s.push_str(&format!(
                "{label:<22}{:>12.3}{:>12.3}{:>12.3}{:>12.3}\n",
                m.exec_time_norm(base),
                m.traffic_norm(base),
                m.output_error * 100.0,
                m.mpki_norm(base),
            ));
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use avr_core::SimPool;

    fn mini_sweep() -> Sweep {
        Sweep::run_on(&SimPool::from_env(), BenchScale::Tiny, &DesignKind::ALL)
    }

    #[test]
    fn all_renderers_produce_rows_for_every_benchmark() {
        let s = mini_sweep();
        for text in [
            table3(&s),
            table4(&s),
            fig09(&s),
            fig10(&s),
            fig11(&s),
            fig12(&s),
            fig13(&s),
            fig14(&s),
            fig15(&s),
        ] {
            for b in BENCH_ORDER {
                assert!(text.contains(b), "missing {b} in:\n{text}");
            }
        }
    }

    #[test]
    fn ablation_has_every_knob_row_for_both_workloads() {
        let s = mini_sweep();
        let t = ablation(&s, BenchScale::Tiny);
        for (label, _) in AVR_KNOBS {
            assert_eq!(t.matches(&format!("\n{label} ")).count(), 2, "{label} rows in:\n{t}");
        }
        // The unablated row reproduces the sweep's own AVR cell.
        let (avr, base) = (s.get("lattice", DesignKind::Avr), s.baseline("lattice"));
        let row = format!("{:<22}{:>12.3}", "full AVR", avr.exec_time_norm(base));
        assert!(t.contains(&row), "{row:?} missing from:\n{t}");
    }

    #[test]
    fn table3_has_lossy_design_rows() {
        let s = mini_sweep();
        let t = table3(&s);
        assert!(t.contains("dganger"));
        assert!(t.contains("truncate"));
        assert!(t.contains("AVR"));
        assert!(t.contains("memoin"));
        assert!(t.contains("memoout"));
        assert!(!t.contains("ZeroAVR"), "ZeroAVR is not part of Table 3");
    }
}
