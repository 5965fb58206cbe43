//! Regenerate every table and figure of the paper's evaluation in one run.
//!
//! ```text
//! cargo run -p avr-bench --release --bin figures            # tiny scale
//! AVR_SCALE=bench cargo run -p avr-bench --release --bin figures
//! ```
//!
//! The `bench` scale is the evaluation scale; `tiny` is the smoke scale.
//! The last section, the ablation of AVR's mechanisms, is not a paper
//! figure.

use avr_bench::{ablation, fig09, fig10, fig11, fig12, fig13, fig14, fig15, table3, table4, Sweep};
use avr_core::{DesignKind, OverheadReport, SystemConfig};
use avr_types::knobs::knobs;

fn main() {
    let scale = knobs().scale;
    let pool = avr_core::SimPool::from_env();
    eprintln!("running full sweep at {} scale ({} pool threads)...", scale.label(), pool.threads());
    let t0 = std::time::Instant::now();
    let sweep = Sweep::run_on(&pool, scale, &DesignKind::ALL);
    eprintln!(
        "sweep done: {} programs x {} designs in {:.1}s",
        sweep.runs.len() / sweep.designs.len(),
        sweep.designs.len(),
        t0.elapsed().as_secs_f64()
    );

    print!("{}", table3(&sweep));
    print!("{}", table4(&sweep));
    print!("{}", fig09(&sweep));
    print!("{}", fig10(&sweep));
    print!("{}", fig11(&sweep));
    print!("{}", fig12(&sweep));
    print!("{}", fig13(&sweep));
    print!("{}", fig14(&sweep));
    print!("{}", fig15(&sweep));

    println!("\n=== §4.2 Hardware overhead ===");
    print!("{}", OverheadReport::for_config(&SystemConfig::paper()).render());

    println!("=== §4.3 LLC capacity devoted to compressed blocks ===");
    for b in avr_bench::BENCH_ORDER {
        let m = sweep.get(b, DesignKind::Avr);
        println!("{b:<10} {:>5.1} %", m.llc_cms_fraction * 100.0);
    }

    print!("{}", ablation(&sweep, scale));
}
