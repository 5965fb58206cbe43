//! Run a heat shard on every core of the paper's 8-core CMP and compare
//! designs at the chip level. The chip is eight one-core `System`s on a
//! `SimPool`, each on its per-core share of Table 1's hierarchy (the
//! partitioned-share model every figure uses): makespan is the slowest
//! core's cycles, traffic and energy sum over the cores.
//!
//! ```text
//! cargo run --release --example multicore_cmp
//! ```

use avr::arch::{DesignKind, SimPool, System, SystemConfig, Vm};
use avr::types::{DataType, PhysAddr};

/// Each core diffuses its own strip of a wide plate.
struct HeatShard {
    width: usize,
    rows_per_core: usize,
    iters: usize,
}

impl HeatShard {
    /// Core `core`'s shard; returns the temperature at its strip's centre.
    fn run(&self, core: usize, vm: &mut dyn Vm) -> f32 {
        let (w, h) = (self.width, self.rows_per_core);
        let n = w * h;
        let a = vm.approx_malloc(4 * n, DataType::F32).base;
        let b = vm.approx_malloc(4 * n, DataType::F32).base;
        let at = |base: PhysAddr, i: usize| PhysAddr(base.0 + 4 * i as u64);
        // Initialize row-by-row through the bulk API.
        let mut row = vec![0f32; w];
        for y in 0..h {
            for (x, t) in row.iter_mut().enumerate() {
                *t = 20.0
                    + 300.0
                        * (-((x as f32 - w as f32 * 0.5).powi(2)
                            + (y as f32 - h as f32 * 0.5).powi(2))
                            / (w as f32 * 6.0))
                            .exp()
                    + core as f32;
            }
            vm.compute(10 * w as u64);
            vm.write_f32s(at(a, y * w), &row);
        }
        // Jacobi sweeps: the 5-point stencil as three contiguous row loads
        // per destination row.
        let mut up = vec![0f32; w];
        let mut cur = vec![0f32; w];
        let mut down = vec![0f32; w];
        let mut next = vec![0f32; w - 2];
        let (mut src, mut dst) = (a, b);
        for _ in 0..self.iters {
            for y in 1..h - 1 {
                vm.read_f32s(at(src, (y - 1) * w), &mut up);
                vm.read_f32s(at(src, (y + 1) * w), &mut down);
                vm.read_f32s(at(src, y * w), &mut cur);
                for x in 1..w - 1 {
                    next[x - 1] = 0.25 * (up[x] + down[x] + cur[x - 1] + cur[x + 1]);
                }
                vm.compute(6 * (w - 2) as u64);
                vm.write_f32s(at(dst, y * w + 1), &next);
            }
            std::mem::swap(&mut src, &mut dst);
        }
        vm.read_f32(at(src, (h / 2) * w + w / 2))
    }
}

fn main() {
    let cores = 8;
    let shard = HeatShard { width: 256, rows_per_core: 128, iters: 3 };
    // Per-core share of Table 1's hierarchy (1 MB of the 8 MB LLC, a
    // quarter-channel of DDR4 bandwidth).
    let cfg = SystemConfig::per_core_scaled();

    println!("8-core SPMD heat, partitioned-share CMP model\n");
    println!("{:<10}{:>16}{:>14}{:>12}", "design", "makespan (cyc)", "traffic (MB)", "energy (mJ)");
    let mut baseline_cycles = 0u64;
    for design in [DesignKind::Baseline, DesignKind::Truncate, DesignKind::Avr] {
        let per_core = SimPool::new(cores).run_jobs(cores, |ctx| {
            let mut sys = System::new(cfg.clone(), design);
            shard.run(ctx.index, &mut sys);
            sys.finish("heat_spmd")
        });
        let cycles = per_core.iter().map(|m| m.cycles).max().unwrap_or(0);
        let traffic: u64 = per_core.iter().map(|m| m.counters.traffic.total()).sum();
        let energy: f64 = per_core.iter().map(|m| m.energy.total()).sum();
        if design == DesignKind::Baseline {
            baseline_cycles = cycles;
        }
        println!(
            "{:<10}{:>16}{:>14.1}{:>12.2}   ({:.2}x vs baseline)",
            design.label(),
            cycles,
            traffic as f64 / 1e6,
            energy * 1e3,
            cycles as f64 / baseline_cycles as f64,
        );
    }
}
