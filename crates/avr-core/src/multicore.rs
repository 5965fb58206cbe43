//! SPMD multicore execution (the paper's CMP configuration, Fig. 1).
//!
//! The paper runs 8 cores each executing the same application on its own
//! shard of data (Table 2 gives *per-core* footprints). This runner models
//! that as a **partitioned-share CMP**: each core owns its share of the
//! LLC and of the memory-system bandwidth (`SystemConfig::per_core_scaled`
//! encodes the shares), and shards execute concurrently on OS threads via
//! `std::thread::scope`. Inter-core interference beyond the static shares
//! (set conflicts in a truly shared LLC, bank conflicts between cores) is
//! not modelled.
//!
//! The aggregate metrics follow the paper's conventions: cycles are the
//! *slowest* core's (makespan), traffic and energy sum across cores.

use crate::pool::SimPool;
use crate::system::System;
use crate::vm_api::Vm;
use avr_sim::RunMetrics;
use avr_types::{DesignKind, SystemConfig};

/// A workload shard factory: builds the closure core `i` of `n` executes.
pub trait ShardedWorkload: Sync {
    /// Run shard `core` of `total` against the core's VM, returning the
    /// shard's output values.
    fn run_shard(&self, core: usize, total: usize, vm: &mut dyn Vm) -> Vec<f64>;

    fn name(&self) -> &'static str;
}

/// Result of a multicore run.
pub struct MulticoreRun {
    /// Per-core metrics, in core order.
    pub per_core: Vec<RunMetrics>,
    /// Concatenated shard outputs (core order).
    pub outputs: Vec<Vec<f64>>,
}

impl MulticoreRun {
    /// Makespan in cycles (the slowest shard).
    pub fn cycles(&self) -> u64 {
        self.per_core.iter().map(|m| m.cycles).max().unwrap_or(0)
    }

    /// Total DRAM traffic over all cores.
    pub fn total_traffic(&self) -> u64 {
        self.per_core.iter().map(|m| m.counters.traffic.total()).sum()
    }

    /// Total energy over all cores.
    pub fn total_energy(&self) -> f64 {
        self.per_core.iter().map(|m| m.energy.total()).sum()
    }

    /// Merged chip-level accumulators: summed counters/energy, makespan
    /// cycles (the paper's multicore conventions).
    pub fn merged(&self) -> avr_sim::MergedRun {
        avr_sim::MergedRun::of(&self.per_core)
    }
}

/// Execute `workload` on `cores` SPMD shards of `design`, each against its
/// per-core share of the paper's hierarchy. One worker thread per shard
/// (the seed behavior); sweeps that run many multicore configurations
/// should share a bounded [`SimPool`] via [`run_multicore_on`] instead.
pub fn run_multicore(
    workload: &dyn ShardedWorkload,
    per_core_cfg: &SystemConfig,
    design: DesignKind,
    cores: usize,
) -> MulticoreRun {
    run_multicore_on(&SimPool::new(cores), workload, per_core_cfg, design, cores)
}

/// Execute `workload` on `cores` SPMD shards of `design`, scheduling the
/// shards on `pool`. Shard results are returned in core order and are
/// bit-identical for any pool width (each shard is an independent
/// deterministic simulation).
pub fn run_multicore_on(
    pool: &SimPool,
    workload: &dyn ShardedWorkload,
    per_core_cfg: &SystemConfig,
    design: DesignKind,
    cores: usize,
) -> MulticoreRun {
    assert!(cores >= 1);
    let shards = pool.run_jobs(cores, |ctx| {
        let mut sys = System::new(per_core_cfg.clone(), design);
        let out = workload.run_shard(ctx.index, cores, &mut sys);
        let metrics = sys.finish(workload.name());
        (metrics, out)
    });
    let (per_core, outputs) = shards.into_iter().unzip();
    MulticoreRun { per_core, outputs }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avr_types::{DataType, PhysAddr};

    /// Each shard smooths its own strip of a field.
    struct StripSmooth {
        strip_len: usize,
    }

    impl ShardedWorkload for StripSmooth {
        fn name(&self) -> &'static str {
            "strip_smooth"
        }

        fn run_shard(&self, core: usize, _total: usize, vm: &mut dyn Vm) -> Vec<f64> {
            let n = self.strip_len;
            let a = vm.approx_malloc(4 * n, DataType::F32).base;
            // Each core's data differs so shard outputs differ. The strip
            // streams through the bulk API in chunks.
            const CHUNK: usize = 4096;
            let mut buf = vec![0f32; CHUNK];
            for start in (0..n).step_by(CHUNK) {
                let len = CHUNK.min(n - start);
                for (o, v) in buf[..len].iter_mut().enumerate() {
                    *v = 100.0 + core as f32 * 10.0 + ((start + o) as f32) * 0.001;
                }
                vm.write_f32s(PhysAddr(a.0 + 4 * start as u64), &buf[..len]);
            }
            let mut acc = 0.0f64;
            for start in (0..n).step_by(CHUNK) {
                let len = CHUNK.min(n - start);
                vm.read_f32s(PhysAddr(a.0 + 4 * start as u64), &mut buf[..len]);
                vm.compute(4 * len as u64);
                acc += buf[..len].iter().map(|&v| v as f64).sum::<f64>();
            }
            vec![acc / n as f64]
        }
    }

    #[test]
    fn shards_run_concurrently_and_independently() {
        let w = StripSmooth { strip_len: 32 * 1024 };
        let cfg = SystemConfig::tiny();
        let run = run_multicore(&w, &cfg, DesignKind::Avr, 4);
        assert_eq!(run.per_core.len(), 4);
        assert_eq!(run.outputs.len(), 4);
        // Each shard sees its own mean.
        for (core, out) in run.outputs.iter().enumerate() {
            let n = w.strip_len as f64;
            let expect = 100.0 + core as f64 * 10.0 + 0.001 * (n - 1.0) / 2.0;
            assert!((out[0] - expect).abs() < 1.0, "core {core}: {}", out[0]);
        }
        assert!(run.cycles() > 0);
        assert!(run.total_traffic() > 0);
    }

    #[test]
    fn multicore_matches_singlecore_per_shard() {
        // With identical shards, a 2-core run's per-core metrics equal a
        // 1-core run's (partitioned shares are independent).
        let w = StripSmooth { strip_len: 16 * 1024 };
        let cfg = SystemConfig::tiny();
        let one = run_multicore(&w, &cfg, DesignKind::Avr, 1);
        let two = run_multicore(&w, &cfg, DesignKind::Avr, 2);
        assert_eq!(one.per_core[0].cycles, two.per_core[0].cycles);
        assert_eq!(one.per_core[0].counters.traffic, two.per_core[0].counters.traffic);
    }

    #[test]
    fn pooled_shards_match_per_core_threads_exactly() {
        // Scheduling 4 shards on a 2-wide pool must be bit-identical to
        // the thread-per-shard path — and expose the same merged stats.
        let w = StripSmooth { strip_len: 8 * 1024 };
        let cfg = SystemConfig::tiny();
        let wide = run_multicore(&w, &cfg, DesignKind::Avr, 4);
        let pooled = run_multicore_on(&SimPool::new(2), &w, &cfg, DesignKind::Avr, 4);
        assert_eq!(pooled.outputs, wide.outputs);
        for (a, b) in pooled.per_core.iter().zip(&wide.per_core) {
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.counters.traffic, b.counters.traffic);
        }
        let merged = pooled.merged();
        assert_eq!(merged.runs, 4);
        assert_eq!(merged.makespan_cycles, pooled.cycles());
        assert_eq!(merged.counters.traffic.total(), pooled.total_traffic());
        assert!((merged.energy.total() - pooled.total_energy()).abs() < 1e-12);
    }

    #[test]
    fn makespan_is_max_and_traffic_is_sum() {
        let w = StripSmooth { strip_len: 8 * 1024 };
        let cfg = SystemConfig::tiny();
        let run = run_multicore(&w, &cfg, DesignKind::Baseline, 3);
        let max = run.per_core.iter().map(|m| m.cycles).max().unwrap();
        let sum: u64 = run.per_core.iter().map(|m| m.counters.traffic.total()).sum();
        assert_eq!(run.cycles(), max);
        assert_eq!(run.total_traffic(), sum);
    }
}
