//! [`TimedVm`]: a [`Vm`] that forwards every method to the wrapped machine
//! and accumulates call counts and host nanoseconds per method family.
//!
//! The wrapper only observes: every call, bulk or word-sized, is forwarded
//! to the same method of the inner VM, so the simulated event sequence, the
//! values moved and the final metrics are bit-identical to an unwrapped run
//! (the unit tests pin that for every tiny program × design).
//! Calls are aggregated per family, never kept as individual spans, so the
//! wrapper allocates nothing while a workload runs.

use std::time::Instant;

use avr_core::{RegionOpts, Vm};
use avr_sim::vm::Region;
use avr_types::{DataType, PhysAddr};

/// The `Vm` method families the trace reports, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `read_u32`/`write_u32`/`read_f32`/`write_f32`.
    Word,
    /// Contiguous slice transfers (`read_f32s`, `write_u32s`, …).
    Contig,
    /// Strided walks (`read_f32s_strided`, …).
    Strided,
    /// Gather/scatter over index sets.
    Gather,
    /// The compute-fused read-modify-write sweep (`for_each_f32_mut`).
    Rmw,
    /// Non-memory instruction accounting (`compute`).
    Compute,
    /// `malloc`/`approx_malloc`/`approx_malloc_with`.
    Alloc,
}

impl Family {
    pub const ALL: [Family; 7] = [
        Family::Word,
        Family::Contig,
        Family::Strided,
        Family::Gather,
        Family::Rmw,
        Family::Compute,
        Family::Alloc,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Family::Word => "word",
            Family::Contig => "contig",
            Family::Strided => "strided",
            Family::Gather => "gather",
            Family::Rmw => "rmw",
            Family::Compute => "compute",
            Family::Alloc => "alloc",
        }
    }
}

/// Calls and host nanoseconds of one family. Each sample includes part
/// of the wrapper's own clock reads.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FamilyStats {
    pub calls: u64,
    pub ns: u64,
}

/// Per-family totals of one traced run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VmStats {
    pub families: [FamilyStats; 7],
}

impl VmStats {
    pub fn get(&self, f: Family) -> FamilyStats {
        self.families[f as usize]
    }

    pub fn calls(&self) -> u64 {
        self.families.iter().map(|f| f.calls).sum()
    }

    pub fn total_ns(&self) -> u64 {
        self.families.iter().map(|f| f.ns).sum()
    }

    pub fn merge(&mut self, other: &VmStats) {
        for (a, b) in self.families.iter_mut().zip(&other.families) {
            a.calls += b.calls;
            a.ns += b.ns;
        }
    }
}

/// A timing wrapper around any [`Vm`].
pub struct TimedVm<'a, V: Vm + ?Sized> {
    inner: &'a mut V,
    pub stats: VmStats,
}

impl<'a, V: Vm + ?Sized> TimedVm<'a, V> {
    pub fn new(inner: &'a mut V) -> Self {
        TimedVm { inner, stats: VmStats::default() }
    }

    #[inline]
    fn timed<R>(&mut self, family: Family, f: impl FnOnce(&mut V) -> R) -> R {
        let t0 = Instant::now();
        let r = f(self.inner);
        let ns = t0.elapsed().as_nanos() as u64;
        let s = &mut self.stats.families[family as usize];
        s.calls += 1;
        s.ns += ns;
        r
    }
}

impl<V: Vm + ?Sized> Vm for TimedVm<'_, V> {
    fn malloc(&mut self, len_bytes: usize) -> Region {
        self.timed(Family::Alloc, |vm| vm.malloc(len_bytes))
    }

    fn approx_malloc(&mut self, len_bytes: usize, dt: DataType) -> Region {
        self.timed(Family::Alloc, |vm| vm.approx_malloc(len_bytes, dt))
    }

    fn approx_malloc_with(&mut self, len_bytes: usize, dt: DataType, opts: RegionOpts) -> Region {
        self.timed(Family::Alloc, |vm| vm.approx_malloc_with(len_bytes, dt, opts))
    }

    fn read_u32(&mut self, addr: PhysAddr) -> u32 {
        self.timed(Family::Word, |vm| vm.read_u32(addr))
    }

    fn write_u32(&mut self, addr: PhysAddr, val: u32) {
        self.timed(Family::Word, |vm| vm.write_u32(addr, val))
    }

    fn compute(&mut self, n: u64) {
        self.timed(Family::Compute, |vm| vm.compute(n))
    }

    fn read_f32(&mut self, addr: PhysAddr) -> f32 {
        self.timed(Family::Word, |vm| vm.read_f32(addr))
    }

    fn write_f32(&mut self, addr: PhysAddr, val: f32) {
        self.timed(Family::Word, |vm| vm.write_f32(addr, val))
    }

    fn read_u32s(&mut self, addr: PhysAddr, out: &mut [u32]) {
        self.timed(Family::Contig, |vm| vm.read_u32s(addr, out))
    }

    fn write_u32s(&mut self, addr: PhysAddr, vals: &[u32]) {
        self.timed(Family::Contig, |vm| vm.write_u32s(addr, vals))
    }

    fn read_f32s(&mut self, addr: PhysAddr, out: &mut [f32]) {
        self.timed(Family::Contig, |vm| vm.read_f32s(addr, out))
    }

    fn write_f32s(&mut self, addr: PhysAddr, vals: &[f32]) {
        self.timed(Family::Contig, |vm| vm.write_f32s(addr, vals))
    }

    fn read_i32s(&mut self, addr: PhysAddr, out: &mut [i32]) {
        self.timed(Family::Contig, |vm| vm.read_i32s(addr, out))
    }

    fn write_i32s(&mut self, addr: PhysAddr, vals: &[i32]) {
        self.timed(Family::Contig, |vm| vm.write_i32s(addr, vals))
    }

    fn read_f32s_strided(&mut self, base: PhysAddr, stride_bytes: u64, out: &mut [f32]) {
        self.timed(Family::Strided, |vm| vm.read_f32s_strided(base, stride_bytes, out))
    }

    fn write_f32s_strided(&mut self, base: PhysAddr, stride_bytes: u64, vals: &[f32]) {
        self.timed(Family::Strided, |vm| vm.write_f32s_strided(base, stride_bytes, vals))
    }

    fn read_u32s_strided(&mut self, base: PhysAddr, stride_bytes: u64, out: &mut [u32]) {
        self.timed(Family::Strided, |vm| vm.read_u32s_strided(base, stride_bytes, out))
    }

    fn write_u32s_strided(&mut self, base: PhysAddr, stride_bytes: u64, vals: &[u32]) {
        self.timed(Family::Strided, |vm| vm.write_u32s_strided(base, stride_bytes, vals))
    }

    fn read_f32s_gather(&mut self, base: PhysAddr, idx: &[u32], out: &mut [f32]) {
        self.timed(Family::Gather, |vm| vm.read_f32s_gather(base, idx, out))
    }

    fn write_f32s_scatter(&mut self, base: PhysAddr, idx: &[u32], vals: &[f32]) {
        self.timed(Family::Gather, |vm| vm.write_f32s_scatter(base, idx, vals))
    }

    fn for_each_f32_mut(
        &mut self,
        addr: PhysAddr,
        n: usize,
        compute_per_value: u64,
        f: &mut dyn FnMut(usize, f32) -> f32,
    ) {
        self.timed(Family::Rmw, |vm| vm.for_each_f32_mut(addr, n, compute_per_value, f))
    }
}

/// Median cost of one `Instant::now()` read in nanoseconds, measured
/// back to back. Reported beside the trace, not subtracted: inside real
/// code the reads overlap with other work, and the measured tracing
/// overhead per call was a fraction of this figure.
pub fn calibrate_timer_ns() -> f64 {
    const READS: u32 = 20_000;
    let mut samples: Vec<f64> = (0..15)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..READS {
                std::hint::black_box(Instant::now());
            }
            t0.elapsed().as_nanos() as f64 / READS as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}
