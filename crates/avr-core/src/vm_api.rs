//! The workload-facing virtual-machine interface.
//!
//! Workloads are ordinary Rust programs written against `&mut dyn Vm`: they
//! allocate regions (optionally approximable), move data and report their
//! non-memory instruction counts. The same workload source runs on the
//! timed [`crate::System`] (any design) and on [`ExactVm`] (a functional,
//! loss-free executor used as the golden reference for output-error
//! measurement, Table 3).
//!
//! # Bulk operations
//!
//! The paper's memory system moves data in 1 KB blocks and 64 B
//! cachelines, and the granularity-gap literature (arXiv:2004.01637,
//! arXiv:2101.10605) identifies access granularity and layout as the
//! first-order levers for approximate-memory systems — so the interface
//! speaks that language natively. Beyond the word-at-a-time primitives
//! ([`Vm::read_u32`] / [`Vm::write_u32`]), the trait carries **bulk**
//! operations: contiguous slice transfers ([`Vm::read_f32s`],
//! [`Vm::write_u32s`], …), strided walks for column/planar layouts
//! ([`Vm::read_f32s_strided`]), gather/scatter for irregular index sets
//! ([`Vm::read_f32s_gather`]), and a compute-fused read-modify-write sweep
//! ([`Vm::for_each_f32_mut`]).
//!
//! Every bulk operation has a **default implementation that decomposes it
//! into the word-at-a-time primitives**, with a precisely documented
//! per-element ordering. Two consequences:
//!
//! * **Migration:** a third-party `Vm` implementation written against the
//!   word-at-a-time interface keeps compiling — and behaves identically —
//!   without any change. Implementors override individual bulk methods
//!   only when they can serve them faster, and the contract for any
//!   override is *bit-identical observable behavior* to the default
//!   decomposition (same values moved, same instruction accounting, and —
//!   for timed implementations — the same timing/traffic event sequence).
//! * **Verification:** wrapping any `Vm` in [`WordAtATime`] masks its bulk
//!   overrides and forces the default decomposition, so a fast path can be
//!   checked against the word-at-a-time reference on the same workload
//!   (`tests/bulk_api.rs` pins cycles, traffic and output bits for every
//!   workload × design).
//!
//! # Two-level batching in the timed implementation
//!
//! The timed [`crate::System`] serves a bulk call with **two** independent
//! batching levels, both bit-identical to the per-word decomposition:
//!
//! 1. **Value movement** (since the bulk API landed): translation is
//!    hoisted per cacheline span and the span's values move as one slice
//!    copy, legal because only a span's *leading* access can rewrite the
//!    backing store (fetch-triggered reconstruction/truncation/dedup).
//! 2. **The timed walk itself**: after the leading access, every further
//!    word of the span is by construction a pure-metadata L1 hit, so the
//!    remaining `n-1` accesses fold into closed-form updates of the
//!    interval core (`IntervalCore::issue_complete_short_n`), the L1
//!    recency state (`SetAssocCache::access_hit_n`) and the counters —
//!    cycle-exact against the per-word walk, which is retained behind the
//!    `AVR_NO_BATCHED_WALK=1` escape hatch (and a CI matrix leg) so the
//!    equivalence oracle keeps running against real code forever.
//!
//! # Record schemas, layout, and the criticality contract
//!
//! [`crate::layout`] builds a layout-transform level on top of this trait:
//! a workload declares a record schema ([`crate::RecordSchema`] — field
//! dtypes plus per-field criticality) and instantiates it in any
//! [`avr_types::LayoutKind`]; the resulting [`crate::LayoutMap`] routes
//! logical field/record indices onto the bulk entry points above
//! (contiguous planes for SoA, the strided/gather shapes for interleaved
//! AoS records). Allocation-side, the contract is carried by
//! [`Vm::approx_malloc_with`]: an approximable region may declare
//! [`avr_sim::vm::RegionOpts`] metadata — a device fault-rate multiplier
//! and a repeating *sub-block critical-word pattern*. Device error-model
//! backends must never corrupt a critical word (it is ECC-scrub served,
//! like fully-critical lines), and must scale their fault rates by the
//! region's multiplier; the codec, by contrast, sees no such mask — an
//! interleaved critical word inside an approximable block is compressed
//! lossily like any other word, which is precisely the granularity-gap
//! hazard (arXiv:2101.10605) the layout axis exists to measure.
//! Functional VMs may ignore the metadata entirely (the default
//! [`Vm::approx_malloc_with`] delegates to [`Vm::approx_malloc`]): it
//! changes device behavior, never addresses.

use avr_sim::vm::{AddressSpace, PhysMem, Region, RegionOpts};
use avr_types::{DataType, PhysAddr};

/// What a workload needs from the machine.
pub trait Vm {
    /// Allocate precise (non-approximable) memory.
    fn malloc(&mut self, len_bytes: usize) -> Region;

    /// Allocate approximable memory of the given datatype (the paper's
    /// annotated-malloc wrapper, §3.1/§4.1).
    fn approx_malloc(&mut self, len_bytes: usize, dt: DataType) -> Region;

    /// [`Vm::approx_malloc`] with explicit per-region device metadata
    /// (fault-rate multiplier, sub-block critical-word pattern — see the
    /// module docs). The default ignores the metadata and delegates, which
    /// is correct for functional VMs: `opts` affects device fault behavior
    /// only, never placement, so addresses stay identical either way.
    /// Timed implementations with a device error model must override this
    /// to register `opts` on the region.
    fn approx_malloc_with(&mut self, len_bytes: usize, dt: DataType, opts: RegionOpts) -> Region {
        let _ = opts;
        self.approx_malloc(len_bytes, dt)
    }

    /// Timed 32-bit load.
    fn read_u32(&mut self, addr: PhysAddr) -> u32;

    /// Timed 32-bit store.
    fn write_u32(&mut self, addr: PhysAddr, val: u32);

    /// Account `n` non-memory instructions (ALU/FP work between accesses).
    fn compute(&mut self, n: u64);

    /// Convenience: f32 load.
    fn read_f32(&mut self, addr: PhysAddr) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Convenience: f32 store.
    fn write_f32(&mut self, addr: PhysAddr, val: f32) {
        self.write_u32(addr, val.to_bits());
    }

    // ------------------------------------------------------------------
    // Bulk contiguous transfers
    // ------------------------------------------------------------------

    /// Timed load of `out.len()` consecutive words starting at `addr`.
    ///
    /// Equivalent to `out[k] = read_u32(addr + 4k)` for `k` ascending.
    fn read_u32s(&mut self, addr: PhysAddr, out: &mut [u32]) {
        for (k, o) in out.iter_mut().enumerate() {
            *o = self.read_u32(PhysAddr(addr.0 + 4 * k as u64));
        }
    }

    /// Timed store of `vals.len()` consecutive words starting at `addr`.
    ///
    /// Equivalent to `write_u32(addr + 4k, vals[k])` for `k` ascending.
    fn write_u32s(&mut self, addr: PhysAddr, vals: &[u32]) {
        for (k, v) in vals.iter().enumerate() {
            self.write_u32(PhysAddr(addr.0 + 4 * k as u64), *v);
        }
    }

    /// Timed load of `out.len()` consecutive f32 values starting at `addr`.
    fn read_f32s(&mut self, addr: PhysAddr, out: &mut [f32]) {
        for (k, o) in out.iter_mut().enumerate() {
            *o = self.read_f32(PhysAddr(addr.0 + 4 * k as u64));
        }
    }

    /// Timed store of `vals.len()` consecutive f32 values starting at `addr`.
    fn write_f32s(&mut self, addr: PhysAddr, vals: &[f32]) {
        for (k, v) in vals.iter().enumerate() {
            self.write_f32(PhysAddr(addr.0 + 4 * k as u64), *v);
        }
    }

    /// Timed load of `out.len()` consecutive i32 values starting at `addr`
    /// — bit-pattern identical to [`Vm::read_u32s`] (the Fixed32/Q16.16
    /// consumers' view).
    fn read_i32s(&mut self, addr: PhysAddr, out: &mut [i32]) {
        for (k, o) in out.iter_mut().enumerate() {
            *o = self.read_u32(PhysAddr(addr.0 + 4 * k as u64)) as i32;
        }
    }

    /// Timed store of `vals.len()` consecutive i32 values starting at
    /// `addr` — bit-pattern identical to [`Vm::write_u32s`].
    fn write_i32s(&mut self, addr: PhysAddr, vals: &[i32]) {
        for (k, v) in vals.iter().enumerate() {
            self.write_u32(PhysAddr(addr.0 + 4 * k as u64), *v as u32);
        }
    }

    // ------------------------------------------------------------------
    // Strided and gathered transfers (stencil columns, planar/SoA data)
    // ------------------------------------------------------------------

    /// Timed strided load: `out[k] = read_f32(base + k * stride_bytes)`,
    /// `k` ascending. A column walk of a row-major grid uses
    /// `stride_bytes = 4 * width`; a planar structure-of-arrays field uses
    /// the plane pitch.
    fn read_f32s_strided(&mut self, base: PhysAddr, stride_bytes: u64, out: &mut [f32]) {
        for (k, o) in out.iter_mut().enumerate() {
            *o = self.read_f32(PhysAddr(base.0 + k as u64 * stride_bytes));
        }
    }

    /// Timed strided store: `write_f32(base + k * stride_bytes, vals[k])`,
    /// `k` ascending.
    fn write_f32s_strided(&mut self, base: PhysAddr, stride_bytes: u64, vals: &[f32]) {
        for (k, v) in vals.iter().enumerate() {
            self.write_f32(PhysAddr(base.0 + k as u64 * stride_bytes), *v);
        }
    }

    /// Timed strided load of raw words: `out[k] = read_u32(base +
    /// k * stride_bytes)`, `k` ascending — the integer-field view of an
    /// interleaved (AoS) record walk.
    fn read_u32s_strided(&mut self, base: PhysAddr, stride_bytes: u64, out: &mut [u32]) {
        for (k, o) in out.iter_mut().enumerate() {
            *o = self.read_u32(PhysAddr(base.0 + k as u64 * stride_bytes));
        }
    }

    /// Timed strided store of raw words: `write_u32(base + k *
    /// stride_bytes, vals[k])`, `k` ascending.
    fn write_u32s_strided(&mut self, base: PhysAddr, stride_bytes: u64, vals: &[u32]) {
        for (k, v) in vals.iter().enumerate() {
            self.write_u32(PhysAddr(base.0 + k as u64 * stride_bytes), *v);
        }
    }

    /// Timed gather: `out[k] = read_f32(base + 4 * idx[k])`, `k` ascending
    /// (indices are element indices relative to `base`, duplicates allowed).
    fn read_f32s_gather(&mut self, base: PhysAddr, idx: &[u32], out: &mut [f32]) {
        assert_eq!(idx.len(), out.len(), "gather index/output shapes must match");
        for (i, o) in idx.iter().zip(out.iter_mut()) {
            *o = self.read_f32(PhysAddr(base.0 + 4 * *i as u64));
        }
    }

    /// Timed scatter: `write_f32(base + 4 * idx[k], vals[k])`, `k`
    /// ascending (on duplicate indices the last write wins, as in the
    /// equivalent loop).
    fn write_f32s_scatter(&mut self, base: PhysAddr, idx: &[u32], vals: &[f32]) {
        assert_eq!(idx.len(), vals.len(), "scatter index/value shapes must match");
        for (i, v) in idx.iter().zip(vals.iter()) {
            self.write_f32(PhysAddr(base.0 + 4 * *i as u64), *v);
        }
    }

    // ------------------------------------------------------------------
    // Compute-fused region sweep
    // ------------------------------------------------------------------

    /// Timed read-modify-write sweep over `n` consecutive f32 values
    /// starting at `addr`. Per element, in order: load the old value,
    /// apply `f(element_index, old)`, account `compute_per_value`
    /// non-memory instructions, store the new value. `f` sees each
    /// element exactly once, in ascending order, and must not touch the
    /// VM (it receives only the value).
    fn for_each_f32_mut(
        &mut self,
        addr: PhysAddr,
        n: usize,
        compute_per_value: u64,
        f: &mut dyn FnMut(usize, f32) -> f32,
    ) {
        for k in 0..n {
            let a = PhysAddr(addr.0 + 4 * k as u64);
            let old = self.read_f32(a);
            let new = f(k, old);
            self.compute(compute_per_value);
            self.write_f32(a, new);
        }
    }
}

/// Adapter that masks every bulk override of the wrapped [`Vm`], forcing
/// the trait's default word-at-a-time decompositions.
///
/// This is the reference semantics of the bulk API made runnable: a
/// workload driven through `WordAtATime(&mut sys)` performs exactly the
/// per-word operation sequence the bulk defaults document, so a fast-path
/// implementation can be pinned bit-identical to it (metrics *and* data).
/// It is also what a third-party `Vm` written before the bulk API behaves
/// like without any code change.
pub struct WordAtATime<'a, V: Vm + ?Sized>(pub &'a mut V);

impl<V: Vm + ?Sized> Vm for WordAtATime<'_, V> {
    fn malloc(&mut self, len_bytes: usize) -> Region {
        self.0.malloc(len_bytes)
    }

    fn approx_malloc(&mut self, len_bytes: usize, dt: DataType) -> Region {
        self.0.approx_malloc(len_bytes, dt)
    }

    fn approx_malloc_with(&mut self, len_bytes: usize, dt: DataType, opts: RegionOpts) -> Region {
        // Allocation (like the other four primitives) is forwarded — the
        // wrapper masks bulk *access* overrides only, and dropping the
        // region metadata here would change device fault behavior between
        // a fast path and its word-at-a-time oracle.
        self.0.approx_malloc_with(len_bytes, dt, opts)
    }

    fn read_u32(&mut self, addr: PhysAddr) -> u32 {
        self.0.read_u32(addr)
    }

    fn write_u32(&mut self, addr: PhysAddr, val: u32) {
        self.0.write_u32(addr, val)
    }

    fn compute(&mut self, n: u64) {
        self.0.compute(n)
    }

    // Bulk methods intentionally NOT forwarded: the trait defaults
    // decompose them into the five primitives above.
}

/// Functional executor: exact values, no timing. The golden reference.
#[derive(Default)]
pub struct ExactVm {
    pub mem: PhysMem,
    pub space: AddressSpace,
    pub instructions: u64,
}

impl ExactVm {
    pub fn new() -> Self {
        ExactVm::default()
    }
}

impl Vm for ExactVm {
    fn malloc(&mut self, len_bytes: usize) -> Region {
        self.space.malloc(len_bytes)
    }

    fn approx_malloc(&mut self, len_bytes: usize, dt: DataType) -> Region {
        // The golden run ignores approximability but keeps the layout
        // identical so addresses line up between runs.
        self.space.approx_malloc(len_bytes, dt)
    }

    fn approx_malloc_with(&mut self, len_bytes: usize, dt: DataType, opts: RegionOpts) -> Region {
        // Faults never happen here, but the region must still carry its
        // metadata so layout code can be validated against the exact VM.
        self.space.approx_malloc_with(len_bytes, dt, opts)
    }

    fn read_u32(&mut self, addr: PhysAddr) -> u32 {
        self.instructions += 1;
        self.mem.read_u32(addr)
    }

    fn write_u32(&mut self, addr: PhysAddr, val: u32) {
        self.instructions += 1;
        self.mem.write_u32(addr, val);
    }

    fn compute(&mut self, n: u64) {
        self.instructions += n;
    }

    // Bulk fast paths: one instruction per word like the defaults, but a
    // single address translation and slice copy per call.

    fn read_u32s(&mut self, addr: PhysAddr, out: &mut [u32]) {
        self.instructions += out.len() as u64;
        self.mem.read_words(addr, out);
    }

    fn write_u32s(&mut self, addr: PhysAddr, vals: &[u32]) {
        self.instructions += vals.len() as u64;
        self.mem.write_words(addr, vals);
    }

    fn read_f32s(&mut self, addr: PhysAddr, out: &mut [f32]) {
        self.instructions += out.len() as u64;
        self.mem.read_words_f32(addr, out);
    }

    fn write_f32s(&mut self, addr: PhysAddr, vals: &[f32]) {
        self.instructions += vals.len() as u64;
        self.mem.write_words_f32(addr, vals);
    }

    fn read_f32s_strided(&mut self, base: PhysAddr, stride_bytes: u64, out: &mut [f32]) {
        self.instructions += out.len() as u64;
        for (k, o) in out.iter_mut().enumerate() {
            *o = f32::from_bits(self.mem.read_u32(PhysAddr(base.0 + k as u64 * stride_bytes)));
        }
    }

    fn write_f32s_strided(&mut self, base: PhysAddr, stride_bytes: u64, vals: &[f32]) {
        self.instructions += vals.len() as u64;
        for (k, v) in vals.iter().enumerate() {
            self.mem.write_u32(PhysAddr(base.0 + k as u64 * stride_bytes), v.to_bits());
        }
    }

    fn read_u32s_strided(&mut self, base: PhysAddr, stride_bytes: u64, out: &mut [u32]) {
        self.instructions += out.len() as u64;
        for (k, o) in out.iter_mut().enumerate() {
            *o = self.mem.read_u32(PhysAddr(base.0 + k as u64 * stride_bytes));
        }
    }

    fn write_u32s_strided(&mut self, base: PhysAddr, stride_bytes: u64, vals: &[u32]) {
        self.instructions += vals.len() as u64;
        for (k, v) in vals.iter().enumerate() {
            self.mem.write_u32(PhysAddr(base.0 + k as u64 * stride_bytes), *v);
        }
    }

    fn read_f32s_gather(&mut self, base: PhysAddr, idx: &[u32], out: &mut [f32]) {
        assert_eq!(idx.len(), out.len(), "gather index/output shapes must match");
        self.instructions += idx.len() as u64;
        for (i, o) in idx.iter().zip(out.iter_mut()) {
            *o = f32::from_bits(self.mem.read_u32(PhysAddr(base.0 + 4 * *i as u64)));
        }
    }

    fn write_f32s_scatter(&mut self, base: PhysAddr, idx: &[u32], vals: &[f32]) {
        assert_eq!(idx.len(), vals.len(), "scatter index/value shapes must match");
        self.instructions += idx.len() as u64;
        for (i, v) in idx.iter().zip(vals.iter()) {
            self.mem.write_u32(PhysAddr(base.0 + 4 * *i as u64), v.to_bits());
        }
    }

    fn for_each_f32_mut(
        &mut self,
        addr: PhysAddr,
        n: usize,
        compute_per_value: u64,
        f: &mut dyn FnMut(usize, f32) -> f32,
    ) {
        // Values are exact and stable here, so the whole sweep can run on
        // one translated pass; instruction accounting matches the default
        // (load + store + compute_per_value per element).
        self.instructions += n as u64 * (2 + compute_per_value);
        for k in 0..n {
            let a = PhysAddr(addr.0 + 4 * k as u64);
            let old = f32::from_bits(self.mem.read_u32(a));
            self.mem.write_u32(a, f(k, old).to_bits());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_vm_reads_what_it_wrote() {
        let mut vm = ExactVm::new();
        let r = vm.approx_malloc(4096, DataType::F32);
        vm.write_f32(r.base, 1.5);
        vm.write_f32(PhysAddr(r.base.0 + 4), -2.5);
        assert_eq!(vm.read_f32(r.base), 1.5);
        assert_eq!(vm.read_f32(PhysAddr(r.base.0 + 4)), -2.5);
        assert_eq!(vm.instructions, 4);
    }

    #[test]
    fn layout_matches_between_allocators() {
        // Identical allocation sequences produce identical addresses, so
        // the exact run and the timed run can be compared element-wise.
        let mut a = ExactVm::new();
        let mut b = ExactVm::new();
        let r1 = a.malloc(100);
        let r2 = b.malloc(100);
        assert_eq!(r1.base, r2.base);
        let r3 = a.approx_malloc(8192, DataType::F32);
        let r4 = b.approx_malloc(8192, DataType::F32);
        assert_eq!(r3.base, r4.base);
    }

    #[test]
    fn compute_counts_instructions() {
        let mut vm = ExactVm::new();
        vm.compute(500);
        assert_eq!(vm.instructions, 500);
    }

    /// Drive the same bulk call pattern through the ExactVm fast paths and
    /// through [`WordAtATime`] (default decompositions); values and
    /// instruction counts must agree exactly.
    #[test]
    fn exact_bulk_paths_match_word_at_a_time() {
        let run = |bulk: bool| {
            let mut vm = ExactVm::new();
            let r = vm.approx_malloc(64 << 10, DataType::F32);
            let base = r.base;
            let drive = |vm: &mut dyn Vm| {
                let vals: Vec<f32> = (0..1000).map(|i| i as f32 * 0.5 - 3.0).collect();
                vm.write_f32s(PhysAddr(base.0 + 12), &vals);
                let mut back = vec![0f32; 1000];
                vm.read_f32s(PhysAddr(base.0 + 12), &mut back);
                assert_eq!(back, vals);
                vm.write_f32s_strided(base, 64, &vals[..100]);
                let mut col = vec![0f32; 100];
                vm.read_f32s_strided(base, 64, &mut col);
                assert_eq!(col, vals[..100]);
                let idx: Vec<u32> = (0..64u32).map(|i| (i * 37) % 1000).collect();
                vm.write_f32s_scatter(base, &idx, &vals[..64]);
                let mut g = vec![0f32; 64];
                vm.read_f32s_gather(base, &idx, &mut g);
                assert_eq!(g, vals[..64]);
                vm.for_each_f32_mut(PhysAddr(base.0 + 12), 500, 3, &mut |k, v| v + k as f32);
                let words: Vec<u32> = (0..77).map(|i| i * 3 + 1).collect();
                vm.write_u32s(PhysAddr(base.0 + 4096), &words);
                let mut wb = vec![0u32; 77];
                vm.read_u32s(PhysAddr(base.0 + 4096), &mut wb);
                assert_eq!(wb, words);
            };
            if bulk {
                drive(&mut vm);
            } else {
                drive(&mut WordAtATime(&mut vm));
            }
            let probe: Vec<u32> =
                (0..(16 << 10)).map(|i| vm.mem.read_u32(PhysAddr(base.0 + 4 * i))).collect();
            (vm.instructions, probe)
        };
        let (fast_instr, fast_mem) = run(true);
        let (word_instr, word_mem) = run(false);
        assert_eq!(fast_instr, word_instr, "instruction accounting diverged");
        assert_eq!(fast_mem, word_mem, "memory contents diverged");
    }
}
