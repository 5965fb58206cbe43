//! Allocation regression test: the steady-state compress + LLC access
//! paths must perform **zero heap allocations** after warm-up. A counting
//! global allocator wraps the system allocator; everything runs inside one
//! test function so no concurrent test pollutes the counter.
//!
//! Only threads that opt in (the test thread and the summary workers it
//! spawns) are counted: the allocator is process-global, and libtest's own
//! runner thread does a couple of bookkeeping allocations concurrently
//! with the first milliseconds of the test body — on a loaded single-core
//! host those used to land inside the measured window and fail the test
//! spuriously.

use avr::arch::{DesignKind, System as AvrSystem, SystemConfig, Vm};
use avr::cache::cmt::{CmtCache, CmtTable};
use avr::cache::llc::{AvrLlc, Evicted};
use avr::compress::{Compressor, Thresholds};
use avr::types::{BlockAddr, BlockData, CacheGeometry, DataType, PhysAddr};
use avr_bench::codec_kernels::{noise_block, smooth_block, spiky_block};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // const-init + no destructor: accessing this inside the allocator
    // cannot itself allocate or register TLS teardown.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

/// Opt the current thread into allocation counting.
fn count_this_thread() {
    COUNTED.with(|c| c.set(true));
}

#[inline]
fn counted() -> bool {
    COUNTED.try_with(|c| c.get()).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_hot_paths_do_not_allocate() {
    count_this_thread();

    // ------------------------------------------------------------------
    // Codec: success, outlier and failure paths.
    // ------------------------------------------------------------------
    let mut comp = Compressor::new(Thresholds::paper_default(), 8);
    let (smooth, spiky, noise) = (smooth_block(), spiky_block(), noise_block());
    let mut fixed = BlockData::default();
    for (i, w) in fixed.words.iter_mut().enumerate() {
        *w = ((100 << 16) + (i as i32) * 300) as u32;
    }
    // Warm-up covers every branch once.
    let _ = comp.compress(&smooth, DataType::F32);
    let _ = comp.compress(&spiky, DataType::F32);
    let _ = comp.compress(&noise, DataType::F32);
    let _ = comp.compress(&fixed, DataType::Fixed32);

    let before = allocations();
    for _ in 0..200 {
        assert!(comp.compress(&smooth, DataType::F32).is_ok());
        assert!(comp.compress(&spiky, DataType::F32).is_ok());
        assert!(comp.compress(&noise, DataType::F32).is_err());
        assert!(comp.compress(&fixed, DataType::Fixed32).is_ok());
    }
    let codec_allocs = allocations() - before;
    assert_eq!(codec_allocs, 0, "steady-state compress allocated {codec_allocs} times");

    // ------------------------------------------------------------------
    // Decoupled LLC: hits, inserts, evictions, mask queries.
    // ------------------------------------------------------------------
    // The caller's eviction queue is reused, as the eviction machine's is:
    // the LLC appends into it and never allocates on its own.
    let mut llc = AvrLlc::new(CacheGeometry { capacity: 64 * 4 * 64, ways: 4, latency: 15 });
    let mut queue: Vec<Evicted> = Vec::with_capacity(256);
    let mut exercise = |llc: &mut AvrLlc| {
        for k in 0..96u64 {
            let b = BlockAddr(k * 3);
            queue.clear();
            llc.insert_ucl(b.line((k % 16) as usize), k % 2 == 0, &mut queue);
            llc.insert_cms(BlockAddr(k), 1 + (k % 8) as u8, k % 3 == 0, &mut queue);
            llc.access_ucl(b.line((k % 16) as usize), false);
            let _ = llc.ucls_of(b);
            let _ = llc.dirty_ucls_of(b);
            if k % 7 == 0 {
                llc.evict_block(BlockAddr(k / 2), &mut queue);
            }
            if k % 5 == 0 {
                let _ = llc.remove_cms(BlockAddr(k));
            }
        }
    };
    exercise(&mut llc); // warm
    let before = allocations();
    for _ in 0..50 {
        exercise(&mut llc);
    }
    let llc_allocs = allocations() - before;
    assert_eq!(llc_allocs, 0, "steady-state LLC ops allocated {llc_allocs} times");

    // ------------------------------------------------------------------
    // CMT table + cache on a warmed block set.
    // ------------------------------------------------------------------
    let mut cmt = CmtTable::default();
    let mut cache = CmtCache::new(16);
    for k in 0..128u64 {
        cmt.get_mut(BlockAddr(k * 37)).n_lazy = (k % 8) as u8; // materialize segments
        cache.touch(BlockAddr(k * 37));
    }
    let before = allocations();
    for _ in 0..50 {
        for k in 0..128u64 {
            let e = cmt.get(BlockAddr(k * 37));
            cmt.get_mut(BlockAddr(k * 37)).n_failed = e.n_lazy;
            cache.touch(BlockAddr(k * 37));
        }
    }
    let cmt_allocs = allocations() - before;
    assert_eq!(cmt_allocs, 0, "steady-state CMT ops allocated {cmt_allocs} times");

    // ------------------------------------------------------------------
    // Full system: an AVR design re-running identical approx traffic.
    // ------------------------------------------------------------------
    let mut sys = AvrSystem::new(SystemConfig::tiny(), DesignKind::Avr);
    let region = sys.approx_malloc(64 << 10, DataType::F32);
    let flush = sys.malloc(1 << 18);
    let pass = |sys: &mut AvrSystem, seed: f32| {
        for i in 0..(64 << 10) / 4_u64 {
            sys.write_f32(PhysAddr(region.base.0 + 4 * i), seed + (i as f32) * 0.001);
        }
        for off in (0..1 << 18).step_by(64) {
            sys.read_u32(PhysAddr(flush.base.0 + off as u64));
        }
        for i in (0..(64 << 10) / 4_u64).step_by(16) {
            sys.read_f32(PhysAddr(region.base.0 + 4 * i));
        }
    };
    pass(&mut sys, 100.0); // warm-up: allocates backing pages, CMT segments…
    pass(&mut sys, 101.0);
    let before = allocations();
    pass(&mut sys, 102.0);
    let system_allocs = allocations() - before;
    assert_eq!(
        system_allocs, 0,
        "steady-state full-system AVR traffic allocated {system_allocs} times"
    );

    // ------------------------------------------------------------------
    // Bulk Vm API: the System fast paths (contiguous, strided, gather/
    // scatter, fused sweep) must not allocate in steady state either —
    // they coalesce into stack buffers and the existing access machinery.
    // ------------------------------------------------------------------
    let mut vals = vec![0f32; 4096];
    let mut back = vec![0f32; 4096];
    let mut col = vec![0f32; 256];
    let idx: Vec<u32> = (0..256u32).map(|i| (i * 131) % 4096).collect();
    let mut gathered = vec![0f32; 256];
    let bulk_pass = |sys: &mut AvrSystem,
                     vals: &mut [f32],
                     back: &mut [f32],
                     col: &mut [f32],
                     gathered: &mut [f32],
                     seed: f32| {
        for (k, v) in vals.iter_mut().enumerate() {
            *v = seed + k as f32 * 0.01;
        }
        sys.write_f32s(PhysAddr(region.base.0 + 8), vals);
        sys.read_f32s(PhysAddr(region.base.0 + 8), back);
        sys.read_f32s_strided(region.base, 256, col);
        sys.write_f32s_strided(region.base, 256, col);
        sys.write_f32s_scatter(region.base, &idx, &vals[..256]);
        sys.read_f32s_gather(region.base, &idx, gathered);
        sys.for_each_f32_mut(PhysAddr(region.base.0 + 1024), 2048, 2, &mut |k, v| {
            v + (k % 3) as f32
        });
        for off in (0..1 << 18).step_by(64) {
            sys.read_u32(PhysAddr(flush.base.0 + off as u64));
        }
    };
    bulk_pass(&mut sys, &mut vals, &mut back, &mut col, &mut gathered, 300.0); // warm
    bulk_pass(&mut sys, &mut vals, &mut back, &mut col, &mut gathered, 301.0);
    let before = allocations();
    bulk_pass(&mut sys, &mut vals, &mut back, &mut col, &mut gathered, 302.0);
    let bulk_allocs = allocations() - before;
    assert_eq!(bulk_allocs, 0, "steady-state bulk-API traffic allocated {bulk_allocs} times");

    // ------------------------------------------------------------------
    // Memoization designs: MemoIn's fingerprint table is pre-sized at
    // construction (slot seeding pushes into reserved capacity) and
    // MemoOut's per-line window/shadow state is sized at region creation,
    // so repeated memo traffic — probes, table serves, window updates,
    // elisions — performs zero steady-state allocations.
    // ------------------------------------------------------------------
    for design in [DesignKind::MemoIn, DesignKind::MemoOut] {
        let mut msys = AvrSystem::new(SystemConfig::tiny(), design);
        let mregion = msys.approx_malloc(64 << 10, DataType::F32);
        let mflush = msys.malloc(1 << 18);
        let memo_pass = |msys: &mut AvrSystem, seed: f32| {
            for i in 0..(64 << 10) / 4_u64 {
                msys.write_f32(PhysAddr(mregion.base.0 + 4 * i), seed + (i as f32) * 0.001);
            }
            for off in (0..1 << 18).step_by(64) {
                msys.read_u32(PhysAddr(mflush.base.0 + off as u64));
            }
            for i in (0..(64 << 10) / 4_u64).step_by(16) {
                msys.read_f32(PhysAddr(mregion.base.0 + 4 * i));
            }
        };
        // Warm-up materializes pages and fills the memo table / windows;
        // the repeated identical pass then exercises matches and elisions.
        memo_pass(&mut msys, 200.0);
        memo_pass(&mut msys, 200.0);
        let before = allocations();
        memo_pass(&mut msys, 200.0);
        let memo_allocs = allocations() - before;
        assert_eq!(
            memo_allocs, 0,
            "steady-state {design:?} memo traffic allocated {memo_allocs} times"
        );
        let memo = msys.counters.memo;
        assert!(
            memo.in_probes + memo.out_windows > 0,
            "{design:?} saw no memo activity — the section measured nothing"
        );
    }

    // ------------------------------------------------------------------
    // Doppelganger: tags and data entries live in slabs reserved at
    // construction and the eviction buffer is reused, so repeated dedup
    // traffic — dedups, tag-array and data-array evictions, their dirty
    // writebacks — performs zero steady-state allocations.
    // ------------------------------------------------------------------
    let mut dsys = AvrSystem::new(SystemConfig::tiny(), DesignKind::Doppelganger);
    // 8192 lines over 64 value patterns: they dedup, and overflow the
    // 4096-tag array. 2048 lines of scrambled values: distinct
    // signatures that overflow the 1024-entry data array.
    let shared = dsys.approx_malloc(512 << 10, DataType::F32);
    let distinct = dsys.approx_malloc(128 << 10, DataType::F32);
    let dedup_pass = |dsys: &mut AvrSystem| {
        for i in 0..(512 << 10) / 4_u64 {
            let pattern = (i / 16) % 64;
            dsys.write_f32(PhysAddr(shared.base.0 + 4 * i), (10 * pattern + i % 16) as f32);
        }
        for i in 0..(128 << 10) / 4_u64 {
            let z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let v = ((z ^ (z >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 54) as f32;
            dsys.write_f32(PhysAddr(distinct.base.0 + 4 * i), v);
        }
        for i in (0..(512 << 10) / 4_u64).step_by(16) {
            dsys.read_f32(PhysAddr(shared.base.0 + 4 * i));
        }
    };
    let dedup_llc = |dsys: &AvrSystem| {
        let llc = dsys.policy_as::<avr::arch::design::DedupPolicy>().expect("dedup policy").llc();
        (llc.dedup_count, llc.tag_evictions, llc.entry_evictions)
    };
    dedup_pass(&mut dsys); // warm-up: backing pages, slabs, index tables
    dedup_pass(&mut dsys);
    let (dedups, tag_evictions, entry_evictions) = dedup_llc(&dsys);
    let before = allocations();
    dedup_pass(&mut dsys);
    let dedup_allocs = allocations() - before;
    assert_eq!(dedup_allocs, 0, "steady-state dganger traffic allocated {dedup_allocs} times");
    let after = dedup_llc(&dsys);
    assert!(
        after.0 > dedups && after.1 > tag_evictions && after.2 > entry_evictions,
        "the measured pass must dedup and evict both tags and data entries: \
         before {:?}, after {after:?}",
        (dedups, tag_evictions, entry_evictions)
    );

    // ------------------------------------------------------------------
    // Parallel compression summary: each worker's block-scan loop reuses
    // its own Compressor scratch, so once all workers are warmed the whole
    // pool performs zero allocations while scanning. Barriers carve out a
    // measurement window in which *only* the workers' steady-state loops
    // run, making the global counter a per-worker-sum-of-zeros check.
    // ------------------------------------------------------------------
    let blocks: Vec<_> = sys.space.approx_blocks().collect();
    assert!(blocks.len() >= 32, "need a real block population, got {}", blocks.len());
    let mem = &sys.mem;
    const WORKERS: usize = 4;
    let warmed = std::sync::Barrier::new(WORKERS + 1);
    let start = std::sync::Barrier::new(WORKERS + 1);
    let stop = std::sync::Barrier::new(WORKERS + 1);
    // Holds workers alive (parked, not exiting) until the counter is read,
    // so thread-teardown machinery can't leak into the window.
    let exit_gate = std::sync::Barrier::new(WORKERS + 1);
    let chunk = blocks.len().div_ceil(WORKERS);
    let mut totals = avr::arch::summary::BlockScan::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = blocks
            .chunks(chunk)
            .map(|share| {
                let (warmed, start, stop, exit_gate) = (&warmed, &start, &stop, &exit_gate);
                scope.spawn(move || {
                    count_this_thread();
                    // Worker setup: the compressor (and its scratch) is the
                    // only allocation; one warm scan touches every branch.
                    let mut comp = Compressor::new(Thresholds::paper_default(), 8);
                    let warm = avr::arch::summary::scan_blocks(&mut comp, mem, share);
                    warmed.wait();
                    start.wait();
                    let mut acc = avr::arch::summary::BlockScan::default();
                    for _ in 0..20 {
                        let got = avr::arch::summary::scan_blocks(&mut comp, mem, share);
                        assert_eq!(got, warm, "scan must be repeatable");
                        acc = got;
                    }
                    stop.wait();
                    exit_gate.wait();
                    acc
                })
            })
            .collect();
        warmed.wait();
        let before = allocations();
        start.wait(); // release every warmed worker into its steady loop
        stop.wait(); // all loops done; nothing else ran in the window
        let summary_allocs = allocations() - before;
        exit_gate.wait();
        assert_eq!(
            summary_allocs, 0,
            "steady-state parallel compression_summary allocated {summary_allocs} times"
        );
        for h in handles {
            totals.merge(h.join().unwrap());
        }
    });
    // The sharded totals must equal the engine's own parallel scan.
    let th = Thresholds::paper_default();
    assert_eq!(avr::arch::summary::parallel_summary(mem, &blocks, th, 8, WORKERS), totals);
}
