//! `SimPool` — the parallel end-to-end simulation engine.
//!
//! Every figure and table in the paper is a sweep over independent
//! (workload × configuration) simulations, and the data-partitioning /
//! granularity-gap literature (arXiv:2004.01637, arXiv:2101.10605) shows
//! that approximate-memory conclusions need *many* such configurations.
//! `SimPool` shards those independent runs across OS threads:
//!
//! * **Deterministic**: each job sees only its [`JobCtx`] index, and
//!   results come back in job order regardless of thread count or
//!   scheduling policy. A pool of N threads is bit-identical to the
//!   single-threaded path (`tests/determinism.rs` asserts this for every
//!   workload; `tests/scaling.rs` asserts it for every scheduling policy).
//! * **Dependency-free**: plain `std::thread::scope` workers pulling job
//!   indices from a shared atomic — no external thread-pool crate (the
//!   build environment is offline).
//! * **Composable**: the same engine drives the (workload × design) grid
//!   (`avr_workloads::run_grid`), the figure sweeps (`avr_bench::Sweep`),
//!   `bench_e2e` and the sweep server.
//!
//! # Scheduling policy
//!
//! Workers claim one job at a time from a shared cursor; what a claim
//! *means* depends on the entry point:
//!
//! * [`SimPool::run_jobs`] — jobs are claimed in index order, so uneven
//!   job costs load-balance.
//! * [`SimPool::run_jobs_weighted`] — the caller supplies a per-job cost
//!   estimate and jobs are claimed **heaviest-first** (LPT order). For
//!   heavily skewed batches — the nine-workload sweep spans ~45× between
//!   `fft` and the lightest workloads — this keeps the long pole from
//!   being claimed last, which would otherwise bound speedup by
//!   `t_longest + t_rest/N` with the longest job serialized at the *end*
//!   of the schedule. Only the claiming order changes: results are still
//!   returned (and bit-identical) in job order, for any weight function
//!   and any width.
//!
//! # Why the engine is structured this way
//!
//! The PR-2 engine collected `(index, result)` pairs into a mutex-guarded
//! vec and sorted at the end, and its job cursor shared a cache line with
//! whatever the allocator placed next to it. The committed BENCH_PR5/PR6
//! trajectories showed the pooled Table 4 sweep at 0.94–0.97× vs.
//! single-thread — partly a 1-hardware-thread recording host (now recorded
//! as `available_parallelism` provenance in the trajectory JSON), partly
//! real structural overhead. The current engine:
//!
//! * pads the job cursor to its own cache lines (`PaddedCursor`) so
//!   claim traffic never false-shares;
//! * writes each result into a **preallocated slot** owned by its job
//!   index (`ResultSlots`) — no result mutex, no tag, no final sort.

// The result slots are written through `UnsafeCell` without a lock.
#![allow(unsafe_code)]

use avr_types::knobs::knobs;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Per-job context handed to every pool closure.
#[derive(Clone, Copy, Debug)]
pub struct JobCtx {
    /// This job's index in the batch (also its result slot).
    pub index: usize,
    /// Which pool worker (`0..threads`) is executing this job. Purely
    /// informational — which worker claims which job is a scheduling
    /// accident, and nothing deterministic may depend on it — but it lets
    /// a long-running caller (the sweep server) account per-worker
    /// utilization. The inline single-thread fast path reports worker 0.
    pub worker: usize,
}

/// Shared cancellation + progress state for a pool batch — the hooks a
/// long-running front end (the sweep server) needs around
/// [`SimPool::run_jobs_weighted_ctl`].
///
/// * **Cancellation** is cooperative and job-granular: once
///   [`PoolControl::cancel`] is observed, workers stop *starting* jobs
///   (in-flight jobs run to completion so every produced result is a
///   complete, deterministic simulation — never a torn one).
/// * **Progress** is two monotone counters: jobs started and jobs
///   finished. `started - finished` is the batch's in-flight depth, which
///   a status endpoint can report while the batch runs.
///
/// A `PoolControl` observes one batch; create a fresh one per batch.
#[derive(Debug, Default)]
pub struct PoolControl {
    cancelled: AtomicBool,
    started: AtomicUsize,
    finished: AtomicUsize,
}

impl PoolControl {
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation: no further jobs start; jobs already running
    /// complete normally.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Jobs the batch has started executing so far.
    pub fn started(&self) -> usize {
        self.started.load(Ordering::Relaxed)
    }

    /// Jobs the batch has finished executing so far.
    pub fn finished(&self) -> usize {
        self.finished.load(Ordering::Relaxed)
    }

    /// Jobs currently executing (`started - finished`).
    pub fn in_flight(&self) -> usize {
        self.started().saturating_sub(self.finished())
    }
}

/// A shared claim cursor padded to its own cache lines, so the hot
/// `fetch_add` traffic can never false-share with neighboring state (the
/// result slots, a worker's stack spill, whatever the allocator packs
/// next to it). 128-byte alignment covers the adjacent-line prefetcher
/// pairing lines on modern x86 parts.
#[repr(align(128))]
struct PaddedCursor(AtomicUsize);

impl PaddedCursor {
    fn new() -> Self {
        PaddedCursor(AtomicUsize::new(0))
    }
}

/// Preallocated per-job result storage: each job index owns exactly one
/// slot, written once by whichever worker ran the job and read once after
/// the scope joins. Replaces the PR-2 engine's mutex-guarded
/// `Vec<(index, T)>` + final sort — no lock on the result path, no
/// allocation per result, and job order is structural instead of
/// re-established by sorting.
struct ResultSlots<T> {
    slots: Vec<UnsafeCell<MaybeUninit<T>>>,
    /// Completed-slot count; the completeness check in [`Self::into_vec`].
    filled: AtomicUsize,
}

/// SAFETY: workers write disjoint slots (each job index is claimed by
/// exactly one worker — see the claiming loop) and the main thread reads
/// only after `thread::scope` joins every worker, which provides the
/// happens-before edge for the unsynchronized cell contents.
unsafe impl<T: Send> Sync for ResultSlots<T> {}

impl<T> ResultSlots<T> {
    fn new(total: usize) -> Self {
        let mut slots = Vec::with_capacity(total);
        slots.resize_with(total, || UnsafeCell::new(MaybeUninit::uninit()));
        ResultSlots { slots, filled: AtomicUsize::new(0) }
    }

    /// Store job `i`'s result.
    ///
    /// SAFETY: each index must be written at most once across all workers
    /// (the claim protocol guarantees exactly once). If a job panics, the
    /// scope unwinds before `into_vec`; already-written non-`Copy` results
    /// are leaked rather than dropped — acceptable for a harness whose
    /// jobs only panic on assertion failures.
    unsafe fn put(&self, i: usize, value: T) {
        unsafe { (*self.slots[i].get()).write(value) };
        // Relaxed: the scope join, not this counter, orders the reads.
        self.filled.fetch_add(1, Ordering::Relaxed);
    }

    /// Take all results in job order. Panics if any slot was left empty
    /// (a claim-protocol bug — better loud than uninitialized reads).
    fn into_vec(self) -> Vec<T> {
        assert_eq!(
            self.filled.load(Ordering::Relaxed),
            self.slots.len(),
            "SimPool claim protocol left result slots unfilled"
        );
        // SAFETY: every slot was written exactly once (checked above).
        self.slots.into_iter().map(|c| unsafe { c.into_inner().assume_init() }).collect()
    }
}

/// A fixed-width pool of simulation workers.
#[derive(Clone, Copy, Debug)]
pub struct SimPool {
    threads: usize,
}

impl Default for SimPool {
    fn default() -> Self {
        SimPool::from_env()
    }
}

impl SimPool {
    /// A pool of exactly `threads` workers (≥ 1).
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "a pool needs at least one worker");
        SimPool { threads }
    }

    /// The default-width pool: the `AVR_THREADS` knob
    /// (`avr_types::knobs`), which defaults to the host's parallelism.
    pub fn from_env() -> Self {
        SimPool::new(knobs().threads)
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Run `total` independent jobs and return their results **in job
    /// order**. Jobs are claimed dynamically in index order, so uneven job
    /// costs load-balance, but the output order — and, because jobs are
    /// independent and deterministic, every result bit — is identical for
    /// any pool width.
    pub fn run_jobs<T, F>(&self, total: usize, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(JobCtx) -> T + Sync,
    {
        self.run_scheduled(total, None, job)
    }

    /// Run `total` independent jobs with **size-aware scheduling**:
    /// `weight(index)` estimates each job's relative cost (arbitrary
    /// units; only the ordering matters), and workers claim jobs
    /// heaviest-first so the longest poles start immediately instead of
    /// possibly last. Ties keep job-index order (the sort is stable), the
    /// schedule is a pure function of the weights, and results are
    /// returned in **job order, bit-identical** to [`SimPool::run_jobs`]
    /// at any width (`tests/scaling.rs` pins this).
    pub fn run_jobs_weighted<T, F, W>(&self, total: usize, weight: W, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(JobCtx) -> T + Sync,
        W: Fn(usize) -> u64,
    {
        if self.threads == 1 || total <= 1 {
            // The schedule cannot change anything single-threaded; skip
            // building it.
            return self.run_scheduled(total, None, job);
        }
        assert!(u32::try_from(total).is_ok(), "batch too large for the u32 schedule");
        let mut order: Vec<u32> = (0..total as u32).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(weight(i as usize)));
        self.run_scheduled(total, Some(order), job)
    }

    /// [`SimPool::run_jobs_weighted`] with **cancellation and progress
    /// hooks**: the sweep-server entry point. Jobs observe `ctl` — once
    /// [`PoolControl::cancel`] fires, workers stop starting jobs and every
    /// not-yet-started job's slot comes back `None`; jobs that did run
    /// return `Some(result)`, bit-identical to what the uncancelled batch
    /// would have produced (each job is an independent deterministic
    /// simulation, so skipping neighbors cannot perturb it). `ctl`'s
    /// started/finished counters advance as jobs execute, giving a
    /// concurrent reader queue-depth/in-flight progress mid-batch.
    ///
    /// Which jobs completed before a cancellation is scheduling-dependent
    /// by nature; everything else — result values, slot order — is not.
    pub fn run_jobs_weighted_ctl<T, F, W>(
        &self,
        total: usize,
        weight: W,
        job: F,
        ctl: &PoolControl,
    ) -> Vec<Option<T>>
    where
        T: Send,
        F: Fn(JobCtx) -> T + Sync,
        W: Fn(usize) -> u64,
    {
        // Wrapping keeps the claim/slot machinery untouched: a cancelled
        // job is an ordinary job whose body is a cheap `None` write.
        let observed = |ctx: JobCtx| {
            if ctl.is_cancelled() {
                return None;
            }
            ctl.started.fetch_add(1, Ordering::Relaxed);
            let out = job(ctx);
            ctl.finished.fetch_add(1, Ordering::Relaxed);
            Some(out)
        };
        self.run_jobs_weighted(total, weight, observed)
    }

    /// The shared engine behind every entry point: claim positions one at
    /// a time from a padded cursor, map them through the optional
    /// heaviest-first schedule, write each result into its job's
    /// preallocated slot.
    fn run_scheduled<T, F>(&self, total: usize, schedule: Option<Vec<u32>>, job: F) -> Vec<T>
    where
        T: Send,
        F: Fn(JobCtx) -> T + Sync,
    {
        if self.threads == 1 || total <= 1 {
            // Inline fast path: no spawn overhead, trivially deterministic.
            return (0..total).map(|index| job(JobCtx { index, worker: 0 })).collect();
        }
        let cursor = PaddedCursor::new();
        let slots = ResultSlots::new(total);
        std::thread::scope(|scope| {
            for worker in 0..self.threads.min(total) {
                // Shared engine state by reference; only the worker id
                // moves into the closure.
                let (cursor, slots, schedule, job) = (&cursor, &slots, &schedule, &job);
                scope.spawn(move || loop {
                    let pos = cursor.0.fetch_add(1, Ordering::Relaxed);
                    if pos >= total {
                        break;
                    }
                    let index = schedule.as_ref().map_or(pos, |o| o[pos] as usize);
                    // SAFETY: `pos` values are claimed exactly once
                    // (monotone fetch_add) and `schedule` is a permutation,
                    // so each slot `index` is written exactly once.
                    unsafe { slots.put(index, job(JobCtx { index, worker })) };
                });
            }
        });
        slots.into_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        for threads in [1, 2, 7] {
            let pool = SimPool::new(threads);
            let out = pool.run_jobs(100, |ctx| ctx.index * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>(), "{threads} threads");
        }
    }

    #[test]
    fn chunked_claiming_covers_large_batches_exactly_once() {
        // 10_000 one-job claims across 8 workers: every job runs exactly
        // once and lands in its own slot.
        let pool = SimPool::new(8);
        let out = pool.run_jobs(10_000, |ctx| ctx.index as u64 + 1);
        assert_eq!(out.len(), 10_000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 + 1);
        }
    }

    #[test]
    fn weighted_results_match_unweighted_bit_for_bit() {
        let pool = SimPool::new(4);
        let plain = pool.run_jobs(97, |ctx| ctx.index);
        // Adversarial weights: reverse-cost (lightest job first in index
        // order), constant ties, and a skewed mix.
        for weight in [
            (|i| 97 - i as u64) as fn(usize) -> u64,
            |_| 7,
            |i| if i % 9 == 0 { 1_000_000 } else { i as u64 },
        ] {
            let weighted = pool.run_jobs_weighted(97, weight, |ctx| ctx.index);
            assert_eq!(weighted, plain, "schedule changed results");
        }
    }

    #[test]
    fn wide_pool_on_few_jobs_is_fine() {
        let pool = SimPool::new(16);
        assert_eq!(pool.run_jobs(2, |ctx| ctx.index), vec![0, 1]);
        assert_eq!(pool.run_jobs(0, |ctx| ctx.index), Vec::<usize>::new());
        assert_eq!(pool.run_jobs_weighted(0, |_| 1, |ctx| ctx.index), Vec::<usize>::new());
    }

    #[test]
    fn non_copy_results_round_trip() {
        // ResultSlots handles owned values (the real jobs return
        // RunMetrics with heap payloads).
        let pool = SimPool::new(3);
        let out = pool.run_jobs_weighted(20, |i| i as u64, |ctx| vec![ctx.index; ctx.index % 4]);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.len(), i % 4);
            assert!(v.iter().all(|&x| x == i));
        }
    }

    #[test]
    fn ctl_batch_without_cancellation_matches_weighted_run() {
        for threads in [1, 4] {
            let pool = SimPool::new(threads);
            let plain = pool.run_jobs_weighted(33, |i| i as u64, |ctx| ctx.index);
            let ctl = PoolControl::new();
            let observed = pool.run_jobs_weighted_ctl(33, |i| i as u64, |ctx| ctx.index, &ctl);
            let unwrapped: Vec<_> = observed.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(unwrapped, plain, "{threads} threads");
            assert_eq!(ctl.started(), 33);
            assert_eq!(ctl.finished(), 33);
            assert_eq!(ctl.in_flight(), 0);
            assert!(!ctl.is_cancelled());
        }
    }

    #[test]
    fn cancellation_skips_unstarted_jobs_and_keeps_finished_results() {
        for threads in [1, 3] {
            let pool = SimPool::new(threads);
            let ctl = PoolControl::new();
            let out = pool.run_jobs_weighted_ctl(
                50,
                |_| 1,
                |ctx| {
                    // Cancel mid-batch from inside a job: everything that
                    // starts afterward must come back None.
                    if ctl.finished() >= 5 {
                        ctl.cancel();
                    }
                    ctx.index * 2
                },
                &ctl,
            );
            assert_eq!(out.len(), 50);
            let done = out.iter().flatten().count();
            assert!(done < 50, "{threads} threads: cancellation had no effect");
            assert_eq!(done, ctl.finished(), "finished counter tracks produced results");
            for (i, r) in out.iter().enumerate() {
                if let Some(v) = r {
                    assert_eq!(*v, i * 2, "completed results stay correct");
                }
            }
        }
    }

    #[test]
    fn cancel_before_start_runs_nothing() {
        let pool = SimPool::new(4);
        let ctl = PoolControl::new();
        ctl.cancel();
        let out = pool.run_jobs_weighted_ctl(10, |_| 1, |ctx| ctx.index, &ctl);
        assert!(out.iter().all(|r| r.is_none()));
        assert_eq!(ctl.started(), 0);
    }

    #[test]
    fn worker_ids_are_in_range() {
        for threads in [1, 5] {
            let pool = SimPool::new(threads);
            let workers = pool.run_jobs(64, |ctx| ctx.worker);
            assert!(workers.iter().all(|&w| w < threads), "{threads} threads");
        }
        // The inline path always reports worker 0.
        assert_eq!(SimPool::new(1).run_jobs(3, |ctx| ctx.worker), vec![0, 0, 0]);
    }

    #[test]
    fn from_env_is_the_threads_knob() {
        assert_eq!(SimPool::from_env().threads(), knobs().threads);
    }
}
