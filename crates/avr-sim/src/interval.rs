//! Interval-based core model (Genbrugge, Eyerman & Eeckhout, HPCA'10 — the
//! abstraction the paper's own Pin-based simulator used).
//!
//! The model dispatches instructions at the issue width and charges memory
//! stalls per *miss interval* rather than per instruction:
//!
//! * short accesses (hits in the cache hierarchy, below the ROB-hideable
//!   window) cost only their dispatch slot;
//! * the leading long-latency miss of a burst charges its full latency
//!   minus the ROB-hideable window;
//! * trailing misses that issue under the shadow of an outstanding miss
//!   overlap (memory-level parallelism) up to the MSHR count;
//! * once all MSHRs are busy the core stalls until the oldest miss returns.
//!
//! The DRAM model returns *absolute* completion times that already reflect
//! bank/bus contention, so bandwidth-bound phases serialize naturally.

use std::collections::VecDeque;

/// One simulated core's timing state.
#[derive(Clone, Debug)]
pub struct IntervalCore {
    issue_width: u64,
    /// Reorder-buffer size (instruction window of a miss interval).
    rob_size: u64,
    /// Cycles of latency the ROB can hide under an isolated miss.
    hide_window: u64,
    mshrs: usize,
    /// Completion times of outstanding long-latency misses.
    outstanding: VecDeque<u64>,
    /// Retired-instruction count at the most recent long-latency miss.
    /// A new miss within `rob_size` instructions of it was in flight in
    /// the same ROB window and overlaps (Genbrugge's key observation);
    /// chains of such misses pipeline and become bandwidth-bound through
    /// MSHR pressure.
    last_long_miss_instr: Option<u64>,
    /// Dispatch-slot accumulator (instructions not yet converted to cycles).
    slot_backlog: u64,
    /// Current core cycle.
    pub cycles: u64,
    /// Retired instructions.
    pub instructions: u64,
    /// Cycles lost to memory stalls (diagnostics).
    pub stall_cycles: u64,
    /// Leading (fully charged) misses.
    pub leading_misses: u64,
    /// Trailing (overlapped) misses.
    pub trailing_misses: u64,
}

impl IntervalCore {
    pub fn new(issue_width: u64, rob_size: u64, mshrs: u64) -> Self {
        assert!(issue_width > 0 && mshrs > 0);
        IntervalCore {
            issue_width,
            rob_size,
            hide_window: rob_size / issue_width,
            mshrs: mshrs as usize,
            outstanding: VecDeque::new(),
            last_long_miss_instr: None,
            slot_backlog: 0,
            cycles: 0,
            instructions: 0,
            stall_cycles: 0,
            leading_misses: 0,
            trailing_misses: 0,
        }
    }

    /// The latency (cycles) below which an access is "short" — hidden by
    /// out-of-order execution.
    pub fn hide_window(&self) -> u64 {
        self.hide_window
    }

    /// Convert whole issue-width groups of backlog into cycles. A backlog
    /// below the width divides to nothing, so the common one-slot step of
    /// [`Self::issue_memory`] skips both divisions.
    fn drain_slots(&mut self) {
        if self.slot_backlog >= self.issue_width {
            self.cycles += self.slot_backlog / self.issue_width;
            self.slot_backlog %= self.issue_width;
        }
    }

    /// Account `n` non-memory instructions.
    pub fn compute(&mut self, n: u64) {
        self.instructions += n;
        self.slot_backlog += n;
        self.drain_slots();
    }

    /// A memory instruction is about to issue: returns the cycle at which
    /// the memory system sees it. Applies MSHR back-pressure (stalling the
    /// core until an MSHR frees up when all are busy).
    pub fn issue_memory(&mut self) -> u64 {
        self.instructions += 1;
        self.slot_backlog += 1;
        self.drain_slots();
        // Retire misses that completed before now.
        while self.outstanding.front().is_some_and(|&t| t <= self.cycles) {
            self.outstanding.pop_front();
        }
        if self.outstanding.len() >= self.mshrs {
            let oldest = self.outstanding.pop_front().expect("nonempty");
            if oldest > self.cycles {
                self.stall_cycles += oldest - self.cycles;
                self.cycles = oldest;
            }
            // More may have completed by the new time.
            while self.outstanding.front().is_some_and(|&t| t <= self.cycles) {
                self.outstanding.pop_front();
            }
        }
        self.cycles
    }

    /// Closed-form batch of `n` *short* memory accesses (all at `latency`
    /// cycles, within the OoO hide window): bit-identical evolution of
    /// `cycles`, `instructions`, `slot_backlog`, `stall_cycles` and the
    /// outstanding-miss set to `n` sequential
    /// [`Self::issue_memory`]/[`Self::complete_memory`] pairs.
    ///
    /// Why the closed form is exact:
    ///
    /// * a short access's `complete_memory` is a no-op (it returns inside
    ///   the hide window and never enqueues), so the outstanding set can
    ///   only *shrink* across the batch — MSHR back-pressure can therefore
    ///   fire at most once, at the batch's first issue, which runs through
    ///   the full single-access path below;
    /// * dispatch-slot draining is an integer carry
    ///   (`cycles += backlog / width; backlog %= width`), so folding the
    ///   remaining `n-1` slots in one step lands on the same
    ///   (`cycles`, `backlog`) as draining them one at a time;
    /// * retirement (`pop` completions `<= cycles`) is monotone in
    ///   `cycles`, so retiring once at the batch's final cycle pops
    ///   exactly the entries the per-access loop would have popped by
    ///   then.
    pub fn issue_complete_short_n(&mut self, n: u64, latency: u64) {
        assert!(
            latency <= self.hide_window,
            "issue_complete_short_n is for hidden accesses (latency {latency} > window {})",
            self.hide_window
        );
        if n == 0 {
            return;
        }
        // First access: full single-access semantics (the only issue in the
        // batch that can observe MSHR pressure). Its completion is hidden,
        // so `complete_memory` would change nothing.
        let _ = self.issue_memory();
        let rest = n - 1;
        if rest > 0 {
            self.instructions += rest;
            self.slot_backlog += rest;
            self.drain_slots();
            while self.outstanding.front().is_some_and(|&t| t <= self.cycles) {
                self.outstanding.pop_front();
            }
        }
    }

    /// Account a completed memory access issued at `issued` (from
    /// [`Self::issue_memory`]) that finishes at absolute cycle `completion`.
    pub fn complete_memory(&mut self, issued: u64, completion: u64) {
        let latency = completion.saturating_sub(issued);
        if latency <= self.hide_window {
            return; // fully hidden by the OoO window
        }
        // A miss is *trailing* (overlapped, charged only through MSHR
        // pressure and drain) when it issued within one ROB window of the
        // previous long miss — the two were in flight together. Chains of
        // such misses pipeline; their cost surfaces as MSHR stalls at the
        // DRAM service rate, which is exactly the steady state of a
        // bandwidth-bound stream.
        let trailing =
            self.last_long_miss_instr.is_some_and(|at| self.instructions - at <= self.rob_size)
                && self.outstanding.len() < self.mshrs;
        self.last_long_miss_instr = Some(self.instructions);
        if trailing {
            self.trailing_misses += 1;
        } else {
            // Leading miss of an interval: charge latency beyond the
            // hideable window.
            let penalty = latency - self.hide_window;
            self.cycles += penalty;
            self.stall_cycles += penalty;
            self.leading_misses += 1;
        }
        self.outstanding.push_back(completion);
        // Keep completion order sorted: DRAM can reorder across banks.
        if self.outstanding.len() >= 2 {
            let last = *self.outstanding.back().unwrap();
            if last < self.outstanding[self.outstanding.len() - 2] {
                self.outstanding.make_contiguous().sort_unstable();
            }
        }
    }

    /// Let the pipeline drain (end of simulation): advance to the last
    /// outstanding completion.
    pub fn drain(&mut self) {
        if let Some(&last) = self.outstanding.back() {
            if last > self.cycles {
                self.stall_cycles += last - self.cycles;
                self.cycles = last;
            }
        }
        self.outstanding.clear();
    }

    /// Instructions per cycle so far.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> IntervalCore {
        IntervalCore::new(4, 128, 8)
    }

    #[test]
    fn compute_only_hits_issue_width() {
        let mut c = core();
        c.compute(4000);
        assert_eq!(c.cycles, 1000);
        assert!((c.ipc() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn slot_backlog_accumulates_fractions() {
        let mut c = core();
        for _ in 0..7 {
            c.compute(1);
        }
        assert_eq!(c.cycles, 1, "7 instructions at width 4 -> 1 full cycle");
        c.compute(1);
        assert_eq!(c.cycles, 2);
    }

    #[test]
    fn short_access_costs_only_dispatch() {
        let mut c = core();
        let t = c.issue_memory();
        c.complete_memory(t, t + 15); // LLC hit, under the 32-cycle window
        assert_eq!(c.stall_cycles, 0);
    }

    #[test]
    fn isolated_miss_charges_latency_minus_window() {
        let mut c = core();
        c.compute(400); // cycles = 100
        let t = c.issue_memory();
        c.complete_memory(t, t + 200);
        assert_eq!(c.stall_cycles, 200 - 32);
        assert_eq!(c.cycles, 100 + (200 - 32));
    }

    #[test]
    fn overlapped_misses_charge_once() {
        let mut c = core();
        let t0 = c.issue_memory();
        c.complete_memory(t0, t0 + 200);
        let after_first = c.cycles;
        // Second miss issues under the first miss's shadow (outstanding
        // nonempty): no extra leading-miss penalty.
        let t1 = c.issue_memory();
        c.complete_memory(t1, t1 + 180);
        assert_eq!(c.cycles, after_first, "trailing miss is free");
    }

    #[test]
    fn mshr_pressure_serializes() {
        let mut c = core();
        // Fill all 8 MSHRs with misses completing far in the future.
        let mut completions = Vec::new();
        for i in 0..8 {
            let t = c.issue_memory();
            let done = t + 500 + i * 10;
            c.complete_memory(t, done);
            completions.push(done);
        }
        let before = c.cycles;
        // The 9th memory op must wait for the oldest completion.
        let t9 = c.issue_memory();
        assert!(t9 >= completions[0], "stalled to oldest completion");
        assert!(c.cycles > before);
    }

    #[test]
    fn drain_advances_to_last_completion() {
        let mut c = core();
        let t = c.issue_memory();
        c.complete_memory(t, t + 40); // over window -> outstanding
        let t2 = c.issue_memory();
        c.complete_memory(t2, t2 + 1000);
        c.drain();
        assert!(c.cycles >= t2 + 1000 - 33);
    }

    /// Full-state equality for the closed-form batch: every field that can
    /// influence any future decision, including the outstanding queue and
    /// the sub-cycle slot backlog.
    fn assert_same_state(a: &IntervalCore, b: &IntervalCore, ctx: &str) {
        assert_eq!(a.cycles, b.cycles, "{ctx}: cycles");
        assert_eq!(a.instructions, b.instructions, "{ctx}: instructions");
        assert_eq!(a.slot_backlog, b.slot_backlog, "{ctx}: slot_backlog");
        assert_eq!(a.stall_cycles, b.stall_cycles, "{ctx}: stall_cycles");
        assert_eq!(a.leading_misses, b.leading_misses, "{ctx}: leading misses");
        assert_eq!(a.trailing_misses, b.trailing_misses, "{ctx}: trailing misses");
        assert_eq!(a.last_long_miss_instr, b.last_long_miss_instr, "{ctx}: last long miss");
        assert_eq!(a.outstanding, b.outstanding, "{ctx}: outstanding set");
    }

    #[test]
    fn batched_short_accesses_match_sequential_exactly() {
        // Sweep batch sizes, backlog phases and latencies; both cores see
        // the identical instruction stream.
        for lat in [1u64, 4, 31] {
            for phase in 0..4u64 {
                for n in [1u64, 2, 3, 15, 16, 17, 100] {
                    let mut seq = core();
                    let mut bat = core();
                    seq.compute(phase);
                    bat.compute(phase);
                    for _ in 0..n {
                        let t = seq.issue_memory();
                        seq.complete_memory(t, t + lat);
                    }
                    bat.issue_complete_short_n(n, lat);
                    assert_same_state(&seq, &bat, &format!("lat={lat} phase={phase} n={n}"));
                }
            }
        }
    }

    #[test]
    fn batched_short_accesses_match_under_outstanding_misses() {
        // Queue a long miss (and a full-MSHR variant) before the batch so
        // the batch's first issue must handle retirement and back-pressure
        // exactly like the loop.
        for pending in [1usize, 8] {
            let mut seq = core();
            let mut bat = core();
            for c in [&mut seq, &mut bat] {
                for i in 0..pending {
                    let t = c.issue_memory();
                    c.complete_memory(t, t + 400 + 10 * i as u64);
                }
            }
            for _ in 0..50 {
                let t = seq.issue_memory();
                seq.complete_memory(t, t + 1);
            }
            bat.issue_complete_short_n(50, 1);
            assert_same_state(&seq, &bat, &format!("pending={pending}"));
            // And the next long miss after the batch behaves identically.
            let ts = seq.issue_memory();
            seq.complete_memory(ts, ts + 300);
            let tb = bat.issue_memory();
            bat.complete_memory(tb, tb + 300);
            assert_same_state(&seq, &bat, &format!("pending={pending}, post-miss"));
        }
    }

    #[test]
    #[should_panic(expected = "hidden accesses")]
    fn batched_short_accesses_reject_long_latency() {
        let mut c = core();
        c.issue_complete_short_n(4, 33); // hide window is 32
    }

    #[test]
    fn lower_latency_memory_means_fewer_cycles() {
        // The property Figure 9 rests on: same instruction stream, lower
        // memory latency -> fewer total cycles.
        let run = |lat: u64| {
            let mut c = core();
            for _ in 0..100 {
                c.compute(50);
                let t = c.issue_memory();
                c.complete_memory(t, t + lat);
            }
            c.drain();
            c.cycles
        };
        assert!(run(60) < run(200));
        assert!(run(200) < run(400));
    }
}
