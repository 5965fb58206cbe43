//! Cycle-approximate DDR4 main-memory model — the DRAMSim2 substitute.
//!
//! Models what AVR interacts with: per-bank row buffers (hit vs. miss
//! latency), bank-level parallelism, per-channel data-bus occupancy, and
//! periodic refresh. Requests are timed against component availability
//! rather than a full command scheduler; with the simulator issuing requests
//! in program order this is equivalent to FR-FCFS for the traffic shapes the
//! workloads generate, and it is deterministic.
//!
//! All external times are **CPU cycles**; internally the model runs on the
//! memory clock (`cpu_cycles_per_mem_clk` converts).
//!
//! [`Dram`] is the one timing engine every device runs on; [`device_for`]
//! builds it with the device's refresh interval, next to the device's
//! [`FaultModel`] (exact DRAM, refresh-relaxed DRAM, approximate MRAM; see
//! [`backend`]).

pub mod backend;
mod mapping;
mod stats;

pub use backend::{device_for, FaultCtx, FaultModel};
use mapping::AddressMapping;
pub use stats::DramStats;

use avr_types::{DramParams, LineAddr, CL_BYTES};

/// Kind of DRAM access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    Read,
    Write,
}

/// Completion info for one cacheline transfer.
#[derive(Clone, Copy, Debug)]
pub struct DramResponse {
    /// CPU cycle at which the data transfer completes.
    pub complete_at: u64,
    /// Whether the access hit an open row.
    pub row_hit: bool,
}

#[derive(Clone, Copy, Debug, Default)]
struct Bank {
    open_row: Option<u64>,
    /// Memory-clock cycle at which the bank can accept the next command.
    ready_at: u64,
    /// When the current row was activated (tRAS enforcement).
    activated_at: u64,
}

#[derive(Clone, Debug)]
struct Channel {
    banks: Vec<Bank>,
    /// Memory-clock cycle at which the shared data bus frees up.
    bus_free_at: u64,
    /// Next refresh deadline (memory clocks).
    next_refresh: u64,
}

/// The DDR4 memory system.
#[derive(Clone, Debug)]
pub struct Dram {
    params: DramParams,
    mapping: AddressMapping,
    channels: Vec<Channel>,
    pub stats: DramStats,
}

impl Dram {
    pub fn new(params: DramParams) -> Self {
        let mapping = AddressMapping::new(&params);
        let channels = (0..params.channels)
            .map(|_| Channel {
                banks: vec![Bank::default(); params.banks_per_channel],
                bus_free_at: 0,
                next_refresh: params.trefi,
            })
            .collect();
        Dram { params, mapping, channels, stats: DramStats::default() }
    }

    #[inline]
    fn to_mem_clk(&self, cpu_cycle: u64) -> u64 {
        cpu_cycle.div_ceil(self.params.cpu_cycles_per_mem_clk)
    }

    #[inline]
    fn to_cpu_cycle(&self, mem_clk: u64) -> u64 {
        mem_clk * self.params.cpu_cycles_per_mem_clk
    }

    /// Access one cacheline at CPU cycle `now`.
    pub fn access(&mut self, line: LineAddr, kind: AccessKind, now: u64) -> DramResponse {
        self.access_bytes(line, kind, now, CL_BYTES)
    }

    /// Access a partial cacheline (`bytes` ≤ 64) — the Truncate design
    /// moves 32 B per approximate line. Burst occupancy scales with the
    /// transfer size (16 B per memory clock on a 64-bit DDR bus).
    pub fn access_bytes(
        &mut self,
        line: LineAddr,
        kind: AccessKind,
        now: u64,
        bytes: usize,
    ) -> DramResponse {
        assert!(bytes > 0 && bytes <= CL_BYTES);
        // Writes model the controller's write buffer + FR-FCFS write
        // draining: they consume data-bus bandwidth (and are counted for
        // traffic/energy) but do not occupy a bank or close its row —
        // otherwise interleaved read/writeback streams would thrash rows
        // in ways a real reordering controller avoids.
        if kind == AccessKind::Write {
            let now_m = self.to_mem_clk(now);
            let burst = (self.params.burst * bytes as u64).div_ceil(CL_BYTES as u64).max(1);
            let ch = &mut self.channels[self.mapping.locate(line).channel];
            let data_start = now_m.max(ch.bus_free_at);
            let data_end = data_start + burst;
            ch.bus_free_at = data_end;
            self.stats.writes += 1;
            self.stats.bytes_written += bytes as u64;
            let complete_at = self.to_cpu_cycle(data_end);
            self.stats.last_complete = self.stats.last_complete.max(complete_at);
            return DramResponse { complete_at, row_hit: true };
        }
        let p = self.params;
        let loc = self.mapping.locate(line);
        let now_m = self.to_mem_clk(now);

        // Refresh: per-channel all-bank refresh windows.
        let ch = &mut self.channels[loc.channel];
        if p.trefi > 0 {
            while now_m >= ch.next_refresh {
                let start = ch.next_refresh;
                for b in ch.banks.iter_mut() {
                    b.ready_at = b.ready_at.max(start + p.trfc);
                    b.open_row = None; // refresh closes rows
                }
                ch.next_refresh += p.trefi;
                self.stats.refreshes += 1;
            }
        }

        let bank = &mut ch.banks[loc.bank];
        let cmd_at = now_m.max(bank.ready_at);
        let (cas_at, row_hit) = match bank.open_row {
            Some(r) if r == loc.row => (cmd_at, true),
            Some(_) => {
                // Precharge (respecting tRAS) then activate then CAS.
                let pre_at = cmd_at.max(bank.activated_at + p.tras);
                let act_at = pre_at + p.trp;
                bank.activated_at = act_at;
                bank.open_row = Some(loc.row);
                self.stats.activates += 1;
                (act_at + p.trcd, false)
            }
            None => {
                bank.activated_at = cmd_at;
                bank.open_row = Some(loc.row);
                self.stats.activates += 1;
                (cmd_at + p.trcd, false)
            }
        };
        // Data burst occupies the channel bus after CAS latency; partial
        // transfers occupy proportionally fewer clocks.
        let burst = (p.burst * bytes as u64).div_ceil(CL_BYTES as u64).max(1);
        let data_start = (cas_at + p.cl).max(ch.bus_free_at);
        let data_end = data_start + burst;
        ch.bus_free_at = data_end;
        bank.ready_at = cas_at + burst; // next column command to this bank

        self.stats.reads += 1;
        self.stats.bytes_read += bytes as u64;
        if row_hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        let complete_at = self.to_cpu_cycle(data_end);
        self.stats.last_complete = self.stats.last_complete.max(complete_at);
        DramResponse { complete_at, row_hit }
    }

    /// Access `n` consecutive cachelines starting at `first` (a compressed
    /// block fetch / writeback). Returns the completion of the last line.
    pub fn access_burst(
        &mut self,
        first: LineAddr,
        n: usize,
        kind: AccessKind,
        now: u64,
    ) -> DramResponse {
        assert!(n > 0, "burst must transfer at least one line");
        let mut resp = self.access(first, kind, now);
        for i in 1..n {
            let r = self.access(LineAddr(first.0 + i as u64), kind, now);
            resp = DramResponse {
                complete_at: resp.complete_at.max(r.complete_at),
                row_hit: resp.row_hit && r.row_hit,
            };
        }
        resp
    }

    /// Minimum possible read latency in CPU cycles (row hit, idle bus).
    pub fn best_case_latency(&self) -> u64 {
        self.to_cpu_cycle(self.params.cl + self.params.burst)
    }

    /// Row-miss latency in CPU cycles (closed bank).
    pub fn row_miss_latency(&self) -> u64 {
        self.to_cpu_cycle(self.params.trcd + self.params.cl + self.params.burst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        // Most tests don't want refresh noise.
        Dram::new(DramParams { trefi: 0, ..Default::default() })
    }

    #[test]
    fn first_access_is_row_miss() {
        let mut d = dram();
        let r = d.access(LineAddr(0), AccessKind::Read, 0);
        assert!(!r.row_hit);
        assert_eq!(r.complete_at, d.row_miss_latency());
    }

    #[test]
    fn second_access_same_row_hits() {
        let mut d = dram();
        let r0 = d.access(LineAddr(0), AccessKind::Read, 0);
        // Lines 0 and 2 share a channel under line-interleaving (ch = bit 0).
        let r1 = d.access(LineAddr(2), AccessKind::Read, r0.complete_at);
        assert!(r1.row_hit);
        assert!(r1.complete_at - r0.complete_at <= d.best_case_latency());
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut d = dram();
        let m = d.mapping.clone();
        let a = LineAddr(0);
        let la = m.locate(a);
        // Find a line mapping to the same channel+bank but a different row.
        let conflict = (1..1_000_000u64)
            .map(LineAddr)
            .find(|l| {
                let loc = m.locate(*l);
                loc.channel == la.channel && loc.bank == la.bank && loc.row != la.row
            })
            .expect("a conflicting line exists");
        let r0 = d.access(a, AccessKind::Read, 0);
        let t1 = r0.complete_at + 1000; // let tRAS elapse
        let r1 = d.access(conflict, AccessKind::Read, t1);
        assert!(!r1.row_hit);
        assert!(r1.complete_at - t1 >= d.row_miss_latency());
    }

    #[test]
    fn channel_interleave_overlaps() {
        let mut d = dram();
        let r0 = d.access(LineAddr(0), AccessKind::Read, 0);
        let r1 = d.access(LineAddr(1), AccessKind::Read, 0);
        let serial = 2 * d.row_miss_latency();
        assert!(r0.complete_at.max(r1.complete_at) < serial);
    }

    #[test]
    fn same_channel_transfers_serialize_on_bus() {
        let mut d = dram();
        let r0 = d.access(LineAddr(0), AccessKind::Read, 0);
        let r1 = d.access(LineAddr(2), AccessKind::Read, 0);
        let gap = r1.complete_at.abs_diff(r0.complete_at);
        assert!(gap >= d.params.burst * d.params.cpu_cycles_per_mem_clk);
    }

    #[test]
    fn burst_of_block_is_cheaper_than_row_scattered() {
        let mut d = dram();
        let burst = d.access_burst(LineAddr(0), 16, AccessKind::Read, 0);
        let mut d2 = dram();
        let mut t = 0u64;
        for i in 0..16u64 {
            // Scatter across rows of one bank: every access conflicts.
            let l = LineAddr(i << 20);
            let r = d2.access(l, AccessKind::Read, t);
            t = r.complete_at;
        }
        assert!(burst.complete_at < t, "burst {} vs scattered {}", burst.complete_at, t);
    }

    #[test]
    fn stats_count_bytes() {
        let mut d = dram();
        d.access(LineAddr(0), AccessKind::Read, 0);
        d.access(LineAddr(1), AccessKind::Write, 0);
        d.access_burst(LineAddr(16), 4, AccessKind::Read, 0);
        assert_eq!(d.stats.reads, 5);
        assert_eq!(d.stats.writes, 1);
        assert_eq!(d.stats.bytes_read, 5 * 64);
        assert_eq!(d.stats.bytes_written, 64);
    }

    #[test]
    fn refresh_delays_accesses() {
        let p = DramParams { trefi: 100, trfc: 50, ..Default::default() };
        let mut d = Dram::new(p);
        let now = 100 * p.cpu_cycles_per_mem_clk;
        let r = d.access(LineAddr(0), AccessKind::Read, now);
        assert!(r.complete_at >= now + 50 * p.cpu_cycles_per_mem_clk);
        assert!(d.stats.refreshes >= 1);
    }

    #[test]
    fn completion_is_monotone_with_issue_time() {
        let mut d1 = dram();
        let mut d2 = dram();
        let early = d1.access(LineAddr(7), AccessKind::Read, 100);
        let late = d2.access(LineAddr(7), AccessKind::Read, 5000);
        assert!(late.complete_at >= early.complete_at);
        assert!(late.complete_at >= 5000);
    }

    #[test]
    fn writes_are_buffered_but_consume_bus_bandwidth() {
        let mut d = dram();
        // A write completes in one burst slot (the controller's write
        // buffer absorbs it)...
        let w = d.access(LineAddr(3), AccessKind::Write, 0);
        assert!(w.complete_at <= d.params.burst * d.params.cpu_cycles_per_mem_clk);
        // ...but it still occupies the data bus: a read right behind it
        // finishes later than it would on an idle channel.
        let r = d.access(LineAddr(1), AccessKind::Read, 0); // other channel: unaffected
        assert_eq!(r.complete_at, d.row_miss_latency());
        let r_same = d.access(LineAddr(3), AccessKind::Read, 0); // same channel as the write
        assert!(r_same.complete_at >= d.row_miss_latency());
    }

    #[test]
    fn writes_do_not_disturb_open_rows() {
        let mut d = dram();
        let r0 = d.access(LineAddr(0), AccessKind::Read, 0);
        // A write to a conflicting row of the same bank would close the row
        // in a naive model; the write buffer keeps it open.
        d.access(LineAddr(1 << 20), AccessKind::Write, r0.complete_at);
        let r1 = d.access(LineAddr(2), AccessKind::Read, r0.complete_at + 200);
        assert!(r1.row_hit, "row must still be open after the buffered write");
    }

    #[test]
    fn row_hit_rate_for_streaming_is_high() {
        let mut d = dram();
        let mut t = 0;
        for i in 0..512u64 {
            t = d.access(LineAddr(i), AccessKind::Read, t).complete_at;
        }
        let hit_rate = d.stats.row_hits as f64 / (d.stats.row_hits + d.stats.row_misses) as f64;
        assert!(hit_rate > 0.85, "streaming row-hit rate {hit_rate}");
    }
}
