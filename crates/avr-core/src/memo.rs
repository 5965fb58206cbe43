//! The HPAC-style memoization design family (Tziantzioulis et al., IEEE
//! Micro 2018), recast as memory-system designs over a conventional LLC:
//!
//! * [`MemoInPolicy`] (`memoin`) — *input memoization*: a small
//!   content-fingerprint table in the memory controller. On each
//!   approximable writeback the line's content is probed against the
//!   table's canonical entries under a per-value relative-error threshold
//!   (playing the role of AVR's T1); a match stores only an 8 B table
//!   reference instead of the 64 B line, and later fetches of the line are
//!   served from the canonical entry without a DRAM data transfer.
//!   Non-matching lines commit exactly and (FCFS, table never evicts)
//!   seed new canonical entries.
//! * [`MemoOutPolicy`] (`memoout`) — *output memoization*: per-line
//!   temporal prediction. Each approximable line keeps a sliding window of
//!   its recent committed signatures (line means); when the window's
//!   relative standard deviation sits under the threshold *and* the new
//!   content is per-value close to the last committed shadow, the
//!   writeback is elided (8 B of metadata, bounded consecutive elides) and
//!   the line architecturally keeps its previous contents. Unstable lines
//!   commit exactly.
//!
//! Both designs follow the crate's value-feedback contract: every lossy
//! event (serving canonical table content, eliding a commit) rewrites the
//! backing store at that moment, so approximation error feeds back into
//! the running application. Lines carrying a nonzero critical mask
//! (partitioned layouts place exact words inside approx regions) are
//! never memoized — indices and control data always take the exact path.
//!
//! Determinism: all table/window state is per-`System`, content-driven,
//! and RNG-free, so both designs are bit-identical at any `SimPool` width
//! and under the per-word/batched walk toggle. Steady state allocates
//! nothing: the fingerprint table is reserved at construction and the
//! per-line state at `on_region` time (`tests/zero_alloc.rs`).

use avr_cache::set_assoc::{Lookup, SetAssocCache};
use avr_dram::AccessKind;
use avr_sim::vm::Region;
use avr_types::{CacheLine, DataType, LineAddr, MemoParams, SystemConfig, CL_BYTES};

use crate::design::DesignPolicy;
use crate::system::System;

/// Metadata cost of one memo-table reference / elision record.
pub const MEMO_META_BYTES: u64 = 8;

/// Extra cycles to serve a fetch from the controller-side memo table
/// (table lookup + line mux), replacing the DRAM access latency.
const MEMO_SERVE_LAT: u64 = 4;

/// Decode one stored word as the region's value type.
#[inline]
fn decode(w: u32, dt: DataType) -> f64 {
    match dt {
        DataType::F32 => f32::from_bits(w) as f64,
        DataType::Fixed32 => (w as i32) as f64 / 65536.0,
    }
}

/// Relative difference of `a` against reference `b`.
#[inline]
fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1e-6)
}

/// Mean of a line's decoded values; `None` if any value is non-finite
/// (NaN/Inf content is never memoized).
fn finite_mean(line: &CacheLine, dt: DataType) -> Option<f64> {
    let mut sum = 0.0;
    for &w in line.words.iter() {
        let v = decode(w, dt);
        if !v.is_finite() {
            return None;
        }
        sum += v;
    }
    Some(sum / line.words.len() as f64)
}

/// Is every value of `a` within relative `threshold` of `b`'s?
fn line_close(a: &CacheLine, b: &CacheLine, dt: DataType, threshold: f64) -> bool {
    a.words.iter().zip(b.words.iter()).all(|(&wa, &wb)| {
        let (va, vb) = (decode(wa, dt), decode(wb, dt));
        va.is_finite() && vb.is_finite() && rel(va, vb) <= threshold
    })
}

/// Memoizability of `line`, whose approx region under `sys` is `ri`
/// ([`System::approx_region_of`]): its (region index, line index within
/// region, value type), or `None` for precise lines and for lines carrying
/// critical words (which must never see memo error).
fn memo_dt(sys: &System, ri: Option<usize>, line: LineAddr) -> Option<(usize, usize, DataType)> {
    let ri = ri?;
    let region = &sys.space.regions()[ri];
    let dt = region.approx?;
    if region.critical_mask_of_line(line) != 0 {
        return None;
    }
    let li = (line.0 - region.base.line().0) as usize;
    Some((ri, li, dt))
}

/// Per-region line state sizing: one slot per line of an approx region,
/// nothing for precise regions (keeps the vectors parallel to
/// `space.regions()`).
fn region_lines(region: &Region) -> usize {
    if region.approx.is_some() {
        region.len_bytes.div_ceil(CL_BYTES)
    } else {
        0
    }
}

// ----------------------------------------------------------------------
// MemoIn: content-fingerprint input memoization
// ----------------------------------------------------------------------

/// One canonical entry of the fingerprint table (its mean lives in
/// [`MemoInPolicy::means`]).
struct MemoSlot {
    words: CacheLine,
    dt: DataType,
}

/// `|mean - m| <= thr * SCREEN_MARGIN * max(|m|, 1e-6)` holds whenever
/// `rel(mean, m) <= thr` does. `rel` rounds once (the quotient) and the
/// screen twice (the two products), each by at most 2^-53 relative, so
/// `rel <= thr` gives `|mean - m| <= thr * max(|m|, 1e-6) / (1 - 2^-53)`
/// while the screen's bound is at least
/// `thr * max(|m|, 1e-6) * (1 + 2^-50) * (1 - 2^-53)^2`, which is larger.
/// Both sides subtract the same operands, and the products stay normal
/// for thresholds of at least [`SCREEN_MIN_THRESHOLD`].
const SCREEN_MARGIN: f64 = 1.0 + 4.0 * f64::EPSILON;

/// Below this match threshold the screen's products could be subnormal, so
/// [`MemoInPolicy`] screens nothing out and every slot gets the exact test.
const SCREEN_MIN_THRESHOLD: f64 = 1e-300;

/// `MemoIn`: conventional LLC + a controller-side content-fingerprint
/// table (see the module docs).
pub struct MemoInPolicy {
    llc: SetAssocCache,
    params: MemoParams,
    /// Canonical entries, FCFS, never evicted; reserved at construction
    /// so steady state never reallocates.
    slots: Vec<MemoSlot>,
    /// Each slot's line mean, parallel to `slots`: the dense column
    /// [`Self::find_match`] screens before any exact test.
    means: Vec<f64>,
    /// The match threshold widened by [`SCREEN_MARGIN`] (infinite below
    /// [`SCREEN_MIN_THRESHOLD`]): the screen's multiplier.
    screen: f64,
    /// Per region: per-line canonical mapping (`slot index + 1`; 0 = the
    /// line is stored exactly). Parallel to `space.regions()`.
    line_map: Vec<Vec<u16>>,
}

impl MemoInPolicy {
    pub(crate) fn new(cfg: &SystemConfig) -> Self {
        let cap = cfg.memo.table_slots.min(u16::MAX as usize - 1);
        assert!(cap > 0, "memo table needs at least one slot");
        MemoInPolicy {
            llc: SetAssocCache::new(cfg.llc),
            params: cfg.memo,
            slots: Vec::with_capacity(cap),
            means: Vec::with_capacity(cap),
            screen: if cfg.memo.match_threshold >= SCREEN_MIN_THRESHOLD {
                cfg.memo.match_threshold * SCREEN_MARGIN
            } else {
                f64::INFINITY
            },
            line_map: Vec::new(),
        }
    }

    /// Is `line` currently represented by a canonical table entry?
    fn mapped(&self, ri: usize, li: usize) -> bool {
        self.line_map[ri][li] != 0
    }

    /// First canonical entry matching `data` under the relative-error
    /// threshold, in slot order (first match wins, deterministic). A
    /// division-free screen over the dense `means` column passes every slot
    /// whose mean could match (see [`SCREEN_MARGIN`]); only those take the
    /// exact mean and per-value tests. The screen runs 64 slots at a time
    /// into a bitmask, a loop without early exits that the compiler
    /// vectorizes, and the survivors are then tested in slot order.
    fn find_match(&self, data: &CacheLine, dt: DataType) -> Option<usize> {
        let mean = finite_mean(data, dt)?;
        let thr = self.params.match_threshold;
        let screen = self.screen;
        for (c, means) in self.means.chunks(64).enumerate() {
            let mut survivors = 0u64;
            for (j, &m) in means.iter().enumerate() {
                survivors |= u64::from((mean - m).abs() <= screen * m.abs().max(1e-6)) << j;
            }
            while survivors != 0 {
                let i = c * 64 + survivors.trailing_zeros() as usize;
                let s = &self.slots[i];
                if s.dt == dt
                    && rel(mean, self.means[i]) <= thr
                    && line_close(data, &s.words, dt, thr)
                {
                    return Some(i);
                }
                survivors &= survivors - 1;
            }
        }
        None
    }

    /// Commit a dirty line leaving the LLC: match against the table
    /// (reference-only store), or commit exactly and maybe seed a new
    /// canonical entry.
    fn commit_line(&mut self, sys: &mut System, line: LineAddr, now: u64) {
        let Some((ri, li, dt)) = memo_dt(sys, sys.approx_region_of(line), line) else {
            sys.dram_write_line(line, now);
            return;
        };
        sys.counters.memo.in_probes += 1;
        let data = sys.mem.read_line(line);
        if let Some(si) = self.find_match(&data, dt) {
            // Match: store only the table reference; the line's
            // architectural content becomes the canonical entry (value
            // feedback).
            sys.counters.memo.in_hits += 1;
            sys.counters.traffic.metadata_bytes += MEMO_META_BYTES;
            sys.mem.write_line(line, &self.slots[si].words);
            self.line_map[ri][li] = si as u16 + 1;
            return;
        }
        // No match: the line is stored exactly.
        self.line_map[ri][li] = 0;
        sys.dram_write_line(line, now);
        if self.slots.len() < self.slots.capacity() {
            // Seed a canonical entry from what the device actually holds
            // (post-fault), so table serves reproduce memory content.
            let words = sys.mem.read_line(line);
            if let Some(mean) = finite_mean(&words, dt) {
                sys.counters.memo.in_inserts += 1;
                self.slots.push(MemoSlot { words, dt });
                self.means.push(mean);
                self.line_map[ri][li] = self.slots.len() as u16;
            }
        }
    }
}

impl DesignPolicy for MemoInPolicy {
    fn honor_approx(&self) -> bool {
        true
    }

    fn request(&mut self, sys: &mut System, line: LineAddr, t: u64) -> u64 {
        let llc_lat = sys.cfg.llc.latency;
        let region = sys.approx_region_of(line);
        let approx = region.is_some();
        let Lookup::Miss(victim) = self.llc.access(line, false) else {
            if approx {
                sys.counters.approx_requests.uncompressed_hit += 1;
            }
            return t + llc_lat;
        };
        sys.counters.llc_misses_total += 1;
        if approx {
            sys.counters.approx_requests.miss += 1;
        }
        let served = memo_dt(sys, region, line).is_some_and(|(ri, li, _)| self.mapped(ri, li));
        let completion = if served {
            // The line is stored as a table reference: serve the canonical
            // content from the controller, no DRAM data transfer. The
            // backing store already holds the canonical words (written at
            // commit time), so the value path needs no movement.
            sys.counters.memo.in_served += 1;
            sys.counters.traffic.metadata_bytes += MEMO_META_BYTES;
            t + llc_lat + MEMO_SERVE_LAT
        } else {
            let resp = sys.dram.access(line, AccessKind::Read, t + llc_lat);
            sys.count_traffic(approx, false, CL_BYTES as u64);
            sys.device_line_faults(line, AccessKind::Read, resp.complete_at);
            resp.complete_at
        };
        if let Some(ev) = self.llc.fill(victim, line, false) {
            if ev.dirty {
                self.commit_line(sys, ev.line, completion);
            }
        }
        completion
    }

    fn writeback(&mut self, sys: &mut System, line: LineAddr, now: u64) {
        if let Some(ev) = self.llc.writeback(line) {
            if ev.dirty {
                self.commit_line(sys, ev.line, now);
            }
        }
    }

    fn on_region(&mut self, region: &Region) {
        self.line_map.push(vec![0u16; region_lines(region)]);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

// ----------------------------------------------------------------------
// MemoOut: sliding-window output memoization
// ----------------------------------------------------------------------

/// Per-line temporal state for `MemoOut`.
#[derive(Clone, Default)]
struct OutLine {
    /// The last exactly committed content.
    shadow: CacheLine,
    shadow_valid: bool,
    /// Circular window of recent committed signatures (line means).
    window: [f64; 8],
    len: u8,
    pos: u8,
    /// Consecutive elisions since the last exact commit.
    elides: u8,
}

/// `MemoOut`: conventional LLC + per-line commit elision gated on the
/// sliding window's relative standard deviation (see the module docs).
pub struct MemoOutPolicy {
    llc: SetAssocCache,
    params: MemoParams,
    /// Effective window length (`params.window` clamped to the inline
    /// window storage).
    window: usize,
    /// Per region: per-line temporal state. Parallel to
    /// `space.regions()`.
    lines: Vec<Vec<OutLine>>,
}

impl MemoOutPolicy {
    pub(crate) fn new(cfg: &SystemConfig) -> Self {
        MemoOutPolicy {
            llc: SetAssocCache::new(cfg.llc),
            params: cfg.memo,
            window: cfg.memo.window.clamp(2, 8),
            lines: Vec::new(),
        }
    }

    /// Relative standard deviation of a full signature window.
    fn window_rsd(window: &[f64]) -> f64 {
        let n = window.len() as f64;
        let mean = window.iter().sum::<f64>() / n;
        let var = window.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        var.sqrt() / mean.abs().max(1e-6)
    }

    /// Commit a dirty line leaving the LLC: push its signature into the
    /// window, elide the writeback if the line is temporally stable,
    /// otherwise commit exactly and refresh the shadow.
    fn commit_line(&mut self, sys: &mut System, line: LineAddr, now: u64) {
        let Some((ri, li, dt)) = memo_dt(sys, sys.approx_region_of(line), line) else {
            sys.dram_write_line(line, now);
            return;
        };
        let params = self.params;
        let w = self.window;
        let data = sys.mem.read_line(line);
        let mean = finite_mean(&data, dt);
        sys.counters.memo.out_windows += 1;
        let st = &mut self.lines[ri][li];
        let stable = match mean {
            Some(m) => {
                st.window[st.pos as usize] = m;
                st.pos = (st.pos + 1) % w as u8;
                st.len = (st.len + 1).min(w as u8);
                st.len as usize == w && Self::window_rsd(&st.window[..w]) <= params.rsd_threshold
            }
            None => {
                // Non-finite content resets the history: never elided.
                st.len = 0;
                st.pos = 0;
                false
            }
        };
        let elide = stable
            && st.shadow_valid
            && (st.elides as u32) < params.max_consecutive_elides
            && line_close(&data, &st.shadow, dt, params.rsd_threshold);
        if elide {
            st.elides += 1;
            let shadow = st.shadow;
            sys.counters.memo.out_elided += 1;
            sys.counters.traffic.metadata_bytes += MEMO_META_BYTES;
            // The line architecturally keeps its previous contents
            // (value feedback: bounded temporal error).
            sys.mem.write_line(line, &shadow);
        } else {
            st.elides = 0;
            sys.counters.memo.out_commits += 1;
            sys.dram_write_line(line, now);
            // Shadow what the device actually holds (post-fault).
            let committed = sys.mem.read_line(line);
            let st = &mut self.lines[ri][li];
            st.shadow = committed;
            st.shadow_valid = true;
        }
    }
}

impl DesignPolicy for MemoOutPolicy {
    fn honor_approx(&self) -> bool {
        true
    }

    fn request(&mut self, sys: &mut System, line: LineAddr, t: u64) -> u64 {
        let llc_lat = sys.cfg.llc.latency;
        let approx = sys.approx_of(line);
        let Lookup::Miss(victim) = self.llc.access(line, false) else {
            if approx.is_some() {
                sys.counters.approx_requests.uncompressed_hit += 1;
            }
            return t + llc_lat;
        };
        sys.counters.llc_misses_total += 1;
        if approx.is_some() {
            sys.counters.approx_requests.miss += 1;
        }
        let resp = sys.dram.access(line, AccessKind::Read, t + llc_lat);
        sys.count_traffic(approx.is_some(), false, CL_BYTES as u64);
        sys.device_line_faults(line, AccessKind::Read, resp.complete_at);
        if let Some(ev) = self.llc.fill(victim, line, false) {
            if ev.dirty {
                self.commit_line(sys, ev.line, resp.complete_at);
            }
        }
        resp.complete_at
    }

    fn writeback(&mut self, sys: &mut System, line: LineAddr, now: u64) {
        if let Some(ev) = self.llc.writeback(line) {
            if ev.dirty {
                self.commit_line(sys, ev.line, now);
            }
        }
    }

    fn on_region(&mut self, region: &Region) {
        self.lines.push(vec![OutLine::default(); region_lines(region)]);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avr_types::VALUES_PER_LINE;

    /// `find_match` as it was before the mean screen: the exact tests on
    /// every slot, in slot order. Kept only as the oracle for
    /// [`screened_find_match_equals_the_linear_scan`].
    fn linear_find_match(
        table: &[(CacheLine, DataType, f64)],
        data: &CacheLine,
        dt: DataType,
        thr: f64,
    ) -> Option<usize> {
        let mean = finite_mean(data, dt)?;
        table.iter().position(|(words, sdt, m)| {
            *sdt == dt && rel(mean, *m) <= thr && line_close(data, words, dt, thr)
        })
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn unit(rng: &mut u64) -> f64 {
        (splitmix64(rng) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The stored word nearest `v` in type `dt`.
    fn encode(v: f64, dt: DataType) -> u32 {
        match dt {
            DataType::F32 => (v as f32).to_bits(),
            DataType::Fixed32 => ((v * 65536.0).round() as i32) as u32,
        }
    }

    fn constant(v: f64, dt: DataType) -> CacheLine {
        CacheLine { words: [encode(v, dt); VALUES_PER_LINE] }
    }

    /// `x` moved by `k` ulps (toward +inf for positive `k`; `x > 0`).
    fn ulps(x: f64, k: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + k) as u64)
    }

    /// A policy at threshold `thr` whose table holds `lines` with finite
    /// means, seeded the way `commit_line` seeds it, plus the same table
    /// for [`linear_find_match`].
    fn table_at(
        thr: f64,
        lines: &[(CacheLine, DataType)],
    ) -> (MemoInPolicy, Vec<(CacheLine, DataType, f64)>) {
        let mut cfg = SystemConfig::tiny();
        cfg.memo.match_threshold = thr;
        let mut p = MemoInPolicy::new(&cfg);
        let mut table = Vec::new();
        for &(words, dt) in lines {
            if let Some(mean) = finite_mean(&words, dt) {
                p.slots.push(MemoSlot { words, dt });
                p.means.push(mean);
                table.push((words, dt, mean));
            }
        }
        (p, table)
    }

    fn check(p: &MemoInPolicy, table: &[(CacheLine, DataType, f64)], probe: &CacheLine) -> bool {
        let thr = p.params.match_threshold;
        let mut matched = false;
        for dt in [DataType::F32, DataType::Fixed32] {
            let want = linear_find_match(table, probe, dt, thr);
            assert_eq!(p.find_match(probe, dt), want, "thr {thr:e}, {dt:?}, probe {probe:?}");
            matched |= want.is_some();
        }
        matched
    }

    /// The screened scan returns exactly the linear scan's slot: on seeded
    /// random tables of both value types (many near-duplicate slots, so
    /// the first of several matches must win), with probes near, on and
    /// past the threshold, negative and sub-1e-6 means and non-finite
    /// lines; and on constant lines whose relative distance is the
    /// threshold to within three ulps either side.
    #[test]
    fn screened_find_match_equals_the_linear_scan() {
        let dts = [DataType::F32, DataType::Fixed32];
        let mut matches = 0;
        for seed in 1..=24u64 {
            let mut rng = seed.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let thr = [0.04, 0.01, 0.2, 1e-4][seed as usize % 4];
            // Slot bases: a few magnitudes (1e-8 .. 1e4, so some means sit
            // under the 1e-6 clamp), either sign, several slots per base.
            let bases: Vec<f64> = (0..12)
                .map(|_| {
                    let mag = 10f64.powf(unit(&mut rng) * 12.0 - 8.0);
                    if splitmix64(&mut rng) & 1 == 0 {
                        mag
                    } else {
                        -mag
                    }
                })
                .collect();
            let line_near = |rng: &mut u64, base: f64, spread: f64, dt: DataType| {
                let mut words = [0u32; VALUES_PER_LINE];
                for w in words.iter_mut() {
                    *w = encode(base * (1.0 + spread * (2.0 * unit(rng) - 1.0)), dt);
                }
                CacheLine { words }
            };
            let slots: Vec<(CacheLine, DataType)> = (0..256)
                .map(|_| {
                    let base = bases[splitmix64(&mut rng) as usize % bases.len()];
                    let dt = dts[splitmix64(&mut rng) as usize % 2];
                    let spread = thr * unit(&mut rng);
                    (line_near(&mut rng, base, spread, dt), dt)
                })
                .collect();
            let (p, table) = table_at(thr, &slots);
            for _ in 0..300 {
                let base = bases[splitmix64(&mut rng) as usize % bases.len()];
                let dt = dts[splitmix64(&mut rng) as usize % 2];
                // Spreads of 0 .. 2 * thr straddle the threshold.
                let spread = 2.0 * thr * unit(&mut rng);
                let mut probe = line_near(&mut rng, base, spread, dt);
                match splitmix64(&mut rng) % 16 {
                    0 => probe.words[3] = f32::NAN.to_bits(),
                    1 => probe.words[9] = f32::NEG_INFINITY.to_bits(),
                    _ => {}
                }
                matches += check(&p, &table, &probe) as u32;
            }
        }
        assert!(matches > 100, "the random probes should match often, got {matches}");

        // Threshold boundary: slot `w`, probe `v`, and thresholds at their
        // exact relative distance and up to three ulps either side. About
        // one random pair in twenty has `|v - w| > thr * max(|w|, 1e-6)`
        // at `thr = rel(v, w)`: a screen without its margin fails there.
        let mut rng = 0xB0DA_11E5u64;
        let mut pairs = vec![
            (100.0, 104.0),
            (-37.5, -39.0),
            (-37.5, -36.2),
            (3.0, 2.88),
            (1e-3, 1.05e-3),
            (0.0, 4e-8),
            (5e-7, 4.6e-7),
            (-3e-7, 1e-8),
            (65536.0 * 0.7, 65536.0 * 0.7 * 1.03),
        ];
        for _ in 0..300 {
            let w = 2000.0 * unit(&mut rng) - 1000.0;
            pairs.push((w, w * (0.7 + 0.6 * unit(&mut rng))));
        }
        let mut boundary_matches = 0;
        for (w, v) in pairs {
            for dt in dts {
                let (slot, probe) = (constant(w, dt), constant(v, dt));
                let (Some(mw), Some(mv)) = (finite_mean(&slot, dt), finite_mean(&probe, dt)) else {
                    unreachable!()
                };
                let r = rel(mv, mw);
                if r == 0.0 {
                    continue;
                }
                for k in -3..=3 {
                    let thr = ulps(r, k);
                    // A decoy that never matches ahead of the slot, so the
                    // index must be exact too.
                    let (p, table) = table_at(thr, &[(constant(-w - 1.0, dt), dt), (slot, dt)]);
                    boundary_matches += check(&p, &table, &probe) as u32;
                }
            }
        }
        assert!(boundary_matches > 1000, "exact-boundary thresholds must match");

        // Thresholds the screen does not apply to: zero, subnormal,
        // negative and NaN.
        for thr in [0.0, 1e-310, -1.0, f64::NAN] {
            for dt in dts {
                let line = constant(7.25, dt);
                let (p, table) = table_at(thr, &[(constant(7.0, dt), dt), (line, dt)]);
                check(&p, &table, &line);
            }
        }
    }
}
