//! Conventional set-associative write-back cache (metadata only).
//!
//! Used for the private L1/L2 levels and for the baseline LLC. True-LRU
//! replacement via per-way recency stamps from one cache-wide clock.

use avr_types::{CacheGeometry, LineAddr};

/// Hit/miss/eviction counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub dirty_evictions: u64,
}

impl CacheStats {
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    pub fn miss_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// A line evicted to make room.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Eviction {
    pub line: LineAddr,
    pub dirty: bool,
}

/// The cache. Lines are identified by [`LineAddr`]; the set index is the low
/// `log2(sets)` bits of the line address, the tag the remaining bits.
///
/// Way metadata is kept as parallel arrays (struct-of-arrays), so a lookup
/// scans only the packed keys and a victim search only the stamps:
/// `keys[w]` is `tag + 1` (0 = invalid way), `stamps[w]` the clock of the
/// way's last use (0 while invalid, >= 1 once filled), `dirty[w]` its
/// write-back bit.
#[derive(Clone, Debug)]
pub struct SetAssocCache {
    sets: usize,
    ways: usize,
    latency: u64,
    keys: Vec<u64>,
    stamps: Vec<u64>,
    dirty: Vec<bool>,
    clock: u64,
    pub stats: CacheStats,
}

/// Index of the first minimum of `stamps`: the replacement victim of a set
/// whose invalid ways carry stamp 0 and valid ways stamps >= 1 — the first
/// free way if there is one, else the first least-recently-used way.
#[inline]
pub(crate) fn first_min(stamps: &[u64]) -> usize {
    let mut best = 0;
    let mut min = stamps[0];
    for (w, &s) in stamps.iter().enumerate().skip(1) {
        if s < min {
            min = s;
            best = w;
        }
    }
    best
}

impl SetAssocCache {
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = geom.sets();
        assert!(sets.is_power_of_two() && sets > 0);
        let n = sets * geom.ways;
        SetAssocCache {
            sets,
            ways: geom.ways,
            latency: geom.latency,
            keys: vec![0; n],
            stamps: vec![0; n],
            dirty: vec![false; n],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// Access latency in CPU cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    #[inline]
    fn set_of(&self, line: LineAddr) -> usize {
        (line.0 as usize) & (self.sets - 1)
    }

    /// The packed way key of `line`: its tag plus one.
    #[inline]
    fn key_of(&self, line: LineAddr) -> u64 {
        (line.0 >> self.sets.trailing_zeros()) + 1
    }

    /// Slot (`set * ways + way`) holding `line`, if resident.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let key = self.key_of(line);
        let base = self.set_of(line) * self.ways;
        self.keys[base..base + self.ways].iter().position(|&k| k == key).map(|w| base + w)
    }

    /// The line held by valid slot `slot` of set `set`.
    #[inline]
    fn line_at(&self, set: usize, slot: usize) -> LineAddr {
        LineAddr(((self.keys[slot] - 1) << self.sets.trailing_zeros()) | set as u64)
    }

    /// Look up a line; on hit refresh its recency (and optionally mark it
    /// dirty for a store). Updates hit/miss statistics.
    pub fn access(&mut self, line: LineAddr, write: bool) -> bool {
        self.clock += 1;
        match self.find(line) {
            Some(i) => {
                self.stamps[i] = self.clock;
                self.dirty[i] |= write;
                self.stats.hits += 1;
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// Closed-form batch of `n` guaranteed hits to a resident line: one
    /// tag probe, the recency clock advanced by `n`, dirty set on writes,
    /// `n` hits counted. Bit-identical final state to `n` sequential
    /// [`Self::access`] calls — the loop would stamp the line with each
    /// intermediate clock value, but only the last stamp survives, so
    /// advancing the clock once and stamping once lands on the same LRU
    /// state (and therefore the same eviction order forever after).
    ///
    /// Panics if the line is not resident: the caller owns the residency
    /// proof (in the simulator, a span's leading access just touched it).
    pub fn access_hit_n(&mut self, line: LineAddr, n: u64, write: bool) {
        if n == 0 {
            return;
        }
        self.clock += n;
        let i = self.find(line).expect("access_hit_n: line not resident");
        self.stamps[i] = self.clock;
        self.dirty[i] |= write;
        self.stats.hits += n;
    }

    /// Is the line present? No LRU update, no statistics.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Insert a line (after a miss), evicting the LRU victim if the set is
    /// full. Re-inserting a present line just refreshes it.
    pub fn insert(&mut self, line: LineAddr, dirty: bool) -> Option<Eviction> {
        self.clock += 1;
        if let Some(i) = self.find(line) {
            self.stamps[i] = self.clock;
            self.dirty[i] |= dirty;
            return None;
        }
        let set = self.set_of(line);
        let base = set * self.ways;
        let i = base + first_min(&self.stamps[base..base + self.ways]);
        let evicted = (self.keys[i] != 0)
            .then(|| Eviction { line: self.line_at(set, i), dirty: self.dirty[i] });
        self.keys[i] = self.key_of(line);
        self.stamps[i] = self.clock;
        self.dirty[i] = dirty;
        if let Some(e) = evicted {
            self.stats.evictions += 1;
            self.stats.dirty_evictions += e.dirty as u64;
        }
        evicted
    }

    /// Drop a line (back-invalidation), returning whether it was dirty.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let i = self.find(line)?;
        let dirty = self.dirty[i];
        self.keys[i] = 0;
        self.stamps[i] = 0;
        self.dirty[i] = false;
        Some(dirty)
    }

    /// Iterate over all resident lines (diagnostics / tests).
    pub fn resident_lines(&self) -> impl Iterator<Item = (LineAddr, bool)> + '_ {
        (0..self.keys.len())
            .filter(|&i| self.keys[i] != 0)
            .map(|i| (self.line_at(i / self.ways, i), self.dirty[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avr_types::CacheGeometry;

    fn tiny() -> SetAssocCache {
        // 4 sets x 2 ways.
        SetAssocCache::new(CacheGeometry { capacity: 4 * 2 * 64, ways: 2, latency: 1 })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        let l = LineAddr(0x40);
        assert!(!c.access(l, false));
        c.insert(l, false);
        assert!(c.access(l, false));
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Three lines in the same set (set 0): 0x0, 0x4, 0x8 (4 sets).
        let (a, b, d) = (LineAddr(0x0), LineAddr(0x4), LineAddr(0x8));
        assert!(c.insert(a, false).is_none());
        assert!(c.insert(b, false).is_none());
        // Touch a so b is LRU.
        c.access(a, false);
        let ev = c.insert(d, false).expect("eviction");
        assert_eq!(ev.line, b);
        assert!(c.contains(a) && c.contains(d) && !c.contains(b));
    }

    #[test]
    fn dirty_propagates_through_eviction() {
        let mut c = tiny();
        let (a, b, d) = (LineAddr(0x0), LineAddr(0x4), LineAddr(0x8));
        c.insert(a, false);
        c.access(a, true); // store -> dirty
        c.insert(b, false);
        c.access(a, false); // keep a MRU
        let ev = c.insert(d, false).unwrap();
        assert_eq!(ev.line, b);
        assert!(!ev.dirty);
        c.access(d, false);
        let ev2 = c.insert(LineAddr(0xC), false).unwrap();
        assert_eq!(ev2.line, a);
        assert!(ev2.dirty);
        assert_eq!(c.stats.dirty_evictions, 1);
    }

    #[test]
    fn reinsert_refreshes_instead_of_duplicating() {
        let mut c = tiny();
        let a = LineAddr(0x0);
        c.insert(a, false);
        assert!(c.insert(a, true).is_none());
        let resident: Vec<_> = c.resident_lines().collect();
        assert_eq!(resident.len(), 1);
        assert_eq!(resident[0], (a, true));
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny();
        let a = LineAddr(0x3);
        c.insert(a, true);
        assert_eq!(c.invalidate(a), Some(true));
        assert_eq!(c.invalidate(a), None);
        assert!(!c.contains(a));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        for i in 0..4u64 {
            assert!(c.insert(LineAddr(i), false).is_none());
            assert!(c.insert(LineAddr(i + 4), false).is_none());
        }
        for i in 0..8u64 {
            assert!(c.contains(LineAddr(i)));
        }
    }

    #[test]
    fn eviction_reconstructs_correct_address() {
        let mut c = tiny();
        let a = LineAddr(0x1234 << 2 | 0x1); // set 1, some tag
        c.insert(a, false);
        c.insert(LineAddr(0x5678 << 2 | 0x1), false);
        let ev = c.insert(LineAddr(0x9abc << 2 | 0x1), false).unwrap();
        assert_eq!(ev.line, a);
    }

    #[test]
    fn batched_hits_match_sequential_hits_exactly() {
        // Interleave batched and per-access hits across two caches and
        // assert the *entire* metadata state (tags, dirty, lru, clock,
        // stats) stays identical — this is what pins eviction order.
        let (a, b, d) = (LineAddr(0x0), LineAddr(0x4), LineAddr(0x8));
        let mut seq = tiny();
        let mut bat = tiny();
        for c in [&mut seq, &mut bat] {
            c.insert(a, false);
            c.insert(b, false);
        }
        for _ in 0..5 {
            seq.access(a, false);
        }
        bat.access_hit_n(a, 5, false);
        for _ in 0..3 {
            seq.access(b, true);
        }
        bat.access_hit_n(b, 3, true);
        seq.access(a, false);
        bat.access_hit_n(a, 1, false);
        assert_eq!(seq.clock, bat.clock);
        assert_eq!(seq.stats, bat.stats);
        assert_eq!(
            (&seq.keys, &seq.stamps, &seq.dirty),
            (&bat.keys, &bat.stamps, &bat.dirty),
            "way metadata diverged"
        );
        // The LRU victim (eviction order) must agree on both.
        let ev_s = seq.insert(d, false).expect("eviction");
        let ev_b = bat.insert(d, false).expect("eviction");
        assert_eq!(ev_s, ev_b);
        assert_eq!(ev_s.line, b, "a was refreshed last (lru 11 vs 10)");
    }

    #[test]
    fn batched_hit_marks_dirty_once() {
        let mut c = tiny();
        let a = LineAddr(0x3);
        c.insert(a, false);
        c.access_hit_n(a, 4, true);
        assert_eq!(c.invalidate(a), Some(true));
        assert_eq!(c.stats.hits, 4);
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn batched_hit_requires_residency() {
        let mut c = tiny();
        c.access_hit_n(LineAddr(0x40), 2, false);
    }

    #[test]
    fn paper_l1_geometry() {
        let c = SetAssocCache::new(CacheGeometry { capacity: 64 << 10, ways: 4, latency: 1 });
        assert_eq!(c.sets, 256);
        assert_eq!(c.latency(), 1);
    }
}
