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
/// Way metadata is kept as parallel arrays (struct-of-arrays): `keys[w]`
/// is `tag + 1` (0 = invalid way), `stamps[w]` the clock of the way's last
/// use (0 while invalid, >= 1 once filled), `dirty[w]` its write-back bit.
///
/// Every lookup is one pass over its set: [`Self::access`] returns the hit
/// or, on a miss, the set's replacement [`Victim`], which the caller hands
/// to [`Self::fill`] once the line arrives; [`Self::writeback`] refreshes
/// or allocates a dirty line in the same single pass.
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

/// The way a missed line will fill: its set's replacement victim when the
/// set was probed — the first free way if there is one, else the first
/// least-recently-used way. Only [`SetAssocCache::access`] makes one, and
/// it stays the victim until that cache's set changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use = "a missed line is placed by passing its victim to `fill`"]
pub struct Victim(usize);

/// What [`SetAssocCache::access`] found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use]
pub enum Lookup {
    Hit,
    Miss(Victim),
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

/// One pass over a set's `keys` and `stamps`: the way holding `key`, or
/// else the set's victim — the way [`first_min`] picks over the stamps.
#[inline]
pub(crate) fn probe_ways(keys: &[u64], stamps: &[u64], key: u64) -> Result<usize, usize> {
    let mut victim = 0;
    let mut min = u64::MAX;
    for (w, (&k, &s)) in keys.iter().zip(stamps).enumerate() {
        if k == key {
            return Ok(w);
        }
        if s < min {
            min = s;
            victim = w;
        }
    }
    Err(victim)
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

    /// One pass over `line`'s set: the slot holding it, or else the set's
    /// victim.
    #[inline]
    fn probe(&self, line: LineAddr) -> Result<usize, Victim> {
        let base = self.set_of(line) * self.ways;
        let end = base + self.ways;
        match probe_ways(&self.keys[base..end], &self.stamps[base..end], self.key_of(line)) {
            Ok(w) => Ok(base + w),
            Err(w) => Err(Victim(base + w)),
        }
    }

    /// The line held by valid slot `slot` of set `set`.
    #[inline]
    fn line_at(&self, set: usize, slot: usize) -> LineAddr {
        LineAddr(((self.keys[slot] - 1) << self.sets.trailing_zeros()) | set as u64)
    }

    /// Look up a line and count the hit or miss. A hit refreshes its
    /// recency (and marks it dirty for a store); a miss returns the set's
    /// victim, which [`Self::fill`] takes once the line arrives.
    pub fn access(&mut self, line: LineAddr, write: bool) -> Lookup {
        self.clock += 1;
        match self.probe(line) {
            Ok(i) => {
                self.stamps[i] = self.clock;
                self.dirty[i] |= write;
                self.stats.hits += 1;
                Lookup::Hit
            }
            Err(victim) => {
                self.stats.misses += 1;
                Lookup::Miss(victim)
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

    /// Place `line`, which missed in [`Self::access`], in the victim that
    /// access returned, evicting the way's previous line if it held one.
    /// Nothing may have touched the line's set in between: the victim must
    /// still be the set's victim and the line still absent.
    pub fn fill(&mut self, victim: Victim, line: LineAddr, dirty: bool) -> Option<Eviction> {
        let base = self.set_of(line) * self.ways;
        debug_assert_eq!(
            victim.0,
            base + first_min(&self.stamps[base..base + self.ways]),
            "fill: the slot is no longer its set's victim"
        );
        debug_assert!(self.find(line).is_none(), "fill: the line is already resident");
        self.clock += 1;
        self.place(victim.0, line, dirty)
    }

    /// Accept a dirty line cast out of the level above: refresh it and mark
    /// it dirty if resident, else allocate it dirty. Either way one pass
    /// over the set, and neither a hit nor a miss is counted.
    pub fn writeback(&mut self, line: LineAddr) -> Option<Eviction> {
        self.clock += 1;
        match self.probe(line) {
            Ok(i) => {
                self.stamps[i] = self.clock;
                self.dirty[i] = true;
                None
            }
            Err(victim) => self.place(victim.0, line, true),
        }
    }

    /// Put `line` in `slot` with the current clock, returning what the slot
    /// held.
    #[inline]
    fn place(&mut self, slot: usize, line: LineAddr, dirty: bool) -> Option<Eviction> {
        let set = self.set_of(line);
        let evicted = (self.keys[slot] != 0)
            .then(|| Eviction { line: self.line_at(set, slot), dirty: self.dirty[slot] });
        self.keys[slot] = self.key_of(line);
        self.stamps[slot] = self.clock;
        self.dirty[slot] = dirty;
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

    /// A demand miss and its fill; panics if `line` was resident.
    fn load(c: &mut SetAssocCache, line: LineAddr, dirty: bool) -> Option<Eviction> {
        match c.access(line, dirty) {
            Lookup::Miss(victim) => c.fill(victim, line, dirty),
            Lookup::Hit => panic!("{line:?} was already resident"),
        }
    }

    fn resident(c: &SetAssocCache, line: LineAddr) -> bool {
        c.find(line).is_some()
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        let l = LineAddr(0x40);
        assert!(load(&mut c, l, false).is_none());
        assert_eq!(c.access(l, false), Lookup::Hit);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut c = tiny();
        // Three lines in the same set (set 0): 0x0, 0x4, 0x8 (4 sets).
        let (a, b, d) = (LineAddr(0x0), LineAddr(0x4), LineAddr(0x8));
        assert!(load(&mut c, a, false).is_none());
        assert!(load(&mut c, b, false).is_none());
        // Touch a so b is LRU.
        assert_eq!(c.access(a, false), Lookup::Hit);
        let ev = load(&mut c, d, false).expect("eviction");
        assert_eq!(ev.line, b);
        assert!(resident(&c, a) && resident(&c, d) && !resident(&c, b));
    }

    #[test]
    fn miss_returns_the_first_free_way_else_the_first_lru_way() {
        let mut c = tiny();
        let (a, b, d) = (LineAddr(0x0), LineAddr(0x4), LineAddr(0x8));
        assert_eq!(c.access(a, false), Lookup::Miss(Victim(0)));
        assert!(load(&mut c, b, false).is_none());
        // b took way 0, so the first free way is now way 1.
        assert_eq!(c.access(a, false), Lookup::Miss(Victim(1)));
        assert!(load(&mut c, a, false).is_none());
        // Full set: b (way 0) is least recently used.
        assert_eq!(c.access(d, false), Lookup::Miss(Victim(0)));
        assert_eq!(c.access(b, false), Lookup::Hit);
        assert_eq!(c.access(d, false), Lookup::Miss(Victim(1)));
        assert_eq!(c.stats.misses, 6);
    }

    #[test]
    fn dirty_propagates_through_eviction() {
        let mut c = tiny();
        let (a, b, d) = (LineAddr(0x0), LineAddr(0x4), LineAddr(0x8));
        load(&mut c, a, false);
        assert_eq!(c.access(a, true), Lookup::Hit); // store -> dirty
        load(&mut c, b, false);
        assert_eq!(c.access(a, false), Lookup::Hit); // keep a MRU
        let ev = load(&mut c, d, false).unwrap();
        assert_eq!(ev.line, b);
        assert!(!ev.dirty);
        assert_eq!(c.access(d, false), Lookup::Hit);
        let ev2 = load(&mut c, LineAddr(0xC), false).unwrap();
        assert_eq!(ev2.line, a);
        assert!(ev2.dirty);
        assert_eq!(c.stats.dirty_evictions, 1);
    }

    #[test]
    fn writeback_refreshes_a_resident_line_instead_of_duplicating() {
        let mut c = tiny();
        let (a, b, d) = (LineAddr(0x0), LineAddr(0x4), LineAddr(0x8));
        load(&mut c, a, false);
        load(&mut c, b, false);
        assert!(c.writeback(a).is_none());
        let mut lines: Vec<_> = c.resident_lines().collect();
        lines.sort_by_key(|&(l, _)| l.0);
        assert_eq!(lines, [(a, true), (b, false)]);
        // The refresh made a the most recent, and counted no hit.
        assert_eq!(c.writeback(d), Some(Eviction { line: b, dirty: false }));
        assert_eq!(c.stats, CacheStats { hits: 0, misses: 2, evictions: 1, dirty_evictions: 0 });
    }

    #[test]
    fn writeback_allocates_a_missing_line_dirty() {
        let mut c = tiny();
        let a = LineAddr(0x3);
        assert!(c.writeback(a).is_none());
        assert_eq!(c.invalidate(a), Some(true));
        assert_eq!(c.stats, CacheStats::default(), "a writeback is not a demand access");
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny();
        let a = LineAddr(0x3);
        load(&mut c, a, true);
        assert_eq!(c.invalidate(a), Some(true));
        assert_eq!(c.invalidate(a), None);
        assert!(!resident(&c, a));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = tiny();
        for i in 0..4u64 {
            assert!(load(&mut c, LineAddr(i), false).is_none());
            assert!(load(&mut c, LineAddr(i + 4), false).is_none());
        }
        for i in 0..8u64 {
            assert!(resident(&c, LineAddr(i)));
        }
    }

    #[test]
    fn eviction_reconstructs_correct_address() {
        let mut c = tiny();
        let a = LineAddr(0x1234 << 2 | 0x1); // set 1, some tag
        load(&mut c, a, false);
        load(&mut c, LineAddr(0x5678 << 2 | 0x1), false);
        let ev = load(&mut c, LineAddr(0x9abc << 2 | 0x1), false).unwrap();
        assert_eq!(ev.line, a);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "no longer its set's victim")]
    fn fill_rejects_a_stale_victim() {
        let mut c = tiny();
        let (a, b) = (LineAddr(0x0), LineAddr(0x4));
        let Lookup::Miss(victim) = c.access(a, false) else { unreachable!() };
        // b fills way 0 first, so way 1 is now the set's victim.
        load(&mut c, b, false);
        let _ = c.fill(victim, a, false);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "already resident")]
    fn fill_rejects_a_resident_line() {
        let mut c = tiny();
        let a = LineAddr(0x0);
        let Lookup::Miss(victim) = c.access(a, false) else { unreachable!() };
        let _ = c.fill(victim, a, false);
        let Lookup::Miss(victim) = c.access(LineAddr(0x4), false) else { unreachable!() };
        let _ = c.fill(victim, a, false);
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
            load(c, a, false);
            load(c, b, false);
        }
        for _ in 0..5 {
            assert_eq!(seq.access(a, false), Lookup::Hit);
        }
        bat.access_hit_n(a, 5, false);
        for _ in 0..3 {
            assert_eq!(seq.access(b, true), Lookup::Hit);
        }
        bat.access_hit_n(b, 3, true);
        assert_eq!(seq.access(a, false), Lookup::Hit);
        bat.access_hit_n(a, 1, false);
        assert_eq!(seq.clock, bat.clock);
        assert_eq!(seq.stats, bat.stats);
        assert_eq!(
            (&seq.keys, &seq.stamps, &seq.dirty),
            (&bat.keys, &bat.stamps, &bat.dirty),
            "way metadata diverged"
        );
        // The LRU victim (eviction order) must agree on both.
        let ev_s = load(&mut seq, d, false).expect("eviction");
        let ev_b = load(&mut bat, d, false).expect("eviction");
        assert_eq!(ev_s, ev_b);
        assert_eq!(ev_s.line, b, "a was refreshed last (lru 11 vs 10)");
    }

    #[test]
    fn batched_hit_marks_dirty_once() {
        let mut c = tiny();
        let a = LineAddr(0x3);
        load(&mut c, a, false);
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
