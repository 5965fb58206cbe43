//! Property-based tests of the cache structures: the decoupled LLC never
//! corrupts its tag/BPA invariants under arbitrary operation sequences,
//! and the conventional cache behaves like a reference model. Random
//! sequences come from a deterministic splitmix64 stream (the build
//! environment is offline, so no proptest).

use avr::cache::llc::{AvrLlc, Evicted};
use avr::cache::set_assoc::{CacheStats, Eviction, Lookup, SetAssocCache};
use avr::types::{BlockAddr, CacheGeometry, LineAddr};

mod common;
use common::Rng;

#[derive(Clone, Debug)]
enum LlcOp {
    InsertUcl { block: u8, cl: u8, dirty: bool },
    InsertCms { block: u8, size: u8, dirty: bool },
    AccessUcl { block: u8, cl: u8 },
    RemoveCms { block: u8 },
    InvalidateUcl { block: u8, cl: u8 },
    EvictBlock { block: u8 },
}

fn llc_op(rng: &mut Rng) -> LlcOp {
    let block = rng.below(256) as u8;
    match rng.below(6) {
        0 => LlcOp::InsertUcl { block, cl: rng.below(16) as u8, dirty: rng.flip() },
        1 => LlcOp::InsertCms { block, size: 1 + rng.below(8) as u8, dirty: rng.flip() },
        2 => LlcOp::AccessUcl { block, cl: rng.below(16) as u8 },
        3 => LlcOp::RemoveCms { block },
        4 => LlcOp::InvalidateUcl { block, cl: rng.below(16) as u8 },
        _ => LlcOp::EvictBlock { block },
    }
}

/// The decoupled LLC's internal invariants hold under arbitrary operation
/// sequences (tag counts match BPA contents, no orphans).
#[test]
fn decoupled_llc_invariants_hold() {
    for case in 0..64u64 {
        let mut rng = Rng(0xcace_0001 ^ case);
        let mut llc = AvrLlc::new(CacheGeometry { capacity: 64 * 4 * 64, ways: 4, latency: 15 });
        let mut evs = Vec::new();
        let ops = 1 + rng.below(300);
        for step in 0..ops {
            let op = llc_op(&mut rng);
            evs.clear();
            match &op {
                LlcOp::InsertUcl { block, cl, dirty } => {
                    llc.insert_ucl(BlockAddr(*block as u64).line(*cl as usize), *dirty, &mut evs);
                }
                LlcOp::InsertCms { block, size, dirty } => {
                    llc.insert_cms(BlockAddr(*block as u64), *size, *dirty, &mut evs);
                }
                LlcOp::AccessUcl { block, cl } => {
                    llc.access_ucl(BlockAddr(*block as u64).line(*cl as usize), false);
                }
                LlcOp::RemoveCms { block } => {
                    llc.remove_cms(BlockAddr(*block as u64));
                }
                LlcOp::InvalidateUcl { block, cl } => {
                    llc.invalidate_ucl(BlockAddr(*block as u64).line(*cl as usize));
                }
                LlcOp::EvictBlock { block } => {
                    llc.evict_block(BlockAddr(*block as u64), &mut evs);
                }
            }
            llc.check_invariants();
            let _ = (case, step, op);
        }
    }
}

/// A dirty line inserted into the LLC is either still resident or was
/// reported dirty in an eviction — dirtiness never silently vanishes.
#[test]
fn dirty_lines_are_never_lost() {
    for case in 0..64u64 {
        let mut rng = Rng(0xcace_0002 ^ case);
        let mut llc = AvrLlc::new(CacheGeometry { capacity: 32 * 4 * 64, ways: 4, latency: 15 });
        let mut written_back = std::collections::HashSet::new();
        let mut inserted = std::collections::HashSet::new();
        let mut evs = Vec::new();
        let n = 1 + rng.below(200);
        for _ in 0..n {
            let block = rng.below(256);
            let cl = rng.below(16) as usize;
            let line = BlockAddr(block).line(cl);
            evs.clear();
            llc.insert_ucl(line, true, &mut evs);
            for ev in &evs {
                if let Evicted::Ucl { line: l, dirty: true } = *ev {
                    written_back.insert(l);
                }
            }
            inserted.insert(line);
        }
        for line in &inserted {
            let resident_dirty = llc.ucl_dirty(*line) == Some(true);
            assert!(
                resident_dirty || written_back.contains(line),
                "case {case}: dirty line {line:?} vanished without a writeback"
            );
        }
    }
}

/// A trivial model of the conventional cache: per-set LRU lists of
/// `(line, dirty)`, least recently used at the front, and the counters.
struct RefCache {
    sets: usize,
    ways: usize,
    lru: Vec<Vec<(u64, bool)>>,
    stats: CacheStats,
}

impl RefCache {
    fn new(sets: usize, ways: usize) -> Self {
        RefCache { sets, ways, lru: vec![Vec::new(); sets], stats: CacheStats::default() }
    }

    fn holds(&self, line: u64) -> bool {
        self.lru[line as usize % self.sets].iter().any(|&(l, _)| l == line)
    }

    /// Take `line` out of its set, if resident.
    fn take(&mut self, line: u64) -> Option<bool> {
        let set = &mut self.lru[line as usize % self.sets];
        let pos = set.iter().position(|&(l, _)| l == line)?;
        Some(set.remove(pos).1)
    }

    /// Make `line` the most recent of its set, evicting the least recent
    /// line of a full set.
    fn push(&mut self, line: u64, dirty: bool) -> Option<Eviction> {
        let set = &mut self.lru[line as usize % self.sets];
        let evicted = (set.len() == self.ways).then(|| {
            let (l, dirty) = set.remove(0);
            self.stats.evictions += 1;
            self.stats.dirty_evictions += dirty as u64;
            Eviction { line: LineAddr(l), dirty }
        });
        set.push((line, dirty));
        evicted
    }

    /// A demand access: true (and refreshed) on a hit; a miss places
    /// nothing.
    fn access(&mut self, line: u64, write: bool) -> bool {
        match self.take(line) {
            Some(dirty) => {
                self.stats.hits += 1;
                self.push(line, dirty || write);
                true
            }
            None => {
                self.stats.misses += 1;
                false
            }
        }
    }

    /// A dirty cast-out from above: refresh or allocate, counting nothing.
    fn writeback(&mut self, line: u64) -> Option<Eviction> {
        self.take(line);
        self.push(line, true)
    }

    fn resident(&self) -> Vec<(LineAddr, bool)> {
        let mut lines: Vec<_> =
            self.lru.iter().flatten().map(|&(l, dirty)| (LineAddr(l), dirty)).collect();
        lines.sort_by_key(|&(l, _)| l.0);
        lines
    }
}

/// The conventional cache agrees with the reference model at 2, 4, 8 and
/// 16 ways under arbitrary interleavings of demand accesses (reads and
/// writes), the fills that follow their misses (sometimes after a
/// writeback to another set has intervened), and writebacks of both
/// resident and missing lines: after every operation, on every evicted
/// line and its dirty bit, on the hit/miss/eviction counters, and on the
/// full set of resident lines with their dirty bits.
#[test]
fn set_assoc_matches_reference() {
    let sets = 16usize;
    for ways in [2usize, 4, 8, 16] {
        let (mut fills, mut refreshes, mut delayed, mut evictions) = (0u32, 0u32, 0u32, 0u64);
        for case in 0..64u64 {
            let mut rng = Rng(0xcace_0003 ^ case ^ (ways as u64) << 32);
            let geom = CacheGeometry { capacity: sets * ways * 64, ways, latency: 1 };
            let mut cache = SetAssocCache::new(geom);
            let mut reference = RefCache::new(sets, ways);
            // Three lines per way: every set sees conflicts.
            let lines = (3 * sets * ways) as u64;
            let n = 1 + rng.below(600);
            for step in 0..n {
                let ctx = format!("{ways} ways, case {case}, step {step}");
                let line = rng.below(lines);
                let (want, got) = if rng.below(4) == 0 {
                    refreshes += reference.holds(line) as u32;
                    (reference.writeback(line), cache.writeback(LineAddr(line)))
                } else {
                    let write = rng.flip();
                    match (cache.access(LineAddr(line), write), reference.access(line, write)) {
                        (Lookup::Hit, true) => (None, None),
                        (Lookup::Miss(victim), false) => {
                            if rng.below(4) == 0 {
                                // A writeback to another set may come
                                // between a miss and its fill.
                                let other = (line + 1 + rng.below(sets as u64 - 1)) % sets as u64
                                    + sets as u64 * rng.below(lines / sets as u64);
                                let ev = cache.writeback(LineAddr(other));
                                assert_eq!(ev, reference.writeback(other), "{ctx}: writeback");
                                delayed += 1;
                            }
                            fills += 1;
                            (reference.push(line, write), cache.fill(victim, LineAddr(line), write))
                        }
                        (got, hit) => panic!("{ctx}: line {line}: {got:?}, reference hit {hit}"),
                    }
                };
                assert_eq!(got, want, "{ctx}: victim diverged on line {line}");
                assert_eq!(cache.stats, reference.stats, "{ctx}: stats diverged on line {line}");
                let mut resident: Vec<_> = cache.resident_lines().collect();
                resident.sort_by_key(|&(l, _)| l.0);
                assert_eq!(resident, reference.resident(), "{ctx}: contents diverged");
            }
            evictions += cache.stats.evictions;
        }
        // The streams reached every path they claim to cover.
        assert!(fills > 0 && refreshes > 0 && delayed > 0 && evictions > 0, "{ways} ways");
    }
}
