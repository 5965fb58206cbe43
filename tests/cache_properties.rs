//! Property-based tests of the cache structures: the decoupled LLC never
//! corrupts its tag/BPA invariants under arbitrary operation sequences,
//! and the conventional cache behaves like a reference model. Random
//! sequences come from a deterministic splitmix64 stream (the build
//! environment is offline, so no proptest).

use avr::cache::llc::{AvrLlc, Evicted};
use avr::cache::set_assoc::{CacheStats, Eviction, SetAssocCache};
use avr::types::{BlockAddr, CacheGeometry, LineAddr};
use std::collections::HashMap;

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

/// The conventional cache agrees with a trivial reference model on
/// presence, on every insert's evicted line and its dirty bit, and on the
/// hit/miss/eviction counters after arbitrary access/insert interleavings.
#[test]
fn set_assoc_matches_reference() {
    for case in 0..64u64 {
        let mut rng = Rng(0xcace_0003 ^ case);
        let geom = CacheGeometry { capacity: 16 * 2 * 64, ways: 2, latency: 1 };
        let mut cache = SetAssocCache::new(geom);
        // Reference: per-set LRU lists of (line, dirty), LRU at the front.
        let sets = 16usize;
        let ways = 2usize;
        let mut reference: HashMap<usize, Vec<(u64, bool)>> = HashMap::new();
        let mut stats = CacheStats::default();
        let n = 1 + rng.below(300);
        for _ in 0..n {
            let line = rng.below(256);
            let write = rng.flip();
            let set = (line as usize) % sets;
            let lru = reference.entry(set).or_default();
            let pos = lru.iter().position(|&(l, _)| l == line);
            let hit = cache.access(LineAddr(line), write);
            assert_eq!(hit, pos.is_some(), "case {case}: presence diverged on line {line}");
            if let Some(pos) = pos {
                stats.hits += 1;
                let (_, dirty) = lru.remove(pos);
                lru.push((line, dirty || write));
            } else {
                stats.misses += 1;
                let evicted = cache.insert(LineAddr(line), write);
                let want = (lru.len() == ways).then(|| {
                    let (l, dirty) = lru.remove(0);
                    stats.evictions += 1;
                    stats.dirty_evictions += dirty as u64;
                    Eviction { line: LineAddr(l), dirty }
                });
                assert_eq!(evicted, want, "case {case}: victim diverged inserting line {line}");
                lru.push((line, write));
            }
            assert_eq!(cache.stats, stats, "case {case}: stats diverged on line {line}");
        }
    }
}
