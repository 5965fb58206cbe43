//! The Compression Metadata Table (paper §3.2, Fig. 3).
//!
//! One 24-bit entry per 1 KB memory block (four per 4 KB page): a compressed
//! flag, the compressed size, the number of lazily evicted lines parked in
//! the block's free space, the compression method, the exponent bias, and
//! the failed/skipped compression-attempt history. The table lives in main
//! memory and is cached on-chip in a TLB-like structure ([`CmtCache`]);
//! cache misses cost metadata bandwidth.

use avr_types::{BlockAddr, LINES_PER_BLOCK};

/// Per-block metadata. Field widths follow Fig. 3: size 3 b, method 2 b,
/// bias 8 b, #lazy 4 b, #failed 4 b, #skipped 2 b (= 23 b) plus the leading
/// compressed flag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CmtEntry {
    /// Is the block currently stored compressed in memory?
    pub compressed: bool,
    /// Compressed size in cachelines, 1..=8, encoded as size-1 in 3 bits.
    /// Meaningless when `compressed` is false.
    pub size_lines: u8,
    /// Lazily evicted uncompressed lines currently parked in the block.
    pub n_lazy: u8,
    /// The 2-bit method field (layout x datatype).
    pub method: u8,
    /// Exponent bias of the stored summary.
    pub bias: i8,
    /// Consecutive failed compression attempts (saturating, 4 bits).
    pub n_failed: u8,
    /// Recompression attempts skipped since the last real attempt (2 bits).
    pub n_skipped: u8,
}

impl CmtEntry {
    /// Free lines available for lazy evictions.
    pub fn lazy_space(&self) -> u8 {
        if !self.compressed {
            return 0;
        }
        (LINES_PER_BLOCK as u8) - self.size_lines - self.n_lazy
    }

    /// Should the next compression attempt be skipped? The paper keeps a
    /// failure count and skips "a number of recompression attempts"
    /// accordingly; our policy skips
    /// `min(n_failed, 3)` attempts after `n_failed` consecutive failures.
    pub fn should_skip(&self) -> bool {
        self.n_skipped < self.n_failed.min(3)
    }

    /// Record a skipped attempt.
    pub fn record_skip(&mut self) {
        self.n_skipped = (self.n_skipped + 1).min(3);
    }

    /// Record the outcome of a real compression attempt.
    pub fn record_attempt(&mut self, success: bool) {
        self.n_skipped = 0;
        if success {
            self.n_failed = 0;
        } else {
            self.n_failed = (self.n_failed + 1).min(15);
        }
    }

    /// Pack into the 24-bit hardware format (1 + 23 bits).
    pub fn encode(&self) -> u32 {
        debug_assert!(self.size_lines >= 1 || !self.compressed);
        debug_assert!(self.size_lines <= 8);
        debug_assert!(self.n_lazy < 16);
        debug_assert!(self.method < 4);
        debug_assert!(self.n_failed < 16);
        debug_assert!(self.n_skipped < 4);
        let size_field = if self.compressed { (self.size_lines - 1) as u32 } else { 0 };
        (self.compressed as u32)
            | size_field << 1
            | (self.n_lazy as u32) << 4
            | (self.method as u32) << 8
            | ((self.bias as u8) as u32) << 10
            | (self.n_failed as u32) << 18
            | (self.n_skipped as u32) << 22
    }

    /// Unpack from the 24-bit hardware format.
    pub fn decode(bits: u32) -> Self {
        let compressed = bits & 1 == 1;
        CmtEntry {
            compressed,
            size_lines: if compressed { ((bits >> 1) & 0x7) as u8 + 1 } else { 0 },
            n_lazy: ((bits >> 4) & 0xF) as u8,
            method: ((bits >> 8) & 0x3) as u8,
            bias: ((bits >> 10) & 0xFF) as u8 as i8,
            n_failed: ((bits >> 18) & 0xF) as u8,
            n_skipped: ((bits >> 22) & 0x3) as u8,
        }
    }
}

/// Blocks covered by one lazily-allocated table segment: 4096 blocks =
/// 4 MB of simulated memory per 32 KB segment.
const CMT_SEG_BLOCKS: usize = 1 << 12;

/// The in-memory table: one entry per approximable block, stored as a
/// paged flat array indexed by block number. `get`/`get_mut` are O(1)
/// direct indexing (the hardware's table *is* a flat region of physical
/// memory); segments materialize on first write, so sparse address spaces
/// stay cheap and the steady-state access path never allocates.
#[derive(Clone, Debug, Default)]
pub struct CmtTable {
    segments: Vec<Option<Box<[CmtEntry; CMT_SEG_BLOCKS]>>>,
}

impl CmtTable {
    #[inline]
    fn split(block: BlockAddr) -> (usize, usize) {
        ((block.0 as usize) / CMT_SEG_BLOCKS, (block.0 as usize) % CMT_SEG_BLOCKS)
    }

    pub fn get(&self, block: BlockAddr) -> CmtEntry {
        let (seg, idx) = Self::split(block);
        match self.segments.get(seg) {
            Some(Some(s)) => s[idx],
            _ => CmtEntry::default(),
        }
    }

    pub fn get_mut(&mut self, block: BlockAddr) -> &mut CmtEntry {
        let (seg, idx) = Self::split(block);
        if seg >= self.segments.len() {
            self.segments.resize_with(seg + 1, || None);
        }
        let slot = &mut self.segments[seg];
        if slot.is_none() {
            *slot = Some(Box::new([CmtEntry::default(); CMT_SEG_BLOCKS]));
        }
        &mut slot.as_mut().expect("just materialized")[idx]
    }

    pub fn set(&mut self, block: BlockAddr, e: CmtEntry) {
        *self.get_mut(block) = e;
    }

    /// Iterate all non-default entries (footprint accounting).
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, &CmtEntry)> {
        let default = CmtEntry::default();
        self.segments.iter().enumerate().flat_map(move |(si, seg)| {
            seg.iter().flat_map(move |s| {
                s.iter()
                    .enumerate()
                    .filter(move |(_, e)| **e != default)
                    .map(move |(i, e)| (BlockAddr((si * CMT_SEG_BLOCKS + i) as u64), e))
            })
        })
    }

    /// Number of non-default entries.
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The on-chip CMT cache, updated in pair with the TLB: page-granularity,
/// fully associative LRU over `capacity_pages` entries. A miss costs a
/// metadata fetch (~12 B: 4 entries x 23 bits + the TLB approx bit).
///
/// Residency is tracked in a flat open-addressed table (linear probing,
/// backward-shift deletion) sized at construction: the per-access hit path
/// probes a few adjacent slots and never allocates. LRU decisions are
/// exactly those of a fully-associative cache (each entry carries its
/// last-use clock; eviction scans for the minimum, which only runs on
/// misses with a full cache).
#[derive(Clone, Debug)]
pub struct CmtCache {
    capacity_pages: usize,
    slots: Vec<CacheSlot>,
    mask: usize,
    len: usize,
    clock: u64,
    pub hits: u64,
    pub misses: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct CacheSlot {
    used: bool,
    page: u64,
    last_use: u64,
}

/// Metadata bytes transferred on a CMT-cache miss (93 bits rounded up).
pub const CMT_MISS_BYTES: u64 = 12;

impl CmtCache {
    pub fn new(capacity_pages: usize) -> Self {
        assert!(capacity_pages > 0);
        // 2x capacity keeps probe chains short; power of two for masking.
        let table = (capacity_pages * 2).next_power_of_two();
        CmtCache {
            capacity_pages,
            slots: vec![CacheSlot::default(); table],
            mask: table - 1,
            len: 0,
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn home(&self, page: u64) -> usize {
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & self.mask
    }

    /// Backward-shift deletion keeps probe chains compact (no tombstones).
    fn remove_at(&mut self, mut i: usize) {
        self.len -= 1;
        loop {
            self.slots[i].used = false;
            let mut j = i;
            loop {
                j = (j + 1) & self.mask;
                if !self.slots[j].used {
                    return;
                }
                let home = self.home(self.slots[j].page);
                // Can entry j legally move up to the hole at i?
                if (j.wrapping_sub(home) & self.mask) >= (j.wrapping_sub(i) & self.mask) {
                    self.slots[i] = self.slots[j];
                    i = j;
                    break;
                }
            }
        }
    }

    /// Touch the page holding `block`'s metadata; returns `true` on hit.
    /// On a miss the caller charges [`CMT_MISS_BYTES`] of traffic.
    pub fn touch(&mut self, block: BlockAddr) -> bool {
        self.clock += 1;
        let page = block.page();
        let mut i = self.home(page);
        while self.slots[i].used {
            if self.slots[i].page == page {
                self.slots[i].last_use = self.clock;
                self.hits += 1;
                return true;
            }
            i = (i + 1) & self.mask;
        }
        self.misses += 1;
        if self.len >= self.capacity_pages {
            // Evict the LRU page (full scan; runs only on capacity misses,
            // like the min-scan of the fully-associative model).
            let victim = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.used)
                .min_by_key(|(_, s)| s.last_use)
                .map(|(i, _)| i)
                .expect("cache is full");
            self.remove_at(victim);
        }
        // Re-probe: the backward shift may have moved entries around.
        let mut i = self.home(page);
        while self.slots[i].used {
            i = (i + 1) & self.mask;
        }
        self.slots[i] = CacheSlot { used: true, page, last_use: self.clock };
        self.len += 1;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_encodes_into_24_bits() {
        let e = CmtEntry {
            compressed: true,
            size_lines: 8,
            n_lazy: 15,
            method: 3,
            bias: -128,
            n_failed: 15,
            n_skipped: 3,
        };
        let bits = e.encode();
        assert!(bits < 1 << 24, "entry must fit 1+23 bits, got {bits:#x}");
        assert_eq!(CmtEntry::decode(bits), e);
    }

    #[test]
    fn encode_round_trips_edge_values() {
        for compressed in [false, true] {
            for size in 1..=8u8 {
                for bias in [-128i8, -1, 0, 1, 127] {
                    let e = CmtEntry {
                        compressed,
                        size_lines: if compressed { size } else { 0 },
                        n_lazy: size % 8,
                        method: size % 4,
                        bias,
                        n_failed: size,
                        n_skipped: size % 4,
                    };
                    assert_eq!(CmtEntry::decode(e.encode()), e);
                }
            }
        }
    }

    #[test]
    fn lazy_space_accounting() {
        let e = CmtEntry { compressed: true, size_lines: 3, n_lazy: 5, ..Default::default() };
        assert_eq!(e.lazy_space(), 8);
        let full = CmtEntry { compressed: true, size_lines: 8, n_lazy: 8, ..Default::default() };
        assert_eq!(full.lazy_space(), 0);
        let uncomp = CmtEntry::default();
        assert_eq!(uncomp.lazy_space(), 0);
    }

    #[test]
    fn skip_policy_backs_off_with_failures() {
        let mut e = CmtEntry::default();
        // First failure -> skip 1 attempt.
        e.record_attempt(false);
        assert!(e.should_skip());
        e.record_skip();
        assert!(!e.should_skip());
        // Second consecutive failure -> skip 2.
        e.record_attempt(false);
        assert_eq!(e.n_failed, 2);
        assert!(e.should_skip());
        e.record_skip();
        assert!(e.should_skip());
        e.record_skip();
        assert!(!e.should_skip());
        // Success clears the history.
        e.record_attempt(true);
        assert_eq!(e.n_failed, 0);
        assert!(!e.should_skip());
    }

    #[test]
    fn failures_saturate_at_15_and_skips_cap_at_3() {
        let mut e = CmtEntry::default();
        for _ in 0..40 {
            e.record_attempt(false);
        }
        assert_eq!(e.n_failed, 15);
        assert!(e.should_skip());
        for _ in 0..3 {
            e.record_skip();
        }
        // Even with 15 failures, at most 3 skips before retrying.
        assert!(!e.should_skip());
    }

    #[test]
    fn table_defaults_to_uncompressed() {
        let t = CmtTable::default();
        let e = t.get(BlockAddr(42));
        assert!(!e.compressed);
        assert_eq!(e.n_lazy, 0);
    }

    #[test]
    fn cmt_cache_hits_after_touch() {
        let mut c = CmtCache::new(2);
        let b = BlockAddr(4); // page 1
        assert!(!c.touch(b));
        assert!(c.touch(b));
        assert!(c.touch(BlockAddr(5))); // same page
        assert_eq!(c.hits, 2);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn table_indexes_sparse_blocks_across_segments() {
        let mut t = CmtTable::default();
        let far = [BlockAddr(0), BlockAddr(4095), BlockAddr(4096), BlockAddr(1 << 22)];
        for (i, &b) in far.iter().enumerate() {
            t.get_mut(b).n_lazy = i as u8 + 1;
        }
        for (i, &b) in far.iter().enumerate() {
            assert_eq!(t.get(b).n_lazy, i as u8 + 1);
        }
        // Untouched neighbours read as default without materializing.
        assert_eq!(t.get(BlockAddr(4097)), CmtEntry::default());
        assert_eq!(t.len(), far.len());
        let mut seen: Vec<u64> = t.iter().map(|(b, _)| b.0).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 4095, 4096, 1 << 22]);
    }

    #[test]
    fn cmt_cache_matches_naive_lru_model() {
        // The open-addressed cache must make exactly the decisions of a
        // fully-associative LRU over random page streams.
        let mut state = 0xC3A7u64;
        for capacity in [1usize, 2, 7, 64] {
            let mut cache = CmtCache::new(capacity);
            let mut model: Vec<u64> = Vec::new(); // MRU at the back
            for _ in 0..4000 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let page = (state >> 33) % 97;
                let block = BlockAddr(page * 4); // 4 blocks per page
                let hit = cache.touch(block);
                let model_hit = model.contains(&page);
                assert_eq!(hit, model_hit, "page {page} cap {capacity}");
                model.retain(|&p| p != page);
                if !model_hit && model.len() == capacity {
                    model.remove(0); // evict LRU
                }
                model.push(page);
            }
        }
    }

    #[test]
    fn cmt_cache_evicts_lru_page() {
        let mut c = CmtCache::new(2);
        let (p0, p1, p2) = (BlockAddr(0), BlockAddr(4), BlockAddr(8));
        c.touch(p0);
        c.touch(p1);
        c.touch(p0); // p1 is now LRU
        c.touch(p2); // evicts p1
        assert!(c.touch(p0));
        assert!(!c.touch(p1), "p1 must have been evicted");
    }
}
