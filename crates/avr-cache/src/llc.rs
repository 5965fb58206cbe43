//! The decoupled AVR Last-Level Cache (paper §3.4, Fig. 6).
//!
//! Following Seznec's Decoupled Sectored Cache, the tag array works at
//! *memory-block* granularity (16 cachelines) while the data array and its
//! back-pointer array (BPA) work at *cacheline* granularity. A single tag
//! entry is shared by all of a block's resident lines: its uncompressed
//! cachelines (UCL) and the sub-blocks of its compressed image (CMS).
//!
//! Indexing (Fig. 6): with `n` index bits, a block's tag and its CMS₀ live
//! at set `block mod 2^n` (the *tag index*), CMSᵢ at the `i`-th subsequent
//! set, and a UCL at set `line mod 2^n` (the *UCL index*). UCLs and CMSs of
//! one block therefore map to different sets and do not reduce effective
//! associativity.
//!
//! The simulator keeps data in the central backing store; entries here hold
//! presence/dirtiness/recency plus the full back-pointer (the hardware
//! stores only `tag-way` + 4-bit `CL-id`; the cost model in
//! `avr-core::overhead` charges the paper's 18 bits per entry).

use avr_types::{BlockAddr, CacheGeometry, LineAddr, LINES_PER_BLOCK};

use crate::set_assoc::first_min;

/// An entity pushed out of the LLC.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Evicted {
    /// An uncompressed cacheline left the cache.
    Ucl { line: LineAddr, dirty: bool },
    /// The compressed image of `block` left the cache (evicting any CMS
    /// evicts them all — partial compressed blocks are useless).
    CmsBlock { block: BlockAddr, dirty: bool, size_lines: u8 },
}

/// Set of cacheline ids (0..16) within one block, as a bitmask — what
/// `ucls_of`/`dirty_ucls_of` return instead of a `Vec<u8>`.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct ClMask(pub u16);

impl ClMask {
    #[inline]
    pub fn contains(self, cl: u8) -> bool {
        (self.0 >> cl) & 1 == 1
    }

    #[inline]
    pub fn insert(&mut self, cl: u8) {
        self.0 |= 1 << cl;
    }

    #[inline]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Ascending cl-ids in the mask.
    pub fn iter(self) -> impl Iterator<Item = u8> {
        (0..LINES_PER_BLOCK as u8).filter(move |&cl| self.contains(cl))
    }

    /// Materialize as a `Vec` (test/diagnostic convenience; allocates).
    pub fn to_vec(self) -> Vec<u8> {
        self.iter().collect()
    }
}

impl std::fmt::Debug for ClMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Packed data-array key of a block's UCL `cl` (`kind` 0..16) or CMS
/// sub-block `idx` (`kind` 16 + idx): `((block << 5) | kind) + 1`, so 0 marks
/// an invalid way.
#[inline]
fn bpa_key(block: BlockAddr, kind: u8) -> u64 {
    ((block.0 << 5) | kind as u64) + 1
}

/// First `kind` of a CMS sub-block in [`bpa_key`].
const CMS_KIND: u8 = LINES_PER_BLOCK as u8;

#[inline]
fn cms_key(block: BlockAddr, idx: u8) -> u64 {
    bpa_key(block, CMS_KIND + idx)
}

/// Owning block and `kind` of a valid data-array key.
#[inline]
fn unpack(key: u64) -> (BlockAddr, u8) {
    (BlockAddr((key - 1) >> 5), ((key - 1) & 31) as u8)
}

/// What a valid tag maps besides its key and stamp.
#[derive(Clone, Copy, Debug, Default)]
struct TagCounts {
    /// Cachelines of the compressed image resident (0 = absent).
    cms_count: u8,
    /// Uncompressed cachelines of the block resident.
    ucl_count: u8,
    /// The compressed image differs from memory.
    block_dirty: bool,
}

/// LLC activity counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LlcStats {
    pub ucl_hits: u64,
    pub misses: u64,
    pub tag_evictions: u64,
}

/// The decoupled AVR LLC.
///
/// Both arrays are struct-of-arrays over `set * ways + way` slots. The tag
/// array keeps `block + 1` per way (0 = invalid), the data array (BPA) a
/// packed `((block << 5) | kind) + 1`; lookups scan only those keys.
/// Recency stamps sit in parallel arrays, 0 while a way is invalid and at
/// least 1 once filled, so one first-minimum scan over a set's stamps picks
/// the victim: the first free way, else the first least-recently-used one.
/// Ways can tie only in the BPA (a UCL hit restamps the block's CMSs with
/// the UCL's clock, and a UCL's set can be one of its CMS sets); the lower
/// way goes first.
#[derive(Clone, Debug)]
pub struct AvrLlc {
    sets: usize,
    ways: usize,
    latency: u64,
    tag_keys: Vec<u64>,
    tag_stamps: Vec<u64>,
    tag_counts: Vec<TagCounts>,
    bpa_keys: Vec<u64>,
    bpa_stamps: Vec<u64>,
    bpa_dirty: Vec<bool>,
    clock: u64,
    pub stats: LlcStats,
}

impl AvrLlc {
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = geom.sets();
        assert!(sets.is_power_of_two() && sets >= LINES_PER_BLOCK);
        let n = sets * geom.ways;
        AvrLlc {
            sets,
            ways: geom.ways,
            latency: geom.latency,
            tag_keys: vec![0; n],
            tag_stamps: vec![0; n],
            tag_counts: vec![TagCounts::default(); n],
            bpa_keys: vec![0; n],
            bpa_stamps: vec![0; n],
            bpa_dirty: vec![false; n],
            clock: 0,
            stats: LlcStats::default(),
        }
    }

    pub fn latency(&self) -> u64 {
        self.latency
    }

    #[inline]
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    #[inline]
    fn tag_index(&self, block: BlockAddr) -> usize {
        (block.0 as usize) & (self.sets - 1)
    }

    #[inline]
    fn ucl_index(&self, line: LineAddr) -> usize {
        (line.0 as usize) & (self.sets - 1)
    }

    #[inline]
    fn cms_set(&self, block: BlockAddr, idx: u8) -> usize {
        (self.tag_index(block) + idx as usize) & (self.sets - 1)
    }

    fn find_tag(&self, block: BlockAddr) -> Option<usize> {
        let base = self.tag_index(block) * self.ways;
        let key = block.0 + 1;
        self.tag_keys[base..base + self.ways].iter().position(|&k| k == key).map(|w| base + w)
    }

    fn find_bpa(&self, set: usize, key: u64) -> Option<usize> {
        let base = set * self.ways;
        self.bpa_keys[base..base + self.ways].iter().position(|&k| k == key).map(|w| base + w)
    }

    #[inline]
    fn find_ucl(&self, line: LineAddr) -> Option<usize> {
        self.find_bpa(self.ucl_index(line), bpa_key(line.block(), line.cl_offset() as u8))
    }

    #[inline]
    fn find_cms(&self, block: BlockAddr, idx: u8) -> Option<usize> {
        self.find_bpa(self.cms_set(block, idx), cms_key(block, idx))
    }

    #[inline]
    fn clear_tag(&mut self, t: usize) {
        self.tag_keys[t] = 0;
        self.tag_stamps[t] = 0;
        self.tag_counts[t] = TagCounts::default();
    }

    #[inline]
    fn clear_bpa(&mut self, i: usize) {
        self.bpa_keys[i] = 0;
        self.bpa_stamps[i] = 0;
        self.bpa_dirty[i] = false;
    }

    /// Drop every resident CMS of `block`'s `count`-line image.
    fn clear_cms_image(&mut self, block: BlockAddr, count: u8) {
        for idx in 0..count {
            if let Some(i) = self.find_cms(block, idx) {
                self.clear_bpa(i);
            }
        }
    }

    /// One UCL of `block` left: free its tag if the tag maps nothing else.
    fn drop_ucl_from_tag(&mut self, block: BlockAddr) {
        if let Some(t) = self.find_tag(block) {
            let c = &mut self.tag_counts[t];
            c.ucl_count -= 1;
            if c.ucl_count == 0 && c.cms_count == 0 {
                self.clear_tag(t);
            }
        }
    }

    // ------------------------------------------------------------------
    // Lookups
    // ------------------------------------------------------------------

    /// Non-destructive presence check for a UCL.
    pub fn probe_ucl(&self, line: LineAddr) -> bool {
        self.find_ucl(line).is_some()
    }

    /// Presence check for the compressed image of `block`; returns its size.
    pub fn probe_cms(&self, block: BlockAddr) -> Option<u8> {
        let c = self.tag_counts[self.find_tag(block)?].cms_count;
        (c > 0).then_some(c)
    }

    /// UCL lookup (paper Fig. 6): on a hit the UCL's recency refreshes, the
    /// block tag's LRU refreshes, and the block's CMS entries refresh too
    /// ("the CMS LRU bits are updated when any UCL of the block is
    /// accessed"). Counts hit/miss statistics.
    pub fn access_ucl(&mut self, line: LineAddr, write: bool) -> bool {
        let now = self.tick();
        let Some(i) = self.find_ucl(line) else {
            self.stats.misses += 1;
            return false;
        };
        self.bpa_stamps[i] = now;
        self.bpa_dirty[i] |= write;
        let block = line.block();
        if let Some(t) = self.find_tag(block) {
            self.tag_stamps[t] = now;
            for idx in 0..self.tag_counts[t].cms_count {
                if let Some(c) = self.find_cms(block, idx) {
                    self.bpa_stamps[c] = now;
                }
            }
        }
        self.stats.ucl_hits += 1;
        true
    }

    /// Was the UCL dirty? (no LRU effect)
    pub fn ucl_dirty(&self, line: LineAddr) -> Option<bool> {
        self.find_ucl(line).map(|i| self.bpa_dirty[i])
    }

    /// cl-ids of the block's resident UCLs, as a bitmask (no allocation).
    pub fn ucls_of(&self, block: BlockAddr) -> ClMask {
        let mut out = ClMask::default();
        for cl in 0..LINES_PER_BLOCK as u8 {
            if self.probe_ucl(block.line(cl as usize)) {
                out.insert(cl);
            }
        }
        out
    }

    /// cl-ids of the block's *dirty* resident UCLs, as a bitmask.
    pub fn dirty_ucls_of(&self, block: BlockAddr) -> ClMask {
        let mut out = ClMask::default();
        for cl in 0..LINES_PER_BLOCK as u8 {
            if self.ucl_dirty(block.line(cl as usize)) == Some(true) {
                out.insert(cl);
            }
        }
        out
    }

    /// Mark all the block's UCLs clean (after their data was folded into a
    /// recompression that reached memory).
    pub fn clean_ucls_of(&mut self, block: BlockAddr) {
        for cl in 0..LINES_PER_BLOCK {
            if let Some(i) = self.find_ucl(block.line(cl)) {
                self.bpa_dirty[i] = false;
            }
        }
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Ensure a tag entry exists for `block`, evicting a victim block
    /// entirely if the tag set is full. Appends eviction events to `out`
    /// and returns the tag slot.
    fn ensure_tag(&mut self, block: BlockAddr, out: &mut Vec<Evicted>) -> usize {
        let now = self.tick();
        if let Some(t) = self.find_tag(block) {
            return t;
        }
        let base = self.tag_index(block) * self.ways;
        let t = base + first_min(&self.tag_stamps[base..base + self.ways]);
        if self.tag_keys[t] != 0 {
            // Evict the LRU tag and everything it maps.
            self.evict_block(BlockAddr(self.tag_keys[t] - 1), out);
            self.stats.tag_evictions += 1;
        }
        self.tag_keys[t] = block.0 + 1;
        self.tag_stamps[t] = now;
        self.tag_counts[t] = TagCounts::default();
        t
    }

    /// Remove every trace of `block` (tag + all UCLs + CMS image),
    /// appending what fell out to `out`.
    pub fn evict_block(&mut self, block: BlockAddr, out: &mut Vec<Evicted>) {
        let Some(t) = self.find_tag(block) else {
            return;
        };
        // UCLs first.
        for cl in 0..LINES_PER_BLOCK {
            let line = block.line(cl);
            if let Some(i) = self.find_ucl(line) {
                out.push(Evicted::Ucl { line, dirty: self.bpa_dirty[i] });
                self.clear_bpa(i);
            }
        }
        // CMS image.
        let TagCounts { cms_count, block_dirty, .. } = self.tag_counts[t];
        if cms_count > 0 {
            self.clear_cms_image(block, cms_count);
            out.push(Evicted::CmsBlock { block, dirty: block_dirty, size_lines: cms_count });
        }
        self.clear_tag(t);
    }

    /// Pick a victim way in a BPA set (UCLs and CMSs compete equally by
    /// LRU) and evict it. A CMS victim drags its whole compressed block out.
    fn evict_for(&mut self, set: usize, out: &mut Vec<Evicted>) -> usize {
        let base = set * self.ways;
        let victim = base + first_min(&self.bpa_stamps[base..base + self.ways]);
        let key = self.bpa_keys[victim];
        if key == 0 {
            return victim;
        }
        let (block, kind) = unpack(key);
        if kind < CMS_KIND {
            out.push(Evicted::Ucl {
                line: block.line(kind as usize),
                dirty: self.bpa_dirty[victim],
            });
            self.clear_bpa(victim);
            self.drop_ucl_from_tag(block);
        } else if let Some(t) = self.find_tag(block) {
            // Evicting one CMS evicts the whole compressed image; the tag
            // survives if it still maps UCLs (Fig. 8 / §3.4).
            let TagCounts { cms_count, ucl_count, block_dirty } = self.tag_counts[t];
            self.clear_cms_image(block, cms_count);
            out.push(Evicted::CmsBlock { block, dirty: block_dirty, size_lines: cms_count });
            if ucl_count == 0 {
                self.clear_tag(t);
            } else {
                self.tag_counts[t] = TagCounts { ucl_count, ..TagCounts::default() };
            }
        } else {
            debug_assert!(false, "CMS entry without tag");
            self.clear_bpa(victim);
        }
        debug_assert_eq!(self.bpa_keys[victim], 0);
        victim
    }

    /// Insert (or refresh) a UCL, appending everything evicted to make room
    /// to `out`.
    pub fn insert_ucl(&mut self, line: LineAddr, dirty: bool, out: &mut Vec<Evicted>) {
        let block = line.block();
        let key = bpa_key(block, line.cl_offset() as u8);
        let set = self.ucl_index(line);
        let now = self.tick();

        if let Some(i) = self.find_bpa(set, key) {
            self.bpa_stamps[i] = now;
            self.bpa_dirty[i] |= dirty;
            if let Some(t) = self.find_tag(block) {
                self.tag_stamps[t] = now;
            }
            return;
        }

        self.ensure_tag(block, out);
        // The data-way eviction below may hit any entry — including this
        // block's *own* CMS image (a UCL set can coincide with one of the
        // block's CMS sets). Evicting that image with ucl_count still 0
        // frees the tag we just installed, so re-ensure it afterwards.
        let slot = self.evict_for(set, out);
        self.bpa_keys[slot] = key;
        self.bpa_stamps[slot] = now;
        self.bpa_dirty[slot] = dirty;
        let t = match self.find_tag(block) {
            Some(t) => t,
            None => self.ensure_tag(block, out),
        };
        self.tag_counts[t].ucl_count += 1;
        self.tag_stamps[t] = now;
    }

    /// Drop a UCL (e.g. superseded), returning whether it was dirty.
    pub fn invalidate_ucl(&mut self, line: LineAddr) -> Option<bool> {
        let i = self.find_ucl(line)?;
        let dirty = self.bpa_dirty[i];
        self.clear_bpa(i);
        self.drop_ucl_from_tag(line.block());
        Some(dirty)
    }

    /// Install the compressed image of `block` (`size_lines` CMSs at
    /// consecutive sets starting from the tag index). Replaces any previous
    /// image. Appends eviction events for displaced entries to `out`.
    pub fn insert_cms(
        &mut self,
        block: BlockAddr,
        size_lines: u8,
        dirty: bool,
        out: &mut Vec<Evicted>,
    ) {
        assert!(size_lines >= 1 && size_lines as usize <= LINES_PER_BLOCK);
        let t = self.ensure_tag(block, out);

        // Drop a stale image (recompression may change the size).
        self.clear_cms_image(block, self.tag_counts[t].cms_count);

        let now = self.tick();
        for idx in 0..size_lines {
            let slot = self.evict_for(self.cms_set(block, idx), out);
            self.bpa_keys[slot] = cms_key(block, idx);
            self.bpa_stamps[slot] = now;
            self.bpa_dirty[slot] = false;
        }
        // `evict_for` cannot drop a freshly-inserted CMS of this block
        // (consecutive sets are distinct for size <= 16 <= sets), but it
        // *can* evict the block's last UCL, freeing the tag while
        // cms_count is still 0 — re-ensure it.
        let t = match self.find_tag(block) {
            Some(t) => t,
            None => self.ensure_tag(block, out),
        };
        self.tag_counts[t].cms_count = size_lines;
        self.tag_counts[t].block_dirty = dirty;
        // "The LRU of a block tag is updated ... when the block is
        // recompressed."
        self.tag_stamps[t] = now;
    }

    /// Remove the compressed image (e.g. after writing it back), keeping
    /// UCLs and the tag if any remain. Returns (dirty, size).
    pub fn remove_cms(&mut self, block: BlockAddr) -> Option<(bool, u8)> {
        let t = self.find_tag(block)?;
        let TagCounts { cms_count, ucl_count, block_dirty } = self.tag_counts[t];
        if cms_count == 0 {
            return None;
        }
        self.clear_cms_image(block, cms_count);
        if ucl_count == 0 {
            self.clear_tag(t);
        } else {
            self.tag_counts[t] = TagCounts { ucl_count, ..TagCounts::default() };
        }
        Some((block_dirty, cms_count))
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// Fraction of data-array entries holding CMSs (the paper reports AVR
    /// devotes 2–16 % of LLC capacity to compressed blocks).
    pub fn cms_fraction(&self) -> f64 {
        let cms = self.bpa_keys.iter().filter(|&&k| k != 0 && unpack(k).1 >= CMS_KIND).count();
        cms as f64 / self.bpa_keys.len() as f64
    }

    /// Internal consistency check: every BPA entry's block has a valid
    /// tag, tag counts match the BPA contents, and invalid ways carry
    /// stamp 0 and valid ways stamps >= 1 (what victim selection relies
    /// on). The HashMap walk is compiled only under `debug_assertions`
    /// (tests / debug builds) so release simulation loops that call it
    /// defensively pay nothing.
    pub fn check_invariants(&self) {
        #[cfg(debug_assertions)]
        {
            use std::collections::HashMap;
            let mut ucls: HashMap<BlockAddr, u8> = HashMap::new();
            let mut cmss: HashMap<BlockAddr, u8> = HashMap::new();
            for (i, &k) in self.bpa_keys.iter().enumerate() {
                assert_eq!(k != 0, self.bpa_stamps[i] != 0, "BPA slot {i}: stamp vs validity");
                if k == 0 {
                    assert!(!self.bpa_dirty[i], "BPA slot {i}: dirty while invalid");
                    continue;
                }
                let (block, kind) = unpack(k);
                let counts = if kind < CMS_KIND { &mut ucls } else { &mut cmss };
                *counts.entry(block).or_default() += 1;
            }
            for (t, &k) in self.tag_keys.iter().enumerate() {
                assert_eq!(k != 0, self.tag_stamps[t] != 0, "tag slot {t}: stamp vs validity");
                if k == 0 {
                    continue;
                }
                let block = BlockAddr(k - 1);
                let c = self.tag_counts[t];
                assert_eq!(
                    c.ucl_count,
                    ucls.get(&block).copied().unwrap_or(0),
                    "ucl_count mismatch for {block:?}"
                );
                assert_eq!(
                    c.cms_count,
                    cmss.get(&block).copied().unwrap_or(0),
                    "cms_count mismatch for {block:?}"
                );
            }
            for b in ucls.keys().chain(cmss.keys()) {
                assert!(self.find_tag(*b).is_some(), "orphan BPA entries for {b:?}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avr_types::CacheGeometry;

    /// 64 sets x 4 ways = 16 KB — small enough to force evictions.
    fn llc() -> AvrLlc {
        AvrLlc::new(CacheGeometry { capacity: 64 * 4 * 64, ways: 4, latency: 15 })
    }

    fn ucl(c: &mut AvrLlc, line: LineAddr, dirty: bool) -> Vec<Evicted> {
        let mut out = Vec::new();
        c.insert_ucl(line, dirty, &mut out);
        out
    }

    fn cms(c: &mut AvrLlc, block: BlockAddr, size_lines: u8, dirty: bool) -> Vec<Evicted> {
        let mut out = Vec::new();
        c.insert_cms(block, size_lines, dirty, &mut out);
        out
    }

    #[test]
    fn ucl_miss_then_hit() {
        let mut c = llc();
        let line = BlockAddr(5).line(3);
        assert!(!c.access_ucl(line, false));
        let evs = ucl(&mut c, line, false);
        assert!(evs.is_empty());
        assert!(c.access_ucl(line, false));
        assert!(c.probe_ucl(line));
        c.check_invariants();
    }

    #[test]
    fn ucl_and_cms_coexist_for_one_tag() {
        let mut c = llc();
        let b = BlockAddr(9);
        cms(&mut c, b, 3, false);
        ucl(&mut c, b.line(0), false);
        ucl(&mut c, b.line(7), true);
        assert_eq!(c.probe_cms(b), Some(3));
        assert!(c.probe_ucl(b.line(0)));
        assert_eq!(c.ucls_of(b).to_vec(), vec![0, 7]);
        assert_eq!(c.dirty_ucls_of(b).to_vec(), vec![7]);
        c.check_invariants();
    }

    #[test]
    fn cms_sets_are_consecutive_from_tag_index() {
        let c = llc();
        let b = BlockAddr(10);
        assert_eq!(c.cms_set(b, 0), 10);
        assert_eq!(c.cms_set(b, 5), 15);
        // Wraps modulo set count.
        let b2 = BlockAddr(63);
        assert_eq!(c.cms_set(b2, 2), 1);
    }

    #[test]
    fn packed_keys_round_trip_and_never_collide_with_invalid() {
        for block in [BlockAddr(0), BlockAddr(1), BlockAddr(0x3_FFFF_FFFF)] {
            for cl in 0..LINES_PER_BLOCK as u8 {
                assert_ne!(bpa_key(block, cl), 0);
                assert_eq!(unpack(bpa_key(block, cl)), (block, cl));
                assert_eq!(unpack(cms_key(block, cl)), (block, CMS_KIND + cl));
                assert_ne!(bpa_key(block, cl), cms_key(block, cl));
            }
        }
    }

    #[test]
    fn evicting_one_cms_evicts_whole_image() {
        let mut c = llc();
        let b = BlockAddr(20);
        cms(&mut c, b, 4, true);
        // Fill set 21 (= CMS idx 1's set) with UCLs from other blocks whose
        // lines index to set 21.
        let mut evs = Vec::new();
        for k in 0..4u64 {
            // line addr ≡ 21 (mod 64): use blocks far apart.
            let line = LineAddr(21 + 64 * (k + 1) * 16);
            c.insert_ucl(line, false, &mut evs);
        }
        // One of those insertions must have displaced the CMS, dragging the
        // whole compressed image out, dirty.
        assert!(
            evs.iter().any(|e| matches!(
                e,
                Evicted::CmsBlock { block, dirty: true, size_lines: 4 } if *block == b
            )),
            "{evs:?}"
        );
        assert_eq!(c.probe_cms(b), None);
        c.check_invariants();
    }

    #[test]
    fn tag_survives_cms_eviction_if_ucls_remain() {
        let mut c = llc();
        let b = BlockAddr(30);
        cms(&mut c, b, 2, false);
        ucl(&mut c, b.line(4), true);
        c.remove_cms(b);
        assert_eq!(c.probe_cms(b), None);
        assert!(c.probe_ucl(b.line(4)), "UCL must survive");
        c.check_invariants();
    }

    #[test]
    fn tag_eviction_spills_every_line_of_victim_block() {
        let mut c = llc();
        // 4 ways of tags at tag set 0: blocks 0, 64, 128, 192 (mod 64 = 0).
        for k in 0..4u64 {
            let b = BlockAddr(64 * k);
            ucl(&mut c, b.line(1), true);
            ucl(&mut c, b.line(2), false);
        }
        // A fifth block at the same tag set forces a tag eviction; victim
        // is block 0 (LRU).
        let evs = ucl(&mut c, BlockAddr(256).line(1), false);
        let dirty_ucls: Vec<_> =
            evs.iter().filter(|e| matches!(e, Evicted::Ucl { dirty: true, .. })).collect();
        assert_eq!(dirty_ucls.len(), 1, "block 0's dirty line 1 must spill: {evs:?}");
        assert_eq!(evs.len(), 2, "both UCLs of the victim leave");
        assert!(!c.probe_ucl(BlockAddr(0).line(1)));
        c.check_invariants();
    }

    #[test]
    fn evictions_append_after_what_the_queue_already_holds() {
        let mut c = llc();
        for k in 0..4u64 {
            ucl(&mut c, BlockAddr(64 * k).line(1), true);
        }
        let pending = Evicted::Ucl { line: LineAddr(7), dirty: true };
        let mut queue = vec![pending];
        c.insert_ucl(BlockAddr(256).line(1), false, &mut queue);
        assert_eq!(queue, [pending, Evicted::Ucl { line: BlockAddr(0).line(1), dirty: true }]);
    }

    #[test]
    fn recompression_replaces_image_and_updates_size() {
        let mut c = llc();
        let b = BlockAddr(40);
        cms(&mut c, b, 6, false);
        assert_eq!(c.probe_cms(b), Some(6));
        let evs = cms(&mut c, b, 2, true);
        assert!(evs.is_empty(), "shrinking in place evicts nothing: {evs:?}");
        assert_eq!(c.probe_cms(b), Some(2));
        c.check_invariants();
    }

    #[test]
    fn remove_cms_reports_dirtiness_once() {
        let mut c = llc();
        let (clean, dirty) = (BlockAddr(50), BlockAddr(51));
        cms(&mut c, clean, 3, false);
        cms(&mut c, dirty, 3, true);
        assert_eq!(c.remove_cms(clean), Some((false, 3)));
        assert_eq!(c.remove_cms(dirty), Some((true, 3)));
        assert_eq!(c.remove_cms(dirty), None);
        c.check_invariants();
    }

    #[test]
    fn invalidate_ucl_frees_tag_when_last() {
        let mut c = llc();
        let b = BlockAddr(11);
        ucl(&mut c, b.line(3), true);
        assert_eq!(c.invalidate_ucl(b.line(3)), Some(true));
        assert_eq!(c.invalidate_ucl(b.line(3)), None);
        // Tag must be gone: inserting a new block in the same tag set
        // should not trigger a tag eviction.
        let before = c.stats.tag_evictions;
        for k in 1..=4u64 {
            ucl(&mut c, BlockAddr(11 + 64 * k).line(0), false);
        }
        assert_eq!(c.stats.tag_evictions, before);
        c.check_invariants();
    }

    #[test]
    fn ucl_access_refreshes_block_cms_recency() {
        let mut c = llc();
        let b = BlockAddr(2);
        cms(&mut c, b, 1, false); // CMS0 at set 2
        ucl(&mut c, b.line(5), false);
        // Age the CMS by inserting other UCLs into set 2.
        for k in 1..=3u64 {
            ucl(&mut c, LineAddr(2 + 16 * 64 * k), false);
        }
        // Touch the block's UCL: its CMS becomes MRU again.
        c.access_ucl(b.line(5), false);
        // Now overflow set 2: the victim must be one of the other UCLs,
        // not the CMS.
        let evs = ucl(&mut c, LineAddr(2 + 16 * 64 * 9), false);
        assert!(
            evs.iter().all(|e| matches!(e, Evicted::Ucl { .. })),
            "CMS must have been protected by the UCL touch: {evs:?}"
        );
        assert_eq!(c.probe_cms(b), Some(1));
        c.check_invariants();
    }

    #[test]
    fn ucl_and_cms_of_one_block_map_to_distinct_roles() {
        let mut c = llc();
        let b = BlockAddr(0);
        // cl 0's UCL set = 0 = CMS0's set; both can coexist in different
        // ways of the same set.
        cms(&mut c, b, 1, false);
        ucl(&mut c, b.line(0), false);
        assert!(c.probe_ucl(b.line(0)));
        assert_eq!(c.probe_cms(b), Some(1));
        c.check_invariants();
    }

    #[test]
    fn stats_track_hits_and_misses() {
        let mut c = llc();
        let l = BlockAddr(7).line(0);
        c.access_ucl(l, false);
        ucl(&mut c, l, false);
        c.access_ucl(l, false);
        assert_eq!(c.stats.misses, 1);
        assert_eq!(c.stats.ucl_hits, 1);
    }

    #[test]
    fn cms_fraction_reflects_occupancy() {
        let mut c = llc();
        assert_eq!(c.cms_fraction(), 0.0);
        cms(&mut c, BlockAddr(1), 8, false);
        let expect = 8.0 / (64.0 * 4.0);
        assert!((c.cms_fraction() - expect).abs() < 1e-12);
    }

    /// The array-of-structs LLC the struct-of-arrays layout replaced, kept
    /// verbatim apart from appending evictions to a `Vec`: the oracle
    /// [`soa_llc_evicts_exactly_the_reference_victims`] compares against.
    /// It also counts victims chosen among equally old ways, so a stream
    /// can show that it exercised the way-order tie-break.
    mod reference {
        use super::*;

        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        enum ClKind {
            Ucl { cl_id: u8 },
            Cms { idx: u8 },
        }

        #[derive(Clone, Copy, Debug)]
        struct BpaEntry {
            valid: bool,
            kind: ClKind,
            block: BlockAddr,
            dirty: bool,
            lru: u64,
        }

        const BPA_INVALID: BpaEntry = BpaEntry {
            valid: false,
            kind: ClKind::Ucl { cl_id: 0 },
            block: BlockAddr(0),
            dirty: false,
            lru: 0,
        };

        #[derive(Clone, Copy, Debug)]
        struct TagEntry {
            valid: bool,
            block: BlockAddr,
            cms_count: u8,
            ucl_count: u8,
            block_dirty: bool,
            lru: u64,
        }

        const TAG_INVALID: TagEntry = TagEntry {
            valid: false,
            block: BlockAddr(0),
            cms_count: 0,
            ucl_count: 0,
            block_dirty: false,
            lru: 0,
        };

        pub struct RefLlc {
            sets: usize,
            ways: usize,
            tags: Vec<TagEntry>,
            bpa: Vec<BpaEntry>,
            clock: u64,
            pub stats: LlcStats,
            /// Data-array victims whose stamp another valid way of the set
            /// shares.
            pub tied_victims: u64,
        }

        impl RefLlc {
            pub fn new(geom: CacheGeometry) -> Self {
                let sets = geom.sets();
                RefLlc {
                    sets,
                    ways: geom.ways,
                    tags: vec![TAG_INVALID; sets * geom.ways],
                    bpa: vec![BPA_INVALID; sets * geom.ways],
                    clock: 0,
                    stats: LlcStats::default(),
                    tied_victims: 0,
                }
            }

            fn tick(&mut self) -> u64 {
                self.clock += 1;
                self.clock
            }

            fn tag_index(&self, block: BlockAddr) -> usize {
                (block.0 as usize) & (self.sets - 1)
            }

            fn ucl_index(&self, line: LineAddr) -> usize {
                (line.0 as usize) & (self.sets - 1)
            }

            fn cms_set(&self, block: BlockAddr, idx: u8) -> usize {
                (self.tag_index(block) + idx as usize) & (self.sets - 1)
            }

            fn find_tag(&self, block: BlockAddr) -> Option<usize> {
                let base = self.tag_index(block) * self.ways;
                (base..base + self.ways)
                    .find(|&i| self.tags[i].valid && self.tags[i].block == block)
            }

            fn find_bpa(&self, set: usize, block: BlockAddr, kind: ClKind) -> Option<usize> {
                let base = set * self.ways;
                (base..base + self.ways).find(|&i| {
                    self.bpa[i].valid && self.bpa[i].block == block && self.bpa[i].kind == kind
                })
            }

            pub fn probe_ucl(&self, line: LineAddr) -> bool {
                self.find_bpa(
                    self.ucl_index(line),
                    line.block(),
                    ClKind::Ucl { cl_id: line.cl_offset() as u8 },
                )
                .is_some()
            }

            pub fn probe_cms(&self, block: BlockAddr) -> Option<u8> {
                let t = self.find_tag(block)?;
                let c = self.tags[t].cms_count;
                (c > 0).then_some(c)
            }

            pub fn access_ucl(&mut self, line: LineAddr, write: bool) -> bool {
                let now = self.tick();
                let block = line.block();
                let kind = ClKind::Ucl { cl_id: line.cl_offset() as u8 };
                match self.find_bpa(self.ucl_index(line), block, kind) {
                    Some(i) => {
                        self.bpa[i].lru = now;
                        if write {
                            self.bpa[i].dirty = true;
                        }
                        if let Some(t) = self.find_tag(block) {
                            self.tags[t].lru = now;
                            let count = self.tags[t].cms_count;
                            for idx in 0..count {
                                let set = self.cms_set(block, idx);
                                if let Some(c) = self.find_bpa(set, block, ClKind::Cms { idx }) {
                                    self.bpa[c].lru = now;
                                }
                            }
                        }
                        self.stats.ucl_hits += 1;
                        true
                    }
                    None => {
                        self.stats.misses += 1;
                        false
                    }
                }
            }

            pub fn ucl_dirty(&self, line: LineAddr) -> Option<bool> {
                self.find_bpa(
                    self.ucl_index(line),
                    line.block(),
                    ClKind::Ucl { cl_id: line.cl_offset() as u8 },
                )
                .map(|i| self.bpa[i].dirty)
            }

            pub fn clean_ucls_of(&mut self, block: BlockAddr) {
                for cl in 0..LINES_PER_BLOCK as u8 {
                    let line = block.line(cl as usize);
                    let kind = ClKind::Ucl { cl_id: cl };
                    if let Some(i) = self.find_bpa(self.ucl_index(line), block, kind) {
                        self.bpa[i].dirty = false;
                    }
                }
            }

            fn ensure_tag(&mut self, block: BlockAddr, out: &mut Vec<Evicted>) -> usize {
                let now = self.tick();
                if let Some(i) = self.find_tag(block) {
                    return i;
                }
                let base = self.tag_index(block) * self.ways;
                if let Some(i) = (base..base + self.ways).find(|&i| !self.tags[i].valid) {
                    self.tags[i] = TagEntry { valid: true, block, lru: now, ..TAG_INVALID };
                    return i;
                }
                let victim = (base..base + self.ways)
                    .min_by_key(|&i| self.tags[i].lru)
                    .expect("nonzero ways");
                let victim_block = self.tags[victim].block;
                self.evict_block(victim_block, out);
                self.stats.tag_evictions += 1;
                self.tags[victim] = TagEntry { valid: true, block, lru: now, ..TAG_INVALID };
                victim
            }

            pub fn evict_block(&mut self, block: BlockAddr, out: &mut Vec<Evicted>) {
                let Some(t) = self.find_tag(block) else {
                    return;
                };
                let cms_count = self.tags[t].cms_count;
                for cl in 0..LINES_PER_BLOCK as u8 {
                    let line = block.line(cl as usize);
                    let kind = ClKind::Ucl { cl_id: cl };
                    if let Some(i) = self.find_bpa(self.ucl_index(line), block, kind) {
                        out.push(Evicted::Ucl { line, dirty: self.bpa[i].dirty });
                        self.bpa[i] = BPA_INVALID;
                    }
                }
                if cms_count > 0 {
                    for idx in 0..cms_count {
                        let set = self.cms_set(block, idx);
                        if let Some(i) = self.find_bpa(set, block, ClKind::Cms { idx }) {
                            self.bpa[i] = BPA_INVALID;
                        }
                    }
                    out.push(Evicted::CmsBlock {
                        block,
                        dirty: self.tags[t].block_dirty,
                        size_lines: cms_count,
                    });
                }
                self.tags[t] = TAG_INVALID;
            }

            fn evict_for(&mut self, set: usize, out: &mut Vec<Evicted>) -> usize {
                let base = set * self.ways;
                if let Some(i) = (base..base + self.ways).find(|&i| !self.bpa[i].valid) {
                    return i;
                }
                let victim = (base..base + self.ways)
                    .min_by_key(|&i| self.bpa[i].lru)
                    .expect("nonzero ways");
                let e = self.bpa[victim];
                let tied = (base..base + self.ways).filter(|&i| self.bpa[i].lru == e.lru).count();
                self.tied_victims += (tied > 1) as u64;
                match e.kind {
                    ClKind::Ucl { cl_id } => {
                        out.push(Evicted::Ucl {
                            line: e.block.line(cl_id as usize),
                            dirty: e.dirty,
                        });
                        self.bpa[victim] = BPA_INVALID;
                        if let Some(t) = self.find_tag(e.block) {
                            self.tags[t].ucl_count -= 1;
                            if self.tags[t].ucl_count == 0 && self.tags[t].cms_count == 0 {
                                self.tags[t] = TAG_INVALID;
                            }
                        }
                    }
                    ClKind::Cms { .. } => {
                        let block = e.block;
                        let t = self.find_tag(block).expect("CMS entry without tag");
                        let count = self.tags[t].cms_count;
                        for idx in 0..count {
                            let s = self.cms_set(block, idx);
                            if let Some(i) = self.find_bpa(s, block, ClKind::Cms { idx }) {
                                self.bpa[i] = BPA_INVALID;
                            }
                        }
                        out.push(Evicted::CmsBlock {
                            block,
                            dirty: self.tags[t].block_dirty,
                            size_lines: count,
                        });
                        self.tags[t].cms_count = 0;
                        self.tags[t].block_dirty = false;
                        if self.tags[t].ucl_count == 0 {
                            self.tags[t] = TAG_INVALID;
                        }
                    }
                }
                victim
            }

            pub fn insert_ucl(&mut self, line: LineAddr, dirty: bool, out: &mut Vec<Evicted>) {
                let block = line.block();
                let kind = ClKind::Ucl { cl_id: line.cl_offset() as u8 };
                let set = self.ucl_index(line);
                let now = self.tick();
                if let Some(i) = self.find_bpa(set, block, kind) {
                    self.bpa[i].lru = now;
                    self.bpa[i].dirty |= dirty;
                    if let Some(t) = self.find_tag(block) {
                        self.tags[t].lru = now;
                    }
                    return;
                }
                self.ensure_tag(block, out);
                let slot = self.evict_for(set, out);
                self.bpa[slot] = BpaEntry { valid: true, kind, block, dirty, lru: now };
                let t = match self.find_tag(block) {
                    Some(t) => t,
                    None => self.ensure_tag(block, out),
                };
                self.tags[t].ucl_count += 1;
                self.tags[t].lru = now;
            }

            pub fn invalidate_ucl(&mut self, line: LineAddr) -> Option<bool> {
                let block = line.block();
                let kind = ClKind::Ucl { cl_id: line.cl_offset() as u8 };
                let i = self.find_bpa(self.ucl_index(line), block, kind)?;
                let dirty = self.bpa[i].dirty;
                self.bpa[i] = BPA_INVALID;
                if let Some(t) = self.find_tag(block) {
                    self.tags[t].ucl_count -= 1;
                    if self.tags[t].ucl_count == 0 && self.tags[t].cms_count == 0 {
                        self.tags[t] = TAG_INVALID;
                    }
                }
                Some(dirty)
            }

            pub fn insert_cms(
                &mut self,
                block: BlockAddr,
                size_lines: u8,
                dirty: bool,
                out: &mut Vec<Evicted>,
            ) {
                let t = self.ensure_tag(block, out);
                let old = self.tags[t].cms_count;
                for idx in 0..old {
                    let s = self.cms_set(block, idx);
                    if let Some(i) = self.find_bpa(s, block, ClKind::Cms { idx }) {
                        self.bpa[i] = BPA_INVALID;
                    }
                }
                let now = self.tick();
                for idx in 0..size_lines {
                    let set = self.cms_set(block, idx);
                    let slot = self.evict_for(set, out);
                    self.bpa[slot] = BpaEntry {
                        valid: true,
                        kind: ClKind::Cms { idx },
                        block,
                        dirty: false,
                        lru: now,
                    };
                }
                let t = match self.find_tag(block) {
                    Some(t) => t,
                    None => self.ensure_tag(block, out),
                };
                self.tags[t].cms_count = size_lines;
                self.tags[t].block_dirty = dirty;
                self.tags[t].lru = now;
            }

            pub fn remove_cms(&mut self, block: BlockAddr) -> Option<(bool, u8)> {
                let t = self.find_tag(block)?;
                let count = self.tags[t].cms_count;
                if count == 0 {
                    return None;
                }
                for idx in 0..count {
                    let s = self.cms_set(block, idx);
                    if let Some(i) = self.find_bpa(s, block, ClKind::Cms { idx }) {
                        self.bpa[i] = BPA_INVALID;
                    }
                }
                let dirty = self.tags[t].block_dirty;
                self.tags[t].cms_count = 0;
                self.tags[t].block_dirty = false;
                if self.tags[t].ucl_count == 0 {
                    self.tags[t] = TAG_INVALID;
                }
                Some((dirty, count))
            }

            pub fn cms_fraction(&self) -> f64 {
                let cms = self
                    .bpa
                    .iter()
                    .filter(|e| e.valid && matches!(e.kind, ClKind::Cms { .. }))
                    .count();
                cms as f64 / self.bpa.len() as f64
            }
        }
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Every observable of `block` agrees between the two models.
    fn assert_block_agrees(fast: &AvrLlc, slow: &reference::RefLlc, block: BlockAddr, ctx: &str) {
        assert_eq!(fast.probe_cms(block), slow.probe_cms(block), "{ctx}: probe_cms {block:?}");
        let (mut ucls, mut dirty) = (ClMask::default(), ClMask::default());
        for cl in 0..LINES_PER_BLOCK as u8 {
            let line = block.line(cl as usize);
            assert_eq!(fast.probe_ucl(line), slow.probe_ucl(line), "{ctx}: probe_ucl {line:?}");
            assert_eq!(fast.ucl_dirty(line), slow.ucl_dirty(line), "{ctx}: ucl_dirty {line:?}");
            if slow.probe_ucl(line) {
                ucls.insert(cl);
            }
            if slow.ucl_dirty(line) == Some(true) {
                dirty.insert(cl);
            }
        }
        assert_eq!(fast.ucls_of(block), ucls, "{ctx}: ucls_of {block:?}");
        assert_eq!(fast.dirty_ucls_of(block), dirty, "{ctx}: dirty_ucls_of {block:?}");
    }

    /// Drives one seeded operation stream through the struct-of-arrays LLC
    /// and the reference on a 16-set geometry, comparing after every op the
    /// eviction events in order, every return value, `stats`,
    /// `cms_fraction`, and the probes of every block the op touched or
    /// evicted (all blocks every 250 ops). With `coincide`, UCL traffic
    /// goes to the sets of a block's first two CMSs (images are 2 or 3
    /// lines) and most lookups re-access a recently inserted UCL, so hits keep
    /// stamping a UCL and a CMS of one set with the same clock. Returns
    /// (tied victims, tag evictions, CMS-image evictions) of the stream.
    fn run_stream(ways: usize, seed: u64, coincide: bool) -> (u64, u64, u64) {
        let geom = CacheGeometry { capacity: 16 * ways * 64, ways, latency: 15 };
        let mut fast = AvrLlc::new(geom);
        let mut slow = reference::RefLlc::new(geom);
        let mut rng = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ ways as u64;
        // More blocks per tag set than ways, so the tag array overflows too
        // (only just when coinciding, to keep the re-accessed UCLs around).
        let per_set = if coincide { ways as u64 + 1 } else { 3 * ways as u64 };
        let (mut got, mut want) = (Vec::new(), Vec::new());
        let mut recent = [LineAddr(0); 8];
        let mut cms_evictions = 0;
        for op in 0..2000u64 {
            let r = splitmix64(&mut rng);
            // 250-op phases alternate between every tag set and two of them.
            let tag_sets = if (op / 250) % 2 == 0 { 16 } else { 2 };
            let block = BlockAddr(16 * (splitmix64(&mut rng) % per_set) + (r >> 40) % tag_sets);
            let size = if r & 0x8000 != 0 { 1 + (r >> 16) % 16 } else { 1 + (r >> 16) % 4 } as u8;
            // `fresh` is inserted, `line` looked up, invalidated and dirtied.
            let (size, fresh, line) = if coincide {
                let fresh = block.line(((block.0 + (r >> 24) % 2) % 16) as usize);
                let line = match (r >> 32) % 4 {
                    0 => fresh,
                    _ => recent[(r >> 28) as usize % recent.len()],
                };
                (2 + size % 2, fresh, line)
            } else {
                let line = block.line(((r >> 24) % 16) as usize);
                (size, line, line)
            };
            let flag = r & 0x100 != 0;
            let ctx = format!("{ways} ways, seed {seed}, coincide {coincide}, op {op}");
            got.clear();
            want.clear();
            match r % 100 {
                0..=24 => {
                    fast.insert_ucl(fresh, flag, &mut got);
                    slow.insert_ucl(fresh, flag, &mut want);
                    recent[op as usize % recent.len()] = fresh;
                }
                25..=39 => {
                    fast.insert_cms(block, size, flag, &mut got);
                    slow.insert_cms(block, size, flag, &mut want);
                }
                40..=69 => {
                    assert_eq!(fast.access_ucl(line, flag), slow.access_ucl(line, flag), "{ctx}");
                }
                70..=76 => {
                    fast.clean_ucls_of(block);
                    slow.clean_ucls_of(block);
                }
                77..=84 => assert_eq!(fast.remove_cms(block), slow.remove_cms(block), "{ctx}"),
                85..=92 => {
                    assert_eq!(fast.invalidate_ucl(line), slow.invalidate_ucl(line), "{ctx}");
                }
                _ => {
                    fast.evict_block(block, &mut got);
                    slow.evict_block(block, &mut want);
                }
            }
            assert_eq!(got, want, "{ctx}: eviction events");
            assert_eq!(fast.stats, slow.stats, "{ctx}: stats");
            assert_eq!(fast.cms_fraction().to_bits(), slow.cms_fraction().to_bits(), "{ctx}");
            fast.check_invariants();
            assert_block_agrees(&fast, &slow, block, &ctx);
            let mut checked = block;
            for e in &got {
                let b = match *e {
                    Evicted::Ucl { line, .. } => line.block(),
                    Evicted::CmsBlock { block, .. } => {
                        cms_evictions += 1;
                        block
                    }
                };
                // A block's events are adjacent: check each block once.
                if b != checked {
                    assert_block_agrees(&fast, &slow, b, &ctx);
                    checked = b;
                }
            }
            if op % 250 == 249 {
                for s in 0..16 {
                    for k in 0..per_set {
                        assert_block_agrees(&fast, &slow, BlockAddr(16 * k + s), &ctx);
                    }
                }
            }
        }
        (slow.tied_victims, fast.stats.tag_evictions, cms_evictions)
    }

    #[test]
    fn soa_llc_evicts_exactly_the_reference_victims() {
        for ways in [2usize, 4, 16] {
            for seed in 1..=3u64 {
                let ctx = format!("{ways} ways, seed {seed}");
                let (_, tag_evictions, cms_evictions) = run_stream(ways, seed, false);
                // The stream reached every path it claims to cover.
                assert!(tag_evictions > 0 && cms_evictions > 0, "{ctx}");
                let (tied, _, cms_evictions) = run_stream(ways, seed, true);
                assert!(cms_evictions > 0, "{ctx}, coinciding");
                // Equally old victims occurred, so a tie broken by anything
                // but the lower way would have diverged above.
                assert!(tied > 0, "{ctx}: no tied victim in the coinciding stream");
            }
        }
    }
}
