//! Backing-store physical memory and the approximable address space.
//!
//! The paper's simulator "not only emulate\[s\] the memory accesses but ...
//! actually update\[s\] the values of the memory contents" so approximation
//! error propagates into the application. We do the same: `PhysMem` is the
//! single authoritative value store; caches track presence only, and lossy
//! events (compression, truncation, dedup) rewrite `PhysMem` at the
//! architecturally correct moment.
//!
//! `AddressSpace` is the `malloc`-wrapper of §4.1: page-aligned bump
//! allocation with regions optionally registered as approximable (the OS
//! page-table/TLB approx bit of §3.1).

use avr_types::addr::{BLOCK_BYTES, PAGE_BYTES};
use avr_types::BlockAddr;
use avr_types::{BlockData, CacheLine, DataType, LineAddr, PhysAddr, CL_BYTES, VALUES_PER_LINE};

/// Flat word-granularity physical memory, grown on demand.
#[derive(Clone, Debug, Default)]
pub struct PhysMem {
    words: Vec<u32>,
}

impl PhysMem {
    pub fn new() -> Self {
        PhysMem::default()
    }

    #[inline]
    fn word_index(addr: PhysAddr) -> usize {
        debug_assert_eq!(addr.0 % 4, 0, "accesses are 4-byte aligned ({addr:?})");
        (addr.0 / 4) as usize
    }

    fn ensure(&mut self, word_idx: usize) {
        if word_idx >= self.words.len() {
            self.words.resize((word_idx + 1).next_power_of_two(), 0);
        }
    }

    /// Read one 32-bit word.
    #[inline]
    pub fn read_u32(&self, addr: PhysAddr) -> u32 {
        let i = Self::word_index(addr);
        self.words.get(i).copied().unwrap_or(0)
    }

    /// Write one 32-bit word.
    #[inline]
    pub fn write_u32(&mut self, addr: PhysAddr, val: u32) {
        let i = Self::word_index(addr);
        self.ensure(i);
        self.words[i] = val;
    }

    /// Read `out.len()` consecutive words starting at `addr` with a single
    /// address translation (unwritten tails read zero, like
    /// [`PhysMem::read_u32`]).
    pub fn read_words(&self, addr: PhysAddr, out: &mut [u32]) {
        let base = Self::word_index(addr);
        let have = self.words.len().saturating_sub(base).min(out.len());
        if have > 0 {
            out[..have].copy_from_slice(&self.words[base..base + have]);
        }
        out[have..].fill(0);
    }

    /// Write `vals.len()` consecutive words starting at `addr` with a single
    /// address translation.
    pub fn write_words(&mut self, addr: PhysAddr, vals: &[u32]) {
        if vals.is_empty() {
            return;
        }
        let base = Self::word_index(addr);
        self.ensure(base + vals.len() - 1);
        self.words[base..base + vals.len()].copy_from_slice(vals);
    }

    /// [`PhysMem::read_words`] reinterpreted as IEEE-754 f32 bit patterns.
    pub fn read_words_f32(&self, addr: PhysAddr, out: &mut [f32]) {
        let base = Self::word_index(addr);
        let have = self.words.len().saturating_sub(base).min(out.len());
        if have > 0 {
            for (o, w) in out[..have].iter_mut().zip(&self.words[base..base + have]) {
                *o = f32::from_bits(*w);
            }
        }
        out[have..].fill(0.0);
    }

    /// [`PhysMem::write_words`] from f32 values (bit-pattern stores).
    pub fn write_words_f32(&mut self, addr: PhysAddr, vals: &[f32]) {
        if vals.is_empty() {
            return;
        }
        let base = Self::word_index(addr);
        self.ensure(base + vals.len() - 1);
        for (w, v) in self.words[base..base + vals.len()].iter_mut().zip(vals) {
            *w = v.to_bits();
        }
    }

    /// Read a whole cacheline.
    pub fn read_line(&self, line: LineAddr) -> CacheLine {
        let base = Self::word_index(line.base());
        let mut out = CacheLine::ZERO;
        for (k, w) in out.words.iter_mut().enumerate() {
            *w = self.words.get(base + k).copied().unwrap_or(0);
        }
        out
    }

    /// Write a whole cacheline.
    pub fn write_line(&mut self, line: LineAddr, data: &CacheLine) {
        let base = Self::word_index(line.base());
        self.ensure(base + VALUES_PER_LINE - 1);
        self.words[base..base + VALUES_PER_LINE].copy_from_slice(&data.words);
    }

    /// Read a whole 1 KB memory block.
    pub fn read_block(&self, block: BlockAddr) -> BlockData {
        let base = Self::word_index(block.base());
        let mut out = BlockData::default();
        for (k, w) in out.words.iter_mut().enumerate() {
            *w = self.words.get(base + k).copied().unwrap_or(0);
        }
        out
    }

    /// Write a whole 1 KB memory block.
    pub fn write_block(&mut self, block: BlockAddr, data: &BlockData) {
        let base = Self::word_index(block.base());
        self.ensure(base + data.words.len() - 1);
        self.words[base..base + data.words.len()].copy_from_slice(&data.words);
    }

    /// Allocated capacity in bytes (diagnostics).
    pub fn capacity_bytes(&self) -> usize {
        self.words.len() * 4
    }
}

/// Per-region device/criticality metadata attached at allocation time.
///
/// Integer encodings keep [`Region`] `Copy + Eq`: the fault-rate override
/// is permille (1000 = nominal), and sub-block criticality is a repeating
/// word pattern — word `w` of the region is critical iff bit
/// `w % crit_period_words` of `crit_pattern` is set. A zero period means
/// "no critical words" (the whole region follows the approx bit).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RegionOpts {
    /// Device fault-rate multiplier in permille (1000 = the configured
    /// backend rates; 0 = this region never decays; 4000 = 4× rates).
    pub fault_scale_permille: u32,
    /// Length in words of the repeating criticality pattern; 0 disables it.
    pub crit_period_words: u32,
    /// Bitmask over one period: set bits mark critical word offsets that
    /// device backends must never corrupt (sub-block ECC metadata).
    pub crit_pattern: u64,
}

impl Default for RegionOpts {
    fn default() -> Self {
        RegionOpts { fault_scale_permille: 1000, crit_period_words: 0, crit_pattern: 0 }
    }
}

impl RegionOpts {
    /// Nominal rates with a repeating criticality pattern.
    pub fn with_crit_pattern(period_words: u32, pattern: u64) -> Self {
        assert!(period_words as usize <= 64, "crit pattern period is capped at 64 words");
        RegionOpts { crit_period_words: period_words, crit_pattern: pattern, ..Self::default() }
    }

    /// Nominal criticality with a scaled device fault rate.
    pub fn with_fault_scale(scale: f64) -> Self {
        assert!(scale.is_finite() && scale >= 0.0, "fault scale must be a nonnegative factor");
        RegionOpts { fault_scale_permille: (scale * 1000.0).round() as u32, ..Self::default() }
    }

    /// The fault-rate multiplier as a factor (permille / 1000).
    pub fn fault_scale(&self) -> f64 {
        f64::from(self.fault_scale_permille) / 1000.0
    }
}

/// One registered allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    pub base: PhysAddr,
    pub len_bytes: usize,
    /// `Some(dt)` when the region is approximable.
    pub approx: Option<DataType>,
    /// Device fault-rate / sub-block criticality metadata.
    pub opts: RegionOpts,
}

impl Region {
    pub fn contains_line(&self, line: LineAddr) -> bool {
        let a = line.base().0;
        a >= self.base.0 && a < self.base.0 + self.len_bytes as u64
    }

    pub fn end(&self) -> PhysAddr {
        PhysAddr(self.base.0 + self.len_bytes as u64)
    }

    /// Bitmask over the 16 words of `line` marking this region's critical
    /// words (from the repeating [`RegionOpts`] pattern). Zero when the
    /// region carries no sub-block criticality metadata.
    pub fn critical_mask_of_line(&self, line: LineAddr) -> u16 {
        let period = u64::from(self.opts.crit_period_words);
        if period == 0 {
            return 0;
        }
        let first_word = (line.base().0 - self.base.0) / 4;
        let mut mask = 0u16;
        for w in 0..VALUES_PER_LINE as u64 {
            if self.opts.crit_pattern >> ((first_word + w) % period) & 1 != 0 {
                mask |= 1 << w;
            }
        }
        mask
    }
}

/// Page-aligned bump allocator + approximable-region registry.
///
/// The first page is left unmapped so address 0 stays invalid.
#[derive(Clone, Debug)]
pub struct AddressSpace {
    next: u64,
    regions: Vec<Region>,
}

impl Default for AddressSpace {
    fn default() -> Self {
        AddressSpace { next: PAGE_BYTES as u64, regions: Vec::new() }
    }
}

impl AddressSpace {
    pub fn new() -> Self {
        AddressSpace::default()
    }

    fn alloc_inner(
        &mut self,
        len_bytes: usize,
        approx: Option<DataType>,
        opts: RegionOpts,
    ) -> Region {
        assert!(len_bytes > 0);
        let base = PhysAddr(self.next);
        let pages = len_bytes.div_ceil(PAGE_BYTES);
        self.next += (pages * PAGE_BYTES) as u64;
        let r = Region { base, len_bytes, approx, opts };
        self.regions.push(r);
        r
    }

    /// Plain allocation (precise data).
    pub fn malloc(&mut self, len_bytes: usize) -> Region {
        self.alloc_inner(len_bytes, None, RegionOpts::default())
    }

    /// The paper's wrapper: page-aligned allocation registered approximable
    /// with its datatype.
    pub fn approx_malloc(&mut self, len_bytes: usize, dt: DataType) -> Region {
        self.alloc_inner(len_bytes, Some(dt), RegionOpts::default())
    }

    /// [`Self::approx_malloc`] with explicit device/criticality metadata
    /// (per-region fault-rate overrides, sub-block critical-word patterns).
    pub fn approx_malloc_with(
        &mut self,
        len_bytes: usize,
        dt: DataType,
        opts: RegionOpts,
    ) -> Region {
        self.alloc_inner(len_bytes, Some(dt), opts)
    }

    /// Is this line approximable, and if so with which datatype? (The
    /// TLB/page-table approx bit of §3.1.)
    pub fn approx_of_line(&self, line: LineAddr) -> Option<DataType> {
        self.regions
            .iter()
            .find(|r| r.approx.is_some() && r.contains_line(line))
            .and_then(|r| r.approx)
    }

    /// All registered regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Index into [`Self::regions`] of the *approximable* region containing
    /// `line` — the fault-seeding / per-region-accounting key of the device
    /// error models.
    pub fn approx_region_index_of_line(&self, line: LineAddr) -> Option<usize> {
        self.regions.iter().position(|r| r.approx.is_some() && r.contains_line(line))
    }

    /// Total allocated bytes, and the approximable subset: the inputs to
    /// the Table 4 footprint computation.
    pub fn footprint(&self) -> (u64, u64) {
        let mut total = 0u64;
        let mut approx = 0u64;
        for r in &self.regions {
            total += r.len_bytes as u64;
            if r.approx.is_some() {
                approx += r.len_bytes as u64;
            }
        }
        (total, approx)
    }

    /// Iterate the approximable blocks of every approx region (Table 4
    /// compression-ratio sweeps).
    pub fn approx_blocks(&self) -> impl Iterator<Item = (BlockAddr, DataType)> + '_ {
        self.regions.iter().filter(|r| r.approx.is_some()).flat_map(|r| {
            let dt = r.approx.unwrap();
            let first = r.base.block().0;
            let last = (r.base.0 + r.len_bytes as u64 - 1) >> 10;
            (first..=last).map(move |b| (BlockAddr(b), dt))
        })
    }
}

/// Bytes per block re-exported for footprint math.
pub const BYTES_PER_BLOCK: usize = BLOCK_BYTES;
/// Cacheline size re-exported.
pub const BYTES_PER_LINE: usize = CL_BYTES;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_round_trip() {
        let mut m = PhysMem::new();
        m.write_u32(PhysAddr(0x1000), 0xDEAD_BEEF);
        assert_eq!(m.read_u32(PhysAddr(0x1000)), 0xDEAD_BEEF);
        assert_eq!(m.read_u32(PhysAddr(0x1004)), 0);
    }

    #[test]
    fn line_round_trip() {
        let mut m = PhysMem::new();
        let mut cl = CacheLine::ZERO;
        for (i, w) in cl.words.iter_mut().enumerate() {
            *w = i as u32 + 7;
        }
        let line = LineAddr(0x99);
        m.write_line(line, &cl);
        assert_eq!(m.read_line(line), cl);
        // Word view agrees with line view.
        assert_eq!(m.read_u32(PhysAddr(line.base().0 + 8)), 9);
    }

    #[test]
    fn bulk_words_match_word_at_a_time() {
        let mut m = PhysMem::new();
        let base = PhysAddr(0x2004); // deliberately line-unaligned
        let vals: Vec<u32> = (0..37).map(|i| i * 0x101 + 5).collect();
        m.write_words(base, &vals);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(m.read_u32(PhysAddr(base.0 + 4 * i as u64)), v);
        }
        let mut back = vec![0u32; vals.len()];
        m.read_words(base, &mut back);
        assert_eq!(back, vals);
        // Reads past the grown capacity come back zero, like read_u32.
        let mut tail = [1u32; 8];
        m.read_words(PhysAddr(1 << 30), &mut tail);
        assert_eq!(tail, [0u32; 8]);
    }

    #[test]
    fn bulk_f32_words_are_bit_pattern_stores() {
        let mut m = PhysMem::new();
        let base = PhysAddr(0x3000);
        let vals = [1.5f32, -0.0, f32::NAN, 3.25e-9];
        m.write_words_f32(base, &vals);
        let mut back = [0f32; 4];
        m.read_words_f32(base, &mut back);
        for (a, b) in vals.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(m.read_u32(PhysAddr(base.0 + 4)), (-0.0f32).to_bits());
    }

    #[test]
    fn block_round_trip_and_line_consistency() {
        let mut m = PhysMem::new();
        let mut b = BlockData::default();
        for (i, w) in b.words.iter_mut().enumerate() {
            *w = (i * 3) as u32;
        }
        let block = BlockAddr(0x12);
        m.write_block(block, &b);
        assert_eq!(m.read_block(block), b);
        for i in 0..16 {
            assert_eq!(m.read_line(block.line(i)), b.line(i));
        }
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = PhysMem::new();
        assert_eq!(m.read_u32(PhysAddr(1 << 30)), 0);
        assert_eq!(m.read_block(BlockAddr(1 << 20)), BlockData::default());
    }

    #[test]
    fn allocations_are_page_aligned_and_disjoint() {
        let mut a = AddressSpace::new();
        let r1 = a.malloc(100);
        let r2 = a.approx_malloc(5000, DataType::F32);
        let r3 = a.malloc(1);
        assert_eq!(r1.base.0 % PAGE_BYTES as u64, 0);
        assert_eq!(r2.base.0 % PAGE_BYTES as u64, 0);
        assert!(r2.base.0 >= r1.base.0 + PAGE_BYTES as u64);
        assert!(r3.base.0 >= r2.base.0 + 2 * PAGE_BYTES as u64, "5000 B spans 2 pages");
        assert!(r1.base.0 > 0, "page 0 unmapped");
    }

    #[test]
    fn approx_bit_follows_regions() {
        let mut a = AddressSpace::new();
        let precise = a.malloc(4096);
        let approx = a.approx_malloc(4096, DataType::F32);
        assert_eq!(a.approx_of_line(precise.base.line()), None);
        assert_eq!(a.approx_of_line(approx.base.line()), Some(DataType::F32));
        // A line past the approx region's end is not approximable.
        let past = LineAddr(approx.end().line().0);
        assert_eq!(a.approx_of_line(past), None);
    }

    #[test]
    fn footprint_accounting() {
        let mut a = AddressSpace::new();
        a.malloc(8192);
        a.approx_malloc(4096, DataType::F32);
        a.approx_malloc(2048, DataType::Fixed32);
        let (total, approx) = a.footprint();
        assert_eq!(total, 8192 + 4096 + 2048);
        assert_eq!(approx, 4096 + 2048);
    }

    #[test]
    fn region_opts_defaults_are_nominal_and_uncritical() {
        let mut a = AddressSpace::new();
        let r = a.approx_malloc(4096, DataType::F32);
        assert_eq!(r.opts, RegionOpts::default());
        assert!((r.opts.fault_scale() - 1.0).abs() < 1e-12);
        assert_eq!(r.critical_mask_of_line(r.base.line()), 0);
    }

    #[test]
    fn crit_pattern_repeats_across_lines() {
        let mut a = AddressSpace::new();
        // 5-word records with word 4 critical: the per-line mask walks the
        // pattern phase as 16-word lines cut across 5-word records.
        let opts = RegionOpts::with_crit_pattern(5, 1 << 4);
        let r = a.approx_malloc_with(4096, DataType::F32, opts);
        let mask0 = r.critical_mask_of_line(r.base.line());
        // Words 4, 9, 14 of the first line are critical (offsets 4 mod 5).
        assert_eq!(mask0, (1 << 4) | (1 << 9) | (1 << 14));
        // Second line starts at word 16 ≡ 1 (mod 5): criticals at 3, 8, 13.
        let l1 = LineAddr(r.base.line().0 + 1);
        assert_eq!(r.critical_mask_of_line(l1), (1 << 3) | (1 << 8) | (1 << 13));
    }

    #[test]
    fn fault_scale_round_trips_through_permille() {
        assert_eq!(RegionOpts::with_fault_scale(0.0).fault_scale(), 0.0);
        assert!((RegionOpts::with_fault_scale(2.5).fault_scale() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn approx_blocks_enumerates_all_blocks() {
        let mut a = AddressSpace::new();
        let r = a.approx_malloc(4096, DataType::F32); // exactly 4 blocks
        let blocks: Vec<_> = a.approx_blocks().collect();
        assert_eq!(blocks.len(), 4);
        assert_eq!(blocks[0].0, r.base.block());
        assert!(blocks.iter().all(|(_, dt)| *dt == DataType::F32));
    }
}
