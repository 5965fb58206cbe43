//! A Doppelgänger-style approximate-deduplication LLC (San Miguel et al.,
//! MICRO'15), configured as the paper compares it: the same data-array
//! capacity as the baseline LLC but a 4× larger tag array, so up to 4×
//! more cachelines can be indexed when they dedup onto shared data entries.
//!
//! Approximate cachelines are mapped by an *approximate signature* built
//! from the line's value span: the exponent bucket of the range, the
//! exponent bucket and sign of the mean, and a 2-bit-per-value normalized
//! shape. Lines whose signatures collide share one data entry — including
//! lines "at the extreme edges of their respective expected value span"
//! whose absolute values differ by up to the bucket width. That edge case
//! is exactly what the paper blames for Doppelgänger's runaway error on
//! lbm/orbit/wrf, and our signature reproduces it by construction.
//!
//! Dedup is applied *destructively* to the simulator's backing store (the
//! deduped line's values are overwritten with the representative's), which
//! models the cache returning representative data on every subsequent read.
//!
//! # Structure
//!
//! Tags and data entries live in slabs (`Vec`s indexed by slot), each
//! threaded on an intrusive doubly-linked LRU list whose head is the least
//! recently used. A hit or a dedup moves the touched tag and entry to the
//! tail, so the head is always the replacement victim: lookup, hit, insert
//! and eviction are all O(1). Each data entry also threads its sharers on
//! an intrusive list in the order they joined it, which is the order an
//! entry eviction reports them in (and so the order their writebacks reach
//! DRAM).

use avr_types::{CacheGeometry, CacheLine, LineAddr, VALUES_PER_LINE};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Result of inserting a line.
#[derive(Clone, Copy, Debug)]
pub struct DedupOutcome<'a> {
    /// The line deduped onto an existing entry: these are the
    /// representative's values, which the caller must write into the
    /// backing store (value feedback).
    pub mapped_to: Option<CacheLine>,
    /// Lines invalidated to make room, with their dirtiness (dirty ones
    /// must be written back): a tag-array victim first, then the sharers
    /// of an evicted data entry in the order they joined it. Borrowed from
    /// a buffer the LLC reuses across inserts.
    pub evicted: &'a [(LineAddr, bool)],
}

/// "No slot": the end of an intrusive list.
const NIL: u32 = u32::MAX;

/// A slot's neighbours on one intrusive list.
#[derive(Clone, Copy, Debug)]
struct Link {
    prev: u32,
    next: u32,
}

impl Link {
    const DETACHED: Link = Link { prev: NIL, next: NIL };
}

/// An intrusive doubly-linked list over slab slots, oldest at `head`.
/// `link` projects a slot onto the `Link` this list threads through.
#[derive(Clone, Copy, Debug)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List { head: NIL, tail: NIL };

    fn push_back<T>(&mut self, slots: &mut [T], i: u32, link: fn(&mut T) -> &mut Link) {
        *link(&mut slots[i as usize]) = Link { prev: self.tail, next: NIL };
        match self.tail {
            NIL => self.head = i,
            t => link(&mut slots[t as usize]).next = i,
        }
        self.tail = i;
    }

    fn unlink<T>(&mut self, slots: &mut [T], i: u32, link: fn(&mut T) -> &mut Link) {
        let Link { prev, next } = *link(&mut slots[i as usize]);
        match prev {
            NIL => self.head = next,
            p => link(&mut slots[p as usize]).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => link(&mut slots[n as usize]).prev = prev,
        }
    }

    /// Make `i` the most recent.
    fn move_to_back<T>(&mut self, slots: &mut [T], i: u32, link: fn(&mut T) -> &mut Link) {
        if self.tail != i {
            self.unlink(slots, i, link);
            self.push_back(slots, i, link);
        }
    }
}

/// Slot storage reserved up front for its capacity; freed slots are
/// reused before the `Vec` grows, so it never reallocates.
#[derive(Clone, Debug)]
struct Slab<T> {
    slots: Vec<T>,
    free: Vec<u32>,
}

impl<T> Slab<T> {
    fn with_capacity(n: usize) -> Self {
        Slab { slots: Vec::with_capacity(n), free: Vec::with_capacity(n) }
    }

    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn alloc(&mut self, v: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = v;
                i
            }
            None => {
                self.slots.push(v);
                (self.slots.len() - 1) as u32
            }
        }
    }

    fn release(&mut self, i: u32) {
        self.free.push(i);
    }
}

#[derive(Clone, Copy, Debug)]
struct Tag {
    line: LineAddr,
    entry: u32,
    dirty: bool,
    /// Position on the tag LRU list.
    lru: Link,
    /// Position on its data entry's sharer list.
    sharer: Link,
}

#[derive(Clone, Debug)]
struct DataEntry {
    signature: u64,
    representative: CacheLine,
    /// The tags mapped here, in the order they joined.
    sharers: List,
    /// Position on the data-entry LRU list.
    lru: Link,
}

fn tag_lru(t: &mut Tag) -> &mut Link {
    &mut t.lru
}

fn tag_sharer(t: &mut Tag) -> &mut Link {
    &mut t.sharer
}

fn entry_lru(e: &mut DataEntry) -> &mut Link {
    &mut e.lru
}

/// The hash of the LLC's two slot maps: one multiply-xor step per `u64`
/// key in place of the standard library's SipHash. The keys are simulated
/// line addresses and signatures of the built-in programs' values, never
/// input from outside the simulator, so SipHash's resistance to crafted
/// colliding keys defends against nothing here. The final fold brings the
/// product's well-mixed high half into the low bits that pick a bucket.
#[derive(Clone, Copy, Debug, Default)]
struct MulXor(u64);

impl Hasher for MulXor {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 32)
    }
}

/// A map from a key to a slab slot, hashed with [`MulXor`].
type SlotMap<K> = HashMap<K, u32, BuildHasherDefault<MulXor>>;

/// The dedup LLC. Tag capacity = 4 × (data entries); both LRU-replaced.
#[derive(Clone, Debug)]
pub struct DoppelLlc {
    data_capacity: usize,
    tag_capacity: usize,
    latency: u64,
    tag_of: SlotMap<LineAddr>,
    tags: Slab<Tag>,
    entries: Slab<DataEntry>,
    sig_index: SlotMap<u64>,
    tag_lru: List,
    entry_lru: List,
    /// The last insert's evictions (reused; see [`DedupOutcome::evicted`]).
    evicted: Vec<(LineAddr, bool)>,
    pub hits: u64,
    /// Lookups that missed, a writeback's as well as a request's.
    pub misses: u64,
    pub dedup_count: u64,
    /// Tags evicted by tag-array pressure.
    pub tag_evictions: u64,
    /// Data entries evicted by data-array pressure (each drops all of its
    /// sharers).
    pub entry_evictions: u64,
}

impl DoppelLlc {
    /// Build from the baseline LLC geometry (the data array matches it; the
    /// tag array is 4× larger).
    pub fn new(geom: CacheGeometry) -> Self {
        let data_capacity = geom.capacity / 64;
        assert!(data_capacity > 0, "the dedup LLC needs room for one 64 B data entry");
        let tag_capacity = data_capacity * 4;
        DoppelLlc {
            data_capacity,
            tag_capacity,
            latency: geom.latency,
            tag_of: SlotMap::with_capacity_and_hasher(tag_capacity, Default::default()),
            tags: Slab::with_capacity(tag_capacity),
            entries: Slab::with_capacity(data_capacity),
            sig_index: SlotMap::with_capacity_and_hasher(data_capacity, Default::default()),
            tag_lru: List::EMPTY,
            entry_lru: List::EMPTY,
            // One insert evicts at most one tag plus the sharers of one
            // data entry: never more than the tag array holds.
            evicted: Vec::with_capacity(tag_capacity),
            hits: 0,
            misses: 0,
            dedup_count: 0,
            tag_evictions: 0,
            entry_evictions: 0,
        }
    }

    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// The approximate signature. Exact (address-salted) for non-approx
    /// lines so they never share.
    pub fn signature(line: &CacheLine, approx: bool, addr: LineAddr) -> u64 {
        if !approx {
            return 0x8000_0000_0000_0000 | addr.0;
        }
        let vals = || line.words.iter().map(|&w| f32::from_bits(w));
        if vals().any(|v| !v.is_finite()) {
            // Specials: exact match only.
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for &w in &line.words {
                h = (h ^ w as u64).wrapping_mul(0x1000_0000_01b3);
            }
            return h;
        }
        let mut min = f32::INFINITY;
        let mut max = f32::NEG_INFINITY;
        let mut sum = 0.0f64;
        for v in vals() {
            min = min.min(v);
            max = max.max(v);
            sum += v as f64;
        }
        let mean = (sum / VALUES_PER_LINE as f64) as f32;
        let range = max - min;
        // Value-span buckets: log2 quantized to 1/48-octave steps (~1.5 %
        // wide — the Doppelgänger map resolution). Lines whose means or
        // spans differ by more than a bucket never dedup; lines *inside*
        // one bucket dedup even when their absolute values sit at the
        // bucket's opposite edges — the paper's noted failure mode.
        let bucket = |v: f32| -> u64 {
            if v == 0.0 {
                0
            } else {
                ((v.abs().log2() * 24.0).floor() as i64 + 10_000) as u64
            }
        };
        let mean_sign = (mean < 0.0) as u64;
        let sig = bucket(range)
            .wrapping_mul(0x1000_0000_01B3)
            .wrapping_add(bucket(mean))
            .wrapping_mul(0x1000_0000_01B3)
            .wrapping_add(mean_sign);
        // 2-bit normalized shape per value.
        let mut shape = 0u64;
        for (i, v) in vals().enumerate() {
            let q =
                if range == 0.0 { 0 } else { (((v - min) / range) * 3.999).floor() as u64 & 0x3 };
            shape |= q << (2 * i);
        }
        sig ^ shape.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Look up a line and count the hit or miss; on a hit refresh recency
    /// (and dirtiness for writes). A missed line is then [`Self::insert`]ed.
    pub fn access(&mut self, line: LineAddr, write: bool) -> bool {
        let Some(&t) = self.tag_of.get(&line) else {
            self.misses += 1;
            return false;
        };
        self.touch(t, write);
        true
    }

    /// A hit on tag `t`: it and its data entry become the most recent.
    fn touch(&mut self, t: u32, write: bool) {
        let tag = &mut self.tags.slots[t as usize];
        tag.dirty |= write;
        let entry = tag.entry;
        self.tag_lru.move_to_back(&mut self.tags.slots, t, tag_lru);
        self.entry_lru.move_to_back(&mut self.entries.slots, entry, entry_lru);
        self.hits += 1;
    }

    /// The values a read of `line` observes (the representative's).
    pub fn read_values(&self, line: LineAddr) -> Option<&CacheLine> {
        let &t = self.tag_of.get(&line)?;
        Some(&self.entries.slots[self.tags.slots[t as usize].entry as usize].representative)
    }

    /// Unlink tag `t` from the tag index, the LRU list and its entry's
    /// sharers, and free its slot.
    fn drop_tag(&mut self, t: u32) {
        let Tag { line, entry, .. } = self.tags.slots[t as usize];
        self.tag_of.remove(&line);
        self.tag_lru.unlink(&mut self.tags.slots, t, tag_lru);
        self.entries.slots[entry as usize].sharers.unlink(&mut self.tags.slots, t, tag_sharer);
        self.tags.release(t);
    }

    /// Unindex data entry `e`'s signature, unlink it from the LRU list and
    /// free its slot.
    fn drop_entry(&mut self, e: u32) {
        self.sig_index.remove(&self.entries.slots[e as usize].signature);
        self.entry_lru.unlink(&mut self.entries.slots, e, entry_lru);
        self.entries.release(e);
    }

    fn evict_tag_lru(&mut self) {
        let t = self.tag_lru.head;
        let Tag { line, entry, dirty, .. } = self.tags.slots[t as usize];
        self.evicted.push((line, dirty));
        self.tag_evictions += 1;
        self.drop_tag(t);
        if self.entries.slots[entry as usize].sharers.head == NIL {
            self.drop_entry(entry);
        }
    }

    fn evict_entry_lru(&mut self) {
        let e = self.entry_lru.head;
        self.entry_evictions += 1;
        let mut t = self.entries.slots[e as usize].sharers.head;
        while t != NIL {
            let Tag { line, dirty, sharer, .. } = self.tags.slots[t as usize];
            self.evicted.push((line, dirty));
            self.tag_of.remove(&line);
            self.tag_lru.unlink(&mut self.tags.slots, t, tag_lru);
            self.tags.release(t);
            t = sharer.next;
        }
        self.drop_entry(e);
    }

    /// Insert a line that just missed in [`Self::access`], with its
    /// current values.
    pub fn insert(
        &mut self,
        line: LineAddr,
        values: &CacheLine,
        approx: bool,
        dirty: bool,
    ) -> DedupOutcome<'_> {
        debug_assert!(!self.tag_of.contains_key(&line), "insert: {line:?} is already resident");
        self.evicted.clear();
        while self.tag_of.len() >= self.tag_capacity {
            self.evict_tag_lru();
        }
        let sig = Self::signature(values, approx, line);
        let mut mapped_to = None;
        let entry = match self.sig_index.get(&sig).copied() {
            Some(e) if approx => {
                // Dedup: share the representative.
                self.entry_lru.move_to_back(&mut self.entries.slots, e, entry_lru);
                self.dedup_count += 1;
                mapped_to = Some(self.entries.slots[e as usize].representative);
                e
            }
            _ => {
                while self.entries.len() >= self.data_capacity {
                    self.evict_entry_lru();
                }
                let e = self.entries.alloc(DataEntry {
                    signature: sig,
                    representative: *values,
                    sharers: List::EMPTY,
                    lru: Link::DETACHED,
                });
                self.entry_lru.push_back(&mut self.entries.slots, e, entry_lru);
                self.sig_index.insert(sig, e);
                e
            }
        };
        let t = self.tags.alloc(Tag {
            line,
            entry,
            dirty,
            lru: Link::DETACHED,
            sharer: Link::DETACHED,
        });
        self.tag_of.insert(line, t);
        self.tag_lru.push_back(&mut self.tags.slots, t, tag_lru);
        self.entries.slots[entry as usize].sharers.push_back(&mut self.tags.slots, t, tag_sharer);
        DedupOutcome { mapped_to, evicted: &self.evicted }
    }

    /// Lines per data entry (compression-effectiveness diagnostic).
    pub fn dedup_factor(&self) -> f64 {
        if self.entries.len() == 0 {
            1.0
        } else {
            self.tag_of.len() as f64 / self.entries.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use avr_types::CacheGeometry;

    fn llc() -> DoppelLlc {
        // 64-entry data array, 256 tags.
        DoppelLlc::new(CacheGeometry { capacity: 64 * 64, ways: 16, latency: 15 })
    }

    fn line_of(vals: [f32; VALUES_PER_LINE]) -> CacheLine {
        CacheLine::from_f32(&vals)
    }

    fn ramp(base: f32, step: f32) -> CacheLine {
        let mut v = [0f32; VALUES_PER_LINE];
        for (i, x) in v.iter_mut().enumerate() {
            *x = base + step * i as f32;
        }
        line_of(v)
    }

    #[test]
    fn identical_lines_dedup() {
        let mut c = llc();
        let data = ramp(10.0, 0.5);
        let a = LineAddr(0x100);
        let b = LineAddr(0x900);
        c.insert(a, &data, true, false);
        let o = c.insert(b, &data, true, false);
        assert!(o.mapped_to.is_some(), "identical approx lines share an entry");
        assert_eq!(c.dedup_count, 1);
        assert!((c.dedup_factor() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn similar_lines_in_same_span_bucket_dedup() {
        let mut c = llc();
        // Same shape, means within one 1/48-octave bucket: collide.
        let a = ramp(64.0, 1.0);
        let b = ramp(64.05, 1.0);
        c.insert(LineAddr(1), &a, true, false);
        let o = c.insert(LineAddr(2), &b, true, false);
        assert!(o.mapped_to.is_some());
        // The deduped reader sees the representative (a's values).
        let rep = o.mapped_to.unwrap();
        assert_eq!(rep, a);
    }

    #[test]
    fn edge_of_bucket_error_can_be_large() {
        // The documented Doppelgänger pathology: values at opposite edges
        // of one 1/48-octave bucket are "approximately equal" to the map
        // even though they differ by the full bucket width (~1.4 %) —
        // errors that compound in feedback loops.
        let a = ramp(64.0, 0.0);
        let b = ramp(65.7, 0.0);
        let sa = DoppelLlc::signature(&a, true, LineAddr(1));
        let sb = DoppelLlc::signature(&b, true, LineAddr(2));
        assert_eq!(sa, sb, "same-bucket collision expected");
        // Across a bucket boundary the lines stay distinct.
        let c = ramp(68.0, 0.0);
        let sc = DoppelLlc::signature(&c, true, LineAddr(3));
        assert_ne!(sa, sc);
    }

    #[test]
    fn different_shapes_do_not_dedup() {
        let mut c = llc();
        let up = ramp(10.0, 1.0);
        let mut down_vals = [0f32; VALUES_PER_LINE];
        for (i, v) in down_vals.iter_mut().enumerate() {
            *v = 25.0 - i as f32;
        }
        c.insert(LineAddr(1), &up, true, false);
        let o = c.insert(LineAddr(2), &line_of(down_vals), true, false);
        assert!(o.mapped_to.is_none());
    }

    #[test]
    fn non_approx_lines_never_share() {
        let mut c = llc();
        let data = ramp(5.0, 0.0);
        c.insert(LineAddr(1), &data, false, false);
        let o = c.insert(LineAddr(2), &data, false, false);
        assert!(o.mapped_to.is_none());
        assert_eq!(c.dedup_count, 0);
    }

    #[test]
    fn hit_miss_tracking() {
        let mut c = llc();
        let l = LineAddr(0x5);
        assert!(!c.access(l, false));
        c.insert(l, &ramp(1.0, 0.1), true, false);
        assert!(c.access(l, true));
        assert_eq!(c.hits, 1);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn data_entry_eviction_invalidates_all_sharers() {
        let mut c = DoppelLlc::new(CacheGeometry { capacity: 2 * 64, ways: 16, latency: 15 });
        // Capacity: 2 entries, 8 tags.
        let d1 = ramp(10.0, 1.0);
        c.insert(LineAddr(1), &d1, true, true);
        c.insert(LineAddr(2), &d1, true, false); // dedups with 1
        c.insert(LineAddr(3), &ramp(1000.0, -3.0), true, false);
        // A third distinct entry evicts the LRU entry (d1's), dropping both
        // sharers in the order they joined; the dirty one is reported dirty.
        let o = c.insert(LineAddr(4), &ramp(-5.0, 0.25), true, false);
        assert_eq!(o.evicted, &[(LineAddr(1), true), (LineAddr(2), false)]);
        assert!(c.read_values(LineAddr(1)).is_none() && c.read_values(LineAddr(2)).is_none());
        assert_eq!(c.entry_evictions, 1);
    }

    #[test]
    fn tag_pressure_evicts_without_touching_other_entries() {
        let mut c = DoppelLlc::new(CacheGeometry { capacity: 4 * 64, ways: 16, latency: 15 });
        // 4 entries, 16 tags. Insert 17 identical approx lines: they all
        // share one entry but exceed tag capacity.
        let data = ramp(2.0, 0.5);
        for i in 0..17u64 {
            c.insert(LineAddr(0x1000 + i), &data, true, false);
        }
        assert!(c.tag_of.len() <= 16);
        assert_eq!(c.entries.len(), 1);
        assert_eq!(c.tag_evictions, 1);
        assert!(c.read_values(LineAddr(0x1000)).is_none(), "the least recent sharer went first");
    }

    #[test]
    fn read_values_returns_representative() {
        let mut c = llc();
        let rep = ramp(50.0, 0.5);
        let near = ramp(50.04, 0.5);
        c.insert(LineAddr(1), &rep, true, false);
        c.insert(LineAddr(2), &near, true, false);
        assert_eq!(c.read_values(LineAddr(2)), Some(&rep));
    }

    /// The dedup LLC as it was built before the slab/list rewrite: hash
    /// maps, per-line `Vec` sharers and a `min_by_key` scan over every tag
    /// or entry on each eviction. Kept only as the oracle that
    /// [`slab_llc_evicts_exactly_the_reference_victims`] compares against.
    mod reference {
        use super::*;

        pub struct Outcome {
            pub mapped_to: Option<CacheLine>,
            pub evicted: Vec<(LineAddr, bool)>,
        }

        struct DataEntry {
            signature: u64,
            representative: CacheLine,
            refs: Vec<LineAddr>,
            lru: u64,
        }

        struct TagInfo {
            entry: u32,
            dirty: bool,
            lru: u64,
        }

        pub struct RefLlc {
            data_capacity: usize,
            tag_capacity: usize,
            tags: HashMap<LineAddr, TagInfo>,
            entries: HashMap<u32, DataEntry>,
            sig_index: HashMap<u64, u32>,
            next_entry: u32,
            clock: u64,
            pub hits: u64,
            pub misses: u64,
            pub dedup_count: u64,
        }

        impl RefLlc {
            pub fn new(geom: CacheGeometry) -> Self {
                let data_capacity = geom.capacity / 64;
                RefLlc {
                    data_capacity,
                    tag_capacity: data_capacity * 4,
                    tags: HashMap::new(),
                    entries: HashMap::new(),
                    sig_index: HashMap::new(),
                    next_entry: 0,
                    clock: 0,
                    hits: 0,
                    misses: 0,
                    dedup_count: 0,
                }
            }

            fn tick(&mut self) -> u64 {
                self.clock += 1;
                self.clock
            }

            /// The signature over a collected `Vec<f32>`, as it was.
            pub fn signature(line: &CacheLine, approx: bool, addr: LineAddr) -> u64 {
                if !approx {
                    return 0x8000_0000_0000_0000 | addr.0;
                }
                let vals: Vec<f32> = line.words.iter().map(|&w| f32::from_bits(w)).collect();
                if vals.iter().any(|v| !v.is_finite()) {
                    let mut h = 0xcbf2_9ce4_8422_2325u64;
                    for &w in &line.words {
                        h = (h ^ w as u64).wrapping_mul(0x1000_0000_01b3);
                    }
                    return h;
                }
                let mut min = f32::INFINITY;
                let mut max = f32::NEG_INFINITY;
                let mut sum = 0.0f64;
                for &v in &vals {
                    min = min.min(v);
                    max = max.max(v);
                    sum += v as f64;
                }
                let mean = (sum / VALUES_PER_LINE as f64) as f32;
                let range = max - min;
                let bucket = |v: f32| -> u64 {
                    if v == 0.0 {
                        0
                    } else {
                        ((v.abs().log2() * 24.0).floor() as i64 + 10_000) as u64
                    }
                };
                let mean_sign = (mean < 0.0) as u64;
                let sig = bucket(range)
                    .wrapping_mul(0x1000_0000_01B3)
                    .wrapping_add(bucket(mean))
                    .wrapping_mul(0x1000_0000_01B3)
                    .wrapping_add(mean_sign);
                let mut shape = 0u64;
                for (i, &v) in vals.iter().enumerate() {
                    let q = if range == 0.0 {
                        0
                    } else {
                        (((v - min) / range) * 3.999).floor() as u64 & 0x3
                    };
                    shape |= q << (2 * i);
                }
                sig ^ shape.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            }

            pub fn access(&mut self, line: LineAddr, write: bool) -> bool {
                let now = self.tick();
                let Some(t) = self.tags.get_mut(&line) else {
                    self.misses += 1;
                    return false;
                };
                t.lru = now;
                if write {
                    t.dirty = true;
                }
                let entry = t.entry;
                if let Some(e) = self.entries.get_mut(&entry) {
                    e.lru = now;
                }
                self.hits += 1;
                true
            }

            pub fn read_values(&self, line: LineAddr) -> Option<&CacheLine> {
                let t = self.tags.get(&line)?;
                self.entries.get(&t.entry).map(|e| &e.representative)
            }

            fn evict_tag_lru(&mut self, out: &mut Vec<(LineAddr, bool)>) {
                let Some((&victim, _)) = self.tags.iter().min_by_key(|(_, t)| t.lru) else {
                    return;
                };
                let info = self.tags.remove(&victim).expect("victim present");
                out.push((victim, info.dirty));
                if let Some(e) = self.entries.get_mut(&info.entry) {
                    e.refs.retain(|&l| l != victim);
                    if e.refs.is_empty() {
                        let sig = e.signature;
                        self.entries.remove(&info.entry);
                        self.sig_index.remove(&sig);
                    }
                }
            }

            fn evict_entry_lru(&mut self, out: &mut Vec<(LineAddr, bool)>) {
                let Some((&victim, _)) = self.entries.iter().min_by_key(|(_, e)| e.lru) else {
                    return;
                };
                let e = self.entries.remove(&victim).expect("victim present");
                self.sig_index.remove(&e.signature);
                for l in e.refs {
                    if let Some(t) = self.tags.remove(&l) {
                        out.push((l, t.dirty));
                    }
                }
            }

            pub fn insert(
                &mut self,
                line: LineAddr,
                values: &CacheLine,
                approx: bool,
                dirty: bool,
            ) -> Outcome {
                let now = self.tick();
                let mut outcome = Outcome { mapped_to: None, evicted: Vec::new() };
                if self.tags.contains_key(&line) {
                    self.access(line, dirty);
                    return outcome;
                }
                while self.tags.len() >= self.tag_capacity {
                    self.evict_tag_lru(&mut outcome.evicted);
                }
                let sig = Self::signature(values, approx, line);
                let entry_id = match self.sig_index.get(&sig).copied() {
                    Some(id) if approx => {
                        let e = self.entries.get_mut(&id).expect("indexed entry exists");
                        e.refs.push(line);
                        e.lru = now;
                        self.dedup_count += 1;
                        outcome.mapped_to = Some(e.representative);
                        id
                    }
                    _ => {
                        while self.entries.len() >= self.data_capacity {
                            self.evict_entry_lru(&mut outcome.evicted);
                        }
                        let id = self.next_entry;
                        self.next_entry += 1;
                        self.entries.insert(
                            id,
                            DataEntry {
                                signature: sig,
                                representative: *values,
                                refs: vec![line],
                                lru: now,
                            },
                        );
                        self.sig_index.insert(sig, id);
                        id
                    }
                };
                self.tags.insert(line, TagInfo { entry: entry_id, dirty, lru: now });
                outcome.evicted.retain(|(l, _)| *l != line);
                outcome
            }

            pub fn dedup_factor(&self) -> f64 {
                if self.entries.is_empty() {
                    1.0
                } else {
                    self.tags.len() as f64 / self.entries.len() as f64
                }
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

    fn random_values(rng: &mut u64) -> [f32; VALUES_PER_LINE] {
        let mut v = [0f32; VALUES_PER_LINE];
        for x in v.iter_mut() {
            *x = (splitmix64(rng) % 20_000) as f32 / 100.0 - 100.0;
        }
        v
    }

    /// Look `l` up in both LLCs, which must agree; true on a miss, after
    /// which the caller may insert it.
    fn missed(
        fast: &mut DoppelLlc,
        slow: &mut reference::RefLlc,
        l: LineAddr,
        write: bool,
    ) -> bool {
        let hit = fast.access(l, write);
        assert_eq!(hit, slow.access(l, write));
        !hit
    }

    /// A seeded op stream over 2-, 4- and 16-entry geometries: approx
    /// inserts drawn from a small palette (colliding signatures), from
    /// fresh random values (distinct signatures) and with non-finite
    /// values, precise and dirty inserts, read/write accesses, and write
    /// hits on recently inserted lines that insert them again if they left
    /// (the dedup policy's writeback). Every insert follows a miss. After
    /// every op the slab LLC must report exactly what the scan-based
    /// reference does.
    #[test]
    fn slab_llc_evicts_exactly_the_reference_victims() {
        for data_entries in [2usize, 4, 16] {
            let geom = CacheGeometry { capacity: data_entries * 64, ways: 16, latency: 15 };
            for seed in 1..=4u64 {
                let mut rng = seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ data_entries as u64;
                let mut fast = DoppelLlc::new(geom);
                let mut slow = reference::RefLlc::new(geom);
                let lines = 3 * 4 * data_entries as u64;
                let palette: Vec<CacheLine> = (0..data_entries + 2)
                    .map(|k| ramp(10.0 + 7.0 * k as f32, 0.25 * (k % 3) as f32 - 0.2))
                    .collect();
                let mut recent = [LineAddr(0); 8];
                let mut refreshes = 0u64;
                for op in 0..3000u64 {
                    let r = splitmix64(&mut rng);
                    let line = LineAddr(splitmix64(&mut rng) % lines);
                    let dirty = r & 3 == 0;
                    // 250-op phases alternate: a sharing phase inserts
                    // only two palette contents, so lines pile onto few
                    // entries and the tag array fills; a mixed phase
                    // churns the data array.
                    let sharing = (op / 250) % 2 == 0;
                    let kind = match (r >> 8) % 100 {
                        k if sharing && k < 60 => 0,
                        k => k,
                    };
                    let shades = if sharing { 2 } else { palette.len() };
                    let insert = match kind {
                        // An insert follows a read miss, as a request's does.
                        0..=59 if !missed(&mut fast, &mut slow, line, false) => None,
                        0..=29 => {
                            // Palette content, sometimes nudged within its
                            // span bucket: collides with resident entries.
                            let mut v = palette[(r >> 16) as usize % shades].to_f32();
                            if r & 0x100_0000 != 0 {
                                v.iter_mut().for_each(|x| *x *= 1.001);
                            }
                            Some((line, line_of(v), true))
                        }
                        30..=44 => Some((line, line_of(random_values(&mut rng)), true)),
                        45..=54 => Some((line, palette[0], false)),
                        55..=59 => {
                            let mut v = random_values(&mut rng);
                            v[(r >> 16) as usize % VALUES_PER_LINE] = f32::NAN;
                            Some((line, line_of(v), true))
                        }
                        60..=84 => {
                            let write = r & 0x1_0000 != 0;
                            assert_eq!(fast.access(line, write), slow.access(line, write));
                            None
                        }
                        _ => {
                            let recent = recent[(r >> 16) as usize % recent.len()];
                            if missed(&mut fast, &mut slow, recent, true) {
                                Some((recent, palette[1], true))
                            } else {
                                refreshes += 1;
                                None
                            }
                        }
                    };
                    if let Some((l, values, approx)) = insert {
                        assert_eq!(
                            DoppelLlc::signature(&values, approx, l),
                            reference::RefLlc::signature(&values, approx, l)
                        );
                        let want = slow.insert(l, &values, approx, dirty);
                        let got = fast.insert(l, &values, approx, dirty);
                        let ctx = format!("{data_entries} entries, seed {seed}, op {op}");
                        assert_eq!(got.mapped_to, want.mapped_to, "{ctx}: mapped_to");
                        assert_eq!(got.evicted, &want.evicted[..], "{ctx}: evicted");
                        recent[op as usize % recent.len()] = l;
                    }
                    assert_eq!(
                        (fast.hits, fast.misses, fast.dedup_count),
                        (slow.hits, slow.misses, slow.dedup_count),
                        "{data_entries} entries, seed {seed}, op {op}: counters"
                    );
                    assert_eq!(fast.dedup_factor().to_bits(), slow.dedup_factor().to_bits());
                    for l in (0..lines).map(LineAddr) {
                        assert_eq!(fast.read_values(l), slow.read_values(l));
                    }
                }
                // The stream reached every path it claims to cover.
                assert!(fast.dedup_count > 0 && refreshes > 0);
                assert!(fast.tag_evictions > 0 && fast.entry_evictions > 0);
            }
        }
    }
}
