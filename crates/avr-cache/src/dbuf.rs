//! The decompressed-block buffer (paper §3.3, "Prefetching decompressed
//! cachelines").
//!
//! After decompressing a block, only the requested cacheline goes to the
//! LLC; the rest stay in the DBUF until the next decompression overwrites
//! them. Requests hitting the DBUF are served from it (and promoted to the
//! LLC); when a new block arrives, the PFE inspects the old block's request
//! mask to decide which remaining lines to save.

use avr_types::{BlockAddr, LineAddr, LINES_PER_BLOCK};

/// Snapshot of the block being replaced, handed to the prefetch engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DbufEviction {
    pub block: BlockAddr,
    /// Lines explicitly requested while the block was buffered.
    pub requested_mask: u16,
}

/// The single-block decompressed buffer.
#[derive(Clone, Copy, Debug, Default)]
pub struct Dbuf {
    block: Option<BlockAddr>,
    requested_mask: u16,
    pub hits: u64,
}

impl Dbuf {
    pub fn new() -> Self {
        Dbuf::default()
    }

    /// Bitmask of lines requested from the current block.
    pub fn requested_mask(&self) -> u16 {
        self.requested_mask
    }

    /// Number of lines explicitly requested from the current block.
    pub fn requested_count(&self) -> u32 {
        self.requested_mask.count_ones()
    }

    /// Does the buffer hold this line?
    pub fn contains(&self, line: LineAddr) -> bool {
        self.block == Some(line.block())
    }

    /// Serve a request: returns `true` on a DBUF hit and records the line
    /// in the request mask.
    pub fn request(&mut self, line: LineAddr) -> bool {
        if self.contains(line) {
            self.requested_mask |= 1 << line.cl_offset();
            self.hits += 1;
            true
        } else {
            false
        }
    }

    /// Load a freshly decompressed block, marking `first_request` as
    /// already requested. Returns the replaced block's snapshot for the PFE.
    pub fn load(&mut self, block: BlockAddr, first_request: Option<usize>) -> Option<DbufEviction> {
        let old =
            self.block.map(|b| DbufEviction { block: b, requested_mask: self.requested_mask });
        self.block = Some(block);
        self.requested_mask = first_request.map_or(0, |cl| {
            debug_assert!(cl < LINES_PER_BLOCK);
            1 << cl
        });
        old
    }

    /// Drop the buffered block (e.g. it was invalidated by a writeback).
    pub fn invalidate(&mut self) -> Option<DbufEviction> {
        let old =
            self.block.map(|b| DbufEviction { block: b, requested_mask: self.requested_mask });
        self.block = None;
        self.requested_mask = 0;
        old
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_buffer_misses() {
        let mut d = Dbuf::new();
        assert!(!d.request(BlockAddr(3).line(0)));
        assert_eq!(d.hits, 0);
    }

    #[test]
    fn loaded_block_serves_all_its_lines() {
        let mut d = Dbuf::new();
        d.load(BlockAddr(3), Some(2));
        for i in 0..LINES_PER_BLOCK {
            assert!(d.request(BlockAddr(3).line(i)));
        }
        assert!(!d.request(BlockAddr(4).line(0)));
        assert_eq!(d.hits, LINES_PER_BLOCK as u64);
        assert_eq!(d.requested_count(), LINES_PER_BLOCK as u32);
    }

    #[test]
    fn request_mask_accumulates() {
        let mut d = Dbuf::new();
        d.load(BlockAddr(9), Some(0));
        d.request(BlockAddr(9).line(5));
        d.request(BlockAddr(9).line(5)); // repeat does not double count
        d.request(BlockAddr(9).line(15));
        assert_eq!(d.requested_mask(), 1 | 1 << 5 | 1 << 15);
        assert_eq!(d.requested_count(), 3);
    }

    #[test]
    fn load_returns_previous_snapshot() {
        let mut d = Dbuf::new();
        assert!(d.load(BlockAddr(1), Some(4)).is_none());
        d.request(BlockAddr(1).line(6));
        let ev = d.load(BlockAddr(2), None).expect("snapshot");
        assert_eq!(ev.block, BlockAddr(1));
        assert_eq!(ev.requested_mask, 1 << 4 | 1 << 6);
        assert_eq!(d.requested_count(), 0);
    }

    #[test]
    fn invalidate_clears() {
        let mut d = Dbuf::new();
        d.load(BlockAddr(5), Some(1));
        let ev = d.invalidate().unwrap();
        assert_eq!(ev.block, BlockAddr(5));
        assert!(!d.request(BlockAddr(5).line(1)));
        assert_eq!(d.invalidate(), None, "the buffer is empty");
    }
}
