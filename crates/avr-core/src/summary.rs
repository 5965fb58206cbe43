//! End-of-run compression summary (Table 4).
//!
//! `System::finish` re-compresses every approximable block from its final
//! memory values to report the footprint-weighted compression ratio. The
//! scan runs one [`Compressor`] whose scratch is reused for every block,
//! so it performs **zero steady-state heap allocations**
//! (`tests/zero_alloc.rs` pins this with a counting allocator).

use avr_compress::Compressor;
use avr_sim::vm::PhysMem;
use avr_types::addr::BLOCK_BYTES;
use avr_types::{BlockAddr, DataType, CL_BYTES};

/// Totals of one end-of-run block scan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockScan {
    /// Raw footprint of the scanned blocks (`blocks * 1 KB`).
    pub raw_bytes: u64,
    /// Footprint after compression (incompressible blocks stored raw).
    pub stored_bytes: u64,
    /// Blocks scanned.
    pub blocks: u64,
    /// Blocks the codec accepted. `compressible / blocks` is the
    /// compressible-block fraction the layout axis reports per layout.
    pub compressible: u64,
}

/// Scan `blocks`, compressing each from its final values in `mem`. The hot
/// loop reuses `comp`'s scratch and allocates nothing.
pub fn scan_blocks(
    comp: &mut Compressor,
    mem: &PhysMem,
    blocks: &[(BlockAddr, DataType)],
) -> BlockScan {
    let mut scan = BlockScan::default();
    for &(b, dt) in blocks {
        let data = mem.read_block(b);
        scan.blocks += 1;
        scan.raw_bytes += BLOCK_BYTES as u64;
        scan.stored_bytes += match comp.compress(&data, dt) {
            Ok(o) => {
                scan.compressible += 1;
                (o.compressed.size_lines() * CL_BYTES) as u64
            }
            Err(_) => BLOCK_BYTES as u64, // incompressible: stored raw
        };
    }
    scan
}

#[cfg(test)]
mod tests {
    use super::*;
    use avr_compress::Thresholds;
    use avr_sim::vm::AddressSpace;
    use avr_types::PhysAddr;

    /// A memory image with a mix of smooth (compressible) and noisy
    /// (incompressible) approximable blocks.
    fn mixed_image(blocks: usize) -> (PhysMem, Vec<(BlockAddr, DataType)>) {
        let mut mem = PhysMem::new();
        let mut space = AddressSpace::new();
        let region = space.approx_malloc(blocks * BLOCK_BYTES, DataType::F32);
        for i in 0..(blocks * BLOCK_BYTES / 4) as u64 {
            let block = i / 256;
            let v = if block % 3 == 2 {
                // Noise block: incompressible.
                f32::from_bits(0x3F80_0000 | ((i.wrapping_mul(2654435761) as u32) & 0x7F_FFFF))
            } else {
                100.0 + (i % 256) as f32 * 0.01
            };
            mem.write_u32(PhysAddr(region.base.0 + 4 * i), v.to_bits());
        }
        let list: Vec<_> = space.approx_blocks().collect();
        assert_eq!(list.len(), blocks);
        (mem, list)
    }

    #[test]
    fn scan_counts_compressible_and_raw_blocks() {
        let (mem, blocks) = mixed_image(300);
        let mut comp = Compressor::new(Thresholds::paper_default(), 8);
        let scan = scan_blocks(&mut comp, &mem, &blocks);
        assert_eq!(scan.raw_bytes, 300 * BLOCK_BYTES as u64);
        assert_eq!(scan.blocks, 300);
        assert!(scan.stored_bytes < scan.raw_bytes, "smooth blocks must compress");
        assert!(scan.stored_bytes > scan.raw_bytes / 16, "noise blocks must store raw");
        // 2 of every 3 blocks are smooth; the codec must accept exactly those.
        assert_eq!(scan.compressible, 200);
    }

    #[test]
    fn empty_scan_is_zero() {
        let mut comp = Compressor::new(Thresholds::paper_default(), 8);
        assert_eq!(scan_blocks(&mut comp, &PhysMem::new(), &[]), BlockScan::default());
    }
}
