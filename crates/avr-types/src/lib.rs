//! Shared ground types for the AVR reproduction.
//!
//! Everything in this crate mirrors the fixed architectural constants of the
//! paper (ICPP 2019): 64-byte cachelines, 1 KB memory blocks of 16 cachelines,
//! 4 KB pages of 4 blocks, and 32-bit values (256 per block).

pub mod addr;
pub mod block;
pub mod config;
pub mod job;
pub mod knobs;
pub mod line;
pub mod value;

pub use addr::{BlockAddr, LineAddr, PhysAddr, CL_BYTES, CL_OFFSET_BITS, LINES_PER_BLOCK};
pub use block::BlockData;
pub use config::{
    check_thresholds, AvrParams, BackendKind, BenchScale, CacheGeometry, DesignKind, DramParams,
    ErrorModelParams, LayoutKind, MemoParams, SystemConfig, ThresholdError,
};
pub use job::{CellSpec, ConfigOverrides};
pub use line::CacheLine;
pub use value::{DataType, VALUES_PER_BLOCK, VALUES_PER_LINE};
